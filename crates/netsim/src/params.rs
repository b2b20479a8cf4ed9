//! Low-allocation protocol-event names and parameters.
//!
//! Protocol events are the hottest observation channel in the simulator:
//! every agent emits several per packet. Names are almost always string
//! literals ("sd_service_add", "query_sent"), and parameter lists are short
//! (one to three pairs). Representing them as `String` +
//! `Vec<(String, String)>` forced four-plus heap allocations per emit.
//!
//! [`EventStr`] wraps `Cow<'static, str>` so literals are interned at
//! compile time (zero allocation) while dynamic names — fault flags built
//! with `format!` — still work. [`EventParams`] stores up to
//! [`INLINE_PARAMS`] pairs inline and only spills longer lists to the heap,
//! SmallVec-style, without pulling in an external dependency.

use std::borrow::Cow;
use std::fmt;

/// An event name or parameter string; `&'static str` in the common case.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EventStr(Cow<'static, str>);

/// Protocol-event names are the same representation as parameter strings.
pub type EventName = EventStr;

impl EventStr {
    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Converts into an owned `String` (clones only if borrowed).
    pub(crate) fn into_string(self) -> String {
        self.0.into_owned()
    }
}

impl fmt::Display for EventStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::ops::Deref for EventStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for EventStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&'static str> for EventStr {
    fn from(s: &'static str) -> Self {
        EventStr(Cow::Borrowed(s))
    }
}

impl From<String> for EventStr {
    fn from(s: String) -> Self {
        EventStr(Cow::Owned(s))
    }
}

impl From<Cow<'static, str>> for EventStr {
    fn from(c: Cow<'static, str>) -> Self {
        EventStr(c)
    }
}

impl From<EventStr> for String {
    fn from(s: EventStr) -> Self {
        s.into_string()
    }
}

impl PartialEq<str> for EventStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for EventStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for EventStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<EventStr> for str {
    fn eq(&self, other: &EventStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<EventStr> for &str {
    fn eq(&self, other: &EventStr) -> bool {
        *self == other.as_str()
    }
}

/// One key/value parameter.
pub(crate) type Param = (EventStr, EventStr);

/// Pairs stored inline before spilling to the heap.
pub(crate) const INLINE_PARAMS: usize = 3;

/// A short list of key/value parameters attached to a protocol event.
///
/// Up to three pairs (`INLINE_PARAMS`) live inline in the struct; longer lists
/// (rare) spill the remainder into a `Vec`. Iteration order is insertion
/// order in both regimes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventParams {
    inline: [Option<Param>; INLINE_PARAMS],
    spill: Vec<Param>,
}

impl EventParams {
    /// An empty parameter list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pair, spilling to the heap past [`INLINE_PARAMS`].
    pub(crate) fn push(&mut self, key: impl Into<EventStr>, value: impl Into<EventStr>) {
        let pair = (key.into(), value.into());
        if self.spill.is_empty() {
            for slot in &mut self.inline {
                if slot.is_none() {
                    *slot = Some(pair);
                    return;
                }
            }
        }
        self.spill.push(pair);
    }

    /// Iterates pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.inline
            .iter()
            .filter_map(|p| p.as_ref())
            .chain(self.spill.iter())
    }
}

impl<K: Into<EventStr>, V: Into<EventStr>, const N: usize> From<[(K, V); N]> for EventParams {
    fn from(pairs: [(K, V); N]) -> Self {
        let mut out = EventParams::new();
        for (k, v) in pairs {
            out.push(k, v);
        }
        out
    }
}

impl<K: Into<EventStr>, V: Into<EventStr>> From<Vec<(K, V)>> for EventParams {
    fn from(pairs: Vec<(K, V)>) -> Self {
        let mut out = EventParams::new();
        for (k, v) in pairs {
            out.push(k, v);
        }
        out
    }
}

impl<'a> IntoIterator for &'a EventParams {
    type Item = &'a Param;
    type IntoIter = Box<dyn Iterator<Item = &'a Param> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_names_do_not_allocate() {
        let name: EventStr = "sd_service_add".into();
        assert!(matches!(name.0, Cow::Borrowed(_)));
        assert_eq!(name, "sd_service_add");
        assert_eq!("sd_service_add", name);
    }

    #[test]
    fn dynamic_names_still_work() {
        let name: EventStr = format!("fault_{}_started", "node_crash").into();
        assert_eq!(name.as_str(), "fault_node_crash_started");
        let s: String = name.into();
        assert_eq!(s, "fault_node_crash_started");
    }

    #[test]
    fn params_stay_inline_up_to_capacity() {
        let p = EventParams::from([("a", "1"), ("b", "2"), ("c", "3")]);
        assert_eq!(p.iter().count(), 3);
        assert!(p.spill.is_empty());
    }

    #[test]
    fn params_spill_preserving_order() {
        let mut p = EventParams::new();
        for i in 0..6 {
            p.push(format!("k{i}"), format!("v{i}"));
        }
        assert_eq!(p.spill.len(), 3);
        let keys: Vec<&str> = p.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k0", "k1", "k2", "k3", "k4", "k5"]);
        let pairs: Vec<(&str, &str)> = p.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let want: Vec<(String, String)> =
            (0..6).map(|i| (format!("k{i}"), format!("v{i}"))).collect();
        assert!(pairs
            .iter()
            .zip(&want)
            .all(|(got, want)| got.0 == want.0 && got.1 == want.1));
        assert_eq!(pairs.len(), want.len());
    }

    #[test]
    fn empty_params() {
        let p = EventParams::new();
        assert_eq!(p.iter().count(), 0);
        assert_eq!(p, EventParams::default());
    }

    #[test]
    fn from_vec_matches_from_array() {
        let a = EventParams::from([("x", "1"), ("y", "2")]);
        let b = EventParams::from(vec![("x", "1"), ("y", "2")]);
        assert_eq!(a, b);
    }
}
