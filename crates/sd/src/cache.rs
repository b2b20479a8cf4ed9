//! The local service cache kept by SUs, SMs and SCMs.
//!
//! Most SDPs implement a local cache to reduce network load (§III-A); this
//! one tracks record expiry (TTL), supports the known-answer list of
//! outgoing queries, and reports add/remove/update transitions so the agent
//! can emit `sd_service_add` / `sd_service_del` / `sd_service_upd` events.
//!
//! Records are kept per service type, then per instance name, so a
//! received record is looked up by its borrowed `(type, instance)` without
//! building an owned key. Beside them the cache keeps the expiry instant of
//! every record as an ordered multiset, so the earliest deadline is read in
//! O(log n) and a sweep with nothing due touches no record. The maps are
//! hashed deterministically; every listing is sorted before it is returned.

use crate::model::{ServiceDescription, ServiceType};
use excovery_netsim::fasthash::FastHashMap;
use excovery_netsim::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Outcome of merging a record into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheChange {
    /// The instance was not known before.
    Added,
    /// The instance was known; description content changed.
    Updated,
    /// The instance was known; only the expiry was refreshed.
    Refreshed,
    /// A goodbye (TTL 0) removed the instance.
    Removed,
    /// A goodbye for an unknown instance: nothing happened.
    Ignored,
}

#[derive(Debug, Clone)]
struct Entry {
    desc: ServiceDescription,
    expires: SimTime,
}

/// TTL-aware service cache.
///
/// An entry stays stored after its expiry instant until [`Self::expire`]
/// sweeps it; [`Self::lookup`], [`Self::known_answers`] and [`Self::all`]
/// already hide it, [`Self::len`] still counts it.
#[derive(Debug, Clone, Default)]
pub struct ServiceCache {
    /// Entries by service type, then by instance name.
    entries: FastHashMap<ServiceType, FastHashMap<String, Entry>>,
    /// The expiry instant of every entry, with its multiplicity.
    expiries: BTreeMap<SimTime, u32>,
}

impl ServiceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a received record, returning what changed.
    ///
    /// A record with TTL 0 (a goodbye) removes the instance; any other
    /// record (re)sets its expiry to `now` plus its TTL. Key strings are
    /// cloned only when the instance is new.
    pub fn merge(&mut self, desc: &ServiceDescription, now: SimTime) -> CacheChange {
        self.merge_record(Cow::Borrowed(desc), now)
    }

    /// [`Self::merge`] for a record the caller has no further use for: a
    /// new or changed instance stores it instead of a clone.
    pub(crate) fn merge_owned(&mut self, desc: ServiceDescription, now: SimTime) -> CacheChange {
        self.merge_record(Cow::Owned(desc), now)
    }

    fn merge_record(&mut self, desc: Cow<'_, ServiceDescription>, now: SimTime) -> CacheChange {
        if desc.is_goodbye() {
            let removed = self
                .entries
                .get_mut(&desc.stype)
                .and_then(|by_name| by_name.remove(desc.instance.as_str()));
            return match removed {
                Some(e) => {
                    unindex(&mut self.expiries, e.expires);
                    CacheChange::Removed
                }
                None => CacheChange::Ignored,
            };
        }
        let expires = now + SimDuration::from_secs(u64::from(desc.ttl_s));
        let by_name = match self.entries.get_mut(&desc.stype) {
            Some(by_name) => by_name,
            None => self.entries.entry(desc.stype.clone()).or_default(),
        };
        let Some(e) = by_name.get_mut(desc.instance.as_str()) else {
            let entry = Entry {
                desc: desc.into_owned(),
                expires,
            };
            by_name.insert(entry.desc.instance.clone(), entry);
            index(&mut self.expiries, expires);
            return CacheChange::Added;
        };
        let old = std::mem::replace(&mut e.expires, expires);
        if old != expires {
            unindex(&mut self.expiries, old);
            index(&mut self.expiries, expires);
        }
        let content_changed = e.desc.service_port != desc.service_port
            || e.desc.attributes != desc.attributes
            || e.desc.provider != desc.provider;
        if content_changed {
            e.desc = desc.into_owned();
            CacheChange::Updated
        } else {
            CacheChange::Refreshed
        }
    }

    /// Removes the entries whose expiry instant is at or before `now`,
    /// returning their descriptions sorted by (type, instance).
    pub fn expire(&mut self, now: SimTime) -> Vec<ServiceDescription> {
        let mut lapsed = Vec::new();
        if self.next_expiry().is_none_or(|next| next > now) {
            return lapsed;
        }
        for by_name in self.entries.values_mut() {
            by_name.retain(|_, e| {
                let keep = e.expires > now;
                if !keep {
                    lapsed.push(e.desc.clone());
                }
                keep
            });
        }
        while let Some(entry) = self.expiries.first_entry() {
            if *entry.key() > now {
                break;
            }
            entry.remove();
        }
        lapsed.sort_by(|a, b| (&a.stype, &a.instance).cmp(&(&b.stype, &b.instance)));
        lapsed
    }

    /// Live records of a service type, sorted by instance name.
    pub fn lookup(&self, stype: &ServiceType, now: SimTime) -> Vec<&ServiceDescription> {
        let mut out: Vec<&ServiceDescription> = self
            .entries
            .get(stype)
            .into_iter()
            .flat_map(FastHashMap::values)
            .filter(|e| e.expires > now)
            .map(|e| &e.desc)
            .collect();
        out.sort_by(|a, b| a.instance.cmp(&b.instance));
        out
    }

    /// Instance names for the known-answer section of a query, sorted:
    /// live records of `stype` whose remaining TTL exceeds half the
    /// original (RFC 6762 §7.1 — records nearing expiry are not
    /// suppressed).
    pub fn known_answers(&self, stype: &ServiceType, now: SimTime) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .get(stype)
            .into_iter()
            .flat_map(FastHashMap::values)
            .filter(|e| {
                let total = SimDuration::from_secs(u64::from(e.desc.ttl_s));
                let remaining = e.expires.saturating_since(now);
                remaining.as_nanos() * 2 > total.as_nanos()
            })
            .map(|e| e.desc.instance.clone())
            .collect();
        out.sort();
        out
    }

    /// The earliest expiry instant of any stored entry, swept or not (to
    /// arm the expiry timer).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.expiries.keys().next().copied()
    }

    /// Number of stored entries, including any expired but not yet swept.
    pub fn len(&self) -> usize {
        self.entries.values().map(FastHashMap::len).sum()
    }

    /// True if the cache stores nothing.
    pub fn is_empty(&self) -> bool {
        self.expiries.is_empty()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.expiries.clear();
    }

    /// All live records regardless of type, sorted by (type, instance)
    /// (SCM responses, diagnostics).
    pub fn all(&self, now: SimTime) -> Vec<&ServiceDescription> {
        let mut out: Vec<&ServiceDescription> = self
            .entries
            .values()
            .flat_map(FastHashMap::values)
            .filter(|e| e.expires > now)
            .map(|e| &e.desc)
            .collect();
        out.sort_by(|a, b| (&a.stype, &a.instance).cmp(&(&b.stype, &b.instance)));
        out
    }
}

/// Adds one occurrence of `at` to an expiry multiset.
fn index(expiries: &mut BTreeMap<SimTime, u32>, at: SimTime) {
    *expiries.entry(at).or_insert(0) += 1;
}

/// Drops one occurrence of `at` from an expiry multiset.
fn unindex(expiries: &mut BTreeMap<SimTime, u32>, at: SimTime) {
    if let Some(n) = expiries.get_mut(&at) {
        *n -= 1;
        if *n == 0 {
            expiries.remove(&at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_netsim::NodeId;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    fn desc(name: &str, ttl: u32) -> ServiceDescription {
        let mut d = ServiceDescription::new(name, ServiceType::new("_http._tcp"), NodeId(1));
        d.ttl_s = ttl;
        d
    }

    #[test]
    fn add_then_lookup() {
        let mut c = ServiceCache::new();
        assert_eq!(c.merge(&desc("a", 10), t(0)), CacheChange::Added);
        let found = c.lookup(&ServiceType::new("_http._tcp"), t(5));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].instance, "a");
        assert!(c.lookup(&ServiceType::new("_other._udp"), t(5)).is_empty());
    }

    #[test]
    fn refresh_vs_update() {
        let mut c = ServiceCache::new();
        c.merge(&desc("a", 10), t(0));
        assert_eq!(c.merge(&desc("a", 10), t(5)), CacheChange::Refreshed);
        let mut changed = desc("a", 10);
        changed.service_port = 8080;
        assert_eq!(c.merge(&changed, t(6)), CacheChange::Updated);
    }

    #[test]
    fn goodbye_removes() {
        let mut c = ServiceCache::new();
        c.merge(&desc("a", 10), t(0));
        assert_eq!(c.merge(&desc("a", 0), t(1)), CacheChange::Removed);
        assert!(c.is_empty());
        assert_eq!(c.merge(&desc("ghost", 0), t(1)), CacheChange::Ignored);
    }

    #[test]
    fn expiry_sweep() {
        let mut c = ServiceCache::new();
        c.merge(&desc("a", 10), t(0));
        c.merge(&desc("b", 100), t(0));
        assert!(c.expire(t(5)).is_empty());
        let lapsed = c.expire(t(11));
        assert_eq!(lapsed.len(), 1);
        assert_eq!(lapsed[0].instance, "a");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lookup_hides_expired_before_sweep() {
        let mut c = ServiceCache::new();
        c.merge(&desc("a", 10), t(0));
        assert!(c.lookup(&ServiceType::new("_http._tcp"), t(11)).is_empty());
        assert_eq!(c.len(), 1, "not swept yet");
    }

    #[test]
    fn known_answer_half_ttl_rule() {
        let mut c = ServiceCache::new();
        c.merge(&desc("fresh", 100), t(0));
        c.merge(&desc("stale", 10), t(0));
        // At t=6, "stale" has 4 s of 10 left (<half) and must not be listed;
        // "fresh" has 94 of 100 left.
        let known = c.known_answers(&ServiceType::new("_http._tcp"), t(6));
        assert_eq!(known, vec!["fresh"]);
    }

    #[test]
    fn next_expiry_is_minimum() {
        let mut c = ServiceCache::new();
        assert_eq!(c.next_expiry(), None);
        c.merge(&desc("a", 50), t(0));
        c.merge(&desc("b", 20), t(0));
        assert_eq!(c.next_expiry(), Some(t(20)));
    }

    #[test]
    fn expiry_index_follows_refresh_goodbye_and_sweep() {
        let mut c = ServiceCache::new();
        c.merge(&desc("a", 10), t(0));
        c.merge(&desc("b", 10), t(0));
        c.merge(&desc("c", 30), t(0));
        assert_eq!(c.next_expiry(), Some(t(10)));
        assert_eq!(c.merge(&desc("a", 10), t(5)), CacheChange::Refreshed);
        assert_eq!(c.next_expiry(), Some(t(10)), "b still lapses at 10");
        assert_eq!(c.merge(&desc("b", 0), t(6)), CacheChange::Removed);
        assert_eq!(c.next_expiry(), Some(t(15)));
        assert!(c.expire(t(14)).is_empty());
        let lapsed = c.expire(t(15));
        assert_eq!(lapsed.len(), 1);
        assert_eq!(lapsed[0].instance, "a");
        assert_eq!(c.next_expiry(), Some(t(30)));
        c.clear();
        assert_eq!(c.next_expiry(), None);
    }

    #[test]
    fn types_are_kept_apart_and_listed_in_order() {
        let mut c = ServiceCache::new();
        let mut ipp = desc("a", 10);
        ipp.stype = ServiceType::new("_ipp._tcp");
        c.merge(&ipp, t(0));
        c.merge(&desc("b", 20), t(0));
        c.merge(&desc("a", 20), t(0));
        let http = ServiceType::new("_http._tcp");
        let names: Vec<&str> = c
            .lookup(&http, t(1))
            .iter()
            .map(|d| d.instance.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(c.known_answers(&http, t(1)), vec!["a", "b"]);
        let all: Vec<(&str, &str)> = c
            .all(t(1))
            .iter()
            .map(|d| (d.stype.0.as_str(), d.instance.as_str()))
            .collect();
        assert_eq!(
            all,
            vec![("_http._tcp", "a"), ("_http._tcp", "b"), ("_ipp._tcp", "a")]
        );
        let lapsed = c.expire(t(20));
        assert_eq!(lapsed.len(), 3, "sorted like all(): {lapsed:?}");
        assert_eq!(lapsed[2].stype.0, "_ipp._tcp");
        assert!(c.is_empty());
    }

    #[test]
    fn all_sorted() {
        let mut c = ServiceCache::new();
        c.merge(&desc("zeta", 10), t(0));
        c.merge(&desc("alpha", 10), t(0));
        let names: Vec<&str> = c.all(t(1)).iter().map(|d| d.instance.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        c.clear();
        assert!(c.is_empty());
    }
}
