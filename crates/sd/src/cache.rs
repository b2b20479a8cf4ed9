//! The local service cache kept by SUs, SMs and SCMs.
//!
//! Most SDPs implement a local cache to reduce network load (§III-A); this
//! one tracks record expiry (TTL), supports the known-answer list of
//! outgoing queries, and reports add/remove/update transitions so the agent
//! can emit `sd_service_add` / `sd_service_del` / `sd_service_upd` events.
//!
//! Records are kept in slots indexed by their interned [`RecordId`], so a
//! received record is found by indexing, not by hashing its type and
//! instance name. A record is shared, not copied: the cache keeps a
//! reference to the decoded record, so merging a new or changed instance
//! costs a reference count and a refresh costs nothing. Beside the slots
//! the cache keeps the expiry instant of every record in a sorted vector
//! with repeats, so the earliest deadline is its first element and a sweep
//! with nothing due touches no record. Ids decide no order: every listing
//! is sorted by type and instance name before it is returned.

use crate::model::ServiceDescription;
use crate::names::{RecordId, StypeId};
use excovery_netsim::{SimDuration, SimTime};
use std::sync::Arc;

/// Outcome of merging a record into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheChange {
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

/// A stored record with its type and expiry instant.
#[derive(Debug, Clone)]
struct Entry {
    desc: Arc<ServiceDescription>,
    stype: StypeId,
    expires: SimTime,
}

/// TTL-aware service cache.
///
/// An entry stays stored after its expiry instant until [`Self::expire`]
/// sweeps it; [`Self::lookup`] and [`Self::known_answers`] already hide
/// it, [`Self::next_expiry`] still reports it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServiceCache {
    /// Records by [`RecordId::index`]; `None` where none is stored.
    slots: Vec<Option<Entry>>,
    /// The expiry instant of every entry, ascending, with repeats.
    expiries: Vec<SimTime>,
}

impl ServiceCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Makes room for `records` records, so that storing them does not
    /// grow the cache step by step.
    pub(crate) fn reserve(&mut self, records: usize) {
        self.slots.reserve(records.saturating_sub(self.slots.len()));
        self.expiries
            .reserve(records.saturating_sub(self.expiries.len()));
    }

    /// Merges a received record whose id is `id`, returning what changed.
    ///
    /// A record with TTL 0 (a goodbye) removes the instance; any other
    /// record (re)sets its expiry to `now` plus its TTL. A new or changed
    /// instance stores a reference to `desc`; a refresh stores nothing.
    pub(crate) fn merge(
        &mut self,
        id: RecordId,
        desc: &Arc<ServiceDescription>,
        now: SimTime,
    ) -> CacheChange {
        if desc.ttl_s == 0 {
            return if self.remove(id) {
                CacheChange::Removed
            } else {
                CacheChange::Ignored
            };
        }
        let expires = now + SimDuration::from_secs(u64::from(desc.ttl_s));
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let Some(entry) = &mut self.slots[i] else {
            self.slots[i] = Some(Entry {
                desc: Arc::clone(desc),
                stype: id.stype,
                expires,
            });
            index(&mut self.expiries, expires);
            return CacheChange::Added;
        };
        let old = &entry.desc;
        let content_changed = old.service_port != desc.service_port
            || old.attributes != desc.attributes
            || old.provider != desc.provider;
        reindex(&mut self.expiries, entry.expires, expires);
        entry.expires = expires;
        if content_changed {
            entry.desc = Arc::clone(desc);
            CacheChange::Updated
        } else {
            CacheChange::Refreshed
        }
    }

    /// Drops the record `id`; false if it was not stored.
    pub(crate) fn remove(&mut self, id: RecordId) -> bool {
        let removed = self.slots.get_mut(id.index()).and_then(Option::take);
        if let Some(entry) = &removed {
            unindex(&mut self.expiries, entry.expires);
        }
        removed.is_some()
    }

    /// Removes the entries whose expiry instant is at or before `now`,
    /// returning their descriptions sorted by (type, instance).
    pub(crate) fn expire(&mut self, now: SimTime) -> Vec<Arc<ServiceDescription>> {
        let mut lapsed = Vec::new();
        let due = self.expiries.partition_point(|&at| at <= now);
        if due == 0 {
            return lapsed;
        }
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|entry| entry.expires <= now) {
                lapsed.push(slot.take().expect("checked above").desc);
            }
        }
        self.expiries.drain(..due);
        lapsed.sort_by(|a, b| (&a.stype, &a.instance).cmp(&(&b.stype, &b.instance)));
        lapsed
    }

    /// The stored entries of a service type, in slot order.
    fn of_type(&self, stype: StypeId) -> impl Iterator<Item = &Entry> {
        self.slots
            .iter()
            .flatten()
            .filter(move |entry| entry.stype == stype)
    }

    /// Live records of a service type, sorted by instance name.
    pub(crate) fn lookup(&self, stype: StypeId, now: SimTime) -> Vec<&Arc<ServiceDescription>> {
        let mut out: Vec<&Arc<ServiceDescription>> = self
            .of_type(stype)
            .filter(|entry| entry.expires > now)
            .map(|entry| &entry.desc)
            .collect();
        out.sort_by(|a, b| a.instance.cmp(&b.instance));
        out
    }

    /// Instance names for the known-answer section of a query, sorted:
    /// live records of `stype` whose remaining TTL exceeds half the
    /// original (RFC 6762 §7.1 — records nearing expiry are not
    /// suppressed).
    pub(crate) fn known_answers(&self, stype: StypeId, now: SimTime) -> Vec<String> {
        let mut out: Vec<String> = self
            .of_type(stype)
            .filter(|entry| {
                let total = SimDuration::from_secs(u64::from(entry.desc.ttl_s));
                let remaining = entry.expires.saturating_since(now);
                remaining.as_nanos() * 2 > total.as_nanos()
            })
            .map(|entry| entry.desc.instance.clone())
            .collect();
        out.sort();
        out
    }

    /// The earliest expiry instant of any stored entry, swept or not (to
    /// arm the expiry timer).
    pub(crate) fn next_expiry(&self) -> Option<SimTime> {
        self.expiries.first().copied()
    }

    /// Drops everything, with the room it took: a node that leaves SD
    /// keeps no cache-sized buffers.
    pub(crate) fn clear(&mut self) {
        *self = Self::new();
    }
}

/// Adds one occurrence of `at` to a sorted expiry multiset.
fn index(expiries: &mut Vec<SimTime>, at: SimTime) {
    let i = expiries.partition_point(|&t| t <= at);
    expiries.insert(i, at);
}

/// Drops one occurrence of `at` from a sorted expiry multiset.
fn unindex(expiries: &mut Vec<SimTime>, at: SimTime) {
    if let Ok(i) = expiries.binary_search(&at) {
        expiries.remove(i);
    }
}

/// Replaces one occurrence of `old` in a sorted expiry multiset by `new`,
/// shifting only the instants between them.
fn reindex(expiries: &mut [SimTime], old: SimTime, new: SimTime) {
    let Ok(i) = expiries.binary_search(&old) else {
        return;
    };
    if new > old {
        let j = expiries.partition_point(|&t| t <= new);
        expiries[i..j].rotate_left(1);
        expiries[j - 1] = new;
    } else if new < old {
        let j = expiries.partition_point(|&t| t <= new);
        expiries[j..=i].rotate_right(1);
        expiries[j] = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServiceType;
    use crate::names::Names;
    use excovery_netsim::NodeId;
    use std::ops::{Deref, DerefMut};

    /// A cache that interns the names of what it is given.
    #[derive(Default)]
    struct Cache {
        cache: ServiceCache,
        names: Names,
    }

    impl Cache {
        fn new() -> Self {
            Self::default()
        }

        fn merge(&mut self, d: &Arc<ServiceDescription>, now: SimTime) -> CacheChange {
            let id = self.names.record(&d.stype, &d.instance);
            self.cache.merge(id, d, now)
        }

        fn lookup(&self, stype: &ServiceType, now: SimTime) -> Vec<&Arc<ServiceDescription>> {
            self.cache.lookup(self.names.stype(stype), now)
        }

        fn known_answers(&self, stype: &ServiceType, now: SimTime) -> Vec<String> {
            self.cache.known_answers(self.names.stype(stype), now)
        }
    }

    impl Deref for Cache {
        type Target = ServiceCache;
        fn deref(&self) -> &ServiceCache {
            &self.cache
        }
    }

    impl DerefMut for Cache {
        fn deref_mut(&mut self) -> &mut ServiceCache {
            &mut self.cache
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    fn desc(name: &str, ttl: u32) -> Arc<ServiceDescription> {
        let mut d = ServiceDescription::new(name, ServiceType::new("_http._tcp"), NodeId(1));
        d.ttl_s = ttl;
        Arc::new(d)
    }

    #[test]
    fn add_then_lookup() {
        let mut c = Cache::new();
        assert_eq!(c.merge(&desc("a", 10), t(0)), CacheChange::Added);
        let found = c.lookup(&ServiceType::new("_http._tcp"), t(5));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].instance, "a");
        assert!(c.lookup(&ServiceType::new("_other._udp"), t(5)).is_empty());
    }

    #[test]
    fn a_merge_stores_a_reference_and_a_refresh_stores_nothing() {
        let mut c = Cache::new();
        let http = ServiceType::new("_http._tcp");
        let first = desc("a", 10);
        assert_eq!(c.merge(&first, t(0)), CacheChange::Added);
        assert!(Arc::ptr_eq(c.lookup(&http, t(1))[0], &first));
        let same = desc("a", 10);
        assert_eq!(c.merge(&same, t(5)), CacheChange::Refreshed);
        assert_eq!(Arc::strong_count(&same), 1, "a refresh keeps no reference");
        assert!(Arc::ptr_eq(c.lookup(&http, t(6))[0], &first));
        let mut changed = desc("a", 10);
        Arc::make_mut(&mut changed).service_port = 8080;
        assert_eq!(c.merge(&changed, t(6)), CacheChange::Updated);
        assert!(Arc::ptr_eq(c.lookup(&http, t(7))[0], &changed));
        assert_eq!(Arc::strong_count(&first), 1, "the old record is let go");
        assert_eq!(c.next_expiry(), Some(t(16)));
    }

    #[test]
    fn refresh_vs_update() {
        let mut c = Cache::new();
        c.merge(&desc("a", 10), t(0));
        assert_eq!(c.merge(&desc("a", 10), t(5)), CacheChange::Refreshed);
        let mut changed = desc("a", 10);
        Arc::make_mut(&mut changed).service_port = 8080;
        assert_eq!(c.merge(&changed, t(6)), CacheChange::Updated);
    }

    #[test]
    fn goodbye_removes() {
        let mut c = Cache::new();
        c.merge(&desc("a", 10), t(0));
        assert_eq!(c.merge(&desc("a", 0), t(1)), CacheChange::Removed);
        assert_eq!(c.next_expiry(), None);
        assert_eq!(c.merge(&desc("ghost", 0), t(1)), CacheChange::Ignored);
    }

    #[test]
    fn expiry_sweep() {
        let mut c = Cache::new();
        c.merge(&desc("a", 10), t(0));
        c.merge(&desc("b", 100), t(0));
        assert!(c.expire(t(5)).is_empty());
        let lapsed = c.expire(t(11));
        assert_eq!(lapsed.len(), 1);
        assert_eq!(lapsed[0].instance, "a");
        assert_eq!(c.next_expiry(), Some(t(100)));
    }

    #[test]
    fn lookup_hides_expired_before_sweep() {
        let mut c = Cache::new();
        c.merge(&desc("a", 10), t(0));
        assert!(c.lookup(&ServiceType::new("_http._tcp"), t(11)).is_empty());
        assert_eq!(c.next_expiry(), Some(t(10)), "not swept yet");
    }

    #[test]
    fn known_answer_half_ttl_rule() {
        let mut c = Cache::new();
        c.merge(&desc("fresh", 100), t(0));
        c.merge(&desc("stale", 10), t(0));
        // At t=6, "stale" has 4 s of 10 left (<half) and must not be listed;
        // "fresh" has 94 of 100 left.
        let known = c.known_answers(&ServiceType::new("_http._tcp"), t(6));
        assert_eq!(known, vec!["fresh"]);
    }

    #[test]
    fn next_expiry_is_minimum() {
        let mut c = Cache::new();
        assert_eq!(c.next_expiry(), None);
        c.merge(&desc("a", 50), t(0));
        c.merge(&desc("b", 20), t(0));
        assert_eq!(c.next_expiry(), Some(t(20)));
    }

    #[test]
    fn expiry_index_follows_refresh_goodbye_and_sweep() {
        let mut c = Cache::new();
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
        let mut c = Cache::new();
        let mut ipp = desc("a", 10);
        Arc::make_mut(&mut ipp).stype = ServiceType::new("_ipp._tcp");
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
        let lapsed = c.expire(t(20));
        let lapsed: Vec<(&str, &str)> = lapsed
            .iter()
            .map(|d| (d.stype.0.as_str(), d.instance.as_str()))
            .collect();
        assert_eq!(
            lapsed,
            vec![("_http._tcp", "a"), ("_http._tcp", "b"), ("_ipp._tcp", "a")]
        );
        assert_eq!(c.next_expiry(), None);
    }
}
