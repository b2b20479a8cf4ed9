//! The id-indexed service cache against a reference model: the cache as
//! it was before records had ids, a map keyed by type and instance name
//! strings beside an ordered multiset of expiry instants. Random sequences
//! of merges (adds, refreshes, updates, goodbyes), removals, sweeps,
//! lookups, known-answer lists and clears, over two types that share
//! instance names and two providers that claim the same instance, must
//! return the same values and leave the same next expiry after every step.
//!
//! The cache and its name table are crate-private, so this test compiles
//! their sources into itself.

#[allow(dead_code)]
#[path = "../src/cache.rs"]
mod cache;
#[allow(dead_code)]
#[path = "../src/names.rs"]
mod names;
mod model {
    pub(crate) use excovery_sd::{ServiceDescription, ServiceType};
}

use cache::{CacheChange, ServiceCache};
use excovery_netsim::{NodeId, SimDuration, SimTime};
use model::{ServiceDescription, ServiceType};
use names::Names;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The reference: records by type, then by instance name, each with its
/// expiry instant, and the expiry instants with their multiplicity.
#[derive(Default)]
struct Reference {
    entries: HashMap<String, HashMap<String, (Arc<ServiceDescription>, SimTime)>>,
    expiries: BTreeMap<SimTime, u32>,
}

impl Reference {
    fn index(&mut self, at: SimTime) {
        *self.expiries.entry(at).or_insert(0) += 1;
    }

    fn unindex(&mut self, at: SimTime) {
        let n = self.expiries.get_mut(&at).expect("indexed");
        *n -= 1;
        if *n == 0 {
            self.expiries.remove(&at);
        }
    }

    fn merge(&mut self, desc: &Arc<ServiceDescription>, now: SimTime) -> CacheChange {
        if desc.ttl_s == 0 {
            return if self.remove(&desc.stype, &desc.instance) {
                CacheChange::Removed
            } else {
                CacheChange::Ignored
            };
        }
        let expires = now + SimDuration::from_secs(u64::from(desc.ttl_s));
        let by_name = self.entries.entry(desc.stype.0.clone()).or_default();
        let Some((old, old_expires)) = by_name.get(&desc.instance).cloned() else {
            by_name.insert(desc.instance.clone(), (Arc::clone(desc), expires));
            self.index(expires);
            return CacheChange::Added;
        };
        let changed = old.service_port != desc.service_port
            || old.attributes != desc.attributes
            || old.provider != desc.provider;
        let kept = if changed { Arc::clone(desc) } else { old };
        by_name.insert(desc.instance.clone(), (kept, expires));
        self.unindex(old_expires);
        self.index(expires);
        if changed {
            CacheChange::Updated
        } else {
            CacheChange::Refreshed
        }
    }

    fn remove(&mut self, stype: &ServiceType, instance: &str) -> bool {
        let removed = self
            .entries
            .get_mut(&stype.0)
            .and_then(|by_name| by_name.remove(instance));
        if let Some((_, expires)) = removed {
            self.unindex(expires);
        }
        removed.is_some()
    }

    fn expire(&mut self, now: SimTime) -> Vec<Arc<ServiceDescription>> {
        let mut lapsed = Vec::new();
        for by_name in self.entries.values_mut() {
            by_name.retain(|_, (desc, expires)| {
                let keep = *expires > now;
                if !keep {
                    lapsed.push(Arc::clone(desc));
                }
                keep
            });
        }
        self.expiries.retain(|&at, _| at > now);
        lapsed.sort_by(|a, b| (&a.stype, &a.instance).cmp(&(&b.stype, &b.instance)));
        lapsed
    }

    fn lookup(&self, stype: &ServiceType, now: SimTime) -> Vec<Arc<ServiceDescription>> {
        let mut out: Vec<Arc<ServiceDescription>> = self
            .entries
            .get(&stype.0)
            .into_iter()
            .flat_map(HashMap::values)
            .filter(|(_, expires)| *expires > now)
            .map(|(desc, _)| Arc::clone(desc))
            .collect();
        out.sort_by(|a, b| a.instance.cmp(&b.instance));
        out
    }

    fn known_answers(&self, stype: &ServiceType, now: SimTime) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .get(&stype.0)
            .into_iter()
            .flat_map(HashMap::values)
            .filter(|(desc, expires)| {
                let total = SimDuration::from_secs(u64::from(desc.ttl_s));
                expires.saturating_since(now).as_nanos() * 2 > total.as_nanos()
            })
            .map(|(desc, _)| desc.instance.clone())
            .collect();
        out.sort();
        out
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.expiries.keys().next().copied()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.expiries.clear();
    }
}

/// One step; `advance_s` seconds pass before it.
#[derive(Debug, Clone)]
enum Op {
    Merge {
        stype: usize,
        instance: usize,
        provider: u16,
        port: u16,
        ttl_s: u32,
    },
    Remove {
        stype: usize,
        instance: usize,
    },
    Expire,
    Lookup(usize),
    KnownAnswers(usize),
    Clear,
}

const TYPES: [&str; 2] = ["_http._tcp", "_ipp._tcp"];
const INSTANCES: [&str; 3] = ["a", "b", "c"];

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..2usize, 0..3usize, 0..2u16, 0..2u16, 0..5u32).prop_map(
            |(stype, instance, provider, port, ttl_s)| Op::Merge {
                stype,
                instance,
                provider,
                port,
                ttl_s,
            }
        ),
        1 => (0..2usize, 0..3usize).prop_map(|(stype, instance)| Op::Remove { stype, instance }),
        2 => Just(Op::Expire),
        2 => (0..2usize).prop_map(Op::Lookup),
        2 => (0..2usize).prop_map(Op::KnownAnswers),
        1 => Just(Op::Clear),
    ]
}

fn same_records(got: &[&Arc<ServiceDescription>], want: &[Arc<ServiceDescription>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| Arc::ptr_eq(g, w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_cache_answers_as_the_string_keyed_model(
        steps in prop::collection::vec((0..3u64, op()), 1..60)
    ) {
        let names = Names::default();
        let types = TYPES.map(ServiceType::new);
        let mut cache = ServiceCache::new();
        let mut reference = Reference::default();
        let mut now = SimTime::ZERO;
        for (i, (advance_s, op)) in steps.into_iter().enumerate() {
            now += SimDuration::from_secs(advance_s);
            match op {
                Op::Merge { stype, instance, provider, port, ttl_s } => {
                    let mut desc = ServiceDescription::new(
                        INSTANCES[instance],
                        types[stype].clone(),
                        NodeId(provider),
                    );
                    desc.service_port = port;
                    desc.ttl_s = ttl_s;
                    let desc = Arc::new(desc);
                    let id = names.record(&desc.stype, &desc.instance);
                    prop_assert_eq!(cache.merge(id, &desc, now), reference.merge(&desc, now), "step {}", i);
                }
                Op::Remove { stype, instance } => {
                    let id = names.record(&types[stype], INSTANCES[instance]);
                    prop_assert_eq!(
                        cache.remove(id),
                        reference.remove(&types[stype], INSTANCES[instance]),
                        "step {}", i
                    );
                }
                Op::Expire => {
                    let got = cache.expire(now);
                    let want = reference.expire(now);
                    prop_assert!(same_records(&got.iter().collect::<Vec<_>>(), &want), "step {}: {:?} != {:?}", i, got, want);
                }
                Op::Lookup(stype) => {
                    let got = cache.lookup(names.stype(&types[stype]), now);
                    let want = reference.lookup(&types[stype], now);
                    prop_assert!(same_records(&got, &want), "step {}: {:?} != {:?}", i, got, want);
                }
                Op::KnownAnswers(stype) => {
                    prop_assert_eq!(
                        cache.known_answers(names.stype(&types[stype]), now),
                        reference.known_answers(&types[stype], now),
                        "step {}", i
                    );
                }
                Op::Clear => {
                    cache.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(cache.next_expiry(), reference.next_expiry(), "step {}", i);
        }
    }
}
