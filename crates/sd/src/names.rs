//! Dense ids for the service types and records the SD agents of one
//! simulator see.
//!
//! An agent keys its publications, searches and cache by these ids, so a
//! delivery compares and indexes small integers instead of hashing the
//! type and instance strings. Every agent of a simulator shares one
//! [`Names`] table, reached through `AgentCtx::shared`, and the shared
//! decode of a packet interns its records once for all its receivers. The
//! table lives as long as its simulator and holds each distinct type and
//! (type, instance) pair once.
//!
//! Ids are handed out in first-seen order, which on a sharded run depends
//! on which thread decodes a packet first. So an id never reaches any
//! output or decides any order: listings are sorted by the strings.

use crate::model::ServiceType;
use excovery_netsim::fasthash::FastHashMap;
use std::sync::{Mutex, PoisonError};

/// Dense id of a service type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StypeId(u32);

/// Dense id of a record: one service type and instance name. Two
/// providers that claim the same instance of a type share an id, as they
/// share a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordId {
    /// The record's service type.
    pub(crate) stype: StypeId,
    /// Dense over every record of the table, whatever its type.
    index: u32,
}

impl RecordId {
    /// Position of the record in an id-indexed table.
    pub(crate) fn index(self) -> usize {
        self.index as usize
    }
}

/// One simulator's table of interned service types and records.
#[derive(Debug, Default)]
pub(crate) struct Names(Mutex<Table>);

/// The interned names, behind [`Names`]'s lock.
#[derive(Debug, Default)]
pub(crate) struct Table {
    types: FastHashMap<String, StypeId>,
    /// Record ids per type id, by instance name.
    instances: Vec<FastHashMap<Box<str>, u32>>,
    records: u32,
}

impl Names {
    /// Runs `f` on the table under one lock, to intern every name of a
    /// message at once.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut Table) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The id of `stype`.
    pub(crate) fn stype(&self, stype: &ServiceType) -> StypeId {
        self.with(|t| t.stype(stype))
    }

    /// The number of records interned so far.
    pub(crate) fn records(&self) -> usize {
        self.with(|t| t.records as usize)
    }

    /// The id of the record `instance` of `stype`.
    #[cfg(test)]
    pub(crate) fn record(&self, stype: &ServiceType, instance: &str) -> RecordId {
        self.with(|t| t.record(stype, instance))
    }
}

impl Table {
    /// The id of `stype`, new if it was not seen before.
    pub(crate) fn stype(&mut self, stype: &ServiceType) -> StypeId {
        if let Some(&id) = self.types.get(stype.0.as_str()) {
            return id;
        }
        let id = StypeId(u32::try_from(self.instances.len()).expect("fewer than 2^32 types"));
        self.types.insert(stype.0.clone(), id);
        self.instances.push(FastHashMap::default());
        id
    }

    /// The id of the record `instance` of `stype`, new if it was not seen
    /// before.
    pub(crate) fn record(&mut self, stype: &ServiceType, instance: &str) -> RecordId {
        let stype = self.stype(stype);
        let by_name = &mut self.instances[stype.0 as usize];
        let index = match by_name.get(instance) {
            Some(&index) => index,
            None => {
                let index = self.records;
                self.records = index.checked_add(1).expect("fewer than 2^32 records");
                by_name.insert(instance.into(), index);
                index
            }
        };
        RecordId { stype, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let names = Names::default();
        let http = ServiceType::new("_http._tcp");
        let ipp = ServiceType::new("_ipp._tcp");
        let a = names.record(&http, "a");
        let b = names.record(&ipp, "a");
        let c = names.record(&http, "b");
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        assert_eq!(a.stype, c.stype);
        assert_ne!(a.stype, b.stype);
        assert_eq!(names.record(&http, "a"), a);
        assert_eq!(names.stype(&ipp), b.stype);
    }
}
