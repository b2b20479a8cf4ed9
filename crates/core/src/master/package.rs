//! Packaging: level 2 conditioned onto the common time base and written
//! into the level-3 database (paper §IV-F).

use super::ExperiMaster;
use crate::error::EngineError;
use crate::l2codec::{self, read_json};
use excovery_store::level2::Level2Store;
use excovery_store::records::{ExperimentInfo, RunInfoRow};
use excovery_store::schema::{create_level3_database, EE_VERSION};
use excovery_store::{CellRef, Database, JsonValue, SqlValue, StoreError};
use std::collections::HashMap;

impl ExperiMaster {
    /// Conditions level-2 data onto the common time base and packages the
    /// level-3 database (paper §IV-F).
    pub(super) fn package(&self, l2: &Level2Store) -> Result<Database, EngineError> {
        let mut db = create_level3_database();
        let xml = excovery_desc::xmlio::to_xml(&self.desc);
        ExperimentInfo {
            exp_xml: xml.clone(),
            ee_version: EE_VERSION.into(),
            name: self.desc.name.clone(),
            comment: self.desc.comment.clone().unwrap_or_default(),
        }
        .insert(&mut db)?;
        db.insert(
            "EEFiles",
            vec!["description.xml".into(), xml.into_bytes().into()],
        )?;
        db.insert(
            "EEFiles",
            vec!["ee_version".into(), EE_VERSION.as_bytes().to_vec().into()],
        )?;
        for (i, name) in l2codec::TOPOLOGIES.iter().enumerate() {
            if let Ok(data) = l2.get_experiment(l2codec::TOPOLOGY_NODE, name) {
                db.insert(
                    "ExperimentMeasurements",
                    vec![
                        (i as i64).into(),
                        l2codec::TOPOLOGY_NODE.into(),
                        (*name).into(),
                        data.into(),
                    ],
                )?;
            }
        }

        // Logs: the raw per-node action log (one row per node, §IV-F),
        // reassembled from the per-run segments each run drained into
        // level 2. Reading level 2 instead of the NodeManagers' live
        // memory makes the table identical whether the campaign ran in
        // one master incarnation or was killed and resumed: the in-memory
        // log dies with a crashed master, the journalled segments do not.
        let managed = self.binding.managed_platform_ids();
        let mut logs: Vec<String> = managed
            .iter()
            .map(|pid| {
                format!(
                    "node {pid}: experiment '{}' executed by {EE_VERSION}\n",
                    self.desc.name
                )
            })
            .collect();
        // One `Parameter` cell buffer for every event row.
        let mut parameter = String::new();

        for run_id in l2.run_ids()? {
            // One read per run: every table below borrows from this record.
            let record = l2.load_run(run_id)?;
            let sync: HashMap<String, i64> = read_json(
                &record,
                run_id,
                l2codec::MASTER,
                l2codec::SYNC,
                l2codec::sync_from_json,
            )?;
            let start_ns: u64 = read_json(
                &record,
                run_id,
                l2codec::MASTER,
                l2codec::START,
                JsonValue::as_u64,
            )?;
            // Sorted node order: map iteration order must never leak into
            // the packaged database (digest stability).
            let mut sync_sorted: Vec<(&String, &i64)> = sync.iter().collect();
            sync_sorted.sort();
            for (pid, offset) in sync_sorted {
                RunInfoRow {
                    run_id,
                    node_id: pid.clone(),
                    start_time_ns: start_ns as i64,
                    time_diff_ns: *offset,
                }
                .insert(&mut db)?;
            }
            // Events: condition local node stamps to the common base.
            let bad_events =
                |name, what: &str| l2codec::entry_error(run_id, l2codec::MASTER, name, what);
            if record
                .get(l2codec::MASTER, l2codec::LEGACY_EVENTS)
                .is_some()
            {
                // Skipping it would package the run without its events.
                return Err(bad_events(
                    l2codec::LEGACY_EVENTS,
                    &format!(
                        "written by an older build; this build reads {}",
                        l2codec::EVENTS
                    ),
                ));
            }
            let raw = record
                .get(l2codec::MASTER, l2codec::EVENTS)
                .ok_or_else(|| bad_events(l2codec::EVENTS, "missing"))?;
            let events = l2codec::decode_events(raw)
                .map_err(|e| bad_events(l2codec::EVENTS, &e.to_string()))?;
            // Rows of `Events` and `Packets` borrow their cells from the
            // record: nothing is copied but into the tables.
            db.insert_cells("Events", |insert| {
                events.iter().try_for_each(|(e, params)| {
                    let offset = sync.get(e.node).copied().unwrap_or(0);
                    let time = common_time(
                        e.local_time_ns,
                        offset,
                        run_id,
                        l2codec::MASTER,
                        l2codec::EVENTS,
                    )?;
                    parameter.clear();
                    push_params(&mut parameter, params);
                    insert(&[
                        CellRef::Int(run_id as i64),
                        CellRef::Text(e.node),
                        CellRef::Int(time),
                        CellRef::Text(e.name),
                        CellRef::Text(&parameter),
                    ])
                })
            })?;
            // Custom (plugin) measurements -> ExtraRunMeasurements; only
            // runs whose plugins recorded something have the entry.
            if record
                .get(l2codec::PLUGINS, l2codec::MEASUREMENTS)
                .is_some()
            {
                let ms = read_json(
                    &record,
                    run_id,
                    l2codec::PLUGINS,
                    l2codec::MEASUREMENTS,
                    l2codec::measurements_from_json,
                )?;
                for (node_id, name, content) in ms {
                    db.insert(
                        "ExtraRunMeasurements",
                        vec![
                            SqlValue::Int(run_id as i64),
                            node_id.into(),
                            name.into(),
                            content.into(),
                        ],
                    )?;
                }
            }
            // Packets likewise. A capture's wire bytes are its `Data` cell
            // as they are: the 2-byte tagger id, then the payload (the
            // prototype writes the tag into an IP header option;
            // analysis::packetstats splits it back off).
            for (node, file, raw) in record.entries() {
                let bad = |what: String| l2codec::entry_error(run_id, node, file, what);
                if file == l2codec::LEGACY_CAPTURES {
                    // Skipping it would package the run without its packets.
                    return Err(bad(format!(
                        "written by an older build; this build reads {}",
                        l2codec::CAPTURES
                    )));
                }
                if file != l2codec::CAPTURES {
                    continue;
                }
                let captures = l2codec::decode_captures(raw).map_err(|e| bad(e.to_string()))?;
                let offset = sync.get(node).copied().unwrap_or(0);
                db.insert_cells("Packets", |insert| {
                    captures.iter().try_for_each(|c| {
                        let time = common_time(c.local_time_ns, offset, run_id, node, file)?;
                        insert(&[
                            CellRef::Int(run_id as i64),
                            CellRef::Text(node),
                            CellRef::Int(time),
                            CellRef::Text(c.src),
                            CellRef::Blob(c.wire),
                        ])
                    })
                })?;
            }
            for (pid, content) in managed.iter().zip(&mut logs) {
                if let Some(segment) = record.get(pid, l2codec::NODE_LOG) {
                    content.push_str(&String::from_utf8_lossy(segment));
                }
            }
        }

        for (pid, content) in managed.iter().zip(logs) {
            db.insert("Logs", vec![(*pid).into(), content.into_bytes().into()])?;
        }
        Ok(db)
    }
}

/// A local time on the common time base: its node's clock offset taken
/// off. The decoders hold local times to `i64::MAX`, so only an offset
/// from a damaged `sync.json` overflows; that is an error naming the run
/// and the entry (`node`/`entry`) the time came from.
fn common_time(
    local_ns: u64,
    offset: i64,
    run_id: u64,
    node: &str,
    entry: &str,
) -> Result<i64, StoreError> {
    (local_ns as i64).checked_sub(offset).ok_or_else(|| {
        StoreError(format!(
            "run {run_id}: {node}/{entry}: local time {local_ns} ns minus clock offset {offset} ns overflows"
        ))
    })
}

/// Appends event parameters to `out` in the flat `Parameter` form of
/// [`excovery_store::records::EventRow::encode_params`]: `key=value` pairs
/// joined by `;`.
fn push_params(out: &mut String, params: &[(&str, &str)]) {
    for (i, (k, v)) in params.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::tests::{dataset, paper_desc, small_config};
    use excovery_desc::ExperimentDescription;
    use excovery_store::records::EventRow;
    use std::path::PathBuf;

    #[test]
    fn packets_table_is_populated_and_conditioned() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let ds = dataset(&outcome);
        let packets = ds.packets(Some(0)).unwrap();
        assert!(!packets.is_empty());
        // Common times must be ordered and roughly within the run span.
        let infos = ds.run_infos(None).unwrap();
        assert!(!infos.is_empty());
        for w in packets.windows(2) {
            assert!(w[0].common_time_ns <= w[1].common_time_ns);
        }
    }

    #[test]
    fn logs_table_holds_real_action_logs() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let logs = outcome.database.table("Logs").unwrap();
        assert_eq!(logs.len(), 6, "one log per managed node");
        let sm_log = (0..logs.len())
            .find(|&r| logs.column(0).get(r) == CellRef::Text("t9-157"))
            .map(|r| match logs.column(1).get(r) {
                CellRef::Blob(b) => String::from_utf8_lossy(b).into_owned(),
                other => panic!("log is {other:?}"),
            })
            .expect("SM log present");
        for needle in ["run_init", "sd_init", "sd_start_publish", "run_exit"] {
            assert!(sm_log.contains(needle), "missing {needle} in\n{sm_log}");
        }
    }

    #[test]
    fn experiment_info_contains_description_xml() {
        let desc = paper_desc(1);
        let name = desc.name.clone();
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let info = ExperimentInfo::read(&outcome.database).unwrap();
        assert_eq!(info.name, name);
        assert!(info.exp_xml.contains("<experiment"));
        assert!(info.ee_version.contains("excovery-rs"));
        // The stored XML parses back into the same description.
        let reparsed = excovery_desc::xmlio::from_xml(&info.exp_xml).unwrap();
        assert_eq!(reparsed.name, name);
    }

    /// `(node, name, bytes)` of a sealed run's entries.
    type Entries = Vec<(String, String, Vec<u8>)>;

    /// Executes one run with level 2 kept; returns the description, the
    /// level-2 root, the sealed entries of run 0 and the outcome's digest.
    fn sealed_single_run() -> (ExperimentDescription, PathBuf, Entries, u64) {
        let desc = paper_desc(1);
        let mut cfg = small_config();
        cfg.keep_l2 = true;
        let l2_root = cfg.l2_root.clone().unwrap();
        let digest = ExperiMaster::new(desc.clone(), cfg)
            .unwrap()
            .execute()
            .unwrap()
            .digest();
        let entries = Level2Store::open(&l2_root)
            .unwrap()
            .load_run(0)
            .unwrap()
            .entries()
            .map(|(node, name, data)| (node.to_string(), name.to_string(), data.to_vec()))
            .collect();
        (desc, l2_root, entries, digest)
    }

    /// Re-seals run 0 with `entries` and packages the campaign again by
    /// resuming it (every run is sealed, so only packaging runs); returns
    /// the digest.
    fn repackage(
        desc: &ExperimentDescription,
        l2_root: &PathBuf,
        entries: &Entries,
    ) -> Result<u64, EngineError> {
        let l2 = Level2Store::open(l2_root).unwrap();
        for (node, name, data) in entries {
            l2.put_run(0, node, name, data).unwrap();
        }
        l2.mark_run_complete(0).unwrap();
        drop(l2);
        let mut cfg = small_config();
        cfg.l2_root = Some(l2_root.clone());
        cfg.keep_l2 = true;
        cfg.resume = true;
        ExperiMaster::new(desc.clone(), cfg)
            .unwrap()
            .execute()
            .map(|o| o.digest())
    }

    fn with_entry(
        entries: &Entries,
        change: impl Fn(&str, &str, &[u8]) -> Option<(String, String, Vec<u8>)>,
    ) -> Entries {
        entries
            .iter()
            .filter_map(|(node, name, data)| change(node, name, data))
            .collect()
    }

    fn keep(node: &str, name: &str, data: &[u8]) -> Option<(String, String, Vec<u8>)> {
        Some((node.to_string(), name.to_string(), data.to_vec()))
    }

    #[test]
    fn pushed_parameters_are_the_encoded_ones() {
        let mut out = String::from("stale");
        for params in [
            &[][..],
            &[("role", "SU")],
            &[("service", "sm-A"), ("stype", "")],
        ] {
            out.clear();
            push_params(&mut out, params);
            assert_eq!(out, EventRow::encode_params(params));
        }
    }

    #[test]
    fn package_rejects_an_unreadable_clock_sync_instead_of_zeroing_it() {
        let (desc, l2_root, entries, digest) = sealed_single_run();
        assert_eq!(
            repackage(&desc, &l2_root, &entries).unwrap(),
            digest,
            "re-sealed as it was"
        );
        for (entry, damaged) in [
            ("sync.json", Some(&b"not json"[..])),
            ("start.json", None),
            ("sync.json", Some(&b"[1, 2]"[..])),
        ] {
            let e = repackage(
                &desc,
                &l2_root,
                &with_entry(&entries, |node, name, data| {
                    match (name == entry, damaged) {
                        (true, Some(bytes)) => keep(node, name, bytes),
                        (true, None) => None,
                        (false, _) => keep(node, name, data),
                    }
                }),
            )
            .expect_err("the run's time base is unknown");
            let msg = e.to_string();
            assert!(
                matches!(e, EngineError::Storage(_))
                    && msg.contains("run 0")
                    && msg.contains(entry),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&l2_root).ok();
    }

    #[test]
    fn package_names_the_run_and_node_of_damaged_captures() {
        let (desc, l2_root, entries, _) = sealed_single_run();
        let (node, _, _) = entries
            .iter()
            .find(|(_, name, data)| name == l2codec::CAPTURES && data.len() > 9)
            .expect("a node captured packets")
            .clone();
        let legacy = |n: &str, name: &str, data: &[u8]| {
            let name = if n == node && name == l2codec::CAPTURES {
                l2codec::LEGACY_CAPTURES
            } else {
                name
            };
            keep(n, name, data)
        };
        let truncated = |n: &str, name: &str, data: &[u8]| {
            let cut = n == node && name == l2codec::CAPTURES;
            keep(n, name, &data[..data.len() - usize::from(cut)])
        };
        // Bit 63 of the first capture's local time, the last of its 8 bytes:
        // no time on the common base, in a dev build or a release one.
        let flipped = |n: &str, name: &str, data: &[u8]| {
            let mut data = data.to_vec();
            if n == node && name == l2codec::CAPTURES {
                data[9 + 7] ^= 0x80;
            }
            keep(n, name, &data)
        };
        for (damage, entry) in [
            (
                &truncated as &dyn Fn(&str, &str, &[u8]) -> _,
                l2codec::CAPTURES,
            ),
            (&legacy, l2codec::LEGACY_CAPTURES),
            (&flipped, l2codec::CAPTURES),
        ] {
            let msg = repackage(&desc, &l2_root, &with_entry(&entries, damage))
                .expect_err("a run without its packets is not packaged")
                .to_string();
            assert!(
                msg.contains("run 0") && msg.contains(&format!("{node}/{entry}")),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&l2_root).ok();
    }

    #[test]
    fn package_refuses_a_clock_offset_no_local_time_can_take_off() {
        let (desc, l2_root, entries, _) = sealed_single_run();
        let skewed = |n: &str, name: &str, data: &[u8]| {
            if name != l2codec::SYNC {
                return keep(n, name, data);
            }
            let json = JsonValue::parse(std::str::from_utf8(data).unwrap()).unwrap();
            let offsets = l2codec::sync_from_json(&json).unwrap();
            let mut skewed: Vec<(&str, i64)> =
                offsets.keys().map(|pid| (pid.as_str(), i64::MIN)).collect();
            let mut entry = Vec::new();
            l2codec::write_sync(&mut entry, &mut skewed);
            keep(n, name, &entry)
        };
        let e = repackage(&desc, &l2_root, &with_entry(&entries, skewed))
            .expect_err("no event time is on the common base");
        let msg = e.to_string();
        assert!(
            matches!(e, EngineError::Storage(_))
                && msg.contains("run 0: _master/events.bin: ")
                && msg.contains("overflows"),
            "{msg}"
        );
        std::fs::remove_dir_all(&l2_root).ok();
    }

    #[test]
    fn package_refuses_event_entries_it_cannot_read_instead_of_dropping_them() {
        let (desc, l2_root, entries, _) = sealed_single_run();
        let events = |name: &str| name == l2codec::EVENTS;
        // What a build before the binary codec sealed: the same events as
        // the `events.json` document.
        let legacy = |n: &str, name: &str, data: &[u8]| match events(name) {
            true => {
                let doc = l2codec::events_json(data, 0).unwrap();
                keep(n, l2codec::LEGACY_EVENTS, doc.as_bytes())
            }
            false => keep(n, name, data),
        };
        let truncated = |n: &str, name: &str, data: &[u8]| {
            keep(n, name, &data[..data.len() - usize::from(events(name))])
        };
        let missing = |n: &str, name: &str, data: &[u8]| match events(name) {
            true => None,
            false => keep(n, name, data),
        };
        for (damage, entry, why) in [
            (
                &legacy as &dyn Fn(&str, &str, &[u8]) -> _,
                l2codec::LEGACY_EVENTS,
                "older build",
            ),
            (&truncated, l2codec::EVENTS, "truncated"),
            (&missing, l2codec::EVENTS, "missing"),
        ] {
            let e = repackage(&desc, &l2_root, &with_entry(&entries, damage))
                .expect_err("a run without its events is not packaged");
            let msg = e.to_string();
            assert!(
                matches!(e, EngineError::Storage(_))
                    && msg.contains(&format!("run 0: _master/{entry}: "))
                    && msg.contains(why),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&l2_root).ok();
    }
}
