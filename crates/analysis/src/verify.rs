//! Cross-verification of the event list against the packet captures.
//!
//! "Packets are recorded to facilitate verification of the recorded event
//! list" (paper §IV-B2): a discovery event without a corresponding
//! received SD packet, or an event stream that contradicts the packet
//! stream, indicates a broken measurement chain. These checks run over a
//! stored level-3 package, read through an [`ExperimentDataset`], and
//! report findings; an empty report means the two independent recordings
//! are consistent.

use crate::dataset::ExperimentDataset;
use crate::error::AnalysisError;
use crate::packetstats::split_tag;

/// One consistency finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// Run the finding belongs to.
    pub run_id: u64,
    /// Explanation.
    pub message: String,
}

/// Checks one run; returns all findings (empty = consistent).
///
/// Checks performed:
/// 1. Every `sd_service_add` on a node is preceded (within `slack_ns`) by
///    at least one packet *received* on that node from some other node —
///    a discovery cannot materialize out of thin air.
/// 2. Every node that emitted SD events also appears in the packet
///    captures (its radio was actually used).
/// 3. Event and packet timestamps lie within the run's common-time span
///    (no conditioning artifacts flinging records outside the run).
pub(crate) fn verify_run(
    ds: &ExperimentDataset,
    run_id: u64,
    slack_ns: i64,
) -> Result<Vec<Inconsistency>, AnalysisError> {
    let events = ds.events(Some(run_id))?;
    let packets = ds.packets(Some(run_id))?;
    let mut findings = Vec::new();
    // 1. Discovery events need a preceding reception.
    for e in events.iter().filter(|e| e.event_type == "sd_service_add") {
        let evidenced = packets.iter().any(|p| {
            p.node_id == e.node_id
                && p.src_node_id != p.node_id
                && p.common_time_ns <= e.common_time_ns
                && p.common_time_ns >= e.common_time_ns - slack_ns
        });
        if !evidenced {
            findings.push(Inconsistency {
                run_id,
                message: format!(
                    "sd_service_add on {} at {} ns has no received packet within {} ns",
                    e.node_id, e.common_time_ns, slack_ns
                ),
            });
        }
    }

    // 2. SD-active nodes must appear in the captures.
    let sd_nodes: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.event_type.starts_with("sd_") && e.node_id != "master")
        .map(|e| e.node_id.as_str())
        .collect();
    for node in sd_nodes {
        if !packets.iter().any(|p| p.node_id == node) {
            findings.push(Inconsistency {
                run_id,
                message: format!("node {node} emitted SD events but captured no packets"),
            });
        }
    }

    // 3. Temporal envelope: packets inside the event span (±slack).
    if let (Some(first), Some(last)) = (
        events.iter().map(|e| e.common_time_ns).min(),
        events.iter().map(|e| e.common_time_ns).max(),
    ) {
        for p in &packets {
            if p.common_time_ns < first - slack_ns || p.common_time_ns > last + slack_ns {
                findings.push(Inconsistency {
                    run_id,
                    message: format!(
                        "packet at {} ns on {} lies outside the run span [{first}, {last}]",
                        p.common_time_ns, p.node_id
                    ),
                });
            }
        }
    }

    // 4. Tag prefix sanity: stored data must carry the tagger id.
    for p in &packets {
        if split_tag(&p.data).is_none() {
            findings.push(Inconsistency {
                run_id,
                message: format!(
                    "packet on {} at {} ns is too short to carry a tag",
                    p.node_id, p.common_time_ns
                ),
            });
        }
    }
    Ok(findings)
}

/// Verifies every run with recorded events, in run order, with a default
/// slack of 100 ms.
pub fn verify_all(ds: &ExperimentDataset) -> Result<Vec<Inconsistency>, AnalysisError> {
    let mut findings = Vec::new();
    for run_id in ds.run_ids()? {
        findings.extend(verify_run(ds, run_id, 100_000_000)?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::{EventRow, PacketRow};
    use excovery_store::schema::create_level3_database;
    use excovery_store::Database;

    fn dataset(db: &Database) -> ExperimentDataset {
        ExperimentDataset::new(db).unwrap()
    }

    fn ev(db: &mut Database, run: u64, node: &str, t: i64, name: &str) {
        EventRow {
            run_id: run,
            node_id: node.into(),
            common_time_ns: t,
            event_type: name.into(),
            parameter: String::new(),
        }
        .insert(db)
        .unwrap();
    }

    fn pkt(db: &mut Database, run: u64, node: &str, t: i64, src: &str) {
        PacketRow {
            run_id: run,
            node_id: node.into(),
            common_time_ns: t,
            src_node_id: src.into(),
            data: vec![0, 1, 0xCB],
        }
        .insert(db)
        .unwrap();
    }

    fn consistent_db() -> Database {
        let mut db = create_level3_database();
        ev(&mut db, 0, "su", 0, "sd_start_search");
        pkt(&mut db, 0, "sm", 10_000, "sm"); // sm sends
        pkt(&mut db, 0, "su", 20_000, "sm"); // su receives
        ev(&mut db, 0, "su", 25_000, "sd_service_add");
        ev(&mut db, 0, "sm", 5_000, "sd_start_publish");
        pkt(&mut db, 0, "sm", 6_000, "other"); // sm also captured traffic
        db
    }

    #[test]
    fn consistent_package_has_no_findings() {
        let db = consistent_db();
        assert_eq!(verify_all(&dataset(&db)).unwrap(), vec![]);
    }

    #[test]
    fn discovery_without_reception_is_flagged() {
        let mut db = create_level3_database();
        ev(&mut db, 0, "su", 0, "sd_start_search");
        pkt(&mut db, 0, "su", 1_000, "su"); // only own transmissions
        ev(&mut db, 0, "su", 25_000, "sd_service_add");
        let findings = verify_run(&dataset(&db), 0, 100_000_000).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("no received packet")),
            "{findings:?}"
        );
    }

    #[test]
    fn reception_too_old_is_flagged() {
        let mut db = create_level3_database();
        pkt(&mut db, 0, "su", 0, "sm");
        ev(&mut db, 0, "su", 1_000_000, "sd_service_add");
        // Slack smaller than the gap: the packet does not count.
        let findings = verify_run(&dataset(&db), 0, 1_000).unwrap();
        assert!(!findings.is_empty());
        // Generous slack: consistent.
        let findings = verify_run(&dataset(&db), 0, 10_000_000).unwrap();
        assert!(findings
            .iter()
            .all(|f| !f.message.contains("no received packet")));
    }

    #[test]
    fn silent_sd_node_is_flagged() {
        let mut db = create_level3_database();
        ev(&mut db, 0, "ghost", 0, "sd_init_done");
        let findings = verify_run(&dataset(&db), 0, 1_000).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.message.contains("captured no packets")));
    }

    #[test]
    fn out_of_span_packet_is_flagged() {
        let mut db = consistent_db();
        pkt(&mut db, 0, "su", 999_000_000_000, "sm");
        let findings = verify_run(&dataset(&db), 0, 100_000_000).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.message.contains("outside the run span")));
    }

    #[test]
    fn short_packet_data_is_flagged() {
        let mut db = consistent_db();
        PacketRow {
            run_id: 0,
            node_id: "su".into(),
            common_time_ns: 10_000,
            src_node_id: "sm".into(),
            data: vec![1],
        }
        .insert(&mut db)
        .unwrap();
        let findings = verify_run(&dataset(&db), 0, 100_000_000).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.message.contains("too short to carry a tag")));
    }
}
