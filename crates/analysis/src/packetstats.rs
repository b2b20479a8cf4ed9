//! Packet-level metrics from stored captures.
//!
//! The prototype's packet tagger exists precisely to "allow analysis of
//! properties outside the scope of the ExCovery processes, for example
//! packet loss and delay" (§VI-A). This module derives those metrics from
//! the `Packets` table of an [`ExperimentDataset`]: per-source delivery
//! ratios and end-to-end delays of matched send/receive observations.
//! Packet volumes per run are [`ExperimentDataset::packets_per_run`].

use crate::dataset::ExperimentDataset;
use crate::error::AnalysisError;
use excovery_netsim::tagger::{analyze_stream, StreamStats};
use excovery_store::records::PacketRow;
use std::collections::BTreeMap;

/// Splits the stored raw packet data into the 16-bit tagger id and the
/// payload (the engine stores `tag ‖ payload`, mirroring the prototype's
/// IP-option tagger). Returns `None` for data shorter than the tag.
pub fn split_tag(data: &[u8]) -> Option<(u16, &[u8])> {
    if data.len() < 2 {
        return None;
    }
    Some((u16::from_be_bytes([data[0], data[1]]), &data[2..]))
}

/// Reconstructs per-(source, observer) loss from tag gaps — the analysis
/// the packet tagger exists for (§VI-A). Observations are ordered by
/// common time; gaps in the source's tag sequence count as losses.
///
/// Caveat (as with real one-point packet tracking): an observer that only
/// lies on the path of *some* of a source's traffic sees structural gaps
/// for the rest, inflating its estimate. Use
/// [`best_stream_loss_per_source`] when a single well-positioned
/// observation point per source is wanted.
pub fn tag_loss_stats(
    ds: &ExperimentDataset,
    run_id: u64,
) -> Result<BTreeMap<(String, String), StreamStats>, AnalysisError> {
    let rows = ds.packets(Some(run_id))?; // ordered by CommonTime
    let mut streams: BTreeMap<(String, String), Vec<u16>> = BTreeMap::new();
    for r in &rows {
        if r.node_id == r.src_node_id {
            continue; // source-side capture, not an observation
        }
        let Some((tag, _)) = split_tag(&r.data) else {
            continue;
        };
        streams
            .entry((r.src_node_id.clone(), r.node_id.clone()))
            .or_default()
            .push(tag);
    }
    Ok(streams
        .into_iter()
        .map(|(key, tags)| (key, analyze_stream(tags)))
        .collect())
}

/// Loss/delay summary for one (source, observer) pair.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathStats {
    /// Originating node.
    pub src: String,
    /// Observing node.
    pub observer: String,
    /// Packets the source put on the wire (its own captures).
    pub sent: u64,
    /// Packets the observer captured from that source.
    pub observed: u64,
    /// Mean one-way delay of matched packets, seconds.
    pub mean_delay_s: f64,
}

impl PathStats {
    /// Delivery ratio `observed / sent` (1.0 when nothing was sent).
    pub(crate) fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            (self.observed as f64 / self.sent as f64).min(1.0)
        }
    }
}

/// Matches captures of a run: for each `(src, observer)` pair, sent
/// packets at the source are paired with the observer's captures of the
/// same payload (first unmatched occurrence, in time order).
pub(crate) fn path_stats(
    ds: &ExperimentDataset,
    run_id: u64,
) -> Result<Vec<PathStats>, AnalysisError> {
    let rows = ds.packets(Some(run_id))?;
    // Source-side sends: a capture on the source node itself.
    let mut sent_by_src: BTreeMap<&str, Vec<&PacketRow>> = BTreeMap::new();
    let mut seen_by_pair: BTreeMap<(&str, &str), Vec<&PacketRow>> = BTreeMap::new();
    for r in &rows {
        if r.node_id == r.src_node_id {
            sent_by_src
                .entry(r.src_node_id.as_str())
                .or_default()
                .push(r);
        } else {
            seen_by_pair
                .entry((r.src_node_id.as_str(), r.node_id.as_str()))
                .or_default()
                .push(r);
        }
    }
    let mut out = Vec::new();
    for ((src, observer), observed) in &seen_by_pair {
        let sent = sent_by_src.get(src).map(|v| v.as_slice()).unwrap_or(&[]);
        // Pair by payload equality in temporal order.
        let mut delays = Vec::new();
        let mut used = vec![false; observed.len()];
        for s in sent {
            if let Some((i, o)) = observed.iter().enumerate().find(|(i, o)| {
                !used[*i] && o.data == s.data && o.common_time_ns >= s.common_time_ns
            }) {
                used[i] = true;
                delays.push((o.common_time_ns - s.common_time_ns) as f64 / 1e9);
            }
        }
        let mean_delay_s = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        out.push(PathStats {
            src: (*src).to_string(),
            observer: (*observer).to_string(),
            sent: sent.len() as u64,
            observed: observed.len() as u64,
            mean_delay_s,
        });
    }
    Ok(out)
}

/// Per-source loss estimate from the best-positioned observer: the
/// stream with the lowest loss ratio among those with at least
/// `min_received` observations. Structural gaps (observer off-path for
/// part of the traffic) only ever inflate an estimate, so the minimum over
/// observers is the tightest sound estimate available from one-point
/// observations.
pub fn best_stream_loss_per_source(
    ds: &ExperimentDataset,
    run_id: u64,
    min_received: u64,
) -> Result<BTreeMap<String, f64>, AnalysisError> {
    let streams = tag_loss_stats(ds, run_id)?;
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for ((src, _), stats) in streams {
        if stats.received < min_received {
            continue;
        }
        let loss = stats.loss_ratio();
        best.entry(src)
            .and_modify(|b| *b = b.min(loss))
            .or_insert(loss);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::schema::create_level3_database;
    use excovery_store::Database;

    fn dataset(db: &Database) -> ExperimentDataset {
        ExperimentDataset::new(db).unwrap()
    }

    fn pkt(db: &mut Database, run: u64, node: &str, t: i64, src: &str, data: &[u8]) {
        PacketRow {
            run_id: run,
            node_id: node.into(),
            common_time_ns: t,
            src_node_id: src.into(),
            data: data.to_vec(),
        }
        .insert(db)
        .unwrap();
    }

    fn sample() -> Database {
        let mut db = create_level3_database();
        // n0 sends 3 packets; n1 observes 2 of them, delayed 1 ms each.
        for (i, t) in [(0u8, 0i64), (1, 10_000_000), (2, 20_000_000)] {
            pkt(&mut db, 0, "n0", t, "n0", &[i]);
        }
        pkt(&mut db, 0, "n1", 1_000_000, "n0", &[0]);
        pkt(&mut db, 0, "n1", 11_000_000, "n0", &[1]);
        db
    }

    #[test]
    fn delivery_ratio_and_delay() {
        let db = sample();
        let stats = path_stats(&dataset(&db), 0).unwrap();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.sent, 3);
        assert_eq!(s.observed, 2);
        assert!((s.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_delay_s - 0.001).abs() < 1e-9, "{}", s.mean_delay_s);
    }

    #[test]
    fn empty_run_yields_no_stats() {
        let db = create_level3_database();
        assert!(path_stats(&dataset(&db), 0).unwrap().is_empty());
    }

    #[test]
    fn ratio_caps_at_one_for_multicast_fanout() {
        let mut db = create_level3_database();
        pkt(&mut db, 0, "n0", 0, "n0", &[9]);
        // Two observers saw the same flooded packet.
        pkt(&mut db, 0, "n1", 1_000, "n0", &[9]);
        pkt(&mut db, 0, "n2", 2_000, "n0", &[9]);
        let stats = path_stats(&dataset(&db), 0).unwrap();
        assert_eq!(stats.len(), 2);
        for s in stats {
            assert_eq!(s.delivery_ratio(), 1.0);
        }
    }

    #[test]
    fn split_tag_roundtrip() {
        let data = [0x12, 0x34, 0xAA, 0xBB];
        let (tag, payload) = split_tag(&data).unwrap();
        assert_eq!(tag, 0x1234);
        assert_eq!(payload, &[0xAA, 0xBB]);
        assert!(split_tag(&[0x01]).is_none());
        assert_eq!(split_tag(&[0x00, 0x07]).unwrap(), (7, &[][..]));
    }

    #[test]
    fn tag_loss_from_stored_packets() {
        let mut db = create_level3_database();
        // Source n0 sends tags 0..10; observer n1 sees 0,1,4,5 (tags 2,3
        // and the tail lost). Data = tag ‖ payload.
        for tag in [0u16, 1, 4, 5] {
            let mut data = tag.to_be_bytes().to_vec();
            data.push(0xCB);
            pkt(&mut db, 0, "n1", 1_000 * i64::from(tag), "n0", &data);
        }
        let stats = tag_loss_stats(&dataset(&db), 0).unwrap();
        let s = stats[&("n0".to_string(), "n1".to_string())];
        assert_eq!(s.received, 4);
        assert_eq!(s.lost, 2, "tags 2 and 3");
        assert!((s.loss_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tag_loss_ignores_source_side_and_short_data() {
        let mut db = create_level3_database();
        pkt(&mut db, 0, "n0", 0, "n0", &[0, 0, 1]); // source capture
        pkt(&mut db, 0, "n1", 1, "n0", &[9]); // too short for a tag
        assert!(tag_loss_stats(&dataset(&db), 0).unwrap().is_empty());
    }

    #[test]
    fn unmatched_observation_contributes_zero_delay() {
        let mut db = create_level3_database();
        // Observation without a matching send (e.g. source capture lost).
        pkt(&mut db, 0, "n1", 1_000, "n0", &[1]);
        let stats = path_stats(&dataset(&db), 0).unwrap();
        assert_eq!(stats[0].sent, 0);
        assert_eq!(stats[0].mean_delay_s, 0.0);
        assert_eq!(stats[0].delivery_ratio(), 1.0);
    }
}
