//! Flood duplicate suppression pinned across shard counts and runs.
//!
//! A 24×24 grid puts at least 192 nodes on every shard at 1, 2 and 3
//! shards, so each shard's per-packet "seen" bitset spans several 64-bit
//! words. Two runs separated by `reset_for_run` check that the suppression
//! state is run-scoped. The expected values are literal: they pin the
//! duplicate counts, event totals and state digests exactly.

use excovery_netsim::sim::{Agent, SimStats, Simulator, SimulatorConfig};
use excovery_netsim::topology::Topology;
use excovery_netsim::{Destination, NodeId, Payload};

const SIDE: u16 = 24;
const PORT: u16 = 9;

struct Sink;

impl Agent for Sink {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `(stats, events_executed, state_digest)` after each of two runs.
fn two_runs(shards: usize) -> Vec<(SimStats, u64, u64)> {
    let cfg = SimulatorConfig::default().with_seed(23).with_shards(shards);
    let mut sim = Simulator::new(Topology::grid(SIDE.into(), SIDE.into()), cfg);
    let nodes = SIDE * SIDE;
    (0..2)
        .map(|run| {
            sim.reset_for_run(run);
            for n in 0..nodes {
                if n % 5 != 0 {
                    sim.install_agent(NodeId(n), PORT, Box::new(Sink));
                }
            }
            for (i, src) in [0, 300, nodes - 1, 131].into_iter().enumerate() {
                let dst = if i % 2 == 0 {
                    Destination::Multicast
                } else {
                    Destination::Broadcast
                };
                for _ in 0..3 {
                    sim.send_from(NodeId(src), PORT, dst, Payload::from("x"));
                }
            }
            sim.run_until_idle(10_000_000);
            (sim.stats(), sim.events_executed(), sim.state_digest())
        })
        .collect()
}

/// Recorded before duplicate suppression moved from a `(packet, node)`
/// hash set to per-packet bitsets; the swap must not move any of them.
fn expected() -> Vec<(SimStats, u64, u64)> {
    let stats = |sent, delivered, dropped_loss, duplicates, forwarded| SimStats {
        sent,
        delivered,
        dropped_filter: 0,
        dropped_loss,
        duplicates,
        forwarded,
    };
    vec![
        (
            stats(12, 5517, 202, 12494, 6900),
            19394,
            3823180823827378049,
        ),
        (
            stats(24, 11034, 377, 25015, 13800),
            38815,
            2793615143002798335,
        ),
    ]
}

#[test]
fn flood_suppression_is_pinned_at_every_shard_count() {
    for shards in [1, 2, 3] {
        assert_eq!(two_runs(shards), expected(), "{shards} shards");
    }
}
