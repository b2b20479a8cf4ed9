//! The shape of the control-plane fan-out must be invisible to the
//! experiment: flat or through sub-master relay trees, over the memory
//! channel or loopback TCP, the same description on the same platform
//! preset and seed yields the [`ExperimentOutcome::digest`] recorded in
//! the golden table (`crates/core/tests/golden/mod.rs`).

#[path = "../crates/core/tests/golden/mod.rs"]
mod golden;

use excovery::engine::{EngineConfig, ExperiMaster, ExperimentOutcome, TransportKind};
use golden::{desc, golden_table, SEEDS};

fn execute(
    preset: fn() -> EngineConfig,
    seed: u64,
    transport: TransportKind,
    fanout: Option<usize>,
) -> ExperimentOutcome {
    let mut cfg = preset();
    cfg.transport = transport;
    cfg.fanout_tree = fanout;
    let mut master = ExperiMaster::new(desc(seed), cfg).unwrap();
    master.execute().unwrap()
}

fn assert_golden(outcome: &ExperimentOutcome, want: u64, what: &str) {
    assert_eq!(
        outcome.digest(),
        want,
        "{what}: digest drifted from the golden table"
    );
    assert!(outcome.runs.iter().all(|r| r.completed), "{what}");
    // Fault-free: there is nothing to retry.
    assert_eq!(outcome.control_retries, 0, "{what}");
}

fn flat_matches_every_golden_row(transport: TransportKind) {
    for (name, preset, want) in golden_table() {
        for (seed, want) in SEEDS.into_iter().zip(want) {
            let outcome = execute(preset, seed, transport, None);
            assert_golden(&outcome, want, &format!("{name}/seed {seed}/{transport}"));
        }
    }
}

#[test]
fn flat_fanout_matches_the_golden_digests_over_memory() {
    flat_matches_every_golden_row(TransportKind::Memory);
}

#[test]
fn flat_fanout_matches_the_golden_digests_over_tcp() {
    flat_matches_every_golden_row(TransportKind::Tcp);
}

/// The hierarchical fan-out tree (batched frames through sub-master
/// relays) is equally invisible, at widths that exercise both multi-node
/// relays and a ragged last group — over both transports.
#[test]
fn fanout_tree_matches_the_golden_digest() {
    let (_, preset, want) = golden_table()[0];
    for transport in [TransportKind::Memory, TransportKind::Tcp] {
        for width in [2usize, 4] {
            let tree = execute(preset, SEEDS[0], transport, Some(width));
            assert_golden(
                &tree,
                want[0],
                &format!("fan-out tree width {width} over {transport}"),
            );
        }
    }
}

#[test]
fn fanout_tree_of_width_zero_is_rejected() {
    let mut cfg = EngineConfig::grid_default();
    cfg.fanout_tree = Some(0);
    let err = match ExperiMaster::new(desc(SEEDS[0]), cfg) {
        Ok(_) => panic!("fanout_tree width 0 must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("at least 1"),
        "unexpected error: {err}"
    );
}
