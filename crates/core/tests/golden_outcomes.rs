//! Golden digests: pins [`ExperimentOutcome::digest`] for every platform
//! preset × master seed combination, over the memory channel and over
//! loopback TCP alike, on 1, 2 and 4 simulator shards — neither the
//! control channel's wire nor the simulator's event-queue split is
//! visible to the experiment.
//!
//! The digest folds the full packaged database (every table, every row)
//! plus the run summaries into one 64-bit FNV value, so *any* behavioural
//! drift in the engine, the simulator, the interpreter or the packaging
//! shows up here as a one-line failure. Changes that intentionally alter
//! results must re-bless the table in `golden/mod.rs`: run the suite with
//! `EXCOVERY_BLESS=1` and paste the printed rows.
//!
//! [`ExperimentOutcome::digest`]: excovery_core::ExperimentOutcome::digest

mod golden;

use excovery_core::{EngineConfig, ExperiMaster, ExperimentOutcome, TransportKind};
use golden::{desc, golden_table, SEEDS};

/// Simulator shard counts every cell runs at; each must hit its pin.
const SHARDS: [usize; 3] = [1, 2, 4];

fn execute(
    preset: fn() -> EngineConfig,
    seed: u64,
    transport: TransportKind,
    shards: usize,
) -> ExperimentOutcome {
    let mut cfg = preset();
    cfg.transport = transport;
    cfg.sim.shards = shards;
    let mut master = ExperiMaster::new(desc(seed), cfg).unwrap();
    master.execute().unwrap()
}

fn digest_of(preset: fn() -> EngineConfig, seed: u64) -> u64 {
    execute(preset, seed, TransportKind::Memory, 1).digest()
}

/// Runs every cell of the table over `transport` at every shard count and
/// fails on any digest that moved. The cells are fault-free, so each must
/// also complete every run with nothing to retry.
fn assert_golden_over(transport: TransportKind) {
    let mut drifted = Vec::new();
    for (name, preset, want) in golden_table() {
        for (seed, want) in SEEDS.into_iter().zip(want) {
            for shards in SHARDS {
                let outcome = execute(preset, seed, transport, shards);
                let cell = format!("{name} seed {seed} over {transport} on {shards} shards");
                assert!(outcome.runs.iter().all(|r| r.completed), "{cell}");
                assert_eq!(outcome.control_retries, 0, "{cell}");
                let got = outcome.digest();
                if got != want {
                    drifted.push(format!("{cell}: digest {got:#018x}, pinned {want:#018x}"));
                }
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "results drifted from the golden table:\n  {}",
        drifted.join("\n  ")
    );
}

#[test]
fn preset_digests_match_the_golden_table() {
    if std::env::var_os("EXCOVERY_BLESS").is_some() {
        for (name, preset, _) in golden_table() {
            println!("const {}: [u64; 3] = [", name.to_uppercase());
            for seed in SEEDS {
                println!("    {:#018x},", digest_of(preset, seed));
            }
            println!("];");
        }
        panic!("blessing mode: paste the table above into tests/golden/mod.rs");
    }
    assert_golden_over(TransportKind::Memory);
}

#[test]
fn preset_digests_match_the_golden_table_over_tcp() {
    assert_golden_over(TransportKind::Tcp);
}

/// The digest itself must be stable across repeated executions in the same
/// process — otherwise the golden table would be meaningless.
#[test]
fn digests_are_reproducible_within_a_process() {
    for _ in 0..2 {
        assert_eq!(
            digest_of(EngineConfig::grid_default, SEEDS[0]),
            digest_of(EngineConfig::grid_default, SEEDS[0]),
        );
    }
}
