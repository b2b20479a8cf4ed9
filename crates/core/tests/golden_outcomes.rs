//! Golden digests: pins [`ExperimentOutcome::digest`] for every platform
//! preset × master seed combination.
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

use excovery_core::{EngineConfig, ExperiMaster};
use golden::{desc, golden_table, SEEDS};

fn digest_of(preset: fn() -> EngineConfig, seed: u64) -> u64 {
    let mut master = ExperiMaster::new(desc(seed), preset()).unwrap();
    master.execute().unwrap().digest()
}

#[test]
fn preset_digests_match_the_golden_table() {
    let bless = std::env::var_os("EXCOVERY_BLESS").is_some();
    let mut drifted = Vec::new();
    for (name, preset, want) in golden_table() {
        let upper = name.to_uppercase();
        if bless {
            println!("const {upper}: [u64; 3] = [");
        }
        for (i, seed) in SEEDS.iter().enumerate() {
            let got = digest_of(preset, *seed);
            if bless {
                println!("    {got:#018x},");
            } else if got != want[i] {
                drifted.push(format!(
                    "{name} seed {seed}: digest {got:#018x}, pinned {:#018x}",
                    want[i]
                ));
            }
        }
        if bless {
            println!("];");
        }
    }
    assert!(
        !bless,
        "blessing mode: paste the table above into tests/golden/mod.rs"
    );
    assert!(
        drifted.is_empty(),
        "results drifted from the golden table:\n  {}",
        drifted.join("\n  ")
    );
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
