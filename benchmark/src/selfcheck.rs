//! Checks, before any timing, that this build computes what the
//! repository's pinned values were computed with.
//!
//! Every golden digest and snapshot row depends on the random stream of
//! the `rand` stand-in under `benchmark/stubs/rand` (the published crate's
//! `StdRng` is a different generator). A benchmark that silently ran on
//! another stream would time a different program.

use crate::netsim_mesh::{flood, flood_grid};
use excovery::desc::process::{EventSelector, ProcessAction};
use excovery::desc::ExperimentDescription;
use excovery::engine::{EngineConfig, ExperiMaster};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// `StdRng::seed_from_u64(1)`, first 16 `next_u32` outputs — the same
/// constants as the stand-in's own test.
const SEED_1_FIRST_16: [u32; 16] = [
    1938234732, 2936923417, 1986630524, 217192590, 3471879574, 709059067, 2998672916, 232411887,
    463471075, 1815433497, 2898125177, 3235061255, 4278747799, 745515711, 2036528685, 1998724623,
];

/// `golden_outcomes`: preset `grid_default`, seed 1.
const GOLDEN_GRID_DEFAULT_SEED_1: u64 = 0xabfe_ecf0_a2ff_af15;

/// `BENCH_netsim.json`, row `flood_grid100x100_1Mpkts` (seed 4).
const FLOOD_ROW_SEED: u64 = 4;
const FLOOD_ROW_EVENTS: u64 = 1_465_263;
const FLOOD_ROW_DIGEST: u64 = 0x9c0b_01c2_ebf3_3dc3;

const BLAME: &str = "the random stream is not the canonical one: check benchmark/stubs/rand \
                     against .claude/skills/verify/SKILL.md";

/// The generator itself: milliseconds, run before every workload.
pub fn random_stream() -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(1);
    let got: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
    if got != SEED_1_FIRST_16 {
        return Err(format!(
            "selfcheck: StdRng::seed_from_u64(1) yields {got:?}; {BLAME}"
        ));
    }
    Ok(())
}

/// The golden suite's trimmed two-party SD experiment on `grid_default`:
/// tens of milliseconds, run before every workload.
pub fn golden_digest() -> Result<(), String> {
    let mut desc = ExperimentDescription::paper_two_party_sd(2);
    desc.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    desc.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    desc.seed = 1;
    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default())
        .map_err(|e| format!("selfcheck: {e}"))?;
    let got = master
        .execute()
        .map_err(|e| format!("selfcheck: {e}"))?
        .digest();
    if got != GOLDEN_GRID_DEFAULT_SEED_1 {
        return Err(format!(
            "selfcheck: grid_default seed 1 digest is {got:#018x}, pinned \
             {GOLDEN_GRID_DEFAULT_SEED_1:#018x}; the program changed its results, or {BLAME}"
        ));
    }
    Ok(())
}

/// The 10 000-node flood of `BENCH_netsim.json`: about a second, run by
/// the `selfcheck` and `all` subcommands.
pub fn flood_row() -> Result<(), String> {
    let mut sim = flood_grid(100, FLOOD_ROW_SEED);
    let events = flood(&mut sim, 50);
    let digest = sim.state_digest();
    if (events, digest) != (FLOOD_ROW_EVENTS, FLOOD_ROW_DIGEST) {
        return Err(format!(
            "selfcheck: flood_grid100x100 seed 4 gives {events} events, digest {digest:#018x}; \
             BENCH_netsim.json has {FLOOD_ROW_EVENTS}, {FLOOD_ROW_DIGEST:#018x}; the simulator \
             changed its results, or {BLAME}"
        ));
    }
    Ok(())
}
