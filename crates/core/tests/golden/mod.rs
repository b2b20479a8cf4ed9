//! The golden digest table: [`ExperimentOutcome::digest`] pinned for every
//! platform preset × master seed on one trimmed description.
//!
//! `golden_outcomes` holds both transports to it and re-blesses it.
//! Re-bless intentional result changes with `EXCOVERY_BLESS=1 cargo test
//! -p excovery-core --test golden_outcomes -- --nocapture` and paste the
//! printed rows below.
//!
//! [`ExperimentOutcome::digest`]: excovery_core::ExperimentOutcome::digest

use excovery_core::EngineConfig;
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::ExperimentDescription;

pub const SEEDS: [u64; 3] = [1, 7, 1914];

/// One golden row: name, preset constructor, pinned digests in `SEEDS`
/// order.
pub type GoldenRow = (&'static str, fn() -> EngineConfig, [u64; 3]);

pub fn golden_table() -> Vec<GoldenRow> {
    vec![
        ("grid_default", EngineConfig::grid_default, GRID_DEFAULT),
        ("wired_lan", EngineConfig::wired_lan, WIRED_LAN),
        ("lossy_mesh", EngineConfig::lossy_mesh, LOSSY_MESH),
    ]
}

// ---- pinned values (re-bless with EXCOVERY_BLESS=1) ------------------------
const GRID_DEFAULT: [u64; 3] = [0xabfeecf0a2ffaf15, 0x9da8297dda673ad9, 0xab676a0b69a97463];
const WIRED_LAN: [u64; 3] = [0x7a74adffb6d6169b, 0xd8456fca5013c922, 0xc8e6be9bdaf76fd7];
const LOSSY_MESH: [u64; 3] = [0x21b4ed745ffd3001, 0x87ef967beb1384cb, 0xbbe78361466ab0ce];

/// The paper's two-party SD experiment trimmed to a single factor so one
/// preset × seed cell finishes in well under a second.
pub fn desc(seed: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(2);
    d.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    d.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    d.seed = seed;
    d
}
