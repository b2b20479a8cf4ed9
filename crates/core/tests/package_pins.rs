//! Byte-identity pins for level-3 packages: for each golden preset at one
//! seed, the FNV-1a digest of the bytes [`Database::save`] writes and the
//! [`ExperimentOutcome::digest`] of the same execution.
//!
//! The golden table pins the outcome digest, which folds cell values; this
//! test also pins the serialised package, so a storage change that keeps
//! every value but moves a byte of the file fails here.
//!
//! [`Database::save`]: excovery_store::Database::save
//! [`ExperimentOutcome::digest`]: excovery_core::ExperimentOutcome::digest

mod golden;

use excovery_core::ExperiMaster;
use golden::{desc, golden_table, SEEDS};

const SEED: u64 = SEEDS[0];

/// `(preset, FNV-1a of the saved package, outcome digest)`.
const PINS: [(&str, u64, u64); 3] = [
    ("grid_default", 0xd74c79b258e9eefe, 0xabfeecf0a2ffaf15),
    ("wired_lan", 0x85956566363e9756, 0x7a74adffb6d6169b),
    ("lossy_mesh", 0x51d7495064860225, 0x21b4ed745ffd3001),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn saved_packages_and_outcome_digests_are_pinned() {
    let dir = std::env::temp_dir().join(format!("excovery-package-pins-{}", std::process::id()));
    let mut got = Vec::new();
    for (name, preset, _) in golden_table() {
        let outcome = ExperiMaster::new(desc(SEED), preset())
            .unwrap()
            .execute()
            .unwrap();
        let path = dir.join(format!("{name}.expdb"));
        outcome.database.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        got.push((name, fnv1a(&bytes), outcome.digest()));
    }
    std::fs::remove_dir_all(&dir).ok();
    let drifted: Vec<String> = got
        .iter()
        .zip(PINS)
        .filter(|(got, pin)| **got != *pin)
        .map(|((name, package, digest), _)| {
            format!("(\"{name}\", {package:#018x}, {digest:#018x}),")
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "seed {SEED}: packages or digests drifted from the pins:\n  {}",
        drifted.join("\n  ")
    );
}
