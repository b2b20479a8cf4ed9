//! The master's phases account for every stretch of
//! [`ExperiMaster::execute`]: with obs on, an execution records exactly
//! the documented `master_phase_duration_ns{phase}` labels (DESIGN.md
//! §10), and the spans each run's summary drains never overlap, also
//! across two executions in one process. The second is an order
//! property, not a timing bound.
//!
//! The obs flag and the span ring are process-global, so this file holds
//! one test.
//!
//! [`ExperiMaster::execute`]: excovery_core::ExperiMaster::execute

mod golden;

use excovery_core::{EngineConfig, ExperiMaster};
use excovery_obs::span::SpanRecord;
use excovery_store::level2::Level2Store;
use std::collections::BTreeSet;

/// Every phase of an execution that starts fresh and removes its level 2:
/// the lifecycle fan-outs, then the stretches between them.
const PHASES: [&str; 18] = [
    "run_init",
    "experiment_init",
    "measure_sync",
    "run_exit",
    "collect_log",
    "experiment_exit",
    "topology",
    "resume_restore",
    "run_prepare",
    "run_execute",
    "run_cleanup",
    "l2_stage",
    "l2_captures",
    "l2_node_logs",
    "obs_summary",
    "l2_seal",
    "package",
    "l2_destroy",
];

/// The `phase` labels of `master_phase_duration_ns` recorded so far.
fn phase_labels() -> BTreeSet<String> {
    let snapshot = excovery_obs::global().snapshot();
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == "master_phase_duration_ns")
        .flat_map(|h| &h.labels)
        .filter(|(key, _)| key == "phase")
        .map(|(_, phase)| phase.clone())
        .collect()
}

/// The spans of a JSONL summary, sorted by start; each must end before
/// the next one starts.
fn assert_disjoint(jsonl: &[u8], what: &str) -> Vec<SpanRecord> {
    let (_, mut spans) = excovery_obs::jsonl::parse(std::str::from_utf8(jsonl).unwrap()).unwrap();
    spans.sort_by_key(|s| s.start_ns);
    for pair in spans.windows(2) {
        assert!(
            pair[0].end_ns <= pair[1].start_ns,
            "{what}: {:?} overlaps {:?}",
            pair[0],
            pair[1]
        );
    }
    spans
}

#[test]
fn every_stretch_of_execute_is_one_disjoint_phase() {
    excovery_obs::ObsConfig::on().install();
    let (_, preset, _) = golden::golden_table()
        .into_iter()
        .find(|(name, _, _)| *name == "grid_default")
        .expect("grid_default is a golden preset");

    // A fresh execution that removes its level 2 records every phase.
    let removed = ExperiMaster::new(golden::desc(golden::SEEDS[0]), preset())
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(removed.runs.len(), 2);
    let all: BTreeSet<String> = PHASES.iter().map(|phase| phase.to_string()).collect();
    assert_eq!(phase_labels(), all);

    // A second one keeps level 2. Its first run summary also drains the
    // spans that finished after the first execution's snapshot.
    let root = std::env::temp_dir().join(format!("excovery-phases-{}", std::process::id()));
    let kept = EngineConfig {
        l2_root: Some(root.clone()),
        keep_l2: true,
        ..preset()
    };
    let outcome = ExperiMaster::new(golden::desc(golden::SEEDS[0]), kept)
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(outcome.digest(), removed.digest());
    assert_eq!(phase_labels(), all, "no phase outside the documented set");
    let l2 = Level2Store::open(&root).unwrap();
    for run in 0..2 {
        let summary = l2.get_run(run, "_obs", "summary.jsonl").unwrap();
        let spans = assert_disjoint(&summary, &format!("run {run}"));
        assert!(spans.len() >= 10, "run {run} drained {spans:?}");
        let carried = spans.iter().any(|s| s.name == "l2_destroy");
        assert_eq!(carried, run == 0, "run {run}: {spans:?}");
    }
    let snapshot = l2.get_experiment("_obs", "snapshot.jsonl").unwrap();
    assert_disjoint(&snapshot, "experiment snapshot");
    l2.destroy().unwrap();
}
