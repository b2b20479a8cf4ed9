//! The master's phases account for every stretch of
//! [`ExperiMaster::execute`]: with obs on, an execution records exactly
//! the documented `master_phase_duration_ns{phase}` labels (DESIGN.md
//! §10), and the spans each run's summary drains never overlap, also
//! across two executions in one process. The second is an order
//! property, not a timing bound. A session stepped run by run records
//! the same phases, all but `l2_destroy`, which `execute` owns.
//!
//! The obs flag and the span ring are process-global, so this file holds
//! one test.
//!
//! [`ExperiMaster::execute`]: excovery_core::ExperiMaster::execute

mod golden;

use excovery_core::{EngineConfig, ExperiMaster};
use excovery_store::level2::Level2Store;
use excovery_store::JsonValue;
use std::collections::{BTreeMap, BTreeSet};

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
    phase_counts().into_keys().collect()
}

/// How often each `phase` of `master_phase_duration_ns` was observed.
fn phase_counts() -> BTreeMap<String, u64> {
    let snapshot = excovery_obs::global().snapshot();
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == "master_phase_duration_ns")
        .flat_map(|h| h.labels.iter().map(|label| (label, h.value.count)))
        .filter(|((key, _), _)| key == "phase")
        .map(|((_, phase), count)| (phase.clone(), count))
        .collect()
}

/// The phases observed since `before` was counted.
fn phases_since(before: &BTreeMap<String, u64>) -> BTreeSet<String> {
    let count = |phase: &String| before.get(phase).copied().unwrap_or(0);
    let after = phase_counts();
    after
        .into_iter()
        .filter(|(p, n)| *n > count(p))
        .map(|(p, _)| p)
        .collect()
}

/// A span of an `_obs` entry.
#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of an `_obs` entry, sorted by start; each must end before
/// the next one starts.
fn assert_disjoint(jsonl: &[u8], what: &str) -> Vec<Span> {
    let field = |line: &JsonValue, key: &str| line.get(key).and_then(JsonValue::as_u64).unwrap();
    let mut spans: Vec<Span> = golden::obs_lines(jsonl, "span")
        .iter()
        .map(|line| Span {
            name: line.get("name").and_then(JsonValue::as_str).unwrap().into(),
            start_ns: field(line, "start_ns"),
            end_ns: field(line, "end_ns"),
        })
        .collect();
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

    // The same description as a session, stepped one run at a time.
    let before = phase_counts();
    let mut master = ExperiMaster::new(golden::desc(golden::SEEDS[0]), preset()).unwrap();
    let l2 = Level2Store::open(&root).unwrap();
    let mut session = master.open(&l2).unwrap();
    for run in 0..2 {
        assert_eq!(session.step(1).unwrap()[0].run_id, run);
    }
    let stepped = session.finish().unwrap();
    assert_eq!(stepped.digest(), removed.digest());
    let mut recorded = all.clone();
    recorded.remove("l2_destroy");
    assert_eq!(phases_since(&before), recorded, "the session's phases");
    for run in 0..2 {
        let summary = l2.get_run(run, "_obs", "summary.jsonl").unwrap();
        let spans = assert_disjoint(&summary, &format!("stepped run {run}"));
        assert!(spans.len() >= 10, "stepped run {run} drained {spans:?}");
    }
    let snapshot = l2.get_experiment("_obs", "snapshot.jsonl").unwrap();
    assert_disjoint(&snapshot, "stepped experiment snapshot");
    l2.destroy().unwrap();
}
