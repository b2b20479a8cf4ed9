//! Reproduces **Fig. 3** — the ExCovery concepts and experiment workflow:
//! description → treatment plans → execution (master + nodes) →
//! collection/conditioning → storage, plus the repeatability guarantee of
//! §IV-C1 ("perfect repeatability of random sequences ... when initialized
//! with the same seed").

use excovery::analysis::ExperimentDataset;
use excovery::desc::ExperimentDescription;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::store::records::ExperimentInfo;
use excovery::store::repository::Repository;

fn run_paper_experiment(seed: u64, reps: u64) -> excovery::engine::ExperimentOutcome {
    let mut desc = ExperimentDescription::paper_two_party_sd(reps);
    desc.seed = seed;
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(reps.min(6));
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    master.execute().unwrap()
}

#[test]
fn full_workflow_produces_conditioned_package() {
    let outcome = run_paper_experiment(1, 2);
    assert_eq!(outcome.runs.len(), 2);
    assert!(outcome.runs.iter().all(|r| r.completed));

    // Level 1: the description is stored and loadable.
    let info = ExperimentInfo::read(&outcome.database).unwrap();
    let desc = excovery::desc::xmlio::from_xml(&info.exp_xml).unwrap();
    assert_eq!(desc.name, "sd-two-party");

    // Level 3: every run has run infos with measured clock offsets.
    let infos = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .run_infos(None)
        .unwrap();
    assert_eq!(
        ExperimentDataset::new(&outcome.database)
            .unwrap()
            .run_ids_with_info()
            .unwrap(),
        vec![0, 1]
    );
    // 6 managed platform nodes per run.
    assert_eq!(infos.len(), 12);
    assert!(
        infos.iter().any(|i| i.time_diff_ns != 0),
        "drifting clocks must produce nonzero measured offsets"
    );

    // Conditioning: event times are on a common base — the SU's discovery
    // happens after its search start despite clock offsets.
    for run in 0..2u64 {
        let events = ExperimentDataset::new(&outcome.database)
            .unwrap()
            .events(Some(run))
            .unwrap();
        let start = events
            .iter()
            .find(|e| e.event_type == "sd_start_search")
            .unwrap_or_else(|| panic!("run {run} lacks search start"));
        let add = events
            .iter()
            .find(|e| e.event_type == "sd_service_add")
            .unwrap_or_else(|| panic!("run {run} lacks discovery"));
        assert!(
            add.common_time_ns > start.common_time_ns,
            "causality on the common time base (run {run})"
        );
    }

    // Packets were captured and conditioned.
    assert!(!ExperimentDataset::new(&outcome.database)
        .unwrap()
        .packets(Some(0))
        .unwrap()
        .is_empty());
}

#[test]
fn same_seed_reproduces_identical_measurements() {
    let a = run_paper_experiment(42, 2);
    let b = run_paper_experiment(42, 2);
    let ea = ExperimentDataset::new(&a.database)
        .unwrap()
        .events(None)
        .unwrap();
    let eb = ExperimentDataset::new(&b.database)
        .unwrap()
        .events(None)
        .unwrap();
    assert_eq!(ea, eb, "same seed must yield byte-identical event tables");
    assert_eq!(
        a.database.table("Packets").unwrap(),
        b.database.table("Packets").unwrap(),
        "and identical packet tables"
    );
}

#[test]
fn different_seed_changes_measurements() {
    let a = run_paper_experiment(1, 1);
    let b = run_paper_experiment(2, 1);
    let ea = ExperimentDataset::new(&a.database)
        .unwrap()
        .events(None)
        .unwrap();
    let eb = ExperimentDataset::new(&b.database)
        .unwrap()
        .events(None)
        .unwrap();
    assert_ne!(ea, eb, "different seeds draw different random sequences");
}

#[test]
fn level4_repository_integrates_multiple_experiments() {
    let root = std::env::temp_dir().join(format!("excovery-l4-test-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let repo = Repository::open(&root).unwrap();
    for seed in [1, 2] {
        let outcome = run_paper_experiment(seed, 1);
        repo.store(&format!("sd-two-party-s{seed}"), &outcome.database)
            .unwrap();
    }
    let index = repo.index().unwrap();
    assert_eq!(index.len(), 2);
    // Cross-experiment query: total events per experiment.
    let counts = repo
        .map_experiments(|id, db| Ok((id.to_string(), db.table("Events")?.len())))
        .unwrap();
    assert_eq!(counts.len(), 2);
    assert!(counts.iter().all(|(_, n)| *n > 0));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn crash_recovery_resumes_aborted_experiment() {
    let l2_root =
        std::env::temp_dir().join(format!("excovery-recover-test-{}", std::process::id()));
    std::fs::remove_dir_all(&l2_root).ok();
    let desc = ExperimentDescription::paper_two_party_sd(4);

    // Simulate an abort after 2 of 4 runs of the first treatment block.
    let mut cfg = EngineConfig::grid_default();
    cfg.l2_root = Some(l2_root.clone());
    cfg.max_runs = Some(2);
    cfg.keep_l2 = true;
    ExperiMaster::new(desc.clone(), cfg)
        .unwrap()
        .execute()
        .unwrap();

    // Recovery: resume and finish the remaining runs of the plan.
    let mut cfg = EngineConfig::grid_default();
    cfg.l2_root = Some(l2_root.clone());
    cfg.resume = true;
    cfg.max_runs = Some(2);
    cfg.keep_l2 = true;
    let second = ExperiMaster::new(desc, cfg).unwrap().execute().unwrap();
    // The outcome vector covers the whole campaign: the two journalled
    // runs restored in front, execution resumed at the first incomplete.
    assert_eq!(second.restored_runs, 2);
    assert_eq!(
        second.runs[2].run_id, 2,
        "resumed at the first incomplete run"
    );
    // The final package integrates runs from both sessions.
    assert_eq!(
        ExperimentDataset::new(&second.database)
            .unwrap()
            .run_ids_with_info()
            .unwrap(),
        vec![0, 1, 2, 3]
    );
    std::fs::remove_dir_all(&l2_root).ok();
}
