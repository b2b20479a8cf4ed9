//! Chaos-equivalence: the headline property of the recovery model.
//!
//! An eventually-clearing control-channel fault schedule must be
//! *invisible* in the results: the packaged database and every run
//! summary — hence [`ExperimentOutcome::digest`] — must be byte-identical
//! to the fault-free execution of the same description. Faults are
//! absorbed by bounded idempotent retry, never by changing what the
//! experiment measured.
//!
//! Likewise, killing a master mid-campaign and resuming under a fresh
//! epoch must reproduce exactly the runs that were incomplete, and only
//! those: a run the level-2 journal confirms is never executed again.

use excovery_core::{EngineConfig, EngineError, ExperiMaster, ExperimentOutcome, RetryPolicy};
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::ExperimentDescription;
use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::SimulatorConfig;
use excovery_netsim::topology::Topology;
use excovery_netsim::SimDuration;
use excovery_rpc::ChaosOptions;
use excovery_store::level2::Level2Store;
use std::path::PathBuf;

/// The paper's two-party SD experiment, trimmed for test speed (no
/// traffic factors) and reseeded per scenario.
fn desc_with_seed(reps: u64, seed: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(reps);
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

fn unique_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "excovery-chaos-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn base_config(tag: &str) -> EngineConfig {
    EngineConfig {
        topology: Topology::grid(3, 2),
        sim: SimulatorConfig {
            link_model: LinkModel {
                base_loss: 0.0,
                ..LinkModel::default()
            },
            ..SimulatorConfig::default()
        },
        run_timeout: SimDuration::from_secs(60),
        l2_root: Some(unique_root(tag)),
        ..EngineConfig::grid_default()
    }
}

/// Retry budget guaranteed to outlast `opts`: past the horizon and the
/// last crash window every call passes, so `horizon + longest_window`
/// consecutive failing attempts is the worst case.
fn ample_retry(opts: &ChaosOptions) -> RetryPolicy {
    assert!(opts.eventually_clears(), "schedule must eventually clear");
    RetryPolicy::for_chaos(opts.horizon_calls + opts.longest_crash_window())
}

fn execute(desc: ExperimentDescription, cfg: EngineConfig) -> ExperimentOutcome {
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    master.execute().unwrap()
}

fn schedules() -> Vec<(&'static str, ChaosOptions)> {
    vec![
        ("moderate", ChaosOptions::flaky(0xC0FFEE, 0.4, 60)),
        (
            "heavy",
            ChaosOptions {
                max_delay_ms: 1,
                ..ChaosOptions::flaky(0xBADF00D, 0.9, 40)
            },
        ),
        (
            "crashy",
            ChaosOptions {
                crash_windows: vec![(3, 9), (20, 24)],
                ..ChaosOptions::flaky(0xDEAD, 0.2, 30)
            },
        ),
    ]
}

/// The reactor draws one verdict per attempt from each node's seeded
/// schedule, for lifecycle and in-run calls alike, and absorbs them with
/// bounded idempotent retry, so the digests must not move: the ≥3 seeds ×
/// ≥3 eventually-clearing schedules acceptance matrix.
#[test]
fn eventually_clearing_chaos_leaves_the_digest_unchanged() {
    for master_seed in [11u64, 42, 1337] {
        let baseline = execute(desc_with_seed(2, master_seed), base_config("base"));
        assert!(baseline.runs.iter().all(|r| r.completed));
        assert_eq!(baseline.control_retries, 0, "fault-free run never retries");
        let want = baseline.digest();
        for (name, schedule) in &schedules() {
            let mut cfg = base_config(name);
            cfg.chaos = Some(schedule.clone());
            cfg.retry = ample_retry(schedule);
            let chaotic = execute(desc_with_seed(2, master_seed), cfg);
            assert_eq!(
                chaotic.digest(),
                want,
                "seed {master_seed}, schedule '{name}': chaos changed the results"
            );
            assert!(
                chaotic.control_retries > 0,
                "seed {master_seed}, schedule '{name}': chaos was never exercised"
            );
        }
    }
}

/// A crashed node with no retry budget surfaces as
/// [`excovery_core::EngineError::Transport`] naming the node, in bounded
/// wall time.
#[test]
fn crashed_node_surfaces_as_transport_error_naming_the_node() {
    use std::time::{Duration, Instant};
    let mut cfg = base_config("crash");
    cfg.retry = RetryPolicy::none();
    cfg.chaos = Some(ChaosOptions {
        crash_windows: vec![(0, u64::MAX)],
        ..ChaosOptions::quiet(11)
    });
    // An explicit root outlives a failed execution; this one is ours.
    let l2_root = cfg.l2_root.clone().expect("base_config names a root");
    let mut master = ExperiMaster::new(desc_with_seed(1, 5), cfg).unwrap();
    let managed = master.node_ids();
    let started = Instant::now();
    let err = match master.execute() {
        Ok(_) => panic!("a crashed node must fail the run"),
        Err(e) => e,
    };
    std::fs::remove_dir_all(&l2_root).ok();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "diagnosis took {:?}",
        started.elapsed()
    );
    match err {
        excovery_core::EngineError::Transport { node, detail } => {
            // The error names the crashed node itself, with the chaos
            // wording.
            assert!(managed.contains(&node), "unknown node '{node}': {detail}");
            assert!(detail.contains("chaos: node crashed"), "{detail}");
        }
        other => panic!("expected EngineError::Transport, got {other:?}"),
    }
}

/// Kill-mid-campaign → resume must execute exactly the incomplete runs and
/// end with the same database as the uninterrupted execution.
#[test]
fn kill_and_resume_reproduces_the_incomplete_runs_exactly() {
    let seed = 77u64;
    let chaos = ChaosOptions::flaky(0xFEED, 0.5, 50);

    // Uninterrupted reference, level 2 kept for entry-level comparison.
    let mut ref_cfg = base_config("ref");
    ref_cfg.keep_l2 = true;
    let reference = execute(desc_with_seed(4, seed), ref_cfg);
    assert_eq!(reference.runs.len(), 4);

    // "Crashed" master: dies (max_runs) after sealing 2 runs.
    let root = unique_root("killed");
    let mut cfg = base_config("half");
    cfg.l2_root = Some(root.clone());
    cfg.max_runs = Some(2);
    cfg.keep_l2 = true;
    cfg.chaos = Some(chaos.clone());
    cfg.retry = ample_retry(&chaos);
    let first_half = execute(desc_with_seed(4, seed), cfg);
    assert_eq!(first_half.runs.len(), 2);

    // Resumed master: fresh epoch, so its idempotency keys cannot collide
    // with responses recorded for its predecessor.
    let mut cfg = base_config("resumed");
    cfg.l2_root = Some(root.clone());
    cfg.resume = true;
    cfg.keep_l2 = true;
    cfg.epoch = 1;
    cfg.chaos = Some(chaos.clone());
    cfg.retry = ample_retry(&chaos);
    let resumed = execute(desc_with_seed(4, seed), cfg);

    // Only the incomplete runs were executed — nothing re-ran after the
    // journal confirmed it. The summaries of the two pre-crash runs
    // were restored from the level-2 outcome journal, so the outcome
    // vector is the uninterrupted one.
    assert_eq!(resumed.restored_runs, 2);
    assert_eq!(
        resumed.runs.iter().map(|r| r.run_id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(&resumed.runs[..], &reference.runs[..]);

    // The packaged database merges all four runs identically to the
    // uninterrupted execution — every table, `Logs` included: the action
    // log is drained to level 2 at each run boundary, so a master crash
    // no longer loses the node side's pre-crash history.
    for name in reference.database.table_names() {
        assert_eq!(
            resumed.database.table(name).unwrap().rows(),
            reference.database.table(name).unwrap().rows(),
            "table {name} diverges between resumed and uninterrupted execution"
        );
    }
    // Hence the headline property at full strength: the digest of a
    // killed-and-resumed campaign is bit-equal to the uninterrupted one.
    assert_eq!(resumed.digest(), reference.digest());

    // The level-2 stores hold identical per-run entries, and every run is
    // journalled complete.
    let ref_l2 = Level2Store::open(&reference.l2_root).unwrap();
    let res_l2 = Level2Store::open(&root).unwrap();
    assert_eq!(res_l2.run_ids().unwrap(), vec![0, 1, 2, 3]);
    for run in 0..4 {
        assert!(res_l2.is_run_complete(run).unwrap());
        let mut want = ref_l2.run_entries(run).unwrap();
        let mut got = res_l2.run_entries(run).unwrap();
        want.sort();
        got.sort();
        assert_eq!(got, want, "run {run}: level-2 entries diverge");
        for (node, file) in &got {
            assert_eq!(
                res_l2.get_run(run, node, file).unwrap(),
                ref_l2.get_run(run, node, file).unwrap(),
                "run {run}: {node}/{file} diverges from the reference"
            );
        }
    }
    assert_eq!(res_l2.journal_runs().unwrap(), vec![0, 1, 2, 3]);

    std::fs::remove_dir_all(&reference.l2_root).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// Damaged level-2 state reaches the caller of `execute` as a storage
/// error naming the file — a resume never reads it as "nothing completed"
/// and silently restarts the campaign from run 0.
#[test]
fn resume_over_damaged_level2_state_is_an_error_not_a_restart() {
    let root = unique_root("damaged");
    let mut cfg = base_config("damaged-half");
    cfg.l2_root = Some(root.clone());
    cfg.max_runs = Some(2);
    cfg.keep_l2 = true;
    assert_eq!(execute(desc_with_seed(4, 5), cfg).runs.len(), 2);

    let resume = || {
        let mut cfg = base_config("damaged-resume");
        cfg.l2_root = Some(root.clone());
        cfg.resume = true;
        cfg.keep_l2 = true;
        cfg.epoch = 1;
        ExperiMaster::new(desc_with_seed(4, 5), cfg)
            .unwrap()
            .execute()
    };
    let journal = root.join("runs").join("journal.log");
    let records = root.join("runs").join("records.log");
    let good_journal = std::fs::read(&journal).unwrap();
    let good_records = std::fs::read(&records).unwrap();

    let storage_error = |outcome: Result<ExperimentOutcome, EngineError>| match outcome {
        Err(EngineError::Storage(detail)) => detail,
        Err(other) => panic!("expected EngineError::Storage, got {other:?}"),
        Ok(outcome) => panic!("resumed with {} runs restored", outcome.restored_runs),
    };
    std::fs::write(&journal, b"0\nnot a run id\n").unwrap();
    let detail = storage_error(resume());
    assert!(detail.contains("journal.log"), "{detail}");

    // The last record cut short while the journal confirms its run.
    std::fs::write(&journal, &good_journal).unwrap();
    std::fs::write(&records, &good_records[..good_records.len() - 1]).unwrap();
    let detail = storage_error(resume());
    assert!(detail.contains("records.log"), "{detail}");

    // Undamaged again, the same directory resumes where it stopped.
    std::fs::write(&records, &good_records).unwrap();
    let resumed = resume().unwrap();
    assert_eq!((resumed.restored_runs, resumed.runs.len()), (2, 4));
    std::fs::remove_dir_all(&root).ok();
}

/// A schedule that never clears is rejected by the test harness helper —
/// guarding the suite itself against a meaningless configuration.
#[test]
#[should_panic(expected = "eventually clear")]
fn non_clearing_schedules_are_rejected() {
    let opts = ChaosOptions {
        horizon_calls: u64::MAX,
        ..ChaosOptions::flaky(1, 0.5, 0)
    };
    let _ = ample_retry(&opts);
}
