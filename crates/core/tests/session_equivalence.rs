//! A stepped session is the same execution as one
//! [`ExperiMaster::execute`]: on every golden preset at every golden
//! seed, stepping the plan one run at a time, or three runs and then the
//! rest, gives the pinned digest, the same run summaries and the same
//! sealed level-2 bytes. One preset also runs over TCP. A step that
//! failed leaves a session that steps the same run again.
//!
//! [`ExperiMaster::execute`]: excovery_core::ExperiMaster::execute

mod golden;

use excovery_core::{
    EngineConfig, ExperiMaster, ExperimentOutcome, RetryPolicy, RunOutcome, Session, TransportKind,
};
use excovery_rpc::ChaosOptions;
use excovery_store::level2::Level2Store;
use golden::{desc, golden_table, SEEDS};
use std::path::{Path, PathBuf};

/// How a test steps an open session through its plan.
type Steps = fn(&mut Session<'_>);

/// One run per step, until a step finds the plan exhausted.
fn one_at_a_time(session: &mut Session<'_>) {
    let mut next = 0;
    loop {
        let ran = session.step(1).unwrap();
        match ran {
            [] => break,
            [run] => assert_eq!(run.run_id, next),
            _ => panic!("step(1) executed {} runs", ran.len()),
        }
        next += 1;
    }
    assert!(next > 0, "the plan has runs");
}

/// Three runs, then everything left.
fn three_then_the_rest(session: &mut Session<'_>) {
    let run_ids = |ran: &[RunOutcome]| ran.iter().map(|r| r.run_id).collect::<Vec<_>>();
    let mut ran = run_ids(session.step(3).unwrap());
    assert!(ran.len() <= 3, "step(3) executed {ran:?}");
    ran.extend(run_ids(session.step(u64::MAX).unwrap()));
    assert_eq!(ran, (0..ran.len() as u64).collect::<Vec<_>>());
    assert!(session.step(1).unwrap().is_empty(), "the plan is exhausted");
}

fn unique_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "excovery-session-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(preset: fn() -> EngineConfig, transport: TransportKind) -> EngineConfig {
    EngineConfig {
        transport,
        ..preset()
    }
}

/// One `execute` with its level 2 kept.
fn executed(
    preset: fn() -> EngineConfig,
    seed: u64,
    transport: TransportKind,
) -> ExperimentOutcome {
    let cfg = EngineConfig {
        l2_root: Some(unique_root("executed")),
        keep_l2: true,
        ..config(preset, transport)
    };
    ExperiMaster::new(desc(seed), cfg)
        .unwrap()
        .execute()
        .unwrap()
}

/// `open`, `steps`, `finish` over a store at a root of its own.
fn stepped(
    preset: fn() -> EngineConfig,
    seed: u64,
    transport: TransportKind,
    steps: Steps,
) -> (ExperimentOutcome, PathBuf) {
    let root = unique_root("stepped");
    let mut master = ExperiMaster::new(desc(seed), config(preset, transport)).unwrap();
    let l2 = Level2Store::open(&root).unwrap();
    let mut session = master.open(&l2).unwrap();
    steps(&mut session);
    (session.finish().unwrap(), root)
}

/// What an execution leaves in level 2: the sealed run records and the
/// journal, byte for byte, and both topology entries.
fn sealed(root: &Path) -> [Vec<u8>; 4] {
    let l2 = Level2Store::open(root).unwrap();
    let topology = |name| l2.get_experiment("master", name).unwrap();
    [
        std::fs::read(root.join("runs/records.log")).unwrap(),
        std::fs::read(root.join("runs/journal.log")).unwrap(),
        topology("topology_before.json"),
        topology("topology_after.json"),
    ]
}

/// Both stepped sessions of one cell against one `execute` of it and the
/// cell's pinned digest.
fn assert_cell(row: &golden::GoldenRow, seed: u64, pinned: u64, transport: TransportKind) {
    let (name, preset, _) = *row;
    let cell = format!("{name} seed {seed} over {transport}");
    let reference = executed(preset, seed, transport);
    assert_eq!(reference.digest(), pinned, "{cell}: execute");
    let want = sealed(&reference.l2_root);
    for (how, steps) in [
        ("one at a time", one_at_a_time as Steps),
        ("three then the rest", three_then_the_rest),
    ] {
        let (outcome, root) = stepped(preset, seed, transport, steps);
        assert_eq!(outcome.digest(), pinned, "{cell}, {how}");
        assert_eq!(outcome.runs, reference.runs, "{cell}, {how}");
        assert_eq!(outcome.restored_runs, 0, "{cell}, {how}");
        assert!(sealed(&root) == want, "{cell}, {how}: level 2 diverges");
        std::fs::remove_dir_all(&root).ok();
    }
    std::fs::remove_dir_all(&reference.l2_root).ok();
}

#[test]
fn stepped_sessions_equal_execute_on_every_golden_cell() {
    for row in golden_table() {
        for (seed, pinned) in SEEDS.into_iter().zip(row.2) {
            assert_cell(&row, seed, pinned, TransportKind::Memory);
        }
    }
}

#[test]
fn stepped_sessions_equal_execute_over_tcp() {
    let row = golden_table().remove(0);
    assert_cell(&row, SEEDS[0], row.2[0], TransportKind::Tcp);
}

/// Every node's first call (the `run_init` fan-out of run 0) fails and is
/// not retried, so the first `step` fails after run 0 took its process
/// set; the next `step` executes run 0 again, whole.
#[test]
fn a_failed_step_can_be_stepped_again() {
    let row = golden_table().remove(0);
    let cfg = EngineConfig {
        retry: RetryPolicy::none(),
        chaos: Some(ChaosOptions {
            crash_windows: vec![(0, 1)],
            ..ChaosOptions::quiet(5)
        }),
        ..(row.1)()
    };
    let root = unique_root("failed-step");
    let mut master = ExperiMaster::new(desc(SEEDS[0]), cfg).unwrap();
    let l2 = Level2Store::open(&root).unwrap();
    let mut session = master.open(&l2).unwrap();
    assert!(session.step(1).is_err(), "the crash window fails run 0");
    one_at_a_time(&mut session);
    let outcome = session.finish().unwrap();
    assert!(
        outcome.runs.iter().all(|r| r.completed),
        "{:?}",
        outcome.runs
    );
    assert_eq!(outcome.digest(), row.2[0]);
    drop(l2);
    std::fs::remove_dir_all(&root).ok();
}
