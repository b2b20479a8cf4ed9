//! Kill/recover the experiment server across real process boundaries:
//! SIGKILL the `excovery serve` daemon mid-campaign, restart it over the
//! same repository, and require the campaign to finish with a digest
//! bit-equal to an uninterrupted reference execution.
//!
//! The kill and the resume run at `--workers` 1 and 4, so the scheduler's
//! pool width cannot change the resumed digest. The kill is triggered by
//! the job's level-2 journal on disk, and the journal the killed daemon
//! left must hold at least one sealed run and not all of them: the
//! restart really resumes a campaign cut in the middle.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use excovery::desc::process::{EventSelector, ProcessAction};
use excovery::desc::{xmlio, ExperimentDescription};
use excovery::engine::ExperiMaster;
use excovery::rpc::{JobState, SubmitRequest};
use excovery::server::{preset_config, ServerClient};
use excovery::store::level2::Level2Store;

const REPS: u64 = 6;
const SEED: u64 = 1914;

/// The paper's two-party SD experiment, trimmed for test speed (the
/// same abbreviation the engine's chaos-equivalence suite uses).
fn test_description() -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(REPS);
    d.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    d.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    d.seed = SEED;
    d
}

fn unique_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("excovery-server-kill-{tag}-{}", std::process::id()))
}

fn spawn_serve(root: &Path, workers: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_excovery"))
        .args(["serve", root.to_str().unwrap(), "--slice-runs", "1"])
        .args(["--workers", workers])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns")
}

/// Polls `f` until it returns `Some`, failing after `secs` seconds.
fn poll<T>(what: &str, secs: u64, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Newline-terminated lines of a level-2 run journal: one per sealed
/// run. Read as bytes, so polling a live daemon's journal creates nothing.
fn journal_lines(l2: &Path) -> usize {
    std::fs::read(l2.join("runs").join("journal.log"))
        .map_or(0, |raw| raw.iter().filter(|&&b| b == b'\n').count())
}

fn connect(root: &Path) -> ServerClient {
    poll("server endpoint", 30, || {
        ServerClient::connect_root(root).ok()
    })
}

#[test]
fn sigkill_mid_campaign_resumes_to_the_reference_digest() {
    // Uninterrupted in-process reference on the same preset.
    let reference = {
        let cfg = preset_config("grid_default").unwrap();
        let mut master = ExperiMaster::new(test_description(), cfg).unwrap();
        master.execute().expect("reference execution").digest()
    };
    for workers in ["1", "4"] {
        kill_and_resume(workers, reference);
    }
}

/// One campaign on a `--workers` daemon: SIGKILL after the first run,
/// restart, and require the finished digest to equal `reference`.
fn kill_and_resume(workers: &str, reference: u64) {
    let root = unique_root(&format!("resume-w{workers}"));
    let _ = std::fs::remove_dir_all(&root);

    let mut serve = spawn_serve(&root, workers);
    let client = connect(&root);
    let request = SubmitRequest {
        tenant: "alice".into(),
        preset: "grid_default".into(),
        description_xml: xmlio::to_xml(&test_description()),
        submit_key: "kill-key".into(),
    };
    let (job_id, created) = client.submit(&request).expect("submit");
    assert!(created);
    // A duplicate submission dedups against the journal, not the session.
    let (dup, dup_created) = client.submit(&request).expect("resubmit");
    assert_eq!((dup, dup_created), (job_id, false));

    // SIGKILL the daemon as soon as its journal seals the first run.
    let l2 = root.join("jobs").join(job_id.to_string()).join("l2");
    let deadline = Instant::now() + Duration::from_secs(120);
    while journal_lines(&l2) == 0 {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for a sealed run"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    serve.kill().expect("SIGKILL serve");
    serve.wait().expect("reap serve");
    let sealed = Level2Store::open(&l2)
        .unwrap()
        .journal_runs()
        .unwrap()
        .len() as u64;
    assert!(
        (1..REPS).contains(&sealed),
        "--workers {workers}: the kill left {sealed} of {REPS} runs sealed"
    );

    // Restart over the same repository. The stale endpoint file of the
    // killed daemon is removed so the client can only reach the new one.
    let _ = std::fs::remove_file(root.join("endpoint"));
    let mut serve = spawn_serve(&root, workers);
    let client = connect(&root);

    // The resubmitted key still resolves to the original job.
    let (dup, dup_created) = client.submit(&request).expect("resubmit after restart");
    assert_eq!((dup, dup_created), (job_id, false));

    let status = poll("campaign completion after restart", 300, || {
        let s = client.status(job_id).ok()?;
        match s.state {
            JobState::Completed => Some(s),
            JobState::Failed => panic!("campaign failed after restart: {:?}", s.error),
            _ => None,
        }
    });
    assert_eq!(status.runs_completed, REPS, "--workers {workers}");
    assert_eq!(
        status.digest,
        Some(reference),
        "--workers {workers}: resumed campaign must be bit-equal to the uninterrupted reference"
    );

    serve.kill().expect("stop serve");
    serve.wait().expect("reap serve");
    let _ = std::fs::remove_dir_all(&root);
}
