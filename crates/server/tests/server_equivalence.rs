//! In-process equivalence and fairness properties of the experiment
//! server.
//!
//! * **Concurrency equivalence** — N campaigns executed concurrently by
//!   the fair-share scheduler produce exactly the per-campaign digests
//!   of serial, stand-alone executions of the same descriptions.
//! * **Fairness** — two tenants with unequal campaigns both make
//!   progress in every scheduler round while both have work.
//! * **Restart replay** — dropping the server and reopening the same
//!   repository resumes every campaign bit-exactly, and the durable
//!   submit key still dedups across the restart.
//! * **Obs parity** — the observability layer (queue gauges, campaign
//!   counters, scheduling-latency histogram) must not influence
//!   results: digests are identical with recording on and off.

use std::path::PathBuf;
use std::sync::Arc;

use excovery_core::{EngineConfig, ExperiMaster};
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::{xmlio, ExperimentDescription};
use excovery_obs::sync::Mutex;
use excovery_rpc::{JobState, PlanSpec, SubmitRequest};
use excovery_server::{
    preset_config, ExperimentServer, Scheduler, SchedulerConfig, ServerClient, ServerConfig,
    ServerRepo,
};

/// The paper's two-party SD experiment, trimmed for test speed (no
/// traffic factors) and reseeded per scenario — the same abbreviation
/// the engine's chaos-equivalence suite uses.
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
        "excovery-server-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn submit(repo: &Arc<Mutex<ServerRepo>>, tenant: &str, preset: &str, reps: u64, seed: u64) -> u64 {
    let req = SubmitRequest {
        tenant: tenant.into(),
        preset: preset.into(),
        description_xml: xmlio::to_xml(&desc_with_seed(reps, seed)),
        submit_key: format!("{tenant}-{preset}-{reps}-{seed}"),
    };
    let (job_id, created) = repo.lock().submit(&req).expect("submit");
    assert!(created);
    job_id
}

/// Digest of a stand-alone, uninterrupted execution on the same preset.
fn reference_digest(reps: u64, seed: u64, preset: &str) -> u64 {
    let cfg: EngineConfig = preset_config(preset).expect("preset");
    let mut master = ExperiMaster::new(desc_with_seed(reps, seed), cfg).expect("master");
    master.execute().expect("reference execution").digest()
}

#[test]
fn concurrent_campaigns_match_their_serial_digests() {
    let root = unique_root("concurrent");
    let repo = Arc::new(Mutex::new(ServerRepo::open(&root).unwrap()));
    let jobs = [
        (
            submit(&repo, "alice", "grid_default", 2, 11),
            2,
            11,
            "grid_default",
        ),
        (submit(&repo, "bob", "wired_lan", 3, 22), 3, 22, "wired_lan"),
        (
            submit(&repo, "carol", "grid_default", 4, 33),
            4,
            33,
            "grid_default",
        ),
    ];
    let mut sched = Scheduler::new(
        Arc::clone(&repo),
        SchedulerConfig {
            workers: 4,
            slice_runs: 2,
        },
    );
    sched.drain().expect("drain");
    for (job_id, reps, seed, preset) in jobs {
        let rec = repo.lock().job(job_id).unwrap().clone();
        assert_eq!(rec.state, JobState::Completed, "job {job_id}: {rec:?}");
        assert_eq!(rec.runs_completed, rec.runs_total);
        assert_eq!(
            rec.digest,
            Some(reference_digest(reps, seed, preset)),
            "job {job_id} digest must equal its serial reference"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unequal_tenants_both_progress_every_round() {
    let root = unique_root("fairness");
    let repo = Arc::new(Mutex::new(ServerRepo::open(&root).unwrap()));
    let long = submit(&repo, "alice", "grid_default", 6, 44);
    let short = submit(&repo, "bob", "grid_default", 2, 55);
    // One worker: fairness must come from the pick, not the parallelism.
    let mut sched = Scheduler::new(
        Arc::clone(&repo),
        SchedulerConfig {
            workers: 1,
            slice_runs: 1,
        },
    );
    // While both tenants have runnable work, every round advances both.
    for round in 0..2 {
        let report = sched.tick().expect("tick");
        assert_eq!(
            report.tenants_progressed(),
            vec!["alice", "bob"],
            "round {round} must advance both tenants: {report:?}"
        );
    }
    assert_eq!(repo.lock().job(short).unwrap().state, JobState::Completed);
    sched.drain().expect("drain");
    let alice = repo.lock().job(long).unwrap().clone();
    let bob = repo.lock().job(short).unwrap().clone();
    assert_eq!(alice.state, JobState::Completed);
    assert_eq!(alice.digest, Some(reference_digest(6, 44, "grid_default")));
    assert_eq!(bob.digest, Some(reference_digest(2, 55, "grid_default")));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_replays_the_journal_and_resumes_bit_exactly() {
    let root = unique_root("restart");
    let key_req = |tenant: &str| SubmitRequest {
        tenant: tenant.into(),
        preset: "grid_default".into(),
        description_xml: xmlio::to_xml(&desc_with_seed(4, 66)),
        submit_key: "stable-key".into(),
    };
    {
        let repo = Arc::new(Mutex::new(ServerRepo::open(&root).unwrap()));
        let (job_id, created) = repo.lock().submit(&key_req("alice")).unwrap();
        assert!(created);
        assert_eq!(job_id, 1);
        let mut sched = Scheduler::new(
            Arc::clone(&repo),
            SchedulerConfig {
                workers: 1,
                slice_runs: 2,
            },
        );
        let report = sched.tick().unwrap();
        assert_eq!(report.slices.len(), 1);
        assert_eq!(report.slices[0].runs_after, 2);
        // Server dropped here, campaign half done.
    }
    let repo = Arc::new(Mutex::new(ServerRepo::open(&root).unwrap()));
    {
        let rec = repo.lock().job(1).unwrap().clone();
        assert_eq!(rec.state, JobState::Running);
        assert_eq!(rec.runs_completed, 2);
    }
    // The durable dedup key survives the restart.
    let (job_id, created) = repo.lock().submit(&key_req("alice")).unwrap();
    assert!(!created);
    assert_eq!(job_id, 1);
    let mut sched = Scheduler::new(
        Arc::clone(&repo),
        SchedulerConfig {
            workers: 1,
            slice_runs: 2,
        },
    );
    sched.drain().unwrap();
    let rec = repo.lock().job(1).unwrap().clone();
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.digest, Some(reference_digest(4, 66, "grid_default")));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn obs_recording_does_not_influence_digests() {
    let run_with_obs = |enabled: bool, tag: &str| -> u64 {
        excovery_obs::set_enabled(enabled);
        let root = unique_root(tag);
        let repo = Arc::new(Mutex::new(ServerRepo::open(&root).unwrap()));
        let job = submit(&repo, "alice", "grid_default", 2, 77);
        let mut sched = Scheduler::new(
            Arc::clone(&repo),
            SchedulerConfig {
                workers: 2,
                slice_runs: 1,
            },
        );
        sched.drain().unwrap();
        let digest = repo.lock().job(job).unwrap().digest.expect("completed");
        excovery_obs::set_enabled(false);
        let _ = std::fs::remove_dir_all(&root);
        digest
    };
    let on = run_with_obs(true, "obs-on");
    let off = run_with_obs(false, "obs-off");
    assert_eq!(on, off);
    assert_eq!(on, reference_digest(2, 77, "grid_default"));
}

#[test]
fn standing_queries_serve_live_campaign_progress() {
    let root = unique_root("standing");
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            slice_runs: 1,
        },
        ..ServerConfig::default()
    };
    let mut server = ExperimentServer::start(&root, cfg).expect("start");
    let client = ServerClient::connect_root(&root).expect("connect");
    let (job_id, _) = client
        .submit(&SubmitRequest {
            tenant: "alice".into(),
            preset: "grid_default".into(),
            description_xml: xmlio::to_xml(&desc_with_seed(3, 99)),
            submit_key: "standing-key".into(),
        })
        .expect("submit");
    let plan = PlanSpec {
        table: "RunInfos".into(),
        group_by: vec!["RunID".into()],
        aggs: vec![excovery_rpc::AggSpec {
            op: excovery_rpc::AggOp::Count,
            column: None,
            name: Some("nodes".into()),
            q: None,
        }],
        sort_by: Some("RunID".into()),
        ..Default::default()
    };
    // Queued, nothing executed: an empty frame, not a fault.
    let empty = client.query(job_id, &plan).expect("query queued job");
    assert!(
        empty.columns.is_empty() && empty.rows.is_empty(),
        "{empty:?}"
    );
    // Poll the live view after every slice; each frame must have one
    // group per completed run.
    let mut live_rows = Vec::new();
    loop {
        server.tick().expect("tick");
        let status = client.status(job_id).expect("status");
        if status.state != JobState::Running {
            break;
        }
        let frame = client.query(job_id, &plan).expect("query running job");
        assert_eq!(
            frame.rows.len() as u64,
            status.runs_completed,
            "one group per completed run: {frame:?}"
        );
        live_rows = frame.rows.clone();
    }
    assert_eq!(client.status(job_id).unwrap().state, JobState::Completed);
    assert_eq!(
        server.standing().query_count(job_id),
        0,
        "completed jobs retire their standing state"
    );
    // The completed package's answer extends the last live frame — the
    // runs both views saw agree cell for cell.
    let final_frame = client.query(job_id, &plan).expect("query completed job");
    assert_eq!(final_frame.rows.len(), 3);
    assert!(
        !live_rows.is_empty(),
        "the campaign was observed mid-flight"
    );
    assert_eq!(
        &final_frame.rows[..live_rows.len()],
        &live_rows[..],
        "live frames are a prefix of the final frame"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rpc_round_trip_submits_queries_and_downloads() {
    for workers in [1, 4] {
        rpc_round_trip_at(workers);
    }
}

/// Submit, drive, query and download one campaign on a server whose
/// scheduler pool is `workers` wide.
fn rpc_round_trip_at(workers: usize) {
    let root = unique_root("rpc");
    // A tiny results page forces the package download through many
    // `job.results` round trips — the paging real packages need to stay
    // under the 16 MiB frame cap.
    let cfg = ServerConfig {
        results_page_bytes: 1024,
        scheduler: SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut server = ExperimentServer::start(&root, cfg).expect("start");
    let client = ServerClient::connect_root(&root).expect("connect via endpoint file");
    let (job_id, created) = client
        .submit(&SubmitRequest {
            tenant: "alice".into(),
            preset: "grid_default".into(),
            description_xml: xmlio::to_xml(&desc_with_seed(2, 88)),
            submit_key: "rpc-key".into(),
        })
        .expect("submit");
    assert!(created);
    // Resubmission over the wire dedups to the original id.
    let (again, created_again) = client
        .submit(&SubmitRequest {
            tenant: "alice".into(),
            preset: "grid_default".into(),
            description_xml: xmlio::to_xml(&desc_with_seed(2, 88)),
            submit_key: "rpc-key".into(),
        })
        .expect("resubmit");
    assert_eq!((again, created_again), (job_id, false));

    let status = client.status(job_id).expect("status");
    assert_eq!(status.state, JobState::Queued);
    assert_eq!(status.runs_total, 2);

    // Deterministic drive: tick the scheduler to completion in-process.
    while !matches!(
        client.status(job_id).unwrap().state,
        JobState::Completed | JobState::Failed
    ) {
        server.tick().expect("tick");
    }
    let status = client.status(job_id).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(
        status.digest,
        Some(reference_digest(2, 88, "grid_default")),
        "workers {workers}"
    );

    // Remote analysis: table listing and a server-side query plan.
    let tables = client.tables(job_id).expect("tables");
    assert!(tables.iter().any(|t| t == "Events"), "{tables:?}");
    let frame = client
        .query(
            job_id,
            &PlanSpec {
                table: "RunInfos".into(),
                group_by: vec!["RunID".into()],
                aggs: vec![excovery_rpc::AggSpec {
                    op: excovery_rpc::AggOp::Count,
                    column: None,
                    name: Some("nodes".into()),
                    q: None,
                }],
                sort_by: Some("RunID".into()),
                ..Default::default()
            },
        )
        .expect("query.run");
    assert_eq!(frame.rows.len(), 2, "one group per run: {frame:?}");

    // Package download round-trips through the store layer.
    let results = client.results(job_id).expect("results");
    assert_eq!(results.status.digest, status.digest);
    let tmp = root.join("downloaded.expdb");
    std::fs::write(&tmp, &results.package).unwrap();
    let db = excovery_store::Database::load(&tmp).expect("downloaded package loads");
    assert!(db.table_names().contains(&"Events"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
