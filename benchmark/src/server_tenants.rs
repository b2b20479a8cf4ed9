//! `server_tenants` — the second end-to-end path: `submit` → drain →
//! `query.run`. Everything `cs1_long` exercises plus framed TCP `rpc`, the
//! `job.*`/`query.*` codecs, the journalled level-4 `ServerRepo`, the
//! fair-share scheduler across unequal tenants and standing-query live
//! frames. Comparing its `work_per_s` with `cs1_long`'s prices the
//! service tier.
//!
//! Connection 1 submits a burst at t0 (three tenants with unequal jobs,
//! all CS-1 descriptions), polls `job.list` every 2 ms and, per completed
//! job, issues `query.run` and downloads `results`: a closed loop.
//! Connection 2 issues the same `query.run` against the largest job while
//! it runs, every 25 ms whatever the server does: an open loop, timed
//! from when each query was due, with its lateness reported.

use crate::campaign::CAMPAIGN_OBS;
use crate::harness::{
    fnv, median, remove, tree_bytes, ObsDelta, ObsKind, ObsMetric, Rep, RunOptions, Scratch,
    Tracer, Workload,
};
use crate::probes;
use excovery::desc::xmlio::to_xml;
use excovery::engine::scenarios::loss_sweep;
use excovery::query::wire_to_frame;
use excovery::rpc::{AggOp, AggSpec, JobId, JobState, PlanSpec, SubmitRequest};
use excovery::server::{ExperimentServer, ServerClient, ServerConfig};
use excovery::store::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const LOSS_LEVELS: [f64; 4] = [0.0, 0.2, 0.4, 0.6];
/// `(tenant, engine preset, jobs, replications per loss level)`.
const TENANTS: [(&str, &str, u64, u64); 3] = [
    ("alice", "grid_default", 6, 3),
    ("bob", "wired_lan", 3, 6),
    ("carol", "lossy_mesh", 1, 18),
];
const POLL: Duration = Duration::from_millis(2);
const LIVE_QUERY_PERIOD: Duration = Duration::from_millis(25);

pub struct ServerTenants {
    seed: u64,
    quick: bool,
}

pub fn server_tenants(opts: &RunOptions) -> ServerTenants {
    ServerTenants {
        seed: opts.seed,
        quick: opts.quick,
    }
}

const SERVER_OBS: &[ObsMetric] = &[ObsMetric {
    metric: "server.schedule_latency_ms",
    series: "server_job_schedule_latency_ns",
    label: None,
    kind: ObsKind::HistogramMean,
    scale: 1e-6,
}];

/// Events grouped by type, counted: the plan of every `query.run` here.
fn events_by_type_plan() -> PlanSpec {
    PlanSpec {
        table: "Events".into(),
        group_by: vec!["EventType".into()],
        aggs: vec![AggSpec {
            op: AggOp::Count,
            column: None,
            name: None,
            q: None,
        }],
        ..Default::default()
    }
}

struct Job {
    request: SubmitRequest,
    runs: u64,
    id: JobId,
    turnaround_s: Option<f64>,
}

impl Workload for ServerTenants {
    fn rep(&mut self, tr: &mut Tracer, scratch: &mut Scratch, traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();

        let preparing = Instant::now();
        let mut jobs = Vec::new();
        for (tenant, preset, count, replications) in TENANTS {
            let replications = if self.quick {
                (replications / 3).max(1)
            } else {
                replications
            };
            for j in 0..count {
                let seed = self.seed.wrapping_mul(1000).wrapping_add(jobs.len() as u64);
                let desc = loss_sweep(&LOSS_LEVELS, replications, seed);
                jobs.push(Job {
                    runs: desc.plan().runs.len() as u64,
                    request: SubmitRequest {
                        tenant: tenant.into(),
                        preset: preset.into(),
                        description_xml: to_xml(&desc),
                        submit_key: format!("{tenant}-{j}-{seed}"),
                    },
                    id: 0,
                    turnaround_s: None,
                });
            }
        }
        let total_runs: u64 = jobs.iter().map(|j| j.runs).sum();
        let root = scratch.path("server");
        let mut server = ExperimentServer::start(&root, ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let client = ServerClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let live_client = ServerClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let plan = events_by_type_plan();
        rep.setup_s = preparing.elapsed().as_secs_f64();

        let before = traced.then(ObsDelta::start);
        let stop = AtomicBool::new(false);
        let largest_done = AtomicBool::new(false);
        let mut submit_ms = Vec::new();
        let mut status_ms = Vec::new();
        let mut query_ms = Vec::new();
        let mut results_ms = Vec::new();
        let mut packages: Vec<(JobId, Vec<u8>)> = Vec::new();
        let mut frame_digests = Vec::new();
        let mut makespan_s = 0.0;

        let pipeline = tr.enter("pipeline", "bench");
        let t0 = Instant::now();
        let (pipeline_s, served, live) = std::thread::scope(|scope| -> Result<_, String> {
            let serving = scope.spawn(|| server.run_until(|| stop.load(Ordering::SeqCst)));
            // Stops the server thread on every way out of this closure.
            let _stop_on_exit = SetOnDrop(&stop);

            let open = tr.enter("server.submit_burst", "server");
            for job in &mut jobs {
                let started = Instant::now();
                let (id, created) = client
                    .submit(&job.request)
                    .map_err(|e| format!("submit: {e}"))?;
                submit_ms.push(started.elapsed().as_secs_f64() * 1e3);
                if !created {
                    return Err(format!("submit key {} was not new", job.request.submit_key));
                }
                job.id = id;
            }
            tr.exit(open);
            let largest = jobs
                .iter()
                .max_by_key(|j| j.runs)
                .map(|j| j.id)
                .expect("the tenant table is not empty");

            let (live_client, plan, largest_done) = (&live_client, &plan, &largest_done);
            let live = scope.spawn(move || {
                // Open loop: query k is due at t0' + k × period.
                let start = Instant::now();
                let (mut latency_ms, mut late_ms) = (Vec::new(), Vec::new());
                let mut k = 0u32;
                while !largest_done.load(Ordering::SeqCst) {
                    let due = start + LIVE_QUERY_PERIOD * k;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                    let answer = live_client.query(largest, plan);
                    latency_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                    answer.map_err(|e| format!("live query: {e}"))?;
                    k += 1;
                }
                Ok::<_, String>((latency_ms, late_ms))
            });
            let _release_live = SetOnDrop(largest_done);

            let open = tr.enter("server.drain", "server");
            while jobs.iter().any(|j| j.turnaround_s.is_none()) {
                std::thread::sleep(POLL);
                let started = Instant::now();
                let statuses = client.list().map_err(|e| format!("list: {e}"))?;
                status_ms.push(started.elapsed().as_secs_f64() * 1e3);
                for status in statuses {
                    let Some(job) = jobs
                        .iter_mut()
                        .find(|j| j.id == status.job_id && j.turnaround_s.is_none())
                    else {
                        continue;
                    };
                    match status.state {
                        JobState::Completed => {}
                        JobState::Failed => {
                            return Err(format!("job {} failed: {:?}", job.id, status.error))
                        }
                        _ => continue,
                    }
                    makespan_s = t0.elapsed().as_secs_f64();
                    job.turnaround_s = Some(makespan_s);
                    if job.id == largest {
                        largest_done.store(true, Ordering::SeqCst);
                    }
                    let started = Instant::now();
                    let frame = client
                        .query(job.id, plan)
                        .map_err(|e| format!("query.run: {e}"))?;
                    query_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    frame_digests.push((job.id, wire_to_frame(&frame).digest()));
                    let started = Instant::now();
                    let results = client
                        .results(job.id)
                        .map_err(|e| format!("results: {e}"))?;
                    results_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    frame_digests.push((job.id, status.digest.unwrap_or(0)));
                    packages.push((job.id, results.package));
                }
            }
            tr.exit(open);
            // The last job's `query.run` frame has arrived: the user's wait
            // ends here, before the threads are collected.
            let pipeline_s = tr.exit(pipeline);
            let live = live
                .join()
                .map_err(|_| "the live-query thread panicked")??;
            stop.store(true, Ordering::SeqCst);
            let served = serving.join().map_err(|_| "the server thread panicked")?;
            Ok((pipeline_s, served, live))
        })?;
        rep.pipeline_s = pipeline_s;
        served.map_err(|e| format!("server: {e}"))?;
        server.shutdown();
        rep.work = total_runs as f64;
        rep.work_s = makespan_s;

        // ---- checks ----
        let mut stored_bytes = 0;
        for (id, package) in &packages {
            stored_bytes += package.len() as u64;
            let path = scratch.path("downloaded.expdb");
            let loaded = std::fs::write(&path, package)
                .map_err(|e| e.to_string())
                .and_then(|()| Database::load(&path).map_err(|e| e.to_string()));
            rep.attempt(match loaded {
                _ if package.is_empty() => Some(format!("job {id}: empty package")),
                Err(e) => Some(format!("job {id}: package does not load: {e}")),
                Ok(_) => None,
            });
            remove(&path);
        }
        frame_digests.sort_unstable();
        rep.exact("jobs", jobs.len() as u64);
        rep.exact("runs", total_runs);
        rep.exact("stored_bytes", stored_bytes);
        rep.exact("digests", fnv(frame_digests.iter().map(|d| d.1)));

        if let Some(before) = before {
            let delta = ObsDelta::since(before);
            rep.set_from_obs(&delta, CAMPAIGN_OBS);
            rep.set_from_obs(&delta, SERVER_OBS);
            let turnarounds: Vec<f64> = jobs.iter().filter_map(|j| j.turnaround_s).collect();
            rep.set("server.job_turnaround_p50_s", median(&turnarounds));
            rep.set("server.makespan_s", makespan_s);
            rep.set("server.submit_ms", median(&submit_ms));
            rep.set("server.results_ms", median(&results_ms));
            rep.set(
                "server.queue_journal_bytes",
                tree_bytes(&root.join("queue.json")) as f64,
            );
            rep.set(
                "store.bytes_per_run",
                stored_bytes as f64 / total_runs as f64,
            );
            rep.set("store.package_bytes", stored_bytes as f64);
            for ms in status_ms {
                rep.sample("status", ms);
            }
            for ms in query_ms {
                rep.sample("query_run", ms);
            }
            for ms in live.0 {
                rep.sample("query_live", ms);
            }
            for ms in live.1 {
                rep.sample("query_live_late", ms);
            }
        }
        drop(server);
        remove(&root);
        Ok(rep)
    }

    fn summarize(
        &self,
        pools: &BTreeMap<&'static str, Vec<f64>>,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        for (pool, metric) in [
            ("status", "server.status_ms"),
            ("query_run", "server.query_run_p50_ms"),
            ("query_live", "server.query_live_p50_ms"),
            ("query_live_late", "server.query_live_late_ms"),
        ] {
            out.insert(metric, pools.get(pool).map_or(0.0, |p| median(p)));
        }
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        _scratch: &mut Scratch,
        out: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        probes::rpc_tcp_roundtrip(tr, out)
    }
}

/// Sets the flag when dropped, so a thread waiting on it is released on
/// every way out of a scope, errors included.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}
