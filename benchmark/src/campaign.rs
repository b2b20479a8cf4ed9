//! The two local campaign workloads: XML text in, responsiveness `Frame`
//! out, through every layer of the library.
//!
//! * `cs1_long` — long and narrow: the paper's CS-1 loss sweep on the
//!   3×3 default grid, many runs of ≈40 simulator events each, so
//!   `core`'s run loop and `store`'s level-2 writes do almost all the work.
//! * `mesh100_wide` — short and wide: 99 service managers and one user on
//!   a 10×10 grid (the DES-testbed scale), few runs, 100 NodeManagers per
//!   lifecycle phase, a package of megabytes, so `rpc` fan-out, `netsim`,
//!   `sd` and `store` save/load carry the weight.

use crate::harness::{
    fnv, median, remove, ObsDelta, ObsKind, ObsMetric, Rep, RunOptions, Scratch, Tracer, Workload,
};
use crate::probes;
use excovery::analysis::responsiveness::responsiveness_by_treatment;
use excovery::analysis::treatments::treatments_from_database;
use excovery::analysis::ExperimentDataset;
use excovery::desc::validate::validate_strict;
use excovery::desc::xmlio::{from_xml, to_xml};
use excovery::desc::ExperimentDescription;
use excovery::engine::scenarios::{loss_sweep, multi_sm};
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::topology::Topology;
use excovery::query::{Agg, Frame, Value};
use excovery::store::Database;
use std::collections::BTreeMap;
use std::time::Instant;

/// Deadlines of the responsiveness curves, the ones the paper's harnesses
/// report.
const DEADLINES_S: [f64; 8] = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// CS-1 loss levels; replications per level set the length.
const CS1_LOSS_LEVELS: [f64; 4] = [0.0, 0.2, 0.4, 0.6];
const CS1_REPLICATIONS: u64 = 50;
/// Runs of the shorter execution `core.scaling_ratio` compares against.
const CS1_SCALING_RUNS: u64 = 100;

/// Times the sub-millisecond set-up of a campaign is repeated per
/// repetition.
const SETUP_ROUNDS: usize = 9;

const MESH_SERVICE_MANAGERS: usize = 99;
const MESH_SIDE: usize = 10;
const MESH_REPLICATIONS: u64 = 4;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cs1Long,
    Mesh100Wide,
}

pub struct Campaign {
    kind: Kind,
    seed: u64,
    replications: u64,
}

pub fn cs1_long(opts: &RunOptions) -> Campaign {
    Campaign {
        kind: Kind::Cs1Long,
        seed: opts.seed,
        replications: opts.scaled(CS1_REPLICATIONS),
    }
}

pub fn mesh100_wide(opts: &RunOptions) -> Campaign {
    Campaign {
        kind: Kind::Mesh100Wide,
        seed: opts.seed,
        replications: opts.scaled(MESH_REPLICATIONS),
    }
}

/// What the program's own counters say about a campaign.
pub const CAMPAIGN_OBS: &[ObsMetric] = &[
    obs(
        "core.phase_sum_ms",
        "master_phase_duration_ns",
        None,
        ObsKind::HistogramSum,
        1e-6,
    ),
    obs(
        "core.node_calls",
        "nodemanager_calls_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "rpc.calls",
        "rpc_client_calls_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "rpc.bytes_sent",
        "rpc_client_bytes_sent_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "rpc.bytes_received",
        "rpc_client_bytes_received_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "rpc.call_latency_sum_ms",
        "rpc_client_call_latency_ns",
        None,
        ObsKind::HistogramSum,
        1e-6,
    ),
    obs(
        "rpc.retries",
        "rpc_client_retries_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.events",
        "netsim_events_executed_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.packets_sent",
        "netsim_packets_sent_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.packets_delivered",
        "netsim_packets_delivered_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.packets_dropped",
        "netsim_packets_dropped_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.flood_duplicates",
        "netsim_flood_duplicates_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "netsim.barrier_wait_ms",
        "netsim_barrier_wait_ns_total",
        None,
        ObsKind::Counter,
        1e-6,
    ),
    obs(
        "netsim.mailbox_crossings",
        "netsim_mailbox_crossings_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "store.l2_writes",
        "store_writes_total",
        Some(("level", "2")),
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "store.l2_bytes",
        "store_bytes_written_total",
        Some(("level", "2")),
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "store.journal_commits",
        "store_journal_commits_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
];

/// What they say about the query layer.
pub const QUERY_OBS: &[ObsMetric] = &[
    obs(
        "query.partitions_scanned",
        "query_partitions_scanned_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "query.partitions_pruned",
        "query_partitions_pruned_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "query.rows_scanned",
        "query_rows_scanned_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "query.slab_bytes_read",
        "query_slab_bytes_read_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
    obs(
        "query.projected_loads",
        "query_partitions_projected_loads_total",
        None,
        ObsKind::Counter,
        1.0,
    ),
];

const fn obs(
    metric: &'static str,
    series: &'static str,
    label: Option<(&'static str, &'static str)>,
    kind: ObsKind,
    scale: f64,
) -> ObsMetric {
    ObsMetric {
        metric,
        series,
        label,
        kind,
        scale,
    }
}

/// `scan("Events").group_by(["EventType"]).agg([count])`: the frame whose
/// digest every campaign checks.
pub fn events_by_type(ds: &ExperimentDataset) -> Result<Frame, String> {
    ds.query()
        .scan("Events")
        .group_by(["EventType"])
        .agg([Agg::count()])
        .collect()
        .map_err(|e| format!("Events frame: {e}"))
}

/// Count of one event type in an [`events_by_type`] frame.
pub fn event_count(frame: &Frame, event_type: &str) -> u64 {
    frame
        .rows
        .iter()
        .find(|row| row[0].as_str() == Some(event_type))
        .and_then(|row| match row[1] {
            Value::I64(n) => u64::try_from(n).ok(),
            _ => None,
        })
        .unwrap_or(0)
}

impl Campaign {
    fn describe(&self) -> ExperimentDescription {
        match self.kind {
            Kind::Cs1Long => loss_sweep(&CS1_LOSS_LEVELS, self.replications, self.seed),
            Kind::Mesh100Wide => multi_sm(
                MESH_SERVICE_MANAGERS,
                "two-party",
                false,
                self.replications,
                self.seed,
            ),
        }
    }

    /// The library's default engine configuration; only the platform (the
    /// topology the description is instantiated on) is chosen here.
    fn config(&self) -> EngineConfig {
        match self.kind {
            Kind::Cs1Long => EngineConfig::grid_default(),
            Kind::Mesh100Wide => EngineConfig::builder()
                .topology(Topology::grid(MESH_SIDE, MESH_SIDE))
                .build(),
        }
    }

    /// Services one episode must find to count as responsive.
    fn required_discoveries(&self) -> usize {
        match self.kind {
            Kind::Cs1Long => 1,
            Kind::Mesh100Wide => MESH_SERVICE_MANAGERS,
        }
    }
}

impl Workload for Campaign {
    fn rep(&mut self, tr: &mut Tracer, scratch: &mut Scratch, traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();

        // Set-up takes a fraction of a millisecond here, so a single sample
        // reads the cache state the last repetition left behind more than
        // the work: set up several times and keep the median.
        let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
        let (mut text, mut cfg) = (String::new(), self.config());
        for _ in 0..SETUP_ROUNDS {
            let preparing = Instant::now();
            text = to_xml(&self.describe());
            cfg = self.config();
            rounds.push(preparing.elapsed().as_secs_f64());
        }
        rep.setup_s = median(&rounds);
        let package = scratch.path("package.expdb");

        let before = traced.then(ObsDelta::start);
        let pipeline = tr.enter("pipeline", "bench");

        let (desc, from_xml_s) = tr.time("desc.from_xml", "desc", || from_xml(&text));
        let desc = desc.map_err(|e| format!("from_xml: {e}"))?;
        let (findings, validate_s) = tr.time("desc.validate", "desc", || validate_strict(&desc));
        findings.map_err(|e| format!("validate: {e}"))?;
        let (plan, plan_s) = tr.time("desc.plan", "desc", || desc.plan());
        let planned = plan.runs.len() as u64;

        let (master, new_s) = tr.time("core.new", "core", || ExperiMaster::new(desc, cfg));
        let mut master = master.map_err(|e| format!("ExperiMaster::new: {e}"))?;
        let (outcome, execute_s) = tr.time("core.execute", "core", || master.execute());
        let outcome = outcome.map_err(|e| format!("execute: {e}"))?;
        // The master joins its NodeManagers when dropped: part of the wait.
        tr.time("core.drop", "core", || drop(master));

        let (saved, save_s) = tr.time("store.save", "store", || outcome.database.save(&package));
        saved.map_err(|e| format!("save: {e}"))?;
        let (db, load_s) = tr.time("store.load", "store", || Database::load(&package));
        let db = db.map_err(|e| format!("load: {e}"))?;

        let (ds, build_s) = tr.time("query.build", "query", || ExperimentDataset::new(&db));
        let ds = ds.map_err(|e| format!("ExperimentDataset::new: {e}"))?;
        let (treatments, treatments_s) = tr.time("analysis.treatments", "analysis", || {
            treatments_from_database(&db)
        });
        let treatments = treatments.map_err(|e| format!("treatments: {e}"))?;
        let k = self.required_discoveries();
        let (curves, responsiveness_s) = tr.time("analysis.responsiveness", "analysis", || {
            let of_run = |run: u64| {
                treatments
                    .get(&run)
                    .cloned()
                    .unwrap_or_else(|| "unknown".into())
            };
            responsiveness_by_treatment(&db, &of_run, k, &DEADLINES_S)
        });
        let curves = curves.map_err(|e| format!("responsiveness: {e}"))?;
        let (frame, frame_s) = tr.time("query.frame", "query", || events_by_type(&ds));
        let frame = frame?;

        rep.pipeline_s = tr.exit(pipeline);
        rep.work = planned as f64;
        rep.work_s = new_s + execute_s;

        // ---- checks, outside the timed region ----
        for run in &outcome.runs {
            rep.attempt(
                (!run.completed).then(|| format!("run {} failed: {:?}", run.run_id, run.failures)),
            );
        }
        let executed = outcome.runs.len() as u64;
        rep.attempt(
            (executed != planned).then(|| format!("{executed} runs executed, {planned} planned")),
        );
        let package_bytes = std::fs::metadata(&package).map_or(0, |m| m.len());
        let episodes: u64 = curves
            .values()
            .filter_map(|curve| curve.first())
            .map(|p| p.episodes)
            .sum();
        let curve_digest = fnv(curves.iter().flat_map(|(key, curve)| {
            std::iter::once(fnv(key.bytes().map(u64::from)))
                .chain(curve.iter().map(|p| p.probability.to_bits()))
        }));
        rep.exact("runs", planned);
        rep.exact("outcome_digest", outcome.digest());
        rep.exact("events", outcome.runs.iter().map(|r| r.events as u64).sum());
        rep.exact(
            "packets",
            outcome.runs.iter().map(|r| r.packets as u64).sum(),
        );
        rep.exact("package_bytes", package_bytes);
        rep.exact("frame_digest", frame.digest());
        rep.exact("episodes", episodes);
        rep.exact("responsiveness_digest", curve_digest);

        if let Some(before) = before {
            let delta = ObsDelta::since(before);
            rep.set_from_obs(&delta, CAMPAIGN_OBS);
            rep.set_from_obs(&delta, QUERY_OBS);
            let (_, parse_s) = tr.time("xml.parse", "xml", || excovery::xml::parse(&text).is_ok());
            rep.set("xml.parse_us", parse_s * 1e6);
            rep.set("xml.bytes", text.len() as f64);
            rep.set("desc.from_xml_us", from_xml_s * 1e6);
            rep.set("desc.validate_us", validate_s * 1e6);
            rep.set("desc.plan_ms", plan_s * 1e3);
            rep.set("desc.plan_runs", planned as f64);
            rep.set("core.new_ms", new_s * 1e3);
            rep.set("core.execute_s", execute_s);
            rep.set("core.run_ms_at_full", execute_s * 1e3 / planned as f64);
            let phases_s = rep
                .values
                .get("core.phase_sum_ms")
                .map_or(0.0, |ms| ms / 1e3);
            rep.set("core.unattributed_share", 1.0 - phases_s / execute_s);
            rep.set("store.save_ms", save_s * 1e3);
            rep.set("store.load_ms", load_s * 1e3);
            rep.set("store.package_bytes", package_bytes as f64);
            rep.set("store.bytes_per_run", package_bytes as f64 / planned as f64);
            rep.set("query.build_ms", build_s * 1e3);
            rep.set("query.frame_ms", frame_s * 1e3);
            rep.set("analysis.treatments_ms", treatments_s * 1e3);
            rep.set("analysis.responsiveness_ms", responsiveness_s * 1e3);
            rep.set("analysis.episodes", episodes as f64);
            rep.set(
                "sd.service_adds",
                event_count(&frame, "sd_service_add") as f64,
            );
        }
        remove(&package);
        Ok(rep)
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        scratch: &mut Scratch,
        out: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        probes::rpc_memory_roundtrip(tr, out)?;
        probes::sd_discovery(tr, self.seed, out)?;
        if self.kind == Kind::Cs1Long {
            probes::l2_commit(tr, scratch, out)?;
            let planned = self.describe().plan().runs.len() as u64;
            let short = CS1_SCALING_RUNS.min(planned);
            let cfg = EngineConfig::builder().max_runs(short).build();
            let mut master = ExperiMaster::new(self.describe(), cfg)
                .map_err(|e| format!("scaling probe: {e}"))?;
            let (outcome, secs) = tr.time("probe.core.execute_short", "core", || master.execute());
            outcome.map_err(|e| format!("scaling probe: {e}"))?;
            let at_short = secs * 1e3 / short as f64;
            out.insert("core.run_ms_at_100", at_short);
            if let Some(&at_full) = out.get("core.run_ms_at_full") {
                out.insert("core.scaling_ratio", at_full / at_short);
            }
        }
        Ok(())
    }
}
