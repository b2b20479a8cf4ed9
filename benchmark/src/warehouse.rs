//! `warehouse` — the query layer alone, writes beside reads and
//! cache-fits beside cache-thrashes in one place: an encoding that speeds
//! scans but slows ingest, or a cache change that helps the spilled path
//! and hurts the resident one, cannot hide.
//!
//! Per repetition: ingest the run packages through `SpillBuilder`, answer
//! the query mix with everything resident (budget 1 GiB), reopen the
//! directory cold under a budget far below the decoded size, answer the
//! same mix again. The mix has four kinds, interleaved: a full-scan
//! group-mean, a `COUNT` the footers answer by pruning, a filtered
//! group-by over a text column, and a one-run two-column projection.

use crate::campaign::QUERY_OBS;
use crate::harness::{
    fnv, median, quantile, remove, tree_bytes, ObsDelta, Rep, RunOptions, Scratch, SplitMix,
    Tracer, Workload,
};
use excovery::query::{col, lit, Agg, Dataset, Frame, SpillBuilder, StandingQuery};
use excovery::store::{Column, ColumnType, Database, SqlValue};
use std::collections::BTreeMap;
use std::time::Instant;

const EXPERIMENTS: u64 = 5;
const RUNS_PER_EXPERIMENT: u64 = 8;
const FACTS_PER_RUN: u64 = 25_000;
/// Response times repeat in bursts of this length (quantised sampling),
/// which the slab writer picks up as run-length encoding.
const BURST: u64 = 16;
/// Simulated seconds between the search starts of consecutive runs.
const RUN_SPACING_NS: u64 = 30_000_000_000;
const QUERIES_PER_KIND: usize = 15;
const HOT_BUDGET: u64 = 1 << 30;
const SPILL_BUDGET: u64 = 4 << 20;
const TABLE: &str = "FactDiscovery";

const KINDS: [&str; 4] = ["group_mean", "pruned_count", "filter_group", "projection"];
/// Sample pools of all queries of one pass: `[resident, spilled]`.
const SIDES: [&str; 2] = ["hot", "spill"];

pub struct Warehouse {
    seed: u64,
    facts_per_run: u64,
    /// Budget of the cold reopen; scaled with the data so it stays far
    /// below the decoded size.
    spill_budget: u64,
}

pub fn warehouse(opts: &RunOptions) -> Warehouse {
    Warehouse {
        seed: opts.seed,
        facts_per_run: opts.scaled(FACTS_PER_RUN),
        spill_budget: opts.scaled(SPILL_BUDGET),
    }
}

fn fact_schema() -> Vec<Column> {
    use ColumnType::{Integer, Text};
    vec![
        Column::new("ExpKey", Integer),
        Column::new("RunKey", Integer),
        Column::new("SuNodeKey", Integer),
        Column::new("Service", Text),
        Column::new("SearchStart", Integer),
        Column::new("ResponseTimeNs", Integer),
    ]
}

impl Warehouse {
    fn rows(&self) -> u64 {
        EXPERIMENTS * RUNS_PER_EXPERIMENT * self.facts_per_run
    }

    /// One run's fact package (the generator of the repository's
    /// `query_snapshot`, seeded): response times 1 ms … ~2 s with an
    /// experiment-dependent offset so per-experiment means differ.
    fn run_package(&self, exp: u64, run_key: u64) -> Result<Database, String> {
        let mut db = Database::new();
        db.create_table(TABLE, fact_schema())
            .map_err(|e| e.to_string())?;
        let mut rng = SplitMix::new(self.seed ^ run_key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let start = run_key * RUN_SPACING_NS;
        let mut t_r = 0;
        for f in 0..self.facts_per_run {
            if f % BURST == 0 {
                t_r = 1_000_000 + rng.below(2_000_000_000) / (exp + 1);
            }
            db.insert(
                TABLE,
                vec![
                    SqlValue::Int(exp as i64),
                    SqlValue::Int(run_key as i64),
                    SqlValue::Int((f % 4) as i64),
                    SqlValue::Text(format!("sm{}", f % 4)),
                    SqlValue::Int(start as i64),
                    SqlValue::Int(t_r as i64),
                ],
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(db)
    }

    fn query(&self, ds: &Dataset, kind: usize, run_key: i64) -> Result<Frame, String> {
        let scan = ds.scan(TABLE);
        let scan = match kind {
            0 => scan
                .group_by(["ExpKey"])
                .agg([Agg::mean("ResponseTimeNs").named("mean_ns")]),
            // Selects exactly the first experiment's runs; the min/max
            // footers answer it without reading the other partitions.
            1 => scan
                .filter(col("SearchStart").lt(lit((RUNS_PER_EXPERIMENT * RUN_SPACING_NS) as i64)))
                .agg([Agg::count()]),
            2 => scan
                .filter(col("SuNodeKey").eq(lit(1i64)))
                .group_by(["Service"])
                .agg([Agg::max("ResponseTimeNs")]),
            _ => scan
                .filter(col("RunKey").eq(lit(run_key)))
                .select(["SuNodeKey", "ResponseTimeNs"])
                .sort_by("ResponseTimeNs"),
        };
        scan.collect()
            .map_err(|e| format!("{} query: {e}", KINDS[kind]))
    }

    /// The interleaved mix; returns `(kind, latency ms, frame digest)` per
    /// query and counts a wrong pruned `COUNT` as a failed operation.
    fn run_mix(
        &self,
        ds: &Dataset,
        run_keys: &[i64],
        rep: &mut Rep,
    ) -> Result<Vec<(usize, f64, u64)>, String> {
        let mut answers = Vec::with_capacity(run_keys.len() * KINDS.len());
        for &run_key in run_keys {
            for kind in 0..KINDS.len() {
                let started = Instant::now();
                let frame = self.query(ds, kind, run_key)?;
                let ms = started.elapsed().as_secs_f64() * 1e3;
                if kind == 1 {
                    let want = (RUNS_PER_EXPERIMENT * self.facts_per_run) as i64;
                    let got = frame.rows.first().and_then(|r| r[0].as_i64());
                    rep.attempt(
                        (got != Some(want))
                            .then(|| format!("pruned COUNT is {got:?}, expected {want}")),
                    );
                }
                answers.push((kind, ms, frame.digest()));
            }
        }
        Ok(answers)
    }
}

impl Workload for Warehouse {
    fn rep(&mut self, tr: &mut Tracer, scratch: &mut Scratch, traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let rows = self.rows();

        let preparing = Instant::now();
        let mut packages = Vec::new();
        for exp in 0..EXPERIMENTS {
            for run in 0..RUNS_PER_EXPERIMENT {
                let key = exp * RUNS_PER_EXPERIMENT + run;
                packages.push((format!("exp{exp}"), self.run_package(exp, key)?));
            }
        }
        let mut rng = SplitMix::new(self.seed);
        let run_keys: Vec<i64> = (0..QUERIES_PER_KIND)
            .map(|_| rng.below(EXPERIMENTS * RUNS_PER_EXPERIMENT) as i64)
            .collect();
        let dir = scratch.path("slabs");
        rep.setup_s = preparing.elapsed().as_secs_f64();

        let before = traced.then(ObsDelta::start);
        let pipeline = tr.enter("pipeline", "bench");

        let (hot, ingest_s) = tr.time("query.ingest", "query", || -> Result<Dataset, String> {
            let mut builder = SpillBuilder::create(&dir)
                .map_err(|e| format!("SpillBuilder::create: {e}"))?
                .partition_by("RunKey");
            for (experiment, db) in &packages {
                builder
                    .add_package(experiment, db)
                    .map_err(|e| format!("add_package: {e}"))?;
            }
            Ok(builder.finish(Some(HOT_BUDGET)))
        });
        let hot = hot?;
        // One pass makes every partition resident before the hot mix.
        let (warm, _) = tr.time("query.warm", "query", || {
            (0..KINDS.len()).try_for_each(|kind| self.query(&hot, kind, 0).map(drop))
        });
        warm?;
        let open = tr.enter("query.hot_mix", "query");
        let hot_answers = self.run_mix(&hot, &run_keys, &mut rep)?;
        let hot_mix_s = tr.exit(open);
        let resident = hot.spill_store().map_or(0, |s| s.resident_bytes());
        drop(hot);

        let (cold, reopen_s) = tr.time("query.reopen", "query", || {
            Dataset::open_spill(&dir, Some(self.spill_budget))
        });
        let cold = cold.map_err(|e| format!("open_spill: {e}"))?;
        let open = tr.enter("query.spill_mix", "query");
        let spill_answers = self.run_mix(&cold, &run_keys, &mut rep)?;
        let spill_mix_s = tr.exit(open);

        rep.pipeline_s = tr.exit(pipeline);
        // Answers are what a warehouse is for: the work is the queries of
        // both passes. Ingest throughput is `query.ingest_rows_per_s`.
        rep.work = (hot_answers.len() + spill_answers.len()) as f64;
        rep.work_s = hot_mix_s + spill_mix_s;

        // ---- checks ----
        for (i, (h, s)) in hot_answers.iter().zip(&spill_answers).enumerate() {
            rep.attempt((h.2 != s.2).then(|| {
                format!(
                    "query {i} ({}): spilled frame differs from the resident one",
                    KINDS[h.0]
                )
            }));
        }
        let slab_bytes = tree_bytes(&dir);
        rep.exact("rows", rows);
        rep.exact("partitions", cold.partition_count() as u64);
        rep.exact("slab_bytes", slab_bytes);
        rep.exact("frames_digest", fnv(hot_answers.iter().map(|a| a.2)));

        if let Some(before) = before {
            rep.set_from_obs(&ObsDelta::since(before), QUERY_OBS);
            for (side, answers) in [&hot_answers, &spill_answers].into_iter().enumerate() {
                for &(kind, ms, _) in answers {
                    rep.sample(SIDES[side], ms);
                    rep.sample(KIND_METRICS[kind][side], ms);
                }
            }
            rep.set("query.ingest_ms", ingest_s * 1e3);
            rep.set("query.ingest_rows_per_s", rows as f64 / ingest_s);
            rep.set("query.reopen_ms", reopen_s * 1e3);
            rep.set("query.slab_bytes", slab_bytes as f64);
            rep.set("query.slab_bytes_per_row", slab_bytes as f64 / rows as f64);
            rep.set("query.resident_bytes", resident as f64);
            rep.set("store.insert_rows_per_s", rows as f64 / rep.setup_s);

            // The same packages through a standing query: its frame must
            // equal the cold scan's, bit for bit.
            let spec = cold
                .scan(TABLE)
                .group_by(["ExpKey"])
                .agg([Agg::mean("ResponseTimeNs").named("mean_ns")])
                .to_spec()
                .map_err(|e| format!("to_spec: {e}"))?;
            let mut standing = StandingQuery::new(spec).with_partition_column("RunKey");
            let (fed, standing_ingest_s) = tr.time("query.standing_ingest", "query", || {
                packages.iter().try_for_each(|(experiment, db)| {
                    standing.ingest_package(experiment, db).map(drop)
                })
            });
            fed.map_err(|e| format!("standing ingest: {e}"))?;
            let (frame, standing_frame_s) =
                tr.time("query.standing_frame", "query", || standing.frame());
            let frame = frame.map_err(|e| format!("standing frame: {e}"))?;
            rep.attempt(
                (frame.digest() != hot_answers[0].2)
                    .then(|| "the standing query's frame differs from the cold scan's".to_string()),
            );
            rep.set("query.standing_ingest_ms", standing_ingest_s * 1e3);
            rep.set("query.standing_frame_ms", standing_frame_s * 1e3);
        }
        drop(cold);
        remove(&dir);
        Ok(rep)
    }

    fn summarize(
        &self,
        pools: &BTreeMap<&'static str, Vec<f64>>,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let empty = Vec::new();
        let pool = |name: &str| pools.get(name).unwrap_or(&empty);
        out.insert("query.hot_p50_ms", median(pool("hot")));
        out.insert("query.hot_p95_ms", quantile(pool("hot"), 0.95));
        out.insert("query.spill_p50_ms", median(pool("spill")));
        out.insert("query.spill_p95_ms", quantile(pool("spill"), 0.95));
        for name in KIND_METRICS.into_iter().flatten() {
            out.insert(name, median(pool(name)));
        }
    }
}

/// Per query kind `[resident, spilled]`: the per-layer metric (a median)
/// and, under the same name, the pool its samples are kept in.
const KIND_METRICS: [[&str; 2]; 4] = [
    ["query.group_mean_hot_ms", "query.group_mean_spill_ms"],
    ["query.pruned_count_hot_ms", "query.pruned_count_spill_ms"],
    ["query.filter_group_hot_ms", "query.filter_group_spill_ms"],
    ["query.projection_hot_ms", "query.projection_spill_ms"],
];
