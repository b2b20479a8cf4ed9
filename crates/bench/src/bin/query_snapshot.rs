//! Bench smoke runner for the columnar query layer: grows a 10M-fact
//! synthetic warehouse cell **on disk** through [`SpillBuilder`] (no
//! more than one run's package is ever materialised in memory), times
//! the spilled group-mean scan against the legacy row engine, and
//! writes `BENCH_query.json`.
//!
//! Same contract as `bench_snapshot`: wall times come from plain
//! `Instant` medians and vary by machine; the *deterministic* fields
//! (`rows`, `groups`, `digest`, `fact_rows`, `partitions`) are expected
//! to be byte-stable across environments and are diffed against the
//! committed snapshot in CI. Four invariants are asserted outright, so
//! a regression fails the binary itself:
//!
//! 1. the columnar per-experiment mean is bit-identical to the legacy
//!    row-engine slice (checked on the 1M-fact calibration cell),
//! 2. `workers = 1` and `workers = 4` produce digest-equal frames over
//!    the spilled 10M-fact cell,
//! 3. the resident set stays bounded by the memory budget plus one
//!    partition, however many scans run,
//! 4. the 10M-fact group-mean scan is at least 10× faster than the row
//!    engine (measured at 1M facts and scaled linearly — both engines
//!    are O(rows) on this query, so the scaling favours the baseline:
//!    the row engine's pointer-chasing only gets worse with size).
//!
//! The memory budget honours `EXCOVERY_QUERY_MEM` (bytes) and defaults
//! to 64 MiB — far below the ~500 MB decoded warehouse, so every full
//! scan cycles partitions through the cache and eviction is exercised
//! on the hot path, not just in unit tests.
//!
//! Usage: `query_snapshot [output-path]` (default `BENCH_query.json`).

use excovery_query::{col, lit, Agg, Dataset, SpillBuilder, Value, MEMORY_BUDGET_ENV};
use excovery_store::{Aggregate, Column, ColumnType, Database, Predicate, SqlValue};
use std::collections::BTreeMap;
use std::time::Instant;

const EXPERIMENTS: usize = 5;
const RUNS_PER_EXP: usize = 40;
const FACTS_PER_RUN: usize = 50_000;
const FACT_ROWS: usize = EXPERIMENTS * RUNS_PER_EXP * FACTS_PER_RUN; // 10M
/// Calibration cell for the row-engine baseline: 4 runs per experiment.
const CALIB_RUNS_PER_EXP: usize = 4;
const CALIB_ROWS: usize = EXPERIMENTS * CALIB_RUNS_PER_EXP * FACTS_PER_RUN; // 1M
/// Response times repeat in bursts of this length (quantised sampling),
/// which the slab writer picks up as run-length encoding.
const BURST: usize = 16;

/// Splitmix-style generator: deterministic and platform-independent, so
/// the synthetic warehouse (and every digest over it) is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
        z ^ (z >> 33)
    }
}

fn fact_schema() -> Vec<Column> {
    use ColumnType::*;
    vec![
        Column::new("ExpKey", Integer),
        Column::new("RunKey", Integer),
        Column::new("SuNodeKey", Integer),
        Column::new("Service", Text),
        Column::new("SearchStart", Integer),
        Column::new("ResponseTimeNs", Integer),
    ]
}

/// One run's fact package, seeded only by `(exp, run_key)` so any chunk
/// can be regenerated independently and in any order.
fn run_package(exp: i64, run_key: i64) -> Database {
    let mut db = Database::new();
    db.create_table("FactDiscovery", fact_schema()).unwrap();
    let mut rng = Lcg(0x5eed_2026 ^ (run_key as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let start = (run_key as u64) * 30_000_000_000;
    let mut t_r = 0u64;
    for f in 0..FACTS_PER_RUN as i64 {
        // Response times 1 ms .. ~2 s with an experiment-dependent
        // offset so per-experiment means differ; quantised in bursts.
        if (f as usize).is_multiple_of(BURST) {
            t_r = 1_000_000 + (rng.next() % 2_000_000_000) / (exp as u64 + 1);
        }
        db.insert(
            "FactDiscovery",
            vec![
                SqlValue::Int(exp),
                SqlValue::Int(run_key),
                SqlValue::Int(f % 4),
                SqlValue::Text(format!("sm{}", f % 4)),
                SqlValue::Int(start as i64),
                SqlValue::Int(t_r as i64),
            ],
        )
        .unwrap();
    }
    db
}

/// The 1M-fact calibration cell as one in-memory database (run keys
/// are the *first* `CALIB_RUNS_PER_EXP` of each experiment).
fn calibration_warehouse() -> Database {
    let mut db = Database::new();
    db.create_table("FactDiscovery", fact_schema()).unwrap();
    for exp in 0..EXPERIMENTS as i64 {
        for run in 0..CALIB_RUNS_PER_EXP as i64 {
            let chunk = run_package(exp, exp * RUNS_PER_EXP as i64 + run);
            for row in chunk.table("FactDiscovery").unwrap().rows() {
                db.insert("FactDiscovery", row.clone()).unwrap();
            }
        }
    }
    db
}

/// Streams all 200 run packages through [`SpillBuilder`]: the 10M-fact
/// cell lands on disk one run at a time, never resident as a whole.
fn spill_warehouse(dir: &std::path::Path, budget: u64) -> Dataset {
    let mut b = SpillBuilder::create(dir).unwrap().partition_by("RunKey");
    for exp in 0..EXPERIMENTS as i64 {
        for run in 0..RUNS_PER_EXP as i64 {
            let chunk = run_package(exp, exp * RUNS_PER_EXP as i64 + run);
            b.add_package(&format!("exp{exp}"), &chunk).unwrap();
        }
    }
    b.finish(Some(budget))
}

/// The pre-redesign slice: the row engine answers the per-experiment mean
/// with one `distinct` pass plus one predicate scan per experiment.
fn row_engine_mean(wh: &Database) -> BTreeMap<i64, f64> {
    let facts = wh.table("FactDiscovery").unwrap();
    let mut out = BTreeMap::new();
    for exp in facts.distinct("ExpKey", &Predicate::True).unwrap() {
        let Some(key) = exp.as_int() else { continue };
        if let Some(mean) = facts
            .aggregate(
                "ResponseTimeNs",
                &Predicate::Eq("ExpKey".into(), exp.clone()),
                Aggregate::Avg,
            )
            .unwrap()
        {
            out.insert(key, mean / 1e9);
        }
    }
    out
}

fn columnar_mean(ds: &Dataset, workers: usize) -> (BTreeMap<i64, f64>, u64) {
    let frame = ds
        .scan("FactDiscovery")
        .group_by(["ExpKey"])
        .agg([Agg::mean("ResponseTimeNs").named("mean_ns")])
        .workers(workers)
        .collect()
        .unwrap();
    let digest = frame.digest();
    let mut out = BTreeMap::new();
    for row in &frame.rows {
        if let (Value::I64(key), Value::F64(mean_ns)) = (&row[0], &row[1]) {
            out.insert(*key, mean_ns / 1e9);
        }
    }
    (out, digest)
}

/// FNV-1a over the (key, mean-bits) pairs: one digest format shared by the
/// row-engine and columnar paths, so bit-identity shows up as equal
/// `digest` fields in the snapshot.
fn mean_digest(means: &BTreeMap<i64, f64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (k, v) in means {
        for byte in k.to_le_bytes().into_iter().chain(v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

struct Sample {
    name: &'static str,
    ns_per_iter: u128,
    rows: usize,
    groups: usize,
    digest: u64,
}

fn measure(name: &'static str, iters: u32, mut run: impl FnMut() -> (usize, usize, u64)) -> Sample {
    let (rows, groups, digest) = run();
    let mut times: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    Sample {
        name,
        ns_per_iter: times[times.len() / 2],
        rows,
        groups,
        digest,
    }
}

fn render(
    samples: &[Sample],
    fact_rows: usize,
    partitions: usize,
    budget: u64,
    resident: u64,
    speedup: f64,
) -> String {
    // Hand-rolled JSON, like bench_snapshot: fixed identifiers and numbers
    // only, so no escaping and no serializer dependency.
    let mut out = String::from("{\n  \"suite\": \"query\",\n");
    out.push_str(&format!(
        "  \"warehouse\": {{\"experiments\": {EXPERIMENTS}, \"fact_rows\": {fact_rows}, \
         \"partitions\": {partitions}}},\n"
    ));
    out.push_str(&format!(
        "  \"memory\": {{\"budget_bytes\": {budget}, \"resident_bytes_after\": {resident}}},\n"
    ));
    out.push_str(&format!(
        "  \"speedup_columnar_vs_row_engine\": {speedup:.2},\n  \"benches\": [\n"
    ));
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"rows\": {}, \
             \"groups\": {}, \"digest\": {}}}{}\n",
            s.name,
            s.ns_per_iter,
            s.rows,
            s.groups,
            s.digest,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> Result<(), String> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_query.json".into());
    let iters: u32 = std::env::var("EXCOVERY_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let budget: u64 = std::env::var(MEMORY_BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(64 * 1024 * 1024);

    // Invariant 1: columnar mean is bit-identical to the row-engine
    // slice, on the 1M-fact calibration cell both engines can hold.
    let calib = calibration_warehouse();
    let calib_ds = Dataset::builder()
        .partition_by("RunKey")
        .add_package("calib", &calib)
        .map_err(|e| e.to_string())?
        .build();
    let old = row_engine_mean(&calib);
    let (new_serial, _) = columnar_mean(&calib_ds, 1);
    assert_eq!(old.len(), new_serial.len(), "group count drifted");
    for (k, v) in &old {
        assert_eq!(
            v.to_bits(),
            new_serial[k].to_bits(),
            "experiment {k}: columnar mean is not bit-identical"
        );
    }

    // Grow the full 10M-fact cell on disk, one run package at a time.
    let spill_dir = std::env::temp_dir().join(format!("query-snap-{}", std::process::id()));
    eprintln!("growing {FACT_ROWS} facts into {}", spill_dir.display());
    let grow_t = Instant::now();
    let ds = spill_warehouse(&spill_dir, budget);
    eprintln!(
        "grew {} partitions in {:.1}s (budget {} MiB)",
        ds.partition_count(),
        grow_t.elapsed().as_secs_f64(),
        budget >> 20,
    );

    // Invariant 2: worker count cannot change the answer, spill or not.
    let (means_serial, digest_serial) = columnar_mean(&ds, 1);
    let (means_parallel, digest_parallel) = columnar_mean(&ds, 4);
    assert_eq!(
        digest_serial, digest_parallel,
        "workers=1 and workers=4 frames diverged over the spilled cell"
    );
    assert_eq!(mean_digest(&means_serial), mean_digest(&means_parallel));

    // Pruning sanity: the SearchStart cutoff selects exactly the first
    // experiment's runs, and min/max footer pruning must not change it.
    let cutoff = (RUNS_PER_EXP as i64) * 30_000_000_000;
    let filtered_count = || {
        let frame = ds
            .scan("FactDiscovery")
            .filter(col("SearchStart").lt(lit(cutoff)))
            .agg([Agg::count()])
            .collect()
            .unwrap();
        let Value::I64(n) = frame.rows[0][0] else {
            unreachable!()
        };
        (n as usize, frame.digest())
    };
    assert_eq!(
        filtered_count().0,
        RUNS_PER_EXP * FACTS_PER_RUN,
        "pruned filtered count is wrong"
    );

    let samples = [
        measure("row_engine_group_mean_1m", iters, || {
            let m = row_engine_mean(&calib);
            (CALIB_ROWS, m.len(), mean_digest(&m))
        }),
        measure("columnar_spilled_group_mean_10m_serial", iters, || {
            let (m, _) = columnar_mean(&ds, 1);
            (FACT_ROWS, m.len(), mean_digest(&m))
        }),
        measure("columnar_spilled_group_mean_10m_workers4", iters, || {
            let (m, _) = columnar_mean(&ds, 4);
            (FACT_ROWS, m.len(), mean_digest(&m))
        }),
        measure("columnar_filtered_count_pruned", iters, || {
            let (n, d) = filtered_count();
            (n, 1, d)
        }),
    ];

    // Invariant 3: after all of the above, the resident set is still
    // bounded by the budget plus at most one in-flight partition.
    let store = ds.spill_store().expect("warehouse is spilled");
    let largest = store.footers().map(|f| f.decoded_bytes).max().unwrap_or(0);
    let resident = store.resident_bytes();
    assert!(
        resident <= budget + largest,
        "resident {resident} exceeds budget {budget} + largest partition {largest}"
    );

    // Invariant 4: ≥10× the row engine at 10M facts. The baseline is
    // measured at 1M and scaled linearly (it is a flat O(rows) scan;
    // its per-row cost only grows with the working set).
    let row_10m_ns = samples[0].ns_per_iter * (FACT_ROWS / CALIB_ROWS) as u128;
    let speedup = row_10m_ns as f64 / samples[2].ns_per_iter as f64;
    assert!(
        speedup >= 10.0,
        "spilled columnar scan is only {speedup:.2}x the row engine (need >= 10x)"
    );

    let json = render(
        &samples,
        FACT_ROWS,
        ds.partition_count(),
        budget,
        resident,
        speedup,
    );
    print!("{json}");
    std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;
    std::fs::remove_dir_all(&spill_dir).ok();
    eprintln!("wrote {path}");
    Ok(())
}
