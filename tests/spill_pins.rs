//! Literal pins of a 10M-fact warehouse cell grown on disk through
//! [`SpillBuilder`] (no more than one run's package is ever materialised
//! in memory) and scanned under a 64 MiB resident budget — far below the
//! ~500 MB decoded cell, so every full scan cycles partitions through
//! the cache and eviction runs on the hot path.
//!
//! Pinned: the cell's shape, the group-mean answer at one and four
//! workers, the pruned filtered count, and a resident set bounded by the
//! budget plus one partition. Wall times of the same scans are measured
//! by the `benchmark/` crate (`query.spill_*`), not here.
//!
//! The cell takes seconds to grow in release and minutes in debug, so
//! the test is ignored by default:
//! `cargo test --release -p excovery --test spill_pins -- --include-ignored`.

use excovery::query::{col, lit, Agg, Dataset, SpillBuilder, Value};
use excovery::store::{Column, ColumnType, Database, SqlValue};

const EXPERIMENTS: usize = 5;
const RUNS_PER_EXP: usize = 40;
const FACTS_PER_RUN: usize = 50_000;
/// Response times repeat in bursts of this length (quantised sampling),
/// which the slab writer picks up as run-length encoding.
const BURST: usize = 16;
/// The resident-memory budget the pins were recorded under.
const BUDGET_BYTES: u64 = 64 * 1024 * 1024;

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

/// Group mean of `ResponseTimeNs` by `ExpKey`: the number of groups,
/// FNV-1a over the (key, mean-seconds bits) pairs in key order, and the
/// frame's digest.
fn group_mean(ds: &Dataset, workers: usize) -> (usize, u64, u64) {
    let frame = ds
        .scan("FactDiscovery")
        .group_by(["ExpKey"])
        .agg([Agg::mean("ResponseTimeNs").named("mean_ns")])
        .workers(workers)
        .collect()
        .unwrap();
    let mut h: u64 = 0xcbf29ce484222325;
    for row in &frame.rows {
        let (Value::I64(key), Value::F64(mean_ns)) = (&row[0], &row[1]) else {
            panic!("unexpected group row {row:?}");
        };
        let mean_s = mean_ns / 1e9;
        for byte in key
            .to_le_bytes()
            .into_iter()
            .chain(mean_s.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    (frame.rows.len(), h, frame.digest())
}

/// `count(*)` over the facts, optionally only those with
/// `SearchStart < cutoff`; returns the count and the frame's digest.
fn count(ds: &Dataset, cutoff: Option<i64>) -> (usize, u64) {
    let mut scan = ds.scan("FactDiscovery");
    if let Some(cutoff) = cutoff {
        scan = scan.filter(col("SearchStart").lt(lit(cutoff)));
    }
    let frame = scan.agg([Agg::count()]).collect().unwrap();
    assert_eq!(frame.rows.len(), 1, "one group");
    let Value::I64(n) = frame.rows[0][0] else {
        panic!("count is not an integer: {:?}", frame.rows[0][0]);
    };
    (n as usize, frame.digest())
}

#[test]
#[ignore = "10M facts: CI runs it in release"]
fn spilled_10m_fact_cell() {
    let dir = std::env::temp_dir().join(format!("spill-pins-{}", std::process::id()));
    let ds = spill_warehouse(&dir, BUDGET_BYTES);
    assert_eq!(ds.partition_count(), 200);
    assert_eq!(count(&ds, None).0, 10_000_000);

    // Worker count cannot change the answer, spill or not.
    let serial = group_mean(&ds, 1);
    let parallel = group_mean(&ds, 4);
    assert_eq!(
        serial.2, parallel.2,
        "workers=1 and workers=4 frames diverged over the spilled cell"
    );
    for (groups, mean_digest, _) in [serial, parallel] {
        assert_eq!(groups, 5);
        assert_eq!(mean_digest, 2407856512646416413);
    }

    // The SearchStart cutoff selects exactly the first experiment's runs,
    // and min/max footer pruning must not change that.
    let cutoff = (RUNS_PER_EXP as i64) * 30_000_000_000;
    let (pruned, pruned_digest) = count(&ds, Some(cutoff));
    assert_eq!(pruned, 2_000_000);
    assert_eq!(pruned, RUNS_PER_EXP * FACTS_PER_RUN);
    assert_eq!(pruned_digest, 17757835611586873754);

    // After all of the above, the resident set is still bounded by the
    // budget plus at most one in-flight partition.
    let store = ds.spill_store().expect("warehouse is spilled");
    let largest = store.footers().map(|f| f.decoded_bytes).max().unwrap_or(0);
    let resident = store.resident_bytes();
    assert!(
        resident <= BUDGET_BYTES + largest,
        "resident {resident} exceeds budget {BUDGET_BYTES} + largest partition {largest}"
    );
    drop(ds);
    std::fs::remove_dir_all(&dir).ok();
}
