//! Exact cost pins: the heap allocations and the bytes they request for
//! one `ExperiMaster::execute` of each golden preset at seed 1, and for
//! the query layer's two halves over a small fact warehouse: ingesting
//! its packages into a `Dataset`, and one group-by scan of it at one
//! worker. All are read from a counting global allocator.
//!
//! Wall-clock times only rank costs on a shared host; these counts are
//! exact, so a change that adds or removes work on the engine's path moves
//! them by a definite amount. `realloc` counts as one allocation of its
//! new size. Level 2 is written under a fixed relative root, because the
//! default root's length (temporary directory, process id) would leak
//! into the byte count. Each cost must agree over three executions, and
//! one literal serves the dev and release profiles.
//!
//! One `#[test]` only: the allocator counts every thread of the process,
//! so no other test may allocate while one is measured.

#[path = "../crates/core/tests/golden/mod.rs"]
mod golden;

use excovery_core::{EngineConfig, ExperiMaster};
use excovery_query::{Agg, Dataset, Frame};
use excovery_store::{Column, ColumnType, Database, SqlValue};
use golden::{desc, golden_table, SEEDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and the bytes they ask for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Level-2 root of every measured execution, relative to the package
/// root the test runs in.
const L2_ROOT: &str = "target/cost-pins-l2";

/// `(what, allocations, bytes)`: one execution per golden preset at seed
/// 1, then the ingest and the scan of [`fact_packages`].
const PINS: [(&str, u64, u64); 5] = [
    ("grid_default", 4603, 452_525),
    ("wired_lan", 4603, 452_477),
    ("lossy_mesh", 4553, 447_244),
    ("dataset_ingest", 853, 492_962),
    ("group_by_scan", 70, 5_599),
];

/// Allocations and bytes requested while `f` runs, and its result.
fn measure<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let cost = (
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    );
    (cost, out)
}

/// Allocations and bytes of one `execute`; `new` is not counted.
fn cost(preset: fn() -> EngineConfig) -> (u64, u64) {
    let cfg = EngineConfig {
        l2_root: Some(L2_ROOT.into()),
        ..preset()
    };
    let mut master = ExperiMaster::new(desc(SEEDS[0]), cfg).unwrap();
    measure(|| master.execute().unwrap()).0
}

/// Eight run packages (two experiments of four runs, 500 facts each) with
/// the `FactDiscovery` layout of `tests/spill_pins.rs`: response times
/// repeat in bursts of 16 and fall with the experiment index.
fn fact_packages() -> Vec<(String, Database)> {
    use ColumnType::*;
    let schema = [
        ("ExpKey", Integer),
        ("RunKey", Integer),
        ("SuNodeKey", Integer),
        ("Service", Text),
        ("SearchStart", Integer),
        ("ResponseTimeNs", Integer),
    ];
    let mut packages = Vec::new();
    for exp in 0..2i64 {
        for run_key in exp * 4..exp * 4 + 4 {
            let mut db = Database::new();
            let columns = schema.iter().map(|&(n, t)| Column::new(n, t)).collect();
            db.create_table("FactDiscovery", columns).unwrap();
            for f in 0..500i64 {
                let burst = run_key * 1000 + f / 16;
                let t_r = 1_000_000 + burst * 7_919 % 2_000_000_000 / (exp + 1);
                let row = vec![
                    SqlValue::Int(exp),
                    SqlValue::Int(run_key),
                    SqlValue::Int(f % 4),
                    SqlValue::Text(format!("sm{}", f % 4)),
                    SqlValue::Int(run_key * 30_000_000_000),
                    SqlValue::Int(t_r),
                ];
                db.insert("FactDiscovery", row).unwrap();
            }
            packages.push((format!("exp{exp}"), db));
        }
    }
    packages
}

/// The packages ingested into one dataset partitioned by run.
fn ingest(packages: &[(String, Database)]) -> Dataset {
    let mut b = Dataset::builder().partition_by("RunKey");
    for (exp, db) in packages {
        b = b.add_package(exp, db).unwrap();
    }
    b.build()
}

/// Mean response time per experiment, scanned at one worker.
fn group_mean(ds: &Dataset) -> Frame {
    ds.scan("FactDiscovery")
        .group_by(["ExpKey"])
        .agg([Agg::mean("ResponseTimeNs").named("mean_ns")])
        .workers(1)
        .collect()
        .unwrap()
}

/// `cost` over three calls, which must agree.
fn agreed(name: &str, cost: impl Fn() -> (u64, u64)) -> (u64, u64) {
    let first = cost();
    for _ in 0..2 {
        assert_eq!(cost(), first, "{name}: executions disagree");
    }
    first
}

#[test]
fn allocation_costs_are_pinned() {
    // The harness's own start-up allocations can overlap the first
    // execution; one unmeasured run lets them finish.
    cost(EngineConfig::grid_default);
    let mut got = Vec::new();
    for (name, preset, _) in golden_table() {
        let (allocations, bytes) = agreed(name, || cost(preset));
        got.push((name, allocations, bytes));
    }
    let packages = fact_packages();
    let (allocations, bytes) = agreed("dataset_ingest", || measure(|| ingest(&packages)).0);
    got.push(("dataset_ingest", allocations, bytes));
    let ds = ingest(&packages);
    assert_eq!(group_mean(&ds).rows.len(), 2, "one group per experiment");
    let (allocations, bytes) = agreed("group_by_scan", || measure(|| group_mean(&ds)).0);
    got.push(("group_by_scan", allocations, bytes));

    let drifted: Vec<String> = got
        .iter()
        .zip(PINS)
        .filter(|(got, pin)| **got != *pin)
        .map(|((name, allocations, bytes), _)| format!("(\"{name}\", {allocations}, {bytes}),"))
        .collect();
    assert!(
        drifted.is_empty(),
        "seed {}: allocation costs drifted from the pins:\n  {}",
        SEEDS[0],
        drifted.join("\n  ")
    );
}
