//! Exact cost pins: the heap allocations and the bytes they request for
//! one `ExperiMaster::execute` of each golden preset at seed 1, read from
//! a counting global allocator.
//!
//! Wall-clock times only rank costs on a shared host; these counts are
//! exact, so a change that adds or removes work on the engine's path moves
//! them by a definite amount. `realloc` counts as one allocation of its
//! new size. Level 2 is written under a fixed relative root, because the
//! default root's length (temporary directory, process id) would leak
//! into the byte count.
//!
//! One `#[test]` only: the allocator counts every thread of the process,
//! so no other test may allocate while one is measured.

#[path = "../crates/core/tests/golden/mod.rs"]
mod golden;

use excovery_core::{EngineConfig, ExperiMaster};
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

/// `(preset, allocations, bytes)` per execution at seed 1.
const PINS: [(&str, u64, u64); 3] = [
    ("grid_default", 4603, 452_525),
    ("wired_lan", 4603, 452_477),
    ("lossy_mesh", 4553, 447_244),
];

/// Allocations and bytes of one `execute`; `new` is not counted.
fn cost(preset: fn() -> EngineConfig) -> (u64, u64) {
    let cfg = EngineConfig {
        l2_root: Some(L2_ROOT.into()),
        ..preset()
    };
    let mut master = ExperiMaster::new(desc(SEEDS[0]), cfg).unwrap();
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let outcome = master.execute().unwrap();
    let cost = (
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    );
    drop(outcome);
    cost
}

#[test]
fn allocations_per_execute_are_pinned() {
    // The harness's own start-up allocations can overlap the first
    // execution; one unmeasured run lets them finish.
    cost(EngineConfig::grid_default);
    let mut got = Vec::new();
    for (name, preset, _) in golden_table() {
        let first = cost(preset);
        for _ in 0..2 {
            assert_eq!(cost(preset), first, "{name}: executions disagree");
        }
        got.push((name, first.0, first.1));
    }
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
