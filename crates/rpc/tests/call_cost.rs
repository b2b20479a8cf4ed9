//! The cost of one keyed call of a no-op method over a reactor memory
//! link, building its `NodeCall` included: the heap allocations it makes,
//! read from a counting global allocator.
//!
//! A memory link hands the registry the method, the key and the borrowed
//! parameters, and a delivered response is not copied into the
//! idempotency cache, so the call allocates only the outcome vector
//! `Reactor::dispatch` returns. The pin is exact, so any allocation added
//! to the call path fails it; the bound a call must stay under is
//! `MAX_ALLOCATIONS`.
//!
//! One `#[test]` only: the allocator counts every thread of the process,
//! so no other test may allocate while one is measured.

use excovery_obs::sync::Mutex;
use excovery_rpc::{
    IdemKey, NodeCall, Reactor, ReactorEndpoint, RetryPolicy, ServerRegistry, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations of one keyed no-op call, pinned.
const ALLOCATIONS_PER_CALL: u64 = 1;

/// What one such call may cost at most.
const MAX_ALLOCATIONS: u64 = 5;

/// Allocations made while `f` runs, and its result.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_keyed_memory_call_allocates_only_its_outcome() {
    let mut registry = ServerRegistry::new();
    registry.register("noop", |_| Ok(Value::Bool(true)));
    let mut reactor = Reactor::new();
    let link = reactor.add_node(
        ReactorEndpoint::Memory(Arc::new(Mutex::new(registry))),
        None,
    );
    let retry = RetryPolicy::default();
    let mut call = |seq| {
        let call = NodeCall {
            link,
            method: "noop",
            params: &[],
            idem_key: Some(IdemKey {
                run: 7,
                epoch: 0,
                seq,
            }),
        };
        let outcome = reactor.dispatch(&[call], &retry).pop();
        outcome.expect("one outcome per call").result
    };
    // The reactor's per-dispatch buffers grow on the first call only.
    assert_eq!(call(0).unwrap(), Value::Bool(true));

    let (one, result) = measure(|| call(1));
    assert_eq!(result.unwrap(), Value::Bool(true));
    assert!(
        one <= MAX_ALLOCATIONS,
        "one keyed memory call made {one} allocations"
    );
    assert_eq!(one, ALLOCATIONS_PER_CALL, "one keyed memory call");
    // Nothing accumulates from call to call: the registry records no
    // delivered response.
    let (hundred, results) = measure(|| (2..102).map(&mut call).all(|r| r.is_ok()));
    assert!(results);
    assert_eq!(hundred, 100 * ALLOCATIONS_PER_CALL, "a hundred keyed calls");
}
