//! Deterministic fan-out of independent jobs over scoped threads.
//!
//! ExCovery campaigns repeat an experiment many times with per-run seeds
//! (§IV-C1); MACI-style frameworks scale the same way — by fanning
//! *independent* jobs out to workers. [`run_indexed`] is the one primitive
//! for that in the workspace: the case-study campaigns of `excovery paper`,
//! the query layer's partition scans and the server's scheduler slices all
//! go through it. Scoped worker threads claim job indices from an atomic
//! counter and park each result in its job's slot, so results come back
//! **in index order** no matter how many workers run or how execution
//! interleaves; a caller whose jobs are pure functions of their index gets
//! byte-identical output at every worker count.
//!
//! The worker count is always an argument — `excovery paper --workers`,
//! `excovery serve --workers`, `Scan::workers` — never read from the
//! environment, so a run's shape follows from its command alone.
//!
//! When recording is on, the fan-out publishes `campaign_workers`,
//! `campaign_jobs_completed_total` and `campaign_job_duration_ns`.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count `workers` stands for: itself, or the available
/// parallelism when it is `0` ("auto"). Every worker-pool width in the
/// workspace — campaign fan-out, partition scans, the server's
/// scheduler — goes through this one rule.
pub fn resolve_workers(workers: usize) -> usize {
    if workers != 0 {
        workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Runs `count` independent jobs across at most `workers` scoped threads
/// (`0` = available parallelism), returning `f(0), f(1), …` **in index
/// order** regardless of scheduling.
pub fn run_indexed<T, F>(workers: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(workers).min(count.max(1));
    if crate::enabled() {
        crate::global()
            .gauge("campaign_workers", &[])
            .set(workers as i64);
    }
    let f = &f;
    let job = move |idx: usize| {
        // Wall-clock job timing: the fan-out runs on real threads, so the
        // caller-supplied-clock rule of the simulator does not apply here.
        // Gated so the disabled path stays a plain call.
        let started = crate::enabled().then(std::time::Instant::now);
        let out = f(idx);
        if let Some(t0) = started {
            let reg = crate::global();
            reg.counter("campaign_jobs_completed_total", &[]).inc();
            reg.histogram("campaign_job_duration_ns", &[])
                .observe(t0.elapsed().as_nanos() as u64);
        }
        out
    };
    if workers <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    // One slot per job: workers claim indices from the shared counter and
    // park results in their own slot, so merge order is fixed by
    // construction regardless of scheduling.
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let out = job(idx);
                *slots[idx].lock() = Some(out);
            });
        }
    });
    slots
        .iter()
        .map(|slot| slot.lock().take().expect("job result missing"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose result depends only on its index, with enough work
    /// that threads interleave.
    fn mix(idx: usize) -> u64 {
        (0..10_000u64).fold(idx as u64, |acc, i| {
            (acc ^ i).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_indexed(1, 9, mix);
        assert_eq!(serial, (0..9).map(mix).collect::<Vec<_>>());
        for workers in [0, 3, 8] {
            assert_eq!(run_indexed(workers, 9, mix), serial, "{workers} workers");
        }
    }

    #[test]
    fn results_come_back_in_index_order() {
        assert_eq!(run_indexed(8, 32, |i| i), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn an_empty_fan_out_is_empty() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn zero_workers_resolves_to_the_available_parallelism() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }
}
