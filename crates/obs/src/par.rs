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
//! When recording is on, the fan-out publishes `campaign_workers`,
//! `campaign_jobs_completed_total` and `campaign_job_duration_ns`.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker count.
pub const WORKERS_ENV: &str = "EXCOVERY_WORKERS";

/// Parses an [`WORKERS_ENV`]-style worker count. An empty (or
/// whitespace-only) value means auto (`0`); anything else must be a
/// non-negative decimal integer, where `0` keeps its meaning of
/// "auto-size to available parallelism".
pub fn parse_workers(value: &str) -> Result<usize, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(0);
    }
    trimmed.parse::<usize>().map_err(|_| {
        format!(
            "invalid worker count {value:?}: expected a non-negative integer \
             (0 or unset auto-sizes to available parallelism)"
        )
    })
}

/// Reads the worker count from [`WORKERS_ENV`]. Unset means auto (`0`);
/// an unparsable value aborts loudly instead of silently falling back to
/// auto — a typo in a campaign script must not quietly change the
/// execution shape of a measurement campaign.
pub fn workers_from_env() -> usize {
    match std::env::var(WORKERS_ENV) {
        Err(_) => 0,
        Ok(v) => parse_workers(&v).unwrap_or_else(|e| panic!("{WORKERS_ENV}: {e}")),
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
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .min(count.max(1));
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
    fn parse_workers_accepts_counts_and_auto() {
        assert_eq!(parse_workers(""), Ok(0));
        assert_eq!(parse_workers("  "), Ok(0));
        assert_eq!(parse_workers("0"), Ok(0));
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 16 "), Ok(16));
    }

    #[test]
    fn parse_workers_rejects_garbage_loudly() {
        for bad in ["auto", "-1", "3.5", "4x", "0x10"] {
            let err = parse_workers(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("non-negative integer"), "{err}");
        }
    }
}
