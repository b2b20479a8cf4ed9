//! Deterministic parallel execution of independent replications.
//!
//! ExCovery campaigns repeat an experiment many times with per-run seeds
//! (§IV-C1); MACI-style frameworks scale the same way — by fanning
//! *independent* runs out to workers. Replications never share state: each
//! gets its own seed derived from the campaign master seed and its
//! replication index, so the set of results is a pure function of
//! `(master_seed, replications)`. A single run can additionally parallelize
//! *internally* across spatial shards (`crate::shard`, `EXCOVERY_SHARDS`);
//! both axes are deterministic, and auto-sized worker pools divide the
//! machine's cores by the shard count so the two compose under one thread
//! budget.
//!
//! [`run_replications`] exploits that: scoped worker threads claim
//! replication indices from an atomic counter, execute them, and store each
//! result in its replication's slot. Results are returned **in replication
//! order**, so the output is byte-identical to [`run_replications_serial`]
//! no matter how many workers run or how execution interleaves — verified
//! by the serial-vs-parallel determinism test.

use crate::rng::derive_seed_indexed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Label mixed into per-replication seed derivation.
const REP_SEED_LABEL: &str = "campaign_rep";

/// Environment variable overriding the campaign worker count.
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

/// Environment variable selecting the per-run spatial shard count
/// (`crate::shard`). `0`/unset means 1 (serial); results are bit-exact for
/// every value, so this only trades threads for wall-clock.
pub const SHARDS_ENV: &str = "EXCOVERY_SHARDS";

/// Parses an [`SHARDS_ENV`]-style shard count. Empty/whitespace means
/// serial (`1`); `0` also means serial; anything else must be a
/// non-negative decimal integer.
pub fn parse_shards(value: &str) -> Result<usize, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(1);
    }
    trimmed.parse::<usize>().map(|n| n.max(1)).map_err(|_| {
        format!(
            "invalid shard count {value:?}: expected a non-negative integer \
                 (0 or unset runs serially with one shard)"
        )
    })
}

/// Reads the shard count from [`SHARDS_ENV`]. Unset means serial (`1`); an
/// unparsable value aborts loudly, mirroring [`workers_from_env`] — shard
/// count never changes results, but a typo must not silently change the
/// execution shape of a campaign either.
pub fn shards_from_env() -> usize {
    match std::env::var(SHARDS_ENV) {
        Err(_) => 1,
        Ok(v) => parse_shards(&v).unwrap_or_else(|e| panic!("{SHARDS_ENV}: {e}")),
    }
}

/// How a replication campaign is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; replication `i` receives
    /// `derive_seed_indexed(master_seed, "campaign_rep", i)`.
    pub master_seed: u64,
    /// Number of independent replications.
    pub replications: u64,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
}

impl CampaignConfig {
    /// Starts a builder: one replication from master seed `0`, auto-sized
    /// worker pool. The same `builder()` idiom as `EngineConfig` and
    /// `ReportOptions`.
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            cfg: Self {
                master_seed: 0,
                replications: 1,
                workers: 0,
            },
        }
    }

    /// Overrides the worker count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The seed replication `rep` runs with.
    pub fn rep_seed(&self, rep: u64) -> u64 {
        derive_seed_indexed(self.master_seed, REP_SEED_LABEL, rep)
    }

    fn effective_workers(&self) -> usize {
        let auto = || {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            // Compose with per-run sharding under one thread budget: with
            // EXCOVERY_SHARDS=s each replication itself fans out to s shard
            // threads during windows, so auto-sized campaigns claim
            // cores/s replication slots instead of oversubscribing s-fold.
            // Explicit worker counts are honored verbatim.
            (cores / shards_from_env().max(1)).max(1)
        };
        let w = if self.workers == 0 {
            auto()
        } else {
            self.workers
        };
        w.max(1).min(self.replications.max(1) as usize)
    }
}

/// Builder for [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Sets the campaign master seed.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.cfg.master_seed = seed;
        self
    }

    /// Sets the number of independent replications.
    pub fn replications(mut self, n: u64) -> Self {
        self.cfg.replications = n;
        self
    }

    /// Sets the worker count (`0` = available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CampaignConfig {
        self.cfg
    }
}

/// Runs all replications on the calling thread, in replication order.
///
/// `run` receives `(replication_index, derived_seed)`.
pub fn run_replications_serial<T>(cfg: &CampaignConfig, run: impl Fn(u64, u64) -> T) -> Vec<T> {
    (0..cfg.replications)
        .map(|rep| run(rep, cfg.rep_seed(rep)))
        .collect()
}

/// Runs all replications across scoped worker threads, returning results
/// in replication order — byte-identical to
/// [`run_replications_serial`] with the same configuration.
///
/// `run` receives `(replication_index, derived_seed)` and must derive all
/// randomness from the seed (every simulator construction does).
pub fn run_replications<T, F>(cfg: &CampaignConfig, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
{
    run_indexed(cfg.effective_workers(), cfg.replications as usize, |rep| {
        run(rep as u64, cfg.rep_seed(rep as u64))
    })
}

/// Runs `count` independent jobs across at most `workers` scoped threads
/// (`0` = available parallelism), returning `f(0), f(1), …` **in index
/// order** regardless of scheduling. The deterministic-fan-out primitive
/// under both [`run_replications`] and the bench harness's experiment
/// campaigns.
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
    if excovery_obs::enabled() {
        excovery_obs::global()
            .gauge("campaign_workers", &[])
            .set(workers as i64);
    }
    let f = &f;
    let job = move |idx: usize| {
        // Wall-clock job timing: campaign fan-out runs on real threads,
        // so the caller-supplied-clock rule of the simulator does not
        // apply here. Gated so the disabled path stays a plain call.
        let started = excovery_obs::enabled().then(std::time::Instant::now);
        let out = f(idx);
        if let Some(t0) = started {
            let reg = excovery_obs::global();
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
                *slots[idx].lock().expect("campaign slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("campaign slot poisoned")
                .expect("job result missing")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Destination, Payload};
    use crate::sim::{NodeId, Simulator, SimulatorConfig};
    use crate::topology::Topology;

    fn one_rep(seed: u64) -> (u64, u64, u64) {
        let mut sim = Simulator::new(Topology::chain(4), SimulatorConfig::perfect_clocks(seed));
        for _ in 0..20 {
            sim.send_from(
                NodeId(0),
                7,
                Destination::Unicast(NodeId(3)),
                Payload::from("ping"),
            );
        }
        sim.run_until_idle(10_000);
        let s = sim.stats();
        (s.sent, s.delivered, s.dropped_loss)
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let cfg = CampaignConfig::builder()
            .master_seed(42)
            .replications(12)
            .workers(4)
            .build();
        let serial = run_replications_serial(&cfg, |_, seed| one_rep(seed));
        let parallel = run_replications(&cfg, |_, seed| one_rep(seed));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let base = CampaignConfig::builder()
            .master_seed(7)
            .replications(9)
            .build();
        let r1 = run_replications(&base.with_workers(1), |_, s| one_rep(s));
        let r3 = run_replications(&base.with_workers(3), |_, s| one_rep(s));
        let r8 = run_replications(&base.with_workers(8), |_, s| one_rep(s));
        assert_eq!(r1, r3);
        assert_eq!(r1, r8);
    }

    #[test]
    fn rep_seeds_are_distinct_and_stable() {
        let cfg = CampaignConfig::builder()
            .master_seed(1)
            .replications(100)
            .build();
        let seeds: Vec<u64> = (0..100).map(|r| cfg.rep_seed(r)).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(seeds, (0..100).map(|r| cfg.rep_seed(r)).collect::<Vec<_>>());
    }

    #[test]
    fn results_come_back_in_replication_order() {
        let cfg = CampaignConfig::builder()
            .master_seed(3)
            .replications(32)
            .workers(8)
            .build();
        let reps = run_replications(&cfg, |rep, _| rep);
        assert_eq!(reps, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_campaign_is_empty() {
        let cfg = CampaignConfig::builder()
            .master_seed(0)
            .replications(0)
            .build();
        let out: Vec<u64> = run_replications(&cfg, |rep, _| rep);
        assert!(out.is_empty());
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

    #[test]
    fn parse_shards_accepts_counts_and_serial_default() {
        assert_eq!(parse_shards(""), Ok(1));
        assert_eq!(parse_shards("  "), Ok(1));
        assert_eq!(parse_shards("0"), Ok(1));
        assert_eq!(parse_shards("1"), Ok(1));
        assert_eq!(parse_shards(" 8 "), Ok(8));
    }

    #[test]
    fn parse_shards_rejects_garbage_loudly() {
        for bad in ["auto", "-2", "1.5", "2x"] {
            let err = parse_shards(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("non-negative integer"), "{err}");
        }
    }
}
