//! What an execution returns: [`RunOutcome`] per run, [`ExperimentOutcome`]
//! for the experiment, and the digest the golden tables pin.

use excovery_netsim::SimDuration;
use excovery_store::Database;
use std::path::PathBuf;

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Run id from the plan.
    pub run_id: u64,
    /// Replicate index within the treatment.
    pub replicate: u64,
    /// Treatment key (`factor=level|...`).
    pub treatment_key: String,
    /// True if every process completed; false on failure or timeout.
    pub completed: bool,
    /// Failure messages of processes that did not complete.
    pub failures: Vec<String>,
    /// Events recorded in this run.
    pub events: usize,
    /// Packet captures recorded in this run.
    pub packets: usize,
    /// Simulated duration of the run.
    pub duration: SimDuration,
}

/// Result of a whole experiment.
pub struct ExperimentOutcome {
    /// The level-3 database (Table I schema) with all conditioned data.
    pub database: Database,
    /// Per-run outcomes in execution order. On a resumed execution this
    /// includes the outcomes of runs completed by earlier incarnations,
    /// restored from the level-2 journal — so the vector (and hence
    /// [`Self::digest`]) is identical to an uninterrupted execution.
    pub runs: Vec<RunOutcome>,
    /// How many leading entries of [`Self::runs`] were restored from the
    /// journal rather than executed by this incarnation. Provenance
    /// metadata like [`Self::control_retries`]: excluded from
    /// [`Self::digest`].
    pub restored_runs: u64,
    /// Level-2 root `execute` used (removed unless `keep_l2`); empty from
    /// [`crate::Session::finish`], whose caller opened the store.
    pub l2_root: PathBuf,
    /// Control-channel retries the master performed. Chaos leaves its
    /// trace here — and **only** here: the experiment data must not
    /// depend on it (see [`Self::digest`]).
    pub control_retries: u64,
}

impl ExperimentOutcome {
    /// Order-sensitive digest of everything the experiment *recorded*: all
    /// level-3 tables (events, packets, run infos, logs, measurements, the
    /// description) plus the per-run outcome summary.
    ///
    /// Two executions with equal digests produced byte-identical
    /// measurement data in identical order. The chaos-equivalence contract
    /// is exactly this: for every eventually-clearing fault schedule, the
    /// digest equals the fault-free execution's. Control-plane noise
    /// ([`Self::control_retries`], the level-2 root) is deliberately
    /// excluded.
    pub fn digest(&self) -> u64 {
        // FNV-1a, 64-bit: stable across platforms, no dependencies.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        self.database.feed_cells(&mut eat);
        for run in &self.runs {
            eat(b"run:");
            eat(&run.run_id.to_le_bytes());
            eat(&run.replicate.to_le_bytes());
            eat(run.treatment_key.as_bytes());
            eat(&[u8::from(run.completed)]);
            for failure in &run.failures {
                eat(failure.as_bytes());
            }
            eat(&(run.events as u64).to_le_bytes());
            eat(&(run.packets as u64).to_le_bytes());
            eat(&run.duration.as_nanos().to_le_bytes());
        }
        hash
    }
}
