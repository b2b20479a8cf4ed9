//! The on-disk level-4 campaign repository.
//!
//! Layout under the repository root:
//!
//! ```text
//! root/
//!   queue.json            crash-durable job journal (atomic temp+rename)
//!   endpoint              bound rpc address of the serving daemon
//!   jobs/<id>/
//!     description.xml     the submitted level-1 artifact, verbatim
//!     l2/                 the campaign's level-2 run hierarchy
//!     results.expdb       the packaged level-3 database, once complete
//! ```
//!
//! `queue.json` is the single source of truth for job metadata. It is
//! rewritten atomically (via [`excovery_store::atomic_write`]) after
//! every state transition, so a SIGKILL at any instant leaves either the
//! old or the new journal — never a torn one. What the journal does
//! *not* record — how many runs of a `Running` job actually finished —
//! is recovered on [`ServerRepo::open`] from the level-2 run journal,
//! the same journal a resuming `ExperiMaster` trusts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use excovery_desc::xmlio;
use excovery_rpc::{JobId, JobState, JobStatus, SubmitRequest};
use excovery_store::level2::Level2Store;
use excovery_store::{atomic_write, JsonValue};

use crate::ServerError;

/// `true` for states that will never be scheduled again.
pub(crate) fn is_terminal(state: JobState) -> bool {
    matches!(state, JobState::Completed | JobState::Failed)
}

/// Experiment id a single job's package is ingested under — the same id
/// `Dataset::from_database` uses, so frames computed from a standing
/// query and from a one-shot scan of the packaged database agree bit
/// for bit.
pub(crate) const DEFAULT_EXPERIMENT: &str = "default";

/// One journalled campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Monotonic server-assigned id.
    pub job_id: JobId,
    /// Submitting tenant — the fair-share unit.
    pub tenant: String,
    /// Experiment name from the description.
    pub name: String,
    /// Engine preset the campaign runs on.
    pub preset: String,
    /// Durable dedup key of the submission.
    pub submit_key: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Master incarnations spent on this job so far. Incremented and
    /// journalled **before** each slice executes, so no two masters —
    /// including one orphaned by a SIGKILL — ever share an epoch, and
    /// their idempotency keys can never collide.
    pub epochs: u64,
    /// Total runs in the campaign's treatment plan.
    pub runs_total: u64,
    /// Runs the level-2 journal confirms as sealed.
    pub runs_completed: u64,
    /// `ExperimentOutcome::digest()` once completed.
    pub digest: Option<u64>,
    /// Engine error if the job failed.
    pub error: Option<String>,
}

/// What one executed slice reports back to the journal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SliceOutcome {
    /// Completed runs after the slice (restored + executed).
    pub runs_completed: u64,
    /// Resulting state: `Running`, `Completed` or `Failed`.
    pub state: JobState,
    /// Final digest, set exactly when `state` is `Completed`.
    pub digest: Option<u64>,
    /// Engine error, set exactly when `state` is `Failed`.
    pub error: Option<String>,
}

/// The level-4 repository: journalled jobs plus their on-disk artifacts.
pub struct ServerRepo {
    root: PathBuf,
    next_job_id: JobId,
    jobs: Vec<JobRecord>,
    /// In-memory submission instants for the scheduling-latency
    /// histogram; deliberately not journalled (a restored job's latency
    /// would measure downtime, not scheduling).
    submitted_at: HashMap<JobId, Instant>,
}

impl ServerRepo {
    /// Opens (or initializes) the repository at `root`, replaying the
    /// journal. For every non-terminal job the completed-run count is
    /// recovered from its level-2 run journal, so a repository killed
    /// mid-campaign reports accurate progress immediately; a damaged
    /// journal fails the open instead of reading as "no progress".
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServerError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("jobs"))
            .map_err(|e| ServerError::Storage(format!("create {}: {e}", root.display())))?;
        let mut repo = ServerRepo {
            root,
            next_job_id: 1,
            jobs: Vec::new(),
            submitted_at: HashMap::new(),
        };
        let queue = repo.queue_path();
        if queue.exists() {
            let raw = std::fs::read_to_string(&queue)
                .map_err(|e| ServerError::Storage(format!("read queue.json: {e}")))?;
            let doc = JsonValue::parse(&raw)
                .map_err(|e| ServerError::Storage(format!("queue.json: {e}")))?;
            repo.next_job_id = doc
                .get("next_job_id")
                .and_then(JsonValue::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ServerError::Storage("queue.json: bad next_job_id".into()))?;
            for item in doc.get("jobs").and_then(JsonValue::as_array).unwrap_or(&[]) {
                let rec = record_from_json(item)
                    .ok_or_else(|| ServerError::Storage("queue.json: bad job record".into()))?;
                repo.jobs.push(rec);
            }
            for i in 0..repo.jobs.len() {
                if is_terminal(repo.jobs[i].state) {
                    continue;
                }
                let l2 = Level2Store::open(repo.l2_root(repo.jobs[i].job_id))?;
                let done = l2.journal_runs()?.len() as u64;
                repo.jobs[i].runs_completed = done;
                repo.jobs[i].state = if done > 0 {
                    JobState::Running
                } else {
                    JobState::Queued
                };
            }
            repo.save()?;
        }
        Ok(repo)
    }

    /// Path of the journal file.
    pub(crate) fn queue_path(&self) -> PathBuf {
        self.root.join("queue.json")
    }

    /// Path of the daemon's bound-address file under `root`.
    pub(crate) fn endpoint_path(root: &Path) -> PathBuf {
        root.join("endpoint")
    }

    /// Directory holding one job's artifacts.
    pub(crate) fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join("jobs").join(id.to_string())
    }

    /// The submitted level-1 description.
    pub(crate) fn description_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("description.xml")
    }

    /// The job's level-2 run hierarchy.
    pub(crate) fn l2_root(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("l2")
    }

    /// The packaged level-3 database.
    pub(crate) fn package_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("results.expdb")
    }

    /// Accepts a submission. The description must parse and the preset
    /// must be known; the journal entry and the description file are
    /// durable before this returns. A key seen before (per tenant)
    /// dedups: the original id is returned with `created = false`.
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<(JobId, bool), ServerError> {
        if let Some(existing) = self
            .jobs
            .iter()
            .find(|j| j.tenant == req.tenant && j.submit_key == req.submit_key)
        {
            return Ok((existing.job_id, false));
        }
        if !crate::PRESETS.contains(&req.preset.as_str()) {
            return Err(ServerError::UnknownPreset(req.preset.clone()));
        }
        let desc = xmlio::from_xml(&req.description_xml)
            .map_err(|e| ServerError::Description(e.to_string()))?;
        let runs_total = desc.plan().runs.len() as u64;
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        std::fs::create_dir_all(self.job_dir(job_id))
            .map_err(|e| ServerError::Storage(format!("create job dir: {e}")))?;
        atomic_write(
            &self.description_path(job_id),
            req.description_xml.as_bytes(),
        )?;
        self.jobs.push(JobRecord {
            job_id,
            tenant: req.tenant.clone(),
            name: desc.name.clone(),
            preset: req.preset.clone(),
            submit_key: req.submit_key.clone(),
            state: JobState::Queued,
            epochs: 0,
            runs_total,
            runs_completed: 0,
            digest: None,
            error: None,
        });
        self.submitted_at.insert(job_id, Instant::now());
        self.save()?;
        Ok((job_id, true))
    }

    /// All journalled jobs, in id order.
    pub(crate) fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// One job's record.
    pub fn job(&self, id: JobId) -> Result<&JobRecord, ServerError> {
        self.jobs
            .iter()
            .find(|j| j.job_id == id)
            .ok_or(ServerError::UnknownJob(id))
    }

    /// One job's wire status.
    pub(crate) fn status(&self, id: JobId) -> Result<JobStatus, ServerError> {
        Ok(record_status(self.job(id)?))
    }

    /// Every job's wire status, in id order.
    pub(crate) fn statuses(&self) -> Vec<JobStatus> {
        self.jobs.iter().map(record_status).collect()
    }

    /// Jobs that still want scheduling.
    pub(crate) fn queue_depth(&self) -> usize {
        self.jobs.iter().filter(|j| !is_terminal(j.state)).count()
    }

    /// Jobs currently mid-campaign.
    pub(crate) fn active_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .count()
    }

    /// Claims the next master epoch for a slice of `id` and journals the
    /// claim **before** returning it — the crash-safety half of the
    /// epoch contract (see [`JobRecord::epochs`]).
    pub(crate) fn begin_slice(&mut self, id: JobId) -> Result<u64, ServerError> {
        let rec = self.job_mut(id)?;
        if is_terminal(rec.state) {
            return Err(ServerError::Storage(format!(
                "job {id} is {} and cannot be scheduled",
                rec.state
            )));
        }
        let epoch = rec.epochs;
        rec.epochs += 1;
        rec.state = JobState::Running;
        self.save()?;
        Ok(epoch)
    }

    /// Takes the submission instant for the scheduling-latency metric
    /// (first slice only; journal-restored jobs have none).
    pub(crate) fn take_submit_instant(&mut self, id: JobId) -> Option<Instant> {
        self.submitted_at.remove(&id)
    }

    /// Journals the result of an executed slice.
    pub(crate) fn record_slice(
        &mut self,
        id: JobId,
        outcome: &SliceOutcome,
    ) -> Result<(), ServerError> {
        let rec = self.job_mut(id)?;
        rec.runs_completed = outcome.runs_completed;
        rec.state = outcome.state;
        rec.digest = outcome.digest;
        rec.error = outcome.error.clone();
        self.save()
    }

    fn job_mut(&mut self, id: JobId) -> Result<&mut JobRecord, ServerError> {
        self.jobs
            .iter_mut()
            .find(|j| j.job_id == id)
            .ok_or(ServerError::UnknownJob(id))
    }

    fn save(&self) -> Result<(), ServerError> {
        let doc = JsonValue::Object(vec![
            (
                "next_job_id".into(),
                JsonValue::Str(self.next_job_id.to_string()),
            ),
            (
                "jobs".into(),
                JsonValue::Array(self.jobs.iter().map(record_to_json).collect()),
            ),
        ]);
        atomic_write(&self.queue_path(), doc.to_string().as_bytes())?;
        Ok(())
    }
}

fn record_status(r: &JobRecord) -> JobStatus {
    JobStatus {
        job_id: r.job_id,
        tenant: r.tenant.clone(),
        name: r.name.clone(),
        preset: r.preset.clone(),
        state: r.state,
        runs_total: r.runs_total,
        runs_completed: r.runs_completed,
        digest: r.digest,
        error: r.error.clone(),
    }
}

// u64 fields travel as decimal strings, like the rpc codecs: the journal
// must round-trip digests above i64::MAX exactly.
fn record_to_json(r: &JobRecord) -> JsonValue {
    let mut members = vec![
        ("job_id".into(), JsonValue::Str(r.job_id.to_string())),
        ("tenant".into(), JsonValue::str(&r.tenant)),
        ("name".into(), JsonValue::str(&r.name)),
        ("preset".into(), JsonValue::str(&r.preset)),
        ("submit_key".into(), JsonValue::str(&r.submit_key)),
        ("state".into(), JsonValue::str(r.state.as_str())),
        ("epochs".into(), JsonValue::Str(r.epochs.to_string())),
        (
            "runs_total".into(),
            JsonValue::Str(r.runs_total.to_string()),
        ),
        (
            "runs_completed".into(),
            JsonValue::Str(r.runs_completed.to_string()),
        ),
    ];
    if let Some(d) = r.digest {
        members.push(("digest".into(), JsonValue::Str(d.to_string())));
    }
    if let Some(e) = &r.error {
        members.push(("error".into(), JsonValue::str(e)));
    }
    JsonValue::Object(members)
}

fn record_from_json(v: &JsonValue) -> Option<JobRecord> {
    let u64_of =
        |key: &str| -> Option<u64> { v.get(key).and_then(JsonValue::as_str)?.parse().ok() };
    let str_of = |key: &str| -> Option<String> {
        v.get(key).and_then(JsonValue::as_str).map(str::to_string)
    };
    Some(JobRecord {
        job_id: u64_of("job_id")?,
        tenant: str_of("tenant")?,
        name: str_of("name")?,
        preset: str_of("preset")?,
        submit_key: str_of("submit_key")?,
        state: JobState::parse(v.get("state")?.as_str()?)?,
        epochs: u64_of("epochs")?,
        runs_total: u64_of("runs_total")?,
        runs_completed: u64_of("runs_completed")?,
        digest: match v.get("digest") {
            None => None,
            Some(d) => Some(d.as_str()?.parse().ok()?),
        },
        error: match v.get("error") {
            None => None,
            Some(e) => Some(e.as_str()?.to_string()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_desc::ExperimentDescription;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "excovery-repo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(key: &str) -> SubmitRequest {
        // The paper's two-party SD experiment, trimmed of the traffic
        // factors so the plan is exactly one run per replication.
        let mut d = ExperimentDescription::paper_two_party_sd(2);
        d.factors
            .factors
            .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
        SubmitRequest {
            tenant: "alice".into(),
            preset: "grid_default".into(),
            description_xml: xmlio::to_xml(&d),
            submit_key: key.into(),
        }
    }

    #[test]
    fn submit_assigns_monotonic_ids_and_dedups_on_the_key() {
        let root = tmp_root("dedup");
        let mut repo = ServerRepo::open(&root).unwrap();
        let (a, created_a) = repo.submit(&request("k1")).unwrap();
        let (b, created_b) = repo.submit(&request("k2")).unwrap();
        let (a2, created_a2) = repo.submit(&request("k1")).unwrap();
        assert!(created_a && created_b && !created_a2);
        assert_eq!((a, b, a2), (1, 2, 1));
        assert_eq!(repo.job(a).unwrap().runs_total, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_replay_restores_jobs_and_the_dedup_table() {
        let root = tmp_root("replay");
        {
            let mut repo = ServerRepo::open(&root).unwrap();
            repo.submit(&request("k1")).unwrap();
            let epoch = repo.begin_slice(1).unwrap();
            assert_eq!(epoch, 0);
        }
        let mut repo = ServerRepo::open(&root).unwrap();
        // No run completed, so the replay demotes the claim to Queued —
        // but the epoch stays burned.
        assert_eq!(repo.job(1).unwrap().state, JobState::Queued);
        assert_eq!(repo.job(1).unwrap().epochs, 1);
        let (id, created) = repo.submit(&request("k1")).unwrap();
        assert_eq!((id, created), (1, false));
        assert_eq!(repo.begin_slice(1).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_rejects_bad_presets_and_bad_xml() {
        let root = tmp_root("reject");
        let mut repo = ServerRepo::open(&root).unwrap();
        let mut bad = request("k1");
        bad.preset = "marsbase".into();
        assert!(matches!(
            repo.submit(&bad),
            Err(ServerError::UnknownPreset(_))
        ));
        let mut garbled = request("k2");
        garbled.description_xml = "<not an experiment>".into();
        assert!(matches!(
            repo.submit(&garbled),
            Err(ServerError::Description(_))
        ));
        assert!(repo.jobs().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_json_roundtrips_including_large_digests() {
        let rec = JobRecord {
            job_id: 7,
            tenant: "t".into(),
            name: "n".into(),
            preset: "wired_lan".into(),
            submit_key: "k".into(),
            state: JobState::Completed,
            epochs: 3,
            runs_total: 12,
            runs_completed: 12,
            digest: Some(u64::MAX - 1),
            error: None,
        };
        assert_eq!(record_from_json(&record_to_json(&rec)), Some(rec));
    }
}
