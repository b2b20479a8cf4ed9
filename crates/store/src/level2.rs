//! Level-2 intermediate storage (paper §IV-B5, §IV-F).
//!
//! "Each participating node has its own temporary storage for recorded
//! data, organized into data belonging to single runs and data valid for
//! the complete experiment. [...] Currently, ExCovery uses a special
//! hierarchy on a file system to store second level data."
//!
//! Entries keep the paper's `(run, node, name)` addressing; the container
//! is one sealed record file per run plus an append-only journal:
//!
//! ```text
//! <root>/
//!   experiment/<node>/<name>   # experiment-wide measurements, one file each
//!   runs/<run_id>.run          # every entry of one completed run
//!   runs/journal.log           # one "<run_id>\n" line per sealed run
//!   slabs/                     # columnar partitions (owned by the query layer)
//! ```
//!
//! [`Level2Store::put_run`] stages an entry in memory;
//! [`Level2Store::mark_run_complete`] seals the run in two steps, in this
//! order: the record is written to a temp file and renamed to
//! `runs/<run_id>.run`, then one newline-terminated line is appended to
//! `runs/journal.log`. A run is *complete* when the journal names it and
//! its record exists. Whatever a crash leaves behind otherwise — a stray
//! temp file, a record the journal does not confirm, a journal line cut
//! before its newline — reads as incomplete, and the run is re-executed
//! and re-sealed. A run that never sealed leaves nothing on disk.
//!
//! Record format (integers little-endian):
//!
//! ```text
//! offset  size
//!      0     4  magic "EXL2"
//!      4     4  version (1)
//!      8     8  run id
//!     16     4  entry count n
//!     20     4  table length T
//!     24     T  n x { node_len u32, name_len u32, data_len u64, node, name }
//!                 sorted by (node, name), both UTF-8, no duplicates
//!   24+T     8  FNV-1a 64 of bytes [0, 24+T)
//!   32+T     …  payloads in table order; the file ends with the last one
//! ```
//!
//! Anything else — wrong magic or version, a checksum mismatch, lengths
//! that do not add up to the file size, trailing bytes — is a
//! [`StoreError`], as is a journal line that is not a decimal run id.
//! Only the journal's unterminated tail is tolerated (and cut off by the
//! next seal).

use crate::engine::{atomic_write, StoreError};
use std::collections::BTreeMap;
use std::fs;
use std::io::{ErrorKind, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

const RECORD_MAGIC: &[u8; 4] = b"EXL2";
const RECORD_VERSION: u32 = 1;
/// magic + version + run id + entry count + table length.
const HEADER_LEN: usize = 24;
/// node_len + name_len + data_len.
const ENTRY_FIXED_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;

type EntryKey = (String, String);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn encode_record(
    run_id: u64,
    entries: &BTreeMap<EntryKey, Vec<u8>>,
) -> Result<Vec<u8>, StoreError> {
    let too_long =
        |what: &str| StoreError(format!("run {run_id}: {what} exceeds the record format"));
    let (mut table_len, mut payload_len) = (0usize, 0usize);
    for ((node, name), data) in entries {
        table_len += ENTRY_FIXED_LEN + node.len() + name.len();
        payload_len += data.len();
    }
    let count = u32::try_from(entries.len()).map_err(|_| too_long("entry count"))?;
    let table_len_field = u32::try_from(table_len).map_err(|_| too_long("entry table"))?;
    let mut out = Vec::with_capacity(HEADER_LEN + table_len + CHECKSUM_LEN + payload_len);
    out.extend_from_slice(RECORD_MAGIC);
    out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
    out.extend_from_slice(&run_id.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&table_len_field.to_le_bytes());
    for ((node, name), data) in entries {
        // Both lengths fit: they are part of `table_len`, which fits.
        out.extend_from_slice(&(node.len() as u32).to_le_bytes());
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(node.as_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    for data in entries.values() {
        out.extend_from_slice(data);
    }
    Ok(out)
}

#[derive(Debug)]
struct EntryIndex {
    node: Range<usize>,
    name: Range<usize>,
    data: Range<usize>,
}

/// One sealed run: the record file's bytes plus an index into them, so
/// entries are borrowed rather than copied out.
#[derive(Debug)]
pub struct RunRecord {
    run_id: u64,
    bytes: Vec<u8>,
    index: Vec<EntryIndex>,
}

impl RunRecord {
    /// Checks and indexes the bytes of a record file.
    fn decode(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let bad = |what: &str| StoreError(format!("run record: {what}"));
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if bytes.len() < HEADER_LEN {
            return Err(bad("truncated header"));
        }
        if &bytes[..4] != RECORD_MAGIC {
            return Err(bad("bad magic"));
        }
        if u32_at(4) != RECORD_VERSION {
            return Err(bad("unsupported version"));
        }
        let run_id = u64_at(8);
        let count = u32_at(16) as usize;
        let table_len = u32_at(20) as usize;
        let after_header = bytes.len() - HEADER_LEN;
        if after_header < CHECKSUM_LEN || after_header - CHECKSUM_LEN < table_len {
            return Err(bad("truncated entry table"));
        }
        let table_end = HEADER_LEN + table_len;
        let payload_start = table_end + CHECKSUM_LEN;
        if fnv1a(&bytes[..table_end]) != u64_at(table_end) {
            return Err(bad("header checksum mismatch"));
        }
        // Every entry takes at least its fixed part, which bounds the
        // allocation below by the file size.
        if count > table_len / ENTRY_FIXED_LEN {
            return Err(bad("entry count exceeds the table"));
        }
        let key = |e: &EntryIndex| (&bytes[e.node.clone()], &bytes[e.name.clone()]);
        let mut index: Vec<EntryIndex> = Vec::with_capacity(count);
        let (mut at, mut data_at) = (HEADER_LEN, payload_start);
        for _ in 0..count {
            if table_end - at < ENTRY_FIXED_LEN {
                return Err(bad("entry table overrun"));
            }
            let (node_len, name_len) = (u32_at(at) as usize, u32_at(at + 4) as usize);
            let data_len = usize::try_from(u64_at(at + 8)).map_err(|_| bad("payload length"))?;
            at += ENTRY_FIXED_LEN;
            if node_len > table_end - at || name_len > table_end - at - node_len {
                return Err(bad("entry table overrun"));
            }
            let node = at..at + node_len;
            let name = node.end..node.end + name_len;
            at = name.end;
            if std::str::from_utf8(&bytes[node.clone()]).is_err()
                || std::str::from_utf8(&bytes[name.clone()]).is_err()
            {
                return Err(bad("entry key is not UTF-8"));
            }
            let data_end = data_at
                .checked_add(data_len)
                .filter(|end| *end <= bytes.len())
                .ok_or_else(|| bad("truncated payload"))?;
            let entry = EntryIndex {
                node,
                name,
                data: data_at..data_end,
            };
            if index.last().is_some_and(|prev| key(prev) >= key(&entry)) {
                return Err(bad("entry keys out of order"));
            }
            index.push(entry);
            data_at = data_end;
        }
        if at != table_end {
            return Err(bad("entry table length mismatch"));
        }
        if data_at != bytes.len() {
            return Err(bad("trailing bytes"));
        }
        Ok(Self {
            run_id,
            bytes,
            index,
        })
    }

    fn key(&self, e: &EntryIndex) -> (&str, &str) {
        let text = |r: &Range<usize>| {
            std::str::from_utf8(&self.bytes[r.clone()]).expect("checked by decode")
        };
        (text(&e.node), text(&e.name))
    }

    /// The payload stored under `(node, name)`.
    pub fn get(&self, node: &str, name: &str) -> Option<&[u8]> {
        self.index
            .binary_search_by(|e| self.key(e).cmp(&(node, name)))
            .ok()
            .map(|i| &self.bytes[self.index[i].data.clone()])
    }

    /// `(node, name, payload)` of every entry, sorted by `(node, name)`.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str, &[u8])> {
        self.index.iter().map(|e| {
            let (node, name) = self.key(e);
            (node, name, &self.bytes[e.data.clone()])
        })
    }
}

/// What `put_run` has staged and the journal handle seals append through.
#[derive(Debug, Default)]
struct Pending {
    staged: BTreeMap<u64, BTreeMap<EntryKey, Vec<u8>>>,
    /// Opened, and its torn tail cut off, by the first seal.
    journal: Option<fs::File>,
}

/// Handle to one experiment's level-2 storage.
#[derive(Debug)]
pub struct Level2Store {
    root: PathBuf,
    pending: Mutex<Pending>,
}

impl Level2Store {
    /// Opens (creating if necessary) the storage rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(root.join("experiment"))
            .and_then(|()| fs::create_dir_all(root.join("runs")))
            .map_err(|e| StoreError(format!("create level-2 root: {e}")))?;
        Ok(Self {
            root,
            pending: Mutex::default(),
        })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn experiment_path(&self, node: &str, name: &str) -> PathBuf {
        self.root.join("experiment").join(node).join(name)
    }

    fn record_path(&self, run_id: u64) -> PathBuf {
        self.root.join("runs").join(format!("{run_id}.run"))
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("runs").join("journal.log")
    }

    fn pending(&self) -> Result<MutexGuard<'_, Pending>, StoreError> {
        self.pending
            .lock()
            .map_err(|_| StoreError("level-2 store: a thread panicked while sealing".into()))
    }

    /// Stores an experiment-wide measurement for a node: temp file +
    /// rename, so a crash leaves either no entry or the complete one.
    pub fn put_experiment(&self, node: &str, name: &str, data: &[u8]) -> Result<(), StoreError> {
        atomic_write(&self.experiment_path(node, name), data)?;
        if excovery_obs::enabled() {
            count_write(data.len());
        }
        Ok(())
    }

    /// Stages a per-run measurement/log for a node; it reaches the disk
    /// when [`Self::mark_run_complete`] seals the run. Putting the same
    /// `(node, name)` again replaces the staged bytes.
    pub fn put_run(
        &self,
        run_id: u64,
        node: &str,
        name: &str,
        data: &[u8],
    ) -> Result<(), StoreError> {
        self.pending()?
            .staged
            .entry(run_id)
            .or_default()
            .insert((node.to_string(), name.to_string()), data.to_vec());
        Ok(())
    }

    /// Reads an experiment-wide measurement.
    pub fn get_experiment(&self, node: &str, name: &str) -> Result<Vec<u8>, StoreError> {
        let p = self.experiment_path(node, name);
        fs::read(&p).map_err(|e| StoreError(format!("read {p:?}: {e}")))
    }

    /// Reads and checks the sealed record of a run.
    pub fn load_run(&self, run_id: u64) -> Result<RunRecord, StoreError> {
        let p = self.record_path(run_id);
        let bytes = fs::read(&p).map_err(|e| StoreError(format!("read {p:?}: {e}")))?;
        let record = RunRecord::decode(bytes).map_err(|e| StoreError(format!("{p:?}: {}", e.0)))?;
        if record.run_id != run_id {
            return Err(StoreError(format!(
                "{p:?}: record was sealed for run {}",
                record.run_id
            )));
        }
        Ok(record)
    }

    /// Reads one entry of a sealed run. To read several, [`Self::load_run`]
    /// once and borrow from the record.
    pub fn get_run(&self, run_id: u64, node: &str, name: &str) -> Result<Vec<u8>, StoreError> {
        self.load_run(run_id)?
            .get(node, name)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| StoreError(format!("run {run_id}: no entry {node}/{name}")))
    }

    /// Completed run ids, sorted: the runs the journal confirms and whose
    /// record exists — the collection phase walks these.
    pub fn run_ids(&self) -> Result<Vec<u64>, StoreError> {
        let mut ids = self.journal_runs()?;
        ids.retain(|&run_id| self.record_path(run_id).is_file());
        Ok(ids)
    }

    /// `(node, name)` pairs sealed for a run, sorted; empty if the run has
    /// no record.
    pub fn run_entries(&self, run_id: u64) -> Result<Vec<(String, String)>, StoreError> {
        if !self.record_path(run_id).is_file() {
            return Ok(Vec::new());
        }
        Ok(self
            .load_run(run_id)?
            .entries()
            .map(|(node, name, _)| (node.to_string(), name.to_string()))
            .collect())
    }

    /// Seals a run (the recovery mechanism of §VII: aborted runs are
    /// detected by a missing seal and resumed).
    ///
    /// Two writes, in order: everything staged for the run goes into one
    /// record, renamed into place as `runs/<run_id>.run`; then the run id
    /// is appended to `runs/journal.log`. A crash between the two leaves a
    /// record the journal does not confirm — [`Self::is_run_complete`]
    /// treats such a run as incomplete, so it is re-executed rather than
    /// packaged in a possibly half-recorded state.
    pub fn mark_run_complete(&self, run_id: u64) -> Result<(), StoreError> {
        let started = excovery_obs::enabled().then(std::time::Instant::now);
        let mut pending = self.pending()?;
        let record = encode_record(
            run_id,
            pending.staged.get(&run_id).unwrap_or(&BTreeMap::new()),
        )?;
        atomic_write(&self.record_path(run_id), &record)?;
        let line = format!("{run_id}\n");
        let journal = match &mut pending.journal {
            Some(journal) => journal,
            unopened => unopened.insert(self.open_journal()?),
        };
        journal
            .write_all(line.as_bytes())
            .map_err(|e| StoreError(format!("append {:?}: {e}", self.journal_path())))?;
        pending.staged.remove(&run_id);
        if let Some(started) = started {
            count_write(record.len());
            count_write(line.len());
            let reg = excovery_obs::global();
            reg.counter("store_journal_commits_total", &[]).inc();
            reg.histogram("store_run_seal_duration_ns", &[])
                .observe(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Opens the journal for appending. A tail without its newline is the
    /// remains of a seal that crashed mid-append; it confirms nothing and
    /// is cut off so the next line does not run into it.
    fn open_journal(&self) -> Result<fs::File, StoreError> {
        let p = self.journal_path();
        let fail = |e: std::io::Error| StoreError(format!("open {p:?}: {e}"));
        let journal = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&p)
            .map_err(fail)?;
        let raw = fs::read(&p).map_err(fail)?;
        let confirmed = raw.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
        if confirmed < raw.len() {
            journal.set_len(confirmed as u64).map_err(fail)?;
        }
        Ok(journal)
    }

    /// Run ids the journal confirms, sorted; empty without a journal. An
    /// unterminated last line is a torn append and is ignored; any other
    /// line that is not a decimal run id is an error.
    pub fn journal_runs(&self) -> Result<Vec<u64>, StoreError> {
        let p = self.journal_path();
        let raw = match fs::read(&p) {
            Ok(raw) => raw,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError(format!("read {p:?}: {e}"))),
        };
        let mut lines: Vec<&[u8]> = raw.split(|b| *b == b'\n').collect();
        lines.pop(); // what follows the last newline: nothing, or a torn tail
        let mut runs = Vec::with_capacity(lines.len());
        for (i, line) in lines.into_iter().enumerate() {
            let run_id = std::str::from_utf8(line)
                .ok()
                .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| StoreError(format!("{p:?}: line {} is not a run id", i + 1)))?;
            runs.push(run_id);
        }
        runs.sort_unstable();
        runs.dedup();
        Ok(runs)
    }

    /// True if the journal confirms the run and its record exists.
    pub fn is_run_complete(&self, run_id: u64) -> Result<bool, StoreError> {
        Ok(self.journal_runs()?.binary_search(&run_id).is_ok()
            && self.record_path(run_id).is_file())
    }

    /// Lowest incomplete run id, given the total planned runs — where a
    /// resumed experiment continues.
    pub fn first_incomplete_run(&self, total_runs: u64) -> Result<u64, StoreError> {
        let complete = self.run_ids()?;
        Ok((0..total_runs)
            .zip(&complete)
            .take_while(|(want, have)| want == *have)
            .count() as u64)
    }

    /// Directory for columnar partition slabs derived from this
    /// experiment's runs. The slab files themselves are written and read
    /// by the query layer (this crate sits below it and only owns the
    /// location): one `*.slab` file per completed-run partition, placed
    /// here by the spill builder so the warehouse can reopen the
    /// experiment without re-ingesting level-3 packages.
    pub fn slab_dir(&self) -> PathBuf {
        self.root.join("slabs")
    }

    /// Creates (if necessary) and returns the slab directory.
    pub fn ensure_slab_dir(&self) -> Result<PathBuf, StoreError> {
        let dir = self.slab_dir();
        fs::create_dir_all(&dir).map_err(|e| StoreError(format!("create slab dir: {e}")))?;
        Ok(dir)
    }

    /// Paths of the stored slab partition files, sorted by file name
    /// (in-flight atomic-writer temp files are dot-prefixed and skipped).
    /// Empty when no slab directory exists yet.
    pub fn slab_files(&self) -> Result<Vec<PathBuf>, StoreError> {
        let dir = self.slab_dir();
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError(e.to_string()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || !name.ends_with(".slab") {
                continue;
            }
            out.push(entry.path());
        }
        out.sort();
        Ok(out)
    }

    /// Removes the whole hierarchy (after successful packaging to level 3).
    pub fn destroy(self) -> Result<(), StoreError> {
        fs::remove_dir_all(&self.root).map_err(|e| StoreError(format!("destroy: {e}")))
    }
}

/// Accounts one level-2 write; callers check `excovery_obs::enabled()`.
fn count_write(bytes: usize) {
    let reg = excovery_obs::global();
    reg.counter("store_writes_total", &[("level", "2")]).inc();
    reg.counter("store_bytes_written_total", &[("level", "2")])
        .add(bytes as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> Level2Store {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "excovery-l2-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&root).ok();
        Level2Store::open(root).unwrap()
    }

    fn runs_dir_listing(s: &Level2Store) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(s.root().join("runs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn experiment_data_roundtrip() {
        let s = temp_store("exp");
        s.put_experiment("t9-105", "topology_before", b"hopcounts")
            .unwrap();
        assert_eq!(
            s.get_experiment("t9-105", "topology_before").unwrap(),
            b"hopcounts"
        );
        assert!(s.get_experiment("t9-105", "missing").is_err());
        s.destroy().unwrap();
    }

    #[test]
    fn run_data_roundtrip_and_listing() {
        let s = temp_store("run");
        s.put_run(0, "t9-105", "events.jsonl", b"[]").unwrap();
        s.put_run(0, "t9-157", "capture.pcapish", b"\x01\x02")
            .unwrap();
        s.put_run(3, "t9-105", "events.jsonl", b"[3]").unwrap();
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(3).unwrap();
        assert_eq!(s.run_ids().unwrap(), vec![0, 3]);
        let entries = s.run_entries(0).unwrap();
        assert_eq!(
            entries,
            vec![
                ("t9-105".to_string(), "events.jsonl".to_string()),
                ("t9-157".to_string(), "capture.pcapish".to_string())
            ]
        );
        assert_eq!(
            s.get_run(0, "t9-157", "capture.pcapish").unwrap(),
            b"\x01\x02"
        );
        assert_eq!(s.get_run(3, "t9-105", "events.jsonl").unwrap(), b"[3]");
        assert!(s.get_run(0, "t9-105", "missing").is_err());
        assert!(s.get_run(99, "t9-105", "events.jsonl").is_err());
        assert!(s.run_entries(99).unwrap().is_empty());
        assert_eq!(
            runs_dir_listing(&s),
            vec!["0.run", "3.run", "journal.log"],
            "one record per run and the journal, nothing else"
        );
        s.destroy().unwrap();
    }

    #[test]
    fn sealed_runs_support_resume() {
        let s = temp_store("resume");
        assert_eq!(s.first_incomplete_run(5).unwrap(), 0);
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(1).unwrap();
        assert!(s.is_run_complete(1).unwrap());
        assert!(!s.is_run_complete(2).unwrap());
        assert_eq!(s.first_incomplete_run(5).unwrap(), 2);
        // A gap: run 3 done but 2 missing → resume at 2.
        s.mark_run_complete(3).unwrap();
        assert_eq!(s.first_incomplete_run(5).unwrap(), 2);
        // All done.
        s.mark_run_complete(2).unwrap();
        s.mark_run_complete(4).unwrap();
        assert_eq!(s.first_incomplete_run(5).unwrap(), 5);
        assert_eq!(s.first_incomplete_run(3).unwrap(), 3, "capped by the plan");
        s.destroy().unwrap();
    }

    #[test]
    fn unsealed_run_is_resumed_and_leaves_nothing_on_disk() {
        let s = temp_store("crash");
        // Simulated crash mid-run: per-node data was collected, the seal
        // never happened.
        s.put_run(0, "_master", "events.json", b"[]").unwrap();
        s.put_run(0, "t9-105", "captures.json", b"[]").unwrap();
        assert!(!s.is_run_complete(0).unwrap());
        assert_eq!(
            s.first_incomplete_run(3).unwrap(),
            0,
            "a run with data but no seal must be re-executed"
        );
        assert!(s.run_ids().unwrap().is_empty());
        assert!(runs_dir_listing(&s).is_empty());
        s.destroy().unwrap();
    }

    #[test]
    fn record_without_journal_confirmation_counts_as_incomplete() {
        let s = temp_store("journal-crash");
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(1).unwrap();
        assert_eq!(s.journal_runs().unwrap(), vec![0, 1]);
        // The state a crash between record rename and journal append of
        // run 1 leaves: the record exists, the journal doesn't list it.
        fs::write(s.journal_path(), b"0\n").unwrap();
        assert!(s.is_run_complete(0).unwrap());
        assert!(!s.is_run_complete(1).unwrap());
        assert_eq!(s.run_ids().unwrap(), vec![0]);
        assert_eq!(s.first_incomplete_run(3).unwrap(), 1);
        // Re-sealing run 1 (after re-execution) repairs the state.
        let s = Level2Store::open(s.root()).unwrap();
        s.mark_run_complete(1).unwrap();
        assert!(s.is_run_complete(1).unwrap());
        assert_eq!(s.journal_runs().unwrap(), vec![0, 1]);
        s.destroy().unwrap();
    }

    #[test]
    fn torn_journal_tail_confirms_nothing_and_is_cut_by_the_next_seal() {
        let s = temp_store("torn");
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(12).unwrap();
        fs::write(s.journal_path(), b"0\n1").unwrap();
        assert_eq!(s.journal_runs().unwrap(), vec![0], "'1' is a torn '12'");
        assert!(!s.is_run_complete(12).unwrap());
        let s = Level2Store::open(s.root()).unwrap();
        s.mark_run_complete(12).unwrap();
        assert_eq!(fs::read(s.journal_path()).unwrap(), b"0\n12\n");
        assert_eq!(s.run_ids().unwrap(), vec![0, 12]);
        s.destroy().unwrap();
    }

    #[test]
    fn damaged_journal_is_an_error_not_a_restart() {
        for damaged in [
            &b"0\nx\n2\n"[..],
            b"0\n\n2\n",
            b"0\n+1\n",
            b"0\n\xff\n",
            b"0\n99999999999999999999\n",
        ] {
            let s = temp_store("damaged");
            for run in 0..3 {
                s.mark_run_complete(run).unwrap();
            }
            fs::write(s.journal_path(), damaged).unwrap();
            let shown = String::from_utf8_lossy(damaged).into_owned();
            assert!(s.journal_runs().is_err(), "{shown:?}");
            assert!(s.run_ids().is_err(), "{shown:?}");
            assert!(s.is_run_complete(0).is_err(), "{shown:?}");
            assert!(s.first_incomplete_run(3).is_err(), "{shown:?}");
            s.destroy().unwrap();
        }
    }

    #[test]
    fn damaged_or_misplaced_record_is_an_error() {
        let s = temp_store("badrecord");
        s.put_run(0, "n", "x", b"data").unwrap();
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(1).unwrap();
        // A record sealed for another run does not answer for this one.
        fs::copy(s.record_path(0), s.record_path(1)).unwrap();
        let e = s.load_run(1).unwrap_err();
        assert!(e.0.contains("sealed for run 0"), "{e}");
        let mut bytes = fs::read(s.record_path(0)).unwrap();
        bytes.push(0);
        fs::write(s.record_path(0), &bytes).unwrap();
        let e = s.get_run(0, "n", "x").unwrap_err();
        assert!(e.0.contains("trailing bytes"), "{e}");
        assert!(s.run_entries(0).is_err());
        s.destroy().unwrap();
    }

    #[test]
    fn old_layout_tree_reads_as_no_run_complete() {
        let s = temp_store("legacy");
        let old_marker = s.root().join("runs/0/_master/complete");
        fs::create_dir_all(old_marker.parent().unwrap()).unwrap();
        fs::write(old_marker, b"1").unwrap();
        fs::write(s.root().join("runs/journal.json"), br#"{"completed":[0]}"#).unwrap();
        assert!(s.journal_runs().unwrap().is_empty());
        assert!(!s.is_run_complete(0).unwrap());
        assert_eq!(s.first_incomplete_run(2).unwrap(), 0);
        s.destroy().unwrap();
    }

    #[test]
    fn journal_and_temp_files_never_surface_as_run_data() {
        let s = temp_store("hygiene");
        s.put_run(0, "n", "x", b"data").unwrap();
        s.mark_run_complete(0).unwrap();
        // A stray atomic-writer temp file (crash artifact).
        fs::write(s.root().join("runs/.1.run.tmp-999-0"), b"torn").unwrap();
        assert_eq!(s.run_ids().unwrap(), vec![0]);
        assert_eq!(
            s.run_entries(0).unwrap(),
            vec![("n".to_string(), "x".to_string())]
        );
        assert!(s.run_entries(1).unwrap().is_empty());
        s.destroy().unwrap();
    }

    #[test]
    fn slab_dir_lists_only_committed_slab_files() {
        let s = temp_store("slabs");
        assert!(s.slab_files().unwrap().is_empty(), "no dir yet is fine");
        let dir = s.ensure_slab_dir().unwrap();
        fs::write(dir.join("p-0001.slab"), b"x").unwrap();
        fs::write(dir.join("p-0000.slab"), b"x").unwrap();
        fs::write(dir.join(".p-0002.slab.tmp-1-0"), b"torn").unwrap();
        fs::write(dir.join("notes.txt"), b"not a slab").unwrap();
        let files: Vec<String> = s
            .slab_files()
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec!["p-0000.slab", "p-0001.slab"]);
        s.destroy().unwrap();
    }

    #[test]
    fn overwrite_is_allowed() {
        let s = temp_store("ovw");
        s.put_run(1, "n", "x", b"a").unwrap();
        s.put_run(1, "n", "x", b"b").unwrap();
        s.mark_run_complete(1).unwrap();
        assert_eq!(s.get_run(1, "n", "x").unwrap(), b"b");
        // Re-sealing replaces the record; what the first seal held is gone.
        s.put_run(1, "n", "y", b"c").unwrap();
        s.mark_run_complete(1).unwrap();
        assert_eq!(
            s.run_entries(1).unwrap(),
            vec![("n".to_string(), "y".to_string())]
        );
        assert_eq!(s.journal_runs().unwrap(), vec![1]);
        s.destroy().unwrap();
    }

    type Entry = (String, String, Vec<u8>);

    /// Keys from a three-letter alphabet so that duplicates, empty names
    /// and prefixes of one another occur; payloads are arbitrary bytes.
    fn entries_strategy(max: usize) -> impl Strategy<Value = Vec<Entry>> {
        prop::collection::vec(
            (
                "[ab_]{0,3}",
                "[ab.]{0,3}",
                prop::collection::vec(any::<u8>(), 0..40),
            ),
            0..max,
        )
    }

    fn last_wins(entries: &[Entry]) -> BTreeMap<EntryKey, Vec<u8>> {
        entries
            .iter()
            .map(|(node, name, data)| ((node.clone(), name.clone()), data.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever is put — nothing, non-UTF-8 payloads, the same key
        /// twice — comes back bit-exactly, sorted, the last put winning.
        #[test]
        fn sealed_entries_round_trip(entries in entries_strategy(12), run in any::<u64>()) {
            let s = temp_store("prop");
            for (node, name, data) in &entries {
                s.put_run(run, node, name, data).unwrap();
            }
            s.mark_run_complete(run).unwrap();
            let want = last_wins(&entries);
            let record = s.load_run(run).unwrap();
            prop_assert_eq!(record.run_id, run);
            let got: Vec<(EntryKey, Vec<u8>)> = record
                .entries()
                .map(|(node, name, data)| ((node.to_string(), name.to_string()), data.to_vec()))
                .collect();
            prop_assert_eq!(&got, &want.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(
                s.run_entries(run).unwrap(),
                want.keys().cloned().collect::<Vec<_>>()
            );
            for ((node, name), data) in &want {
                prop_assert_eq!(record.get(node, name), Some(&data[..]));
                prop_assert_eq!(&s.get_run(run, node, name).unwrap(), data);
            }
            prop_assert_eq!(record.get("zz", "absent"), None);
            s.destroy().unwrap();
        }

        /// Every truncation, every appended byte and every single-bit flip
        /// in the header, table or checksum is an error — never a panic,
        /// never a record with other content.
        #[test]
        fn corrupted_records_are_rejected(entries in entries_strategy(4), run in any::<u64>()) {
            let staged = last_wins(&entries);
            let good = encode_record(run, &staged).unwrap();
            prop_assert!(RunRecord::decode(good.clone()).is_ok());
            for len in 0..good.len() {
                prop_assert!(RunRecord::decode(good[..len].to_vec()).is_err(), "cut at {}", len);
            }
            let mut longer = good.clone();
            longer.push(0);
            prop_assert!(RunRecord::decode(longer).is_err());
            let payload_len: usize = staged.values().map(Vec::len).sum();
            for bit in 0..(good.len() - payload_len) * 8 {
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(RunRecord::decode(bad).is_err(), "bit {} flipped", bit);
            }
        }
    }
}
