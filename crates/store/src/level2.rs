//! Level-2 intermediate storage (paper §IV-B5, §IV-F).
//!
//! "Each participating node has its own temporary storage for recorded
//! data, organized into data belonging to single runs and data valid for
//! the complete experiment. [...] Currently, ExCovery uses a special
//! hierarchy on a file system to store second level data."
//!
//! Entries keep the paper's `(run, node, name)` addressing; the container
//! is an append-only file of sealed run records plus an append-only
//! journal:
//!
//! ```text
//! <root>/
//!   experiment/<node>/<name>   # experiment-wide measurements, one file each
//!   runs/records.log           # one record per sealed run, back to back
//!   runs/journal.log           # one "<run_id>\n" line per sealed run
//! ```
//!
//! [`Level2Store::put_run`] stages an entry in memory;
//! [`Level2Store::mark_run_complete`] seals the run with two appends, in
//! this order: the run's record goes to the end of `runs/records.log`,
//! then one newline-terminated line to `runs/journal.log`. Sealing
//! creates no file: on a journalling file system a file create costs tens
//! of appends and its cost swings with the disk's load, which made the
//! per-run cost of a campaign depend on the host. A run is *complete*
//! when the journal names it and `records.log` holds a record for it; a
//! run sealed twice reads from its newest record. Whatever a crash leaves
//! behind otherwise — a record cut short at the end of `records.log`, a
//! record the journal does not confirm, a journal line cut before its
//! newline — reads as incomplete, and the run is re-executed and
//! re-sealed; the next seal cuts both torn tails off. A run that never
//! sealed leaves nothing on disk.
//!
//! A handle finds records by reading `records.log` once and then only
//! what was appended since; one handle at a time may seal into a root.
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
//!   32+T     …  payloads in table order; the record ends with the last one
//! ```
//!
//! Anything else — wrong magic or version, a checksum mismatch, a table
//! that overruns itself — is a [`StoreError`], as is a journal line that
//! is not a decimal run id, and a `records.log` that ends inside a record
//! while the journal confirms a run it has no record for (a crash tears
//! only records nobody confirmed yet). Only the unterminated tails of the
//! two files are tolerated, and cut off by the next seal.

use crate::engine::{atomic_write, StoreError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
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

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Length of the record `bytes` starts with, read from its checked header
/// and table. `Ok(None)`: `bytes` ends before the record does — what a
/// torn append leaves. `Err`: the bytes that are there are damaged.
fn record_len(bytes: &[u8]) -> Result<Option<usize>, &'static str> {
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    if &bytes[..4] != RECORD_MAGIC {
        return Err("bad magic");
    }
    if u32_at(bytes, 4) != RECORD_VERSION {
        return Err("unsupported version");
    }
    let table_end = HEADER_LEN + u32_at(bytes, 20) as usize;
    if bytes.len() < table_end + CHECKSUM_LEN {
        return Ok(None);
    }
    if fnv1a(&bytes[..table_end]) != u64_at(bytes, table_end) {
        return Err("header checksum mismatch");
    }
    let (mut at, mut payload_len) = (HEADER_LEN, 0usize);
    for _ in 0..u32_at(bytes, 16) {
        if table_end - at < ENTRY_FIXED_LEN {
            return Err("entry table overrun");
        }
        let keys_len = u32_at(bytes, at) as usize + u32_at(bytes, at + 4) as usize;
        let data_len = usize::try_from(u64_at(bytes, at + 8)).map_err(|_| "payload length")?;
        at += ENTRY_FIXED_LEN;
        if keys_len > table_end - at {
            return Err("entry table overrun");
        }
        at += keys_len;
        payload_len = payload_len.checked_add(data_len).ok_or("payload length")?;
    }
    if at != table_end {
        return Err("entry table length mismatch");
    }
    let len = (table_end + CHECKSUM_LEN)
        .checked_add(payload_len)
        .ok_or("payload length")?;
    Ok((bytes.len() >= len).then_some(len))
}

#[derive(Debug)]
struct EntryIndex {
    node: Range<usize>,
    name: Range<usize>,
    data: Range<usize>,
}

/// One sealed run: its record's bytes plus an index into them, so
/// entries are borrowed rather than copied out.
#[derive(Debug)]
pub struct RunRecord {
    bytes: Vec<u8>,
    index: Vec<EntryIndex>,
}

impl RunRecord {
    /// Checks and indexes the bytes of exactly one record.
    fn decode(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let bad = |what: &str| StoreError(format!("run record: {what}"));
        match record_len(&bytes).map_err(bad)? {
            Some(len) if len == bytes.len() => {}
            Some(_) => return Err(bad("trailing bytes")),
            None => return Err(bad("truncated")),
        }
        // `record_len` checked every length against the table and the
        // file; what is left is the keys' encoding and order.
        let table_end = HEADER_LEN + u32_at(&bytes, 20) as usize;
        let key = |e: &EntryIndex| (&bytes[e.node.clone()], &bytes[e.name.clone()]);
        let mut index: Vec<EntryIndex> = Vec::new();
        let (mut at, mut data_at) = (HEADER_LEN, table_end + CHECKSUM_LEN);
        while at < table_end {
            let (node_len, name_len) =
                (u32_at(&bytes, at) as usize, u32_at(&bytes, at + 4) as usize);
            let data_len = u64_at(&bytes, at + 8) as usize;
            let node = at + ENTRY_FIXED_LEN..at + ENTRY_FIXED_LEN + node_len;
            let name = node.end..node.end + name_len;
            at = name.end;
            if std::str::from_utf8(&bytes[node.clone()]).is_err()
                || std::str::from_utf8(&bytes[name.clone()]).is_err()
            {
                return Err(bad("entry key is not UTF-8"));
            }
            let entry = EntryIndex {
                node,
                name,
                data: data_at..data_at + data_len,
            };
            if index.last().is_some_and(|prev| key(prev) >= key(&entry)) {
                return Err(bad("entry keys out of order"));
            }
            data_at = entry.data.end;
            index.push(entry);
        }
        Ok(Self { bytes, index })
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

/// Where the records of `records.log` are, as far as a handle has read
/// it: bytes `[0, end)` are whole records, `[end, len)` a torn tail.
#[derive(Debug, Default)]
struct Segment {
    /// Run id → byte range of its newest record.
    records: BTreeMap<u64, Range<u64>>,
    end: u64,
    len: u64,
}

/// What `put_run` has staged, where the sealed records are, and the files
/// seals append to.
#[derive(Debug, Default)]
struct State {
    staged: BTreeMap<u64, BTreeMap<EntryKey, Vec<u8>>>,
    segment: Segment,
    /// `records.log` and `journal.log`, opened, and their torn tails cut
    /// off, by the first seal.
    appenders: Option<(fs::File, fs::File)>,
}

/// Opens `path` for appending, first cutting it to its first `keep` bytes.
fn open_append(path: &Path, keep: u64) -> Result<fs::File, StoreError> {
    let fail = |e: std::io::Error| StoreError(format!("open {path:?}: {e}"));
    let file = fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(fail)?;
    if file.metadata().map_err(fail)?.len() > keep {
        file.set_len(keep).map_err(fail)?;
    }
    Ok(file)
}

/// Handle to one experiment's level-2 storage.
#[derive(Debug)]
pub struct Level2Store {
    root: PathBuf,
    state: Mutex<State>,
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
            state: Mutex::default(),
        })
    }

    fn experiment_path(&self, node: &str, name: &str) -> PathBuf {
        self.root.join("experiment").join(node).join(name)
    }

    fn records_path(&self) -> PathBuf {
        self.root.join("runs").join("records.log")
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("runs").join("journal.log")
    }

    fn state(&self) -> Result<MutexGuard<'_, State>, StoreError> {
        self.state
            .lock()
            .map_err(|_| StoreError("level-2 store: a thread panicked while sealing".into()))
    }

    /// Stores an experiment-wide measurement for a node: temp file +
    /// rename, so a crash leaves either no entry or the complete one. A
    /// resumed master stores the same measurements again; bytes equal to
    /// the stored ones are left in place rather than written anew.
    pub fn put_experiment(&self, node: &str, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.experiment_path(node, name);
        if fs::read(&path).is_ok_and(|stored| stored == data) {
            return Ok(());
        }
        atomic_write(&path, data)?;
        if excovery_obs::enabled() {
            count_write(data.len());
        }
        Ok(())
    }

    /// Stages a per-run measurement/log for a node; it reaches the disk
    /// when [`Self::mark_run_complete`] seals the run. Putting the same
    /// `(node, name)` again replaces the staged bytes. Bytes handed over
    /// as an owned vector are staged without a copy.
    pub fn put_run<'a>(
        &self,
        run_id: u64,
        node: &str,
        name: &str,
        data: impl Into<Cow<'a, [u8]>>,
    ) -> Result<(), StoreError> {
        self.state()?.staged.entry(run_id).or_default().insert(
            (node.to_string(), name.to_string()),
            data.into().into_owned(),
        );
        Ok(())
    }

    /// Reads an experiment-wide measurement.
    pub fn get_experiment(&self, node: &str, name: &str) -> Result<Vec<u8>, StoreError> {
        let p = self.experiment_path(node, name);
        fs::read(&p).map_err(|e| StoreError(format!("read {p:?}: {e}")))
    }

    /// Brings `segment` up to date with `records.log`, reading only what
    /// was appended since the last look, and returns the file open for
    /// reading (`None` while no run was ever sealed).
    fn refresh(&self, segment: &mut Segment) -> Result<Option<fs::File>, StoreError> {
        let p = self.records_path();
        let fail = |e: std::io::Error| StoreError(format!("read {p:?}: {e}"));
        let mut file = match fs::File::open(&p) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                *segment = Segment::default();
                return Ok(None);
            }
            Err(e) => return Err(fail(e)),
        };
        let len = file.metadata().map_err(fail)?.len();
        if len == segment.len {
            return Ok(Some(file));
        }
        if len < segment.len {
            // Cut by another handle's seal: read it again from the start.
            *segment = Segment::default();
        }
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(segment.end))
            .and_then(|_| file.read_to_end(&mut tail))
            .map_err(fail)?;
        let mut at = 0;
        while let Some(n) = record_len(&tail[at..]).map_err(|what| {
            StoreError(format!(
                "{p:?}: record at byte {}: {what}",
                segment.end + at as u64
            ))
        })? {
            let start = segment.end + at as u64;
            segment
                .records
                .insert(u64_at(&tail, at + 8), start..start + n as u64);
            at += n;
        }
        segment.end += at as u64;
        segment.len = segment.end + (tail.len() - at) as u64;
        Ok(Some(file))
    }

    /// A crash tears only the record being appended, which the journal
    /// cannot have confirmed yet, so every run it confirms has its record
    /// before a torn tail. One that has not means `records.log` was cut
    /// or damaged, and reading on would lose a sealed run.
    fn check_tail(&self, segment: &Segment, confirmed: &[u64]) -> Result<(), StoreError> {
        match confirmed
            .iter()
            .find(|run| !segment.records.contains_key(run))
        {
            Some(run) if segment.end < segment.len => Err(StoreError(format!(
                "{:?}: the journal confirms run {run}, but the bytes from {} on hold no whole record",
                self.records_path(),
                segment.end
            ))),
            _ => Ok(()),
        }
    }

    /// The newest record of a run, `None` if `records.log` holds none.
    fn read_record(&self, run_id: u64) -> Result<Option<RunRecord>, StoreError> {
        let p = self.records_path();
        let (mut file, range) = {
            let mut state = self.state()?;
            let file = self.refresh(&mut state.segment)?;
            match (file, state.segment.records.get(&run_id)) {
                (Some(file), Some(range)) => (file, range.clone()),
                _ => return Ok(None),
            }
        };
        let mut bytes = vec![0; (range.end - range.start) as usize];
        file.seek(SeekFrom::Start(range.start))
            .and_then(|_| file.read_exact(&mut bytes))
            .map_err(|e| StoreError(format!("read {p:?}: {e}")))?;
        RunRecord::decode(bytes)
            .map(Some)
            .map_err(|e| StoreError(format!("{p:?}: run {run_id}: {}", e.0)))
    }

    /// Reads and checks the sealed record of a run.
    pub fn load_run(&self, run_id: u64) -> Result<RunRecord, StoreError> {
        self.read_record(run_id)?.ok_or_else(|| {
            StoreError(format!(
                "{:?}: no record of run {run_id}",
                self.records_path()
            ))
        })
    }

    /// Reads one entry of a sealed run. To read several, [`Self::load_run`]
    /// once and borrow from the record.
    pub fn get_run(&self, run_id: u64, node: &str, name: &str) -> Result<Vec<u8>, StoreError> {
        self.load_run(run_id)?
            .get(node, name)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| StoreError(format!("run {run_id}: no entry {node}/{name}")))
    }

    /// Completed run ids, sorted: the runs the journal confirms and
    /// `records.log` holds — the collection phase walks these.
    pub fn run_ids(&self) -> Result<Vec<u64>, StoreError> {
        let mut ids = self.journal_runs()?;
        let mut state = self.state()?;
        self.refresh(&mut state.segment)?;
        self.check_tail(&state.segment, &ids)?;
        ids.retain(|run_id| state.segment.records.contains_key(run_id));
        Ok(ids)
    }

    /// `(node, name)` pairs sealed for a run, sorted; empty if the run has
    /// no record.
    pub fn run_entries(&self, run_id: u64) -> Result<Vec<(String, String)>, StoreError> {
        Ok(self.read_record(run_id)?.map_or_else(Vec::new, |record| {
            record
                .entries()
                .map(|(node, name, _)| (node.to_string(), name.to_string()))
                .collect()
        }))
    }

    /// Seals a run (the recovery mechanism of §VII: aborted runs are
    /// detected by a missing seal and resumed).
    ///
    /// Two appends, in order: everything staged for the run goes into one
    /// record at the end of `runs/records.log`; then the run id goes to
    /// `runs/journal.log`. A crash between the two leaves a record the
    /// journal does not confirm — [`Self::is_run_complete`] treats such a
    /// run as incomplete, so it is re-executed rather than packaged in a
    /// possibly half-recorded state.
    pub fn mark_run_complete(&self, run_id: u64) -> Result<(), StoreError> {
        let started = excovery_obs::enabled().then(std::time::Instant::now);
        let mut state = self.state()?;
        let record = encode_record(
            run_id,
            state.staged.get(&run_id).unwrap_or(&BTreeMap::new()),
        )?;
        if state.appenders.is_none() {
            let appenders = self.open_appenders(&mut state.segment)?;
            state.appenders = Some(appenders);
        }
        let State {
            staged,
            segment,
            appenders,
        } = &mut *state;
        let (records, journal) = appenders.as_mut().expect("opened above");
        let line = format!("{run_id}\n");
        let appended = records
            .write_all(&record)
            .map_err(|e| StoreError(format!("append {:?}: {e}", self.records_path())))
            .and_then(|()| {
                let start = segment.len;
                segment.end = start + record.len() as u64;
                segment.len = segment.end;
                segment.records.insert(run_id, start..segment.end);
                journal
                    .write_all(line.as_bytes())
                    .map_err(|e| StoreError(format!("append {:?}: {e}", self.journal_path())))
            });
        if appended.is_err() {
            // What reached either file is a torn tail now; the next seal
            // reopens both and cuts it off.
            *appenders = None;
            return appended;
        }
        staged.remove(&run_id);
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

    /// Opens `records.log` and `journal.log` for appending. A record or a
    /// line cut short at the end is the remains of a seal that crashed
    /// mid-append; it confirms nothing and is cut off so that the next
    /// seal does not run into it.
    fn open_appenders(&self, segment: &mut Segment) -> Result<(fs::File, fs::File), StoreError> {
        self.refresh(segment)?;
        if segment.end < segment.len {
            self.check_tail(segment, &self.journal_runs()?)?;
        }
        let records = open_append(&self.records_path(), segment.end)?;
        segment.len = segment.end;
        let p = self.journal_path();
        let raw = match fs::read(&p) {
            Ok(raw) => raw,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError(format!("read {p:?}: {e}"))),
        };
        let confirmed = raw.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
        Ok((records, open_append(&p, confirmed as u64)?))
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

    /// True if the journal confirms the run and `records.log` holds it.
    pub fn is_run_complete(&self, run_id: u64) -> Result<bool, StoreError> {
        Ok(self.run_ids()?.binary_search(&run_id).is_ok())
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
        let mut names: Vec<String> = fs::read_dir(s.root.join("runs"))
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

    #[cfg(unix)]
    #[test]
    fn identical_experiment_entry_is_not_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let s = temp_store("exp-same");
        let inode = || {
            fs::metadata(s.experiment_path("master", "topology.json"))
                .unwrap()
                .ino()
        };
        s.put_experiment("master", "topology.json", b"[1]").unwrap();
        let first = inode();
        s.put_experiment("master", "topology.json", b"[1]").unwrap();
        assert_eq!(inode(), first, "equal bytes stay in place");
        s.put_experiment("master", "topology.json", b"[2]").unwrap();
        assert_ne!(inode(), first, "other bytes replace the entry");
        assert_eq!(s.get_experiment("master", "topology.json").unwrap(), b"[2]");
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
            vec!["journal.log", "records.log"],
            "the records and the journal, no file per run"
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
        s.put_run(0, "t9-105", "captures.bin", b"EXCP").unwrap();
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
        // The state a crash between the record append and the journal
        // append of run 1 leaves: the record exists, the journal doesn't
        // list it.
        fs::write(s.journal_path(), b"0\n").unwrap();
        assert!(s.is_run_complete(0).unwrap());
        assert!(!s.is_run_complete(1).unwrap());
        assert_eq!(s.run_ids().unwrap(), vec![0]);
        assert_eq!(s.first_incomplete_run(3).unwrap(), 1);
        // Re-sealing run 1 (after re-execution) repairs the state.
        let s = Level2Store::open(s.root).unwrap();
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
        let s = Level2Store::open(s.root).unwrap();
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
    fn torn_record_tail_confirms_nothing_and_is_cut_by_the_next_seal() {
        let s = temp_store("torn-record");
        s.put_run(0, "n", "x", b"zero").unwrap();
        s.mark_run_complete(0).unwrap();
        let sealed = fs::read(s.records_path()).unwrap();
        s.put_run(1, "n", "x", b"one").unwrap();
        s.mark_run_complete(1).unwrap();
        let full = fs::read(s.records_path()).unwrap();
        // A crash inside the append of run 1's record: part of it on
        // disk, no journal line.
        fs::write(s.records_path(), &full[..sealed.len() + 10]).unwrap();
        fs::write(s.journal_path(), b"0\n").unwrap();
        let s = Level2Store::open(s.root).unwrap();
        assert_eq!(s.run_ids().unwrap(), vec![0]);
        assert!(s.run_entries(1).unwrap().is_empty());
        assert!(s.load_run(1).is_err());
        s.put_run(1, "n", "x", b"again").unwrap();
        s.mark_run_complete(1).unwrap();
        assert_eq!(s.run_ids().unwrap(), vec![0, 1]);
        assert_eq!(s.get_run(1, "n", "x").unwrap(), b"again");
        assert_eq!(s.get_run(0, "n", "x").unwrap(), b"zero");
        let healed = fs::read(s.records_path()).unwrap();
        assert_eq!(&healed[..sealed.len()], &sealed[..]);
        assert_eq!(healed.len(), full.len() + 2, "the torn bytes were cut off");
        s.destroy().unwrap();
    }

    #[test]
    fn damaged_record_is_an_error() {
        let s = temp_store("badrecord");
        s.put_run(0, "n", "x", b"data").unwrap();
        s.mark_run_complete(0).unwrap();
        s.mark_run_complete(1).unwrap();
        let good = fs::read(s.records_path()).unwrap();
        // A flipped bit in run 0's entry table: no record past it can be
        // located, and none reads as "not sealed".
        let mut flipped = good.clone();
        flipped[HEADER_LEN] ^= 1;
        fs::write(s.records_path(), &flipped).unwrap();
        let s = Level2Store::open(s.root).unwrap();
        for e in [
            s.get_run(0, "n", "x").unwrap_err(),
            s.run_entries(1).unwrap_err(),
            s.run_ids().unwrap_err(),
            s.mark_run_complete(2).unwrap_err(),
        ] {
            assert!(
                e.0.contains("records.log") && e.0.contains("checksum"),
                "{e}"
            );
        }
        // Cut inside run 1's record although the journal confirms run 1:
        // not a crash, and the next seal must not cut it further.
        fs::write(s.records_path(), &good[..good.len() - 1]).unwrap();
        let s = Level2Store::open(s.root).unwrap();
        let e = s.first_incomplete_run(3).unwrap_err();
        assert!(e.0.contains("confirms run 1"), "{e}");
        assert!(s.mark_run_complete(2).is_err());
        assert_eq!(fs::read(s.records_path()).unwrap().len(), good.len() - 1);
        assert_eq!(s.get_run(0, "n", "x").unwrap(), b"data");
        s.destroy().unwrap();
    }

    #[test]
    fn old_layout_tree_reads_as_no_run_complete() {
        let s = temp_store("legacy");
        let old_marker = s.root.join("runs/0/_master/complete");
        fs::create_dir_all(old_marker.parent().unwrap()).unwrap();
        fs::write(old_marker, b"1").unwrap();
        fs::write(s.root.join("runs/journal.json"), br#"{"completed":[0]}"#).unwrap();
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
        // A stray file beside the records, such as the temp file a crash
        // of an older layout's seal left behind.
        fs::write(s.root.join("runs/.1.run.tmp-999-0"), b"torn").unwrap();
        assert_eq!(s.run_ids().unwrap(), vec![0]);
        assert_eq!(
            s.run_entries(0).unwrap(),
            vec![("n".to_string(), "x".to_string())]
        );
        assert!(s.run_entries(1).unwrap().is_empty());
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
            prop_assert_eq!(u64_at(&record.bytes, 8), run);
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
