//! What every workload shares: the scratch directory, the span recorder,
//! the obs-registry delta, the measuring loop and the statistics.

use excovery::obs::{self, ObsConfig, Snapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Environment knobs of the program. The harness removes them so that a
/// run measures the defaults a user gets, whatever the caller's shell
/// exports.
const PROGRAM_KNOBS: [&str; 4] = [
    "EXCOVERY_WORKERS",
    "EXCOVERY_SHARDS",
    "EXCOVERY_QUERY_MEM",
    "EXCOVERY_REPS",
];

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: f64,
    /// Traced pass: obs registry on for every other repetition, spans
    /// recorded, probes run, per-layer metrics reported.
    pub trace: bool,
    /// Sizes ÷ 10, one timed repetition, no pins.
    pub quick: bool,
    /// Where `<workload>.json` and `<workload>.trace.json` go, if anywhere.
    pub out: Option<PathBuf>,
    /// Rewrite `expected.json` from this run instead of checking it.
    pub bless: bool,
}

impl RunOptions {
    /// A size divided by ten in `--quick` mode, never below one.
    pub fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }
}

/// One directory for everything a run writes: level-2 roots, packages,
/// slab directories, server roots.
///
/// It sits beside the executable, inside the cargo target directory, so
/// it is inside the checkout, on the file system the build used, and
/// already ignored by git. `TMPDIR` points there for the length of the
/// run, so the library's own default temp paths land there too.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no parent directory")?;
        let root = dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("mkdir {root:?}: {e}"))?;
        for knob in PROGRAM_KNOBS {
            std::env::remove_var(knob);
        }
        std::env::set_var("TMPDIR", &root);
        Ok(Self { root, next: 0 })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, not yet existing path under the scratch root.
    pub fn path(&mut self, stem: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{stem}-{}", self.next))
    }

    /// Type of the file system the scratch root is on, from the longest
    /// matching mount point of `/proc/mounts`.
    pub fn filesystem(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
                self.root
                    .starts_with(point)
                    .then(|| (point.len(), kind.to_string()))
            })
            .max()
            .map(|(_, kind)| kind)
            .unwrap_or_else(|| "unknown".into())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a file or directory tree a repetition is done with.
pub fn remove(path: &Path) {
    let _ = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
}

/// Total size of the regular files under `path`.
pub fn tree_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| tree_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- spans ----------------------------------------------------------------

/// One recorded interval around a call into a layer's public functions.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Handle of an open span, returned by [`Tracer::enter`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Times calls, and in the traced pass also keeps them as spans.
///
/// The untraced pass needs the durations too (they are the end-to-end
/// numbers), so timing always happens; only the recording is switched.
pub struct Tracer {
    epoch: Instant,
    record: bool,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Self {
            epoch: Instant::now(),
            record,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that will have children.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> Open {
        let start = Instant::now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                layer,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.stack.push(i);
        }
        Open { index, start }
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
            self.spans[i].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times a leaf call: returns its result and its length in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.enter(name, layer);
        let value = f();
        (value, self.exit(open))
    }

    /// The sanity check of the trace: no span is negative or escapes its
    /// parent, and the children of every `pipeline` span sum to within
    /// 2 % of it.
    pub fn check(&self) -> Result<(), String> {
        let mut child_sum: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} (#{i}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} (#{i}) escapes its parent {}",
                        s.name, parent.name
                    ));
                }
                *child_sum.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != "pipeline" {
                continue;
            }
            let own = (s.end_ns - s.start_ns) as f64;
            let children = *child_sum.get(&i).unwrap_or(&0) as f64;
            if own > 0.0 && (own - children).abs() / own > 0.02 {
                return Err(format!(
                    "children of pipeline span (rep {}) cover {:.1} % of it, need 98–102 %",
                    s.rep,
                    100.0 * children / own
                ));
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"rep\":{},\"parent\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
                s.parent.map_or("null".into(), |p| p.to_string()),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

// ---- obs registry delta -----------------------------------------------------

/// What the program's own counters and duration sums gained between two
/// snapshots of `excovery_obs::global()`, read through the public API.
pub struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

fn has_label(labels: &[(String, String)], want: Option<(&str, &str)>) -> bool {
    want.is_none_or(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

impl ObsDelta {
    pub fn start() -> Snapshot {
        obs::global().snapshot()
    }

    pub fn since(before: Snapshot) -> Self {
        Self {
            before,
            after: obs::global().snapshot(),
        }
    }

    /// Gain of a counter, summed over its label sets (or those carrying
    /// `label`). `None` when the program keeps no such series.
    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        let sum = |s: &Snapshot| {
            let mut series = s
                .counters
                .iter()
                .filter(|m| m.name == name && has_label(&m.labels, label))
                .peekable();
            series.peek()?;
            Some(series.map(|m| m.value).sum::<u64>())
        };
        Some(sum(&self.after)?.saturating_sub(sum(&self.before).unwrap_or(0)))
    }

    /// Gain of a histogram's `(sum, count)` of observations, over all
    /// label sets.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        let total = |s: &Snapshot| {
            let mut series = s.histograms.iter().filter(|m| m.name == name).peekable();
            series.peek()?;
            Some(series.fold((0, 0), |(sum, count), m| {
                (sum + m.value.sum, count + m.value.count)
            }))
        };
        let (after_sum, after_count) = total(&self.after)?;
        let (before_sum, before_count) = total(&self.before).unwrap_or((0, 0));
        Some((
            after_sum.saturating_sub(before_sum),
            after_count.saturating_sub(before_count),
        ))
    }
}

// ---- one repetition and the loop around it ----------------------------------

/// What one repetition of a workload reports.
#[derive(Debug, Default)]
pub struct Rep {
    /// Untimed preparation before the repetition (a `setup_s` sample).
    pub setup_s: f64,
    /// Wall time of the timed region (a `pipeline_s` sample).
    pub pipeline_s: f64,
    /// Units of work the producing stage made, and the seconds it took
    /// (a `work_per_s` sample).
    pub work: f64,
    pub work_s: f64,
    /// Per-layer values of this repetition, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Latency samples in ms, pooled over repetitions, by pool name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Values that repeat exactly: equal on every repetition, and equal
    /// to `expected.json` at the default seed and size.
    pub exact: Vec<(&'static str, u64)>,
    /// Operations attempted and failed (runs, queries, jobs).
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Rep {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn sample(&mut self, pool: &'static str, ms: f64) {
        self.samples.entry(pool).or_default().push(ms);
    }

    pub fn exact(&mut self, name: &'static str, value: u64) {
        self.exact.push((name, value));
    }

    /// Counts one operation; `problem` says what went wrong with it, if
    /// anything.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.failures.extend(problem);
    }

    /// Copies what the program's own counters say about this repetition.
    /// A series the program does not keep is reported once on stderr and
    /// left at zero; it is never an error.
    pub fn set_from_obs(&mut self, delta: &ObsDelta, table: &[ObsMetric]) {
        for m in table {
            let raw = match m.kind {
                ObsKind::Counter => delta.counter(m.series, m.label).map(|v| v as f64),
                ObsKind::HistogramSum => delta.histogram(m.series).map(|(sum, _)| sum as f64),
                ObsKind::HistogramMean => delta
                    .histogram(m.series)
                    .map(|(sum, count)| sum as f64 / count.max(1) as f64),
            };
            match raw {
                Some(v) => self.set(m.metric, v * m.scale),
                None => report_absent(m.metric, m.series),
            }
        }
    }
}

pub enum ObsKind {
    Counter,
    HistogramSum,
    /// Sum ÷ count of the observations gained.
    HistogramMean,
}

/// One per-layer metric read from the obs registry.
pub struct ObsMetric {
    pub metric: &'static str,
    pub series: &'static str,
    pub label: Option<(&'static str, &'static str)>,
    pub kind: ObsKind,
    /// Multiplier from the series' unit to the metric's (ns → ms: 1e-6).
    pub scale: f64,
}

fn report_absent(metric: &str, series: &str) {
    use std::sync::Mutex;
    static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut seen = SEEN.lock().expect("absent-series list poisoned");
    if !seen.iter().any(|s| s == metric) {
        seen.push(metric.to_string());
        eprintln!("absent {metric}: the program keeps no obs series `{series}` here");
    }
}

/// A benchmark workload: seeded inputs, one repetition at a time.
pub trait Workload {
    /// One repetition: untimed preparation (reported as `setup_s`), then
    /// the timed pipeline. `traced` says whether the obs registry is on.
    fn rep(&mut self, tr: &mut Tracer, scratch: &mut Scratch, traced: bool) -> Result<Rep, String>;

    /// Probes of nested layers, run once after the traced loop.
    fn probes(
        &mut self,
        _tr: &mut Tracer,
        _scratch: &mut Scratch,
        _out: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics derived from the pooled latency samples.
    fn summarize(
        &self,
        _pools: &BTreeMap<&'static str, Vec<f64>>,
        _out: &mut BTreeMap<&'static str, f64>,
    ) {
    }
}

/// Everything a finished run knows.
pub struct Outcome {
    pub reps: Vec<Rep>,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    pub wall: Duration,
    pub trace_problem: Option<String>,
}

/// Warm-up, then repetitions until `seconds` have passed.
///
/// The warm-up is mandatory: the first repetition pays first-touch page
/// faults and lazy initialisation that no later one does.
///
/// In the traced pass the obs registry is on for every other repetition;
/// the ones with it off are the baseline of `obs.overhead_share`, taken
/// in the same process and the same seconds as what they are compared
/// with.
pub fn measure(
    workload: &mut dyn Workload,
    opts: &RunOptions,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let started = Instant::now();
    ObsConfig::off().install();
    workload.rep(&mut Tracer::new(false), scratch, false)?;

    let budget = Duration::from_secs_f64(opts.seconds);
    let loop_start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut baseline: Vec<f64> = Vec::new();
    let mut index = 0u32;
    loop {
        index += 1;
        tr.set_rep(index);
        let obs_on = opts.trace && index % 2 == 1;
        if obs_on {
            ObsConfig::on().install();
        }
        let rep = workload.rep(tr, scratch, obs_on);
        ObsConfig::off().install();
        let rep = rep?;
        if opts.trace && !obs_on {
            baseline.push(rep.pipeline_s);
        } else {
            reps.push(rep);
        }
        let enough = opts.quick || loop_start.elapsed() >= budget;
        let has_baseline = !opts.trace || !baseline.is_empty();
        if enough && has_baseline {
            break;
        }
    }

    let mut layers = BTreeMap::new();
    let mut trace_problem = None;
    if opts.trace {
        layers = layer_medians(&reps);
        let mut pools: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for rep in &reps {
            for (pool, samples) in &rep.samples {
                pools.entry(pool).or_default().extend(samples);
            }
        }
        workload.summarize(&pools, &mut layers);

        let traced = median(&reps.iter().map(|r| r.pipeline_s).collect::<Vec<_>>());
        let plain = median(&baseline);
        layers.insert("obs.overhead_share", (traced - plain) / plain);
        layers.insert("obs.series", obs::global().series_count() as f64);
        layers.insert("obs.spans_dropped", obs::global_tracer().dropped() as f64);

        trace_problem = tr.check().err();
        ObsConfig::on().install();
        let probed = workload.probes(tr, scratch, &mut layers);
        ObsConfig::off().install();
        probed?;
    }
    Ok(Outcome {
        reps,
        layers,
        wall: started.elapsed(),
        trace_problem,
    })
}

/// Median over the repetitions of every per-layer value they report.
fn layer_medians(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, value) in &rep.values {
            per_name.entry(name).or_default().push(*value);
        }
    }
    per_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

// ---- statistics ---------------------------------------------------------------

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    median(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

/// SplitMix64: the benchmark's own generator for seeded inputs (random
/// pairs, query keys, fact values). The program only ever sees what it
/// generated.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// FNV-1a over little-endian words, the digest fold the repository's
/// snapshot binaries use.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn span_check_accepts_nesting_and_rejects_gaps() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("pipeline", "bench");
        tr.time("a", "x", || std::thread::sleep(Duration::from_millis(5)));
        tr.time("b", "x", || std::thread::sleep(Duration::from_millis(5)));
        tr.exit(outer);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        tr.check().unwrap();

        let mut gap = Tracer::new(true);
        let outer = gap.enter("pipeline", "bench");
        gap.time("a", "x", || std::thread::sleep(Duration::from_millis(2)));
        std::thread::sleep(Duration::from_millis(20));
        gap.exit(outer);
        assert!(gap.check().is_err());
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("a", "x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans.is_empty());
    }
}
