//! What a run prints and writes, the pins of `expected.json`, and the
//! `compare` subcommand that reads two result sets back.

use crate::harness::{mad, median, Outcome, RunOptions, Scratch, Tracer};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use excovery::store::JsonValue;
use std::path::Path;

/// Seed at which `expected.json` pins every exact value.
pub const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.json");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// One reported metric: the median and what it was taken over.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Stat {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// A finished run, judged.
pub struct Report {
    pub workload: String,
    pub stats: Vec<Stat>,
    pub exact: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub repetitions: usize,
}

fn exact_text(name: &str, value: u64) -> String {
    if name.contains("digest") || name == "counters" {
        format!("{value:#018x}")
    } else {
        value.to_string()
    }
}

fn parse_exact(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Turns the repetitions of a run into metrics and checks them: every
/// repetition must report the first one's exact values, and at the
/// default seed and size those must equal the pins.
pub fn judge(
    workload: &str,
    opts: &RunOptions,
    outcome: &Outcome,
    peak_rss_mb: f64,
) -> Result<Report, String> {
    let reps = &outcome.reps;
    let first = reps.first().ok_or("no repetition finished")?;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.attempted + 1;
        failures.extend(
            rep.failures
                .iter()
                .map(|f| format!("repetition {}: {f}", i + 1)),
        );
        for (mine, theirs) in rep.exact.iter().zip(&first.exact) {
            if mine != theirs {
                failures.push(format!(
                    "repetition {}: {} is {}, the first repetition had {}",
                    i + 1,
                    mine.0,
                    exact_text(mine.0, mine.1),
                    exact_text(theirs.0, theirs.1)
                ));
            }
        }
    }
    if let Some(problem) = &outcome.trace_problem {
        failures.push(format!("trace: {problem}"));
    }

    let pinned = opts.seed == DEFAULT_SEED && !opts.quick;
    if pinned && opts.bless {
        bless(workload, &first.exact)?;
    } else if pinned {
        attempted += 1;
        let expected = JsonValue::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
        let pins = expected.get(workload);
        for (name, value) in &first.exact {
            let pin = pins
                .and_then(|p| p.get(name))
                .and_then(JsonValue::as_str)
                .and_then(parse_exact);
            if pin != Some(*value) {
                failures.push(format!(
                    "{name} is {}, expected.json pins {}",
                    exact_text(name, *value),
                    pin.map_or("nothing".into(), |p| exact_text(name, p)),
                ));
            }
        }
    }

    let stats = if opts.trace {
        PER_LAYER
            .iter()
            .map(|m| Stat {
                name: m.name,
                unit: m.unit,
                samples: vec![outcome.layers.get(m.name).copied().unwrap_or(0.0)],
            })
            .collect()
    } else {
        let of = |f: fn(&crate::harness::Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
        let samples = [
            of(|r| r.setup_s),
            of(|r| r.pipeline_s),
            of(|r| r.work / r.work_s),
            vec![peak_rss_mb],
        ];
        END_TO_END
            .iter()
            .zip(samples)
            .map(|((m, _), samples)| Stat {
                name: m.name,
                unit: m.unit,
                samples,
            })
            .collect()
    };
    if let Some(stray) = outcome
        .layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("{stray} is reported but not listed in metrics.rs"));
    }
    Ok(Report {
        workload: workload.to_string(),
        stats,
        exact: first.exact.clone(),
        attempted,
        failures,
        repetitions: reps.len(),
    })
}

fn bless(workload: &str, exact: &[(&'static str, u64)]) -> Result<(), String> {
    let current =
        std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    let doc = JsonValue::parse(&current).map_err(|e| format!("expected.json: {e}"))?;
    let mut members: Vec<(String, JsonValue)> = doc.as_object().unwrap_or(&[]).to_vec();
    members.retain(|(name, _)| name != workload);
    members.push((
        workload.to_string(),
        JsonValue::Object(
            exact
                .iter()
                .map(|(name, value)| (name.to_string(), JsonValue::str(exact_text(name, *value))))
                .collect(),
        ),
    ));
    members.sort_by_key(|(name, _)| WORKLOADS.iter().position(|w| w.0 == name));
    let mut text = String::from("{\n");
    for (i, (name, pins)) in members.iter().enumerate() {
        text.push_str(&format!("  \"{name}\": {{\n"));
        let pins = pins.as_object().unwrap_or(&[]);
        for (j, (key, value)) in pins.iter().enumerate() {
            let comma = if j + 1 < pins.len() { "," } else { "" };
            text.push_str(&format!("    \"{key}\": {value}{comma}\n"));
        }
        text.push_str(if i + 1 < members.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    text.push_str("}\n");
    std::fs::write(EXPECTED_PATH, text).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    eprintln!("blessed {workload} in {EXPECTED_PATH}; rebuild to check against it");
    Ok(())
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human table: `workload metric value unit`, one line each.
    pub fn table(&self) -> String {
        self.stats
            .iter()
            .map(|s| format!("{} {} {} {}\n", self.workload, s.name, s.value(), s.unit))
            .collect()
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .stats
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Float(s.value())),
                        ("unit".into(), JsonValue::str(s.unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Int(self.attempted as i64)),
            ("failed".into(), JsonValue::Int(self.failures.len() as i64)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .to_string()
    }

    /// `<workload>.result.json` — or, for the traced pass,
    /// `<workload>.layers.json` and `<workload>.trace.json` — under `dir`:
    /// every metric with median, min, max, MAD, n and the samples, the
    /// exact values, and what the numbers were taken on.
    pub fn write(
        &self,
        dir: &Path,
        opts: &RunOptions,
        scratch: &Scratch,
        tracer: &Tracer,
    ) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
        let num = JsonValue::Float;
        let metrics = self
            .stats
            .iter()
            .map(|s| {
                let min = s.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let max = s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (
                    s.name.to_string(),
                    JsonValue::Object(vec![
                        ("unit".into(), JsonValue::str(s.unit)),
                        ("median".into(), num(s.value())),
                        ("min".into(), num(min)),
                        ("max".into(), num(max)),
                        ("mad".into(), num(mad(&s.samples))),
                        ("n".into(), JsonValue::Int(s.samples.len() as i64)),
                        (
                            "samples".into(),
                            JsonValue::Array(s.samples.iter().copied().map(num).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let exact = self
            .exact
            .iter()
            .map(|(name, value)| (name.to_string(), JsonValue::str(exact_text(name, *value))))
            .collect();
        let doc = JsonValue::Object(vec![
            ("workload".into(), JsonValue::str(&*self.workload)),
            ("seed".into(), JsonValue::Int(opts.seed as i64)),
            ("seconds".into(), num(opts.seconds)),
            ("trace".into(), JsonValue::Bool(opts.trace)),
            ("quick".into(), JsonValue::Bool(opts.quick)),
            (
                "repetitions".into(),
                JsonValue::Int(self.repetitions as i64),
            ),
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Int(self.attempted as i64)),
            (
                "failures".into(),
                JsonValue::Array(self.failures.iter().map(JsonValue::str).collect()),
            ),
            ("host".into(), host(scratch)),
            ("metrics".into(), JsonValue::Object(metrics)),
            ("exact".into(), JsonValue::Object(exact)),
        ]);
        let stem = if opts.trace { "layers" } else { "result" };
        let path = dir.join(format!("{}.{stem}.json", self.workload));
        std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{path:?}: {e}"))?;
        if opts.trace {
            let path = dir.join(format!("{}.trace.json", self.workload));
            std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{path:?}: {e}"))?;
        }
        Ok(())
    }
}

/// What is recorded with every result: core count, scratch file system,
/// compiler, revision.
fn host(scratch: &Scratch) -> JsonValue {
    let output_of = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::Object(vec![
        ("nproc".into(), JsonValue::Int(nproc as i64)),
        (
            "scratch".into(),
            JsonValue::str(scratch.root().display().to_string()),
        ),
        (
            "scratch_filesystem".into(),
            JsonValue::str(scratch.filesystem()),
        ),
        ("rustc".into(), JsonValue::str(output_of("rustc", &["-V"]))),
        (
            "revision".into(),
            JsonValue::str(output_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

// ---- compare ------------------------------------------------------------------

struct Side {
    median: f64,
    min: f64,
    max: f64,
}

fn side(dir: &Path, workload: &str, metric: &str) -> Result<Side, String> {
    let path = dir.join(format!("{workload}.result.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let entry = doc
        .get("metrics")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("{path:?} has no metric {metric}"))?;
    let field = |name: &str| {
        entry
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{path:?}: {metric}.{name} is not a number"))
    };
    Ok(Side {
        median: field("median")?,
        min: field("min")?,
        max: field("max")?,
    })
}

/// `compare A_DIR B_DIR`: one row per workload × end-to-end metric with
/// both medians, the ratio and its base, and a verdict under the metric's
/// bound. Returns whether any row reads `worse`.
///
/// * `unresolved` — the repetitions of the two sets overlap and either
///   set's own min–max range is wider than the bound: the runs cannot
///   tell a change of that size from noise;
/// * `better` / `worse` — B's median is beyond the bound on that side;
/// * `same` — within the bound.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>9}  {:<10} verdict",
        "workload", "metric", "A median", "B median", "B/A", "base"
    );
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        for (metric, bound) in &END_TO_END {
            let a = side(a_dir, workload, metric.name)?;
            let b = side(b_dir, workload, metric.name)?;
            let ratio = b.median / a.median;
            let worse_by = if metric.better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let overlap = a.min <= b.max && b.min <= a.max;
            let spread = ((a.max - a.min) / a.median).max((b.max - b.min) / b.median);
            let verdict = if overlap && spread > *bound {
                "unresolved"
            } else if worse_by > *bound {
                any_worse = true;
                "worse"
            } else if worse_by < -*bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<15} {:<12} {:>14.6} {:>14.6} {ratio:>9.4}  {:<10} {verdict} (bound {bound}, spread {spread:.3})",
                metric.name, a.median, b.median, "A median"
            );
        }
    }
    Ok(any_worse)
}
