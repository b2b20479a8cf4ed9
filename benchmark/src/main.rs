//! The benchmark of the excovery workspace: XML description in, query
//! `Frame` out, five workloads, one number per layer crossed.
//!
//! It drives every layer from outside through public functions only, with
//! the library's defaults, so a change of a default shows up without
//! editing the benchmark. See `README.md` beside this crate.
//!
//! ```text
//! excovery-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                    [--quick] [--out DIR] [--bless]
//! excovery-benchmark all [--seed N] [--seconds S] [--quick] [--out DIR]
//! excovery-benchmark selfcheck
//! excovery-benchmark compare A_DIR B_DIR
//! excovery-benchmark manifest
//! ```

mod campaign;
mod harness;
mod metrics;
mod netsim_mesh;
mod probes;
mod report;
mod selfcheck;
mod server_tenants;
mod warehouse;

use harness::{measure, peak_rss_mb, RunOptions, Scratch, Tracer, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("selfcheck") => selfcheck::random_stream()
            .and_then(|()| selfcheck::golden_digest())
            .and_then(|()| selfcheck::flood_row())
            .map(|()| println!("selfcheck passed")),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)).and_then(|any_worse| {
                if any_worse {
                    Err("a metric reads worse".into())
                } else {
                    Ok(())
                }
            }),
            _ => Err("usage: compare A_DIR B_DIR".into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(())
        }
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad value for {flag}: {text}")),
    }
}

fn options(args: &[String]) -> Result<RunOptions, String> {
    Ok(RunOptions {
        seed: parsed(args, "--seed", report::DEFAULT_SEED)?,
        seconds: parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        quick: args.iter().any(|a| a == "--quick"),
        out: value_of(args, "--out").map(PathBuf::from),
        bless: args.iter().any(|a| a == "--bless"),
    })
}

/// One workload, one process: the driver's interface. Prints the metric
/// table and, as the last line of stdout, the result object.
fn run(args: &[String]) -> Result<(), String> {
    let name = value_of(args, "--workload")
        .ok_or("usage: --workload NAME --seed N --seconds S --trace 0|1 (or: all, selfcheck, compare, manifest)")?;
    let opts = options(args)?;
    let mut workload: Box<dyn Workload> = match name {
        "cs1_long" => Box::new(campaign::cs1_long(&opts)),
        "mesh100_wide" => Box::new(campaign::mesh100_wide(&opts)),
        "netsim_mesh" => Box::new(netsim_mesh::netsim_mesh(&opts)),
        "warehouse" => Box::new(warehouse::warehouse(&opts)),
        "server_tenants" => Box::new(server_tenants::server_tenants(&opts)),
        other => {
            let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other}; one of {}",
                known.join(", ")
            ));
        }
    };
    let mut scratch = Scratch::create()?;
    selfcheck::random_stream()?;
    selfcheck::golden_digest()?;

    let mut tracer = Tracer::new(opts.trace);
    let outcome = measure(workload.as_mut(), &opts, &mut scratch, &mut tracer)?;
    drop(workload);
    let report = report::judge(name, &opts, &outcome, peak_rss_mb())?;
    for failure in &report.failures {
        eprintln!("failed: {failure}");
    }
    eprintln!(
        "{name}: {} repetitions in {:.1} s, scratch on {} at {}",
        report.repetitions,
        outcome.wall.as_secs_f64(),
        scratch.filesystem(),
        scratch.root().display(),
    );
    if let Some(dir) = &opts.out {
        report.write(dir, &opts, &scratch, &tracer)?;
    }
    print!("{}", report.table());
    println!("{}", report.contract_line());
    if report.correct() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} operations failed",
            report.failures.len(),
            report.attempted
        ))
    }
}

/// Every workload, untraced then traced, each in a process of its own so
/// that `peak_rss_mb` is per workload. Writes the result set to `--out`
/// (default `benchmark/out`).
fn all(args: &[String]) -> Result<(), String> {
    selfcheck::random_stream()?;
    selfcheck::golden_digest()?;
    selfcheck::flood_row()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = value_of(args, "--out").unwrap_or(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut failed = Vec::new();
    for (workload, _) in metrics::WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace, "--out", out])
                .args(args.iter().filter(|a| a.as_str() != "--bless"))
                .stdout(std::process::Stdio::inherit())
                .status()
                .map_err(|e| format!("run {workload}: {e}"))?;
            if !status.success() {
                failed.push(format!("{workload} (trace {trace})"));
            }
        }
    }
    if failed.is_empty() {
        eprintln!("result set written to {out}");
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}
