//! The published artifacts: every `results/<study>.txt` is exactly what
//! `excovery paper <study>` prints, byte for byte, and the study table is
//! exactly those files plus `cs8_chaos_recovery`, whose output carries
//! wall times and is checked by its own verdict line instead.
//!
//! The case studies that fan out over `--workers` threads (CS-1 and CS-3
//! to CS-8) are also run at 1 and 4 workers, against the same files and
//! the same verdict line. Re-bless an intended change with
//! `EXCOVERY_BLESS=1 cargo test --test paper_results`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The study that prints wall time and so has no `results/` file.
const TIMED_STUDY: &str = "cs8_chaos_recovery";

/// The studies with a `results/` file that fan experiments out over
/// `--workers` threads.
const FAN_OUT_STUDIES: [&str; 6] = [
    "cs1_responsiveness_loss",
    "cs3_responsiveness_hops",
    "cs4_architecture_compare",
    "cs5_ablation_backoff",
    "cs6_model_vs_experiment",
    "cs7_ablation_suppression",
];

/// The explicit worker counts the fan-out studies also run at.
const WORKER_COUNTS: [&str; 2] = ["1", "4"];

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_excovery"))
        .arg("paper")
        .args(args)
        .output()
        .expect("binary runs")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The study table, as the verb lists it when no study is named.
fn studies() -> Vec<String> {
    let out = paper(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let list = err
        .split_once("(one of: ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .unwrap_or_else(|| panic!("no study list in {err:?}"))
        .0;
    list.split(", ").map(str::to_string).collect()
}

/// The stems of the `results/*.txt` files, sorted.
fn result_stems() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    stems.sort();
    stems
}

/// What `excovery paper <study> <flags>` prints; fails if the study fails.
fn printed(study: &str, flags: &[&str]) -> Vec<u8> {
    let out = paper(&[&[study], flags].concat());
    assert!(
        out.status.success(),
        "excovery paper {study} {flags:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// How `got` departs from `results/<study>.txt`, or `None` if it does not.
fn drift(study: &str, got: &[u8]) -> Option<String> {
    let Ok(want) = std::fs::read(results_dir().join(format!("{study}.txt"))) else {
        return Some(format!("{study}: results/{study}.txt is missing"));
    };
    (got != want).then(|| {
        let got = String::from_utf8_lossy(got);
        let want = String::from_utf8_lossy(&want);
        format!("{study}: {}", first_difference(&got, &want))
    })
}

/// Where `got` first departs from `want`, for the failure message.
fn first_difference(got: &str, want: &str) -> String {
    let (got_lines, want_lines): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    match got_lines.iter().zip(&want_lines).position(|(g, w)| g != w) {
        Some(i) => format!(
            "line {}\n    printed: {:?}\n    results: {:?}",
            i + 1,
            got_lines[i],
            want_lines[i]
        ),
        None => format!(
            "printed {} lines ({} bytes), results has {} ({} bytes)",
            got_lines.len(),
            got.len(),
            want_lines.len(),
            want.len()
        ),
    }
}

#[test]
fn every_results_file_is_what_its_study_prints() {
    let bless = std::env::var_os("EXCOVERY_BLESS").is_some();
    let mut drifted = Vec::new();
    for study in studies().iter().filter(|s| *s != TIMED_STUDY) {
        let got = printed(study, &[]);
        if bless {
            std::fs::write(results_dir().join(format!("{study}.txt")), &got).unwrap();
            continue;
        }
        drifted.extend(drift(study, &got));
    }
    assert!(
        drifted.is_empty(),
        "results/ differs from what `excovery paper` prints (re-bless with \
         EXCOVERY_BLESS=1 if intended):\n  {}",
        drifted.join("\n  ")
    );
}

#[test]
fn fan_out_studies_print_their_results_at_1_and_4_workers() {
    let mut drifted = Vec::new();
    for workers in WORKER_COUNTS {
        for study in FAN_OUT_STUDIES {
            let got = printed(study, &["--workers", workers]);
            drifted.extend(drift(study, &got).map(|d| format!("--workers {workers}: {d}")));
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

#[test]
fn the_study_table_is_the_results_files_plus_the_timed_study() {
    let mut want = result_stems();
    want.push(TIMED_STUDY.to_string());
    want.sort();
    let mut got = studies();
    got.sort();
    assert_eq!(got, want, "study table vs results/*.txt + {TIMED_STUDY}");
}

/// At the default worker count and at each of [`WORKER_COUNTS`].
#[test]
fn chaos_recovery_reproduces_every_fault_free_digest() {
    let explicit = WORKER_COUNTS.map(|w| vec!["--workers", w]);
    for flags in std::iter::once(Vec::new()).chain(explicit) {
        let text = String::from_utf8(printed(TIMED_STUDY, &flags)).unwrap();
        assert!(
            text.ends_with("\nall chaotic executions reproduced their fault-free digests\n"),
            "{flags:?}: {text}"
        );
    }
}
