//! The published artifacts: every `results/<study>.txt` is exactly what
//! `excovery paper <study>` prints, byte for byte, and the study table is
//! exactly those files plus `cs8_chaos_recovery`, whose output carries
//! wall times and is checked by its own verdict line instead.
//!
//! The case studies that fan out over `EXCOVERY_WORKERS` threads inherit
//! the variable from this process, so running the suite at several worker
//! counts shows the results do not depend on it. Re-bless an intended
//! change with `EXCOVERY_BLESS=1 cargo test --test paper_results`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The study that prints wall time and so has no `results/` file.
const TIMED_STUDY: &str = "cs8_chaos_recovery";

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
        let out = paper(&[study]);
        assert!(
            out.status.success(),
            "excovery paper {study} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = results_dir().join(format!("{study}.txt"));
        if bless {
            std::fs::write(&path, &out.stdout).unwrap();
            continue;
        }
        let Ok(want) = std::fs::read(&path) else {
            drifted.push(format!("{study}: results/{study}.txt is missing"));
            continue;
        };
        if out.stdout != want {
            let got = String::from_utf8_lossy(&out.stdout);
            let want = String::from_utf8_lossy(&want);
            drifted.push(format!("{study}: {}", first_difference(&got, &want)));
        }
    }
    assert!(
        drifted.is_empty(),
        "results/ differs from what `excovery paper` prints (re-bless with \
         EXCOVERY_BLESS=1 if intended):\n  {}",
        drifted.join("\n  ")
    );
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

#[test]
fn chaos_recovery_reproduces_every_fault_free_digest() {
    let out = paper(&[TIMED_STUDY]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.ends_with("\nall chaotic executions reproduced their fault-free digests\n"),
        "{text}"
    );
}
