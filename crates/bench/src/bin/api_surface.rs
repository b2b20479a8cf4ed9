//! Public-API surface snapshot: walks every crate's sources, extracts the
//! `pub` item declarations and diffs them against the committed
//! `API_SURFACE.txt` baseline.
//!
//! The point is to make API changes *visible in review*: any PR that adds,
//! removes or renames an exported item must also touch the baseline, so
//! accidental surface growth (or silent breakage) cannot slip through CI.
//!
//! Usage:
//!   api_surface [repo-root]        # diff against API_SURFACE.txt, exit 1 on drift
//!   EXCOVERY_BLESS=1 api_surface   # rewrite the baseline
//!
//! The extractor is a line scanner, not a parser: it records the first
//! line of every `pub` declaration (fn/struct/enum/trait/type/const/
//! static/mod/use/macro) outside `#[cfg(test)]` regions, normalized by
//! stripping trailing `{`/`;`/`(` punctuation. That is deliberately
//! simple — stable snapshots beat complete signatures.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const BASELINE: &str = "API_SURFACE.txt";

const PUB_PREFIXES: [&str; 12] = [
    "pub fn ",
    "pub async fn ",
    "pub unsafe fn ",
    "pub const fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
    "pub use ",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extracts the normalized `pub` declaration lines of one source file,
/// ignoring everything from the first `#[cfg(test)]` on (test modules sit
/// at the bottom of every file in this repo).
fn pub_items(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    for line in source.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let t = line.trim_start();
        if !PUB_PREFIXES.iter().any(|p| t.starts_with(p)) {
            continue;
        }
        let norm = t
            .trim_end()
            .trim_end_matches('{')
            .trim_end_matches('(')
            .trim_end_matches(';')
            .trim_end()
            .to_string();
        items.push(norm);
    }
    items
}

fn surface(root: &Path) -> String {
    let mut files = Vec::new();
    for crate_dir in ["crates", "src"] {
        rust_sources(&root.join(crate_dir), &mut files);
    }
    files.retain(|p| {
        // Only library surface: skip examples, bins, tests and the
        // test-support crate (a dev-dependency, never linked into a library).
        let rel = p.strip_prefix(root).unwrap_or(p);
        let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
        parts.contains(&"src")
            && !parts.contains(&"bin")
            && !parts.contains(&"tests")
            && !parts.contains(&"proptest-lite")
    });
    let mut lines = Vec::new();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        for item in pub_items(&text) {
            lines.push(format!("{rel}: {item}"));
        }
    }
    lines.sort();
    let mut out = String::with_capacity(lines.len() * 64);
    for l in &lines {
        let _ = writeln!(out, "{l}");
    }
    out
}

fn main() -> Result<(), String> {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".into()));
    let got = surface(&root);
    let baseline_path = root.join(BASELINE);
    if std::env::var("EXCOVERY_BLESS").is_ok() {
        fs::write(&baseline_path, &got).map_err(|e| e.to_string())?;
        eprintln!(
            "blessed {} ({} items)",
            baseline_path.display(),
            got.lines().count()
        );
        return Ok(());
    }
    let want = fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "{}: {e} (run with EXCOVERY_BLESS=1 to create)",
            baseline_path.display()
        )
    })?;
    if got == want {
        eprintln!("API surface unchanged ({} items)", got.lines().count());
        return Ok(());
    }
    let got_set: std::collections::BTreeSet<&str> = got.lines().collect();
    let want_set: std::collections::BTreeSet<&str> = want.lines().collect();
    for item in want_set.difference(&got_set) {
        println!("- {item}");
    }
    for item in got_set.difference(&want_set) {
        println!("+ {item}");
    }
    Err(format!(
        "public API surface drifted from {BASELINE} — review the diff above and re-bless with \
         EXCOVERY_BLESS=1 if intentional"
    ))
}
