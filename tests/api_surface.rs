//! Public-API surface snapshot: walks every crate's sources, extracts the
//! `pub` item declarations and diffs them against the committed
//! `API_SURFACE.txt` baseline.
//!
//! The point is to make API changes *visible in review*: any change that
//! adds, removes or renames an exported item must also touch the
//! baseline, so accidental surface growth (or silent breakage) cannot
//! slip through. Re-bless an intentional change with
//! `EXCOVERY_BLESS=1 cargo test --test api_surface`.
//!
//! The extractor is a line scanner, not a parser: it records the first
//! line of every `pub` declaration (fn/struct/enum/trait/type/const/
//! static/mod/use) outside `#[cfg(test)]` regions, normalized by
//! stripping trailing `{`/`;`/`(` punctuation. That is deliberately
//! simple — stable snapshots beat complete signatures.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

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

/// Extracts the normalized `pub` declaration lines of one source file,
/// ignoring everything from the first `#[cfg(test)]` on (test modules sit
/// at the bottom of every file in this repo).
fn pub_items(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .map(str::trim)
        .filter(|t| PUB_PREFIXES.iter().any(|p| t.starts_with(p)))
        .map(|t| {
            t.trim_end_matches('{')
                .trim_end_matches('(')
                .trim_end_matches(';')
                .trim_end()
        })
}

/// Appends `<path>: <item>` for each `pub` item of every library source
/// under `dir`; a file counts once a `src` directory is on its path.
/// Bins, tests, build output and the test-support crate (a
/// dev-dependency, never linked into a library) are not surface.
fn collect(root: &Path, dir: &Path, in_src: bool, lines: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !["bin", "tests", "target", "proptest-lite"].contains(&name) {
                collect(root, &path, in_src || name == "src", lines);
            }
        } else if in_src && name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy();
            let rel = rel.replace('\\', "/");
            let text = fs::read_to_string(&path).unwrap();
            lines.extend(pub_items(&text).map(|item| format!("{rel}: {item}\n")));
        }
    }
}

fn surface(root: &Path) -> String {
    let mut lines = Vec::new();
    for dir in ["crates", "src"] {
        collect(root, &root.join(dir), dir == "src", &mut lines);
    }
    lines.sort();
    lines.concat()
}

#[test]
fn public_api_matches_the_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let got = surface(root);
    let baseline_path = root.join(BASELINE);
    if std::env::var_os("EXCOVERY_BLESS").is_some() {
        fs::write(&baseline_path, &got).unwrap();
        eprintln!(
            "blessed {} ({} items)",
            baseline_path.display(),
            got.lines().count()
        );
        return;
    }
    let want = fs::read_to_string(&baseline_path)
        .expect("read API_SURFACE.txt (create it with EXCOVERY_BLESS=1)");
    if got == want {
        return;
    }
    let got_set: BTreeSet<&str> = got.lines().collect();
    let want_set: BTreeSet<&str> = want.lines().collect();
    let mut diff = String::new();
    for item in want_set.difference(&got_set) {
        diff.push_str(&format!("- {item}\n"));
    }
    for item in got_set.difference(&want_set) {
        diff.push_str(&format!("+ {item}\n"));
    }
    panic!(
        "public API surface drifted from {BASELINE}:\n{diff}review the diff and re-bless with \
         EXCOVERY_BLESS=1 if intentional"
    );
}
