//! The build is a function of the repository alone: every dependency of
//! every workspace manifest is a path dependency, and the committed lock
//! file records no registry or git source. A registry crate cannot creep
//! back unnoticed — `--offline --locked` would stop building, and this
//! test says why.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_manifests(root: &Path) -> Vec<PathBuf> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "members not found: {manifests:?}");
    manifests
}

/// The dependency entries of a manifest that resolve outside the tree:
/// anything in a `*dependencies` table that neither inherits from
/// `[workspace.dependencies]` (checked in the root manifest) nor names a
/// `path`.
fn non_path_dependencies(manifest: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut in_dependencies = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let table = header.trim_end_matches(']').trim_matches('[');
            in_dependencies = table.ends_with("dependencies");
            // `[dependencies.name]` spreads one entry over a table; the
            // workspace writes entries inline, and so can be checked by line.
            if table.contains("dependencies.") {
                found.push(line.to_string());
            }
            continue;
        }
        if !in_dependencies || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let inherits = line.split_once('=').is_some_and(|(key, value)| {
            key.trim().ends_with(".workspace") && value.trim() == "true"
        });
        if !inherits && !line.contains("path =") {
            found.push(line.to_string());
        }
    }
    found
}

#[test]
fn every_manifest_dependency_is_a_path_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for manifest in workspace_manifests(root) {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        let outside = non_path_dependencies(&text);
        assert!(
            outside.is_empty(),
            "{}: not path dependencies: {outside:?}",
            manifest.display()
        );
    }
}

#[test]
fn committed_lock_file_records_no_external_source() {
    let lock = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let text = fs::read_to_string(&lock).expect("Cargo.lock is committed beside Cargo.toml");
    let sources: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(sources.is_empty(), "external sources: {sources:?}");
    assert!(
        text.contains("name = \"excovery-rng\""),
        "lock file is stale"
    );
}

#[test]
fn the_check_sees_a_registry_dependency() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n\
                    excovery-xml.workspace = true\nrand = \"0.8\"\n\
                    local = { path = \"../local\" }\n\n[dev-dependencies]\n\
                    serde = { version = \"1\", features = [\"derive\"] }\n\n\
                    [dependencies.bytes]\nversion = \"1\"\n";
    assert_eq!(
        non_path_dependencies(manifest),
        [
            "rand = \"0.8\"",
            "serde = { version = \"1\", features = [\"derive\"] }",
            "[dependencies.bytes]"
        ]
    );
}
