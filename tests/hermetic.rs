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

/// The allowed internal `[dependencies]` of every member under `crates/`,
/// by directory name: the crate graph printed in DESIGN.md §3. Adding an
/// edge is a layering decision, made here and there, not only in a
/// manifest.
const CRATE_GRAPH: &[(&str, &[&str])] = &[
    ("rng", &[]),
    ("obs", &[]),
    ("xml", &[]),
    ("proptest-lite", &["rng"]),
    ("desc", &["rng", "xml"]),
    ("netsim", &["obs", "rng"]),
    ("rpc", &["obs", "xml"]),
    ("sd", &["netsim", "rng"]),
    ("store", &["obs"]),
    ("query", &["obs", "rpc", "store"]),
    (
        "core",
        &["desc", "netsim", "obs", "rng", "rpc", "sd", "store", "xml"],
    ),
    ("analysis", &["desc", "netsim", "query", "store", "xml"]),
    ("server", &["core", "desc", "obs", "query", "rpc", "store"]),
];

/// The workspace crates a manifest builds against, without their
/// `excovery-` prefix, sorted: every `excovery-*` key of a `*dependencies`
/// table other than `[dev-dependencies]`.
fn internal_dependencies(manifest: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut in_dependencies = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let table = header.trim_end_matches(']');
            in_dependencies =
                table.ends_with("dependencies") && !table.ends_with("dev-dependencies");
            continue;
        }
        if !in_dependencies {
            continue;
        }
        let key = line.split('=').next().unwrap_or("").trim();
        let name = key.strip_suffix(".workspace").unwrap_or(key);
        if let Some(member) = name.strip_prefix("excovery-") {
            found.push(member.to_string());
        }
    }
    found.sort();
    found
}

/// `Err` naming the difference when `manifest` does not build against
/// exactly the crates [`CRATE_GRAPH`] allows `member`.
fn check_layering(member: &str, manifest: &str) -> Result<(), String> {
    let allowed = CRATE_GRAPH
        .iter()
        .find(|(name, _)| *name == member)
        .map(|(_, deps)| deps.to_vec())
        .ok_or_else(|| format!("{member}: not in CRATE_GRAPH"))?;
    let actual = internal_dependencies(manifest);
    let extra: Vec<&String> = actual
        .iter()
        .filter(|d| !allowed.contains(&d.as_str()))
        .collect();
    let missing: Vec<&&str> = allowed
        .iter()
        .filter(|d| !actual.iter().any(|a| a == *d))
        .collect();
    if extra.is_empty() && missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{member}: forbidden edges {extra:?}, missing edges {missing:?}"
        ))
    }
}

#[test]
fn every_crate_depends_on_exactly_its_allowed_layers() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut members = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let member = dir.file_name().unwrap().to_string_lossy().into_owned();
        if let Err(e) = check_layering(&member, &text) {
            panic!("{e}");
        }
        members.push(member);
    }
    members.sort();
    let mut graph: Vec<String> = CRATE_GRAPH.iter().map(|(m, _)| m.to_string()).collect();
    graph.sort();
    assert_eq!(
        members, graph,
        "CRATE_GRAPH names a crate that does not exist"
    );
}

#[test]
fn the_layering_check_sees_a_forbidden_edge() {
    let query = "[package]\nname = \"excovery-query\"\n\n[dependencies]\n\
                 excovery-obs.workspace = true\nexcovery-store.workspace = true\n\
                 excovery-rpc.workspace = true\n\n[dev-dependencies]\n\
                 proptest.workspace = true\nexcovery-netsim.workspace = true\n";
    assert_eq!(check_layering("query", query), Ok(()));
    let with_netsim = query.replace(
        "excovery-rpc.workspace = true\n",
        "excovery-rpc.workspace = true\nexcovery-netsim = { path = \"../netsim\" }\n",
    );
    let err = check_layering("query", &with_netsim).unwrap_err();
    assert!(err.contains("forbidden edges [\"netsim\"]"), "{err}");
    let without_rpc = query.replace("excovery-rpc.workspace = true\n", "");
    let err = check_layering("query", &without_rpc).unwrap_err();
    assert!(err.contains("missing edges [\"rpc\"]"), "{err}");
    assert!(check_layering("scratch", query).is_err());
}
