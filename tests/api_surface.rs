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
//!
//! A second check keeps the list short: every listed item must be named
//! somewhere outside its defining crate's `src/` (another crate's `src/`,
//! the CLI under `src/bin`, `tests/`, a crate's `tests/`, `examples/` or
//! `benchmark/src/`), or carry an [`ALLOWLIST`] line saying why it stays
//! public. Anything else belongs at `pub(crate)` or below. Only code
//! counts as naming an item: comments and string and char literals are
//! blanked first. The match is by name, not by path, so a common method
//! name (`new`, `len`) passes once any outside code uses that name; the
//! check catches distinctively named unused items, not every one.

use std::collections::{BTreeMap, BTreeSet};
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

/// Listed items that stay public with no name outside their crate, each
/// with the reason. All are types or traits that appear in the signature
/// of an item callers do use, so callers reach them by inference. A line
/// that matches no listed item fails the check.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/analysis/src/model.rs: pub struct Attempt",
        "returned by `ResponsivenessModel::attempts`, which the CLI's `model` verb prints",
    ),
    (
        "crates/analysis/src/runs.rs: pub struct Discovery",
        "element of the public `DiscoveryEpisode::discoveries`",
    ),
    (
        "crates/analysis/src/verify.rs: pub struct Inconsistency",
        "returned by `verify_all`, whose findings `excovery report` prints",
    ),
    (
        "crates/core/src/master/config.rs: pub struct EngineConfigBuilder",
        "returned by `EngineConfig::builder`",
    ),
    (
        "crates/core/src/master/ctx.rs: pub struct PluginCtx<'a>",
        "argument of the callback `ExperiMaster::register_plugin` takes",
    ),
    (
        "crates/core/src/master/outcome.rs: pub struct RunOutcome",
        "element of the public `ExperimentOutcome::runs`",
    ),
    (
        "crates/desc/src/factors.rs: pub struct Replication",
        "type of the public `FactorList::replication`",
    ),
    (
        "crates/desc/src/model.rs: pub struct DescError(pub String)",
        "error of `from_xml`, `validate_strict` and the description constructors",
    ),
    (
        "crates/desc/src/platform.rs: pub struct NodeSpec",
        "element of the public `PlatformSpec` node lists",
    ),
    (
        "crates/desc/src/validate.rs: pub struct Finding",
        "returned by `validate` and carried by `validate_strict`'s error",
    ),
    (
        "crates/netsim/src/clock.rs: pub struct NodeClock",
        "returned by `Simulator::clock`",
    ),
    (
        "crates/netsim/src/clock.rs: pub struct SyncMeasurement",
        "returned by `Simulator::measure_sync`",
    ),
    (
        "crates/netsim/src/fasthash.rs: pub struct FastHasher",
        "hasher of the public `FastHashMap`",
    ),
    (
        "crates/netsim/src/params.rs: pub struct EventStr(Cow<'static, str>)",
        "type of `ProtocolEvent::name` and of `EventParams` entries",
    ),
    (
        "crates/obs/src/metrics.rs: pub struct HistogramSnapshot",
        "value type of the public `Snapshot::histograms`",
    ),
    (
        "crates/obs/src/span.rs: pub struct SpanRecord",
        "returned by `Tracer::drain`",
    ),
    (
        "crates/obs/src/span.rs: pub trait Clock",
        "bound of `SpanTimer::start` and `SpanTimer::finish`; a test clock implements it",
    ),
    (
        "crates/query/src/dataset.rs: pub struct DatasetBuilder",
        "returned by `Dataset::builder`",
    ),
    (
        "crates/query/src/expr.rs: pub enum CmpOp",
        "operand of the public `Expr::Cmp`",
    ),
    (
        "crates/query/src/slab_io.rs: pub struct PartitionFooter",
        "yielded by `SpillStore::footers`",
    ),
    (
        "crates/query/src/spill.rs: pub struct SpillStore",
        "returned by `Dataset::spill_store`",
    ),
    (
        "crates/rng/src/lib.rs: pub trait SampleRange<T>",
        "bound of `Rng::gen_range`",
    ),
    (
        "crates/rng/src/lib.rs: pub trait Standard: Sized",
        "bound of `Rng::gen`",
    ),
    (
        "crates/rpc/src/reactor.rs: pub struct DispatchOutcome",
        "returned by `Reactor::dispatch`",
    ),
    (
        "crates/sd/src/agent.rs: pub struct SdStats",
        "returned by `SdAgent::stats`",
    ),
    (
        "crates/server/src/repo.rs: pub struct JobRecord",
        "returned by `ServerRepo::job` and `ServerRepo::jobs`",
    ),
    (
        "crates/server/src/scheduler.rs: pub struct RoundReport",
        "returned by `Scheduler::tick` and `ExperimentServer::tick`",
    ),
    (
        "crates/server/src/scheduler.rs: pub struct SliceReport",
        "element of the public `RoundReport::slices`",
    ),
    (
        "crates/server/src/standing.rs: pub struct StandingRegistry",
        "returned by `ExperimentServer::standing`",
    ),
    (
        "crates/store/src/repository.rs: pub struct RepoEntry",
        "returned by `Repository::index`",
    ),
];

/// Directories whose `.rs` files can name an item from outside its crate
/// (library sources included: they name each other's items).
const USE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// The keywords a non-`use` listed item starts with after `pub `, longest
/// first where one prefixes another.
const DECL_KEYWORDS: [&str; 11] = [
    "async fn ",
    "unsafe fn ",
    "const fn ",
    "fn ",
    "struct ",
    "enum ",
    "trait ",
    "type ",
    "const ",
    "static ",
    "mod ",
];

/// The library `src/` directory a file belongs to, or `None` for a file
/// of no library: a test, an example, the CLI or the benchmark. The CLI
/// lives under the facade's `src/bin` but is a crate of its own, so it
/// names the facade's items from outside.
fn owner(path: &str) -> Option<&str> {
    if path.starts_with("src/bin/") {
        return None;
    }
    if path.starts_with("src/") {
        return Some("src/");
    }
    let krate = path.strip_prefix("crates/")?.split('/').next()?;
    let dir = &path[..("crates/".len() + krate.len() + "/src/".len()).min(path.len())];
    dir.ends_with("/src/").then_some(dir)
}

/// The names an item declares: the identifier after its keyword, or for
/// a `pub use` every name it re-exports (its alias, else its last path
/// segment). `statement` is the item's whole declaration.
fn item_names(statement: &str) -> Vec<String> {
    let decl = statement.trim_start_matches("pub ");
    if let Some(path) = decl.strip_prefix("use ") {
        let mut names = Vec::new();
        use_leaves(path.trim().trim_end_matches(';'), &mut names);
        return names;
    }
    let after_kw = DECL_KEYWORDS
        .iter()
        .find_map(|kw| decl.strip_prefix(kw))
        .unwrap_or("");
    let name: String = after_kw
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    vec![name]
}

/// Appends the names one `use` tree re-exports.
fn use_leaves(tree: &str, names: &mut Vec<String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let inner = &tree[open + 1..tree.rfind('}').unwrap_or(tree.len())];
        let mut depth = 0;
        let mut start = 0;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    use_leaves(&inner[start..i], names);
                    start = i + 1;
                }
                _ => {}
            }
        }
        use_leaves(&inner[start..], names);
    } else if let Some((_, alias)) = tree.split_once(" as ") {
        names.push(alias.trim().to_string());
    } else if !tree.is_empty() {
        let mut segments = tree.rsplit("::");
        let last = segments.next().unwrap_or(tree);
        let last = if last == "self" {
            segments.next().unwrap_or(last)
        } else {
            last
        };
        names.push(last.to_string());
    }
}

/// The whole statement a listed `pub use` line starts in `text`, so that
/// a re-export list spread over several lines yields all its names.
fn statement(item: &str, text: &str) -> String {
    let mut out = String::new();
    if item.starts_with("pub use ") {
        for line in text
            .lines()
            .map(str::trim)
            .skip_while(|l| !l.starts_with(item))
        {
            out.push_str(line);
            out.push(' ');
            if line.ends_with(';') {
                break;
            }
        }
    }
    if out.is_empty() {
        item.to_string()
    } else {
        out
    }
}

/// `text` with its comments and its string and char literals blanked out,
/// so that a name counts only where code names it. A lifetime (`'a`) is
/// code; a char literal (`'a'`, `'"'`, `'\\''`) is not.
fn code_only(text: &str) -> String {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while let Some(c) = text[i..].chars().next() {
        let rest = &text[i..];
        let after_ident = text[..i].chars().next_back().is_some_and(is_ident);
        let raw = rest
            .strip_prefix("br")
            .or_else(|| rest.strip_prefix('r'))
            .filter(|_| !after_ident)
            .map(|r| (r, r.len() - r.trim_start_matches('#').len()))
            .filter(|(r, hashes)| r[*hashes..].starts_with('"'));
        let skip = if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if rest.starts_with("/*") {
            let mut depth = 0;
            let mut j = 0;
            while j < rest.len() {
                if rest[j..].starts_with("/*") {
                    depth += 1;
                    j += 2;
                } else if rest[j..].starts_with("*/") {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += rest[j..].chars().next().map_or(1, char::len_utf8);
                }
            }
            j
        } else if let Some((r, hashes)) = raw {
            let close = format!("\"{}", "#".repeat(hashes));
            let body = rest.len() - r.len() + hashes + 1;
            body + rest[body..]
                .find(&close)
                .map_or(rest.len() - body, |e| e + close.len())
        } else if c == '"' {
            let mut chars = rest.char_indices().skip(1);
            let mut end = rest.len();
            while let Some((j, ch)) = chars.next() {
                if ch == '\\' {
                    chars.next();
                } else if ch == '"' {
                    end = j + 1;
                    break;
                }
            }
            end
        } else if c == '\'' {
            let mut chars = rest.char_indices().skip(1);
            match (chars.next(), chars.next()) {
                (Some((_, '\\')), _) => rest
                    .get(3..)
                    .and_then(|r| r.find('\''))
                    .map_or(rest.len(), |e| e + 4),
                (Some(_), Some((j, '\''))) => j + 1,
                _ => 0,
            }
        } else {
            0
        };
        if skip == 0 {
            out.push(c);
            i += c.len_utf8();
        } else {
            out.push(' ');
            i += skip;
        }
    }
    out
}

/// The identifiers a file's code mentions (see [`code_only`]), and the
/// subset it mentions as a path segment (`name::`), the only use a
/// module has.
fn mentions(text: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut words, mut segments) = (BTreeSet::new(), BTreeSet::new());
    let code = code_only(text);
    let mut rest = code.as_str();
    while let Some(start) = rest.find(|c: char| c.is_alphanumeric() || c == '_') {
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        words.insert(tail[..end].to_string());
        if tail[end..].starts_with("::") {
            segments.insert(tail[..end].to_string());
        }
        rest = &tail[end..];
    }
    (words, segments)
}

/// Every listed item of `surface` that no file outside its crate's `src/`
/// names and no line of `allowlist` covers, then every allowlist line
/// that matches no listed item. `sources` maps each repository-relative
/// path to its text. A module counts as named only as a path segment
/// (`name::`); a `pub use` counts once any name it re-exports is named.
fn unearned(
    surface: &str,
    sources: &BTreeMap<String, String>,
    allowlist: &[(&str, &str)],
) -> Vec<String> {
    let mut by_owner: BTreeMap<Option<&str>, (BTreeSet<String>, BTreeSet<String>)> =
        BTreeMap::new();
    for (path, text) in sources {
        let (words, segments) = mentions(text);
        let sets = by_owner.entry(owner(path)).or_default();
        sets.0.extend(words);
        sets.1.extend(segments);
    }
    let allowed: BTreeSet<&str> = allowlist.iter().map(|(item, _)| *item).collect();
    let mut problems = Vec::new();
    for line in surface.lines() {
        let Some((path, item)) = line.split_once(": ") else {
            continue;
        };
        let home = owner(path);
        let text = sources.get(path).map_or("", String::as_str);
        let is_mod = item.starts_with("pub mod ");
        let named = |name: &String| {
            by_owner.iter().any(|(o, (words, segments))| {
                *o != home
                    && if is_mod {
                        segments.contains(name.as_str())
                    } else {
                        words.contains(name.as_str())
                    }
            })
        };
        let names = item_names(&statement(item, text));
        if !names.iter().any(named) && !allowed.contains(line) {
            problems.push(line.to_string());
        }
    }
    let listed: BTreeSet<&str> = surface.lines().collect();
    for (item, _) in allowlist {
        if !listed.contains(item) {
            problems.push(format!("stale allowlist line: {item}"));
        }
    }
    problems
}

/// Reads every `.rs` file under `dir` into `sources`, keyed by its path
/// from `root`; build output and the test-support crate are skipped.
fn read_sources(root: &Path, dir: &Path, sources: &mut BTreeMap<String, String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !["target", "proptest-lite"].contains(&name) {
                read_sources(root, &path, sources);
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            sources.insert(rel, fs::read_to_string(&path).unwrap());
        }
    }
}

#[test]
fn every_public_item_is_used_outside_its_crate_or_allowlisted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = BTreeMap::new();
    for dir in USE_DIRS {
        read_sources(root, &root.join(dir), &mut sources);
    }
    let problems = unearned(&surface(root), &sources, ALLOWLIST);
    assert!(
        problems.is_empty(),
        "{} public items are named nowhere outside their crate's src/; make them pub(crate) \
         (or private) or add an ALLOWLIST line with the reason:\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
}

#[test]
fn the_use_check_sees_an_unearned_item() {
    let sources: BTreeMap<String, String> = [
        (
            "crates/a/src/lib.rs",
            "pub mod inner;\n\
             pub use inner::{Shown, Hidden};\n\
             pub fn lonely() {}\n\
             pub fn benched() {}\n\
             pub fn tested() {}\n\
             pub fn quoted() {}\n\
             pub fn blocked() {}\n\
             pub fn raw() {}\n\
             pub fn charred() {}\n\
             pub fn after_raw() {}\n\
             fn calls() { lonely(); benched(); tested(); inner::f(); }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "/// Mentions `lonely` in a doc comment only.\n\
             fn g() { let inner = 1; } // and `quoted` in a trailing comment\n\
             fn h() -> &'static str { \"quoted, and blocked\" }\n\
             /* blocked /* nested */ raw */\n\
             fn k<'a>(_: &'a str) { let _ = ['\"', '\\'', 'x']; a::charred(); }\n\
             const R: &str = r#\"raw \"# ; fn m() { a::after_raw(); }\n",
        ),
        ("benchmark/src/main.rs", "fn main() { a::benched(); }\n"),
        ("crates/a/tests/t.rs", "#[test]\nfn t() { a::tested(); }\n"),
        ("examples/e.rs", "use a::Shown;\n"),
    ]
    .into_iter()
    .map(|(path, text)| (path.to_string(), text.to_string()))
    .collect();
    let surface = "crates/a/src/lib.rs: pub fn after_raw()\n\
                   crates/a/src/lib.rs: pub fn benched()\n\
                   crates/a/src/lib.rs: pub fn blocked()\n\
                   crates/a/src/lib.rs: pub fn charred()\n\
                   crates/a/src/lib.rs: pub fn lonely()\n\
                   crates/a/src/lib.rs: pub fn quoted()\n\
                   crates/a/src/lib.rs: pub fn raw()\n\
                   crates/a/src/lib.rs: pub fn tested()\n\
                   crates/a/src/lib.rs: pub mod inner\n\
                   crates/a/src/lib.rs: pub use inner::{Shown, Hidden}\n";
    let allowlist = [("crates/a/src/lib.rs: pub fn gone()", "deleted since")];
    assert_eq!(
        unearned(surface, &sources, &allowlist),
        [
            "crates/a/src/lib.rs: pub fn blocked()",
            "crates/a/src/lib.rs: pub fn lonely()",
            "crates/a/src/lib.rs: pub fn quoted()",
            "crates/a/src/lib.rs: pub fn raw()",
            "crates/a/src/lib.rs: pub mod inner",
            "stale allowlist line: crates/a/src/lib.rs: pub fn gone()",
        ]
    );
}
