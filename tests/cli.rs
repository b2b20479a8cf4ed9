//! End-to-end tests of the `excovery` CLI binary: the full
//! describe → validate → run → inspect → analyze loop a downstream user
//! drives from the shell.

use excovery::store::CellRef;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_excovery"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("excovery-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_description(dir: &std::path::Path) -> PathBuf {
    let desc = excovery::desc::ExperimentDescription::paper_two_party_sd(1);
    let path = dir.join("desc.xml");
    std::fs::write(&path, excovery::desc::xmlio::to_xml(&desc)).unwrap();
    path
}

#[test]
fn help_lists_all_commands() {
    let out = cli(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "validate",
        "plan",
        "outline",
        "dot",
        "run",
        "inspect",
        "events",
        "timeline",
        "responsiveness",
        "report",
        "repo",
        "l2",
        "paper",
    ] {
        assert!(text.contains(cmd), "usage lacks {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn validate_accepts_paper_description() {
    let dir = workdir("validate");
    let desc = write_description(&dir);
    let out = cli(&["validate", desc.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("OK: 'sd-two-party'"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_rejects_broken_description() {
    let dir = workdir("invalid");
    let path = dir.join("bad.xml");
    // Duplicate factor ids are a fatal validation finding.
    std::fs::write(
        &path,
        r#"<experiment name="bad"><factorlist>
            <factor id="f" type="int" usage="constant"><levels><level>1</level></levels></factor>
            <factor id="f" type="int" usage="constant"><levels><level>2</level></levels></factor>
        </factorlist></experiment>"#,
    )
    .unwrap();
    let out = cli(&["validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("FATAL"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_run_inspect_analyze_cycle() {
    let dir = workdir("cycle");
    let desc = write_description(&dir);
    let db = dir.join("results.expdb");
    let out = cli(&[
        "run",
        desc.to_str().unwrap(),
        "--max-runs",
        "1",
        "--out",
        db.to_str().unwrap(),
        "--l2",
        dir.join("l2").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 completed"));

    let out = cli(&["inspect", db.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("experiment: sd-two-party"));
    assert!(text.contains("Events"));

    let out = cli(&["events", db.to_str().unwrap(), "--run", "0"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("sd_service_add"));

    let out = cli(&["responsiveness", db.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("deadline_s"));

    let svg = dir.join("t.svg");
    let out = cli(&[
        "timeline",
        db.to_str().unwrap(),
        "--run",
        "0",
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("t_R"));
    assert!(svg.exists());

    let report = dir.join("report.md");
    let out = cli(&[
        "report",
        db.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report_text = std::fs::read_to_string(&report).unwrap();
    assert!(report_text.contains("# Experiment report: sd-two-party"));

    // Level-4 repository round trip.
    let repo = dir.join("repo");
    let out = cli(&[
        "repo",
        repo.to_str().unwrap(),
        "add",
        "exp1",
        db.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = cli(&["repo", repo.to_str().unwrap(), "list"]);
    assert!(stdout(&out).contains("exp1"));
    let out = cli(&["repo", repo.to_str().unwrap(), "compare"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("R(1s)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn l2_lists_runs_entries_and_prints_one_entry() {
    let dir = workdir("l2");
    let desc = write_description(&dir);
    let l2 = dir.join("l2");
    let l2 = l2.to_str().unwrap();
    let out = cli(&[
        "run",
        desc.to_str().unwrap(),
        "--max-runs",
        "2",
        "--out",
        dir.join("results.expdb").to_str().unwrap(),
        "--l2",
        l2,
        "--keep-l2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = cli(&["l2", l2]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), "0\n1\n");

    let out = cli(&["l2", l2, "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let listing = stdout(&out);
    let outcome_line = listing
        .lines()
        .find(|l| l.starts_with("_master\toutcome.json\t"))
        .unwrap_or_else(|| panic!("no outcome entry in:\n{listing}"));
    let listed_len: usize = outcome_line.rsplit('\t').next().unwrap().parse().unwrap();

    // What the verb prints is what the library reads, byte for byte.
    let out = cli(&["l2", l2, "1", "_master", "outcome.json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let store = excovery::store::level2::Level2Store::open(l2).unwrap();
    assert_eq!(
        out.stdout,
        store.get_run(1, "_master", "outcome.json").unwrap()
    );
    assert_eq!(out.stdout.len(), listed_len);

    // Captures are binary; `--json` renders them with the tag split back
    // off the wire bytes the Packets table stores.
    let node = listing
        .lines()
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f[1] == "captures.bin" && f[2].parse::<usize>().unwrap() > 9)
        .map(|f| f[0].to_string())
        .unwrap_or_else(|| panic!("no node with captures in:\n{listing}"));
    let raw = cli(&["l2", l2, "1", &node, "captures.bin"]);
    assert!(raw.status.success(), "{}", stderr(&raw));
    assert!(raw.stdout.starts_with(b"EXCP"));
    let out = cli(&["l2", l2, "1", &node, "captures.bin", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let rendered = excovery::store::JsonValue::parse(&stdout(&out)).unwrap();
    let captures = rendered.as_array().unwrap();
    let db = excovery::store::Database::load(&dir.join("results.expdb")).unwrap();
    let packets: Vec<Vec<u8>> = db
        .table("Packets")
        .unwrap()
        .rows()
        .filter(|r| r.get(0) == CellRef::Int(1) && r.get(1) == CellRef::Text(&node))
        .map(|r| match r.get(4) {
            CellRef::Blob(b) => b.to_vec(),
            other => panic!("packet data is {other:?}"),
        })
        .collect();
    assert_eq!(captures.len(), packets.len());
    for (c, data) in captures.iter().zip(&packets) {
        for field in ["local_time_ns", "src", "port", "kind"] {
            assert!(c.get(field).is_some(), "{field} missing in {c}");
        }
        let tag = c.get("tag").and_then(|t| t.as_u64()).unwrap() as u16;
        let mut wire = tag.to_be_bytes().to_vec();
        wire.extend(c.get("data").and_then(|d| d.to_bytes()).unwrap());
        assert_eq!(&wire, data);
    }
    let out = cli(&["l2", l2, "1", "_master", "outcome.json", "--json"]);
    assert!(!out.status.success());
    let out = cli(&["l2", l2, "1", "--json"]);
    assert!(!out.status.success());
    let out = cli(&["l2", l2, "1", &node, "captures.bin", "--yaml"]);
    assert!(stderr(&out).contains("unknown flag '--yaml'"));

    let out = cli(&["l2", l2, "1", "_master", "absent"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no entry _master/absent"));
    let out = cli(&["l2", l2, "7"]);
    assert!(!out.status.success());
    let out = cli(&["l2", dir.join("nowhere").to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a level-2 directory"));
    assert!(!dir.join("nowhere").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dot_output_is_graphviz() {
    let dir = workdir("dot");
    let desc = write_description(&dir);
    let out = cli(&["dot", desc.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph experiment {"));
    assert!(text.contains("subgraph cluster_"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_respects_limit() {
    let dir = workdir("plan");
    let desc = write_description(&dir);
    let out = cli(&["plan", desc.to_str().unwrap(), "--limit", "2"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(
        text.lines()
            .filter(|l| l.trim_start().starts_with("run "))
            .count(),
        2
    );
    assert!(text.contains("more (raise with --limit)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag's value is never mistaken for the positional argument, wherever
/// the flag sits.
#[test]
fn flags_before_the_positional_keep_their_values() {
    let dir = workdir("flag-first");
    let desc = write_description(&dir);
    let out = cli(&["plan", "--limit", "2", desc.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(
        text.lines()
            .filter(|l| l.trim_start().starts_with("run "))
            .count(),
        2
    );

    let db = dir.join("results.expdb");
    let out = cli(&[
        "run",
        "--max-runs",
        "1",
        "--out",
        db.to_str().unwrap(),
        "--l2",
        dir.join("l2").to_str().unwrap(),
        desc.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 runs executed"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// An undeclared flag fails the verb and names itself — a removed or
/// misspelt option is never silently ignored.
#[test]
fn unknown_flags_are_rejected_by_name() {
    let dir = workdir("unknown-flag");
    let desc = write_description(&dir);
    let out = cli(&[
        "run",
        desc.to_str().unwrap(),
        "--max-runs",
        "1",
        "--fanout",
        "4",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--fanout") && err.contains("run"), "{err}");

    let out = cli(&["plan", desc.to_str().unwrap(), "--limit"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--limit needs a value"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--reps` sets a replicated study's count; a count that is not a
/// positive integer, `--reps` on a study with fixed runs and an unknown
/// study each fail, naming the value. The default counts are checked by
/// `tests/paper_results.rs`.
#[test]
fn paper_takes_a_positive_reps_count_and_a_known_study() {
    let out = cli(&["paper", "cs1_responsiveness_loss", "--reps", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out)
        .starts_with("CS-1: responsiveness vs message loss on the SM (2 replications/level)\n"));

    for bad in ["0", "six", "-3"] {
        let out = cli(&["paper", "cs1_responsiveness_loss", "--reps", bad]);
        assert!(!out.status.success(), "--reps {bad} accepted");
        assert!(out.stdout.is_empty(), "--reps {bad} ran the study");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("'{bad}'")) && err.contains("positive"),
            "{err}"
        );
    }

    let out = cli(&["paper", "fig5_plan", "--reps", "3"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("'fig5_plan'"), "{}", stderr(&out));

    let out = cli(&["paper", "cs9_nonexistent"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("unknown study 'cs9_nonexistent'") && err.contains("cs1_responsiveness_loss"),
        "{err}"
    );
}

#[test]
fn schema_command_emits_wellformed_xsd() {
    let out = cli(&["schema"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let doc = excovery::xml::parse(&text).expect("XSD parses");
    assert_eq!(doc.root().name, "xs:schema");
}

#[test]
fn model_command_prints_predictions() {
    let out = cli(&["model", "--hops", "3", "--loss", "0.2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("3 hops"));
    assert!(text.contains("predicted R(d):"));
    assert!(text.contains("announce") && text.contains("query"));
}

#[test]
fn missing_files_produce_clean_errors() {
    let out = cli(&["validate", "/nonexistent/desc.xml"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
    let out = cli(&["inspect", "/nonexistent/db.expdb"]);
    assert!(!out.status.success());
}

/// The trimmed two-party description the server suites use: one run per
/// replication, fast enough for a bounded round-trip.
fn write_server_description(dir: &std::path::Path) -> PathBuf {
    use excovery::desc::process::{EventSelector, ProcessAction};
    let mut desc = excovery::desc::ExperimentDescription::paper_two_party_sd(2);
    desc.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    desc.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    desc.seed = 2014;
    let path = dir.join("server-desc.xml");
    std::fs::write(&path, excovery::desc::xmlio::to_xml(&desc)).unwrap();
    path
}

#[test]
fn serve_submit_status_results_round_trip() {
    use std::time::{Duration, Instant};

    let dir = workdir("server-round-trip");
    let root = dir.join("l4");
    let desc = write_server_description(&dir);
    let root_str = root.to_str().unwrap();

    let mut serve = std::process::Command::new(env!("CARGO_BIN_EXE_excovery"))
        .args(["serve", root_str, "--workers", "1", "--slice-runs", "1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");

    let deadline = Instant::now() + Duration::from_secs(120);
    let wait_for = |what: &str, deadline: Instant, f: &mut dyn FnMut() -> bool| {
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    // Submit through the CLI once the daemon has published its endpoint.
    wait_for("endpoint file", deadline, &mut || {
        root.join("endpoint").exists()
    });
    let out = cli(&[
        "submit",
        root_str,
        desc.to_str().unwrap(),
        "--tenant",
        "alice",
        "--key",
        "cli-key",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("job 1 submitted"), "{}", stdout(&out));

    // A duplicate CLI submission reports the original job.
    let out = cli(&[
        "submit",
        root_str,
        desc.to_str().unwrap(),
        "--tenant",
        "alice",
        "--key",
        "cli-key",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("job 1 (existing"), "{}", stdout(&out));

    // Status flips to completed within the bound.
    wait_for("campaign completion", deadline, &mut || {
        let out = cli(&["status", root_str, "--job", "1"]);
        out.status.success() && stdout(&out).contains("completed")
    });
    let out = cli(&["status", root_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let listing = stdout(&out);
    assert!(
        listing.contains("alice") && listing.contains("2/2"),
        "{listing}"
    );

    // Results: table listing, a remote group-by plan, package download.
    let out = cli(&["results", root_str, "--job", "1", "--tables"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("Events"), "{}", stdout(&out));

    let out = cli(&[
        "results",
        root_str,
        "--job",
        "1",
        "--table",
        "RunInfos",
        "--group-by",
        "RunID",
        "--count",
        "--sort-by",
        "RunID",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let frame = stdout(&out);
    assert_eq!(
        frame.lines().count(),
        3,
        "header + one row per run: {frame}"
    );

    let pkg = dir.join("downloaded.expdb");
    let out = cli(&[
        "results",
        root_str,
        "--job",
        "1",
        "--out",
        pkg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let db = excovery::store::Database::load(&pkg).expect("downloaded package loads");
    assert!(db.table_names().contains(&"RunInfos"));

    serve.kill().expect("stop serve");
    serve.wait().expect("reap serve");
    std::fs::remove_dir_all(&dir).ok();
}
