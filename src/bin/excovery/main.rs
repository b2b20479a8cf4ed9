//! `excovery` — command-line front end to the experimentation framework.
//!
//! Drives the complete paper workflow from the shell: validate and inspect
//! XML experiment descriptions, expand treatment plans, execute experiments
//! on a simulated mesh platform, and query the stored result packages.
//!
//! ```text
//! excovery validate <desc.xml>
//! excovery plan <desc.xml> [--limit N]
//! excovery outline <desc.xml>
//! excovery dot <desc.xml>
//! excovery run <desc.xml> [--topology grid:WxH | chain:N] [--max-runs N]
//!              [--out results.expdb] [--l2 DIR] [--resume] [--keep-l2]
//!              [--transport memory|tcp]
//! excovery inspect <results.expdb>
//! excovery events <results.expdb> --run N
//! excovery timeline <results.expdb> --run N [--svg out.svg]
//! excovery responsiveness <results.expdb> [--k N]
//! excovery l2 <dir> [<run> [<node> <name> [--json]]]
//! excovery paper <study> [--reps N]
//! ```

use excovery::analysis::responsiveness::{format_curve, responsiveness_curve};
use excovery::analysis::timeline::Timeline;
use excovery::desc::xmlio::from_xml;
use excovery::engine::TransportKind;
use excovery::netsim::topology::Topology;
use excovery::prelude::*;
use excovery::store::records::{EventRow, ExperimentInfo};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

mod paper;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "validate" => cmd_validate(rest),
        "plan" => cmd_plan(rest),
        "outline" => cmd_outline(rest),
        "dot" => cmd_dot(rest),
        "run" => cmd_run(rest),
        "inspect" => cmd_inspect(rest),
        "events" => cmd_events(rest),
        "timeline" => cmd_timeline(rest),
        "responsiveness" => cmd_responsiveness(rest),
        "report" => cmd_report(rest),
        "repo" => cmd_repo(rest),
        "l2" => cmd_l2(rest),
        "schema" => {
            Args::parse("schema", rest, &[], &[])?;
            print!("{}", excovery::desc::schema_doc::schema_text());
            Ok(())
        }
        "model" => cmd_model(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "results" => cmd_results(rest),
        "paper" => paper::cmd_paper(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'excovery help')")),
    }
}

fn print_usage() {
    println!(
        "excovery — experimentation framework for distributed processes\n\
         \n\
         usage:\n\
         \x20 excovery validate <desc.xml>\n\
         \x20 excovery plan <desc.xml> [--limit N]\n\
         \x20 excovery outline <desc.xml>\n\
         \x20 excovery dot <desc.xml>\n\
         \x20 excovery run <desc.xml> [--topology grid:WxH|chain:N] [--max-runs N]\n\
         \x20          [--out results.expdb] [--l2 DIR] [--resume] [--keep-l2]\n\
         \x20          [--transport memory|tcp]\n\
         \x20 excovery inspect <results.expdb>\n\
         \x20 excovery events <results.expdb> --run N\n\
         \x20 excovery timeline <results.expdb> --run N [--svg out.svg]\n\
         \x20 excovery responsiveness <results.expdb> [--k N]\n\
         \x20 excovery report <results.expdb> [--k N] [--out report.md]\n\
         \x20 excovery repo <dir> list\n\
         \x20 excovery repo <dir> add <id> <results.expdb>\n\
         \x20 excovery repo <dir> compare\n\
         \x20 excovery l2 <dir>                    # sealed runs of a kept level-2 dir\n\
         \x20 excovery l2 <dir> <run>              # node, name, bytes of its entries\n\
         \x20 excovery l2 <dir> <run> <node> <name>   # one entry to stdout\n\
         \x20 excovery l2 <dir> <run> <node> captures.bin --json   # as JSON\n\
         \x20 excovery schema                      # print the description XSD\n\
         \x20 excovery model --hops H --loss P     # analytic responsiveness\n\
         \x20 excovery serve <root> [--addr H:P] [--workers N] [--slice-runs N]\n\
         \x20          [--once]                    # drain the queue, then exit\n\
         \x20 excovery submit <root|addr> <desc.xml> --tenant T [--preset P] [--key K]\n\
         \x20 excovery status <root|addr> [--job N]\n\
         \x20 excovery results <root|addr> --job N [--out pkg.expdb] [--tables]\n\
         \x20          [--table T [--group-by C,..] [--count] [--sort-by C]]\n\
         \x20 excovery paper <study> [--reps N]   # print results/<study>.txt"
    );
}

// ---- argument helpers ------------------------------------------------------

/// One verb's command line, checked against the flags it declares: value
/// flags consume the next argument, switches stand alone, and any other
/// `--flag` is an error naming the verb.
struct Args<'a> {
    positionals: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(
        verb: &str,
        args: &'a [String],
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Self, String> {
        let mut parsed = Args {
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg);
            } else if value_flags.contains(&arg) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.values.push((arg, value));
            } else if switch_flags.contains(&arg) {
                parsed.switches.push(arg);
            } else {
                return Err(format!(
                    "unknown flag '{arg}' for 'excovery {verb}' (try 'excovery help')"
                ));
            }
        }
        Ok(parsed)
    }

    /// The first positional argument.
    fn positional(&self, what: &str) -> Result<&'a str, String> {
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| format!("missing {what}"))
    }

    /// The value of the first occurrence of `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn present(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

fn load_description(path: &str) -> Result<ExperimentDescription, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    from_xml(&text).map_err(|e| e.to_string())
}

fn load_database(path: &str) -> Result<Database, String> {
    Database::load(std::path::Path::new(path)).map_err(|e| e.to_string())
}

fn parse_topology(spec: &str) -> Result<Topology, String> {
    if let Some(dims) = spec.strip_prefix("grid:") {
        let (w, h) = dims
            .split_once('x')
            .ok_or_else(|| format!("grid spec '{dims}' is not WxH"))?;
        let w: usize = w.parse().map_err(|_| format!("bad grid width '{w}'"))?;
        let h: usize = h.parse().map_err(|_| format!("bad grid height '{h}'"))?;
        Ok(Topology::grid(w, h))
    } else if let Some(n) = spec.strip_prefix("chain:") {
        let n: usize = n.parse().map_err(|_| format!("bad chain length '{n}'"))?;
        Ok(Topology::chain(n))
    } else {
        Err(format!(
            "unknown topology '{spec}' (use grid:WxH or chain:N)"
        ))
    }
}

// ---- subcommands ------------------------------------------------------------

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let args = Args::parse("validate", args, &[], &[])?;
    let desc = load_description(args.positional("description path")?)?;
    let findings = excovery::desc::validate::validate(&desc);
    let fatal = findings.iter().filter(|f| f.fatal).count();
    for f in &findings {
        println!(
            "{} {}",
            if f.fatal { "FATAL  " } else { "warning" },
            f.message
        );
    }
    if fatal > 0 {
        return Err(format!("{fatal} fatal findings"));
    }
    println!(
        "OK: '{}' — {} factors, {} node processes, {} env processes, plan of {} runs",
        desc.name,
        desc.factors.factors.len(),
        desc.node_processes.len(),
        desc.env_processes.len(),
        desc.plan().len()
    );
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let args = Args::parse("plan", args, &["--limit"], &[])?;
    let desc = load_description(args.positional("description path")?)?;
    let limit: usize = args
        .value("--limit")
        .map(|v| v.parse().unwrap_or(20))
        .unwrap_or(20);
    let plan = desc.plan();
    println!(
        "{} runs, {} treatments, design {:?}, seed {}",
        plan.len(),
        plan.distinct_treatments().len(),
        plan.design,
        desc.seed
    );
    for run in plan.runs.iter().take(limit) {
        println!(
            "  run {:>5}  rep {:>4}  {}",
            run.run_id,
            run.replicate,
            run.treatment.key()
        );
    }
    if plan.len() > limit {
        println!("  … {} more (raise with --limit)", plan.len() - limit);
    }
    Ok(())
}

fn cmd_outline(args: &[String]) -> Result<(), String> {
    let args = Args::parse("outline", args, &[], &[])?;
    let desc = load_description(args.positional("description path")?)?;
    print!("{}", excovery::desc::visualize::to_outline(&desc));
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let args = Args::parse("dot", args, &[], &[])?;
    let desc = load_description(args.positional("description path")?)?;
    print!("{}", excovery::desc::visualize::to_dot(&desc));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "run",
        args,
        &["--topology", "--max-runs", "--out", "--l2", "--transport"],
        &["--resume", "--keep-l2"],
    )?;
    let desc = load_description(args.positional("description path")?)?;
    let mut cfg = EngineConfig::grid_default();
    if let Some(spec) = args.value("--topology") {
        cfg.topology = parse_topology(spec)?;
    }
    if let Some(n) = args.value("--max-runs") {
        cfg.max_runs = Some(n.parse().map_err(|_| format!("bad --max-runs '{n}'"))?);
    }
    if let Some(dir) = args.value("--l2") {
        cfg.l2_root = Some(PathBuf::from(dir));
    }
    if let Some(t) = args.value("--transport") {
        cfg.transport = TransportKind::parse(t)
            .ok_or_else(|| format!("unknown transport '{t}' (use memory or tcp)"))?;
    }
    cfg.resume = args.present("--resume");
    cfg.keep_l2 = args.present("--keep-l2");
    let out = args.value("--out").unwrap_or("results.expdb").to_string();

    let name = desc.name.clone();
    let mut master = ExperiMaster::new(desc, cfg)?;
    let outcome = master.execute()?;
    let completed = outcome.runs.iter().filter(|r| r.completed).count();
    println!(
        "experiment '{name}': {} runs executed, {completed} completed",
        outcome.runs.len()
    );
    for r in outcome.runs.iter().filter(|r| !r.completed) {
        println!("  run {} failed: {:?}", r.run_id, r.failures);
    }
    outcome
        .database
        .save(std::path::Path::new(&out))
        .map_err(|e| e.to_string())?;
    println!("level-3 package written to {out}");
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let args = Args::parse("inspect", args, &[], &[])?;
    let db = load_database(args.positional("database path")?)?;
    let info = ExperimentInfo::read(&db).map_err(|e| e.to_string())?;
    println!("experiment: {}", info.name);
    println!("version:    {}", info.ee_version);
    if !info.comment.is_empty() {
        println!("comment:    {}", info.comment);
    }
    println!("tables:");
    for name in db.table_names() {
        println!("  {name:<24} {:>6} rows", db.table(name).unwrap().len());
    }
    let runs = ExperimentDataset::new(&db)
        .and_then(|ds| ds.run_ids())
        .map_err(|e| e.to_string())?;
    println!("runs: {}", runs.len());
    Ok(())
}

fn cmd_events(args: &[String]) -> Result<(), String> {
    let args = Args::parse("events", args, &["--run"], &[])?;
    let db = load_database(args.positional("database path")?)?;
    let run: u64 = args
        .value("--run")
        .ok_or("missing --run N")?
        .parse()
        .map_err(|_| "bad --run value")?;
    let events = EventRow::read_run(&db, run).map_err(|e| e.to_string())?;
    if events.is_empty() {
        return Err(format!("run {run} has no events"));
    }
    for e in events {
        println!(
            "{:>15} ns  {:<10} {:<22} {}",
            e.common_time_ns, e.node_id, e.event_type, e.parameter
        );
    }
    Ok(())
}

fn cmd_timeline(args: &[String]) -> Result<(), String> {
    let args = Args::parse("timeline", args, &["--run", "--svg"], &[])?;
    let db = load_database(args.positional("database path")?)?;
    let run: u64 = args
        .value("--run")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --run")?;
    let events = EventRow::read_run(&db, run).map_err(|e| e.to_string())?;
    // Lanes: every node that produced events except the master.
    let actors: BTreeMap<String, String> = events
        .iter()
        .filter(|e| e.node_id != "master")
        .map(|e| (e.node_id.clone(), e.node_id.clone()))
        .collect();
    let timeline = Timeline::from_events(&events, &actors);
    print!("{}", timeline.render_ascii(100));
    if let Some(svg_path) = args.value("--svg") {
        std::fs::write(svg_path, timeline.render_svg(900))
            .map_err(|e| format!("write {svg_path}: {e}"))?;
        println!("SVG written to {svg_path}");
    }
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    use excovery::analysis::model::ResponsivenessModel;
    let args = Args::parse("model", args, &["--hops", "--loss"], &[])?;
    let hops: u32 = args
        .value("--hops")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --hops")?;
    let loss: f64 = args
        .value("--loss")
        .unwrap_or("0.1")
        .parse()
        .map_err(|_| "bad --loss")?;
    let model = ResponsivenessModel::new(hops, loss);
    println!("analytic responsiveness model: {hops} hops, per-link loss {loss}\n");
    println!("attempts:");
    for a in model.attempts() {
        println!(
            "  {:>8.3} s  {:<9} p = {:.4}",
            a.completes_at_s, a.kind, a.success_probability
        );
    }
    println!("\npredicted R(d):");
    for d in [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0] {
        println!("  {:>6} s  {:.4}", d, model.predict(d));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let args = Args::parse("report", args, &["--k", "--out"], &[])?;
    let db = load_database(args.positional("database path")?)?;
    let k: usize = args
        .value("--k")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --k")?;
    let opts = ReportOptions::builder().k(k).build();
    let report = excovery::analysis::report::render(&db, &opts).map_err(|e| e.to_string())?;
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &report).map_err(|e| format!("write {path}: {e}"))?;
            println!("report written to {path}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

fn cmd_repo(args: &[String]) -> Result<(), String> {
    let args = Args::parse("repo", args, &[], &[])?;
    let dir = args.positional("repository directory")?;
    let repo = Repository::open(dir).map_err(|e| e.to_string())?;
    let sub = args.positionals.get(1).copied().unwrap_or("list");
    match sub {
        "list" => {
            for e in repo.index().map_err(|e| e.to_string())? {
                println!("{:<24} {:<20} {}", e.id, e.name, e.comment);
            }
            Ok(())
        }
        "add" => {
            let id = args.positionals.get(2).ok_or("missing experiment id")?;
            let db_path = args.positionals.get(3).ok_or("missing database path")?;
            let db = load_database(db_path)?;
            repo.store(id, &db).map_err(|e| e.to_string())?;
            println!("stored '{id}' in {dir}");
            Ok(())
        }
        "compare" => {
            // Cross-experiment comparison: responsiveness of each package.
            println!(
                "{:<24} {:>8} {:>8} {:>9} {:>9}",
                "experiment", "runs", "episodes", "R(1s)", "R(30s)"
            );
            repo.map_experiments(|id, db| {
                let (episodes, runs) = ExperimentDataset::new(db)
                    .and_then(|ds| Ok((ds.episodes()?, ds.run_ids()?.len())))
                    .map_err(|e| excovery::store::StoreError(e.to_string()))?;
                let curve = responsiveness_curve(&episodes, 1, &[1.0, 30.0]);
                println!(
                    "{id:<24} {runs:>8} {:>8} {:>9.4} {:>9.4}",
                    episodes.len(),
                    curve[0].probability,
                    curve[1].probability
                );
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown repo subcommand '{other}'")),
    }
}

/// Reads a level-2 directory kept with `--keep-l2`: its sealed runs, one
/// run's entries, or the bytes of one entry (`--json` renders a binary
/// `captures.bin` entry for reading).
fn cmd_l2(args: &[String]) -> Result<(), String> {
    use excovery::engine::l2codec;
    use excovery::store::level2::Level2Store;
    use std::io::Write;
    let args = Args::parse("l2", args, &[], &["--json"])?;
    let json = args.present("--json");
    let dir = args.positional("level-2 directory")?;
    // `open` would create the directories it expects.
    if !std::path::Path::new(dir).join("runs").is_dir() {
        return Err(format!("{dir}: not a level-2 directory"));
    }
    let l2 = Level2Store::open(dir).map_err(|e| e.to_string())?;
    let load = |run: &str| {
        let run_id = run.parse().map_err(|_| format!("bad run id '{run}'"))?;
        l2.load_run(run_id).map_err(|e| e.to_string())
    };
    match args.positionals[1..] {
        [] | [_] if json => return Err("--json renders one entry of a run".into()),
        [] => {
            for run_id in l2.run_ids().map_err(|e| e.to_string())? {
                println!("{run_id}");
            }
        }
        [run] => {
            for (node, name, data) in load(run)?.entries() {
                println!("{node}\t{name}\t{}", data.len());
            }
        }
        [run, node, name] => {
            let record = load(run)?;
            let data = record
                .get(node, name)
                .ok_or_else(|| format!("run {run}: no entry {node}/{name}"))?;
            if json {
                if name != "captures.bin" {
                    return Err(format!("--json renders captures.bin entries, not {name}"));
                }
                println!(
                    "{}",
                    l2codec::captures_json(data).map_err(|e| e.to_string())?
                );
            } else {
                std::io::stdout()
                    .write_all(data)
                    .map_err(|e| format!("write stdout: {e}"))?;
            }
        }
        _ => return Err("usage: excovery l2 <dir> [<run> [<node> <name> [--json]]]".into()),
    }
    Ok(())
}

fn cmd_responsiveness(args: &[String]) -> Result<(), String> {
    let args = Args::parse("responsiveness", args, &["--k"], &["--pooled"])?;
    let db = load_database(args.positional("database path")?)?;
    let k: usize = args
        .value("--k")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --k")?;
    let deadlines = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];
    let episodes = ExperimentDataset::new(&db)
        .and_then(|ds| ds.episodes())
        .map_err(|e| e.to_string())?;
    if episodes.is_empty() {
        return Err("no discovery episodes in this database".into());
    }
    let curve = responsiveness_curve(&episodes, k, &deadlines);
    print!(
        "{}",
        format_curve(&format!("k={k}, {} episodes", episodes.len()), &curve)
    );
    // Per-treatment breakdown when more than one treatment was run
    // (reconstructed from the stored description, no side channel needed).
    if !args.present("--pooled") {
        if let Ok(grouped) = excovery::analysis::treatments::episodes_by_treatment(&db) {
            if grouped.len() > 1 {
                let mut keys: Vec<&String> = grouped.keys().collect();
                keys.sort();
                println!("\nper treatment:");
                for key in keys {
                    let curve = responsiveness_curve(&grouped[key], k, &deadlines);
                    print!("{}", format_curve(key, &curve));
                }
            }
        }
    }
    Ok(())
}

// ---- server verbs ----------------------------------------------------------

/// `<root|addr>`: a `host:port` connects directly, anything else is a
/// repository root whose daemon published its address in `root/endpoint`.
fn connect_target(target: &str) -> Result<ServerClient, String> {
    let looks_like_addr = target
        .rsplit_once(':')
        .is_some_and(|(_, port)| !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit()));
    let client = if looks_like_addr {
        ServerClient::connect(target)
    } else {
        ServerClient::connect_root(std::path::Path::new(target))
    };
    client.map_err(|e| format!("connect {target}: {e}"))
}

fn print_status(s: &excovery::rpc::JobStatus) {
    let digest = s
        .digest
        .map(|d| format!("  digest {d:#018x}"))
        .unwrap_or_default();
    let error = s
        .error
        .as_deref()
        .map(|e| format!("  error: {e}"))
        .unwrap_or_default();
    println!(
        "job {:>4}  {:<10} {:<12} {:>4}/{:<4} {:<12} {}{digest}{error}",
        s.job_id, s.tenant, s.state, s.runs_completed, s.runs_total, s.preset, s.name
    );
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "serve",
        args,
        &["--addr", "--workers", "--slice-runs"],
        &["--once"],
    )?;
    let root = args.positional("repository root")?;
    let mut cfg = excovery::server::ServerConfig::default();
    if let Some(addr) = args.value("--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(w) = args.value("--workers") {
        cfg.scheduler.workers = w.parse().map_err(|_| format!("bad --workers '{w}'"))?;
    }
    if let Some(s) = args.value("--slice-runs") {
        cfg.scheduler.slice_runs = s.parse().map_err(|_| format!("bad --slice-runs '{s}'"))?;
    }
    let mut server =
        excovery::server::ExperimentServer::start(root, cfg).map_err(|e| e.to_string())?;
    eprintln!("serving {} at {}", root, server.addr());
    if args.present("--once") {
        loop {
            let report = server.tick().map_err(|e| e.to_string())?;
            if report.is_idle() {
                return Ok(());
            }
        }
    }
    server.run().map_err(|e| e.to_string())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let args = Args::parse("submit", args, &["--tenant", "--preset", "--key"], &[])?;
    let target = args.positional("server root or address")?;
    let desc_path = *args.positionals.get(1).ok_or("missing description path")?;
    let tenant = args.value("--tenant").unwrap_or("default");
    let preset = args.value("--preset").unwrap_or("grid_default");
    let xml = std::fs::read_to_string(desc_path).map_err(|e| format!("read {desc_path}: {e}"))?;
    // Default submit key: content hash of (tenant, preset, description),
    // so an accidental re-submission dedups to the original job.
    let key = match args.value("--key") {
        Some(k) => k.to_string(),
        None => {
            let mut h = 0xcbf29ce484222325u64;
            for b in tenant
                .bytes()
                .chain(preset.bytes())
                .chain([0u8])
                .chain(xml.bytes())
            {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            format!("auto-{h:016x}")
        }
    };
    let client = connect_target(target)?;
    let req = excovery::rpc::SubmitRequest {
        tenant: tenant.to_string(),
        preset: preset.to_string(),
        description_xml: xml,
        submit_key: key,
    };
    let (job_id, created) = client.submit(&req).map_err(|e| e.to_string())?;
    if created {
        println!("job {job_id} submitted");
    } else {
        println!("job {job_id} (existing submission with this key)");
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let args = Args::parse("status", args, &["--job"], &[])?;
    let client = connect_target(args.positional("server root or address")?)?;
    match args.value("--job") {
        Some(id) => {
            let id = id.parse().map_err(|_| format!("bad --job '{id}'"))?;
            print_status(&client.status(id).map_err(|e| e.to_string())?);
        }
        None => {
            for s in client.list().map_err(|e| e.to_string())? {
                print_status(&s);
            }
        }
    }
    Ok(())
}

fn cmd_results(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "results",
        args,
        &["--job", "--out", "--table", "--group-by", "--sort-by"],
        &["--tables", "--count"],
    )?;
    let client = connect_target(args.positional("server root or address")?)?;
    let id: u64 = args
        .value("--job")
        .ok_or("missing --job")?
        .parse()
        .map_err(|_| "bad --job")?;
    if args.present("--tables") {
        for t in client.tables(id).map_err(|e| e.to_string())? {
            println!("{t}");
        }
        return Ok(());
    }
    if let Some(table) = args.value("--table") {
        let mut plan = excovery::rpc::PlanSpec {
            table: table.to_string(),
            ..Default::default()
        };
        if let Some(group) = args.value("--group-by") {
            plan.group_by = group.split(',').map(str::to_string).collect();
        }
        if args.present("--count") {
            plan.aggs = vec![excovery::rpc::AggSpec {
                op: excovery::rpc::AggOp::Count,
                column: None,
                name: None,
                q: None,
            }];
        }
        if let Some(sort) = args.value("--sort-by") {
            plan.sort_by = Some(sort.to_string());
        }
        let frame = client.query(id, &plan).map_err(|e| e.to_string())?;
        println!("{}", frame.columns.join("\t"));
        for row in &frame.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| match c {
                    excovery::rpc::CellValue::Null => "null".to_string(),
                    excovery::rpc::CellValue::I64(v) => v.to_string(),
                    excovery::rpc::CellValue::F64(v) => v.to_string(),
                    excovery::rpc::CellValue::Str(s) => s.clone(),
                    excovery::rpc::CellValue::Bytes(b) => format!("<{} bytes>", b.len()),
                })
                .collect();
            println!("{}", cells.join("\t"));
        }
        return Ok(());
    }
    let results = client.results(id).map_err(|e| e.to_string())?;
    print_status(&results.status);
    if let Some(out) = args.value("--out") {
        std::fs::write(out, &results.package).map_err(|e| format!("write {out}: {e}"))?;
        println!("package: {out} ({} bytes)", results.package.len());
    }
    Ok(())
}
