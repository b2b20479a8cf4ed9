//! `excovery paper <study> [--reps N] [--workers N]`: regenerates one
//! table, figure or case study of the ExCovery paper (see EXPERIMENTS.md
//! for the index).
//!
//! Each study prints its artifact to stdout; with no `--reps` the output
//! is byte for byte `results/<study>.txt`, which `tests/paper_results.rs`
//! checks. The case studies made of independent experiments or cells
//! (CS-1 and CS-3 to CS-8) run them through [`run_indexed`] on
//! `--workers` threads (`0`, the default, = available parallelism);
//! results come back in job order, so the output is the same at every
//! worker count. CS-2 and the table and figure studies run one
//! experiment each, or none, and ignore the option.

use super::Args;
use excovery::analysis::model::ResponsivenessModel;
use excovery::analysis::packetstats::{best_stream_loss_per_source, split_tag};
use excovery::analysis::responsiveness::{responsiveness_curve, ResponsivenessPoint};
use excovery::analysis::stats::Summary;
use excovery::analysis::timeline::Timeline;
use excovery::analysis::{DiscoveryEpisode, ExperimentDataset};
use excovery::desc::plan::{Design, PlanOptions, TreatmentPlan};
use excovery::desc::process::{ProcessAction, ValueRef};
use excovery::desc::xmlio::{
    action_element, experiment_element, factorlist_element, platform_element,
};
use excovery::desc::{ExperimentDescription, FactorList, PlatformSpec};
use excovery::engine::scenarios::{
    chain_between_actors, hop_distance, hop_distance_shards, load_sweep, loss_sweep,
    loss_sweep_shards, multi_sm,
};
use excovery::engine::{EngineConfig, ExperiMaster, ExperimentOutcome, RetryPolicy};
use excovery::netsim::link::LinkModel;
use excovery::netsim::sim::{Simulator, SimulatorConfig};
use excovery::netsim::topology::Topology;
use excovery::netsim::{NodeId, SimDuration};
use excovery::obs::par::run_indexed;
use excovery::query::{col, lit};
use excovery::rpc::ChaosOptions;
use excovery::sd::{
    sd_command, Role, SdAgent, SdCommand, SdConfig, SdMessage, ServiceDescription, ServiceType,
    SD_PORT,
};
use excovery::store::records::ExperimentInfo;
use excovery::store::schema::{render_table1, verify_schema};
use excovery::xml::writer::{write_element_string, WriteOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// A study, called with its replication count and worker count.
type Study = fn(u64, usize) -> Result<(), String>;

/// One experiment of a fanned-out campaign. The campaigns run on
/// `--workers` threads, and [`run_indexed`] returns their outcomes in
/// job order.
type Outcome = Result<ExperimentOutcome, String>;

/// Every study: its name (the stem of its `results/` file), its
/// replication count when `--reps` is absent (`None`: the artifact fixes
/// its own runs and takes no `--reps`), and the function printing it.
/// `cs8_chaos_recovery` has no `results/` file, since it prints wall time.
const STUDIES: &[(&str, Option<u64>, Study)] = &[
    ("table1_schema", None, table1_schema),
    ("fig1_model", None, fig1_model),
    ("fig2_architectures", None, fig2_architectures),
    ("fig3_workflow", None, fig3_workflow),
    ("fig5_plan", None, fig5_plan),
    ("fig11_timeline", None, fig11_timeline),
    ("fig_listings", None, fig_listings),
    ("cs1_responsiveness_loss", Some(60), cs1_responsiveness_loss),
    ("cs2_responsiveness_load", Some(60), cs2_responsiveness_load),
    ("cs3_responsiveness_hops", Some(60), cs3_responsiveness_hops),
    (
        "cs4_architecture_compare",
        Some(60),
        cs4_architecture_compare,
    ),
    ("cs5_ablation_backoff", Some(60), cs5_ablation_backoff),
    ("cs6_model_vs_experiment", Some(60), cs6_model_vs_experiment),
    (
        "cs7_ablation_suppression",
        Some(60),
        cs7_ablation_suppression,
    ),
    ("cs8_chaos_recovery", Some(4), cs8_chaos_recovery),
    ("tagger_validation", None, tagger_validation),
];

pub(crate) fn cmd_paper(args: &[String]) -> Result<(), String> {
    let args = Args::parse("paper", args, &["--reps", "--workers"], &[])?;
    let names = || STUDIES.iter().map(|s| s.0).collect::<Vec<_>>().join(", ");
    let name = args
        .positional("study")
        .map_err(|e| format!("{e} (one of: {})", names()))?;
    let &(_, default_reps, study) = STUDIES
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| format!("unknown study '{name}' (one of: {})", names()))?;
    let reps = match (args.value("--reps"), default_reps) {
        (None, reps) => reps.unwrap_or(1),
        (Some(_), None) => {
            return Err(format!(
                "study '{name}' fixes its own runs; it takes no --reps"
            ))
        }
        (Some(v), Some(_)) => v
            .parse()
            .ok()
            .filter(|&n: &u64| n > 0)
            .ok_or_else(|| format!("--reps must be a positive integer, not '{v}'"))?,
    };
    study(reps, args.workers()?)
}

// ---- shared helpers ---------------------------------------------------------

/// Deadlines (seconds) reported by the responsiveness studies.
const DEADLINES_S: [f64; 8] = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// The 3×3 grid defaults on another topology.
fn on(topology: Topology) -> EngineConfig {
    EngineConfig {
        topology,
        ..EngineConfig::grid_default()
    }
}

/// All discovery episodes of an outcome.
fn episodes(outcome: &ExperimentOutcome) -> Result<Vec<DiscoveryEpisode>, String> {
    ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.episodes())
        .map_err(|e| e.to_string())
}

/// Renders a series `deadline → R` as one table row.
fn curve_row(label: &str, curve: &[ResponsivenessPoint]) -> String {
    let cells: Vec<String> = curve
        .iter()
        .map(|p| format!("{:>6.3}", p.probability))
        .collect();
    format!("{label:<28} {}", cells.join(" "))
}

/// The table header matching [`curve_row`].
fn curve_header() -> String {
    let cells: Vec<String> = DEADLINES_S.iter().map(|d| format!("{d:>6}")).collect();
    format!("{:<28} {}", "treatment \\ deadline_s", cells.join(" "))
}

/// `t_R` values (seconds) of successful first discoveries.
fn first_t_rs_s(eps: &[DiscoveryEpisode]) -> Vec<f64> {
    eps.iter()
        .filter_map(|e| e.first_t_r_ns())
        .map(|t| t as f64 / 1e9)
        .collect()
}

// ---- the paper's tables and figures ----------------------------------------

/// **Table I**: tables and attributes of the storage concept, read back
/// from the level-3 package of a one-run experiment.
fn table1_schema(_: u64, _: usize) -> Result<(), String> {
    println!("TABLE I.  TABLES AND ATTRIBUTES OF CURRENT STORAGE CONCEPT\n");
    println!("{}", render_table1());
    let outcome = ExperiMaster::new(loss_sweep(&[0.0], 1, 1), on(Topology::chain(2)))?.execute()?;
    verify_schema(&outcome.database).map_err(|e| e.to_string())?;
    println!("verified: a freshly executed experiment package matches the schema above;");
    for name in outcome.database.table_names() {
        let table = outcome.database.table(name).map_err(|e| e.to_string())?;
        println!("  {name:<24} {:>5} rows", table.len());
    }
    Ok(())
}

/// **Fig. 1**: the model of a generic experiment process, on a live run:
/// the treatment's factor levels go in, the recorded events and derived
/// metrics come out.
fn fig1_model(_: u64, _: usize) -> Result<(), String> {
    println!("Fig. 1 — model of a generic experiment process\n");
    let desc = ExperimentDescription::paper_two_party_sd(1);
    let plan = desc.plan();
    let run = &plan.runs[0];

    println!("factors (controlled inputs):");
    for (id, level) in run.treatment.assignments() {
        println!("  {id:<28} = {level}");
    }
    println!(
        "  {:28} = replicate {}",
        desc.factors.replication.id, run.replicate
    );

    println!("\nprocess (black box): one-shot two-party service discovery");

    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(1);
    let outcome = ExperiMaster::new(desc, cfg)?.execute()?;

    println!("\nresponses (observed outputs):");
    let events = ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.events(Some(0)))
        .map_err(|e| e.to_string())?;
    let start = events.iter().find(|e| e.event_type == "sd_start_search");
    let add = events.iter().find(|e| e.event_type == "sd_service_add");
    if let (Some(s), Some(a)) = (start, add) {
        println!(
            "  t_R (response time)         = {:.3} ms",
            (a.common_time_ns - s.common_time_ns) as f64 / 1e6
        );
    }
    println!("  events recorded             = {}", events.len());
    println!(
        "  packets captured            = {}",
        outcome.runs[0].packets
    );
    println!(
        "  run duration                = {}",
        outcome.runs[0].duration
    );
    println!("\n(nuisance factors — channel noise, clock drift — are randomized");
    println!(" per replication and measured, not controlled; §II-A1)");
    Ok(())
}

/// **Fig. 2**: the two-party and three-party discovery architectures, as
/// the message flows of one discovery each, read from packet captures.
fn fig2_architectures(_: u64, _: usize) -> Result<(), String> {
    println!("Fig. 2 — SD architectures as observed message flows\n");
    for (architecture, with_scm) in [
        ("two-party", false),
        ("three-party", true),
        ("hybrid", true),
    ] {
        let desc = multi_sm(1, architecture, with_scm, 1, 5);
        let outcome = ExperiMaster::new(desc, on(Topology::grid(2, 2)))?.execute()?;
        let packets = ExperimentDataset::new(&outcome.database)
            .and_then(|ds| ds.packets(Some(0)))
            .map_err(|e| e.to_string())?;
        println!("--- {architecture} ---");
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for p in &packets {
            // Only source-side captures: each transmission once.
            if p.node_id != p.src_node_id {
                continue;
            }
            let Some(msg) =
                split_tag(&p.data).and_then(|(_tag, payload)| SdMessage::decode(payload))
            else {
                continue;
            };
            let kind = match msg {
                SdMessage::Query { .. } => "multicast query (SU -> *)",
                SdMessage::Response { .. } => "response",
                SdMessage::Announce { .. } => "announcement (SM -> *)",
                SdMessage::ScmAdvert { .. } => "SCM advert (SCM -> *)",
                SdMessage::Register { .. } => "registration (SM -> SCM)",
                SdMessage::RegisterAck { .. } => "registration ack (SCM -> SM)",
                SdMessage::Deregister { .. } => "deregistration (SM -> SCM)",
                SdMessage::DirectedQuery { .. } => "directed query (SU -> SCM)",
            };
            *counts.entry(kind).or_default() += 1;
        }
        for (kind, n) in counts {
            println!("  {n:>3} × {kind}");
        }
        println!();
    }
    println!("two-party: SUs and SMs communicate directly (multicast);");
    println!("three-party: registrations and directed queries via the SCM.");
    Ok(())
}

/// **Fig. 3**: ExCovery's concepts and workflow, narrated over a real
/// execution: preparation, execution, collection and conditioning,
/// storage.
fn fig3_workflow(_: u64, _: usize) -> Result<(), String> {
    println!("Fig. 3 — ExCovery concepts and experiment workflow\n");

    // [experimenter] experiment design -> abstract description
    let desc = ExperimentDescription::paper_two_party_sd(2);
    println!("1. preparation:");
    println!(
        "   description '{}' with {} factors, {} node processes,",
        desc.name,
        desc.factors.factors.len(),
        desc.node_processes.len()
    );
    let plan = desc.plan();
    println!(
        "   treatment plan: {} runs over {} treatments",
        plan.len(),
        plan.distinct_treatments().len()
    );

    // platform setup + execution by the experiment master
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(4);
    let outcome = ExperiMaster::new(desc, cfg)?.execute()?;
    println!("\n2. execution (master drives nodes over XML-RPC):");
    for r in &outcome.runs {
        println!(
            "   run {:>2}  replicate {}  completed={}  events={:>3}  packets={:>4}  duration={}",
            r.run_id, r.replicate, r.completed, r.events, r.packets, r.duration
        );
    }

    println!("\n3. collection & conditioning (common time base):");
    let ds = ExperimentDataset::new(&outcome.database).map_err(|e| e.to_string())?;
    let infos = ds.run_infos(None).map_err(|e| e.to_string())?;
    for i in infos.iter().take(6) {
        println!(
            "   run {:>2}  node {:<8} measured clock offset {:>10} ns",
            i.run_id, i.node_id, i.time_diff_ns
        );
    }

    println!("\n4. storage (single package per experiment, Table I schema):");
    let info = ExperimentInfo::read(&outcome.database).map_err(|e| e.to_string())?;
    println!(
        "   ExperimentInfo: name='{}' version='{}'",
        info.name, info.ee_version
    );
    for t in outcome.database.table_names() {
        let table = outcome.database.table(t).map_err(|e| e.to_string())?;
        println!("   {t:<24} {:>5} rows", table.len());
    }
    let total_events = ds.events(None).map_err(|e| e.to_string())?.len();
    println!("\n   {total_events} events conditioned and stored");
    Ok(())
}

/// **Fig. 5**: the factor list and the treatment plan expanded from it
/// (6 treatments × 1000 replications, OFAT order).
fn fig5_plan(_: u64, _: usize) -> Result<(), String> {
    let factors = FactorList::paper_fig5();
    println!("factor list of Fig. 5:");
    for f in &factors.factors {
        println!(
            "  {:<12} usage={:<10} type={:<16} levels={}",
            f.id,
            f.usage.as_str(),
            f.level_type,
            f.levels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "  replication: {} per treatment\n",
        factors.replication.count
    );

    let plan = TreatmentPlan::generate(
        &factors,
        &PlanOptions {
            design: Design::Ofat,
            seed: 0,
        },
    );
    println!(
        "expanded plan: {} runs, {} distinct treatments (OFAT: first factor varies least)",
        plan.len(),
        plan.distinct_treatments().len()
    );
    println!("\nfirst runs of each treatment block:");
    let mut last_key = String::new();
    for run in &plan.runs {
        let key = run.treatment.key();
        if key != last_key {
            println!("  run {:>5}: {}", run.run_id, key);
            last_key = key;
        }
    }
    println!("\nrandomized variant (seed 1) first 6 run treatments:");
    let crd = TreatmentPlan::generate(
        &factors,
        &PlanOptions {
            design: Design::CompletelyRandomized,
            seed: 1,
        },
    );
    for run in crd.runs.iter().take(6) {
        println!(
            "  run {:>5}: replicate {:>4} of {}",
            run.run_id,
            run.replicate,
            run.treatment.key()
        );
    }
    Ok(())
}

/// **Fig. 11**: a one-shot discovery process as per-actor timelines
/// (actions as white, events as black circles), from a freshly executed
/// run of the paper's two-party experiment. `excovery timeline <pkg>
/// --svg PATH` renders the same run as SVG.
fn fig11_timeline(_: u64, _: usize) -> Result<(), String> {
    let desc = ExperimentDescription::paper_two_party_sd(1);
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(1);
    let outcome = ExperiMaster::new(desc, cfg)?.execute()?;
    let events = ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.events(Some(0)))
        .map_err(|e| e.to_string())?;
    let actors = BTreeMap::from([
        ("t9-157".to_string(), "SM1".to_string()),
        ("t9-105".to_string(), "SU1".to_string()),
    ]);
    println!(
        "{}",
        Timeline::from_events(&events, &actors).render_ascii(100)
    );
    Ok(())
}

/// The XML listings of **Figs. 4–10** from the typed model, exactly as
/// the built-in paper description carries them.
fn fig_listings(_: u64, _: usize) -> Result<(), String> {
    let d = ExperimentDescription::paper_two_party_sd(1000);
    let opts = WriteOptions::default();
    let full = experiment_element(&d);
    let element = |path: &str| write_element_string(full.find(path).unwrap(), &opts);
    let listings = [
        ("Fig. 4 — abstract nodes", element("nodes")),
        ("Fig. 4 — informative parameters", element("params")),
        (
            "Fig. 5 — factor list",
            write_element_string(&factorlist_element(&d.factors), &opts),
        ),
        (
            "Fig. 9 — SM role process",
            element("node_processes/actor[@id=actor0]"),
        ),
        (
            "Fig. 10 — SU role process",
            element("node_processes/actor[@id=actor1]"),
        ),
        (
            "Fig. 7 — environment traffic process",
            element("env_process"),
        ),
        (
            "Fig. 8 — platform",
            write_element_string(&platform_element(&d.platform), &opts),
        ),
        (
            "Fig. 10 — wait_for_event detail",
            write_element_string(&action_element(&d.node_processes[1].actions[5]), &opts),
        ),
    ];
    for (title, xml) in listings {
        println!("===== {title} =====");
        println!("{xml}\n");
    }
    Ok(())
}

// ---- the SD case studies ----------------------------------------------------

/// **CS-1**: responsiveness vs injected message loss (the shape of paper
/// ref. \[25\]). Each loss level is an independent experiment.
fn cs1_responsiveness_loss(reps: u64, workers: usize) -> Result<(), String> {
    let losses = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
    println!("CS-1: responsiveness vs message loss on the SM ({reps} replications/level)\n");
    let shards = loss_sweep_shards(&losses, reps, 20261);
    let outcomes = run_indexed(workers, shards.len(), |i| -> Outcome {
        Ok(ExperiMaster::new(shards[i].clone(), on(Topology::chain(2)))?.execute()?)
    });

    println!("{}", curve_header());
    for (loss, outcome) in losses.iter().zip(outcomes) {
        let curve = responsiveness_curve(&episodes(&outcome?)?, 1, &DEADLINES_S);
        println!("{}", curve_row(&format!("fact_loss={loss}"), &curve));
    }
    println!("\nshape: R falls with loss; longer deadlines recover via retransmission backoff.");
    Ok(())
}

/// **CS-2**: responsiveness vs generated background load, with the Fig. 5
/// factors (node pairs × data rate) driving the Fig. 7 traffic generator.
fn cs2_responsiveness_load(reps: u64, _: usize) -> Result<(), String> {
    println!("CS-2: responsiveness vs background load ({reps} replications/treatment)");
    println!("factors as in Fig. 5: pairs ∈ {{5, 20}}, rate ∈ {{10, 50, 100}} … plus a 2000 kbit/s stress level\n");
    let mut desc = load_sweep(&[5, 20], &[10, 100, 2000], reps, 20262);
    // A 6-node chain (A and B at the ends) makes the shared medium scarce,
    // as on a sparse section of the DES mesh.
    desc.platform = PlatformSpec::new()
        .with_actor_node("t9-157", "10.0.0.157", "A")
        .with_actor_node("t9-105", "10.0.0.105", "B")
        .with_env_node("t9-001", "10.0.0.1")
        .with_env_node("t9-002", "10.0.0.2")
        .with_env_node("t9-003", "10.0.0.3")
        .with_env_node("t9-004", "10.0.0.4");
    let outcome = ExperiMaster::new(desc, on(Topology::chain(6)))?.execute()?;

    let mut episodes = ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.episodes_by_run())
        .map_err(|e| e.to_string())?;
    let mut grouped: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for run in &outcome.runs {
        let eps = episodes.remove(&run.run_id).unwrap_or_default();
        let key: String = run
            .treatment_key
            .split('|')
            .filter(|kv| kv.starts_with("fact_bw=") || kv.starts_with("fact_pairs="))
            .collect::<Vec<_>>()
            .join("|");
        grouped.entry(key).or_default().extend(eps);
    }
    println!("{}", curve_header());
    for (label, eps) in &grouped {
        let curve = responsiveness_curve(eps, 1, &DEADLINES_S);
        println!("{}", curve_row(label, &curve));
    }
    println!("\nmean t_R per treatment (successful discoveries):");
    for (label, eps) in &grouped {
        match Summary::compute(&first_t_rs_s(eps)) {
            Some(s) => println!(
                "  {label:<28} n={:<4} mean={:.4}s median={:.4}s p95={:.4}s",
                s.n, s.mean, s.median, s.p95
            ),
            None => println!("  {label:<28} no successful discovery"),
        }
    }
    Ok(())
}

/// **CS-3**: responsiveness vs hop distance (the shape of paper ref.
/// \[26\]): per-hop loss compounds over the path. The six hop counts are
/// independent experiments.
fn cs3_responsiveness_hops(reps: u64, workers: usize) -> Result<(), String> {
    println!("CS-3: responsiveness vs hop distance ({reps} replications/hop count)");
    println!("lossy mesh links: 15% base loss per hop, as on weak DES links\n");
    let shards = hop_distance_shards(1..=6, reps, 20263);
    let outcomes = run_indexed(workers, shards.len(), |i| -> Outcome {
        let (hops, desc) = &shards[i];
        let mut cfg = on(chain_between_actors(*hops));
        // Weak links: per-hop loss compounds over the path.
        cfg.sim.link_model.base_loss = 0.15;
        Ok(ExperiMaster::new(desc.clone(), cfg)?.execute()?)
    });

    println!("{}", curve_header());
    let mut medians = Vec::new();
    for ((hops, _), outcome) in shards.iter().zip(outcomes) {
        let eps = episodes(&outcome?)?;
        let curve = responsiveness_curve(&eps, 1, &DEADLINES_S);
        println!("{}", curve_row(&format!("hops={hops}"), &curve));
        medians.push((
            hops,
            Summary::compute(&first_t_rs_s(&eps)).map(|s| s.median),
        ));
    }
    println!("\nmedian t_R by hop count:");
    for (hops, median) in medians {
        match median {
            Some(m) => println!("  {hops} hops: {m:.4} s"),
            None => println!("  {hops} hops: no discovery"),
        }
    }
    Ok(())
}

/// **CS-4**: two-party vs three-party vs hybrid with growing numbers of
/// SMs: where centralization pays off. Half the replications per cell.
fn cs4_architecture_compare(reps: u64, workers: usize) -> Result<(), String> {
    let reps = (reps / 2).max(5);
    println!("CS-4: architecture comparison ({reps} replications/cell)\n");
    println!(
        "{:<14} {:>5} {:>10} {:>12} {:>12} {:>10}",
        "architecture", "n_sm", "R(2s,k=n)", "tx/run", "relays/run", "R(30s)"
    );
    let cells: Vec<(usize, &str)> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|n_sm| ["two-party", "three-party", "hybrid"].map(|arch| (n_sm, arch)))
        .collect();
    let rows = run_indexed(workers, cells.len(), |i| -> Result<String, String> {
        let (n_sm, arch) = cells[i];
        let with_scm = arch != "two-party";
        let desc = multi_sm(n_sm, arch, with_scm, reps, 20264);
        let mut master = ExperiMaster::new(desc, on(Topology::grid(4, 3)))?;
        let outcome = master.execute()?;
        let stats = master.simulator().lock().stats();
        let curve = responsiveness_curve(&episodes(&outcome)?, n_sm, &[2.0, 30.0]);
        let runs = outcome.runs.len() as f64;
        Ok(format!(
            "{arch:<14} {n_sm:>5} {:>10.3} {:>12.1} {:>12.1} {:>10.3}",
            curve[0].probability,
            stats.sent as f64 / runs,
            stats.forwarded as f64 / runs,
            curve[1].probability,
        ))
    });
    for row in rows {
        println!("{}", row?);
    }
    println!("\nshape: directed discovery amortizes the SCM as SMs grow; the flood cost");
    println!("of two-party grows with responders while three-party queries stay unicast.");
    Ok(())
}

/// **CS-5**: ablation of the SDP's query retransmission backoff (paper
/// §VI) under heavy injected loss: constant retry recovers fastest but
/// floods the medium; aggressive backoff is cheap but late.
fn cs5_ablation_backoff(reps: u64, workers: usize) -> Result<(), String> {
    println!("CS-5: query-backoff ablation at 75% message loss ({reps} replications/setting)\n");
    println!("{}", curve_header());
    let backoffs = [1.0f64, 1.5, 2.0, 3.0];
    // Each setting's curve row and its transmissions per run.
    let settings = run_indexed(workers, backoffs.len(), |i| -> Result<_, String> {
        let desc = loss_sweep(&[0.75], reps, 20265);
        let mut cfg = on(Topology::chain(2));
        cfg.sd_config = Some(SdConfig {
            query_backoff: backoffs[i],
            ..SdConfig::two_party()
        });
        let mut master = ExperiMaster::new(desc, cfg)?;
        let outcome = master.execute()?;
        let stats = master.simulator().lock().stats();
        let curve = responsiveness_curve(&episodes(&outcome)?, 1, &DEADLINES_S);
        let row = curve_row(&format!("backoff={}", backoffs[i]), &curve);
        Ok((row, stats.sent as f64 / outcome.runs.len() as f64))
    });
    let mut costs = Vec::new();
    for (backoff, setting) in backoffs.into_iter().zip(settings) {
        let (row, cost) = setting?;
        println!("{row}");
        costs.push((backoff, cost));
    }
    println!("\nnetwork cost (transmissions per run):");
    for (backoff, cost) in costs {
        println!("  backoff={backoff}: {cost:.1}");
    }
    Ok(())
}

/// **CS-6**: the closed-form responsiveness model overlaid on the
/// measured R(d) of the hop-distance scenario at several per-link losses.
fn cs6_model_vs_experiment(reps: u64, workers: usize) -> Result<(), String> {
    fn cells(values: impl Iterator<Item = f64>) -> String {
        values.map(|v| format!("{v:>7.3}")).collect()
    }
    let deadlines = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];
    println!("CS-6: measured responsiveness vs analytic model ({reps} replications/cell)\n");
    println!(
        "{:<20} {:>8} {}",
        "configuration",
        "",
        deadlines
            .iter()
            .map(|d| format!("{d:>7}"))
            .collect::<String>()
    );
    let configs = [(1u32, 0.1f64), (1, 0.3), (3, 0.1), (3, 0.3), (5, 0.2)];
    let outcomes = run_indexed(workers, configs.len(), |i| -> Outcome {
        let (hops, loss) = configs[i];
        let desc = hop_distance(reps, 20_266 + hops as u64);
        // The model assumes fixed per-link loss: the scenario has no
        // background traffic to drive the load term, and the model absorbs
        // the jitter it keeps as mean delay.
        let mut cfg = on(chain_between_actors(hops as usize));
        cfg.sim.link_model.base_loss = loss;
        Ok(ExperiMaster::new(desc, cfg)?.execute()?)
    });
    for (&(hops, loss), outcome) in configs.iter().zip(outcomes) {
        let measured = responsiveness_curve(&episodes(&outcome?)?, 1, &deadlines);
        let model = ResponsivenessModel::new(hops, loss);
        let label = format!("h={hops} p={loss}");
        println!(
            "{label:<20} {:>8} {}",
            "meas",
            cells(measured.iter().map(|p| p.probability))
        );
        println!(
            "{:<20} {:>8} {}",
            "",
            "model",
            cells(deadlines.iter().map(|d| model.predict(*d)))
        );
    }
    println!("\nthe model should track the measurement within sampling error; deviations");
    println!("at mid deadlines reflect response jitter and the model's independence assumption.");
    Ok(())
}

/// One CS-7 cell: `n_sus` users continuously searching one SM for 60 s;
/// returns the SM's responses sent and suppressed, and the discoveries.
fn cs7_cell(n_sus: u16, suppression: bool, seed: u64) -> (u64, u64, u64) {
    let cfg = SimulatorConfig {
        link_model: LinkModel {
            base_loss: 0.01,
            ..LinkModel::default()
        },
        ..SimulatorConfig::perfect_clocks(seed)
    };
    let mut sim = Simulator::new(Topology::grid((n_sus + 1).into(), 1), cfg);
    let sd_cfg = SdConfig {
        known_answer_suppression: suppression,
        ..SdConfig::two_party()
    };
    for n in 0..=n_sus {
        sim.install_agent(
            NodeId(n),
            SD_PORT,
            Box::new(SdAgent::new(sd_cfg.clone(), SD_PORT)),
        );
    }
    let service_type = || ServiceType::new("_cs7._tcp");
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(
        &mut sim,
        NodeId(0),
        SdCommand::StartPublish(ServiceDescription::new("sm", service_type(), NodeId(0))),
    );
    for n in 1..=n_sus {
        sd_command(&mut sim, NodeId(n), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(n), SdCommand::StartSearch(service_type()));
    }
    // Continuous operation: maintenance queries keep firing.
    sim.run_for(SimDuration::from_secs(60));
    let stats = sim
        .with_agent_mut(NodeId(0), SD_PORT, |agent, _| {
            agent
                .as_any_mut()
                .downcast_ref::<SdAgent>()
                .unwrap()
                .stats()
        })
        .unwrap();
    let discovered = sim
        .drain_protocol_events()
        .iter()
        .filter(|e| e.name == "sd_service_add")
        .count() as u64;
    (stats.responses_sent, stats.suppressed_responses, discovered)
}

/// **CS-7**: ablation of known-answer suppression (RFC 6762 §7.1), the
/// cache-driven traffic reduction of paper §III-A. One seed per ten
/// replications.
fn cs7_ablation_suppression(reps: u64, workers: usize) -> Result<(), String> {
    let seeds = (reps / 10).max(3);
    println!("CS-7: known-answer suppression ablation ({seeds} seeds, 60 s continuous search)\n");
    println!(
        "{:<8} {:<12} {:>12} {:>12} {:>12}",
        "SUs", "suppression", "responses", "suppressed", "discoveries"
    );
    let settings: Vec<(u16, bool)> = [1u16, 4, 8]
        .into_iter()
        .flat_map(|n_sus| [(n_sus, true), (n_sus, false)])
        .collect();
    // One job per setting and seed, the seeds of a setting contiguous.
    let n_seeds = seeds as usize;
    let cells = run_indexed(workers, settings.len() * n_seeds, |i| {
        let (n_sus, supp) = settings[i / n_seeds];
        cs7_cell(n_sus, supp, 1000 + (i % n_seeds) as u64)
    });
    for (&(n_sus, supp), cells) in settings.iter().zip(cells.chunks(n_seeds)) {
        let (mut resp, mut suppd, mut disc) = (0, 0, 0);
        for &(r, s, d) in cells {
            resp += r;
            suppd += s;
            disc += d;
        }
        println!(
            "{:<8} {:<12} {:>12.1} {:>12.1} {:>12.1}",
            n_sus,
            supp,
            resp as f64 / seeds as f64,
            suppd as f64 / seeds as f64,
            disc as f64 / seeds as f64
        );
    }
    println!("\nshape: suppression cuts the SM's response load as SUs (and their caches)");
    println!("grow, at identical discovery counts — the cache earns its keep.");
    Ok(())
}

/// The CS-8 engine configuration: fault-free at rate 0, otherwise an
/// eventually clearing control-channel fault schedule.
fn cs8_config(rate: f64, seed: u64) -> EngineConfig {
    let mut cfg = on(Topology::chain(2));
    if rate > 0.0 {
        let chaos = ChaosOptions::flaky(seed ^ 0xC4A0_5000, rate, 64);
        cfg.retry = RetryPolicy::for_chaos(chaos.horizon_calls);
        cfg.chaos = Some(chaos);
    }
    cfg
}

/// **CS-8**: control-plane chaos and recovery cost. Each fault rate's
/// packaged results must equal, digest for digest, the fault-free
/// execution of the same seed; alongside, the retries and wall time the
/// recovery cost. Fails on any drift or on a schedule that never fired.
fn cs8_chaos_recovery(reps: u64, workers: usize) -> Result<(), String> {
    const SEEDS: [u64; 3] = [301, 1105, 1729];
    println!("CS-8: control-plane chaos recovery ({reps} replications/cell)\n");
    println!(
        "{:<8} {:<8} {:>18} {:>9} {:>9}  equal?",
        "rate", "seed", "digest", "retries", "wall_ms"
    );
    for rate in [0.0, 0.3, 0.6, 0.9] {
        let started = Instant::now();
        let outcomes = run_indexed(workers, SEEDS.len(), |i| -> Outcome {
            let desc = loss_sweep(&[0.25], reps, SEEDS[i]);
            Ok(ExperiMaster::new(desc, cs8_config(rate, SEEDS[i]))?.execute()?)
        });
        let wall_ms = started.elapsed().as_millis() / SEEDS.len() as u128;

        for (&seed, outcome) in SEEDS.iter().zip(outcomes) {
            let outcome = outcome?;
            let digest = outcome.digest();
            let baseline =
                ExperiMaster::new(loss_sweep(&[0.25], reps, seed), cs8_config(0.0, seed))?
                    .execute()?;
            let equal = digest == baseline.digest();
            println!(
                "{:<8} {:<8} {:>18x} {:>9} {:>9}  {}",
                rate,
                seed,
                digest,
                outcome.control_retries,
                wall_ms,
                if equal { "yes" } else { "NO — DRIFT" }
            );
            if !equal {
                return Err(format!(
                    "rate {rate}, seed {seed}: chaos changed the measured results"
                ));
            }
            if rate > 0.0 && outcome.control_retries == 0 {
                return Err(format!(
                    "rate {rate}, seed {seed}: chaos schedule was never exercised"
                ));
            }
        }
    }
    println!("\nall chaotic executions reproduced their fault-free digests");
    Ok(())
}

/// The packet-tagger measurement chain (paper §VI-A): CBR background
/// flows with known per-link loss, the loss reconstructed from tag gaps
/// in the stored `Packets` table.
fn tagger_validation(_: u64, _: usize) -> Result<(), String> {
    println!("packet-tagger validation: configured vs tag-gap-estimated loss\n");
    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "base_loss", "expected", "estimated", "sources"
    );
    // (expected, estimated) of every row, for the closing comparison.
    let mut rows = Vec::new();
    for &loss in &[0.0f64, 0.1, 0.2, 0.3, 0.4] {
        let mut desc = load_sweep(&[2], &[200], 1, 4242);
        for env in &mut desc.env_processes {
            for action in &mut env.actions {
                if let ProcessAction::Invoke { name, params } = action {
                    if name == "env_traffic_start" {
                        params.push(("inject".to_string(), ValueRef::int(1)));
                        params.push(("packet_size".to_string(), ValueRef::int(400)));
                    }
                }
            }
        }
        // Probe the mid-chain link load while traffic is active, through
        // the plugin + ExtraRunMeasurements pipeline (§IV-B).
        for env in &mut desc.env_processes {
            let pos = env
                .actions
                .iter()
                .position(|a| a.name() == "env_traffic_start")
                .map(|i| i + 1)
                .unwrap_or(env.actions.len());
            env.actions
                .insert(pos, ProcessAction::invoke("probe_link_load"));
        }
        // Extend the run: hold the SU open for 30 s after discovery so the
        // CBR flows produce a long tag stream.
        let su = desc
            .node_processes
            .iter_mut()
            .find(|p| p.actor_id == "actor1")
            .unwrap();
        let done_pos = su
            .actions
            .iter()
            .position(|a| matches!(a, ProcessAction::EventFlag { .. }))
            .unwrap();
        su.actions.insert(
            done_pos,
            ProcessAction::WaitForTime {
                seconds: ValueRef::int(30),
            },
        );
        let mut cfg = on(Topology::chain(6));
        cfg.sim.link_model.base_loss = loss;
        cfg.run_timeout = SimDuration::from_secs(90);
        let model_k = cfg.sim.link_model.load_loss_factor;
        let model_cap = cfg.sim.link_model.capacity_kbps;
        let mut master = ExperiMaster::new(desc, cfg)?;
        master.register_plugin(
            "probe_link_load",
            Box::new(|_params, ctx| {
                let load = ctx.sim.link_load(NodeId(2), NodeId(3));
                ctx.record_measurement("master", "load_2_3", load.to_string().into_bytes());
                Ok(())
            }),
        );
        let outcome = master.execute()?;
        // The true per-link loss combines the configured base loss with the
        // load-induced component of the link model (the CBR flows offer
        // real load): p = 1 - (1-p0) * exp(-k*u), with u probed mid-run by
        // the plugin above and stored in ExtraRunMeasurements.
        let ds = ExperimentDataset::new(&outcome.database).map_err(|e| e.to_string())?;
        let probed = ds
            .query()
            .scan("ExtraRunMeasurements")
            .filter(col("Name").eq(lit("load_2_3")))
            .select(["Content"])
            .collect()
            .map_err(|e| e.to_string())?;
        let probed_load: f64 = probed
            .rows
            .first()
            .and_then(|row| std::str::from_utf8(row[0].as_bytes()?).ok())
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.0);
        let expected = 1.0 - (1.0 - loss) * (-model_k * (probed_load / model_cap).min(0.95)).exp();
        let best = best_stream_loss_per_source(&ds, outcome.runs[0].run_id, 50)
            .map_err(|e| e.to_string())?;
        // Mean of the per-source best estimates (one-hop observers).
        let estimated = if best.is_empty() {
            f64::NAN
        } else {
            best.values().sum::<f64>() / best.len() as f64
        };
        println!(
            "{loss:<14} {expected:>12.4} {estimated:>12.4} {:>10}",
            best.len()
        );
        rows.push((expected, estimated));
    }
    let rise = |pick: fn(&(f64, f64)) -> f64| match (rows.first(), rows.last()) {
        (Some(first), Some(last)) => pick(last) - pick(first),
        _ => f64::NAN,
    };
    println!(
        "\nover the sweep the estimate rises {:.3} where the expected loss rises {:.3};",
        rise(|r| r.1),
        rise(|r| r.0)
    );
    println!("the remaining offset is path loss: tag gaps measure the whole source→observer");
    println!("path (>= 1 hop, under heterogeneous per-link load), not a single link.");
    Ok(())
}
