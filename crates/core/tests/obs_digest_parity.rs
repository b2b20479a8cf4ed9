//! Observability must be invisible in the results: running the same
//! experiment with the full instrumentation stack enabled — metrics,
//! spans, per-run summaries and the level-2 snapshot — must produce a
//! packaged database and run summaries bit-identical to the
//! uninstrumented execution ([`ExperimentOutcome::digest`]), on 1, 2 and
//! 4 simulator shards alike.
//!
//! The observability flag is process-global, so the off-baselines and
//! the on-executions are sequenced inside a single test: the flag is
//! only ever flipped on, never raced against a concurrently running
//! disabled-state assertion.

use excovery_core::{EngineConfig, ExperiMaster, ExperimentOutcome, RetryPolicy};
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::ExperimentDescription;
use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::SimulatorConfig;
use excovery_netsim::topology::Topology;
use excovery_netsim::SimDuration;
use excovery_rpc::ChaosOptions;
use excovery_store::level2::Level2Store;
use std::path::PathBuf;

/// Shard counts run beside the single-shard reference.
const MORE_SHARDS: [usize; 2] = [2, 4];

fn desc_with_seed(reps: u64, seed: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(reps);
    d.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    d.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    d.seed = seed;
    d
}

fn unique_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "excovery-obs-parity-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn base_config(tag: &str, shards: usize) -> EngineConfig {
    EngineConfig {
        topology: Topology::grid(3, 2),
        sim: SimulatorConfig {
            link_model: LinkModel {
                base_loss: 0.0,
                ..LinkModel::default()
            },
            shards,
            ..SimulatorConfig::default()
        },
        run_timeout: SimDuration::from_secs(60),
        l2_root: Some(unique_root(tag)),
        ..EngineConfig::grid_default()
    }
}

fn execute(desc: ExperimentDescription, cfg: EngineConfig) -> ExperimentOutcome {
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    master.execute().unwrap()
}

fn chaos_config(tag: &str, chaos: &ChaosOptions, shards: usize) -> EngineConfig {
    assert!(chaos.eventually_clears());
    let mut cfg = base_config(tag, shards);
    cfg.chaos = Some(chaos.clone());
    cfg.retry = RetryPolicy::for_chaos(chaos.horizon_calls + chaos.longest_crash_window());
    cfg
}

/// The digests of the plain and of the chaotic execution at `shards`
/// simulator shards.
fn plain_and_chaos_digests(seed: u64, chaos: &ChaosOptions, shards: usize) -> [u64; 2] {
    [
        execute(desc_with_seed(2, seed), base_config("plain", shards)).digest(),
        execute(
            desc_with_seed(2, seed),
            chaos_config("chaos", chaos, shards),
        )
        .digest(),
    ]
}

#[test]
fn digest_is_identical_with_observability_on_and_off() {
    assert!(
        !excovery_obs::enabled(),
        "this test owns the process-global obs flag and must see it off first"
    );
    let seed = 42u64;
    let chaos = ChaosOptions::flaky(0xC0FFEE, 0.4, 60);

    // ---- baselines, observability disabled ----------------------------
    let off_plain = execute(desc_with_seed(2, seed), base_config("off-plain", 1));
    assert!(off_plain.runs.iter().all(|r| r.completed));
    let off_chaos = execute(
        desc_with_seed(2, seed),
        chaos_config("off-chaos", &chaos, 1),
    );
    assert!(off_chaos.control_retries > 0, "chaos was never exercised");
    assert_eq!(off_plain.digest(), off_chaos.digest());
    for shards in MORE_SHARDS {
        assert_eq!(
            plain_and_chaos_digests(seed, &chaos, shards),
            [off_plain.digest(); 2],
            "observability off, {shards} shards"
        );
    }

    // ---- identical executions, full instrumentation enabled -----------
    excovery_obs::ObsConfig::on().install();
    let mut on_cfg = base_config("on-plain", 1);
    on_cfg.keep_l2 = true;
    let on_plain = execute(desc_with_seed(2, seed), on_cfg);
    assert_eq!(
        on_plain.digest(),
        off_plain.digest(),
        "enabling observability changed the packaged results"
    );
    let on_chaos = execute(desc_with_seed(2, seed), chaos_config("on-chaos", &chaos, 1));
    assert_eq!(
        on_chaos.digest(),
        off_plain.digest(),
        "observability + chaos changed the packaged results"
    );

    // The instrumentation really ran: the engine counted phases, the
    // chaos layer counted injections.
    let snap = excovery_obs::global().snapshot();
    let runs_executed: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "master_runs_executed_total")
        .map(|c| c.value)
        .sum();
    assert_eq!(runs_executed, 4, "two experiments of two runs each");
    let injections: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "rpc_chaos_injections_total")
        .map(|c| c.value)
        .sum();
    assert!(injections > 0, "chaos injections were not observed");

    // One call path: every control call of the memory campaigns above —
    // lifecycle fan-outs and in-run calls, with and without chaos — is a
    // reactor wire op, and none of them is encoded as XML.
    let labelled_sum = |name: &str, label: (&str, &str)| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .filter(|c| {
                c.labels
                    .iter()
                    .any(|(k, v)| (k.as_str(), v.as_str()) == label)
            })
            .map(|c| c.value)
            .sum()
    };
    let transport = ("transport", "memory");
    assert_eq!(labelled_sum("rpc_client_bytes_sent_total", transport), 0);
    assert_eq!(
        labelled_sum("rpc_client_bytes_received_total", transport),
        0
    );
    let client_calls = labelled_sum("rpc_client_calls_total", transport);
    assert!(client_calls > 0, "no memory client calls were recorded");
    assert_eq!(
        client_calls,
        labelled_sum("rpc_reactor_wire_ops_total", ("link", "memory")),
        "a memory client call bypassed the reactor"
    );

    // The kept level-2 tree holds the per-run summaries and the
    // experiment snapshot, both readable by the JSONL parser — and the
    // digest parity above proves none of it leaked into level 3.
    let l2 = Level2Store::open(&on_plain.l2_root).unwrap();
    let mut summaries = Vec::new();
    for run in [0u64, 1] {
        assert!(
            l2.run_entries(run)
                .unwrap()
                .contains(&("_obs".into(), "summary.jsonl".into())),
            "run {run}: missing _obs/summary.jsonl"
        );
        let raw = l2.get_run(run, "_obs", "summary.jsonl").unwrap();
        let (s, _spans) = excovery_obs::jsonl::parse(std::str::from_utf8(&raw).unwrap()).unwrap();
        assert!(!s.counters.is_empty());
        summaries.push(s);
    }
    // The level-2 cost of a run is pinned: each summary is taken just
    // before its run seals, so run 1's minus run 0's is the seal of run 0
    // and nothing else — one record, one journal line.
    let between_summaries = |name: &str, labels: &[(&str, &str)]| {
        let at = |s: &excovery_obs::Snapshot| {
            let labelled = |c: &&excovery_obs::MetricValue<u64>| {
                let have = c.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                c.name == name && have.eq(labels.iter().copied())
            };
            s.counters.iter().find(labelled).map_or(0, |c| c.value)
        };
        at(&summaries[1]) - at(&summaries[0])
    };
    assert_eq!(
        between_summaries("store_writes_total", &[("level", "2")]),
        2
    );
    assert_eq!(between_summaries("store_journal_commits_total", &[]), 1);
    let seals = |s: &excovery_obs::Snapshot| {
        s.histograms
            .iter()
            .find(|h| h.name == "store_run_seal_duration_ns")
            .map_or(0, |h| h.value.count)
    };
    assert_eq!((seals(&summaries[0]), seals(&summaries[1])), (0, 1));
    let raw = l2.get_experiment("_obs", "snapshot.jsonl").unwrap();
    excovery_obs::jsonl::parse(std::str::from_utf8(&raw).unwrap()).unwrap();

    std::fs::remove_dir_all(&on_plain.l2_root).ok();

    // The sharded executions with observability on come last, so the
    // counts above are those of the two single-shard experiments.
    for shards in MORE_SHARDS {
        assert_eq!(
            plain_and_chaos_digests(seed, &chaos, shards),
            [off_plain.digest(); 2],
            "observability on, {shards} shards"
        );
    }
}
