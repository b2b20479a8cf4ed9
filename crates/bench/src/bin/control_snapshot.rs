//! Bench smoke runner for the control plane: times one lifecycle
//! fan-out over a 1,000-NodeManager fleet on the multiplexed reactor —
//! flat and through sub-master relays — against a thread-per-node
//! reference model (the dispatcher the engine used to default to), and
//! writes `BENCH_control.json`.
//!
//! Same contract as `bench_snapshot` and `query_snapshot`: wall times
//! come from plain `Instant` medians and vary by machine; the
//! *deterministic* fields (`nodes`, `relays`, `wire_ops`, `digest`,
//! `engine_digest`) are byte-stable across environments and are diffed
//! against the committed snapshot in CI. Three invariants are asserted
//! outright, so a regression fails the binary itself:
//!
//! 1. all three dispatch paths return bit-identical per-node results
//!    (one shared result digest),
//! 2. the reactor's per-phase dispatch latency is at least 5× better
//!    than the threaded path at 1,000 nodes,
//! 3. a full experiment produces digest-equal [`ExperimentOutcome`]s
//!    flat and through a fan-out tree (the seed-1 `grid_default` cell of
//!    the golden table, so drift is also caught against
//!    `golden_outcomes`).
//!
//! Usage: `control_snapshot [output-path]` (default `BENCH_control.json`).
//!
//! [`ExperimentOutcome`]: excovery_core::ExperimentOutcome

use excovery_core::{EngineConfig, ExperiMaster};
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::ExperimentDescription;
use excovery_obs::sync::Mutex;
use excovery_rpc::{
    relay_registry, Channel, NodeCall, NodeProxy, Reactor, ReactorEndpoint, RetryPolicy,
    ServerRegistry, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fleet size of the headline benchmark.
const NODES: usize = 1000;
/// Members per sub-master relay; 1000 / 32 gives 31 full relays plus one
/// ragged group of 8, so the tree path exercises both shapes.
const RELAY_WIDTH: usize = 32;

/// Fresh idempotency keys per fan-out: the registries' dedup caches must
/// never replay across iterations, or the bench would time cache hits.
static SEQ: AtomicU64 = AtomicU64::new(0);

fn key() -> String {
    format!("bench:0:{}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// One NodeManager stand-in per fleet member: a `run_init` handler that
/// reads its parameter and answers with a node-dependent value, so the
/// result digest proves every node executed and answered in order.
fn node_registry(index: usize) -> ServerRegistry {
    let mut reg = ServerRegistry::new();
    reg.register("run_init", move |params| {
        let run = match params.first() {
            Some(Value::Int(r)) => i64::from(*r),
            _ => 0,
        };
        Ok(Value::Int((run + index as i64) as i32))
    });
    reg
}

fn node_id(index: usize) -> String {
    format!("n{index:04}")
}

/// FNV-1a over the per-node answers in fleet order: one digest format
/// shared by all three dispatch paths, so bit-identity shows up as equal
/// `digest` fields in the snapshot.
fn values_digest(values: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        let Value::Int(n) = v else {
            panic!("run_init answered a non-integer: {v:?}")
        };
        for byte in n.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The thread-per-node reference model: one scoped thread per node, each
/// pushing one idempotent frame through the full in-memory channel (XML
/// encode, dispatch, XML decode).
fn threaded_phase(proxies: &[NodeProxy]) -> u64 {
    let keys: Vec<String> = proxies.iter().map(|_| key()).collect();
    let values = std::thread::scope(|scope| {
        let handles: Vec<_> = proxies
            .iter()
            .zip(&keys)
            .map(|(proxy, key)| {
                scope.spawn(move || {
                    proxy
                        .call_idempotent("run_init", vec![Value::Int(0)], key)
                        .expect("threaded run_init failed")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatch thread panicked"))
            .collect::<Vec<_>>()
    });
    values_digest(&values)
}

/// One reactor sweep over the whole fleet: a single `dispatch` of 1,000
/// calls, multiplexed on this thread.
fn reactor_phase(reactor: &mut Reactor) -> u64 {
    let calls: Vec<NodeCall> = (0..NODES)
        .map(|i| NodeCall {
            node_id: node_id(i),
            method: "run_init".into(),
            params: vec![Value::Int(0)],
            idem_key: key(),
        })
        .collect();
    let values: Vec<Value> = reactor
        .dispatch(calls, &RetryPolicy::none())
        .into_iter()
        .map(|o| o.result.expect("reactor run_init failed"))
        .collect();
    values_digest(&values)
}

fn flat_reactor() -> Reactor {
    let mut reactor = Reactor::new();
    for i in 0..NODES {
        let reg = Arc::new(Mutex::new(node_registry(i)));
        reactor.add_node(node_id(i), ReactorEndpoint::Memory(reg), None);
    }
    reactor
}

/// The fan-out tree: `RELAY_WIDTH`-member sub-master relays, so a phase
/// costs one batched frame per relay instead of one frame per node.
fn relay_reactor() -> (Reactor, usize) {
    let mut reactor = Reactor::new();
    let fleet: Vec<(String, Arc<Mutex<ServerRegistry>>)> = (0..NODES)
        .map(|i| (node_id(i), Arc::new(Mutex::new(node_registry(i)))))
        .collect();
    let mut relays = 0;
    for group in fleet.chunks(RELAY_WIDTH) {
        let relay = Arc::new(Mutex::new(relay_registry(group.to_vec())));
        let members = group.iter().map(|(id, _)| (id.clone(), None)).collect();
        reactor.add_relay(ReactorEndpoint::Memory(relay), members);
        relays += 1;
    }
    (reactor, relays)
}

/// The golden suite's trimmed two-party SD experiment, reused verbatim so
/// the engine-parity digest below is the pinned seed-1 `grid_default`
/// cell of the golden table.
fn golden_desc(seed: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(2);
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

fn engine_digest(fanout: Option<usize>) -> u64 {
    let mut cfg = EngineConfig::grid_default();
    cfg.fanout_tree = fanout;
    let mut master = ExperiMaster::new(golden_desc(1), cfg).expect("engine config rejected");
    master.execute().expect("experiment failed").digest()
}

struct Sample {
    name: &'static str,
    ns_per_iter: u128,
    nodes: usize,
    wire_ops: usize,
    digest: u64,
}

fn measure(
    name: &'static str,
    iters: u32,
    nodes: usize,
    wire_ops: usize,
    mut run: impl FnMut() -> u64,
) -> Sample {
    let digest = run();
    let mut times: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    Sample {
        name,
        ns_per_iter: times[times.len() / 2],
        nodes,
        wire_ops,
        digest,
    }
}

fn render(samples: &[Sample], relays: usize, speedup: f64, engine: u64) -> String {
    // Hand-rolled JSON, like the other snapshot binaries: fixed
    // identifiers and numbers only, so no escaping and no serializer
    // dependency.
    let mut out = String::from("{\n  \"suite\": \"control\",\n");
    out.push_str(&format!(
        "  \"fleet\": {{\"nodes\": {NODES}, \"relays\": {relays}, \
         \"relay_width\": {RELAY_WIDTH}}},\n"
    ));
    out.push_str(&format!(
        "  \"speedup_reactor_vs_threaded\": {speedup:.2},\n"
    ));
    out.push_str(&format!(
        "  \"engine\": {{\"preset\": \"grid_default\", \"seed\": 1, \
         \"engine_digest\": {engine}}},\n  \"benches\": [\n"
    ));
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"nodes\": {}, \
             \"wire_ops\": {}, \"digest\": {}}}{}\n",
            s.name,
            s.ns_per_iter,
            s.nodes,
            s.wire_ops,
            s.digest,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> Result<(), String> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_control.json".into());
    let iters: u32 = std::env::var("EXCOVERY_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    let proxies: Vec<NodeProxy> = (0..NODES)
        .map(|i| NodeProxy::new(node_id(i), Channel::new(node_registry(i))))
        .collect();
    let mut flat = flat_reactor();
    let (mut tree, relays) = relay_reactor();

    let samples = [
        measure("threaded_phase_1000", iters, NODES, NODES, || {
            threaded_phase(&proxies)
        }),
        measure("reactor_phase_1000", iters, NODES, NODES, || {
            reactor_phase(&mut flat)
        }),
        measure("reactor_relay_phase_1000", iters, NODES, relays, || {
            reactor_phase(&mut tree)
        }),
    ];

    // Invariant 1: every dispatch path collected the same per-node
    // answers in the same fleet order.
    assert_eq!(
        samples[0].digest, samples[1].digest,
        "threaded and reactor fan-outs returned different results"
    );
    assert_eq!(
        samples[0].digest, samples[2].digest,
        "the relay tree returned different results"
    );

    // Invariant 2: the acceptance bar — multiplexing 1,000 lifecycle
    // calls on one thread beats 1,000 thread spawns plus per-node XML
    // round-trips by at least 5×.
    assert!(
        samples[1].ns_per_iter.saturating_mul(5) <= samples[0].ns_per_iter,
        "reactor dispatch is not ≥5× faster: threaded {} ns, reactor {} ns",
        samples[0].ns_per_iter,
        samples[1].ns_per_iter,
    );

    // Invariant 3: the fan-out shape is invisible to a real experiment.
    let flat_engine = engine_digest(None);
    assert_eq!(
        flat_engine,
        engine_digest(Some(2)),
        "fan-out tree changed the experiment outcome"
    );

    let speedup = samples[0].ns_per_iter as f64 / samples[1].ns_per_iter as f64;
    let json = render(&samples, relays, speedup, flat_engine);
    print!("{json}");
    std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}
