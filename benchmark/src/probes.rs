//! Probes: a fixed piece of work pushed through one nested layer's public
//! API, after the traced loop, for the layers `execute` hides.

use crate::harness::{Scratch, Tracer};
use excovery::netsim::link::LinkModel;
use excovery::netsim::sim::{Simulator, SimulatorConfig};
use excovery::netsim::topology::Topology;
use excovery::netsim::{NodeId, SimDuration};
use excovery::rpc::{
    Channel, NodeProxy, ServerRegistry, TcpOptions, TcpRpcServer, TcpTransport, Value,
};
use excovery::sd::{
    sd_command, Role, SdAgent, SdCommand, SdConfig, ServiceDescription, ServiceType, SD_PORT,
};
use excovery::store::level2::Level2Store;
use std::collections::BTreeMap;
use std::hint::black_box;

const ECHO_CALLS: u32 = 2000;
const DISCOVERIES: u64 = 200;
/// Runs of the level-2 commit probe (the length of `cs1_long`), how many
/// at either end are averaged, and the files each run writes (the engine
/// writes 10 per CS-1 run before marking it complete).
const L2_RUNS: usize = 200;
const L2_WINDOW: usize = 50;
const L2_FILES_PER_RUN: u64 = 10;
const L2_FILE_BYTES: usize = 960;

fn echo_registry() -> ServerRegistry {
    let mut reg = ServerRegistry::new();
    reg.register("echo", |params| Ok(Value::Array(params.to_vec())));
    reg
}

/// `rpc.roundtrip_us`: echo calls through the in-memory `Channel`, the
/// full XML encode → dispatch → decode path a lifecycle call pays.
pub fn rpc_memory_roundtrip(
    tr: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let channel = Channel::new(echo_registry());
    let (result, secs) = tr.time("probe.rpc.memory_echo", "rpc", || {
        (0..ECHO_CALLS).try_for_each(|i| {
            channel
                .call("echo", vec![Value::Int(black_box(i as i32))])
                .map(|v| drop(black_box(v)))
        })
    });
    result.map_err(|e| format!("memory echo: {e}"))?;
    out.insert("rpc.roundtrip_us", secs * 1e6 / f64::from(ECHO_CALLS));
    Ok(())
}

/// `rpc.tcp_roundtrip_us`: the same echo through `TcpRpcServer` and
/// `TcpTransport` on loopback — framing and syscalls on top.
pub fn rpc_tcp_roundtrip(
    tr: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let registry = Channel::new(echo_registry()).server();
    let server = TcpRpcServer::bind("127.0.0.1:0", registry)
        .map_err(|e| format!("bind echo server: {e}"))?;
    let transport = TcpTransport::connect(server.local_addr(), TcpOptions::default())
        .map_err(|e| format!("connect echo server: {e}"))?;
    let proxy = NodeProxy::new("probe", transport);
    let (result, secs) = tr.time("probe.rpc.tcp_echo", "rpc", || {
        (0..ECHO_CALLS).try_for_each(|i| {
            proxy
                .call("echo", vec![Value::Int(black_box(i as i32))])
                .map(|v| drop(black_box(v)))
        })
    });
    server.shutdown();
    result.map_err(|e| format!("tcp echo: {e}"))?;
    out.insert("rpc.tcp_roundtrip_us", secs * 1e6 / f64::from(ECHO_CALLS));
    Ok(())
}

/// One complete two-party discovery on `chain(2)` over a lossless link
/// (the body of the repository's `sd_discovery` bench).
fn discover(seed: u64) -> usize {
    let cfg = SimulatorConfig {
        link_model: LinkModel {
            base_loss: 0.0,
            ..LinkModel::default()
        },
        ..SimulatorConfig::perfect_clocks(seed)
    };
    let mut sim = Simulator::new(Topology::chain(2), cfg);
    for n in 0..2u16 {
        sim.install_agent(
            NodeId(n),
            SD_PORT,
            Box::new(SdAgent::new(SdConfig::two_party(), SD_PORT)),
        );
    }
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
    sd_command(
        &mut sim,
        NodeId(0),
        SdCommand::StartPublish(ServiceDescription::new(
            "sm",
            ServiceType::new("_bench._tcp"),
            NodeId(0),
        )),
    );
    sd_command(
        &mut sim,
        NodeId(1),
        SdCommand::StartSearch(ServiceType::new("_bench._tcp")),
    );
    sim.run_for(SimDuration::from_secs(2));
    sim.drain_protocol_events()
        .iter()
        .filter(|e| e.name == "sd_service_add")
        .count()
}

/// `sd.discovery_us`: publish + search + query/response until
/// `sd_service_add`, on the SD substrate alone.
pub fn sd_discovery(
    tr: &mut Tracer,
    seed: u64,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (found, secs) = tr.time("probe.sd.discovery", "sd", || {
        (0..DISCOVERIES)
            .filter(|i| discover(seed.wrapping_add(*i)) >= 1)
            .count() as u64
    });
    if found != DISCOVERIES {
        return Err(format!(
            "sd probe: {found} of {DISCOVERIES} discoveries succeeded"
        ));
    }
    out.insert("sd.discovery_us", secs * 1e6 / DISCOVERIES as f64);
    Ok(())
}

/// `store.l2_commit_us_at_0` / `_at_150`: what one run's level-2 commit
/// (its files plus `mark_run_complete`) costs at the start of a campaign
/// and 150 runs in. The journal is re-read and rewritten per run, so the
/// second grows with the campaign.
pub fn l2_commit(
    tr: &mut Tracer,
    scratch: &mut Scratch,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let root = scratch.path("l2-probe");
    let store = Level2Store::open(&root).map_err(|e| format!("l2 probe: {e}"))?;
    let payload = vec![b'x'; L2_FILE_BYTES];
    let mut per_run_us = Vec::with_capacity(L2_RUNS);
    let open = tr.enter("probe.store.l2_commit", "store");
    for run in 0..L2_RUNS as u64 {
        let started = std::time::Instant::now();
        for file in 0..L2_FILES_PER_RUN {
            store
                .put_run(run, "node", &format!("file{file}.json"), &payload)
                .map_err(|e| format!("l2 probe: {e}"))?;
        }
        store
            .mark_run_complete(run)
            .map_err(|e| format!("l2 probe: {e}"))?;
        per_run_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    tr.exit(open);
    store.destroy().map_err(|e| format!("l2 probe: {e}"))?;
    let mean = |slice: &[f64]| slice.iter().sum::<f64>() / slice.len() as f64;
    out.insert("store.l2_commit_us_at_0", mean(&per_run_us[..L2_WINDOW]));
    out.insert(
        "store.l2_commit_us_at_150",
        mean(&per_run_us[L2_RUNS - L2_WINDOW..]),
    );
    Ok(())
}
