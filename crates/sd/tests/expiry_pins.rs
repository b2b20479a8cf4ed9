//! Cache-expiry semantics pinned as literals.
//!
//! Eight SMs on a lossy 3×3 grid publish records with TTLs of 1–3 s and
//! only four announcements, while the searching SU in the middle keeps
//! re-querying. Every fifth of 40 steps (250–450 ms each) one SM, in
//! rotation, goes silent or comes back (`set_drop_all`), so records keep
//! lapsing and returning. The digest covers the full protocol-event
//! stream — local time, node, name and parameters of every event — so
//! any change to *when* an expiry sweep runs, and so to an
//! `sd_service_del` instant, moves it. `events_executed` is pinned beside
//! it: it counts the simulator events the agents cost, which the stream
//! alone does not show. Every seed runs at 1, 2 and 4 simulator shards
//! and must hit the same pin at each.

use excovery_netsim::sim::{ProtocolEvent, Simulator, SimulatorConfig};
use excovery_netsim::topology::Topology;
use excovery_netsim::{NodeId, SimDuration};
use excovery_sd::{
    sd_command, Role, SdAgent, SdCommand, SdConfig, ServiceDescription, ServiceType, SD_PORT,
};

const SU: u16 = 4;
const SM_NODES: [u16; 8] = [0, 1, 2, 3, 5, 6, 7, 8];
const STEPS: u64 = 40;
/// Simulator shard counts every seed runs at.
const SHARDS: [usize; 3] = [1, 2, 4];

/// `(seed, stream digest, events, sd_service_del events, events executed)`.
const PINS: [(u64, u64, usize, usize, u64); 6] = [
    (1, 0x32937154ebe2b736, 44, 13, 983),
    (2, 0xf80ad6f312a0ac21, 46, 14, 926),
    (3, 0xb2d28841887ed280, 44, 13, 960),
    (4, 0x7ff53dbfcaf505cd, 44, 13, 949),
    (5, 0xee637d7162ca7aca, 44, 13, 962),
    (6, 0xd980a4f700fc31d8, 44, 13, 971),
];

fn http() -> ServiceType {
    ServiceType::new("_http._tcp")
}

/// FNV-1a over a byte string, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(events: &[ProtocolEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in events {
        h = fnv(h, &e.local_time.as_nanos().to_le_bytes());
        h = fnv(h, &e.node.0.to_le_bytes());
        h = fnv(h, e.name.as_str().as_bytes());
        for (k, v) in e.params.iter() {
            h = fnv(h, k.as_str().as_bytes());
            h = fnv(h, &[0]);
            h = fnv(h, v.as_str().as_bytes());
            h = fnv(h, &[0]);
        }
        h = fnv(h, &[0xff]);
    }
    h
}

/// Runs the scenario at `seed` on `shards` shards: the whole event stream
/// and the number of simulator events executed.
fn scenario(seed: u64, shards: usize) -> (Vec<ProtocolEvent>, u64) {
    let cfg = SimulatorConfig::default()
        .with_seed(seed)
        .with_shards(shards);
    let mut sim = Simulator::new(Topology::grid(3, 3), cfg);
    let sd = SdConfig {
        announce_count: 4,
        ..SdConfig::two_party()
    };
    for node in 0..9 {
        let agent = SdAgent::new(sd.clone(), SD_PORT);
        sim.install_agent(NodeId(node), SD_PORT, Box::new(agent));
    }
    for (n, &node) in SM_NODES.iter().enumerate() {
        sd_command(
            &mut sim,
            NodeId(node),
            SdCommand::Init(Role::ServiceManager),
        );
        let mut desc = ServiceDescription::new(format!("sm-{n}"), http(), NodeId(node));
        desc.ttl_s = 1 + n as u32 % 3;
        sd_command(&mut sim, NodeId(node), SdCommand::StartPublish(desc));
    }
    sd_command(&mut sim, NodeId(SU), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(SU), SdCommand::StartSearch(http()));
    let mut silent = [false; SM_NODES.len()];
    for step in 0..STEPS {
        if step % 5 == 4 {
            let i = (step / 5) as usize % 4 * 2;
            silent[i] = !silent[i];
            sim.set_drop_all(NodeId(SM_NODES[i]), silent[i]);
        }
        let ms = 250 + (step * 73 + seed * 29) % 201;
        sim.run_for(SimDuration::from_millis(ms));
    }
    (sim.drain_protocol_events(), sim.events_executed())
}

#[test]
fn expiry_event_stream_is_pinned() {
    let mut drifted = Vec::new();
    for shards in SHARDS {
        for pin in PINS {
            let seed = pin.0;
            let (events, executed) = scenario(seed, shards);
            let dels = events
                .iter()
                .filter(|e| e.name.as_str() == "sd_service_del")
                .count();
            let (h, n) = (digest(&events), events.len());
            if (seed, h, n, dels, executed) != pin {
                drifted.push(format!(
                    "({seed}, {h:#018x}, {n}, {dels}, {executed}), on {shards} shards"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "expiry pins drifted:\n  {}",
        drifted.join("\n  ")
    );
}
