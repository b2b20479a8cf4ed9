//! Serial vs parallel campaign determinism.
//!
//! Fanning replications across worker threads ([`run_indexed`]) must be
//! an execution-order optimization only: it may never change a single
//! measured bit. These tests run a non-trivial workload — unicast
//! ping-pong, multicast beacons, timers and agent RNG draws over a lossy
//! grid — and compare full fingerprints (stats, per-node capture
//! sequences, protocol-event order) between serial and parallel
//! execution across several master seeds and worker counts.

use excovery_netsim::rng::derive_seed_indexed;
use excovery_netsim::sim::{ProtocolEvent, SimStats, Simulator, SimulatorConfig};
use excovery_netsim::topology::Topology;
use excovery_netsim::{
    Agent, AgentCtx, Destination, EventParams, NodeId, Packet, Port, SimDuration,
};
use excovery_obs::par::run_indexed;
use excovery_rng::Rng;
use std::hash::{DefaultHasher, Hash, Hasher};

const PORT: Port = 7;

/// Ping-pong agent exercising every nondeterminism-prone code path:
/// unicast routing, flooding, timers, and the per-agent RNG stream.
struct PingPong {
    peer: NodeId,
    remaining: u32,
}

impl Agent for PingPong {
    fn on_start(&mut self, ctx: &mut AgentCtx) {
        ctx.emit("pp_start", [("peer", self.peer.0.to_string())]);
        ctx.send(Destination::Unicast(self.peer), PORT, "ping");
        ctx.set_timer(SimDuration::from_millis(40), 1);
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx, pkt: &Packet) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let jitter: u64 = ctx.rng().gen_range(0..1_000);
        ctx.emit(
            "pp_reply",
            [
                ("from", pkt.src.0.to_string()),
                ("jitter", jitter.to_string()),
            ],
        );
        ctx.send(Destination::Unicast(pkt.src), PORT, "pong");
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, _token: u64) {
        ctx.emit("pp_beacon", EventParams::new());
        ctx.send(Destination::Multicast, PORT, "beacon");
        if self.remaining > 0 {
            ctx.set_timer(SimDuration::from_millis(40), 1);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One replication: a 3×3 lossy grid with ping-pong agents in opposite
/// corners. Returns the stats plus one hash covering every capture record
/// and every protocol event in emission order.
fn run_replication(seed: u64) -> (SimStats, u64, usize, usize) {
    let topo = Topology::grid(3, 3);
    let mut cfg = SimulatorConfig::default().with_seed(seed);
    cfg.link_model.base_loss = 0.10;
    let mut sim = Simulator::new(topo, cfg);
    sim.install_agent(
        NodeId(0),
        PORT,
        Box::new(PingPong {
            peer: NodeId(8),
            remaining: 12,
        }),
    );
    sim.install_agent(
        NodeId(8),
        PORT,
        Box::new(PingPong {
            peer: NodeId(0),
            remaining: 12,
        }),
    );
    sim.run_until_idle(200_000);

    let mut h = DefaultHasher::new();
    let mut n_caps = 0;
    for node in 0..sim.node_count() {
        for c in sim.captures(NodeId(node as u16)) {
            c.node.0.hash(&mut h);
            c.local_time.as_nanos().hash(&mut h);
            c.packet_id.0.hash(&mut h);
            c.tag.hash(&mut h);
            c.src.0.hash(&mut h);
            format!("{:?}", c.dst).hash(&mut h);
            c.port.hash(&mut h);
            c.payload.as_bytes().hash(&mut h);
            format!("{:?}", c.kind).hash(&mut h);
            n_caps += 1;
        }
    }
    let events: Vec<ProtocolEvent> = sim.drain_protocol_events();
    for e in &events {
        e.node.0.hash(&mut h);
        e.local_time.as_nanos().hash(&mut h);
        e.name.as_str().hash(&mut h);
        for (k, v) in e.params.iter() {
            k.as_str().hash(&mut h);
            v.as_str().hash(&mut h);
        }
    }
    (sim.stats(), h.finish(), n_caps, events.len())
}

/// `replications` runs of the workload from `master_seed` on `workers`
/// threads (`0` = available parallelism), in replication order.
fn campaign(
    master_seed: u64,
    replications: usize,
    workers: usize,
) -> Vec<(SimStats, u64, usize, usize)> {
    run_indexed(workers, replications, |i| {
        run_replication(derive_seed_indexed(master_seed, "campaign_rep", i as u64))
    })
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    for master_seed in [11, 4242, 990_001] {
        let serial = campaign(master_seed, 6, 1);
        for workers in [2, 4] {
            let par = campaign(master_seed, 6, workers);
            assert_eq!(
                serial, par,
                "parallel campaign (seed {master_seed}, {workers} workers) \
                 diverged from serial execution"
            );
        }
    }
}

#[test]
fn workload_is_nontrivial_and_seeds_differ() {
    let results = campaign(7, 4, 1);
    for (stats, _, n_caps, n_events) in &results {
        assert!(
            stats.sent > 0 && stats.delivered > 0,
            "workload idle: {stats:?}"
        );
        assert!(*n_caps > 0, "no captures recorded");
        assert!(*n_events > 0, "no protocol events emitted");
    }
    // Distinct per-replication seeds must produce distinct measurements;
    // a collision here would mean the campaign reuses RNG streams.
    let hashes: std::collections::HashSet<u64> = results.iter().map(|r| r.1).collect();
    assert_eq!(
        hashes.len(),
        results.len(),
        "replication fingerprints collided"
    );
}

#[test]
fn same_master_seed_reproduces_across_campaigns() {
    let a = campaign(31_337, 3, 0);
    let b = campaign(31_337, 3, 0);
    assert_eq!(a, b);
}
