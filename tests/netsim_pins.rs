//! Literal pins of the simulator reference workloads: events executed,
//! packet counters and state digest of a chain unicast, a 5×5 flood, an
//! 8-replication campaign and a 10 000-node flood on one and on four
//! shards.
//!
//! Every literal is a pure function of topology, configuration and seed,
//! so it must hold on any machine and at any shard count: the small rows
//! run at 1, 2 and 4 shards, the 10⁴-node rows at 1 and 4. A drift here
//! means the simulator's observable outcome changed. Wall times of the same paths are measured
//! by the `benchmark/` crate (`netsim.flood_run_ms`,
//! `netsim.unicast_run_ms`, `obs.overhead_share`), not here.
//!
//! The one exception is `netsim_flood_suppressed_total{shard}`, the flood
//! transits each shard found at send time to target a node that had
//! already seen the packet and so never queued. It depends on the shard
//! count by design: only a neighbour on the sender's own shard can be
//! checked, so a transit across a stripe edge is always queued and arrives
//! as an ordinary duplicate. The floods pin it per shard count, so a change
//! that stops suppressing fails here instead of only losing time.

use excovery::netsim::rng::derive_seed_indexed;
use excovery::netsim::sim::{Simulator, SimulatorConfig};
use excovery::netsim::topology::Topology;
use excovery::netsim::{Agent, Destination, NodeId, Payload};
use excovery::obs::par::run_indexed;
use excovery::obs::ObsConfig;
use std::sync::Mutex;

/// Held by every test that switches the process-global observability
/// registry on, so none switches it off under another's publish.
static OBS: Mutex<()> = Mutex::new(());

/// Shard counts every small workload runs at; each must hit the same pin.
const SHARDS: [usize; 3] = [1, 2, 4];

/// A packet sink: counts as a delivery (an agent is bound at the
/// destination port) without generating any traffic of its own.
struct Sink;

impl Agent for Sink {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The deterministic outcome of one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pin {
    events: u64,
    sent: u64,
    delivered: u64,
    forwarded: u64,
    digest: u64,
}

impl Pin {
    fn of(sim: &Simulator, events: u64) -> Self {
        let stats = sim.stats();
        Self {
            events,
            sent: stats.sent,
            delivered: stats.delivered,
            forwarded: stats.forwarded,
            digest: sim.state_digest(),
        }
    }
}

const UNICAST_4HOPS_1000PKTS: Pin = Pin {
    events: 3891,
    sent: 1000,
    delivered: 959,
    forwarded: 2932,
    digest: 0x8794_082f_4a18_8ef9,
};

const FLOOD_GRID5X5_1000PKTS: Pin = Pin {
    events: 55398,
    sent: 1000,
    delivered: 23999,
    forwarded: 23999,
    digest: 0x1645_7b72_4072_a83d,
};

const CAMPAIGN_UNICAST_8REPS: Pin = Pin {
    events: 31243,
    sent: 8000,
    delivered: 7704,
    forwarded: 23539,
    digest: 0x40b2_67d1_0309_65ef,
};

const FLOOD_GRID100X100_1MPKTS: Pin = Pin {
    events: 1_465_263,
    sent: 50,
    delivered: 499_950,
    forwarded: 499_950,
    digest: 0x9c0b_01c2_ebf3_3dc3,
};

/// 1000 unicasts down a 5-node chain (four hops) on `shards` shards,
/// optionally publishing the run's counters to the observability registry
/// afterwards.
fn unicast_4hops(seed: u64, shards: usize, publish_obs: bool) -> Pin {
    let cfg = SimulatorConfig::perfect_clocks(seed).with_shards(shards);
    let mut sim = Simulator::new(Topology::chain(5), cfg);
    sim.install_agent(NodeId(4), 9, Box::new(Sink));
    for _ in 0..1_000u64 {
        sim.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(4)),
            Payload::from("x"),
        );
    }
    let events = sim.run_until_idle(1_000_000);
    if publish_obs {
        sim.publish_obs();
    }
    Pin::of(&sim, events)
}

/// 8 replications of the chain unicast from master seed 3, replication
/// `i` seeded with `derive_seed_indexed(3, "campaign_rep", i)`. The pin
/// folds the per-replication digests (FNV-1a, replication order) and sums
/// the counters, so it also pins cross-replication determinism.
fn campaign(workers: usize, shards: usize) -> Pin {
    let reps = run_indexed(workers, 8, |i| {
        unicast_4hops(
            derive_seed_indexed(3, "campaign_rep", i as u64),
            shards,
            false,
        )
    });
    let fnv_offset = Pin {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Pin::default()
    };
    reps.into_iter().fold(fnv_offset, |acc, rep| Pin {
        events: acc.events + rep.events,
        sent: acc.sent + rep.sent,
        delivered: acc.delivered + rep.delivered,
        forwarded: acc.forwarded + rep.forwarded,
        digest: (acc.digest ^ rep.digest).wrapping_mul(0x0000_0100_0000_01b3),
    })
}

/// `sends` mesh-wide multicasts from node 0 of a `side`×`side` grid whose
/// other nodes all subscribe; each send is relayed once per node.
fn flood(side: usize, seed: u64, shards: usize, sends: u64, max_events: u64) -> (Simulator, u64) {
    let cfg = SimulatorConfig::perfect_clocks(seed).with_shards(shards);
    let mut sim = Simulator::new(Topology::grid(side, side), cfg);
    for n in 1..(side * side) as u16 {
        sim.install_agent(NodeId(n), 9, Box::new(Sink));
    }
    for _ in 0..sends {
        sim.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("x"));
    }
    let events = sim.run_until_idle(max_events);
    (sim, events)
}

/// Flood transits each shard of `sim` suppressed at send time, as
/// `publish_obs` reports them.
fn suppressed_per_shard(sim: &mut Simulator, shards: usize) -> Vec<u64> {
    let reg = excovery::obs::global();
    let read = || -> Vec<u64> {
        (0..shards)
            .map(|i| {
                reg.counter(
                    "netsim_flood_suppressed_total",
                    &[("shard", &i.to_string())],
                )
                .value()
            })
            .collect()
    };
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let before = read();
    ObsConfig::on().install();
    sim.publish_obs();
    ObsConfig::off().install();
    read()
        .iter()
        .zip(before)
        .map(|(after, b)| after - b)
        .collect()
}

/// The observability layer is invisible: the same unicast with the
/// registry on and the batch publish included equals the plain run field
/// for field. The registry is process-global, so it is switched on and
/// off inside this one test.
#[test]
fn unicast_4hops_1000pkts_obs_off_and_on() {
    for shards in SHARDS {
        let plain = unicast_4hops(1, shards, false);
        assert_eq!(plain, UNICAST_4HOPS_1000PKTS, "{shards} shards");
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        ObsConfig::on().install();
        let obs_on = unicast_4hops(1, shards, true);
        ObsConfig::off().install();
        assert_eq!(obs_on, plain, "{shards} shards");
    }
}

#[test]
fn flood_grid5x5_1000pkts() {
    let suppressed: [&[u64]; 3] = [&[15_823], &[4_725, 5_630], &[1_086, 655, 418, 374]];
    for (shards, suppressed) in SHARDS.into_iter().zip(suppressed) {
        let (mut sim, events) = flood(5, 2, shards, 1_000, 10_000_000);
        assert_eq!(
            Pin::of(&sim, events),
            FLOOD_GRID5X5_1000PKTS,
            "{shards} shards"
        );
        assert_eq!(
            suppressed_per_shard(&mut sim, shards),
            suppressed,
            "{shards} shards"
        );
    }
}

#[test]
fn campaign_unicast_8reps_serial_and_parallel() {
    for shards in SHARDS {
        assert_eq!(
            campaign(1, shards),
            CAMPAIGN_UNICAST_8REPS,
            "workers = 1, {shards} shards"
        );
        assert_eq!(
            campaign(0, shards),
            CAMPAIGN_UNICAST_8REPS,
            "auto workers, {shards} shards"
        );
    }
}

/// The sharded executor's contract on its headline workload: the 4-shard
/// flood is bit-identical to the single-queue flood, and its per-shard
/// event split, cross-shard mailbox traffic and send-time suppressions
/// are themselves pinned.
#[test]
fn flood_grid100x100_1mpkts_serial_and_4shards() {
    let (mut serial, serial_events) = flood(100, 4, 1, 50, 4_000_000);
    assert_eq!(suppressed_per_shard(&mut serial, 1), [485_151]);
    let serial = Pin::of(&serial, serial_events);
    assert_eq!(serial, FLOOD_GRID100X100_1MPKTS, "1 shard");

    let (mut sim, events) = flood(100, 4, 4, 50, 4_000_000);
    assert_eq!(
        suppressed_per_shard(&mut sim, 4),
        [110_442, 112_065, 112_651, 113_068]
    );
    let sharded = Pin::of(&sim, events);
    assert_eq!(
        sharded, serial,
        "the 4-shard flood must equal the serial flood"
    );

    let split = sim.events_per_shard();
    assert_eq!(split, [362_075, 368_252, 368_471, 366_465]);
    assert_eq!(
        split.iter().sum::<u64>(),
        sharded.events,
        "per-shard events must sum to the total"
    );
    assert_eq!(sim.mailbox_crossings(), 111_766);
}
