//! `netsim_mesh` — the simulator alone, no engine: the only place a
//! simulator change (sharding, packet storage, routing) can show, and the
//! control that must not move when `core`, `store` or `query` change.
//!
//! Two phases use the layer differently. Phase A floods a large grid with
//! mesh-wide multicasts (duplicate suppression dominates); phase B routes
//! unicasts between random pairs under the default lossy link model
//! (shortest-path forwarding and the channel model dominate). A gain for
//! one that costs the other is visible.

use crate::harness::{
    fnv, ObsDelta, ObsKind, ObsMetric, Rep, RunOptions, Scratch, SplitMix, Tracer, Workload,
};
use excovery::netsim::sim::{Agent, Simulator, SimulatorConfig};
use excovery::netsim::topology::Topology;
use excovery::netsim::{Destination, NodeId, Payload};
use std::time::Instant;

const FLOOD_SIDE: usize = 100;
const FLOOD_MULTICASTS: u64 = 50;
const UNICAST_SIDE: usize = 32;
const UNICASTS: u64 = 24_000;
/// Sides of the two grids in `--quick` mode: a tenth of the nodes.
const QUICK_FLOOD_SIDE: usize = 32;
const QUICK_UNICAST_SIDE: usize = 20;
const PORT: u16 = 9;
/// Far above what either phase needs; `run_until_idle` stops at idle.
const EVENT_CAP: u64 = 50_000_000;

/// Counts as a delivery without generating traffic of its own.
struct Sink;

impl Agent for Sink {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

pub struct NetsimMesh {
    seed: u64,
    flood_side: usize,
    multicasts: u64,
    unicast_side: usize,
    unicasts: u64,
}

pub fn netsim_mesh(opts: &RunOptions) -> NetsimMesh {
    NetsimMesh {
        seed: opts.seed,
        flood_side: if opts.quick {
            QUICK_FLOOD_SIDE
        } else {
            FLOOD_SIDE
        },
        multicasts: opts.scaled(FLOOD_MULTICASTS),
        unicast_side: if opts.quick {
            QUICK_UNICAST_SIDE
        } else {
            UNICAST_SIDE
        },
        unicasts: opts.scaled(UNICASTS),
    }
}

const NETSIM_OBS: &[ObsMetric] = &[ObsMetric {
    metric: "netsim.barrier_wait_ms",
    series: "netsim_barrier_wait_ns_total",
    label: None,
    kind: ObsKind::Counter,
    scale: 1e-6,
}];

/// A `side`×`side` grid with a sink on every node from `first_sink` on.
fn grid_with_sinks(side: usize, seed: u64, first_sink: u16) -> Simulator {
    let mut sim = Simulator::new(
        Topology::grid(side, side),
        SimulatorConfig::perfect_clocks(seed),
    );
    for n in first_sink..(side * side) as u16 {
        sim.install_agent(NodeId(n), PORT, Box::new(Sink));
    }
    sim
}

/// The flood phase's simulator: node 0 sends, every other node listens.
/// At side 100 and seed 4 it is the `flood_grid100x100_1Mpkts` row of
/// `BENCH_netsim.json`, which `selfcheck` reproduces.
pub fn flood_grid(side: usize, seed: u64) -> Simulator {
    grid_with_sinks(side, seed, 1)
}

/// Sends `multicasts` mesh-wide multicasts from node 0 and runs the
/// simulator dry; returns the events executed.
pub fn flood(sim: &mut Simulator, multicasts: u64) -> u64 {
    for _ in 0..multicasts {
        sim.send_from(NodeId(0), PORT, Destination::Multicast, Payload::from("x"));
    }
    sim.run_until_idle(EVENT_CAP)
}

impl Workload for NetsimMesh {
    fn rep(
        &mut self,
        tr: &mut Tracer,
        _scratch: &mut Scratch,
        traced: bool,
    ) -> Result<Rep, String> {
        let mut rep = Rep::default();

        // The routing table is precomputed in `Simulator::new`, so work a
        // change moves there shows as set-up time.
        let preparing = Instant::now();
        let mut flooded = flood_grid(self.flood_side, self.seed);
        let mut routed = grid_with_sinks(self.unicast_side, self.seed, 0);
        let nodes = (self.unicast_side * self.unicast_side) as u64;
        let mut rng = SplitMix::new(self.seed);
        let pairs: Vec<(NodeId, NodeId)> = (0..self.unicasts)
            .map(|_| {
                let from = rng.below(nodes);
                let to = (from + 1 + rng.below(nodes - 1)) % nodes;
                (NodeId(from as u16), NodeId(to as u16))
            })
            .collect();
        rep.setup_s = preparing.elapsed().as_secs_f64();

        let before = traced.then(ObsDelta::start);
        let pipeline = tr.enter("pipeline", "bench");
        let (flood_events, flood_s) = tr.time("netsim.flood", "netsim", || {
            flood(&mut flooded, self.multicasts)
        });
        let (unicast_events, unicast_s) = tr.time("netsim.unicast", "netsim", || {
            for &(from, to) in &pairs {
                routed.send_from(from, PORT, Destination::Unicast(to), Payload::from("x"));
            }
            routed.run_until_idle(EVENT_CAP)
        });
        rep.pipeline_s = tr.exit(pipeline);
        rep.work = flood_events as f64;
        rep.work_s = flood_s;

        let (a, b) = (flooded.stats(), routed.stats());
        rep.attempt((a.delivered == 0).then(|| "the flood delivered nothing".to_string()));
        rep.attempt((b.delivered == 0).then(|| "no unicast was delivered".to_string()));
        rep.exact("flood_events", flood_events);
        rep.exact("flood_delivered", a.delivered);
        rep.exact("flood_digest", flooded.state_digest());
        rep.exact("unicast_events", unicast_events);
        rep.exact("unicast_delivered", b.delivered);
        rep.exact("unicast_digest", routed.state_digest());
        rep.exact(
            "counters",
            fnv([
                a.sent,
                a.forwarded,
                a.duplicates,
                a.dropped_loss,
                b.sent,
                b.forwarded,
                b.dropped_loss,
            ]),
        );

        if let Some(before) = before {
            flooded.publish_obs();
            routed.publish_obs();
            rep.set_from_obs(&ObsDelta::since(before), NETSIM_OBS);
            rep.set("netsim.new_ms", rep.setup_s * 1e3);
            rep.set("netsim.flood_run_ms", flood_s * 1e3);
            rep.set("netsim.unicast_run_ms", unicast_s * 1e3);
            rep.set(
                "netsim.flood_ns_per_event",
                flood_s * 1e9 / flood_events as f64,
            );
            rep.set(
                "netsim.unicast_ns_per_event",
                unicast_s * 1e9 / unicast_events as f64,
            );
            rep.set("netsim.flood_events_per_s", flood_events as f64 / flood_s);
            rep.set(
                "netsim.unicast_events_per_s",
                unicast_events as f64 / unicast_s,
            );
            rep.set("netsim.events", (flood_events + unicast_events) as f64);
            rep.set("netsim.packets_sent", (a.sent + b.sent) as f64);
            rep.set(
                "netsim.packets_delivered",
                (a.delivered + b.delivered) as f64,
            );
            rep.set(
                "netsim.packets_dropped",
                (a.dropped_filter + a.dropped_loss + b.dropped_filter + b.dropped_loss) as f64,
            );
            rep.set(
                "netsim.flood_duplicates",
                (a.duplicates + b.duplicates) as f64,
            );
            rep.set(
                "netsim.mailbox_crossings",
                (flooded.mailbox_crossings() + routed.mailbox_crossings()) as f64,
            );
        }
        Ok(rep)
    }
}
