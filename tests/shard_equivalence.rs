//! Shard-count invariance — the contract of the simulator's spatially
//! sharded executor: a run's externally observable
//! outcome is a pure function of topology, configuration and seed, and
//! NEVER of how many event queues executed it.
//!
//! Three workload families × three seeds × shard counts {1, 2, 4, 8}:
//!
//! * `unicast` — the bench reference chain, pure netsim,
//! * `flood` — mesh-wide multicast on a 5×5 grid, pure netsim,
//! * `cs1` — the case-study-1 loss preset through the full engine stack
//!   (description → master → NodeManager → SD agent → simulator →
//!   packaging), compared by `ExperimentOutcome::digest()`.
//!
//! The obs-parity test additionally pins that enabling the observability
//! layer does not perturb a sharded run (publishing is batch, outside the
//! hot path).

use excovery::desc::ExperimentDescription;
use excovery::engine::scenarios::loss_sweep;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::sim::{Simulator, SimulatorConfig};
use excovery::netsim::topology::Topology;
use excovery::netsim::{Agent, Destination, NodeId, Payload};

const SEEDS: [u64; 3] = [1, 7, 1914];
const SHARDS: [usize; 4] = [1, 2, 4, 8];

struct Sink;

impl Agent for Sink {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn unicast_digest(seed: u64, shards: usize) -> u64 {
    let cfg = SimulatorConfig::perfect_clocks(seed).with_shards(shards);
    let mut sim = Simulator::new(Topology::chain(5), cfg);
    sim.install_agent(NodeId(4), 9, Box::new(Sink));
    for _ in 0..200u64 {
        sim.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(4)),
            Payload::from("x"),
        );
    }
    sim.run_until_idle(1_000_000);
    sim.state_digest()
}

fn flood_digest(seed: u64, shards: usize) -> u64 {
    let cfg = SimulatorConfig::perfect_clocks(seed).with_shards(shards);
    let mut sim = Simulator::new(Topology::grid(5, 5), cfg);
    for n in 1..25u16 {
        sim.install_agent(NodeId(n), 9, Box::new(Sink));
    }
    for _ in 0..100u64 {
        sim.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("x"));
    }
    sim.run_until_idle(1_000_000);
    sim.state_digest()
}

fn cs1_outcome_digest(seed: u64, shards: usize) -> u64 {
    let desc: ExperimentDescription = loss_sweep(&[0.3], 1, seed);
    let mut cfg = EngineConfig::lossy_mesh();
    cfg.sim.shards = shards;
    cfg.max_runs = Some(1);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    master.execute().unwrap().digest()
}

fn assert_invariant(name: &str, digest_of: impl Fn(u64, usize) -> u64) {
    for seed in SEEDS {
        let reference = digest_of(seed, SHARDS[0]);
        for shards in &SHARDS[1..] {
            let got = digest_of(seed, *shards);
            assert_eq!(
                got, reference,
                "{name}: seed {seed}, {shards} shards drifted from serial \
                 ({got:#018x} != {reference:#018x})"
            );
        }
    }
}

#[test]
fn unicast_is_shard_count_invariant() {
    assert_invariant("unicast", unicast_digest);
}

#[test]
fn flood_is_shard_count_invariant() {
    assert_invariant("flood", flood_digest);
}

#[test]
fn cs1_preset_is_shard_count_invariant_through_the_full_stack() {
    assert_invariant("cs1", cs1_outcome_digest);
}

#[test]
fn sharded_run_is_identical_with_observability_enabled() {
    // Digest with obs off, then the identical sharded workload with the
    // obs layer on (including the per-shard metric publication) — the
    // simulation outcome must not move by a bit. The global toggle is
    // safe under parallel tests precisely because of this invariant.
    let plain: Vec<u64> = SEEDS.iter().map(|s| flood_digest(*s, 4)).collect();
    excovery::obs::ObsConfig::on().install();
    let observed: Vec<u64> = SEEDS
        .iter()
        .map(|s| {
            let cfg = SimulatorConfig::perfect_clocks(*s).with_shards(4);
            let mut sim = Simulator::new(Topology::grid(5, 5), cfg);
            for n in 1..25u16 {
                sim.install_agent(NodeId(n), 9, Box::new(Sink));
            }
            for _ in 0..100u64 {
                sim.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("x"));
            }
            sim.run_until_idle(1_000_000);
            sim.publish_obs();
            sim.state_digest()
        })
        .collect();
    excovery::obs::ObsConfig::off().install();
    assert_eq!(plain, observed, "obs layer must not perturb sharded runs");
}
