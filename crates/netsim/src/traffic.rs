//! Background traffic generation — the paper's *traffic generator*
//! environment manipulation (§IV-D2, Figs. 5 and 7).
//!
//! "Creates network load between a given number of node pairs. Each pair
//! bidirectionally communicates at a given data rate. Pairs can be randomly
//! chosen from the acting nodes, non-acting nodes or all nodes. They vary
//! from run to run as determined by a switch amount parameter."
//!
//! The generator applies offered load onto every link along each pair's
//! shortest path; the [`crate::link::LinkModel`] turns that load into
//! increased loss probability and queueing delay for the experiment
//! traffic — the observable effect a real CBR flow has on a shared wireless
//! medium. Pair selection and per-run switching are fully seeded
//! (`random_switch_seed`, `random_seed` in the description, Fig. 7).

use crate::rng::derive_rng_indexed;
use crate::sim::{NodeId, Simulator};
use excovery_rng::{Rng, SliceRandom};

/// From which population the traffic pairs are drawn (Fig. 7 `choice`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairChoice {
    /// All nodes of the platform (`choice = 0` in the paper's listing).
    AllNodes,
    /// Only nodes acting in the experiment process.
    ActingNodes,
    /// Only environment (non-acting) nodes.
    NonActingNodes,
}

/// Configuration of a traffic generation phase.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Number of node pairs exchanging data.
    pub pairs: usize,
    /// Data rate per pair, kilobits per second, each direction.
    pub rate_kbps: f64,
    /// Population pairs are drawn from.
    pub choice: PairChoice,
    /// How many pairs are re-drawn on each run switch.
    pub switch_amount: usize,
    /// Seed for the initial pair selection (`random_seed`).
    pub seed: u64,
    /// Seed stream for per-run switching (`random_switch_seed`).
    pub switch_seed: u64,
}

impl TrafficSpec {
    /// Spec drawing `pairs` pairs from all nodes at `rate_kbps`, switching
    /// one pair per run — the configuration of the paper's Fig. 7.
    pub fn paper_default(pairs: usize, rate_kbps: f64, seed: u64) -> Self {
        Self {
            pairs,
            rate_kbps,
            choice: PairChoice::AllNodes,
            switch_amount: 1,
            seed,
            switch_seed: seed,
        }
    }
}

/// An active traffic generator bound to a simulator.
#[derive(Debug)]
pub struct TrafficGenerator {
    spec: TrafficSpec,
    acting: Vec<NodeId>,
    pairs: Vec<(NodeId, NodeId)>,
    applied: Vec<(NodeId, NodeId, f64)>,
    active: bool,
}

impl TrafficGenerator {
    /// Creates a generator; `acting` lists the experiment's actor nodes
    /// (used by [`PairChoice::ActingNodes`]/[`PairChoice::NonActingNodes`]).
    /// The initial pair set is drawn immediately from `spec.seed`.
    pub fn new(spec: TrafficSpec, sim: &Simulator, acting: Vec<NodeId>) -> Self {
        let mut gen = Self {
            spec,
            acting,
            pairs: Vec::new(),
            applied: Vec::new(),
            active: false,
        };
        let mut rng = derive_rng_indexed(gen.spec.seed, "traffic_pairs", 0);
        gen.pairs = gen.draw_pairs(sim, gen.spec.pairs, &mut rng);
        gen
    }

    /// The candidate population for the configured choice.
    fn candidates(&self, sim: &Simulator) -> Vec<NodeId> {
        match self.spec.choice {
            PairChoice::AllNodes => sim.topology().nodes().collect(),
            PairChoice::ActingNodes => self.acting.clone(),
            PairChoice::NonActingNodes => sim
                .topology()
                .nodes()
                .filter(|n| !self.acting.contains(n))
                .collect(),
        }
    }

    fn draw_pairs(
        &self,
        sim: &Simulator,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<(NodeId, NodeId)> {
        let cand = self.candidates(sim);
        let mut pairs = Vec::with_capacity(count);
        if cand.len() < 2 {
            return pairs;
        }
        for _ in 0..count {
            // Draw two distinct endpoints; duplicates across pairs are
            // allowed (several flows may share endpoints, as in iperf runs).
            let picks = cand.choose_multiple(rng, 2);
            pairs.push((*picks[0], *picks[1]));
        }
        pairs
    }

    /// Current pair set.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// True while load is applied.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Applies the load of all pairs onto the simulator's links
    /// (`env_traffic_start`).
    pub fn start(&mut self, sim: &mut Simulator) {
        if self.active {
            return;
        }
        // Bidirectional CBR on an undirected link model: 2× rate offered.
        let per_link = 2.0 * self.spec.rate_kbps;
        for &(a, b) in &self.pairs {
            // Rebuilt from the routing table's cached BFS tree — identical
            // to a fresh BFS, without running one per start.
            let Some(path) = sim.routing().path(a, b) else {
                continue;
            };
            for w in path.windows(2) {
                sim.add_link_load(w[0], w[1], per_link);
                self.applied.push((w[0], w[1], per_link));
            }
        }
        self.active = true;
    }

    /// Removes all applied load (`env_traffic_stop`).
    pub fn stop(&mut self, sim: &mut Simulator) {
        for (a, b, kbps) in self.applied.drain(..) {
            sim.remove_link_load(a, b, kbps);
        }
        self.active = false;
    }

    /// Re-draws `switch_amount` pairs for run number `run_idx`
    /// (deterministic in `switch_seed` and `run_idx`). Must be called while
    /// stopped; typically between `run_exit` and the next `run_init`.
    pub fn switch_pairs(&mut self, sim: &Simulator, run_idx: u64) {
        assert!(!self.active, "switch_pairs while traffic is active");
        let n = self.spec.switch_amount.min(self.pairs.len());
        if n == 0 {
            return;
        }
        let mut rng = derive_rng_indexed(self.spec.switch_seed, "traffic_switch", run_idx);
        // Choose which pair slots to replace, then redraw them.
        let mut slots: Vec<usize> = (0..self.pairs.len()).collect();
        slots.shuffle(&mut rng);
        let fresh = self.draw_pairs(sim, n, &mut rng);
        for (slot, pair) in slots.into_iter().take(n).zip(fresh) {
            self.pairs[slot] = pair;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimulatorConfig;
    use crate::topology::Topology;

    fn sim() -> Simulator {
        Simulator::new(Topology::grid(4, 4), SimulatorConfig::perfect_clocks(5))
    }

    fn spec(pairs: usize) -> TrafficSpec {
        TrafficSpec::paper_default(pairs, 100.0, 99)
    }

    #[test]
    fn start_applies_load_and_stop_removes_it() {
        let mut s = sim();
        let mut g = TrafficGenerator::new(spec(5), &s, vec![]);
        assert_eq!(g.pairs().len(), 5);
        g.start(&mut s);
        assert!(g.is_active());
        let total: f64 = {
            // Sum over all edges.
            s.topology()
                .edges()
                .iter()
                .map(|&(a, b)| s.link_load(a, b))
                .sum()
        };
        assert!(total > 0.0, "load applied");
        g.stop(&mut s);
        let total_after: f64 = s
            .topology()
            .edges()
            .iter()
            .map(|&(a, b)| s.link_load(a, b))
            .sum();
        assert_eq!(total_after, 0.0);
    }

    #[test]
    fn start_is_idempotent() {
        let mut s = sim();
        let mut g = TrafficGenerator::new(spec(2), &s, vec![]);
        g.start(&mut s);
        let t1: f64 = s
            .topology()
            .edges()
            .iter()
            .map(|&(a, b)| s.link_load(a, b))
            .sum();
        g.start(&mut s);
        let t2: f64 = s
            .topology()
            .edges()
            .iter()
            .map(|&(a, b)| s.link_load(a, b))
            .sum();
        assert_eq!(t1, t2);
    }

    #[test]
    fn pair_selection_is_seeded() {
        let s = sim();
        let g1 = TrafficGenerator::new(spec(4), &s, vec![]);
        let g2 = TrafficGenerator::new(spec(4), &s, vec![]);
        assert_eq!(g1.pairs(), g2.pairs());
        let other = TrafficGenerator::new(
            TrafficSpec {
                seed: 100,
                ..spec(4)
            },
            &s,
            vec![],
        );
        assert_ne!(g1.pairs(), other.pairs());
    }

    #[test]
    fn pairs_have_distinct_endpoints() {
        let s = sim();
        let g = TrafficGenerator::new(spec(50), &s, vec![]);
        for (a, b) in g.pairs() {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn switch_replaces_exactly_switch_amount() {
        let s = sim();
        let mut g = TrafficGenerator::new(spec(5), &s, vec![]);
        let before = g.pairs().to_vec();
        g.switch_pairs(&s, 1);
        let after = g.pairs().to_vec();
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        // switch_amount = 1; the redraw could coincide with the old pair,
        // so at most 1 changes.
        assert!(changed <= 1, "{changed} pairs changed");
        // Deterministic per run index:
        let mut g2 = TrafficGenerator::new(spec(5), &s, vec![]);
        g2.switch_pairs(&s, 1);
        assert_eq!(g.pairs(), g2.pairs());
    }

    #[test]
    fn identical_replication_uses_same_switch_sequence() {
        // The paper's Fig. 7 comment: binding the switch seed to the
        // replication factor "causes identical randomization in
        // replications" — same run index ⇒ same pair set.
        let s = sim();
        let mut g1 = TrafficGenerator::new(spec(3), &s, vec![]);
        let mut g2 = TrafficGenerator::new(spec(3), &s, vec![]);
        for run in 0..10 {
            g1.switch_pairs(&s, run);
            g2.switch_pairs(&s, run);
            assert_eq!(g1.pairs(), g2.pairs(), "run {run}");
        }
    }

    #[test]
    fn acting_choice_restricts_population() {
        let s = sim();
        let acting = vec![NodeId(0), NodeId(1), NodeId(2)];
        let g = TrafficGenerator::new(
            TrafficSpec {
                choice: PairChoice::ActingNodes,
                ..spec(10)
            },
            &s,
            acting.clone(),
        );
        for (a, b) in g.pairs() {
            assert!(acting.contains(a) && acting.contains(b));
        }
        let g2 = TrafficGenerator::new(
            TrafficSpec {
                choice: PairChoice::NonActingNodes,
                ..spec(10)
            },
            &s,
            acting.clone(),
        );
        for (a, b) in g2.pairs() {
            assert!(!acting.contains(a) && !acting.contains(b));
        }
    }

    #[test]
    fn too_small_population_yields_no_pairs() {
        let s = sim();
        let g = TrafficGenerator::new(
            TrafficSpec {
                choice: PairChoice::ActingNodes,
                ..spec(3)
            },
            &s,
            vec![NodeId(0)],
        );
        assert!(g.pairs().is_empty());
    }

    #[test]
    #[should_panic(expected = "switch_pairs while traffic is active")]
    fn switching_while_active_panics() {
        let mut s = sim();
        let mut g = TrafficGenerator::new(spec(2), &s, vec![]);
        g.start(&mut s);
        g.switch_pairs(&s, 0);
    }
}
