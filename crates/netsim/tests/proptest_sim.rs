//! Property tests for the simulator substrate: determinism over random
//! workloads, topology invariants, cached routes against a fresh BFS,
//! tagger stream reconstruction, and the event queue's ordering contract
//! against a `BTreeMap` model.

use excovery_netsim::event::EventQueue;
use excovery_netsim::sim::{SimStats, Simulator, SimulatorConfig};
use excovery_netsim::tagger::{analyze_stream, Tagger};
use excovery_netsim::time::SimTime;
use excovery_netsim::topology::{RoutingTable, Topology};
use excovery_netsim::{Destination, NodeId, Payload};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Reference model: a `BTreeMap` keyed `(time, key)` pops in exactly the
/// order the queue promises (same checker as the in-crate LCG test).
fn check_queue_against_model(pairs: &[(u64, u64)], pop_every: usize) {
    let mut q = EventQueue::new();
    let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
    for (i, &(t, k)) in pairs.iter().enumerate() {
        let due = SimTime::from_nanos(t);
        q.schedule_with_key(due, k, i);
        model.insert((due, k), i);
        if pop_every > 0 && i % pop_every == 0 {
            if let Some((due, payload)) = q.pop() {
                let (&mk, &mv) = model.iter().next().expect("model empty but queue popped");
                model.remove(&mk);
                assert_eq!((due, payload), (mk.0, mv));
            }
        }
    }
    while let Some((due, payload)) = q.pop() {
        let (&mk, &mv) = model.iter().next().expect("model empty but queue popped");
        model.remove(&mk);
        assert_eq!((due, payload), (mk.0, mv));
    }
    assert!(model.is_empty(), "queue drained before the model");
}

fn run_workload(seed: u64, sends: &[(u16, u8)], nodes: u16) -> (SimStats, Vec<(u64, String)>) {
    let topo = Topology::grid(nodes as usize, 2);
    let n = topo.len() as u16;
    let mut sim = Simulator::new(topo, SimulatorConfig::default().with_seed(seed));
    for (i, &(src, kind)) in sends.iter().enumerate() {
        let src = NodeId(src % n);
        let dst = match kind % 3 {
            0 => Destination::Multicast,
            1 => Destination::Broadcast,
            _ => Destination::Unicast(NodeId((src.0 + 1) % n)),
        };
        sim.send_from(src, 9, dst, Payload::from(format!("m{i}").as_str()));
    }
    sim.run_until_idle(1_000_000);
    let caps: Vec<(u64, String)> = (0..n)
        .flat_map(|node| {
            sim.captures(NodeId(node))
                .iter()
                .map(|c| (c.local_time.as_nanos(), format!("{:?}@{node}", c.kind)))
                .collect::<Vec<_>>()
        })
        .collect();
    (sim.stats(), caps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The event queue's pop order equals the `BTreeMap` model for random
    /// `(time, key)` workloads with heavy time collisions.
    #[test]
    fn push_pop_order_equals_btreemap_model(
        times in prop::collection::vec(0u64..32, 1..256),
        pop_every in 0usize..5,
    ) {
        // Unique keys derived from the index keep the order total.
        let pairs: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
        check_queue_against_model(&pairs, pop_every);
    }

    /// Identical seeds and workloads produce bit-identical stats and
    /// capture streams; this is the platform property ExCovery's
    /// repeatability rests on.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        sends in prop::collection::vec((any::<u16>(), any::<u8>()), 1..30),
        nodes in 2u16..5,
    ) {
        let a = run_workload(seed, &sends, nodes);
        let b = run_workload(seed, &sends, nodes);
        prop_assert_eq!(a, b);
    }

    /// Conservation: every transmission is eventually delivered, dropped
    /// by loss/filters, suppressed as duplicate, or unroutable — the queue
    /// always drains.
    #[test]
    fn queue_always_drains(
        seed in any::<u64>(),
        sends in prop::collection::vec((any::<u16>(), any::<u8>()), 1..30),
    ) {
        let topo = Topology::grid(3, 3);
        let mut sim = Simulator::new(topo, SimulatorConfig::default().with_seed(seed));
        for &(src, kind) in &sends {
            let src = NodeId(src % 9);
            let dst = if kind % 2 == 0 {
                Destination::Multicast
            } else {
                Destination::Unicast(NodeId((src.0 + 3) % 9))
            };
            sim.send_from(src, 9, dst, Payload::from("x"));
        }
        sim.run_until_idle(2_000_000);
        prop_assert_eq!(sim.pending_events(), 0, "event queue must drain");
        prop_assert_eq!(sim.stats().sent as usize, sends.len());
    }

    /// Random geometric topologies are symmetric and hop counts obey the
    /// triangle inequality.
    #[test]
    fn topology_metric_properties(seed in any::<u64>(), n in 3usize..12) {
        let mut rng = excovery_rng::StdRng::seed_from_u64(seed);
        let t = Topology::random_geometric(n, 3.0, 1.2, &mut rng);
        for a in t.nodes() {
            for b in t.nodes() {
                prop_assert_eq!(t.hop_count(a, b), t.hop_count(b, a));
                if a == b {
                    prop_assert_eq!(t.hop_count(a, b), Some(0));
                }
            }
        }
        // Triangle inequality where all three legs exist.
        for a in t.nodes() {
            for b in t.nodes() {
                for c in t.nodes() {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (t.hop_count(a, b), t.hop_count(b, c), t.hop_count(a, c))
                    {
                        prop_assert!(ac <= ab + bc, "{a}->{c} vs {a}->{b}->{c}");
                    }
                }
            }
        }
    }

    /// Tagger analysis reconstructs exactly the induced losses for any
    /// subset of a tag stream delivered in order.
    #[test]
    fn tagger_reconstructs_losses(
        start in any::<u16>(),
        total in 1usize..300,
        keep_mask in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut tagger = Tagger::starting_at(start);
        let all: Vec<u16> = (0..total).map(|_| tagger.stamp()).collect();
        let kept: Vec<u16> = all
            .iter()
            .zip(&keep_mask)
            .filter(|(_, &k)| k)
            .map(|(t, _)| *t)
            .collect();
        if kept.is_empty() {
            return Ok(());
        }
        let stats = analyze_stream(kept.iter().copied());
        prop_assert_eq!(stats.received as usize, kept.len());
        prop_assert_eq!(stats.duplicates, 0);
        prop_assert_eq!(stats.reordered, 0);
        // Losses counted = drops strictly between first and last kept tag.
        let first_idx = all.iter().position(|t| *t == kept[0]).unwrap();
        let last_idx = all.iter().position(|t| *t == *kept.last().unwrap()).unwrap();
        let expected_lost = (last_idx - first_idx + 1) - kept.len();
        prop_assert_eq!(stats.lost as usize, expected_lost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The routing table's parent-tree routes and hop counts equal a fresh
    /// BFS for every pair — `a == b` and unreachable pairs included — on
    /// grids and on random geometric graphs of 2–300 nodes. `spread`
    /// scales the square's side: small values give dense connected
    /// meshes, large ones fragments and isolated nodes.
    #[test]
    fn routing_table_equals_fresh_bfs(
        grid in any::<bool>(),
        w in 1usize..21,
        h in 2usize..16,
        n in 2usize..301,
        spread in 0.2f64..1.2,
        seed in any::<u64>(),
    ) {
        let topo = if grid {
            Topology::grid(w, h)
        } else {
            let mut rng = excovery_rng::StdRng::seed_from_u64(seed);
            Topology::random_geometric(n, (n as f64).sqrt() * spread, 1.0, &mut rng)
        };
        let table = RoutingTable::new(&topo);
        for a in topo.nodes() {
            prop_assert_eq!(&table.neighbors(a)[..], topo.neighbors(a));
            let hops = topo.hop_counts_from(a);
            for b in topo.nodes() {
                let path = table.path(a, b);
                prop_assert_eq!(
                    path.as_ref().map(|p| p.to_vec()),
                    topo.shortest_path(a, b),
                    "path {}->{}", a, b
                );
                prop_assert_eq!(table.hop_count(a, b), hops[b.0 as usize]);
                prop_assert_eq!(table.hop_count(a, b), path.map(|p| p.len() as u32 - 1));
            }
        }
    }
}
