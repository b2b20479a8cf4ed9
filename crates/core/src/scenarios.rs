//! Ready-made experiment descriptions for the case-study experiments.
//!
//! Each builder returns a complete, valid [`ExperimentDescription`] that
//! the benchmark harnesses (and examples) instantiate. They are variations
//! of the paper's two-party SD experiment (Figs. 4–10), extended with the
//! fault-injection and environment-manipulation constructs of §IV-D.

use excovery_desc::factors::{ActorAssignment, Factor, FactorList, FactorUsage, LevelValue};
use excovery_desc::platform::PlatformSpec;
use excovery_desc::process::{
    ActorProcess, EnvProcess, EventSelector, NodeSelector, ProcessAction, ValueRef,
};
use excovery_desc::ExperimentDescription;
use excovery_netsim::rng::derive_seed_indexed;
use excovery_netsim::topology::Topology;

/// A chain topology where simulator nodes 0 and 1 (the two actor nodes of
/// [`hop_distance`]) sit `hops` links apart, with unmanaged relays between
/// them: node 0 at position 0, node 1 at position `hops`, relays filling
/// positions 1..hops.
pub fn chain_between_actors(hops: usize) -> Topology {
    assert!(hops >= 1, "need at least one hop");
    let mut positions = vec![(0.0, 0.0), (hops as f64, 0.0)];
    for k in 1..hops {
        positions.push((k as f64, 0.0));
    }
    Topology::from_positions(positions, 1.01)
}

/// The SM role process of Fig. 9.
pub(crate) fn sm_process(actor_id: &str, nodes_factor: &str) -> ActorProcess {
    let mut p = ActorProcess::new(actor_id);
    p.name = Some("SM".into());
    p.nodes_factor = Some(nodes_factor.into());
    p.actions = vec![
        ProcessAction::invoke("sd_init"),
        ProcessAction::invoke("sd_start_publish"),
        ProcessAction::WaitForEvent(EventSelector::named("done")),
        ProcessAction::invoke("sd_stop_publish"),
        ProcessAction::invoke("sd_exit"),
    ];
    p
}

/// The SU role process of Fig. 10, waiting for all instances of
/// `sm_actor` within `deadline_s` seconds.
pub(crate) fn su_process(
    actor_id: &str,
    nodes_factor: &str,
    sm_actor: &str,
    deadline_s: i64,
) -> ActorProcess {
    let mut p = ActorProcess::new(actor_id);
    p.name = Some("SU".into());
    p.nodes_factor = Some(nodes_factor.into());
    p.actions = vec![
        ProcessAction::WaitForEvent(
            EventSelector::named("sd_start_publish").from_nodes(NodeSelector::all(sm_actor)),
        ),
        ProcessAction::WaitForEvent(EventSelector::named("ready_to_init")),
        ProcessAction::invoke("sd_init"),
        ProcessAction::WaitMarker,
        ProcessAction::invoke("sd_start_search"),
        ProcessAction::WaitForEvent(
            EventSelector::named("sd_service_add")
                .from_nodes(NodeSelector::all(actor_id))
                .with_param(NodeSelector::all(sm_actor))
                .with_timeout(ValueRef::int(deadline_s)),
        ),
        ProcessAction::EventFlag {
            value: "done".into(),
        },
        ProcessAction::invoke("sd_stop_search"),
        ProcessAction::invoke("sd_exit"),
    ];
    p
}

/// Minimal environment process: release `ready_to_init`, wait for `done`.
pub(crate) fn env_sync_process() -> EnvProcess {
    EnvProcess {
        actions: vec![
            ProcessAction::EventFlag {
                value: "ready_to_init".into(),
            },
            ProcessAction::WaitForEvent(EventSelector::named("done")),
        ],
    }
}

/// A linear platform: `A` and `B` at the ends of an `n`-node chain
/// (`hops = n - 1`), all intermediate nodes unmanaged relays.
fn chain_platform() -> PlatformSpec {
    PlatformSpec::new()
        .with_actor_node("t9-157", "10.0.0.157", "A")
        .with_actor_node("t9-105", "10.0.0.105", "B")
}

fn base_two_actor_description(name: &str, replications: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::new(name);
    d.abstract_nodes = vec!["A".into(), "B".into()];
    d.params = vec![
        ("sd_architecture".into(), "two-party".into()),
        ("sd_protocol".into(), "zeroconf".into()),
        ("sd_scheme".into(), "active".into()),
    ];
    d.factors = FactorList::new()
        .with_factor(Factor::actor_map(
            "fact_nodes",
            vec![
                ActorAssignment {
                    actor_id: "actor0".into(),
                    instances: vec!["A".into()],
                },
                ActorAssignment {
                    actor_id: "actor1".into(),
                    instances: vec!["B".into()],
                },
                // The fault process runs on the SM node.
                ActorAssignment {
                    actor_id: "fault0".into(),
                    instances: vec!["A".into()],
                },
            ],
        ))
        .with_replication("fact_replication_id", replications);
    d.node_processes = vec![
        sm_process("actor0", "fact_nodes"),
        su_process("actor1", "fact_nodes", "actor0", 30),
    ];
    d.env_processes = vec![env_sync_process()];
    d.platform = chain_platform();
    d
}

/// **CS-1**: responsiveness under injected message loss.
///
/// A message-loss fault on the SM node with probability swept through
/// `loss_levels` (a constant factor), active for the whole run.
pub fn loss_sweep(loss_levels: &[f64], replications: u64, seed: u64) -> ExperimentDescription {
    let mut d = base_two_actor_description("cs1-loss-sweep", replications);
    d.seed = seed;
    d.factors.factors.push(Factor {
        id: "fact_loss".into(),
        usage: FactorUsage::Constant,
        level_type: "float".into(),
        levels: loss_levels.iter().map(|&p| LevelValue::Float(p)).collect(),
        description: Some("message loss probability on the SM".into()),
    });
    let mut fault = ActorProcess::new("fault0");
    fault.is_manipulation = true;
    fault.nodes_factor = Some("fact_nodes".into());
    fault.actions = vec![
        ProcessAction::invoke_with(
            "fault_message_loss_start",
            [
                ("probability".to_string(), ValueRef::factor("fact_loss")),
                ("direction".to_string(), ValueRef::text("both")),
            ],
        ),
        ProcessAction::WaitForEvent(EventSelector::named("done")),
        ProcessAction::invoke("fault_message_loss_stop"),
    ];
    d.node_processes.push(fault);
    d
}

/// Splits [`loss_sweep`] into one single-level description per loss level
/// so a campaign runner can fan the treatments across workers (each
/// treatment is an independent experiment with its own derived seed).
///
/// Shard `i` runs with `derive_seed_indexed(seed, "loss_shard", i)` — a
/// pure function of the parent seed, so the shard list is reproducible and
/// independent of execution order.
pub fn loss_sweep_shards(
    loss_levels: &[f64],
    replications: u64,
    seed: u64,
) -> Vec<ExperimentDescription> {
    loss_levels
        .iter()
        .enumerate()
        .map(|(i, &level)| {
            let mut d = loss_sweep(
                &[level],
                replications,
                derive_seed_indexed(seed, "loss_shard", i as u64),
            );
            d.name = format!("cs1-loss-sweep-{level}");
            d
        })
        .collect()
}

/// One [`hop_distance`] description per hop count in `hops`, with derived
/// per-shard seeds — the job list CS-3 fans across a campaign. Pair each
/// returned description with [`chain_between_actors`] of the same hop
/// count.
pub fn hop_distance_shards(
    hops: std::ops::RangeInclusive<usize>,
    replications: u64,
    seed: u64,
) -> Vec<(usize, ExperimentDescription)> {
    hops.map(|h| {
        (
            h,
            hop_distance(
                replications,
                derive_seed_indexed(seed, "hop_shard", h as u64),
            ),
        )
    })
    .collect()
}

/// **CS-2**: responsiveness under generated background load — the paper's
/// own factor set (Fig. 5) with pairs and data-rate factors.
pub fn load_sweep(
    pairs_levels: &[i64],
    bw_levels: &[i64],
    replications: u64,
    seed: u64,
) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(replications);
    d.name = "cs2-load-sweep".into();
    d.seed = seed;
    if let Some(f) = d.factors.factors.iter_mut().find(|f| f.id == "fact_pairs") {
        f.levels = pairs_levels.iter().map(|&v| LevelValue::Int(v)).collect();
    }
    if let Some(f) = d.factors.factors.iter_mut().find(|f| f.id == "fact_bw") {
        f.levels = bw_levels.iter().map(|&v| LevelValue::Int(v)).collect();
    }
    d
}

/// **CS-3**: responsiveness over hop distance. The returned description is
/// topology-agnostic; instantiate it on `Topology::chain(hops + 1)`.
pub fn hop_distance(replications: u64, seed: u64) -> ExperimentDescription {
    let mut d = base_two_actor_description("cs3-hop-distance", replications);
    d.seed = seed;
    // No fault process needed: strip fault0 from the actor map.
    if let Some(f) = d.factors.factors.iter_mut().find(|f| f.id == "fact_nodes") {
        if let Some(LevelValue::ActorMap(m)) = f.levels.first_mut() {
            m.retain(|a| a.actor_id != "fault0");
        }
    }
    d
}

/// **CS-4**: `n_sm` service managers, one SU that must find all of them,
/// and optionally an SCM node (three-party/hybrid architectures).
pub fn multi_sm(
    n_sm: usize,
    architecture: &str,
    with_scm: bool,
    replications: u64,
    seed: u64,
) -> ExperimentDescription {
    let mut d = ExperimentDescription::new(format!("cs4-{architecture}-{n_sm}sm"));
    d.seed = seed;
    d.params = vec![
        ("sd_architecture".into(), architecture.into()),
        ("sd_protocol".into(), "zeroconf".into()),
        ("sd_scheme".into(), "active".into()),
    ];
    let sm_nodes: Vec<String> = (0..n_sm).map(|i| format!("M{i}")).collect();
    d.abstract_nodes = sm_nodes.clone();
    d.abstract_nodes.push("U".into());
    let mut assignments = vec![
        ActorAssignment {
            actor_id: "actor0".into(),
            instances: sm_nodes.clone(),
        },
        ActorAssignment {
            actor_id: "actor1".into(),
            instances: vec!["U".into()],
        },
    ];
    let mut platform = PlatformSpec::new();
    for (i, m) in sm_nodes.iter().enumerate() {
        platform =
            platform.with_actor_node(format!("sm-{i:02}"), format!("10.0.1.{}", i + 1), m.clone());
    }
    platform = platform.with_actor_node("su-00", "10.0.2.1", "U");
    if with_scm {
        d.abstract_nodes.push("C".into());
        assignments.push(ActorAssignment {
            actor_id: "actor2".into(),
            instances: vec!["C".into()],
        });
        platform = platform.with_actor_node("scm-00", "10.0.3.1", "C");
    }
    d.platform = platform;
    d.factors = FactorList::new()
        .with_factor(Factor::actor_map("fact_nodes", assignments))
        .with_replication("fact_replication_id", replications);
    d.node_processes = vec![
        sm_process("actor0", "fact_nodes"),
        su_process("actor1", "fact_nodes", "actor0", 30),
    ];
    if with_scm {
        let mut scm = ActorProcess::new("actor2");
        scm.name = Some("SCM".into());
        scm.nodes_factor = Some("fact_nodes".into());
        scm.actions = vec![
            ProcessAction::invoke("sd_init"),
            ProcessAction::WaitForEvent(EventSelector::named("done")),
            ProcessAction::invoke("sd_exit"),
        ];
        d.node_processes.push(scm);
        // Give the SCM time to advertise before the SU initializes.
        d.env_processes = vec![EnvProcess {
            actions: vec![
                ProcessAction::WaitForTime {
                    seconds: ValueRef::int(4),
                },
                ProcessAction::EventFlag {
                    value: "ready_to_init".into(),
                },
                ProcessAction::WaitForEvent(EventSelector::named("done")),
            ],
        }];
    } else {
        d.env_processes = vec![env_sync_process()];
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_desc::validate::validate_strict;

    #[test]
    fn all_scenarios_validate() {
        validate_strict(&loss_sweep(&[0.0, 0.3], 2, 1)).unwrap();
        validate_strict(&load_sweep(&[5, 20], &[10, 100], 2, 1)).unwrap();
        validate_strict(&hop_distance(2, 1)).unwrap();
        for arch in ["two-party", "three-party", "hybrid"] {
            validate_strict(&multi_sm(3, arch, arch != "two-party", 2, 1)).unwrap();
        }
    }

    #[test]
    fn shards_are_deterministic_and_distinct() {
        let a = loss_sweep_shards(&[0.0, 0.2, 0.4], 5, 77);
        let b = loss_sweep_shards(&[0.0, 0.2, 0.4], 5, 77);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let seeds: std::collections::HashSet<u64> = a.iter().map(|d| d.seed).collect();
        assert_eq!(seeds.len(), 3, "per-shard seeds must differ");
        for d in &a {
            validate_strict(d).unwrap();
            assert_eq!(d.plan().len(), 5, "one level x replications");
        }
        let h = hop_distance_shards(1..=4, 3, 9);
        assert_eq!(h.len(), 4);
        assert_eq!(h, hop_distance_shards(1..=4, 3, 9));
        for (hops, d) in &h {
            validate_strict(d).unwrap();
            assert!(*hops >= 1);
        }
    }

    #[test]
    fn loss_sweep_plan_size() {
        let d = loss_sweep(&[0.0, 0.2, 0.4], 10, 1);
        assert_eq!(d.plan().len(), 30);
    }

    #[test]
    fn scenarios_roundtrip_through_xml() {
        for d in [
            loss_sweep(&[0.0, 0.5], 2, 9),
            load_sweep(&[5], &[10, 50], 2, 9),
            hop_distance(2, 9),
            multi_sm(2, "three-party", true, 2, 9),
        ] {
            let xml = excovery_desc::xmlio::to_xml(&d);
            let back = excovery_desc::xmlio::from_xml(&xml).unwrap();
            assert_eq!(back, d, "XML round-trip for {}", d.name);
        }
    }

    #[test]
    fn chain_between_actors_hop_counts() {
        use excovery_netsim::NodeId;
        for hops in 1..=6 {
            let t = chain_between_actors(hops);
            assert_eq!(
                t.hop_count(NodeId(0), NodeId(1)),
                Some(hops as u32),
                "hops={hops}"
            );
            assert!(t.is_connected());
        }
    }

    #[test]
    fn multi_sm_maps_all_managers() {
        let d = multi_sm(4, "two-party", false, 1, 1);
        let map = d.factors.factor("fact_nodes").unwrap();
        let lv = map.levels[0].as_actor_map().unwrap();
        assert_eq!(lv[0].instances.len(), 4);
        assert_eq!(d.platform.actor_nodes.len(), 5);
    }
}
