//! End-to-end coverage of the experiment designs: blocking via the
//! actor-node-map factor (the paper's Fig. 5 `usage="blocking"`), the
//! completely randomized design, and the randomized-complete-block design.

use excovery::analysis::ExperimentDataset;
use excovery::desc::factors::{ActorAssignment, LevelValue};
use excovery::desc::plan::Design;
use excovery::desc::ExperimentDescription;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::store::records::EventRow;

/// The paper description, extended with a second actor-map level that
/// swaps the SM and SU nodes — two blocks, as a blocking factor produces.
fn swapped_blocks_description(reps: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(reps);
    // Simplify: drop load factors, keep the sync-only env process.
    d.factors.factors.retain(|f| f.id == "fact_nodes");
    d.env_processes[0].actions = vec![
        excovery::desc::ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        excovery::desc::ProcessAction::WaitForEvent(excovery::desc::process::EventSelector::named(
            "done",
        )),
    ];
    let nodes = d
        .factors
        .factors
        .iter_mut()
        .find(|f| f.id == "fact_nodes")
        .unwrap();
    nodes.levels.push(LevelValue::ActorMap(vec![
        ActorAssignment {
            actor_id: "actor0".into(),
            instances: vec!["B".into()],
        },
        ActorAssignment {
            actor_id: "actor1".into(),
            instances: vec!["A".into()],
        },
    ]));
    d
}

#[test]
fn blocking_factor_swaps_roles_between_blocks() {
    let desc = swapped_blocks_description(2);
    assert_eq!(desc.plan().len(), 4, "2 blocks × 2 replications");
    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default()).unwrap();
    let outcome = master.execute().unwrap();
    assert!(outcome.runs.iter().all(|r| r.completed));

    // Block 1 (runs 0-1): A = t9-157 publishes; block 2 (runs 2-3): B
    // publishes — visible in which node emits sd_start_publish.
    let publisher_of = |run: u64| {
        ExperimentDataset::new(&outcome.database)
            .unwrap()
            .events(Some(run))
            .unwrap()
            .into_iter()
            .find(|e| e.event_type == "sd_start_publish")
            .map(|e| e.node_id)
            .expect("publish event")
    };
    assert_eq!(publisher_of(0), "t9-157");
    assert_eq!(publisher_of(1), "t9-157");
    assert_eq!(publisher_of(2), "t9-105");
    assert_eq!(publisher_of(3), "t9-105");
    // And discovery still works in both blocks, naming the right SM.
    for (run, sm) in [(0u64, "t9-157"), (3, "t9-105")] {
        let add = ExperimentDataset::new(&outcome.database)
            .unwrap()
            .events(Some(run))
            .unwrap()
            .into_iter()
            .find(|e| e.event_type == "sd_service_add")
            .unwrap_or_else(|| panic!("run {run} discovered nothing"));
        let params = EventRow::decode_params(&add.parameter);
        assert!(
            params.iter().any(|(k, v)| k == "service" && v == sm),
            "run {run}: {params:?}"
        );
    }
}

#[test]
fn completely_randomized_design_executes_and_interleaves_blocks() {
    let mut desc = swapped_blocks_description(3);
    desc.design = Design::CompletelyRandomized;
    desc.seed = 5;
    let plan = desc.plan();
    // The shuffle interleaves the two blocks (6 runs; identity order is
    // one of 720 permutations — seed 5 does not produce it).
    let keys: Vec<String> = plan.runs.iter().map(|r| r.treatment.key()).collect();
    let sorted_blocks: Vec<String> = {
        let mut k = keys.clone();
        k.sort();
        k
    };
    assert_ne!(keys, sorted_blocks, "CRD must interleave: {keys:?}");

    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default()).unwrap();
    let outcome = master.execute().unwrap();
    assert_eq!(outcome.runs.len(), 6);
    assert!(
        outcome.runs.iter().all(|r| r.completed),
        "{:?}",
        outcome.runs
    );
    // Run ids in the database follow the randomized plan order.
    let treatments: Vec<&str> = outcome
        .runs
        .iter()
        .map(|r| r.treatment_key.as_str())
        .collect();
    assert_eq!(
        treatments,
        keys.iter().map(String::as_str).collect::<Vec<_>>(),
        "executed order matches the generated plan"
    );
}

#[test]
fn rcbd_keeps_blocks_contiguous_end_to_end() {
    let mut desc = swapped_blocks_description(3);
    desc.design = Design::RandomizedWithinBlocks;
    desc.seed = 9;
    let plan = desc.plan();
    let first_block_key = plan.runs[0].treatment.key();
    // First three runs share a block, last three the other.
    assert!(plan.runs[..3]
        .iter()
        .all(|r| r.treatment.key() == first_block_key));
    assert!(plan.runs[3..]
        .iter()
        .all(|r| r.treatment.key() != first_block_key));

    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default()).unwrap();
    let outcome = master.execute().unwrap();
    assert!(outcome.runs.iter().all(|r| r.completed));
}
