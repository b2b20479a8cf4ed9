//! Reproduces **Figs. 9, 10 and 11** — the abstract SD processes and the
//! one-shot discovery they produce, executed through the full stack
//! (description → master → XML-RPC → NodeManager → SD agent → simulator →
//! storage).

use excovery::analysis::timeline::Timeline;
use excovery::analysis::ExperimentDataset;
use excovery::desc::ExperimentDescription;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::store::records::EventRow;
use std::collections::BTreeMap;

fn one_run() -> excovery::engine::ExperimentOutcome {
    let desc = ExperimentDescription::paper_two_party_sd(1);
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(1);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    master.execute().unwrap()
}

#[test]
fn sm_role_event_order_follows_fig9() {
    let outcome = one_run();
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events(Some(0))
        .unwrap();
    let sm: Vec<&str> = events
        .iter()
        .filter(|e| e.node_id == "t9-157")
        .map(|e| e.event_type.as_str())
        .collect();
    // init → start publish → (wait done) → stop publish → exit.
    let idx = |name: &str| {
        sm.iter()
            .position(|e| *e == name)
            .unwrap_or_else(|| panic!("{name} missing from {sm:?}"))
    };
    assert!(idx("sd_init_done") < idx("sd_start_publish"));
    assert!(idx("sd_start_publish") < idx("sd_stop_publish"));
    assert!(idx("sd_stop_publish") <= idx("sd_exit_done"));
}

#[test]
fn su_role_event_order_follows_fig10() {
    let outcome = one_run();
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events(Some(0))
        .unwrap();
    let su: Vec<&str> = events
        .iter()
        .filter(|e| e.node_id == "t9-105")
        .map(|e| e.event_type.as_str())
        .collect();
    let idx = |name: &str| {
        su.iter()
            .position(|e| *e == name)
            .unwrap_or_else(|| panic!("{name} missing from {su:?}"))
    };
    assert!(idx("sd_init_done") < idx("sd_start_search"));
    assert!(idx("sd_start_search") < idx("sd_service_add"));
    assert!(idx("sd_service_add") < idx("done"));
    assert!(idx("done") < idx("sd_stop_search"));
    assert!(idx("sd_stop_search") < idx("sd_exit_done"));
}

#[test]
fn su_waits_for_publisher_and_environment() {
    // Fig. 10: the SU's sd_init happens only after the SM's
    // sd_start_publish AND the environment's ready_to_init.
    // Causal order lives in the recording order; common-time order can
    // swap cross-node events lying closer together than the sync-error
    // residual left by time conditioning.
    let outcome = one_run();
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events_recorded(Some(0))
        .unwrap();
    let su_init_seq = events
        .iter()
        .position(|e| e.node_id == "t9-105" && e.event_type == "sd_init_done")
        .expect("SU initialized");
    let publish_seq = events
        .iter()
        .position(|e| e.node_id == "t9-157" && e.event_type == "sd_start_publish")
        .expect("SM published");
    let ready_seq = events
        .iter()
        .position(|e| e.event_type == "ready_to_init")
        .expect("environment released");
    assert!(publish_seq < su_init_seq);
    assert!(ready_seq < su_init_seq);
}

#[test]
fn discovery_identifies_the_publishing_sm() {
    let outcome = one_run();
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events(Some(0))
        .unwrap();
    let add = events
        .iter()
        .find(|e| e.event_type == "sd_service_add")
        .unwrap();
    let params = EventRow::decode_params(&add.parameter);
    assert!(params.iter().any(|(k, v)| k == "service" && v == "t9-157"));
    assert!(params.iter().any(|(k, _)| k == "stype"));
}

#[test]
fn fig11_timeline_reconstructs_t_r() {
    let outcome = one_run();
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events(Some(0))
        .unwrap();
    let actors = BTreeMap::from([
        ("t9-157".to_string(), "SM1".to_string()),
        ("t9-105".to_string(), "SU1".to_string()),
    ]);
    let timeline = Timeline::from_events(&events, &actors);
    let t_r = timeline.t_r_ns().expect("t_R measurable");
    assert!(t_r > 0, "t_R must be positive");
    assert!(t_r < 30_000_000_000, "discovered within the 30 s deadline");
    // Same value through the episode extraction path.
    let episodes = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .episodes_by_run()
        .unwrap();
    assert_eq!(episodes[&0][0].first_t_r_ns(), Some(t_r));
    // Both renderings carry the two actor lanes.
    let ascii = timeline.render_ascii(80);
    assert!(ascii.contains("SM1") && ascii.contains("SU1"));
    let svg = timeline.render_svg(800);
    assert!(svg.contains("<circle"));
}

#[test]
fn deadline_fires_when_no_service_exists() {
    // Remove the SM's publish action: the SU must time out after its 30 s
    // deadline, flag done anyway (Fig. 10 semantics) and finish the run.
    let mut desc = ExperimentDescription::paper_two_party_sd(1);
    let sm = desc
        .node_processes
        .iter_mut()
        .find(|p| p.actor_id == "actor0")
        .unwrap();
    sm.actions
        .retain(|a| a.name() != "sd_start_publish" && a.name() != "sd_stop_publish");
    // The SU's first wait (for sd_start_publish) must not block forever.
    let su = desc
        .node_processes
        .iter_mut()
        .find(|p| p.actor_id == "actor1")
        .unwrap();
    su.actions.remove(0);
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(1);
    cfg.run_timeout = excovery::netsim::SimDuration::from_secs(60);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
    let events = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .events(Some(0))
        .unwrap();
    let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
    assert!(!names.contains(&"sd_service_add"));
    assert!(names.contains(&"done"), "deadline produces done: {names:?}");
    // The run took at least the 30 s deadline.
    assert!(outcome.runs[0].duration >= excovery::netsim::SimDuration::from_secs(30));
}
