//! Kills a live `TcpRpcServer` under the master mid-lifecycle and checks
//! both halves of the recovery contract: the failure *surfaces* as
//! [`EngineError::Transport`] naming the dead node within a bounded wall
//! time (no hang, no silent loss), and once the server is back the same
//! master reconnects and completes the experiment.

use excovery_core::{EngineConfig, EngineError, ExperiMaster, RetryPolicy, TransportKind};
use excovery_desc::process::{EventSelector, ProcessAction};
use excovery_desc::ExperimentDescription;
use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::SimulatorConfig;
use excovery_netsim::topology::Topology;
use excovery_netsim::SimDuration;
use excovery_rpc::TcpOptions;
use std::time::{Duration, Instant};

fn desc() -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(1);
    d.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    d.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    d
}

fn tcp_config() -> EngineConfig {
    EngineConfig {
        topology: Topology::grid(3, 2),
        sim: SimulatorConfig {
            link_model: LinkModel {
                base_loss: 0.0,
                ..LinkModel::default()
            },
            ..SimulatorConfig::default()
        },
        run_timeout: SimDuration::from_secs(60),
        transport: TransportKind::Tcp,
        // Tight deadlines so a dead server is *diagnosed*, not waited out:
        // the error must surface in seconds even on a loaded CI box.
        tcp: TcpOptions {
            connect_timeout: Duration::from_millis(250),
            call_timeout: Duration::from_millis(500),
            max_connect_attempts: 2,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
        },
        retry: RetryPolicy::none(),
        ..EngineConfig::grid_default()
    }
}

/// The reactor's bounded non-blocking reconnect diagnoses the dead node,
/// and its lazily-reconnected link recovers once the server is revived.
#[test]
fn dead_server_surfaces_as_transport_error_then_recovery_completes() {
    let mut master = ExperiMaster::new(desc(), tcp_config()).unwrap();
    let victim = master.node_ids().into_iter().next().unwrap();
    assert!(master.halt_node_server(&victim), "no server to halt");

    // Phase 1: an early lifecycle fan-out must fail fast and name the dead
    // node — not some follow-on symptom elsewhere. Which phase trips is
    // timing-dependent (a connection accepted before the shutdown can
    // serve one last call), so only the phase *label* format is checked.
    let started = Instant::now();
    let err = match master.execute() {
        Err(e) => e,
        Ok(_) => panic!("dead server must fail the run"),
    };
    let elapsed = started.elapsed();
    match &err {
        EngineError::Transport { node, detail } => {
            assert_eq!(node, &victim, "error blames the wrong node: {detail}");
            assert!(
                detail.contains("init") || detail.contains("measure_sync"),
                "error should name the failing lifecycle phase, got: {detail}"
            );
        }
        other => panic!("expected EngineError::Transport, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "diagnosis took {elapsed:?}; deadlines are not being honoured"
    );

    // Phase 2: bring the server back at its old address; the reactor's
    // link reconnects lazily, so a plain re-execution must now succeed.
    master.revive_node_server(&victim).unwrap();
    let outcome = master.execute().expect("revived server must complete");
    assert!(outcome.runs.iter().all(|r| r.completed));
    assert_eq!(outcome.runs.len(), 1);
}

#[test]
fn halting_an_unknown_node_is_a_no_op() {
    let mut master = ExperiMaster::new(desc(), tcp_config()).unwrap();
    assert!(!master.halt_node_server("no-such-node"));
    // In-memory-transport masters have no TCP servers to halt either.
    let mut mem = ExperiMaster::new(
        desc(),
        EngineConfig {
            transport: TransportKind::Memory,
            ..tcp_config()
        },
    )
    .unwrap();
    let pid = mem.node_ids().into_iter().next().unwrap();
    assert!(!mem.halt_node_server(&pid));
}
