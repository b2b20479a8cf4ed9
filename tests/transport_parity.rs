//! The control-channel backend must be invisible to the experiment: the
//! same description on the same platform seed yields the same
//! [`ExperimentOutcome`] whether the master reaches its NodeManagers over
//! the in-memory channel or over real TCP sockets.

use excovery::analysis::ExperimentDataset;
use excovery::desc::ExperimentDescription;
use excovery::engine::{EngineConfig, ExperiMaster, ExperimentOutcome, TransportKind};
use excovery::netsim::topology::Topology;

fn description() -> ExperimentDescription {
    use excovery::desc::process::{EventSelector, ProcessAction};
    let mut d = ExperimentDescription::paper_two_party_sd(2);
    // Same slimming as the engine's unit tests: drop the load factors so a
    // run is two replicates of plain discovery.
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

fn execute_with(transport: TransportKind) -> ExperimentOutcome {
    let cfg = EngineConfig::builder()
        .topology(Topology::grid(3, 2))
        .transport(transport)
        .l2_root(std::env::temp_dir().join(format!(
            "excovery-parity-{transport}-{}",
            std::process::id()
        )))
        .build();
    let mut master = ExperiMaster::new(description(), cfg).unwrap();
    master.execute().unwrap()
}

#[test]
fn memory_and_tcp_transports_produce_identical_outcomes() {
    let memory = execute_with(TransportKind::Memory);
    let tcp = execute_with(TransportKind::Tcp);

    // Run-level outcomes line up exactly.
    assert_eq!(memory.runs, tcp.runs);
    assert!(memory.runs.iter().all(|r| r.completed), "{:?}", memory.runs);

    // The conditioned level-3 tables are identical row for row.
    let m_events = ExperimentDataset::new(&memory.database)
        .unwrap()
        .events(None)
        .unwrap();
    let t_events = ExperimentDataset::new(&tcp.database)
        .unwrap()
        .events(None)
        .unwrap();
    assert!(!m_events.is_empty());
    assert_eq!(
        m_events
            .iter()
            .map(|e| (
                e.run_id,
                e.node_id.clone(),
                e.common_time_ns,
                e.event_type.clone()
            ))
            .collect::<Vec<_>>(),
        t_events
            .iter()
            .map(|e| (
                e.run_id,
                e.node_id.clone(),
                e.common_time_ns,
                e.event_type.clone()
            ))
            .collect::<Vec<_>>(),
    );

    let m_packets = ExperimentDataset::new(&memory.database)
        .unwrap()
        .packets(Some(0))
        .unwrap();
    let t_packets = ExperimentDataset::new(&tcp.database)
        .unwrap()
        .packets(Some(0))
        .unwrap();
    assert!(!m_packets.is_empty());
    assert_eq!(m_packets.len(), t_packets.len());
    for (m, t) in m_packets.iter().zip(&t_packets) {
        assert_eq!(
            (&m.node_id, m.common_time_ns, &m.data),
            (&t.node_id, t.common_time_ns, &t.data)
        );
    }

    // Sync measurements (per-node RNG streams) agree as well.
    let m_infos = ExperimentDataset::new(&memory.database)
        .unwrap()
        .run_infos(None)
        .unwrap();
    let t_infos = ExperimentDataset::new(&tcp.database)
        .unwrap()
        .run_infos(None)
        .unwrap();
    assert_eq!(
        m_infos
            .iter()
            .map(|i| (i.run_id, i.node_id.clone(), i.time_diff_ns))
            .collect::<Vec<_>>(),
        t_infos
            .iter()
            .map(|i| (i.run_id, i.node_id.clone(), i.time_diff_ns))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn tcp_transport_reports_real_socket_endpoints() {
    let cfg = EngineConfig::builder()
        .topology(Topology::grid(3, 2))
        .transport(TransportKind::Tcp)
        .build();
    let master = ExperiMaster::new(description(), cfg).unwrap();
    let endpoints = master.endpoints();
    assert_eq!(endpoints.len(), 6);
    for (node, ep) in &endpoints {
        assert!(ep.starts_with("tcp://127.0.0.1:"), "{node}: {ep}");
    }
}

#[test]
fn memory_transport_reports_memory_endpoints() {
    let master = ExperiMaster::new(
        description(),
        EngineConfig::builder()
            .topology(Topology::grid(3, 2))
            .build(),
    )
    .unwrap();
    assert!(master.endpoints().iter().all(|(_, ep)| ep == "memory"));
}
