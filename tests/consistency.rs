//! The §IV-B2 verification loop on real experiments: the independently
//! recorded event list and packet captures of any engine-produced package
//! must be mutually consistent.

use excovery::analysis::verify::verify_all;
use excovery::analysis::ExperimentDataset;
use excovery::desc::ExperimentDescription;
use excovery::engine::scenarios::{loss_sweep, multi_sm};
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::topology::Topology;

#[test]
fn paper_experiment_package_is_self_consistent() {
    let desc = ExperimentDescription::paper_two_party_sd(2);
    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default()).unwrap();
    let outcome = master.execute().unwrap();
    let findings = verify_all(&ExperimentDataset::new(&outcome.database).unwrap()).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn three_party_package_is_self_consistent() {
    let desc = multi_sm(2, "three-party", true, 2, 13);
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = Topology::grid(3, 2);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    let findings = verify_all(&ExperimentDataset::new(&outcome.database).unwrap()).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lossy_experiment_stays_consistent() {
    // Heavy loss changes what is *captured*, but never the consistency of
    // what was captured: events still only follow real receptions.
    let desc = loss_sweep(&[0.5], 4, 14);
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = Topology::chain(2);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    let findings = verify_all(&ExperimentDataset::new(&outcome.database).unwrap()).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}
