//! The SD agents' cache-expiry timers stay few on a wide run.
//!
//! An agent needs one expiry sweep per distinct deadline, not one timer
//! per record it receives. On a 24-SM run over a 5×5 grid the sweeps
//! that matter are all still pending when the run ends, so the simulator
//! queue left behind by `execute` counts what the agents armed. The
//! number of executed events is pinned beside it: the run itself must
//! not change. Both hold at 1, 2 and 4 simulator shards.

use excovery::engine::scenarios::multi_sm;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::topology::Topology;

/// Events still queued after `execute`. With one expiry timer armed per
/// received record it was 817.
const PENDING_EVENTS: usize = 206;
/// Events the simulator executed during `execute`.
const EVENTS_EXECUTED: u64 = 1622;

#[test]
fn one_wide_run_leaves_few_timers_pending() {
    for shards in [1, 2, 4] {
        let desc = multi_sm(24, "two-party", false, 1, 1);
        let mut cfg = EngineConfig::builder()
            .topology(Topology::grid(5, 5))
            .build();
        cfg.sim.shards = shards;
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        master.execute().unwrap();
        let sim = master.simulator();
        let sim = sim.lock();
        assert_eq!(
            (sim.pending_events(), sim.events_executed()),
            (PENDING_EVENTS, EVENTS_EXECUTED),
            "{shards} shards"
        );
    }
}
