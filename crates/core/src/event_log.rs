//! The master's event list and `wait_for_event` matching (paper §IV-B1,
//! §IV-C2).
//!
//! Events are recorded with the *local* timestamp of the node they occur on
//! plus a master-assigned sequence number that provides the causal order
//! the flow-control functions operate on (`wait_marker` stamps a sequence
//! position; the next `wait_for_event` considers only later events).

use crate::binding::ResolvedActors;
use excovery_desc::process::EventSelector;
use excovery_netsim::SimTime;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Master-assigned, strictly increasing sequence number.
    pub seq: u64,
    /// Run the event belongs to.
    pub run_id: u64,
    /// Platform id of the node the event occurred on (`master` for
    /// master-originated lifecycle events).
    pub node: String,
    /// Local clock reading at the node, nanoseconds.
    pub local_time_ns: u64,
    /// Event name.
    pub name: String,
    /// Event parameters.
    pub params: Vec<(String, String)>,
}

/// Append-only event list for one run.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<RecordedEvent>,
    next_seq: u64,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, assigning its sequence number.
    pub fn record(
        &mut self,
        run_id: u64,
        node: impl Into<String>,
        local_time: SimTime,
        name: impl Into<String>,
        params: Vec<(String, String)>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(RecordedEvent {
            seq,
            run_id,
            node: node.into(),
            local_time_ns: local_time.as_nanos(),
            name: name.into(),
            params,
        });
        seq
    }

    /// All events so far.
    pub fn events(&self) -> &[RecordedEvent] {
        &self.events
    }

    /// Sequence position a `wait_marker` stamps right now.
    pub fn marker(&self) -> u64 {
        self.next_seq
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears the log (new run).
    pub fn clear(&mut self) {
        self.events.clear();
        // seq keeps counting: markers from a previous run can never match.
    }

    /// Sequence numbers reserved per run: no run records anywhere near this
    /// many events, so `run_id * RUN_SEQ_STRIDE` is always ahead of every
    /// earlier run's events.
    pub const RUN_SEQ_STRIDE: u64 = 1 << 20;

    /// Jumps the counter to the canonical base for `run_id`.
    ///
    /// Within one master lifetime this only ever moves the counter forward
    /// (monotonicity keeps stale markers unmatchable), but it also makes the
    /// sequence numbers of a run a pure function of the run itself rather
    /// than of how many runs this master executed before it — a resumed
    /// master must journal byte-identical events for the runs it picks up.
    pub fn align_for_run(&mut self, run_id: u64) {
        self.next_seq = self
            .next_seq
            .max(run_id.saturating_mul(Self::RUN_SEQ_STRIDE));
    }

    /// Evaluates an [`EventSelector`] against events with `seq >= marker`.
    ///
    /// Semantics (paper Figs. 9/10):
    /// * `from` restricts the originating node; with `instance="all"` the
    ///   event must have been seen from **every** selected node.
    /// * `param` restricts a parameter value to the platform id of the
    ///   selected node(s); with `instance="all"` **every** selected node
    ///   must appear as a parameter of some matching event ("finish when
    ///   all SMs have been discovered").
    /// * With both present, the requirements combine: for each required
    ///   parameter node there must be a matching event from an allowed
    ///   origin.
    pub fn satisfied(
        &self,
        selector: &EventSelector,
        marker: u64,
        actors: &ResolvedActors,
    ) -> bool {
        let candidates: Vec<&RecordedEvent> = self
            .events
            .iter()
            .filter(|e| e.seq >= marker && e.name == selector.event)
            .collect();
        if candidates.is_empty() {
            return false;
        }

        let from_ids: Option<Vec<String>> = selector
            .from
            .as_ref()
            .map(|sel| actors.select_platform_ids(sel));
        let param_ids: Option<Vec<String>> = selector
            .param
            .as_ref()
            .map(|sel| actors.select_platform_ids(sel));

        let origin_ok =
            |e: &RecordedEvent, allowed: &[String]| allowed.iter().any(|a| a == &e.node);
        let param_matches =
            |e: &RecordedEvent, node_id: &str| e.params.iter().any(|(_, v)| v == node_id);

        match (&from_ids, &param_ids) {
            (None, None) => true,
            (Some(from), None) => {
                if from.is_empty() {
                    return false;
                }
                if selector.require_all {
                    from.iter().all(|f| candidates.iter().any(|e| &e.node == f))
                } else {
                    candidates.iter().any(|e| origin_ok(e, from))
                }
            }
            (None, Some(params)) => {
                if params.is_empty() {
                    return false;
                }
                if selector.require_all {
                    params
                        .iter()
                        .all(|p| candidates.iter().any(|e| param_matches(e, p)))
                } else {
                    candidates
                        .iter()
                        .any(|e| params.iter().any(|p| param_matches(e, p)))
                }
            }
            (Some(from), Some(params)) => {
                if from.is_empty() || params.is_empty() {
                    return false;
                }
                let from_candidates: Vec<&&RecordedEvent> =
                    candidates.iter().filter(|e| origin_ok(e, from)).collect();
                if selector.require_all {
                    params
                        .iter()
                        .all(|p| from_candidates.iter().any(|e| param_matches(e, p)))
                } else {
                    from_candidates
                        .iter()
                        .any(|e| params.iter().any(|p| param_matches(e, p)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::PlatformBinding;
    use excovery_desc::process::NodeSelector;
    use excovery_desc::ExperimentDescription;

    fn actors() -> ResolvedActors {
        let desc = ExperimentDescription::paper_two_party_sd(1);
        let binding = PlatformBinding::new(&desc.platform, 6).unwrap();
        let plan = desc.plan();
        ResolvedActors::resolve(&desc, &plan.runs[0].treatment, &binding).unwrap()
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn record_assigns_increasing_seq() {
        let mut log = EventLog::new();
        let s0 = log.record(0, "n0", t(5), "a", vec![]);
        let s1 = log.record(0, "n0", t(3), "b", vec![]);
        assert!(s1 > s0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].name, "a");
    }

    #[test]
    fn plain_name_match() {
        let mut log = EventLog::new();
        let actors = actors();
        let sel = EventSelector::named("ready_to_init");
        assert!(!log.satisfied(&sel, 0, &actors));
        log.record(0, "master", t(1), "ready_to_init", vec![]);
        assert!(log.satisfied(&sel, 0, &actors));
    }

    #[test]
    fn marker_hides_earlier_events() {
        let mut log = EventLog::new();
        let actors = actors();
        log.record(0, "master", t(1), "done", vec![]);
        let marker = log.marker();
        let sel = EventSelector::named("done");
        assert!(log.satisfied(&sel, 0, &actors));
        assert!(!log.satisfied(&sel, marker, &actors));
        log.record(0, "master", t(2), "done", vec![]);
        assert!(log.satisfied(&sel, marker, &actors));
    }

    #[test]
    fn from_dependency_restricts_origin() {
        let mut log = EventLog::new();
        let actors = actors();
        // actor0 instance -> platform id t9-157
        let sel = EventSelector::named("sd_start_publish").from_nodes(NodeSelector::all("actor0"));
        log.record(0, "t9-105", t(1), "sd_start_publish", vec![]);
        assert!(!log.satisfied(&sel, 0, &actors), "wrong origin");
        log.record(0, "t9-157", t(2), "sd_start_publish", vec![]);
        assert!(log.satisfied(&sel, 0, &actors));
    }

    #[test]
    fn param_dependency_requires_all_instances() {
        let mut log = EventLog::new();
        let actors = actors();
        // Fig. 10: sd_service_add from actor1 nodes with params covering
        // all actor0 nodes (the SMs).
        let sel = EventSelector::named("sd_service_add")
            .from_nodes(NodeSelector::all("actor1"))
            .with_param(NodeSelector::all("actor0"));
        log.record(
            0,
            "t9-105",
            t(1),
            "sd_service_add",
            vec![("service".into(), "someone-else".into())],
        );
        assert!(
            !log.satisfied(&sel, 0, &actors),
            "param names wrong service"
        );
        log.record(
            0,
            "t9-105",
            t(2),
            "sd_service_add",
            vec![("service".into(), "t9-157".into())],
        );
        assert!(log.satisfied(&sel, 0, &actors));
    }

    #[test]
    fn param_event_from_wrong_origin_does_not_satisfy() {
        let mut log = EventLog::new();
        let actors = actors();
        let sel = EventSelector::named("sd_service_add")
            .from_nodes(NodeSelector::all("actor1"))
            .with_param(NodeSelector::all("actor0"));
        // Right params but emitted by the SM itself, not the SU.
        log.record(
            0,
            "t9-157",
            t(1),
            "sd_service_add",
            vec![("service".into(), "t9-157".into())],
        );
        assert!(!log.satisfied(&sel, 0, &actors));
    }

    #[test]
    fn unknown_actor_selector_never_satisfies() {
        let mut log = EventLog::new();
        let actors = actors();
        log.record(0, "t9-157", t(1), "x", vec![]);
        let sel = EventSelector::named("x").from_nodes(NodeSelector::all("ghost"));
        assert!(!log.satisfied(&sel, 0, &actors));
    }

    #[test]
    fn align_for_run_is_position_independent() {
        // Two logs with different histories agree on the seq numbers of a
        // given run once aligned — the property crash-resume relies on.
        let mut veteran = EventLog::new();
        for r in 0..2 {
            veteran.align_for_run(r);
            veteran.record(r, "n", t(1), "e", vec![]);
        }
        veteran.align_for_run(2);
        let mut fresh = EventLog::new();
        fresh.align_for_run(2);
        assert_eq!(
            veteran.record(2, "n", t(2), "e", vec![]),
            fresh.record(2, "n", t(2), "e", vec![]),
        );
        // Alignment never moves the counter backwards.
        let mut log = EventLog::new();
        log.align_for_run(3);
        let high = log.marker();
        log.align_for_run(1);
        assert_eq!(log.marker(), high);
    }

    #[test]
    fn clear_keeps_seq_monotone() {
        let mut log = EventLog::new();
        let actors = actors();
        log.record(0, "n", t(1), "e", vec![]);
        let marker = log.marker();
        log.clear();
        assert!(log.is_empty());
        let s = log.record(1, "n", t(2), "e", vec![]);
        assert!(s >= marker, "sequence must not restart");
        assert!(log.satisfied(&EventSelector::named("e"), marker, &actors));
    }
}
