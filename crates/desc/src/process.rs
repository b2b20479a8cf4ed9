//! Process descriptions: sequences of actions with flow control
//! (paper §IV-C2, Figs. 6, 7, 9, 10).
//!
//! ExCovery differentiates *abstract node processes* (mapped to real nodes:
//! protocol actions, fault injections) and *environment processes*
//! (performed by all nodes, e.g. traffic generation). Every process is a
//! sequence of [`ProcessAction`]s; synchronization among concurrently
//! running processes uses the four flow-control functions.

use crate::factors::LevelValue;
use crate::plan::Treatment;
use std::fmt;

/// A parameter value: either a literal or a reference to a factor whose
/// current level is substituted at run time (`<factorref id="..."/>`).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef {
    /// A literal value.
    Lit(LevelValue),
    /// A reference to a factor of the factor list.
    FactorRef(String),
}

impl ValueRef {
    /// Integer literal shortcut.
    pub fn int(v: i64) -> Self {
        ValueRef::Lit(LevelValue::Int(v))
    }

    /// Text literal shortcut.
    pub fn text(v: impl Into<String>) -> Self {
        ValueRef::Lit(LevelValue::Text(v.into()))
    }

    /// Factor reference shortcut.
    pub fn factor(id: impl Into<String>) -> Self {
        ValueRef::FactorRef(id.into())
    }

    /// Resolves against a treatment; a factor reference to the replication
    /// id resolves via `replicate`.
    pub fn resolve(
        &self,
        treatment: &Treatment,
        replication_id: &str,
        replicate: u64,
    ) -> Option<LevelValue> {
        match self {
            ValueRef::Lit(v) => Some(v.clone()),
            ValueRef::FactorRef(id) if id == replication_id => {
                Some(LevelValue::Int(replicate as i64))
            }
            ValueRef::FactorRef(id) => treatment.level(id).cloned(),
        }
    }

    /// The referenced factor id, if this is a reference.
    pub(crate) fn factor_id(&self) -> Option<&str> {
        match self {
            ValueRef::FactorRef(id) => Some(id),
            ValueRef::Lit(_) => None,
        }
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Lit(v) => write!(f, "{v}"),
            ValueRef::FactorRef(id) => write!(f, "@{id}"),
        }
    }
}

/// Selects nodes by actor role and instance (Fig. 10:
/// `<node actor="actor0" instance="all"/>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSelector {
    /// Actor role id.
    pub actor: String,
    /// Instance selector: a specific index or all instances.
    pub instance: InstanceSelector,
}

/// Which instances of an actor a selector matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceSelector {
    /// All instances of the actor.
    All,
    /// A specific instance index.
    Index(u32),
}

impl NodeSelector {
    /// Selects all instances of `actor`.
    pub fn all(actor: impl Into<String>) -> Self {
        Self {
            actor: actor.into(),
            instance: InstanceSelector::All,
        }
    }

    /// Selects one instance of `actor`.
    pub fn instance(actor: impl Into<String>, idx: u32) -> Self {
        Self {
            actor: actor.into(),
            instance: InstanceSelector::Index(idx),
        }
    }
}

/// The event condition of a `wait_for_event` (paper §IV-C2):
/// name, optional origin restriction, optional parameter restriction
/// and an optional timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSelector {
    /// Event name to wait for (`event_dependency`).
    pub event: String,
    /// Restrict to events from these nodes (`from_dependency`).
    /// `None` means "any participant".
    pub from: Option<NodeSelector>,
    /// Restrict to events carrying a parameter naming one of these nodes
    /// (`param_dependency`) — e.g. the SM identity in `sd_service_add`.
    pub param: Option<NodeSelector>,
    /// Give up after this many seconds (`timeout`).
    pub timeout_s: Option<ValueRef>,
    /// Wait until the event has been seen from *all* selected nodes
    /// (`instance="all"` semantics of Figs. 9/10), not just one.
    pub require_all: bool,
}

impl EventSelector {
    /// A selector matching `event` from any node, no timeout.
    pub fn named(event: impl Into<String>) -> Self {
        Self {
            event: event.into(),
            from: None,
            param: None,
            timeout_s: None,
            require_all: false,
        }
    }

    /// Builder: restrict origin.
    pub fn from_nodes(mut self, sel: NodeSelector) -> Self {
        self.require_all |= sel.instance == InstanceSelector::All;
        self.from = Some(sel);
        self
    }

    /// Builder: restrict the event parameter to nodes of a selector.
    pub fn with_param(mut self, sel: NodeSelector) -> Self {
        self.require_all |= sel.instance == InstanceSelector::All;
        self.param = Some(sel);
        self
    }

    /// Builder: set a timeout in seconds.
    pub fn with_timeout(mut self, timeout: ValueRef) -> Self {
        self.timeout_s = Some(timeout);
        self
    }
}

/// One step of a process description.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessAction {
    /// `wait_for_time`: pause for a fixed number of seconds.
    WaitForTime {
        /// Delay in seconds (may reference a factor).
        seconds: ValueRef,
    },
    /// `wait_for_event`: block until a matching event is registered on any
    /// participant (only events after the last `wait_marker`).
    WaitForEvent(EventSelector),
    /// `wait_marker`: stamp the instant from which the next
    /// `wait_for_event` starts considering events.
    WaitMarker,
    /// `event_flag`: emit a local event so other processes can depend on it.
    EventFlag {
        /// Name of the emitted event.
        value: String,
    },
    /// Any process/manipulation/environment action with parameters —
    /// `sd_init`, `sd_start_search`, `fault_message_loss_start`,
    /// `env_traffic_start`, plugin functions, … The execution engine
    /// interprets the name.
    Invoke {
        /// Action name (XML element name).
        name: String,
        /// Parameters in document order.
        params: Vec<(String, ValueRef)>,
    },
}

impl ProcessAction {
    /// Convenience constructor for parameterless invocations.
    pub fn invoke(name: impl Into<String>) -> Self {
        ProcessAction::Invoke {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Convenience constructor with parameters.
    pub fn invoke_with(
        name: impl Into<String>,
        params: impl IntoIterator<Item = (String, ValueRef)>,
    ) -> Self {
        ProcessAction::Invoke {
            name: name.into(),
            params: params.into_iter().collect(),
        }
    }

    /// The action's display name (element name for invokes).
    pub fn name(&self) -> &str {
        match self {
            ProcessAction::WaitForTime { .. } => "wait_for_time",
            ProcessAction::WaitForEvent(_) => "wait_for_event",
            ProcessAction::WaitMarker => "wait_marker",
            ProcessAction::EventFlag { .. } => "event_flag",
            ProcessAction::Invoke { name, .. } => name,
        }
    }
}

/// A process bound to an actor role (node process or manipulation process).
#[derive(Debug, Clone, PartialEq)]
pub struct ActorProcess {
    /// Actor role id (e.g. `actor0`).
    pub actor_id: String,
    /// Human-readable role name (e.g. `SM`, `SU`).
    pub name: Option<String>,
    /// Factor id providing the actor-to-node mapping (Fig. 6 references the
    /// abstract nodes via the `fact_nodes` factor).
    pub nodes_factor: Option<String>,
    /// The action sequence.
    pub actions: Vec<ProcessAction>,
    /// True for manipulation (fault-injection) processes, which run
    /// alongside the experiment process on the same node.
    pub is_manipulation: bool,
}

impl ActorProcess {
    /// Creates an empty experiment process for a role.
    pub fn new(actor_id: impl Into<String>) -> Self {
        Self {
            actor_id: actor_id.into(),
            name: None,
            nodes_factor: None,
            actions: Vec::new(),
            is_manipulation: false,
        }
    }
}

/// An environment process: runs once, controlling environment manipulations
/// (Fig. 7), implicitly supported by all nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvProcess {
    /// The action sequence.
    pub actions: Vec<ProcessAction>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::LevelValue;

    fn treatment() -> Treatment {
        Treatment::from_assignments([
            ("fact_bw".to_string(), LevelValue::Int(50)),
            ("fact_pairs".to_string(), LevelValue::Int(20)),
        ])
    }

    #[test]
    fn literal_resolves_to_itself() {
        let v = ValueRef::int(30);
        assert_eq!(v.resolve(&treatment(), "rep", 0), Some(LevelValue::Int(30)));
    }

    #[test]
    fn factor_ref_resolves_via_treatment() {
        let v = ValueRef::factor("fact_bw");
        assert_eq!(v.resolve(&treatment(), "rep", 0), Some(LevelValue::Int(50)));
        assert_eq!(
            ValueRef::factor("missing").resolve(&treatment(), "rep", 0),
            None
        );
    }

    #[test]
    fn replication_ref_resolves_to_replicate_index() {
        let v = ValueRef::factor("fact_replication_id");
        assert_eq!(
            v.resolve(&treatment(), "fact_replication_id", 42),
            Some(LevelValue::Int(42))
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(ValueRef::int(5).to_string(), "5");
        assert_eq!(ValueRef::factor("f").to_string(), "@f");
    }

    #[test]
    fn event_selector_builders_set_require_all() {
        let sel = EventSelector::named("sd_service_add")
            .from_nodes(NodeSelector::all("actor1"))
            .with_param(NodeSelector::all("actor0"))
            .with_timeout(ValueRef::int(30));
        assert!(sel.require_all);
        assert_eq!(sel.event, "sd_service_add");
        assert_eq!(sel.timeout_s, Some(ValueRef::int(30)));

        let single = EventSelector::named("done").from_nodes(NodeSelector::instance("actor0", 1));
        assert!(!single.require_all);
    }

    #[test]
    fn action_names() {
        assert_eq!(ProcessAction::WaitMarker.name(), "wait_marker");
        assert_eq!(ProcessAction::invoke("sd_init").name(), "sd_init");
        assert_eq!(
            ProcessAction::WaitForTime {
                seconds: ValueRef::int(1)
            }
            .name(),
            "wait_for_time"
        );
        assert_eq!(
            ProcessAction::EventFlag {
                value: "done".into()
            }
            .name(),
            "event_flag"
        );
        assert_eq!(
            ProcessAction::WaitForEvent(EventSelector::named("x")).name(),
            "wait_for_event"
        );
    }

    #[test]
    fn invoke_with_params_preserves_order() {
        let a = ProcessAction::invoke_with(
            "env_traffic_start",
            [
                ("bw".to_string(), ValueRef::factor("fact_bw")),
                ("choice".to_string(), ValueRef::int(0)),
            ],
        );
        if let ProcessAction::Invoke { params, .. } = &a {
            assert_eq!(params[0].0, "bw");
            assert_eq!(params[1].0, "choice");
        } else {
            panic!("not an invoke");
        }
    }
}
