//! Factors, levels and the factor list (paper §IV-C, Fig. 5).
//!
//! A *factor* is part of the treatment applied to the experimental unit and
//! consists of a set of *levels*. The *list of factors* is ordered: in an
//! OFAT design the first factor varies least often during execution while
//! the last factor changes every run. A *replication factor* defines how
//! often each treatment is repeated.

use std::fmt;

/// How a factor participates in the design (the `usage` attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorUsage {
    /// A blocking factor: groups runs into blocks of similar conditions
    /// (e.g. the actor-to-node mapping of Fig. 5).
    Blocking,
    /// Levels applied in seeded-random order.
    Random,
    /// Levels applied in their listed order (one factor at a time).
    Constant,
    /// The replication count (exactly one per description).
    Replication,
}

impl FactorUsage {
    /// The XML attribute value for this usage.
    pub fn as_str(self) -> &'static str {
        match self {
            FactorUsage::Blocking => "blocking",
            FactorUsage::Random => "random",
            FactorUsage::Constant => "constant",
            FactorUsage::Replication => "replication",
        }
    }

    /// Parses the XML attribute value.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "blocking" => Some(FactorUsage::Blocking),
            "random" => Some(FactorUsage::Random),
            "constant" => Some(FactorUsage::Constant),
            "replication" => Some(FactorUsage::Replication),
            _ => None,
        }
    }
}

/// Assignment of abstract nodes to one actor role, part of an
/// actor-node-map level (Fig. 5: `<actor id="actor0"><instance id="0">A...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorAssignment {
    /// Actor role identifier (e.g. `actor0`).
    pub actor_id: String,
    /// Abstract node ids instantiating the role, indexed by instance number.
    pub instances: Vec<String>,
}

/// The typed value of a level.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelValue {
    /// Integer level (`type="int"`).
    Int(i64),
    /// Floating-point level (`type="float"`).
    Float(f64),
    /// Free-text level (`type="str"`).
    Text(String),
    /// A complete actor-to-node mapping (`type="actor_node_map"`).
    ActorMap(Vec<ActorAssignment>),
}

impl LevelValue {
    /// Integer view, if this is an [`LevelValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            LevelValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float view (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            LevelValue::Float(v) => Some(*v),
            LevelValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Text view, if this is an [`LevelValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            LevelValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Actor-map view, if this is an [`LevelValue::ActorMap`].
    pub fn as_actor_map(&self) -> Option<&[ActorAssignment]> {
        match self {
            LevelValue::ActorMap(m) => Some(m),
            _ => None,
        }
    }

    /// The `type` attribute value matching this level.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            LevelValue::Int(_) => "int",
            LevelValue::Float(_) => "float",
            LevelValue::Text(_) => "str",
            LevelValue::ActorMap(_) => "actor_node_map",
        }
    }
}

impl fmt::Display for LevelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelValue::Int(v) => write!(f, "{v}"),
            LevelValue::Float(v) => write!(f, "{v}"),
            LevelValue::Text(s) => write!(f, "{s}"),
            LevelValue::ActorMap(m) => {
                let parts: Vec<String> = m
                    .iter()
                    .map(|a| format!("{}=[{}]", a.actor_id, a.instances.join(",")))
                    .collect();
                write!(f, "{{{}}}", parts.join("; "))
            }
        }
    }
}

/// A concrete level of a factor.
pub(crate) type Level = LevelValue;

/// A treatment factor with its set of levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Unique identifier referenced by `factorref` elements.
    pub id: String,
    /// Role of the factor in the design.
    pub usage: FactorUsage,
    /// Declared level type (`int`, `float`, `str`, `actor_node_map`).
    pub level_type: String,
    /// All levels to apply; a held-constant factor has exactly one.
    pub levels: Vec<Level>,
    /// Optional human-readable description.
    pub description: Option<String>,
}

impl Factor {
    /// Creates a factor with integer levels.
    pub fn int(
        id: impl Into<String>,
        usage: FactorUsage,
        levels: impl IntoIterator<Item = i64>,
    ) -> Self {
        Self {
            id: id.into(),
            usage,
            level_type: "int".into(),
            levels: levels.into_iter().map(LevelValue::Int).collect(),
            description: None,
        }
    }

    /// Creates an actor-node-map blocking factor with a single level.
    pub fn actor_map(id: impl Into<String>, assignments: Vec<ActorAssignment>) -> Self {
        Self {
            id: id.into(),
            usage: FactorUsage::Blocking,
            level_type: "actor_node_map".into(),
            levels: vec![LevelValue::ActorMap(assignments)],
            description: None,
        }
    }

    /// Number of levels.
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len()
    }
}

/// The ordered list of all factors plus the replication factor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FactorList {
    /// Treatment factors in design order (first varies least in OFAT).
    pub factors: Vec<Factor>,
    /// Replications of each treatment (paper: `replicationfactor`); the id
    /// lets processes reference the current replicate number as a seed
    /// (Fig. 7 uses `fact_replication_id` for the traffic switch seed).
    pub replication: Replication,
}

/// The replication factor (`<replicationfactor ...>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// Identifier (e.g. `fact_replication_id`).
    pub id: String,
    /// How many times each treatment is applied.
    pub count: u64,
}

impl Default for Replication {
    fn default() -> Self {
        Self {
            id: "fact_replication_id".into(),
            count: 1,
        }
    }
}

impl FactorList {
    /// Creates an empty list with replication 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a factor (builder style).
    pub fn with_factor(mut self, f: Factor) -> Self {
        self.factors.push(f);
        self
    }

    /// Sets the replication count (builder style).
    pub fn with_replication(mut self, id: impl Into<String>, count: u64) -> Self {
        self.replication = Replication {
            id: id.into(),
            count,
        };
        self
    }

    /// Looks a factor up by id.
    pub fn factor(&self, id: &str) -> Option<&Factor> {
        self.factors.iter().find(|f| f.id == id)
    }

    /// Number of distinct treatments (cartesian product of level counts).
    pub fn treatment_count(&self) -> u64 {
        self.factors
            .iter()
            .map(|f| f.level_count().max(1) as u64)
            .product()
    }

    /// Total runs including replication.
    pub fn total_runs(&self) -> u64 {
        self.treatment_count() * self.replication.count.max(1)
    }

    /// The paper's Fig. 5 factor list: an actor map for nodes A/B, a random
    /// pairs factor {5, 20}, a bandwidth factor {10, 50, 100} kbit/s and
    /// 1000 replications.
    pub fn paper_fig5() -> Self {
        FactorList::new()
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
                ],
            ))
            .with_factor(Factor::int("fact_pairs", FactorUsage::Random, [5, 20]))
            .with_factor({
                let mut f = Factor::int("fact_bw", FactorUsage::Constant, [10, 50, 100]);
                f.description = Some("datarate generated load".into());
                f
            })
            .with_replication("fact_replication_id", 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_roundtrip() {
        for u in [
            FactorUsage::Blocking,
            FactorUsage::Random,
            FactorUsage::Constant,
            FactorUsage::Replication,
        ] {
            assert_eq!(FactorUsage::parse(u.as_str()), Some(u));
        }
        assert_eq!(FactorUsage::parse("bogus"), None);
    }

    #[test]
    fn level_value_views() {
        assert_eq!(LevelValue::Int(5).as_int(), Some(5));
        assert_eq!(LevelValue::Int(5).as_float(), Some(5.0));
        assert_eq!(LevelValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(LevelValue::Float(2.5).as_int(), None);
        assert_eq!(LevelValue::Text("x".into()).as_text(), Some("x"));
        assert!(LevelValue::Int(1).as_actor_map().is_none());
    }

    #[test]
    fn level_type_names() {
        assert_eq!(LevelValue::Int(0).type_name(), "int");
        assert_eq!(LevelValue::Float(0.0).type_name(), "float");
        assert_eq!(LevelValue::Text(String::new()).type_name(), "str");
        assert_eq!(LevelValue::ActorMap(vec![]).type_name(), "actor_node_map");
    }

    #[test]
    fn display_formats() {
        assert_eq!(LevelValue::Int(42).to_string(), "42");
        let m = LevelValue::ActorMap(vec![ActorAssignment {
            actor_id: "actor0".into(),
            instances: vec!["A".into(), "B".into()],
        }]);
        assert_eq!(m.to_string(), "{actor0=[A,B]}");
    }

    #[test]
    fn fig5_counts() {
        let fl = FactorList::paper_fig5();
        assert_eq!(fl.factors.len(), 3);
        // 1 (actor map) * 2 (pairs) * 3 (bw) treatments.
        assert_eq!(fl.treatment_count(), 6);
        assert_eq!(fl.total_runs(), 6_000);
        assert_eq!(fl.replication.count, 1000);
        assert_eq!(fl.factor("fact_pairs").unwrap().level_count(), 2);
        assert!(fl.factor("nope").is_none());
    }

    #[test]
    fn empty_list_has_one_treatment() {
        let fl = FactorList::new();
        assert_eq!(fl.treatment_count(), 1);
        assert_eq!(fl.total_runs(), 1);
    }
}
