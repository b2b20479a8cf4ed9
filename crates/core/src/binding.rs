//! Binding of abstract nodes to platform nodes to simulator nodes.
//!
//! Three naming layers exist in an ExCovery experiment (paper §IV-E):
//! *abstract nodes* (`A`, `B`) referenced by the description, *platform
//! nodes* (`t9-157`, identified by host name and address) and — on our
//! simulated platform — the simulator's [`NodeId`]s. [`PlatformBinding`]
//! fixes the platform↔simulator mapping for a whole experiment;
//! `ResolvedActors` resolves actor roles to concrete nodes per treatment
//! (the actor-node-map factor can change between blocks).

use excovery_desc::factors::LevelValue;
use excovery_desc::plan::Treatment;
use excovery_desc::platform::PlatformSpec;
use excovery_desc::process::{InstanceSelector, NodeSelector};
use excovery_desc::ExperimentDescription;
use excovery_netsim::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Fixed mapping between platform node ids and simulator nodes.
#[derive(Debug, Clone)]
pub struct PlatformBinding {
    by_platform_id: HashMap<String, NodeId>,
    /// The platform id of simulator node `i` at index `i`: the platform's
    /// nodes are bound to `0..n`. Shared, so an event names its node
    /// without copying the id.
    by_sim_node: Vec<Arc<str>>,
    by_abstract: HashMap<String, String>,
}

impl PlatformBinding {
    /// Binds the platform spec onto simulator nodes `0..n` in `all_nodes`
    /// order (actors first, then environment nodes). The simulator may
    /// have more nodes than the platform lists; the surplus are unmanaged
    /// relays.
    pub fn new(spec: &PlatformSpec, sim_node_count: usize) -> Result<Self, String> {
        if spec.len() > sim_node_count {
            return Err(format!(
                "platform lists {} nodes but the simulator has only {sim_node_count}",
                spec.len()
            ));
        }
        let mut by_platform_id = HashMap::new();
        let mut by_sim_node = Vec::new();
        let mut by_abstract = HashMap::new();
        for (i, node) in spec.all_nodes().enumerate() {
            let sim = NodeId(i as u16);
            if by_platform_id.insert(node.id.clone(), sim).is_some() {
                return Err(format!("duplicate platform node id '{}'", node.id));
            }
            by_sim_node.push(Arc::from(node.id.as_str()));
            if let Some(a) = &node.abstract_id {
                by_abstract.insert(a.clone(), node.id.clone());
            }
        }
        Ok(Self {
            by_platform_id,
            by_sim_node,
            by_abstract,
        })
    }

    /// Simulator node of a platform node id.
    pub(crate) fn sim_node(&self, platform_id: &str) -> Option<NodeId> {
        self.by_platform_id.get(platform_id).copied()
    }

    /// Platform id of a simulator node (unmanaged nodes have none).
    pub(crate) fn platform_id(&self, node: NodeId) -> Option<&str> {
        self.shared_platform_id(node).map(|id| &**id)
    }

    /// The same id as [`Self::platform_id`], as the shared string.
    pub(crate) fn shared_platform_id(&self, node: NodeId) -> Option<&Arc<str>> {
        self.by_sim_node.get(usize::from(node.0))
    }

    /// Platform id realizing an abstract node.
    pub(crate) fn platform_of_abstract(&self, abstract_id: &str) -> Option<&str> {
        self.by_abstract.get(abstract_id).map(String::as_str)
    }

    /// All managed platform ids (actors then environment nodes), in the
    /// order of their simulator nodes.
    pub(crate) fn managed_platform_ids(&self) -> Vec<&str> {
        self.by_sim_node.iter().map(|id| &**id).collect()
    }

    /// All managed simulator nodes, ascending: `0..n`.
    pub(crate) fn managed_sim_nodes(&self) -> Vec<NodeId> {
        (0..self.by_sim_node.len())
            .map(|i| NodeId(i as u16))
            .collect()
    }
}

/// Per-treatment resolution of actor roles to nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolvedActors {
    // actor id -> instances in order -> (abstract id, platform id, sim node)
    map: HashMap<String, Vec<(String, String, NodeId)>>,
}

impl ResolvedActors {
    /// Resolves the actor map of a treatment.
    ///
    /// For every actor process of `desc`, its `nodes_factor` is looked up
    /// in the treatment; the actor-map level assigns abstract nodes to the
    /// role, which the binding maps through to simulator nodes.
    pub(crate) fn resolve(
        desc: &ExperimentDescription,
        treatment: &Treatment,
        binding: &PlatformBinding,
    ) -> Result<Self, String> {
        let mut map: HashMap<String, Vec<(String, String, NodeId)>> = HashMap::new();
        for p in &desc.node_processes {
            let Some(factor_id) = &p.nodes_factor else {
                continue; // process without node mapping: resolved empty
            };
            let level = treatment
                .level(factor_id)
                .or_else(|| {
                    // Blocking single-level factors may be outside the
                    // treatment only if they have no levels at all.
                    desc.factors
                        .factor(factor_id)
                        .and_then(|f| f.levels.first())
                })
                .ok_or_else(|| format!("treatment lacks factor '{factor_id}'"))?;
            let LevelValue::ActorMap(assignments) = level else {
                return Err(format!("factor '{factor_id}' is not an actor map"));
            };
            let Some(assignment) = assignments.iter().find(|a| a.actor_id == p.actor_id) else {
                return Err(format!("actor map does not assign '{}'", p.actor_id));
            };
            let mut instances = Vec::new();
            for abstract_id in &assignment.instances {
                let platform = binding
                    .platform_of_abstract(abstract_id)
                    .ok_or_else(|| format!("abstract node '{abstract_id}' unmapped"))?;
                let sim = binding
                    .sim_node(platform)
                    .ok_or_else(|| format!("platform node '{platform}' unbound"))?;
                instances.push((abstract_id.clone(), platform.to_string(), sim));
            }
            map.insert(p.actor_id.clone(), instances);
        }
        Ok(Self { map })
    }

    /// Instances of an actor role: `(abstract_id, platform_id, sim_node)`.
    pub(crate) fn instances(&self, actor_id: &str) -> &[(String, String, NodeId)] {
        self.map.get(actor_id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Platform ids selected by a [`NodeSelector`].
    pub(crate) fn select_platform_ids(&self, sel: &NodeSelector) -> Vec<String> {
        let instances = self.instances(&sel.actor);
        match &sel.instance {
            InstanceSelector::All => instances.iter().map(|(_, p, _)| p.clone()).collect(),
            InstanceSelector::Index(i) => instances
                .get(*i as usize)
                .map(|(_, p, _)| vec![p.clone()])
                .unwrap_or_default(),
        }
    }

    /// All acting simulator nodes across roles (for traffic `choice`).
    pub(crate) fn acting_sim_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.map.values().flatten().map(|(_, _, n)| *n).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_desc::ExperimentDescription;

    fn setup() -> (ExperimentDescription, PlatformBinding) {
        let desc = ExperimentDescription::paper_two_party_sd(1);
        let binding = PlatformBinding::new(&desc.platform, 9).unwrap();
        (desc, binding)
    }

    #[test]
    fn binding_assigns_sequential_sim_nodes() {
        let (_, b) = setup();
        assert_eq!(b.sim_node("t9-157"), Some(NodeId(0)));
        assert_eq!(b.sim_node("t9-105"), Some(NodeId(1)));
        assert_eq!(b.sim_node("t9-004"), Some(NodeId(2)));
        assert_eq!(b.platform_id(NodeId(0)), Some("t9-157"));
        assert_eq!(b.platform_id(NodeId(8)), None, "unmanaged surplus node");
        assert_eq!(b.sim_node("nope"), None);
    }

    #[test]
    fn abstract_mapping_chains_through() {
        let (_, b) = setup();
        assert_eq!(b.platform_of_abstract("A"), Some("t9-157"));
        let sim_of = |a| b.platform_of_abstract(a).and_then(|p| b.sim_node(p));
        assert_eq!(sim_of("B"), Some(NodeId(1)));
        assert_eq!(sim_of("Z"), None);
    }

    #[test]
    fn too_small_simulator_is_rejected() {
        let (desc, _) = setup();
        assert!(PlatformBinding::new(&desc.platform, 3).is_err());
    }

    #[test]
    fn managed_lists() {
        let (_, b) = setup();
        assert_eq!(b.managed_sim_nodes().len(), 6);
        assert_eq!(b.managed_platform_ids()[0], "t9-157");
    }

    #[test]
    fn resolve_actors_for_paper_description() {
        let (desc, b) = setup();
        let plan = desc.plan();
        let resolved = ResolvedActors::resolve(&desc, &plan.runs[0].treatment, &b).unwrap();
        let sm = resolved.instances("actor0");
        assert_eq!(sm.len(), 1);
        assert_eq!(sm[0], ("A".to_string(), "t9-157".to_string(), NodeId(0)));
        let su = resolved.instances("actor1");
        assert_eq!(su[0].2, NodeId(1));
        assert_eq!(resolved.acting_sim_nodes(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn selector_resolution() {
        let (desc, b) = setup();
        let plan = desc.plan();
        let resolved = ResolvedActors::resolve(&desc, &plan.runs[0].treatment, &b).unwrap();
        assert_eq!(
            resolved.select_platform_ids(&NodeSelector::all("actor0")),
            vec!["t9-157"]
        );
        assert_eq!(
            resolved.select_platform_ids(&NodeSelector::instance("actor1", 0)),
            vec!["t9-105"]
        );
        assert!(resolved
            .select_platform_ids(&NodeSelector::instance("actor1", 5))
            .is_empty());
        assert!(resolved
            .select_platform_ids(&NodeSelector::all("ghost"))
            .is_empty());
    }

    #[test]
    fn missing_platform_mapping_errors() {
        let (mut desc, _) = setup();
        desc.platform
            .actor_nodes
            .retain(|n| n.abstract_id.as_deref() != Some("B"));
        let binding = PlatformBinding::new(&desc.platform, 9).unwrap();
        let plan = desc.plan();
        assert!(ResolvedActors::resolve(&desc, &plan.runs[0].treatment, &binding).is_err());
    }
}
