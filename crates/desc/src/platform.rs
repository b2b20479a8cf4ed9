//! Platform specification (paper §IV-E, Fig. 8).
//!
//! Maps abstract and environment nodes to concrete usable nodes of the
//! target platform. ExCovery identifies nodes by host name and IP address;
//! the host name must stay constant during a run while the address may
//! change (an event signals reconfiguration).

/// One concrete platform node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Unique identifier/host name on the platform (e.g. `t9-035`).
    pub id: String,
    /// Network address used in recorded event and packet lists.
    pub address: String,
    /// For actor nodes: the abstract node id this platform node realizes.
    /// `None` for environment nodes.
    pub abstract_id: Option<String>,
}

/// The platform section of an experiment description.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlatformSpec {
    /// Nodes realizing abstract (actor) nodes.
    pub actor_nodes: Vec<NodeSpec>,
    /// Environment nodes (traffic generation etc.).
    pub env_nodes: Vec<NodeSpec>,
    /// Platform-specific parameters exposed to the implementation
    /// ("special parameters", §IV-E).
    pub special_params: Vec<(String, String)>,
}

impl PlatformSpec {
    /// Creates an empty specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor node (builder style).
    pub fn with_actor_node(
        mut self,
        id: impl Into<String>,
        address: impl Into<String>,
        abstract_id: impl Into<String>,
    ) -> Self {
        self.actor_nodes.push(NodeSpec {
            id: id.into(),
            address: address.into(),
            abstract_id: Some(abstract_id.into()),
        });
        self
    }

    /// Adds an environment node (builder style).
    pub fn with_env_node(mut self, id: impl Into<String>, address: impl Into<String>) -> Self {
        self.env_nodes.push(NodeSpec {
            id: id.into(),
            address: address.into(),
            abstract_id: None,
        });
        self
    }

    /// The platform node realizing the given abstract node id.
    pub fn node_for_abstract(&self, abstract_id: &str) -> Option<&NodeSpec> {
        self.actor_nodes
            .iter()
            .find(|n| n.abstract_id.as_deref() == Some(abstract_id))
    }

    /// Looks up any node (actor or environment) by platform id.
    pub fn node(&self, id: &str) -> Option<&NodeSpec> {
        self.actor_nodes
            .iter()
            .chain(&self.env_nodes)
            .find(|n| n.id == id)
    }

    /// All nodes, actors first.
    pub fn all_nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.actor_nodes.iter().chain(&self.env_nodes)
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.actor_nodes.len() + self.env_nodes.len()
    }

    /// True if no nodes are specified.
    pub fn is_empty(&self) -> bool {
        self.actor_nodes.is_empty() && self.env_nodes.is_empty()
    }

    /// A specification mirroring the paper's Fig. 8: two actor nodes
    /// mapping abstract nodes A and B plus four environment nodes.
    pub(crate) fn paper_fig8() -> Self {
        PlatformSpec::new()
            .with_actor_node("t9-157", "10.0.0.157", "A")
            .with_actor_node("t9-105", "10.0.0.105", "B")
            .with_env_node("t9-004", "10.0.0.4")
            .with_env_node("t9-022", "10.0.0.22")
            .with_env_node("t9-035", "10.0.0.35")
            .with_env_node("t9-169", "10.0.0.169")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape() {
        let p = PlatformSpec::paper_fig8();
        assert_eq!(p.actor_nodes.len(), 2);
        assert_eq!(p.env_nodes.len(), 4);
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn abstract_mapping_lookup() {
        let p = PlatformSpec::paper_fig8();
        assert_eq!(p.node_for_abstract("A").unwrap().id, "t9-157");
        assert_eq!(p.node_for_abstract("B").unwrap().id, "t9-105");
        assert!(p.node_for_abstract("C").is_none());
    }

    #[test]
    fn node_lookup_covers_both_kinds() {
        let p = PlatformSpec::paper_fig8();
        assert!(p.node("t9-157").is_some());
        assert!(p.node("t9-035").is_some());
        assert!(p.node("t9-035").unwrap().abstract_id.is_none());
        assert!(p.node("nope").is_none());
    }

    #[test]
    fn all_nodes_order_actors_first() {
        let p = PlatformSpec::paper_fig8();
        let ids: Vec<&str> = p.all_nodes().map(|n| n.id.as_str()).collect();
        assert_eq!(&ids[..2], &["t9-157", "t9-105"]);
        assert_eq!(ids.len(), 6);
    }
}
