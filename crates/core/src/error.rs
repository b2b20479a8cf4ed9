//! Structured error model of the execution engine.
//!
//! The engine distinguishes *where* an experiment failed, because the
//! paper's recovery concept (§IV-E) reacts differently per class: a node
//! fault marks the run and moves on, a transport failure or timeout means
//! the platform itself is unhealthy, and config/storage errors abort
//! before any run is spent.

use excovery_rpc::RpcError;

/// Error produced by [`ExperiMaster`](crate::master::ExperiMaster).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The description or engine configuration is invalid.
    Config(String),
    /// A node's procedure failed (the control channel itself is healthy).
    Node {
        /// Platform id of the failing node.
        node: String,
        /// The node-side failure.
        detail: String,
    },
    /// The control channel to a node failed (disconnect, I/O, codec).
    Transport {
        /// Platform id of the unreachable node.
        node: String,
        /// The transport-level failure.
        detail: String,
    },
    /// A call to a node exceeded its deadline.
    Timeout {
        /// Platform id of the unresponsive node.
        node: String,
        /// Method that was in flight.
        method: String,
        /// Deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// Level-2/level-3 storage failed.
    Storage(String),
    /// Anything else that fails mid-run (process resolution, plugins).
    Run(String),
}

impl EngineError {
    /// Classifies a per-node RPC failure: server-side faults become
    /// [`EngineError::Node`], elapsed deadlines [`EngineError::Timeout`],
    /// everything else [`EngineError::Transport`].
    pub(crate) fn from_rpc(node: impl Into<String>, err: RpcError) -> Self {
        let node = node.into();
        match err {
            RpcError::Timeout { method, after_ms } => EngineError::Timeout {
                node,
                method,
                after_ms,
            },
            e if e.is_server_side() => EngineError::Node {
                node,
                detail: e.to_string(),
            },
            e => EngineError::Transport {
                node,
                detail: e.to_string(),
            },
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(m) => write!(f, "configuration error: {m}"),
            EngineError::Node { node, detail } => {
                write!(f, "node '{node}' failed: {detail}")
            }
            EngineError::Transport { node, detail } => {
                write!(f, "control channel to '{node}' failed: {detail}")
            }
            EngineError::Timeout {
                node,
                method,
                after_ms,
            } => {
                write!(
                    f,
                    "node '{node}' did not answer '{method}' within {after_ms} ms"
                )
            }
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Downstream code (CLI, examples, harnesses) runs in `Result<_, String>`
/// contexts; keep `?` working there.
impl From<EngineError> for String {
    fn from(e: EngineError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_rpc::Fault;

    #[test]
    fn rpc_classification() {
        let e = EngineError::from_rpc("n1", RpcError::Fault(Fault::new(5, "boom")));
        assert!(
            matches!(&e, EngineError::Node { node, .. } if node == "n1"),
            "{e:?}"
        );

        let e = EngineError::from_rpc(
            "n2",
            RpcError::Timeout {
                method: "run_init".into(),
                after_ms: 250,
            },
        );
        assert!(
            matches!(&e, EngineError::Timeout { method, .. } if method == "run_init"),
            "{e:?}"
        );

        let e = EngineError::from_rpc("n3", RpcError::Disconnected("gone".into()));
        assert!(matches!(e, EngineError::Transport { .. }), "{e:?}");
    }

    #[test]
    fn string_conversion_keeps_question_mark_working() {
        fn stringy() -> Result<(), String> {
            Err(EngineError::Config("bad".into()))?;
            Ok(())
        }
        assert_eq!(stringy().unwrap_err(), "configuration error: bad");
    }
}
