//! Client-side error model of the control channel.
//!
//! The paper's prototype treats every failed master→node interaction the
//! same way; for recovery (§IV-E) the engine needs to distinguish *what*
//! failed: the node's procedure (a fault), the wire payload (codec), or
//! the channel itself (timeout, disconnect, I/O). The enum is
//! `#[non_exhaustive]` so further transports can add variants without
//! breaking matches downstream.

use crate::message::Fault;

/// Fault code used when dispatch fails to find a method.
pub(crate) const FAULT_NO_SUCH_METHOD: i32 = -32601;

/// Fault code used when the server cannot parse the request.
pub const FAULT_PARSE_ERROR: i32 = -32700;

/// Fault code used when a procedure handler panics server-side.
pub const FAULT_INTERNAL_ERROR: i32 = -32603;

/// Error returned by client-side calls.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RpcError {
    /// The server raised a fault.
    Fault(Fault),
    /// The wire payload could not be parsed.
    Codec(String),
    /// No procedure registered under the called name.
    NoSuchMethod(String),
    /// The per-call deadline elapsed before a response arrived.
    Timeout {
        /// Method that was being called.
        method: String,
        /// Deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// The connection to the server was lost (and could not be
    /// re-established within the transport's backoff budget).
    Disconnected(String),
    /// Any other transport-level I/O failure.
    Io(String),
}

impl RpcError {
    /// True for transient transport conditions where retrying the call
    /// (or reconnecting) can succeed; false for protocol-level errors
    /// that would deterministically recur.
    pub fn is_retryable(&self) -> bool {
        match self {
            RpcError::Timeout { .. } | RpcError::Disconnected(_) | RpcError::Io(_) => true,
            RpcError::Fault(_) | RpcError::Codec(_) | RpcError::NoSuchMethod(_) => false,
        }
    }

    /// True if the failure happened in the node's procedure rather than
    /// on the transport (i.e. the channel itself is healthy).
    pub fn is_server_side(&self) -> bool {
        matches!(self, RpcError::Fault(_) | RpcError::NoSuchMethod(_))
    }

    /// A stable, low-cardinality label for this error's kind — the
    /// `kind` label of the `rpc_client_errors_total` metric.
    ///
    /// The strings are a public contract: dashboards and the pinning
    /// test in this module rely on them, so a label never changes once
    /// shipped. The enum is `#[non_exhaustive]` toward downstream
    /// crates; within this crate the match is exhaustive, so adding a
    /// variant forces choosing its label here at compile time.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            RpcError::Fault(_) => "fault",
            RpcError::Codec(_) => "codec",
            RpcError::NoSuchMethod(_) => "no_such_method",
            RpcError::Timeout { .. } => "timeout",
            RpcError::Disconnected(_) => "disconnected",
            RpcError::Io(_) => "io",
        }
    }
}

impl From<Fault> for RpcError {
    /// Classifies a protocol fault: the well-known "no such method" code
    /// gets its own variant, everything else stays a fault.
    fn from(fault: Fault) -> Self {
        if fault.code == FAULT_NO_SUCH_METHOD {
            RpcError::NoSuchMethod(fault.message)
        } else {
            RpcError::Fault(fault)
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Fault(fault) => write!(f, "{fault}"),
            RpcError::Codec(m) => write!(f, "codec error: {m}"),
            RpcError::NoSuchMethod(m) => write!(f, "no such method: {m}"),
            RpcError::Timeout { method, after_ms } => {
                write!(f, "call '{method}' timed out after {after_ms} ms")
            }
            RpcError::Disconnected(m) => write!(f, "disconnected: {m}"),
            RpcError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_partitions_the_variants() {
        assert!(RpcError::Timeout {
            method: "m".into(),
            after_ms: 10
        }
        .is_retryable());
        assert!(RpcError::Disconnected("gone".into()).is_retryable());
        assert!(RpcError::Io("reset".into()).is_retryable());
        assert!(!RpcError::Fault(Fault::new(1, "x")).is_retryable());
        assert!(!RpcError::Codec("bad".into()).is_retryable());
        assert!(!RpcError::NoSuchMethod("nope".into()).is_retryable());
    }

    #[test]
    fn from_fault_classifies_no_such_method() {
        let e: RpcError = Fault::new(FAULT_NO_SUCH_METHOD, "no such method: x").into();
        assert!(matches!(e, RpcError::NoSuchMethod(_)));
        let e: RpcError = Fault::new(42, "boom").into();
        assert!(matches!(e, RpcError::Fault(f) if f.code == 42));
    }

    #[test]
    fn kind_labels_are_pinned() {
        // The label set is a public metrics contract: adding a variant
        // extends this table, existing entries never change.
        let cases: Vec<(RpcError, &'static str)> = vec![
            (RpcError::Fault(Fault::new(1, "x")), "fault"),
            (RpcError::Codec("bad".into()), "codec"),
            (RpcError::NoSuchMethod("nope".into()), "no_such_method"),
            (
                RpcError::Timeout {
                    method: "m".into(),
                    after_ms: 10,
                },
                "timeout",
            ),
            (RpcError::Disconnected("gone".into()), "disconnected"),
            (RpcError::Io("reset".into()), "io"),
        ];
        for (err, want) in &cases {
            assert_eq!(err.kind_label(), *want, "{err}");
        }
        // Labels are distinct (one series per kind) and metric-safe.
        let mut labels: Vec<&str> = cases.iter().map(|(e, _)| e.kind_label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cases.len());
        for l in labels {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{l}");
        }
    }

    #[test]
    fn server_side_classification() {
        assert!(RpcError::Fault(Fault::new(1, "x")).is_server_side());
        assert!(!RpcError::Disconnected("gone".into()).is_server_side());
    }
}
