//! # excovery-rpc
//!
//! XML-RPC (paper §VI-A) between the controlling *ExperiMaster* and the
//! *NodeManager*s of the participating nodes.
//!
//! "Master and nodes are connected in a centralized client-server
//! architecture with a dedicated communication channel. They communicate
//! synchronously using extensible markup language remote procedure calls
//! (XML-RPC). [...] A node object presents the functions of one node to the
//! master program via XML-RPC and uses locking to allow only one access at
//! a time."
//!
//! The `value` and `message` modules implement the XML-RPC wire format
//! (values, method calls, responses, faults) on top of `excovery-xml`, and
//! [`ServerRegistry`] is the NodeManager's side of it: procedures plus
//! idempotent, at-most-once dispatch keyed by an [`IdemKey`] (on the wire,
//! a trailing `__idem` struct).
//!
//! Every client reaches a registry through one path, the [`Reactor`]:
//! each of the master's lifecycle fan-outs and in-run calls is a
//! [`Reactor::dispatch`], multiplexed on the calling thread over in-memory
//! registries or framed-TCP sockets, one link per node, with the seeded,
//! replayable fault schedule of `chaos` ([`ChaosOptions`]) and one bounded [`RetryPolicy`]
//! — see DESIGN.md §13. [`RpcError`] classifies failures (server fault
//! vs. codec vs. timeout/disconnect) so the engine can decide what is
//! recoverable.
//!
//! [`NodeProxy`] is the blocking client for callers that make one call at
//! a time (the experiment server's client, tests, probes): a one-link
//! reactor behind the per-node lock the paper mandates, over a
//! [`Channel`] (an in-memory registry) or a [`TcpTransport`] (a socket to
//! a [`TcpRpcServer`], opened eagerly). Its calls are single attempts and
//! carry no idempotency key.

mod chaos;
pub mod error;
pub mod job;
mod message;
mod reactor;
pub mod tcp;
mod transport;
mod value;

pub use chaos::{fault_at, ChaosOptions, FaultAction};
pub use error::{RpcError, FAULT_INTERNAL_ERROR, FAULT_PARSE_ERROR};
pub use job::{
    pack_frame, pack_plan, pack_results_page, pack_status, pack_status_list, pack_submit,
    pack_submit_response, unpack_frame, unpack_plan, unpack_results_page, unpack_status,
    unpack_status_list, unpack_submit, unpack_submit_response, AggOp, AggSpec, CellValue, ExprSpec,
    FilterOp, JobId, JobResults, JobState, JobStatus, PlanSpec, ResultsPage, SubmitRequest,
    WireFrame, JOB_LIST, JOB_RESULTS, JOB_STATUS, JOB_SUBMIT, QUERY_RUN, QUERY_TABLES,
};
pub use message::{Fault, MethodCall, MethodResponse};
pub use reactor::{DispatchOutcome, NodeCall, NodeProxy, Reactor, ReactorEndpoint, RetryPolicy};
pub use tcp::{TcpOptions, TcpRpcServer, TcpTransport};
pub use transport::{Channel, IdemKey, ServerRegistry};
pub use value::Value;
