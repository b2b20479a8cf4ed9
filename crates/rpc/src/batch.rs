//! Batched lifecycle RPCs: many per-node calls packed into one wire frame.
//!
//! The master's per-phase fan-out sends the *same* lifecycle procedure to
//! every NodeManager; at testbed scale that is N frames per phase. A batch
//! frame carries all N calls at once: each [`BatchEntry`] names its target
//! node, the method, the parameters and — crucially — its **own**
//! idempotency key. The server side ([`relay_registry`]) unpacks the batch
//! into ordinary [`ServerRegistry::dispatch`] calls carrying that key, so
//! the exactly-once/dedup semantics hold *per node inside a batch*: a
//! retried batch replays recorded responses for entries that already
//! executed and only re-runs the ones that never landed. The batch call
//! itself therefore needs no outer key — re-sending it is idempotent by
//! construction.
//!
//! [`relay_registry`] is also the building block of the hierarchical
//! fan-out tree: a sub-master relay owns a group of NodeManager registries
//! and exposes a single [`BATCH_METHOD`] endpoint that forwards each entry
//! to its node and packs the per-node results into one response array.

use crate::error::{RpcError, FAULT_NO_SUCH_METHOD, FAULT_PARSE_ERROR};
use crate::message::{Fault, MethodCall};
use crate::transport::{ServerRegistry, IDEMPOTENCY_MEMBER};
use crate::value::Value;
use excovery_obs::sync::Mutex;
use std::sync::Arc;

/// Wire name of the batched-dispatch procedure exposed by relays.
pub const BATCH_METHOD: &str = "__batch";

/// One call inside a batch frame: target node, procedure, parameters and
/// the per-node idempotency key that makes its retry exactly-once.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Platform id of the NodeManager this entry is addressed to.
    pub node_id: String,
    /// Lifecycle procedure name (`run_init`, `experiment_exit`, …).
    pub method: String,
    /// Call parameters, *without* the trailing idempotency struct — the
    /// key travels as its own member and is re-attached server-side.
    pub params: Vec<Value>,
    /// Per-node idempotency key (`{run_id}:{epoch}:{seq}`).
    pub idem_key: String,
}

/// Packs entries into one [`BATCH_METHOD`] call: one struct parameter per
/// entry with members `node`, `method`, `params` and `__idem`.
pub fn pack_batch(entries: &[BatchEntry]) -> MethodCall {
    let params = entries
        .iter()
        .map(|e| {
            Value::Struct(vec![
                ("node".into(), Value::str(e.node_id.clone())),
                ("method".into(), Value::str(e.method.clone())),
                ("params".into(), Value::Array(e.params.clone())),
                (IDEMPOTENCY_MEMBER.into(), Value::str(e.idem_key.clone())),
            ])
        })
        .collect();
    MethodCall::new(BATCH_METHOD, params)
}

/// Inverse of [`pack_batch`]: rejects calls that are not a well-formed
/// batch with a [`FAULT_PARSE_ERROR`] fault.
pub fn unpack_batch(call: &MethodCall) -> Result<Vec<BatchEntry>, Fault> {
    if call.method != BATCH_METHOD {
        return Err(Fault::new(
            FAULT_PARSE_ERROR,
            format!("'{}' is not a batch call", call.method),
        ));
    }
    unpack_entries(&call.params)
}

/// Decodes the parameter list of a [`BATCH_METHOD`] call into entries.
pub fn unpack_entries(params: &[Value]) -> Result<Vec<BatchEntry>, Fault> {
    let malformed =
        |i: usize, what: &str| Fault::new(FAULT_PARSE_ERROR, format!("batch entry #{i}: {what}"));
    let mut entries = Vec::with_capacity(params.len());
    for (i, param) in params.iter().enumerate() {
        let node_id = param
            .member("node")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(i, "missing string member 'node'"))?;
        let method = param
            .member("method")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(i, "missing string member 'method'"))?;
        let entry_params = param
            .member("params")
            .and_then(Value::as_array)
            .ok_or_else(|| malformed(i, "missing array member 'params'"))?;
        let idem_key = param
            .member(IDEMPOTENCY_MEMBER)
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(i, "missing string member '__idem'"))?;
        entries.push(BatchEntry {
            node_id: node_id.to_string(),
            method: method.to_string(),
            params: entry_params.to_vec(),
            idem_key: idem_key.to_string(),
        });
    }
    Ok(entries)
}

/// One entry's result in a batch response: the node it addressed and
/// what its handler returned.
pub type BatchResult = (String, Result<Value, Fault>);

/// Encodes per-entry results as the batch response value: an array of
/// structs, each carrying `node` plus either `value` (success) or `fault`
/// (a `faultCode`/`faultString` struct, mirroring the XML-RPC fault
/// shape). Order matches the request's entry order.
pub fn pack_batch_response(results: &[BatchResult]) -> Value {
    Value::Array(
        results
            .iter()
            .map(|(node, outcome)| {
                let mut members = vec![("node".to_string(), Value::str(node.clone()))];
                match outcome {
                    Ok(v) => members.push(("value".into(), v.clone())),
                    Err(f) => members.push((
                        "fault".into(),
                        Value::Struct(vec![
                            ("faultCode".into(), Value::Int(f.code)),
                            ("faultString".into(), Value::str(f.message.clone())),
                        ]),
                    )),
                }
                Value::Struct(members)
            })
            .collect(),
    )
}

/// Inverse of [`pack_batch_response`]; malformed shapes surface as
/// [`RpcError::Codec`] so the dispatcher treats them as a wire problem,
/// not a per-node fault.
pub fn unpack_batch_response(value: &Value) -> Result<Vec<BatchResult>, RpcError> {
    let items = value
        .as_array()
        .ok_or_else(|| RpcError::Codec("batch response is not an array".into()))?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let node = item
            .member("node")
            .and_then(Value::as_str)
            .ok_or_else(|| RpcError::Codec(format!("batch result #{i} lacks 'node'")))?;
        let outcome = if let Some(v) = item.member("value") {
            Ok(v.clone())
        } else if let Some(fault) = item.member("fault") {
            let code = fault
                .member("faultCode")
                .and_then(Value::as_int)
                .ok_or_else(|| RpcError::Codec(format!("batch result #{i}: bad faultCode")))?;
            let message = fault
                .member("faultString")
                .and_then(Value::as_str)
                .unwrap_or_default();
            Err(Fault::new(code, message))
        } else {
            return Err(RpcError::Codec(format!(
                "batch result #{i} carries neither 'value' nor 'fault'"
            )));
        };
        out.push((node.to_string(), outcome));
    }
    Ok(out)
}

/// Builds the server side of a sub-master relay: a registry whose single
/// [`BATCH_METHOD`] endpoint forwards each entry to the owning child
/// registry with the entry's own `__idem` key attached, so per-node dedup
/// behaves exactly as if the master had called the node directly.
pub fn relay_registry(children: Vec<(String, Arc<Mutex<ServerRegistry>>)>) -> ServerRegistry {
    let mut registry = ServerRegistry::new();
    registry.register(BATCH_METHOD, move |params: &[Value]| {
        let entries = unpack_entries(params)?;
        let mut results = Vec::with_capacity(entries.len());
        for entry in entries {
            let outcome = match children.iter().find(|(id, _)| *id == entry.node_id) {
                None => Err(Fault::new(
                    FAULT_NO_SUCH_METHOD,
                    format!("relay has no NodeManager '{}'", entry.node_id),
                )),
                Some((_, child)) => {
                    let mut call_params = entry.params.clone();
                    call_params.push(Value::Struct(vec![(
                        IDEMPOTENCY_MEMBER.into(),
                        Value::str(entry.idem_key.clone()),
                    )]));
                    let call = MethodCall::new(entry.method.clone(), call_params);
                    child.lock().dispatch(&call).into_result()
                }
            };
            results.push((entry.node_id, outcome));
        }
        Ok(pack_batch_response(&results))
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn entries() -> Vec<BatchEntry> {
        vec![
            BatchEntry {
                node_id: "p0".into(),
                method: "run_init".into(),
                params: vec![Value::Int(7), Value::str("x")],
                idem_key: "0:0:1".into(),
            },
            BatchEntry {
                node_id: "p1".into(),
                method: "run_init".into(),
                params: vec![],
                idem_key: "0:0:2".into(),
            },
        ]
    }

    #[test]
    fn pack_unpack_is_the_identity() {
        let want = entries();
        let call = pack_batch(&want);
        assert_eq!(call.method, BATCH_METHOD);
        assert_eq!(unpack_batch(&call).unwrap(), want);
        // And survives the actual wire format.
        let rewired = MethodCall::from_xml(&call.to_xml()).unwrap();
        assert_eq!(unpack_batch(&rewired).unwrap(), want);
    }

    #[test]
    fn non_batch_calls_and_malformed_entries_are_rejected() {
        let stray = MethodCall::new("run_init", vec![]);
        assert_eq!(unpack_batch(&stray).unwrap_err().code, FAULT_PARSE_ERROR);
        let bad = MethodCall::new(BATCH_METHOD, vec![Value::Int(3)]);
        assert_eq!(unpack_batch(&bad).unwrap_err().code, FAULT_PARSE_ERROR);
    }

    #[test]
    fn batch_response_roundtrips_values_and_faults() {
        let results = vec![
            ("p0".to_string(), Ok(Value::Bool(true))),
            ("p1".to_string(), Err(Fault::new(-3, "boom"))),
        ];
        let packed = pack_batch_response(&results);
        assert_eq!(unpack_batch_response(&packed).unwrap(), results);
        assert!(unpack_batch_response(&Value::Int(1)).is_err());
    }

    fn counting_child(count: Arc<AtomicU64>) -> Arc<Mutex<ServerRegistry>> {
        let mut reg = ServerRegistry::new();
        reg.register("run_init", move |params: &[Value]| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Int(params.len() as i32))
        });
        Arc::new(Mutex::new(reg))
    }

    #[test]
    fn relay_forwards_with_per_node_dedup() {
        let c0 = Arc::new(AtomicU64::new(0));
        let c1 = Arc::new(AtomicU64::new(0));
        let mut relay = relay_registry(vec![
            ("p0".into(), counting_child(Arc::clone(&c0))),
            ("p1".into(), counting_child(Arc::clone(&c1))),
        ]);
        let call = pack_batch(&entries());
        let first = relay.dispatch(&call).into_result().unwrap();
        // A retried batch with the same keys replays; handlers ran once.
        let second = relay.dispatch(&call).into_result().unwrap();
        assert_eq!(first, second);
        assert_eq!(c0.load(Ordering::Relaxed), 1);
        assert_eq!(c1.load(Ordering::Relaxed), 1);
        let results = unpack_batch_response(&first).unwrap();
        assert_eq!(results[0], ("p0".to_string(), Ok(Value::Int(2))));
        assert_eq!(results[1], ("p1".to_string(), Ok(Value::Int(0))));
    }

    #[test]
    fn unknown_nodes_fault_per_entry_without_failing_the_batch() {
        let c0 = Arc::new(AtomicU64::new(0));
        let mut relay = relay_registry(vec![("p0".into(), counting_child(c0))]);
        let mut batch = entries();
        batch[1].node_id = "ghost".into();
        let response = relay.dispatch(&pack_batch(&batch)).into_result().unwrap();
        let results = unpack_batch_response(&response).unwrap();
        assert!(results[0].1.is_ok());
        let fault = results[1].1.as_ref().unwrap_err();
        assert_eq!(fault.code, FAULT_NO_SUCH_METHOD);
        assert!(fault.message.contains("ghost"));
    }
}
