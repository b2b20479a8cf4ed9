//! Property tests for the framed-TCP codec and the `job.*` codecs:
//! arbitrary payloads survive the length-prefixed wire (including split
//! and partial reads), oversized frames are rejected at the 16 MiB cap,
//! and every job pack/unpack pair is an inverse. Runs fully offline.

use excovery_rpc::tcp::{read_frame, write_frame, MAX_FRAME_BYTES};
use excovery_rpc::{MethodCall, Value};
use proptest::prelude::*;
use std::io::{Cursor, Read};

/// A reader that hands out at most `chunk` bytes per `read` call — the
/// shape of a socket delivering a frame in arbitrary fragments.
struct Trickle<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..cap])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any payload sequence round-trips frame for frame, ending in a
    /// clean EOF at the frame boundary.
    #[test]
    fn frames_roundtrip(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..512), 1..5)
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), p);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Fragmented delivery — down to one byte per read — never corrupts
    /// a frame; `read_frame` reassembles exactly what was written.
    #[test]
    fn split_and_partial_reads_reassemble(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..17,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut trickle = Trickle { inner: Cursor::new(buf), chunk };
        prop_assert_eq!(read_frame(&mut trickle).unwrap().unwrap(), payload);
        prop_assert!(read_frame(&mut trickle).unwrap().is_none());
    }

    /// A length prefix above the cap is rejected before any allocation,
    /// whatever follows the header.
    #[test]
    fn oversized_lengths_are_rejected_at_the_cap(
        excess in 1u32..1024,
        trailer in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut buf = (MAX_FRAME_BYTES + excess).to_be_bytes().to_vec();
        buf.extend_from_slice(&trailer);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("exceeds"), "{}", err);
    }

    /// Truncating a written frame anywhere inside the payload surfaces as
    /// an error (or, cut inside the header, as clean EOF) — never a
    /// short, silently-wrong payload.
    #[test]
    fn truncated_frames_never_yield_wrong_payloads(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = (buf.len() as f64 * cut_frac) as usize;
        let mut cursor = Cursor::new(buf[..cut].to_vec());
        match read_frame(&mut cursor) {
            Ok(Some(got)) => prop_assert_eq!(got, payload),
            Ok(None) => prop_assert!(cut < 4, "EOF only inside the header"),
            Err(_) => prop_assert!(cut >= 4, "errors only inside the payload"),
        }
    }
}

// ---- job.* codec properties ------------------------------------------------

use excovery_rpc::{
    pack_frame, pack_plan, pack_results_page, pack_status, pack_status_list, pack_submit,
    pack_submit_response, unpack_frame, unpack_plan, unpack_results_page, unpack_status,
    unpack_status_list, unpack_submit, unpack_submit_response, AggOp, AggSpec, CellValue, Channel,
    ExprSpec, FilterOp, JobState, JobStatus, PlanSpec, ResultsPage, ServerRegistry, SubmitRequest,
    WireFrame, JOB_SUBMIT,
};

/// Re-serializes a value through the actual XML wire format.
fn through_xml(v: &Value) -> Value {
    let call = MethodCall::new("x", vec![v.clone()]);
    let rewired = MethodCall::from_xml(&call.to_xml()).unwrap();
    rewired.params.into_iter().next().unwrap()
}

fn job_state_strategy() -> impl Strategy<Value = JobState> {
    prop_oneof![
        Just(JobState::Queued),
        Just(JobState::Running),
        Just(JobState::Completed),
        Just(JobState::Failed),
    ]
}

fn status_strategy() -> impl Strategy<Value = JobStatus> {
    (
        (any::<u64>(), "[a-z]{1,8}", "[ -~]{0,16}", "[a-z_]{1,12}"),
        (
            job_state_strategy(),
            any::<u64>(),
            any::<u64>(),
            prop::option::of(any::<u64>()),
            prop::option::of("[ -~]{0,24}"),
        ),
    )
        .prop_map(
            |(
                (job_id, tenant, name, preset),
                (state, runs_total, runs_completed, digest, error),
            )| {
                JobStatus {
                    job_id,
                    tenant,
                    name,
                    preset,
                    state,
                    runs_total,
                    runs_completed,
                    digest,
                    error,
                }
            },
        )
}

fn cell_strategy() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        Just(CellValue::Null),
        any::<i64>().prop_map(CellValue::I64),
        (-1e9f64..1e9).prop_map(CellValue::F64),
        "[ -~]{0,12}".prop_map(CellValue::Str),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(CellValue::Bytes),
    ]
}

fn frame_strategy() -> impl Strategy<Value = WireFrame> {
    (1usize..4).prop_flat_map(|width| {
        (
            prop::collection::vec("[a-z]{1,6}", width..width + 1),
            prop::collection::vec(
                prop::collection::vec(cell_strategy(), width..width + 1),
                0..4,
            ),
        )
            .prop_map(|(columns, rows)| WireFrame { columns, rows })
    })
}

fn cmp_op_strategy() -> impl Strategy<Value = FilterOp> {
    prop_oneof![
        Just(FilterOp::Eq),
        Just(FilterOp::Ne),
        Just(FilterOp::Lt),
        Just(FilterOp::Le),
        Just(FilterOp::Gt),
        Just(FilterOp::Ge),
    ]
}

/// Arbitrary predicate trees: comparison leaves composed with
/// `and`/`or`/`not` up to a few levels deep.
fn expr_strategy() -> impl Strategy<Value = ExprSpec> {
    let leaf = ("[A-Za-z]{1,8}", cmp_op_strategy(), cell_strategy())
        .prop_map(|(column, op, value)| ExprSpec::Cmp { column, op, value });
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(ExprSpec::not),
        ]
    })
}

fn agg_strategy() -> impl Strategy<Value = AggSpec> {
    let plain = (
        prop_oneof![
            Just(AggOp::Count),
            Just(AggOp::Sum),
            Just(AggOp::Mean),
            Just(AggOp::Min),
            Just(AggOp::Max),
        ],
        prop::option::of("[A-Za-z]{1,8}"),
        prop::option::of("[a-z]{1,8}"),
    )
        .prop_map(|(op, column, name)| AggSpec {
            op,
            column,
            name,
            q: None,
        });
    let quantile = (
        prop::option::of("[A-Za-z]{1,8}"),
        prop::option::of("[a-z]{1,8}"),
        0.0f64..1.0,
    )
        .prop_map(|(column, name, q)| AggSpec {
            op: AggOp::Quantile,
            column,
            name,
            q: Some(q),
        });
    prop_oneof![4 => plain, 1 => quantile]
}

fn plan_strategy() -> impl Strategy<Value = PlanSpec> {
    (
        "[A-Za-z]{1,10}",
        prop::option::of(expr_strategy()),
        prop::collection::vec("[A-Za-z]{1,6}", 0..3),
        prop::collection::vec(agg_strategy(), 0..3),
        prop::collection::vec("[A-Za-z]{1,6}", 0..3),
        prop::option::of("[A-Za-z]{1,6}"),
    )
        .prop_map(
            |(table, predicate, group_by, aggs, select, sort_by)| PlanSpec {
                table,
                predicate,
                group_by,
                aggs,
                select,
                sort_by,
            },
        )
}

fn submit_strategy() -> impl Strategy<Value = SubmitRequest> {
    ("[a-z]{1,8}", "[a-z_]{1,12}", "[ -~]{0,48}", "[ -~]{1,24}").prop_map(
        |(tenant, preset, description_xml, submit_key)| SubmitRequest {
            tenant,
            preset,
            description_xml,
            submit_key,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `unpack_submit` is the left inverse of `pack_submit` through the
    /// real XML wire format.
    #[test]
    fn submit_pack_unpack_inverse(req in submit_strategy()) {
        let call = pack_submit(&req);
        prop_assert_eq!(unpack_submit(&call).unwrap(), req.clone());
        let rewired = MethodCall::from_xml(&call.to_xml()).unwrap();
        prop_assert_eq!(unpack_submit(&rewired).unwrap(), req);
    }

    /// Submit responses round-trip, including ids above `i32` (they
    /// travel as decimal strings, not XML-RPC ints).
    #[test]
    fn submit_response_pack_unpack_inverse(job_id in any::<u64>(), created in any::<bool>()) {
        let v = through_xml(&pack_submit_response(job_id, created));
        prop_assert_eq!(unpack_submit_response(&v).unwrap(), (job_id, created));
    }

    /// `unpack_status` is the left inverse of `pack_status` through XML,
    /// for every state and optional member combination.
    #[test]
    fn status_pack_unpack_inverse(status in status_strategy()) {
        let v = through_xml(&pack_status(&status));
        prop_assert_eq!(unpack_status(&v).unwrap(), status);
    }

    /// Status listings round-trip element for element, order preserved.
    #[test]
    fn status_list_pack_unpack_inverse(list in prop::collection::vec(status_strategy(), 0..4)) {
        let v = through_xml(&pack_status_list(&list));
        prop_assert_eq!(unpack_status_list(&v).unwrap(), list);
    }

    /// Results pages (status, byte range, binary chunk) round-trip; the
    /// chunk rides Base64 and must come back byte-identical, and the
    /// range fields survive as full-width u64 decimal strings.
    #[test]
    fn results_page_pack_unpack_inverse(
        status in status_strategy(),
        chunk in prop::collection::vec(any::<u8>(), 0..256),
        total in any::<u64>(),
        offset in any::<u64>(),
    ) {
        let r = ResultsPage { status, total, offset, chunk };
        let v = through_xml(&pack_results_page(&r));
        prop_assert_eq!(unpack_results_page(&v).unwrap(), r);
    }

    /// Query frames round-trip cell for cell through XML — including
    /// finite doubles, which use the shortest-roundtrip format.
    #[test]
    fn frame_pack_unpack_inverse(frame in frame_strategy()) {
        let v = through_xml(&pack_frame(&frame));
        prop_assert_eq!(unpack_frame(&v).unwrap(), frame);
    }

    /// Query plans round-trip through XML for every operator, optional
    /// filter and aggregate shape.
    #[test]
    fn plan_pack_unpack_inverse(plan in plan_strategy()) {
        let v = through_xml(&pack_plan(&plan));
        prop_assert_eq!(unpack_plan(&v).unwrap(), plan);
    }

    /// End-to-end dedup property: against a real registry behind the
    /// XML channel, any submission sequence yields one JobId per
    /// distinct (tenant, submit_key), `created` exactly on its first
    /// occurrence, and repeats always return the original id.
    #[test]
    fn resubmission_with_the_same_key_returns_the_original_job_id(
        requests in prop::collection::vec(
            (
                "[ab]",          // few tenants → frequent collisions
                "[a-c]{1}",      // few keys → frequent collisions
                "[ -~]{0,16}",
            ),
            1..12,
        )
    ) {
        let mut registry = ServerRegistry::new();
        {
            use std::collections::BTreeMap;
            let mut assigned: BTreeMap<(String, String), u64> = BTreeMap::new();
            let mut next_id = 1u64;
            registry.register(JOB_SUBMIT, move |params| {
                let call = MethodCall::new(JOB_SUBMIT, params.to_vec());
                let req = unpack_submit(&call)?;
                let slot = (req.tenant.clone(), req.submit_key.clone());
                let (id, created) = match assigned.get(&slot) {
                    Some(&id) => (id, false),
                    None => {
                        let id = next_id;
                        next_id += 1;
                        assigned.insert(slot, id);
                        (id, true)
                    }
                };
                Ok(pack_submit_response(id, created))
            });
        }
        let channel = Channel::new(registry);
        let mut expected: std::collections::BTreeMap<(String, String), u64> =
            std::collections::BTreeMap::new();
        for (tenant, key, xml) in requests {
            let req = SubmitRequest {
                tenant: tenant.clone(),
                preset: "grid_default".into(),
                description_xml: xml,
                submit_key: key.clone(),
            };
            let v = channel.call(JOB_SUBMIT, pack_submit(&req).params).unwrap();
            let (id, created) = unpack_submit_response(&v).unwrap();
            match expected.get(&(tenant.clone(), key.clone())) {
                Some(&original) => {
                    prop_assert_eq!(id, original, "repeat must return the original id");
                    prop_assert!(!created);
                }
                None => {
                    prop_assert!(created, "first occurrence must create");
                    expected.insert((tenant, key), id);
                }
            }
        }
    }
}
