//! Wire schemas for the experiment server: the `job.*` and `query.*`
//! method families.
//!
//! The server (`excovery-server`) accepts XML experiment descriptions
//! over the framed rpc protocol, queues them in its L4 repository and
//! answers remote-analysis queries against completed campaigns. This
//! module owns the request/response *codecs* only — typed structs with
//! `pack_*`/`unpack_*` inverses through [`Value`] — so client, server
//! and the property suite share one wire vocabulary without the rpc
//! crate learning anything about campaign execution.
//!
//! Numeric fields that may exceed `i32` (job ids, run counts, digests)
//! travel as decimal strings: XML-RPC's `<int>` is 32-bit, and the
//! precedent is the engine's `measure_sync` response (`offset_ns` as a
//! string).
//!
//! Submission is idempotent at two layers. The transport layer attaches
//! a `__idem` key per call ([`crate::transport::IDEMPOTENCY_MEMBER`]),
//! deduplicating retries of one client incarnation in the server's
//! bounded in-memory cache. The application layer carries a durable
//! `submit_key` inside [`SubmitRequest`]: the server journals it with
//! the job, so re-submitting the same key — from a new connection, after
//! a server restart, any time — returns the original [`JobId`] instead
//! of enqueuing a duplicate campaign.

use crate::error::{RpcError, FAULT_PARSE_ERROR};
use crate::message::{Fault, MethodCall};
use crate::value::Value;

/// Monotonic identifier the server assigns to an accepted submission.
pub type JobId = u64;

/// Wire name: submit an experiment description, returns the job id.
pub const JOB_SUBMIT: &str = "job.submit";
/// Wire name: status of one job (`job_id` as a decimal-string param).
pub const JOB_STATUS: &str = "job.status";
/// Wire name: status of every job in the repository.
pub const JOB_LIST: &str = "job.list";
/// Wire name: results of a completed job (status + packaged database).
pub const JOB_RESULTS: &str = "job.results";
/// Wire name: table names of a completed job's warehouse.
pub const QUERY_TABLES: &str = "query.tables";
/// Wire name: run a [`PlanSpec`] against a completed job's warehouse.
pub const QUERY_RUN: &str = "query.run";

fn parse_fault(what: impl std::fmt::Display) -> Fault {
    Fault::new(FAULT_PARSE_ERROR, what.to_string())
}

fn str_member(v: &Value, name: &str, ctx: &str) -> Result<String, Fault> {
    v.member(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| parse_fault(format!("{ctx}: missing string member '{name}'")))
}

fn u64_member(v: &Value, name: &str, ctx: &str) -> Result<u64, Fault> {
    str_member(v, name, ctx)?
        .parse()
        .map_err(|_| parse_fault(format!("{ctx}: member '{name}' is not a u64 string")))
}

// ---- job.submit ------------------------------------------------------------

/// A campaign submission: who is asking, which engine preset to run the
/// description on, the description itself, and the durable idempotency
/// key that makes re-submission return the original job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Tenant name — the fair-share scheduling unit.
    pub tenant: String,
    /// Engine preset name (`grid_default`, `wired_lan`, `lossy_mesh`).
    pub preset: String,
    /// The experiment description as XML (level-1 artifact).
    pub description_xml: String,
    /// Durable dedup key: equal keys resolve to the same [`JobId`].
    pub submit_key: String,
}

/// Packs a submission into a [`JOB_SUBMIT`] call (one struct parameter).
pub fn pack_submit(req: &SubmitRequest) -> MethodCall {
    MethodCall::new(
        JOB_SUBMIT,
        vec![Value::Struct(vec![
            ("tenant".into(), Value::str(req.tenant.clone())),
            ("preset".into(), Value::str(req.preset.clone())),
            (
                "description".into(),
                Value::str(req.description_xml.clone()),
            ),
            ("submit_key".into(), Value::str(req.submit_key.clone())),
        ])],
    )
}

/// Inverse of [`pack_submit`]; malformed shapes fault with
/// [`FAULT_PARSE_ERROR`].
pub fn unpack_submit(call: &MethodCall) -> Result<SubmitRequest, Fault> {
    if call.method != JOB_SUBMIT {
        return Err(parse_fault(format!(
            "'{}' is not a {JOB_SUBMIT} call",
            call.method
        )));
    }
    let arg = call
        .params
        .first()
        .ok_or_else(|| parse_fault("job.submit: missing request struct"))?;
    Ok(SubmitRequest {
        tenant: str_member(arg, "tenant", "job.submit")?,
        preset: str_member(arg, "preset", "job.submit")?,
        description_xml: str_member(arg, "description", "job.submit")?,
        submit_key: str_member(arg, "submit_key", "job.submit")?,
    })
}

/// Encodes the [`JOB_SUBMIT`] response: the assigned (or deduplicated)
/// job id plus whether this submission created a new job.
pub fn pack_submit_response(job_id: JobId, created: bool) -> Value {
    Value::Struct(vec![
        ("job_id".into(), Value::str(job_id.to_string())),
        ("created".into(), Value::Bool(created)),
    ])
}

/// Inverse of [`pack_submit_response`].
pub fn unpack_submit_response(v: &Value) -> Result<(JobId, bool), RpcError> {
    let job_id =
        u64_member(v, "job_id", "job.submit response").map_err(|f| RpcError::Codec(f.message))?;
    let created = v
        .member("created")
        .and_then(Value::as_bool)
        .ok_or_else(|| RpcError::Codec("job.submit response: missing bool 'created'".into()))?;
    Ok((job_id, created))
}

// ---- job.status / job.list -------------------------------------------------

/// Lifecycle state of a queued campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Journalled, no run executed yet.
    Queued,
    /// At least one scheduler slice has executed.
    Running,
    /// All runs complete and the level-3 package written.
    Completed,
    /// Execution surfaced an engine error (recorded in `error`).
    Failed,
}

impl JobState {
    /// Canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One job's status as reported by [`JOB_STATUS`] / [`JOB_LIST`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The server-assigned id.
    pub job_id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Experiment name from the description.
    pub name: String,
    /// Engine preset the campaign runs on.
    pub preset: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Total runs in the campaign's plan.
    pub runs_total: u64,
    /// Runs the level-2 journal confirms as sealed.
    pub runs_completed: u64,
    /// `ExperimentOutcome::digest()` once completed.
    pub digest: Option<u64>,
    /// Engine error message if the job failed.
    pub error: Option<String>,
}

/// Encodes one [`JobStatus`] as a wire struct.
pub fn pack_status(s: &JobStatus) -> Value {
    let mut members = vec![
        ("job_id".into(), Value::str(s.job_id.to_string())),
        ("tenant".into(), Value::str(s.tenant.clone())),
        ("name".into(), Value::str(s.name.clone())),
        ("preset".into(), Value::str(s.preset.clone())),
        ("state".into(), Value::str(s.state.as_str())),
        ("runs_total".into(), Value::str(s.runs_total.to_string())),
        (
            "runs_completed".into(),
            Value::str(s.runs_completed.to_string()),
        ),
    ];
    if let Some(d) = s.digest {
        members.push(("digest".into(), Value::str(d.to_string())));
    }
    if let Some(e) = &s.error {
        members.push(("error".into(), Value::str(e.clone())));
    }
    Value::Struct(members)
}

/// Inverse of [`pack_status`].
pub fn unpack_status(v: &Value) -> Result<JobStatus, RpcError> {
    let codec = |f: Fault| RpcError::Codec(f.message);
    let state_str = str_member(v, "state", "job status").map_err(codec)?;
    let state = JobState::parse(&state_str)
        .ok_or_else(|| RpcError::Codec(format!("job status: unknown state '{state_str}'")))?;
    let digest = match v.member("digest") {
        None => None,
        Some(_) => Some(u64_member(v, "digest", "job status").map_err(codec)?),
    };
    Ok(JobStatus {
        job_id: u64_member(v, "job_id", "job status").map_err(codec)?,
        tenant: str_member(v, "tenant", "job status").map_err(codec)?,
        name: str_member(v, "name", "job status").map_err(codec)?,
        preset: str_member(v, "preset", "job status").map_err(codec)?,
        state,
        runs_total: u64_member(v, "runs_total", "job status").map_err(codec)?,
        runs_completed: u64_member(v, "runs_completed", "job status").map_err(codec)?,
        digest,
        error: v
            .member("error")
            .and_then(Value::as_str)
            .map(str::to_string),
    })
}

/// Encodes the [`JOB_LIST`] response: statuses in ascending job-id order.
pub fn pack_status_list(list: &[JobStatus]) -> Value {
    Value::Array(list.iter().map(pack_status).collect())
}

/// Inverse of [`pack_status_list`].
pub fn unpack_status_list(v: &Value) -> Result<Vec<JobStatus>, RpcError> {
    v.as_array()
        .ok_or_else(|| RpcError::Codec("job.list response is not an array".into()))?
        .iter()
        .map(unpack_status)
        .collect()
}

// ---- job.results -----------------------------------------------------------

/// Results of a completed campaign: final status plus the packaged
/// level-3 database (`.expdb` bytes) for local analysis. This is the
/// client-side assembly of one or more [`ResultsPage`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResults {
    /// Final status (state [`JobState::Completed`], digest set).
    pub status: JobStatus,
    /// The serialized level-3 package.
    pub package: Vec<u8>,
}

/// Default page size for [`JOB_RESULTS`] downloads. Real packages run
/// to tens of megabytes, and the frame codec rejects frames above
/// [`crate::tcp::MAX_FRAME_BYTES`] (16 MiB) — so the package ships in pages.
/// 8 MiB of payload is ~10.7 MiB after Base64, comfortably under the
/// cap with the XML envelope around it.
pub const RESULTS_PAGE_BYTES: u64 = 8 * 1024 * 1024;

/// One page of a [`JOB_RESULTS`] download: a byte range of the package
/// plus the total size, so the client knows when it has the whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsPage {
    /// Final status (state [`JobState::Completed`], digest set).
    pub status: JobStatus,
    /// Total package size in bytes.
    pub total: u64,
    /// Byte offset of this page within the package.
    pub offset: u64,
    /// The page payload (`total - offset` capped at the server's page
    /// size; empty only when the package itself is empty).
    pub chunk: Vec<u8>,
}

/// Encodes a [`JOB_RESULTS`] response page.
pub fn pack_results_page(p: &ResultsPage) -> Value {
    Value::Struct(vec![
        ("status".into(), pack_status(&p.status)),
        ("total".into(), Value::str(p.total.to_string())),
        ("offset".into(), Value::str(p.offset.to_string())),
        ("chunk".into(), Value::Base64(p.chunk.clone())),
    ])
}

/// Inverse of [`pack_results_page`].
pub fn unpack_results_page(v: &Value) -> Result<ResultsPage, RpcError> {
    let codec = |f: Fault| RpcError::Codec(f.message);
    let status = v
        .member("status")
        .ok_or_else(|| RpcError::Codec("job.results response: missing 'status'".into()))?;
    let chunk = match v.member("chunk") {
        Some(Value::Base64(b)) => b.clone(),
        _ => {
            return Err(RpcError::Codec(
                "job.results response: missing 'chunk'".into(),
            ))
        }
    };
    Ok(ResultsPage {
        status: unpack_status(status)?,
        total: u64_member(v, "total", "job.results response").map_err(codec)?,
        offset: u64_member(v, "offset", "job.results response").map_err(codec)?,
        chunk,
    })
}

// ---- query.* ---------------------------------------------------------------

/// One cell of a remote query result — the wire mirror of the query
/// crate's column value (the rpc crate stays analysis-agnostic).
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// SQL NULL.
    Null,
    /// 64-bit integer (as a decimal string on the wire).
    I64(i64),
    /// Double-precision float.
    F64(f64),
    /// Interned string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

fn pack_cell(c: &CellValue) -> Value {
    match c {
        CellValue::Null => Value::Struct(vec![("t".into(), Value::str("n"))]),
        CellValue::I64(i) => Value::Struct(vec![
            ("t".into(), Value::str("i")),
            ("v".into(), Value::str(i.to_string())),
        ]),
        CellValue::F64(f) => Value::Struct(vec![
            ("t".into(), Value::str("f")),
            ("v".into(), Value::Double(*f)),
        ]),
        CellValue::Str(s) => Value::Struct(vec![
            ("t".into(), Value::str("s")),
            ("v".into(), Value::str(s.clone())),
        ]),
        CellValue::Bytes(b) => Value::Struct(vec![
            ("t".into(), Value::str("b")),
            ("v".into(), Value::Base64(b.clone())),
        ]),
    }
}

fn unpack_cell(v: &Value) -> Result<CellValue, RpcError> {
    let bad = |what: &str| RpcError::Codec(format!("frame cell: {what}"));
    let tag = v
        .member("t")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing tag 't'"))?;
    match tag {
        "n" => Ok(CellValue::Null),
        "i" => v
            .member("v")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .map(CellValue::I64)
            .ok_or_else(|| bad("bad i64 payload")),
        "f" => match v.member("v") {
            Some(Value::Double(f)) => Ok(CellValue::F64(*f)),
            _ => Err(bad("bad f64 payload")),
        },
        "s" => v
            .member("v")
            .and_then(Value::as_str)
            .map(|s| CellValue::Str(s.to_string()))
            .ok_or_else(|| bad("bad string payload")),
        "b" => match v.member("v") {
            Some(Value::Base64(b)) => Ok(CellValue::Bytes(b.clone())),
            _ => Err(bad("bad bytes payload")),
        },
        other => Err(bad(&format!("unknown tag '{other}'"))),
    }
}

/// A query result as shipped over the wire: column names plus row-major
/// cells, the transport twin of the query crate's `Frame`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireFrame {
    /// Column names in output order.
    pub columns: Vec<String>,
    /// Row-major cells; every row has `columns.len()` entries.
    pub rows: Vec<Vec<CellValue>>,
}

/// Encodes a [`WireFrame`] as the [`QUERY_RUN`] response value.
pub fn pack_frame(f: &WireFrame) -> Value {
    Value::Struct(vec![
        (
            "columns".into(),
            Value::Array(f.columns.iter().map(Value::str).collect()),
        ),
        (
            "rows".into(),
            Value::Array(
                f.rows
                    .iter()
                    .map(|r| Value::Array(r.iter().map(pack_cell).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`pack_frame`].
pub fn unpack_frame(v: &Value) -> Result<WireFrame, RpcError> {
    let columns = v
        .member("columns")
        .and_then(Value::as_array)
        .ok_or_else(|| RpcError::Codec("frame: missing 'columns' array".into()))?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| RpcError::Codec("frame: non-string column name".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rows = v
        .member("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| RpcError::Codec("frame: missing 'rows' array".into()))?
        .iter()
        .map(|r| {
            r.as_array()
                .ok_or_else(|| RpcError::Codec("frame: row is not an array".into()))?
                .iter()
                .map(unpack_cell)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WireFrame { columns, rows })
}

/// Comparison operator of a remote filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl FilterOp {
    /// Canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FilterOp::Eq => "eq",
            FilterOp::Ne => "ne",
            FilterOp::Lt => "lt",
            FilterOp::Le => "le",
            FilterOp::Gt => "gt",
            FilterOp::Ge => "ge",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "eq" => Some(FilterOp::Eq),
            "ne" => Some(FilterOp::Ne),
            "lt" => Some(FilterOp::Lt),
            "le" => Some(FilterOp::Le),
            "gt" => Some(FilterOp::Gt),
            "ge" => Some(FilterOp::Ge),
            _ => None,
        }
    }
}

/// A serializable filter predicate: comparisons composed with boolean
/// connectives, the wire twin of the query crate's `Expr` tree. SQL
/// three-valued NULL semantics are the executor's business; the wire
/// form just names columns, operators and literals.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprSpec {
    /// `column <op> literal`.
    Cmp {
        /// Column the comparison reads.
        column: String,
        /// Comparison operator.
        op: FilterOp,
        /// Literal to compare against.
        value: CellValue,
    },
    /// Both sides must hold.
    And(Box<ExprSpec>, Box<ExprSpec>),
    /// Either side must hold.
    Or(Box<ExprSpec>, Box<ExprSpec>),
    /// The inner predicate must not hold.
    Not(Box<ExprSpec>),
}

impl ExprSpec {
    /// A `column <op> literal` leaf.
    pub fn cmp(column: impl Into<String>, op: FilterOp, value: CellValue) -> Self {
        ExprSpec::Cmp {
            column: column.into(),
            op,
            value,
        }
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: ExprSpec) -> Self {
        ExprSpec::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: ExprSpec) -> Self {
        ExprSpec::Or(Box::new(self), Box::new(rhs))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        ExprSpec::Not(Box::new(self))
    }
}

/// Depth cap for predicate trees on the wire: deep enough for any plan a
/// builder chain produces, shallow enough that recursive decoding of a
/// hostile frame cannot exhaust the stack.
pub const MAX_EXPR_DEPTH: usize = 64;

fn pack_expr(e: &ExprSpec) -> Value {
    match e {
        ExprSpec::Cmp { column, op, value } => Value::Struct(vec![
            ("t".into(), Value::str("cmp")),
            ("column".into(), Value::str(column.clone())),
            ("op".into(), Value::str(op.as_str())),
            ("value".into(), pack_cell(value)),
        ]),
        ExprSpec::And(a, b) => Value::Struct(vec![
            ("t".into(), Value::str("and")),
            ("lhs".into(), pack_expr(a)),
            ("rhs".into(), pack_expr(b)),
        ]),
        ExprSpec::Or(a, b) => Value::Struct(vec![
            ("t".into(), Value::str("or")),
            ("lhs".into(), pack_expr(a)),
            ("rhs".into(), pack_expr(b)),
        ]),
        ExprSpec::Not(a) => Value::Struct(vec![
            ("t".into(), Value::str("not")),
            ("arg".into(), pack_expr(a)),
        ]),
    }
}

fn unpack_expr(v: &Value, depth: usize) -> Result<ExprSpec, Fault> {
    let ctx = "query predicate";
    if depth > MAX_EXPR_DEPTH {
        return Err(parse_fault(format!(
            "{ctx}: tree deeper than {MAX_EXPR_DEPTH}"
        )));
    }
    let branch = |name: &str| -> Result<Box<ExprSpec>, Fault> {
        let inner = v
            .member(name)
            .ok_or_else(|| parse_fault(format!("{ctx}: missing member '{name}'")))?;
        Ok(Box::new(unpack_expr(inner, depth + 1)?))
    };
    let tag = str_member(v, "t", ctx)?;
    match tag.as_str() {
        "cmp" => {
            let op_str = str_member(v, "op", ctx)?;
            Ok(ExprSpec::Cmp {
                column: str_member(v, "column", ctx)?,
                op: FilterOp::parse(&op_str)
                    .ok_or_else(|| parse_fault(format!("{ctx}: unknown op '{op_str}'")))?,
                value: unpack_cell(
                    v.member("value")
                        .ok_or_else(|| parse_fault(format!("{ctx}: cmp without value")))?,
                )
                .map_err(parse_fault)?,
            })
        }
        "and" => Ok(ExprSpec::And(branch("lhs")?, branch("rhs")?)),
        "or" => Ok(ExprSpec::Or(branch("lhs")?, branch("rhs")?)),
        "not" => Ok(ExprSpec::Not(branch("arg")?)),
        other => Err(parse_fault(format!("{ctx}: unknown node tag '{other}'"))),
    }
}

/// Aggregate operator of a remote plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Row count (needs no input column).
    Count,
    /// Sum of an input column.
    Sum,
    /// Arithmetic mean of an input column.
    Mean,
    /// Minimum of an input column.
    Min,
    /// Maximum of an input column.
    Max,
    /// Approximate quantile of an input column; the quantile rank rides
    /// in [`AggSpec::q`].
    Quantile,
}

impl AggOp {
    /// Canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Mean => "mean",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Quantile => "quantile",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "count" => Some(AggOp::Count),
            "sum" => Some(AggOp::Sum),
            "mean" => Some(AggOp::Mean),
            "min" => Some(AggOp::Min),
            "max" => Some(AggOp::Max),
            "quantile" => Some(AggOp::Quantile),
            _ => None,
        }
    }
}

/// One aggregate of a remote plan: operator, optional input column
/// ([`AggOp::Count`] takes none), optional output name, and the
/// quantile rank for [`AggOp::Quantile`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate operator.
    pub op: AggOp,
    /// Input column; required for everything but [`AggOp::Count`].
    pub column: Option<String>,
    /// Output column name override.
    pub name: Option<String>,
    /// Quantile rank in `[0, 1]`; required for (and only meaningful
    /// with) [`AggOp::Quantile`].
    pub q: Option<f64>,
}

/// The one serializable logical-plan type: local `Scan` builder chains
/// lower into it (`Scan::to_spec`), the server executes it
/// (`Dataset::run_spec`), and standing queries refresh from it — a
/// single plan vocabulary end-to-end instead of parallel local/remote
/// dialects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSpec {
    /// Table to scan.
    pub table: String,
    /// Optional filter predicate tree.
    pub predicate: Option<ExprSpec>,
    /// Group-by key columns.
    pub group_by: Vec<String>,
    /// Aggregates over the groups (or the whole table).
    pub aggs: Vec<AggSpec>,
    /// Output projection (empty = plan default).
    pub select: Vec<String>,
    /// Output sort column.
    pub sort_by: Option<String>,
}

/// Encodes a [`PlanSpec`] as the [`QUERY_RUN`] plan parameter.
///
/// A single-comparison predicate is emitted as the legacy flat `filter`
/// member (readable by pre-tree servers); anything deeper ships as the
/// `where` tree. [`unpack_plan`] accepts both, so either shape
/// round-trips to the same [`PlanSpec`].
pub fn pack_plan(p: &PlanSpec) -> Value {
    let mut members = vec![("table".into(), Value::str(p.table.clone()))];
    match &p.predicate {
        None => {}
        Some(ExprSpec::Cmp { column, op, value }) => members.push((
            "filter".into(),
            Value::Struct(vec![
                ("column".into(), Value::str(column.clone())),
                ("op".into(), Value::str(op.as_str())),
                ("value".into(), pack_cell(value)),
            ]),
        )),
        Some(tree) => members.push(("where".into(), pack_expr(tree))),
    }
    members.push((
        "group_by".into(),
        Value::Array(p.group_by.iter().map(Value::str).collect()),
    ));
    members.push((
        "aggs".into(),
        Value::Array(
            p.aggs
                .iter()
                .map(|a| {
                    let mut m = vec![("op".into(), Value::str(a.op.as_str()))];
                    if let Some(c) = &a.column {
                        m.push(("column".into(), Value::str(c.clone())));
                    }
                    if let Some(n) = &a.name {
                        m.push(("name".into(), Value::str(n.clone())));
                    }
                    if let Some(q) = a.q {
                        m.push(("q".into(), Value::Double(q)));
                    }
                    Value::Struct(m)
                })
                .collect(),
        ),
    ));
    members.push((
        "select".into(),
        Value::Array(p.select.iter().map(Value::str).collect()),
    ));
    if let Some(s) = &p.sort_by {
        members.push(("sort_by".into(), Value::str(s.clone())));
    }
    Value::Struct(members)
}

fn str_array(v: &Value, name: &str, ctx: &str) -> Result<Vec<String>, Fault> {
    v.member(name)
        .and_then(Value::as_array)
        .ok_or_else(|| parse_fault(format!("{ctx}: missing array member '{name}'")))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| parse_fault(format!("{ctx}: '{name}' holds a non-string")))
        })
        .collect()
}

/// Inverse of [`pack_plan`]; malformed plans fault with
/// [`FAULT_PARSE_ERROR`] (they arrive inside a [`QUERY_RUN`] request).
pub fn unpack_plan(v: &Value) -> Result<PlanSpec, Fault> {
    let ctx = "query plan";
    // `where` (the tree) wins; the legacy flat `filter` member folds
    // into a single-comparison tree so old clients keep working.
    let predicate = match (v.member("where"), v.member("filter")) {
        (Some(tree), _) => Some(unpack_expr(tree, 0)?),
        (None, Some(f)) => {
            let op_str = str_member(f, "op", ctx)?;
            Some(ExprSpec::Cmp {
                column: str_member(f, "column", ctx)?,
                op: FilterOp::parse(&op_str)
                    .ok_or_else(|| parse_fault(format!("{ctx}: unknown filter op '{op_str}'")))?,
                value: unpack_cell(
                    f.member("value")
                        .ok_or_else(|| parse_fault(format!("{ctx}: filter without value")))?,
                )
                .map_err(parse_fault)?,
            })
        }
        (None, None) => None,
    };
    let aggs = v
        .member("aggs")
        .and_then(Value::as_array)
        .ok_or_else(|| parse_fault(format!("{ctx}: missing array member 'aggs'")))?
        .iter()
        .map(|a| {
            let op_str = str_member(a, "op", ctx)?;
            let op = AggOp::parse(&op_str)
                .ok_or_else(|| parse_fault(format!("{ctx}: unknown agg op '{op_str}'")))?;
            let q = match a.member("q") {
                None => None,
                Some(Value::Double(q)) => Some(*q),
                Some(_) => {
                    return Err(parse_fault(format!("{ctx}: agg 'q' must be a double")));
                }
            };
            if op == AggOp::Quantile && q.is_none() {
                return Err(parse_fault(format!("{ctx}: quantile agg without 'q'")));
            }
            Ok(AggSpec {
                op,
                column: a
                    .member("column")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                name: a.member("name").and_then(Value::as_str).map(str::to_string),
                q,
            })
        })
        .collect::<Result<Vec<_>, Fault>>()?;
    Ok(PlanSpec {
        table: str_member(v, "table", ctx)?,
        predicate,
        group_by: str_array(v, "group_by", ctx)?,
        aggs,
        select: str_array(v, "select", ctx)?,
        sort_by: v
            .member("sort_by")
            .and_then(Value::as_str)
            .map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit() -> SubmitRequest {
        SubmitRequest {
            tenant: "alice".into(),
            preset: "grid_default".into(),
            description_xml: "<experiment name='x'/>".into(),
            submit_key: "alice:cs1:0".into(),
        }
    }

    #[test]
    fn submit_roundtrips_through_xml() {
        let want = submit();
        let call = pack_submit(&want);
        let rewired = MethodCall::from_xml(&call.to_xml()).unwrap();
        assert_eq!(unpack_submit(&rewired).unwrap(), want);
        let resp = pack_submit_response(u64::MAX, true);
        assert_eq!(unpack_submit_response(&resp).unwrap(), (u64::MAX, true));
    }

    #[test]
    fn non_submit_calls_are_rejected() {
        let stray = MethodCall::new("run_init", vec![]);
        assert_eq!(unpack_submit(&stray).unwrap_err().code, FAULT_PARSE_ERROR);
        let empty = MethodCall::new(JOB_SUBMIT, vec![]);
        assert_eq!(unpack_submit(&empty).unwrap_err().code, FAULT_PARSE_ERROR);
    }

    fn status(state: JobState) -> JobStatus {
        JobStatus {
            job_id: 3,
            tenant: "bob".into(),
            name: "cs1".into(),
            preset: "wired_lan".into(),
            state,
            runs_total: 12,
            runs_completed: 7,
            digest: matches!(state, JobState::Completed).then_some(u64::MAX - 1),
            error: matches!(state, JobState::Failed).then(|| "boom".to_string()),
        }
    }

    #[test]
    fn status_roundtrips_in_every_state() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
        ] {
            let want = status(state);
            assert_eq!(unpack_status(&pack_status(&want)).unwrap(), want);
        }
        let list = vec![status(JobState::Queued), status(JobState::Completed)];
        assert_eq!(unpack_status_list(&pack_status_list(&list)).unwrap(), list);
    }

    #[test]
    fn results_pages_carry_the_range_and_the_bytes() {
        let want = ResultsPage {
            status: status(JobState::Completed),
            total: u64::MAX,
            offset: 8 * 1024 * 1024,
            chunk: vec![0, 1, 2, 255],
        };
        assert_eq!(
            unpack_results_page(&pack_results_page(&want)).unwrap(),
            want
        );
        assert!(unpack_results_page(&Value::Int(1)).is_err());
    }

    #[test]
    fn frames_roundtrip_all_cell_kinds() {
        let want = WireFrame {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![CellValue::Null, CellValue::I64(i64::MIN)],
                vec![CellValue::F64(3.25), CellValue::Str("x".into())],
                vec![CellValue::Bytes(vec![7, 8]), CellValue::I64(-1)],
            ],
        };
        assert_eq!(unpack_frame(&pack_frame(&want)).unwrap(), want);
    }

    #[test]
    fn plans_roundtrip_with_and_without_options() {
        let bare = PlanSpec {
            table: "Events".into(),
            ..PlanSpec::default()
        };
        assert_eq!(unpack_plan(&pack_plan(&bare)).unwrap(), bare);
        let full = PlanSpec {
            table: "Events".into(),
            predicate: Some(ExprSpec::cmp("RunID", FilterOp::Le, CellValue::I64(4))),
            group_by: vec!["Type".into()],
            aggs: vec![
                AggSpec {
                    op: AggOp::Count,
                    column: None,
                    name: Some("n".into()),
                    q: None,
                },
                AggSpec {
                    op: AggOp::Mean,
                    column: Some("Time".into()),
                    name: None,
                    q: None,
                },
                AggSpec {
                    op: AggOp::Quantile,
                    column: Some("Time".into()),
                    name: Some("p95".into()),
                    q: Some(0.95),
                },
            ],
            select: vec!["Type".into(), "n".into()],
            sort_by: Some("Type".into()),
        };
        assert_eq!(unpack_plan(&pack_plan(&full)).unwrap(), full);
    }

    #[test]
    fn predicate_trees_roundtrip_and_single_cmp_stays_legacy() {
        let tree = ExprSpec::cmp("RunID", FilterOp::Ge, CellValue::I64(2))
            .and(ExprSpec::cmp("Service", FilterOp::Eq, CellValue::Str("p".into())).not())
            .or(ExprSpec::cmp("Time", FilterOp::Lt, CellValue::F64(0.5)));
        let plan = PlanSpec {
            table: "Events".into(),
            predicate: Some(tree),
            ..PlanSpec::default()
        };
        let packed = pack_plan(&plan);
        assert!(packed.member("where").is_some());
        assert!(packed.member("filter").is_none());
        assert_eq!(unpack_plan(&packed).unwrap(), plan);

        // A lone comparison ships in the pre-tree wire shape.
        let flat = PlanSpec {
            table: "Events".into(),
            predicate: Some(ExprSpec::cmp("RunID", FilterOp::Le, CellValue::I64(4))),
            ..PlanSpec::default()
        };
        let packed = pack_plan(&flat);
        assert!(packed.member("where").is_none());
        assert!(packed.member("filter").is_some());
        assert_eq!(unpack_plan(&packed).unwrap(), flat);
    }

    #[test]
    fn over_deep_predicates_fault_instead_of_recursing() {
        let mut e = ExprSpec::cmp("a", FilterOp::Eq, CellValue::I64(0));
        for _ in 0..(MAX_EXPR_DEPTH + 1) {
            e = e.not();
        }
        let packed = Value::Struct(vec![
            ("table".into(), Value::str("Events")),
            ("where".into(), pack_expr(&e)),
            ("group_by".into(), Value::Array(vec![])),
            ("aggs".into(), Value::Array(vec![])),
            ("select".into(), Value::Array(vec![])),
        ]);
        assert_eq!(unpack_plan(&packed).unwrap_err().code, FAULT_PARSE_ERROR);
    }

    #[test]
    fn quantile_aggs_require_a_rank() {
        let packed = Value::Struct(vec![
            ("table".into(), Value::str("Events")),
            ("group_by".into(), Value::Array(vec![])),
            (
                "aggs".into(),
                Value::Array(vec![Value::Struct(vec![
                    ("op".into(), Value::str("quantile")),
                    ("column".into(), Value::str("Time")),
                ])]),
            ),
            ("select".into(), Value::Array(vec![])),
        ]);
        assert_eq!(unpack_plan(&packed).unwrap_err().code, FAULT_PARSE_ERROR);
    }

    #[test]
    fn malformed_plans_and_cells_fault() {
        let no_table = Value::Struct(vec![
            ("group_by".into(), Value::Array(vec![])),
            ("aggs".into(), Value::Array(vec![])),
            ("select".into(), Value::Array(vec![])),
        ]);
        assert_eq!(unpack_plan(&no_table).unwrap_err().code, FAULT_PARSE_ERROR);
        let bad_cell = Value::Struct(vec![("t".into(), Value::str("z"))]);
        assert!(unpack_cell(&bad_cell).is_err());
    }
}
