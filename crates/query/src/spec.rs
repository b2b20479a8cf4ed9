//! The bridge between the local [`Scan`] builder and the one
//! serializable logical-plan type, [`excovery_rpc::PlanSpec`].
//!
//! Historically the repo carried two divergent plan dialects: the
//! builder chain here and a hand-mapped remote `PlanSpec` in the server
//! crate. This module collapses them — [`Scan::to_spec`] lowers a
//! builder chain losslessly into a `PlanSpec`, and
//! [`Dataset::run_spec`] executes any `PlanSpec` through the exact code
//! path `Scan::collect` uses. The pair is inverse in the observable
//! sense: `ds.run_spec(&scan.to_spec()?)` returns a [`Frame`]
//! bit-identical to `scan.collect()`, locally or across the wire
//! (proven by the round-trip property suite).
//!
//! The only builder knob a spec does not carry is
//! [`Scan::workers`] — an execution-scheduling hint, not plan
//! semantics: results are bit-identical at any worker count, so
//! dropping it is still lossless for the *meaning* of the plan.

use crate::agg::{Agg, AggSpec};
use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::QueryError;
use crate::expr::{col, lit, CmpOp, Expr};
use crate::plan::{Frame, Scan};
use excovery_rpc::{
    AggOp, AggSpec as WireAggSpec, CellValue, ExprSpec, FilterOp, PlanSpec, WireFrame,
};

/// Converts a column value to its wire twin.
pub fn value_to_cell(v: &Value) -> CellValue {
    match v {
        Value::Null => CellValue::Null,
        Value::I64(i) => CellValue::I64(*i),
        Value::F64(f) => CellValue::F64(*f),
        Value::Str(s) => CellValue::Str(s.clone()),
        Value::Bytes(b) => CellValue::Bytes(b.clone()),
    }
}

/// Converts a wire cell to its column-value twin.
pub fn cell_to_value(c: &CellValue) -> Value {
    match c {
        CellValue::Null => Value::Null,
        CellValue::I64(i) => Value::I64(*i),
        CellValue::F64(f) => Value::F64(*f),
        CellValue::Str(s) => Value::Str(s.clone()),
        CellValue::Bytes(b) => Value::Bytes(b.clone()),
    }
}

fn op_to_wire(op: CmpOp) -> FilterOp {
    match op {
        CmpOp::Eq => FilterOp::Eq,
        CmpOp::Ne => FilterOp::Ne,
        CmpOp::Lt => FilterOp::Lt,
        CmpOp::Le => FilterOp::Le,
        CmpOp::Gt => FilterOp::Gt,
        CmpOp::Ge => FilterOp::Ge,
    }
}

/// Lowers a filter expression into the serializable predicate tree.
///
/// Comparisons are normalised to column-op-literal (flipping the
/// operator when the literal is on the left), the same normalisation
/// the executor's `bind` applies — so the lowered tree evaluates
/// identically. Shapes the executor would reject (bare columns,
/// column-to-column comparison) are [`QueryError::Unsupported`] here
/// too, just earlier.
pub fn expr_to_spec(e: &Expr) -> Result<ExprSpec, QueryError> {
    match e {
        Expr::Col(_) | Expr::Lit(_) => Err(QueryError::Unsupported(
            "bare column/literal used as a filter (compare it with eq/lt/…)".into(),
        )),
        Expr::Cmp(..) => {
            let (column, value, op) = e.as_cmp().ok_or_else(|| {
                QueryError::Unsupported("comparison must be between a column and a literal".into())
            })?;
            Ok(ExprSpec::Cmp {
                column: column.clone(),
                op: op_to_wire(op),
                value: value_to_cell(value),
            })
        }
        Expr::And(a, b) => Ok(expr_to_spec(a)?.and(expr_to_spec(b)?)),
        Expr::Or(a, b) => Ok(expr_to_spec(a)?.or(expr_to_spec(b)?)),
        Expr::Not(e) => Ok(expr_to_spec(e)?.not()),
    }
}

/// Raises a serializable predicate tree back into a filter expression.
pub fn spec_to_expr(e: &ExprSpec) -> Expr {
    match e {
        ExprSpec::Cmp { column, op, value } => {
            let c = col(column.clone());
            let l = lit(cell_to_value(value));
            match op {
                FilterOp::Eq => c.eq(l),
                FilterOp::Ne => c.ne(l),
                FilterOp::Lt => c.lt(l),
                FilterOp::Le => c.le(l),
                FilterOp::Gt => c.gt(l),
                FilterOp::Ge => c.ge(l),
            }
        }
        ExprSpec::And(a, b) => spec_to_expr(a).and(spec_to_expr(b)),
        ExprSpec::Or(a, b) => spec_to_expr(a).or(spec_to_expr(b)),
        ExprSpec::Not(e) => spec_to_expr(e).not(),
    }
}

/// Lowers one aggregate into its wire form. The output name is always
/// carried: [`Agg`] names every aggregate (defaulted or overridden), so
/// the spec round-trips to the identical output column.
pub fn agg_to_spec(a: &Agg) -> WireAggSpec {
    let (op, column, q) = match &a.spec {
        AggSpec::Count => (AggOp::Count, None, None),
        AggSpec::Sum(c) => (AggOp::Sum, Some(c.clone()), None),
        AggSpec::Mean(c) => (AggOp::Mean, Some(c.clone()), None),
        AggSpec::Min(c) => (AggOp::Min, Some(c.clone()), None),
        AggSpec::Max(c) => (AggOp::Max, Some(c.clone()), None),
        AggSpec::Quantile(c, q) => (AggOp::Quantile, Some(c.clone()), Some(*q)),
    };
    WireAggSpec {
        op,
        column,
        name: Some(a.name.clone()),
        q,
    }
}

/// Raises a wire aggregate into an executable [`Agg`].
pub fn spec_to_agg(a: &WireAggSpec) -> Result<Agg, QueryError> {
    let need_column = || {
        a.column.clone().ok_or_else(|| {
            QueryError::Unsupported(format!("aggregate '{}' needs a column", a.op.as_str()))
        })
    };
    let agg = match a.op {
        AggOp::Count => Agg::count(),
        AggOp::Sum => Agg::sum(need_column()?),
        AggOp::Mean => Agg::mean(need_column()?),
        AggOp::Min => Agg::min(need_column()?),
        AggOp::Max => Agg::max(need_column()?),
        AggOp::Quantile => {
            let q = a.q.ok_or_else(|| {
                QueryError::Unsupported("quantile aggregate needs a rank 'q'".into())
            })?;
            if !(0.0..=1.0).contains(&q) {
                return Err(QueryError::Unsupported(format!(
                    "quantile rank {q} outside [0, 1]"
                )));
            }
            Agg::quantile(need_column()?, q)
        }
    };
    Ok(match &a.name {
        Some(name) => agg.named(name.clone()),
        None => agg,
    })
}

/// Converts a result frame to its wire twin (cell for cell; floats keep
/// their bit patterns, so wire digest equality ⇔ frame digest equality).
pub fn frame_to_wire(f: &Frame) -> WireFrame {
    WireFrame {
        columns: f.columns.clone(),
        rows: f
            .rows
            .iter()
            .map(|r| r.iter().map(value_to_cell).collect())
            .collect(),
    }
}

/// Converts a wire frame back to a local [`Frame`].
pub fn wire_to_frame(w: &WireFrame) -> Frame {
    Frame {
        columns: w.columns.clone(),
        rows: w
            .rows
            .iter()
            .map(|r| r.iter().map(cell_to_value).collect())
            .collect(),
    }
}

impl Scan<'_> {
    /// Lowers this builder chain into the serializable [`PlanSpec`] —
    /// lossless: executing the spec with [`Dataset::run_spec`] (here or
    /// on a server) returns a frame bit-identical to
    /// [`collect`](Scan::collect).
    ///
    /// The [`workers`](Scan::workers) override is *not* carried: it is
    /// an execution-scheduling knob, and results are bit-identical at
    /// any worker count by the determinism contract.
    pub fn to_spec(&self) -> Result<PlanSpec, QueryError> {
        let select = match &self.project {
            None => Vec::new(),
            // An explicit zero-column projection has no spec encoding
            // (empty `select` means "plan default" on the wire).
            Some(cols) if cols.is_empty() => {
                return Err(QueryError::Unsupported(
                    "empty projection is not representable in a PlanSpec".into(),
                ))
            }
            Some(cols) => cols.clone(),
        };
        Ok(PlanSpec {
            table: self.table.clone(),
            predicate: self.filter.as_ref().map(expr_to_spec).transpose()?,
            group_by: self.group_by.clone(),
            aggs: self.aggs.iter().map(agg_to_spec).collect(),
            select,
            sort_by: self.sort.clone(),
        })
    }
}

impl Dataset {
    /// Executes a serializable plan through the same path as
    /// [`Scan::collect`] — the single entry point local callers, the
    /// server's `query.run` handler and standing queries all share.
    pub fn run_spec(&self, spec: &PlanSpec) -> Result<Frame, QueryError> {
        self.spec_scan(spec)?.collect()
    }

    /// Builds the [`Scan`] a spec describes (shared by [`run_spec`]
    /// [`Dataset::run_spec`] and the incremental layer, which needs the
    /// scan itself rather than its one-shot result).
    pub(crate) fn spec_scan(&self, spec: &PlanSpec) -> Result<Scan<'_>, QueryError> {
        let mut scan = self
            .scan(&spec.table)
            .group_by(spec.group_by.iter().cloned())
            .agg(
                spec.aggs
                    .iter()
                    .map(spec_to_agg)
                    .collect::<Result<Vec<_>, _>>()?,
            );
        if let Some(p) = &spec.predicate {
            scan = scan.filter(spec_to_expr(p));
        }
        if !spec.select.is_empty() {
            scan = scan.select(spec.select.iter().cloned());
        }
        if let Some(s) = &spec.sort_by {
            scan = scan.sort_by(s.clone());
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use crate::expr::null;
    use excovery_store::{Column, ColumnType, Database, SqlValue};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Events",
            vec![
                Column::new("RunID", ColumnType::Integer),
                Column::new("Kind", ColumnType::Text),
                Column::new("Time", ColumnType::Real),
            ],
        )
        .unwrap();
        for (run, kind, t) in [
            (0i64, "a", 1.5f64),
            (0, "b", 2.5),
            (1, "a", 0.5),
            (1, "a", 4.0),
            (2, "c", 3.0),
        ] {
            db.insert(
                "Events",
                vec![
                    SqlValue::Int(run),
                    SqlValue::Text(kind.into()),
                    SqlValue::Real(t),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn to_spec_then_run_spec_is_bit_identical_to_collect() {
        let ds = Dataset::from_database(&db()).unwrap();
        let scan = ds
            .scan("Events")
            .filter(col("RunID").ge(lit(0i64)).and(col("Kind").ne(lit("c"))))
            .group_by(["Kind"])
            .agg([Agg::count(), Agg::mean("Time"), Agg::quantile("RunID", 0.5)])
            .sort_by("Kind");
        let spec = scan.clone().to_spec().unwrap();
        let direct = scan.collect().unwrap();
        let via_spec = ds.run_spec(&spec).unwrap();
        assert_eq!(direct.digest(), via_spec.digest());
        assert_eq!(direct, via_spec);
    }

    #[test]
    fn row_mode_select_and_sort_round_trip() {
        let ds = Dataset::from_database(&db()).unwrap();
        let scan = ds
            .scan("Events")
            .filter(lit(1i64).le(col("RunID")))
            .select(["Kind", "Time"])
            .sort_by("Time");
        let spec = scan.clone().to_spec().unwrap();
        assert_eq!(spec.select, vec!["Kind".to_string(), "Time".to_string()]);
        assert_eq!(
            scan.collect().unwrap().digest(),
            ds.run_spec(&spec).unwrap().digest()
        );
    }

    #[test]
    fn unsupported_shapes_error_at_lowering_time() {
        let ds = Dataset::from_database(&db()).unwrap();
        assert!(matches!(
            ds.scan("Events").filter(col("RunID")).to_spec(),
            Err(QueryError::Unsupported(_))
        ));
        assert!(matches!(
            ds.scan("Events")
                .filter(col("RunID").eq(col("Time")))
                .to_spec(),
            Err(QueryError::Unsupported(_))
        ));
        let empty: [&str; 0] = [];
        assert!(matches!(
            ds.scan("Events").select(empty).to_spec(),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn bad_wire_aggregates_are_typed_errors() {
        let missing_col = WireAggSpec {
            op: AggOp::Mean,
            column: None,
            name: None,
            q: None,
        };
        assert!(matches!(
            spec_to_agg(&missing_col),
            Err(QueryError::Unsupported(_))
        ));
        let bad_rank = WireAggSpec {
            op: AggOp::Quantile,
            column: Some("Time".into()),
            name: None,
            q: Some(1.5),
        };
        assert!(matches!(
            spec_to_agg(&bad_rank),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn values_and_frames_convert_losslessly() {
        let vals = [
            Value::Null,
            Value::I64(i64::MIN),
            Value::F64(-0.0),
            Value::Str("x".into()),
            Value::Bytes(vec![1, 2]),
        ];
        for v in &vals {
            assert_eq!(&cell_to_value(&value_to_cell(v)), v);
        }
        let f = Frame {
            columns: vec!["a".into()],
            rows: vec![vec![Value::F64(f64::from_bits(0x7ff8_0000_0000_0001))]],
        };
        // NaN payloads survive by bit pattern.
        let back = wire_to_frame(&frame_to_wire(&f));
        assert_eq!(f.digest(), back.digest());
    }

    #[test]
    fn null_literal_predicates_round_trip() {
        let ds = Dataset::from_database(&db()).unwrap();
        let scan = ds.scan("Events").filter(col("Kind").eq(null()).not());
        let spec = scan.clone().to_spec().unwrap();
        assert_eq!(
            scan.collect().unwrap().digest(),
            ds.run_spec(&spec).unwrap().digest()
        );
    }
}
