//! Filter expressions, mirroring the row engine's `Predicate` semantics.
//!
//! Comparisons follow `SqlValue::cmp_sql` exactly: a total order with
//! NULL < numbers < text < blob, `NULL = NULL` true, and mixed
//! integer/float comparing numerically (integers as `f64`, NaN equal to
//! everything). A filter meets a partition twice. First
//! `Expr::decide` reads the partition's column statistics and proves
//! that no row matches, that every row does, or neither. Only then is
//! the filter bound to the partition's column layout, and
//! `BoundExpr::select` evaluates it one column at a time into a
//! selection bitmap.

use crate::column::{Bitmap, ColumnStats, ColumnTable, Slab, StringPool, Value};
use crate::error::QueryError;
use excovery_store::ColumnType;
use std::cmp::Ordering;

/// Comparison operators of `Expr::cmp` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal under SQL ordering (`NULL = NULL` holds).
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A filter expression over one table's columns.
///
/// Built with [`col`] and [`lit`]:
///
/// ```
/// use excovery_query::{col, lit};
/// let f = col("RunID").eq(lit(3i64)).and(col("EventType").eq(lit("sd_service_add")));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named column reference.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Comparison of a column against a literal (either side).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Both sub-expressions hold.
    And(Box<Expr>, Box<Expr>),
    /// Either sub-expression holds.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

/// A column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// A literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// The NULL literal.
pub fn null() -> Expr {
    Expr::Lit(Value::Null)
}

/// What a partition's statistics prove about a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// No row can match: the partition is pruned.
    None,
    /// Every row matches: the filter is dropped for the partition.
    All,
    /// Rows may differ: the kernels select them.
    Some,
}

impl Expr {
    fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ne, other)
    }

    /// `self < other` (SQL ordering: NULL sorts below every number).
    pub fn lt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Accumulates every column name the expression references, for the
    /// executor's projected-decode column set.
    pub(crate) fn collect_columns(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Col(name) => {
                out.insert(name.clone());
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// A comparison normalised to column-op-literal, flipping the
    /// operator when the literal is on the left; `None` for any other
    /// node. The executor and the plan-spec lowering share it.
    pub(crate) fn as_cmp(&self) -> Option<(&String, &Value, CmpOp)> {
        let Expr::Cmp(op, a, b) = self else {
            return None;
        };
        match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => Some((c, v, *op)),
            (Expr::Lit(v), Expr::Col(c)) => Some((c, v, flip(*op))),
            _ => None,
        }
    }

    /// Binds the expression against one partition's column layout,
    /// resolving column names to slab indices and pre-interning string
    /// literals for the id-equality fast path.
    pub(crate) fn bind(
        &self,
        table_name: &str,
        table: &ColumnTable,
        pool: &StringPool,
    ) -> Result<BoundExpr, QueryError> {
        match self {
            Expr::Col(_) | Expr::Lit(_) => Err(QueryError::Unsupported(
                "bare column/literal used as a filter (compare it with eq/lt/…)".into(),
            )),
            Expr::Cmp(..) => {
                let (name, value, op) = self.as_cmp().ok_or_else(|| {
                    QueryError::Unsupported(
                        "comparison must be between a column and a literal".into(),
                    )
                })?;
                let idx = table
                    .column_index(name)
                    .ok_or_else(|| QueryError::NoSuchColumn {
                        table: table_name.to_string(),
                        column: name.clone(),
                    })?;
                let lit = match value {
                    Value::Null => BoundLit::Null,
                    Value::I64(v) => BoundLit::Num(*v as f64),
                    Value::F64(v) => BoundLit::Num(*v),
                    Value::Str(s) => BoundLit::Str(s.clone(), pool.lookup(s)),
                    Value::Bytes(b) => BoundLit::Bytes(b.clone()),
                };
                Ok(BoundExpr::Cmp(op, idx, lit))
            }
            Expr::And(a, b) => Ok(BoundExpr::And(
                Box::new(a.bind(table_name, table, pool)?),
                Box::new(b.bind(table_name, table, pool)?),
            )),
            Expr::Or(a, b) => Ok(BoundExpr::Or(
                Box::new(a.bind(table_name, table, pool)?),
                Box::new(b.bind(table_name, table, pool)?),
            )),
            Expr::Not(e) => Ok(BoundExpr::Not(Box::new(e.bind(table_name, table, pool)?))),
        }
    }

    /// Decides the filter for one partition from the statistics of the
    /// scanned table's columns (`None` from `stats`: nothing known),
    /// before any row is read. Integer bounds are compared in the `f64`
    /// domain row evaluation uses, so a decision cannot disagree with a
    /// row: [`Decision::None`] means no row matches, [`Decision::All`]
    /// that every row does.
    pub(crate) fn decide(&self, stats: &dyn Fn(&str) -> Option<ColumnStats>) -> Decision {
        match self {
            Expr::Cmp(..) => {
                let Some((name, value, op)) = self.as_cmp() else {
                    return Decision::Some;
                };
                let Some(s) = stats(name) else {
                    return Decision::Some;
                };
                let possible = orderings(&s, value);
                let matching = [Ordering::Less, Ordering::Equal, Ordering::Greater]
                    .into_iter()
                    .filter(|&o| op.matches(o))
                    .fold(0, |set, o| set | bit(o))
                    & possible;
                if matching == 0 {
                    Decision::None
                } else if matching == possible {
                    Decision::All
                } else {
                    Decision::Some
                }
            }
            Expr::And(a, b) => match (a.decide(stats), b.decide(stats)) {
                (Decision::None, _) | (_, Decision::None) => Decision::None,
                (Decision::All, Decision::All) => Decision::All,
                _ => Decision::Some,
            },
            Expr::Or(a, b) => match (a.decide(stats), b.decide(stats)) {
                (Decision::All, _) | (_, Decision::All) => Decision::All,
                (Decision::None, Decision::None) => Decision::None,
                _ => Decision::Some,
            },
            Expr::Not(e) => match e.decide(stats) {
                Decision::None => Decision::All,
                Decision::All => Decision::None,
                Decision::Some => Decision::Some,
            },
            Expr::Col(_) | Expr::Lit(_) => Decision::Some,
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// One ordering as a bit: `Less` 1, `Equal` 2, `Greater` 4.
fn bit(o: Ordering) -> u8 {
    1 << (o as i8 + 1)
}

/// The orderings `cmp_sql(cell, lit)` can take over a column with these
/// statistics, as a bit set: every cell's ordering is in it.
fn orderings(s: &ColumnStats, lit: &Value) -> u8 {
    let mut set = 0;
    if s.nulls > 0 {
        set |= bit(null_order(matches!(lit, Value::Null)));
    }
    if s.rows > s.nulls {
        let (kind, lit_kind) = (column_rank(s.kind), value_rank(lit));
        set |= if kind != lit_kind {
            bit(kind.cmp(&lit_kind))
        } else {
            match (s.kind, s.range, lit.as_f64()) {
                (ColumnType::Integer, Some(r), Some(v)) if v.is_finite() => {
                    // `a as f64` is monotone, so every cell's image lies in
                    // [min as f64, max as f64].
                    let (lo, hi) = (r.min as f64, r.max as f64);
                    let mut set = 0;
                    if lo < v {
                        set |= bit(Ordering::Less);
                    }
                    if lo <= v && v <= hi {
                        set |= bit(Ordering::Equal);
                    }
                    if hi > v {
                        set |= bit(Ordering::Greater);
                    }
                    set
                }
                _ => 0b111,
            }
        };
    }
    set
}

/// How a NULL cell orders against a literal: equal to NULL, below
/// everything else.
fn null_order(lit_is_null: bool) -> Ordering {
    if lit_is_null {
        Ordering::Equal
    } else {
        Ordering::Less
    }
}

/// Kind rank of `cmp_sql`'s total order: NULL < numbers < text < blob.
fn column_rank(kind: ColumnType) -> u8 {
    match kind {
        ColumnType::Integer | ColumnType::Real => 1,
        ColumnType::Text => 2,
        ColumnType::Blob => 3,
    }
}

fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::I64(_) | Value::F64(_) => 1,
        Value::Str(_) => 2,
        Value::Bytes(_) => 3,
    }
}

/// A literal bound for comparison.
#[derive(Debug, Clone)]
pub(crate) enum BoundLit {
    Null,
    /// Integer and float literals both compare numerically (`cmp_sql`
    /// puts them in one kind class).
    Num(f64),
    /// String literal plus its pool id, if interned anywhere in the
    /// dataset (id equality is the Eq fast path).
    Str(String, Option<u32>),
    Bytes(Vec<u8>),
}

fn lit_rank(lit: &BoundLit) -> u8 {
    match lit {
        BoundLit::Null => 0,
        BoundLit::Num(_) => 1,
        BoundLit::Str(..) => 2,
        BoundLit::Bytes(_) => 3,
    }
}

/// An [`Expr`] bound to one partition's column layout.
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr {
    Cmp(CmpOp, usize, BoundLit),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
}

impl BoundExpr {
    /// The rows of `table` the filter selects, evaluated one column at a
    /// time: each comparison is one typed loop over its slab, NULL cells
    /// are patched word-wise from the null bitmap, and the connectives
    /// are word operations.
    pub(crate) fn select(&self, table: &ColumnTable, pool: &StringPool) -> Bitmap {
        match self {
            BoundExpr::Cmp(op, idx, lit) => {
                select_cmp(*op, &table.slabs[*idx], table.rows, lit, pool)
            }
            BoundExpr::And(a, b) => {
                let mut sel = a.select(table, pool);
                sel.and(&b.select(table, pool));
                sel
            }
            BoundExpr::Or(a, b) => {
                let mut sel = a.select(table, pool);
                sel.or(&b.select(table, pool));
                sel
            }
            BoundExpr::Not(e) => {
                let mut sel = e.select(table, pool);
                sel.not();
                sel
            }
        }
    }
}

/// `op.matches(cmp_sql(cell, lit))` for every row of one slab.
fn select_cmp(op: CmpOp, slab: &Slab, rows: usize, lit: &BoundLit, pool: &StringPool) -> Bitmap {
    let mut sel = match (slab, lit) {
        (Slab::I64 { vals, .. }, BoundLit::Num(v)) => select_i64(op, vals, *v),
        (Slab::F64 { vals, .. }, BoundLit::Num(v)) => select_f64(op, vals, *v),
        (Slab::Str { ids, .. }, BoundLit::Str(_, interned))
            if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
        {
            let eq = op == CmpOp::Eq;
            match *interned {
                Some(id) => Bitmap::pack(ids, |x| (x == id) == eq),
                // No cell can equal a string the pool never saw.
                None => Bitmap::filled(rows, !eq),
            }
        }
        (Slab::Str { ids, nulls }, BoundLit::Str(s, interned)) => Bitmap::from_fn(rows, |i| {
            // A NULL slot's id 0 need not be interned; it is patched below.
            !nulls.get(i)
                && op.matches(if Some(ids[i]) == *interned {
                    Ordering::Equal
                } else {
                    pool.resolve(ids[i]).cmp(s)
                })
        }),
        (Slab::Bytes { offsets, data, .. }, BoundLit::Bytes(b)) => Bitmap::from_fn(rows, |i| {
            op.matches(data[offsets[i]..offsets[i + 1]].cmp(b))
        }),
        // Every non-NULL cell is of another kind than the literal, and the
        // kind rank alone orders them.
        _ => Bitmap::filled(
            rows,
            op.matches(column_rank(slab.kind()).cmp(&lit_rank(lit))),
        ),
    };
    let null_match = op.matches(null_order(matches!(lit, BoundLit::Null)));
    sel.assign_where(slab.nulls(), null_match);
    sel
}

/// `cmp_sql` compares an integer cell with a number as `a as f64`. The
/// cast is monotone, so the cells ordering `Less`, `Equal` and `Greater`
/// against `v` are three consecutive integer intervals, found once by
/// bisection; the loop then tests one interval per cell with a single
/// unsigned compare.
fn select_i64(op: CmpOp, vals: &[i64], v: f64) -> Bitmap {
    if v.is_nan() {
        // `partial_cmp` fails for every cell, which `cmp_sql` reads as
        // Equal.
        return Bitmap::filled(vals.len(), op.matches(Ordering::Equal));
    }
    const START: i128 = i64::MIN as i128;
    const END: i128 = i64::MAX as i128 + 1;
    let ge = first_int(|a| a as f64 >= v);
    let gt = first_int(|a| a as f64 > v);
    // Less: [START, ge), Equal: [ge, gt), Greater: [gt, END).
    let (lo, hi, inside) = match op {
        CmpOp::Eq => (ge, gt, true),
        CmpOp::Ne => (ge, gt, false),
        CmpOp::Lt => (START, ge, true),
        CmpOp::Le => (START, gt, true),
        CmpOp::Gt => (gt, END, true),
        CmpOp::Ge => (ge, END, true),
    };
    let width = hi - lo;
    if width > i128::from(u64::MAX) {
        return Bitmap::filled(vals.len(), inside);
    }
    // Below `lo`, `a - lo` wraps past `width`, so one unsigned compare
    // tests lo <= a < hi. An empty interval may start at END, which
    // wraps to i64::MIN; the test is then false whatever `lo` is.
    let (lo, width) = (lo as i64, width as u64);
    Bitmap::pack(vals, |a| ((a.wrapping_sub(lo) as u64) < width) == inside)
}

/// The least integer at which the monotone `pred` holds (`i64::MAX + 1`
/// if it never does).
fn first_int(pred: impl Fn(i64) -> bool) -> i128 {
    let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX) + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid as i64) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Float cells compare by `partial_cmp`, and a NaN on either side reads
/// as Equal.
fn select_f64(op: CmpOp, vals: &[f64], v: f64) -> Bitmap {
    if v.is_nan() {
        return Bitmap::filled(vals.len(), op.matches(Ordering::Equal));
    }
    match op {
        CmpOp::Eq => Bitmap::pack(vals, |a| a == v || a.is_nan()),
        CmpOp::Ne => Bitmap::pack(vals, |a| a != v && !a.is_nan()),
        CmpOp::Lt => Bitmap::pack(vals, |a| a < v),
        CmpOp::Le => Bitmap::pack(vals, |a| a <= v || a.is_nan()),
        CmpOp::Gt => Bitmap::pack(vals, |a| a > v),
        CmpOp::Ge => Bitmap::pack(vals, |a| a >= v || a.is_nan()),
    }
}

/// The per-row interpreter the kernels replaced, kept as their oracle.
#[cfg(test)]
impl BoundExpr {
    /// Evaluates the filter for row `i` of `table`.
    pub(crate) fn eval(&self, table: &ColumnTable, i: usize, pool: &StringPool) -> bool {
        match self {
            BoundExpr::Cmp(op, idx, lit) => {
                op.matches(cmp_cell(table.slabs[*idx].get(i), lit, pool))
            }
            BoundExpr::And(a, b) => a.eval(table, i, pool) && b.eval(table, i, pool),
            BoundExpr::Or(a, b) => a.eval(table, i, pool) || b.eval(table, i, pool),
            BoundExpr::Not(e) => !e.eval(table, i, pool),
        }
    }
}

/// `cmp_sql(cell, literal)` over the columnar representation.
#[cfg(test)]
fn cmp_cell(cell: crate::column::CellRef<'_>, lit: &BoundLit, pool: &StringPool) -> Ordering {
    use crate::column::CellRef;
    let kind = match cell {
        CellRef::Null => 0,
        CellRef::I64(_) | CellRef::F64(_) => 1,
        CellRef::Str(_) => 2,
        CellRef::Bytes(_) => 3,
    };
    if kind != lit_rank(lit) {
        return kind.cmp(&lit_rank(lit));
    }
    match (cell, lit) {
        (CellRef::Null, BoundLit::Null) => Ordering::Equal,
        (CellRef::I64(a), BoundLit::Num(b)) => (a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
        (CellRef::F64(a), BoundLit::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
        (CellRef::Str(id), BoundLit::Str(s, interned)) => {
            if *interned == Some(id) {
                Ordering::Equal
            } else {
                pool.resolve(id).cmp(s.as_str())
            }
        }
        (CellRef::Bytes(a), BoundLit::Bytes(b)) => a.cmp(b.as_slice()),
        _ => Ordering::Equal, // unreachable: kinds already matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{IntStats, Slab};

    fn table(pool: &mut StringPool) -> ColumnTable {
        let mut ids = Slab::empty_i64();
        let mut names = Slab::empty_str();
        for (id, name) in [(3i64, "a"), (5, "b"), (7, "a")] {
            ids.push_i64(id);
            names.push_str(pool.intern(name));
        }
        ids.push_null();
        names.push_null();
        let mut t = ColumnTable::new(vec!["Id".into(), "Name".into()], vec![ids, names]);
        t.rows = 4;
        t
    }

    /// The rows the kernels select, checked against the per-row oracle.
    fn matches(e: &Expr, t: &ColumnTable, pool: &StringPool) -> Vec<usize> {
        let b = e.bind("T", t, pool).unwrap();
        let rows: Vec<usize> = b.select(t, pool).ones().collect();
        let oracle: Vec<usize> = (0..t.rows).filter(|&i| b.eval(t, i, pool)).collect();
        assert_eq!(rows, oracle, "{e:?}");
        rows
    }

    #[test]
    fn comparisons_follow_sql_ordering() {
        let mut pool = StringPool::new();
        let t = table(&mut pool);
        assert_eq!(matches(&col("Id").eq(lit(5i64)), &t, &pool), vec![1]);
        // NULL < every integer, so Lt matches the NULL row too.
        assert_eq!(matches(&col("Id").lt(lit(5i64)), &t, &pool), vec![0, 3]);
        assert_eq!(matches(&col("Id").gt(lit(3i64)), &t, &pool), vec![1, 2]);
        assert_eq!(matches(&col("Id").ge(lit(5i64)), &t, &pool), vec![1, 2]);
        assert_eq!(matches(&col("Id").ne(lit(3i64)), &t, &pool), vec![1, 2, 3]);
        // NULL = NULL holds (cmp_sql simplification).
        assert_eq!(matches(&col("Id").eq(null()), &t, &pool), vec![3]);
        // Integers sort below text.
        assert_eq!(
            matches(&col("Id").lt(lit("z")), &t, &pool),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn string_eq_uses_interned_ids_and_falls_back() {
        let mut pool = StringPool::new();
        let t = table(&mut pool);
        assert_eq!(matches(&col("Name").eq(lit("a")), &t, &pool), vec![0, 2]);
        // A never-interned literal matches nothing but still orders.
        assert_eq!(
            matches(&col("Name").eq(lit("zz")), &t, &pool),
            Vec::<usize>::new()
        );
        assert_eq!(matches(&col("Name").lt(lit("b")), &t, &pool), vec![0, 2, 3]);
    }

    #[test]
    fn boolean_connectives_and_flipped_literals() {
        let mut pool = StringPool::new();
        let t = table(&mut pool);
        let e = col("Id").gt(lit(3i64)).and(col("Name").eq(lit("a")));
        assert_eq!(matches(&e, &t, &pool), vec![2]);
        let e = col("Id").eq(lit(3i64)).or(col("Id").eq(lit(7i64)));
        assert_eq!(matches(&e, &t, &pool), vec![0, 2]);
        assert_eq!(
            matches(&col("Id").eq(lit(3i64)).not(), &t, &pool),
            vec![1, 2, 3]
        );
        // lit < col is col > lit.
        assert_eq!(matches(&lit(3i64).lt(col("Id")), &t, &pool), vec![1, 2]);
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let mut pool = StringPool::new();
        let t = table(&mut pool);
        assert!(matches!(
            col("Nope").eq(lit(1i64)).bind("T", &t, &pool),
            Err(QueryError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            col("Id").bind("T", &t, &pool),
            Err(QueryError::Unsupported(_))
        ));
        assert!(matches!(
            col("Id").eq(col("Name")).bind("T", &t, &pool),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn decisions_respect_null_semantics() {
        use Decision::{All, None as Pruned, Some as Scan};
        let ints = |min: i64, max: i64, nulls: usize| {
            move |name: &str| {
                (name == "Id").then_some(ColumnStats {
                    kind: ColumnType::Integer,
                    rows: 10,
                    nulls,
                    range: (nulls < 10).then_some(IntStats { min, max }),
                })
            }
        };
        let decide = |e: Expr, s: &dyn Fn(&str) -> Option<ColumnStats>| e.decide(s);
        // Eq outside the range prunes, NULLs or not (NULL is below every
        // number); Ne there matches every row.
        assert_eq!(decide(col("Id").eq(lit(99i64)), &ints(1, 10, 0)), Pruned);
        assert_eq!(decide(col("Id").eq(lit(99i64)), &ints(1, 10, 1)), Pruned);
        assert_eq!(decide(col("Id").ne(lit(99i64)), &ints(1, 10, 1)), All);
        assert_eq!(decide(col("Id").eq(lit(5i64)), &ints(1, 10, 0)), Scan);
        assert_eq!(decide(col("Id").eq(lit(5i64)), &ints(5, 5, 0)), All);
        // Lt matches NULL cells: a column below the literal matches fully
        // with or without them, and one above it only if it has none.
        assert_eq!(decide(col("Id").lt(lit(1i64)), &ints(1, 10, 0)), Pruned);
        assert_eq!(decide(col("Id").lt(lit(1i64)), &ints(1, 10, 3)), Scan);
        assert_eq!(decide(col("Id").lt(lit(11i64)), &ints(1, 10, 3)), All);
        // Gt never matches NULLs; nulls don't block the prune.
        assert_eq!(decide(col("Id").gt(lit(10i64)), &ints(1, 10, 5)), Pruned);
        assert_eq!(decide(col("Id").gt(lit(9i64)), &ints(1, 10, 0)), Scan);
        assert_eq!(decide(col("Id").gt(lit(0i64)), &ints(1, 10, 0)), All);
        // All-null column: Eq/Gt/Ge never match, Lt/Le/Ne always do.
        let all_null = ints(0, 0, 10);
        assert_eq!(decide(col("Id").eq(lit(1i64)), &all_null), Pruned);
        assert_eq!(decide(col("Id").gt(lit(1i64)), &all_null), Pruned);
        assert_eq!(decide(col("Id").lt(lit(1i64)), &all_null), All);
        assert_eq!(decide(col("Id").eq(null()), &all_null), All);
        // Kinds order the column against a literal of another kind.
        assert_eq!(decide(col("Id").lt(lit("x")), &ints(1, 10, 0)), All);
        // A literal that is not finite decides nothing.
        assert_eq!(
            decide(col("Id").lt(lit(f64::INFINITY)), &ints(1, 10, 0)),
            Scan
        );
        // Connectives: And prunes if either side does, Or needs both;
        // Not swaps the two proofs.
        let e = col("Id").eq(lit(99i64));
        assert_eq!(
            decide(e.clone().and(col("Id").eq(lit(5i64))), &ints(1, 10, 0)),
            Pruned
        );
        assert_eq!(
            decide(e.clone().or(col("Id").eq(lit(5i64))), &ints(1, 10, 0)),
            Scan
        );
        assert_eq!(
            decide(e.clone().or(col("Id").gt(lit(0i64))), &ints(1, 10, 0)),
            All
        );
        assert_eq!(decide(e.not(), &ints(1, 10, 0)), All);
        // Unknown column: decide nothing.
        assert_eq!(decide(col("Name").eq(lit("x")), &ints(1, 10, 0)), Scan);
    }

    #[test]
    fn integer_bounds_compare_as_f64_above_two_to_the_53() {
        // 2^53 + 1 is not a double: as f64 it rounds to 2^53, and cmp_sql
        // compares it that way.
        let x = (1i64 << 53) + 1;
        let stats = |_: &str| {
            Some(ColumnStats {
                kind: ColumnType::Integer,
                rows: 1,
                nulls: 0,
                range: Some(IntStats { min: x, max: x }),
            })
        };
        let mut slab = Slab::empty_i64();
        slab.push_i64(x);
        let mut t = ColumnTable::new(vec!["X".into()], vec![slab]);
        t.rows = 1;
        let pool = StringPool::new();
        for (e, hit) in [
            (col("X").eq(lit(1i64 << 53)), true),
            (col("X").le(lit(1i64 << 53)), true),
            (col("X").ge(lit(1i64 << 53)), true),
            (col("X").gt(lit(1i64 << 53)), false),
            (col("X").lt(lit(x)), false),
            (col("X").lt(lit(x + 1)), true),
            (col("X").ge(lit(x + 1)), false),
        ] {
            assert_eq!(matches(&e, &t, &pool).len(), usize::from(hit), "{e:?}");
            let want = if hit { Decision::All } else { Decision::None };
            assert_eq!(e.decide(&stats), want, "{e:?}");
        }
    }
}
