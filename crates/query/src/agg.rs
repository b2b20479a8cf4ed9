//! Aggregate functions and their mergeable partial states.
//!
//! Each worker folds its partition into an `AggPartial` per group; the
//! coordinator merges partials **in partition order**, so the result is
//! bit-identical however many workers ran. Integer-column sums accumulate
//! in `i128` and convert to `f64` only at finalisation — exact (and equal
//! to a sequential `f64` summation) for every total below 2⁵³, far beyond
//! any Table-I scale.

use crate::column::{selected_rows, Bitmap, CellRef, Slab, Value};
use excovery_obs::metrics::{bucket_index, bucket_upper_bound, HISTOGRAM_BUCKETS};

/// One aggregate of a scan: an output column name plus the function.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// Output column name.
    pub name: String,
    /// The aggregate function.
    pub spec: AggSpec,
}

/// The aggregate functions the analysis layer needs.
#[derive(Debug, Clone, PartialEq)]
pub enum AggSpec {
    /// Number of rows in the group.
    Count,
    /// Sum of a numeric column (NULLs skipped), surfaced as `F64`.
    Sum(String),
    /// Arithmetic mean of a numeric column (NULLs skipped); `Null` when
    /// no numeric cell matched.
    Mean(String),
    /// Minimum of a numeric column.
    Min(String),
    /// Maximum of a numeric column.
    Max(String),
    /// Approximate quantile (0 ≤ q ≤ 1) of a non-negative integer
    /// column via the log₂ histogram the observability layer uses;
    /// negative values saturate to 0.
    Quantile(String, f64),
}

impl Agg {
    /// `COUNT(*)`, named `count`.
    pub fn count() -> Agg {
        Agg {
            name: "count".into(),
            spec: AggSpec::Count,
        }
    }

    /// `SUM(column)`, named `sum(column)`.
    pub fn sum(column: impl Into<String>) -> Agg {
        let column = column.into();
        Agg {
            name: format!("sum({column})"),
            spec: AggSpec::Sum(column),
        }
    }

    /// `AVG(column)`, named `mean(column)`.
    pub fn mean(column: impl Into<String>) -> Agg {
        let column = column.into();
        Agg {
            name: format!("mean({column})"),
            spec: AggSpec::Mean(column),
        }
    }

    /// `MIN(column)`, named `min(column)`.
    pub fn min(column: impl Into<String>) -> Agg {
        let column = column.into();
        Agg {
            name: format!("min({column})"),
            spec: AggSpec::Min(column),
        }
    }

    /// `MAX(column)`, named `max(column)`.
    pub fn max(column: impl Into<String>) -> Agg {
        let column = column.into();
        Agg {
            name: format!("max({column})"),
            spec: AggSpec::Max(column),
        }
    }

    /// Histogram quantile of `column` at `q`, named `p<q*100>(column)`.
    pub fn quantile(column: impl Into<String>, q: f64) -> Agg {
        let column = column.into();
        Agg {
            name: format!("p{:.0}({column})", q * 100.0),
            spec: AggSpec::Quantile(column, q),
        }
    }

    /// Renames the output column.
    pub fn named(mut self, name: impl Into<String>) -> Agg {
        self.name = name.into();
        self
    }

    /// The input column, if the function reads one.
    pub(crate) fn input_column(&self) -> Option<&str> {
        match &self.spec {
            AggSpec::Count => None,
            AggSpec::Sum(c)
            | AggSpec::Mean(c)
            | AggSpec::Min(c)
            | AggSpec::Max(c)
            | AggSpec::Quantile(c, _) => Some(c),
        }
    }
}

/// Mergeable per-group partial state of one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum AggPartial {
    Count(u64),
    /// Integer-column sum: exact i128 accumulation.
    SumI {
        sum: i128,
        count: u64,
    },
    /// Float-column sum: per-partition in-order accumulation, merged in
    /// partition order (deterministic, but order-sensitive like any f64
    /// sum).
    SumF {
        sum: f64,
        count: u64,
    },
    MinI(Option<i64>),
    MaxI(Option<i64>),
    MinF(Option<f64>),
    MaxF(Option<f64>),
    Hist {
        buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
        count: u64,
        q: f64,
    },
}

impl AggPartial {
    /// Fresh state for `spec`; `float_input` selects float accumulation
    /// for `Real` input columns (integer columns use exact `i128`).
    pub(crate) fn new(spec: &AggSpec, float_input: bool) -> AggPartial {
        let is_float = float_input;
        match spec {
            AggSpec::Count => AggPartial::Count(0),
            AggSpec::Sum(_) | AggSpec::Mean(_) => {
                if is_float {
                    AggPartial::SumF { sum: 0.0, count: 0 }
                } else {
                    AggPartial::SumI { sum: 0, count: 0 }
                }
            }
            AggSpec::Min(_) => {
                if is_float {
                    AggPartial::MinF(None)
                } else {
                    AggPartial::MinI(None)
                }
            }
            AggSpec::Max(_) => {
                if is_float {
                    AggPartial::MaxF(None)
                } else {
                    AggPartial::MaxI(None)
                }
            }
            AggSpec::Quantile(_, q) => AggPartial::Hist {
                buckets: Box::new([0; HISTOGRAM_BUCKETS]),
                count: 0,
                q: *q,
            },
        }
    }

    /// Folds one cell in.
    pub(crate) fn update(&mut self, cell: CellRef<'_>) {
        match self {
            AggPartial::Count(n) => *n += 1,
            AggPartial::SumI { sum, count } => {
                if let CellRef::I64(v) = cell {
                    *sum += v as i128;
                    *count += 1;
                }
            }
            AggPartial::SumF { sum, count } => match cell {
                CellRef::F64(v) => {
                    *sum += v;
                    *count += 1;
                }
                CellRef::I64(v) => {
                    *sum += v as f64;
                    *count += 1;
                }
                _ => {}
            },
            AggPartial::MinI(m) => {
                if let CellRef::I64(v) = cell {
                    *m = Some(m.map_or(v, |cur| cur.min(v)));
                }
            }
            AggPartial::MaxI(m) => {
                if let CellRef::I64(v) = cell {
                    *m = Some(m.map_or(v, |cur| cur.max(v)));
                }
            }
            AggPartial::MinF(m) => {
                if let Some(v) = cell_f64(cell) {
                    *m = Some(m.map_or(v, |cur| cur.min(v)));
                }
            }
            AggPartial::MaxF(m) => {
                if let Some(v) = cell_f64(cell) {
                    *m = Some(m.map_or(v, |cur| cur.max(v)));
                }
            }
            AggPartial::Hist { buckets, count, .. } => {
                let v = match cell {
                    CellRef::I64(v) => v.max(0) as u64,
                    CellRef::F64(v) => {
                        if v.is_finite() && v > 0.0 {
                            v as u64
                        } else {
                            0
                        }
                    }
                    _ => return,
                };
                buckets[bucket_index(v)] += 1;
                *count += 1;
            }
        }
    }

    /// Folds the selected cells of a column slab in (every cell when
    /// `sel` is `None`), in ascending row order — used when every
    /// selected row of a partition lands in one group. Equivalent to
    /// calling [`update`](AggPartial::update) on each selected
    /// `slab.get(i)` in order (float accumulation visits cells in the
    /// identical sequence, so the result is bit-identical), just
    /// without the per-cell dispatch.
    pub(crate) fn update_slab(&mut self, slab: &Slab, sel: Option<&Bitmap>) {
        match (&mut *self, slab) {
            (AggPartial::SumI { sum, count }, Slab::I64 { vals, nulls, .. }) => {
                let (mut s, mut n) = (0i128, 0u64);
                for_each_value(vals, nulls, sel, |v| {
                    s += i128::from(v);
                    n += 1;
                });
                *sum += s;
                *count += n;
            }
            (AggPartial::SumF { sum, count }, Slab::F64 { vals, nulls }) => {
                for_each_value(vals, nulls, sel, |v| {
                    *sum += v;
                    *count += 1;
                });
            }
            (AggPartial::MinI(m), Slab::I64 { vals, nulls, .. }) => {
                for_each_value(vals, nulls, sel, |v| {
                    *m = Some(m.map_or(v, |cur| cur.min(v)))
                });
            }
            (AggPartial::MaxI(m), Slab::I64 { vals, nulls, .. }) => {
                for_each_value(vals, nulls, sel, |v| {
                    *m = Some(m.map_or(v, |cur| cur.max(v)))
                });
            }
            _ => selected_rows(sel, slab.len()).for_each(|i| self.update(slab.get(i))),
        }
    }

    /// Folds `rows` input-less updates in (a `count` aggregate sees one
    /// per row; every other aggregate ignores the `Null` cell it would
    /// have been fed).
    pub(crate) fn update_rows(&mut self, rows: usize) {
        if let AggPartial::Count(n) = self {
            *n += rows as u64;
        }
    }

    /// Merges another partition's partial into this one. Called in
    /// partition order by the coordinator.
    pub(crate) fn merge(&mut self, other: &AggPartial) {
        match (self, other) {
            (AggPartial::Count(a), AggPartial::Count(b)) => *a += b,
            (AggPartial::SumI { sum, count }, AggPartial::SumI { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggPartial::SumF { sum, count }, AggPartial::SumF { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggPartial::MinI(a), AggPartial::MinI(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.min(*v)));
                }
            }
            (AggPartial::MaxI(a), AggPartial::MaxI(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.max(*v)));
                }
            }
            (AggPartial::MinF(a), AggPartial::MinF(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.min(*v)));
                }
            }
            (AggPartial::MaxF(a), AggPartial::MaxF(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.max(*v)));
                }
            }
            (
                AggPartial::Hist { buckets, count, .. },
                AggPartial::Hist {
                    buckets: b2,
                    count: c2,
                    ..
                },
            ) => {
                for (a, b) in buckets.iter_mut().zip(b2.iter()) {
                    *a += b;
                }
                *count += c2;
            }
            (a, b) => unreachable!("mismatched aggregate partials: {a:?} vs {b:?}"),
        }
    }

    /// Produces the output cell.
    pub(crate) fn finalize(&self, spec: &AggSpec) -> Value {
        match self {
            AggPartial::Count(n) => Value::I64(*n as i64),
            AggPartial::SumI { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else if matches!(spec, AggSpec::Mean(_)) {
                    Value::F64(*sum as f64 / *count as f64)
                } else {
                    Value::F64(*sum as f64)
                }
            }
            AggPartial::SumF { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else if matches!(spec, AggSpec::Mean(_)) {
                    Value::F64(*sum / *count as f64)
                } else {
                    Value::F64(*sum)
                }
            }
            AggPartial::MinI(m) | AggPartial::MaxI(m) => m.map_or(Value::Null, Value::I64),
            AggPartial::MinF(m) | AggPartial::MaxF(m) => m.map_or(Value::Null, Value::F64),
            AggPartial::Hist { buckets, count, q } => {
                if *count == 0 {
                    return Value::Null;
                }
                // Rank of the requested quantile, 1-based, clamped.
                let rank = ((*q * *count as f64).ceil() as u64).clamp(1, *count);
                let mut seen = 0u64;
                for (i, n) in buckets.iter().enumerate() {
                    seen += n;
                    if seen >= rank {
                        return match bucket_upper_bound(i) {
                            Some(ub) => Value::F64(ub as f64),
                            None => Value::F64(f64::INFINITY),
                        };
                    }
                }
                Value::Null // unreachable: count > 0 implies a bucket hit
            }
        }
    }
}

/// Calls `f` with every selected non-NULL value of a slab, in ascending
/// row order.
fn for_each_value<T: Copy>(vals: &[T], nulls: &Bitmap, sel: Option<&Bitmap>, mut f: impl FnMut(T)) {
    match sel {
        None if nulls.count_ones() == 0 => vals.iter().for_each(|&v| f(v)),
        _ => selected_rows(sel, vals.len())
            .filter(|&i| !nulls.get(i))
            .for_each(|i| f(vals[i])),
    }
}

fn cell_f64(cell: CellRef<'_>) -> Option<f64> {
    match cell {
        CellRef::I64(v) => Some(v as f64),
        CellRef::F64(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(spec: &AggSpec, cells: &[CellRef<'_>]) -> Value {
        let mut p = AggPartial::new(spec, false);
        for &c in cells {
            p.update(c);
        }
        p.finalize(spec)
    }

    #[test]
    fn integer_mean_matches_row_engine_avg() {
        // Row engine: sum of as_real in order / count → (36+25)/2.
        let v = fold(
            &AggSpec::Mean("age".into()),
            &[CellRef::I64(36), CellRef::Null, CellRef::I64(25)],
        );
        assert_eq!(v, Value::F64(30.5));
    }

    #[test]
    fn empty_aggregates_are_null_and_count_is_zero() {
        assert_eq!(
            fold(&AggSpec::Mean("x".into()), &[CellRef::Null]),
            Value::Null
        );
        assert_eq!(fold(&AggSpec::Sum("x".into()), &[]), Value::Null);
        assert_eq!(fold(&AggSpec::Min("x".into()), &[]), Value::Null);
        assert_eq!(fold(&AggSpec::Count, &[]), Value::I64(0));
        assert_eq!(
            fold(&AggSpec::Count, &[CellRef::Null, CellRef::I64(1)]),
            Value::I64(2),
            "count counts rows, not non-nulls"
        );
    }

    #[test]
    fn min_max_over_integers() {
        let cells = [
            CellRef::I64(5),
            CellRef::I64(-2),
            CellRef::Null,
            CellRef::I64(9),
        ];
        assert_eq!(fold(&AggSpec::Min("x".into()), &cells), Value::I64(-2));
        assert_eq!(fold(&AggSpec::Max("x".into()), &cells), Value::I64(9));
    }

    #[test]
    fn merge_in_partition_order_is_exact_for_integers() {
        let spec = AggSpec::Sum("x".into());
        let mut a = AggPartial::new(&spec, false);
        let mut b = AggPartial::new(&spec, false);
        for v in [1i64 << 40, 3, 5] {
            a.update(CellRef::I64(v));
        }
        for v in [7i64, 1 << 41] {
            b.update(CellRef::I64(v));
        }
        let mut serial = AggPartial::new(&spec, false);
        for v in [1i64 << 40, 3, 5, 7, 1 << 41] {
            serial.update(CellRef::I64(v));
        }
        a.merge(&b);
        assert_eq!(a.finalize(&spec), serial.finalize(&spec));
    }

    #[test]
    fn quantile_uses_log2_buckets_and_saturates_negatives() {
        let spec = AggSpec::Quantile("x".into(), 0.5);
        // Values 1..=8: median rank 4 → value 4 → bucket [4,8) → ub 8.
        let cells: Vec<CellRef<'_>> = (1..=8i64).map(CellRef::I64).collect();
        assert_eq!(fold(&spec, &cells), Value::F64(8.0));
        assert_eq!(
            fold(&spec, &[CellRef::I64(-5), CellRef::I64(-1)]),
            Value::F64(2.0),
            "negatives land in bucket 0 (upper bound 2)"
        );
        assert_eq!(fold(&spec, &[]), Value::Null);
        // p100 of a huge value lands in the unbounded bucket.
        assert_eq!(
            fold(
                &AggSpec::Quantile("x".into(), 1.0),
                &[CellRef::I64(i64::MAX)]
            ),
            Value::F64(f64::INFINITY)
        );
    }

    #[test]
    fn agg_names_and_rename() {
        assert_eq!(Agg::count().name, "count");
        assert_eq!(Agg::mean("T").name, "mean(T)");
        assert_eq!(Agg::quantile("T", 0.95).name, "p95(T)");
        assert_eq!(Agg::sum("T").named("total").name, "total");
        assert_eq!(Agg::mean("T").input_column(), Some("T"));
        assert_eq!(Agg::count().input_column(), None);
    }
}
