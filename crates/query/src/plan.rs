//! The logical plan builder ([`Scan`]) and result container ([`Frame`]).

use crate::agg::Agg;
use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::QueryError;
use crate::exec;
use crate::expr::Expr;

/// A scan of one dataset table: the single query entry point.
///
/// Chain [`filter`](Scan::filter), [`group_by`](Scan::group_by),
/// [`agg`](Scan::agg), [`select`](Scan::select) and
/// [`sort_by`](Scan::sort_by), then call [`collect`](Scan::collect).
///
/// Results are deterministic and bit-identical regardless of the worker
/// count: partitions are scanned in parallel but merged in partition
/// order, the same discipline the campaign layer uses for replications.
#[derive(Debug, Clone)]
#[must_use = "a Scan does nothing until collect() is called"]
pub struct Scan<'a> {
    pub(crate) ds: &'a Dataset,
    pub(crate) table: String,
    pub(crate) filter: Option<Expr>,
    pub(crate) group_by: Vec<String>,
    pub(crate) aggs: Vec<Agg>,
    pub(crate) project: Option<Vec<String>>,
    pub(crate) sort: Option<String>,
    pub(crate) workers: usize,
}

impl<'a> Scan<'a> {
    pub(crate) fn new(ds: &'a Dataset, table: String) -> Self {
        Self {
            ds,
            table,
            filter: None,
            group_by: Vec::new(),
            aggs: Vec::new(),
            project: None,
            sort: None,
            workers: 0,
        }
    }

    /// Adds a row filter; repeated calls AND together.
    pub fn filter(mut self, expr: Expr) -> Self {
        self.filter = Some(match self.filter.take() {
            None => expr,
            Some(prev) => prev.and(expr),
        });
        self
    }

    /// Groups by the given columns (aggregate mode). With no `group_by`
    /// but aggregates present, the whole table forms one group.
    pub fn group_by<S: Into<String>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        self.group_by = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the aggregates to compute (aggregate mode).
    pub fn agg(mut self, aggs: impl IntoIterator<Item = Agg>) -> Self {
        self.aggs = aggs.into_iter().collect();
        self
    }

    /// Projects the given columns (row mode; default is all columns).
    pub fn select<S: Into<String>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        self.project = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Orders rows by a column **within each partition** (row mode).
    /// The global order is therefore `(partition key, column, insertion)`
    /// — for `RunID`-partitioned data this is `ORDER BY RunID, column`.
    pub fn sort_by(mut self, column: impl Into<String>) -> Self {
        self.sort = Some(column.into());
        self
    }

    /// Sets the worker count for this scan. `0`, the default, means
    /// auto (available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Executes the scan.
    pub fn collect(self) -> Result<Frame, QueryError> {
        exec::execute(self)
    }
}

/// A materialised query result: named columns over value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows, one `Value` per column.
    pub rows: Vec<Vec<Value>>,
}

impl Frame {
    /// FNV-1a digest of the frame's canonical byte encoding (column
    /// names plus every cell, floats by bit pattern). Equal digests ⇔
    /// bit-identical frames; the determinism suite compares serial and
    /// parallel scans through this.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.columns.len() as u64).to_le_bytes());
        for c in &self.columns {
            eat(&(c.len() as u64).to_le_bytes());
            eat(c.as_bytes());
        }
        eat(&(self.rows.len() as u64).to_le_bytes());
        for row in &self.rows {
            for v in row {
                match v {
                    Value::Null => eat(&[0]),
                    Value::I64(x) => {
                        eat(&[1]);
                        eat(&x.to_le_bytes());
                    }
                    Value::F64(x) => {
                        eat(&[2]);
                        eat(&x.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        eat(&[3]);
                        eat(&(s.len() as u64).to_le_bytes());
                        eat(s.as_bytes());
                    }
                    Value::Bytes(b) => {
                        eat(&[4]);
                        eat(&(b.len() as u64).to_le_bytes());
                        eat(b);
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame {
            columns: vec!["RunID".into(), "count".into()],
            rows: vec![
                vec![Value::I64(0), Value::I64(3)],
                vec![Value::I64(1), Value::I64(5)],
            ],
        }
    }

    #[test]
    fn digest_distinguishes_values_and_layout() {
        let base = frame();
        assert_eq!(base.digest(), frame().digest(), "stable");
        let mut renamed = frame();
        renamed.columns[1] = "n".into();
        assert_ne!(base.digest(), renamed.digest());
        let mut edited = frame();
        edited.rows[1][1] = Value::I64(6);
        assert_ne!(base.digest(), edited.digest());
        let mut retyped = frame();
        retyped.rows[1][1] = Value::F64(5.0);
        assert_ne!(base.digest(), retyped.digest(), "I64(5) != F64(5.0)");
        // -0.0 and 0.0 differ by bit pattern, and the digest sees bits.
        let a = Frame {
            columns: vec!["x".into()],
            rows: vec![vec![Value::F64(0.0)]],
        };
        let b = Frame {
            columns: vec!["x".into()],
            rows: vec![vec![Value::F64(-0.0)]],
        };
        assert_ne!(a.digest(), b.digest());
    }
}
