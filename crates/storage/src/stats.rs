//! Table and column statistics.
//!
//! The paper's shadow database replicates the backend's *statistics* so the
//! cache server can cost plans locally without fetching anything (§3, §5).
//! We model SQL Server-style statistics: per-table row counts and per-column
//! min/max, null count, distinct-value estimates and an equi-depth
//! histogram. These are plain data — cheap to copy into a shadow catalog —
//! and carry all the estimation entry points the optimizer uses.

use std::collections::BTreeMap;

use mtc_types::Value;

/// Number of buckets an equi-depth histogram carries by default.
pub const DEFAULT_BUCKETS: usize = 32;

/// An equi-depth histogram over one column's non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper boundary (inclusive) of each bucket, ascending.
    pub bounds: Vec<Value>,
    /// Rows per bucket (all buckets hold ~the same count by construction).
    pub rows_per_bucket: f64,
}

impl Histogram {
    /// Builds an equi-depth histogram from a sorted multiset of values.
    pub fn build(sorted: &[Value], buckets: usize) -> Option<Histogram> {
        if sorted.is_empty() || buckets == 0 {
            return None;
        }
        let buckets = buckets.min(sorted.len());
        let per = sorted.len() as f64 / buckets as f64;
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            let idx = ((b as f64 * per).ceil() as usize).min(sorted.len()) - 1;
            bounds.push(sorted[idx].clone());
        }
        bounds.dedup();
        let rows_per_bucket = sorted.len() as f64 / bounds.len() as f64;
        Some(Histogram {
            bounds,
            rows_per_bucket,
        })
    }

    /// Fraction of values `<= v` (0..=1).
    pub fn fraction_le(&self, v: &Value) -> f64 {
        if self.bounds.is_empty() {
            return 0.5;
        }
        let full = self.bounds.partition_point(|b| b <= v);
        if full == self.bounds.len() {
            return 1.0;
        }
        // Assume the value falls halfway through the bucket it lands in.
        (full as f64 + 0.5) / self.bounds.len() as f64
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
    pub distinct_count: u64,
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Computes stats from a column's values.
    pub fn compute(values: &mut Vec<Value>) -> ColumnStats {
        let null_count = values.iter().filter(|v| v.is_null()).count() as u64;
        values.retain(|v| !v.is_null());
        values.sort();
        let distinct_count = {
            let mut n = 0u64;
            let mut prev: Option<&Value> = None;
            for v in values.iter() {
                if prev != Some(v) {
                    n += 1;
                    prev = Some(v);
                }
            }
            n
        };
        ColumnStats {
            min: values.first().cloned(),
            max: values.last().cloned(),
            null_count,
            distinct_count,
            histogram: Histogram::build(values, DEFAULT_BUCKETS),
        }
    }

    /// Selectivity of `col = v` (fraction of rows).
    pub fn selectivity_eq(&self, total_rows: u64) -> f64 {
        if total_rows == 0 {
            return 0.0;
        }
        if self.distinct_count > 0 {
            1.0 / self.distinct_count as f64
        } else {
            0.1 // SQL Server-style magic default
        }
    }

    /// Selectivity of `col <= v`.
    pub fn selectivity_le(&self, v: &Value) -> f64 {
        // Clamp with min/max first: histograms only know bucket bounds.
        if let Some(min) = &self.min {
            if v < min {
                return 0.0;
            }
        }
        if let Some(max) = &self.max {
            if v >= max {
                return 1.0;
            }
        }
        match (&self.histogram, &self.min, &self.max) {
            (Some(h), _, _) => h.fraction_le(v),
            (None, Some(min), Some(max)) => uniform_fraction(min, max, v),
            _ => 0.3, // magic default for missing stats
        }
    }

    /// Selectivity of `col < v` — approximated by `<=` minus one distinct
    /// value's worth.
    pub fn selectivity_lt(&self, v: &Value) -> f64 {
        let le = self.selectivity_le(v);
        if self.distinct_count > 0 {
            (le - 1.0 / self.distinct_count as f64).max(0.0)
        } else {
            le * 0.9
        }
    }

    /// Probability that a uniformly drawn parameter in `[min, max]` is
    /// `<= v` — the paper's §5.1 frequency estimate `Fl` for ChoosePlan
    /// guard predicates ("lacking any better information, we estimate Fl
    /// assuming the parameter is uniformly distributed between the min and
    /// max values of the column").
    pub fn guard_probability_le(&self, v: &Value) -> f64 {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => uniform_fraction(min, max, v),
            _ => 0.5,
        }
    }
}

/// Fraction of `[min, max]` that lies at or below `v`, assuming uniformity.
fn uniform_fraction(min: &Value, max: &Value, v: &Value) -> f64 {
    match (min.as_f64(), max.as_f64(), v.as_f64()) {
        (Some(lo), Some(hi), Some(x)) if hi > lo => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
        _ => {
            // Non-numeric: fall back to ordering only.
            if v < min {
                0.0
            } else if v >= max {
                1.0
            } else {
                0.5
            }
        }
    }
}

/// Statistics for one table (or materialized view).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub row_count: u64,
    /// Column name → stats.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    pub fn empty() -> TableStats {
        TableStats {
            row_count: 0,
            columns: BTreeMap::new(),
        }
    }

    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_values(n: i64) -> Vec<Value> {
        (1..=n).map(Value::Int).collect()
    }

    #[test]
    fn compute_basic_stats() {
        let mut vals = int_values(100);
        vals.push(Value::Null);
        let s = ColumnStats::compute(&mut vals);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(100)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct_count, 100);
        assert!(s.histogram.is_some());
    }

    #[test]
    fn histogram_fraction_le_is_monotone_and_accurate() {
        let mut vals = int_values(1000);
        let s = ColumnStats::compute(&mut vals);
        let f250 = s.selectivity_le(&Value::Int(250));
        let f500 = s.selectivity_le(&Value::Int(500));
        let f900 = s.selectivity_le(&Value::Int(900));
        assert!(f250 < f500 && f500 < f900);
        assert!((f500 - 0.5).abs() < 0.05, "got {f500}");
        assert!((f250 - 0.25).abs() < 0.05, "got {f250}");
    }

    #[test]
    fn selectivity_eq_uses_distinct_count() {
        let mut vals = int_values(200);
        let s = ColumnStats::compute(&mut vals);
        assert!((s.selectivity_eq(200) - 1.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn guard_probability_matches_paper_uniform_assumption() {
        // Cust1000 example: cid uniform over [1, 10000]; guard @cid <= 1000.
        let mut vals = int_values(10_000);
        let s = ColumnStats::compute(&mut vals);
        let fl = s.guard_probability_le(&Value::Int(1000));
        assert!((fl - 0.1).abs() < 0.01, "got {fl}");
    }

    #[test]
    fn skewed_histogram_beats_uniform() {
        // 90% of values are 1..=100, 10% spread to 1000.
        let mut vals: Vec<Value> = (0..900).map(|i| Value::Int(i % 100 + 1)).collect();
        vals.extend((0..100).map(|i| Value::Int(100 + i * 9)));
        let s = ColumnStats::compute(&mut vals);
        let sel = s.selectivity_le(&Value::Int(100));
        assert!(sel > 0.8, "histogram should capture the skew, got {sel}");
    }

    #[test]
    fn empty_and_constant_columns() {
        let mut empty: Vec<Value> = vec![];
        let s = ColumnStats::compute(&mut empty);
        assert_eq!(s.min, None);
        assert!(s.histogram.is_none());

        let mut constant = vec![Value::Int(7); 50];
        let s = ColumnStats::compute(&mut constant);
        assert_eq!(s.distinct_count, 1);
        assert_eq!(s.selectivity_le(&Value::Int(7)), 1.0);
        assert_eq!(s.selectivity_le(&Value::Int(6)), 0.0);
    }
}
