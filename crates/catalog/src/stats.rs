//! Relation statistics and selectivity estimation.
//!
//! The paper's Strategy 3 is motivated by "the cardinality of range
//! relations has a very strong impact on the time and storage consumption of
//! query evaluation".  The planner therefore needs (cheap) cardinality and
//! selectivity estimates to decide scan orders and whether a Strategy 4
//! rewrite pays off.  The statistics here are computed in a single pass over
//! a relation: cardinality, per-component distinct counts and min/max, plus
//! a small equi-width histogram for integer components that refines range
//! selectivities beyond the uniform `[min, max]` interpolation.
//!
//! Statistics are *advisory*: they are computed by an explicit ANALYZE
//! ([`crate::Catalog::analyze_relation`]) and may be stale with respect to
//! the live relation contents.  Consumers (the cost-based optimizer) only
//! use them for ordering and strategy decisions, never for correctness.

use std::collections::{BTreeMap, HashSet};

use pascalr_relation::{CompareOp, Relation, Value};

/// Number of buckets of the per-column equi-width histograms.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A small equi-width histogram over an integer component's `[min, max]`
/// range.  Bucket `i` counts the values in
/// `[min + i*width, min + (i+1)*width)` (the last bucket is closed).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower bound of the first bucket (the observed minimum).
    pub min: i64,
    /// Upper bound of the last bucket (the observed maximum).
    pub max: i64,
    /// Per-bucket counts.
    pub buckets: Vec<u64>,
    /// Total number of counted values.
    pub total: u64,
}

impl Histogram {
    /// Builds an equi-width histogram from observed integer values.
    /// Returns `None` when there is nothing to count or no spread.
    fn build(min: i64, max: i64, values: &[i64]) -> Option<Histogram> {
        if values.is_empty() || max <= min {
            return None;
        }
        // Widen before subtracting: an unconstrained integer column may
        // span more than i64::MAX (e.g. min = i64::MIN, max = i64::MAX).
        let span = (max as i128 - min as i128) as u128 + 1;
        let nbuckets = span.min(HISTOGRAM_BUCKETS as u128) as usize;
        let mut buckets = vec![0u64; nbuckets];
        for &v in values {
            let off = (v as i128 - min as i128) as u128;
            let idx = ((off * nbuckets as u128) / span) as usize;
            buckets[idx.min(nbuckets - 1)] += 1;
        }
        Some(Histogram {
            min,
            max,
            buckets,
            total: values.len() as u64,
        })
    }

    /// The width of one bucket (as a fraction of the value domain).
    fn bucket_span(&self) -> f64 {
        ((self.max as i128 - self.min as i128) as f64 + 1.0) / self.buckets.len() as f64
    }

    /// Estimated fraction of values `< c`, interpolating linearly within
    /// the bucket containing `c`.
    pub fn fraction_below(&self, c: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if c <= self.min {
            return 0.0;
        }
        if c > self.max {
            return 1.0;
        }
        let span = self.bucket_span();
        let pos = (c as i128 - self.min as i128) as f64 / span;
        let idx = (pos as usize).min(self.buckets.len() - 1);
        let within = pos - idx as f64;
        let below: u64 = self.buckets[..idx].iter().sum();
        (below as f64 + self.buckets[idx] as f64 * within) / self.total as f64
    }
}

/// Statistics for a single component of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Component name.
    pub name: String,
    /// Number of distinct values observed.
    pub distinct: u64,
    /// Minimum value (as display string, for reporting only).
    pub min_display: Option<String>,
    /// Maximum value (as display string, for reporting only).
    pub max_display: Option<String>,
    /// Minimum value if the component is an integer.
    pub min_int: Option<i64>,
    /// Maximum value if the component is an integer.
    pub max_int: Option<i64>,
    /// Equi-width histogram for integer components with spread.
    pub histogram: Option<Histogram>,
}

/// Statistics for a whole relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Relation name.
    pub relation: String,
    /// Number of elements.
    pub cardinality: u64,
    /// Per-component statistics, keyed by component name.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl RelationStats {
    /// Computes statistics from a relation in one pass.
    pub fn compute(rel: &Relation) -> Self {
        RelationStats::compute_counted(rel).0
    }

    /// Like [`RelationStats::compute`], but also reports how many [`Value`]
    /// clones the computation performed.  The pass deduplicates through
    /// *borrowed* keys and tracks the running min/max by reference, so the
    /// clone count is bounded by two per column (the final min/max
    /// extraction) — never by the relation cardinality.  The count is the
    /// regression guard for that bound.
    pub fn compute_counted(rel: &Relation) -> (Self, usize) {
        let arity = rel.schema().arity();
        let mut clones = 0usize;
        let mut distinct: Vec<HashSet<&Value>> = vec![HashSet::new(); arity];
        let mut mins: Vec<Option<&Value>> = vec![None; arity];
        let mut maxs: Vec<Option<&Value>> = vec![None; arity];
        // Integer component values for the histograms (i64 is `Copy`, so
        // collecting them clones no `Value`).
        let mut ints: Vec<Vec<i64>> = vec![Vec::new(); arity];
        for t in rel.tuples() {
            for i in 0..arity {
                let v = t.get(i);
                distinct[i].insert(v);
                match mins[i] {
                    None => mins[i] = Some(v),
                    Some(m) => {
                        if v.try_compare(m).is_ok_and(std::cmp::Ordering::is_lt) {
                            mins[i] = Some(v);
                        }
                    }
                }
                match maxs[i] {
                    None => maxs[i] = Some(v),
                    Some(m) => {
                        if v.try_compare(m).is_ok_and(std::cmp::Ordering::is_gt) {
                            maxs[i] = Some(v);
                        }
                    }
                }
                if let Some(x) = v.as_int() {
                    ints[i].push(x);
                }
            }
        }
        let mut columns = BTreeMap::new();
        for (i, attr) in rel.schema().attributes.iter().enumerate() {
            let min_owned: Option<Value> = mins[i].map(|v| {
                clones += 1;
                v.clone()
            });
            let max_owned: Option<Value> = maxs[i].map(|v| {
                clones += 1;
                v.clone()
            });
            let min_int = min_owned.as_ref().and_then(pascalr_relation::Value::as_int);
            let max_int = max_owned.as_ref().and_then(pascalr_relation::Value::as_int);
            let histogram = match (min_int, max_int) {
                (Some(lo), Some(hi)) => Histogram::build(lo, hi, &ints[i]),
                _ => None,
            };
            columns.insert(
                attr.name.to_string(),
                ColumnStats {
                    name: attr.name.to_string(),
                    distinct: distinct[i].len() as u64,
                    min_display: min_owned.as_ref().map(std::string::ToString::to_string),
                    max_display: max_owned.as_ref().map(std::string::ToString::to_string),
                    min_int,
                    max_int,
                    histogram,
                },
            );
        }
        (
            RelationStats {
                relation: rel.name().to_string(),
                cardinality: rel.cardinality() as u64,
                columns,
            },
            clones,
        )
    }

    /// Statistics of a component, if known.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Estimates the selectivity (fraction of elements retained) of the
    /// monadic join term `attr OP constant`.
    ///
    /// Uses the per-column histogram for integer range comparisons where
    /// available, a uniform-distribution assumption over the observed
    /// `[min, max]` range otherwise, and `1/distinct` for equality; the
    /// estimates only need to be good enough for ordering decisions.
    pub fn estimate_selectivity(&self, attr: &str, op: CompareOp, constant: &Value) -> f64 {
        let Some(col) = self.columns.get(attr) else {
            return 0.5;
        };
        if self.cardinality == 0 {
            return 0.0;
        }
        let eq_fraction = if col.distinct == 0 {
            0.0
        } else {
            1.0 / col.distinct as f64
        };
        match op {
            CompareOp::Eq => eq_fraction,
            CompareOp::Ne => 1.0 - eq_fraction,
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                let below = match (constant.as_int(), &col.histogram) {
                    (Some(c), Some(h)) => Some(h.fraction_below(c)),
                    (Some(c), None) => match (col.min_int, col.max_int) {
                        (Some(min), Some(max)) if max > min => {
                            Some(((c - min) as f64 / (max - min) as f64).clamp(0.0, 1.0))
                        }
                        _ => None,
                    },
                    _ => None,
                };
                match below {
                    Some(below) => match op {
                        CompareOp::Lt => below,
                        CompareOp::Le => (below + eq_fraction).min(1.0),
                        CompareOp::Gt => 1.0 - (below + eq_fraction).min(1.0),
                        CompareOp::Ge => 1.0 - below,
                        _ => unreachable!(),
                    },
                    None => 0.33,
                }
            }
        }
    }

    /// Estimated number of elements retained by `attr OP constant`.
    pub fn estimate_filtered_cardinality(
        &self,
        attr: &str,
        op: CompareOp,
        constant: &Value,
    ) -> f64 {
        self.cardinality as f64 * self.estimate_selectivity(attr, op, constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::{Attribute, RelationSchema, Tuple, ValueType};

    fn numbers(n: i64) -> Relation {
        let schema = RelationSchema::all_key(
            "nums",
            vec![
                Attribute::new("id", ValueType::int()),
                Attribute::new("grp", ValueType::int()),
            ],
        );
        let mut r = Relation::new(schema);
        for i in 1..=n {
            r.insert(Tuple::new(vec![Value::int(i), Value::int(i % 10)]))
                .unwrap();
        }
        r
    }

    #[test]
    fn compute_counts_distinct_min_max() {
        let r = numbers(100);
        let s = RelationStats::compute(&r);
        assert_eq!(s.cardinality, 100);
        let id = s.column("id").unwrap();
        assert_eq!(id.distinct, 100);
        assert_eq!(id.min_int, Some(1));
        assert_eq!(id.max_int, Some(100));
        let grp = s.column("grp").unwrap();
        assert_eq!(grp.distinct, 10);
        assert!(s.column("missing").is_none());
    }

    #[test]
    fn empty_relation_stats() {
        let r = numbers(0);
        let s = RelationStats::compute(&r);
        assert_eq!(s.cardinality, 0);
        assert_eq!(s.column("id").unwrap().distinct, 0);
        assert!(s.column("id").unwrap().histogram.is_none());
        assert_eq!(
            s.estimate_selectivity("id", CompareOp::Eq, &Value::int(1)),
            0.0
        );
    }

    #[test]
    fn equality_selectivity_uses_distinct_count() {
        let r = numbers(100);
        let s = RelationStats::compute(&r);
        let sel = s.estimate_selectivity("grp", CompareOp::Eq, &Value::int(3));
        assert!((sel - 0.1).abs() < 1e-9);
        let sel_ne = s.estimate_selectivity("grp", CompareOp::Ne, &Value::int(3));
        assert!((sel_ne - 0.9).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let r = numbers(100);
        let s = RelationStats::compute(&r);
        let sel = s.estimate_selectivity("id", CompareOp::Le, &Value::int(50));
        assert!(sel > 0.4 && sel < 0.6, "sel={sel}");
        let sel_hi = s.estimate_selectivity("id", CompareOp::Gt, &Value::int(90));
        assert!(sel_hi < 0.2, "sel_hi={sel_hi}");
        let est = s.estimate_filtered_cardinality("id", CompareOp::Le, &Value::int(50));
        assert!(est > 40.0 && est < 60.0);
    }

    #[test]
    fn unknown_column_and_non_integer_constants_fall_back() {
        let r = numbers(10);
        let s = RelationStats::compute(&r);
        assert_eq!(
            s.estimate_selectivity("missing", CompareOp::Eq, &Value::int(1)),
            0.5
        );
        let sel = s.estimate_selectivity("id", CompareOp::Lt, &Value::str("x"));
        assert!((sel - 0.33).abs() < 1e-9);
    }

    #[test]
    fn histogram_reflects_skew_better_than_uniform_interpolation() {
        // 90 values at 1..=9 plus one outlier at 1000: uniform
        // interpolation over [1, 1000] would put "< 500" at ~0.5; the
        // histogram knows ~99% of the mass sits in the first bucket.
        let schema = RelationSchema::all_key(
            "skew",
            vec![
                Attribute::new("k", ValueType::int()),
                Attribute::new("v", ValueType::int()),
            ],
        );
        let mut r = Relation::new(schema);
        for k in 0..90i64 {
            r.insert(Tuple::new(vec![Value::int(k), Value::int(1 + (k % 9))]))
                .unwrap();
        }
        r.insert(Tuple::new(vec![Value::int(1000), Value::int(1000)]))
            .unwrap();
        let s = RelationStats::compute(&r);
        let h = s.column("v").unwrap().histogram.as_ref().unwrap();
        assert!(h.fraction_below(500) > 0.95, "{}", h.fraction_below(500));
        let sel = s.estimate_selectivity("v", CompareOp::Lt, &Value::int(500));
        assert!(sel > 0.9, "histogram-backed selectivity, got {sel}");
        // Bounds behave.
        assert_eq!(h.fraction_below(h.min), 0.0);
        assert_eq!(h.fraction_below(h.max + 1), 1.0);
    }

    #[test]
    fn histogram_survives_the_full_i64_span() {
        // An unconstrained integer column holding both i64 extremes: the
        // span exceeds i64::MAX, so the bucket arithmetic must widen
        // before subtracting instead of overflowing (or, in release,
        // wrapping into a zero-bucket divide).
        let schema =
            RelationSchema::all_key("extremes", vec![Attribute::new("v", ValueType::int())]);
        let mut r = Relation::new(schema);
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            r.insert(Tuple::new(vec![Value::int(v)])).unwrap();
        }
        let s = RelationStats::compute(&r);
        let col = s.column("v").unwrap();
        assert_eq!(col.min_int, Some(i64::MIN));
        assert_eq!(col.max_int, Some(i64::MAX));
        let h = col.histogram.as_ref().unwrap();
        assert_eq!(h.total, 5);
        assert_eq!(h.fraction_below(i64::MIN), 0.0);
        // At f64 precision the exact fraction at the extremes is lossy;
        // it must stay a valid fraction and be monotone.
        let at_max = h.fraction_below(i64::MAX);
        assert!((0.0..=1.0).contains(&at_max), "{at_max}");
        assert!(h.fraction_below(0) <= at_max);
        let sel = s.estimate_selectivity("v", CompareOp::Lt, &Value::int(2));
        assert!((0.0..=1.0).contains(&sel));
    }

    #[test]
    fn compute_clones_at_most_two_values_per_column() {
        // The satellite guard: ANALYZE must never copy the relation.  A
        // 576-element relation (the scale-24 university employee count)
        // with string and integer components must clone exactly the final
        // min/max per column — 2 * arity — not O(cardinality).
        let schema = RelationSchema::all_key(
            "big",
            vec![
                Attribute::new("id", ValueType::int()),
                Attribute::new("name", ValueType::string(16)),
                Attribute::new("grp", ValueType::int()),
            ],
        );
        let mut r = Relation::new(schema);
        for i in 0..576i64 {
            r.insert(Tuple::new(vec![
                Value::int(i),
                Value::str(format!("N{i:05}")),
                Value::int(i % 7),
            ]))
            .unwrap();
        }
        let (stats, clones) = RelationStats::compute_counted(&r);
        assert_eq!(stats.cardinality, 576);
        assert_eq!(stats.column("id").unwrap().distinct, 576);
        assert!(
            clones <= 2 * r.schema().arity(),
            "stats computation cloned {clones} values for arity {}",
            r.schema().arity()
        );
    }
}
