//! The cost model: predicts the paper's observable costs for one candidate
//! plan shape.
//!
//! The model mirrors the executor's combination-phase stage assembly
//! (`pascalr-exec`'s `conjunction_assembly`) numerically: for every
//! conjunction it walks the variables in the same order the executor
//! assembles them — support variables by descending dyadic-term count, then
//! connected ones, then the expansion variables the conjunction does not
//! mention — multiplying estimated candidate counts and join selectivities.
//! The outputs are the quantities `pascalr-storage` counts at runtime
//! (tuples read, comparisons, intermediate tuples, dereferences), so
//! estimated and actual cost live in the same units.

use pascalr_calculus::{Conjunction, Quantifier, RangeExpr, StandardizedSelection, Term, VarName};
use pascalr_relation::CompareOp;

use crate::access::{assembly_order, covering_range_indexes};
use crate::selectivity::{dyadic_selectivity, monadic_selectivity, restriction_selectivity};
use crate::view::StatsView;

/// Which of the paper's Section 4 optimizations a candidate plan applies.
/// This is the optimizer-side mirror of the planner's strategy levels,
/// expressed as independent capabilities so the model needs no dependency
/// on the planner crate.
///
/// Only `parallel_scans` and `one_step` change the model's arithmetic
/// directly.  The Strategy 3/4 effects reach [`estimate_plan`] through the
/// *inputs* instead — an S3+ `prepared` form carries restricted ranges and
/// fewer conjunctions, an S4 plan passes its quantifier steps — so
/// `extended_ranges` and `collection_quantifiers` record the repertoire
/// for reporting and must be paired with a matching plan shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyFeatures {
    /// Strategy 1: all join-term work on a relation happens in one scan.
    pub parallel_scans: bool,
    /// Strategy 2: indirect joins are probed through equality indexes.
    pub one_step: bool,
    /// Strategy 3: monadic restrictions are folded into extended ranges
    /// (structural: expressed through the prepared form passed to the
    /// model).
    pub extended_ranges: bool,
    /// Strategy 4: quantifiers evaluated in the collection phase
    /// (structural: expressed through the steps passed to the model).
    pub collection_quantifiers: bool,
}

/// Relative weights that collapse a [`CostEstimate`] into one scalar.
///
/// Tuples read and comparisons are unit work; materializing an intermediate
/// tuple and dereferencing cost more (they allocate / chase references).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of one element read from a database relation.
    pub tuple_read: f64,
    /// Weight of one join-term / value comparison.
    pub comparison: f64,
    /// Weight of one tuple materialized into an intermediate structure.
    pub intermediate: f64,
    /// Weight of one reference dereference.
    pub dereference: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            tuple_read: 1.0,
            comparison: 1.0,
            intermediate: 2.0,
            dereference: 2.0,
        }
    }
}

/// Predicted values of the paper's observable cost counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Elements read from database relations.
    pub tuples_read: f64,
    /// Join-term / value comparisons.
    pub comparisons: f64,
    /// Tuples materialized into intermediate structures.
    pub intermediates: f64,
    /// Reference dereferences (construction phase).
    pub dereferences: f64,
}

impl CostEstimate {
    /// The weighted scalar cost.
    pub fn total(&self, weights: &CostWeights) -> f64 {
        self.tuples_read * weights.tuple_read
            + self.comparisons * weights.comparison
            + self.intermediates * weights.intermediate
            + self.dereferences * weights.dereference
    }
}

/// The optimizer-side summary of one Strategy 4 collection-phase quantifier
/// step (the planner's `SemijoinStep`, minus the fields the model does not
/// need).
#[derive(Debug, Clone)]
pub struct SemijoinInfo {
    /// The quantifier evaluated early.
    pub quantifier: Quantifier,
    /// The bound variable removed from the prefix.
    pub bound_var: VarName,
    /// Its (possibly extended) range.
    pub range: RangeExpr,
    /// Monadic filters applied while building the value list.
    pub monadic_filters: Vec<Term>,
    /// Number of dyadic links to the target variable.
    pub links: usize,
    /// The target variable the derived predicate applies to.
    pub target_var: VarName,
    /// Index of the conjunction the step's terms were taken from.  The
    /// executor builds a single list for the target variable in that
    /// conjunction, which makes it a *support* variable of the stage
    /// assembly — the model mirrors this when predicting the assembly
    /// order (and therefore which side of an equality term is probed).
    pub conjunction: usize,
}

/// Estimated output cardinality of one conjunction of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctionEstimate {
    /// Conjunction index (0-based, matching the prepared matrix).
    pub index: usize,
    /// Estimated number of reference rows the conjunction contributes.
    pub rows: f64,
}

/// The full prediction for one candidate plan shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEstimate {
    /// Per-conjunction output-row estimates.
    pub per_conjunction: Vec<ConjunctionEstimate>,
    /// Estimated number of result tuples.
    pub result_rows: f64,
    /// Predicted cost counters.
    pub cost: CostEstimate,
}

/// Estimated number of elements a (possibly extended) range expression
/// yields for its variable (the statistics-backed cardinality of the
/// relation times the selectivity of the restriction, if any).
pub fn range_rows_estimate(range: &RangeExpr, var: &str, stats: &StatsView) -> f64 {
    let base = stats.cardinality(&range.relation);
    match &range.restriction {
        Some(f) => base * restriction_selectivity(f, var, &range.relation, stats),
        None => base,
    }
}

/// Whether a permanent index can serve the restricted range by probe
/// (mirrors the executor's `range_candidates_indexed` shape check via the
/// shared [`covering_range_indexes`]).
pub fn range_index_served(range: &RangeExpr, var: &str, stats: &StatsView) -> bool {
    !covering_range_indexes(stats.indexes(), range, var).is_empty()
}

/// Per-conjunction effective candidate count for `var`: its range rows
/// further restricted by the conjunction's monadic terms over it.
fn effective_rows(var: &VarName, range: &RangeExpr, conj: &Conjunction, stats: &StatsView) -> f64 {
    let mut rows = range_rows_estimate(range, var, stats);
    for t in conj.monadic_terms_over(var) {
        rows *= monadic_selectivity(t, var, &range.relation, stats);
    }
    rows.max(0.0)
}

/// The predicted assembly order of conjunction `ci`: the shared
/// [`assembly_order`] with the plan-time support predicate — the executor
/// builds a single list for every variable the conjunction mentions plus
/// every Strategy 4 derived-predicate target in the conjunction, so those
/// are the support variables here too.
fn predicted_order(
    conj: &Conjunction,
    ci: usize,
    all_vars: &[VarName],
    steps: &[SemijoinInfo],
) -> Vec<VarName> {
    assembly_order(conj, all_vars, |v| {
        conj.mentions(v)
            || steps
                .iter()
                .any(|s| s.conjunction == ci && s.target_var.as_ref() == v)
    })
}

/// Predicts the cost of executing `prepared` (plus the given Strategy 4
/// steps) under the given features.
///
/// The estimate is deliberately coarse — its job is to *rank* candidate
/// strategy levels and orderings, mirroring how the executor's work scales
/// with range cardinalities, not to predict absolute counter values.
pub fn estimate_plan(
    prepared: &StandardizedSelection,
    steps: &[SemijoinInfo],
    features: StrategyFeatures,
    stats: &StatsView,
) -> PlanEstimate {
    let _span = pascalr_obs::span!("estimate");
    // Variable -> range map over the combination variables (free + prefix).
    let ranges: Vec<(VarName, RangeExpr)> = prepared
        .free
        .iter()
        .map(|d| (d.var.clone(), d.range.clone()))
        .chain(
            prepared
                .form
                .prefix
                .iter()
                .map(|p| (p.var.clone(), p.range.clone())),
        )
        .collect();
    let all_vars: Vec<VarName> = ranges.iter().map(|(v, _)| v.clone()).collect();
    let range_of = |var: &str| -> Option<&RangeExpr> {
        ranges
            .iter()
            .find(|(v, _)| v.as_ref() == var)
            .map(|(_, r)| r)
    };

    let mut cost = CostEstimate::default();

    // --- Collection phase: scans and monadic filtering ------------------
    if features.parallel_scans {
        // One scan per distinct relation (ranges and step ranges alike) —
        // except relations whose every range lookup a permanent index
        // serves by probe: those pay point reads for the estimated
        // matches instead of a scan (the executor skips the scan too).
        let lookups: Vec<(&str, &RangeExpr)> = ranges
            .iter()
            .map(|(v, r)| (v.as_ref(), r))
            .chain(steps.iter().map(|s| (s.bound_var.as_ref(), &s.range)))
            .collect();
        let mut seen: Vec<&str> = Vec::new();
        for &(_, range) in &lookups {
            let rel = range.relation.as_ref();
            if seen.contains(&rel) {
                continue;
            }
            seen.push(rel);
            let over_rel: Vec<&(&str, &RangeExpr)> = lookups
                .iter()
                .filter(|(_, r)| r.relation.as_ref() == rel)
                .collect();
            if over_rel
                .iter()
                .all(|(v, r)| range_index_served(r, v, stats))
            {
                for (v, r) in over_rel {
                    cost.tuples_read += range_rows_estimate(r, v, stats);
                }
            } else {
                cost.tuples_read += stats.cardinality(rel);
            }
        }
    } else {
        // The naive baseline re-scans per range *and* per join term.
        for (_, range) in &ranges {
            cost.tuples_read += stats.cardinality(&range.relation);
        }
        for conj in &prepared.form.matrix {
            for t in &conj.terms {
                for v in t.vars() {
                    if let Some(r) = range_of(&v) {
                        cost.tuples_read += stats.cardinality(&r.relation);
                    }
                }
            }
        }
    }
    // Monadic terms are evaluated against every scanned element of their
    // variable's range.
    for conj in &prepared.form.matrix {
        for (var, range) in &ranges {
            let n = range_rows_estimate(range, var, stats);
            cost.comparisons += n * conj.monadic_terms_over(var).len() as f64;
        }
    }

    // Ephemeral index builds for equality join terms: the collection phase
    // hashes the smaller side of every equality indirect join — unless a
    // permanent index covers the side the combination phase will probe, in
    // which case neither the index nor the join pairs are materialized
    // (Section 3.2's omitted first step); the predicted build cost is
    // zeroed accordingly.
    for (ci, conj) in prepared.form.matrix.iter().enumerate() {
        let order = predicted_order(conj, ci, &all_vars, steps);
        for term in conj.terms.iter().filter(|t| t.is_dyadic()) {
            let tvars: Vec<VarName> = term.vars().into_iter().collect();
            if tvars.len() != 2 {
                continue;
            }
            let Some((a_attr, op, _, b_attr)) = term.as_dyadic_over(&tvars[0]) else {
                continue;
            };
            if op != CompareOp::Eq {
                continue;
            }
            let (Some(range_a), Some(range_b)) = (range_of(&tvars[0]), range_of(&tvars[1])) else {
                // One side is evaluated by a Strategy 4 step: no indirect
                // join, no index.
                continue;
            };
            let pos_a = order.iter().position(|v| v.as_ref() == tvars[0].as_ref());
            let pos_b = order.iter().position(|v| v.as_ref() == tvars[1].as_ref());
            let (probed_rel, probed_attr) = if pos_a > pos_b {
                (range_a.relation.as_ref(), a_attr.as_ref())
            } else {
                (range_b.relation.as_ref(), b_attr.as_ref())
            };
            if stats.has_index_on(probed_rel, &[probed_attr]) {
                continue;
            }
            let side = |var: &VarName, range: &RangeExpr| -> f64 {
                if features.one_step {
                    effective_rows(var, range, conj, stats)
                } else {
                    range_rows_estimate(range, var, stats)
                }
            };
            // Hash entries materialized for the smaller side.
            cost.intermediates += side(&tvars[0], range_a).min(side(&tvars[1], range_b));
        }
    }

    // --- Strategy 4 steps: value lists built during collection ----------
    for step in steps {
        let mut vl = range_rows_estimate(&step.range, &step.bound_var, stats);
        for t in &step.monadic_filters {
            vl *= monadic_selectivity(t, &step.bound_var, &step.range.relation, stats);
        }
        let vl = vl.max(0.0);
        cost.comparisons += vl; // building / reducing the value list
        cost.intermediates += vl;
        // The derived predicate is checked against the target's candidates.
        let target_rows = range_of(&step.target_var)
            .map_or(vl, |r| range_rows_estimate(r, &step.target_var, stats));
        cost.comparisons += target_rows * step.links.max(1) as f64;
    }

    // --- Combination phase: per-conjunction stage assembly ---------------
    let mut per_conjunction = Vec::with_capacity(prepared.form.matrix.len());
    let mut union_rows = 0.0f64;
    for (ci, conj) in prepared.form.matrix.iter().enumerate() {
        let order = predicted_order(conj, ci, &all_vars, steps);
        let mut rows = 1.0f64;
        for (i, var) in order.iter().enumerate() {
            let Some(range) = range_of(var) else { continue };
            let cand = if conj.mentions(var) {
                effective_rows(var, range, conj, stats)
            } else {
                range_rows_estimate(range, var, stats)
            };
            // Dyadic terms connecting `var` to the variables already
            // assembled.
            let checks: Vec<&Term> = conj
                .terms
                .iter()
                .filter(|t| {
                    t.is_dyadic()
                        && t.mentions(var)
                        && t.vars()
                            .iter()
                            .any(|o| order[..i].iter().any(|p| p.as_ref() == o.as_ref()))
                })
                .collect();
            if checks.is_empty() {
                // Cartesian product stage.
                rows *= cand;
            } else {
                let mut sel = 1.0;
                let mut has_eq = false;
                for t in &checks {
                    if let Some((_, op, other, _)) = t.as_dyadic_over(var) {
                        let other_rel = range_of(&other)
                            .map(|r| r.relation.as_ref().to_string())
                            .unwrap_or_default();
                        sel *= dyadic_selectivity(t, var, &range.relation, &other_rel, stats);
                        has_eq |= op == pascalr_relation::CompareOp::Eq;
                    }
                }
                let produced = rows * cand * sel;
                if features.one_step && has_eq {
                    // Indirect-join probe: one probe per prefix row plus
                    // verification of the produced rows.
                    cost.comparisons += rows + produced * checks.len() as f64;
                } else {
                    // Nested comparison of every candidate per prefix row.
                    cost.comparisons += rows * cand;
                }
                rows = produced;
            }
            cost.intermediates += rows;
        }
        union_rows += rows;
        per_conjunction.push(ConjunctionEstimate { index: ci, rows });
    }
    cost.intermediates += union_rows;

    // --- Quantifier passes (right to left) -------------------------------
    let mut rows = union_rows;
    for entry in prepared.form.prefix.iter().rev() {
        let n = range_rows_estimate(&entry.range, &entry.var, stats).max(1.0);
        if entry.q == Quantifier::All {
            // Division checks scale with the rows under division.
            cost.comparisons += rows;
        }
        rows = (rows / n).min(rows);
        cost.intermediates += rows;
    }

    // --- Construction phase ----------------------------------------------
    let result_rows = rows.max(0.0);
    cost.dereferences += result_rows * prepared.components.len().max(1) as f64;

    PlanEstimate {
        per_conjunction,
        result_rows,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_calculus::standardize;
    use pascalr_parser::{paper::EXAMPLE_2_1_QUERY, parse_selection};
    use pascalr_workload::figure1_sample_database;

    fn features(parallel: bool, one_step: bool) -> StrategyFeatures {
        StrategyFeatures {
            parallel_scans: parallel,
            one_step,
            extended_ranges: false,
            collection_quantifiers: false,
        }
    }

    #[test]
    fn baseline_reads_more_tuples_than_parallel_scans() {
        let mut cat = figure1_sample_database().unwrap();
        cat.analyze_all().unwrap();
        let stats = StatsView::from_catalog(&cat);
        let sel = parse_selection(EXAMPLE_2_1_QUERY, &cat).unwrap();
        let prepared = standardize(&sel);
        let s0 = estimate_plan(&prepared, &[], features(false, false), &stats);
        let s1 = estimate_plan(&prepared, &[], features(true, false), &stats);
        assert!(
            s0.cost.tuples_read > s1.cost.tuples_read,
            "S0 {} vs S1 {}",
            s0.cost.tuples_read,
            s1.cost.tuples_read
        );
        // The combination estimates agree (same prepared form).
        assert_eq!(s0.per_conjunction.len(), 3);
        assert_eq!(s0.per_conjunction, s1.per_conjunction);
        assert!(s0.result_rows >= 0.0);
    }

    #[test]
    fn one_step_probing_reduces_estimated_comparisons() {
        let mut cat = figure1_sample_database().unwrap();
        cat.analyze_all().unwrap();
        let stats = StatsView::from_catalog(&cat);
        let sel = parse_selection(EXAMPLE_2_1_QUERY, &cat).unwrap();
        let prepared = standardize(&sel);
        let s1 = estimate_plan(&prepared, &[], features(true, false), &stats);
        let s2 = estimate_plan(&prepared, &[], features(true, true), &stats);
        assert!(
            s2.cost.comparisons < s1.cost.comparisons,
            "S2 {} vs S1 {}",
            s2.cost.comparisons,
            s1.cost.comparisons
        );
    }

    #[test]
    fn estimates_scale_with_range_cardinality() {
        // Doubling a range relation must increase the estimated cost.
        let mut small = figure1_sample_database().unwrap();
        small.analyze_all().unwrap();
        let sel = parse_selection(EXAMPLE_2_1_QUERY, &small).unwrap();
        let prepared = standardize(&sel);
        let small_view = StatsView::from_catalog(&small);
        let weights = CostWeights::default();
        let small_cost = estimate_plan(&prepared, &[], features(true, true), &small_view)
            .cost
            .total(&weights);

        let large =
            pascalr_workload::generate(&pascalr_workload::UniversityConfig::at_scale(2)).unwrap();
        let large_view = StatsView::from_catalog(&large);
        let large_cost = estimate_plan(&prepared, &[], features(true, true), &large_view)
            .cost
            .total(&weights);
        assert!(large_cost > small_cost, "{large_cost} vs {small_cost}");
    }
}
