//! Query plan representation.
//!
//! A [`QueryPlan`] is the output of the planner: the (possibly transformed)
//! standardized selection, the collection-phase quantifier steps of
//! Strategy 4, the relation scan order for the parallel collection phase of
//! Strategy 1, and what the executor needs to re-plan when a range the
//! prepared form assumed non-empty is empty (the selection the planner
//! standardized, and the options it was planned with).

use pascalr_sync::Arc;
use std::fmt;

use pascalr_calculus::{
    CalculusError, ExtendReport, ParamName, Params, Quantifier, RangeExpr, RelName, Selection,
    StandardizedSelection, Term, VarName,
};
use pascalr_optimizer::{ConjunctionEstimate, CostEstimate};

use crate::planner::PlanOptions;
use crate::strategy::StrategyLevel;

/// Cost-model output attached to a plan: per-conjunction cardinality
/// estimates, the predicted cost counters, and — for plans produced by
/// [`StrategyLevel::Auto`] — the per-level candidate cost table.
///
/// Estimates are *advisory*: they never change which tuples qualify, only
/// which plan shape is chosen, and they are excluded from plan equality
/// (two plans differing only in their estimates are interchangeable).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEstimates {
    /// Estimated reference-row output of each conjunction of the prepared
    /// matrix (index-aligned; compare with the `refrel_c<i>` structure
    /// sizes the executor records).
    pub per_conjunction: Vec<ConjunctionEstimate>,
    /// Estimated number of result tuples (compare with the `result`
    /// structure size).
    pub result_rows: f64,
    /// Predicted cost counters for this plan.
    pub cost: CostEstimate,
    /// The weighted scalar cost the optimizer minimized.
    pub total_cost: f64,
    /// For Auto-selected plans: the weighted cost of every candidate fixed
    /// level, in [`StrategyLevel::ALL`] order.  Empty otherwise.
    pub candidate_costs: Vec<(StrategyLevel, f64)>,
    /// Whether this plan was chosen by [`StrategyLevel::Auto`].
    pub auto_selected: bool,
}

/// How the value list of a collection-phase quantifier step is reduced
/// (Section 4.4's special cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueListMode {
    /// The full value list is kept.
    Full,
    /// Only the maximum value is kept (`<`/`<=` joined with `SOME`, or
    /// `>`/`>=` joined with `ALL`).
    MaxOnly,
    /// Only the minimum value is kept (`<`/`<=` joined with `ALL`, or
    /// `>`/`>=` joined with `SOME`).
    MinOnly,
    /// At most one value needs to be kept (`=` with `ALL`, `<>` with
    /// `SOME`).
    AtMostOne,
}

impl ValueListMode {
    /// Human-readable label used in explain output.
    pub fn label(self) -> &'static str {
        match self {
            ValueListMode::Full => "full value list",
            ValueListMode::MaxOnly => "maximum value only",
            ValueListMode::MinOnly => "minimum value only",
            ValueListMode::AtMostOne => "at most one value",
        }
    }
}

/// A dyadic link between the target variable and the bound (quantified)
/// variable of a semijoin step: `target.target_attr OP bound.bound_attr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DyadicLink {
    /// Component of the target (outer) variable.
    pub target_attr: Arc<str>,
    /// Comparison operator, oriented from the target's side.
    pub op: pascalr_relation::CompareOp,
    /// Component of the bound (quantified) variable.
    pub bound_attr: Arc<str>,
}

impl fmt::Display for DyadicLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "target.{} {} bound.{}",
            self.target_attr, self.op, self.bound_attr
        )
    }
}

/// A Strategy 4 step: evaluate the quantifier of `bound_var` during the
/// collection phase using a value list, producing a derived predicate on
/// `target_var` (the paper's `cset`/`tset`/`pset` constructions of
/// Example 4.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemijoinStep {
    /// The quantifier being evaluated early.
    pub quantifier: Quantifier,
    /// The quantified variable removed from the prefix.
    pub bound_var: VarName,
    /// Its range (possibly an extended range).
    pub range: RangeExpr,
    /// Monadic terms over the bound variable taken from the conjunction;
    /// they filter the value list.
    pub monadic_filters: Vec<Term>,
    /// The dyadic links connecting the bound variable to the target
    /// variable.
    pub links: Vec<DyadicLink>,
    /// The single other variable the bound variable is connected to.
    pub target_var: VarName,
    /// Index of the conjunction the terms were taken from.
    pub conjunction: usize,
    /// Indices (into the plan's step list) of earlier steps whose derived
    /// predicate targets `bound_var` in the same conjunction; they filter the
    /// value list (the paper's `tset` is built using `cset`).
    pub consumes: Vec<usize>,
    /// The value-list reduction that applies.
    pub reduction: ValueListMode,
    /// Display name of the produced structure, e.g. `vl_c` / `sl_t_via_c`.
    pub produces: String,
}

impl fmt::Display for SemijoinStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} IN {} -> predicate on {} ({}; conjunction #{})",
            self.quantifier,
            self.bound_var,
            self.range.display_for(&self.bound_var),
            self.target_var,
            self.reduction.label(),
            self.conjunction + 1
        )
    }
}

/// The complete plan for one selection at one strategy level.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The strategy level the plan was built for.  Plans requested at
    /// [`StrategyLevel::Auto`] record the *chosen* fixed level here (the
    /// selection rationale lives in [`QueryPlan::estimates`] and
    /// [`QueryPlan::notes`]).
    pub strategy: StrategyLevel,
    /// The options the plan was built with (a runtime re-plan reuses them).
    pub options: PlanOptions,
    /// The original selection as written by the user.
    pub original: Selection,
    /// The selection the planner standardized, if the analyzer's rewrites
    /// made it differ from `original`: a runtime re-plan adapts this one,
    /// whose binder names the prepared form's assumptions use.
    pub effective: Option<Selection>,
    /// The standardized (and, at S3+, range-extended; at S4, semijoin-
    /// reduced) selection the executor evaluates, with the ranges it
    /// assumed non-empty.
    pub prepared: StandardizedSelection,
    /// Report of the Strategy 3 transformation, if it ran.
    pub extend_report: Option<ExtendReport>,
    /// Strategy 4 steps, in execution order.
    pub semijoin_steps: Vec<SemijoinStep>,
    /// For every conjunction of the prepared matrix, the indices of
    /// semijoin steps whose derived predicate must be applied in that
    /// conjunction during the combination phase.
    pub derived_predicates: Vec<Vec<usize>>,
    /// Base relations in the order the parallel collection phase scans them
    /// (Strategy 1+).  For the baseline this is informational only.
    pub scan_order: Vec<RelName>,
    /// Prefix variables that were dropped because they occur in no
    /// conjunction (each drop assumes the variable's range non-empty).
    pub dropped_vars: Vec<VarName>,
    /// Free-form notes accumulated during planning (shown by `explain`).
    pub notes: Vec<String>,
    /// Rendered semantic diagnostics from the prepare-time analyzer
    /// (`pascalr-analysis`), shown by [`QueryPlan::explain`] as `warning:`
    /// lines.  Advisory only — excluded from plan equality, because a
    /// parameterized plan and its inlined twin render the same diagnostic
    /// with different constant text (`:year` vs `1977`).
    pub warnings: Vec<String>,
    /// Names of the permanent catalog indexes the plan relies on: indexes
    /// that serve a restricted range by probe, or cover the probed side of
    /// an equality join term so that no per-query index is built for it.
    /// Informational (the executor consults the live catalog at run time);
    /// shown by [`QueryPlan::explain`].  The plan epoch advances on every
    /// `create_index`/`drop_index`, so a cached plan's list can never go
    /// stale.
    pub used_indexes: Vec<String>,
    /// Optional hint that the consumer intends to read at most this many
    /// result tuples.  A streaming executor may stop all remaining
    /// combination/construction work once the budget is reached; the hint
    /// never changes *which* tuples qualify, only how many are produced.
    /// `None` (the default) means "produce the full result".
    pub row_budget: Option<u64>,
    /// Cost-model estimates for this plan (per-conjunction cardinalities,
    /// predicted counters, and the Auto candidate table).  Advisory only —
    /// excluded from plan equality.
    pub estimates: Option<PlanEstimates>,
}

impl PartialEq for QueryPlan {
    /// Plans compare on everything that affects execution; the advisory
    /// [`QueryPlan::estimates`] and [`QueryPlan::warnings`] are excluded
    /// (a parameterized plan and its inlined twin carry slightly different
    /// estimates and diagnostic renderings but are the same plan).
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy
            && self.options == other.options
            && self.original == other.original
            && self.effective == other.effective
            && self.prepared == other.prepared
            && self.extend_report == other.extend_report
            && self.semijoin_steps == other.semijoin_steps
            && self.derived_predicates == other.derived_predicates
            && self.scan_order == other.scan_order
            && self.dropped_vars == other.dropped_vars
            && self.notes == other.notes
            && self.used_indexes == other.used_indexes
            && self.row_budget == other.row_budget
    }
}

impl QueryPlan {
    /// Whether the combination output can be consumed in **streaming
    /// order**: once the quantifier prefix of the prepared form is empty
    /// (either because the query has no quantifiers or because Strategy 4
    /// evaluated them all during the collection phase), no projection or
    /// division pass over the full reference relation is needed, so the
    /// union of the per-conjunction reference tuples can be handed to the
    /// construction phase one tuple at a time.  Plans for which this is
    /// `false` must materialize the combination result before the first
    /// output tuple can be produced.
    pub fn combination_streams(&self) -> bool {
        self.prepared.form.prefix.is_empty()
    }

    /// Builder-style setter for the [`QueryPlan::row_budget`] hint.
    pub fn with_row_budget(mut self, budget: u64) -> QueryPlan {
        self.row_budget = Some(budget);
        self
    }

    /// Names of the intermediate structures the plan will build, in the
    /// paper's naming convention (`sl_*`, `ind_*`, `ij_*`, `vl_*`).
    pub fn structure_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (ci, conj) in self.prepared.form.matrix.iter().enumerate() {
            for t in &conj.terms {
                let tvars: Vec<_> = t.vars().into_iter().collect();
                match tvars.len() {
                    1 => names.push(format!("sl_{}_c{}", tvars[0], ci + 1)),
                    2 => {
                        names.push(format!("ij_{}_{}_c{}", tvars[0], tvars[1], ci + 1));
                        names.push(format!("ind_{}", tvars[1]));
                    }
                    _ => {}
                }
            }
        }
        for step in &self.semijoin_steps {
            names.push(step.produces.clone());
        }
        names.sort();
        names.dedup();
        names
    }

    /// Renders a human-readable explanation of the plan (the `EXPLAIN`
    /// output of the reproduction).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("strategy: {}\n", self.strategy));
        out.push_str("prepared selection:\n");
        out.push_str(&format!("{}\n", self.prepared));
        if let Some(report) = &self.extend_report {
            if report.changed() {
                out.push_str(&format!(
                    "extended ranges: {} hoist(s), {} conjunction(s) removed\n",
                    report.hoists.len(),
                    report.removed_conjunctions,
                ));
            }
        }
        let assumptions = &self.prepared.form.assumptions;
        if !assumptions.is_empty() {
            let listed: Vec<String> = assumptions.iter().map(ToString::to_string).collect();
            out.push_str(&format!("assumed non-empty: {}\n", listed.join("; ")));
        }
        if !self.semijoin_steps.is_empty() {
            out.push_str("collection-phase quantifier steps:\n");
            for (i, s) in self.semijoin_steps.iter().enumerate() {
                out.push_str(&format!("  [{}] {}\n", i + 1, s));
            }
        }
        if !self.dropped_vars.is_empty() {
            let names: Vec<&str> = self
                .dropped_vars
                .iter()
                .map(std::convert::AsRef::as_ref)
                .collect();
            out.push_str(&format!(
                "dropped quantified variables with no join terms: {}\n",
                names.join(", ")
            ));
        }
        out.push_str(&format!(
            "scan order: {}\n",
            self.scan_order
                .iter()
                .map(std::convert::AsRef::as_ref)
                .collect::<Vec<_>>()
                .join(" -> ")
        ));
        if !self.used_indexes.is_empty() {
            out.push_str(&format!(
                "permanent indexes: {}\n",
                self.used_indexes.join(", ")
            ));
        }
        out.push_str(&format!(
            "combination output: {}\n",
            if self.combination_streams() {
                "streaming (empty quantifier prefix)"
            } else {
                "materialized (quantifier passes required)"
            }
        ));
        if let Some(budget) = self.row_budget {
            out.push_str(&format!("row budget: at most {budget} tuple(s)\n"));
        }
        if let Some(est) = &self.estimates {
            for ce in &est.per_conjunction {
                out.push_str(&format!(
                    "estimated rows (conjunction {}): ~{:.1}\n",
                    ce.index + 1,
                    ce.rows
                ));
            }
            out.push_str(&format!(
                "estimated result rows: ~{:.1}; estimated cost: tuples={:.0} comparisons={:.0} \
                 intermediate={:.0} derefs={:.0} (weighted {:.0})\n",
                est.result_rows,
                est.cost.tuples_read,
                est.cost.comparisons,
                est.cost.intermediates,
                est.cost.dereferences,
                est.total_cost,
            ));
            if est.auto_selected {
                let table: Vec<String> = est
                    .candidate_costs
                    .iter()
                    .map(|(level, cost)| format!("{}={:.0}", level.short_name(), cost))
                    .collect();
                out.push_str(&format!(
                    "auto strategy selection: chose {} (candidate costs: {})\n",
                    self.strategy.short_name(),
                    table.join(", ")
                ));
            }
        }
        // Rendered diagnostics carry their own severity prefix
        // (`warning[A005]: ...`, `note[A012]: ...`).
        for warning in &self.warnings {
            out.push_str(&format!("{warning}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// The parameter placeholders the plan still carries (sorted).  A plan
    /// with placeholders must be bound with [`QueryPlan::bind_params`]
    /// before execution.
    pub fn param_names(&self) -> Vec<ParamName> {
        let mut names: std::collections::BTreeSet<ParamName> = self.original.param_names();
        names.extend(self.prepared.param_names());
        for step in &self.semijoin_steps {
            for t in &step.monadic_filters {
                names.extend(t.param_names());
            }
        }
        names.into_iter().collect()
    }

    /// Substitutes concrete values for the plan's parameter placeholders,
    /// producing an executable plan with the *same shape* (prefix, matrix,
    /// semijoin steps and scan order are untouched — only `:name` operands
    /// become constants).  Fails if any placeholder lacks a binding.
    pub fn bind_params(&self, params: &Params) -> Result<QueryPlan, CalculusError> {
        let extend_report = self
            .extend_report
            .as_ref()
            .map(|report| {
                Ok::<_, CalculusError>(ExtendReport {
                    hoists: report
                        .hoists
                        .iter()
                        .map(|h| {
                            Ok(pascalr_calculus::Hoist {
                                var: h.var.clone(),
                                terms: h
                                    .terms
                                    .iter()
                                    .map(|t| t.bind_params(params))
                                    .collect::<Result<_, _>>()?,
                                kind: h.kind,
                            })
                        })
                        .collect::<Result<_, CalculusError>>()?,
                    removed_conjunctions: report.removed_conjunctions,
                })
            })
            .transpose()?;
        Ok(QueryPlan {
            strategy: self.strategy,
            options: self.options,
            original: self.original.bind_params(params)?,
            effective: self
                .effective
                .as_ref()
                .map(|e| e.bind_params(params))
                .transpose()?,
            prepared: self.prepared.bind_params(params)?,
            extend_report,
            semijoin_steps: self
                .semijoin_steps
                .iter()
                .map(|s| {
                    Ok(SemijoinStep {
                        quantifier: s.quantifier,
                        bound_var: s.bound_var.clone(),
                        range: s.range.bind_params(params)?,
                        monadic_filters: s
                            .monadic_filters
                            .iter()
                            .map(|t| t.bind_params(params))
                            .collect::<Result<_, _>>()?,
                        links: s.links.clone(),
                        target_var: s.target_var.clone(),
                        conjunction: s.conjunction,
                        consumes: s.consumes.clone(),
                        reduction: s.reduction,
                        produces: s.produces.clone(),
                    })
                })
                .collect::<Result<_, CalculusError>>()?,
            derived_predicates: self.derived_predicates.clone(),
            scan_order: self.scan_order.clone(),
            dropped_vars: self.dropped_vars.clone(),
            notes: self.notes.clone(),
            warnings: self.warnings.clone(),
            used_indexes: self.used_indexes.clone(),
            row_budget: self.row_budget,
            // Binding substitutes constants without changing the plan
            // shape; the advisory estimates carry over unchanged.
            estimates: self.estimates.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::CompareOp;

    #[test]
    fn value_list_mode_labels() {
        assert!(ValueListMode::Full.label().contains("full"));
        assert!(ValueListMode::MaxOnly.label().contains("maximum"));
        assert!(ValueListMode::MinOnly.label().contains("minimum"));
        assert!(ValueListMode::AtMostOne.label().contains("one"));
    }

    #[test]
    fn dyadic_link_display() {
        let link = DyadicLink {
            target_attr: Arc::from("enr"),
            op: CompareOp::Ne,
            bound_attr: Arc::from("penr"),
        };
        assert_eq!(link.to_string(), "target.enr <> bound.penr");
    }
}
