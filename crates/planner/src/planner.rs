//! The planner: turns a selection plus a strategy level into a
//! [`QueryPlan`].
//!
//! Planning is a pipeline of the paper's transformations:
//!
//! 1. standardize (Section 2);
//! 2. at S3+, extend range expressions (Section 4.3);
//! 3. drop quantified variables that occur in no join term (their ranges are
//!    assumed non-empty by the standard form);
//! 4. at S4, repeatedly peel the innermost quantified variable that occurs in
//!    exactly one conjunction and is linked to exactly one other variable,
//!    turning it into a collection-phase value-list step (Section 4.4);
//! 5. choose a relation scan order for the parallel collection phase
//!    (Strategy 1) — smaller relations first, so their indexes exist by the
//!    time larger relations are scanned and probed against them.

use pascalr_calculus::{
    adapt_selection_for_empty, extend_ranges, sink_variable, standardize, Assumption,
    ExtendOptions, Quantifier, Selection, StandardizedSelection,
};
use pascalr_catalog::Catalog;
use pascalr_optimizer::{CostWeights, SemijoinInfo, StatsView};
use pascalr_relation::CompareOp;

use crate::auto::{features_of, plan_auto};
use crate::plan::{DyadicLink, PlanEstimates, QueryPlan, SemijoinStep, ValueListMode};
use crate::strategy::StrategyLevel;

/// Options controlling planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanOptions {
    /// Allow disjunctive restrictions in extended ranges (the paper's
    /// "conjunctive normal form" future-work mode; ablated in E7).
    pub disjunctive_range_extensions: bool,
    /// Disable the cardinality-based scan ordering (ablation for E6): scan
    /// relations in declaration order instead.
    pub declaration_scan_order: bool,
    /// Apply the prepare-time semantic rewrites of `pascalr-analysis`
    /// before planning: statically unsatisfiable terms become `false`,
    /// domain tautologies become `true`, contradictory conjunctions
    /// collapse, and equality-implied monadic restrictions are appended.
    /// On by default; turn off to plan the selection exactly as written
    /// (ablation, or when diagnostics are unwanted).
    pub semantic_rewrites: bool,
}

impl Default for PlanOptions {
    /// Ablations off, semantic rewrites on.
    fn default() -> Self {
        PlanOptions {
            disjunctive_range_extensions: false,
            declaration_scan_order: false,
            semantic_rewrites: true,
        }
    }
}

/// Chooses the value-list reduction for a single-link step.
fn reduction_for(q: Quantifier, links: &[DyadicLink]) -> ValueListMode {
    if links.len() != 1 {
        return ValueListMode::Full;
    }
    let op = links[0].op;
    match (op, q) {
        // target < SOME bound  ⇔ target < max(bound); target < ALL bound ⇔ < min.
        (CompareOp::Lt | CompareOp::Le, Quantifier::Some) => ValueListMode::MaxOnly,
        (CompareOp::Lt | CompareOp::Le, Quantifier::All) => ValueListMode::MinOnly,
        (CompareOp::Gt | CompareOp::Ge, Quantifier::Some) => ValueListMode::MinOnly,
        (CompareOp::Gt | CompareOp::Ge, Quantifier::All) => ValueListMode::MaxOnly,
        (CompareOp::Eq, Quantifier::All) => ValueListMode::AtMostOne,
        (CompareOp::Ne, Quantifier::Some) => ValueListMode::AtMostOne,
        _ => ValueListMode::Full,
    }
}

/// Derives the Strategy 4 semijoin steps, mutating `prepared` (prefix entries
/// removed, conjunction terms consumed) and returning the steps plus the
/// per-conjunction derived-predicate assignment.
fn derive_semijoin_steps(
    prepared: &mut StandardizedSelection,
    notes: &mut Vec<String>,
) -> (Vec<SemijoinStep>, Vec<Vec<usize>>) {
    let mut steps: Vec<SemijoinStep> = Vec::new();
    let mut derived: Vec<Vec<usize>> = vec![Vec::new(); prepared.form.matrix.len()];

    loop {
        if prepared.form.prefix.is_empty() {
            break;
        }
        let mut applied = false;

        // Examine candidates from innermost to outermost.
        let order: Vec<usize> = (0..prepared.form.prefix.len()).rev().collect();
        for idx in order {
            let entry = prepared.form.prefix[idx].clone();
            let var = entry.var.clone();

            // Conjunctions involving the variable, either through join terms
            // or through a pending derived predicate.
            let mut involved: Vec<usize> = prepared.form.conjunctions_mentioning(&var);
            for (ci, preds) in derived.iter().enumerate() {
                if preds
                    .iter()
                    .any(|&s| steps[s].target_var.as_ref() == var.as_ref())
                    && !involved.contains(&ci)
                {
                    involved.push(ci);
                }
            }
            involved.sort_unstable();

            if involved.is_empty() {
                // The variable occurs nowhere: its quantifier is vacuous
                // over a non-empty range, so it is dropped on that
                // assumption.
                prepared.form.prefix.remove(idx);
                prepared.form.assume_nonempty(&var, &entry.range);
                notes.push(format!(
                    "dropped quantified variable {var}: it occurs in no join term"
                ));
                applied = true;
                break;
            }
            if involved.len() != 1 {
                // For ALL this split is not permitted (Lemma 1); for SOME it
                // would require duplicating the variable per conjunction —
                // the current planner keeps the quantifier in the
                // combination phase instead.
                continue;
            }
            let ci = involved[0];

            // The variable must be movable to the innermost position.
            let Ok((sunk, pos)) = sink_variable(prepared, &var) else {
                continue;
            };
            if pos + 1 != sunk.form.prefix.len() {
                continue;
            }

            // All dyadic terms over the variable in this conjunction must
            // link it to exactly one other variable.
            let conj = &sunk.form.matrix[ci];
            let dyadics: Vec<_> = conj.dyadic_terms_over(&var).into_iter().cloned().collect();
            if dyadics.is_empty() {
                continue;
            }
            let mut links = Vec::new();
            let mut target: Option<pascalr_calculus::VarName> = None;
            let mut consistent = true;
            for t in &dyadics {
                let Some((bound_attr, op, other, other_attr)) = t.as_dyadic_over(&var) else {
                    consistent = false;
                    break;
                };
                match &target {
                    None => target = Some(other.clone()),
                    Some(existing) if existing.as_ref() == other.as_ref() => {}
                    Some(_) => {
                        consistent = false;
                        break;
                    }
                }
                // Orient the link from the target's perspective:
                // bound.bound_attr OP target.other_attr  ⇔
                // target.other_attr OP.flip() bound.bound_attr.
                links.push(DyadicLink {
                    target_attr: other_attr,
                    op: op.flip(),
                    bound_attr,
                });
            }
            let Some(target_var) = target else {
                continue;
            };
            if !consistent {
                continue;
            }

            // Adopt the sunk prefix order, then peel the variable.
            *prepared = sunk;
            let Some(innermost) = prepared.form.prefix.pop() else {
                // `sink_variable` placed the variable at `pos + 1 ==
                // prefix.len()`, so the prefix cannot be empty here.
                continue;
            };
            debug_assert_eq!(innermost.var.as_ref(), var.as_ref());

            // Monadic filters over the variable in this conjunction move into
            // the value-list construction; all terms over the variable leave
            // the matrix.
            let monadic_filters: Vec<_> = prepared.form.matrix[ci]
                .monadic_terms_over(&var)
                .into_iter()
                .cloned()
                .collect();
            prepared.form.matrix[ci].terms.retain(|t| !t.mentions(&var));

            // Earlier derived predicates targeting this variable in the same
            // conjunction are consumed by the value-list construction.
            let consumes: Vec<usize> = derived[ci]
                .iter()
                .copied()
                .filter(|&s| steps[s].target_var.as_ref() == var.as_ref())
                .collect();
            derived[ci].retain(|s| !consumes.contains(s));

            // Lemma 1 right to left: `SOME` leaves the other conjunctions
            // (rule 2), `ALL` the rest of its own (rule 3).
            let needs_nonempty = match innermost.q {
                Quantifier::Some => prepared.form.matrix.len() > 1,
                Quantifier::All => {
                    !prepared.form.matrix[ci].terms.is_empty() || !derived[ci].is_empty()
                }
            };
            if needs_nonempty {
                prepared.form.assume_nonempty(&var, &innermost.range);
            }

            let reduction = reduction_for(innermost.q, &links);
            let step = SemijoinStep {
                quantifier: innermost.q,
                bound_var: var.clone(),
                range: innermost.range.clone(),
                monadic_filters,
                links,
                target_var: target_var.clone(),
                conjunction: ci,
                consumes,
                reduction,
                produces: format!("sl_{target_var}_via_{var}"),
            };
            notes.push(format!(
                "strategy 4: {} {} evaluated in the collection phase ({})",
                step.quantifier,
                var,
                step.reduction.label()
            ));
            let step_idx = steps.len();
            steps.push(step);
            derived[ci].push(step_idx);
            applied = true;
            break;
        }

        if !applied {
            break;
        }
    }

    (steps, derived)
}

/// Drops prefix variables that occur in no conjunction: `Q v IN r (M)` is
/// `M` when `r` is non-empty, which each drop records as an assumption.
fn drop_vacuous_prefix_vars(
    prepared: &mut StandardizedSelection,
) -> Vec<pascalr_calculus::VarName> {
    let (kept, vacuous): (Vec<_>, Vec<_>) = std::mem::take(&mut prepared.form.prefix)
        .into_iter()
        .partition(|entry| prepared.form.matrix.iter().any(|c| c.mentions(&entry.var)));
    prepared.form.prefix = kept;
    for entry in &vacuous {
        prepared.form.assume_nonempty(&entry.var, &entry.range);
    }
    vacuous.into_iter().map(|entry| entry.var).collect()
}

/// Chooses the scan order of the base relations for the parallel collection
/// phase: ascending *estimated effective* cardinality (live cardinality
/// times the statistics-based selectivity of the range restriction, if
/// any), so that indexes on small candidate sets exist before large
/// relations are scanned and probed against them.
///
/// The base cardinality deliberately comes from the live relation, not
/// from the (possibly stale) ANALYZE snapshot: fixed-level plans are cache
/// keyed only on the plan epoch, so their scan order must never bake in an
/// analyzed cardinality that a later ANALYZE could silently fail to
/// refresh.  ANALYZE statistics contribute only the restriction
/// *selectivity* refinement, which is a fraction and ordering-advisory.
/// Relations the catalog does not know sort last; the stable sort keeps
/// declaration order among ties.
fn choose_scan_order(
    prepared: &StandardizedSelection,
    steps: &[SemijoinStep],
    catalog: &Catalog,
    stats: &StatsView,
    declaration_order: bool,
) -> Vec<pascalr_calculus::RelName> {
    let mut relations: Vec<(pascalr_calculus::RelName, f64)> = Vec::new();
    let mut push = |name: &pascalr_calculus::RelName, rows: f64| {
        match relations
            .iter_mut()
            .find(|(r, _)| r.as_ref() == name.as_ref())
        {
            // A relation scanned for several variables builds its index
            // for the most restricted one first.
            Some((_, est)) => *est = est.min(rows),
            None => relations.push((name.clone(), rows)),
        }
    };
    let estimate = |range: &pascalr_calculus::RangeExpr, var: &str| -> f64 {
        let Ok(rel) = catalog.relation(&range.relation) else {
            return f64::INFINITY;
        };
        let live = rel.cardinality() as f64;
        match &range.restriction {
            Some(f) => {
                live * pascalr_optimizer::restriction_selectivity(f, var, &range.relation, stats)
            }
            None => live,
        }
    };
    for d in &prepared.free {
        push(&d.range.relation, estimate(&d.range, &d.var));
    }
    for p in &prepared.form.prefix {
        push(&p.range.relation, estimate(&p.range, &p.var));
    }
    for s in steps {
        push(&s.range.relation, estimate(&s.range, &s.bound_var));
    }
    if !declaration_order {
        relations.sort_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
    relations.into_iter().map(|(r, _)| r).collect()
}

/// Names of the permanent catalog indexes the plan's execution will rely
/// on: indexes serving a restricted range by probe (the index-backed
/// range path exists from Strategy 1 up — the baseline stays deliberately
/// naive), and indexes covering the *probed* side of an equality join
/// term — the side assembled later by the combination phase, whose
/// indirect join the executor then skips.  Both decisions go through the
/// shared `pascalr_optimizer::access` helpers so planner, cost model and
/// executor agree.
fn indexes_relied_on(
    prepared: &StandardizedSelection,
    steps: &[SemijoinStep],
    derived_predicates: &[Vec<usize>],
    strategy: StrategyLevel,
    catalog: &Catalog,
) -> Vec<String> {
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let decls: Vec<&pascalr_catalog::IndexDecl> = catalog.indexes().collect();

    if strategy.parallel_scans() {
        let mut serve_range = |var: &str, range: &pascalr_calculus::RangeExpr| {
            // The executor probes the *first* covering declaration
            // (`range_probe_key`); name exactly that one.
            if let Some(decl) =
                pascalr_optimizer::covering_range_indexes(decls.iter().copied(), range, var)
                    .into_iter()
                    .next()
            {
                used.insert(decl.name.clone());
            }
        };
        for d in &prepared.free {
            serve_range(&d.var, &d.range);
        }
        for p in &prepared.form.prefix {
            serve_range(&p.var, &p.range);
        }
        for s in steps {
            serve_range(&s.bound_var, &s.range);
        }
    }

    let all_vars = prepared.all_vars();
    for (ci, conj) in prepared.form.matrix.iter().enumerate() {
        let order = pascalr_optimizer::assembly_order(conj, &all_vars, |v| {
            conj.mentions(v)
                || derived_predicates
                    .get(ci)
                    .is_some_and(|preds| preds.iter().any(|&s| steps[s].target_var.as_ref() == v))
        });
        for term in conj.terms.iter().filter(|t| t.is_dyadic()) {
            let tvars: Vec<pascalr_calculus::VarName> = term.vars().into_iter().collect();
            if tvars.len() != 2 {
                continue;
            }
            let Some((a_attr, op, _, b_attr)) = term.as_dyadic_over(&tvars[0]) else {
                continue;
            };
            if op != CompareOp::Eq {
                continue;
            }
            let pos_a = order.iter().position(|v| v.as_ref() == tvars[0].as_ref());
            let pos_b = order.iter().position(|v| v.as_ref() == tvars[1].as_ref());
            let (probed_var, probed_attr) = if pos_a > pos_b {
                (&tvars[0], a_attr)
            } else {
                (&tvars[1], b_attr)
            };
            let Some(range) = prepared.range_of(probed_var) else {
                continue;
            };
            for decl in &decls {
                if decl.covers(range.relation.as_ref(), &[probed_attr.as_ref()]) {
                    used.insert(decl.name.clone());
                }
            }
        }
    }

    used.into_iter().collect()
}

/// Builds the query plan for a selection at a strategy level.
///
/// [`StrategyLevel::Auto`] runs the cost model over all five fixed levels
/// (using the catalog's ANALYZE statistics where available) and returns the
/// cheapest candidate; the produced plan records the chosen fixed level in
/// [`QueryPlan::strategy`] and the selection rationale in its estimates and
/// notes.
pub fn plan(
    selection: &Selection,
    catalog: &Catalog,
    strategy: StrategyLevel,
    options: PlanOptions,
) -> QueryPlan {
    let _span = pascalr_obs::span!("plan", strategy = strategy.short_name());
    let stats = StatsView::from_catalog(catalog);

    // Prepare-time semantic analysis: plan the *simplified* selection (the
    // rewrites are equivalence-preserving given the catalog's domain
    // declarations) and carry the rendered diagnostics on the plan.  The
    // plan keeps the user's original selection in `original` — the
    // simplification is a planning decision, not a reinterpretation.
    let (effective, warnings) = if options.semantic_rewrites {
        let simplified = pascalr_analysis::simplify(selection, catalog);
        let warnings = simplified
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect();
        (simplified.selection, warnings)
    } else {
        (selection.clone(), Vec::new())
    };

    let mut plan = if strategy.is_auto() {
        plan_auto(&effective, catalog, options, &stats)
    } else {
        plan_fixed(&effective, catalog, strategy, options, &stats)
    };
    plan.effective = (effective != *selection).then_some(effective);
    plan.original = selection.clone();
    plan.warnings = warnings;

    #[cfg(debug_assertions)]
    if let Err(violations) = crate::verify::verify_plan(&plan, catalog) {
        panic!(
            "plan verifier rejected the plan for '{}':\n  {}",
            plan.original.target,
            violations.join("\n  ")
        );
    }
    plan
}

/// Plans a query again after the executor found `empty`, a range the plan
/// assumed non-empty, empty: the planned selection is adapted for it and
/// planned at the plan's own fixed level with its own options.  `None` if
/// the adaptation changes nothing.
pub fn replan_for_empty(
    query_plan: &QueryPlan,
    empty: &Assumption,
    catalog: &Catalog,
) -> Option<QueryPlan> {
    let planned = query_plan
        .effective
        .as_ref()
        .unwrap_or(&query_plan.original);
    let adapted = adapt_selection_for_empty(planned, std::slice::from_ref(empty));
    if adapted == adapt_selection_for_empty(planned, &[]) {
        return None;
    }
    let mut replanned = plan(&adapted, catalog, query_plan.strategy, query_plan.options);
    replanned.effective = replanned.effective.or(Some(adapted));
    replanned.original = query_plan.original.clone();
    replanned.warnings = query_plan.warnings.clone();
    replanned.row_budget = query_plan.row_budget;
    Some(replanned)
}

/// Builds the plan for one *fixed* strategy level against a prepared
/// statistics view, attaching the cost-model estimates.
pub(crate) fn plan_fixed(
    selection: &Selection,
    catalog: &Catalog,
    strategy: StrategyLevel,
    options: PlanOptions,
    stats: &StatsView,
) -> QueryPlan {
    debug_assert!(!strategy.is_auto(), "Auto must go through plan()");
    let mut notes = Vec::new();
    let mut prepared = standardize(selection);

    let extend_report = if strategy.extended_ranges() {
        let (extended, report) = extend_ranges(
            &prepared,
            ExtendOptions {
                allow_disjunctive: options.disjunctive_range_extensions,
            },
        );
        prepared = extended;
        if report.changed() {
            notes.push(format!(
                "strategy 3: {} monadic hoist(s), {} conjunction(s) removed",
                report.hoists.len(),
                report.removed_conjunctions
            ));
        }
        Some(report)
    } else {
        None
    };

    let dropped_vars = drop_vacuous_prefix_vars(&mut prepared);

    let (semijoin_steps, derived_predicates) = if strategy.collection_quantifiers() {
        derive_semijoin_steps(&mut prepared, &mut notes)
    } else {
        (Vec::new(), vec![Vec::new(); prepared.form.matrix.len()])
    };

    let scan_order = choose_scan_order(
        &prepared,
        &semijoin_steps,
        catalog,
        stats,
        options.declaration_scan_order,
    );

    // Cost-model prediction for this candidate shape: per-conjunction
    // cardinalities plus the paper's observable cost counters.
    let steps_info: Vec<SemijoinInfo> = semijoin_steps
        .iter()
        .map(|s| SemijoinInfo {
            quantifier: s.quantifier,
            bound_var: s.bound_var.clone(),
            range: s.range.clone(),
            monadic_filters: s.monadic_filters.clone(),
            links: s.links.len(),
            target_var: s.target_var.clone(),
            conjunction: s.conjunction,
        })
        .collect();
    let prediction =
        pascalr_optimizer::estimate_plan(&prepared, &steps_info, features_of(strategy), stats);
    let estimates = Some(PlanEstimates {
        per_conjunction: prediction.per_conjunction,
        result_rows: prediction.result_rows,
        cost: prediction.cost,
        total_cost: prediction.cost.total(&CostWeights::default()),
        candidate_costs: Vec::new(),
        auto_selected: false,
    });

    let used_indexes = indexes_relied_on(
        &prepared,
        &semijoin_steps,
        &derived_predicates,
        strategy,
        catalog,
    );

    QueryPlan {
        strategy,
        options,
        original: selection.clone(),
        effective: None,
        prepared,
        extend_report,
        semijoin_steps,
        derived_predicates,
        scan_order,
        dropped_vars,
        notes,
        warnings: Vec::new(),
        used_indexes,
        row_budget: None,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_parser::paper::EXAMPLE_2_1_QUERY;
    use pascalr_parser::parse_selection;
    use pascalr_workload::figure1_sample_database;

    fn example_plan(strategy: StrategyLevel) -> QueryPlan {
        let cat = figure1_sample_database().unwrap();
        let sel = parse_selection(EXAMPLE_2_1_QUERY, &cat).unwrap();
        plan(&sel, &cat, strategy, PlanOptions::default())
    }

    #[test]
    fn baseline_plan_keeps_the_full_prefix_and_matrix() {
        let p = example_plan(StrategyLevel::S0Baseline);
        assert_eq!(p.prepared.form.prefix.len(), 3);
        assert_eq!(p.prepared.form.conjunction_count(), 3);
        assert!(p.semijoin_steps.is_empty());
        assert!(p.extend_report.is_none());
        assert_eq!(p.scan_order.len(), 4);
        assert!(!p.explain().is_empty());
    }

    #[test]
    fn s3_plan_extends_ranges_and_removes_a_conjunction() {
        let p = example_plan(StrategyLevel::S3ExtendedRanges);
        assert_eq!(p.prepared.form.conjunction_count(), 2);
        let report = p.extend_report.as_ref().unwrap();
        assert!(report.changed());
        assert_eq!(report.removed_conjunctions, 1);
        assert!(p.prepared.range_of("e").unwrap().is_restricted());
        assert!(p.prepared.range_of("p").unwrap().is_restricted());
        assert!(p.prepared.range_of("c").unwrap().is_restricted());
        assert!(p.semijoin_steps.is_empty());
    }

    #[test]
    fn s4_plan_matches_example_4_7_structure() {
        // After Strategy 3 + Strategy 4 the whole quantifier prefix is
        // evaluated in the collection phase: cset (c), tset (t), pset (p),
        // exactly as in Example 4.7.
        let p = example_plan(StrategyLevel::S4CollectionQuantifiers);
        assert!(p.prepared.form.prefix.is_empty(), "{}", p.explain());
        assert_eq!(p.semijoin_steps.len(), 3);
        let order: Vec<&str> = p
            .semijoin_steps
            .iter()
            .map(|s| s.bound_var.as_ref())
            .collect();
        assert_eq!(order, vec!["c", "t", "p"]);
        // c and t produce predicates targeting t and e respectively; p
        // targets e.
        assert_eq!(p.semijoin_steps[0].target_var.as_ref(), "t");
        assert_eq!(p.semijoin_steps[1].target_var.as_ref(), "e");
        assert_eq!(p.semijoin_steps[2].target_var.as_ref(), "e");
        // The t-step consumes the c-step's derived predicate.
        assert_eq!(p.semijoin_steps[1].consumes, vec![0]);
        // Equality links keep the full value list; the ALL/<> pset is also a
        // full list (the special cases do not apply).
        assert_eq!(p.semijoin_steps[0].reduction, ValueListMode::Full);
        assert_eq!(p.semijoin_steps[2].reduction, ValueListMode::Full);
        // Every conjunction's remaining work is a derived predicate on the
        // free variable e.
        for preds in &p.derived_predicates {
            assert!(!preds.is_empty());
            for &s in preds {
                assert_eq!(p.semijoin_steps[s].target_var.as_ref(), "e");
            }
        }
        // All matrix terms were consumed by the steps.
        assert_eq!(p.prepared.form.term_count(), 0);
    }

    #[test]
    fn streamability_and_row_budget_are_exposed_on_the_plan() {
        // With a quantifier prefix the combination output must be
        // materialized; once Strategy 4 evaluates the whole prefix in the
        // collection phase, it can be consumed in streaming order.
        let p0 = example_plan(StrategyLevel::S0Baseline);
        assert!(!p0.combination_streams());
        assert!(p0
            .explain()
            .contains("combination output: materialized (quantifier passes required)"));
        let p4 = example_plan(StrategyLevel::S4CollectionQuantifiers);
        assert!(p4.combination_streams());
        assert!(p4
            .explain()
            .contains("combination output: streaming (empty quantifier prefix)"));

        // The row-budget hint defaults to unbounded, survives parameter
        // binding, and shows up in explain output.
        assert_eq!(p4.row_budget, None);
        let budgeted = p4.with_row_budget(10);
        assert_eq!(budgeted.row_budget, Some(10));
        assert!(budgeted
            .explain()
            .contains("row budget: at most 10 tuple(s)"));
        let bound = budgeted
            .bind_params(&pascalr_calculus::Params::new())
            .unwrap();
        assert_eq!(bound.row_budget, Some(10));

        // A quantifier-free selection streams at every level.
        let cat = figure1_sample_database().unwrap();
        let sel = parse_selection(
            "profs := [<e.ename> OF EACH e IN employees: e.estatus = professor]",
            &cat,
        )
        .unwrap();
        for level in StrategyLevel::ALL {
            assert!(plan(&sel, &cat, level, PlanOptions::default()).combination_streams());
        }
    }

    #[test]
    fn s4_reductions_for_comparison_special_cases() {
        let cat = figure1_sample_database().unwrap();
        // SOME q (p.pyear < q.pyear): keep only the maximum of q.pyear.
        let sel = parse_selection(
            "notnewest := [<p.ptitle> OF EACH p IN papers: SOME q IN papers (p.pyear < q.pyear)]",
            &cat,
        )
        .unwrap();
        let pl = plan(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert_eq!(pl.semijoin_steps.len(), 1);
        assert_eq!(pl.semijoin_steps[0].reduction, ValueListMode::MaxOnly);

        // ALL q (p.pyear <= q.pyear): keep only the minimum.
        let sel = parse_selection(
            "oldest := [<p.ptitle> OF EACH p IN papers: ALL q IN papers (p.pyear <= q.pyear)]",
            &cat,
        )
        .unwrap();
        let pl = plan(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert_eq!(pl.semijoin_steps[0].reduction, ValueListMode::MinOnly);

        // ALL t (e.enr = t.tenr): at most one value.
        let sel = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: ALL t IN timetable (e.enr = t.tenr)]",
            &cat,
        )
        .unwrap();
        let pl = plan(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert_eq!(pl.semijoin_steps[0].reduction, ValueListMode::AtMostOne);

        // SOME t (e.enr <> t.tenr): at most one value.
        let sel = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: SOME t IN timetable (e.enr <> t.tenr)]",
            &cat,
        )
        .unwrap();
        let pl = plan(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert_eq!(pl.semijoin_steps[0].reduction, ValueListMode::AtMostOne);
    }

    #[test]
    fn scan_order_prefers_small_relations_first() {
        let p = example_plan(StrategyLevel::S1Parallel);
        // Sample database cardinalities: courses 4 < papers 5 < employees 6 = timetable 6.
        let order: Vec<&str> = p
            .scan_order
            .iter()
            .map(std::convert::AsRef::as_ref)
            .collect();
        assert_eq!(order[0], "courses");
        assert_eq!(order[1], "papers");
        assert_eq!(order.len(), 4);

        // Ablation: declaration order instead.
        let cat = figure1_sample_database().unwrap();
        let sel = parse_selection(EXAMPLE_2_1_QUERY, &cat).unwrap();
        let p2 = plan(
            &sel,
            &cat,
            StrategyLevel::S1Parallel,
            PlanOptions {
                declaration_scan_order: true,
                ..Default::default()
            },
        );
        assert_eq!(p2.scan_order[0].as_ref(), "employees");
    }

    #[test]
    fn vacuous_quantifiers_are_dropped() {
        let cat = figure1_sample_database().unwrap();
        let sel = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: \
               SOME t IN timetable (e.estatus = professor)]",
            &cat,
        )
        .unwrap();
        let pl = plan(&sel, &cat, StrategyLevel::S2OneStep, PlanOptions::default());
        assert!(pl.prepared.form.prefix.is_empty());
        assert_eq!(pl.dropped_vars.len(), 1);
        assert_eq!(pl.dropped_vars[0].as_ref(), "t");
    }

    #[test]
    fn explain_mentions_strategies_and_structures() {
        let p = example_plan(StrategyLevel::S4CollectionQuantifiers);
        let text = p.explain();
        assert!(text.contains("S4"));
        assert!(text.contains("collection-phase quantifier steps"));
        assert!(text.contains("scan order"));
        let names = p.structure_names();
        assert!(names.iter().any(|n| n.starts_with("sl_")));
    }

    #[test]
    fn s4_does_not_apply_to_multi_target_variables() {
        let cat = figure1_sample_database().unwrap();
        // t is linked to both e and c in the same conjunction: the innermost
        // variable cannot be peeled first, but c can, after which t becomes
        // eligible; verify the planner handles the chain and terminates.
        let sel = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: \
               SOME t IN timetable SOME c IN courses \
                 ((t.tenr = e.enr) AND (t.tcnr = c.cnr) AND (c.clevel <= sophomore))]",
            &cat,
        )
        .unwrap();
        let pl = plan(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert_eq!(pl.semijoin_steps.len(), 2);
        assert_eq!(pl.semijoin_steps[0].bound_var.as_ref(), "c");
        assert_eq!(pl.semijoin_steps[1].bound_var.as_ref(), "t");
        assert!(pl.prepared.form.prefix.is_empty());
        // The sophomore test was hoisted into c's range by Strategy 3 (which
        // S4 includes), so it constrains the value list via the range rather
        // than via a monadic filter.
        assert!(pl.semijoin_steps[0].range.is_restricted());
        assert!(pl.semijoin_steps[0].monadic_filters.is_empty());
    }

    #[test]
    fn parameterized_plans_match_inlined_plans_after_binding() {
        let cat = figure1_sample_database().unwrap();
        let with_param = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: \
               SOME p IN papers ((p.penr = e.enr) AND (p.pyear = :year)) \
               AND (e.estatus = professor)]",
            &cat,
        )
        .unwrap();
        let inlined = parse_selection(
            "q := [<e.ename> OF EACH e IN employees: \
               SOME p IN papers ((p.penr = e.enr) AND (p.pyear = 1977)) \
               AND (e.estatus = professor)]",
            &cat,
        )
        .unwrap();
        for level in StrategyLevel::ALL {
            let p_param = plan(&with_param, &cat, level, PlanOptions::default());
            let p_inline = plan(&inlined, &cat, level, PlanOptions::default());
            // Same shape while unbound: same prefix, matrix and steps.
            assert_eq!(
                p_param.prepared.form.prefix.len(),
                p_inline.prepared.form.prefix.len(),
                "{level}"
            );
            assert_eq!(
                p_param.semijoin_steps.len(),
                p_inline.semijoin_steps.len(),
                "{level}"
            );
            assert_eq!(p_param.scan_order, p_inline.scan_order, "{level}");
            // Binding the placeholder yields the *identical* plan.
            let params = pascalr_calculus::Params::new().set("year", 1977i64);
            assert_eq!(p_param.param_names().len(), 1);
            let bound = p_param.bind_params(&params).unwrap();
            assert!(bound.param_names().is_empty());
            assert_eq!(bound, p_inline, "{level}");
        }
        // Missing bindings are reported.
        let p = plan(
            &with_param,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
        );
        assert!(p.bind_params(&pascalr_calculus::Params::new()).is_err());
    }

    #[test]
    fn plans_exist_for_every_workload_query_and_level() {
        let cat = figure1_sample_database().unwrap();
        for q in pascalr_workload::all_queries() {
            let sel = q.parse(&cat).unwrap();
            for level in StrategyLevel::ALL {
                let p = plan(&sel, &cat, level, PlanOptions::default());
                assert!(
                    !p.scan_order.is_empty(),
                    "query {} at {level} produced an empty scan order",
                    q.id
                );
                // derived predicate table always matches the matrix length
                assert_eq!(
                    p.derived_predicates.len(),
                    p.prepared.form.matrix.len().max(p.derived_predicates.len())
                );
            }
        }
    }
}
