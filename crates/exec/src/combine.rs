//! The combination phase (Section 3.3, step 2).
//!
//! "The combination phase manipulates only reference relations; it evaluates
//! logical operators and quantifiers in three steps: each conjunction is
//! combined into n-tuples of references …; the full disjunctive form is
//! evaluated by a union operation …; quantifiers are evaluated from right to
//! left, using projection for existential quantification and division for
//! universal quantification."

use pascalr_sync::Arc;
use std::collections::HashSet;

use pascalr_calculus::{Conjunction, Quantifier, VarName};
use pascalr_catalog::Catalog;
use pascalr_planner::QueryPlan;
use pascalr_relation::{CompareOp, ElemRef, HashIndex, Tuple};
use pascalr_storage::{Metrics, Phase};

use crate::collection::{counted, CollectionOutput, ConjStructures};
use crate::error::ExecError;
use crate::refrel::RefRel;

/// Dereferences an element through the relation its reference names.
pub(crate) fn deref(catalog: &Catalog, elem: ElemRef) -> Result<&Tuple, ExecError> {
    let rel = catalog
        .relation_by_id(elem.rel)
        .ok_or_else(|| ExecError::PlanInvariant {
            detail: format!("reference {elem} names no relation of this catalog version"),
        })?;
    Ok(rel.deref(elem)?)
}

/// The position of `var.attr` in the schema of the relation `var` ranges
/// over.
fn component_index(
    collection: &CollectionOutput,
    var: &str,
    attr: &str,
) -> Result<usize, ExecError> {
    let info = collection
        .var_info
        .get(var)
        .ok_or_else(|| ExecError::PlanInvariant {
            detail: format!("no binding information for variable {var}"),
        })?;
    info.schema
        .attr_index(attr)
        .ok_or_else(|| ExecError::UnknownComponent {
            variable: var.to_string(),
            attribute: attr.to_string(),
        })
}

/// The equality indirect-join probe one [`Stage`] uses to narrow its
/// candidate references per prefix row.
#[derive(Debug)]
pub(crate) struct EqProbe {
    /// Index of the indirect join in the conjunction's [`ConjStructures`];
    /// the collection phase built its probe map for this stage.
    ij: usize,
    /// Column (within the prior variables) holding the probe reference.
    other_col: usize,
}

/// A **permanent-index** probe: used when the collection phase skipped
/// materializing the indirect join of an equality term because the
/// catalog's maintained index already covers the probe side (Section 3.2:
/// "The first step can be omitted, if permanent indexes exist").  Per
/// prefix row the prior column's component value is read and the permanent
/// index is probed by value; candidate-set membership and the connecting
/// term checks in [`Stage::admits`] keep the narrowing exact.
#[derive(Debug)]
pub(crate) struct PermProbe {
    /// The maintained hash index over the stage variable's component.
    index: Arc<HashIndex>,
    /// Column (within the prior variables) holding the probing reference.
    other_col: usize,
    /// Component index (in the prior column's relation) whose value probes
    /// the index.
    other_attr: usize,
}

/// A dyadic term connecting a stage's variable to an earlier column,
/// resolved at assembly into component positions: the check is
/// `stage.attr OP other.other_attr`, normalised so that the stage variable
/// is on the left (as [`pascalr_calculus::Term::as_dyadic_over`] does).
#[derive(Debug)]
pub(crate) struct StageCheck {
    /// Component index in the stage variable's relation.
    attr: usize,
    op: CompareOp,
    /// Column (within the prior variables) holding the other reference.
    other_col: usize,
    /// Component index in the other variable's relation.
    other_attr: usize,
}

/// One step of a conjunction's reference-relation assembly: extend the
/// partial reference relation over the prior variables by one more
/// variable.  A stage with no [`StageCheck`]s is a plain Cartesian product
/// (a support variable unconnected to earlier columns, or an expansion
/// variable the conjunction does not mention); otherwise each candidate is
/// admitted per prefix row by evaluating the connecting dyadic terms.
///
/// Stages are precomputed from the plan alone, with every name resolved:
/// checks and probes hold column and component positions, and references
/// are dereferenced through the relation id they carry.  The same stage
/// list drives both the materialized assembly ([`run_combination`]) and
/// the executor's streaming cursor, which pipelines the *final* stage
/// tuple-by-tuple.
#[derive(Debug)]
pub(crate) struct Stage {
    var: VarName,
    /// Candidate references for the variable: its single list for support
    /// variables, the full candidate set for expansion variables.
    candidates: Vec<ElemRef>,
    /// The same candidates as a set (membership filter after an indirect-
    /// join or permanent-index probe, which may return references other
    /// monadic terms filtered out).
    cand_set: HashSet<ElemRef>,
    checks: Vec<StageCheck>,
    eq_probe: Option<EqProbe>,
    perm_probe: Option<PermProbe>,
}

impl Stage {
    /// Whether this stage is a plain Cartesian product.
    pub(crate) fn is_product(&self) -> bool {
        self.checks.is_empty()
    }

    /// Whether [`Stage::probe`] probes an index (one probe per prefix row)
    /// rather than returning the full candidate list.
    pub(crate) fn probes_index(&self) -> bool {
        self.eq_probe.is_some() || self.perm_probe.is_some()
    }

    /// The candidate references to try against `row`.  With an equality
    /// indirect join available this probes its reference map; with a
    /// covering permanent index it probes the maintained index by value;
    /// otherwise the full candidate list is returned.  The caller counts
    /// the probe (see [`Stage::probes_index`]).
    pub(crate) fn probe<'s>(
        &'s self,
        row: &[ElemRef],
        structures: &'s ConjStructures,
        catalog: &Catalog,
    ) -> Result<&'s [ElemRef], ExecError> {
        if let Some(p) = &self.eq_probe {
            let (_, map) = structures.indirect_joins[p.ij]
                .probe
                .as_ref()
                .ok_or_else(|| ExecError::PlanInvariant {
                    detail: format!("the indirect join {} has no probe map", p.ij),
                })?;
            return Ok(map.get(&row[p.other_col]).map_or(&[], Vec::as_slice));
        }
        if let Some(p) = &self.perm_probe {
            let value = deref(catalog, row[p.other_col])?.get(p.other_attr);
            return Ok(p.index.probe_value(value));
        }
        Ok(&self.candidates)
    }

    /// Whether `cand` extends `row` (candidate-set membership plus every
    /// connecting dyadic term), adding the terms evaluated to
    /// `comparisons`.
    pub(crate) fn admits(
        &self,
        cand: ElemRef,
        row: &[ElemRef],
        catalog: &Catalog,
        comparisons: &mut u64,
    ) -> Result<bool, ExecError> {
        if self.checks.is_empty() {
            return Ok(true);
        }
        if self.probes_index() && !self.cand_set.contains(&cand) {
            return Ok(false);
        }
        let tuple = deref(catalog, cand)?;
        for check in &self.checks {
            let other = deref(catalog, row[check.other_col])?;
            *comparisons += 1;
            if !check
                .op
                .eval(tuple.get(check.attr), other.get(check.other_attr))?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The precomputed assembly of one conjunction: its stages and the column
/// order the assembled rows come out in.
#[derive(Debug)]
pub(crate) struct ConjAssembly {
    pub(crate) stages: Vec<Stage>,
    pub(crate) var_order: Vec<VarName>,
}

/// The base of every conjunction assembly: a zero-column reference
/// relation holding exactly one empty row.
pub(crate) fn base_refrel() -> RefRel {
    let mut base = RefRel::new(Vec::new());
    base.push(&[]);
    base
}

/// The variable order one conjunction's stages assemble in: the shared
/// [`pascalr_optimizer::assembly_order`] with the executor's ground-truth
/// support predicate — "the variable has a single list in this
/// conjunction".  The collection phase calls this too, to predict which
/// side of an equality term the combination phase will probe (the side a
/// covering permanent index lets it skip materializing the indirect join
/// for, and the side whose probe map it builds), and the planner/cost
/// model mirror the same decision procedure at plan time.
pub(crate) fn assembly_var_order(
    conj: &Conjunction,
    all_vars: &[VarName],
    has_single_list: impl Fn(&str) -> bool,
) -> Vec<VarName> {
    pascalr_optimizer::assembly_order(conj, all_vars, has_single_list)
}

/// Precomputes the assembly stages of one conjunction (see
/// [`assembly_var_order`] for the stage order), resolving every connecting
/// term into a [`StageCheck`].  A stage probes the indirect join the
/// collection phase built a probe map for on its behalf; failing that,
/// the catalog is consulted for covering permanent indexes: an equality
/// term whose indirect join the collection phase skipped gets a
/// [`PermProbe`] against the maintained index instead.
pub(crate) fn conjunction_assembly(
    plan: &QueryPlan,
    ci: usize,
    all_vars: &[VarName],
    collection: &CollectionOutput,
    catalog: &Catalog,
) -> Result<ConjAssembly, ExecError> {
    let conj = &plan.prepared.form.matrix[ci];
    let structures = &collection.per_conjunction[ci];

    let order = assembly_var_order(conj, all_vars, |v| structures.single_lists.contains_key(v));

    let mut stages = Vec::with_capacity(order.len());
    for (i, var) in order.iter().enumerate() {
        let prior = &order[..i];
        let candidates = match structures.single_lists.get(var.as_ref()) {
            Some(list) => list.clone(),
            None => collection.candidates[var.as_ref()].clone(),
        };
        // Dyadic terms linking `var` to variables already assembled.
        let mut checks = Vec::new();
        for term in &conj.terms {
            let Some((attr, op, other, other_attr)) = term.as_dyadic_over(var) else {
                continue;
            };
            let Some(other_col) = prior.iter().position(|p| p.as_ref() == other.as_ref()) else {
                continue;
            };
            checks.push(StageCheck {
                attr: component_index(collection, var, &attr)?,
                op,
                other_col,
                other_attr: component_index(collection, &other, &other_attr)?,
            });
        }
        // Probe the equality indirect join built for this stage, if any.
        let eq_probe = structures
            .indirect_joins
            .iter()
            .enumerate()
            .find_map(|(idx, ij)| {
                let (probing, _) = ij.probe.as_ref()?;
                if probing.as_ref() != var.as_ref() {
                    return None;
                }
                let other = if ij.left_var.as_ref() == var.as_ref() {
                    &ij.right_var
                } else {
                    &ij.left_var
                };
                let other_col = prior.iter().position(|p| p.as_ref() == other.as_ref())?;
                Some(EqProbe { ij: idx, other_col })
            });
        // No materialized indirect join for an equality check: the
        // collection phase skipped it because a permanent index covers the
        // stage variable's component — probe the maintained index instead.
        let perm_probe = if eq_probe.is_some() {
            None
        } else {
            checks.iter().find_map(|check| {
                if check.op != CompareOp::Eq {
                    return None;
                }
                let var_info = collection.var_info.get(var.as_ref())?;
                let attr = &var_info.schema.attribute(check.attr).name;
                let use_ = catalog.permanent_index(&var_info.relation, &[attr.as_ref()])?;
                Some(PermProbe {
                    index: use_.index,
                    other_col: check.other_col,
                    other_attr: check.other_attr,
                })
            })
        };
        // The membership filter is only consulted after an indirect-join
        // or permanent-index probe; don't build the set for product stages
        // or plain scans.
        let cand_set: HashSet<ElemRef> = if eq_probe.is_some() || perm_probe.is_some() {
            candidates.iter().copied().collect()
        } else {
            HashSet::new()
        };
        stages.push(Stage {
            var: var.clone(),
            candidates,
            cand_set,
            checks,
            eq_probe,
            perm_probe,
        });
    }

    Ok(ConjAssembly {
        stages,
        var_order: order,
    })
}

/// Extends the partial reference relation by one stage (materialized form),
/// recording the stage's intermediate size.  Probes and comparisons are
/// counted locally and recorded once.
pub(crate) fn apply_stage(
    current: RefRel,
    stage: &Stage,
    structures: &ConjStructures,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<RefRel, ExecError> {
    let _span = pascalr_obs::span!("stage", var = stage.var.as_ref());
    let next = if stage.is_product() {
        current.product_with(stage.var.clone(), &stage.candidates)
    } else {
        let mut vars = current.vars().to_vec();
        vars.push(stage.var.clone());
        let mut next = RefRel::new(vars);
        let mut probes = 0u64;
        let extended = counted(metrics, Phase::Combination, |comparisons| {
            for row in current.rows() {
                let cands = stage.probe(row, structures, catalog)?;
                probes += u64::from(stage.probes_index());
                for &cand in cands {
                    if stage.admits(cand, row, catalog, comparisons)? {
                        next.push_extended(row, cand);
                    }
                }
            }
            Ok(())
        });
        metrics.record_index_probes(Phase::Combination, probes);
        extended?;
        next
    };
    metrics.record_intermediate(Phase::Combination, next.len() as u64);
    Ok(next)
}

/// Builds the reference relation of one conjunction over its support
/// variables, then expands it over the remaining combination variables.
fn conjunction_refrel(
    plan: &QueryPlan,
    ci: usize,
    all_vars: &[VarName],
    collection: &CollectionOutput,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<RefRel, ExecError> {
    let assembly = conjunction_assembly(plan, ci, all_vars, collection, catalog)?;
    let structures = &collection.per_conjunction[ci];
    let mut current = base_refrel();
    for stage in &assembly.stages {
        current = apply_stage(current, stage, structures, catalog, metrics)?;
    }
    Ok(current)
}

/// Runs the combination phase: per-conjunction assembly, union, and
/// right-to-left quantifier evaluation.  Returns the reference relation over
/// the free variables.
pub fn run_combination(
    plan: &QueryPlan,
    collection: &CollectionOutput,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<RefRel, ExecError> {
    let _span = pascalr_obs::span!("combination");
    let free_vars: Vec<VarName> = plan.prepared.free.iter().map(|d| d.var.clone()).collect();
    let prefix_vars: Vec<VarName> = plan
        .prepared
        .form
        .prefix
        .iter()
        .map(|p| p.var.clone())
        .collect();
    let mut all_vars = free_vars.clone();
    all_vars.extend(prefix_vars.iter().cloned());

    // Union of the conjunction results.
    let mut total = RefRel::new(all_vars.clone());
    if plan.prepared.form.matrix.is_empty() {
        // Matrix is `false`: no tuple qualifies.
    } else {
        for ci in 0..plan.prepared.form.matrix.len() {
            let _span = pascalr_obs::span!("conjunction", index = ci + 1);
            let conj_rel = conjunction_refrel(plan, ci, &all_vars, collection, catalog, metrics)?;
            metrics.record_structure_size(&format!("refrel_c{}", ci + 1), conj_rel.len() as u64);
            total.union_in(&conj_rel);
        }
    }
    metrics.record_structure_size("refrel_union", total.len() as u64);
    metrics.record_intermediate(Phase::Combination, total.len() as u64);

    // Quantifier evaluation from right to left: projection for SOME,
    // division for ALL.
    let mut remaining: Vec<VarName> = all_vars.clone();
    for entry in plan.prepared.form.prefix.iter().rev() {
        remaining.retain(|v| v.as_ref() != entry.var.as_ref());
        match entry.q {
            Quantifier::Some => {
                total = total.project(&remaining);
            }
            Quantifier::All => {
                let divisor = &collection.candidates[entry.var.as_ref()];
                if divisor.is_empty() {
                    // `ALL v IN ∅ (...)` is vacuously true — an empty range
                    // (e.g. an S3 complement hoist that excludes every
                    // stored tuple) collapses everything inside this
                    // quantifier to `true`, so every combination of the
                    // remaining variables' candidates qualifies.  Division
                    // would wrongly return only combinations present in
                    // `total`.  Exact: assumed ranges were tested before.
                    let mut vacuous = base_refrel();
                    for v in &remaining {
                        vacuous =
                            vacuous.product_with(v.clone(), &collection.candidates[v.as_ref()]);
                    }
                    total = vacuous;
                } else {
                    let (quotient, checks) = total.divide_by(&entry.var, divisor);
                    metrics.record_comparisons(Phase::Combination, checks);
                    total = quotient;
                }
            }
        }
        metrics.record_intermediate(Phase::Combination, total.len() as u64);
    }

    // What remains are the free variables.
    debug_assert_eq!(total.vars().len(), free_vars.len());
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::run_collection;
    use pascalr_planner::{plan, PlanOptions, StrategyLevel};
    use pascalr_workload::{figure1_sample_database, query_by_id};

    fn combine(query: &str, level: StrategyLevel) -> (RefRel, Metrics) {
        let cat = figure1_sample_database().unwrap();
        let sel = query_by_id(query).unwrap().parse(&cat).unwrap();
        let p = plan(&sel, &cat, level, PlanOptions::default());
        let metrics = Metrics::new();
        let out = run_collection(&p, &cat, &metrics).unwrap();
        let result = run_combination(&p, &out, &cat, &metrics).unwrap();
        (result, metrics)
    }

    #[test]
    fn example_2_1_qualifies_the_three_professors_at_every_level() {
        for level in StrategyLevel::ALL {
            let (result, _) = combine("ex2.1", level);
            assert_eq!(result.vars().len(), 1, "free variables only");
            assert_eq!(result.len(), 3, "Abel, Baker and Cohen qualify at {level}");
        }
    }

    #[test]
    fn combination_intermediates_shrink_with_higher_strategies() {
        let (_, m0) = combine("ex2.1", StrategyLevel::S0Baseline);
        let (_, m4) = combine("ex2.1", StrategyLevel::S4CollectionQuantifiers);
        let c0 = m0.snapshot().phase(Phase::Combination).intermediate_tuples;
        let c4 = m4.snapshot().phase(Phase::Combination).intermediate_tuples;
        assert!(
            c4 < c0,
            "S4 must materialize fewer combination tuples ({c4} vs {c0})"
        );
    }

    #[test]
    fn union_size_is_recorded() {
        let (_, metrics) = combine("ex2.1", StrategyLevel::S1Parallel);
        let snap = metrics.snapshot();
        assert!(snap.structure_size("refrel_union") > 0);
        assert!(snap.structure_size("refrel_c1") > 0);
    }

    #[test]
    fn universal_queries_divide_correctly() {
        // q03: employees all of whose papers are from 1977.  On the sample
        // database: Baker (paper from 1976 → no), Abel (1975 and 1977 → no),
        // Cohen (1977 only → yes), Ivers (1977 only → yes), plus Highman and
        // Jones who have no papers at all (vacuously yes).
        let (result, _) = combine("q03", StrategyLevel::S2OneStep);
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn two_free_variable_query_produces_pairs() {
        let (result, _) = combine("q11", StrategyLevel::S3ExtendedRanges);
        assert_eq!(result.vars().len(), 2);
        // Professor/course pairs taught: Abel→50, Abel→52, Baker→52,
        // Cohen→53, Cohen→51.
        assert_eq!(result.len(), 5);
    }
}
