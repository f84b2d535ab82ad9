//! The collection phase (Section 3.3, step 1; Sections 4.1/4.2/4.4).
//!
//! The collection phase "evaluates range expressions and single join terms.
//! The results are single lists and indirect joins for all monadic and
//! dyadic join terms in the selection expression.  This phase performs data
//! compression (records to references) and data reduction (testing join
//! terms)."
//!
//! Depending on the strategy level the same logical structures are produced
//! with very different amounts of work, which the [`Metrics`] handle
//! records:
//!
//! * `S0` — every join term evaluation scans its relation(s) separately;
//! * `S1`+ — each relation is scanned once (parallel evaluation);
//! * `S2`+ — within a conjunction, monadic terms restrict indirect joins;
//! * `S3`+ — extended range expressions shrink the candidate sets;
//! * `S4` — value lists evaluate quantifiers during collection.
//!
//! A value list whose links are all `=` under `SOME` is probed as a hash
//! semijoin, and one whose links are all `<>` under `ALL` as a hash
//! anti-semijoin (one set per linked column); every other list is compared
//! row by row.  For the paper's cost unit, a comparison is one evaluation of a
//! join term or restriction on one pair of values, and **one hash probe
//! counts as one comparison**, whatever the number of rows it rules in or
//! out.

use pascalr_sync::Arc;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

use pascalr_calculus::{Assumption, Quantifier, RangeExpr, RelationProvider, Term, VarName};
use pascalr_catalog::Catalog;
use pascalr_planner::{DyadicLink, QueryPlan, SemijoinStep, ValueListMode};
use pascalr_relation::{CompareOp, ElemRef, Key, Relation, RelationSchema, Tuple, Value};
use pascalr_storage::{Metrics, Phase};

use crate::error::ExecError;
use crate::predicate::TuplePredicate;

/// Runs a scan or stage loop that counts its comparisons in a local, and
/// records the count once, whether the loop succeeds or fails.
pub(crate) fn counted<T>(
    metrics: &Metrics,
    phase: Phase,
    run: impl FnOnce(&mut u64) -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let mut comparisons = 0;
    let result = run(&mut comparisons);
    metrics.record_comparisons(phase, comparisons);
    result
}

/// Adapter exposing the catalog to the calculus semantics (for range
/// restriction evaluation).
pub struct ExecProvider<'a>(pub &'a Catalog);

impl RelationProvider for ExecProvider<'_> {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.0.relation(name).ok()
    }
}

/// Per-variable binding information resolved against the catalog.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// The variable name.
    pub var: VarName,
    /// The base relation it ranges over.
    pub relation: Arc<str>,
    /// The schema of that relation.
    pub schema: Arc<RelationSchema>,
    /// The (possibly extended) range expression.
    pub range: RangeExpr,
}

/// An indirect join: the pairs of references satisfying one dyadic join term
/// within one conjunction.
///
/// Its size — the number of pairs — is recorded as the `ij_*` structure
/// size.  The pairs themselves are kept only where the combination phase
/// reads them: as the probe map of the `=` join a stage probes.  Every
/// other join is re-tested pair by pair by its stage's checks, so its
/// pairs are counted and dropped.
#[derive(Debug, Clone)]
pub struct IndirectJoin {
    /// The dyadic term.
    pub term: Term,
    /// The variable of the left column.
    pub left_var: VarName,
    /// The variable of the right column.
    pub right_var: VarName,
    /// For the join a combination stage probes: the variable that stage
    /// assembles, and the satisfying pairs grouped by the reference of the
    /// other variable, which is assembled earlier.
    pub probe: Option<(VarName, HashMap<ElemRef, Vec<ElemRef>>)>,
}

/// The structures built for one conjunction of the matrix.
#[derive(Debug, Clone, Default)]
pub struct ConjStructures {
    /// Single lists: per variable, the candidate references satisfying the
    /// conjunction's monadic terms over that variable (and any derived
    /// predicates assigned to it).
    pub single_lists: BTreeMap<String, Vec<ElemRef>>,
    /// Indirect joins for the conjunction's dyadic terms.
    pub indirect_joins: Vec<IndirectJoin>,
}

/// A derived predicate produced by a Strategy 4 value-list step: a test on
/// elements of the target variable.
#[derive(Debug, Clone)]
pub struct DerivedCheck {
    /// The variable whose elements are tested.
    pub target_var: VarName,
    /// The quantifier of the evaluated variable.
    pub quantifier: Quantifier,
    /// The comparisons `target.attr OP bound.attr`.
    pub links: Vec<DyadicLink>,
    /// The (possibly reduced) value list: one row per retained element of the
    /// bound variable's range, projected onto the linked components.
    pub values: Vec<Box<[Value]>>,
    /// If the predicate collapsed to a constant (e.g. `SOME`/`<>` with two
    /// distinct values, or an empty value list: exact, as the plan's
    /// assumptions about the step's range are tested before it is used).
    pub constant: Option<bool>,
    /// Number of values actually stored (for the E9 report).
    pub stored_values: usize,
    /// Positions of the linked components in the target's schema, in link
    /// order.
    target_indices: Box<[usize]>,
    /// How an element is tested against `values`.
    form: ListForm,
}

/// How [`DerivedCheck::satisfied`] tests an element against the value list.
#[derive(Debug, Clone)]
enum ListForm {
    /// Compare with every row in turn — the reference semantics.  Used for
    /// the single-value lists of the Section 4.4 reductions, for
    /// mixed-operator links and for a `<>` column holding values of more
    /// than one kind.
    Linear,
    /// `SOME` with every link `=`, a hash semijoin: row positions bucketed
    /// by the hash of the row.  `Value` equality is exactly `=` (values of
    /// different kinds are unequal, as `=` is false on them).
    Semijoin {
        hasher: RandomState,
        buckets: HashMap<u64, Vec<usize>>,
    },
    /// `ALL` with every link `<>`, a hash anti-semijoin: per linked column,
    /// one of its values (every value of the column is of that one's kind)
    /// and the set of its values.
    AntiSemijoin(Vec<(Value, HashSet<Value>)>),
}

impl ListForm {
    /// The hashed form of a value list, where its links allow one.
    fn build(
        quantifier: Quantifier,
        links: &[DyadicLink],
        values: &[Box<[Value]>],
        constant: Option<bool>,
    ) -> ListForm {
        if constant.is_some() || values.is_empty() {
            return ListForm::Linear;
        }
        let every_link = |op: CompareOp| links.iter().all(|l| l.op == op);
        match quantifier {
            Quantifier::Some if every_link(CompareOp::Eq) => {
                let hasher = RandomState::new();
                let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
                for (pos, row) in values.iter().enumerate() {
                    buckets
                        .entry(hash_row(&hasher, row.iter()))
                        .or_default()
                        .push(pos);
                }
                ListForm::Semijoin { hasher, buckets }
            }
            Quantifier::All if every_link(CompareOp::Ne) => (0..links.len())
                .map(|col| {
                    let witness = &values[0][col];
                    values
                        .iter()
                        .all(|row| witness.try_compare(&row[col]).is_ok())
                        .then(|| {
                            let set = values.iter().map(|row| row[col].clone()).collect();
                            (witness.clone(), set)
                        })
                })
                .collect::<Option<Vec<_>>>()
                .map_or(ListForm::Linear, ListForm::AntiSemijoin),
            _ => ListForm::Linear,
        }
    }
}

/// Hashes a row of components the same way whether it is stored or built
/// from a target element's components.
fn hash_row<'v>(hasher: &RandomState, components: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = hasher.build_hasher();
    for v in components {
        v.hash(&mut h);
    }
    h.finish()
}

impl DerivedCheck {
    fn new(
        target_var: VarName,
        quantifier: Quantifier,
        links: Vec<DyadicLink>,
        values: Vec<Box<[Value]>>,
        constant: Option<bool>,
        target_indices: Box<[usize]>,
    ) -> Self {
        let form = ListForm::build(quantifier, &links, &values, constant);
        DerivedCheck {
            target_var,
            quantifier,
            links,
            stored_values: values.len(),
            values,
            constant,
            target_indices,
            form,
        }
    }

    /// Tests an element of the target variable (a tuple of the target's
    /// relation).  Returns the verdict and the comparisons it took.
    pub fn satisfied(&self, tuple: &Tuple) -> (bool, u64) {
        if let Some(c) = self.constant {
            return (c, 0);
        }
        let target = || self.target_indices.iter().map(|&i| tuple.get(i));
        let (result, comparisons) = match &self.form {
            ListForm::Linear => self.scan(tuple),
            ListForm::Semijoin { hasher, buckets } => {
                let hit = buckets
                    .get(&hash_row(hasher, target()))
                    .is_some_and(|rows| rows.iter().any(|&r| self.values[r].iter().eq(target())));
                (hit, 1)
            }
            ListForm::AntiSemijoin(columns) => {
                let mut probes = 0u64;
                // A component of another kind than its column compares with
                // no row, so `<>` fails on every row of the (non-empty) list.
                let pass = columns.iter().zip(target()).all(|((witness, set), t)| {
                    probes += 1;
                    witness.try_compare(t).is_ok() && !set.contains(t)
                });
                (pass, probes)
            }
        };
        (result, comparisons)
    }

    /// The linear test: every row, every link, with an incomparable pair
    /// reading `false`.  Returns the result and the comparisons made.
    fn scan(&self, tuple: &Tuple) -> (bool, u64) {
        let mut comparisons = 0u64;
        let mut row_matches = |row: &[Value]| {
            comparisons += self.links.len() as u64;
            self.links
                .iter()
                .zip(self.target_indices.iter())
                .zip(row.iter())
                .all(|((link, &i), bound)| link.op.eval(tuple.get(i), bound).unwrap_or(false))
        };
        let result = match self.quantifier {
            Quantifier::Some => self.values.iter().any(|row| row_matches(row)),
            Quantifier::All => self.values.iter().all(|row| row_matches(row)),
        };
        (result, comparisons)
    }

    /// Whether the check probes a hash structure instead of scanning.
    #[cfg(test)]
    pub(crate) fn is_hashed(&self) -> bool {
        !matches!(self.form, ListForm::Linear)
    }
}

/// Positions of `attrs` in `schema`, reported against `var` when one is
/// missing.
fn component_indices<'a>(
    schema: &RelationSchema,
    var: &VarName,
    attrs: impl Iterator<Item = &'a Arc<str>>,
) -> Result<Box<[usize]>, ExecError> {
    attrs
        .map(|attr| {
            schema
                .attr_index(attr)
                .ok_or_else(|| ExecError::UnknownComponent {
                    variable: var.to_string(),
                    attribute: attr.to_string(),
                })
        })
        .collect()
}

/// Everything the collection phase hands to the combination phase.
#[derive(Debug, Clone, Default)]
pub struct CollectionOutput {
    /// Binding information for every combination-phase variable.
    pub var_info: BTreeMap<String, VarInfo>,
    /// Candidate references per combination-phase variable (range elements
    /// after applying the range restriction).
    pub candidates: BTreeMap<String, Vec<ElemRef>>,
    /// Structures per conjunction of the matrix.
    pub per_conjunction: Vec<ConjStructures>,
    /// Derived checks, indexed like the plan's semijoin steps.
    pub derived: Vec<DerivedCheck>,
}

fn resolve_var(var: &VarName, range: &RangeExpr, catalog: &Catalog) -> Result<VarInfo, ExecError> {
    let rel = catalog.relation(&range.relation)?;
    Ok(VarInfo {
        var: var.clone(),
        relation: Arc::from(rel.name()),
        schema: rel.schema().clone(),
        range: range.clone(),
    })
}

/// Evaluates a range expression into candidate references, recording the
/// restriction comparisons against `metrics`: one per scanned element of
/// a restricted range.  The restriction is compiled once into a predicate
/// tree over the variable's schema (column against constant, column
/// against column, `AND`/`OR`/`NOT`); a part it cannot resolve (a
/// quantified restriction, say) is interpreted by the calculus semantics
/// on the elements that reach it.
///
/// This is the primitive behind every candidate list the collection phase
/// builds.
pub(crate) fn range_candidates(
    info: &VarInfo,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<Vec<ElemRef>, ExecError> {
    let rel = catalog.relation(&info.relation)?;
    let provider = ExecProvider(catalog);
    let restriction =
        TuplePredicate::new(&info.var, &info.schema, info.range.restriction.as_deref());
    counted(metrics, Phase::Collection, |tested| {
        let mut out = Vec::new();
        for (r, t) in rel.iter() {
            if restriction.holds(t, &provider, tested)? {
                out.push(r);
            }
        }
        Ok(out)
    })
}

/// The permanent-index probe that can serve a restricted range without a
/// full scan: the first declared index (per the shared
/// [`pascalr_optimizer::covering_range_indexes`] decision) whose every
/// component carries an equality conjunct with a *constant* operand —
/// parameters are already bound by execution time, so a plan whose shape
/// was judged index-servable always probes here.  Returns the indexed
/// component names and the probe key; shape-only — the physical index is
/// fetched (and lazily rebuilt) by [`range_candidates_indexed`].
pub(crate) fn range_probe_key(info: &VarInfo, catalog: &Catalog) -> Option<(Vec<String>, Key)> {
    let restriction = info.range.restriction.as_ref()?;
    let eqs = pascalr_optimizer::eq_conjunct_operands(restriction, info.var.as_ref());
    let decls: Vec<&pascalr_catalog::IndexDecl> = catalog.indexes().collect();
    for decl in pascalr_optimizer::covering_range_indexes(
        decls.iter().copied(),
        &info.range,
        info.var.as_ref(),
    ) {
        let values: Option<Vec<Value>> = decl
            .attributes
            .iter()
            .map(|a| {
                eqs.iter().find_map(|(attr, operand)| {
                    (attr.as_ref() == a.as_str()).then(|| match operand {
                        pascalr_calculus::Operand::Const(v) => Some(v.clone()),
                        _ => None,
                    })?
                })
            })
            .collect();
        if let Some(values) = values {
            return Some((decl.attributes.clone(), Key::new(values)));
        }
    }
    None
}

/// Index-backed variant of [`range_candidates`]: when a permanent index
/// covers the equality part of the range restriction, the candidates come
/// from one index probe (plus a residual restriction check per probed
/// element) instead of a full relation scan.  Returns `Ok(None)` when no
/// covering index exists; a stale index rebuilt here is charged as one
/// index build.
pub(crate) fn range_candidates_indexed(
    info: &VarInfo,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<Option<Vec<ElemRef>>, ExecError> {
    let Some((attrs, key)) = range_probe_key(info, catalog) else {
        return Ok(None);
    };
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let Some(use_) = catalog.permanent_index(&info.relation, &attr_refs) else {
        return Ok(None);
    };
    if use_.rebuilt {
        metrics.record_index_build(Phase::Collection);
    }
    metrics.record_index_probes(Phase::Collection, 1);
    let Some(restriction) = info.range.restriction.as_ref() else {
        // `range_probe_key` only returns a key for restricted ranges;
        // without one there is nothing for the index to serve.
        return Ok(None);
    };
    let rel = catalog.relation(&info.relation)?;
    let provider = ExecProvider(catalog);
    let residual = TuplePredicate::new(&info.var, &info.schema, [&**restriction]);
    let matches = use_.index.probe(&key);
    // Point reads through the index: one element (and page) per match.
    metrics.record_tuple_reads(
        Phase::Collection,
        matches.len() as u64,
        matches.len() as u64,
    );
    let out = counted(metrics, Phase::Collection, |tested| {
        let mut out = Vec::new();
        for &r in matches {
            let tuple = rel.deref(r)?;
            if residual.holds(tuple, &provider, tested)? {
                out.push(r);
            }
        }
        Ok(out)
    })?;
    Ok(Some(out))
}

/// Charges one full scan of `relation` to the collection phase: its tuple
/// count, and its page count under the catalog's page model, which is the
/// same on every storage backend.
fn record_scan(catalog: &Catalog, metrics: &Metrics, relation: &str) -> Result<(), ExecError> {
    let tuples = catalog.relation(relation)?.cardinality() as u64;
    let pages = catalog
        .pages_of(relation)
        .unwrap_or_else(|_| catalog.page_model().pages_for(tuples));
    metrics.record_scan(Phase::Collection, relation, tuples, pages);
    Ok(())
}

/// Accounts for the baseline's relation scans: every join-term evaluation
/// reads its relation(s), and the range of a variable in no term is read
/// once for its candidate list.
fn record_baseline_scans(
    plan: &QueryPlan,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<(), ExecError> {
    for conj in &plan.prepared.form.matrix {
        for term in &conj.terms {
            for v in &term.vars() {
                if let Some(r) = plan.prepared.range_of(v) {
                    record_scan(catalog, metrics, &r.relation)?;
                }
            }
        }
    }
    for var in plan.prepared.all_vars() {
        let mentioned = plan.prepared.form.matrix.iter().any(|c| c.mentions(&var));
        if !mentioned {
            if let Some(r) = plan.prepared.range_of(&var) {
                record_scan(catalog, metrics, &r.relation)?;
            }
        }
    }
    Ok(())
}

/// Tests the plan's assumed ranges in order and fails with
/// [`ExecError::AssumedRangeEmpty`] at the first empty one.  `lists` —
/// variable, range, emptiness of the candidate lists built — answers the
/// variables it covers: a list's range is the assumed one or narrower, so a
/// non-empty list holds, and an empty one fails if the ranges are equal.
/// Any other assumed range is read, charged to the query.
fn check_assumptions(
    plan: &QueryPlan,
    lists: &[(&str, &RangeExpr, bool)],
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<(), ExecError> {
    for assumed in &plan.prepared.form.assumptions {
        let empty = match lists.iter().find(|(var, ..)| *var == assumed.var.as_ref()) {
            Some((_, _, false)) => false,
            Some((_, range, true)) if **range == assumed.range => true,
            _ => range_is_empty(assumed, catalog, metrics)?,
        };
        if empty {
            return Err(ExecError::AssumedRangeEmpty(assumed.clone()));
        }
    }
    Ok(())
}

/// Whether an assumed range has no element: the relation's emptiness for a
/// bare relation, otherwise one charged scan of the relation.
fn range_is_empty(
    assumed: &Assumption,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<bool, ExecError> {
    let info = resolve_var(&assumed.var, &assumed.range, catalog)?;
    if assumed.range.restriction.is_none() {
        return Ok(catalog.relation(&info.relation)?.is_empty());
    }
    record_scan(catalog, metrics, &info.relation)?;
    Ok(range_candidates(&info, catalog, metrics)?.is_empty())
}

/// Builds the value list of one Strategy 4 step from its range's
/// candidates and reduces it.  `info` resolves the step's bound variable,
/// `target_schema` is the schema of the relation its target variable ranges
/// over.
fn build_derived_check(
    step: &SemijoinStep,
    info: &VarInfo,
    candidates: Vec<ElemRef>,
    target_schema: &RelationSchema,
    earlier: &[DerivedCheck],
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<DerivedCheck, ExecError> {
    let rel = catalog.relation(&info.relation)?;

    // Project the retained elements onto the linked bound components.
    let bound_indices = component_indices(
        &info.schema,
        &step.bound_var,
        step.links.iter().map(|l| &l.bound_attr),
    )?;
    let target_indices = component_indices(
        target_schema,
        &step.target_var,
        step.links.iter().map(|l| &l.target_attr),
    )?;

    let provider = ExecProvider(catalog);
    let filters = TuplePredicate::of_terms(&step.bound_var, &info.schema, &step.monadic_filters);
    let values = counted(metrics, Phase::Collection, |comparisons| {
        let mut values: Vec<Box<[Value]>> = Vec::new();
        'outer: for r in candidates {
            let tuple = rel.deref(r)?;
            if !filters.holds(tuple, &provider, comparisons)? {
                continue;
            }
            for &consumed in &step.consumes {
                let (pass, n) = earlier[consumed].satisfied(tuple);
                *comparisons += n;
                if !pass {
                    continue 'outer;
                }
            }
            values.push(
                bound_indices
                    .iter()
                    .map(|&i| tuple.get(i).clone())
                    .collect(),
            );
        }
        Ok(values)
    })?;

    // Apply the Section 4.4 reductions.
    let (values, constant) = match step.reduction {
        ValueListMode::Full => {
            let constant = if values.is_empty() {
                Some(matches!(step.quantifier, Quantifier::All))
            } else {
                None
            };
            (values, constant)
        }
        ValueListMode::MaxOnly | ValueListMode::MinOnly => {
            if values.is_empty() {
                (values, Some(matches!(step.quantifier, Quantifier::All)))
            } else {
                let want_max = matches!(step.reduction, ValueListMode::MaxOnly);
                let mut best = values[0].clone();
                for row in &values[1..] {
                    metrics.record_comparisons(Phase::Collection, 1);
                    let ord = row[0].try_compare(&best[0])?;
                    let better = if want_max { ord.is_gt() } else { ord.is_lt() };
                    if better {
                        best = row.clone();
                    }
                }
                (vec![best], None)
            }
        }
        ValueListMode::AtMostOne => {
            if values.is_empty() {
                (values, Some(matches!(step.quantifier, Quantifier::All)))
            } else {
                let first = values[0].clone();
                let mut comparisons = 0u64;
                let all_same = values[1..].iter().all(|row| {
                    comparisons += 1;
                    row[0] == first[0]
                });
                metrics.record_comparisons(Phase::Collection, comparisons);
                match (step.quantifier, all_same) {
                    // ALL with '=': equal to two different values is impossible.
                    (Quantifier::All, false) => (Vec::new(), Some(false)),
                    (Quantifier::All, true) => (vec![first], None),
                    // SOME with '<>': with two distinct values, any target
                    // value differs from at least one of them.
                    (Quantifier::Some, false) => (Vec::new(), Some(true)),
                    (Quantifier::Some, true) => (vec![first], None),
                }
            }
        }
    };

    let stored = values.len();
    metrics.record_intermediate(Phase::Collection, stored as u64);
    metrics.record_structure_size(&step.produces, stored as u64);

    Ok(DerivedCheck::new(
        step.target_var.clone(),
        step.quantifier,
        step.links.clone(),
        values,
        constant,
        target_indices,
    ))
}

/// Runs the collection phase for a plan.
pub fn run_collection(
    plan: &QueryPlan,
    catalog: &Catalog,
    metrics: &Metrics,
) -> Result<CollectionOutput, ExecError> {
    let _span = pascalr_obs::span!("collection");
    let provider = ExecProvider(catalog);
    // An assumed range over an empty relation is decided before any read.
    for assumed in &plan.prepared.form.assumptions {
        let relation = &assumed.range.relation;
        if catalog.relation(relation)?.is_empty() {
            let bare = RangeExpr::relation(relation.clone());
            return Err(ExecError::AssumedRangeEmpty(Assumption::new(
                assumed.var.clone(),
                bare,
            )));
        }
    }
    // A false matrix qualifies nothing: only the assumptions are tested.
    if plan.prepared.form.matrix_is_false() {
        check_assumptions(plan, &[], catalog, metrics)?;
        return Ok(CollectionOutput::default());
    }
    // Resolve combination-phase variables first: which ranges a permanent
    // index can serve decides the scan accounting below.
    let all_vars: Vec<VarName> = plan.prepared.all_vars();
    let mut var_info: BTreeMap<String, VarInfo> = BTreeMap::new();
    for var in &all_vars {
        let range = plan
            .prepared
            .range_of(var)
            .ok_or_else(|| ExecError::PlanInvariant {
                detail: format!("variable {var} has no range"),
            })?
            .clone();
        var_info.insert(var.to_string(), resolve_var(var, &range, catalog)?);
    }
    let step_infos: Vec<VarInfo> = plan
        .semijoin_steps
        .iter()
        .map(|s| resolve_var(&s.bound_var, &s.range, catalog))
        .collect::<Result<_, _>>()?;

    // Index-backed range lookups are part of the parallel repertoire
    // (Strategy 1+); the baseline stays deliberately naive.  A relation is
    // scan-free when *every* range over it is served by an index probe.
    let use_index_ranges = plan.strategy.parallel_scans();
    let mut index_served: BTreeSet<String> = BTreeSet::new();
    if use_index_ranges {
        let mut fully_served: BTreeMap<String, bool> = BTreeMap::new();
        for info in var_info.values().chain(step_infos.iter()) {
            let servable = range_probe_key(info, catalog).is_some();
            fully_served
                .entry(info.relation.to_string())
                .and_modify(|all| *all &= servable)
                .or_insert(servable);
        }
        index_served = fully_served
            .into_iter()
            .filter_map(|(rel, all)| all.then_some(rel))
            .collect();
    }

    // Candidate lists, per combination-phase variable and then per step.
    // Those of assumed variables come first and the assumptions are tested
    // on them, so a failing plan reads no relation the test did not need.
    // From Strategy 1 on, a relation's one scan is charged with its first
    // list, unless indexes serve every range over it.  The baseline is
    // charged its scan model once the assumptions hold; a failing baseline
    // pays one scan per assumed list it read.
    let infos: Vec<&VarInfo> = all_vars
        .iter()
        .map(|v| &var_info[v.as_ref()])
        .chain(&step_infos)
        .collect();
    let assumed: BTreeSet<&str> = (plan.prepared.form.assumptions.iter())
        .map(|a| a.var.as_ref())
        .collect();
    let mut lists: Vec<Option<Vec<ElemRef>>> = vec![None; infos.len()];
    let mut charged: BTreeSet<&str> = BTreeSet::new();
    for first in [true, false] {
        for (info, list) in infos.iter().zip(&mut lists) {
            if assumed.contains(info.var.as_ref()) != first {
                continue;
            }
            let _span = pascalr_obs::span!("collect_candidates", var = info.var.as_ref());
            let relation = info.relation.as_ref();
            if use_index_ranges && !index_served.contains(relation) && charged.insert(relation) {
                record_scan(catalog, metrics, relation)?;
            }
            let indexed = if use_index_ranges {
                range_candidates_indexed(info, catalog, metrics)?
            } else {
                None
            };
            *list = Some(match indexed {
                Some(c) => c,
                None => range_candidates(info, catalog, metrics)?,
            });
        }
        if first {
            let built: Vec<(&str, &RangeExpr, bool)> = infos
                .iter()
                .zip(&lists)
                .filter_map(|(info, l)| {
                    Some((info.var.as_ref(), &info.range, l.as_ref()?.is_empty()))
                })
                .collect();
            let checked = check_assumptions(plan, &built, catalog, metrics);
            if !use_index_ranges {
                match checked {
                    Ok(()) => record_baseline_scans(plan, catalog, metrics)?,
                    Err(_) => {
                        for info in infos.iter().filter(|i| assumed.contains(i.var.as_ref())) {
                            record_scan(catalog, metrics, &info.relation)?;
                        }
                    }
                }
            }
            checked?;
        }
    }
    let mut lists = lists.into_iter().map(Option::unwrap_or_default);
    let mut candidates = BTreeMap::new();
    for (var, cands) in all_vars.iter().zip(lists.by_ref()) {
        metrics.record_intermediate(Phase::Collection, cands.len() as u64);
        metrics.record_structure_size(&format!("cand_{var}"), cands.len() as u64);
        candidates.insert(var.to_string(), cands);
    }

    // Strategy 4 value lists (must run before the per-conjunction single
    // lists so their derived predicates can restrict them).
    let mut derived: Vec<DerivedCheck> = Vec::new();
    for ((step, info), cands) in plan.semijoin_steps.iter().zip(&step_infos).zip(lists) {
        let _span = pascalr_obs::span!("collect_derived", var = step.bound_var.as_ref());
        // A step targets a combination-phase variable or the bound variable
        // of a later step that consumes it.
        let target = var_info
            .get(step.target_var.as_ref())
            .or_else(|| step_infos.iter().find(|i| i.var == step.target_var))
            .ok_or_else(|| ExecError::PlanInvariant {
                detail: format!("target variable {} has no range", step.target_var),
            })?;
        let check = build_derived_check(
            step,
            info,
            cands,
            &target.schema,
            &derived,
            catalog,
            metrics,
        )?;
        derived.push(check);
    }

    // Per-conjunction single lists and indirect joins.
    let mut per_conjunction = Vec::with_capacity(plan.prepared.form.matrix.len());
    for (ci, conj) in plan.prepared.form.matrix.iter().enumerate() {
        let _span = pascalr_obs::span!("collect_structures", conjunction = ci + 1);
        let mut structures = ConjStructures::default();

        // Variables involved in this conjunction (through terms or derived
        // predicates).
        let mut involved: Vec<String> = conj
            .vars()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        for &s in &plan.derived_predicates[ci] {
            let tv = derived[s].target_var.to_string();
            if !involved.contains(&tv) && var_info.contains_key(&tv) {
                involved.push(tv);
            }
        }

        // Single lists.
        for var in &involved {
            let Some(info) = var_info.get(var) else {
                continue;
            };
            let rel = catalog.relation(&info.relation)?;
            let monadic = TuplePredicate::of_terms(var, &info.schema, conj.monadic_terms_over(var));
            let checks: Vec<&DerivedCheck> = plan.derived_predicates[ci]
                .iter()
                .map(|&s| &derived[s])
                .filter(|c| c.target_var.as_ref() == var.as_str())
                .collect();
            let list = counted(metrics, Phase::Collection, |comparisons| {
                let mut list = Vec::new();
                'outer: for &r in &candidates[var] {
                    let tuple = rel.deref(r)?;
                    if !monadic.holds(tuple, &provider, comparisons)? {
                        continue;
                    }
                    for check in &checks {
                        let (pass, n) = check.satisfied(tuple);
                        *comparisons += n;
                        if !pass {
                            continue 'outer;
                        }
                    }
                    list.push(r);
                }
                Ok(list)
            })?;
            metrics.record_intermediate(Phase::Collection, list.len() as u64);
            metrics.record_structure_size(&format!("sl_{var}_c{}", ci + 1), list.len() as u64);
            structures.single_lists.insert(var.clone(), list);
        }

        // Indirect joins for dyadic terms.  The assembly order the
        // combination phase will use decides which side of an equality
        // term gets probed — and therefore which side a covering
        // permanent index lets us skip the whole structure for, and which
        // joins get a probe map at all: per stage variable, the first `=`
        // join connecting it to a variable assembled earlier.
        let assembly_order = crate::combine::assembly_var_order(conj, &all_vars, |v| {
            structures.single_lists.contains_key(v)
        });
        let position = |v: &str| assembly_order.iter().position(|o| o.as_ref() == v);
        let mut probed_vars: BTreeSet<VarName> = BTreeSet::new();
        for term in conj.terms.iter().filter(|t| t.is_dyadic()) {
            let vars: Vec<VarName> = term.vars().into_iter().collect();
            let (left_var, right_var) = (vars[0].clone(), vars[1].clone());
            let (Some(left_info), Some(right_info)) = (
                var_info.get(left_var.as_ref()),
                var_info.get(right_var.as_ref()),
            ) else {
                // One side is handled by a semijoin step; no indirect join
                // needs to be materialized.
                continue;
            };
            let left_rel = catalog.relation(&left_info.relation)?;
            let right_rel = catalog.relation(&right_info.relation)?;

            // Strategy 2: the one-step evaluation restricts the indirect
            // join by the conjunction's monadic terms (single lists);
            // otherwise the full candidate sets are paired.
            let left_refs: &[ElemRef] = if plan.strategy.one_step_nested() {
                structures
                    .single_lists
                    .get(left_var.as_ref())
                    .map_or_else(|| candidates[left_var.as_ref()].as_slice(), Vec::as_slice)
            } else {
                candidates[left_var.as_ref()].as_slice()
            };
            let right_refs: &[ElemRef] = if plan.strategy.one_step_nested() {
                structures
                    .single_lists
                    .get(right_var.as_ref())
                    .map_or_else(|| candidates[right_var.as_ref()].as_slice(), Vec::as_slice)
            } else {
                candidates[right_var.as_ref()].as_slice()
            };

            let (left_attr, op, _, right_attr) =
                term.as_dyadic_over(&left_var)
                    .ok_or_else(|| ExecError::PlanInvariant {
                        detail: format!("term {term} is not dyadic over {left_var}"),
                    })?;
            let left_idx = left_info.schema.attr_index(&left_attr).ok_or_else(|| {
                ExecError::UnknownComponent {
                    variable: left_var.to_string(),
                    attribute: left_attr.to_string(),
                }
            })?;
            let right_idx = right_info.schema.attr_index(&right_attr).ok_or_else(|| {
                ExecError::UnknownComponent {
                    variable: right_var.to_string(),
                    attribute: right_attr.to_string(),
                }
            })?;

            // Whether the left variable is the one assembled later (the
            // side a stage probes for).
            let left_later = match (position(&left_var), position(&right_var)) {
                (Some(lp), Some(rp)) => Some(lp > rp),
                _ => None,
            };
            if op == CompareOp::Eq {
                // The paper's index + test scheme — with the first step
                // omitted when a permanent index exists (Section 3.2): the
                // side assembled *later* by the combination phase is the
                // probed one; a maintained catalog index on that component
                // makes both the ephemeral index and the materialized
                // indirect join unnecessary (the combination stages probe
                // the permanent index per prefix row instead).
                if let Some(left_later) = left_later {
                    let (probed_info, probed_attr) = if left_later {
                        (left_info, left_attr.as_ref())
                    } else {
                        (right_info, right_attr.as_ref())
                    };
                    if let Some(use_) =
                        catalog.permanent_index(&probed_info.relation, &[probed_attr])
                    {
                        if use_.rebuilt {
                            metrics.record_index_build(Phase::Collection);
                        }
                        continue;
                    }
                }
            }
            let probe_var = match left_later {
                Some(left_later) if op == CompareOp::Eq => {
                    let later = if left_later { &left_var } else { &right_var };
                    probed_vars.insert(later.clone()).then_some(later.clone())
                }
                _ => None,
            };
            // The pairs, counted, and grouped by the earlier variable's
            // reference when a stage probes this join.
            let mut size = 0u64;
            let mut by_earlier: HashMap<ElemRef, Vec<ElemRef>> = HashMap::new();
            let key_is_right = left_later == Some(true);
            let mut pair = |l: ElemRef, r: ElemRef| {
                size += 1;
                if probe_var.is_some() {
                    let (key, probed) = if key_is_right { (r, l) } else { (l, r) };
                    by_earlier.entry(key).or_default().push(probed);
                }
            };

            if op == CompareOp::Eq {
                // No permanent cover: build an ephemeral hash index on the
                // smaller side and probe from the larger (the cost model
                // knows both cardinalities; the paper leaves the choice
                // open).  Pairs always come out as (left, right).
                metrics.record_index_build(Phase::Collection);
                let build_right = right_refs.len() <= left_refs.len();
                let (build_refs, build_rel, build_idx, probe_refs, probe_rel, probe_idx) =
                    if build_right {
                        (
                            right_refs, right_rel, right_idx, left_refs, left_rel, left_idx,
                        )
                    } else {
                        (
                            left_refs, left_rel, left_idx, right_refs, right_rel, right_idx,
                        )
                    };
                let mut index: HashMap<&Value, Vec<ElemRef>> = HashMap::new();
                for &b in build_refs {
                    let t = build_rel.deref(b)?;
                    index.entry(t.get(build_idx)).or_default().push(b);
                }
                let mut probes = 0u64;
                let joined = probe_refs.iter().try_for_each(|&p| {
                    let pt = probe_rel.deref(p)?;
                    probes += 1;
                    for &b in index.get(pt.get(probe_idx)).map_or(&[][..], Vec::as_slice) {
                        if build_right {
                            pair(p, b);
                        } else {
                            pair(b, p);
                        }
                    }
                    Ok::<_, ExecError>(())
                });
                metrics.record_index_probes(Phase::Collection, probes);
                joined?;
            } else {
                counted(metrics, Phase::Collection, |comparisons| {
                    for &l in left_refs {
                        let lv = left_rel.deref(l)?.get(left_idx);
                        for &r in right_refs {
                            let rt = right_rel.deref(r)?;
                            *comparisons += 1;
                            if op.eval(lv, rt.get(right_idx))? {
                                pair(l, r);
                            }
                        }
                    }
                    Ok(())
                })?;
            }

            metrics.record_intermediate(Phase::Collection, size);
            metrics
                .record_structure_size(&format!("ij_{}_{}_c{}", left_var, right_var, ci + 1), size);
            structures.indirect_joins.push(IndirectJoin {
                term: term.clone(),
                left_var,
                right_var,
                probe: probe_var.map(|var| (var, by_earlier)),
            });
        }

        per_conjunction.push(structures);
    }

    Ok(CollectionOutput {
        var_info,
        candidates,
        per_conjunction,
        derived,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::plan_and_execute;
    use pascalr_catalog::CatalogSnapshot;
    use pascalr_planner::{plan, PlanOptions, StrategyLevel};
    use pascalr_relation::EnumType;
    use pascalr_workload::{
        figure1_sample_database, generate, oracle_eval, query_by_id, UniversityConfig,
    };
    use proptest::prelude::*;

    fn collect(query: &str, level: StrategyLevel) -> (QueryPlan, CollectionOutput, Metrics) {
        let cat = figure1_sample_database().unwrap();
        let sel = query_by_id(query).unwrap().parse(&cat).unwrap();
        let p = plan(&sel, &cat, level, PlanOptions::default());
        let metrics = Metrics::new();
        let out = run_collection(&p, &cat, &metrics).unwrap();
        (p, out, metrics)
    }

    #[test]
    fn baseline_scans_once_per_term_occurrence() {
        let (_, _, metrics) = collect("ex2.1", StrategyLevel::S0Baseline);
        let snap = metrics.snapshot();
        // Example 2.2 has 3 conjunctions with 8 term occurrences in total;
        // each monadic term scans 1 relation, each dyadic term scans 2.
        assert!(snap.max_scans_per_relation() > 1);
        assert!(snap.total().relation_scans >= 8);
    }

    #[test]
    fn parallel_scans_read_each_relation_once() {
        let (_, _, metrics) = collect("ex2.1", StrategyLevel::S1Parallel);
        let snap = metrics.snapshot();
        assert_eq!(snap.max_scans_per_relation(), 1);
        assert_eq!(snap.total().relation_scans, 4);
    }

    #[test]
    fn one_step_restricts_indirect_joins() {
        let (_, _, s1) = collect("ex2.1", StrategyLevel::S1Parallel);
        let (_, _, s2) = collect("ex2.1", StrategyLevel::S2OneStep);
        let total_ij = |metrics: &Metrics| -> u64 {
            let snap = metrics.snapshot();
            snap.structure_sizes
                .iter()
                .filter(|(name, _)| name.starts_with("ij_"))
                .map(|(_, &size)| size)
                .sum()
        };
        assert!(
            total_ij(&s2) <= total_ij(&s1),
            "one-step evaluation must not enlarge indirect joins"
        );
        assert!(
            total_ij(&s2) < total_ij(&s1),
            "and for Example 2.2 it strictly shrinks them"
        );
    }

    #[test]
    fn extended_ranges_shrink_candidate_sets() {
        let (_, s2, _) = collect("ex2.1", StrategyLevel::S2OneStep);
        let (_, s3, _) = collect("ex2.1", StrategyLevel::S3ExtendedRanges);
        // employees: only professors remain in the candidate set at S3.
        assert_eq!(s2.candidates["e"].len(), 6);
        assert_eq!(s3.candidates["e"].len(), 3);
        // papers: only the 1977 papers remain.
        assert!(s3.candidates["p"].len() < s2.candidates["p"].len());
    }

    #[test]
    fn strategy4_builds_value_lists_and_derived_predicates() {
        let (p, out, metrics) = collect("ex2.1", StrategyLevel::S4CollectionQuantifiers);
        assert_eq!(p.semijoin_steps.len(), 3);
        assert_eq!(out.derived.len(), 3);
        // The pset value list contains the professors' 1977 papers (3 of
        // them on the sample database).
        let pset = &out.derived[2];
        assert_eq!(pset.quantifier, Quantifier::All);
        assert_eq!(pset.stored_values, 3);
        // Structure sizes are recorded under the plan's names.
        let snap = metrics.snapshot();
        assert!(snap.structure_size(&p.semijoin_steps[0].produces) > 0);
    }

    #[test]
    fn value_list_reductions_store_single_values() {
        // q05: SOME q (p.pyear < q.pyear) — only the maximum year is stored.
        let (p, out, _) = collect("q05", StrategyLevel::S4CollectionQuantifiers);
        assert_eq!(p.semijoin_steps.len(), 1);
        assert_eq!(out.derived[0].stored_values, 1);
        assert_eq!(out.derived[0].values[0][0], Value::int(1977));

        // q06: ALL q (p.pyear <= q.pyear) — only the minimum year is stored.
        let (_, out, _) = collect("q06", StrategyLevel::S4CollectionQuantifiers);
        assert_eq!(out.derived[0].stored_values, 1);
        assert_eq!(out.derived[0].values[0][0], Value::int(1975));

        // q07: ALL t (e.enr = t.tenr) with several distinct tenr values —
        // the predicate collapses to constant false.
        let (_, out, _) = collect("q07", StrategyLevel::S4CollectionQuantifiers);
        assert_eq!(out.derived[0].constant, Some(false));
        assert_eq!(out.derived[0].stored_values, 0);

        // q08: SOME t (e.enr <> t.tenr) with several distinct values —
        // constant true.
        let (_, out, _) = collect("q08", StrategyLevel::S4CollectionQuantifiers);
        assert_eq!(out.derived[0].constant, Some(true));
    }

    #[test]
    fn single_lists_and_indirect_joins_follow_figure_2() {
        let (_, out, metrics) = collect("ex2.1", StrategyLevel::S2OneStep);
        // The conjunction with courses/timetable terms has an sl for c
        // (sophomore-level courses: 2 on the sample db) and indirect joins.
        let snap = metrics.snapshot();
        let sl_sizes: Vec<u64> = snap
            .structure_sizes
            .iter()
            .filter(|(k, _)| k.starts_with("sl_c"))
            .map(|(_, &v)| v)
            .collect();
        assert!(
            sl_sizes.contains(&2),
            "sl_csoph should hold 2 references: {sl_sizes:?}"
        );
        assert!(out
            .per_conjunction
            .iter()
            .any(|c| !c.indirect_joins.is_empty()));
    }

    /// q02 (`SOME =`), q03 and q10 (`ALL <>`) evaluate their quantifier
    /// through the hashed forms: right at scale 1, and at scale 24 with
    /// comparisons linear in the ranges the plan reads — a list compared
    /// row by row makes them quadratic.
    #[test]
    fn hashed_value_lists_keep_strategy4_comparisons_linear() {
        let s4 = StrategyLevel::S4CollectionQuantifiers;
        let small = CatalogSnapshot::new(generate(&UniversityConfig::at_scale(1)).unwrap());
        let large = CatalogSnapshot::new(generate(&UniversityConfig::at_scale(24)).unwrap());
        for id in ["q02", "q03", "q10"] {
            let spec = query_by_id(id).unwrap();
            let sel = spec.parse(&small).unwrap();
            let p = plan(&sel, &small, s4, PlanOptions::default());
            let out = run_collection(&p, &small, &Metrics::new()).unwrap();
            assert!(
                out.derived.iter().any(DerivedCheck::is_hashed),
                "{id} takes a hashed form"
            );
            let (_, result) =
                plan_and_execute(&sel, &small, s4, PlanOptions::default(), &Metrics::new())
                    .unwrap();
            assert!(
                oracle_eval(&sel, &small).unwrap().set_eq(&result.relation),
                "{id} disagrees with the oracle"
            );

            let sel = spec.parse(&large).unwrap();
            let metrics = Metrics::new();
            let (p, _) =
                plan_and_execute(&sel, &large, s4, PlanOptions::default(), &metrics).unwrap();
            let ranges = p.prepared.all_vars();
            let ranges = ranges
                .iter()
                .filter_map(|v| p.prepared.range_of(v))
                .chain(p.semijoin_steps.iter().map(|s| &s.range));
            let read: u64 = ranges
                .map(|r| large.relation(&r.relation).unwrap().cardinality() as u64)
                .sum();
            let comparisons = metrics.snapshot().total().comparisons;
            assert!(
                comparisons <= 2 * read,
                "{id}: {comparisons} comparisons over {read} range elements"
            );
        }
    }

    /// A value of kind `kind`: an integer, a string, or a value of one of
    /// two enumeration types that do not compare with each other.
    fn sample_value(kind: u8, n: u32) -> Value {
        match kind {
            0 => Value::int(i64::from(n)),
            1 => Value::str(["a", "b", "c", "d"][n as usize]),
            2 => EnumType::new("leveltype", ["freshman", "sophomore", "junior", "senior"])
                .value_at(n)
                .unwrap(),
            _ => EnumType::new(
                "statustype",
                ["student", "technician", "assistant", "professor"],
            )
            .value_at(n)
            .unwrap(),
        }
    }

    /// A cell: with probability `1/one_in` of a random kind, otherwise of
    /// its column's kind.
    fn cell(one_in: u8) -> impl Strategy<Value = (bool, u8, u32)> {
        (0..one_in, 0u8..4, 0u32..4).prop_map(|(d, kind, n)| (d == 0, kind, n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operator under both quantifiers, plus a mixed-operator
        /// draw, over 1–3 links and lists of 0–40 rows: the check the
        /// collection phase builds answers exactly as the linear scan, on
        /// incomparable components too, and is hashed wherever a hashed
        /// form applies.
        #[test]
        fn hashed_value_lists_agree_with_the_linear_scan(
            n_links in 1usize..4,
            col_kinds in proptest::collection::vec(0u8..4, 3),
            stray_rows in any::<bool>(),
            rows in proptest::collection::vec(proptest::collection::vec(cell(8), 3), 0..41),
            target in proptest::collection::vec(cell(3), 3),
            mixed in proptest::collection::vec(0usize..6, 3),
        ) {
            let value = |col: usize, &(stray, kind, n): &(bool, u8, u32)| {
                sample_value(if stray { kind } else { col_kinds[col] }, n)
            };
            // Half the lists keep every column to one kind.
            let row_value = |col: usize, &(stray, kind, n): &(bool, u8, u32)| {
                value(col, &(stray && stray_rows, kind, n))
            };
            let values: Vec<Box<[Value]>> = rows
                .iter()
                .map(|row| (0..n_links).map(|c| row_value(c, &row[c])).collect())
                .collect();
            // Link j reads target component n_links - 1 - j.
            let target_indices: Box<[usize]> = (0..n_links).rev().collect();
            let mut components: Vec<Value> = (0..3).map(|c| value(c, &target[c])).collect();
            components[..n_links].reverse();
            let tuple = Tuple::new(components);
            let uniform_kinds = (0..n_links).all(|c| {
                values.iter().all(|row| values[0][c].try_compare(&row[c]).is_ok())
            });
            let mixed: Vec<CompareOp> = mixed[..n_links].iter().map(|&i| CompareOp::ALL[i]).collect();
            let mut op_sets: Vec<Vec<CompareOp>> =
                CompareOp::ALL.iter().map(|&op| vec![op; n_links]).collect();
            op_sets.push(mixed);
            for quantifier in [Quantifier::Some, Quantifier::All] {
                for ops in &op_sets {
                    let links = ops
                        .iter()
                        .map(|&op| DyadicLink {
                            target_attr: Arc::from("a"),
                            op,
                            bound_attr: Arc::from("b"),
                        })
                        .collect();
                    let check = DerivedCheck::new(
                        VarName::from("x"),
                        quantifier,
                        links,
                        values.clone(),
                        None,
                        target_indices.clone(),
                    );
                    let reference = DerivedCheck { form: ListForm::Linear, ..check.clone() };
                    prop_assert_eq!(
                        check.satisfied(&tuple).0,
                        reference.satisfied(&tuple).0,
                        "{:?} {:?} over {:?} at {:?}",
                        quantifier,
                        ops,
                        values,
                        tuple
                    );
                    let every = |op| ops.iter().all(|&o| o == op);
                    let hashable = match quantifier {
                        Quantifier::Some => every(CompareOp::Eq),
                        Quantifier::All => every(CompareOp::Ne) && uniform_kinds,
                    };
                    prop_assert_eq!(check.is_hashed(), hashable && !values.is_empty());
                }
            }
        }

        /// The semijoin laws on candidate lists of two-component elements,
        /// filtered by `SOME` checks with every link `=` (semijoins) and an
        /// `ALL` check with every link `<>` (the anti-semijoin): R ⋉ S is
        /// the elements with an equal row in S, a sub-list of R, and
        /// idempotent; two semijoins give the same list in either order; and
        /// where every compared component is of one kind, semijoin and
        /// anti-semijoin partition R.  (A component of another kind equals no
        /// row and differs from none, so it is in neither.)
        #[test]
        fn semijoins_filter_candidate_lists_by_the_laws(
            col_kinds in proptest::collection::vec(0u8..4, 2),
            stray in any::<bool>(),
            list in proptest::collection::vec(proptest::collection::vec(cell(6), 2), 0..30),
            s1 in proptest::collection::vec(proptest::collection::vec(cell(6), 1), 0..8),
            s2 in proptest::collection::vec(proptest::collection::vec(cell(6), 2), 0..8),
        ) {
            // Half the draws keep every column to one kind.
            let value = |col: usize, &(odd, kind, n): &(bool, u8, u32)| {
                sample_value(if odd && stray { kind } else { col_kinds[col] }, n)
            };
            let list: Vec<Tuple> = list
                .iter()
                .map(|t| Tuple::new(vec![value(0, &t[0]), value(1, &t[1])]))
                .collect();
            // s1 is compared with component 0, s2 with components 1 and 0.
            let s1: Vec<Box<[Value]>> = s1.iter().map(|row| [value(0, &row[0])].into()).collect();
            let s2: Vec<Box<[Value]>> = s2
                .iter()
                .map(|row| [value(1, &row[0]), value(0, &row[1])].into())
                .collect();
            let check = |quantifier, op, values: &[Box<[Value]>], target: &[usize]| {
                let link = DyadicLink {
                    target_attr: Arc::from("a"),
                    op,
                    bound_attr: Arc::from("b"),
                };
                DerivedCheck::new(
                    VarName::from("x"),
                    quantifier,
                    vec![link; target.len()],
                    values.to_vec(),
                    None,
                    target.into(),
                )
            };
            let filter = |list: &[Tuple], check: &DerivedCheck| -> Vec<Tuple> {
                list.iter().filter(|t| check.satisfied(t).0).cloned().collect()
            };
            let semi1 = check(Quantifier::Some, CompareOp::Eq, &s1, &[0]);
            let semi2 = check(Quantifier::Some, CompareOp::Eq, &s2, &[1, 0]);
            let anti1 = check(Quantifier::All, CompareOp::Ne, &s1, &[0]);

            let r1 = filter(&list, &semi1);
            let defined: Vec<Tuple> = list
                .iter()
                .filter(|t| s1.iter().any(|s| *t.get(0) == s[0]))
                .cloned()
                .collect();
            prop_assert_eq!(&r1, &defined);
            let mut rest = list.iter();
            prop_assert!(r1.iter().all(|t| rest.any(|u| u == t)), "R ⋉ S is a sub-list of R");
            prop_assert_eq!(&filter(&r1, &semi1), &r1);
            prop_assert_eq!(filter(&filter(&list, &semi2), &semi1), filter(&r1, &semi2));

            let a1 = filter(&list, &anti1);
            prop_assert!(a1.iter().all(|t| !r1.contains(t)), "semijoin and anti-semijoin are disjoint");
            let one_kind = list
                .iter()
                .map(|t| t.get(0))
                .chain(s1.iter().map(|s| &s[0]))
                .all(|x| x.try_compare(&sample_value(col_kinds[0], 0)).is_ok());
            if one_kind {
                prop_assert_eq!(r1.len() + a1.len(), list.len());
                prop_assert!(list.iter().all(|t| r1.contains(t) || a1.contains(t)));
            }
        }
    }

    #[test]
    fn scan_accounting_uses_the_page_model() {
        let cat = figure1_sample_database().unwrap();
        let metrics = Metrics::new();
        record_scan(&cat, &metrics, "employees").unwrap();
        let modeled = cat
            .page_model()
            .pages_for(cat.relation("employees").unwrap().cardinality() as u64);
        assert_eq!(metrics.snapshot().total().pages_read, modeled);
        assert!(record_scan(&cat, &metrics, "nosuch").is_err());

        // Rows inserted later are charged as the model prices them: no
        // page count is frozen at an earlier state.
        let mut cat = cat;
        let template = cat
            .relation("employees")
            .unwrap()
            .tuples()
            .next()
            .unwrap()
            .clone();
        for enr in 61..=99 {
            let mut values = template.values().to_vec();
            values[0] = Value::int(enr);
            cat.insert("employees", Tuple::new(values)).unwrap();
        }
        let metrics = Metrics::new();
        record_scan(&cat, &metrics, "employees").unwrap();
        let grown = cat.page_model().pages_for(45);
        assert!(grown > modeled);
        assert_eq!(metrics.snapshot().total().pages_read, grown);
        assert_eq!(cat.pages_of("employees").unwrap(), grown);
    }

    #[test]
    fn unknown_relation_in_plan_is_reported() {
        let cat = figure1_sample_database().unwrap();
        let sel = pascalr_calculus::Selection::new(
            "q",
            vec![pascalr_calculus::ComponentRef::new("x", "enr")],
            vec![pascalr_calculus::RangeDecl::new(
                "x",
                pascalr_calculus::RangeExpr::relation("nosuch"),
            )],
            pascalr_calculus::Formula::truth(),
        );
        let p = plan(
            &sel,
            &cat,
            StrategyLevel::S1Parallel,
            PlanOptions::default(),
        );
        let metrics = Metrics::new();
        assert!(run_collection(&p, &cat, &metrics).is_err());
    }
}
