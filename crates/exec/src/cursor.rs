//! The resumable execution cursor: lazy, tuple-at-a-time query execution.
//!
//! [`ExecutionCursor`] is the single execution engine of the reproduction.
//! It runs the paper's three phases with as little eagerness as the plan
//! allows:
//!
//! * nothing happens until the first tuple is requested (a cursor that is
//!   dropped unconsumed records no work at all);
//! * the **collection phase** always runs in full on first use — its
//!   structures (single lists, indirect joins, value lists) are shared by
//!   every output tuple;
//! * the **combination phase** is pipelined when the plan's quantifier
//!   prefix is empty ([`QueryPlan::combination_streams`]): conjunctions are
//!   assembled lazily and the final assembly stage is expanded row by row,
//!   so dropping the cursor after `k` tuples stops the remaining
//!   combination work.  Plans with quantifier passes materialize the
//!   combination result on first use (projection/division need it whole);
//! * the **construction phase** always streams: references are
//!   dereferenced and projected one output tuple at a time, with duplicate
//!   elimination via borrowed projections ([`TupleCow`]) so duplicate rows
//!   never clone a value.
//!
//! The cursor **owns a pinned [`CatalogSnapshot`]**: every tuple it
//! produces is computed against exactly the catalog version the cursor was
//! created with, no matter how many writers publish new versions while the
//! stream is alive.  Because a snapshot holds no lock, a long-lived cursor
//! never blocks mutations — and nothing a caller does between `next_tuple`
//! calls can change what the cursor observes.

use pascalr_sync::Arc;
use std::collections::HashMap;

use pascalr_catalog::{Catalog, CatalogSnapshot};
use pascalr_planner::{replan_for_empty, QueryPlan};
use pascalr_relation::{ElemRef, RelationSchema, Tuple, TupleCow};
use pascalr_storage::{Metrics, Phase};

use crate::collection::{counted, run_collection, CollectionOutput, ExecProvider};
use crate::combine::{
    apply_stage, base_refrel, conjunction_assembly, deref, run_combination, Stage,
};
use crate::error::ExecError;
use crate::executor::Fallback;
use crate::refrel::RefRel;

use pascalr_calculus::VarName;

/// Streaming construction: dereferences a reference row and projects it
/// onto the component selection, eliminating duplicate output tuples.
struct Projector {
    /// For every output component: the column in the incoming reference
    /// rows and the attribute index to project (the reference names its
    /// relation).
    projections: Vec<(usize, usize)>,
    /// Whether duplicate projections are suppressed.  `false` when the
    /// consumer deduplicates anyway (the materializing drain inserts into
    /// a set-semantics [`pascalr_relation::Relation`]), avoiding a second
    /// copy of the whole result set in [`Projector::seen`].
    distinct: bool,
    /// Emitted tuples, bucketed by value hash (duplicate elimination
    /// without cloning candidate values — see [`TupleCow`]).  Unused when
    /// `distinct` is off.
    seen: HashMap<u64, Vec<Tuple>>,
    /// Number of tuples emitted so far (distinct tuples when `distinct`).
    emitted: u64,
}

impl Projector {
    /// Resolves the component selection against the row variable order.
    fn new(
        query_plan: &QueryPlan,
        row_vars: &[VarName],
        catalog: &Catalog,
    ) -> Result<Projector, ExecError> {
        let mut projections = Vec::with_capacity(query_plan.prepared.components.len());
        for comp in &query_plan.prepared.components {
            let col = row_vars
                .iter()
                .position(|v| v.as_ref() == comp.var.as_ref())
                .ok_or_else(|| ExecError::PlanInvariant {
                    detail: format!(
                        "component selection references {} which is not a free variable",
                        comp.var
                    ),
                })?;
            let range = query_plan.prepared.range_of(&comp.var).ok_or_else(|| {
                ExecError::PlanInvariant {
                    detail: format!("no range for {}", comp.var),
                }
            })?;
            let rel = catalog.relation(&range.relation)?;
            let attr_idx =
                rel.schema()
                    .attr_index(&comp.attr)
                    .ok_or_else(|| ExecError::UnknownComponent {
                        variable: comp.var.to_string(),
                        attribute: comp.attr.to_string(),
                    })?;
            projections.push((col, attr_idx));
        }
        Ok(Projector {
            projections,
            distinct: true,
            seen: HashMap::new(),
            emitted: 0,
        })
    }

    /// Projects one reference row.  Returns `None` for a duplicate of an
    /// already-emitted tuple (set semantics; never `None` when `distinct`
    /// is off).
    fn project(
        &mut self,
        row: &[ElemRef],
        catalog: &Catalog,
        metrics: &Metrics,
    ) -> Result<Option<Tuple>, ExecError> {
        let mut values = Vec::with_capacity(self.projections.len());
        let mut derefs = 0u64;
        let projected = self.projections.iter().try_for_each(|&(col, attr_idx)| {
            let tuple = deref(catalog, row[col])?;
            derefs += 1;
            values.push(tuple.get(attr_idx));
            Ok::<_, ExecError>(())
        });
        metrics.record_dereferences(Phase::Construction, derefs);
        projected?;
        let cow = TupleCow::new(values);
        if !self.distinct {
            self.emitted += 1;
            return Ok(Some(cow.into_tuple()));
        }
        let bucket = self.seen.entry(cow.hash64()).or_default();
        if bucket.iter().any(|t| cow.matches(t)) {
            return Ok(None);
        }
        let owned = cow.into_tuple();
        bucket.push(owned.clone());
        self.emitted += 1;
        Ok(Some(owned))
    }
}

/// Streaming state of one conjunction: the materialized prefix (all
/// assembly stages but the last) plus the expansion position of the final
/// stage.
struct ConjStream {
    ci: usize,
    stages: Vec<Stage>,
    /// Maps a row in conjunction column order (the prefix columns, then
    /// the final stage's) to canonical `all_vars` order:
    /// `canonical[i] = row[reorder[i]]`.
    reorder: Vec<usize>,
    prefix: RefRel,
    row_idx: usize,
    cand_idx: usize,
    /// Reference rows this conjunction has produced (the conjunction's
    /// `refrel_c*` size once exhausted).
    produced: u64,
}

impl ConjStream {
    fn open(
        query_plan: &QueryPlan,
        ci: usize,
        all_vars: &[VarName],
        collection: &CollectionOutput,
        catalog: &Catalog,
        metrics: &Metrics,
    ) -> Result<ConjStream, ExecError> {
        let _span = pascalr_obs::span!("open_stream", conjunction = ci + 1);
        let assembly = conjunction_assembly(query_plan, ci, all_vars, collection, catalog)?;
        debug_assert!(
            !assembly.stages.is_empty(),
            "a selection always has at least one free variable"
        );
        let structures = &collection.per_conjunction[ci];
        let mut prefix = base_refrel();
        for stage in &assembly.stages[..assembly.stages.len() - 1] {
            prefix = apply_stage(prefix, stage, structures, catalog, metrics)?;
        }
        let reorder = all_vars
            .iter()
            .map(|v| {
                assembly
                    .var_order
                    .iter()
                    .position(|o| o.as_ref() == v.as_ref())
                    .ok_or_else(|| ExecError::PlanInvariant {
                        detail: format!(
                            "conjunction assembly does not place combination variable '{v}'"
                        ),
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(ConjStream {
            ci,
            stages: assembly.stages,
            reorder,
            prefix,
            row_idx: 0,
            cand_idx: 0,
            produced: 0,
        })
    }

    /// Writes the next reference row of this conjunction into `out`, in
    /// canonical `all_vars` column order; `false` when exhausted.  Probes
    /// and comparisons are counted locally and recorded once per call.
    fn next_row(
        &mut self,
        collection: &CollectionOutput,
        catalog: &Catalog,
        metrics: &Metrics,
        out: &mut Vec<ElemRef>,
    ) -> Result<bool, ExecError> {
        let structures = &collection.per_conjunction[self.ci];
        let Some(last) = self.stages.last() else {
            // `open` asserts at least one stage; an empty stage list has
            // nothing to expand.
            return Ok(false);
        };
        let mut probes = 0u64;
        let found = counted(metrics, Phase::Combination, |comparisons| {
            while let Some(row) = self.prefix.row(self.row_idx) {
                if self.cand_idx == 0 {
                    probes += u64::from(last.probes_index());
                }
                let cands = last.probe(row, structures, catalog)?;
                while self.cand_idx < cands.len() {
                    let cand = cands[self.cand_idx];
                    self.cand_idx += 1;
                    if last.admits(cand, row, catalog, comparisons)? {
                        // The final stage's column follows the prefix.
                        out.clear();
                        out.extend(self.reorder.iter().map(|&i| {
                            if i < row.len() {
                                row[i]
                            } else {
                                cand
                            }
                        }));
                        return Ok(true);
                    }
                }
                self.row_idx += 1;
                self.cand_idx = 0;
            }
            Ok(false)
        });
        metrics.record_index_probes(Phase::Combination, probes);
        if matches!(found, Ok(true)) {
            // The final stage's contribution to the combination
            // intermediates, charged as the row is produced.
            metrics.record_intermediate(Phase::Combination, 1);
            self.produced += 1;
        }
        found
    }
}

/// State of a cursor whose combination output streams (empty quantifier
/// prefix): conjunctions are opened lazily and unioned incrementally.
struct StreamState {
    collection: CollectionOutput,
    all_vars: Vec<VarName>,
    next_conj: usize,
    current: Option<ConjStream>,
    /// Union-level duplicate elimination across conjunctions; `None` for a
    /// single-conjunction matrix, whose rows are distinct by construction.
    union_seen: Option<RefRel>,
    /// The current reference row, in canonical column order (one buffer
    /// reused for every row).
    row: Vec<ElemRef>,
    union_len: u64,
    projector: Projector,
}

/// State of a cursor over a materialized combination result (plans with a
/// non-empty quantifier prefix): only the construction phase streams.
struct DrainState {
    qualified: RefRel,
    next_row: usize,
    projector: Projector,
}

enum State {
    Unstarted,
    // Boxed: the states are ~hundreds of bytes and live behind one cursor
    // allocation; keep the idle cursor small.
    Streaming(Box<StreamState>),
    Draining(Box<DrainState>),
    Done,
}

/// A lazy, resumable execution of one query plan against one pinned
/// catalog snapshot.
///
/// Create it with [`ExecutionCursor::new`], then call
/// [`ExecutionCursor::next_tuple`] until it returns `None`.  See the
/// module documentation for the phase-by-phase laziness contract.  The
/// cursor applies the Section 2 runtime adaptation on first use: when a
/// range the plan assumed non-empty is empty, the query is adapted for that
/// variable and re-planned at the same level, and the adapted plan streamed
/// instead, with [`ExecutionCursor::fallback`] reporting what happened.
pub struct ExecutionCursor {
    query_plan: Arc<QueryPlan>,
    snapshot: CatalogSnapshot,
    metrics: Metrics,
    row_budget: Option<u64>,
    distinct: bool,
    produced: u64,
    fallback: Option<Fallback>,
    schema: Option<Arc<RelationSchema>>,
    state: State,
}

impl ExecutionCursor {
    /// Creates a cursor for a plan over a pinned catalog snapshot.  No work
    /// happens until the first [`ExecutionCursor::next_tuple`] (or
    /// [`ExecutionCursor::start`]) call.  The plan's
    /// [`QueryPlan::row_budget`] hint, if set, bounds how many tuples the
    /// cursor will produce.
    pub fn new(
        query_plan: Arc<QueryPlan>,
        snapshot: CatalogSnapshot,
        metrics: Metrics,
    ) -> ExecutionCursor {
        let row_budget = query_plan.row_budget;
        ExecutionCursor {
            query_plan,
            snapshot,
            metrics,
            row_budget,
            distinct: true,
            produced: 0,
            fallback: None,
            schema: None,
            state: State::Unstarted,
        }
    }

    /// Overrides the number of tuples the cursor will produce at most
    /// (`None` removes any budget, including the plan's hint).
    pub fn set_row_budget(&mut self, budget: Option<u64>) {
        self.row_budget = budget;
    }

    /// Turns off the cursor's duplicate elimination.  The stream may then
    /// yield the same value tuple more than once (one per qualified
    /// reference combination), and the `result` structure-size metric is
    /// left to the consumer — intended for consumers that deduplicate
    /// anyway, like the materializing [`crate::execute`], which inserts
    /// into a set-semantics relation and should not pay for a second copy
    /// of the result set inside the cursor.  Must be called before the
    /// first tuple is requested; later calls have no effect.
    pub fn set_distinct(&mut self, distinct: bool) {
        self.distinct = distinct;
    }

    /// The plan being executed — after a runtime fallback this is the
    /// adapted/re-planned one, not the plan the cursor was created with.
    pub fn query_plan(&self) -> &QueryPlan {
        &self.query_plan
    }

    /// The metrics handle charged by this cursor.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The pinned catalog snapshot this cursor executes against.
    pub fn snapshot(&self) -> &CatalogSnapshot {
        &self.snapshot
    }

    /// The runtime fallback taken, if any.  `None` until the cursor has
    /// started (fallbacks are detected on first use).
    pub fn fallback(&self) -> Option<&Fallback> {
        self.fallback.as_ref()
    }

    /// The result schema.  `None` until the cursor has started.
    pub fn schema(&self) -> Option<&Arc<RelationSchema>> {
        self.schema.as_ref()
    }

    /// Number of distinct tuples produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Runs the eager phases (collection with its assumption checks, and
    /// combination when the plan cannot stream it).  Idempotent on a
    /// live or successfully finished cursor; called implicitly by the
    /// first [`ExecutionCursor::next_tuple`].  Fails if the cursor already
    /// terminated with an error before its result schema was computed.
    pub fn start(&mut self) -> Result<(), ExecError> {
        // A cheap pin clone: lets the borrow of the catalog coexist with
        // the mutable borrows of the cursor state below.
        let snapshot = self.snapshot.clone();
        let catalog: &Catalog = &snapshot;
        if !matches!(self.state, State::Unstarted) {
            // A cursor that died during start never computed a schema;
            // report that instead of pretending the start succeeded.
            return if self.schema.is_some() {
                Ok(())
            } else {
                Err(ExecError::PlanInvariant {
                    detail: "the cursor already terminated with an error before computing \
                             its result schema"
                        .to_string(),
                })
            };
        }
        // Move to Done first so an error leaves the cursor terminated.
        self.state = State::Done;

        // Collection tests the plan's assumed ranges; the query is adapted
        // for the first empty one and re-planned, until none is empty.
        let collection = loop {
            let empty = match run_collection(&self.query_plan, catalog, &self.metrics) {
                Ok(collection) => break collection,
                Err(ExecError::AssumedRangeEmpty(empty)) => empty,
                Err(e) => return Err(e),
            };
            let Some(replanned) = replan_for_empty(&self.query_plan, &empty, catalog) else {
                return Err(ExecError::PlanInvariant {
                    detail: format!("adapting for the empty range {empty} changed nothing"),
                });
            };
            self.query_plan = Arc::new(replanned);
            let Fallback::AdaptedForEmptyRanges(adapted) = self
                .fallback
                .get_or_insert(Fallback::AdaptedForEmptyRanges(Vec::new()));
            adapted.push(empty);
        };

        let prepared_selection = self.query_plan.prepared.to_selection();
        self.schema = Some(pascalr_calculus::semantics::result_schema(
            &prepared_selection,
            &ExecProvider(catalog),
        )?);

        if self.query_plan.combination_streams() {
            let all_vars = self.query_plan.prepared.all_vars();
            let mut projector = Projector::new(&self.query_plan, &all_vars, catalog)?;
            projector.distinct = self.distinct;
            let union_seen = (self.query_plan.prepared.form.matrix.len() > 1)
                .then(|| RefRel::new(all_vars.clone()));
            self.state = State::Streaming(Box::new(StreamState {
                collection,
                all_vars,
                next_conj: 0,
                current: None,
                union_seen,
                row: Vec::new(),
                union_len: 0,
                projector,
            }));
        } else {
            let qualified = run_combination(&self.query_plan, &collection, catalog, &self.metrics)?;
            let mut projector = Projector::new(&self.query_plan, qualified.vars(), catalog)?;
            projector.distinct = self.distinct;
            self.state = State::Draining(Box::new(DrainState {
                qualified,
                next_row: 0,
                projector,
            }));
        }
        Ok(())
    }

    /// Produces the next distinct result tuple, or `None` when the result
    /// is exhausted (or the row budget is reached).  After the first
    /// `Err`, the cursor is terminated and returns `None` forever.
    pub fn next_tuple(&mut self) -> Option<Result<Tuple, ExecError>> {
        if let Some(budget) = self.row_budget {
            if self.produced >= budget {
                self.state = State::Done;
                return None;
            }
        }
        if matches!(self.state, State::Unstarted) {
            if let Err(e) = self.start() {
                return Some(Err(e));
            }
        }
        let item = match &mut self.state {
            State::Unstarted => unreachable!("started above"),
            State::Done => return None,
            State::Draining(drain) => Self::pump_draining(drain, &self.snapshot, &self.metrics),
            State::Streaming(stream) => {
                Self::pump_streaming(stream, &self.query_plan, &self.snapshot, &self.metrics)
            }
        };
        match item {
            Ok(Some(tuple)) => {
                self.produced += 1;
                Some(Ok(tuple))
            }
            Ok(None) => {
                self.state = State::Done;
                None
            }
            Err(e) => {
                self.state = State::Done;
                Some(Err(e))
            }
        }
    }

    fn pump_draining(
        drain: &mut DrainState,
        catalog: &Catalog,
        metrics: &Metrics,
    ) -> Result<Option<Tuple>, ExecError> {
        while let Some(row) = drain.qualified.row(drain.next_row) {
            drain.next_row += 1;
            if let Some(tuple) = drain.projector.project(row, catalog, metrics)? {
                return Ok(Some(tuple));
            }
        }
        if drain.projector.distinct {
            metrics.record_structure_size("result", drain.projector.emitted);
        }
        Ok(None)
    }

    fn pump_streaming(
        stream: &mut StreamState,
        query_plan: &QueryPlan,
        catalog: &Catalog,
        metrics: &Metrics,
    ) -> Result<Option<Tuple>, ExecError> {
        loop {
            if stream.current.is_none() {
                if stream.next_conj >= query_plan.prepared.form.matrix.len() {
                    // Exhausted: record the union-level sizes the
                    // materializing path reports after its union pass.
                    metrics.record_structure_size("refrel_union", stream.union_len);
                    metrics.record_intermediate(Phase::Combination, stream.union_len);
                    if stream.projector.distinct {
                        metrics.record_structure_size("result", stream.projector.emitted);
                    }
                    return Ok(None);
                }
                let ci = stream.next_conj;
                stream.next_conj += 1;
                stream.current = Some(ConjStream::open(
                    query_plan,
                    ci,
                    &stream.all_vars,
                    &stream.collection,
                    catalog,
                    metrics,
                )?);
            }
            let Some(conj) = stream.current.as_mut() else {
                // Just assigned above; loop back and open the next
                // conjunction if it somehow is not.
                continue;
            };
            if !conj.next_row(&stream.collection, catalog, metrics, &mut stream.row)? {
                metrics.record_structure_size(&format!("refrel_c{}", conj.ci + 1), conj.produced);
                stream.current = None;
                continue;
            }
            // Union across conjunctions.
            if let Some(seen) = &mut stream.union_seen {
                if !seen.push(&stream.row) {
                    continue;
                }
            }
            stream.union_len += 1;
            if let Some(tuple) = stream.projector.project(&stream.row, catalog, metrics)? {
                return Ok(Some(tuple));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_planner::{plan, PlanOptions, StrategyLevel};
    use pascalr_workload::{figure1_sample_database, query_by_id};

    fn cursor_for(query: &str, level: StrategyLevel) -> ExecutionCursor {
        let snap = CatalogSnapshot::new(figure1_sample_database().unwrap());
        let sel = query_by_id(query).unwrap().parse(&snap).unwrap();
        let p = Arc::new(plan(&sel, &snap, level, PlanOptions::default()));
        ExecutionCursor::new(p, snap, Metrics::new())
    }

    #[test]
    fn an_unpolled_cursor_records_nothing() {
        let cursor = cursor_for("ex2.1", StrategyLevel::S4CollectionQuantifiers);
        assert!(cursor.metrics().snapshot().total().is_zero());
        assert!(cursor.schema().is_none());
        assert!(cursor.fallback().is_none());
        assert_eq!(cursor.produced(), 0);
    }

    #[test]
    fn draining_matches_the_materializing_executor_for_quantified_plans() {
        // ex2.1 at S2 keeps its quantifier prefix: the cursor materializes
        // the combination result and streams only construction.
        let mut cursor = cursor_for("ex2.1", StrategyLevel::S2OneStep);
        assert!(!cursor.query_plan().combination_streams());
        let mut streamed = Vec::new();
        while let Some(item) = cursor.next_tuple() {
            streamed.push(item.unwrap());
        }
        assert_eq!(streamed.len(), 3, "Abel, Baker and Cohen qualify");
        // Exhausted cursors stay exhausted.
        assert!(cursor.next_tuple().is_none());
        assert_eq!(cursor.produced(), 3);
    }

    #[test]
    fn streaming_plans_pipeline_the_final_combination_stage() {
        // A quantifier-free join: two free variables connected by a dyadic
        // equality term, so the conjunction's final stage is a join stage
        // that expands per produced tuple.
        let cat = CatalogSnapshot::new(figure1_sample_database().unwrap());
        let spec = pascalr_workload::QuerySpec {
            id: "pairs",
            name: "quantifier-free join",
            description: "streaming combination test",
            text: "pairs := [<e.ename, t.tcnr> OF EACH e IN employees, \
                    EACH t IN timetable: t.tenr = e.enr]",
        };
        let sel = spec.parse(&cat).unwrap();
        let p = Arc::new(plan(
            &sel,
            &cat,
            StrategyLevel::S2OneStep,
            PlanOptions::default(),
        ));
        assert!(p.combination_streams());
        let mut cursor = ExecutionCursor::new(p, cat, Metrics::new());
        let first = cursor.next_tuple().unwrap().unwrap();
        assert_eq!(first.arity(), 2);
        let after_one = cursor.metrics().snapshot();
        let mut total = 1;
        while let Some(item) = cursor.next_tuple() {
            item.unwrap();
            total += 1;
        }
        assert_eq!(total, 6, "one pair per timetable entry");
        let full = cursor.metrics().snapshot();
        assert!(
            after_one.phase(Phase::Construction).dereferences
                < full.phase(Phase::Construction).dereferences,
            "construction work arrives tuple by tuple"
        );
        assert!(
            after_one.phase(Phase::Combination).intermediate_tuples
                < full.phase(Phase::Combination).intermediate_tuples,
            "the final join stage expands lazily"
        );
        // The fully drained stream reports the same result size the
        // materializing path records.
        assert_eq!(full.structure_size("result"), 6);
    }

    #[test]
    fn the_row_budget_terminates_the_stream() {
        let mut cursor = cursor_for("q01", StrategyLevel::S1Parallel);
        cursor.set_row_budget(Some(2));
        assert!(cursor.next_tuple().is_some());
        assert!(cursor.next_tuple().is_some());
        assert!(cursor.next_tuple().is_none(), "budget reached");
        assert_eq!(cursor.produced(), 2);

        // The plan-level hint is honored too.
        let cat = CatalogSnapshot::new(figure1_sample_database().unwrap());
        let sel = query_by_id("q01").unwrap().parse(&cat).unwrap();
        let p = plan(
            &sel,
            &cat,
            StrategyLevel::S1Parallel,
            PlanOptions::default(),
        )
        .with_row_budget(1);
        let mut cursor = ExecutionCursor::new(Arc::new(p), cat, Metrics::new());
        let mut n = 0;
        while cursor.next_tuple().is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn a_failed_start_reports_errors_instead_of_panicking() {
        // A hand-built selection over a relation the catalog does not have:
        // the collection phase fails before a result schema exists.
        let cat = CatalogSnapshot::new(figure1_sample_database().unwrap());
        let sel = pascalr_calculus::Selection::new(
            "q",
            vec![pascalr_calculus::ComponentRef::new("x", "enr")],
            vec![pascalr_calculus::RangeDecl::new(
                "x",
                pascalr_calculus::RangeExpr::relation("nosuch"),
            )],
            pascalr_calculus::Formula::truth(),
        );
        let p = Arc::new(plan(
            &sel,
            &cat,
            StrategyLevel::S1Parallel,
            PlanOptions::default(),
        ));
        let mut cursor = ExecutionCursor::new(p, cat, Metrics::new());
        assert!(cursor.next_tuple().unwrap().is_err());
        assert!(cursor.next_tuple().is_none(), "terminated after an error");
        // Re-starting the dead cursor is an error, not a silent Ok with a
        // missing schema.
        assert!(cursor.start().is_err());
        assert!(cursor.schema().is_none());
    }

    #[test]
    fn start_is_idempotent_and_exposes_the_schema() {
        let mut cursor = cursor_for("q01", StrategyLevel::S4CollectionQuantifiers);
        cursor.start().unwrap();
        let schema = cursor.schema().unwrap().clone();
        assert_eq!(schema.arity(), 2);
        cursor.start().unwrap(); // no-op
        assert_eq!(cursor.produced(), 0, "start constructs no tuple");
        let all: Vec<_> = std::iter::from_fn(|| cursor.next_tuple()).collect();
        assert!(all.iter().all(std::result::Result::is_ok));
    }
}
