//! The streaming result API: lazy [`Rows`] cursors.

use pascalr_sync::Arc;
use std::time::Duration;

use pascalr_catalog::CatalogSnapshot;
use pascalr_exec::{ExecError, ExecutionCursor, Fallback};
use pascalr_obs::clock::Tick;
use pascalr_obs::{Collector, SpanTree};
use pascalr_planner::{QueryPlan, StrategyLevel};
use pascalr_relation::{RelationSchema, Tuple};
use pascalr_storage::{Metrics, MetricsSnapshot};

use crate::obs::QueryObs;
use crate::Database;

/// Renders a runtime fallback for reports (shared by the streaming and
/// materializing paths so both describe it identically).
pub(crate) fn fallback_description(fallback: &Fallback) -> String {
    let Fallback::AdaptedForEmptyRanges(empty) = fallback;
    let empty: Vec<String> = empty.iter().map(ToString::to_string).collect();
    format!("adapted for empty range(s): {}", empty.join("; "))
}

/// Post-execution metadata common to both result modes — the streaming
/// [`Rows`] cursor ([`Rows::finish`]) and the materializing
/// `execute()`-style entry points: which strategy ran, whether a runtime
/// fallback was taken, and the per-query [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The strategy level the query was executed at.
    pub strategy: StrategyLevel,
    /// The ranges assumed non-empty that were empty, if the query was
    /// adapted for them and re-planned at its level.  `None` for a cursor
    /// never polled — fallbacks are detected when execution starts.
    pub fallback: Option<String>,
    /// Snapshot of the access metrics this query charged — only the work
    /// actually performed, so a cursor dropped after `k` tuples reports
    /// the cost of producing `k` tuples.
    pub metrics: MetricsSnapshot,
    /// Number of distinct result tuples produced before the cursor
    /// stopped.
    pub rows_emitted: u64,
    /// Wall-clock time between the entry point that created the cursor
    /// (parse/plan included for text paths) and [`Rows::finish`].
    pub elapsed: Duration,
    /// The query's span tree, when span collection was active (see
    /// [`Database::set_query_tracing`]).
    pub span_tree: Option<SpanTree>,
}

/// A lazy, streaming result cursor: an iterator of
/// `Result<`[`Tuple`]`, `[`ExecError`]`>` that produces the query's
/// distinct result tuples one at a time.
///
/// `Rows` is the streaming face of the single execution engine
/// ([`ExecutionCursor`]); the `execute()`-style entry points are thin
/// wrappers that drain the same cursor into a relation.  No execution
/// work happens before the first `next()` call, the construction phase
/// (and, for plans without a quantifier prefix, the final combination
/// pass) runs tuple-by-tuple, and **dropping the cursor stops all
/// remaining collection/combination/construction work** — `rows.take(10)`
/// never pays for the eleventh tuple.
///
/// # The pinned snapshot
///
/// A `Rows` cursor **owns a pinned catalog snapshot**
/// ([`Rows::snapshot`]): the immutable catalog version that was current
/// when the cursor was created.  No lock is held while the cursor is
/// alive — writers (inserts, DDL) proceed freely and publish new
/// versions, and the cursor keeps streaming exactly the version it
/// pinned, no matter how long it lives or which thread polls it.  `Rows`
/// is `'static`: it can be stored in structs, sent across threads, or
/// held across any other `Database`/`Session`/`PreparedQuery` call
/// without restriction.
///
/// # Example
///
/// ```
/// use pascalr::{Database, StrategyLevel};
///
/// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
/// let session = db.session().with_strategy(StrategyLevel::S4CollectionQuantifiers);
/// let q = session
///     .prepare("profs := [<e.ename> OF EACH e IN employees: e.estatus = professor]")
///     .unwrap();
///
/// let mut names = Vec::new();
/// for row in q.rows().unwrap() {
///     names.push(row.unwrap());
/// }
/// assert_eq!(names.len(), 3);
///
/// // Early exit: only the first tuple is ever constructed.
/// let first = q.rows().unwrap().next().unwrap().unwrap();
/// assert!(names.contains(&first));
/// ```
pub struct Rows {
    cursor: ExecutionCursor,
    plan: Arc<QueryPlan>,
    started_at: Tick,
    obs: Option<RowsObs>,
}

/// Observability carried by a live cursor: the owning database (to record
/// into its registry when the cursor ends) and the detached span collector
/// that is re-entered around each poll.
struct RowsObs {
    db: Database,
    collector: Option<Collector>,
    first_tuple: Option<Duration>,
}

impl Rows {
    pub(crate) fn new(
        db: &Database,
        snapshot: CatalogSnapshot,
        plan: Arc<QueryPlan>,
        qobs: QueryObs,
    ) -> Rows {
        let (collector, started_at) = qobs.into_parts();
        Rows {
            cursor: ExecutionCursor::new(plan.clone(), snapshot, Metrics::new()),
            plan,
            started_at,
            obs: Some(RowsObs {
                db: db.clone(),
                collector,
                first_tuple: None,
            }),
        }
    }

    /// Record this query into the owning database's registry exactly once
    /// (first of [`Rows::finish`] / drop wins); returns the span tree.
    fn record(&mut self) -> Option<SpanTree> {
        let obs = self.obs.take()?;
        let total = self.started_at.elapsed();
        let tree = obs.collector.map(|c| c.finish("query", total));
        let metrics = self.cursor.metrics().snapshot();
        obs.db.shared.obs.record_query(
            &self.plan,
            total,
            self.cursor.produced(),
            obs.first_tuple,
            &metrics,
            tree,
        )
    }

    /// The catalog snapshot this cursor executes against — the version
    /// pinned at creation, unaffected by concurrent mutations.
    pub fn snapshot(&self) -> &CatalogSnapshot {
        self.cursor.snapshot()
    }

    /// The plan this cursor was created with.  After a runtime fallback the
    /// cursor executes an adapted plan instead; see [`Rows::fallback`].
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// The strategy level of the plan.
    pub fn strategy(&self) -> StrategyLevel {
        self.plan.strategy
    }

    /// Caps how many tuples the cursor will produce; all remaining work
    /// stops once the budget is reached (like dropping the cursor there).
    /// Overrides the plan's [`QueryPlan::row_budget`] hint.
    pub fn with_row_budget(mut self, budget: u64) -> Rows {
        self.cursor.set_row_budget(Some(budget));
        self
    }

    /// The result schema.  Forces the deferred start of execution (runtime
    /// assumption checks and the collection phase) if it has not happened
    /// yet, but constructs no tuple.
    pub fn schema(&mut self) -> Result<Arc<RelationSchema>, ExecError> {
        self.cursor.start()?;
        match self.cursor.schema() {
            Some(schema) => Ok(schema.clone()),
            None => Err(ExecError::PlanInvariant {
                detail: "a successfully started cursor has no result schema".to_string(),
            }),
        }
    }

    /// Description of the runtime fallback taken, if any.  `None` until the
    /// first tuple has been requested (fallbacks are detected lazily).
    pub fn fallback(&self) -> Option<String> {
        self.cursor.fallback().map(fallback_description)
    }

    /// Number of distinct tuples produced so far.
    pub fn rows_emitted(&self) -> u64 {
        self.cursor.produced()
    }

    /// Snapshot of the metrics charged so far — only work actually
    /// performed (a freshly created cursor reports all zeros).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cursor.metrics().snapshot()
    }

    /// Ends the cursor (dropping any unproduced tuples and stopping their
    /// work) and reports what it did.
    pub fn finish(mut self) -> ExecutionOutcome {
        let strategy = self.plan.strategy;
        let fallback = self.fallback();
        let metrics = self.metrics();
        let rows_emitted = self.rows_emitted();
        let elapsed = self.started_at.elapsed();
        let span_tree = self.record();
        ExecutionOutcome {
            strategy,
            fallback,
            metrics,
            rows_emitted,
            elapsed,
            span_tree,
        }
    }
}

impl Drop for Rows {
    fn drop(&mut self) {
        // A cursor dropped mid-stream still records what it did (the
        // metrics snapshot covers only work actually performed).
        let _ = self.record();
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("strategy", &self.plan.strategy)
            .field("rows_emitted", &self.rows_emitted())
            .finish_non_exhaustive()
    }
}

impl Iterator for Rows {
    type Item = Result<Tuple, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = match self.obs.as_ref().and_then(|o| o.collector.as_ref()) {
            Some(collector) => {
                // Re-enter the query's collector for the duration of this
                // poll only: the cursor may be polled from any thread, and
                // a thread-local scope must never outlive the call.
                let _scope = collector.enter();
                self.cursor.next_tuple()
            }
            None => self.cursor.next_tuple(),
        };
        if matches!(item, Some(Ok(_))) {
            if let Some(obs) = self.obs.as_mut() {
                if obs.first_tuple.is_none() {
                    obs.first_tuple = Some(self.started_at.elapsed());
                }
            }
        }
        item
    }
}
