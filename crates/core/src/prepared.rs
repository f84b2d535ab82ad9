//! Prepared queries: plan once, execute many times.

use pascalr_sync::Arc;

use pascalr_calculus::{ParamName, Params, Selection};
use pascalr_catalog::CatalogSnapshot;
use pascalr_planner::{PlanOptions, QueryPlan, StrategyLevel};

use crate::db::{execute_outcome, fingerprint, unbound_param_error};
use crate::obs::QueryObs;
use crate::{Database, PascalRError, QueryOutcome, Rows};

/// A prepared query: the result of parsing, normalizing and planning a
/// selection exactly once.
///
/// Executing a prepared query performs **no** parse, normalization or
/// planning work as long as the catalog epoch is unchanged — the plan comes
/// from the shared plan cache (observable via
/// [`Database::plan_cache_stats`]).  After a catalog mutation (epoch bump)
/// the next execution re-plans exactly once and re-populates the cache.
///
/// Prepared queries are `Clone + Send + Sync`: one prepared statement can be
/// executed concurrently from many threads.  If the statement uses `:name`
/// parameter placeholders, bind them per execution with
/// [`PreparedQuery::execute_with`]; binding substitutes constants into a
/// copy of the cached plan without changing its shape.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    db: Database,
    selection: Arc<Selection>,
    strategy: StrategyLevel,
    options: PlanOptions,
    fingerprint: u64,
    param_names: Vec<ParamName>,
}

impl PreparedQuery {
    pub(crate) fn new(
        db: Database,
        selection: Selection,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> PreparedQuery {
        let param_names: Vec<ParamName> = selection.param_names().into_iter().collect();
        let fp = fingerprint(&selection, options);
        let prepared = PreparedQuery {
            db,
            selection: Arc::new(selection),
            strategy,
            options,
            fingerprint: fp,
            param_names,
        };
        // Plan eagerly so that preparation — not the first execution — pays
        // the planning cost; this also warms the shared plan cache.
        {
            let catalog = prepared.db.snapshot();
            let _ = prepared.db.cached_plan(
                &catalog,
                &prepared.selection,
                prepared.fingerprint,
                strategy,
                options,
            );
        }
        prepared
    }

    /// The parsed selection this query executes.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Statically analyzes the prepared selection against the *current*
    /// catalog and returns the semantic diagnostics (see
    /// [`crate::Session::check`] for the source-text entry point with
    /// spans; a prepared query analyzes its stored AST, so diagnostics
    /// carry no spans).
    pub fn diagnostics(&self) -> Vec<pascalr_analysis::Diagnostic> {
        let catalog = self.db.snapshot();
        pascalr_analysis::analyze(
            &self.selection,
            &catalog,
            &pascalr_calculus::SpanMap::default(),
        )
    }

    /// The strategy level the query was prepared at.
    pub fn strategy(&self) -> StrategyLevel {
        self.strategy
    }

    /// The planning options the query was prepared with.
    pub fn plan_options(&self) -> PlanOptions {
        self.options
    }

    /// The names of the query's parameter placeholders, sorted.  Empty for
    /// a parameter-free statement.
    pub fn param_names(&self) -> &[ParamName] {
        &self.param_names
    }

    /// Renders the current plan (re-planning first if the catalog changed
    /// since preparation).
    pub fn explain(&self) -> String {
        let catalog = self.db.snapshot();
        self.db
            .cached_plan(
                &catalog,
                &self.selection,
                self.fingerprint,
                self.strategy,
                self.options,
            )
            .explain()
    }

    /// Executes the prepared query.  Fails with an unbound-parameter error
    /// if the statement has placeholders; bind them with
    /// [`PreparedQuery::execute_with`].
    pub fn execute(&self) -> Result<QueryOutcome, PascalRError> {
        let (qobs, catalog, query_plan) = self.bound_plan(None)?;
        execute_outcome(&self.db, &catalog, query_plan, qobs)
    }

    /// Executes the prepared query with parameters bound.  The cached plan
    /// keeps its placeholders; `params` are substituted into a per-execution
    /// copy, so one prepared statement serves arbitrarily many distinct
    /// constants without re-planning.  Extra bindings are ignored; missing
    /// ones are an error.
    pub fn execute_with(&self, params: &Params) -> Result<QueryOutcome, PascalRError> {
        let (qobs, catalog, query_plan) = self.bound_plan(Some(params))?;
        execute_outcome(&self.db, &catalog, query_plan, qobs)
    }

    /// Streams the prepared query as a lazy [`Rows`] cursor.  Fails with an
    /// unbound-parameter error if the statement has placeholders; bind them
    /// with [`PreparedQuery::rows_with`].
    ///
    /// The cursor is the streaming counterpart of
    /// [`PreparedQuery::execute`] (which is exactly `rows()` drained into a
    /// relation): no execution work happens before the first tuple is
    /// requested, tuples are constructed one at a time, and dropping the
    /// cursor early — e.g. after `take(10)` or an existence check — stops
    /// all remaining collection/combination/construction work.  The cursor
    /// owns a pinned catalog snapshot — it never blocks writers and keeps
    /// streaming from the version it pinned; see the [`Rows`] docs.
    pub fn rows(&self) -> Result<Rows, PascalRError> {
        let (qobs, snapshot, query_plan) = self.bound_plan(None)?;
        Ok(Rows::new(&self.db, snapshot, query_plan, qobs))
    }

    /// Streams the prepared query with parameters bound, as a lazy
    /// [`Rows`] cursor (the streaming counterpart of
    /// [`PreparedQuery::execute_with`]).  Extra bindings are ignored;
    /// missing ones are an error.
    pub fn rows_with(&self, params: &Params) -> Result<Rows, PascalRError> {
        let (qobs, snapshot, query_plan) = self.bound_plan(Some(params))?;
        Ok(Rows::new(&self.db, snapshot, query_plan, qobs))
    }

    /// Starts observing one execution, pins a snapshot and fetches the
    /// cached plan, bound to `params`.  Without `params`, a statement with
    /// placeholders fails before any of that.
    fn bound_plan(
        &self,
        params: Option<&Params>,
    ) -> Result<(QueryObs, CatalogSnapshot, Arc<QueryPlan>), PascalRError> {
        if let (None, Some(name)) = (params, self.param_names.first()) {
            return Err(unbound_param_error(name));
        }
        let qobs = self.db.begin_query();
        let snapshot = self.db.snapshot();
        let query_plan = self.db.cached_plan(
            &snapshot,
            &self.selection,
            self.fingerprint,
            self.strategy,
            self.options,
        );
        let bound = match params {
            Some(params) if !self.param_names.is_empty() => {
                Arc::new(query_plan.bind_params(params)?)
            }
            _ => query_plan,
        };
        Ok((qobs, snapshot, bound))
    }

    /// The query-shape fingerprint used as part of the plan-cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}
