//! Per-connection sessions.

use pascalr_analysis::Diagnostic;
use pascalr_calculus::{Params, Selection};
use pascalr_parser::parse_selection_spanned;
use pascalr_planner::{PlanOptions, StrategyLevel};

use crate::{Database, PascalRError, PreparedQuery, QueryOutcome, Rows};

/// A session: a lightweight per-connection view of a shared [`Database`]
/// carrying connection-local defaults (strategy level, planning options).
///
/// Sessions are cheap to create and [`Clone`], and independent of each
/// other: changing one session's defaults affects neither the database
/// handle it came from nor any other session.  All query entry points take
/// `&self`, so a session can be shared across threads — though the intended
/// pattern is one session per connection/thread over one shared database.
///
/// New sessions default to [`StrategyLevel::Auto`] (inherited from the
/// database handle): the planner picks the cheapest of the five paper
/// levels per query from the catalog's ANALYZE statistics.  Pin a fixed
/// level with [`Session::with_strategy`] to reproduce the paper's
/// comparisons.
///
/// ```
/// use pascalr::{Database, StrategyLevel};
///
/// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
/// let session = db.session().with_strategy(StrategyLevel::S2OneStep);
/// let prepared = session
///     .prepare("profs := [<e.ename> OF EACH e IN employees: e.estatus = professor]")
///     .unwrap();
/// let outcome = prepared.execute().unwrap();
/// assert_eq!(outcome.report.strategy, StrategyLevel::S2OneStep);
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    db: Database,
    strategy: StrategyLevel,
    options: PlanOptions,
}

impl Session {
    pub(crate) fn new(db: &Database) -> Session {
        Session {
            db: db.clone(),
            strategy: db.default_strategy(),
            options: db.plan_options(),
        }
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: StrategyLevel) -> Session {
        self.strategy = strategy;
        self
    }

    /// Builder-style planning-option override.
    pub fn with_plan_options(mut self, options: PlanOptions) -> Session {
        self.options = options;
        self
    }

    /// Changes the session's strategy level.
    pub fn set_strategy(&mut self, strategy: StrategyLevel) {
        self.strategy = strategy;
    }

    /// Changes the session's planning options.
    pub fn set_plan_options(&mut self, options: PlanOptions) {
        self.options = options;
    }

    /// The session's strategy level.
    pub fn strategy(&self) -> StrategyLevel {
        self.strategy
    }

    /// The session's planning options.
    pub fn plan_options(&self) -> PlanOptions {
        self.options
    }

    /// The database handle the session operates on.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// ANALYZE every relation of the shared database (see
    /// [`Database::analyze`]): refreshes the statistics the session's
    /// [`StrategyLevel::Auto`] queries plan from.
    pub fn analyze(&self) -> Result<(), PascalRError> {
        self.db.analyze()
    }

    /// Creates a maintained permanent index on the shared database (see
    /// [`Database::create_index`]).  Visible to every session; cached
    /// plans re-plan once and start probing it.
    pub fn create_index(
        &self,
        name: &str,
        relation: &str,
        attributes: &[&str],
    ) -> Result<(), PascalRError> {
        self.db.create_index(name, relation, attributes)
    }

    /// Drops a permanent index on the shared database (see
    /// [`Database::drop_index`]).
    pub fn drop_index(&self, name: &str) -> Result<(), PascalRError> {
        self.db.drop_index(name)
    }

    /// Statically analyzes a statement against the current catalog without
    /// planning or executing it, returning the semantic diagnostics —
    /// errors (unknown names, incomparable types), warnings (statically
    /// false terms, contradictory conjunctions, unused variables) and notes
    /// (implied predicates, index advice), each with its stable code and a
    /// source span into `text`.  An empty result means the statement is
    /// semantically clean.
    ///
    /// Parse failures are reported as [`PascalRError`]; semantic problems
    /// never are — `check` is the lint entry point, and even an erroneous
    /// statement produces diagnostics, not an `Err`.
    ///
    /// ```
    /// use pascalr::Database;
    ///
    /// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
    /// let diags = db
    ///     .session()
    ///     .check("x := [<p.ptitle> OF EACH p IN papers: p.pyear > 1999]")
    ///     .unwrap();
    /// assert!(diags.iter().any(|d| d.code == pascalr::analysis::Code::A005));
    /// ```
    pub fn check(&self, text: &str) -> Result<Vec<Diagnostic>, PascalRError> {
        let catalog = self.db.snapshot();
        let (selection, spans) = parse_selection_spanned(text, &catalog)?;
        Ok(pascalr_analysis::analyze(&selection, &catalog, &spans))
    }

    /// Prepares a selection statement: parse, standard-form normalization
    /// and planning happen **once**, here; the returned [`PreparedQuery`]
    /// can then be executed repeatedly (and concurrently) with only the
    /// combination/collection phases on the hot path.  The text may contain
    /// `:name` parameter placeholders bound at execution time.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, PascalRError> {
        let selection = self.db.parse(text)?;
        Ok(self.prepare_selection(selection))
    }

    /// Prepares an already-parsed selection (same contract as
    /// [`Session::prepare`]).
    pub fn prepare_selection(&self, selection: Selection) -> PreparedQuery {
        PreparedQuery::new(self.db.clone(), selection, self.strategy, self.options)
    }

    /// One-shot evaluation of a parameter-free statement at the session's
    /// strategy level and planning options (cached-plan path).
    pub fn query(&self, text: &str) -> Result<QueryOutcome, PascalRError> {
        self.db.query_text(text, None, self.strategy, self.options)
    }

    /// One-shot evaluation of a parameterized statement: the plan comes
    /// from the shared cache (planned on first use), `params` are bound per
    /// call.  For repeated execution, [`Session::prepare`] once instead.
    pub fn query_with_params(
        &self,
        text: &str,
        params: &Params,
    ) -> Result<QueryOutcome, PascalRError> {
        self.db
            .query_text(text, Some(params), self.strategy, self.options)
    }

    /// Produces the plan (without executing it) for a statement at the
    /// session's strategy level and planning options.
    pub fn explain(&self, text: &str) -> Result<String, PascalRError> {
        self.db
            .explain_with_options(text, self.strategy, self.options)
    }

    /// Streams a parameter-free statement as a lazy [`Rows`] cursor at the
    /// session's strategy level and planning options (cached-plan path).
    ///
    /// No execution work happens until the first tuple is requested;
    /// dropping the cursor early stops all remaining work, so
    /// `session.rows(text)?.take(10)` pays for ten tuples, not for the
    /// full answer relation.  The cursor owns a pinned catalog snapshot —
    /// it never blocks writers and keeps streaming from the version it
    /// pinned; see the [`Rows`] docs.
    pub fn rows(&self, text: &str) -> Result<Rows, PascalRError> {
        self.db.rows_text(text, None, self.strategy, self.options)
    }

    /// Streams a parameterized statement: the plan comes from the shared
    /// cache, `params` are bound per call, the result is a lazy [`Rows`]
    /// cursor.  For repeated execution, [`Session::prepare`] once and use
    /// [`PreparedQuery::rows_with`] instead.
    pub fn rows_with_params(&self, text: &str, params: &Params) -> Result<Rows, PascalRError> {
        self.db
            .rows_text(text, Some(params), self.strategy, self.options)
    }
}
