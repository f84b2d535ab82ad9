//! The thread-safe [`Database`] handle.

use pascalr_sync::atomic::{AtomicBool, Ordering};
use pascalr_sync::Arc;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use pascalr_calculus::{Params, Selection};
use pascalr_catalog::{
    decode_checkpoint, encode_checkpoint, Catalog, CatalogError, CatalogSnapshot, VersionedCatalog,
    WalOp,
};
use pascalr_parser::{parse_database, parse_selection};
use pascalr_planner::{plan, PlanOptions, QueryPlan, StrategyLevel};
use pascalr_relation::{RelationSchema, Tuple, Value};
use pascalr_storage::{
    DiskFs, FileBackend, HeapOptions, MemoryBackend, Metrics, StorageBackend, StorageError,
    StorageFs,
};

use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::obs::{DbObs, QueryObs, SlowQuery};
use crate::{ExecutionReport, PascalRError, QueryOutcome, Rows, Session};

/// State shared by every clone of a [`Database`] handle.
#[derive(Debug)]
pub(crate) struct DbShared {
    pub(crate) catalog: VersionedCatalog,
    pub(crate) plan_cache: PlanCache,
    pub(crate) obs: DbObs,
    /// Where (and whether) this database's state survives a restart.
    pub(crate) backend: Arc<dyn StorageBackend>,
    /// Set when a non-logged [`Database::mutate`] could not be
    /// checkpointed on a persistent backend: appending further WAL
    /// records would make the redo log inconsistent with the last
    /// durable checkpoint, so logged mutators refuse until a
    /// [`Database::checkpoint`] succeeds.
    durability_poisoned: AtomicBool,
}

/// Builds the shared state for a new in-memory database: one observability
/// hub and a plan cache whose counters alias into its registry.
fn new_shared(catalog: VersionedCatalog) -> DbShared {
    shared_with_backend(catalog, DbObs::new(), Arc::new(MemoryBackend))
}

/// Assembles the shared state around an already-created backend (whose
/// counters are registered in `obs`'s registry).
fn shared_with_backend(
    catalog: VersionedCatalog,
    obs: DbObs,
    backend: Arc<dyn StorageBackend>,
) -> DbShared {
    let plan_cache = PlanCache::with_counters(
        obs.cache_hits.clone(),
        obs.cache_misses.clone(),
        obs.cache_invalidations.clone(),
        obs.cache_evictions.clone(),
        obs.cache_entries.clone(),
    );
    DbShared {
        catalog,
        plan_cache,
        obs,
        backend,
        durability_poisoned: AtomicBool::new(false),
    }
}

/// Writes a full checkpoint of `catalog` through `backend`.
fn checkpoint_catalog(backend: &dyn StorageBackend, catalog: &Catalog) -> Result<(), StorageError> {
    let (meta, relations) = encode_checkpoint(catalog);
    backend.checkpoint(&meta, &relations)
}

/// A PASCAL/R database: catalog plus query machinery.
///
/// `Database` is a cheap-to-clone **shared handle**: every clone refers to
/// the same versioned catalog and the same plan cache, so a single
/// database can serve concurrent sessions from many threads.  Use
/// [`Database::fork`] for an independent database pinned to the current
/// state.
///
/// # Concurrency model
///
/// The catalog is stored as a chain of **immutable versions**.  Readers
/// pin the current version with [`Database::snapshot`] — an `Arc` clone;
/// no lock is held while the snapshot is alive — and every query entry
/// point (including the streaming [`Rows`] cursors) does the same
/// internally.  Writers ([`Database::mutate`], inserts, DDL, ANALYZE)
/// build the next version copy-on-write and publish it with a single
/// atomic swap; they never wait for readers, and readers never wait for
/// them.  A pinned snapshot (or a `Rows` cursor mid-stream) keeps
/// observing exactly the version it pinned, no matter what writers
/// publish concurrently.
///
/// The per-handle defaults (`default_strategy`, plan options) are *not*
/// shared: changing them on one clone does not affect the others, which
/// gives each handle session-like defaults.  For explicit per-connection
/// state, open a [`Session`].
#[derive(Debug, Clone)]
pub struct Database {
    pub(crate) shared: Arc<DbShared>,
    default_strategy: StrategyLevel,
    plan_options: PlanOptions,
}

/// Hash of the query shape: parsed selection plus planning options.
pub(crate) fn fingerprint(selection: &Selection, options: PlanOptions) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    selection.hash(&mut h);
    options.hash(&mut h);
    h.finish()
}

/// Executes an already-bound plan against a pinned catalog snapshot and
/// assembles the outcome.  This is the materializing face of the streaming
/// cursor: `pascalr_exec::execute` drains an `ExecutionCursor` into a
/// relation, so `execute()`-style entry points and [`crate::Rows`] share
/// one execution path.
pub(crate) fn execute_outcome(
    db: &Database,
    snapshot: &CatalogSnapshot,
    query_plan: Arc<QueryPlan>,
    qobs: QueryObs,
) -> Result<QueryOutcome, PascalRError> {
    let metrics = Metrics::new();
    let exec_start = pascalr_obs::now();
    let exec_result = pascalr_exec::execute(query_plan.clone(), snapshot, &metrics)?;
    let elapsed = exec_start.elapsed();
    let total = qobs.elapsed();
    let span_tree = db.shared.obs.record_query(
        &query_plan,
        total,
        exec_result.relation.cardinality() as u64,
        None,
        &exec_result.metrics,
        qobs.finish_tree(total),
    );
    let fallback = exec_result
        .fallback
        .as_ref()
        .map(crate::rows::fallback_description);
    let strategy = query_plan.strategy;
    Ok(QueryOutcome {
        result: exec_result.relation,
        plan: query_plan,
        report: ExecutionReport {
            strategy,
            // The per-query snapshot the executor took — not a re-read of
            // any shared counter.
            metrics: exec_result.metrics,
            elapsed,
            fallback,
            span_tree,
        },
    })
}

/// The facade-level unbound-parameter error for `name` (single place that
/// fixes the error shape for every entry point).
pub(crate) fn unbound_param_error(name: &str) -> PascalRError {
    PascalRError::Calculus(pascalr_calculus::CalculusError::UnboundParameter {
        name: name.to_string(),
    })
}

/// Fails with [`PascalRError`] if the selection still carries parameter
/// placeholders (text/selection entry points do not accept parameters; use
/// a prepared query).
fn reject_unbound_params(selection: &Selection) -> Result<(), PascalRError> {
    match selection.param_names().into_iter().next() {
        Some(name) => Err(unbound_param_error(&name)),
        None => Ok(()),
    }
}

impl Database {
    /// Creates an empty database (no types, no relations).
    pub fn new() -> Self {
        Database::from_catalog(Catalog::new())
    }

    /// Creates a database from PASCAL/R declarations (TYPE and VAR sections,
    /// Figure 1 style).
    pub fn from_declarations(text: &str) -> Result<Self, PascalRError> {
        Ok(Database::from_catalog(parse_database(text)?))
    }

    /// Opens (or creates) a **persistent** database rooted at `path`.
    ///
    /// State lives in a file backend under the directory: per checkpoint
    /// generation a data file holding one CRC-framed blob per relation, a
    /// write-ahead log of every mutation since, and an atomically-replaced
    /// `meta.bin` commit point.  Opening replays the redo log over the
    /// last checkpoint, so the catalog — relations, permanent indexes,
    /// ANALYZE statistics and both plan epochs — comes back exactly as it
    /// was: a reopened database serves the same plans without re-ANALYZE.
    ///
    /// ```no_run
    /// use pascalr::Database;
    ///
    /// let db = Database::open("/var/lib/pascalr/db").unwrap();
    /// assert!(db.persistent());
    /// ```
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self, PascalRError> {
        Database::open_with(path, HeapOptions::default())
    }

    /// [`Database::open`] with explicit storage options: the WAL's
    /// [`pascalr_storage::FsyncPolicy`].
    pub fn open_with(
        path: impl Into<std::path::PathBuf>,
        options: HeapOptions,
    ) -> Result<Self, PascalRError> {
        let fs = DiskFs::open(path)?;
        Database::open_on(Arc::new(fs), options)
    }

    /// Opens a persistent database on an explicit filesystem — the seam
    /// crash-recovery tests use with [`pascalr_storage::MemFs`], whose
    /// snapshot/truncate fault injection simulates kills at arbitrary WAL
    /// prefixes.  [`Database::open`] is the `DiskFs` convenience wrapper.
    pub fn open_on(fs: Arc<dyn StorageFs>, options: HeapOptions) -> Result<Self, PascalRError> {
        let obs = DbObs::new();
        let backend = Arc::new(FileBackend::new(fs, options, obs.storage.clone()));
        let catalog = match backend.open_checkpoint()? {
            Some(data) => {
                let mut cat = decode_checkpoint(&data.meta, &data.relations)?;
                let replayed = !data.wal_records.is_empty();
                for record in &data.wal_records {
                    WalOp::decode(record)?.apply(&mut cat)?;
                }
                if replayed || data.torn_tail {
                    // Compact the replayed state into a fresh checkpoint so
                    // the next recovery starts from it.
                    checkpoint_catalog(backend.as_ref(), &cat)?;
                }
                cat
            }
            None => {
                // Fresh database: the backend contract requires a
                // checkpoint before the first WAL append.
                let cat = Catalog::new();
                checkpoint_catalog(backend.as_ref(), &cat)?;
                cat
            }
        };
        Ok(Database {
            shared: Arc::new(shared_with_backend(
                VersionedCatalog::new(catalog),
                obs,
                backend,
            )),
            default_strategy: StrategyLevel::Auto,
            plan_options: PlanOptions::default(),
        })
    }

    /// Whether this database survives a process restart (opened via
    /// [`Database::open`] rather than created in memory).
    pub fn persistent(&self) -> bool {
        self.shared.backend.is_persistent()
    }

    /// Forces a full checkpoint on a persistent database: every
    /// relation's tuples are encoded as one CRC-framed blob in the next
    /// generation's data file, the catalog metadata (types, schemas,
    /// indexes, statistics, epochs) is written alongside, the commit
    /// point is replaced atomically, and the WAL is rotated empty.  Runs
    /// under the writer lock, so no commit interleaves with the WAL
    /// rotation.  A no-op on in-memory databases.
    pub fn checkpoint(&self) -> Result<(), PascalRError> {
        if !self.persistent() {
            return Ok(());
        }
        let backend = Arc::clone(&self.shared.backend);
        self.shared
            .catalog
            .try_mutate(|c| checkpoint_catalog(backend.as_ref(), c))?;
        self.shared
            .durability_poisoned
            .store(false, Ordering::Release);
        Ok(())
    }

    /// Forces buffered WAL records to durable storage regardless of the
    /// configured [`pascalr_storage::FsyncPolicy`] (a no-op on in-memory
    /// databases and when nothing is buffered).
    pub fn sync_wal(&self) -> Result<(), PascalRError> {
        Ok(self.shared.backend.sync()?)
    }

    /// Wraps an existing catalog (e.g. one produced by
    /// `pascalr-workload`'s generator).
    pub fn from_catalog(catalog: Catalog) -> Self {
        Database {
            shared: Arc::new(new_shared(VersionedCatalog::new(catalog))),
            // Cost-based selection is the default: the planner picks the
            // cheapest of the five fixed levels per query (exactly S4-like
            // until statistics or cardinalities say otherwise).  The paper
            // levels remain selectable via `set_default_strategy` /
            // `Session::with_strategy`.
            default_strategy: StrategyLevel::Auto,
            plan_options: PlanOptions::default(),
        }
    }

    /// An independent database pinned to this one's **current version**:
    /// the fork starts from the same immutable catalog snapshot (an `Arc`
    /// share, O(1) — relations are only copied when either side mutates
    /// them), after which the two databases evolve separately.  The fork
    /// has a fresh, empty plan cache and inherits this handle's defaults.
    ///
    /// This is what `clone()` used to mean before `Database` became a
    /// shared handle, minus the eager deep copy: a fork taken while other
    /// threads are writing pins one consistent published version rather
    /// than a torn mixture.
    pub fn fork(&self) -> Database {
        Database {
            shared: Arc::new(new_shared(VersionedCatalog::from_snapshot(self.snapshot()))),
            default_strategy: self.default_strategy,
            plan_options: self.plan_options,
        }
    }

    /// Whether two handles share the same underlying database state.
    pub fn shares_state_with(&self, other: &Database) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The default strategy level used by [`Database::query`] and new
    /// [`Session`]s.
    pub fn default_strategy(&self) -> StrategyLevel {
        self.default_strategy
    }

    /// Changes this handle's default strategy level (other clones are
    /// unaffected).
    pub fn set_default_strategy(&mut self, strategy: StrategyLevel) {
        self.default_strategy = strategy;
    }

    /// This handle's planning options.
    pub fn plan_options(&self) -> PlanOptions {
        self.plan_options
    }

    /// Changes this handle's planning options (ablation switches).
    pub fn set_plan_options(&mut self, options: PlanOptions) {
        self.plan_options = options;
    }

    /// Opens a session carrying per-connection defaults, seeded from this
    /// handle's defaults.
    pub fn session(&self) -> Session {
        Session::new(self)
    }

    /// Pins the current catalog version and returns it as an immutable
    /// [`CatalogSnapshot`].
    ///
    /// This is an `Arc` clone: no lock is held while the snapshot is
    /// alive, writers are never blocked by it, and the snapshot keeps
    /// observing exactly the version it pinned regardless of concurrent
    /// mutations.  Derefs to [`Catalog`] for all read-only inspection.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.shared.obs.snapshot_pins.inc();
        self.shared.catalog.snapshot()
    }

    /// Mutates the catalog through a closure and atomically publishes the
    /// result as the next version (declaring additional relations,
    /// permanent indexes, bulk loads, ...).
    ///
    /// The closure receives a private copy-on-write successor of the
    /// current version; concurrent readers keep streaming from the
    /// versions they pinned and observe the new state only when they take
    /// their next [`Database::snapshot`].  Mutations advance the catalog
    /// epoch and thereby invalidate cached plans.  Writers are serialized
    /// with each other but never wait for readers.
    ///
    /// On a **persistent** database an arbitrary closure has no redo
    /// record, so the mutation is made durable by a full checkpoint
    /// before it is published.  If that checkpoint fails, the mutation is
    /// still published in memory but durability is *poisoned*: logged
    /// mutators (inserts, DDL, ANALYZE) return an error until a
    /// [`Database::checkpoint`] succeeds, because appending their redo
    /// records to a log that does not contain this closure's effects
    /// would recover to an inconsistent state.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let result = if self.persistent() {
            let backend = Arc::clone(&self.shared.backend);
            self.shared.catalog.mutate(|c| {
                let r = f(c);
                let healthy = checkpoint_catalog(backend.as_ref(), c).is_ok();
                self.shared
                    .durability_poisoned
                    .store(!healthy, Ordering::Release);
                r
            })
        } else {
            self.shared.catalog.mutate(f)
        };
        self.shared.obs.epoch_publishes.inc();
        result
    }

    /// The error logged mutators fail with while durability is poisoned.
    fn poisoned_error() -> PascalRError {
        PascalRError::Storage(StorageError::Unsupported {
            detail: "a non-logged mutation could not be checkpointed; \
                     call Database::checkpoint() to restore durability"
                .to_string(),
        })
    }

    /// Builds the WAL record for a mutation — only on persistent
    /// databases, so the in-memory path never pays for the clone.
    fn wal_op(&self, make: impl FnOnce() -> WalOp) -> Option<WalOp> {
        self.persistent().then(make)
    }

    /// Runs a loggable catalog mutation.  On a persistent database the
    /// mutation's redo record is appended to the WAL *after* the closure
    /// succeeds and *before* the new version is published — readers can
    /// only ever observe states whose redo records are on disk (to the
    /// degree the fsync policy promises).  A failed append publishes
    /// nothing.
    fn logged_mutate<R>(
        &self,
        op: Option<WalOp>,
        f: impl FnOnce(&mut Catalog) -> Result<R, CatalogError>,
    ) -> Result<R, PascalRError> {
        let result = match op {
            Some(op) => {
                if self.shared.durability_poisoned.load(Ordering::Acquire) {
                    return Err(Self::poisoned_error());
                }
                let backend = Arc::clone(&self.shared.backend);
                self.shared.catalog.try_mutate_then(
                    |c| f(c).map_err(PascalRError::Catalog),
                    |_, _| Ok(backend.log(&op.encode())?),
                )
            }
            None => self
                .shared
                .catalog
                .try_mutate(|c| f(c).map_err(PascalRError::Catalog)),
        };
        if result.is_ok() {
            self.shared.obs.epoch_publishes.inc();
        }
        result
    }

    /// The catalog's current modification epoch (plan-cache invalidation
    /// counter).
    pub fn epoch(&self) -> u64 {
        self.shared.catalog.snapshot().epoch()
    }

    /// The catalog's global stats epoch (advanced by every ANALYZE).
    pub fn stats_epoch(&self) -> u64 {
        self.shared.catalog.snapshot().stats_epoch()
    }

    /// ANALYZE every relation: computes cardinalities, per-column distinct
    /// counts, min/max and integer histograms in one pass per relation and
    /// caches them in the catalog under a fresh stats epoch.
    ///
    /// Only [`StrategyLevel::Auto`] plans over the analyzed relations are
    /// re-planned (exactly once, via their stats-epoch cache key); cached
    /// fixed-level plans and `Auto` plans over other relations keep
    /// hitting the plan cache.
    ///
    /// ```
    /// use pascalr::{Database, StrategyLevel};
    ///
    /// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
    /// db.analyze().unwrap();
    /// let outcome = db
    ///     .query("profs := [<e.ename> OF EACH e IN employees: e.estatus = professor]")
    ///     .unwrap();
    /// // Auto picked a concrete paper level and reports it.
    /// assert!(StrategyLevel::ALL.contains(&outcome.report.strategy));
    /// assert!(outcome.plan.explain().contains("auto strategy selection"));
    /// ```
    pub fn analyze(&self) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::AnalyzeAll);
        self.logged_mutate(op, pascalr_catalog::Catalog::analyze_all)?;
        self.shared.obs.analyze_runs.inc();
        Ok(())
    }

    /// ANALYZE a single relation (see [`Database::analyze`]).
    pub fn analyze_relation(&self, relation: &str) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::AnalyzeRelation {
            name: relation.to_string(),
        });
        self.logged_mutate(op, |c| c.analyze_relation(relation))?;
        self.shared.obs.analyze_runs.inc();
        Ok(())
    }

    /// Creates a **permanent index** on `relation(attributes)` (Example
    /// 3.1's `enrindex`): the hash structure is built now and *maintained*
    /// from then on — inserts update it incrementally, and execution
    /// consults it instead of building a per-query index for covered join
    /// terms and `selected`-style restricted ranges (Section 3.2: "The
    /// first step can be omitted, if permanent indexes exist").
    ///
    /// Creating an index advances the plan epoch, so cached plans re-plan
    /// once and pick the index up; plain inserts afterwards maintain the
    /// index without any extra re-planning.  Like every mutation this
    /// publishes a new catalog version — snapshots and `Rows` cursors
    /// pinned before the call keep executing against the un-indexed
    /// version they pinned.
    ///
    /// ```
    /// use pascalr::Database;
    ///
    /// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
    /// db.create_index("penrindex", "papers", &["penr"]).unwrap();
    /// let outcome = db
    ///     .query(
    ///         "published := [<e.ename> OF EACH e IN employees: \
    ///            SOME p IN papers (p.penr = e.enr)]",
    ///     )
    ///     .unwrap();
    /// // The covered join term probed the permanent index: no per-query
    /// // index was built during the collection phase.
    /// assert_eq!(outcome.report.metrics.total().index_builds, 0);
    /// assert!(outcome.plan.explain().contains("penrindex"));
    /// ```
    pub fn create_index(
        &self,
        name: &str,
        relation: &str,
        attributes: &[&str],
    ) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::DeclareIndex {
            name: name.to_string(),
            relation: relation.to_string(),
            attributes: attributes.iter().map(|a| (*a).to_string()).collect(),
        });
        self.logged_mutate(op, |c| c.declare_index(name, relation, attributes))?;
        Ok(())
    }

    /// Drops a permanent index by name.  Advances the plan epoch: every
    /// cached plan — in particular prepared queries whose execution probed
    /// the index — re-plans exactly once on its next use and falls back to
    /// per-query index construction.
    pub fn drop_index(&self, name: &str) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::DropIndex {
            name: name.to_string(),
        });
        self.logged_mutate(op, |c| c.drop_index(name))?;
        Ok(())
    }

    /// Counters of the shared plan cache.  A thin view over the same
    /// counters the metrics registry exposes as
    /// `pascalr_plan_cache_*`.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.shared.plan_cache.stats()
    }

    /// This database's metrics registry: counters, gauges and latency
    /// histograms shared by every clone of the handle.
    ///
    /// ```
    /// use pascalr::Database;
    ///
    /// let db = Database::from_catalog(pascalr_workload::figure1_sample_database().unwrap());
    /// db.query("profs := [<e.ename> OF EACH e IN employees: e.estatus = professor]")
    ///     .unwrap();
    /// assert_eq!(db.metrics_registry().counter_total("pascalr_queries_total"), 1);
    /// ```
    pub fn metrics_registry(&self) -> &pascalr_obs::Registry {
        self.shared.obs.registry()
    }

    /// The registry rendered in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.shared.obs.registry().render_prometheus()
    }

    /// The registry rendered as a JSON document.
    pub fn metrics_json(&self) -> String {
        self.shared.obs.registry().to_json()
    }

    /// Turns per-query span collection on or off (off by default).  When
    /// on, every query's report carries its span tree
    /// ([`ExecutionReport::span_tree`]) and `explain_analyzed` renders
    /// per-stage wall times.  Shared by every clone of the handle.
    pub fn set_query_tracing(&self, enabled: bool) {
        self.shared.obs.set_tracing(enabled);
    }

    /// Whether per-query span collection is on.
    pub fn query_tracing(&self) -> bool {
        self.shared.obs.tracing_enabled()
    }

    /// Sets the slow-query threshold (`None` disables the log, the
    /// default).  Queries whose total wall time **exceeds** the threshold
    /// are captured — statement text, span tree, metrics snapshot — in a
    /// bounded ring of the most recent
    /// [`crate::obs::SLOW_QUERY_LOG_CAP`] entries.  Setting a threshold
    /// implies span collection, so captures carry their trees.
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        self.shared.obs.set_slow_threshold(threshold);
    }

    /// The current slow-query threshold (`None` = log disabled).
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.shared.obs.slow_threshold()
    }

    /// The captured slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.obs.slow_queries()
    }

    /// Empties the slow-query log (the `pascalr_slow_queries_total`
    /// counter is cumulative and unaffected).
    pub fn clear_slow_queries(&self) {
        self.shared.obs.clear_slow_queries();
    }

    /// Inserts one element (`rel :+ [tuple]`).
    pub fn insert(&self, relation: &str, tuple: Tuple) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::Insert {
            relation: relation.to_string(),
            tuple: tuple.clone(),
        });
        self.logged_mutate(op, |c| c.insert(relation, tuple))?;
        Ok(())
    }

    /// Inserts one element given as a plain value list.
    pub fn insert_values(&self, relation: &str, values: Vec<Value>) -> Result<(), PascalRError> {
        self.insert(relation, Tuple::new(values))
    }

    /// Inserts many elements; returns how many were new.
    pub fn insert_all(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, PascalRError> {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        let op = self.wal_op(|| WalOp::InsertAll {
            relation: relation.to_string(),
            tuples: tuples.clone(),
        });
        self.logged_mutate(op, |c| c.insert_all(relation, tuples))
    }

    /// Declares a new relation variable (VAR section entry).  Advances
    /// the plan epoch; on a persistent database the declaration is
    /// WAL-logged like every other mutation.
    pub fn declare_relation(
        &self,
        schema: impl Into<Arc<RelationSchema>>,
    ) -> Result<(), PascalRError> {
        let schema = schema.into();
        let op = self.wal_op(|| WalOp::DeclareRelation {
            schema: schema.clone(),
        });
        self.logged_mutate(op, |c| c.declare_relation(schema))?;
        Ok(())
    }

    /// Redeclares an existing relation variable under a new schema: the
    /// relation is emptied and its permanent indexes must not index
    /// components the new schema lacks.
    pub fn redeclare_relation(
        &self,
        schema: impl Into<Arc<RelationSchema>>,
    ) -> Result<(), PascalRError> {
        let schema = schema.into();
        let op = self.wal_op(|| WalOp::RedeclareRelation {
            schema: schema.clone(),
        });
        self.logged_mutate(op, |c| c.redeclare_relation(schema))?;
        Ok(())
    }

    /// Drops a relation variable: its elements, permanent indexes and
    /// cached statistics are removed.  References held by other
    /// relations' `Ref` components keep their identity semantics — the
    /// dropped relation's id is never reused.
    pub fn drop_relation(&self, name: &str) -> Result<(), PascalRError> {
        let op = self.wal_op(|| WalOp::DropRelation {
            name: name.to_string(),
        });
        self.logged_mutate(op, |c| c.drop_relation(name))?;
        Ok(())
    }

    /// Builds an enumeration value (e.g. `professor`) from a declared
    /// enumeration type.
    pub fn enum_value(&self, type_name: &str, label: &str) -> Result<Value, PascalRError> {
        let catalog = self.snapshot();
        let ty = catalog
            .types()
            .enum_type(type_name)
            .ok_or_else(|| CatalogError::UnknownType {
                name: type_name.to_string(),
            })?;
        ty.value(label)
            .map_err(|e| PascalRError::Catalog(CatalogError::Relation(e)))
    }

    /// Parses a selection statement against this database's catalog.
    pub fn parse(&self, text: &str) -> Result<Selection, PascalRError> {
        let catalog = self.snapshot();
        Ok(parse_selection(text, &catalog)?)
    }

    /// Looks up or builds the plan for a selection under the current catalog
    /// epoch, going through the shared plan cache.  `fp` is the query-shape
    /// fingerprint (see [`fingerprint`]); prepared queries pass their
    /// precomputed value so the hot path does not rehash the AST.
    ///
    /// Statistics-consulting plans ([`StrategyLevel::Auto`]) additionally
    /// key on the stats fingerprint of exactly the relations the selection
    /// mentions: after an ANALYZE of one of *those* relations the next
    /// execution re-plans exactly once, while an unrelated relation's
    /// ANALYZE (and every fixed-level plan) keeps hitting the cache.
    pub(crate) fn cached_plan(
        &self,
        catalog: &Catalog,
        selection: &Arc<Selection>,
        fp: u64,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> Arc<QueryPlan> {
        let stats_epoch = if strategy.is_auto() {
            catalog.stats_fingerprint(
                selection
                    .relations()
                    .iter()
                    .map(std::convert::AsRef::as_ref),
            )
        } else {
            0
        };
        let key = PlanKey {
            fingerprint: fp,
            strategy,
            epoch: catalog.epoch(),
            stats_epoch,
        };
        if let Some(p) = self.shared.plan_cache.get(&key, selection, options) {
            return p;
        }
        let built = Arc::new(plan(selection, catalog, strategy, options));
        self.shared
            .plan_cache
            .insert(key, selection.clone(), options, built.clone());
        built
    }

    /// Evaluates a selection statement (text) at the default strategy level.
    ///
    /// This is a thin wrapper over the prepared path: the text is parsed,
    /// the plan comes from the shared plan cache (planning happens at most
    /// once per query shape and catalog epoch).  For repeated execution —
    /// especially with varying constants — prefer
    /// [`Session::prepare`](crate::Session::prepare).
    pub fn query(&self, text: &str) -> Result<QueryOutcome, PascalRError> {
        self.query_with(text, self.default_strategy)
    }

    /// Evaluates a selection statement (text) at an explicit strategy level
    /// (cached-plan path, like [`Database::query`]).
    pub fn query_with(
        &self,
        text: &str,
        strategy: StrategyLevel,
    ) -> Result<QueryOutcome, PascalRError> {
        self.query_text(text, None, strategy, self.plan_options)
    }

    /// Cached-path text query with explicit planning options (used by
    /// sessions, whose options may differ from this handle's defaults):
    /// parse, fetch the plan from the shared cache, bind `params`, execute
    /// — one snapshot pin and one cache lookup per call.
    pub(crate) fn query_text(
        &self,
        text: &str,
        params: Option<&Params>,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> Result<QueryOutcome, PascalRError> {
        let qobs = self.begin_query();
        let catalog = self.snapshot();
        let query_plan = self.text_plan(&catalog, text, params, strategy, options)?;
        execute_outcome(self, &catalog, query_plan, qobs)
    }

    /// Parses `text` against `catalog` and fetches its plan from the shared
    /// cache, bound to `params`.  Without `params`, a statement with
    /// placeholders fails before the cache is consulted.
    fn text_plan(
        &self,
        catalog: &CatalogSnapshot,
        text: &str,
        params: Option<&Params>,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> Result<Arc<QueryPlan>, PascalRError> {
        let selection = Arc::new(parse_selection(text, catalog)?);
        if params.is_none() {
            reject_unbound_params(&selection)?;
        }
        let fp = fingerprint(&selection, options);
        let query_plan = self.cached_plan(catalog, &selection, fp, strategy, options);
        match params {
            Some(params) if !selection.param_names().is_empty() => {
                Ok(Arc::new(query_plan.bind_params(params)?))
            }
            _ => Ok(query_plan),
        }
    }

    /// Evaluates an already-parsed selection at an explicit strategy level.
    ///
    /// This is the low-level *uncached* path: the selection is planned
    /// afresh on every call (useful for one-off plans and for measuring
    /// planning cost).  Use a prepared query to amortize planning.
    pub fn query_selection(
        &self,
        selection: &Selection,
        strategy: StrategyLevel,
    ) -> Result<QueryOutcome, PascalRError> {
        reject_unbound_params(selection)?;
        let qobs = self.begin_query();
        let catalog = self.snapshot();
        let query_plan = Arc::new(plan(selection, &catalog, strategy, self.plan_options));
        execute_outcome(self, &catalog, query_plan, qobs)
    }

    /// Produces the plan (without executing it) for a selection statement.
    pub fn explain(&self, text: &str, strategy: StrategyLevel) -> Result<String, PascalRError> {
        self.explain_with_options(text, strategy, self.plan_options)
    }

    /// Streams an already-parsed selection as a lazy [`Rows`] cursor at an
    /// explicit strategy level.
    ///
    /// Like [`Database::query_selection`], this is the low-level *uncached*
    /// path: the selection is planned afresh on every call (pass a plan
    /// carrying a [`pascalr_planner::QueryPlan::row_budget`] hint by
    /// preparing the query instead, or cap the cursor with
    /// [`Rows::with_row_budget`]).  No execution work happens until the
    /// first tuple is requested, and dropping the cursor early stops all
    /// remaining work.  The cursor owns a pinned catalog snapshot — it
    /// never blocks writers and keeps streaming from the version it
    /// pinned; see the [`Rows`] docs.
    pub fn rows_selection(
        &self,
        selection: &Selection,
        strategy: StrategyLevel,
    ) -> Result<Rows, PascalRError> {
        reject_unbound_params(selection)?;
        let qobs = self.begin_query();
        let snapshot = self.snapshot();
        let query_plan = Arc::new(plan(selection, &snapshot, strategy, self.plan_options));
        Ok(Rows::new(self, snapshot, query_plan, qobs))
    }

    /// Cached-path streaming text query (used by sessions): the lazy-cursor
    /// counterpart of `Database::query_text`.
    pub(crate) fn rows_text(
        &self,
        text: &str,
        params: Option<&Params>,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> Result<Rows, PascalRError> {
        let qobs = self.begin_query();
        let snapshot = self.snapshot();
        let query_plan = self.text_plan(&snapshot, text, params, strategy, options)?;
        Ok(Rows::new(self, snapshot, query_plan, qobs))
    }

    /// `explain` with explicit planning options (used by sessions).
    pub(crate) fn explain_with_options(
        &self,
        text: &str,
        strategy: StrategyLevel,
        options: PlanOptions,
    ) -> Result<String, PascalRError> {
        let catalog = self.snapshot();
        let selection = Arc::new(parse_selection(text, &catalog)?);
        let fp = fingerprint(&selection, options);
        let query_plan = self.cached_plan(&catalog, &selection, fp, strategy, options);
        Ok(query_plan.explain())
    }

    /// Runs the same query at every strategy level and returns the outcomes
    /// in level order — the comparison the paper's Section 4 is about.
    /// All five runs execute against one pinned snapshot, so concurrent
    /// writers cannot skew the comparison.
    pub fn compare_strategies(&self, text: &str) -> Result<Vec<QueryOutcome>, PascalRError> {
        let catalog = self.snapshot();
        let selection = Arc::new(parse_selection(text, &catalog)?);
        reject_unbound_params(&selection)?;
        let fp = fingerprint(&selection, self.plan_options);
        StrategyLevel::ALL
            .iter()
            .map(|&level| {
                let qobs = self.begin_query();
                let query_plan =
                    self.cached_plan(&catalog, &selection, fp, level, self.plan_options);
                execute_outcome(self, &catalog, query_plan, qobs)
            })
            .collect()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}
