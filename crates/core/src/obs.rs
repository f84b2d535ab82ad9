//! Engine-wide observability state owned by [`Database`]: the metrics
//! [`Registry`], per-query span collection, and the slow-query log.
//!
//! One `DbObs` lives on the shared `DbShared` state, so
//! every clone of a handle records into the same registry — exactly like
//! the plan cache. All counters follow the workspace's Relaxed ordering
//! policy (statistics, never synchronization); see `pascalr-storage`'s
//! "Atomic ordering policy".
//!
//! Span collection is off by default and costs one relaxed load per
//! instrumented site. It turns on when either knob is set:
//! [`Database::set_query_tracing`] (every query carries its span tree on
//! the report) or [`Database::set_slow_query_threshold`] (trees are
//! collected so an over-threshold query can be captured with its tree).

use pascalr_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pascalr_sync::Arc;
use std::time::Duration;

use pascalr_obs::clock::{self, Tick};
use pascalr_obs::{
    Collector, CollectorScope, Counter, Gauge, Histogram, Registry, RegistryBuilder, RingLog,
    SpanTree,
};
use pascalr_planner::{QueryPlan, StrategyLevel};
use pascalr_storage::{MetricsSnapshot, StorageCounters};

use crate::Database;

/// How many over-threshold queries the slow-query log retains (oldest
/// evicted first).
pub const SLOW_QUERY_LOG_CAP: usize = 64;

/// Sentinel for "slow-query log disabled".
const THRESHOLD_DISABLED: u64 = u64::MAX;

/// One captured slow query: everything needed to understand it after the
/// fact — the statement text, the measured time, the span tree (when
/// collection was active) and the per-query metrics snapshot.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The selection statement, rendered from the executed plan's
    /// original AST.
    pub query: String,
    /// The strategy level the query executed at.
    pub strategy: StrategyLevel,
    /// Total wall-clock time (parse + plan + execute for text entry
    /// points; plan + execute for prepared ones).
    pub elapsed: Duration,
    /// Result tuples produced before the query finished (or its cursor
    /// was dropped).
    pub rows_emitted: u64,
    /// The query's span tree.
    pub span_tree: Option<SpanTree>,
    /// The per-query access-metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// The observability state shared by every clone of a [`Database`].
#[derive(Debug)]
pub(crate) struct DbObs {
    registry: Registry,
    queries_total: Arc<Counter>,
    query_latency: Arc<Histogram>,
    time_to_first_tuple: Arc<Histogram>,
    rows_emitted: Arc<Counter>,
    pub(crate) snapshot_pins: Arc<Counter>,
    pub(crate) epoch_publishes: Arc<Counter>,
    pub(crate) analyze_runs: Arc<Counter>,
    slow_queries_total: Arc<Counter>,
    auto_chosen: Vec<(StrategyLevel, Arc<Counter>)>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_invalidations: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) cache_entries: Arc<Gauge>,
    /// The storage engine's counters — WAL volume, recovery replays,
    /// checkpoints.  The same `Arc` handles are given to
    /// the [`pascalr_storage::StorageBackend`], so the backend ticks
    /// directly into this registry.
    pub(crate) storage: StorageCounters,
    tracing_enabled: AtomicBool,
    slow_threshold_nanos: AtomicU64,
    slow_log: RingLog<SlowQuery>,
}

impl DbObs {
    pub(crate) fn new() -> DbObs {
        let mut b = RegistryBuilder::new();
        let queries_total = b.counter("pascalr_queries_total", "Queries executed to completion.");
        let query_latency = b.histogram(
            "pascalr_query_latency_nanoseconds",
            "End-to-end query wall time (parse + plan + execute).",
        );
        let time_to_first_tuple = b.histogram(
            "pascalr_time_to_first_tuple_nanoseconds",
            "Streaming cursors: wall time until the first tuple was produced.",
        );
        let rows_emitted = b.counter("pascalr_rows_emitted_total", "Result tuples produced.");
        let snapshot_pins = b.counter(
            "pascalr_snapshot_pins_total",
            "Catalog snapshots pinned (queries and Database::snapshot).",
        );
        let epoch_publishes = b.counter(
            "pascalr_epoch_publishes_total",
            "Catalog versions published by mutations (inserts, DDL, ANALYZE).",
        );
        let analyze_runs = b.counter("pascalr_analyze_runs_total", "ANALYZE invocations.");
        let slow_queries_total = b.counter(
            "pascalr_slow_queries_total",
            "Queries that exceeded the slow-query threshold.",
        );
        let auto_chosen = StrategyLevel::ALL
            .iter()
            .map(|&level| {
                (
                    level,
                    b.counter_with_labels(
                        "pascalr_auto_level_chosen_total",
                        "Fixed level chosen by Auto's cost-based selection.",
                        &[("level", level.short_name())],
                    ),
                )
            })
            .collect();
        let cache_hits = b.counter(
            "pascalr_plan_cache_hits_total",
            "Plan-cache lookups answered from the cache.",
        );
        let cache_misses = b.counter(
            "pascalr_plan_cache_misses_total",
            "Plan-cache lookups that required planning.",
        );
        let cache_invalidations = b.counter(
            "pascalr_plan_cache_invalidations_total",
            "Cached plans dropped because the catalog epoch or statistics moved on.",
        );
        let cache_evictions = b.counter(
            "pascalr_plan_cache_evictions_total",
            "Cached plans evicted by the capacity cap.",
        );
        let cache_entries = b.gauge("pascalr_plan_cache_entries", "Plans currently cached.");
        let storage = StorageCounters {
            wal_appends: b.counter(
                "pascalr_wal_appends_total",
                "Write-ahead-log records appended.",
            ),
            wal_bytes: b.counter(
                "pascalr_wal_bytes_total",
                "Write-ahead-log bytes appended (frame headers included).",
            ),
            wal_fsyncs: b.counter("pascalr_wal_fsyncs_total", "Write-ahead-log fsyncs issued."),
            recovery_replays: b.counter(
                "pascalr_recovery_replays_total",
                "WAL records replayed during redo recovery on open.",
            ),
            checkpoints: b.counter("pascalr_checkpoints_total", "Checkpoints written."),
        };
        DbObs {
            registry: b.build(),
            queries_total,
            query_latency,
            time_to_first_tuple,
            rows_emitted,
            snapshot_pins,
            epoch_publishes,
            analyze_runs,
            slow_queries_total,
            auto_chosen,
            cache_hits,
            cache_misses,
            cache_invalidations,
            cache_evictions,
            cache_entries,
            storage,
            tracing_enabled: AtomicBool::new(false),
            slow_threshold_nanos: AtomicU64::new(THRESHOLD_DISABLED),
            slow_log: RingLog::new(SLOW_QUERY_LOG_CAP),
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn tracing_enabled(&self) -> bool {
        self.tracing_enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_tracing(&self, enabled: bool) {
        self.tracing_enabled.store(enabled, Ordering::Relaxed);
    }

    pub(crate) fn slow_threshold(&self) -> Option<Duration> {
        match self.slow_threshold_nanos.load(Ordering::Relaxed) {
            THRESHOLD_DISABLED => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }

    pub(crate) fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(THRESHOLD_DISABLED, |t| {
            u64::try_from(t.as_nanos()).unwrap_or(THRESHOLD_DISABLED - 1)
        });
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.snapshot()
    }

    pub(crate) fn clear_slow_queries(&self) {
        self.slow_log.clear();
    }

    /// Whether queries should install a span collector: explicit tracing,
    /// or a slow-query threshold that wants trees on capture.
    fn detail_enabled(&self) -> bool {
        self.tracing_enabled() || self.slow_threshold().is_some()
    }

    /// Record one finished (or abandoned-after-streaming) query. Returns
    /// the span tree back to the caller for its report.
    pub(crate) fn record_query(
        &self,
        plan: &QueryPlan,
        elapsed: Duration,
        rows: u64,
        time_to_first_tuple: Option<Duration>,
        metrics: &MetricsSnapshot,
        span_tree: Option<SpanTree>,
    ) -> Option<SpanTree> {
        self.queries_total.inc();
        self.query_latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.rows_emitted.add(rows);
        if let Some(ttft) = time_to_first_tuple {
            self.time_to_first_tuple
                .record(u64::try_from(ttft.as_nanos()).unwrap_or(u64::MAX));
        }
        if plan.estimates.as_ref().is_some_and(|e| e.auto_selected) {
            if let Some((_, counter)) = self
                .auto_chosen
                .iter()
                .find(|(level, _)| *level == plan.strategy)
            {
                counter.inc();
            }
        }
        if self
            .slow_threshold()
            .is_some_and(|threshold| elapsed > threshold)
        {
            self.slow_queries_total.inc();
            self.slow_log.push(SlowQuery {
                query: plan.original.to_string(),
                strategy: plan.strategy,
                elapsed,
                rows_emitted: rows,
                span_tree: span_tree.clone(),
                metrics: metrics.clone(),
            });
        }
        span_tree
    }
}

/// Per-query observation in flight: the clock started at the entry point
/// (before parse), plus the span collector when detail is enabled. The
/// collector scope keeps the calling thread's spans flowing into it; the
/// streaming path detaches the scope ([`QueryObs::into_parts`]) and
/// re-enters per `next()` call instead.
#[derive(Debug)]
pub(crate) struct QueryObs {
    collector: Option<(Collector, CollectorScope)>,
    start: Tick,
}

impl QueryObs {
    /// Total time since the entry point started this query.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Fold the collected events into this query's span tree (detail
    /// disabled → `None`).
    pub(crate) fn finish_tree(self, total: Duration) -> Option<SpanTree> {
        self.collector.map(|(collector, scope)| {
            drop(scope);
            collector.finish("query", total)
        })
    }

    /// Detach for streaming: the entry point's scope ends here; the
    /// cursor re-enters the returned collector around each poll.
    pub(crate) fn into_parts(self) -> (Option<Collector>, Tick) {
        let collector = self.collector.map(|(collector, scope)| {
            drop(scope);
            collector
        });
        (collector, self.start)
    }
}

impl Database {
    /// Start observing one query: capture the clock and, when tracing or
    /// the slow-query log is active, install a span collector on this
    /// thread. Call **before** parsing so the `parse`/`plan` spans land
    /// in the tree.
    pub(crate) fn begin_query(&self) -> QueryObs {
        let collector = self.shared.obs.detail_enabled().then(|| {
            let collector = Collector::new();
            let scope = collector.enter();
            (collector, scope)
        });
        QueryObs {
            collector,
            start: clock::now(),
        }
    }
}
