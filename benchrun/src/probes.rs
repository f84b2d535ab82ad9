//! The traced run's building blocks: one read operation in decomposed
//! form — the calls the engine makes, each in a span of the benchmark's
//! own — and the standalone probes of layers whose public entry is nested
//! inside another layer's.

use std::sync::Arc;
use std::time::Instant;

use pascalr::catalog::VersionedCatalog;
use pascalr::exec::collection::run_collection;
use pascalr::exec::combine::run_combination;
use pascalr::exec::ExecutionCursor;
use pascalr::parser::parse_selection;
use pascalr::planner::{plan, QueryPlan};
use pascalr::relation::HashIndex;
use pascalr::storage::{Counters, Metrics, MetricsSnapshot};
use pascalr::{Catalog, Database, Key, Params, PlanOptions, Relation, StrategyLevel};

use crate::report::Report;
use crate::stats::{self, closed_loop, OpResult, Window};
use crate::trace::Tracer;
use crate::workloads::{s, Ctx};

/// Where a decomposed operation gets its plan.
#[derive(Debug, Clone, Copy)]
pub enum PlanSource<'a> {
    /// The engine would hit its plan cache: use this plan, do not plan.
    Cached(&'a Arc<QueryPlan>),
    /// The engine would miss: plan the parsed text at this level.
    Fresh(StrategyLevel),
}

/// Times of one decomposed operation, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Decomposed {
    /// The whole operation.
    pub op_ns: u64,
    /// `parse_selection`.
    pub parse_ns: u64,
    /// `plan`.
    pub plan_ns: u64,
    /// The cursor drain: collection, combination and construction.
    pub drain_ns: u64,
    /// Standalone `run_collection` on the same plan.
    pub collection_ns: u64,
    /// Standalone `run_combination` on the same plan.
    pub combination_ns: u64,
    /// Rows the drain delivered.
    pub rows: u64,
    /// The paper's cost units the drain charged.
    pub metrics: MetricsSnapshot,
    /// The level the plan runs at.
    pub level: Option<StrategyLevel>,
}

/// Runs one read operation the way the engine does, call by call:
/// snapshot pin → (`parse_selection`) → (`plan`) → (`bind_params`) →
/// cursor drain, under an `op` root; then `run_collection` and
/// `run_combination` once more on their own under a `probe` root, because
/// from outside they can only be timed apart from the drain that contains
/// them.
pub fn decomposed_read(
    tracer: &Tracer,
    op_id: u32,
    versions: &VersionedCatalog,
    text: Option<&str>,
    source: PlanSource<'_>,
    params: Option<&Params>,
) -> Result<Decomposed, String> {
    let mut d = Decomposed::default();
    let started = Instant::now();
    let op = tracer.enter("op", op_id);
    let (snapshot, _) = tracer.timed("catalog.snapshot", op_id, || (versions.snapshot(), 0));
    let selection = match text {
        Some(text) => {
            let (sel, ns) = tracer.timed("parser.parse", op_id, || {
                (parse_selection(text, &snapshot), 0)
            });
            d.parse_ns = ns;
            Some(sel.map_err(s)?)
        }
        None => None,
    };
    let unbound = match (source, &selection) {
        (PlanSource::Cached(p), _) => Arc::clone(p),
        (PlanSource::Fresh(level), Some(sel)) => {
            let (p, ns) = tracer.timed("planner.plan", op_id, || {
                (
                    Arc::new(plan(sel, &snapshot, level, PlanOptions::default())),
                    0,
                )
            });
            d.plan_ns = ns;
            p
        }
        (PlanSource::Fresh(_), None) => return Err("a fresh plan needs a text".to_string()),
    };
    let bound = match params {
        Some(params) => {
            let (b, _) = tracer.timed("planner.bind", op_id, || (unbound.bind_params(params), 0));
            Arc::new(b.map_err(s)?)
        }
        None => unbound,
    };
    d.level = Some(bound.strategy);
    let mut cursor = ExecutionCursor::new(Arc::clone(&bound), snapshot.clone(), Metrics::new());
    let (ok, ns) = tracer.timed("exec.drain", op_id, || {
        let mut rows = 0;
        let mut ok = true;
        while let Some(tuple) = cursor.next_tuple() {
            match tuple {
                Ok(t) => {
                    std::hint::black_box(&t);
                    rows += 1;
                }
                Err(_) => ok = false,
            }
        }
        ((ok, rows), rows)
    });
    tracer.exit(op, 0);
    d.op_ns = started.elapsed().as_nanos() as u64;
    d.drain_ns = ns;
    d.rows = ok.1;
    d.metrics = cursor.metrics().snapshot();
    if !ok.0 {
        return Err("a tuple of the decomposed drain failed".to_string());
    }

    let probe = tracer.enter("probe", op_id);
    let scratch = Metrics::new();
    let (collection, ns) = tracer.timed("exec.collection", op_id, || {
        (run_collection(&bound, &snapshot, &scratch), 0)
    });
    d.collection_ns = ns;
    // A plan whose runtime assumption failed is re-planned inside the
    // cursor; its stand-alone phases are then not the ones that ran.
    if let Ok(collection) = collection {
        let (_, ns) = tracer.timed("exec.combination", op_id, || {
            (
                run_combination(&bound, &collection, &snapshot, &scratch).map(|r| r.len()),
                0,
            )
        });
        d.combination_ns = ns;
    }
    tracer.exit(probe, 0);
    Ok(d)
}

/// The traced run's untraced reference: the workload's own closed loop
/// through the API, for a quarter of `--seconds`.  Books the window's
/// counts, its throughput and class-median latency and the plan cache's
/// hit share and evictions over it, and returns each class's median
/// latency in microseconds.
pub fn reference_window(
    ctx: &Ctx,
    db: &Database,
    weights: &[u64],
    report: &mut Report,
    op: impl FnMut(u64) -> OpResult,
) -> (Window, Vec<f64>) {
    let before = db.plan_cache_stats();
    let w = closed_loop(ctx.profile.warmup, ctx.reference_window(), op);
    let after = db.plan_cache_stats();
    report.attempted += w.attempted;
    report.failed += w.failed;
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    report.set(
        "core.plan_cache_hit_share",
        hits as f64 / lookups.max(1) as f64,
    );
    report.set(
        "core.plan_cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    let facade = w.class_medians_us(weights.len());
    report.set("bench.ref_ops_per_s", stats::median(w.ops_per_s_slices()));
    report.set("bench.ref_p50_us", stats::class_median(&facade, weights));
    (w, facade)
}

/// Writes the typical operation's time through the API and in decomposed,
/// traced form, their ratio, and what the API call takes beyond the
/// decomposed operation as a share of the API call (`trace.core_share`).
pub fn write_op_times(report: &mut Report, facade_op_us: f64, decomposed_op_us: f64) {
    report.set("bench.facade_op_us", facade_op_us);
    report.set("bench.decomposed_op_us", decomposed_op_us);
    report.set(
        "bench.trace_overhead_share",
        decomposed_op_us / facade_op_us,
    );
    report.set(
        "trace.core_share",
        ((facade_op_us - decomposed_op_us) / facade_op_us).max(0.0),
    );
}

/// Sums the paper's cost units over operations and writes the `exec.*`
/// counters.  They are exact counts: the same seed gives the same values.
#[derive(Debug, Default)]
pub struct CostUnits {
    total: Counters,
    max_structure: u64,
    rows: u64,
}

impl CostUnits {
    /// Adds one operation's snapshot and row count.
    pub fn add(&mut self, snapshot: &MetricsSnapshot, rows: u64) {
        self.total = self.total.add(&snapshot.total());
        self.max_structure = self.max_structure.max(
            snapshot
                .structure_sizes
                .values()
                .copied()
                .max()
                .unwrap_or(0),
        );
        self.rows += rows;
    }

    /// Writes the counters into `report`.
    pub fn write(&self, report: &mut Report) {
        let t = &self.total;
        report.set("exec.tuples_read", t.tuples_read as f64);
        report.set("exec.comparisons", t.comparisons as f64);
        report.set("exec.intermediate_tuples", t.intermediate_tuples as f64);
        report.set("exec.dereferences", t.dereferences as f64);
        report.set("exec.relation_scans", t.relation_scans as f64);
        report.set("exec.index_builds", t.index_builds as f64);
        report.set("exec.index_probes", t.index_probes as f64);
        report.set("exec.max_structure_size", self.max_structure as f64);
        report.set(
            "exec.tuples_read_per_row",
            t.tuples_read as f64 / self.rows.max(1) as f64,
        );
    }
}

/// Writes the three phase times (sums over the replayed operations, in
/// microseconds) and their shares of the drain.  Construction is what is
/// left of the drain after collection and combination.
pub fn write_phase_times(report: &mut Report, ops: &[Decomposed]) {
    let sum = |f: fn(&Decomposed) -> u64| ops.iter().map(f).sum::<u64>() as f64 / 1e3;
    let drain = sum(|d| d.drain_ns);
    let collection = sum(|d| d.collection_ns);
    let combination = sum(|d| d.combination_ns);
    let construction = (drain - collection - combination).max(0.0);
    report.set("exec.collection_us", collection);
    report.set("exec.combination_us", combination);
    report.set("exec.construction_us", construction);
    let whole = (collection + combination + construction).max(1e-9);
    report.set("exec.collection_share", collection / whole);
    report.set("exec.combination_share", combination / whole);
    report.set("exec.construction_share", construction / whole);
}

/// Writes each layer's self-time share of the decomposed operations, and
/// how many spans and operations the trace holds.
pub fn write_trace_shares(report: &mut Report, tracer: &Tracer, traced_ops: u64) {
    for (layer, share) in tracer.op_self_shares() {
        report.set(&format!("trace.{layer}_share"), share);
    }
    report.set("bench.traced_ops", traced_ops as f64);
    report.set("bench.spans", tracer.len() as f64);
}

/// Median time of `f` in nanoseconds over `iters` calls, timed in batches
/// of 64 so that the clock reads are not what is measured.
pub fn median_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    const BATCH: u64 = 64;
    let mut per_call = Vec::new();
    let mut i = 0;
    while i < iters.max(BATCH) {
        let start = Instant::now();
        for k in i..i + BATCH {
            f(k);
        }
        per_call.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        i += BATCH;
    }
    stats::median(per_call)
}

/// `relation.scan_ns_per_tuple`: a full `Relation::iter` pass.
pub fn scan_ns_per_tuple(relation: &Relation, passes: u64) -> f64 {
    let per_pass = (0..passes.max(3))
        .map(|_| {
            let start = Instant::now();
            let mut n = 0u64;
            for pair in relation.iter() {
                std::hint::black_box(pair);
                n += 1;
            }
            start.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(per_pass)
}

/// `relation.deref_ns`: `Relation::deref` of seeded references.
pub fn deref_ns(relation: &Relation, iters: u64) -> f64 {
    let refs: Vec<_> = relation.iter().map(|(r, _)| r).collect();
    if refs.is_empty() {
        return 0.0;
    }
    median_ns(iters, |k| {
        // A stride coprime to most sizes, so consecutive derefs are not
        // neighbours in memory.
        let r = refs[(k as usize).wrapping_mul(7919) % refs.len()];
        let _ = std::hint::black_box(relation.deref(r));
    })
}

/// `relation.index_probe_ns`: `HashIndex::probe` with seeded keys.
pub fn index_probe_ns(index: &HashIndex, keys: &[Key], iters: u64) -> f64 {
    median_ns(iters, |k| {
        std::hint::black_box(index.probe(&keys[k as usize % keys.len()]));
    })
}

/// `catalog.snapshot_ns`: `VersionedCatalog::snapshot`.
pub fn snapshot_ns(versions: &VersionedCatalog, iters: u64) -> f64 {
    median_ns(iters, |_| {
        std::hint::black_box(versions.snapshot());
    })
}

/// `catalog.analyze_ms`: `Catalog::analyze_all` on a private copy.
pub fn analyze_ms(catalog: &Catalog) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut copy = catalog.clone();
        let start = Instant::now();
        copy.analyze_all().map_err(s)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(times))
}
