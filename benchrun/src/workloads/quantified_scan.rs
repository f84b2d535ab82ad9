//! `quantified_scan`: the sixteen workload queries, prepared once and
//! drained round-robin over an unindexed university — the paper's
//! Section 3–4 machinery.  `exec` collection, combination and
//! construction and `relation` scans and derefs do the work; plans come
//! from the cache, so parser and planner stay idle.

use std::sync::Arc;
use std::time::Instant;

use pascalr::catalog::VersionedCatalog;
use pascalr::planner::plan;
use pascalr::{Database, PlanOptions, PreparedQuery, StrategyLevel};
use pascalr_workload::{all_queries, oracle_eval, QuerySpec};

use super::{
    median_setup_s, peak_rss_mb, s, streamed, timed, ttft_metric, university, window_metrics, Ctx,
};
use crate::probes::{self, CostUnits, Decomposed, PlanSource};
use crate::report::Report;
use crate::spec::QUERY_IDS;
use crate::stats::{self, closed_loop, OpResult};

/// Sixteen queries in equal share.
const WEIGHTS: [u64; 16] = [1; 16];

struct Fixture {
    db: Database,
    queries: Vec<QuerySpec>,
    prepared: Vec<PreparedQuery>,
    /// Result cardinality of each query, fixed by its first execution.
    expected: Vec<u64>,
}

fn prepare_all(db: &Database, level: StrategyLevel) -> Result<Vec<PreparedQuery>, String> {
    let session = db.session().with_strategy(level);
    all_queries()
        .iter()
        .map(|q| session.prepare(q.text).map_err(s))
        .collect()
}

fn count(q: &PreparedQuery) -> Result<u64, String> {
    let r = streamed(0, Instant::now(), q.rows(), None);
    if r.ok {
        Ok(r.rows)
    } else {
        Err("a query of the suite failed".to_string())
    }
}

fn setup(scale: u32, seed: u64) -> Result<Fixture, String> {
    let db = Database::from_catalog(university(scale, seed)?);
    db.analyze().map_err(s)?;
    // `prepare` plans eagerly, so the plan cache is full when this returns.
    let prepared = prepare_all(&db, StrategyLevel::Auto)?;
    Ok(Fixture {
        db,
        queries: all_queries(),
        prepared,
        expected: Vec::new(),
    })
}

/// [`setup`] plus one execution of every query, which fixes the
/// cardinalities every later pass must repeat.  Returns the set-up's time
/// in seconds beside the fixture.
fn setup_and_run_once(scale: u32, seed: u64) -> Result<(Fixture, f64), String> {
    let (mut f, setup_s) = timed(|| setup(scale, seed))?;
    f.expected = f.prepared.iter().map(count).collect::<Result<_, _>>()?;
    Ok((f, setup_s))
}

impl Fixture {
    fn op(&self, i: u64) -> OpResult {
        let q = (i % 16) as usize;
        let start = Instant::now();
        // The cardinality must be the same on every pass.
        streamed(
            q as u8,
            start,
            self.prepared[q].rows(),
            Some(self.expected[q]),
        )
    }
}

/// At the paper's own size every query must equal the brute-force
/// calculus semantics under `Auto` and `S4`; at the measured size `S4`
/// must agree with `Auto` on every cardinality.
fn gate(ctx: &Ctx, f: &Fixture, report: &mut Report) -> Result<(), String> {
    let small = Database::from_catalog(university(1, ctx.seed)?);
    small.analyze().map_err(s)?;
    let snapshot = small.snapshot();
    for level in [StrategyLevel::Auto, StrategyLevel::S4CollectionQuantifiers] {
        for q in &f.queries {
            let oracle = oracle_eval(&q.parse(&snapshot).map_err(s)?, &snapshot).map_err(s)?;
            let same = small
                .query_with(q.text, level)
                .is_ok_and(|o| o.result.set_eq(&oracle));
            report.attempted += 1;
            report.failed += u64::from(!same);
        }
    }
    for (q, &expected) in prepare_all(&f.db, StrategyLevel::S4CollectionQuantifiers)?
        .iter()
        .zip(&f.expected)
    {
        report.attempted += 1;
        report.failed += u64::from(count(q) != Ok(expected));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (f, first_setup_s) = setup_and_run_once(ctx.profile.scan_scale, ctx.seed)?;
    gate(ctx, &f, &mut report)?;
    if ctx.trace {
        traced(ctx, &f, &mut report)?;
        return Ok(report);
    }
    let w = closed_loop(ctx.profile.warmup, ctx.window, |i| f.op(i));
    window_metrics(&mut report, &w, &WEIGHTS);
    ttft_metric(&mut report, &w.ttft, &WEIGHTS);
    report.set("peak_rss_mb", peak_rss_mb()?);
    drop(f);
    let setup_s = median_setup_s(first_setup_s, ctx.profile.setup_budget, || {
        setup(ctx.profile.scan_scale, ctx.seed).map(drop)
    })?;
    report.set("setup_s", setup_s);
    Ok(report)
}

/// Median drain time in milliseconds of `q` over `runs` executions.
fn drain_ms(q: &PreparedQuery, runs: usize) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..runs {
        let start = Instant::now();
        count(q)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(times))
}

fn traced(ctx: &Ctx, f: &Fixture, report: &mut Report) -> Result<(), String> {
    let (_, facade) = probes::reference_window(ctx, &f.db, &WEIGHTS, report, |i| f.op(i));

    // The decomposed replay: whole passes over the suite, plans as cached.
    let snapshot = f.db.snapshot();
    let versions = VersionedCatalog::from_snapshot(snapshot.clone());
    let plans: Vec<_> = f
        .prepared
        .iter()
        .map(|q| {
            Arc::new(plan(
                q.selection(),
                &snapshot,
                StrategyLevel::Auto,
                PlanOptions::default(),
            ))
        })
        .collect();
    let passes = ctx.profile.replay_ops.div_ceil(16);
    let mut units = CostUnits::default();
    let mut ops: Vec<Decomposed> = Vec::new();
    let mut drain_ms_by_query: Vec<Vec<f64>> = vec![Vec::new(); 16];
    for pass in 0..passes {
        for (q, cached) in plans.iter().enumerate() {
            let d = probes::decomposed_read(
                &ctx.tracer,
                (pass * 16) as u32 + q as u32,
                &versions,
                None,
                PlanSource::Cached(cached),
                None,
            )?;
            report.attempted += 1;
            report.failed += u64::from(d.rows != f.expected[q]);
            if pass == 0 {
                // The cost units of one pass over the suite.
                units.add(&d.metrics, d.rows);
            }
            drain_ms_by_query[q].push(d.drain_ns as f64 / 1e6);
            ops.push(d);
        }
    }
    units.write(report);
    probes::write_phase_times(report, &ops);
    probes::write_trace_shares(report, &ctx.tracer, passes * 16);
    let decomposed: Vec<f64> = drain_ms_by_query
        .iter()
        .map(|v| stats::median(v.clone()) * 1e3)
        .collect();
    for (id, ms) in QUERY_IDS.iter().zip(&drain_ms_by_query) {
        report.set(&format!("exec.ms_{id}"), stats::median(ms.clone()));
    }
    // The mean over the suite: the heavy queries are what the spans cost
    // least on, and what the operation's time consists of.
    probes::write_op_times(
        report,
        facade.iter().sum::<f64>() / 16.0,
        decomposed.iter().sum::<f64>() / 16.0,
    );

    // How far `Auto` is from the paper's last level: the geometric mean
    // over the suite of time(Auto) / time(S4).  The lower levels cannot
    // stand in at this scale: S2 and S3 need more than 3 GiB on ex2.1,
    // ex4.5 and ex4.7 and 10–20 s on q03, q05, q06, q08 and q10.
    let s4 = prepare_all(&f.db, StrategyLevel::S4CollectionQuantifiers)?;
    let mut log_sum = 0.0;
    for (auto, s4) in f.prepared.iter().zip(&s4) {
        log_sum += (drain_ms(auto, 3)? / drain_ms(s4, 3)?).ln();
    }
    report.set("planner.auto_regret", (log_sum / 16.0).exp());

    // How Example 2.1 grows with the range relations: the exponent k in
    // time ∝ scale^k between this scale and a larger one.
    let (large, _) = setup_and_run_once(ctx.profile.exponent_scale, ctx.seed)?;
    let ratio = drain_ms(&large.prepared[0], 3)? / drain_ms(&f.prepared[0], 3)?;
    let scales = f64::from(ctx.profile.exponent_scale) / f64::from(ctx.profile.scan_scale);
    report.set("exec.scale_exponent_ex2.1", ratio.ln() / scales.ln());

    let iters = ctx.profile.probe_iters;
    let papers = snapshot.relation("papers").map_err(s)?;
    report.set(
        "relation.scan_ns_per_tuple",
        probes::scan_ns_per_tuple(papers, 15),
    );
    report.set("relation.deref_ns", probes::deref_ns(papers, iters));
    report.set("catalog.snapshot_ns", probes::snapshot_ns(&versions, iters));
    report.set("catalog.analyze_ms", probes::analyze_ms(&snapshot)?);
    Ok(())
}
