//! `adhoc_plan`: statements that never repeat, against the paper's own
//! 24-employee department.  Every operation parses, misses the plan cache,
//! is analysed, standardised and priced at five levels, is inserted into
//! the cache (evicting past its 1 024-entry cap) and then executes
//! trivially — parser, analysis, calculus and planner do the work; exec,
//! relation and storage next to none.

use std::time::{Duration, Instant};

use pascalr::analysis::simplify;
use pascalr::calculus::standardize;
use pascalr::catalog::VersionedCatalog;
use pascalr::parser::parse_selection;
use pascalr::planner::plan;
use pascalr::{Database, PlanOptions, Session, StrategyLevel};
use pascalr_workload::oracle_eval;

use super::{
    median_setup_s, peak_rss_mb, s, streamed, timed, ttft_metric, university, window_metrics, Ctx,
};
use crate::adhoc::{AdhocGenerator, REPLAY_FIRST};
use crate::probes::{self, CostUnits, Decomposed, PlanSource};
use crate::report::Report;
use crate::stats::{self, closed_loop, OpResult};

/// Sixteen shapes in equal share.
const WEIGHTS: [u64; 16] = [1; 16];

struct Fixture {
    db: Database,
    session: Session,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let db = Database::from_catalog(university(1, seed)?);
    db.analyze().map_err(s)?;
    let session = db.session();
    Ok(Fixture { db, session })
}

/// The generator's first statements against the brute-force calculus
/// semantics, under `Auto` and `S4`.  The timed window carries on with the
/// same generator, so what it runs is what was checked, with later
/// constants.
fn gate(
    ctx: &Ctx,
    f: &Fixture,
    generator: &mut AdhocGenerator,
    report: &mut Report,
) -> Result<(), String> {
    let snapshot = f.db.snapshot();
    for n in 0..ctx.profile.gate_statements {
        let (_, text) = generator.statement(n);
        let oracle = oracle_eval(&f.db.parse(&text).map_err(s)?, &snapshot).map_err(s)?;
        for level in [StrategyLevel::Auto, StrategyLevel::S4CollectionQuantifiers] {
            let same =
                f.db.query_with(&text, level)
                    .is_ok_and(|o| o.result.set_eq(&oracle));
            report.attempted += 1;
            report.failed += u64::from(!same);
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (f, first_setup_s) = timed(|| setup(ctx.seed))?;
    let mut generator = AdhocGenerator::new(ctx.seed, &f.db.snapshot())?;
    gate(ctx, &f, &mut generator, &mut report)?;
    // Statement numbers, and with them the target names, carry on behind
    // the gate's.
    let first = ctx.profile.gate_statements;
    let mut op = |i: u64| {
        let (class, text) = generator.statement(first + i);
        let start = Instant::now();
        let outcome = f.session.query(&text);
        let ns = start.elapsed().as_nanos() as u64;
        OpResult {
            class,
            ns,
            ttft_ns: None,
            rows: outcome
                .as_ref()
                .map_or(0, |o| o.result.cardinality() as u64),
            ok: outcome.is_ok(),
        }
    };
    if ctx.trace {
        let (_, facade) = probes::reference_window(ctx, &f.db, &WEIGHTS, &mut report, &mut op);
        traced(ctx, &f, &facade, &mut report)?;
        return Ok(report);
    }

    let w = closed_loop(ctx.profile.warmup, ctx.window, &mut op);
    window_metrics(&mut report, &w, &WEIGHTS);

    // Time to the first tuple of a never-seen statement — parse and plan
    // are on the way to it — in a pass of its own.
    let first = first + w.attempted;
    let pass = closed_loop(Duration::ZERO, ctx.profile.ttft_window, |k| {
        let (class, text) = generator.statement(first + k);
        let start = Instant::now();
        streamed(class, start, f.session.rows(&text), None)
    });
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    ttft_metric(&mut report, &pass.ttft, &WEIGHTS);
    report.set("peak_rss_mb", peak_rss_mb()?);
    drop(f);
    let setup_s = median_setup_s(first_setup_s, ctx.profile.setup_budget, || {
        setup(ctx.seed).map(drop)
    })?;
    report.set("setup_s", setup_s);
    Ok(report)
}

fn traced(ctx: &Ctx, f: &Fixture, facade: &[f64], report: &mut Report) -> Result<(), String> {
    // The decomposed replay: every operation is a cache miss, so every
    // operation parses and plans.
    let snapshot = f.db.snapshot();
    let versions = VersionedCatalog::from_snapshot(snapshot.clone());
    let mut generator = AdhocGenerator::for_replay(ctx.seed, &snapshot)?;
    let replay = ctx.profile.replay_ops * 2;
    let mut units = CostUnits::default();
    let mut ops: Vec<Decomposed> = Vec::new();
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); 16];
    let (mut simplify_us, mut standardize_us, mut fixed_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut diagnostics, mut conjunctions) = (0u64, 0u64);
    for n in 0..replay {
        let (class, text) = generator.statement(REPLAY_FIRST + n);
        let op_id = n as u32;
        let d = probes::decomposed_read(
            &ctx.tracer,
            op_id,
            &versions,
            Some(&text),
            PlanSource::Fresh(StrategyLevel::Auto),
            None,
        )?;
        report.attempted += 1;
        units.add(&d.metrics, d.rows);
        by_class[usize::from(class)].push(d.op_ns as f64 / 1e3);

        // Layers whose entry is nested inside `plan`, and `plan` itself at
        // the level `Auto` chose: the difference is what pricing costs.
        let selection = parse_selection(&text, &snapshot).map_err(s)?;
        let probe = ctx.tracer.enter("probe", op_id);
        let (simplified, ns) = ctx.tracer.timed("analysis.simplify", op_id, || {
            (simplify(&selection, &snapshot), 0)
        });
        simplify_us.push(ns as f64 / 1e3);
        diagnostics += simplified.diagnostics.len() as u64;
        let (standard, ns) = ctx.tracer.timed("calculus.standardize", op_id, || {
            (standardize(&simplified.selection), 0)
        });
        standardize_us.push(ns as f64 / 1e3);
        conjunctions += standard.form.conjunction_count() as u64;
        if let Some(level) = d.level {
            let (_, ns) = ctx.tracer.timed("planner.plan_fixed", op_id, || {
                (
                    plan(&selection, &snapshot, level, PlanOptions::default()),
                    0,
                )
            });
            fixed_us.push(ns as f64 / 1e3);
        }
        ctx.tracer.exit(probe, 0);
        ops.push(d);
    }
    units.write(report);
    probes::write_phase_times(report, &ops);
    probes::write_trace_shares(report, &ctx.tracer, replay);
    let med =
        |f: fn(&Decomposed) -> u64| stats::median(ops.iter().map(|d| f(d) as f64 / 1e3).collect());
    let auto = med(|d| d.plan_ns);
    let fixed = stats::median(fixed_us);
    report.set("parser.parse_us", med(|d| d.parse_ns));
    report.set("planner.plan_auto_us", auto);
    report.set("planner.plan_fixed_us", fixed);
    report.set("planner.auto_pricing_us", auto - fixed);
    report.set("planner.auto_over_fixed", auto / fixed);
    report.set("analysis.simplify_us", stats::median(simplify_us));
    report.set("analysis.diagnostics", diagnostics as f64);
    report.set("calculus.standardize_us", stats::median(standardize_us));
    report.set("calculus.conjunctions", conjunctions as f64);

    let decomposed: Vec<f64> = by_class.into_iter().map(stats::median).collect();
    probes::write_op_times(
        report,
        stats::class_median(facade, &WEIGHTS),
        stats::class_median(&decomposed, &WEIGHTS),
    );
    report.set(
        "catalog.snapshot_ns",
        probes::snapshot_ns(&versions, ctx.profile.probe_iters),
    );
    report.set("catalog.analyze_ms", probes::analyze_ms(&snapshot)?);
    Ok(())
}
