//! `point_lookup`: prepared, indexed point queries — the `core` hot path
//! (snapshot pin, plan-cache hit, parameter bind, report assembly), one
//! index probe and, on a tenth of the operations, the parser.  The
//! planner, the combination phase and storage do next to nothing here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pascalr::catalog::VersionedCatalog;
use pascalr::planner::plan;
use pascalr::{Database, Key, Params, PlanOptions, PreparedQuery, Session, StrategyLevel, Value};
use pascalr_workload::oracle_eval;

use super::{
    median_setup_s, peak_rss_mb, s, streamed, timed, ttft_metric, university, window_metrics, Ctx,
};
use crate::probes::{self, CostUnits, Decomposed, PlanSource};
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{self, closed_loop, OpResult};
use crate::trace::Tracer;

/// The papers of one author, by the indexed component.
const POINT: &str = "titles := [<p.ptitle> OF EACH p IN papers: p.penr = :who]";
/// One employee, if they published: an existential join through the
/// index.  The second conjunct under `SOME` follows from the other two
/// terms; it is written out because the engine does not carry an equality
/// with a parameter across a join term, and without it every execution
/// scans `papers` (8 641 tuples read, 239 µs against 11 µs at scale 240),
/// which would turn this workload into a scan benchmark.
const JOIN: &str = "author := [<e.ename> OF EACH e IN employees: (e.enr = :who) AND \
                    SOME p IN papers ((p.penr = e.enr) AND (p.penr = :who))]";

/// The mix: 70 % prepared point query, 20 % prepared join, 10 % the point
/// query through the text path.
const WEIGHTS: [u64; 3] = [7, 2, 1];
const PREPARED: u8 = 0;
const JOINED: u8 = 1;
const TEXT: u8 = 2;

struct Fixture {
    db: Database,
    session: Session,
    point: PreparedQuery,
    join: PreparedQuery,
    /// Papers per employee number: the right cardinality of every lookup.
    papers_of: Vec<u64>,
}

fn setup(scale: u32, seed: u64) -> Result<Fixture, String> {
    let catalog = university(scale, seed)?;
    let employees = catalog.relation("employees").map_err(s)?.cardinality();
    let mut papers_of = vec![0u64; employees + 1];
    for t in catalog.relation("papers").map_err(s)?.tuples() {
        if let Some(author) = t.get(0).as_int() {
            papers_of[author as usize] += 1;
        }
    }
    let db = Database::from_catalog(catalog);
    db.analyze().map_err(s)?;
    db.create_index("penrindex", "papers", &["penr"])
        .map_err(s)?;
    db.create_index("enrindex", "employees", &["enr"])
        .map_err(s)?;
    db.create_index("tenrindex", "timetable", &["tenr"])
        .map_err(s)?;
    let session = db.session();
    let point = session.prepare(POINT).map_err(s)?;
    let join = session.prepare(JOIN).map_err(s)?;
    // First executions plan the statements and fill the plan cache.
    let who = Params::new().set("who", 1);
    point.execute_with(&who).map_err(s)?;
    join.execute_with(&who).map_err(s)?;
    session.query_with_params(POINT, &who).map_err(s)?;
    Ok(Fixture {
        db,
        session,
        point,
        join,
        papers_of,
    })
}

impl Fixture {
    fn employees(&self) -> u64 {
        self.papers_of.len() as u64 - 1
    }

    /// The seeded draw of one operation: its class and its key.
    fn draw(&self, rng: &mut SplitMix64) -> (u8, i64) {
        let class = match rng.below(10) {
            0..=6 => PREPARED,
            7 | 8 => JOINED,
            _ => TEXT,
        };
        (class, 1 + rng.below(self.employees()) as i64)
    }

    fn expected(&self, class: u8, who: i64) -> u64 {
        let papers = self.papers_of[who as usize];
        if class == JOINED {
            papers.min(1)
        } else {
            papers
        }
    }

    /// One operation through the API a caller uses.
    fn op(&self, class: u8, who: i64) -> OpResult {
        let start = Instant::now();
        let params = Params::new().set("who", who);
        let outcome = match class {
            PREPARED => self.point.execute_with(&params),
            JOINED => self.join.execute_with(&params),
            _ => self.session.query_with_params(POINT, &params),
        };
        let ns = start.elapsed().as_nanos() as u64;
        let rows = outcome
            .as_ref()
            .map_or(0, |o| o.result.cardinality() as u64);
        OpResult {
            class,
            ns,
            ttft_ns: None,
            rows,
            ok: outcome.is_ok() && rows == self.expected(class, who),
        }
    }

    /// The same operation as a stream, timed to its first tuple.
    fn streamed_op(&self, class: u8, who: i64) -> OpResult {
        let start = Instant::now();
        let params = Params::new().set("who", who);
        let rows = match class {
            PREPARED => self.point.rows_with(&params),
            JOINED => self.join.rows_with(&params),
            _ => self.session.rows_with_params(POINT, &params),
        };
        streamed(class, start, rows, Some(self.expected(class, who)))
    }
}

/// The three statements against the oracle at the paper's own size, every
/// key, under `Auto` and `S4`.
fn gate(seed: u64, report: &mut Report) -> Result<(), String> {
    let f = setup(1, seed)?;
    let snapshot = f.db.snapshot();
    for level in [StrategyLevel::Auto, StrategyLevel::S4CollectionQuantifiers] {
        let session = f.db.session().with_strategy(level);
        for text in [POINT, JOIN] {
            let prepared = session.prepare(text).map_err(s)?;
            for who in 1..=f.employees() as i64 {
                let inlined = text.replace(":who", &who.to_string());
                let selection = f.db.parse(&inlined).map_err(s)?;
                let oracle = oracle_eval(&selection, &snapshot).map_err(s)?;
                let params = Params::new().set("who", who);
                let same = |r: Result<pascalr::QueryOutcome, pascalr::PascalRError>| {
                    r.is_ok_and(|o| o.result.set_eq(&oracle))
                };
                report.attempted += 2;
                report.failed += u64::from(!same(prepared.execute_with(&params)));
                report.failed += u64::from(!same(session.query_with_params(text, &params)));
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    gate(ctx.seed, &mut report)?;
    let (f, first_setup_s) = timed(|| setup(ctx.profile.point_scale, ctx.seed))?;
    let mut rng = SplitMix64::new(ctx.seed, 2);
    if ctx.trace {
        traced(ctx, &f, &mut rng, &mut report)?;
        return Ok(report);
    }

    let w = closed_loop(ctx.profile.warmup, ctx.window, |_| {
        let (class, who) = f.draw(&mut rng);
        f.op(class, who)
    });
    window_metrics(&mut report, &w, &WEIGHTS);

    // Time to first tuple: the same mix, streamed, in a pass of its own.
    let streamed = closed_loop(Duration::ZERO, ctx.profile.ttft_window, |_| {
        let (class, who) = f.draw(&mut rng);
        f.streamed_op(class, who)
    });
    report.attempted += streamed.attempted;
    report.failed += streamed.failed;
    ttft_metric(&mut report, &streamed.ttft, &WEIGHTS);
    report.set("peak_rss_mb", peak_rss_mb()?);
    drop(f);
    let setup_s = median_setup_s(first_setup_s, ctx.profile.setup_budget, || {
        setup(ctx.profile.point_scale, ctx.seed).map(drop)
    })?;
    report.set("setup_s", setup_s);
    Ok(report)
}

/// Operations per second of `op` over `window`, on this thread.
fn ops_per_s(window: Duration, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < window {
        for _ in 0..64 {
            op();
        }
        n += 64;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn traced(ctx: &Ctx, f: &Fixture, rng: &mut SplitMix64, report: &mut Report) -> Result<(), String> {
    // The untraced reference: the same loop as the end-to-end run, shorter.
    let (_, facade) = probes::reference_window(ctx, &f.db, &WEIGHTS, report, |_| {
        let (class, who) = f.draw(rng);
        f.op(class, who)
    });
    report.set("core.point_prepared_p50_us", facade[usize::from(PREPARED)]);
    report.set("core.point_join_p50_us", facade[usize::from(JOINED)]);
    report.set("core.point_text_p50_us", facade[usize::from(TEXT)]);

    // The decomposed replay, on a key stream of its own: the window above
    // drew a number of keys that depends on the machine's speed, and the
    // replay's exact counts must not.  The engine serves all three classes
    // from its plan cache, so the replay plans each statement once, outside
    // the operations, exactly as the cache holds it.
    let rng = &mut SplitMix64::new(ctx.seed, 7);
    let snapshot = f.db.snapshot();
    let versions = VersionedCatalog::from_snapshot(snapshot.clone());
    let planned = |q: &PreparedQuery| {
        Arc::new(plan(
            q.selection(),
            &snapshot,
            StrategyLevel::Auto,
            PlanOptions::default(),
        ))
    };
    let (point_plan, join_plan) = (planned(&f.point), planned(&f.join));
    let mut units = CostUnits::default();
    let mut ops: Vec<Decomposed> = Vec::new();
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); WEIGHTS.len()];
    let replay = ctx.profile.replay_ops * 5;
    for op_id in 0..replay {
        let (class, who) = f.draw(rng);
        let params = Params::new().set("who", who);
        let d = probes::decomposed_read(
            &ctx.tracer,
            op_id as u32,
            &versions,
            (class == TEXT).then_some(POINT),
            PlanSource::Cached(if class == JOINED {
                &join_plan
            } else {
                &point_plan
            }),
            Some(&params),
        )?;
        report.attempted += 1;
        report.failed += u64::from(d.rows != f.expected(class, who));
        units.add(&d.metrics, d.rows);
        by_class[usize::from(class)].push(d.op_ns as f64 / 1e3);
        ops.push(d);
    }
    units.write(report);
    probes::write_phase_times(report, &ops);
    probes::write_trace_shares(report, &ctx.tracer, replay);
    report.set(
        "parser.parse_us",
        stats::median(
            ops.iter()
                .filter(|d| d.parse_ns > 0)
                .map(|d| d.parse_ns as f64 / 1e3)
                .collect(),
        ),
    );
    let decomposed: Vec<f64> = by_class.into_iter().map(stats::median).collect();
    // What the facade adds to the calls it makes — pin, cache lookup,
    // metrics and report assembly: its prepared call against the same
    // calls made directly, without spans, which at 4 µs would cost as much
    // as what is being measured.
    let silent = Tracer::off();
    let direct: Vec<f64> = (0..replay)
        .map(|op_id| {
            let who = 1 + rng.below(f.employees()) as i64;
            let params = Params::new().set("who", who);
            probes::decomposed_read(
                &silent,
                op_id as u32,
                &versions,
                None,
                PlanSource::Cached(&point_plan),
                Some(&params),
            )
            .map(|d| d.op_ns as f64 / 1e3)
        })
        .collect::<Result<_, _>>()?;
    report.set(
        "core.execute_overhead_us",
        facade[usize::from(PREPARED)] - stats::median(direct),
    );
    probes::write_op_times(
        report,
        stats::class_median(&facade, &WEIGHTS),
        stats::class_median(&decomposed, &WEIGHTS),
    );

    // Two client threads against one: the prepared share only.
    let short = ctx.reference_window() / 4;
    let employees = f.employees();
    let prepared_loop = |seed: u64| {
        let mut rng = SplitMix64::new(seed, 4);
        let point = &f.point;
        ops_per_s(short, move || {
            let who = 1 + rng.below(employees) as i64;
            let _ = std::hint::black_box(point.execute_with(&Params::new().set("who", who)));
        })
    };
    let one = prepared_loop(ctx.seed);
    let two: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| scope.spawn(move || prepared_loop(ctx.seed + t)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
    });
    report.set("core.scaling_2t", two / one);

    // The cost of looking: the same loop with the engine's query tracing on.
    let mut mix_rng = SplitMix64::new(ctx.seed, 5);
    let mut mix = |f: &Fixture| {
        ops_per_s(short, || {
            let (class, who) = f.draw(&mut mix_rng);
            std::hint::black_box(f.op(class, who));
        })
    };
    let off = mix(f);
    f.db.set_query_tracing(true);
    let on = mix(f);
    f.db.set_query_tracing(false);
    report.set("obs.tracing_on_slowdown", off / on);

    // Standalone probes of the layers nested inside the drain.
    let iters = ctx.profile.probe_iters;
    let keys: Vec<Key> = (1..=employees as i64)
        .map(|k| Key::single(Value::int(k)))
        .collect();
    let index = snapshot
        .permanent_index("papers", &["penr"])
        .ok_or("the papers.penr index is missing")?;
    report.set(
        "relation.index_probe_ns",
        probes::index_probe_ns(&index.index, &keys, iters),
    );
    let papers = snapshot.relation("papers").map_err(s)?;
    report.set("relation.deref_ns", probes::deref_ns(papers, iters));
    report.set(
        "relation.scan_ns_per_tuple",
        probes::scan_ns_per_tuple(papers, 5),
    );
    report.set("catalog.snapshot_ns", probes::snapshot_ns(&versions, iters));
    report.set("catalog.analyze_ms", probes::analyze_ms(&snapshot)?);
    Ok(())
}
