//! The four workloads and what they share.
//!
//! Every workload is one client in a closed loop: the engine is an
//! embedded library whose callers wait for the reply — the paper's
//! `FOR EACH` host-program embedding.  Each was chosen so that one group
//! of layers does most of its work and another almost none:
//!
//! | workload | does the work | barely touched |
//! |---|---|---|
//! | `point_lookup` | `core` hot path, index probe, parser on the text share | planner, combination, storage |
//! | `quantified_scan` | `exec` collection / combination / construction, scans | parser, planner, storage |
//! | `adhoc_plan` | parser, analysis, calculus, planner, plan-cache writes | exec, relation, storage |
//! | `ingest_recover` | catalog copy-on-write, WAL, fsync, checkpoint, recovery | parser, planner, exec |

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pascalr::{Catalog, PascalRError, Rows};
use pascalr_workload::{generate, UniversityConfig};

use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{self, OpResult};
use crate::trace::Tracer;

pub mod adhoc_plan;
pub mod ingest_recover;
pub mod point_lookup;
pub mod quantified_scan;

/// Sizes of a run.  `full` is what `BENCHMARK.json` measures; `smoke` is
/// the same code on small inputs for the package's own test.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Scale of `point_lookup` (24 employees per unit).
    pub point_scale: u32,
    /// Scale of `quantified_scan`.
    pub scan_scale: u32,
    /// The larger scale `exec.scale_exponent_ex2.1` compares against.
    pub exponent_scale: u32,
    /// Scale of the catalog whose `papers` tuples `ingest_recover` loads.
    pub ingest_scale: u32,
    /// Phase A: single-tuple commits into the empty relation.
    pub ingest_singles: usize,
    /// Phase D: single-tuple commits left in the log for recovery.
    pub ingest_tail: usize,
    /// Keys read back after recovery.
    pub ingest_readback: usize,
    /// Warm-up before a timed window.
    pub warmup: Duration,
    /// How long a workload keeps setting up (at least five times, at most
    /// two hundred); `setup_s` is the median.
    pub setup_budget: Duration,
    /// Length of the separate time-to-first-tuple pass.
    pub ttft_window: Duration,
    /// Operations the traced run replays in decomposed form.
    pub replay_ops: u64,
    /// Generated statements the `adhoc_plan` gate checks against the oracle.
    pub gate_statements: u64,
    /// Iterations of a standalone layer probe.
    pub probe_iters: u64,
}

impl Profile {
    /// The measured configuration.
    pub const fn full() -> Profile {
        Profile {
            point_scale: 240,
            scan_scale: 96,
            exponent_scale: 240,
            ingest_scale: 560,
            ingest_singles: 3000,
            ingest_tail: 500,
            ingest_readback: 500,
            warmup: Duration::from_secs(1),
            setup_budget: Duration::from_secs(1),
            ttft_window: Duration::from_millis(1500),
            replay_ops: 208,
            gate_statements: 200,
            probe_iters: 20_000,
        }
    }

    /// Small inputs: every code path, no meaningful timing.
    pub const fn smoke() -> Profile {
        Profile {
            point_scale: 8,
            scan_scale: 4,
            exponent_scale: 8,
            ingest_scale: 28,
            ingest_singles: 200,
            ingest_tail: 40,
            ingest_readback: 50,
            warmup: Duration::from_millis(20),
            setup_budget: Duration::from_millis(20),
            ttft_window: Duration::from_millis(30),
            replay_ops: 32,
            gate_statements: 32,
            probe_iters: 200,
        }
    }
}

/// Tuples per `insert_all` batch in `ingest_recover`.
pub const BATCH: usize = 256;

/// Everything a workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the length of the timed window.
    pub window: Duration,
    /// `--trace 1`: make the traced run instead of the end-to-end one.
    pub trace: bool,
    /// The sizes.
    pub profile: Profile,
    /// The span store of a traced run.
    pub tracer: Tracer,
    /// A directory inside the build directory for `ingest_recover`'s
    /// database files; the benchmark writes nowhere else.
    pub scratch: PathBuf,
}

impl Ctx {
    /// The window of the untraced reference measurement a traced run makes
    /// for itself: a quarter of `--seconds`.
    pub fn reference_window(&self) -> Duration {
        self.window / 4
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "point_lookup" => point_lookup::run(ctx),
        "quantified_scan" => quantified_scan::run(ctx),
        "adhoc_plan" => adhoc_plan::run(ctx),
        "ingest_recover" => ingest_recover::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Error-to-text for `?` on the engine's error types.
pub fn s<E: Display>(e: E) -> String {
    e.to_string()
}

/// The generated university at `scale`, its generator seeded from `--seed`.
///
/// An instance in which nobody teaches course 1 is drawn again (about one
/// in eight is).  Workload query q09 restricts `timetable` to course 1; on
/// an instance where that restriction is empty the engine builds the
/// employees × timetable product instead — 4.4 s and 675 MiB at scale 96
/// against 3 ms — and a benchmark whose inputs fall off that cliff for
/// some seeds measures the seed.
pub fn university(scale: u32, seed: u64) -> Result<Catalog, String> {
    let mut seeds = SplitMix64::new(seed, 1);
    loop {
        let catalog = generate(&UniversityConfig {
            seed: seeds.next_u64(),
            ..UniversityConfig::at_scale(scale)
        })
        .map_err(s)?;
        let course_1_taught = catalog
            .relation("timetable")
            .map_err(s)?
            .tuples()
            .any(|t| t.get(1).as_int() == Some(1));
        if course_1_taught {
            return Ok(catalog);
        }
    }
}

/// One streamed operation: drains `rows` — what the `rows()`-style call
/// made at `start` returned — to the end and times the first tuple (or the
/// end of an empty result) from `start`.  The operation is right when no
/// tuple failed and, where `expected` is given, that many arrived.
pub fn streamed(
    class: u8,
    start: Instant,
    rows: Result<Rows, PascalRError>,
    expected: Option<u64>,
) -> OpResult {
    let (mut count, mut ttft_ns, mut ok) = (0u64, None, rows.is_ok());
    for tuple in rows.into_iter().flatten() {
        ttft_ns.get_or_insert_with(|| start.elapsed().as_nanos() as u64);
        match tuple {
            Ok(t) => {
                std::hint::black_box(&t);
                count += 1;
            }
            Err(_) => ok = false,
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    OpResult {
        class,
        ns,
        ttft_ns: ok.then_some(ttft_ns.unwrap_or(ns)),
        rows: count,
        ok: ok && expected.is_none_or(|n| n == count),
    }
}

/// Runs `f` and returns its product with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let made = f()?;
    Ok((made, start.elapsed().as_secs_f64()))
}

/// `setup_s`: the median over the run's own set-up (`first`, in seconds)
/// and repetitions of it — at least four, then until `budget` is used up
/// or two hundred are done.
///
/// Call it when the timed window is over and its fixture dropped: a
/// hundred databases built and freed *before* the window leave the
/// allocator in a state that costs `quantified_scan` 7 % of its
/// throughput, and one built beside a live fixture would raise the peak
/// memory the run reports.
pub fn median_setup_s(
    first: f64,
    budget: Duration,
    mut again: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = vec![first];
    let begun = Instant::now();
    while times.len() < 5 || (begun.elapsed() < budget && times.len() < 200) {
        times.push(timed(&mut again)?.1);
    }
    Ok(stats::median(times))
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(s)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Fills the end-to-end metrics a closed-loop window determines.
/// `weights` is the nominal mix over the operation classes.
pub fn window_metrics(report: &mut Report, w: &stats::Window, weights: &[u64]) {
    report.attempted += w.attempted;
    report.failed += w.failed;
    let n = w.latency.offered();
    let ops = w.ops_per_s_slices();
    report.set_sliced("ops_per_s", stats::median(ops.clone()), ops, n);
    let rows = w.rows_per_s_slices();
    report.set_sliced("rows_per_s", stats::median(rows.clone()), rows, n);
    let (p50, p50_slices) = w.latency.class_median_us(weights);
    report.set_sliced("p50_us", p50, p50_slices, n);
    report.set_sliced("p99_us", w.latency.quantile_us(0.99), Vec::new(), n);
}

/// Fills `ttft_p50_us` from per-operation first-tuple times.
pub fn ttft_metric(report: &mut Report, ttft: &stats::Samples, weights: &[u64]) {
    let (p50, slices) = ttft.class_median_us(weights);
    report.set_sliced("ttft_p50_us", p50, slices, ttft.offered());
}
