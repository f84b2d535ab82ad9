//! `ingest_recover`: the write path.  Whole cycles of fixed work, each in
//! a fresh directory: (A) single-tuple commits into the empty `papers`
//! relation, (B) the bulk of the tuples in `insert_all` batches, (C) a
//! checkpoint, (D) more single commits, the handle dropped without a
//! checkpoint and the database reopened — checkpoint load, redo of the
//! tail, compacting checkpoint — and (E) verification.  `catalog`
//! copy-on-write commits, `relation` inserts with key-index maintenance
//! and the `storage` WAL, fsync, checkpoint and recovery do the work;
//! parser, planner and exec only serve the read-back.
//!
//! Storage settings, identical on both sides of any comparison:
//! `HeapOptions::default()` — fsync on every commit, 64 pool pages — over
//! the build directory's file system.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pascalr::catalog::{decode_checkpoint, encode_checkpoint, VersionedCatalog, WalOp};
use pascalr::storage::wal;
use pascalr::{Catalog, Database, DiskFs, HeapOptions, Key, Params, Relation, StorageFs, Tuple};
use pascalr_workload::clear_relation;

use super::{median_setup_s, peak_rss_mb, s, streamed, timed, university, Ctx, BATCH};
use crate::counting_fs::{CountingFs, FsCounts};
use crate::probes;
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats;

/// One row of `papers` by its key, as the read-back after recovery asks.
const READ_BACK: &str = "found := [<p.pyear> OF EACH p IN papers: \
                         (p.ptitle = :title) AND (p.penr = :who)]";

/// The generated catalog with `papers` emptied, and its tuples: the load.
fn load(scale: u32, seed: u64) -> Result<(Catalog, Vec<Tuple>), String> {
    let mut catalog = university(scale, seed)?;
    let tuples = catalog.relation("papers").map_err(s)?.to_tuples();
    clear_relation(&mut catalog, "papers").map_err(s)?;
    Ok((catalog, tuples))
}

/// User bytes of a tuple in a form of the benchmark's own, so that the
/// denominator of the amplification ratios does not move with the engine's
/// codec: eight bytes per number, a string's UTF-8 length.
fn user_bytes(tuples: &[Tuple]) -> u64 {
    tuples
        .iter()
        .flat_map(|t| t.values())
        .map(|v| v.as_str().map_or(8, |s| s.len() as u64))
        .sum()
}

fn open(fs: &Arc<CountingFs>) -> Result<Database, String> {
    let fs: Arc<dyn StorageFs> = fs.clone();
    Database::open_on(fs, HeapOptions::default()).map_err(s)
}

/// A cycle's starting point: the load, and a fresh persistent database in
/// the emptied `dir` that holds the catalog the load goes into.
struct Ready {
    db: Database,
    fs: Arc<CountingFs>,
    /// The catalog the database was seeded with.
    catalog: Catalog,
    tuples: Vec<Tuple>,
}

/// Set-up: generate, open, seed (which checkpoints).
fn set_up(ctx: &Ctx, dir: &Path) -> Result<Ready, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (catalog, tuples) = load(ctx.profile.ingest_scale, ctx.seed)?;
    let tracer = ctx.trace.then(|| ctx.tracer.clone());
    let fs = Arc::new(CountingFs::new(DiskFs::open(dir).map_err(s)?, tracer));
    let db = open(&fs)?;
    let seed_catalog = catalog.clone();
    db.mutate(move |c| *c = seed_catalog);
    Ok(Ready {
        db,
        fs,
        catalog,
        tuples,
    })
}

/// What one cycle measured.
#[derive(Debug, Default)]
struct Cycle {
    /// Phase A commit latencies in nanoseconds, in commit order.
    commit_ns: Vec<u64>,
    a_seconds: f64,
    b_seconds: f64,
    b_rows: u64,
    checkpoint_ms: f64,
    recovery_ms: f64,
    /// First-tuple times of the read-back queries, in microseconds.
    ttft_us: Vec<f64>,
    write_amp: f64,
    space_amp: f64,
    ingest: FsCounts,
    checkpoint: FsCounts,
    recovery: FsCounts,
    wal_replay_ms: f64,
    /// Standalone probes of a traced cycle, by metric name.
    layer: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// Runs one cycle in `dir`.  With `twin`, every phase-A commit is also
/// applied to an in-memory `VersionedCatalog`, which times the
/// copy-on-write share of a commit with no storage under it.
fn cycle(ctx: &Ctx, dir: &Path, cycle_no: u64, twin: bool) -> Result<Cycle, String> {
    let p = &ctx.profile;
    let mut c = Cycle::default();
    let Ready {
        db,
        fs,
        catalog,
        tuples,
    } = set_up(ctx, dir)?;
    let twin = twin.then(|| VersionedCatalog::new(catalog));
    fs.take();

    let singles = p.ingest_singles.min(tuples.len());
    let tail = p.ingest_tail.min(tuples.len() - singles);
    let (a, rest) = tuples.split_at(singles);
    let (b, d) = rest.split_at(rest.len() - tail);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // A: single-tuple commits.
    let mut cow_us = Vec::new();
    let phase = Instant::now();
    for (i, tuple) in a.iter().enumerate() {
        let op_id = i as u32;
        let op = ctx.trace.then(|| ctx.tracer.enter("op", op_id));
        if ctx.trace {
            // The engine encodes the redo record inside `insert`; encoding
            // it here as well times that step on its own.
            let record = WalOp::Insert {
                relation: "papers".to_string(),
                tuple: tuple.clone(),
            };
            ctx.tracer
                .timed("catalog.walop_encode", op_id, || (record.encode().len(), 0));
        }
        let start = Instant::now();
        let id = ctx.trace.then(|| ctx.tracer.enter("core.insert", op_id));
        let ok = db.insert("papers", tuple.clone()).is_ok();
        if let Some(id) = id {
            ctx.tracer.exit(id, 1);
        }
        c.commit_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(op) = op {
            ctx.tracer.exit(op, 0);
        }
        fail(ok);
        if let Some(twin) = &twin {
            let probe = ctx.tracer.enter("probe", op_id);
            let (ok, ns) = ctx.tracer.timed("catalog.cow_commit", op_id, || {
                (
                    twin.mutate(|c| c.insert("papers", tuple.clone())).is_ok(),
                    0,
                )
            });
            ctx.tracer.exit(probe, 0);
            cow_us.push(ns as f64 / 1e3);
            fail(ok);
        }
    }
    c.a_seconds = phase.elapsed().as_secs_f64();
    let after_a = fs.take();

    // B: batches.
    let phase = Instant::now();
    for chunk in b.chunks(BATCH) {
        let inserted = db.insert_all("papers", chunk.iter().cloned());
        fail(inserted.is_ok_and(|n| n == chunk.len()));
    }
    c.b_seconds = phase.elapsed().as_secs_f64();
    c.b_rows = b.len() as u64;
    let after_b = fs.take();

    // C: checkpoint.
    let phase = Instant::now();
    fail(db.checkpoint().is_ok());
    c.checkpoint_ms = phase.elapsed().as_secs_f64() * 1e3;
    c.checkpoint = fs.take();
    let user = user_bytes(&tuples[..singles + b.len()]).max(1);
    c.ingest = after_a;
    c.write_amp = (after_a.bytes_written + after_b.bytes_written + c.checkpoint.bytes_written)
        as f64
        / user as f64;
    c.space_amp = fs.bytes_on_disk().map_err(s)? as f64 / user as f64;

    // D: a tail of single commits, then a restart without a checkpoint.
    for tuple in d {
        fail(db.insert("papers", tuple.clone()).is_ok());
    }
    let snapshot_before = db.snapshot();
    drop(db);
    fs.take();
    if ctx.trace {
        // The log the reopen is about to replay, through the layer's own
        // entry point.
        for name in fs
            .list()
            .map_err(s)?
            .iter()
            .filter(|n| n.starts_with("wal"))
        {
            if let Some(log) = DiskFs::open(dir).map_err(s)?.read(name).map_err(s)? {
                let start = Instant::now();
                let records = wal::replay(&log).records.len();
                if records > 0 {
                    c.wal_replay_ms = start.elapsed().as_secs_f64() * 1e3;
                }
            }
        }
    }
    let phase = Instant::now();
    let db = open(&fs)?;
    c.recovery_ms = phase.elapsed().as_secs_f64() * 1e3;
    c.recovery = fs.take();

    // E: every acknowledged row is there, and a seeded sample reads back.
    let snapshot = db.snapshot();
    let papers = snapshot.relation("papers").map_err(s)?;
    fail(papers.cardinality() == tuples.len());
    let mut rng = SplitMix64::new(ctx.seed, 6 + cycle_no);
    let read_back = db.session().prepare(READ_BACK).map_err(s)?;
    for k in 0..p.ingest_readback {
        let tuple = rng.pick(&tuples);
        let key = Key::new(vec![tuple.get(2).clone(), tuple.get(0).clone()]);
        fail(snapshot.selected("papers", &key).map_err(s)? == Some(tuple));
        if k < p.ingest_readback / 10 {
            // A tenth of the sample also goes through a query, timed to
            // its first tuple: the first thing a restarted reader sees.
            let params = Params::new()
                .set("title", tuple.get(2).clone())
                .set("who", tuple.get(0).clone());
            let start = Instant::now();
            let r = streamed(0, start, read_back.rows_with(&params), Some(1));
            fail(r.ok);
            c.ttft_us.push(r.ttft_ns.unwrap_or(0) as f64 / 1e3);
        }
    }
    if ctx.trace {
        c.layer = layer_probes(ctx, &snapshot_before, papers, &cow_us)?;
    }
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    c.attempted = attempted;
    c.failed = failed;
    Ok(c)
}

/// Standalone probes of `relation` and `catalog`, which a commit enters
/// only through `core`.
fn layer_probes(
    ctx: &Ctx,
    final_catalog: &Catalog,
    papers: &Relation,
    cow_us: &[f64],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    // The twin's commit time when `papers` holds about `at` rows: the
    // median of the fifty commits before that size (or before the end of
    // phase A, where it is shorter).
    let around = |at: usize| {
        let hi = at.min(cow_us.len());
        stats::median(cow_us[hi.saturating_sub(50)..hi].to_vec())
    };
    out.push(("catalog.cow_commit_us_at_300", around(300)));
    out.push(("catalog.cow_commit_us_at_3000", around(3000)));

    // `Relation::clone` at the size phase A ends with, and `insert` into an
    // owned relation: the two halves of a copy-on-write commit.
    let tuples = papers.to_tuples();
    let at = 3000.min(tuples.len() / 2);
    let mut owned =
        Relation::from_tuples(papers.schema().clone(), tuples[..at].iter().cloned()).map_err(s)?;
    let clone_us = (0..9)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(owned.clone());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(("relation.clone_us_at_3000", stats::median(clone_us)));
    let start = Instant::now();
    let fresh = &tuples[at..(at + 1000).min(tuples.len())];
    for t in fresh {
        owned.insert(t.clone()).map_err(s)?;
    }
    out.push((
        "relation.insert_us",
        start.elapsed().as_nanos() as f64 / 1e3 / fresh.len().max(1) as f64,
    ));
    out.push((
        "relation.scan_ns_per_tuple",
        probes::scan_ns_per_tuple(papers, 5),
    ));
    out.push((
        "relation.deref_ns",
        probes::deref_ns(papers, ctx.profile.probe_iters),
    ));

    // The codec: one redo record encoded and applied, the whole catalog
    // encoded and decoded.
    let record = WalOp::Insert {
        relation: "papers".to_string(),
        tuple: tuples[0].clone(),
    };
    out.push((
        "catalog.walop_encode_ns",
        probes::median_ns(ctx.profile.probe_iters, |_| {
            std::hint::black_box(record.encode());
        }),
    ));
    let mut target = final_catalog.clone();
    clear_relation(&mut target, "papers").map_err(s)?;
    let apply: Vec<f64> = tuples[..1000.min(tuples.len())]
        .iter()
        .map(|t| {
            let op = WalOp::Insert {
                relation: "papers".to_string(),
                tuple: t.clone(),
            };
            let start = Instant::now();
            let _ = op.apply(&mut target);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(("catalog.walop_apply_us", stats::median(apply)));
    let start = Instant::now();
    let (meta, relations) = encode_checkpoint(final_catalog);
    out.push((
        "catalog.encode_checkpoint_ms",
        start.elapsed().as_secs_f64() * 1e3,
    ));
    let start = Instant::now();
    decode_checkpoint(&meta, &relations).map_err(s)?;
    out.push((
        "catalog.decode_checkpoint_ms",
        start.elapsed().as_secs_f64() * 1e3,
    ));
    out.push(("catalog.analyze_ms", probes::analyze_ms(final_catalog)?));
    let versions = VersionedCatalog::new(final_catalog.clone());
    out.push((
        "catalog.snapshot_ns",
        probes::snapshot_ns(&versions, ctx.profile.probe_iters),
    ));
    Ok(out)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = ctx.scratch.join("ingest_recover");
    let commit_us =
        |c: &Cycle| stats::median(c.commit_ns.iter().map(|&n| n as f64 / 1e3).collect());
    if ctx.trace {
        return traced(ctx, &dir, &commit_us);
    }

    // Whole cycles until the window is used up.
    let mut cycles: Vec<Cycle> = Vec::new();
    let start = Instant::now();
    while cycles.is_empty() || start.elapsed() < ctx.window {
        cycles.push(cycle(ctx, &dir, cycles.len() as u64, false)?);
    }
    let n = cycles.len() as u64;
    let mut per_cycle = |name: &str, f: &dyn Fn(&Cycle) -> f64| {
        let values: Vec<f64> = cycles.iter().map(f).collect();
        report.set_sliced(name, stats::median(values.clone()), values, n);
    };
    // ops: phase-A commits.  rows: everything committed over A and B.
    per_cycle("ops_per_s", &|c| c.commit_ns.len() as f64 / c.a_seconds);
    per_cycle("rows_per_s", &|c| {
        (c.commit_ns.len() as u64 + c.b_rows) as f64 / (c.a_seconds + c.b_seconds)
    });
    per_cycle("p50_us", &commit_us);
    // Each cycle's 99th percentile (3 000 commits, 30 beyond it); the
    // median over the cycles.
    per_cycle("p99_us", &|c| {
        stats::quantile(
            &mut c
                .commit_ns
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect::<Vec<_>>(),
            0.99,
        )
    });
    let ttft: Vec<f64> = cycles.iter().flat_map(|c| c.ttft_us.clone()).collect();
    let ttft_samples = ttft.len() as u64;
    report.set_sliced("ttft_p50_us", stats::median(ttft), Vec::new(), ttft_samples);
    report.set("peak_rss_mb", peak_rss_mb()?);
    // Set-up alone, repeated: a cycle's own set-up is one sample per four
    // seconds, too few for a steady median.
    let (_, first) = timed(|| set_up(ctx, &dir).map(drop))?;
    let setup_s = median_setup_s(first, ctx.profile.setup_budget, || {
        set_up(ctx, &dir).map(drop)
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    report.set("setup_s", setup_s);
    for c in &cycles {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }
    Ok(report)
}

/// The traced run: one untraced cycle, which gives the write path's
/// user-visible numbers and the reference commit time, then one cycle with
/// every commit and every storage call in a span.
fn traced(ctx: &Ctx, dir: &Path, commit_us: &dyn Fn(&Cycle) -> f64) -> Result<Report, String> {
    let mut report = Report::default();
    let untraced = Ctx {
        trace: false,
        ..ctx.clone()
    };
    let r = cycle(&untraced, dir, 0, false)?;
    let c = cycle(ctx, dir, 1, true)?;
    report.attempted = r.attempted + c.attempted;
    report.failed = r.failed + c.failed;

    let tenth = (r.commit_ns.len() / 10).max(1);
    let med = |ns: &[u64]| stats::median(ns.iter().map(|&n| n as f64).collect());
    report.set(
        "commit_growth_ratio",
        med(&r.commit_ns[r.commit_ns.len() - tenth..]) / med(&r.commit_ns[..tenth]),
    );
    report.set("batch_rows_per_s", r.b_rows as f64 / r.b_seconds);
    report.set("checkpoint_ms", r.checkpoint_ms);
    report.set("recovery_ms", r.recovery_ms);
    report.set("write_amp", r.write_amp);
    report.set("space_amp", r.space_amp);
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set(
        "bench.ref_ops_per_s",
        r.commit_ns.len() as f64 / r.a_seconds,
    );
    report.set("bench.ref_p50_us", commit_us(&r));
    report.set("bench.facade_op_us", commit_us(&r));
    report.set("bench.decomposed_op_us", commit_us(&c));
    report.set("bench.trace_overhead_share", commit_us(&c) / commit_us(&r));

    let commits = c.commit_ns.len().max(1) as f64;
    let a = &c.ingest;
    report.set(
        "storage.fsync_us",
        a.sync_ns as f64 / 1e3 / a.sync_calls.max(1) as f64,
    );
    report.set("storage.fsyncs_per_commit", a.sync_calls as f64 / commits);
    report.set(
        "storage.append_us",
        a.append_ns as f64 / 1e3 / a.append_calls.max(1) as f64,
    );
    report.set(
        "storage.wal_bytes_per_commit",
        a.append_bytes as f64 / commits,
    );
    report.set("storage.write_calls", a.write_calls as f64);
    report.set("storage.bytes_written", a.bytes_written as f64);
    report.set("storage.read_calls_recovery", c.recovery.read_calls as f64);
    report.set("storage.bytes_read_recovery", c.recovery.bytes_read as f64);
    report.set(
        "storage.checkpoint_bytes",
        c.checkpoint.bytes_written as f64,
    );
    report.set("storage.wal_replay_ms", c.wal_replay_ms);
    for &(name, value) in &c.layer {
        report.set(name, value);
    }
    probes::write_trace_shares(&mut report, &ctx.tracer, c.commit_ns.len() as u64);
    // From outside, a commit's copy-on-write work lies inside the `core`
    // call.  The in-memory twin did the same work under a `probe` root;
    // move its share from `core` to `catalog`.
    let totals = ctx.tracer.totals();
    if let (Some(op), Some(cow)) = (totals.get("op"), totals.get("catalog.cow_commit")) {
        let cow_share = cow.total_ns as f64 / op.total_ns.max(1) as f64;
        let core = report.get("trace.core_share").unwrap_or(0.0);
        let catalog = report.get("trace.catalog_share").unwrap_or(0.0);
        report.set("trace.core_share", (core - cow_share).max(0.0));
        report.set("trace.catalog_share", catalog + cow_share.min(core));
    }
    Ok(report)
}
