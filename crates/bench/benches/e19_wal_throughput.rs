//! E19 — WAL ingest throughput and redo-recovery cost for the file
//! storage backend, on the scale-24 generated workload.
//!
//! Ingest: the scale-24 `papers` relation is loaded into a fresh
//! persistent database (`MemFs`, fsync-per-commit) through the WAL —
//! batched (`insert_all`, one redo record per batch) and per-tuple
//! (`insert`, one record each), single- and 4-threaded — and compared
//! against the in-memory backend running the identical operations, which
//! isolates the logging overhead from the shared MVCC publication cost.
//!
//! Recovery: a database is killed with its whole load still in the WAL
//! (no checkpoint); the group then measures a full `open` — meta read,
//! relation blob load, redo replay of every record, and the compacting
//! checkpoint — from a restored crash image each iteration.
//!
//! The preamble prints the WAL volume the load actually generated
//! (records, bytes, fsyncs) and the replay count of one recovery, read
//! from the engine's own metrics registry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use pascalr::{Catalog, Database, FsyncPolicy, HeapOptions, MemFs, Tuple};
use pascalr_bench::quick_criterion;
use pascalr_workload::{clear_relation, generate, UniversityConfig};

const SCALE: u32 = 24;
const THREADS: usize = 4;
const BATCH: usize = 256;
/// Per-tuple `insert` is quadratic in the target relation's size (each
/// mutation copies the relation's rows for the new version), so the
/// per-tuple configurations load a bounded prefix.
const SINGLES: usize = 300;

fn options() -> HeapOptions {
    HeapOptions {
        fsync: FsyncPolicy::EveryCommit,
    }
}

/// The ingest workload: the scale-24 `papers` tuples, plus the generated
/// catalog with every relation emptied (the schema the load targets — the
/// scaled generator widens the paper's `1..99` subranges, so the tuples
/// only type-check against its own declarations).
fn workload() -> (Catalog, Vec<Tuple>) {
    let mut cat =
        generate(&UniversityConfig::at_scale(SCALE)).expect("scale-24 database generates");
    let tuples: Vec<Tuple> = cat
        .relation("papers")
        .expect("generated catalog has papers")
        .iter()
        .map(|(_, t)| t.clone())
        .collect();
    let names: Vec<String> = cat
        .relation_names()
        .iter()
        .map(|n| (*n).to_string())
        .collect();
    for name in &names {
        clear_relation(&mut cat, name).expect("relation clears");
    }
    (cat, tuples)
}

/// A fresh persistent database holding the (empty) scaled schema.
fn fresh_persistent(base: &Catalog) -> (Database, MemFs) {
    let fs = MemFs::new();
    let db = Database::open_on(Arc::new(fs.clone()), options()).expect("open on MemFs");
    let base = base.clone();
    db.mutate(move |c| *c = base);
    (db, fs)
}

/// A fresh in-memory database holding the same schema.
fn fresh_in_memory(base: &Catalog) -> Database {
    Database::from_catalog(base.clone())
}

/// Batched load: one `insert_all` (one WAL record) per `BATCH` tuples.
fn load_batched(db: &Database, tuples: &[Tuple]) {
    for chunk in tuples.chunks(BATCH) {
        db.insert_all("papers", chunk.iter().cloned())
            .expect("batch inserts");
    }
}

/// Per-tuple load of the first `SINGLES` tuples: one WAL record each.
fn load_singles(db: &Database, tuples: &[Tuple]) {
    for t in &tuples[..SINGLES.min(tuples.len())] {
        db.insert("papers", t.clone()).expect("tuple inserts");
    }
}

/// 4-thread batched load: each thread claims disjoint chunks off a shared
/// cursor, so the writer lock and the WAL appender see real contention.
fn load_batched_threaded(db: &Database, tuples: &[Tuple]) {
    let next = AtomicUsize::new(0);
    let chunks: Vec<&[Tuple]> = tuples.chunks(BATCH).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(i) else { break };
                db.insert_all("papers", chunk.iter().cloned())
                    .expect("batch inserts");
            });
        }
    });
}

fn bench(c: &mut Criterion) {
    let (base, tuples) = workload();

    // Preamble: what one full batched load writes, from the engine's own
    // registry, plus what one recovery replays.
    let (db, fs) = fresh_persistent(&base);
    load_batched(&db, &tuples);
    let registry = db.metrics_registry();
    println!(
        "\n=== E19: WAL throughput (papers at scale {SCALE}: {} tuples, batches of {BATCH}) ===",
        tuples.len()
    );
    println!(
        "  load wrote: {} WAL records, {} bytes, {} fsyncs, {} checkpoint(s)",
        registry.counter_total("pascalr_wal_appends_total"),
        registry.counter_total("pascalr_wal_bytes_total"),
        registry.counter_total("pascalr_wal_fsyncs_total"),
        registry.counter_total("pascalr_checkpoints_total"),
    );
    drop(db);
    let crash_image = fs.snapshot();
    let recovered = {
        let f = MemFs::new();
        f.restore(crash_image.clone());
        Database::open_on(Arc::new(f), options()).expect("recovery succeeds")
    };
    println!(
        "  recovery replayed {} records into {} tuples",
        recovered
            .metrics_registry()
            .counter_total("pascalr_recovery_replays_total"),
        recovered
            .snapshot()
            .relation("papers")
            .expect("papers recovered")
            .cardinality(),
    );
    drop(recovered);

    let mut group = c.benchmark_group("e19_wal_throughput");

    group.bench_function("ingest/batched/wal/1thread", |b| {
        b.iter(|| {
            let (db, _fs) = fresh_persistent(&base);
            load_batched(&db, &tuples);
        });
    });
    group.bench_function(format!("ingest/batched/wal/{THREADS}threads"), |b| {
        b.iter(|| {
            let (db, _fs) = fresh_persistent(&base);
            load_batched_threaded(&db, &tuples);
        });
    });
    group.bench_function("ingest/batched/inmemory/1thread", |b| {
        b.iter(|| {
            let db = fresh_in_memory(&base);
            load_batched(&db, &tuples);
        });
    });
    group.bench_function("ingest/singles/wal/1thread", |b| {
        b.iter(|| {
            let (db, _fs) = fresh_persistent(&base);
            load_singles(&db, &tuples);
        });
    });
    group.bench_function("ingest/singles/inmemory/1thread", |b| {
        b.iter(|| {
            let db = fresh_in_memory(&base);
            load_singles(&db, &tuples);
        });
    });

    // Redo recovery of the full batched load from the crash image.
    group.bench_function("recovery/replay_full_wal", |b| {
        b.iter(|| {
            let f = MemFs::new();
            f.restore(crash_image.clone());
            Database::open_on(Arc::new(f), options()).expect("recovery succeeds")
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
