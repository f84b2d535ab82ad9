//! Durability end to end through the public facade: reopen round-trips
//! (same relations, statistics, epochs and plans without re-ANALYZE),
//! redo recovery at arbitrary WAL prefixes (the kill-and-reopen
//! property test against an in-memory oracle), torn-write and
//! corrupted-tail WAL handling, damaged checkpoint data, tuples larger
//! than any page, page accounting after a checkpoint, and the storage
//! counters the engine surfaces through the metrics registry.
//!
//! Every test runs on [`MemFs`], whose snapshot/truncate/corrupt hooks
//! model crashes without touching the real filesystem — the `DiskFs`
//! path is covered by the storage crate's own tests.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pascalr::storage::{wal, StorageError};
use pascalr::{Database, FsyncPolicy, HeapOptions, MemFs, PascalRError, StrategyLevel};
use pascalr_relation::{Attribute, RelationSchema, Tuple, Value, ValueType};
use pascalr_sync::Arc;
use pascalr_workload::figure1_sample_database;

const EX21: &str = "profs := [<e.ename> OF EACH e IN employees: (e.estatus = professor) AND \
                    SOME p IN papers (p.penr = e.enr)]";

/// Fsync-per-commit: the strictest (and default) durability configuration.
fn tight_options() -> HeapOptions {
    HeapOptions {
        fsync: FsyncPolicy::EveryCommit,
    }
}

fn open_mem(fs: &MemFs, options: HeapOptions) -> Database {
    Database::open_on(Arc::new(fs.clone()), options).expect("open on MemFs")
}

/// Canonical content snapshot: relation name → rendered tuple set.
fn contents(db: &Database) -> BTreeMap<String, BTreeSet<String>> {
    let snap = db.snapshot();
    snap.relation_names()
        .into_iter()
        .map(|name| {
            let rel = snap.relation(name).expect("listed relation resolves");
            (
                name.to_string(),
                rel.iter().map(|(_, t)| t.to_string()).collect(),
            )
        })
        .collect()
}

/// The single WAL file currently on the filesystem (there is exactly one
/// per checkpoint generation).
fn wal_file(fs: &MemFs) -> (String, Vec<u8>) {
    let files = fs.snapshot();
    files
        .into_iter()
        .find(|(name, _)| name.starts_with("wal_"))
        .expect("a persistent database always has a WAL file")
}

fn schema_r() -> Arc<RelationSchema> {
    RelationSchema::new(
        "r",
        vec![
            Attribute::new("a", ValueType::int()),
            Attribute::new("b", ValueType::int()),
        ],
        &["a"],
    )
    .expect("static schema")
}

fn schema_s() -> Arc<RelationSchema> {
    RelationSchema::new("s", vec![Attribute::new("x", ValueType::int())], &["x"])
        .expect("static schema")
}

/// Acceptance: a reopened database serves the same plans without
/// re-ANALYZE — relations, statistics epochs and EXPLAIN output are
/// identical across the reopen, and the plan cache keys (fingerprint,
/// epoch, stats epoch) still hit.
#[test]
fn reopen_serves_identical_plans_without_reanalyze() {
    let fs = MemFs::new();
    let db = open_mem(&fs, HeapOptions::default());
    assert!(db.persistent());

    // Bulk-load Figure 1 (checkpointed), then WAL-logged DDL + ANALYZE.
    db.mutate(|c| *c = figure1_sample_database().expect("sample database"));
    db.create_index("penrindex", "papers", &["penr"]).unwrap();
    db.analyze().unwrap();

    let before_contents = contents(&db);
    let before_epoch = db.epoch();
    let before_stats_epoch = db.stats_epoch();
    let before_auto = db.explain(EX21, StrategyLevel::Auto).unwrap();
    let before_s4 = db
        .explain(EX21, StrategyLevel::S4CollectionQuantifiers)
        .unwrap();
    let rows_before = db.query(EX21).unwrap().result.cardinality();
    drop(db);

    let db2 = open_mem(&fs, HeapOptions::default());
    assert!(db2.persistent());
    assert_eq!(contents(&db2), before_contents);
    assert_eq!(db2.epoch(), before_epoch, "plan epoch survives reopen");
    assert_eq!(
        db2.stats_epoch(),
        before_stats_epoch,
        "statistics survive reopen without re-ANALYZE"
    );
    // The index create + ANALYZE were replayed from the WAL.
    assert!(
        db2.metrics_registry()
            .counter_total("pascalr_recovery_replays_total")
            >= 2
    );

    // Identical plans — Auto's cost-based choice relies on the persisted
    // statistics, so equality here proves no re-ANALYZE was needed.
    assert_eq!(db2.explain(EX21, StrategyLevel::Auto).unwrap(), before_auto);
    assert_eq!(
        db2.explain(EX21, StrategyLevel::S4CollectionQuantifiers)
            .unwrap(),
        before_s4
    );
    assert_eq!(db2.query(EX21).unwrap().result.cardinality(), rows_before);

    // Plan-cache fingerprints match across the reopen: the same text hits
    // the cache on its second run (no epoch/stats drift post-recovery).
    let hits_before = db2.plan_cache_stats().hits;
    db2.query(EX21).unwrap();
    assert!(db2.plan_cache_stats().hits > hits_before);
}

/// A reopen with an empty WAL replays nothing and checkpoints nothing new.
#[test]
fn clean_reopen_replays_nothing() {
    let fs = MemFs::new();
    let db = open_mem(&fs, HeapOptions::default());
    db.mutate(|c| *c = figure1_sample_database().expect("sample database"));
    let before = contents(&db);
    drop(db);

    let db2 = open_mem(&fs, HeapOptions::default());
    assert_eq!(contents(&db2), before);
    assert_eq!(
        db2.metrics_registry()
            .counter_total("pascalr_recovery_replays_total"),
        0
    );
}

/// A committed tuple larger than any fixed page must not make the
/// database impossible to checkpoint or reopen: a relation's checkpoint
/// is one blob, whatever the size of its tuples.
#[test]
fn oversized_tuple_survives_checkpoint_and_reopen() {
    let fs = MemFs::new();
    let db = open_mem(&fs, HeapOptions::default());
    let schema = RelationSchema::new(
        "notes",
        vec![
            Attribute::new("id", ValueType::int()),
            Attribute::new("body", ValueType::string(10_000)),
        ],
        &["id"],
    )
    .expect("static schema");
    db.declare_relation(schema).unwrap();
    let body = "x".repeat(5_000);
    db.insert("notes", Tuple::new(vec![Value::int(1), Value::str(&*body)]))
        .unwrap();
    let read_back = |db: &Database| {
        let snap = db.snapshot();
        let rel = snap.relation("notes").expect("notes survives");
        rel.tuples()
            .map(|t| t.values()[1].clone())
            .collect::<Vec<_>>()
    };
    drop(db);

    // Reopen replays the insert and compacts it into a checkpoint ...
    let db = open_mem(&fs, HeapOptions::default());
    assert_eq!(read_back(&db), vec![Value::str(&*body)]);
    // ... and an explicit checkpoint of it reopens too.
    db.checkpoint().unwrap();
    drop(db);
    let db = open_mem(&fs, HeapOptions::default());
    assert_eq!(read_back(&db), vec![Value::str(&*body)]);
}

/// Every flipped byte of the checkpoint data file, and every truncation
/// of it, is reported as `StorageError::Corrupt` on reopen — never a
/// panic, an abort or a silently different database.
#[test]
fn corrupt_or_truncated_checkpoint_data_is_an_error_not_an_abort() {
    let fs = MemFs::new();
    let db = open_mem(&fs, HeapOptions::default());
    db.mutate(|c| *c = figure1_sample_database().expect("sample database"));
    drop(db);
    let pristine = fs.snapshot();
    let (data, bytes) = pristine
        .iter()
        .find(|(name, _)| name.starts_with("data_"))
        .map(|(name, bytes)| (name.clone(), bytes.len()))
        .expect("a checkpoint data file");

    let assert_corrupt = |what: String| {
        match Database::open_on(Arc::new(fs.clone()), HeapOptions::default()) {
            Err(PascalRError::Storage(StorageError::Corrupt { .. })) => {}
            Err(other) => panic!("{what}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{what}: reopened a damaged checkpoint"),
        }
        fs.restore(pristine.clone());
    };
    let step = (bytes / 97).max(1);
    for at in (0..16).chain((16..bytes).step_by(step)).chain([bytes - 1]) {
        fs.corrupt_byte(&data, at);
        assert_corrupt(format!("byte {at} of {data} flipped"));
    }
    for len in [0, 1, 7, 8, bytes / 2, bytes - 1] {
        fs.truncate(&data, len);
        assert_corrupt(format!("{data} cut to {len} byte(s)"));
    }
}

/// Page accounting follows the relation, not the last checkpoint: on a
/// persistent database `pages_of` is the page model's price of the
/// current cardinality, the same as in memory.
#[test]
fn page_count_follows_inserts_after_a_checkpoint() {
    let fs = MemFs::new();
    let db = open_mem(&fs, HeapOptions::default());
    db.declare_relation(schema_s()).unwrap();
    db.insert("s", Tuple::new(vec![Value::int(0)])).unwrap();
    db.checkpoint().unwrap();
    db.insert_all("s", (1..5_000).map(|x| Tuple::new(vec![Value::int(x)])))
        .unwrap();

    let pages = |db: &Database| {
        let snap = db.snapshot();
        let expected = snap.page_model().pages_for(5_000);
        assert_eq!(snap.pages_of("s").unwrap(), expected);
        expected
    };
    assert_eq!(pages(&db), 157, "5 000 rows at 32 per page");
    drop(db);
    assert_eq!(pages(&open_mem(&fs, HeapOptions::default())), 157);
}

/// The storage counters tick through the engine's own registry: WAL
/// volume and fsyncs on the write path, checkpoints on open and
/// `Database::checkpoint`.
#[test]
fn storage_counters_surface_through_the_registry() {
    let fs = MemFs::new();
    let db = open_mem(&fs, tight_options());
    db.declare_relation(schema_r()).unwrap();
    for i in 0..10 {
        db.insert("r", Tuple::new(vec![Value::int(i), Value::int(i * 7)]))
            .unwrap();
    }
    db.analyze().unwrap();

    let registry = db.metrics_registry();
    // declare + 10 inserts + ANALYZE, one record each.
    assert_eq!(registry.counter_total("pascalr_wal_appends_total"), 12);
    assert!(registry.counter_total("pascalr_wal_bytes_total") > 0);
    assert_eq!(
        registry.counter_total("pascalr_wal_fsyncs_total"),
        12,
        "FsyncPolicy::EveryCommit forces every append"
    );
    assert!(registry.counter_total("pascalr_checkpoints_total") >= 1);

    db.checkpoint().unwrap();
    let after = db
        .metrics_registry()
        .counter_total("pascalr_checkpoints_total");
    assert!(after >= 2, "explicit checkpoint is counted: {after}");
    // The WAL was rotated empty by the checkpoint.
    let (_, bytes) = wal_file(&fs);
    assert!(bytes.is_empty());
}

/// A torn append (the classic crash signature: the last frame is cut
/// mid-payload) is discarded on reopen; the fully framed prefix survives.
#[test]
fn torn_wal_tail_is_discarded_on_reopen() {
    let fs = MemFs::new();
    let db = open_mem(&fs, tight_options());
    db.declare_relation(schema_r()).unwrap();
    db.insert("r", Tuple::new(vec![Value::int(1), Value::int(10)]))
        .unwrap();
    db.insert("r", Tuple::new(vec![Value::int(2), Value::int(20)]))
        .unwrap();
    drop(db);

    let (name, bytes) = wal_file(&fs);
    assert!(!bytes.is_empty());
    fs.truncate(&name, bytes.len() - 3);

    let db2 = open_mem(&fs, tight_options());
    let state = contents(&db2);
    // declare + first insert replay; the torn second insert is gone.
    assert_eq!(state["r"].len(), 1);
    assert_eq!(
        db2.metrics_registry()
            .counter_total("pascalr_recovery_replays_total"),
        2
    );
}

/// A corrupted byte in the middle of the log truncates replay at the
/// damaged frame — everything before it is kept, nothing after it is
/// trusted.
#[test]
fn corrupt_wal_byte_truncates_replay_at_the_damage() {
    let fs = MemFs::new();
    let db = open_mem(&fs, tight_options());
    db.declare_relation(schema_r()).unwrap();
    let mut frame_ends = Vec::new();
    for i in 1..=3 {
        db.insert("r", Tuple::new(vec![Value::int(i), Value::int(i)]))
            .unwrap();
        frame_ends.push(wal_file(&fs).1.len());
    }
    drop(db);

    // Flip a payload byte inside the *second* insert's frame.
    let (name, _) = wal_file(&fs);
    fs.corrupt_byte(&name, frame_ends[0] + wal::WAL_FRAME_HEADER + 1);

    let db2 = open_mem(&fs, tight_options());
    let state = contents(&db2);
    assert_eq!(
        state["r"].len(),
        1,
        "only the insert before the damage survives"
    );
}

/// One workload step applied identically to the persistent database and
/// the in-memory oracle.
#[derive(Debug, Clone, Copy)]
struct OpSpec {
    kind: u8,
    a: i64,
    b: i64,
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0u8..8, 1i64..40, 1i64..100).prop_map(|(kind, a, b)| OpSpec { kind, a, b })
}

/// Applies one step to a database (persistent or oracle). Returns whether
/// the step succeeded; both databases must agree on that.
fn apply(db: &Database, op: OpSpec, indexed: bool, has_s: bool) -> bool {
    let result = match op.kind {
        0..=2 => db.insert("r", Tuple::new(vec![Value::int(op.a), Value::int(op.b)])),
        3 => db
            .insert_all(
                "r",
                (0..3).map(|i| Tuple::new(vec![Value::int(op.a + i), Value::int(op.b)])),
            )
            .map(|_| ()),
        4 => db.analyze(),
        5 => {
            if indexed {
                db.drop_index("r_a")
            } else {
                db.create_index("r_a", "r", &["a"])
            }
        }
        6 => {
            if has_s {
                db.drop_relation("s")
            } else {
                db.declare_relation(schema_s())
            }
        }
        _ => db.insert("s", Tuple::new(vec![Value::int(op.a)])),
    };
    result.is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill-and-reopen at an arbitrary WAL byte prefix: the recovered
    /// database must equal the in-memory oracle after exactly the number
    /// of operations whose frames survived the cut — never a torn,
    /// reordered, or partially applied state.
    #[test]
    fn recovery_at_any_wal_prefix_matches_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        cut_seed in 0usize..10_000,
    ) {
        let fs = MemFs::new();
        let db = open_mem(&fs, tight_options());
        let oracle = Database::from_catalog(pascalr::Catalog::new());

        // states[k] = oracle contents after k *logged* operations. The
        // mandatory first operation declares `r`.
        let mut states = vec![contents(&oracle)];
        let mut indexed = false;
        let mut has_s = false;
        oracle.declare_relation(schema_r()).unwrap();
        db.declare_relation(schema_r()).unwrap();
        states.push(contents(&oracle));
        for op in ops {
            let ok_mem = apply(&oracle, op, indexed, has_s);
            let ok_disk = apply(&db, op, indexed, has_s);
            prop_assert_eq!(ok_mem, ok_disk, "oracle and persistent db diverged on {:?}", op);
            if ok_mem {
                if op.kind == 5 { indexed = !indexed; }
                if op.kind == 6 { has_s = !has_s; }
                states.push(contents(&oracle));
            }
        }
        drop(db);

        // Crash: cut the WAL to an arbitrary byte prefix.
        let (name, bytes) = wal_file(&fs);
        let cut = cut_seed % (bytes.len() + 1);
        fs.truncate(&name, cut);

        // Exactly the fully framed records before the cut replay — one
        // logged operation each.
        let survived = wal::replay(&bytes[..cut]).records.len();
        prop_assert!(survived < states.len());

        let db2 = open_mem(&fs, tight_options());
        prop_assert_eq!(
            &contents(&db2),
            &states[survived],
            "recovered state is not the {}-op oracle prefix", survived
        );
        // The recovered database is fully writable again (the declare of
        // `r` itself may have been cut away — redo it then).
        if survived == 0 {
            db2.declare_relation(schema_r()).unwrap();
        }
        db2.insert("r", Tuple::new(vec![Value::int(1000), Value::int(1)])).unwrap();
    }
}
