//! Engine-wide observability, end to end through the public facade:
//! span trees (well-formed, per-stage durations bounded by the total),
//! the metrics registry (counters/gauges/histograms, exact totals under
//! a 4-thread join), the Prometheus/JSON renderings (round-tripped
//! through the exposition parser), the slow-query log (captures exactly
//! the over-threshold queries) and plan-cache eviction accounting.
//!
//! Not compiled under `--cfg loom`: span collection and the clock are
//! deliberately inert there (see `pascalr-obs`), so every assertion on
//! collected trees or measured durations would be vacuous.
#![cfg(not(loom))]

use std::time::Duration;

use pascalr::{Database, StrategyLevel};
use pascalr_obs::{expo, Histogram};
use pascalr_sync::thread;
use pascalr_workload::figure1_sample_database;

fn sample_db() -> Database {
    Database::from_catalog(figure1_sample_database().expect("static sample database"))
}

const EX21: &str = "profs := [<e.ename> OF EACH e IN employees: (e.estatus = professor) AND \
                    SOME p IN papers (p.penr = e.enr)]";

/// Acceptance: a traced text query yields a well-formed span tree whose
/// root covers parse, plan and execute, and whose per-stage durations
/// never exceed the total.
#[test]
fn traced_text_query_produces_a_well_formed_span_tree() {
    let db = sample_db();
    db.set_query_tracing(true);
    let outcome = db
        .query_with(EX21, StrategyLevel::S4CollectionQuantifiers)
        .expect("query runs");
    let tree = outcome
        .report
        .span_tree
        .as_ref()
        .expect("tracing is on, the report carries the tree");
    assert!(tree.is_well_formed(), "ill-formed tree:\n{}", tree.render());
    assert_eq!(tree.root.name, "query");
    for stage in [
        "parse",
        "plan",
        "execute",
        "collection",
        "collect_candidates",
    ] {
        assert!(
            tree.root.find(stage).is_some(),
            "stage `{stage}` missing from tree:\n{}",
            tree.render()
        );
        let duration = tree.root.find(stage).expect("just checked").duration;
        assert!(
            duration <= tree.root.duration,
            "stage `{stage}` ({duration:?}) exceeds the query total ({:?})",
            tree.root.duration
        );
    }
    assert!(
        tree.root.child_duration_sum() <= tree.root.duration,
        "direct children exceed the root:\n{}",
        tree.render()
    );
    // The timing section of EXPLAIN ANALYZE renders the same tree.
    let analyzed = outcome.explain_analyzed();
    assert!(analyzed.contains("timing: total"), "{analyzed}");
    assert!(analyzed.contains("execute"), "{analyzed}");
}

/// Acceptance: `PreparedQuery::rows()` — the streaming path — also
/// produces a well-formed tree, delivered by `Rows::finish`.
#[test]
fn prepared_rows_produce_a_well_formed_span_tree() {
    let db = sample_db();
    db.set_query_tracing(true);
    let session = db
        .session()
        .with_strategy(StrategyLevel::S4CollectionQuantifiers);
    let q = session.prepare(EX21).expect("prepares");
    let mut rows = q.rows().expect("streams");
    let mut produced = 0u64;
    for row in &mut rows {
        row.expect("tuple constructs");
        produced += 1;
    }
    let outcome = rows.finish();
    assert_eq!(outcome.rows_emitted, produced);
    let tree = outcome
        .span_tree
        .as_ref()
        .expect("tracing is on, finish() carries the tree");
    assert!(tree.is_well_formed(), "ill-formed tree:\n{}", tree.render());
    assert!(
        tree.root.find("collection").is_some(),
        "execution spans recorded during polling:\n{}",
        tree.render()
    );
    assert!(tree.root.child_duration_sum() <= tree.root.duration);
    // Streaming queries feed the time-to-first-tuple histogram.
    let ttft = db
        .metrics_registry()
        .histogram("pascalr_time_to_first_tuple_nanoseconds")
        .expect("registered");
    assert_eq!(ttft.count(), 1, "one streaming query produced tuples");
}

/// With tracing off and no slow-query threshold, queries carry no span
/// tree and collect no events — but the registry still counts them.
#[test]
fn disabled_tracing_collects_no_spans_but_still_counts() {
    let db = sample_db();
    assert!(!db.query_tracing());
    assert!(db.slow_query_threshold().is_none());
    let outcome = db
        .query_with(EX21, StrategyLevel::S2OneStep)
        .expect("query runs");
    assert!(
        outcome.report.span_tree.is_none(),
        "no collector is installed while tracing is off"
    );
    assert!(db.slow_queries().is_empty());
    assert!(outcome.explain_analyzed().contains("timing: execution"));
    let registry = db.metrics_registry();
    assert_eq!(registry.counter_total("pascalr_queries_total"), 1);
    assert_eq!(
        registry.counter_total("pascalr_rows_emitted_total"),
        outcome.result.cardinality() as u64
    );
    let latency = registry
        .histogram("pascalr_query_latency_nanoseconds")
        .expect("registered");
    assert_eq!(latency.count(), 1);
}

/// The log-bucketed histogram places values exactly: bucket `i` covers
/// `[2^(i-1), 2^i - 1]`.
#[test]
fn histogram_buckets_respect_their_boundaries() {
    let h = Histogram::new();
    for value in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
        h.record(value);
    }
    let counts = h.bucket_counts();
    assert_eq!(counts[0], 1, "0 lands in bucket 0");
    assert_eq!(counts[1], 1, "1 is the whole of bucket 1");
    assert_eq!(counts[2], 2, "2 and 3 fill bucket [2, 3]");
    assert_eq!(counts[3], 2, "4 and 7 bound bucket [4, 7]");
    assert_eq!(counts[4], 1, "8 opens bucket [8, 15]");
    assert_eq!(counts[10], 1, "1023 closes bucket [512, 1023]");
    assert_eq!(counts[11], 1, "1024 opens bucket [1024, 2047]");
    assert_eq!(h.count(), 9);
    assert_eq!(h.sum(), 2072);
    assert_eq!(h.max(), 1024);
    assert_eq!(Histogram::bucket_upper_bound(10), 1023);
    assert!(h.quantile(1.0) <= h.max());
}

/// 4 threads hammer one shared database; after the join the registry's
/// relaxed counters must equal the sums of the per-query snapshots the
/// threads collected — exact, not approximate.
#[test]
fn registry_totals_match_per_query_snapshots_across_threads() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    let db = sample_db();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = db.clone();
            thread::spawn(move || {
                let q = db
                    .session()
                    .with_strategy(StrategyLevel::S4CollectionQuantifiers)
                    .prepare(EX21)
                    .expect("prepares");
                let mut rows = 0u64;
                let mut tuples_read = 0u64;
                for _ in 0..PER_THREAD {
                    let outcome = q.execute().expect("executes");
                    rows += outcome.result.cardinality() as u64;
                    tuples_read += outcome.report.metrics.total().tuples_read;
                }
                (rows, tuples_read)
            })
        })
        .collect();
    let mut rows_sum = 0u64;
    let mut tuples_sum = 0u64;
    for handle in handles {
        let (rows, tuples) = handle.join().expect("worker");
        rows_sum += rows;
        tuples_sum += tuples;
    }
    assert!(tuples_sum > 0, "the workload did real work");
    let registry = db.metrics_registry();
    assert_eq!(
        registry.counter_total("pascalr_queries_total"),
        THREADS * PER_THREAD
    );
    assert_eq!(
        registry.counter_total("pascalr_rows_emitted_total"),
        rows_sum
    );
    let latency = registry
        .histogram("pascalr_query_latency_nanoseconds")
        .expect("registered");
    assert_eq!(latency.count(), THREADS * PER_THREAD);
    assert!(latency.sum() > 0, "queries took measurable time");
}

/// Acceptance: the slow-query log captures exactly the queries that
/// exceed the configured threshold, with their text and span trees.
#[test]
fn slow_query_log_captures_exactly_over_threshold_queries() {
    let db = sample_db();
    // Everything exceeds a zero threshold.
    db.set_slow_query_threshold(Some(Duration::ZERO));
    assert_eq!(db.slow_query_threshold(), Some(Duration::ZERO));
    db.query_with(EX21, StrategyLevel::S2OneStep).expect("runs");
    db.query_with(
        "names := [<e.ename> OF EACH e IN employees: e.estatus = professor]",
        StrategyLevel::S0Baseline,
    )
    .expect("runs");
    let captured = db.slow_queries();
    assert_eq!(captured.len(), 2, "both queries exceeded zero");
    assert!(captured[0].query.contains("papers"));
    assert!(captured[1].query.contains("estatus"));
    assert_eq!(captured[1].strategy, StrategyLevel::S0Baseline);
    for slow in &captured {
        assert!(slow.elapsed > Duration::ZERO);
        let tree = slow
            .span_tree
            .as_ref()
            .expect("a threshold implies span collection");
        assert!(tree.is_well_formed());
        assert!(slow.metrics.total().tuples_read > 0);
    }
    assert_eq!(
        db.metrics_registry()
            .counter_total("pascalr_slow_queries_total"),
        2
    );

    // Nothing exceeds an hour; nothing is captured with the log disabled.
    db.set_slow_query_threshold(Some(Duration::from_secs(3600)));
    db.query_with(EX21, StrategyLevel::S2OneStep).expect("runs");
    db.set_slow_query_threshold(None);
    db.query_with(EX21, StrategyLevel::S2OneStep).expect("runs");
    assert_eq!(db.slow_queries().len(), 2, "no new captures");

    // Clearing empties the ring but keeps the cumulative counter.
    db.clear_slow_queries();
    assert!(db.slow_queries().is_empty());
    assert_eq!(
        db.metrics_registry()
            .counter_total("pascalr_slow_queries_total"),
        2
    );
}

/// Acceptance: the Prometheus rendering round-trips through the
/// exposition parser — well-formed HELP/TYPE/sample structure, valid
/// cumulative histograms.
#[test]
fn prometheus_rendering_round_trips_through_the_exposition_parser() {
    let db = sample_db();
    db.set_query_tracing(true);
    db.analyze().expect("analyze");
    db.query(EX21).expect("auto query");
    let mut rows = db.session().rows(EX21).expect("streams");
    rows.next().expect("a tuple").expect("constructs");
    drop(rows);

    let page = db.render_prometheus();
    let exposition =
        expo::parse(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
    let queries = exposition
        .family("pascalr_queries_total")
        .expect("counter family present");
    assert_eq!(queries.kind, "counter");
    assert!(queries.samples[0].value >= 2.0);
    let latency = exposition
        .family("pascalr_query_latency_nanoseconds")
        .expect("histogram family present");
    assert_eq!(latency.kind, "histogram");
    assert!(exposition.family("pascalr_plan_cache_entries").is_some());
    assert!(exposition
        .family("pascalr_auto_level_chosen_total")
        .is_some());

    // The JSON rendering is structurally sound too (hand-rolled writer).
    let json = db.metrics_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"pascalr_queries_total\""));
    assert!(json.contains("\"histograms\""));
}

/// Satellite: capacity evictions are counted and exposed — both through
/// `plan_cache_stats` and the registry (hits/misses/evictions/entries).
#[test]
fn plan_cache_evictions_are_counted_once_the_cap_is_hit() {
    let db = Database::from_declarations(
        "TYPE idtype = 1..1000000;
         VAR items : RELATION <id> OF
               RECORD
                 id : idtype
               END;",
    )
    .expect("declarations parse");
    // 1100 distinct query shapes at one catalog epoch: the 1024-entry cap
    // must evict (and count) at least 76 plans.
    for i in 0..1100 {
        let text = format!("hit := [<x.id> OF EACH x IN items: x.id = {}]", i + 1);
        db.explain(&text, StrategyLevel::S0Baseline).expect("plans");
    }
    let stats = db.plan_cache_stats();
    assert!(stats.entries <= 1024, "cap respected: {}", stats.entries);
    assert!(
        stats.evictions >= 76,
        "evictions counted: {}",
        stats.evictions
    );
    assert_eq!(stats.misses, 1100, "every distinct shape planned once");
    let registry = db.metrics_registry();
    assert_eq!(
        registry.counter_total("pascalr_plan_cache_evictions_total"),
        stats.evictions
    );
    assert_eq!(
        registry.counter_total("pascalr_plan_cache_misses_total"),
        stats.misses
    );
    assert_eq!(
        registry.counter_total("pascalr_plan_cache_hits_total"),
        stats.hits
    );
    assert_eq!(
        registry.gauge_value("pascalr_plan_cache_entries"),
        Some(stats.entries as u64)
    );
}

/// Lifecycle counters: snapshot pins, epoch publishes and ANALYZE runs
/// all tick; a fork starts a fresh registry.
#[test]
fn lifecycle_counters_tick_and_forks_get_fresh_registries() {
    let db = sample_db();
    let _pin = db.snapshot();
    db.insert_values(
        "courses",
        vec![
            pascalr::Value::int(90),
            db.enum_value("leveltype", "senior").expect("enum"),
            pascalr::Value::str("Observability"),
        ],
    )
    .expect("insert");
    db.analyze_relation("courses").expect("analyze");
    let registry = db.metrics_registry();
    assert!(registry.counter_total("pascalr_snapshot_pins_total") >= 1);
    assert_eq!(registry.counter_total("pascalr_epoch_publishes_total"), 2);
    assert_eq!(registry.counter_total("pascalr_analyze_runs_total"), 1);

    let fork = db.fork();
    assert_eq!(
        fork.metrics_registry()
            .counter_total("pascalr_epoch_publishes_total"),
        0,
        "a fork's registry starts empty"
    );
    fork.query(EX21).expect("fork still answers queries");
    assert_eq!(
        fork.metrics_registry()
            .counter_total("pascalr_queries_total"),
        1
    );
}

/// Satellite (storage engine): the durability counters — WAL, recovery,
/// checkpoints — are registered on every database and
/// round-trip through both exposition formats with the values the
/// storage backend actually ticked.
#[test]
fn storage_counters_round_trip_through_both_expositions() {
    use pascalr::{FsyncPolicy, HeapOptions, MemFs};

    // In-memory databases register the families too (at zero).
    let mem = sample_db();
    let page = mem.render_prometheus();
    let exposition = expo::parse(&page).expect("valid exposition");
    let zero = exposition
        .family("pascalr_wal_appends_total")
        .expect("storage family registered on in-memory databases");
    assert_eq!(zero.kind, "counter");
    assert_eq!(zero.samples[0].value, 0.0);

    // A persistent database ticks them for real.
    let fs = MemFs::new();
    let db = pascalr::Database::open_on(
        pascalr_sync::Arc::new(fs.clone()),
        HeapOptions {
            fsync: FsyncPolicy::EveryCommit,
        },
    )
    .expect("open on MemFs");
    db.mutate(|c| *c = figure1_sample_database().expect("sample database"));
    db.analyze().expect("analyze");
    drop(db);
    let db = pascalr::Database::open_on(pascalr_sync::Arc::new(fs), HeapOptions::default())
        .expect("reopen");

    let page = db.render_prometheus();
    let exposition =
        expo::parse(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
    let registry = db.metrics_registry();
    for family in [
        "pascalr_wal_appends_total",
        "pascalr_wal_bytes_total",
        "pascalr_wal_fsyncs_total",
        "pascalr_recovery_replays_total",
        "pascalr_checkpoints_total",
    ] {
        let parsed = exposition
            .family(family)
            .unwrap_or_else(|| panic!("{family} missing from the exposition"));
        assert_eq!(parsed.kind, "counter", "{family}");
        let expected = registry.counter_total(family) as f64;
        assert_eq!(parsed.samples[0].value, expected, "{family}");
        assert!(
            db.metrics_json().contains(&format!("\"{family}\"")),
            "{family} missing from the JSON rendering"
        );
    }
    // The reopen replayed the logged ANALYZE.
    assert!(registry.counter_total("pascalr_recovery_replays_total") >= 1);
    assert!(registry.counter_total("pascalr_checkpoints_total") >= 1);
}
