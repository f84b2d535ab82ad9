//! Streaming-cursor correctness: for workload queries at every strategy
//! level — on randomized university instances — the multiset of tuples a
//! [`Rows`] cursor yields equals the relation `execute()` materializes
//! (both are duplicate-free, so multiset equality is set equality plus a
//! no-duplicates check on the stream).  Also covers the two runtime
//! `Fallback` variants and the early-exit contract: a cursor dropped after
//! `k` tuples must have stopped all remaining work, observable in the
//! per-query metrics.

use std::collections::HashSet;

use proptest::prelude::*;

use pascalr_repro::pascalr::{Database, Rows, StrategyLevel, Tuple};
use pascalr_repro::pascalr_workload::{
    all_queries, figure1_sample_database, generate, query_by_id, UniversityConfig,
};

fn sample_db() -> Database {
    Database::from_catalog(figure1_sample_database().unwrap())
}

/// Drains a cursor and checks the stream against the materialized result
/// of the same query: same tuples, no duplicates, same cardinality.
fn assert_stream_matches(rows: Rows, db: &Database, text: &str, level: StrategyLevel) {
    let streamed: Vec<Tuple> = rows.map(|r| r.expect("streamed tuple")).collect();
    let outcome = db.query_with(text, level).expect("materialized execution");
    let mut seen = HashSet::new();
    for t in &streamed {
        assert!(seen.insert(t.clone()), "cursor emitted {t} twice");
        assert!(
            outcome.result.contains(t),
            "cursor emitted {t}, which execute() did not produce"
        );
    }
    assert_eq!(
        streamed.len(),
        outcome.result.cardinality(),
        "stream and relation disagree on cardinality"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: `execute()` == `rows().collect()` for
    /// random (instance, query, level) combinations, through the prepared
    /// path (plan-cache hits included — the same prepared query is
    /// streamed and materialized).
    #[test]
    fn rows_match_execute_on_random_instances(
        seed in 0u64..1024,
        query_idx in 0usize..16,
        level_idx in 0usize..5,
    ) {
        let config = UniversityConfig { seed, ..UniversityConfig::at_scale(1) };
        let db = Database::from_catalog(generate(&config).unwrap());
        let queries = all_queries();
        let query = &queries[query_idx % queries.len()];
        let level = StrategyLevel::ALL[level_idx];

        let session = db.session().with_strategy(level);
        let prepared = session.prepare(query.text).unwrap();
        let rows = prepared.rows().unwrap();
        assert_stream_matches(rows, &db, query.text, level);
    }
}

#[test]
fn rows_match_execute_under_the_lemma1_fallback() {
    // Empty `papers` triggers the Lemma 1 adaptation at every level; the
    // stream must match and report it.
    let db = sample_db();
    db.mutate(|c| c.relation_mut("papers").unwrap().clear());
    let text = query_by_id("ex2.1").unwrap().text;
    for level in StrategyLevel::ALL {
        let session = db.session().with_strategy(level);
        let mut rows = session.rows(text).unwrap();
        assert!(rows.fallback().is_none(), "fallbacks are detected lazily");
        let streamed: Vec<Tuple> = rows.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(streamed.len(), 3, "the three professors qualify at {level}");
        let fallback = rows.fallback().expect("fallback reported after streaming");
        assert!(fallback.contains("papers"), "{level}: {fallback}");
        assert_stream_matches(session.rows(text).unwrap(), &db, text, level);
    }
}

#[test]
fn rows_match_execute_under_the_extended_range_fallback() {
    // Only a senior-level course left: the extended range of `c` is empty,
    // so Strategy 3/4 adapt for it and re-plan at their own level —
    // through the streaming path too.
    let db = sample_db();
    db.mutate(|catalog| {
        let level_ty = catalog.types().enum_type("leveltype").unwrap().clone();
        let courses = catalog.relation_mut("courses").unwrap();
        courses.clear();
        courses
            .insert(pascalr_repro::pascalr::Tuple::new(vec![
                pascalr_repro::pascalr::Value::int(60),
                level_ty.value("senior").unwrap(),
                pascalr_repro::pascalr::Value::str("Advanced"),
            ]))
            .unwrap();
    });
    let text = query_by_id("ex2.1").unwrap().text;
    for level in [
        StrategyLevel::S3ExtendedRanges,
        StrategyLevel::S4CollectionQuantifiers,
    ] {
        let session = db.session().with_strategy(level);
        let mut rows = session.rows(text).unwrap();
        let streamed: Vec<Tuple> = rows.by_ref().map(|r| r.unwrap()).collect();
        let fallback = rows.fallback().expect("extended-range fallback");
        assert!(
            fallback.contains("c IN [EACH c IN courses"),
            "{level}: {fallback}"
        );
        assert!(!streamed.is_empty());
        assert_stream_matches(session.rows(text).unwrap(), &db, text, level);
    }
}

#[test]
fn unconsumed_cursor_records_no_work() {
    let db = Database::from_catalog(generate(&UniversityConfig::at_scale(4)).unwrap());
    let session = db.session();
    let prepared = session.prepare(query_by_id("q01").unwrap().text).unwrap();
    let rows = prepared.rows().unwrap();
    let outcome = rows.finish(); // dropped before the first `next()`
    assert!(
        outcome.metrics.total().is_zero(),
        "a never-polled cursor must record no work: {:?}",
        outcome.metrics.total()
    );
    assert_eq!(outcome.rows_emitted, 0);
    assert!(outcome.fallback.is_none());
}

#[test]
fn early_exit_stops_construction_and_combination_work() {
    // q01 is a quantifier-free monadic selection: the combination output
    // streams, so taking one tuple must leave almost all construction
    // dereferences *and* combination intermediates unperformed.
    let db = Database::from_catalog(generate(&UniversityConfig::at_scale(8)).unwrap());
    let session = db.session().with_strategy(StrategyLevel::S1Parallel);
    let prepared = session.prepare(query_by_id("q01").unwrap().text).unwrap();
    use pascalr_repro::pascalr::storage::Phase;

    let mut full = prepared.rows().unwrap();
    let full_count = full.by_ref().collect::<Result<Vec<_>, _>>().unwrap().len();
    let full_outcome = full.finish();
    assert!(full_count > 10, "scale 8 has plenty of professors");

    let mut first = prepared.rows().unwrap();
    let _ = first.next().unwrap().unwrap();
    let first_outcome = first.finish(); // drops the cursor after one tuple
    assert_eq!(first_outcome.rows_emitted, 1);

    let full_derefs = full_outcome.metrics.phase(Phase::Construction).dereferences;
    let first_derefs = first_outcome
        .metrics
        .phase(Phase::Construction)
        .dereferences;
    assert!(
        first_derefs < full_derefs / 2,
        "construction must stream: {first_derefs} vs {full_derefs} dereferences"
    );
    let full_inter = full_outcome
        .metrics
        .phase(Phase::Combination)
        .intermediate_tuples;
    let first_inter = first_outcome
        .metrics
        .phase(Phase::Combination)
        .intermediate_tuples;
    assert!(
        first_inter < full_inter / 2,
        "combination must stream on a quantifier-free plan: {first_inter} vs {full_inter}"
    );
    // The collection phase ran in both cases (it is shared by all tuples).
    assert!(
        first_outcome
            .metrics
            .phase(Phase::Collection)
            .relation_scans
            > 0
    );
}

#[test]
fn row_budget_caps_the_stream() {
    let db = Database::from_catalog(generate(&UniversityConfig::at_scale(8)).unwrap());
    let session = db.session();
    let prepared = session.prepare(query_by_id("q01").unwrap().text).unwrap();
    let budgeted: Vec<Tuple> = prepared
        .rows()
        .unwrap()
        .with_row_budget(5)
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(budgeted.len(), 5);
    // The budget also flows in from the planner hint on uncached plans.
    let selection = db.parse(query_by_id("q01").unwrap().text).unwrap();
    let rows = db
        .rows_selection(&selection, StrategyLevel::S2OneStep)
        .unwrap();
    assert!(rows.plan().row_budget.is_none(), "no hint by default");
}

#[test]
fn a_cursor_that_fails_to_start_surfaces_the_error() {
    use pascalr_repro::pascalr::calculus::{
        ComponentRef, Formula, RangeDecl, RangeExpr, Selection,
    };
    let db = sample_db();
    // A hand-built selection over a relation the catalog does not have:
    // planning succeeds, execution cannot start.
    let sel = Selection::new(
        "q",
        vec![ComponentRef::new("x", "enr")],
        vec![RangeDecl::new("x", RangeExpr::relation("nosuch"))],
        Formula::truth(),
    );
    let mut rows = db
        .rows_selection(&sel, StrategyLevel::S1Parallel)
        .expect("planning does not touch the missing relation");
    assert!(rows.schema().is_err(), "schema() reports the start failure");
    assert!(rows.next().is_none(), "the cursor stays terminated");
    let outcome = rows.finish();
    assert_eq!(outcome.rows_emitted, 0);
}

#[test]
fn schema_is_available_before_the_first_tuple() {
    let db = sample_db();
    let session = db.session();
    let mut rows = session.rows(query_by_id("q11").unwrap().text).unwrap();
    let schema = rows.schema().unwrap();
    assert_eq!(schema.arity(), 2, "q11 projects two components");
    assert_eq!(rows.rows_emitted(), 0, "schema() constructs no tuple");
    let n = rows.count();
    assert_eq!(n, 5, "professor/course pairs on the sample database");
}
