//! Plan execution: the materializing entry points over the streaming
//! [`ExecutionCursor`].

use pascalr_sync::Arc;

use pascalr_calculus::{Assumption, Selection};
use pascalr_catalog::CatalogSnapshot;
use pascalr_planner::{plan, PlanOptions, QueryPlan, StrategyLevel};
use pascalr_relation::Relation;
use pascalr_storage::{Metrics, MetricsSnapshot};

use crate::cursor::ExecutionCursor;
use crate::error::ExecError;

/// The outcome of executing a plan to completion.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The result relation (named after the selection's target).
    pub relation: Relation,
    /// If a range the plan assumed non-empty was empty, the fallback that
    /// was taken.
    pub fallback: Option<Fallback>,
    /// Snapshot of the access metrics this query charged to the handle it
    /// was executed with (so callers report per-query work without
    /// reaching into shared counters).
    pub metrics: MetricsSnapshot,
}

/// The runtime fallback taken when a range the plan assumed was empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// The selection was adapted for these variables' ranges, found empty
    /// (Lemma 1, Example 2.2), one at a time in this order, and re-planned
    /// at the plan's own level with its own options.
    AdaptedForEmptyRanges(Vec<Assumption>),
}

/// Executes a plan to completion against a pinned catalog snapshot,
/// recording metrics, and applying the runtime adaptation of Section 2
/// when a range the plan assumed non-empty is empty.
///
/// This is a thin materializing wrapper over [`ExecutionCursor`] — the
/// streaming cursor is the **only** execution path; `execute` merely
/// drains it into a [`Relation`].
pub fn execute(
    query_plan: Arc<QueryPlan>,
    snapshot: &CatalogSnapshot,
    metrics: &Metrics,
) -> Result<ExecutionResult, ExecError> {
    let _span = pascalr_obs::span!("execute");
    let mut cursor = ExecutionCursor::new(query_plan, snapshot.clone(), metrics.clone());
    // The relation below deduplicates on insert; don't pay for a second
    // copy of the result set inside the cursor.
    cursor.set_distinct(false);
    cursor.start()?;
    let schema = cursor
        .schema()
        .ok_or_else(|| ExecError::PlanInvariant {
            detail: "a successfully started cursor has no result schema".to_string(),
        })?
        .clone();
    let mut relation = Relation::new(schema);
    while let Some(item) = cursor.next_tuple() {
        let _ = relation.insert(item?);
    }
    metrics.record_structure_size("result", relation.cardinality() as u64);
    Ok(ExecutionResult {
        relation,
        fallback: cursor.fallback().cloned(),
        metrics: metrics.snapshot(),
    })
}

/// Convenience: plan and execute a selection in one call.
pub fn plan_and_execute(
    selection: &Selection,
    snapshot: &CatalogSnapshot,
    strategy: StrategyLevel,
    options: PlanOptions,
    metrics: &Metrics,
) -> Result<(Arc<QueryPlan>, ExecutionResult), ExecError> {
    let p = Arc::new(plan(selection, snapshot, strategy, options));
    let r = execute(p.clone(), snapshot, metrics)?;
    Ok((p, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_planner::StrategyLevel;
    use pascalr_relation::{Tuple, Value};
    use pascalr_workload::{
        all_queries, clear_relation, figure1_sample_database, generate, oracle_eval,
        UniversityConfig,
    };

    /// The central correctness property of the reproduction: every strategy
    /// level produces exactly the oracle's result for every workload query.
    #[test]
    fn all_strategies_agree_with_the_oracle_on_the_sample_database() {
        let cat = CatalogSnapshot::new(figure1_sample_database().unwrap());
        for q in all_queries() {
            let sel = q.parse(&cat).unwrap();
            let expected = oracle_eval(&sel, &cat).unwrap();
            for level in StrategyLevel::ALL {
                let metrics = Metrics::new();
                let (_, result) =
                    plan_and_execute(&sel, &cat, level, PlanOptions::default(), &metrics)
                        .unwrap_or_else(|e| panic!("query {} at {level}: {e}", q.id));
                assert!(
                    expected.set_eq(&result.relation),
                    "query {} at {level}: expected {} rows, got {}\nexpected: {}\ngot: {}",
                    q.id,
                    expected.cardinality(),
                    result.relation.cardinality(),
                    expected,
                    result.relation
                );
            }
        }
    }

    #[test]
    fn all_strategies_agree_with_the_oracle_on_a_generated_database() {
        let cat = CatalogSnapshot::new(generate(&UniversityConfig::at_scale(1)).unwrap());
        for q in all_queries() {
            let sel = q.parse(&cat).unwrap();
            let expected = oracle_eval(&sel, &cat).unwrap();
            for level in [
                StrategyLevel::S0Baseline,
                StrategyLevel::S2OneStep,
                StrategyLevel::S4CollectionQuantifiers,
            ] {
                let metrics = Metrics::new();
                let (_, result) =
                    plan_and_execute(&sel, &cat, level, PlanOptions::default(), &metrics)
                        .unwrap_or_else(|e| panic!("query {} at {level}: {e}", q.id));
                assert!(
                    expected.set_eq(&result.relation),
                    "query {} at {level} disagrees with the oracle",
                    q.id
                );
            }
        }
    }

    #[test]
    fn empty_papers_triggers_the_lemma1_adaptation() {
        // Example 2.2's caveat: with papers = [] the standard form would
        // return all employees; the adaptation must keep only professors.
        let mut cat = figure1_sample_database().unwrap();
        clear_relation(&mut cat, "papers").unwrap();
        let cat = CatalogSnapshot::new(cat);
        let sel = pascalr_workload::query_by_id("ex2.1")
            .unwrap()
            .parse(&cat)
            .unwrap();
        let expected = oracle_eval(&sel, &cat).unwrap();
        assert_eq!(expected.cardinality(), 3, "the three professors qualify");
        for level in StrategyLevel::ALL {
            let metrics = Metrics::new();
            let (_, result) =
                plan_and_execute(&sel, &cat, level, PlanOptions::default(), &metrics).unwrap();
            assert!(expected.set_eq(&result.relation), "level {level}");
            let Some(Fallback::AdaptedForEmptyRanges(empty)) = &result.fallback else {
                panic!("level {level} must report the adaptation");
            };
            let empty: Vec<String> = empty.iter().map(ToString::to_string).collect();
            assert_eq!(empty, vec!["p IN papers"], "level {level}");
        }
    }

    #[test]
    fn empty_extended_range_falls_back_without_changing_the_result() {
        // Remove every sophomore-or-lower course: the extended range of c is
        // empty; Strategy 3/4 must fall back and still match the oracle.
        let mut cat = figure1_sample_database().unwrap();
        {
            let level_ty = cat.types().enum_type("leveltype").unwrap().clone();
            let courses = cat.relation_mut("courses").unwrap();
            courses.clear();
            courses
                .insert(Tuple::new(vec![
                    Value::int(60),
                    level_ty.value("senior").unwrap(),
                    Value::str("Advanced"),
                ]))
                .unwrap();
        }
        let cat = CatalogSnapshot::new(cat);
        let sel = pascalr_workload::query_by_id("ex2.1")
            .unwrap()
            .parse(&cat)
            .unwrap();
        let expected = oracle_eval(&sel, &cat).unwrap();
        for level in [
            StrategyLevel::S3ExtendedRanges,
            StrategyLevel::S4CollectionQuantifiers,
        ] {
            let metrics = Metrics::new();
            let (_, result) =
                plan_and_execute(&sel, &cat, level, PlanOptions::default(), &metrics).unwrap();
            assert!(expected.set_eq(&result.relation), "level {level}");
            let Some(Fallback::AdaptedForEmptyRanges(empty)) = &result.fallback else {
                panic!("level {level} must report the adaptation");
            };
            assert_eq!(empty.len(), 1, "level {level}");
            assert_eq!(empty[0].var.as_ref(), "c", "level {level}");
            assert!(empty[0].range.is_restricted(), "level {level}");
        }
        // Levels that never relied on the assumption do not fall back.
        let metrics = Metrics::new();
        let (_, result) = plan_and_execute(
            &sel,
            &cat,
            StrategyLevel::S2OneStep,
            PlanOptions::default(),
            &metrics,
        )
        .unwrap();
        assert!(result.fallback.is_none());
        assert!(expected.set_eq(&result.relation));
    }

    #[test]
    fn a_fallback_replans_at_the_plans_own_level_with_its_own_options() {
        // An ablation's options survive the re-plan: papers = [] adapts for
        // p, courses without a sophomore course for c's extended range.
        let options = PlanOptions {
            disjunctive_range_extensions: true,
            declaration_scan_order: true,
            semantic_rewrites: false,
        };
        let no_papers = {
            let mut cat = figure1_sample_database().unwrap();
            clear_relation(&mut cat, "papers").unwrap();
            cat
        };
        let senior_course_only = {
            let mut cat = figure1_sample_database().unwrap();
            let level_ty = cat.types().enum_type("leveltype").unwrap().clone();
            let courses = cat.relation_mut("courses").unwrap();
            courses.clear();
            courses
                .insert(Tuple::new(vec![
                    Value::int(60),
                    level_ty.value("senior").unwrap(),
                    Value::str("Advanced"),
                ]))
                .unwrap();
            cat
        };
        for (cat, levels) in [
            (no_papers, &StrategyLevel::ALL[..]),
            (
                senior_course_only,
                &[
                    StrategyLevel::S3ExtendedRanges,
                    StrategyLevel::S4CollectionQuantifiers,
                ][..],
            ),
        ] {
            let cat = CatalogSnapshot::new(cat);
            let sel = pascalr_workload::query_by_id("ex2.1")
                .unwrap()
                .parse(&cat)
                .unwrap();
            let expected = oracle_eval(&sel, &cat).unwrap();
            for &level in levels {
                let p = Arc::new(plan(&sel, &cat, level, options));
                let result = execute(p.clone(), &cat, &Metrics::new()).unwrap();
                assert!(result.fallback.is_some(), "{level}");
                assert!(expected.set_eq(&result.relation), "{level}");
                let mut cursor = ExecutionCursor::new(p, cat.clone(), Metrics::new());
                cursor.start().unwrap();
                assert_eq!(cursor.query_plan().strategy, level);
                assert_eq!(cursor.query_plan().options, options, "{level}");
            }
        }
    }

    #[test]
    fn empty_free_range_produces_an_empty_typed_result() {
        let mut cat = figure1_sample_database().unwrap();
        clear_relation(&mut cat, "employees").unwrap();
        let cat = CatalogSnapshot::new(cat);
        let sel = pascalr_workload::query_by_id("ex2.1")
            .unwrap()
            .parse(&cat)
            .unwrap();
        let metrics = Metrics::new();
        let (_, result) = plan_and_execute(
            &sel,
            &cat,
            StrategyLevel::S4CollectionQuantifiers,
            PlanOptions::default(),
            &metrics,
        )
        .unwrap();
        assert_eq!(result.relation.cardinality(), 0);
        assert_eq!(result.relation.schema().arity(), 1);
    }

    #[test]
    fn metrics_show_the_expected_strategy_shape() {
        // Relation scans: S0 > S1 (= number of relations); combination
        // intermediates: S4 < S0.
        let cat = CatalogSnapshot::new(figure1_sample_database().unwrap());
        let sel = pascalr_workload::query_by_id("ex2.1")
            .unwrap()
            .parse(&cat)
            .unwrap();
        let mut scans = Vec::new();
        let mut inter = Vec::new();
        for level in StrategyLevel::ALL {
            let metrics = Metrics::new();
            plan_and_execute(&sel, &cat, level, PlanOptions::default(), &metrics).unwrap();
            let snap = metrics.snapshot();
            scans.push(snap.total().relation_scans);
            inter.push(snap.total().intermediate_tuples);
        }
        assert!(
            scans[0] > scans[1],
            "S0 scans more often than S1: {scans:?}"
        );
        assert_eq!(scans[1], 4, "S1 reads each of the four relations once");
        assert!(
            inter[4] < inter[0],
            "S4 materializes fewer intermediate tuples than S0: {inter:?}"
        );
    }
}
