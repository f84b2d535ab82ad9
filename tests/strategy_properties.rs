//! Property-based tests: on randomly generated departments and randomly
//! assembled selection expressions, every strategy level must agree with the
//! brute-force oracle, and standardization must preserve the result.  The
//! laws of the combination phase's own operators (division, semijoin,
//! anti-semijoin) are unit tests of `pascalr-exec`, next to the operators.

use proptest::prelude::*;

use pascalr::{Database, StrategyLevel};
use pascalr_calculus::{ComponentRef, Formula, Operand, RangeDecl, RangeExpr, Selection};
use pascalr_relation::{CompareOp, EnumType};
use pascalr_workload::{generate, oracle_eval, UniversityConfig};

/// A small random selection expression over the university schema.
///
/// The shape is: professor-or-status test on `e`, combined (AND/OR) with a
/// quantified (SOME/ALL) join to papers or timetable, optionally with a
/// monadic restriction on the quantified variable.
fn arbitrary_selection() -> impl Strategy<Value = Selection> {
    let status = 0..4i64;
    let quantified_rel = prop_oneof![Just("papers"), Just("timetable")];
    let use_all = any::<bool>();
    let use_and = any::<bool>();
    let monadic_on_quantified = any::<bool>();
    let year = 1970..1978i64;
    (
        status,
        quantified_rel,
        use_all,
        use_and,
        monadic_on_quantified,
        year,
    )
        .prop_map(|(status, qrel, use_all, use_and, monadic, year)| {
            // The generated catalog declares `statustype` with these labels;
            // an equal enumeration type (same name, same ordinals) compares
            // against it.
            let status_ty = EnumType::new(
                "statustype",
                ["student", "technician", "assistant", "professor"],
            );
            let status_test = Formula::compare(
                Operand::comp("e", "estatus"),
                CompareOp::Eq,
                Operand::Const(status_ty.value_at(status as u32).expect("0..4")),
            );
            let (attr, other_attr) = if qrel == "papers" {
                ("penr", "enr")
            } else {
                ("tenr", "enr")
            };
            let join = Formula::compare(
                Operand::comp("q", attr),
                CompareOp::Eq,
                Operand::comp("e", other_attr),
            );
            let body = if monadic && qrel == "papers" {
                Formula::or(vec![
                    Formula::compare(
                        Operand::comp("q", "pyear"),
                        CompareOp::Ne,
                        Operand::constant(year),
                    ),
                    join,
                ])
            } else {
                join
            };
            let quantified = if use_all {
                Formula::all("q", RangeExpr::relation(qrel), body)
            } else {
                Formula::some("q", RangeExpr::relation(qrel), body)
            };
            let formula = if use_and {
                Formula::and(vec![status_test, quantified])
            } else {
                Formula::or(vec![status_test, quantified])
            };
            Selection::new(
                "result",
                vec![ComponentRef::new("e", "enr")],
                vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
                formula,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy level agrees with the brute-force oracle on random
    /// queries over random databases.
    #[test]
    fn strategies_agree_with_oracle(sel in arbitrary_selection(), seed in 0u64..200) {
        let config = UniversityConfig {
            seed,
            ..UniversityConfig::at_scale(1)
        };
        let cat = generate(&config).unwrap();
        let expected = oracle_eval(&sel, &cat).unwrap();
        let db = Database::from_catalog(cat);
        for level in [StrategyLevel::S0Baseline, StrategyLevel::S2OneStep, StrategyLevel::S4CollectionQuantifiers] {
            let outcome = db.query_selection(&sel, level).unwrap();
            prop_assert!(
                expected.set_eq(&outcome.result),
                "level {level} disagrees with the oracle for {sel}"
            );
        }
    }

    /// Standardization preserves the result for random queries (checked via
    /// the oracle on both forms).
    #[test]
    fn standard_form_preserves_results(sel in arbitrary_selection(), seed in 0u64..100) {
        let config = UniversityConfig { seed, ..UniversityConfig::at_scale(1) };
        let cat = generate(&config).unwrap();
        let original = oracle_eval(&sel, &cat).unwrap();
        let standardized = pascalr_calculus::standardize(&sel);
        let roundtrip = oracle_eval(&standardized.to_selection(), &cat).unwrap();
        prop_assert!(original.set_eq(&roundtrip));
    }
}
