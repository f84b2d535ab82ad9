//! Lemma 1 and the empty-range adaptation of the standard form.
//!
//! Lemma 1 (Section 2): let `A` be a wff in which the variable `rec` does not
//! occur and `B` any wff.  In the many-sorted calculus:
//!
//! 1. `A AND SOME rec IN rel (B)  =  SOME rec IN rel (A AND B)`  — always;
//! 2. `A OR  SOME rec IN rel (B)  =  A`                 if `rel = []`,
//!    `                            =  SOME rec IN rel (A OR B)`  otherwise;
//! 3. `A AND ALL  rec IN rel (B)  =  A`                 if `rel = []`,
//!    `                            =  ALL rec IN rel (A AND B)`  otherwise;
//! 4. `A OR  ALL  rec IN rel (B)  =  ALL rec IN rel (A OR B)`   — always.
//!
//! The PASCAL/R compiler assumes all ranges non-empty when building the
//! standard form and adapts at runtime when the assumption fails (Example
//! 2.2: if `papers = []`, the query collapses to the professor test).  The
//! standard form lists the ranges it assumed, keyed on the variable
//! ([`crate::normalize::StandardForm::assumptions`]); when one is empty —
//! a restricted range that selects nothing as much as an empty relation —
//! [`adapt_selection_for_empty`] rewrites the selection for that variable.

use crate::ast::{Formula, Quantifier, RangeExpr, Selection, Term};
use crate::normalize::{normalized_formula, simplify, Assumption};

/// Rewrites `formula` (named as by [`normalized_formula`]) for ranges found
/// empty, and simplifies it.  Each entry names a binder and its empty range:
/// * the binder's own range or bare relation: the quantifier takes its
///   empty-range value, `SOME` → `false`, `ALL` → `true` (Example 2.2);
/// * the range extended by Strategy 3, whose last conjunct is the term
///   hoisted last: for `SOME` no element satisfies that term, so it becomes
///   `false`; for `ALL` every element satisfies the complemented terms, so
///   they become `true`.  The quantifier itself may still range over
///   elements, so substituting it would be wrong.
pub fn adapt_formula_for_empty(formula: &Formula, empty: &[Assumption]) -> Formula {
    fn go(f: &Formula, empty: &[Assumption]) -> Formula {
        match f {
            Formula::Term(_) => f.clone(),
            Formula::Not(inner) => Formula::not(go(inner, empty)),
            Formula::And(parts) => Formula::and(parts.iter().map(|p| go(p, empty)).collect()),
            Formula::Or(parts) => Formula::or(parts.iter().map(|p| go(p, empty)).collect()),
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                let mut body = go(body, empty);
                for assumed in empty.iter().filter(|a| a.var == *var) {
                    let whole_range = assumed.range == *range
                        || (assumed.range.restriction.is_none()
                            && assumed.range.relation == range.relation);
                    if whole_range {
                        return match q {
                            Quantifier::Some => Formula::falsity(),
                            Quantifier::All => Formula::truth(),
                        };
                    }
                    if let Some(hoisted) = last_extension(range, &assumed.range) {
                        body = match q {
                            Quantifier::Some => substitute(&body, hoisted, false),
                            Quantifier::All => match hoisted {
                                Formula::Or(parts) => parts
                                    .iter()
                                    .fold(body, |b, p| substitute(&b, &complement(p), true)),
                                other => substitute(&body, &complement(other), true),
                            },
                        };
                    }
                }
                Formula::Quant {
                    q: *q,
                    var: var.clone(),
                    range: range.clone(),
                    body: Box::new(body),
                }
            }
        }
    }
    simplify(&go(formula, empty))
}

/// The conjunct Strategy 3 added last to `written`, if `extended` is
/// `written` with hoisted conjuncts appended.
fn last_extension<'a>(written: &RangeExpr, extended: &'a RangeExpr) -> Option<&'a Formula> {
    fn conjuncts(f: Option<&Formula>) -> &[Formula] {
        match f {
            None => &[],
            Some(Formula::And(parts)) => parts,
            Some(other) => std::slice::from_ref(other),
        }
    }
    let base = conjuncts(written.restriction.as_deref());
    let all = conjuncts(extended.restriction.as_deref());
    (written.relation == extended.relation && all.len() > base.len() && all.starts_with(base))
        .then(|| all.last())
        .flatten()
}

/// The matrix term a complement hoist negated into a universal range.
fn complement(f: &Formula) -> Formula {
    match f {
        Formula::Term(t) => Formula::Term(t.negate()),
        other => Formula::not(other.clone()),
    }
}

/// Replaces every occurrence of the atom `term` in `f` by a constant.
fn substitute(f: &Formula, term: &Formula, value: bool) -> Formula {
    match f {
        _ if f == term => Formula::Term(Term::Bool(value)),
        Formula::Term(_) => f.clone(),
        Formula::Not(inner) => Formula::not(substitute(inner, term, value)),
        Formula::And(parts) => {
            Formula::and(parts.iter().map(|p| substitute(p, term, value)).collect())
        }
        Formula::Or(parts) => {
            Formula::or(parts.iter().map(|p| substitute(p, term, value)).collect())
        }
        Formula::Quant {
            q,
            var,
            range,
            body,
        } => Formula::Quant {
            q: *q,
            var: var.clone(),
            range: range.clone(),
            body: Box::new(substitute(body, term, value)),
        },
    }
}

/// Adapts a selection for ranges found empty ([`adapt_formula_for_empty`]
/// on its [`normalized_formula`]).  An entry naming a free variable makes
/// the formula `false`: the result is empty but correctly typed.
pub fn adapt_selection_for_empty(selection: &Selection, empty: &[Assumption]) -> Selection {
    let free_over_empty = selection
        .free
        .iter()
        .any(|d| empty.iter().any(|a| a.var == d.var));
    let formula = if free_over_empty {
        Formula::falsity()
    } else {
        adapt_formula_for_empty(&normalized_formula(selection), empty)
    };
    Selection::new(
        selection.target.clone(),
        selection.components.clone(),
        selection.free.clone(),
        formula,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ComponentRef, Operand, RangeDecl, VarName};
    use crate::error::CalculusError;
    use crate::normalize::{standardize, StandardizedSelection};
    use crate::semantics::{eval_formula, eval_selection, Binding, Env};
    use crate::transform::{extend_ranges, ExtendOptions};
    use pascalr_relation::{
        Attribute, CompareOp, Relation, RelationSchema, Tuple, Value, ValueType,
    };
    use std::collections::BTreeMap;

    // Lemma 1's four rules, stated executably.  The engine does not apply
    // them one by one: `prenex` pulls quantifiers and records the ranges
    // rules 2 and 3 assume non-empty; these check the rules themselves.

    /// Which of the four Lemma 1 rules is being applied.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Lemma1Rule {
        /// Rule 1: `A AND SOME rec (B)` — unconditional.
        AndSome,
        /// Rule 2: `A OR SOME rec (B)` — requires `rel` non-empty.
        OrSome,
        /// Rule 3: `A AND ALL rec (B)` — requires `rel` non-empty.
        AndAll,
        /// Rule 4: `A OR ALL rec (B)` — unconditional.
        OrAll,
    }

    impl Lemma1Rule {
        /// Whether the rule is an equivalence regardless of the range being
        /// empty.
        fn is_unconditional(self) -> bool {
            matches!(self, Lemma1Rule::AndSome | Lemma1Rule::OrAll)
        }

        /// The quantifier the rule moves.
        fn quantifier(self) -> Quantifier {
            match self {
                Lemma1Rule::AndSome | Lemma1Rule::OrSome => Quantifier::Some,
                Lemma1Rule::AndAll | Lemma1Rule::OrAll => Quantifier::All,
            }
        }
    }

    /// Applies a Lemma 1 rule in the "pull in" direction: given `A` (not
    /// mentioning `var`) and the quantified formula `Q var IN range (B)`,
    /// produces `Q var IN range (A <op> B)`.
    ///
    /// Returns an error if `A` mentions `var` (the side condition of the lemma)
    /// or if the supplied quantifier does not match the rule.
    fn apply_lemma1(
        rule: Lemma1Rule,
        a: &Formula,
        var: &VarName,
        range: &RangeExpr,
        b: &Formula,
    ) -> Result<Formula, CalculusError> {
        if a.mentions_var(var) {
            return Err(CalculusError::NotApplicable {
                detail: format!("Lemma 1 requires that {var} does not occur in A"),
            });
        }
        let combined = match rule {
            Lemma1Rule::AndSome | Lemma1Rule::AndAll => Formula::and(vec![a.clone(), b.clone()]),
            Lemma1Rule::OrSome | Lemma1Rule::OrAll => Formula::or(vec![a.clone(), b.clone()]),
        };
        let q = rule.quantifier();
        Ok(Formula::Quant {
            q,
            var: var.clone(),
            range: range.clone(),
            body: Box::new(combined),
        })
    }

    /// The left-hand side of a Lemma 1 rule, for tests and documentation:
    /// `A <op> (Q var IN range (B))`.
    fn lemma1_lhs(
        rule: Lemma1Rule,
        a: &Formula,
        var: &VarName,
        range: &RangeExpr,
        b: &Formula,
    ) -> Formula {
        let quantified = Formula::Quant {
            q: rule.quantifier(),
            var: var.clone(),
            range: range.clone(),
            body: Box::new(b.clone()),
        };
        match rule {
            Lemma1Rule::AndSome | Lemma1Rule::AndAll => Formula::and(vec![a.clone(), quantified]),
            Lemma1Rule::OrSome | Lemma1Rule::OrAll => Formula::or(vec![a.clone(), quantified]),
        }
    }

    /// The value the empty-range case collapses to, for the conditional rules:
    /// rule 2 and rule 3 both collapse to `A` when `rel = []`.
    fn lemma1_empty_case(rule: Lemma1Rule, a: &Formula) -> Option<Formula> {
        match rule {
            Lemma1Rule::OrSome | Lemma1Rule::AndAll => Some(a.clone()),
            _ => None,
        }
    }

    fn rel(name: &str, attrs: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = RelationSchema::all_key(
            name.to_string(),
            attrs
                .iter()
                .map(|a| Attribute::new(a.to_string(), ValueType::int()))
                .collect(),
        );
        let mut r = Relation::new(schema);
        for row in rows {
            r.insert(Tuple::new(row.iter().map(|&v| Value::int(v)).collect()))
                .unwrap();
        }
        r
    }

    fn db_with_papers(rows: &[&[i64]]) -> BTreeMap<String, Relation> {
        let mut db = BTreeMap::new();
        db.insert(
            "employees".to_string(),
            rel(
                "employees",
                &["enr", "estatus"],
                &[&[1, 3], &[2, 1], &[3, 3]],
            ),
        );
        db.insert(
            "papers".to_string(),
            rel("papers", &["penr", "pyear"], rows),
        );
        db.insert(
            "timetable".to_string(),
            rel("timetable", &["tenr", "tcnr"], &[&[1, 10], &[3, 11]]),
        );
        db.insert(
            "courses".to_string(),
            rel("courses", &["cnr", "clevel"], &[&[10, 0], &[11, 3]]),
        );
        db
    }

    fn cmp_vc(var: &str, attr: &str, op: CompareOp, c: i64) -> Formula {
        Formula::compare(Operand::comp(var, attr), op, Operand::constant(c))
    }
    fn cmp_vv(v1: &str, a1: &str, op: CompareOp, v2: &str, a2: &str) -> Formula {
        Formula::compare(Operand::comp(v1, a1), op, Operand::comp(v2, a2))
    }

    /// Checks formula equivalence for every binding of the free variable `e`
    /// over `employees`.
    fn equivalent_over_e(db: &BTreeMap<String, Relation>, f1: &Formula, f2: &Formula) -> bool {
        let employees = db.get("employees").unwrap();
        for t in employees.tuples() {
            let mut env = Env::new();
            env.insert(
                "e".to_string(),
                Binding {
                    schema: employees.schema().clone(),
                    tuple: t.clone(),
                },
            );
            let a = eval_formula(f1, db, &env).unwrap();
            let b = eval_formula(f2, db, &env).unwrap();
            if a != b {
                return false;
            }
        }
        true
    }

    fn a_formula() -> Formula {
        cmp_vc("e", "estatus", CompareOp::Eq, 3)
    }
    fn b_formula() -> Formula {
        cmp_vv("p", "penr", CompareOp::Eq, "e", "enr")
    }
    fn p_range() -> RangeExpr {
        RangeExpr::relation("papers")
    }
    fn p_var() -> VarName {
        VarName::from("p")
    }

    #[test]
    fn rule_properties() {
        assert!(Lemma1Rule::AndSome.is_unconditional());
        assert!(Lemma1Rule::OrAll.is_unconditional());
        assert!(!Lemma1Rule::OrSome.is_unconditional());
        assert!(!Lemma1Rule::AndAll.is_unconditional());
        assert_eq!(Lemma1Rule::AndSome.quantifier(), Quantifier::Some);
        assert_eq!(Lemma1Rule::AndAll.quantifier(), Quantifier::All);
        assert!(lemma1_empty_case(Lemma1Rule::AndSome, &a_formula()).is_none());
        assert!(lemma1_empty_case(Lemma1Rule::OrSome, &a_formula()).is_some());
    }

    #[test]
    fn lemma1_side_condition_is_checked() {
        // A mentions p: not applicable.
        let bad_a = cmp_vc("p", "pyear", CompareOp::Eq, 1977);
        assert!(apply_lemma1(
            Lemma1Rule::AndSome,
            &bad_a,
            &p_var(),
            &p_range(),
            &b_formula()
        )
        .is_err());
    }

    #[test]
    fn unconditional_rules_hold_even_for_empty_relations() {
        for rows in [&[][..], &[&[1i64, 1977][..], &[3, 1975]][..]] {
            let db = db_with_papers(rows);
            for rule in [Lemma1Rule::AndSome, Lemma1Rule::OrAll] {
                let lhs = lemma1_lhs(rule, &a_formula(), &p_var(), &p_range(), &b_formula());
                let rhs =
                    apply_lemma1(rule, &a_formula(), &p_var(), &p_range(), &b_formula()).unwrap();
                assert!(
                    equivalent_over_e(&db, &lhs, &rhs),
                    "rule {rule:?} failed on papers={rows:?}"
                );
            }
        }
    }

    #[test]
    fn conditional_rules_hold_for_nonempty_relations() {
        let db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        for rule in [Lemma1Rule::OrSome, Lemma1Rule::AndAll] {
            let lhs = lemma1_lhs(rule, &a_formula(), &p_var(), &p_range(), &b_formula());
            let rhs = apply_lemma1(rule, &a_formula(), &p_var(), &p_range(), &b_formula()).unwrap();
            assert!(
                equivalent_over_e(&db, &lhs, &rhs),
                "rule {rule:?} failed on non-empty papers"
            );
        }
    }

    #[test]
    fn conditional_rules_break_on_empty_relations_and_collapse_to_a() {
        // This is the "unexpected results" the paper warns about: with
        // papers = [], moving the quantifier changes the meaning; the correct
        // equivalent is just A.
        let db = db_with_papers(&[]);
        for rule in [Lemma1Rule::OrSome, Lemma1Rule::AndAll] {
            let lhs = lemma1_lhs(rule, &a_formula(), &p_var(), &p_range(), &b_formula());
            let rhs = apply_lemma1(rule, &a_formula(), &p_var(), &p_range(), &b_formula()).unwrap();
            assert!(
                !equivalent_over_e(&db, &lhs, &rhs),
                "rule {rule:?} unexpectedly held on empty papers"
            );
            let collapsed = lemma1_empty_case(rule, &a_formula()).unwrap();
            assert!(
                equivalent_over_e(&db, &lhs, &collapsed),
                "empty-range case of {rule:?} must collapse to A"
            );
        }
    }

    /// Example 2.1 formula with integer stand-ins.
    fn example_formula() -> Formula {
        Formula::and(vec![
            cmp_vc("e", "estatus", CompareOp::Eq, 3),
            Formula::or(vec![
                Formula::all(
                    "p",
                    RangeExpr::relation("papers"),
                    Formula::or(vec![
                        cmp_vc("p", "pyear", CompareOp::Ne, 1977),
                        cmp_vv("e", "enr", CompareOp::Ne, "p", "penr"),
                    ]),
                ),
                Formula::some(
                    "c",
                    RangeExpr::relation("courses"),
                    Formula::and(vec![
                        cmp_vc("c", "clevel", CompareOp::Le, 1),
                        Formula::some(
                            "t",
                            RangeExpr::relation("timetable"),
                            Formula::and(vec![
                                cmp_vv("c", "cnr", CompareOp::Eq, "t", "tcnr"),
                                cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
                            ]),
                        ),
                    ]),
                ),
            ]),
        ])
    }

    fn example_selection() -> Selection {
        Selection::new(
            "enames",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            example_formula(),
        )
    }

    #[test]
    fn adaptation_for_empty_papers_matches_example_2_2() {
        // "If papers = [], this must be changed to
        //    enames := [<e.ename> OF EACH e IN employees: e.estatus = professor]"
        let empty = [Assumption::new("p", p_range())];
        let adapted = adapt_formula_for_empty(&example_formula(), &empty);
        // ALL p over the empty papers is true, so the OR collapses and only
        // the professor test remains.
        assert_eq!(adapted, cmp_vc("e", "estatus", CompareOp::Eq, 3));
    }

    #[test]
    fn naive_standard_form_is_wrong_for_empty_papers_but_adaptation_fixes_it() {
        // The paper: "In contrast, the above normal form would return the
        // names of all employees."
        let db = db_with_papers(&[]);
        let sel = example_selection();
        let truth = eval_selection(&sel, &db).unwrap();
        // The correct answer: only professors (employees 1 and 3).
        assert_eq!(truth.cardinality(), 2);

        // Evaluating the un-adapted standard form over the empty database
        // yields a different (wrong) answer, because the standard form
        // assumed papers to be non-empty.
        let std_sel = standardize(&sel);
        let unadapted = eval_selection(&std_sel.to_selection(), &db).unwrap();
        assert!(
            !truth.set_eq(&unadapted),
            "un-adapted standard form should disagree when papers = []"
        );

        // Adapting the original selection and then standardizing again gives
        // the right answer.
        let empty = [Assumption::new("p", p_range())];
        let adapted = adapt_selection_for_empty(&sel, &empty);
        let adapted_std = standardize(&adapted);
        let fixed = eval_selection(&adapted_std.to_selection(), &db).unwrap();
        assert!(truth.set_eq(&fixed));
    }

    #[test]
    fn adaptation_for_empty_courses_keeps_the_universal_branch() {
        let empty = [Assumption::new("c", RangeExpr::relation("courses"))];
        let adapted = adapt_formula_for_empty(&example_formula(), &empty);
        // SOME c over empty courses is false; the ALL p branch must remain.
        let text = adapted.to_string();
        assert!(text.contains("ALL p IN papers"), "{text}");
        assert!(!text.contains("courses"), "{text}");

        // And the adapted formula agrees with the original on a database
        // where courses is indeed empty.
        let mut db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        db.insert(
            "courses".to_string(),
            rel("courses", &["cnr", "clevel"], &[]),
        );
        assert!(equivalent_over_e(&db, &example_formula(), &adapted));
    }

    #[test]
    fn adaptation_with_no_empty_relations_is_identity_up_to_simplification() {
        let adapted = adapt_formula_for_empty(&example_formula(), &[]);
        let db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        assert!(equivalent_over_e(&db, &example_formula(), &adapted));
    }

    #[test]
    fn adaptation_for_empty_free_range_gives_false_formula() {
        let empty = [Assumption::new("e", RangeExpr::relation("employees"))];
        let adapted = adapt_selection_for_empty(&example_selection(), &empty);
        assert!(adapted.formula.is_falsity());
        // Evaluating it still yields a well-typed empty result.
        let mut db = db_with_papers(&[&[1, 1977]]);
        db.insert(
            "employees".to_string(),
            rel("employees", &["enr", "estatus"], &[]),
        );
        let result = eval_selection(&adapted, &db).unwrap();
        assert_eq!(result.cardinality(), 0);
    }

    #[test]
    fn adaptation_handles_nested_quantifiers_over_empty_inner_range() {
        // SOME c IN courses (... SOME t IN timetable (...)) with timetable
        // empty: the inner SOME becomes false, which makes the c-branch
        // false; the ALL p branch survives.
        let empty = [Assumption::new("t", RangeExpr::relation("timetable"))];
        let adapted = adapt_formula_for_empty(&example_formula(), &empty);
        let text = adapted.to_string();
        assert!(!text.contains("timetable"), "{text}");
        assert!(!text.contains("SOME c"), "{text}");
        assert!(text.contains("ALL p"), "{text}");

        let mut db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        db.insert(
            "timetable".to_string(),
            rel("timetable", &["tenr", "tcnr"], &[]),
        );
        assert!(equivalent_over_e(&db, &example_formula(), &adapted));
    }

    // One test per kind of assumption: the prepared form is wrong when the
    // assumed range is empty, and re-standardizing the adapted selection is
    // right.

    fn over_e(formula: Formula) -> Selection {
        Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            formula,
        )
    }

    fn range_is_empty(assumed: &Assumption, db: &BTreeMap<String, Relation>) -> bool {
        let some = Formula::some(
            assumed.var.as_ref(),
            assumed.range.clone(),
            Formula::truth(),
        );
        !eval_formula(&some, db, &Env::new()).unwrap()
    }

    /// Checks that `assumed` is one of `prepared`'s assumptions, that its
    /// range is empty in `db`, that `prepared` then disagrees with `sel`, and
    /// that the adapted selection's standard form (with and without
    /// Strategy 3) agrees.
    fn check_adaptation(
        sel: &Selection,
        prepared: &StandardizedSelection,
        assumed: &Assumption,
        db: &BTreeMap<String, Relation>,
    ) {
        assert!(
            prepared.form.assumptions.contains(assumed),
            "{assumed} not in {:?}",
            prepared.form.assumptions
        );
        assert!(range_is_empty(assumed, db), "{assumed} is not empty");
        let truth = eval_selection(sel, db).unwrap();
        let wrong = eval_selection(&prepared.to_selection(), db).unwrap();
        assert!(
            !truth.set_eq(&wrong),
            "the prepared form relies on {assumed}"
        );
        let adapted = adapt_selection_for_empty(sel, std::slice::from_ref(assumed));
        let standard = standardize(&adapted);
        let fixed = eval_selection(&standard.to_selection(), db).unwrap();
        assert!(truth.set_eq(&fixed), "adapted: {}", adapted.formula);
        let (extended, _) = extend_ranges(&standard, ExtendOptions::default());
        let fixed = eval_selection(&extended.to_selection(), db).unwrap();
        assert!(truth.set_eq(&fixed), "adapted, Strategy 3: {extended}");
    }

    fn no_papers_from_1900() -> RangeExpr {
        RangeExpr::restricted("papers", cmp_vc("p", "pyear", CompareOp::Eq, 1900))
    }

    #[test]
    fn a_some_pulled_across_or_over_an_empty_restricted_range_is_adapted() {
        let db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        let sel = over_e(Formula::or(vec![
            a_formula(),
            Formula::some("p", no_papers_from_1900(), b_formula()),
        ]));
        let assumed = Assumption::new("p", no_papers_from_1900());
        check_adaptation(&sel, &standardize(&sel), &assumed, &db);
    }

    #[test]
    fn an_all_pulled_across_and_over_an_empty_restricted_range_is_adapted() {
        let db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        let sel = over_e(Formula::and(vec![
            a_formula(),
            Formula::all("p", no_papers_from_1900(), b_formula()),
        ]));
        let assumed = Assumption::new("p", no_papers_from_1900());
        check_adaptation(&sel, &standardize(&sel), &assumed, &db);
    }

    #[test]
    fn a_dropped_vacuous_quantifier_over_an_empty_range_is_adapted() {
        // SOME p over an empty range never mentions p: the planner drops it
        // and records the assumption, as here.
        let db = db_with_papers(&[&[1, 1977], &[3, 1975]]);
        let sel = over_e(Formula::some("p", no_papers_from_1900(), a_formula()));
        let mut prepared = standardize(&sel);
        let entry = prepared.form.prefix.remove(0);
        prepared.form.assume_nonempty(&entry.var, &entry.range);
        let assumed = Assumption::new("p", no_papers_from_1900());
        check_adaptation(&sel, &prepared, &assumed, &db);
    }

    #[test]
    fn an_empty_distributive_hoist_makes_its_term_false_not_its_quantifier() {
        // SOME c IN courses ((c.clevel = 2 AND c.cnr = e.enr) OR e is a
        // professor): no course is at level 2, but courses is not empty, so
        // the answer is the professors — substituting the quantifier would
        // give nobody.
        let db = db_with_papers(&[&[1, 1977]]);
        let sel = over_e(Formula::some(
            "c",
            RangeExpr::relation("courses"),
            Formula::or(vec![
                Formula::and(vec![
                    cmp_vc("c", "clevel", CompareOp::Eq, 2),
                    cmp_vv("c", "cnr", CompareOp::Eq, "e", "enr"),
                ]),
                a_formula(),
            ]),
        ));
        let (prepared, report) = extend_ranges(&standardize(&sel), ExtendOptions::default());
        assert_eq!(
            report.hoists[0].kind,
            crate::transform::HoistKind::Distributive
        );
        let assumed = Assumption::new("c", prepared.range_of("c").unwrap().clone());
        check_adaptation(&sel, &prepared, &assumed, &db);
        let whole = adapt_selection_for_empty(
            &sel,
            &[Assumption::new("c", RangeExpr::relation("courses"))],
        );
        let truth = eval_selection(&sel, &db).unwrap();
        assert!(!truth.set_eq(&eval_selection(&whole, &db).unwrap()));
    }

    #[test]
    fn an_empty_exact_hoist_makes_its_term_false() {
        // SOME c IN courses (c.clevel = 2) AND e is a professor: the exact
        // hoist leaves c vacuous; the drop assumes the extended range.
        let db = db_with_papers(&[&[1, 1977]]);
        let sel = over_e(Formula::and(vec![
            Formula::some(
                "c",
                RangeExpr::relation("courses"),
                cmp_vc("c", "clevel", CompareOp::Eq, 2),
            ),
            a_formula(),
        ]));
        let (mut prepared, report) = extend_ranges(&standardize(&sel), ExtendOptions::default());
        assert!(report
            .hoists
            .iter()
            .any(|h| h.var.as_ref() == "c" && h.kind == crate::transform::HoistKind::Exact));
        let entry = prepared.form.prefix.remove(0);
        prepared.form.assume_nonempty(&entry.var, &entry.range);
        let assumed = Assumption::new("c", entry.range.clone());
        check_adaptation(&sel, &prepared, &assumed, &db);
    }

    #[test]
    fn an_empty_universal_complement_makes_its_terms_true() {
        // ALL p IN papers (p.pyear <> 1977 OR e is a professor): the
        // complement hoist restricts p to 1977 papers and leaves p vacuous.
        // With no 1977 paper every employee qualifies.
        let db = db_with_papers(&[&[1, 1975], &[3, 1976]]);
        let sel = over_e(Formula::all(
            "p",
            p_range(),
            Formula::or(vec![cmp_vc("p", "pyear", CompareOp::Ne, 1977), a_formula()]),
        ));
        let (mut prepared, report) = extend_ranges(&standardize(&sel), ExtendOptions::default());
        assert_eq!(
            report.hoists[0].kind,
            crate::transform::HoistKind::UniversalComplement
        );
        let entry = prepared.form.prefix.remove(0);
        prepared.form.assume_nonempty(&entry.var, &entry.range);
        let assumed = Assumption::new("p", entry.range.clone());
        check_adaptation(&sel, &prepared, &assumed, &db);
    }
}
