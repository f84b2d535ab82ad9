//! Logic-based query transformations (Section 4.3 and parts of 4.4/2).
//!
//! * [`extend_ranges`] — Strategy 3, *extended range expressions*: replace
//!   database range relations by relational expressions over them, using the
//!   quantifier-aware equivalences
//!   `SOME rec IN rel (S(rec) AND WFF) = SOME rec IN [EACH r IN rel: S(r)] (WFF)`
//!   and
//!   `ALL rec IN rel (NOT S(rec) OR WFF) = ALL rec IN [EACH r IN rel: S(r)] (WFF)`,
//!   with free variables handled as if existentially quantified.
//! * [`separate_existential`] — the Section 2 observation that for queries
//!   with only existential quantification each conjunction of the standard
//!   form can be evaluated separately.
//! * [`swap_adjacent_quantifiers`] — quantifier swapping used by Strategy 4
//!   ("Quantifiers may be swapped, if they are equal, or by application of
//!   the various forms of Lemma 1").

#[cfg(test)]
use crate::ast::RangeDecl;
use crate::ast::{Formula, Quantifier, Term, VarName};
use crate::error::CalculusError;
use crate::normalize::{Conjunction, StandardForm, StandardizedSelection};

/// How a monadic restriction was hoisted into a range expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoistKind {
    /// The term was a conjunct of *every* conjunction of the matrix
    /// (exact factorization) — unconditionally valid.
    Exact,
    /// The term was a conjunct of every conjunction *mentioning the
    /// variable*, but other conjunctions exist — valid provided the extended
    /// range is non-empty (recorded in [`StandardForm::assumptions`]).
    Distributive,
    /// A conjunction consisting solely of monadic terms over a universally
    /// quantified variable was folded into the range as its negation —
    /// unconditionally valid.
    UniversalComplement,
}

/// One hoist performed by [`extend_ranges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hoist {
    /// The variable whose range was extended.
    pub var: VarName,
    /// The terms moved into the range restriction (for
    /// [`HoistKind::UniversalComplement`] these are the *original* matrix
    /// terms; the restriction stores their negation).
    pub terms: Vec<Term>,
    /// The kind of hoist.
    pub kind: HoistKind,
}

/// Report of an [`extend_ranges`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtendReport {
    /// All hoists performed, in order.
    pub hoists: Vec<Hoist>,
    /// Number of whole conjunctions removed from the matrix.
    pub removed_conjunctions: usize,
}

impl ExtendReport {
    /// Whether the transformation changed anything.
    pub fn changed(&self) -> bool {
        !self.hoists.is_empty()
    }
}

/// Options controlling [`extend_ranges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendOptions {
    /// Whether disjunctive restrictions may be generated when folding a
    /// multi-term pure conjunction of a universally quantified variable into
    /// its range.  The paper's "current system version supports only
    /// conjunctions of join terms as range expression extensions"; setting
    /// this reproduces the "more general conjunctive normal form" extension
    /// the paper expects to improve efficiency further.
    pub allow_disjunctive: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarRole {
    Free,
    Existential,
    Universal,
}

/// Strategy 3: extend range expressions by hoisting monadic join terms out of
/// the matrix.  Returns the transformed selection and a report of what was
/// hoisted.
pub fn extend_ranges(
    input: &StandardizedSelection,
    options: ExtendOptions,
) -> (StandardizedSelection, ExtendReport) {
    let mut sel = input.clone();
    let mut report = ExtendReport::default();

    loop {
        let mut changed = false;

        // Roles of all variables, in a stable order: free first, then prefix.
        let mut vars: Vec<(VarName, VarRole)> = sel
            .free
            .iter()
            .map(|d| (d.var.clone(), VarRole::Free))
            .collect();
        vars.extend(sel.form.prefix.iter().map(|p| {
            (
                p.var.clone(),
                match p.q {
                    Quantifier::Some => VarRole::Existential,
                    Quantifier::All => VarRole::Universal,
                },
            )
        }));

        // 1. Common-factor hoists for free and existentially quantified
        //    variables.
        for (var, role) in &vars {
            if matches!(role, VarRole::Universal) {
                continue;
            }
            if sel.form.matrix_is_true() || sel.form.matrix_is_false() {
                break;
            }
            let mentioning = sel.form.conjunctions_mentioning(var);
            if mentioning.is_empty() {
                continue;
            }
            // Candidate terms: monadic constant comparisons over `var` in the
            // first mentioning conjunction.
            // Parameter placeholders count as constants here so that a
            // prepared query plans into the same shape as the query with the
            // constants inlined.
            let candidates: Vec<Term> = sel.form.matrix[mentioning[0]]
                .monadic_terms_over(var)
                .into_iter()
                .filter(|t| t.as_monadic_scalar(var).is_some())
                .cloned()
                .collect();
            for term in candidates {
                let in_all_mentioning = mentioning
                    .iter()
                    .all(|&i| sel.form.matrix[i].terms.contains(&term));
                if !in_all_mentioning {
                    continue;
                }
                let exact = mentioning.len() == sel.form.matrix.len();
                // Free variables only admit the exact (unconditional) hoist:
                // a conjunction that does not mention a free variable makes
                // every binding of it qualify, which a restricted range would
                // wrongly exclude.
                if matches!(role, VarRole::Free) && !exact {
                    continue;
                }
                // Perform the hoist: remove the term from the mentioning
                // conjunctions and extend the variable's range.
                for &i in &mentioning {
                    sel.form.matrix[i].terms.retain(|t| t != &term);
                }
                let restriction = Formula::Term(term.clone());
                extend_var_range(&mut sel, var, restriction);
                let kind = if exact {
                    HoistKind::Exact
                } else {
                    HoistKind::Distributive
                };
                if kind == HoistKind::Exact {
                    // The term leaves the matrix past the universal
                    // quantifiers inside `var` (rule 3).
                    assume_inner(&mut sel, var, Quantifier::All);
                } else if let Some(range) = sel.range_of(var).cloned() {
                    sel.form.assume_nonempty(var, &range);
                }
                report.hoists.push(Hoist {
                    var: var.clone(),
                    terms: vec![term],
                    kind,
                });
                changed = true;
                // The matrix changed; recompute from scratch.
                break;
            }
            if changed {
                break;
            }
        }
        if changed {
            normalize_matrix(&mut sel.form);
            continue;
        }

        // 2. Complement hoists for universally quantified variables: a
        //    conjunction consisting solely of monadic terms over the variable
        //    is folded into the range as its negation.
        for (var, role) in &vars {
            if !matches!(role, VarRole::Universal) {
                continue;
            }
            if sel.form.matrix.len() < 2 {
                // Keep the degenerate single-conjunction case in the matrix;
                // hoisting it would leave a `false` matrix that no longer
                // names the quantified condition.
                continue;
            }
            let position = sel.form.matrix.iter().position(|c| {
                c.is_purely_over(var)
                    && c.terms.iter().all(|t| t.as_monadic_scalar(var).is_some())
                    && (c.terms.len() == 1 || options.allow_disjunctive)
            });
            if let Some(idx) = position {
                let conj = sel.form.matrix.remove(idx);
                let negated: Vec<Formula> = conj
                    .terms
                    .iter()
                    .map(|t| Formula::Term(t.negate()))
                    .collect();
                // `Formula::or` already collapses a singleton to its only
                // element, so no special case is needed here.
                let restriction = Formula::or(negated);
                extend_var_range(&mut sel, var, restriction);
                // A disjunct of the whole matrix leaves it past the
                // existential quantifiers inside `var` (rule 2).
                assume_inner(&mut sel, var, Quantifier::Some);
                report.hoists.push(Hoist {
                    var: var.clone(),
                    terms: conj.terms.clone(),
                    kind: HoistKind::UniversalComplement,
                });
                report.removed_conjunctions += 1;
                changed = true;
                break;
            }
        }

        if !changed {
            break;
        }
        normalize_matrix(&mut sel.form);
    }

    (sel, report)
}

/// Assumes non-empty the ranges of the `q` quantifiers inside `var` (all of
/// them for a free variable), which moving `var`'s term out of the matrix
/// crosses (Lemma 1).
fn assume_inner(sel: &mut StandardizedSelection, var: &str, q: Quantifier) {
    let outer = sel.form.prefix.iter().position(|p| p.var.as_ref() == var);
    let inner = &sel.form.prefix[outer.map_or(0, |i| i + 1)..];
    let crossed: Vec<_> = inner.iter().filter(|p| p.q == q).cloned().collect();
    for p in crossed {
        sel.form.assume_nonempty(&p.var, &p.range);
    }
}

/// Conjoins `restriction` onto the range of `var`, wherever it is declared
/// (free list or prefix).
fn extend_var_range(sel: &mut StandardizedSelection, var: &str, restriction: Formula) {
    if let Some(decl) = sel.free.iter_mut().find(|d| d.var.as_ref() == var) {
        decl.range = decl.range.and_restrict(restriction);
        return;
    }
    if let Some(entry) = sel.form.prefix.iter_mut().find(|p| p.var.as_ref() == var) {
        entry.range = entry.range.and_restrict(restriction);
    }
}

/// Re-establishes the matrix invariants after term removal: an empty
/// conjunction makes the whole matrix `true`; duplicate conjunctions are
/// dropped.
fn normalize_matrix(form: &mut StandardForm) {
    if form.matrix.iter().any(Conjunction::is_truth) {
        form.matrix = vec![Conjunction::truth()];
        return;
    }
    let mut seen: Vec<Conjunction> = Vec::with_capacity(form.matrix.len());
    for c in form.matrix.drain(..) {
        if !seen.contains(&c) {
            seen.push(c);
        }
    }
    form.matrix = seen;
}

/// Separation of conjunctions for queries with only existential
/// quantification (Section 2):
/// `SOME rec IN rel (WFF1 OR WFF2)` is equivalent to
/// `SOME rec1 IN rel (WFF1) OR SOME rec2 IN rel (WFF2)`,
/// so each conjunction of the standard form can be evaluated separately and
/// the results united.
///
/// Returns one standardized selection per conjunction, each with the prefix
/// restricted to the variables that actually occur in it.  Fails with
/// [`CalculusError::NotApplicable`] if the prefix contains a universal
/// quantifier whose variable occurs in more than one conjunction (the case
/// the paper points out is *not* permitted).
pub fn separate_existential(
    input: &StandardizedSelection,
) -> Result<Vec<StandardizedSelection>, CalculusError> {
    for entry in &input.form.prefix {
        if entry.q == Quantifier::All {
            let occurrences = input.form.conjunctions_mentioning(&entry.var).len();
            if occurrences > 1 {
                return Err(CalculusError::NotApplicable {
                    detail: format!(
                        "variable {} is universally quantified and occurs in {} conjunctions; \
                         separation is only permitted when it occurs in at most one",
                        entry.var, occurrences
                    ),
                });
            }
        }
    }
    let mut out = Vec::with_capacity(input.form.matrix.len());
    for (i, conj) in input.form.matrix.iter().enumerate() {
        let vars = conj.vars();
        let prefix: Vec<_> = input
            .form
            .prefix
            .iter()
            .filter(|p| vars.contains(&p.var))
            .cloned()
            .collect();
        out.push(StandardizedSelection {
            target: format!("{}_{}", input.target, i + 1),
            components: input.components.clone(),
            free: input.free.clone(),
            form: StandardForm {
                prefix,
                matrix: vec![conj.clone()],
                assumptions: input.form.assumptions.clone(),
            },
        });
    }
    Ok(out)
}

/// Whether the adjacent prefix entries at positions `i` and `i + 1` may be
/// swapped: always when the quantifiers are equal, and also when either
/// variable does not occur in the matrix at all (a degenerate application of
/// Lemma 1).
pub fn can_swap_adjacent(form: &StandardForm, i: usize) -> bool {
    if i + 1 >= form.prefix.len() {
        return false;
    }
    let a = &form.prefix[i];
    let b = &form.prefix[i + 1];
    if a.q == b.q {
        return true;
    }
    let a_occurs = form.matrix.iter().any(|c| c.mentions(&a.var));
    let b_occurs = form.matrix.iter().any(|c| c.mentions(&b.var));
    !a_occurs || !b_occurs
}

/// Swaps the adjacent prefix entries at positions `i` and `i + 1`, if
/// permitted (see [`can_swap_adjacent`]).
pub fn swap_adjacent_quantifiers(
    input: &StandardizedSelection,
    i: usize,
) -> Result<StandardizedSelection, CalculusError> {
    if !can_swap_adjacent(&input.form, i) {
        return Err(CalculusError::NotApplicable {
            detail: format!(
                "prefix positions {i} and {} cannot be swapped (different quantifiers over \
                 variables that both occur in the matrix)",
                i + 1
            ),
        });
    }
    let mut out = input.clone();
    out.form.prefix.swap(i, i + 1);
    Ok(out)
}

/// Moves the prefix entry of `var` as far to the right (innermost) as the
/// swapping rules allow, returning the new selection and the final position.
/// Used by Strategy 4 to make the candidate variable innermost.
pub fn sink_variable(
    input: &StandardizedSelection,
    var: &str,
) -> Result<(StandardizedSelection, usize), CalculusError> {
    let Some(mut pos) = input.form.prefix.iter().position(|p| p.var.as_ref() == var) else {
        return Err(CalculusError::NotApplicable {
            detail: format!("variable {var} is not in the quantifier prefix"),
        });
    };
    let mut current = input.clone();
    while pos + 1 < current.form.prefix.len() && can_swap_adjacent(&current.form, pos) {
        current = swap_adjacent_quantifiers(&current, pos)?;
        pos += 1;
    }
    Ok((current, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ComponentRef, Operand, RangeExpr, Selection};
    use crate::normalize::standardize;
    use crate::semantics::eval_selection;
    use pascalr_relation::{
        Attribute, CompareOp, Relation, RelationSchema, Tuple, Value, ValueType,
    };
    use std::collections::{BTreeMap, BTreeSet};

    /// The set of relations referenced by the extended ranges of a selection
    /// (useful to report what Strategy 3 produced).
    fn extended_range_relations(sel: &StandardizedSelection) -> BTreeSet<VarName> {
        let mut out = BTreeSet::new();
        for d in &sel.free {
            if d.range.is_restricted() {
                out.insert(d.var.clone());
            }
        }
        for p in &sel.form.prefix {
            if p.range.is_restricted() {
                out.insert(p.var.clone());
            }
        }
        out
    }

    fn cmp_vc(var: &str, attr: &str, op: CompareOp, c: i64) -> Formula {
        Formula::compare(Operand::comp(var, attr), op, Operand::constant(c))
    }
    fn cmp_vv(v1: &str, a1: &str, op: CompareOp, v2: &str, a2: &str) -> Formula {
        Formula::compare(Operand::comp(v1, a1), op, Operand::comp(v2, a2))
    }
    fn some(var: &str, rel_name: &str, body: Formula) -> Formula {
        Formula::some(var, RangeExpr::relation(rel_name), body)
    }
    fn all(var: &str, rel_name: &str, body: Formula) -> Formula {
        Formula::all(var, RangeExpr::relation(rel_name), body)
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

    fn db() -> BTreeMap<String, Relation> {
        let mut db = BTreeMap::new();
        db.insert(
            "employees".to_string(),
            rel(
                "employees",
                &["enr", "estatus"],
                &[&[1, 3], &[2, 1], &[3, 3], &[4, 3], &[5, 2]],
            ),
        );
        db.insert(
            "papers".to_string(),
            rel(
                "papers",
                &["penr", "pyear"],
                &[&[1, 1977], &[3, 1975], &[4, 1977], &[5, 1976], &[2, 1974]],
            ),
        );
        db.insert(
            "timetable".to_string(),
            rel(
                "timetable",
                &["tenr", "tcnr"],
                &[&[1, 10], &[3, 11], &[3, 12], &[4, 12], &[2, 10]],
            ),
        );
        db.insert(
            "courses".to_string(),
            rel(
                "courses",
                &["cnr", "clevel"],
                &[&[10, 0], &[11, 3], &[12, 1], &[13, 2]],
            ),
        );
        db
    }

    /// Example 2.1 (professor = 3, sophomore = 1).
    fn example_selection() -> Selection {
        Selection::new(
            "enames",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::and(vec![
                cmp_vc("e", "estatus", CompareOp::Eq, 3),
                Formula::or(vec![
                    all(
                        "p",
                        "papers",
                        Formula::or(vec![
                            cmp_vc("p", "pyear", CompareOp::Ne, 1977),
                            cmp_vv("e", "enr", CompareOp::Ne, "p", "penr"),
                        ]),
                    ),
                    some(
                        "c",
                        "courses",
                        Formula::and(vec![
                            cmp_vc("c", "clevel", CompareOp::Le, 1),
                            some(
                                "t",
                                "timetable",
                                Formula::and(vec![
                                    cmp_vv("c", "cnr", CompareOp::Eq, "t", "tcnr"),
                                    cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
                                ]),
                            ),
                        ]),
                    ),
                ]),
            ]),
        )
    }

    #[test]
    fn example_4_5_extended_ranges() {
        // Strategy 3 applied to Example 2.2 must:
        //  * extend e's range with the professor test (exact hoist),
        //  * extend c's range with the sophomore test (distributive hoist),
        //  * extend p's range with pyear = 1977 (universal complement of the
        //    pyear <> 1977 conjunction), removing one conjunction,
        //  * leave t's range alone.
        let std_sel = standardize(&example_selection());
        assert_eq!(std_sel.form.conjunction_count(), 3);
        let (extended, report) = extend_ranges(&std_sel, ExtendOptions::default());

        assert!(report.changed());
        assert_eq!(report.removed_conjunctions, 1);
        assert_eq!(extended.form.conjunction_count(), 2);

        // e: restricted by estatus = 3
        let e_range = extended.range_of("e").unwrap();
        assert!(e_range.is_restricted());
        assert!(e_range.display_for("e").contains("estatus"));
        // c: restricted by clevel <= 1
        let c_range = extended.range_of("c").unwrap();
        assert!(c_range.is_restricted());
        assert!(c_range.display_for("c").contains("clevel"));
        // p: restricted by pyear = 1977 (the complement of <>)
        let p_range = extended.range_of("p").unwrap();
        assert!(p_range.is_restricted());
        let p_text = p_range.display_for("p");
        assert!(p_text.contains("pyear = 1977"), "{p_text}");
        // t: unrestricted
        assert!(!extended.range_of("t").unwrap().is_restricted());

        // Hoist kinds are as analysed above.
        let kind_of = |v: &str| {
            report
                .hoists
                .iter()
                .find(|h| h.var.as_ref() == v)
                .map(|h| h.kind)
        };
        assert_eq!(kind_of("e"), Some(HoistKind::Exact));
        assert_eq!(kind_of("c"), Some(HoistKind::Distributive));
        assert_eq!(kind_of("p"), Some(HoistKind::UniversalComplement));
        // The distributive hoist recorded its assumption, with the extended
        // range, after standardize's own.
        let added = &extended.form.assumptions[std_sel.form.assumptions.len()..];
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].var.as_ref(), "c");
        assert_eq!(Some(&added[0].range), extended.range_of("c"));
    }

    #[test]
    fn extended_ranges_preserve_semantics_on_nonempty_database() {
        let database = db();
        let sel = example_selection();
        let std_sel = standardize(&sel);
        let (extended, _) = extend_ranges(&std_sel, ExtendOptions::default());
        let truth = eval_selection(&sel, &database).unwrap();
        let transformed = eval_selection(&extended.to_selection(), &database).unwrap();
        assert!(
            truth.set_eq(&transformed),
            "Strategy 3 changed the result:\n{truth}\nvs\n{transformed}"
        );
    }

    #[test]
    fn distributive_assumption_matters_when_extended_range_is_empty() {
        // Remove all sophomore-level courses: the extended range of c is
        // empty and the transformed query is NOT equivalent — which is
        // exactly why the assumption is recorded and checked at runtime.
        let mut database = db();
        database.insert(
            "courses".to_string(),
            rel("courses", &["cnr", "clevel"], &[&[11, 3], &[13, 2]]),
        );
        let sel = example_selection();
        let std_sel = standardize(&sel);
        let (extended, _) = extend_ranges(&std_sel, ExtendOptions::default());
        assert!(extended.form.assumptions.len() > std_sel.form.assumptions.len());
        let truth = eval_selection(&sel, &database).unwrap();
        let transformed = eval_selection(&extended.to_selection(), &database).unwrap();
        assert!(
            !truth.set_eq(&transformed),
            "with an empty extended range the forms should differ (that is the point of the assumption)"
        );
    }

    #[test]
    fn hoists_record_the_quantifiers_they_cross() {
        // ALL p IN papers ((p.pyear <> 1977 OR p.penr <> e.enr) AND
        // e.estatus <> 1): the free variable's term is in every conjunction,
        // so it moves into e's range past ALL p — valid only if papers is
        // non-empty; with papers = [] every employee qualifies.
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            all(
                "p",
                "papers",
                Formula::and(vec![
                    Formula::or(vec![
                        cmp_vc("p", "pyear", CompareOp::Ne, 1977),
                        cmp_vv("p", "penr", CompareOp::Ne, "e", "enr"),
                    ]),
                    cmp_vc("e", "estatus", CompareOp::Ne, 1),
                ]),
            ),
        );
        let std_sel = standardize(&sel);
        assert!(std_sel.form.assumptions.is_empty());
        let (extended, report) = extend_ranges(&std_sel, ExtendOptions::default());
        assert_eq!(report.hoists[0].kind, HoistKind::Exact);
        let vars: Vec<&str> = extended
            .form
            .assumptions
            .iter()
            .map(|a| a.var.as_ref())
            .collect();
        assert_eq!(vars, vec!["p"]);
        let mut database = db();
        database.insert("papers".to_string(), rel("papers", &["penr", "pyear"], &[]));
        let truth = eval_selection(&sel, &database).unwrap();
        let transformed = eval_selection(&extended.to_selection(), &database).unwrap();
        assert!(!truth.set_eq(&transformed));
    }

    #[test]
    fn free_variable_only_gets_exact_hoists() {
        // Query: e free, matrix = (e.estatus=3 AND e.enr>2) OR (t-join without e-status)
        // The professor test is NOT in the second conjunction, so it must not
        // be hoisted into e's range.
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::or(vec![
                Formula::and(vec![
                    cmp_vc("e", "estatus", CompareOp::Eq, 3),
                    cmp_vc("e", "enr", CompareOp::Gt, 2),
                ]),
                some(
                    "t",
                    "timetable",
                    cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
                ),
            ]),
        );
        let std_sel = standardize(&sel);
        let (extended, report) = extend_ranges(&std_sel, ExtendOptions::default());
        assert!(!extended.range_of("e").unwrap().is_restricted());
        assert!(report.hoists.iter().all(|h| h.var.as_ref() != "e"));
        // Semantics must of course be preserved.
        let database = db();
        let truth = eval_selection(&sel, &database).unwrap();
        let transformed = eval_selection(&extended.to_selection(), &database).unwrap();
        assert!(truth.set_eq(&transformed));
    }

    #[test]
    fn multi_term_universal_conjunction_requires_disjunctive_mode() {
        // ALL p (pyear<>1977 AND penr<>1  OR  dyadic-term ...): the pure-p
        // conjunction has two terms, so folding it into the range produces a
        // disjunctive restriction, which only the extended mode performs.
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            all(
                "p",
                "papers",
                Formula::or(vec![
                    Formula::and(vec![
                        cmp_vc("p", "pyear", CompareOp::Ne, 1977),
                        cmp_vc("p", "penr", CompareOp::Ne, 1),
                    ]),
                    cmp_vv("p", "penr", CompareOp::Ne, "e", "enr"),
                ]),
            ),
        );
        let std_sel = standardize(&sel);
        let (basic, basic_report) = extend_ranges(&std_sel, ExtendOptions::default());
        assert!(!basic.range_of("p").unwrap().is_restricted());
        assert_eq!(basic_report.removed_conjunctions, 0);

        let (cnf, cnf_report) = extend_ranges(
            &std_sel,
            ExtendOptions {
                allow_disjunctive: true,
            },
        );
        assert!(cnf.range_of("p").unwrap().is_restricted());
        assert_eq!(cnf_report.removed_conjunctions, 1);
        assert_eq!(cnf_report.hoists[0].kind, HoistKind::UniversalComplement);

        // Both modes preserve semantics on the sample database.
        let database = db();
        let truth = eval_selection(&sel, &database).unwrap();
        for candidate in [&basic, &cnf] {
            let got = eval_selection(&candidate.to_selection(), &database).unwrap();
            assert!(truth.set_eq(&got));
        }
    }

    #[test]
    fn separation_splits_existential_queries_per_conjunction() {
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::or(vec![
                cmp_vc("e", "estatus", CompareOp::Eq, 1),
                some(
                    "t",
                    "timetable",
                    cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
                ),
            ]),
        );
        let std_sel = standardize(&sel);
        let parts = separate_existential(&std_sel).unwrap();
        assert_eq!(parts.len(), 2);
        // The conjunction without t gets an empty prefix; the other keeps t.
        let prefix_lens: BTreeSet<usize> = parts.iter().map(|p| p.form.prefix.len()).collect();
        assert_eq!(prefix_lens, [0usize, 1].into_iter().collect());

        // The tuples of the separately evaluated parts, together, are the
        // original result.
        let database = db();
        let truth = eval_selection(&sel, &database).unwrap();
        let mut union = Relation::new(truth.schema().clone());
        for p in &parts {
            let r = eval_selection(&p.to_selection(), &database).unwrap();
            union.insert_all(r.tuples().cloned()).unwrap();
        }
        assert!(truth.set_eq(&union));
    }

    #[test]
    fn separation_rejects_universal_variables_in_multiple_conjunctions() {
        let std_sel = standardize(&example_selection());
        assert!(matches!(
            separate_existential(&std_sel),
            Err(CalculusError::NotApplicable { .. })
        ));
    }

    #[test]
    fn separation_allows_universal_variable_in_single_conjunction() {
        // After Strategy 3, p occurs in only one conjunction (Example 4.6),
        // so separation becomes legal again.
        let std_sel = standardize(&example_selection());
        let (extended, _) = extend_ranges(&std_sel, ExtendOptions::default());
        assert_eq!(extended.form.conjunctions_mentioning("p").len(), 1);
        let parts = separate_existential(&extended).unwrap();
        assert_eq!(parts.len(), extended.form.conjunction_count());
    }

    #[test]
    fn quantifier_swapping_rules() {
        let std_sel = standardize(&example_selection());
        // prefix: ALL p, SOME c, SOME t
        assert!(!can_swap_adjacent(&std_sel.form, 0)); // ALL p / SOME c both occur
        assert!(can_swap_adjacent(&std_sel.form, 1)); // SOME c / SOME t equal
        assert!(!can_swap_adjacent(&std_sel.form, 7)); // out of range
        let swapped = swap_adjacent_quantifiers(&std_sel, 1).unwrap();
        let order: Vec<&str> = swapped.form.prefix.iter().map(|p| p.var.as_ref()).collect();
        assert_eq!(order, vec!["p", "t", "c"]);
        assert!(swap_adjacent_quantifiers(&std_sel, 0).is_err());

        // Swapping preserves semantics for equal quantifiers.
        let database = db();
        let a = eval_selection(&std_sel.to_selection(), &database).unwrap();
        let b = eval_selection(&swapped.to_selection(), &database).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn sink_variable_moves_to_the_innermost_allowed_position() {
        let std_sel = standardize(&example_selection());
        // c can sink past t (both SOME) to the innermost position.
        let (sunk, pos) = sink_variable(&std_sel, "c").unwrap();
        assert_eq!(pos, 2);
        let order: Vec<&str> = sunk.form.prefix.iter().map(|p| p.var.as_ref()).collect();
        assert_eq!(order, vec!["p", "t", "c"]);
        // p cannot move past the SOME variables that occur in the matrix.
        let (same, pos) = sink_variable(&std_sel, "p").unwrap();
        assert_eq!(pos, 0);
        assert_eq!(same.form.prefix[0].var.as_ref(), "p");
        assert!(sink_variable(&std_sel, "zz").is_err());
    }

    #[test]
    fn extended_range_relations_lists_restricted_vars() {
        let std_sel = standardize(&example_selection());
        assert!(extended_range_relations(&std_sel).is_empty());
        let (extended, _) = extend_ranges(&std_sel, ExtendOptions::default());
        let restricted = extended_range_relations(&extended);
        let names: Vec<&str> = restricted.iter().map(std::convert::AsRef::as_ref).collect();
        assert_eq!(names, vec!["c", "e", "p"]);
    }
}
