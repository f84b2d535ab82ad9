//! Standardization of selection expressions (Section 2).
//!
//! "Many systems evaluate queries directly as given by the user.  We prefer a
//! standardized starting point for optimization.  Therefore, the PASCAL/R
//! compiler transforms each selection expression into prenex normal form with
//! a matrix in disjunctive normal form.  It assumes that all range relations
//! are non-empty but provides information to adapt the standard form at
//! runtime if necessary."
//!
//! The pipeline implemented here is:
//!
//! 1. [`simplify`] — constant folding of `true`/`false`;
//! 2. [`to_nnf`] — push `NOT` inward (comparison operators absorb negation,
//!    quantifiers dualize);
//! 3. renaming apart — every quantifier gets a variable name distinct from
//!    all other bound and free variables, so quantifier extraction cannot
//!    capture variables;
//! 4. [`prenex`] — pull quantifiers into a prefix, recording which
//!    variables' ranges had to be *assumed non-empty* (Lemma 1 rules 2 and
//!    3);
//! 5. [`to_dnf`] — distribute the quantifier-free matrix into disjunctive
//!    normal form, with local simplifications (duplicate terms, contradictory
//!    conjunctions, absorbed constants).
//!
//! The result is a [`StandardForm`]; [`standardize`] runs the whole pipeline
//! on a [`Selection`].

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{
    ComponentRef, Formula, Quantifier, RangeDecl, RangeExpr, Selection, Term, VarName,
};

/// One entry of the quantifier prefix, e.g. `ALL p IN papers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixEntry {
    /// The quantifier.
    pub q: Quantifier,
    /// The bound variable.
    pub var: VarName,
    /// The range it is coupled to (possibly an extended range after
    /// Strategy 3).
    pub range: RangeExpr,
}

impl fmt::Display for PrefixEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} IN {}",
            self.q,
            self.var,
            self.range.display_for(&self.var)
        )
    }
}

/// A conjunction of join terms (one disjunct of the DNF matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunction {
    /// The AND-connected join terms.  An empty list denotes `true`.
    pub terms: Vec<Term>,
}

impl Conjunction {
    /// Creates a conjunction from terms.
    pub fn new(terms: Vec<Term>) -> Self {
        Conjunction { terms }
    }

    /// The trivially true conjunction.
    pub fn truth() -> Self {
        Conjunction { terms: Vec::new() }
    }

    /// Whether the conjunction is trivially true (no terms).
    pub fn is_truth(&self) -> bool {
        self.terms.is_empty()
    }

    /// The set of variables mentioned by the conjunction.
    pub fn vars(&self) -> BTreeSet<VarName> {
        let mut out = BTreeSet::new();
        for t in &self.terms {
            out.extend(t.vars());
        }
        out
    }

    /// Whether the conjunction mentions the variable.
    pub fn mentions(&self, var: &str) -> bool {
        self.terms.iter().any(|t| t.mentions(var))
    }

    /// The monadic terms over `var` contained in this conjunction.
    pub fn monadic_terms_over(&self, var: &str) -> Vec<&Term> {
        self.terms
            .iter()
            .filter(|t| t.is_monadic() && t.mentions(var))
            .collect()
    }

    /// The dyadic terms involving `var` contained in this conjunction.
    pub fn dyadic_terms_over(&self, var: &str) -> Vec<&Term> {
        self.terms
            .iter()
            .filter(|t| t.is_dyadic() && t.mentions(var))
            .collect()
    }

    /// Whether every term of the conjunction mentions only `var`.
    pub fn is_purely_over(&self, var: &str) -> bool {
        !self.terms.is_empty()
            && self.terms.iter().all(|t| {
                let vs = t.vars();
                vs.len() == 1 && vs.iter().next().map(std::convert::AsRef::as_ref) == Some(var)
            })
    }

    /// Converts the conjunction back into a formula.
    pub fn to_formula(&self) -> Formula {
        if self.terms.is_empty() {
            Formula::truth()
        } else {
            Formula::and(self.terms.iter().cloned().map(Formula::Term).collect())
        }
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "true");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// A range the prepared form relies on being non-empty: the variable (its
/// binder name after renaming apart) and its range when the assumption was
/// made.  [`prenex`] makes one per quantifier pulled by Lemma 1 rule 2 or 3,
/// Strategy 3 per hoist that crosses a quantifier or needs its extended
/// range non-empty, and the planner per vacuous variable dropped or
/// quantifier moved into the collection phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assumption {
    /// The variable whose range must be non-empty.
    pub var: VarName,
    /// The range as assumed.
    pub range: RangeExpr,
}

impl Assumption {
    /// Creates an assumption.
    pub fn new(var: impl Into<VarName>, range: RangeExpr) -> Self {
        Assumption {
            var: var.into(),
            range,
        }
    }
}

impl fmt::Display for Assumption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {}", self.var, self.range.display_for(&self.var))
    }
}

/// A selection expression in standard form: quantifier prefix plus a matrix
/// in disjunctive normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardForm {
    /// Quantifier prefix, outermost first.
    pub prefix: Vec<PrefixEntry>,
    /// The matrix as a disjunction of conjunctions.  An empty vector denotes
    /// `false`; a vector containing an empty conjunction denotes `true`.
    pub matrix: Vec<Conjunction>,
    /// The ranges this form relies on being non-empty, in the order the
    /// assumptions were made; the executor tests each at run time.
    pub assumptions: Vec<Assumption>,
}

impl StandardForm {
    /// Records that the form relies on `var`'s `range` being non-empty.
    pub fn assume_nonempty(&mut self, var: &VarName, range: &RangeExpr) {
        let assumption = Assumption::new(var.clone(), range.clone());
        if !self.assumptions.contains(&assumption) {
            self.assumptions.push(assumption);
        }
    }

    /// Whether the matrix is the constant `false`.
    pub fn matrix_is_false(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Whether the matrix is the constant `true`.
    pub fn matrix_is_true(&self) -> bool {
        self.matrix.iter().any(Conjunction::is_truth)
    }

    /// The prefix entry binding `var`, if any.
    pub fn prefix_entry(&self, var: &str) -> Option<&PrefixEntry> {
        self.prefix.iter().find(|p| p.var.as_ref() == var)
    }

    /// Number of conjunctions in the matrix.
    pub fn conjunction_count(&self) -> usize {
        self.matrix.len()
    }

    /// Total number of join terms in the matrix.
    pub fn term_count(&self) -> usize {
        self.matrix.iter().map(|c| c.terms.len()).sum()
    }

    /// The conjunctions that mention `var`.
    pub fn conjunctions_mentioning(&self, var: &str) -> Vec<usize> {
        self.matrix
            .iter()
            .enumerate()
            .filter(|(_, c)| c.mentions(var))
            .map(|(i, _)| i)
            .collect()
    }

    /// Reconstructs the equivalent formula (prefix wrapped around the matrix
    /// disjunction).  Used by tests to check equivalence with the original
    /// selection expression via the brute-force semantics.
    pub fn to_formula(&self) -> Formula {
        let matrix = if self.matrix.is_empty() {
            Formula::falsity()
        } else {
            Formula::or(self.matrix.iter().map(Conjunction::to_formula).collect())
        };
        self.prefix
            .iter()
            .rev()
            .fold(matrix, |body, entry| Formula::Quant {
                q: entry.q,
                var: entry.var.clone(),
                range: entry.range.clone(),
                body: Box::new(body),
            })
    }
}

impl fmt::Display for StandardForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.prefix {
            writeln!(f, "{p}")?;
        }
        if self.matrix.is_empty() {
            return write!(f, "  false");
        }
        for (i, c) in self.matrix.iter().enumerate() {
            if i > 0 {
                writeln!(f, "  OR")?;
            }
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// A selection whose formula has been brought into standard form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardizedSelection {
    /// Name of the target relation.
    pub target: String,
    /// The component selection (projection list).
    pub components: Vec<ComponentRef>,
    /// Range declarations of the free variables (possibly extended ranges
    /// after Strategy 3).
    pub free: Vec<RangeDecl>,
    /// The standard form of the selection expression.
    pub form: StandardForm,
}

impl StandardizedSelection {
    /// All variables: free variables then prefix variables.
    pub fn all_vars(&self) -> Vec<VarName> {
        let mut vars: Vec<VarName> = self.free.iter().map(|d| d.var.clone()).collect();
        vars.extend(self.form.prefix.iter().map(|p| p.var.clone()));
        vars
    }

    /// The range expression of a variable (free or quantified).
    pub fn range_of(&self, var: &str) -> Option<&RangeExpr> {
        if let Some(d) = self.free.iter().find(|d| d.var.as_ref() == var) {
            return Some(&d.range);
        }
        self.form.prefix_entry(var).map(|p| &p.range)
    }

    /// Reconstructs an equivalent plain [`Selection`] (used for oracle
    /// comparisons).
    pub fn to_selection(&self) -> Selection {
        Selection::new(
            self.target.clone(),
            self.components.clone(),
            self.free.clone(),
            self.form.to_formula(),
        )
    }
}

impl fmt::Display for StandardizedSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := [<", self.target)?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "> OF ")?;
        for (i, d) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        writeln!(f, ":")?;
        write!(f, "{}]", self.form)
    }
}

/// Constant folding: removes `true`/`false` sub-formulas where possible.
///
/// Only folds that hold over every range are made: `SOME v (false)` is
/// `false`, `ALL v (true)` is `true`, and a quantifier whose restriction is
/// `false` takes its empty-range value.
pub fn simplify(formula: &Formula) -> Formula {
    match formula {
        Formula::Term(_) => formula.clone(),
        Formula::Not(inner) => {
            let s = simplify(inner);
            match s {
                Formula::Term(t) => Formula::Term(t.negate()),
                other => Formula::not(other),
            }
        }
        Formula::And(parts) => {
            let mut out = Vec::new();
            for p in parts {
                let s = simplify(p);
                if s.is_falsity() {
                    return Formula::falsity();
                }
                if !s.is_truth() {
                    out.push(s);
                }
            }
            Formula::and(out)
        }
        Formula::Or(parts) => {
            let mut out = Vec::new();
            for p in parts {
                let s = simplify(p);
                if s.is_truth() {
                    return Formula::truth();
                }
                if !s.is_falsity() {
                    out.push(s);
                }
            }
            Formula::or(out)
        }
        Formula::Quant {
            q,
            var,
            range,
            body,
        } => {
            let body = simplify(body);
            let range = RangeExpr {
                relation: range.relation.clone(),
                restriction: range.restriction.as_ref().map(|r| Box::new(simplify(r))),
            };
            let statically_empty = range.restriction.as_ref().is_some_and(|r| r.is_falsity());
            match (q, &body) {
                (Quantifier::Some, b) if b.is_falsity() || statically_empty => {
                    return Formula::falsity()
                }
                (Quantifier::All, b) if b.is_truth() || statically_empty => {
                    return Formula::truth()
                }
                _ => {}
            }
            Formula::Quant {
                q: *q,
                var: var.clone(),
                range,
                body: Box::new(body),
            }
        }
    }
}

/// Negation normal form: pushes `NOT` inward until it disappears (comparison
/// operators absorb it, quantifiers dualize, which is valid in the
/// many-sorted calculus even for empty ranges).
pub fn to_nnf(formula: &Formula) -> Formula {
    fn go(f: &Formula, negated: bool) -> Formula {
        match f {
            Formula::Term(t) => {
                if negated {
                    Formula::Term(t.negate())
                } else {
                    Formula::Term(t.clone())
                }
            }
            Formula::Not(inner) => go(inner, !negated),
            Formula::And(parts) => {
                let converted: Vec<Formula> = parts.iter().map(|p| go(p, negated)).collect();
                if negated {
                    Formula::or(converted)
                } else {
                    Formula::and(converted)
                }
            }
            Formula::Or(parts) => {
                let converted: Vec<Formula> = parts.iter().map(|p| go(p, negated)).collect();
                if negated {
                    Formula::and(converted)
                } else {
                    Formula::or(converted)
                }
            }
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                let q = if negated { q.dual() } else { *q };
                // The range restriction is never negated: it is part of the
                // range, not of the formula.
                Formula::Quant {
                    q,
                    var: var.clone(),
                    range: range.clone(),
                    body: Box::new(go(body, negated)),
                }
            }
        }
    }
    go(formula, false)
}

/// Renames quantified variables so that every binder uses a name distinct
/// from all free variables and all other binders.
pub fn rename_apart(formula: &Formula, reserved: &BTreeSet<String>) -> Formula {
    fn fresh(base: &str, used: &mut BTreeSet<String>) -> String {
        if !used.contains(base) {
            used.insert(base.to_string());
            return base.to_string();
        }
        let mut i = 2;
        loop {
            let candidate = format!("{base}{i}");
            if !used.contains(&candidate) {
                used.insert(candidate.clone());
                return candidate;
            }
            i += 1;
        }
    }

    fn go(f: &Formula, used: &mut BTreeSet<String>) -> Formula {
        match f {
            Formula::Term(_) => f.clone(),
            Formula::Not(inner) => Formula::not(go(inner, used)),
            Formula::And(parts) => Formula::And(parts.iter().map(|p| go(p, used)).collect()),
            Formula::Or(parts) => Formula::Or(parts.iter().map(|p| go(p, used)).collect()),
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                let new_name = fresh(var, used);
                let (range, body) = if new_name == var.as_ref() {
                    (range.clone(), body.as_ref().clone())
                } else {
                    let new_range = RangeExpr {
                        relation: range.relation.clone(),
                        restriction: range
                            .restriction
                            .as_ref()
                            .map(|r| Box::new(r.rename_var(var, &new_name))),
                    };
                    (new_range, body.rename_var(var, &new_name))
                };
                let body = go(&body, used);
                Formula::Quant {
                    q: *q,
                    var: VarName::from(new_name),
                    range,
                    body: Box::new(body),
                }
            }
        }
    }

    let mut used = reserved.clone();
    go(formula, &mut used)
}

/// Pulls all quantifiers of an NNF, renamed-apart formula into a prefix.
///
/// Returns the prefix (outermost first), the quantifier-free matrix, and
/// the ranges the extraction assumed non-empty (Lemma 1: pulling `SOME`
/// across `OR` and `ALL` across `AND`).
pub fn prenex(formula: &Formula) -> (Vec<PrefixEntry>, Formula, Vec<Assumption>) {
    fn go(f: &Formula, assumed: &mut Vec<Assumption>) -> (Vec<PrefixEntry>, Formula) {
        match f {
            Formula::Term(_) => (Vec::new(), f.clone()),
            Formula::Not(inner) => {
                // After NNF, NOT only wraps quantifier-free sub-formulas.
                let (prefix, matrix) = go(inner, assumed);
                debug_assert!(prefix.is_empty(), "NNF must push NOT below quantifiers");
                (prefix, Formula::not(matrix))
            }
            Formula::And(parts) | Formula::Or(parts) => {
                let is_and = matches!(f, Formula::And(_));
                let mut prefix = Vec::new();
                let mut matrices = Vec::with_capacity(parts.len());
                let multi = parts.len() > 1;
                for p in parts {
                    let (mut inner_prefix, inner_matrix) = go(p, assumed);
                    if multi {
                        for entry in &inner_prefix {
                            // Hoisting across a connective with other
                            // operands relies on Lemma 1:
                            //   rule 1 (AND + SOME) and rule 4 (OR + ALL)
                            //     hold unconditionally;
                            //   rule 3 (AND + ALL) and rule 2 (OR + SOME)
                            //     require the range to be non-empty.
                            let needs_nonempty = matches!(
                                (is_and, entry.q),
                                (true, Quantifier::All) | (false, Quantifier::Some)
                            );
                            if needs_nonempty {
                                assumed
                                    .push(Assumption::new(entry.var.clone(), entry.range.clone()));
                            }
                        }
                    }
                    prefix.append(&mut inner_prefix);
                    matrices.push(inner_matrix);
                }
                let matrix = if is_and {
                    Formula::and(matrices)
                } else {
                    Formula::or(matrices)
                };
                (prefix, matrix)
            }
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                let (mut inner_prefix, matrix) = go(body, assumed);
                let mut prefix = vec![PrefixEntry {
                    q: *q,
                    var: var.clone(),
                    range: range.clone(),
                }];
                prefix.append(&mut inner_prefix);
                (prefix, matrix)
            }
        }
    }
    let mut assumed = Vec::new();
    let (prefix, matrix) = go(formula, &mut assumed);
    (prefix, matrix, assumed)
}

/// Distributes a quantifier-free formula into disjunctive normal form with
/// local simplification.
pub fn to_dnf(matrix: &Formula) -> Vec<Conjunction> {
    fn go(f: &Formula) -> Vec<Vec<Term>> {
        match f {
            Formula::Term(t) => vec![vec![t.clone()]],
            Formula::Not(inner) => match inner.as_ref() {
                Formula::Term(t) => vec![vec![t.negate()]],
                // NNF guarantees NOT only wraps atoms; fall back defensively.
                other => go(&to_nnf(&Formula::not(other.clone()))),
            },
            Formula::Or(parts) => parts.iter().flat_map(go).collect(),
            Formula::And(parts) => {
                let mut acc: Vec<Vec<Term>> = vec![Vec::new()];
                for p in parts {
                    let options = go(p);
                    let mut next = Vec::with_capacity(acc.len() * options.len());
                    for a in &acc {
                        for o in &options {
                            let mut combined = a.clone();
                            combined.extend(o.iter().cloned());
                            next.push(combined);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Formula::Quant { .. } => {
                unreachable!("to_dnf must be applied to the quantifier-free matrix")
            }
        }
    }

    let raw = go(matrix);
    let mut out: Vec<Conjunction> = Vec::new();
    'conj: for terms in raw {
        let mut cleaned: Vec<Term> = Vec::new();
        for t in terms {
            match &t {
                Term::Bool(false) => continue 'conj, // conjunction is false
                Term::Bool(true) => continue,        // drop neutral element
                _ => {}
            }
            // A conjunction containing a term and its negation is false.
            if cleaned.iter().any(|c| *c == t.negate()) {
                continue 'conj;
            }
            if !cleaned.contains(&t) {
                cleaned.push(t);
            }
        }
        let conj = Conjunction::new(cleaned);
        if conj.is_truth() {
            // The whole disjunction is true.
            return vec![Conjunction::truth()];
        }
        if !out.contains(&conj) {
            out.push(conj);
        }
    }
    out
}

/// Runs the full standardization pipeline on a selection.
pub fn standardize(selection: &Selection) -> StandardizedSelection {
    let (prefix, matrix_formula, assumptions) = prenex(&normalized_formula(selection));
    let matrix_simplified = simplify(&matrix_formula);
    let matrix = if matrix_simplified.is_falsity() {
        Vec::new()
    } else if matrix_simplified.is_truth() {
        vec![Conjunction::truth()]
    } else {
        to_dnf(&matrix_simplified)
    };
    StandardizedSelection {
        target: selection.target.clone(),
        components: selection.components.clone(),
        free: selection.free.clone(),
        form: StandardForm {
            prefix,
            matrix,
            assumptions,
        },
    }
}

/// The formula [`standardize`] pulls the prefix out of (folded, in NNF,
/// binders renamed apart): the names [`StandardForm::assumptions`] uses.
pub fn normalized_formula(selection: &Selection) -> Formula {
    let reserved: BTreeSet<String> = selection.free.iter().map(|d| d.var.to_string()).collect();
    rename_apart(&to_nnf(&simplify(&selection.formula)), &reserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand;
    use crate::semantics::{eval_formula, eval_selection, Env};
    use pascalr_relation::{
        Attribute, CompareOp, Relation, RelationSchema, Tuple, Value, ValueType,
    };
    use std::collections::BTreeMap;

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

    /// The running example database, small but non-trivial, with no empty
    /// relations (the standard-form assumption).
    fn db() -> BTreeMap<String, Relation> {
        let mut db = BTreeMap::new();
        db.insert(
            "employees".to_string(),
            rel(
                "employees",
                &["enr", "estatus"],
                &[&[1, 3], &[2, 1], &[3, 3], &[4, 3]],
            ),
        );
        db.insert(
            "papers".to_string(),
            rel(
                "papers",
                &["penr", "pyear"],
                &[&[1, 1977], &[3, 1975], &[4, 1977], &[4, 1976]],
            ),
        );
        db.insert(
            "timetable".to_string(),
            rel(
                "timetable",
                &["tenr", "tcnr"],
                &[&[1, 10], &[3, 11], &[3, 12], &[4, 12]],
            ),
        );
        db.insert(
            "courses".to_string(),
            rel(
                "courses",
                &["cnr", "clevel"],
                &[&[10, 0], &[11, 3], &[12, 1]],
            ),
        );
        db
    }

    /// Example 2.1 with integer stand-ins: professor = 3, sophomore = 1,
    /// 1977 literal.
    fn example_2_1_formula() -> Formula {
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
        ])
    }

    fn example_2_1_selection() -> Selection {
        Selection::new(
            "enames",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            example_2_1_formula(),
        )
    }

    #[test]
    fn nnf_pushes_negation_through_connectives_and_quantifiers() {
        let f = Formula::not(Formula::and(vec![
            cmp_vc("e", "estatus", CompareOp::Eq, 3),
            some(
                "t",
                "timetable",
                cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
            ),
        ]));
        let nnf = to_nnf(&f);
        let text = nnf.to_string();
        assert!(!text.contains("NOT"), "{text}");
        assert!(text.contains("<>"), "{text}");
        assert!(text.contains("ALL t IN timetable"), "{text}");

        // Double negation cancels.
        let g = Formula::not(Formula::not(cmp_vc("e", "estatus", CompareOp::Eq, 3)));
        assert_eq!(to_nnf(&g), cmp_vc("e", "estatus", CompareOp::Eq, 3));
    }

    #[test]
    fn nnf_preserves_semantics_on_the_sample_database() {
        let database = db();
        let env = Env::new();
        let formulas = vec![
            Formula::not(example_2_1_formula()),
            Formula::not(some(
                "p",
                "papers",
                Formula::not(cmp_vc("p", "pyear", CompareOp::Eq, 1977)),
            )),
            Formula::not(all(
                "p",
                "papers",
                Formula::or(vec![
                    cmp_vc("p", "pyear", CompareOp::Ne, 1977),
                    Formula::not(cmp_vc("p", "penr", CompareOp::Eq, 1)),
                ]),
            )),
        ];
        // These are closed only up to `e`; bind e to each employee and
        // compare truth values.
        let employees = database.get("employees").unwrap().clone();
        for f in formulas {
            let nnf = to_nnf(&f);
            for t in employees.tuples() {
                let mut env = env.clone();
                env.insert(
                    "e".to_string(),
                    crate::semantics::Binding {
                        schema: employees.schema().clone(),
                        tuple: t.clone(),
                    },
                );
                assert_eq!(
                    eval_formula(&f, &database, &env).unwrap(),
                    eval_formula(&nnf, &database, &env).unwrap(),
                    "NNF changed semantics of {f}"
                );
            }
        }
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::and(vec![
            Formula::truth(),
            cmp_vc("e", "estatus", CompareOp::Eq, 3),
        ]);
        assert_eq!(simplify(&f), cmp_vc("e", "estatus", CompareOp::Eq, 3));
        let f = Formula::and(vec![
            Formula::falsity(),
            cmp_vc("e", "estatus", CompareOp::Eq, 3),
        ]);
        assert!(simplify(&f).is_falsity());
        let f = Formula::or(vec![
            Formula::truth(),
            cmp_vc("e", "estatus", CompareOp::Eq, 3),
        ]);
        assert!(simplify(&f).is_truth());
        let f = Formula::not(Formula::truth());
        assert!(simplify(&f).is_falsity());

        // Unconditional quantifier folds.
        let f = some("p", "papers", Formula::falsity());
        assert!(simplify(&f).is_falsity());
        let f = all("p", "papers", Formula::truth());
        assert!(simplify(&f).is_truth());
        // The folds that need a non-empty range are never made.
        let f = some("p", "papers", Formula::truth());
        assert!(!simplify(&f).is_truth());
        let f = all("p", "papers", Formula::falsity());
        assert!(!simplify(&f).is_falsity());
        // A statically empty range takes the quantifier's empty-range value.
        let empty = RangeExpr::restricted("papers", Formula::falsity());
        let f = Formula::some("p", empty.clone(), cmp_vc("p", "pyear", CompareOp::Eq, 1));
        assert!(simplify(&f).is_falsity());
        let f = Formula::all("p", empty, cmp_vc("p", "pyear", CompareOp::Eq, 1));
        assert!(simplify(&f).is_truth());
    }

    #[test]
    fn rename_apart_gives_unique_binder_names() {
        // SOME x (..) AND SOME x (..) with a free x reserved.
        let f = Formula::and(vec![
            some("x", "papers", cmp_vc("x", "pyear", CompareOp::Eq, 1977)),
            some("x", "papers", cmp_vc("x", "pyear", CompareOp::Ne, 1977)),
        ]);
        let reserved: BTreeSet<String> = ["x".to_string()].into_iter().collect();
        let renamed = rename_apart(&f, &reserved);
        let text = renamed.to_string();
        assert!(text.contains("SOME x2 IN papers"), "{text}");
        assert!(text.contains("SOME x3 IN papers"), "{text}");
        assert!(text.contains("x2.pyear"), "{text}");
        assert!(text.contains("x3.pyear"), "{text}");
    }

    #[test]
    fn prenex_of_example_2_1_matches_paper_prefix() {
        // Example 2.2: the prefix is ALL p, SOME c, SOME t and non-emptiness
        // of courses and timetable (rule 2) and papers (rule 3) is assumed.
        let f = to_nnf(&simplify(&example_2_1_formula()));
        let renamed = rename_apart(&f, &["e".to_string()].into_iter().collect());
        let (prefix, matrix, assumed) = prenex(&renamed);
        let order: Vec<(Quantifier, &str)> = prefix.iter().map(|p| (p.q, p.var.as_ref())).collect();
        assert_eq!(
            order,
            vec![
                (Quantifier::All, "p"),
                (Quantifier::Some, "c"),
                (Quantifier::Some, "t"),
            ]
        );
        assert!(matrix.all_vars().len() >= 3);
        // Inner connectives first: c and t cross the OR, then p the AND.
        let vars: Vec<&str> = assumed.iter().map(|a| a.var.as_ref()).collect();
        assert_eq!(vars, vec!["c", "t", "p"]);
    }

    #[test]
    fn dnf_of_example_2_1_has_three_conjunctions() {
        // Example 2.2 shows the matrix as three conjunctions, each containing
        // the professor test.
        let std_sel = standardize(&example_2_1_selection());
        assert_eq!(std_sel.form.conjunction_count(), 3);
        for c in &std_sel.form.matrix {
            assert!(
                c.terms.iter().any(|t| {
                    t.as_monadic_constant("e").is_some_and(|(attr, op, v)| {
                        attr.as_ref() == "estatus" && op == CompareOp::Eq && v == Value::int(3)
                    })
                }),
                "every conjunction contains the professor test: {c}"
            );
        }
        // One conjunction has 4 terms (professor, sophomore, both timetable
        // join terms), the others 2.
        let mut sizes: Vec<usize> = std_sel.form.matrix.iter().map(|c| c.terms.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 4]);
    }

    #[test]
    fn standard_form_preserves_semantics() {
        let database = db();
        let sel = example_2_1_selection();
        let std_sel = standardize(&sel);
        let original = eval_selection(&sel, &database).unwrap();
        let standardized = eval_selection(&std_sel.to_selection(), &database).unwrap();
        assert!(
            original.set_eq(&standardized),
            "standard form changed the result:\noriginal = {original}\nstandard = {standardized}"
        );
    }

    #[test]
    fn dnf_simplifications() {
        // (a AND (b OR c)) distributes into 2 conjunctions.
        let a = cmp_vc("e", "estatus", CompareOp::Eq, 3);
        let b = cmp_vc("e", "enr", CompareOp::Gt, 1);
        let c = cmp_vc("e", "enr", CompareOp::Lt, 4);
        let f = Formula::and(vec![a.clone(), Formula::or(vec![b.clone(), c.clone()])]);
        let dnf = to_dnf(&f);
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|conj| conj.terms.len() == 2));

        // A contradictory conjunction (x AND NOT x) is dropped.
        let contradictory = Formula::and(vec![
            b.clone(),
            Formula::Term(match &b {
                Formula::Term(t) => t.negate(),
                _ => unreachable!(),
            }),
        ]);
        let f = Formula::or(vec![contradictory, a.clone()]);
        let dnf = to_dnf(&f);
        assert_eq!(dnf.len(), 1);

        // Duplicate terms inside a conjunction are deduplicated.
        let f = Formula::and(vec![a.clone(), a.clone()]);
        let dnf = to_dnf(&f);
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].terms.len(), 1);

        // true OR x collapses to true.
        let f = Formula::or(vec![Formula::truth(), a.clone()]);
        let dnf = to_dnf(&f);
        assert_eq!(dnf.len(), 1);
        assert!(dnf[0].is_truth());
    }

    #[test]
    fn conjunction_helpers() {
        let std_sel = standardize(&example_2_1_selection());
        let big = std_sel
            .form
            .matrix
            .iter()
            .find(|c| c.terms.len() == 4)
            .unwrap();
        assert!(big.mentions("t"));
        assert!(big.mentions("c"));
        assert_eq!(big.monadic_terms_over("c").len(), 1);
        assert_eq!(big.dyadic_terms_over("t").len(), 2);
        assert!(!big.is_purely_over("c"));
        let vars = big.vars();
        assert_eq!(vars.len(), 3); // e, c, t

        let pure = Conjunction::new(vec![Term::cmp(
            Operand::comp("p", "pyear"),
            CompareOp::Ne,
            Operand::constant(1977i64),
        )]);
        assert!(pure.is_purely_over("p"));
        assert!(!Conjunction::truth().is_purely_over("p"));
    }

    #[test]
    fn standard_form_display_and_roundtrip() {
        let std_sel = standardize(&example_2_1_selection());
        let text = format!("{std_sel}");
        assert!(text.contains("ALL p IN papers"));
        assert!(text.contains("SOME c IN courses"));
        assert!(text.contains("OR"));
        // Round-trip through to_formula keeps variables and relations.
        let f = std_sel.form.to_formula();
        assert!(f.mentions_var("p"));
        assert!(f.mentions_var("t"));
        assert_eq!(
            std_sel.range_of("e").unwrap().relation.as_ref(),
            "employees"
        );
        assert_eq!(std_sel.range_of("p").unwrap().relation.as_ref(), "papers");
        assert!(std_sel.range_of("zz").is_none());
        assert_eq!(std_sel.all_vars().len(), 4);
    }

    #[test]
    fn matrix_true_false_flags() {
        let truth_form = StandardForm {
            prefix: vec![],
            matrix: vec![Conjunction::truth()],
            assumptions: Vec::new(),
        };
        assert!(truth_form.matrix_is_true());
        assert!(!truth_form.matrix_is_false());
        let false_form = StandardForm {
            prefix: vec![],
            matrix: vec![],
            assumptions: Vec::new(),
        };
        assert!(false_form.matrix_is_false());
        assert!(false_form.to_formula().is_falsity());
        assert!(truth_form.to_formula().is_truth());
    }

    #[test]
    fn pure_existential_query_standardizes_without_all() {
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::or(vec![
                some(
                    "t",
                    "timetable",
                    cmp_vv("e", "enr", CompareOp::Eq, "t", "tenr"),
                ),
                cmp_vc("e", "estatus", CompareOp::Eq, 1),
            ]),
        );
        let std_sel = standardize(&sel);
        assert_eq!(std_sel.form.prefix.len(), 1);
        assert_eq!(std_sel.form.prefix[0].q, Quantifier::Some);
        assert_eq!(std_sel.form.conjunction_count(), 2);
        // Semantics preserved.
        let database = db();
        let a = eval_selection(&sel, &database).unwrap();
        let b = eval_selection(&std_sel.to_selection(), &database).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn standardize_records_assumptions_for_example() {
        // ALL p is pulled across AND (rule 3); SOME c and SOME t across OR
        // (rule 2): each with its range as written.
        let std_sel = standardize(&example_2_1_selection());
        for (var, r) in [("p", "papers"), ("c", "courses"), ("t", "timetable")] {
            assert!(
                std_sel
                    .form
                    .assumptions
                    .iter()
                    .any(|a| a.var.as_ref() == var && a.range == RangeExpr::relation(r)),
                "missing assumption for {var} IN {r}"
            );
        }
        // A pull across a connective that needs no assumption records none.
        let sel = Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::and(vec![
                cmp_vc("e", "estatus", CompareOp::Eq, 3),
                some(
                    "p",
                    "papers",
                    cmp_vv("p", "penr", CompareOp::Eq, "e", "enr"),
                ),
            ]),
        );
        assert!(standardize(&sel).form.assumptions.is_empty());
    }
}
