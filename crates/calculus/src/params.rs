//! Query parameters: named placeholders (`:name`) and their binding.
//!
//! A selection may use parameter placeholders wherever a constant is
//! permitted (`p.pyear < :year`).  Placeholders survive standardization and
//! planning unchanged, so the expensive work of bringing a query into
//! standard form and choosing a strategy happens once per query *shape*; at
//! execution time a [`Params`] map substitutes concrete [`Value`]s for the
//! placeholders, and one prepared statement serves a whole workload of
//! distinct constants.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pascalr_relation::Value;

use crate::ast::{Formula, Operand, ParamName, RangeDecl, RangeExpr, Selection, Term};
use crate::error::CalculusError;
use crate::normalize::{Assumption, Conjunction, PrefixEntry, StandardForm, StandardizedSelection};

/// A set of parameter bindings: placeholder name → constant value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    map: BTreeMap<ParamName, Value>,
}

impl Params {
    /// An empty binding set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Builder-style insertion: `Params::new().set("year", 1977)`.
    pub fn set(mut self, name: impl Into<ParamName>, value: impl Into<Value>) -> Self {
        self.insert(name, value);
        self
    }

    /// Inserts a binding, replacing any previous value for the name.
    pub fn insert(&mut self, name: impl Into<ParamName>, value: impl Into<Value>) {
        self.map.insert(name.into(), value.into());
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }

    /// The bound names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &ParamName> {
        self.map.keys()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no parameter is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn resolve(&self, name: &str) -> Result<Value, CalculusError> {
        self.map
            .get(name)
            .cloned()
            .ok_or_else(|| CalculusError::UnboundParameter {
                name: name.to_string(),
            })
    }
}

impl<N: Into<ParamName>, V: Into<Value>> FromIterator<(N, V)> for Params {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Self {
        let mut p = Params::new();
        for (n, v) in iter {
            p.insert(n, v);
        }
        p
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, ":{name} = {value}")?;
        }
        write!(f, "}}")
    }
}

// ---- parameter collection -----------------------------------------------

fn collect_operand(op: &Operand, out: &mut BTreeSet<ParamName>) {
    if let Operand::Param(name) = op {
        out.insert(name.clone());
    }
}

fn collect_term(term: &Term, out: &mut BTreeSet<ParamName>) {
    if let Term::Compare { left, right, .. } = term {
        collect_operand(left, out);
        collect_operand(right, out);
    }
}

fn collect_formula(formula: &Formula, out: &mut BTreeSet<ParamName>) {
    match formula {
        Formula::Term(t) => collect_term(t, out),
        Formula::Not(inner) => collect_formula(inner, out),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                collect_formula(p, out);
            }
        }
        Formula::Quant { range, body, .. } => {
            collect_range(range, out);
            collect_formula(body, out);
        }
    }
}

fn collect_range(range: &RangeExpr, out: &mut BTreeSet<ParamName>) {
    if let Some(r) = &range.restriction {
        collect_formula(r, out);
    }
}

impl Term {
    /// The parameter placeholders occurring in this term.
    pub fn param_names(&self) -> BTreeSet<ParamName> {
        let mut out = BTreeSet::new();
        collect_term(self, &mut out);
        out
    }
}

impl Formula {
    /// The parameter placeholders occurring anywhere in the formula
    /// (including range restrictions).
    pub fn param_names(&self) -> BTreeSet<ParamName> {
        let mut out = BTreeSet::new();
        collect_formula(self, &mut out);
        out
    }
}

impl Selection {
    /// The parameter placeholders the selection uses (formula plus free
    /// range restrictions).
    pub fn param_names(&self) -> BTreeSet<ParamName> {
        let mut out = BTreeSet::new();
        for d in &self.free {
            collect_range(&d.range, &mut out);
        }
        collect_formula(&self.formula, &mut out);
        out
    }
}

impl StandardizedSelection {
    /// The parameter placeholders the standardized selection uses (matrix,
    /// prefix ranges and free ranges).
    pub fn param_names(&self) -> BTreeSet<ParamName> {
        let mut out = BTreeSet::new();
        for d in &self.free {
            collect_range(&d.range, &mut out);
        }
        for p in &self.form.prefix {
            collect_range(&p.range, &mut out);
        }
        for c in &self.form.matrix {
            for t in &c.terms {
                collect_term(t, &mut out);
            }
        }
        out
    }
}

// ---- substitution --------------------------------------------------------

impl Operand {
    /// Substitutes parameter placeholders by their bound values.  Fails with
    /// [`CalculusError::UnboundParameter`] if a placeholder has no binding.
    pub fn bind_params(&self, params: &Params) -> Result<Operand, CalculusError> {
        match self {
            Operand::Param(name) => Ok(Operand::Const(params.resolve(name)?)),
            other => Ok(other.clone()),
        }
    }
}

impl Term {
    /// Substitutes parameter placeholders by their bound values.
    pub fn bind_params(&self, params: &Params) -> Result<Term, CalculusError> {
        match self {
            Term::Compare { left, op, right } => Ok(Term::Compare {
                left: left.bind_params(params)?,
                op: *op,
                right: right.bind_params(params)?,
            }),
            Term::Bool(b) => Ok(Term::Bool(*b)),
        }
    }
}

impl Formula {
    /// Substitutes parameter placeholders by their bound values throughout
    /// the formula, including range restrictions.
    pub fn bind_params(&self, params: &Params) -> Result<Formula, CalculusError> {
        match self {
            Formula::Term(t) => Ok(Formula::Term(t.bind_params(params)?)),
            Formula::Not(inner) => Ok(Formula::Not(Box::new(inner.bind_params(params)?))),
            Formula::And(parts) => Ok(Formula::And(
                parts
                    .iter()
                    .map(|p| p.bind_params(params))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Or(parts) => Ok(Formula::Or(
                parts
                    .iter()
                    .map(|p| p.bind_params(params))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => Ok(Formula::Quant {
                q: *q,
                var: var.clone(),
                range: range.bind_params(params)?,
                body: Box::new(body.bind_params(params)?),
            }),
        }
    }
}

impl RangeExpr {
    /// Substitutes parameter placeholders in the range restriction, if any.
    pub fn bind_params(&self, params: &Params) -> Result<RangeExpr, CalculusError> {
        Ok(RangeExpr {
            relation: self.relation.clone(),
            restriction: self
                .restriction
                .as_ref()
                .map(|r| r.bind_params(params).map(Box::new))
                .transpose()?,
        })
    }
}

impl RangeDecl {
    /// Substitutes parameter placeholders in the declared range.
    pub fn bind_params(&self, params: &Params) -> Result<RangeDecl, CalculusError> {
        Ok(RangeDecl {
            var: self.var.clone(),
            range: self.range.bind_params(params)?,
        })
    }
}

impl Selection {
    /// Substitutes parameter placeholders throughout the selection.
    pub fn bind_params(&self, params: &Params) -> Result<Selection, CalculusError> {
        Ok(Selection {
            target: self.target.clone(),
            components: self.components.clone(),
            free: self
                .free
                .iter()
                .map(|d| d.bind_params(params))
                .collect::<Result<_, _>>()?,
            formula: self.formula.bind_params(params)?,
        })
    }
}

impl StandardizedSelection {
    /// Substitutes parameter placeholders throughout the standardized
    /// selection (free ranges, prefix ranges and matrix terms).
    pub fn bind_params(&self, params: &Params) -> Result<StandardizedSelection, CalculusError> {
        Ok(StandardizedSelection {
            target: self.target.clone(),
            components: self.components.clone(),
            free: self
                .free
                .iter()
                .map(|d| d.bind_params(params))
                .collect::<Result<_, _>>()?,
            form: StandardForm {
                prefix: self
                    .form
                    .prefix
                    .iter()
                    .map(|p| {
                        Ok(PrefixEntry {
                            q: p.q,
                            var: p.var.clone(),
                            range: p.range.bind_params(params)?,
                        })
                    })
                    .collect::<Result<_, CalculusError>>()?,
                matrix: self
                    .form
                    .matrix
                    .iter()
                    .map(|c| {
                        Ok(Conjunction::new(
                            c.terms
                                .iter()
                                .map(|t| t.bind_params(params))
                                .collect::<Result<_, CalculusError>>()?,
                        ))
                    })
                    .collect::<Result<_, CalculusError>>()?,
                assumptions: self
                    .form
                    .assumptions
                    .iter()
                    .map(|a| Ok(Assumption::new(a.var.clone(), a.range.bind_params(params)?)))
                    .collect::<Result<_, CalculusError>>()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ComponentRef, RangeDecl, RangeExpr};
    use crate::normalize::standardize;
    use pascalr_relation::CompareOp;

    fn param_selection() -> Selection {
        // q := [<e.enr> OF EACH e IN employees:
        //        (e.estatus = :status) AND SOME p IN papers
        //          ((p.penr = e.enr) AND (p.pyear < :year))]
        Selection::new(
            "q",
            vec![ComponentRef::new("e", "enr")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::and(vec![
                Formula::compare(
                    Operand::comp("e", "estatus"),
                    CompareOp::Eq,
                    Operand::param("status"),
                ),
                Formula::some(
                    "p",
                    RangeExpr::relation("papers"),
                    Formula::and(vec![
                        Formula::compare(
                            Operand::comp("p", "penr"),
                            CompareOp::Eq,
                            Operand::comp("e", "enr"),
                        ),
                        Formula::compare(
                            Operand::comp("p", "pyear"),
                            CompareOp::Lt,
                            Operand::param("year"),
                        ),
                    ]),
                ),
            ]),
        )
    }

    #[test]
    fn params_collects_names_across_the_selection() {
        let sel = param_selection();
        let names: Vec<ParamName> = sel.param_names().into_iter().collect();
        assert_eq!(names, vec![ParamName::from("status"), "year".into()]);
        // Standardization preserves the placeholders.
        let std_sel = standardize(&sel);
        let std_names: Vec<ParamName> = std_sel.param_names().into_iter().collect();
        assert_eq!(names, std_names);
    }

    #[test]
    fn binding_substitutes_all_occurrences() {
        let sel = param_selection();
        let params = Params::new().set("status", 3i64).set("year", 1977i64);
        let bound = sel.bind_params(&params).unwrap();
        assert!(bound.param_names().is_empty());
        let text = bound.formula.to_string();
        assert!(text.contains("= 3"), "{text}");
        assert!(text.contains("< 1977"), "{text}");
    }

    #[test]
    fn missing_binding_is_an_error() {
        let sel = param_selection();
        let params = Params::new().set("status", 3i64);
        let err = sel.bind_params(&params).unwrap_err();
        assert!(matches!(err, CalculusError::UnboundParameter { ref name } if name == "year"));
        assert!(err.to_string().contains("year"));
    }

    #[test]
    fn binding_reaches_range_restrictions() {
        // Standardize, then hoist manually: a restriction containing a
        // parameter must be substituted too.
        let range = RangeExpr::restricted(
            "papers",
            Formula::compare(
                Operand::comp("p", "pyear"),
                CompareOp::Eq,
                Operand::param("year"),
            ),
        );
        let params = Params::new().set("year", 1977i64);
        let bound = range.bind_params(&params).unwrap();
        assert!(bound.display_for("p").contains("1977"));
    }

    #[test]
    fn params_api_roundtrip() {
        let mut p = Params::new();
        assert!(p.is_empty());
        p.insert("a", 1i64);
        let p = p.set("b", "x");
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("a"), Some(&Value::int(1)));
        assert!(p.get("zz").is_none());
        let names: Vec<&str> = p.names().map(std::convert::AsRef::as_ref).collect();
        assert_eq!(names, vec!["a", "b"]);
        let display = p.to_string();
        assert!(display.contains(":a = 1"), "{display}");
        let q: Params = vec![("a", Value::int(1)), ("b", Value::str("x"))]
            .into_iter()
            .collect();
        assert_eq!(p, q);
    }

    #[test]
    fn scalar_classification_and_display() {
        assert!(Operand::param("x").is_scalar());
        assert!(Operand::constant(1i64).is_scalar());
        assert!(!Operand::comp("e", "enr").is_scalar());
        assert_eq!(Operand::param("year").to_string(), ":year");
        // as_monadic_scalar accepts both constants and parameters and
        // normalizes direction like as_monadic_constant.
        let t = Term::cmp(
            Operand::param("year"),
            CompareOp::Lt,
            Operand::comp("p", "pyear"),
        );
        let (attr, op, scalar) = t.as_monadic_scalar("p").unwrap();
        assert_eq!(attr.as_ref(), "pyear");
        assert_eq!(op, CompareOp::Gt);
        assert_eq!(scalar, Operand::param("year"));
        assert!(t.as_monadic_constant("p").is_none());
        assert!(t.is_monadic());
    }
}
