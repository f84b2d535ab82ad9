//! Abstract syntax of PASCAL/R selection expressions.
//!
//! A *selection* (Section 2) is an intensional set definition
//!
//! ```text
//! enames := [<e.ename> OF EACH e IN employees:  <selection expression> ]
//! ```
//!
//! consisting of a *component selection* (`<e.ename>`), *range expressions*
//! for the free variables (`EACH e IN employees`), and a *selection
//! expression* — a well-formed formula of an applied many-sorted first-order
//! predicate calculus whose atomic formulae are *join terms* (monadic or
//! dyadic comparisons) and whose variables are range-coupled: free,
//! existentially quantified (`SOME`) or universally quantified (`ALL`).

use pascalr_sync::Arc;
use std::collections::BTreeSet;
use std::fmt;

use pascalr_relation::{CompareOp, Value};

/// Name of an element variable (e.g. `e`, `p`, `c`, `t`).
pub type VarName = Arc<str>;

/// Name of a database relation (e.g. `employees`).
pub type RelName = Arc<str>;

/// A component access `var.attr`, e.g. `e.ename`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComponentRef {
    /// The element variable.
    pub var: VarName,
    /// The component identifier.
    pub attr: Arc<str>,
}

impl ComponentRef {
    /// Creates a component reference.
    pub fn new(var: impl Into<VarName>, attr: impl Into<Arc<str>>) -> Self {
        ComponentRef {
            var: var.into(),
            attr: attr.into(),
        }
    }
}

impl fmt::Display for ComponentRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.attr)
    }
}

/// Name of a query parameter placeholder (e.g. the `year` of `:year`).
pub type ParamName = Arc<str>;

/// One side of a join-term comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A component of an element variable, e.g. `e.enr`.
    Component(ComponentRef),
    /// A constant, e.g. `1977`, `professor`, `'Highman'`.
    Const(Value),
    /// A named parameter placeholder, e.g. `:year`.  Parameters survive
    /// normalization and planning and are substituted by a constant at
    /// execution time (see [`crate::params`]).
    Param(ParamName),
}

impl Operand {
    /// Convenience constructor for a component operand.
    pub fn comp(var: impl Into<VarName>, attr: impl Into<Arc<str>>) -> Self {
        Operand::Component(ComponentRef::new(var, attr))
    }

    /// Convenience constructor for a constant operand.
    pub fn constant(v: impl Into<Value>) -> Self {
        Operand::Const(v.into())
    }

    /// Convenience constructor for a parameter placeholder operand.
    pub fn param(name: impl Into<ParamName>) -> Self {
        Operand::Param(name.into())
    }

    /// The variable referenced by this operand, if any.
    pub fn var(&self) -> Option<&VarName> {
        match self {
            Operand::Component(c) => Some(&c.var),
            Operand::Const(_) | Operand::Param(_) => None,
        }
    }

    /// Whether this operand is free of element variables (a constant or a
    /// parameter placeholder): it evaluates to a single value independent of
    /// any range binding.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Operand::Const(_) | Operand::Param(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Component(c) => write!(f, "{c}"),
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Param(name) => write!(f, ":{name}"),
        }
    }
}

/// An atomic formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A join term `left OP right`.
    Compare {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CompareOp,
        /// Right operand.
        right: Operand,
    },
    /// A boolean constant (`true` appears in range expressions such as
    /// `EACH t IN timetable: true`; both constants arise from
    /// simplification and empty-relation adaptation).
    Bool(bool),
}

impl Term {
    /// Creates a comparison term.
    pub fn cmp(left: Operand, op: CompareOp, right: Operand) -> Self {
        Term::Compare { left, op, right }
    }

    /// The variables occurring in this term (0, 1 or 2 of them).
    pub fn vars(&self) -> BTreeSet<VarName> {
        let mut set = BTreeSet::new();
        if let Term::Compare { left, right, .. } = self {
            if let Some(v) = left.var() {
                set.insert(v.clone());
            }
            if let Some(v) = right.var() {
                set.insert(v.clone());
            }
        }
        set
    }

    /// Whether this is a *monadic* join term: it references exactly one
    /// variable (the paper's `e.estatus = professor` case, and also
    /// same-variable comparisons such as `t.tenr = t.tcnr`).
    pub fn is_monadic(&self) -> bool {
        self.vars().len() == 1
    }

    /// Whether this is a *dyadic* join term: it references two distinct
    /// variables (e.g. `e.enr = t.tenr`).
    pub fn is_dyadic(&self) -> bool {
        self.vars().len() == 2
    }

    /// Whether this term mentions the given variable.
    pub fn mentions(&self, var: &str) -> bool {
        self.vars().iter().any(|v| v.as_ref() == var)
    }

    /// The logical negation of this term (comparison operators negate
    /// directly, so no `NOT` node is needed for atoms).
    pub fn negate(&self) -> Term {
        match self {
            Term::Compare { left, op, right } => Term::Compare {
                left: left.clone(),
                op: op.negate(),
                right: right.clone(),
            },
            Term::Bool(b) => Term::Bool(!b),
        }
    }

    /// For a monadic term over `var` of the shape `var.attr OP const` (or
    /// `const OP var.attr`), returns `(attr, op, const)` normalized so the
    /// component is on the left.
    pub fn as_monadic_constant(&self, var: &str) -> Option<(Arc<str>, CompareOp, Value)> {
        self.as_monadic_scalar(var)
            .and_then(|(attr, op, scalar)| match scalar {
                Operand::Const(v) => Some((attr, op, v)),
                _ => None,
            })
    }

    /// Like [`Term::as_monadic_constant`], but also accepts a parameter
    /// placeholder on the scalar side: for a term of the shape
    /// `var.attr OP scalar` (or `scalar OP var.attr`), returns
    /// `(attr, op, scalar)` normalized so the component is on the left.
    /// Used by transformations that must treat a prepared query with
    /// parameters exactly like the same query with inlined constants.
    pub fn as_monadic_scalar(&self, var: &str) -> Option<(Arc<str>, CompareOp, Operand)> {
        match self {
            Term::Compare { left, op, right } => match (left, right) {
                (Operand::Component(c), scalar) if scalar.is_scalar() && c.var.as_ref() == var => {
                    Some((c.attr.clone(), *op, scalar.clone()))
                }
                (scalar, Operand::Component(c)) if scalar.is_scalar() && c.var.as_ref() == var => {
                    Some((c.attr.clone(), op.flip(), scalar.clone()))
                }
                _ => None,
            },
            Term::Bool(_) => None,
        }
    }

    /// For a dyadic term relating `var` and one other variable, returns
    /// `(var_attr, op, other_var, other_attr)` normalized so that `var` is
    /// on the left of the comparison.
    pub fn as_dyadic_over(&self, var: &str) -> Option<(Arc<str>, CompareOp, VarName, Arc<str>)> {
        match self {
            Term::Compare { left, op, right } => match (left, right) {
                (Operand::Component(a), Operand::Component(b))
                    if a.var.as_ref() == var && b.var.as_ref() != var =>
                {
                    Some((a.attr.clone(), *op, b.var.clone(), b.attr.clone()))
                }
                (Operand::Component(a), Operand::Component(b))
                    if b.var.as_ref() == var && a.var.as_ref() != var =>
                {
                    Some((b.attr.clone(), op.flip(), a.var.clone(), a.attr.clone()))
                }
                _ => None,
            },
            Term::Bool(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Compare { left, op, right } => write!(f, "({left} {op} {right})"),
            Term::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The two quantifiers of the calculus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `SOME rec IN rel (...)` — existential quantification.
    Some,
    /// `ALL rec IN rel (...)` — universal quantification.
    All,
}

impl Quantifier {
    /// The dual quantifier (used when pushing negation inward).
    pub fn dual(self) -> Quantifier {
        match self {
            Quantifier::Some => Quantifier::All,
            Quantifier::All => Quantifier::Some,
        }
    }

    /// PASCAL/R keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Quantifier::Some => "SOME",
            Quantifier::All => "ALL",
        }
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A range expression: the set a variable ranges over.
///
/// Either a plain database relation (`e IN employees`) or an *extended*
/// range expression — a restriction of a database relation by a formula
/// over the bound variable (`e IN [EACH e IN employees: e.estatus =
/// professor]`, Strategy 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RangeExpr {
    /// The underlying database relation.
    pub relation: RelName,
    /// Optional restriction formula over the bound variable.
    pub restriction: Option<Box<Formula>>,
}

impl RangeExpr {
    /// A plain range over a database relation.
    pub fn relation(name: impl Into<RelName>) -> Self {
        RangeExpr {
            relation: name.into(),
            restriction: None,
        }
    }

    /// An extended range `[EACH v IN rel: restriction]`.
    pub fn restricted(name: impl Into<RelName>, restriction: Formula) -> Self {
        RangeExpr {
            relation: name.into(),
            restriction: Some(Box::new(restriction)),
        }
    }

    /// Whether this is an extended (restricted) range expression.
    pub fn is_restricted(&self) -> bool {
        self.restriction.is_some()
    }

    /// Adds a further restriction, conjoining with any existing one.
    pub fn and_restrict(&self, extra: Formula) -> RangeExpr {
        let restriction = match &self.restriction {
            None => extra,
            Some(existing) => Formula::and(vec![existing.as_ref().clone(), extra]),
        };
        RangeExpr {
            relation: self.relation.clone(),
            restriction: Some(Box::new(restriction)),
        }
    }

    /// Renders the range in the paper's notation, given the variable name it
    /// binds.
    pub fn display_for(&self, var: &str) -> String {
        match &self.restriction {
            None => self.relation.to_string(),
            Some(r) => format!("[EACH {var} IN {}: {r}]", self.relation),
        }
    }
}

/// A range-coupled variable declaration, e.g. `EACH e IN employees` or
/// `SOME t IN timetable`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RangeDecl {
    /// The bound variable.
    pub var: VarName,
    /// The range it is coupled to.
    pub range: RangeExpr,
}

impl RangeDecl {
    /// Creates a range declaration.
    pub fn new(var: impl Into<VarName>, range: RangeExpr) -> Self {
        RangeDecl {
            var: var.into(),
            range,
        }
    }
}

impl fmt::Display for RangeDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EACH {} IN {}",
            self.var,
            self.range.display_for(&self.var)
        )
    }
}

/// A well-formed formula of the many-sorted calculus.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// An atomic formula (join term or boolean constant).
    Term(Term),
    /// Logical negation.
    Not(Box<Formula>),
    /// Conjunction of sub-formulas (flattened n-ary AND).
    And(Vec<Formula>),
    /// Disjunction of sub-formulas (flattened n-ary OR).
    Or(Vec<Formula>),
    /// A quantified, range-coupled sub-formula.
    Quant {
        /// The quantifier.
        q: Quantifier,
        /// The bound variable.
        var: VarName,
        /// The range the variable is coupled to.
        range: RangeExpr,
        /// The quantified body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// The constant `true`.
    pub fn truth() -> Formula {
        Formula::Term(Term::Bool(true))
    }

    /// The constant `false`.
    pub fn falsity() -> Formula {
        Formula::Term(Term::Bool(false))
    }

    /// An atomic comparison formula.
    pub fn compare(left: Operand, op: CompareOp, right: Operand) -> Formula {
        Formula::Term(Term::cmp(left, op, right))
    }

    /// n-ary conjunction; flattens nested ANDs and collapses trivial cases.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => Formula::truth(),
            Some(only) if flat.is_empty() => only,
            Some(last) => {
                flat.push(last);
                Formula::And(flat)
            }
        }
    }

    /// n-ary disjunction; flattens nested ORs and collapses trivial cases.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => Formula::falsity(),
            Some(only) if flat.is_empty() => only,
            Some(last) => {
                flat.push(last);
                Formula::Or(flat)
            }
        }
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)] // constructor mirroring `Formula::and`/`or`
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `SOME var IN range (body)`.
    pub fn some(var: impl Into<VarName>, range: RangeExpr, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::Some,
            var: var.into(),
            range,
            body: Box::new(body),
        }
    }

    /// `ALL var IN range (body)`.
    pub fn all(var: impl Into<VarName>, range: RangeExpr, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::All,
            var: var.into(),
            range,
            body: Box::new(body),
        }
    }

    /// Whether the formula is the constant `true`.
    pub fn is_truth(&self) -> bool {
        matches!(self, Formula::Term(Term::Bool(true)))
    }

    /// Whether the formula is the constant `false`.
    pub fn is_falsity(&self) -> bool {
        matches!(self, Formula::Term(Term::Bool(false)))
    }

    /// The set of variables that occur *free* in the formula (not bound by
    /// an enclosing quantifier within the formula itself).
    pub fn free_vars(&self) -> BTreeSet<VarName> {
        fn go(f: &Formula, bound: &mut Vec<VarName>, out: &mut BTreeSet<VarName>) {
            match f {
                Formula::Term(t) => {
                    for v in t.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                }
                Formula::Not(inner) => go(inner, bound, out),
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, bound, out);
                    }
                }
                Formula::Quant {
                    var, range, body, ..
                } => {
                    // The restriction of the range may only mention the bound
                    // variable; treat it like the body.
                    if let Some(r) = &range.restriction {
                        bound.push(var.clone());
                        go(r, bound, out);
                        bound.pop();
                    }
                    bound.push(var.clone());
                    go(body, bound, out);
                    bound.pop();
                }
            }
        }
        let mut out = BTreeSet::new();
        let mut bound = Vec::new();
        go(self, &mut bound, &mut out);
        out
    }

    /// All variables mentioned anywhere in the formula, free or bound.
    pub fn all_vars(&self) -> BTreeSet<VarName> {
        fn go(f: &Formula, out: &mut BTreeSet<VarName>) {
            match f {
                Formula::Term(t) => out.extend(t.vars()),
                Formula::Not(inner) => go(inner, out),
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, out);
                    }
                }
                Formula::Quant {
                    var, range, body, ..
                } => {
                    out.insert(var.clone());
                    if let Some(r) = &range.restriction {
                        go(r, out);
                    }
                    go(body, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// All database relations mentioned by quantifier ranges in the formula.
    pub fn quantified_relations(&self) -> BTreeSet<RelName> {
        fn go(f: &Formula, out: &mut BTreeSet<RelName>) {
            match f {
                Formula::Term(_) => {}
                Formula::Not(inner) => go(inner, out),
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, out);
                    }
                }
                Formula::Quant { range, body, .. } => {
                    out.insert(range.relation.clone());
                    if let Some(r) = &range.restriction {
                        go(r, out);
                    }
                    go(body, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// Whether the formula mentions the variable at all (free or bound).
    pub fn mentions_var(&self, var: &str) -> bool {
        self.all_vars().iter().any(|v| v.as_ref() == var)
    }

    /// Renames every (free) occurrence of variable `from` to `to`.
    ///
    /// Used during prenexing to give each pulled-out quantifier a unique
    /// variable name; the caller must ensure `to` is fresh.
    pub fn rename_var(&self, from: &str, to: &str) -> Formula {
        match self {
            Formula::Term(t) => Formula::Term(rename_term(t, from, to)),
            Formula::Not(inner) => Formula::not(inner.rename_var(from, to)),
            Formula::And(parts) => {
                Formula::And(parts.iter().map(|p| p.rename_var(from, to)).collect())
            }
            Formula::Or(parts) => {
                Formula::Or(parts.iter().map(|p| p.rename_var(from, to)).collect())
            }
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                if var.as_ref() == from {
                    // `from` is re-bound here; the restriction and the body
                    // refer to the inner binding and must not be renamed.
                    self.clone()
                } else {
                    let range = RangeExpr {
                        relation: range.relation.clone(),
                        restriction: range
                            .restriction
                            .as_ref()
                            .map(|r| Box::new(r.rename_var(from, to))),
                    };
                    Formula::Quant {
                        q: *q,
                        var: var.clone(),
                        range,
                        body: Box::new(body.rename_var(from, to)),
                    }
                }
            }
        }
    }
}

fn rename_operand(o: &Operand, from: &str, to: &str) -> Operand {
    match o {
        Operand::Component(c) if c.var.as_ref() == from => {
            Operand::Component(ComponentRef::new(to.to_string(), c.attr.clone()))
        }
        other => other.clone(),
    }
}

fn rename_term(t: &Term, from: &str, to: &str) -> Term {
    match t {
        Term::Compare { left, op, right } => Term::Compare {
            left: rename_operand(left, from, to),
            op: *op,
            right: rename_operand(right, from, to),
        },
        Term::Bool(b) => Term::Bool(*b),
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Term(t) => write!(f, "{t}"),
            Formula::Not(inner) => write!(f, "NOT ({inner})"),
            Formula::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                write!(f, "{q} {var} IN {} ({body})", range.display_for(var))
            }
        }
    }
}

/// A complete selection statement:
/// `target := [<components> OF EACH v IN range, ...: formula]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection {
    /// Name of the target relation being assigned (e.g. `enames`).
    pub target: String,
    /// The component selection (projection list), e.g. `<e.ename>`.
    pub components: Vec<ComponentRef>,
    /// Range declarations of the free variables, e.g. `EACH e IN employees`.
    pub free: Vec<RangeDecl>,
    /// The selection expression.
    pub formula: Formula,
}

impl Selection {
    /// Creates a selection.
    pub fn new(
        target: impl Into<String>,
        components: Vec<ComponentRef>,
        free: Vec<RangeDecl>,
        formula: Formula,
    ) -> Self {
        Selection {
            target: target.into(),
            components,
            free,
            formula,
        }
    }

    /// Every variable used by the selection (free variables plus quantified
    /// variables of the formula).
    pub fn all_vars(&self) -> BTreeSet<VarName> {
        let mut vars: BTreeSet<VarName> = self.free.iter().map(|d| d.var.clone()).collect();
        vars.extend(self.formula.all_vars());
        vars
    }

    /// Every database relation the selection ranges over (free ranges plus
    /// quantifier ranges).
    pub fn relations(&self) -> BTreeSet<RelName> {
        let mut rels: BTreeSet<RelName> =
            self.free.iter().map(|d| d.range.relation.clone()).collect();
        rels.extend(self.formula.quantified_relations());
        rels
    }

    /// The range declaration of a free variable, if it is one.
    pub fn free_decl(&self, var: &str) -> Option<&RangeDecl> {
        self.free.iter().find(|d| d.var.as_ref() == var)
    }
}

impl fmt::Display for Selection {
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
        write!(f, ": {}]", self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::CompareOp;

    fn professor() -> Value {
        // In AST-level tests the enum machinery is not needed; an integer
        // stands in for the enumeration ordinal.
        Value::int(3)
    }

    /// `e.estatus = professor`
    fn t_prof() -> Term {
        Term::cmp(
            Operand::comp("e", "estatus"),
            CompareOp::Eq,
            Operand::constant(professor()),
        )
    }

    /// `e.enr = t.tenr`
    fn t_et() -> Term {
        Term::cmp(
            Operand::comp("t", "tenr"),
            CompareOp::Eq,
            Operand::comp("e", "enr"),
        )
    }

    #[test]
    fn monadic_and_dyadic_classification() {
        assert!(t_prof().is_monadic());
        assert!(!t_prof().is_dyadic());
        assert!(t_et().is_dyadic());
        assert!(!t_et().is_monadic());
        assert!(Term::Bool(true).vars().is_empty());
        assert!(!Term::Bool(true).is_monadic());
        // Same-variable comparison counts as monadic.
        let same = Term::cmp(
            Operand::comp("t", "tenr"),
            CompareOp::Ne,
            Operand::comp("t", "tcnr"),
        );
        assert!(same.is_monadic());
    }

    #[test]
    fn term_negation_flips_operator() {
        let t = t_prof();
        let n = t.negate();
        match n {
            Term::Compare { op, .. } => assert_eq!(op, CompareOp::Ne),
            _ => panic!("expected comparison"),
        }
        assert_eq!(Term::Bool(true).negate(), Term::Bool(false));
    }

    #[test]
    fn monadic_constant_extraction_normalizes_direction() {
        let t = Term::cmp(
            Operand::constant(1977i64),
            CompareOp::Lt,
            Operand::comp("p", "pyear"),
        );
        let (attr, op, val) = t.as_monadic_constant("p").unwrap();
        assert_eq!(attr.as_ref(), "pyear");
        assert_eq!(op, CompareOp::Gt);
        assert_eq!(val, Value::int(1977));
        assert!(t.as_monadic_constant("q").is_none());
        assert!(t_et().as_monadic_constant("e").is_none());
    }

    #[test]
    fn dyadic_extraction_normalizes_direction() {
        let t = t_et(); // t.tenr = e.enr
        let (attr, op, other, other_attr) = t.as_dyadic_over("e").unwrap();
        assert_eq!(attr.as_ref(), "enr");
        assert_eq!(op, CompareOp::Eq);
        assert_eq!(other.as_ref(), "t");
        assert_eq!(other_attr.as_ref(), "tenr");

        let lt = Term::cmp(
            Operand::comp("a", "x"),
            CompareOp::Lt,
            Operand::comp("b", "y"),
        );
        let (_, op_b, _, _) = lt.as_dyadic_over("b").unwrap();
        assert_eq!(op_b, CompareOp::Gt);
        assert!(t_prof().as_dyadic_over("e").is_none());
    }

    #[test]
    fn and_or_flatten_and_collapse() {
        let a = Formula::Term(t_prof());
        let b = Formula::Term(t_et());
        let nested = Formula::and(vec![
            a.clone(),
            Formula::and(vec![b.clone(), Formula::truth()]),
        ]);
        match &nested {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            _ => panic!("expected AND"),
        }
        assert_eq!(Formula::and(vec![]), Formula::truth());
        assert_eq!(Formula::or(vec![]), Formula::falsity());
        assert_eq!(Formula::and(vec![a.clone()]), a);
        assert_eq!(Formula::or(vec![b.clone()]), b);
    }

    #[test]
    fn free_vars_respect_quantifier_binding() {
        // SOME t IN timetable (e.enr = t.tenr)  has free var {e}
        let f = Formula::some("t", RangeExpr::relation("timetable"), Formula::Term(t_et()));
        let free = f.free_vars();
        assert_eq!(free.len(), 1);
        assert!(free.iter().any(|v| v.as_ref() == "e"));
        let all = f.all_vars();
        assert_eq!(all.len(), 2);
        assert!(f.mentions_var("t"));
        assert!(!f.mentions_var("q"));
    }

    #[test]
    fn quantified_relations_are_collected() {
        let f = Formula::all(
            "p",
            RangeExpr::relation("papers"),
            Formula::some("t", RangeExpr::relation("timetable"), Formula::Term(t_et())),
        );
        let rels = f.quantified_relations();
        assert!(rels.iter().any(|r| r.as_ref() == "papers"));
        assert!(rels.iter().any(|r| r.as_ref() == "timetable"));
        assert_eq!(rels.len(), 2);
    }

    #[test]
    fn rename_var_stops_at_rebinding() {
        // Renaming e->x in: (e.estatus=3) AND SOME e IN employees (e.enr = t.tenr)
        // must rename the outer occurrence only.
        let inner = Formula::some(
            "e",
            RangeExpr::relation("employees"),
            Formula::Term(Term::cmp(
                Operand::comp("e", "enr"),
                CompareOp::Eq,
                Operand::comp("t", "tenr"),
            )),
        );
        let f = Formula::and(vec![Formula::Term(t_prof()), inner]);
        let renamed = f.rename_var("e", "x");
        let text = renamed.to_string();
        assert!(text.contains("x.estatus"), "{text}");
        assert!(text.contains("SOME e IN employees"), "{text}");
        assert!(text.contains("(e.enr = t.tenr)"), "{text}");
    }

    #[test]
    fn range_expr_display_and_restriction() {
        let plain = RangeExpr::relation("courses");
        assert!(!plain.is_restricted());
        assert_eq!(plain.display_for("c"), "courses");
        let restricted = plain.and_restrict(Formula::Term(Term::cmp(
            Operand::comp("c", "clevel"),
            CompareOp::Le,
            Operand::constant(1i64),
        )));
        assert!(restricted.is_restricted());
        let d = restricted.display_for("c");
        assert!(d.starts_with("[EACH c IN courses:"));
        // Further restriction conjoins.
        let twice = restricted.and_restrict(Formula::Term(Term::cmp(
            Operand::comp("c", "cnr"),
            CompareOp::Gt,
            Operand::constant(5i64),
        )));
        match twice.restriction.as_deref() {
            Some(Formula::And(parts)) => assert_eq!(parts.len(), 2),
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn selection_collects_vars_and_relations() {
        let sel = Selection::new(
            "enames",
            vec![ComponentRef::new("e", "ename")],
            vec![RangeDecl::new("e", RangeExpr::relation("employees"))],
            Formula::some("t", RangeExpr::relation("timetable"), Formula::Term(t_et())),
        );
        let vars = sel.all_vars();
        assert_eq!(vars.len(), 2);
        let rels = sel.relations();
        assert_eq!(rels.len(), 2);
        assert!(sel.free_decl("e").is_some());
        assert!(sel.free_decl("t").is_none());
        let text = sel.to_string();
        assert!(text.contains("enames := [<e.ename> OF EACH e IN employees:"));
    }

    #[test]
    fn formula_display_roundtrips_structure() {
        let f = Formula::or(vec![
            Formula::Term(t_prof()),
            Formula::not(Formula::Term(t_et())),
        ]);
        let s = f.to_string();
        assert!(s.contains("OR"));
        assert!(s.contains("NOT"));
    }
}
