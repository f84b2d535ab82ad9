//! The semantic walker: name/type resolution, domain/interval reasoning,
//! quantifier hygiene and implied predicates.
//!
//! One walk serves two consumers: [`crate::analyze`] reports the
//! diagnostics and discards the rewritten formula; [`crate::simplify`]
//! keeps the rewrite (statically unsatisfiable terms become `false`,
//! domain-implied tautologies become `true`, contradictory conjunctions
//! collapse, and equality-implied monadic restrictions are appended) so the
//! planner can emit trivially-empty or unrestricted plans instead of
//! scanning.
//!
//! Every rewrite is a *logical equivalence given the catalog's domain
//! declarations*: inserted tuples are validated against their component
//! types (`ValueType::admits`), so a term contradicting a declared subrange
//! or enumeration can never hold for any stored tuple.  That makes the
//! rewrites sound in any formula context — under negation, inside
//! disjunctions, in quantifier bodies and in range restrictions alike.

use pascalr_sync::Arc;
use std::collections::BTreeSet;

use pascalr_calculus::span::term_key;
use pascalr_calculus::{
    Formula, Operand, RangeDecl, RangeExpr, RelName, Selection, SpanMap, Term, VarName,
};
use pascalr_catalog::Catalog;
use pascalr_relation::{CompareOp, Value, ValueType};

use crate::diagnostic::{Code, Diagnostic};

/// The scope of range variables visible at a point of the walk.
type Scope = Vec<(VarName, RelName)>;

/// A `var.attr` component identity used by the interval and equality-closure
/// bookkeeping.
type ComponentKey = (VarName, Arc<str>);

pub(crate) struct Walker<'a> {
    catalog: &'a Catalog,
    spans: &'a SpanMap,
    diags: Vec<Diagnostic>,
    /// Deduplication of repeated identical messages (the same unknown
    /// component may occur many times in one formula).
    emitted: BTreeSet<(Code, String)>,
    changed: bool,
}

/// Result of the semantic walk over one selection.
pub(crate) struct WalkOutcome {
    /// The selection with all equivalence-preserving rewrites applied.
    pub rewritten: Selection,
    /// Every diagnostic found, in source walk order.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether `rewritten` differs from the input.
    pub changed: bool,
}

pub(crate) fn walk_selection(
    selection: &Selection,
    catalog: &Catalog,
    spans: &SpanMap,
) -> WalkOutcome {
    let mut w = Walker {
        catalog,
        spans,
        diags: Vec::new(),
        emitted: BTreeSet::new(),
        changed: false,
    };

    // Free range declarations: relation resolution (A001) and duplicates
    // (A010).  All free variables enter the scope up front — component and
    // formula references may mention any of them.
    let mut scope: Scope = Vec::new();
    for decl in &selection.free {
        w.check_relation(&decl.range);
        if scope.iter().any(|(v, _)| v.as_ref() == decl.var.as_ref()) {
            w.emit(
                Code::A010,
                format!("range variable '{}' is declared more than once", decl.var),
                w.spans.var_span(&decl.var),
            );
        }
        scope.push((decl.var.clone(), decl.range.relation.clone()));
    }

    // Projected components (A002).
    for comp in &selection.components {
        w.component_type(&scope, &comp.var, &comp.attr, true);
    }

    // Unused free range variables (A008): declared, but neither projected
    // nor mentioned by the formula.  (No rewrite — dropping the declaration
    // would change the result when its relation is empty.)
    for decl in &selection.free {
        let projected = selection
            .components
            .iter()
            .any(|c| c.var.as_ref() == decl.var.as_ref());
        if !projected && !selection.formula.mentions_var(&decl.var) {
            w.emit(
                Code::A008,
                format!("free range variable '{}' is never used", decl.var),
                w.spans.var_span(&decl.var),
            );
        }
    }

    // Range restrictions of the free declarations, then the main formula.
    let free: Vec<RangeDecl> = selection
        .free
        .iter()
        .map(|decl| {
            let range = w.walk_range(&scope, &decl.range);
            RangeDecl::new(decl.var.clone(), range)
        })
        .collect();
    let formula = w.walk_formula(&mut scope, &selection.formula);

    WalkOutcome {
        rewritten: Selection::new(
            selection.target.clone(),
            selection.components.clone(),
            free,
            formula,
        ),
        diagnostics: w.diags,
        changed: w.changed,
    }
}

impl Walker<'_> {
    fn emit(&mut self, code: Code, message: String, span: Option<pascalr_calculus::Span>) {
        if self.emitted.insert((code, message.clone())) {
            self.diags.push(Diagnostic::new(code, message, span));
        }
    }

    fn check_relation(&mut self, range: &RangeExpr) {
        if self.catalog.relation(&range.relation).is_err() {
            self.emit(
                Code::A001,
                format!("unknown relation '{}'", range.relation),
                self.spans.relation_span(&range.relation),
            );
        }
    }

    /// Resolves `var.attr` to its declared component type, emitting A002 on
    /// failure when `report` is set.  An unknown *relation* stays silent
    /// here — A001 already covered it at the declaration site.
    fn component_type(
        &mut self,
        scope: &Scope,
        var: &str,
        attr: &str,
        report: bool,
    ) -> Option<ValueType> {
        let Some((_, rel)) = scope.iter().rev().find(|(v, _)| v.as_ref() == var) else {
            if report {
                self.emit(
                    Code::A002,
                    format!("unknown range variable '{var}' in component {var}.{attr}"),
                    self.spans.component_span(var, attr),
                );
            }
            return None;
        };
        let Ok(relation) = self.catalog.relation(rel) else {
            return None;
        };
        let schema = relation.schema();
        match schema.attr_index(attr) {
            Some(idx) => Some(schema.attribute(idx).ty.clone()),
            None => {
                if report {
                    self.emit(
                        Code::A002,
                        format!("relation '{rel}' has no attribute '{attr}' (in {var}.{attr})"),
                        self.spans.component_span(var, attr),
                    );
                }
                None
            }
        }
    }

    fn operand_type(&mut self, scope: &Scope, operand: &Operand) -> Option<ValueType> {
        match operand {
            Operand::Component(c) => self.component_type(scope, &c.var, &c.attr, true),
            Operand::Const(v) => type_of_value(v),
            Operand::Param(_) => None,
        }
    }

    fn walk_range(&mut self, scope: &Scope, range: &RangeExpr) -> RangeExpr {
        match &range.restriction {
            None => range.clone(),
            Some(restriction) => {
                let mut scope = scope.clone();
                let rewritten = self.walk_formula(&mut scope, restriction);
                RangeExpr::restricted(range.relation.clone(), rewritten)
            }
        }
    }

    fn walk_formula(&mut self, scope: &mut Scope, formula: &Formula) -> Formula {
        match formula {
            Formula::Term(term) => Formula::Term(self.check_term(scope, term)),
            Formula::Not(inner) => Formula::not(self.walk_formula(scope, inner)),
            Formula::Or(parts) => {
                Formula::or(parts.iter().map(|p| self.walk_formula(scope, p)).collect())
            }
            Formula::And(parts) => {
                let mut rewritten: Vec<Formula> =
                    parts.iter().map(|p| self.walk_formula(scope, p)).collect();
                if let Some((var, attr)) = self.contradictory_conjunction(scope, &rewritten) {
                    self.emit(
                        Code::A007,
                        format!(
                            "conjunction is contradictory: {var}.{attr} is constrained \
                             to an empty interval"
                        ),
                        self.spans.component_span(&var, &attr),
                    );
                    self.changed = true;
                    return Formula::falsity();
                }
                let implied = self.implied_predicates(scope, &rewritten);
                if !implied.is_empty() {
                    self.changed = true;
                    rewritten.extend(implied.into_iter().map(Formula::Term));
                }
                Formula::and(rewritten)
            }
            Formula::Quant {
                q,
                var,
                range,
                body,
            } => {
                self.check_relation(range);
                if scope.iter().any(|(v, _)| v.as_ref() == var.as_ref()) {
                    self.emit(
                        Code::A010,
                        format!(
                            "range variable '{var}' shadows an enclosing declaration \
                             of the same name"
                        ),
                        self.spans.var_span(var),
                    );
                }
                // The planner drops it, assuming its range non-empty.
                if !body.mentions_var(var) {
                    self.emit(
                        Code::A009,
                        format!(
                            "the body of the {q} quantifier never mentions '{var}': \
                             the quantification degrades to a non-emptiness check \
                             on {}",
                            range.relation
                        ),
                        self.spans.var_span(var),
                    );
                }
                let range = {
                    let mut inner_scope = scope.clone();
                    inner_scope.push((var.clone(), range.relation.clone()));
                    self.walk_range(&inner_scope, range)
                };
                scope.push((var.clone(), range.relation.clone()));
                let body = self.walk_formula(scope, body);
                scope.pop();
                Formula::Quant {
                    q: *q,
                    var: var.clone(),
                    range,
                    body: Box::new(body),
                }
            }
        }
    }

    /// Type checks (A003/A004) and domain verdicts (A005/A006) for one term.
    fn check_term(&mut self, scope: &Scope, term: &Term) -> Term {
        let Term::Compare { left, op: _, right } = term else {
            return term.clone();
        };
        let lt = self.operand_type(scope, left);
        let rt = self.operand_type(scope, right);
        if let (Some(lt), Some(rt)) = (&lt, &rt) {
            match (lt, rt) {
                (ValueType::Enum(a), ValueType::Enum(b)) if a.name != b.name => {
                    self.emit(
                        Code::A004,
                        format!(
                            "comparison ({term}) mixes different enumerations: \
                             {} vs {}",
                            a.name, b.name
                        ),
                        self.spans.term_span(term),
                    );
                    return term.clone();
                }
                _ if kind_of(lt) != kind_of(rt) => {
                    self.emit(
                        Code::A003,
                        format!(
                            "comparison ({term}) mixes incompatible kinds: \
                             {} vs {}",
                            kind_of(lt),
                            kind_of(rt)
                        ),
                        self.spans.term_span(term),
                    );
                    return term.clone();
                }
                _ => {}
            }
        }
        // Domain/interval verdict for `var.attr OP constant` terms.
        for var in term.vars() {
            let Some((attr, op, value)) = term.as_monadic_constant(var.as_ref()) else {
                continue;
            };
            let Some(ty) = self.component_type(scope, &var, &attr, false) else {
                continue;
            };
            let (Some((lo, hi)), Some(c)) = (domain_of(&ty), ordinal_of(&value, &ty)) else {
                continue;
            };
            match verdict(op, lo, hi, c) {
                // A `false` restriction gives its quantifier the empty-range value.
                Some(false) => {
                    self.emit(
                        Code::A005,
                        format!(
                            "term ({term}) can never hold: {var}.{attr} has domain {} \
                             — rewritten to false",
                            ty.type_name()
                        ),
                        self.spans.term_span(term),
                    );
                    self.changed = true;
                    return Term::Bool(false);
                }
                Some(true) => {
                    self.emit(
                        Code::A006,
                        format!(
                            "term ({term}) always holds: {var}.{attr} has domain {} \
                             — rewritten to true",
                            ty.type_name()
                        ),
                        self.spans.term_span(term),
                    );
                    self.changed = true;
                    return Term::Bool(true);
                }
                None => {}
            }
        }
        term.clone()
    }

    /// Interval intersection over the direct conjuncts (A007): per
    /// `(var, attr)`, intersect the declared domain with every monadic
    /// constant constraint.  Two or more constraining terms whose
    /// intersection is empty make the whole conjunction false (a single
    /// empty term is A005 territory, already handled term-by-term).
    fn contradictory_conjunction(
        &mut self,
        scope: &Scope,
        parts: &[Formula],
    ) -> Option<(VarName, Arc<str>)> {
        let mut intervals: Vec<(ComponentKey, (i64, i64), usize)> = Vec::new();
        for part in parts {
            let Formula::Term(t) = part else { continue };
            for var in t.vars() {
                let Some((attr, op, value)) = t.as_monadic_constant(var.as_ref()) else {
                    continue;
                };
                let Some(ty) = self.component_type(scope, &var, &attr, false) else {
                    continue;
                };
                let (Some(domain), Some(c)) = (domain_of(&ty), ordinal_of(&value, &ty)) else {
                    continue;
                };
                let Some(constraint) = constraint_interval(op, c) else {
                    continue;
                };
                let key = (var.clone(), attr.clone());
                let entry = intervals.iter_mut().find(|(k, _, _)| *k == key);
                match entry {
                    Some((_, iv, n)) => {
                        *iv = intersect(*iv, constraint);
                        *n += 1;
                    }
                    None => intervals.push((key, intersect(domain, constraint), 1)),
                }
            }
        }
        intervals
            .into_iter()
            .find(|(_, (lo, hi), n)| *n >= 2 && lo > hi)
            .map(|(key, _, _)| key)
    }

    /// Implied predicates (A011): the transitive closure of the equality
    /// join terms among the direct conjuncts propagates each monadic scalar
    /// restriction to every other member of its equivalence class.
    fn implied_predicates(&mut self, scope: &Scope, parts: &[Formula]) -> Vec<Term> {
        // Union-find over the `(var, attr)` components joined by equality.
        let mut keys: Vec<(VarName, Arc<str>)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        let key_of = |keys: &mut Vec<(VarName, Arc<str>)>,
                      parent: &mut Vec<usize>,
                      k: (VarName, Arc<str>)| {
            match keys.iter().position(|e| *e == k) {
                Some(i) => i,
                None => {
                    keys.push(k);
                    parent.push(keys.len() - 1);
                    keys.len() - 1
                }
            }
        };
        let mut joined = false;
        for part in parts {
            let Formula::Term(Term::Compare {
                left: Operand::Component(a),
                op: CompareOp::Eq,
                right: Operand::Component(b),
            }) = part
            else {
                continue;
            };
            if a.var == b.var {
                continue;
            }
            let ia = key_of(&mut keys, &mut parent, (a.var.clone(), a.attr.clone()));
            let ib = key_of(&mut keys, &mut parent, (b.var.clone(), b.attr.clone()));
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            if ra != rb {
                parent[ra] = rb;
                joined = true;
            }
        }
        if !joined {
            return Vec::new();
        }

        let existing: BTreeSet<String> = parts
            .iter()
            .filter_map(|p| match p {
                Formula::Term(t) => Some(term_key(t)),
                _ => None,
            })
            .collect();
        let mut derived: Vec<Term> = Vec::new();
        for part in parts {
            let Formula::Term(t) = part else { continue };
            for var in t.vars() {
                let Some((attr, op, scalar)) = t.as_monadic_scalar(var.as_ref()) else {
                    continue;
                };
                let Some(src) = keys.iter().position(|k| k.0 == var && k.1 == attr) else {
                    continue;
                };
                let src_root = find(&mut parent, src);
                for (i, (w, battr)) in keys.iter().enumerate() {
                    if i == src || find(&mut parent, i) != src_root {
                        continue;
                    }
                    // Only propagate onto a component of a compatible kind
                    // (the equality join itself guarantees it when the
                    // query is well-typed; skip otherwise).
                    let src_ty = self.component_type(scope, &var, &attr, false);
                    let dst_ty = self.component_type(scope, w, battr, false);
                    let compatible = match (&src_ty, &dst_ty) {
                        (Some(a), Some(b)) => kind_of(a) == kind_of(b),
                        _ => false,
                    };
                    if !compatible {
                        continue;
                    }
                    let new_term =
                        Term::cmp(Operand::comp(w.clone(), battr.clone()), op, scalar.clone());
                    let key = term_key(&new_term);
                    if existing.contains(&key) || derived.iter().any(|d| term_key(d) == key) {
                        continue;
                    }
                    self.emit(
                        Code::A011,
                        format!(
                            "implied predicate ({new_term}) derived from ({t}) through \
                             the equality closure of {var}.{attr}"
                        ),
                        self.spans.term_span(t),
                    );
                    derived.push(new_term);
                }
            }
        }
        derived
    }
}

/// The declared interval of a finite, ordered domain.
fn domain_of(ty: &ValueType) -> Option<(i64, i64)> {
    match ty {
        ValueType::Bool => Some((0, 1)),
        ValueType::Int { min, max } => {
            if *min == i64::MIN && *max == i64::MAX {
                None
            } else {
                Some((*min, *max))
            }
        }
        ValueType::Enum(e) => {
            let n = e.cardinality() as i64;
            (n > 0).then(|| (0, n - 1))
        }
        ValueType::Str { .. } | ValueType::Ref { .. } => None,
    }
}

/// The ordinal of a constant within a typed domain, if the kinds agree.
fn ordinal_of(value: &Value, ty: &ValueType) -> Option<i64> {
    match (ty, value) {
        (ValueType::Bool, Value::Bool(b)) => Some(i64::from(*b)),
        (ValueType::Int { .. }, Value::Int(i)) => Some(*i),
        (ValueType::Enum(et), Value::Enum(ev)) if et.name == ev.ty.name => {
            Some(i64::from(ev.ordinal))
        }
        _ => None,
    }
}

/// Whether `x OP c` is statically false (`Some(false)`), statically true
/// (`Some(true)`) or undecided (`None`) for every `x` in `[lo, hi]`.
fn verdict(op: CompareOp, lo: i64, hi: i64, c: i64) -> Option<bool> {
    match op {
        CompareOp::Eq if c < lo || c > hi => Some(false),
        CompareOp::Eq if lo == hi && c == lo => Some(true),
        CompareOp::Ne if c < lo || c > hi => Some(true),
        CompareOp::Ne if lo == hi && c == lo => Some(false),
        CompareOp::Lt if c <= lo => Some(false),
        CompareOp::Lt if c > hi => Some(true),
        CompareOp::Le if c < lo => Some(false),
        CompareOp::Le if c >= hi => Some(true),
        CompareOp::Gt if c >= hi => Some(false),
        CompareOp::Gt if c < lo => Some(true),
        CompareOp::Ge if c > hi => Some(false),
        CompareOp::Ge if c <= lo => Some(true),
        _ => None,
    }
}

/// The interval of `x` values admitted by `x OP c` (saturating at the `i64`
/// edges — conservative: saturation can only *miss* a contradiction, never
/// invent one).
fn constraint_interval(op: CompareOp, c: i64) -> Option<(i64, i64)> {
    match op {
        CompareOp::Eq => Some((c, c)),
        CompareOp::Lt => Some((i64::MIN, c.saturating_sub(1))),
        CompareOp::Le => Some((i64::MIN, c)),
        CompareOp::Gt => Some((c.saturating_add(1), i64::MAX)),
        CompareOp::Ge => Some((c, i64::MAX)),
        CompareOp::Ne => None,
    }
}

fn intersect(a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
    (a.0.max(b.0), a.1.min(b.1))
}

/// The kind (comparability class) of a component type, mirroring
/// [`Value::kind_name`].
fn kind_of(ty: &ValueType) -> &'static str {
    match ty {
        ValueType::Bool => "boolean",
        ValueType::Int { .. } => "integer",
        ValueType::Str { .. } => "string",
        ValueType::Enum(_) => "enumeration",
        ValueType::Ref { .. } => "reference",
    }
}

/// The type of a constant operand (`None` for element references, whose
/// relation identity is a runtime notion).
fn type_of_value(v: &Value) -> Option<ValueType> {
    match v {
        Value::Bool(_) => Some(ValueType::Bool),
        Value::Int(_) => Some(ValueType::int()),
        Value::Str(s) => Some(ValueType::string(s.chars().count())),
        Value::Enum(e) => Some(ValueType::Enum(Arc::clone(&e.ty))),
        Value::Ref(_) => None,
    }
}
