//! Compiled tuple predicates: restrictions over one element variable,
//! resolved once per execution and then tested on every scanned element.
//!
//! The collection phase "performs data reduction (testing join terms)" on
//! every element it reads (Section 3.3).  Testing a restriction through the
//! calculus semantics ([`eval_formula`]) pays, per element, for an
//! environment map, a tuple clone and a schema lookup per component.  A
//! [`TuplePredicate`] resolves the names once, against the variable's
//! schema, into a tree whose leaves are
//!
//! * `column OP constant` — a constant on the left is moved right with the
//!   operator flipped;
//! * `column OP column` — two components of the same variable;
//! * a boolean constant,
//!
//! and whose inner nodes are `AND`, `OR` and `NOT`, evaluated left to right
//! with the same short-circuiting as [`eval_formula`].
//!
//! A sub-formula the compiler cannot resolve — a quantified restriction, a
//! component of another variable, an unknown component, an unbound
//! parameter — stays an **interpreted leaf**: on the elements that reach it
//! it calls [`eval_formula`] on the one-variable environment, exactly as
//! the uncompiled path did, so it succeeds, fails or errors on the same
//! elements with the same error.  [`eval_formula`] remains the defining
//! semantics and the test oracle; this module is its fast path, not a
//! second meaning.

use pascalr_sync::Arc;

use pascalr_calculus::{
    eval_formula, Binding, CalculusError, Env, Formula, Operand, RelationProvider, Term,
};
use pascalr_relation::{CompareOp, RelationSchema, Tuple, Value};

/// One node of a compiled restriction.
#[derive(Debug)]
enum Node {
    Bool(bool),
    /// `tuple[col] OP value`.  `swapped` records that the constant stood on
    /// the left in the source (and `op` is flipped), so an incomparable
    /// pair is reported in source order.
    Const {
        col: usize,
        op: CompareOp,
        value: Value,
        swapped: bool,
    },
    /// `tuple[left] OP tuple[right]`.
    Columns {
        left: usize,
        op: CompareOp,
        right: usize,
    },
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
    /// Evaluated by the calculus semantics on the tuples that reach it.
    Interpreted(Formula),
}

/// A conjunction of restrictions over one element variable, compiled
/// against the schema of the relation the variable ranges over.
#[derive(Debug)]
pub(crate) struct TuplePredicate {
    var: String,
    schema: Arc<RelationSchema>,
    conjuncts: Vec<Node>,
}

impl TuplePredicate {
    /// Compiles the conjunction of `conjuncts` (formulas over `var`).  No
    /// conjunct at all is the constant `true`.
    pub(crate) fn new<'f>(
        var: &str,
        schema: &Arc<RelationSchema>,
        conjuncts: impl IntoIterator<Item = &'f Formula>,
    ) -> Self {
        let mut pred = TuplePredicate {
            var: var.to_string(),
            schema: schema.clone(),
            conjuncts: Vec::new(),
        };
        pred.conjuncts = conjuncts.into_iter().map(|f| pred.formula(f)).collect();
        pred
    }

    /// Compiles the conjunction of join terms over `var` (a conjunction's
    /// monadic terms).
    pub(crate) fn of_terms<'t>(
        var: &str,
        schema: &Arc<RelationSchema>,
        terms: impl IntoIterator<Item = &'t Term>,
    ) -> Self {
        let mut pred = TuplePredicate::new(var, schema, []);
        pred.conjuncts = terms.into_iter().map(|t| pred.term(t)).collect();
        pred
    }

    /// Whether `tuple` satisfies every conjunct.  The conjuncts are tested
    /// in order up to the first that fails; `tested` is incremented once
    /// per conjunct tested (the paper's comparison unit for restrictions).
    pub(crate) fn holds(
        &self,
        tuple: &Tuple,
        provider: &dyn RelationProvider,
        tested: &mut u64,
    ) -> Result<bool, CalculusError> {
        for node in &self.conjuncts {
            *tested += 1;
            if !self.eval(node, tuple, provider)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn formula(&self, formula: &Formula) -> Node {
        match formula {
            Formula::Term(term) => self.term(term),
            Formula::Not(inner) => Node::Not(Box::new(self.formula(inner))),
            Formula::And(parts) => Node::And(parts.iter().map(|p| self.formula(p)).collect()),
            Formula::Or(parts) => Node::Or(parts.iter().map(|p| self.formula(p)).collect()),
            Formula::Quant { .. } => Node::Interpreted(formula.clone()),
        }
    }

    fn term(&self, term: &Term) -> Node {
        let (left, op, right) = match term {
            Term::Bool(b) => return Node::Bool(*b),
            Term::Compare { left, op, right } => (left, op, right),
        };
        let column = |operand: &Operand| match operand {
            Operand::Component(c) if c.var.as_ref() == self.var => self.schema.attr_index(&c.attr),
            _ => None,
        };
        let compiled = match (left, right) {
            (Operand::Component(_), Operand::Const(value)) => column(left).map(|col| Node::Const {
                col,
                op: *op,
                value: value.clone(),
                swapped: false,
            }),
            (Operand::Const(value), Operand::Component(_)) => {
                column(right).map(|col| Node::Const {
                    col,
                    op: op.flip(),
                    value: value.clone(),
                    swapped: true,
                })
            }
            (Operand::Component(_), Operand::Component(_)) => {
                column(left).zip(column(right)).map(|(l, r)| Node::Columns {
                    left: l,
                    op: *op,
                    right: r,
                })
            }
            _ => None,
        };
        compiled.unwrap_or_else(|| Node::Interpreted(Formula::Term(term.clone())))
    }

    fn eval(
        &self,
        node: &Node,
        tuple: &Tuple,
        provider: &dyn RelationProvider,
    ) -> Result<bool, CalculusError> {
        Ok(match node {
            Node::Bool(b) => *b,
            Node::Const {
                col,
                op,
                value,
                swapped,
            } => {
                let component = tuple.get(*col);
                match component.try_compare(value) {
                    Ok(ord) => op.holds(ord),
                    // Report the incomparable pair in source order.
                    Err(e) if *swapped => {
                        return Err(value.try_compare(component).err().unwrap_or(e).into())
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            Node::Columns { left, op, right } => op.eval(tuple.get(*left), tuple.get(*right))?,
            Node::Not(inner) => !self.eval(inner, tuple, provider)?,
            Node::And(parts) => {
                for part in parts {
                    if !self.eval(part, tuple, provider)? {
                        return Ok(false);
                    }
                }
                true
            }
            Node::Or(parts) => {
                for part in parts {
                    if self.eval(part, tuple, provider)? {
                        return Ok(true);
                    }
                }
                false
            }
            Node::Interpreted(formula) => {
                let mut env = Env::new();
                env.insert(
                    self.var.clone(),
                    Binding {
                        schema: self.schema.clone(),
                        tuple: tuple.clone(),
                    },
                );
                eval_formula(formula, provider, &env)?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::ExecProvider;
    use pascalr_calculus::{Quantifier, RangeExpr};
    use pascalr_catalog::Catalog;
    use pascalr_relation::{ElemRef, RelId, RowId};
    use pascalr_workload::figure1_sample_database;
    use proptest::prelude::*;

    /// Draws from a tape of generated numbers; an exhausted tape reads 0.
    struct Tape<'a>(std::slice::Iter<'a, u32>);

    impl Tape<'_> {
        fn next(&mut self, bound: u32) -> u32 {
            self.0.next().map_or(0, |n| n % bound)
        }
    }

    /// A value of every kind: boolean, integer (near the sample's
    /// employee numbers), string, the two enumeration types of the
    /// sample's employees and courses (which do not compare with each
    /// other), and reference.
    fn value(cat: &Catalog, t: &mut Tape<'_>) -> Value {
        let n = t.next(25);
        let label = |ty: &str| {
            cat.types()
                .enum_type(ty)
                .and_then(|e| e.value_at(n % 4).ok())
                .unwrap_or(Value::int(0))
        };
        match t.next(6) {
            0 => Value::Bool(n.is_multiple_of(2)),
            1 => Value::int(i64::from(n)),
            2 => Value::str(["Abel", "Baker", "Cohen", "Jones"][n as usize % 4]),
            3 => label("statustype"),
            4 => label("leveltype"),
            _ => Value::Ref(ElemRef::new(RelId(n % 2), RowId(n % 3))),
        }
    }

    /// A component of `e` — usually one of the employee attributes,
    /// sometimes one it does not have.
    fn component(t: &mut Tape<'_>) -> Operand {
        let attr = ["enr", "ename", "estatus", "enr", "estatus", "nosuch"][t.next(6) as usize];
        Operand::comp("e", attr)
    }

    /// A join term over `e`: a boolean constant, a component against a
    /// constant on either side, two components of `e`, or a term the
    /// compiler leaves to the semantics (another variable's component, an
    /// unbound parameter, two constants).
    fn term(cat: &Catalog, t: &mut Tape<'_>) -> Term {
        let op = CompareOp::ALL[t.next(6) as usize];
        match t.next(9) {
            0 => Term::Bool(t.next(2) == 0),
            1 | 2 => Term::cmp(component(t), op, Operand::Const(value(cat, t))),
            3 | 4 => Term::cmp(Operand::Const(value(cat, t)), op, component(t)),
            5 | 6 => Term::cmp(component(t), op, component(t)),
            7 => match t.next(3) {
                0 => Term::cmp(Operand::comp("p", "penr"), op, component(t)),
                1 => Term::cmp(component(t), op, Operand::param("who")),
                _ => Term::cmp(
                    Operand::Const(value(cat, t)),
                    op,
                    Operand::Const(value(cat, t)),
                ),
            },
            _ => Term::cmp(component(t), op, component(t)),
        }
    }

    /// A formula over `e` of bounded depth, with `AND`/`OR`/`NOT` nodes and
    /// quantified sub-formulas over the sample's papers.
    fn formula(cat: &Catalog, t: &mut Tape<'_>, depth: u32) -> Formula {
        let pick = if depth == 0 { 0 } else { t.next(8) };
        let parts = |t: &mut Tape<'_>| -> Vec<Formula> {
            (0..1 + t.next(3))
                .map(|_| formula(cat, t, depth - 1))
                .collect()
        };
        match pick {
            0..=2 => Formula::Term(term(cat, t)),
            3 => Formula::Not(Box::new(formula(cat, t, depth - 1))),
            4 => Formula::And(parts(t)),
            5 => Formula::Or(parts(t)),
            _ => {
                let q = [Quantifier::Some, Quantifier::All][t.next(2) as usize];
                let op = CompareOp::ALL[t.next(6) as usize];
                let link = Formula::compare(Operand::comp("p", "penr"), op, component(t));
                let range = if t.next(2) == 0 {
                    RangeExpr::relation("papers")
                } else {
                    RangeExpr::restricted(
                        "papers",
                        Formula::compare(
                            Operand::comp("p", "pyear"),
                            CompareOp::Eq,
                            Operand::constant(1977),
                        ),
                    )
                };
                Formula::Quant {
                    q,
                    var: "p".into(),
                    range,
                    body: Box::new(Formula::and(vec![link, formula(cat, t, depth - 1)])),
                }
            }
        }
    }

    /// The defining semantics on the one-variable environment.
    fn oracle(cat: &Catalog, formula: &Formula, tuple: &Tuple) -> Result<bool, CalculusError> {
        let mut env = Env::new();
        env.insert(
            "e".to_string(),
            Binding {
                schema: employees(cat).clone(),
                tuple: tuple.clone(),
            },
        );
        eval_formula(formula, &ExecProvider(cat), &env)
    }

    fn employees(cat: &Catalog) -> &Arc<RelationSchema> {
        match cat.relation("employees") {
            Ok(rel) => rel.schema(),
            Err(e) => panic!("the sample database has employees: {e}"),
        }
    }

    /// The sample's employees plus `extra` generated tuples of any kinds.
    fn tuples(cat: &Catalog, t: &mut Tape<'_>, extra: usize) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = match cat.relation("employees") {
            Ok(rel) => rel.tuples().cloned().collect(),
            Err(e) => panic!("the sample database has employees: {e}"),
        };
        for _ in 0..extra {
            out.push(Tuple::new((0..3).map(|_| value(cat, t)).collect()));
        }
        out
    }

    fn count_interpreted(node: &Node) -> usize {
        match node {
            Node::Interpreted(_) => 1,
            Node::Not(inner) => count_interpreted(inner),
            Node::And(parts) | Node::Or(parts) => parts.iter().map(count_interpreted).sum(),
            Node::Bool(_) | Node::Const { .. } | Node::Columns { .. } => 0,
        }
    }

    #[test]
    fn resolvable_terms_compile_and_the_rest_is_interpreted() {
        let cat = figure1_sample_database().unwrap();
        let schema = employees(&cat);
        let professor = cat
            .types()
            .enum_type("statustype")
            .unwrap()
            .value("professor")
            .unwrap();
        let compiled = Formula::or(vec![
            Formula::and(vec![
                Formula::compare(
                    Operand::comp("e", "estatus"),
                    CompareOp::Eq,
                    Operand::Const(professor),
                ),
                Formula::compare(
                    Operand::constant(11),
                    CompareOp::Le,
                    Operand::comp("e", "enr"),
                ),
            ]),
            Formula::not(Formula::compare(
                Operand::comp("e", "enr"),
                CompareOp::Ne,
                Operand::comp("e", "enr"),
            )),
            Formula::falsity(),
        ]);
        let pred = TuplePredicate::new("e", schema, [&compiled]);
        assert_eq!(count_interpreted(&pred.conjuncts[0]), 0);
        let kept: Vec<bool> = tuples(&cat, &mut Tape([].iter()), 0)
            .iter()
            .map(|t| pred.holds(t, &ExecProvider(&cat), &mut 0).unwrap())
            .collect();
        // Every element satisfies `NOT (e.enr <> e.enr)`.
        assert!(kept.iter().all(|&k| k));

        let quantified = Formula::some(
            "p",
            RangeExpr::relation("papers"),
            Formula::compare(
                Operand::comp("p", "penr"),
                CompareOp::Eq,
                Operand::comp("e", "enr"),
            ),
        );
        let unknown = Formula::compare(
            Operand::comp("e", "nosuch"),
            CompareOp::Eq,
            Operand::constant(1),
        );
        let pred = TuplePredicate::new(
            "e",
            schema,
            [&Formula::and(vec![compiled, quantified, unknown])],
        );
        assert_eq!(count_interpreted(&pred.conjuncts[0]), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A compiled restriction answers exactly as the calculus semantics
        /// — the same verdict, or the same error — on the sample's
        /// employees and on generated tuples of every value kind.
        #[test]
        fn compiled_restrictions_agree_with_the_semantics(
            draws in proptest::collection::vec(any::<u32>(), 64),
            depth in 0u32..4,
        ) {
            let cat = figure1_sample_database().unwrap();
            let mut t = Tape(draws.iter());
            let restriction = formula(&cat, &mut t, depth);
            let pred = TuplePredicate::new("e", employees(&cat), [&restriction]);
            for tuple in tuples(&cat, &mut t, 4) {
                let mut tested = 0;
                let compiled = pred.holds(&tuple, &ExecProvider(&cat), &mut tested);
                prop_assert_eq!(
                    &compiled,
                    &oracle(&cat, &restriction, &tuple),
                    "{} on {:?}",
                    restriction,
                    tuple
                );
                prop_assert_eq!(tested, 1);
            }
        }

        /// A conjunction of terms tests them in order up to the first that
        /// fails or errors, and counts each term it tests.
        #[test]
        fn compiled_terms_count_the_terms_they_test(
            draws in proptest::collection::vec(any::<u32>(), 48),
            n_terms in 0usize..4,
        ) {
            let cat = figure1_sample_database().unwrap();
            let mut t = Tape(draws.iter());
            let terms: Vec<Term> = (0..n_terms).map(|_| term(&cat, &mut t)).collect();
            let pred = TuplePredicate::of_terms("e", employees(&cat), &terms);
            for tuple in tuples(&cat, &mut t, 4) {
                let mut expected_tested = 0u64;
                let mut expected = Ok(true);
                for term in &terms {
                    expected_tested += 1;
                    match oracle(&cat, &Formula::Term(term.clone()), &tuple) {
                        Ok(true) => {}
                        other => {
                            expected = other;
                            break;
                        }
                    }
                }
                let mut tested = 0;
                let compiled = pred.holds(&tuple, &ExecProvider(&cat), &mut tested);
                prop_assert_eq!(&compiled, &expected, "{:?} on {:?}", terms, tuple);
                prop_assert_eq!(tested, expected_tested);
            }
        }
    }
}
