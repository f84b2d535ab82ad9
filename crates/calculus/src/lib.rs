//! `pascalr-calculus`: the applied many-sorted first-order predicate calculus
//! underlying PASCAL/R selection expressions, together with the logic-based
//! transformations of Jarke & Schmidt (SIGMOD 1982).
//!
//! * [`ast`] — selection expressions: join terms, quantifiers, range
//!   expressions (plain and extended), formulas, selections;
//! * [`semantics`] — the defining (brute-force) semantics, used as the
//!   correctness oracle;
//! * [`normalize`] — the *standard form*: prenex normal form with a matrix in
//!   disjunctive normal form, plus the non-emptiness assumptions it makes;
//! * [`lemma1`] — Lemma 1 (empty-range anomalies) and the runtime
//!   adaptation of queries for ranges assumed non-empty that are empty;
//! * [`onesorted`] — A. Schmidt's conversion to the one-sorted calculus,
//!   executable for equivalence checking;
//! * [`params`] — named parameter placeholders (`:name`) and their binding,
//!   the basis of prepared queries;
//! * [`span`] — source spans and the parser-populated side table that lets
//!   diagnostics point at the offending token without storing positions in
//!   the AST;
//! * [`transform`] — extended range expressions (Strategy 3), separation of
//!   conjunctions for existential queries, and quantifier swapping.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lemma1;
pub mod normalize;
pub mod onesorted;
pub mod params;
pub mod semantics;
pub mod span;
pub mod transform;

pub use ast::{
    ComponentRef, Formula, Operand, ParamName, Quantifier, RangeDecl, RangeExpr, RelName,
    Selection, Term, VarName,
};
pub use error::CalculusError;
pub use lemma1::{adapt_formula_for_empty, adapt_selection_for_empty};
pub use normalize::{
    normalized_formula, standardize, Assumption, Conjunction, PrefixEntry, StandardForm,
    StandardizedSelection,
};
pub use params::Params;
pub use semantics::{eval_formula, eval_selection, Binding, Env, RelationProvider};
pub use span::{Span, SpanMap};
pub use transform::{
    extend_ranges, separate_existential, sink_variable, swap_adjacent_quantifiers, ExtendOptions,
    ExtendReport, Hoist, HoistKind,
};
