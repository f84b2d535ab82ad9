//! `pascalr-relation`: the relational data model underlying the PASCAL/R
//! query-processing reproduction (Jarke & Schmidt, SIGMOD 1982).
//!
//! This crate provides:
//!
//! * [`value`] — PASCAL/R component values and types (booleans, integer
//!   subranges, enumerations, packed strings) plus reference values, and the
//!   six comparison operators of join terms;
//! * [`schema`] — relation schemas with declared keys;
//! * [`tuple`](mod@tuple) — relation elements;
//! * [`relation`] — the keyed [`Relation`] container with
//!   insertion (`:+`), deletion, key-oriented selected variables
//!   (`rel[keyval]`) and element references (`@rel[keyval]`);
//! * [`refs`] — element references, the paper's generalization of TIDs;
//! * [`index`] — (partial) hash indexes from component values to references;
//! * [`algebra`] — relational algebra (selection, projection, joins,
//!   product, union, difference, intersection, semijoin, antijoin, division)
//!   used by the combination phase and by the brute-force oracle.
//!
//! Everything here is deliberately independent of the calculus, the planner
//! and the executor; those layers build on this one.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod error;
pub mod index;
pub mod refs;
pub mod relation;
pub mod schema;
mod segments;
mod shards;
pub mod tuple;
pub mod value;

pub use error::RelationError;
pub use index::HashIndex;
pub use refs::{ElemRef, RelId, RowId};
pub use relation::{InsertOutcome, Relation};
pub use schema::{Attribute, Key, RelationSchema};
pub use tuple::{Tuple, TupleCow};
pub use value::{CompareOp, EnumType, EnumValue, Value, ValueType};
