//! `pascalr-exec`: the three-phase query executor of the PASCAL/R
//! reproduction — collection phase (single lists, indexes, indirect joins,
//! value lists), combination phase (reference-relation joins, union,
//! projection for `SOME`, division for `ALL`) and construction phase
//! (dereferencing + component projection) — together with the runtime
//! adaptation for empty range relations.
//!
//! The single execution engine is the streaming [`ExecutionCursor`], which
//! owns a pinned [`pascalr_catalog::CatalogSnapshot`], produces result
//! tuples lazily, and pipelines the construction phase (and, for plans
//! without a quantifier prefix, the final combination pass)
//! tuple-by-tuple.  Because the cursor holds its own immutable snapshot,
//! it never blocks writers and never observes concurrent catalog updates.
//! [`execute`] is a thin materializing wrapper that drains the cursor into
//! a [`pascalr_relation::Relation`].

#![forbid(unsafe_code)]

pub mod collection;
pub mod combine;
pub mod cursor;
pub mod error;
pub mod executor;
mod predicate;
pub mod refrel;

pub use collection::{CollectionOutput, ConjStructures, DerivedCheck, IndirectJoin, VarInfo};
pub use cursor::ExecutionCursor;
pub use error::ExecError;
pub use executor::{execute, plan_and_execute, ExecutionResult, Fallback};
pub use refrel::RefRel;
