//! Errors raised by the executor.

use std::fmt;

use pascalr_calculus::{Assumption, CalculusError};
use pascalr_catalog::CatalogError;
use pascalr_relation::RelationError;

/// Errors raised while executing a query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A component reference could not be resolved against its variable's
    /// range relation.
    UnknownComponent {
        /// The variable.
        variable: String,
        /// The component.
        attribute: String,
    },
    /// A plan invariant was violated (internal error).
    PlanInvariant {
        /// Description.
        detail: String,
    },
    /// A range the plan assumed non-empty is empty.  Raised by collection;
    /// the [`crate::ExecutionCursor`] adapts the query and re-plans.
    AssumedRangeEmpty(Assumption),
    /// Error from the calculus layer (oracle, adaptation, result schema).
    Calculus(CalculusError),
    /// Error from the catalog layer (a range over an undeclared relation,
    /// say).
    Catalog(CatalogError),
    /// Error from the relation layer.
    Relation(RelationError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownComponent {
                variable,
                attribute,
            } => write!(
                f,
                "variable {variable} has no component {attribute} in its range relation"
            ),
            ExecError::PlanInvariant { detail } => write!(f, "plan invariant violated: {detail}"),
            ExecError::AssumedRangeEmpty(assumed) => {
                write!(f, "range assumed non-empty is empty: {assumed}")
            }
            ExecError::Calculus(e) => write!(f, "{e}"),
            ExecError::Catalog(e) => write!(f, "{e}"),
            ExecError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CalculusError> for ExecError {
    fn from(e: CalculusError) -> Self {
        ExecError::Calculus(e)
    }
}
impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        ExecError::Catalog(e)
    }
}
impl From<RelationError> for ExecError {
    fn from(e: RelationError) -> Self {
        ExecError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ExecError = CalculusError::UnknownVariable {
            variable: "x".into(),
        }
        .into();
        assert!(e.to_string().contains('x'));
        let e: ExecError = CatalogError::UnknownRelation {
            name: "papers".into(),
        }
        .into();
        assert!(e.to_string().contains("papers"));
        let e: ExecError = RelationError::DanglingReference {
            detail: "bad".into(),
        }
        .into();
        assert!(e.to_string().contains("bad"));
        let e = ExecError::PlanInvariant {
            detail: "oops".into(),
        };
        assert!(e.to_string().contains("oops"));
    }
}
