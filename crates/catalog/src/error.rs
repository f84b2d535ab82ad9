//! Errors raised by the catalog layer.

use std::fmt;

use pascalr_relation::RelationError;

/// Errors raised when declaring or accessing catalog objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A type name was declared twice.
    DuplicateType {
        /// The duplicated type name.
        name: String,
    },
    /// A type name was used that has not been declared.
    UnknownType {
        /// The unknown type name.
        name: String,
    },
    /// A relation name was declared twice.
    DuplicateRelation {
        /// The duplicated relation name.
        name: String,
    },
    /// A relation name was used that has not been declared.
    UnknownRelation {
        /// The unknown relation name.
        name: String,
    },
    /// An index declaration referred to a missing relation or component.
    InvalidIndex {
        /// Description of the problem.
        detail: String,
    },
    /// An error bubbled up from the relation layer.
    Relation(RelationError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateType { name } => write!(f, "type {name} is already declared"),
            CatalogError::UnknownType { name } => write!(f, "type {name} has not been declared"),
            CatalogError::DuplicateRelation { name } => {
                write!(f, "relation {name} is already declared")
            }
            CatalogError::UnknownRelation { name } => {
                write!(f, "relation {name} has not been declared")
            }
            CatalogError::InvalidIndex { detail } => {
                write!(f, "invalid index declaration: {detail}")
            }
            CatalogError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CatalogError {
    fn from(e: RelationError) -> Self {
        CatalogError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = CatalogError::UnknownRelation {
            name: "employees".into(),
        };
        assert!(e.to_string().contains("employees"));
        let r = RelationError::DanglingReference {
            detail: "bad".into(),
        };
        let c: CatalogError = r.into();
        assert!(matches!(c, CatalogError::Relation(_)));
        assert!(c.to_string().contains("bad"));
        use std::error::Error;
        assert!(c.source().is_some());
        assert!(CatalogError::DuplicateType { name: "t".into() }
            .source()
            .is_none());
    }
}
