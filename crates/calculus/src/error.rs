//! Errors raised by the calculus layer.

use std::fmt;

use pascalr_relation::RelationError;

/// Errors raised while analysing or evaluating selection expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalculusError {
    /// A range expression referred to a relation the provider does not know.
    UnknownRelation {
        /// The unknown relation name.
        relation: String,
    },
    /// A component reference used a variable that is not in scope.
    UnknownVariable {
        /// The unknown variable name.
        variable: String,
    },
    /// A component reference named a component the variable's relation does
    /// not have.
    UnknownComponent {
        /// The variable.
        variable: String,
        /// The missing component.
        attribute: String,
    },
    /// A range restriction mentioned a variable other than the one it binds.
    InvalidRestriction {
        /// The bound variable.
        variable: String,
        /// Description of the violation.
        detail: String,
    },
    /// A transformation was asked for that is not applicable (e.g. separating
    /// conjunctions of a query with universal quantifiers).
    NotApplicable {
        /// Why the transformation does not apply.
        detail: String,
    },
    /// A parameter placeholder was evaluated or substituted without a
    /// binding for it.
    UnboundParameter {
        /// The placeholder name (without the leading `:`).
        name: String,
    },
    /// An error bubbled up from the relation layer (typing, comparisons).
    Relation(RelationError),
}

impl fmt::Display for CalculusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalculusError::UnknownRelation { relation } => {
                write!(f, "unknown relation {relation} in range expression")
            }
            CalculusError::UnknownVariable { variable } => {
                write!(f, "variable {variable} is not range-coupled in this scope")
            }
            CalculusError::UnknownComponent {
                variable,
                attribute,
            } => write!(
                f,
                "variable {variable} has no component {attribute} in its range relation"
            ),
            CalculusError::InvalidRestriction { variable, detail } => {
                write!(f, "invalid range restriction for {variable}: {detail}")
            }
            CalculusError::NotApplicable { detail } => {
                write!(f, "transformation not applicable: {detail}")
            }
            CalculusError::UnboundParameter { name } => {
                write!(f, "parameter :{name} has no bound value")
            }
            CalculusError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CalculusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalculusError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CalculusError {
    fn from(e: RelationError) -> Self {
        CalculusError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CalculusError::UnknownVariable {
            variable: "q".into(),
        };
        assert!(e.to_string().contains('q'));
        let e: CalculusError = RelationError::DanglingReference {
            detail: "oops".into(),
        }
        .into();
        assert!(e.to_string().contains("oops"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
