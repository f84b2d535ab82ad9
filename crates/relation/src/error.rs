//! Error type shared by the relation layer.

use std::fmt;

/// Errors raised by the relation/value layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// Two values of incompatible kinds (or different enumeration types) were
    /// compared.
    IncomparableValues {
        /// Kind of the left operand.
        left: String,
        /// Kind of the right operand.
        right: String,
    },
    /// A label was used that is not part of the enumeration type.
    UnknownEnumLabel {
        /// The enumeration type name.
        enum_name: String,
        /// The offending label.
        label: String,
    },
    /// A tuple did not match the schema (wrong arity or component type).
    SchemaMismatch {
        /// Relation name.
        relation: String,
        /// Description of what went wrong.
        detail: String,
    },
    /// An attribute name was not found in a schema.
    UnknownAttribute {
        /// Relation name.
        relation: String,
        /// The attribute that was looked up.
        attribute: String,
    },
    /// Key-uniqueness violation on insert (`:+` of an element whose key
    /// already exists with a different value).
    KeyViolation {
        /// Relation name.
        relation: String,
        /// Rendering of the key value.
        key: String,
    },
    /// An element reference did not resolve (dangling or wrong relation).
    DanglingReference {
        /// Description of the failed dereference.
        detail: String,
    },
    /// Two schemas were expected to be union-compatible but are not.
    Incompatible {
        /// Description of the incompatibility.
        detail: String,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::IncomparableValues { left, right } => {
                write!(f, "cannot compare {left} value with {right} value")
            }
            RelationError::UnknownEnumLabel { enum_name, label } => {
                write!(
                    f,
                    "'{label}' is not a label of enumeration type {enum_name}"
                )
            }
            RelationError::SchemaMismatch { relation, detail } => {
                write!(
                    f,
                    "tuple does not match schema of relation {relation}: {detail}"
                )
            }
            RelationError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(f, "relation {relation} has no component named {attribute}")
            }
            RelationError::KeyViolation { relation, key } => {
                write!(
                    f,
                    "key {key} already present in relation {relation} with a different element"
                )
            }
            RelationError::DanglingReference { detail } => {
                write!(f, "dangling element reference: {detail}")
            }
            RelationError::Incompatible { detail } => {
                write!(f, "relations are not compatible: {detail}")
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = RelationError::IncomparableValues {
            left: "integer".into(),
            right: "string".into(),
        };
        assert!(e.to_string().contains("integer"));
        assert!(e.to_string().contains("string"));

        let e = RelationError::KeyViolation {
            relation: "employees".into(),
            key: "<20>".into(),
        };
        assert!(e.to_string().contains("employees"));
        assert!(e.to_string().contains("<20>"));

        let e = RelationError::UnknownAttribute {
            relation: "courses".into(),
            attribute: "cname".into(),
        };
        assert!(e.to_string().contains("cname"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        let e = RelationError::Incompatible { detail: "x".into() };
        assert_err(&e);
    }
}
