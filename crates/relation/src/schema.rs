//! Relation schemas: component (attribute) declarations and keys.
//!
//! A PASCAL/R relation is declared as
//!
//! ```text
//! employees : RELATION <enr> OF
//!             RECORD
//!               enr     : enumbertype;
//!               ename   : nametype;
//!               estatus : statustype
//!             END;
//! ```
//!
//! i.e. a set of identically structured records with a designated key (the
//! component list in angular brackets).  [`RelationSchema`] captures exactly
//! this: an ordered list of named, typed components and the indices of the
//! key components.

use pascalr_sync::Arc;
use std::fmt;

use crate::error::RelationError;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};

/// A single named, typed component of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Component identifier, e.g. `enr`.
    pub name: Arc<str>,
    /// Component type, e.g. `enumbertype` (= `1..99`).
    pub ty: ValueType,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<Arc<str>>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// The schema (heading and key) of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation variable name, e.g. `employees`.
    pub name: Arc<str>,
    /// Components in declaration order.
    pub attributes: Vec<Attribute>,
    /// Indices (into `attributes`) of the key components, in declaration
    /// order of the key list.
    pub key: Vec<usize>,
}

impl RelationSchema {
    /// Creates a schema from a name, attributes, and key attribute *names*.
    ///
    /// If `key_names` is empty the key is taken to be all components (set
    /// semantics), which is how the paper's intermediate reference relations
    /// behave.
    pub fn new(
        name: impl Into<Arc<str>>,
        attributes: Vec<Attribute>,
        key_names: &[&str],
    ) -> Result<Arc<Self>, RelationError> {
        let name = name.into();
        let key = if key_names.is_empty() {
            (0..attributes.len()).collect()
        } else {
            let mut key = Vec::with_capacity(key_names.len());
            for kn in key_names {
                let idx = attributes
                    .iter()
                    .position(|a| a.name.as_ref() == *kn)
                    .ok_or_else(|| RelationError::UnknownAttribute {
                        relation: name.to_string(),
                        attribute: (*kn).to_string(),
                    })?;
                key.push(idx);
            }
            key
        };
        // Reject duplicate attribute names: component identifiers denote
        // components uniquely.
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(RelationError::SchemaMismatch {
                    relation: name.to_string(),
                    detail: format!("duplicate component identifier '{}'", a.name),
                });
            }
        }
        Ok(Arc::new(RelationSchema {
            name,
            attributes,
            key,
        }))
    }

    /// Convenience constructor for schemas whose key is every component
    /// (used for intermediate reference relations, single lists, indexes).
    pub fn all_key(name: impl Into<Arc<str>>, attributes: Vec<Attribute>) -> Arc<Self> {
        let n = attributes.len();
        Arc::new(RelationSchema {
            name: name.into(),
            attributes,
            key: (0..n).collect(),
        })
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Looks up a component index by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name.as_ref() == name)
    }

    /// Looks up a component index by name, reporting an error on failure.
    pub fn require_attr(&self, name: &str) -> Result<usize, RelationError> {
        self.attr_index(name)
            .ok_or_else(|| RelationError::UnknownAttribute {
                relation: self.name.to_string(),
                attribute: name.to_string(),
            })
    }

    /// The attribute at `idx`.
    pub fn attribute(&self, idx: usize) -> &Attribute {
        &self.attributes[idx]
    }

    /// Names of the key components.
    pub fn key_names(&self) -> Vec<&str> {
        self.key
            .iter()
            .map(|&i| self.attributes[i].name.as_ref())
            .collect()
    }

    /// Whether `idx` is part of the key.
    pub fn is_key_attr(&self, idx: usize) -> bool {
        self.key.contains(&idx)
    }

    /// Extracts the key of a tuple as an owned [`Key`].
    pub fn key_of(&self, tuple: &Tuple) -> Key {
        Key(self.key.iter().map(|&i| tuple.get(i).clone()).collect())
    }

    /// Builds a [`Key`] from values given in key-component order, checking
    /// arity and component types.
    pub fn make_key(&self, values: Vec<Value>) -> Result<Key, RelationError> {
        if values.len() != self.key.len() {
            return Err(RelationError::SchemaMismatch {
                relation: self.name.to_string(),
                detail: format!(
                    "key has {} component(s) but {} value(s) were given",
                    self.key.len(),
                    values.len()
                ),
            });
        }
        for (pos, (v, &attr_idx)) in values.iter().zip(self.key.iter()).enumerate() {
            let attr = &self.attributes[attr_idx];
            if !attr.ty.admits(v) {
                return Err(RelationError::SchemaMismatch {
                    relation: self.name.to_string(),
                    detail: format!(
                        "key component #{pos} ({}) does not admit value {v}",
                        attr.name
                    ),
                });
            }
        }
        Ok(Key(values.into_boxed_slice()))
    }

    /// Type-checks a tuple against this schema.
    pub fn check_tuple(&self, tuple: &Tuple) -> Result<(), RelationError> {
        if tuple.arity() != self.arity() {
            return Err(RelationError::SchemaMismatch {
                relation: self.name.to_string(),
                detail: format!(
                    "expected {} component(s), tuple has {}",
                    self.arity(),
                    tuple.arity()
                ),
            });
        }
        for (i, attr) in self.attributes.iter().enumerate() {
            let v = tuple.get(i);
            if !attr.ty.admits(v) {
                return Err(RelationError::SchemaMismatch {
                    relation: self.name.to_string(),
                    detail: format!(
                        "component {} of type {} does not admit value {}",
                        attr.name,
                        attr.ty.type_name(),
                        v
                    ),
                });
            }
        }
        Ok(())
    }

    /// Derives the schema obtained by projecting onto the components at
    /// `indices` (in the given order).  The key of the derived schema is all
    /// remaining components (projection produces a set).
    pub fn project(&self, indices: &[usize], new_name: impl Into<Arc<str>>) -> Arc<RelationSchema> {
        let attributes = indices
            .iter()
            .map(|&i| self.attributes[i].clone())
            .collect();
        RelationSchema::all_key(new_name, attributes)
    }

    /// Whether two schemas are union-compatible: same arity and pairwise
    /// compatible component types (names may differ).
    pub fn union_compatible(&self, other: &RelationSchema) -> bool {
        self.arity() == other.arity()
            && self
                .attributes
                .iter()
                .zip(other.attributes.iter())
                .all(|(a, b)| a.ty == b.ty)
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : RELATION <", self.name)?;
        for (i, &k) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.attributes[k].name)?;
        }
        write!(f, "> OF RECORD ")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} : {}", a.name, a.ty.type_name())?;
        }
        write!(f, " END")
    }
}

/// The key value of a relation element, used by the key-oriented selector
/// `rel[keyval]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key(pub Box<[Value]>);

impl Key {
    /// Creates a key from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Key(values.into_boxed_slice())
    }

    /// Creates a single-component key.
    pub fn single(value: impl Into<Value>) -> Self {
        Key(vec![value.into()].into_boxed_slice())
    }

    /// The key components.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{EnumType, ValueType};

    fn employees_schema() -> Arc<RelationSchema> {
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        RelationSchema::new(
            "employees",
            vec![
                Attribute::new("enr", ValueType::subrange(1, 99)),
                Attribute::new("ename", ValueType::string(10)),
                Attribute::new("estatus", ValueType::Enum(status)),
            ],
            &["enr"],
        )
        .unwrap()
    }

    #[test]
    fn schema_lookup_and_key_names() {
        let s = employees_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_index("ename"), Some(1));
        assert_eq!(s.attr_index("salary"), None);
        assert!(s.require_attr("salary").is_err());
        assert_eq!(s.key_names(), vec!["enr"]);
        assert!(s.is_key_attr(0));
        assert!(!s.is_key_attr(2));
    }

    #[test]
    fn duplicate_component_names_are_rejected() {
        let r = RelationSchema::new(
            "bad",
            vec![
                Attribute::new("x", ValueType::int()),
                Attribute::new("x", ValueType::int()),
            ],
            &[],
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_key_component_is_rejected() {
        let r = RelationSchema::new("bad", vec![Attribute::new("x", ValueType::int())], &["y"]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_key_list_means_all_components() {
        let s = RelationSchema::new(
            "refrel",
            vec![
                Attribute::new("cref", ValueType::reference("courses")),
                Attribute::new("tref", ValueType::reference("timetable")),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(s.key, vec![0, 1]);
    }

    #[test]
    fn tuple_checking_catches_arity_and_type_errors() {
        let s = employees_schema();
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        let ok = Tuple::new(vec![
            Value::int(20),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]);
        assert!(s.check_tuple(&ok).is_ok());

        let wrong_arity = Tuple::new(vec![Value::int(20)]);
        assert!(s.check_tuple(&wrong_arity).is_err());

        let wrong_type = Tuple::new(vec![
            Value::str("20"),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]);
        assert!(s.check_tuple(&wrong_type).is_err());

        let out_of_range = Tuple::new(vec![
            Value::int(1000),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]);
        assert!(s.check_tuple(&out_of_range).is_err());
    }

    #[test]
    fn key_extraction_and_make_key() {
        let s = employees_schema();
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        let t = Tuple::new(vec![
            Value::int(20),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]);
        let k = s.key_of(&t);
        assert_eq!(k.values(), &[Value::int(20)]);
        assert_eq!(k, s.make_key(vec![Value::int(20)]).unwrap());
        assert!(s.make_key(vec![Value::str("x")]).is_err());
        assert!(s.make_key(vec![]).is_err());
        assert_eq!(k.to_string(), "<20>");
    }

    #[test]
    fn projection_derives_all_key_schema() {
        let s = employees_schema();
        let p = s.project(&[1], "enames");
        assert_eq!(p.arity(), 1);
        assert_eq!(p.attributes[0].name.as_ref(), "ename");
        assert_eq!(p.key, vec![0]);
    }

    #[test]
    fn union_compatibility_ignores_names_but_not_types() {
        let a = RelationSchema::all_key("a", vec![Attribute::new("x", ValueType::subrange(1, 99))]);
        let b = RelationSchema::all_key("b", vec![Attribute::new("y", ValueType::subrange(1, 99))]);
        let c = RelationSchema::all_key("c", vec![Attribute::new("x", ValueType::string(5))]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn schema_display_mentions_key_and_components() {
        let s = employees_schema();
        let d = s.to_string();
        assert!(d.contains("employees : RELATION <enr>"));
        assert!(d.contains("ename : packed array [1..10] of char"));
    }
}
