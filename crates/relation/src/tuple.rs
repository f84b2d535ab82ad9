//! Tuples (relation elements).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// A relation element: an ordered list of component values.
///
/// Tuples are immutable once constructed; updates in PASCAL/R are expressed
/// as deletion plus insertion (or assignment of a whole new relation value),
/// which keeps element references stable for live elements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Creates a tuple from component values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into_boxed_slice())
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The component at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds; callers are expected to have
    /// validated attribute indices against the schema.
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// The component at `idx`, if present.
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// All components.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Builds a new tuple containing the components at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenates two tuples (used by joins and Cartesian products).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v.into_boxed_slice())
    }
}

/// A borrowed projection: the would-be components of a result tuple as
/// references into the source relations' elements.
///
/// The streaming construction phase projects every qualified reference
/// tuple onto the component selection.  Materializing that projection
/// clones every value (strings included) even when the row turns out to be
/// a duplicate that set semantics will drop.  `TupleCow` defers the clone:
/// it supports hashing ([`TupleCow::hash64`]) and comparison against owned
/// tuples ([`TupleCow::matches`]) on the borrowed values, and only
/// [`TupleCow::into_tuple`] pays for the copy — which a streaming cursor
/// calls exclusively for rows it actually emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleCow<'a>(Vec<&'a Value>);

impl<'a> TupleCow<'a> {
    /// Creates a borrowed projection from component references.
    pub fn new(values: Vec<&'a Value>) -> Self {
        TupleCow(values)
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The borrowed components.
    pub fn values(&self) -> &[&'a Value] {
        &self.0
    }

    /// A 64-bit hash of the projected components, identical to the hash an
    /// owned [`Tuple`] with the same values would produce under the same
    /// hasher seedless default — usable as a pre-filter key for duplicate
    /// detection without constructing the owned tuple.
    pub fn hash64(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for v in &self.0 {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Component-wise equality against an owned tuple.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.0.len() == tuple.arity() && self.0.iter().zip(tuple.values()).all(|(a, b)| **a == *b)
    }

    /// Materializes the projection, cloning each component once.
    pub fn into_tuple(self) -> Tuple {
        Tuple(self.0.into_iter().cloned().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Builds a tuple from anything convertible to values.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new(vec![Value::int(20), Value::str("Highman")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::int(20));
        assert_eq!(t.try_get(1), Some(&Value::str("Highman")));
        assert_eq!(t.try_get(2), None);
        assert_eq!(t.values().len(), 2);
    }

    #[test]
    fn projection_reorders_and_duplicates() {
        let t = Tuple::new(vec![Value::int(1), Value::int(2), Value::int(3)]);
        let p = t.project(&[2, 0, 2]);
        assert_eq!(p.values(), &[Value::int(3), Value::int(1), Value::int(3)]);
    }

    #[test]
    fn concat_joins_component_lists() {
        let a = Tuple::new(vec![Value::int(1)]);
        let b = Tuple::new(vec![Value::str("x"), Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(1), &Value::str("x"));
    }

    #[test]
    fn display_uses_angle_brackets() {
        let t = Tuple::new(vec![Value::int(20), Value::str("Highman")]);
        assert_eq!(t.to_string(), "<20, 'Highman'>");
    }

    #[test]
    fn tuple_cow_matches_and_materializes() {
        let owned = Tuple::new(vec![Value::int(20), Value::str("Highman")]);
        let v0 = Value::int(20);
        let v1 = Value::str("Highman");
        let cow = TupleCow::new(vec![&v0, &v1]);
        assert_eq!(cow.arity(), 2);
        assert!(cow.matches(&owned));
        let other = Tuple::new(vec![Value::int(21), Value::str("Highman")]);
        assert!(!cow.matches(&other));
        assert!(!cow.matches(&Tuple::new(vec![Value::int(20)])));

        // Equal projections hash equally; the materialized tuple round-trips.
        let cow2 = TupleCow::new(vec![&v0, &v1]);
        assert_eq!(cow.hash64(), cow2.hash64());
        assert_eq!(cow.values().len(), 2);
        assert_eq!(cow.into_tuple(), owned);
    }

    #[test]
    fn tuple_macro_converts_values() {
        let t = tuple![20, "Highman", true];
        assert_eq!(t.get(0), &Value::int(20));
        assert_eq!(t.get(1), &Value::str("Highman"));
        assert_eq!(t.get(2), &Value::Bool(true));
    }
}
