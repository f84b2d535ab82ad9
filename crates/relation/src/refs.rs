//! Element references: the paper's `@rel[keyval]` construct.
//!
//! Section 3.1 of the paper introduces *selected variables* (`rel[keyval]`,
//! the element of `rel` whose key is `keyval`) and *references* to selected
//! variables (`@rel[keyval]`), a generalization of the tuple identifiers
//! (TIDs) used by other systems.  A reference value can be stored as a
//! component of another relation, which is exactly how the intermediate
//! structures of the evaluation framework (single lists, indexes, indirect
//! joins, reference relations) are built.
//!
//! In this reproduction a reference is a pair of a stable relation id
//! ([`RelId`], assigned by the catalog) and a stable row slot ([`RowId`],
//! assigned by the relation on insertion and never reused for a different
//! element while the element is live).

use std::fmt;

/// Identifier of a relation variable within a database catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// An id that is never assigned to a real relation; used for detached
    /// relations that are not registered in a catalog (e.g. intermediate
    /// reference relations).
    pub const DETACHED: RelId = RelId(u32::MAX);

    /// Whether this id denotes a catalog-registered relation.
    pub fn is_registered(self) -> bool {
        self != RelId::DETACHED
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == RelId::DETACHED {
            write!(f, "rel?")
        } else {
            write!(f, "rel{}", self.0)
        }
    }
}

/// Identifier of a row slot within a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A reference to a selected variable: `@rel[keyval]`.
///
/// References are compact (8 bytes), `Copy`, hashable and totally ordered, so
/// reference relations can be stored, joined, projected and divided cheaply —
/// this is the data-compression step of the paper's collection phase
/// ("records to references").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemRef {
    /// The relation the referenced element lives in.
    pub rel: RelId,
    /// The row slot of the referenced element.
    pub row: RowId,
}

impl ElemRef {
    /// Creates a reference from its parts.
    pub fn new(rel: RelId, row: RowId) -> Self {
        ElemRef { rel, row }
    }
}

impl fmt::Display for ElemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}[{}]", self.rel, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn refs_are_small_copy_and_hashable() {
        assert!(std::mem::size_of::<ElemRef>() <= 8);
        let a = ElemRef::new(RelId(1), RowId(2));
        let b = a; // Copy
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn refs_order_by_relation_then_row() {
        let a = ElemRef::new(RelId(1), RowId(9));
        let b = ElemRef::new(RelId(2), RowId(0));
        let c = ElemRef::new(RelId(2), RowId(5));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn detached_relation_id_display() {
        assert_eq!(RelId::DETACHED.to_string(), "rel?");
        assert!(!RelId::DETACHED.is_registered());
        assert!(RelId(3).is_registered());
        assert_eq!(ElemRef::new(RelId(3), RowId(1)).to_string(), "@rel3[1]");
    }
}
