//! The `Relation` container: a keyed set of identically structured elements.
//!
//! A PASCAL/R `RELATION` holds a variable number of elements with set
//! semantics and a declared key.  This module provides:
//!
//! * element insertion `:+`, deletion `:-` and whole-relation assignment,
//! * the key-oriented selector `rel[keyval]` ("selected variables"),
//! * stable element references `@rel[keyval]` ([`ElemRef`]) and their
//!   dereferencing,
//! * iteration in `FOR EACH r IN rel` order (insertion order of live
//!   elements).
//!
//! Row slots are never reused while an element is live, and deleting an
//! element leaves a tombstone so that dangling references are detected
//! rather than silently resolving to a different element.
//!
//! # Structural sharing
//!
//! A relation is stored in pieces that versions share: row slots in
//! fixed-size segments and the key index (key hash → [`RowId`], the key
//! itself read back from the row) in hash shards, each piece behind its
//! own [`Arc`].  Cloning a relation copies one `Arc` per piece, and a
//! write unshares only the piece it touches — an insert the tail segment
//! and one key shard, a deletion the tombstoned row's segment and one key
//! shard.  A catalog commit therefore costs O(Δ), not O(|relation|), and a
//! [`RowId`] addresses the same slot in every version.

use pascalr_sync::Arc;
use std::fmt;

use crate::error::RelationError;
use crate::refs::{ElemRef, RelId, RowId};
use crate::schema::{Key, RelationSchema};
use crate::segments::Segments;
use crate::shards::ShardedMap;
use crate::tuple::Tuple;
use crate::value::Value;

/// Result of an `:+` insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The element was new and has been added.
    Inserted(ElemRef),
    /// An identical element (same key, same components) was already present;
    /// set semantics make this a no-op.
    AlreadyPresent(ElemRef),
}

impl InsertOutcome {
    /// The reference of the (new or pre-existing) element.
    pub fn elem_ref(&self) -> ElemRef {
        match self {
            InsertOutcome::Inserted(r) | InsertOutcome::AlreadyPresent(r) => *r,
        }
    }

    /// Whether a new element was actually added.
    pub fn was_inserted(&self) -> bool {
        matches!(self, InsertOutcome::Inserted(_))
    }
}

/// A relation variable: schema plus current element set.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<RelationSchema>,
    id: RelId,
    rows: Segments,
    key_index: ShardedMap<RowId>,
    live: usize,
}

/// Whether `tuple`'s components at `key_cols` equal `key`.
fn key_matches(key_cols: &[usize], key: &[Value], tuple: &Tuple) -> bool {
    key_cols.len() == key.len() && key_cols.iter().zip(key).all(|(&c, v)| tuple.get(c) == v)
}

impl Relation {
    /// Creates an empty relation with the given schema, not registered in
    /// any catalog (`RelId::DETACHED`).
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        Relation::with_id(schema, RelId::DETACHED)
    }

    /// Creates an empty relation registered under `id` (used by the catalog).
    pub fn with_id(schema: Arc<RelationSchema>, id: RelId) -> Self {
        Relation {
            schema,
            id,
            rows: Segments::default(),
            key_index: ShardedMap::default(),
            live: 0,
        }
    }

    /// Creates a relation pre-populated from an iterator of tuples.
    pub fn from_tuples(
        schema: Arc<RelationSchema>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelationError> {
        let mut rel = Relation::new(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Reconstructs a relation from an exact slot image (live tuples and
    /// `None` tombstones), keeping every tuple at its original [`RowId`].
    ///
    /// This is the storage-recovery constructor: a reopened database must
    /// deserialize heap pages back into a relation whose `ElemRef`s —
    /// stored inside other relations as [`Value::Ref`] components — still
    /// point at the right rows, so slot positions (including tombstones)
    /// are preserved rather than compacted.
    ///
    /// [`Value::Ref`]: crate::value::Value::Ref
    pub fn from_slots(
        schema: Arc<RelationSchema>,
        id: RelId,
        slots: Vec<Option<Tuple>>,
    ) -> Result<Self, RelationError> {
        let mut rel = Relation::with_id(schema, id);
        rel.rows = Segments::from_slots(slots);
        for (row, tuple) in rel.rows.live() {
            rel.schema.check_tuple(tuple)?;
            let hash = rel.key_hash(tuple);
            if rel.find_tuple(hash, tuple).is_some() {
                return Err(rel.key_violation(tuple));
            }
            rel.key_index.insert_new(hash, row);
            rel.live += 1;
        }
        Ok(rel)
    }

    /// The exact slot image (live tuples and `None` tombstones) in
    /// [`RowId`] order — the inverse of [`Relation::from_slots`], used
    /// when the storage backend checkpoints this relation.
    pub fn slots(&self) -> impl Iterator<Item = Option<&Tuple>> + '_ {
        self.rows.slots()
    }

    /// The hash of `tuple`'s key components.
    fn key_hash(&self, tuple: &Tuple) -> u64 {
        self.key_index
            .hash(self.schema.key.iter().map(|&c| tuple.get(c)))
    }

    /// The row of the live element whose key hashes to `hash` and passes
    /// `is_key`.  The index stores no keys: candidates are checked against
    /// the rows themselves.
    fn find(&self, hash: u64, is_key: impl Fn(&Tuple) -> bool) -> Option<RowId> {
        let rows = &self.rows;
        self.key_index
            .get(hash, |&row| rows.get(row).is_some_and(&is_key))
            .copied()
    }

    /// The row of the live element with the same key as `tuple`.
    fn find_tuple(&self, hash: u64, tuple: &Tuple) -> Option<RowId> {
        let key_cols = &self.schema.key;
        self.find(hash, |t| key_cols.iter().all(|&c| t.get(c) == tuple.get(c)))
    }

    /// The row of the live element with key `key`.
    fn find_key(&self, key: &Key) -> Option<RowId> {
        let key_cols = &self.schema.key;
        self.find(self.key_index.hash(key.values()), |t| {
            key_matches(key_cols, key.values(), t)
        })
    }

    fn key_violation(&self, tuple: &Tuple) -> RelationError {
        RelationError::KeyViolation {
            relation: self.schema.name.to_string(),
            key: self.schema.key_of(tuple).to_string(),
        }
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The relation's catalog id (or [`RelId::DETACHED`]).
    pub fn id(&self) -> RelId {
        self.id
    }

    /// Sets the catalog id; used when a relation is registered.
    pub fn set_id(&mut self, id: RelId) {
        self.id = id;
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of live elements.
    pub fn cardinality(&self) -> usize {
        self.live
    }

    /// Whether the relation is empty (`rel = []`), the case Lemma 1 cares
    /// about.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of row slots ever allocated (live + tombstones); useful for
    /// storage accounting.
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Inserts an element (`rel :+ [tuple]`).
    ///
    /// * If an identical element is already present this is a no-op.
    /// * If an element with the same key but different non-key components is
    ///   present, a [`RelationError::KeyViolation`] is returned.
    pub fn insert(&mut self, tuple: Tuple) -> Result<InsertOutcome, RelationError> {
        self.schema.check_tuple(&tuple)?;
        let hash = self.key_hash(&tuple);
        if let Some(row) = self.find_tuple(hash, &tuple) {
            if self.rows.get(row) == Some(&tuple) {
                return Ok(InsertOutcome::AlreadyPresent(ElemRef::new(self.id, row)));
            }
            return Err(self.key_violation(&tuple));
        }
        let row = self.rows.push(tuple);
        self.key_index.insert_new(hash, row);
        self.live += 1;
        Ok(InsertOutcome::Inserted(ElemRef::new(self.id, row)))
    }

    /// Inserts all elements of an iterator, stopping at the first error.
    pub fn insert_all(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, RelationError> {
        let mut inserted = 0;
        for t in tuples {
            if self.insert(t)?.was_inserted() {
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// Deletes the element with the given key (`rel :- [rel[key]]`).
    ///
    /// Returns `true` if an element was removed.
    pub fn delete_key(&mut self, key: &Key) -> bool {
        let (rows, key_cols) = (&self.rows, &self.schema.key);
        let hash = self.key_index.hash(key.values());
        let removed = self.key_index.remove(hash, |&row| {
            rows.get(row)
                .is_some_and(|t| key_matches(key_cols, key.values(), t))
        });
        let Some(row) = removed else { return false };
        self.rows.tombstone(row);
        self.live -= 1;
        true
    }

    /// Removes all elements, keeping the schema.
    pub fn clear(&mut self) {
        self.rows = Segments::default();
        self.key_index = ShardedMap::default();
        self.live = 0;
    }

    /// The key-oriented selector `rel[keyval]`: the element with key `key`.
    pub fn select_by_key(&self, key: &Key) -> Option<&Tuple> {
        self.find_key(key).and_then(|row| self.rows.get(row))
    }

    /// The reference `@rel[keyval]` to the element with key `key`.
    pub fn ref_by_key(&self, key: &Key) -> Option<ElemRef> {
        self.find_key(key).map(|row| ElemRef::new(self.id, row))
    }

    /// Dereferences an element reference produced by this relation.
    ///
    /// Fails if the reference belongs to another relation or the element has
    /// been deleted since the reference was taken.
    pub fn deref(&self, elem_ref: ElemRef) -> Result<&Tuple, RelationError> {
        if elem_ref.rel != self.id {
            return Err(RelationError::DanglingReference {
                detail: format!(
                    "reference {elem_ref} does not belong to relation {} ({})",
                    self.schema.name, self.id
                ),
            });
        }
        self.rows
            .get(elem_ref.row)
            .ok_or_else(|| RelationError::DanglingReference {
                detail: format!(
                    "reference {elem_ref} in relation {} points at a deleted element",
                    self.schema.name
                ),
            })
    }

    /// The tuple stored at a row slot, if live (id-agnostic variant of
    /// [`Relation::deref`] used by detached intermediate relations).
    pub fn row(&self, row: RowId) -> Option<&Tuple> {
        self.rows.get(row)
    }

    /// Iterates over `(reference, element)` pairs in insertion order
    /// (`FOR EACH r IN rel`).
    pub fn iter(&self) -> impl Iterator<Item = (ElemRef, &Tuple)> + '_ {
        let id = self.id;
        self.rows
            .live()
            .map(move |(row, t)| (ElemRef::new(id, row), t))
    }

    /// Iterates over the elements only.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.live().map(|(_, t)| t)
    }

    /// Collects the elements into a vector (mostly for tests and display).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.tuples().cloned().collect()
    }

    /// Whether an identical element is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_compatible(tuple)
    }

    /// Reads the named component of the element referenced by `elem_ref`.
    pub fn component(&self, elem_ref: ElemRef, attr: &str) -> Result<&Value, RelationError> {
        let idx = self.schema.require_attr(attr)?;
        Ok(self.deref(elem_ref)?.get(idx))
    }

    /// Set-equality of the element sets of two relations (schemas must be
    /// union-compatible; component names are ignored).
    pub fn set_eq(&self, other: &Relation) -> bool {
        if !self.schema.union_compatible(&other.schema) {
            return false;
        }
        if self.cardinality() != other.cardinality() {
            return false;
        }
        self.tuples().all(|t| other.contains_compatible(t))
    }

    fn contains_compatible(&self, tuple: &Tuple) -> bool {
        // `tuple` comes from a union-compatible relation; compare on key
        // extracted through *our* schema.
        if tuple.arity() != self.schema.arity() {
            return false;
        }
        self.find_tuple(self.key_hash(tuple), tuple)
            .and_then(|row| self.rows.get(row))
            .is_some_and(|t| t == tuple)
    }

    /// Replaces the whole element set by that of `other` (PASCAL/R relation
    /// assignment `rel := expr`).  The schemas must be union-compatible.
    pub fn assign_from(&mut self, other: &Relation) -> Result<(), RelationError> {
        if !self.schema.union_compatible(other.schema()) {
            return Err(RelationError::Incompatible {
                detail: format!(
                    "cannot assign {} (arity {}) to {} (arity {})",
                    other.name(),
                    other.schema.arity(),
                    self.name(),
                    self.schema.arity()
                ),
            });
        }
        self.clear();
        for t in other.tuples() {
            self.insert(t.clone())?;
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} element(s))",
            self.schema.name,
            self.cardinality()
        )?;
        let mut header = String::new();
        for (i, a) in self.schema.attributes.iter().enumerate() {
            if i > 0 {
                header.push_str(" | ");
            }
            header.push_str(&a.name);
        }
        writeln!(f, "  {header}")?;
        for t in self.tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::shards::test_hooks::with_truncated_hashes;
    use crate::value::{EnumType, ValueType};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn employees() -> Relation {
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        let schema = RelationSchema::new(
            "employees",
            vec![
                Attribute::new("enr", ValueType::subrange(1, 99)),
                Attribute::new("ename", ValueType::string(10)),
                Attribute::new("estatus", ValueType::Enum(status.clone())),
            ],
            &["enr"],
        )
        .unwrap();
        let mut rel = Relation::with_id(schema, RelId(1));
        rel.insert(Tuple::new(vec![
            Value::int(10),
            Value::str("Abel"),
            status.value("professor").unwrap(),
        ]))
        .unwrap();
        rel.insert(Tuple::new(vec![
            Value::int(20),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]))
        .unwrap();
        rel
    }

    #[test]
    fn insert_and_cardinality() {
        let rel = employees();
        assert_eq!(rel.cardinality(), 2);
        assert!(!rel.is_empty());
        assert_eq!(rel.slot_count(), 2);
    }

    #[test]
    fn duplicate_insert_is_noop_and_key_violation_is_error() {
        let mut rel = employees();
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        let dup = Tuple::new(vec![
            Value::int(20),
            Value::str("Highman"),
            status.value("technician").unwrap(),
        ]);
        let outcome = rel.insert(dup).unwrap();
        assert!(!outcome.was_inserted());
        assert_eq!(rel.cardinality(), 2);

        let conflict = Tuple::new(vec![
            Value::int(20),
            Value::str("Lowman"),
            status.value("student").unwrap(),
        ]);
        assert!(matches!(
            rel.insert(conflict),
            Err(RelationError::KeyViolation { .. })
        ));
    }

    #[test]
    fn selected_variable_access_by_key() {
        let rel = employees();
        let key = Key::single(20i64);
        let t = rel.select_by_key(&key).unwrap();
        assert_eq!(t.get(1), &Value::str("Highman"));
        assert!(rel.select_by_key(&Key::single(99i64)).is_none());
    }

    #[test]
    fn references_resolve_and_detect_dangling() {
        let mut rel = employees();
        let key = Key::single(20i64);
        let r = rel.ref_by_key(&key).unwrap();
        assert_eq!(rel.deref(r).unwrap().get(1), &Value::str("Highman"));
        assert_eq!(rel.component(r, "ename").unwrap(), &Value::str("Highman"));
        assert!(rel.component(r, "salary").is_err());

        assert!(rel.delete_key(&key));
        assert!(rel.deref(r).is_err(), "deleted element must not resolve");
        assert_eq!(rel.cardinality(), 1);

        // Reference from another relation id is rejected.
        let foreign = ElemRef::new(RelId(77), RowId(0));
        assert!(rel.deref(foreign).is_err());
    }

    #[test]
    fn row_slots_are_not_reused_after_delete() {
        let mut rel = employees();
        let key = Key::single(20i64);
        let before = rel.ref_by_key(&key).unwrap();
        rel.delete_key(&key);
        let status = EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        );
        let out = rel
            .insert(Tuple::new(vec![
                Value::int(30),
                Value::str("Newman"),
                status.value("assistant").unwrap(),
            ]))
            .unwrap();
        assert_ne!(out.elem_ref().row, before.row);
        assert!(rel.deref(before).is_err());
    }

    #[test]
    fn iteration_in_insertion_order() {
        let rel = employees();
        let names: Vec<_> = rel
            .tuples()
            .map(|t| t.get(1).as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["Abel", "Highman"]);
        let refs: Vec<_> = rel.iter().map(|(r, _)| r.row.0).collect();
        assert_eq!(refs, vec![0, 1]);
    }

    #[test]
    fn set_equality_and_assignment() {
        let a = employees();
        let mut b = Relation::with_id(a.schema().clone(), RelId(9));
        assert!(!a.set_eq(&b));
        b.assign_from(&a).unwrap();
        assert!(a.set_eq(&b));
        assert!(b.set_eq(&a));
        b.delete_key(&Key::single(10i64));
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn assignment_requires_compatible_schema() {
        let a = employees();
        let other_schema =
            RelationSchema::all_key("unary", vec![Attribute::new("x", ValueType::int())]);
        let mut b = Relation::new(other_schema);
        assert!(b.assign_from(&a).is_err());
    }

    #[test]
    fn clear_empties_the_relation() {
        let mut rel = employees();
        rel.clear();
        assert!(rel.is_empty());
        assert_eq!(rel.cardinality(), 0);
    }

    #[test]
    fn from_tuples_builds_a_relation() {
        let schema = RelationSchema::all_key("nums", vec![Attribute::new("n", ValueType::int())]);
        let rel = Relation::from_tuples(schema, (1..=5).map(|i| Tuple::new(vec![Value::int(i)])))
            .unwrap();
        assert_eq!(rel.cardinality(), 5);
        assert!(rel.contains(&Tuple::new(vec![Value::int(3)])));
    }

    #[test]
    fn from_slots_preserves_row_ids_and_tombstones() {
        let mut rel = employees();
        let key = rel.schema().make_key(vec![Value::int(10)]).unwrap();
        assert!(rel.delete_key(&key));
        let slots: Vec<_> = rel.slots().map(Option::<&Tuple>::cloned).collect();
        let restored = Relation::from_slots(rel.schema().clone(), rel.id(), slots).unwrap();
        assert_eq!(restored.cardinality(), 1);
        assert_eq!(restored.slot_count(), 2);
        // The surviving tuple keeps its original RowId (slot 1).
        let (elem, tuple) = restored.iter().next().unwrap();
        assert_eq!(elem, ElemRef::new(rel.id(), RowId(1)));
        assert_eq!(tuple.values()[1], Value::str("Highman"));
        // And is findable through the rebuilt key index.
        let key20 = restored.schema().make_key(vec![Value::int(20)]).unwrap();
        assert!(restored.select_by_key(&key20).is_some());
        assert!(restored.select_by_key(&key).is_none());
    }

    #[test]
    fn from_slots_rejects_duplicate_keys_and_bad_tuples() {
        let rel = employees();
        let first = rel.slots().next().flatten().cloned();
        let slots = vec![first.clone(), first];
        assert!(Relation::from_slots(rel.schema().clone(), rel.id(), slots).is_err());
        let bad = vec![Some(Tuple::new(vec![Value::int(1)]))];
        assert!(Relation::from_slots(rel.schema().clone(), rel.id(), bad).is_err());
    }

    #[test]
    fn display_contains_header_and_rows() {
        let rel = employees();
        let s = rel.to_string();
        assert!(s.contains("employees (2 element(s))"));
        assert!(s.contains("enr | ename | estatus"));
        assert!(s.contains("'Abel'"));
    }

    /// A two-column relation `<n: int, tag: string>` keyed on `n`.
    fn numbered(id: u32) -> Relation {
        let schema = RelationSchema::new(
            "numbered",
            vec![
                Attribute::new("n", ValueType::int()),
                Attribute::new("tag", ValueType::string(12)),
            ],
            &["n"],
        )
        .unwrap();
        Relation::with_id(schema, RelId(id))
    }

    fn numbered_tuple(n: i64) -> Tuple {
        Tuple::new(vec![Value::int(n), Value::str(format!("t{n}"))])
    }

    fn shared<T: ?Sized>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
        a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn a_write_to_a_clone_unshares_one_segment_and_one_key_shard() {
        let mut left = numbered(3);
        for n in 0..10_000 {
            left.insert(numbered_tuple(n)).unwrap();
        }
        let original = left.clone();
        let mut right = left.clone();
        let segments = original.rows.segments().len();
        let shards = original.key_index.shard_count();
        assert!(segments > 100 && shards > 32);

        assert!(right.insert(numbered_tuple(10_000)).unwrap().was_inserted());
        assert!(left.delete_key(&Key::single(5_000i64)));

        for (side, rel) in [("left", &left), ("right", &right)] {
            assert_eq!(
                shared(original.rows.segments(), rel.rows.segments()),
                segments - 1,
                "{side}: exactly one segment unshared"
            );
            assert_eq!(
                original.key_index.shared_shards(&rel.key_index),
                shards - 1,
                "{side}: exactly one key shard unshared"
            );
        }

        // Each side reads exactly its own rows; the original is untouched.
        let keys = |rel: &Relation| -> Vec<i64> {
            rel.tuples().map(|t| t.get(0).as_int().unwrap()).collect()
        };
        assert_eq!(keys(&original), (0..10_000).collect::<Vec<_>>());
        assert_eq!(
            keys(&left),
            (0..10_000).filter(|&n| n != 5_000).collect::<Vec<_>>()
        );
        assert_eq!(keys(&right), (0..=10_000).collect::<Vec<_>>());
        let k5000 = Key::single(5_000i64);
        let k10000 = Key::single(10_000i64);
        assert!(left.select_by_key(&k5000).is_none());
        assert!(left.select_by_key(&k10000).is_none());
        assert_eq!(right.select_by_key(&k5000), Some(&numbered_tuple(5_000)));
        assert_eq!(
            right.ref_by_key(&k10000),
            Some(ElemRef::new(RelId(3), RowId(10_000)))
        );
        assert_eq!(original.cardinality(), 10_000);
        assert_eq!((left.cardinality(), right.cardinality()), (9_999, 10_001));
    }

    #[test]
    fn tiny_relations_allocate_a_small_first_segment() {
        let mut rel = numbered(0);
        rel.insert(numbered_tuple(1)).unwrap();
        assert!(rel.rows.segments()[0].len() < 64);
        assert_eq!(rel.key_index.shard_count(), 1);
        for n in 2..=65 {
            rel.insert(numbered_tuple(n)).unwrap();
        }
        assert_eq!(rel.rows.segments().len(), 2);
        assert_eq!(rel.rows.segments()[0].len(), 64);
        assert_eq!(rel.row(RowId(63)), Some(&numbered_tuple(64)));
    }

    /// The relation semantics every storage layout must reproduce: a flat
    /// slot vector plus a map from owned keys to rows.
    #[derive(Clone, Default)]
    struct Model {
        slots: Vec<Option<Tuple>>,
        keys: HashMap<Key, RowId>,
    }

    impl Model {
        fn insert(&mut self, rel: &Relation, t: Tuple) -> Result<InsertOutcome, ()> {
            let key = rel.schema().key_of(&t);
            if let Some(&row) = self.keys.get(&key) {
                return if self.slots[row.0 as usize].as_ref() == Some(&t) {
                    Ok(InsertOutcome::AlreadyPresent(ElemRef::new(rel.id(), row)))
                } else {
                    Err(())
                };
            }
            let row = RowId(self.slots.len() as u32);
            self.slots.push(Some(t));
            self.keys.insert(key, row);
            Ok(InsertOutcome::Inserted(ElemRef::new(rel.id(), row)))
        }

        fn delete(&mut self, key: &Key) -> bool {
            let Some(row) = self.keys.remove(key) else {
                return false;
            };
            self.slots[row.0 as usize] = None;
            true
        }

        /// The live elements in row order.
        fn live(&self) -> Vec<(RowId, Tuple)> {
            let mut live: Vec<_> = self
                .keys
                .values()
                .map(|&r| (r, self.slots[r.0 as usize].clone().unwrap()))
                .collect();
            live.sort_by_key(|(r, _)| *r);
            live
        }
    }

    /// Composite-key schema `<k: int, c: string> -> p: string`.
    fn model_schema() -> Arc<RelationSchema> {
        RelationSchema::new(
            "modelled",
            vec![
                Attribute::new("k", ValueType::int()),
                Attribute::new("c", ValueType::string(4)),
                Attribute::new("p", ValueType::string(4)),
            ],
            &["k", "c"],
        )
        .unwrap()
    }

    fn model_key(k: u8) -> Key {
        Key::new(vec![
            Value::int(i64::from(k / 2)),
            Value::str(["x", "y"][k as usize % 2]),
        ])
    }

    fn model_tuple(k: u8, p: u8) -> Tuple {
        let mut values = model_key(k).values().to_vec();
        values.push(Value::str(format!("p{p}")));
        Tuple::new(values)
    }

    /// Asserts that `rel` shows exactly the state of `model`.
    fn assert_matches_model(rel: &Relation, model: &Model) {
        let slots: Vec<Option<Tuple>> = rel.slots().map(Option::<&Tuple>::cloned).collect();
        assert_eq!(slots, model.slots, "slot image");
        assert_eq!(rel.slot_count(), model.slots.len());
        assert_eq!(rel.cardinality(), model.keys.len());
        let iterated: Vec<(ElemRef, Tuple)> = rel.iter().map(|(r, t)| (r, t.clone())).collect();
        let expected: Vec<(ElemRef, Tuple)> = model
            .live()
            .into_iter()
            .map(|(r, t)| (ElemRef::new(rel.id(), r), t))
            .collect();
        assert_eq!(iterated, expected, "iteration order");
        for k in 0..KEYS {
            let key = model_key(k);
            let row = model.keys.get(&key).copied();
            assert_eq!(rel.ref_by_key(&key), row.map(|r| ElemRef::new(rel.id(), r)));
            assert_eq!(
                rel.select_by_key(&key),
                row.and_then(|r| model.slots[r.0 as usize].as_ref())
            );
        }
    }

    /// Distinct keys the generated operations draw from.
    const KEYS: u8 = 24;

    /// One generated step: `(kind, key, payload, side)`.
    type Step = (u8, u8, u8, bool);

    fn run_model(steps: &[Step]) {
        let mut rel = Relation::with_id(model_schema(), RelId(5));
        let mut model = Model::default();
        // Versions set aside by a clone step, with the state each must keep.
        let mut frozen: Vec<(Relation, Model)> = Vec::new();
        for &(kind, k, p, side) in steps {
            let live = model.live();
            let t = match kind {
                // A duplicate of a live element, or of a fresh one.
                2 if !live.is_empty() => live[k as usize % live.len()].1.clone(),
                // A different element under a live key.
                3 if !live.is_empty() => {
                    let mut values = live[k as usize % live.len()].1.values().to_vec();
                    values[2] = Value::str("zz");
                    Tuple::new(values)
                }
                _ => model_tuple(k, p),
            };
            if kind == 4 {
                let key = model_key(k);
                assert_eq!(rel.delete_key(&key), model.delete(&key));
            } else {
                if kind == 5 {
                    // Clone, then mutate one side: the other must not move.
                    let mut copy = rel.clone();
                    if side {
                        std::mem::swap(&mut rel, &mut copy);
                    }
                    frozen.push((copy, model.clone()));
                }
                let expected = model.insert(&rel, t.clone());
                match (rel.insert(t), expected) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want),
                    (Err(RelationError::KeyViolation { .. }), Err(())) => {}
                    (got, want) => panic!("insert: got {got:?}, model says {want:?}"),
                }
            }
            assert_matches_model(&rel, &model);
        }
        for (copy, state) in &frozen {
            assert_matches_model(copy, state);
        }

        // The slot image round-trips through `from_slots` ...
        let image: Vec<Option<Tuple>> = rel.slots().map(Option::<&Tuple>::cloned).collect();
        let restored = Relation::from_slots(rel.schema().clone(), rel.id(), image.clone()).unwrap();
        assert_matches_model(&restored, &model);
        // ... and an image holding a live key twice is rejected.
        if let Some((_, t)) = model.live().first() {
            let mut values = t.values().to_vec();
            values[2] = Value::str("dup");
            let mut bad = image;
            bad.push(Some(Tuple::new(values)));
            assert!(matches!(
                Relation::from_slots(rel.schema().clone(), rel.id(), bad),
                Err(RelationError::KeyViolation { .. })
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random inserts, duplicate inserts, key-violating inserts,
        /// deletions and clone-then-mutate steps agree with the flat
        /// reference model — with full hashes, and with hashes cut to
        /// three bits so most keys collide and take the overflow path.
        #[test]
        fn relation_matches_the_flat_reference_model(
            steps in proptest::collection::vec((0u8..6, 0u8..KEYS, 0u8..3, any::<bool>()), 1..120),
            truncate in any::<bool>(),
        ) {
            let bits = if truncate { 3 } else { 64 };
            with_truncated_hashes(bits, || run_model(&steps));
        }
    }

    #[test]
    fn reference_model_covers_segment_and_shard_growth() {
        // Deterministic long run past several segments and shard doublings.
        let steps: Vec<Step> = (0..400u32)
            .map(|i| {
                (
                    (i % 7) as u8 % 6,
                    (i * 7 % 24) as u8,
                    (i % 3) as u8,
                    i % 2 == 0,
                )
            })
            .collect();
        with_truncated_hashes(3, || run_model(&steps));
        run_model(&steps);
    }
}
