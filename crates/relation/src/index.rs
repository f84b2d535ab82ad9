//! Hash indexes from component values to element references.
//!
//! Section 3.2: "First, a (partial) INDEX on one relation involved in the
//! join term is created.  Next, the second relation is tested against the
//! index."  Example 3.1 also shows a *primary index* maintained as a regular
//! PASCAL/R relation (`enrindex`).  This module provides the hash-based
//! lookup structure used for both purposes; the executor additionally keeps
//! the paper's "index as a reference relation" view for display.

use pascalr_sync::Arc;

use crate::error::RelationError;
use crate::refs::ElemRef;
use crate::relation::Relation;
use crate::schema::{Key, RelationSchema};
use crate::shards::ShardedMap;
use crate::tuple::Tuple;
use crate::value::Value;

/// A (possibly partial) hash index: maps the values of the indexed
/// components to the references of the elements carrying those values.
///
/// The groups live in `Arc`-shared hash shards, so a clone of the index
/// shares them all and an incremental [`HashIndex::insert_ref`] unshares
/// only the shard its group lands in — a permanent index rides a catalog
/// commit at O(one shard), not O(index).
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// Name of the index, e.g. `ind_t_cnr`.
    pub name: Arc<str>,
    /// Name of the indexed relation.
    pub relation: Arc<str>,
    /// Indices of the indexed components in the relation schema.
    pub on: Vec<usize>,
    groups: ShardedMap<Group>,
    entries: usize,
}

/// The references of the elements sharing one indexed value.
#[derive(Debug, Clone)]
struct Group {
    key: Key,
    refs: Vec<ElemRef>,
}

impl HashIndex {
    /// Builds an index on the named components of `rel`, optionally keeping
    /// only elements satisfying `filter` (a *partial* index).
    pub fn build(
        name: impl Into<Arc<str>>,
        rel: &Relation,
        on: &[&str],
        mut filter: impl FnMut(&Tuple) -> bool,
    ) -> Result<Self, RelationError> {
        let mut idx_cols = Vec::with_capacity(on.len());
        for a in on {
            idx_cols.push(rel.schema().require_attr(a)?);
        }
        let mut index = HashIndex {
            name: name.into(),
            relation: Arc::from(rel.name()),
            on: idx_cols,
            groups: ShardedMap::default(),
            entries: 0,
        };
        for (r, t) in rel.iter() {
            if filter(t) {
                index.add(r, t);
            }
        }
        Ok(index)
    }

    /// Builds a full (non-partial) index.
    pub fn build_full(
        name: impl Into<Arc<str>>,
        rel: &Relation,
        on: &[&str],
    ) -> Result<Self, RelationError> {
        Self::build(name, rel, on, |_| true)
    }

    /// Adds one element to the index without rebuilding it: the incremental
    /// maintenance step a *permanent* index performs on `rel :+ [tuple]`
    /// (Example 3.1 keeps `enrindex` as a regular relation updated alongside
    /// `employees`).  The reference must belong to `rel` and resolve to a
    /// live element.
    pub fn insert_ref(&mut self, rel: &Relation, elem: ElemRef) -> Result<(), RelationError> {
        let tuple = rel.deref(elem)?;
        self.add(elem, tuple);
        Ok(())
    }

    /// Files `elem` (whose element is `tuple`) under its indexed value,
    /// hashing the value once and building a [`Key`] only for a new group.
    fn add(&mut self, elem: ElemRef, tuple: &Tuple) {
        let on = &self.on;
        let hash = self.groups.hash(on.iter().map(|&c| tuple.get(c)));
        let same_value = |g: &Group| {
            on.iter()
                .zip(g.key.values())
                .all(|(&c, v)| tuple.get(c) == v)
        };
        match self.groups.get_mut(hash, same_value) {
            Some(group) => group.refs.push(elem),
            None => {
                let key = Key::new(on.iter().map(|&c| tuple.get(c).clone()).collect());
                self.groups.insert_new(
                    hash,
                    Group {
                        key,
                        refs: vec![elem],
                    },
                );
            }
        }
        self.entries += 1;
    }

    /// Looks up the references of elements whose indexed components equal
    /// `key`.
    pub fn probe(&self, key: &Key) -> &[ElemRef] {
        self.lookup(key.values())
    }

    /// Single-component probe convenience.
    pub fn probe_value(&self, value: &Value) -> &[ElemRef] {
        debug_assert_eq!(self.on.len(), 1, "probe_value needs a single-column index");
        self.lookup(std::slice::from_ref(value))
    }

    fn lookup(&self, values: &[Value]) -> &[ElemRef] {
        self.groups
            .get(self.groups.hash(values), |g| g.key.values() == values)
            .map_or(&[], |g| g.refs.as_slice())
    }

    /// Number of `(value, reference)` entries in the index.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.groups.len()
    }

    /// Iterates over `(value key, references)` groups.
    pub fn groups(&self) -> impl Iterator<Item = (&Key, &[ElemRef])> + '_ {
        self.groups.values().map(|g| (&g.key, g.refs.as_slice()))
    }

    /// Number of hash shards the groups are stored in.
    pub fn shard_count(&self) -> usize {
        self.groups.shard_count()
    }

    /// Number of hash shards this index still shares with `other` (for
    /// example the same permanent index in an older catalog version) —
    /// how much of the structure a copy-on-write update left in common.
    pub fn shards_shared_with(&self, other: &HashIndex) -> usize {
        self.groups.shared_shards(&other.groups)
    }

    /// Renders the index as a reference relation (the paper's Figure 2 view,
    /// e.g. `ind_t_cnr : RELATION <tcnr,tref> OF RECORD ... END`), mainly for
    /// examples, tests, and EXPLAIN output.
    pub fn as_reference_relation(&self, value_attr_names: &[&str]) -> Relation {
        use crate::schema::Attribute;
        use crate::value::ValueType;
        let mut attrs: Vec<Attribute> = Vec::with_capacity(self.on.len() + 1);
        for (i, name) in value_attr_names.iter().enumerate() {
            // The value type is not tracked here; use an unconstrained kind
            // matching the stored values (only used for display purposes).
            let _ = i;
            attrs.push(Attribute::new(*name, ValueType::int()));
        }
        attrs.push(Attribute::new(
            format!("{}_ref", self.relation),
            ValueType::reference(self.relation.clone()),
        ));
        let schema = RelationSchema::all_key(self.name.clone(), attrs);
        let mut rel = Relation::new(schema);
        for (key, refs) in self.groups() {
            for r in refs {
                let mut vals: Vec<Value> = key.values().to_vec();
                vals.push(Value::Ref(*r));
                // Display-only: tolerate type mismatches by skipping the
                // check via direct tuple build; the relation schema above is
                // a lax stand-in.
                let _ = rel.insert(Tuple::new(vals));
            }
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::value::ValueType;

    fn timetable() -> Relation {
        let schema = RelationSchema::new(
            "timetable",
            vec![
                Attribute::new("tenr", ValueType::subrange(1, 99)),
                Attribute::new("tcnr", ValueType::subrange(1, 99)),
                Attribute::new("tday", ValueType::subrange(1, 5)),
            ],
            &["tenr", "tcnr", "tday"],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for (e, c, d) in [(1, 10, 1), (1, 11, 2), (2, 10, 3), (3, 12, 1), (3, 12, 2)] {
            rel.insert(Tuple::new(vec![
                Value::int(e),
                Value::int(c),
                Value::int(d),
            ]))
            .unwrap();
        }
        rel
    }

    #[test]
    fn full_index_groups_by_value() {
        let tt = timetable();
        let idx = HashIndex::build_full("ind_t_cnr", &tt, &["tcnr"]).unwrap();
        assert_eq!(idx.entry_count(), 5);
        assert_eq!(idx.distinct_values(), 3);
        assert_eq!(idx.probe_value(&Value::int(10)).len(), 2);
        assert_eq!(idx.probe_value(&Value::int(12)).len(), 2);
        assert_eq!(idx.probe_value(&Value::int(99)).len(), 0);
    }

    #[test]
    fn partial_index_filters_elements() {
        let tt = timetable();
        let day_idx = tt.schema().attr_index("tday").unwrap();
        let idx = HashIndex::build("ind_t_cnr_monday", &tt, &["tcnr"], |t| {
            t.get(day_idx) == &Value::int(1)
        })
        .unwrap();
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.probe_value(&Value::int(10)).len(), 1);
        assert_eq!(idx.probe_value(&Value::int(11)).len(), 0);
    }

    #[test]
    fn incremental_insert_matches_a_full_rebuild() {
        let mut tt = timetable();
        let mut idx = HashIndex::build_full("ind_t_cnr", &tt, &["tcnr"]).unwrap();
        let out = tt
            .insert(Tuple::new(vec![
                Value::int(4),
                Value::int(10),
                Value::int(5),
            ]))
            .unwrap();
        idx.insert_ref(&tt, out.elem_ref()).unwrap();
        let rebuilt = HashIndex::build_full("ind_t_cnr", &tt, &["tcnr"]).unwrap();
        assert_eq!(idx.entry_count(), rebuilt.entry_count());
        assert_eq!(idx.distinct_values(), rebuilt.distinct_values());
        assert_eq!(idx.probe_value(&Value::int(10)).len(), 3);
        // A dangling reference is rejected instead of silently indexed.
        let bogus = ElemRef::new(tt.id(), crate::refs::RowId(99));
        assert!(idx.insert_ref(&tt, bogus).is_err());
    }

    #[test]
    fn multi_component_index_probe() {
        let tt = timetable();
        let idx = HashIndex::build_full("ind_t_enr_cnr", &tt, &["tenr", "tcnr"]).unwrap();
        let key = Key::new(vec![Value::int(3), Value::int(12)]);
        assert_eq!(idx.probe(&key).len(), 2);
        let missing = Key::new(vec![Value::int(3), Value::int(10)]);
        assert_eq!(idx.probe(&missing).len(), 0);
    }

    #[test]
    fn unknown_index_column_is_an_error() {
        let tt = timetable();
        assert!(HashIndex::build_full("bad", &tt, &["nosuch"]).is_err());
    }

    #[test]
    fn reference_relation_view_has_one_row_per_entry() {
        let tt = timetable();
        let idx = HashIndex::build_full("ind_t_cnr", &tt, &["tcnr"]).unwrap();
        let view = idx.as_reference_relation(&["tcnr"]);
        assert_eq!(view.cardinality(), 5);
        assert_eq!(view.schema().arity(), 2);
    }

    /// `<n: int, g: int>` keyed on `n`, with `g = n % groups`.
    fn grouped(rows: i64, groups: i64) -> Relation {
        let schema = RelationSchema::new(
            "grouped",
            vec![
                Attribute::new("n", ValueType::int()),
                Attribute::new("g", ValueType::int()),
            ],
            &["n"],
        )
        .unwrap();
        let mut rel = Relation::with_id(schema, crate::refs::RelId(2));
        for n in 0..rows {
            rel.insert(Tuple::new(vec![Value::int(n), Value::int(n % groups)]))
                .unwrap();
        }
        rel
    }

    /// The index contents in a canonical order.
    fn canonical(idx: &HashIndex) -> Vec<(String, Vec<ElemRef>)> {
        let mut groups: Vec<_> = idx
            .groups()
            .map(|(k, refs)| {
                let mut refs = refs.to_vec();
                refs.sort();
                (k.to_string(), refs)
            })
            .collect();
        groups.sort();
        groups
    }

    /// Builds an index, clones relation and index, inserts into the clone
    /// and maintains its index incrementally; the clone's index must equal
    /// a full rebuild and the original must not move.
    fn check_clone_then_insert(rows: i64, groups: i64, inserts: i64) {
        let rel = grouped(rows, groups);
        let idx = HashIndex::build_full("ind_g", &rel, &["g"]).unwrap();
        let before = canonical(&idx);
        let probes = |idx: &HashIndex| -> Vec<Vec<ElemRef>> {
            (0..rows + inserts)
                .map(|g| idx.probe_value(&Value::int(g)).to_vec())
                .collect()
        };
        let probes_before = probes(&idx);
        let mut rel2 = rel.clone();
        let mut idx2 = idx.clone();
        for n in rows..rows + inserts {
            // Half the new elements join existing groups, half open new ones.
            let g = if n % 2 == 0 { n % groups } else { n };
            let out = rel2
                .insert(Tuple::new(vec![Value::int(n), Value::int(g)]))
                .unwrap();
            idx2.insert_ref(&rel2, out.elem_ref()).unwrap();
        }
        let rebuilt = HashIndex::build_full("ind_g", &rel2, &["g"]).unwrap();
        assert_eq!(canonical(&idx2), canonical(&rebuilt));
        assert_eq!(idx2.entry_count(), rebuilt.entry_count());
        assert_eq!(idx2.distinct_values(), rebuilt.distinct_values());
        for g in 0..groups {
            assert_eq!(
                idx2.probe_value(&Value::int(g)),
                rebuilt.probe_value(&Value::int(g))
            );
        }
        // The original index and its probes are unchanged.
        assert_eq!(canonical(&idx), before);
        assert_eq!(idx.entry_count(), rows as usize);
        assert_eq!(probes(&idx), probes_before);
    }

    #[test]
    fn a_cloned_index_maintained_incrementally_equals_a_rebuild() {
        check_clone_then_insert(3_000, 1_000, 40);
        check_clone_then_insert(5, 2, 300);
    }

    #[test]
    fn a_cloned_index_equals_a_rebuild_under_hash_collisions() {
        crate::shards::test_hooks::with_truncated_hashes(3, || {
            check_clone_then_insert(200, 50, 60);
        });
    }

    #[test]
    fn an_incremental_insert_unshares_one_index_shard() {
        let rel = grouped(6_000, 3_000);
        let idx = HashIndex::build_full("ind_g", &rel, &["g"]).unwrap();
        let shards = idx.shard_count();
        assert!(shards > 8);
        let mut rel2 = rel.clone();
        let mut idx2 = idx.clone();
        assert_eq!(idx2.shards_shared_with(&idx), shards);
        let out = rel2
            .insert(Tuple::new(vec![Value::int(6_000), Value::int(7)]))
            .unwrap();
        idx2.insert_ref(&rel2, out.elem_ref()).unwrap();
        assert_eq!(idx2.shards_shared_with(&idx), shards - 1);
        assert_eq!(idx.probe_value(&Value::int(7)).len(), 2);
        assert_eq!(idx2.probe_value(&Value::int(7)).len(), 3);
    }
}
