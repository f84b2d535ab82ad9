//! The database catalog: declared types, relation variables, permanent
//! indexes and statistics.
//!
//! A [`Catalog`] is the runtime representation of a PASCAL/R `DATABASE`
//! declaration (Figure 1): it owns the relation variables, hands out stable
//! [`RelId`]s so that element references can be dereferenced across
//! relations, and records which permanent indexes exist (Section 3.2: "The
//! first step can be omitted, if permanent indexes exist.").

use pascalr_sync::{Arc, Mutex};
use std::collections::BTreeMap;
use std::fmt;

use pascalr_relation::{
    ElemRef, HashIndex, Key, RelId, Relation, RelationError, RelationSchema, Tuple, Value,
};
use pascalr_storage::PageModel;

use crate::error::CatalogError;
use crate::stats::RelationStats;
use crate::types::TypeRegistry;

/// One cached ANALYZE result: the statistics plus the value of the global
/// stats epoch at the time they were computed.
///
/// `pub(crate)` so the persistence codec ([`crate::persist`]) can encode
/// and restore cache entries with their exact epochs — plan-cache keys
/// must match across a reopen.
#[derive(Debug, Clone)]
pub(crate) struct CachedStats {
    pub(crate) stats: Arc<RelationStats>,
    pub(crate) epoch: u64,
}

/// Declaration of a permanent index kept by the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDecl {
    /// Index name, e.g. `enrindex`.
    pub name: String,
    /// Indexed relation name.
    pub relation: String,
    /// Indexed component names.
    pub attributes: Vec<String>,
}

impl IndexDecl {
    /// Whether this declaration indexes exactly `relation(attributes)`
    /// (component order is significant: the probe key is built in
    /// declaration order).
    pub fn covers(&self, relation: &str, attributes: &[&str]) -> bool {
        self.relation == relation
            && self.attributes.len() == attributes.len()
            && self.attributes.iter().zip(attributes).all(|(a, b)| a == b)
    }
}

/// A permanent index handed out by [`Catalog::permanent_index`]: the shared
/// hash structure plus whether this lookup had to rebuild it from a stale
/// state (so callers can charge the rebuild to their metrics).
#[derive(Debug, Clone)]
pub struct PermanentIndexUse {
    /// The (full) hash index over the declared components.
    pub index: Arc<HashIndex>,
    /// `true` when this lookup rebuilt the index because a mutable relation
    /// access had invalidated it.
    pub rebuilt: bool,
}

/// A permanent index declaration together with its maintained physical
/// structure.  The cell is `None` while the index is **stale** (a
/// [`Catalog::relation_mut`] access may have changed the relation in
/// arbitrary ways); it is rebuilt lazily on the next
/// [`Catalog::permanent_index`] lookup.  Inserts through
/// [`Catalog::insert`] / [`Catalog::insert_all`] maintain a live index
/// incrementally and never invalidate it.
pub(crate) struct MaintainedIndex {
    pub(crate) decl: IndexDecl,
    cell: Mutex<Option<Arc<HashIndex>>>,
}

impl MaintainedIndex {
    fn new(decl: IndexDecl, index: HashIndex) -> Self {
        MaintainedIndex {
            decl,
            cell: Mutex::new(Some(Arc::new(index))),
        }
    }

    fn lock(&self) -> pascalr_sync::MutexGuard<'_, Option<Arc<HashIndex>>> {
        // Non-poisoning facade lock: a panic while holding it happens only
        // inside a `mutate` closure, whose whole catalog clone is discarded
        // unpublished, so no partially maintained index can ever be seen.
        self.cell.lock()
    }

    fn invalidate(&self) {
        *self.lock() = None;
    }

    /// Adds a freshly inserted element to a live index (no-op when stale).
    fn maintain_insert(&self, rel: &Relation, elem: ElemRef) {
        let mut guard = self.lock();
        if let Some(index) = guard.as_mut() {
            if Arc::make_mut(index).insert_ref(rel, elem).is_err() {
                // Cannot happen for a reference the relation just handed
                // out; degrade to stale rather than serve a wrong index.
                *guard = None;
            }
        }
    }
}

impl Clone for MaintainedIndex {
    fn clone(&self) -> Self {
        MaintainedIndex {
            decl: self.decl.clone(),
            cell: Mutex::new(self.lock().clone()),
        }
    }
}

impl fmt::Debug for MaintainedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintainedIndex")
            .field("decl", &self.decl)
            .field("live", &self.lock().is_some())
            .finish()
    }
}

/// The database catalog.
///
/// # Copy-on-write cloning
///
/// `Catalog::clone` is **cheap**: relation variables live behind [`Arc`]s,
/// so a clone shares every relation's element storage with the original.
/// Mutating entry points ([`Catalog::relation_mut`], [`Catalog::insert`],
/// ...) unshare the relation they touch (via [`Arc::make_mut`]), and that
/// copy is itself shallow: a [`Relation`] keeps its rows in fixed-size
/// segments and its key index in hash shards, each behind its own `Arc`,
/// so copying it copies one pointer per piece and the write then unshares
/// only the segment and shard it lands in.  A maintained permanent
/// [`HashIndex`] is sharded the same way.  A commit therefore costs
/// O(Δ), not O(|relation|).  This is what makes the snapshot architecture
/// work: a writer clones the current version, mutates its private copy,
/// and publishes it, while pinned [`CatalogSnapshot`] readers keep
/// streaming from the old version untouched.
///
/// [`CatalogSnapshot`]: crate::CatalogSnapshot
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    // Fields are `pub(crate)` (not private) so the persistence codec in
    // `crate::persist` can rebuild a catalog slot-for-slot on recovery,
    // including state no public mutator can set exactly (epochs, cached
    // stats entries, ghost relation slots left by `drop_relation`).
    pub(crate) types: TypeRegistry,
    pub(crate) relations: Vec<Arc<Relation>>,
    pub(crate) by_name: BTreeMap<String, RelId>,
    pub(crate) indexes: Vec<MaintainedIndex>,
    pub(crate) page_model: PageModel,
    pub(crate) epoch: u64,
    pub(crate) stats_epoch: u64,
    pub(crate) stats_cache: BTreeMap<String, CachedStats>,
    /// Real per-relation heap page counts, installed by the persistent
    /// backend at open/checkpoint time; empty on the in-memory backend.
    pub(crate) real_pages: BTreeMap<String, u64>,
}

impl Catalog {
    /// Creates an empty catalog with the default page model.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates an empty catalog with a specific page model.
    pub fn with_page_model(page_model: PageModel) -> Self {
        Catalog {
            page_model,
            ..Default::default()
        }
    }

    /// The page model used for simulated I/O accounting.
    pub fn page_model(&self) -> PageModel {
        self.page_model
    }

    /// The catalog's **plan epoch**: a monotonic counter bumped by every
    /// mutation that can invalidate a cached query plan (declarations,
    /// inserts, index changes, any mutable relation access).  Plan caches
    /// key on it so that cached plans are discarded when the catalog
    /// changes.
    ///
    /// ANALYZE ([`Catalog::analyze_relation`]) deliberately does **not**
    /// advance this epoch: refreshed statistics only matter to plans that
    /// consult them (`StrategyLevel::Auto`), which are keyed on the
    /// separate per-relation [`Catalog::stats_epoch`] instead — so an
    /// ANALYZE never thrashes the prepared-statement fast path of
    /// fixed-level queries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The catalog's global **stats epoch**: a monotonic counter bumped by
    /// every ANALYZE.  Each cached [`RelationStats`] entry records the
    /// value at which it was computed (see [`Catalog::stats_epoch_of`]).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Explicitly advances the modification epoch (e.g. after out-of-band
    /// statistics changes a caller performed through other means).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Mutable access to the type registry (TYPE section).
    pub fn types_mut(&mut self) -> &mut TypeRegistry {
        self.epoch += 1;
        &mut self.types
    }

    /// The type registry (TYPE section).
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// Declares a relation variable (VAR section) and returns its id.
    pub fn declare_relation(&mut self, schema: Arc<RelationSchema>) -> Result<RelId, CatalogError> {
        let name = schema.name.to_string();
        if self.by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateRelation { name });
        }
        let id = RelId(self.relations.len() as u32);
        self.relations.push(Arc::new(Relation::with_id(schema, id)));
        self.by_name.insert(name, id);
        self.epoch += 1;
        Ok(id)
    }

    /// Resolves a relation name to its id.
    pub fn relation_id(&self, name: &str) -> Result<RelId, CatalogError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// The relation with the given id.
    pub fn relation_by_id(&self, id: RelId) -> Option<&Relation> {
        self.relations.get(id.0 as usize).map(|r| &**r)
    }

    /// The relation with the given name.
    pub fn relation(&self, name: &str) -> Result<&Relation, CatalogError> {
        let id = self.relation_id(name)?;
        Ok(&self.relations[id.0 as usize])
    }

    /// Mutable access to the relation with the given name.  Conservatively
    /// advances the modification epoch: the caller may change cardinalities
    /// or contents, either of which invalidates cached plans.  Permanent
    /// indexes on the relation are dropped to **stale** for the same reason
    /// — they rebuild lazily on their next use.  (Inserts through
    /// [`Catalog::insert`] / [`Catalog::insert_all`] maintain the indexes
    /// incrementally instead and never stale them.)
    ///
    /// Copy-on-write: if the relation is shared with another catalog
    /// version (a pinned snapshot or a fork), this gives the caller its own
    /// shallow copy, and each later write unshares only the segment or key
    /// shard it touches — the other version keeps the unmodified element
    /// set.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation, CatalogError> {
        let id = self.relation_id(name)?;
        self.epoch += 1;
        for mi in &self.indexes {
            if mi.decl.relation == name {
                mi.invalidate();
            }
        }
        Ok(Arc::make_mut(&mut self.relations[id.0 as usize]))
    }

    /// Replaces an existing relation variable with a fresh, empty relation
    /// under a (possibly different) schema, keeping its [`RelId`].
    ///
    /// Rejected with [`CatalogError::InvalidIndex`] while a permanent index
    /// references a component the new schema does not have — otherwise the
    /// declaration would dangle and the next lazy rebuild would fail far
    /// from the cause.  Drop the offending indexes first.
    pub fn redeclare_relation(
        &mut self,
        schema: Arc<RelationSchema>,
    ) -> Result<RelId, CatalogError> {
        let name = schema.name.to_string();
        let id = self.relation_id(&name)?;
        for mi in self.indexes.iter().filter(|mi| mi.decl.relation == name) {
            for a in &mi.decl.attributes {
                if schema.attr_index(a).is_none() {
                    return Err(CatalogError::InvalidIndex {
                        detail: format!(
                            "cannot redeclare relation {name}: permanent index {} indexes \
                             component {a}, which the new schema lacks (drop the index first)",
                            mi.decl.name
                        ),
                    });
                }
            }
        }
        for mi in self.indexes.iter().filter(|mi| mi.decl.relation == name) {
            // Component positions may have moved: rebuild lazily.
            mi.invalidate();
        }
        self.relations[id.0 as usize] = Arc::new(Relation::with_id(schema, id));
        self.epoch += 1;
        Ok(id)
    }

    /// Drops a relation variable: its name stops resolving, its permanent
    /// indexes are removed, and its cached statistics are discarded.
    ///
    /// The [`RelId`] slot is retained (holding a fresh empty relation) so
    /// ids of the remaining relations stay stable and `Ref` components
    /// pointing into the dropped relation dangle detectably instead of
    /// resolving to an unrelated relation. Advances the plan epoch.
    pub fn drop_relation(&mut self, name: &str) -> Result<(), CatalogError> {
        let id = self.relation_id(name)?;
        let schema = self.relations[id.0 as usize].schema().clone();
        self.by_name.remove(name);
        self.indexes.retain(|mi| mi.decl.relation != name);
        self.stats_cache.remove(name);
        self.real_pages.remove(name);
        self.relations[id.0 as usize] = Arc::new(Relation::with_id(schema, id));
        self.epoch += 1;
        Ok(())
    }

    /// Names of all declared relations, in declaration order. Slots left
    /// behind by [`Catalog::drop_relation`] are skipped.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations
            .iter()
            .filter(|r| self.by_name.get(r.name()).copied() == Some(r.id()))
            .map(|r| r.name())
            .collect()
    }

    /// Number of declared relations (dropped ones excluded).
    pub fn relation_count(&self) -> usize {
        self.by_name.len()
    }

    /// Inserts an element into a named relation (`rel :+ [tuple]`).
    ///
    /// Live permanent indexes on the relation are maintained
    /// **incrementally** — one hash insertion per index, no rebuild — so
    /// the element is immediately visible to index-backed execution.  The
    /// plan epoch advances once (the insert changes cardinalities), exactly
    /// as it did before permanent indexes were maintained: index
    /// maintenance itself never causes additional re-planning.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<(), CatalogError> {
        let id = self.relation_id(relation)?;
        self.epoch += 1;
        let outcome = Arc::make_mut(&mut self.relations[id.0 as usize]).insert(tuple)?;
        if outcome.was_inserted() {
            let rel = &self.relations[id.0 as usize];
            for mi in &self.indexes {
                if mi.decl.relation == relation {
                    mi.maintain_insert(rel, outcome.elem_ref());
                }
            }
        }
        Ok(())
    }

    /// Inserts many elements into a named relation, maintaining live
    /// permanent indexes incrementally (see [`Catalog::insert`]).  One plan
    /// epoch bump covers the whole batch.
    pub fn insert_all(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, CatalogError> {
        let id = self.relation_id(relation)?;
        self.epoch += 1;
        let mut added = 0;
        for tuple in tuples {
            let outcome = Arc::make_mut(&mut self.relations[id.0 as usize]).insert(tuple)?;
            if outcome.was_inserted() {
                added += 1;
                let rel = &self.relations[id.0 as usize];
                for mi in &self.indexes {
                    if mi.decl.relation == relation {
                        mi.maintain_insert(rel, outcome.elem_ref());
                    }
                }
            }
        }
        Ok(added)
    }

    /// Dereferences an element reference against whichever relation it
    /// belongs to (the `@` postfix operator of Section 3.1).
    pub fn deref(&self, elem_ref: ElemRef) -> Result<&Tuple, RelationError> {
        let rel =
            self.relation_by_id(elem_ref.rel)
                .ok_or_else(|| RelationError::DanglingReference {
                    detail: format!("reference {elem_ref} does not name a catalog relation"),
                })?;
        rel.deref(elem_ref)
    }

    /// Reads one component of a referenced element.
    pub fn deref_component(&self, elem_ref: ElemRef, attr: &str) -> Result<&Value, RelationError> {
        let rel =
            self.relation_by_id(elem_ref.rel)
                .ok_or_else(|| RelationError::DanglingReference {
                    detail: format!("reference {elem_ref} does not name a catalog relation"),
                })?;
        rel.component(elem_ref, attr)
    }

    /// The selected variable `rel[keyval]`, looked up by name and key.
    pub fn selected(&self, relation: &str, key: &Key) -> Result<Option<&Tuple>, CatalogError> {
        Ok(self.relation(relation)?.select_by_key(key))
    }

    /// Declares a permanent index (Example 3.1's `enrindex`, or the
    /// `ind_t_cnr` style indexes of Figure 2 when kept permanently) and
    /// builds its hash structure immediately.  From then on the index is
    /// **maintained**: inserts update it incrementally, mutable relation
    /// access drops it to stale and it rebuilds lazily on next use.
    ///
    /// Rejected with [`CatalogError::InvalidIndex`] when the relation or a
    /// component does not exist, when the component list repeats a name,
    /// when another index with the same name exists, or when an index over
    /// exactly the same `(relation, attributes)` already exists under a
    /// different name (it would shadow this one everywhere).
    pub fn declare_index(
        &mut self,
        name: &str,
        relation: &str,
        attributes: &[&str],
    ) -> Result<(), CatalogError> {
        let rel = self.relation(relation)?;
        if attributes.is_empty() {
            return Err(CatalogError::InvalidIndex {
                detail: format!("index {name} declares no components"),
            });
        }
        for (i, a) in attributes.iter().enumerate() {
            if rel.schema().attr_index(a).is_none() {
                return Err(CatalogError::InvalidIndex {
                    detail: format!("relation {relation} has no component {a}"),
                });
            }
            if attributes[..i].contains(a) {
                return Err(CatalogError::InvalidIndex {
                    detail: format!(
                        "index {name} lists component {a} more than once \
                         (duplicate key columns index nothing new)"
                    ),
                });
            }
        }
        if self.indexes.iter().any(|mi| mi.decl.name == name) {
            return Err(CatalogError::InvalidIndex {
                detail: format!("index {name} is already declared"),
            });
        }
        if let Some(existing) = self
            .indexes
            .iter()
            .find(|mi| mi.decl.covers(relation, attributes))
        {
            return Err(CatalogError::InvalidIndex {
                detail: format!(
                    "index {} already covers {relation}({}); a second index over the same \
                     components under the name {name} would be redundant",
                    existing.decl.name,
                    attributes.join(", ")
                ),
            });
        }
        let built = HashIndex::build_full(name.to_string(), rel, attributes)?;
        self.indexes.push(MaintainedIndex::new(
            IndexDecl {
                name: name.to_string(),
                relation: relation.to_string(),
                attributes: attributes
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect(),
            },
            built,
        ));
        self.epoch += 1;
        Ok(())
    }

    /// Drops a permanent index by name.  Advances the plan epoch, so every
    /// cached plan — in particular one whose execution probes the index —
    /// re-plans exactly once on its next use.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDecl, CatalogError> {
        let pos = self
            .indexes
            .iter()
            .position(|mi| mi.decl.name == name)
            .ok_or_else(|| CatalogError::InvalidIndex {
                detail: format!("no permanent index named {name}"),
            })?;
        let removed = self.indexes.remove(pos);
        self.epoch += 1;
        Ok(removed.decl)
    }

    /// All permanent index declarations, in declaration order.
    pub fn indexes(&self) -> impl Iterator<Item = &IndexDecl> + '_ {
        self.indexes.iter().map(|mi| &mi.decl)
    }

    /// Whether a permanent index exists on exactly `relation(attributes)`.
    pub fn has_index_on(&self, relation: &str, attributes: &[&str]) -> bool {
        self.indexes
            .iter()
            .any(|mi| mi.decl.covers(relation, attributes))
    }

    /// The maintained permanent index on exactly `relation(attributes)`,
    /// if one is declared.  A stale index (invalidated by a
    /// [`Catalog::relation_mut`] access) is rebuilt here, once, and the
    /// returned [`PermanentIndexUse::rebuilt`] flag reports it so that the
    /// caller can charge the rebuild to its metrics.
    pub fn permanent_index(
        &self,
        relation: &str,
        attributes: &[&str],
    ) -> Option<PermanentIndexUse> {
        let mi = self
            .indexes
            .iter()
            .find(|mi| mi.decl.covers(relation, attributes))?;
        let mut guard = mi.lock();
        if let Some(index) = guard.as_ref() {
            return Some(PermanentIndexUse {
                index: index.clone(),
                rebuilt: false,
            });
        }
        let rel = self.relation(&mi.decl.relation).ok()?;
        let attrs: Vec<&str> = mi.decl.attributes.iter().map(String::as_str).collect();
        let rebuilt = Arc::new(HashIndex::build_full(mi.decl.name.clone(), rel, &attrs).ok()?);
        *guard = Some(rebuilt.clone());
        Some(PermanentIndexUse {
            index: rebuilt,
            rebuilt: true,
        })
    }

    /// Builds a fresh physical hash index for a permanent index declaration
    /// (a point-in-time copy; the *maintained* structure is served by
    /// [`Catalog::permanent_index`]).
    pub fn build_index(&self, name: &str) -> Result<HashIndex, CatalogError> {
        let decl = self
            .indexes
            .iter()
            .map(|mi| &mi.decl)
            .find(|i| i.name == name)
            .ok_or_else(|| CatalogError::InvalidIndex {
                detail: format!("no permanent index named {name}"),
            })?;
        let rel = self.relation(&decl.relation)?;
        let attrs: Vec<&str> = decl.attributes.iter().map(String::as_str).collect();
        Ok(HashIndex::build_full(decl.name.clone(), rel, &attrs)?)
    }

    /// Computes statistics for one relation.
    pub fn stats(&self, relation: &str) -> Result<RelationStats, CatalogError> {
        Ok(RelationStats::compute(self.relation(relation)?))
    }

    /// ANALYZE one relation: computes its statistics in a single pass and
    /// caches them under a fresh stats epoch.  Does **not** advance the
    /// plan epoch — only `StrategyLevel::Auto` plans (which consult the
    /// statistics) are re-planned, via their stats-epoch cache key.
    pub fn analyze_relation(&mut self, relation: &str) -> Result<Arc<RelationStats>, CatalogError> {
        let stats = Arc::new(RelationStats::compute(self.relation(relation)?));
        self.stats_epoch += 1;
        self.stats_cache.insert(
            relation.to_string(),
            CachedStats {
                stats: stats.clone(),
                epoch: self.stats_epoch,
            },
        );
        Ok(stats)
    }

    /// ANALYZE every declared relation (one stats-epoch bump per relation,
    /// so per-relation staleness stays observable).
    pub fn analyze_all(&mut self) -> Result<(), CatalogError> {
        let names: Vec<String> = self
            .relation_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        for name in names {
            self.analyze_relation(&name)?;
        }
        Ok(())
    }

    /// The cached ANALYZE statistics for a relation, if it has been
    /// analyzed.  The statistics may be stale with respect to the live
    /// contents; they are refreshed only by another ANALYZE.
    pub fn cached_stats(&self, relation: &str) -> Option<&Arc<RelationStats>> {
        self.stats_cache.get(relation).map(|c| &c.stats)
    }

    /// The stats epoch at which a relation was last analyzed (0 if never).
    pub fn stats_epoch_of(&self, relation: &str) -> u64 {
        self.stats_cache.get(relation).map_or(0, |c| c.epoch)
    }

    /// A fingerprint of the statistics a query over `relations` depends
    /// on: the maximum per-relation stats epoch.  Monotonic — analyzing
    /// any of the named relations strictly increases it (the global
    /// counter only moves forward), while analyzing an *unrelated*
    /// relation leaves it unchanged.  Plan caches key `Auto` plans on it.
    pub fn stats_fingerprint<'a>(&self, relations: impl IntoIterator<Item = &'a str>) -> u64 {
        relations
            .into_iter()
            .map(|r| self.stats_epoch_of(r))
            .max()
            .unwrap_or(0)
    }

    /// Computes statistics for every relation (dropped slots excluded).
    pub fn all_stats(&self) -> BTreeMap<String, RelationStats> {
        self.relations
            .iter()
            .filter(|r| self.by_name.get(r.name()).copied() == Some(r.id()))
            .map(|r| (r.name().to_string(), RelationStats::compute(r)))
            .collect()
    }

    /// Number of pages the named relation occupies.
    ///
    /// When the persistent backend is active, this is the **real** page
    /// count of the relation's heap extent as measured at the last
    /// checkpoint (see [`Catalog::set_real_page_counts`]); otherwise — on
    /// the in-memory backend, or for tuples inserted since that
    /// checkpoint — it falls back to the [`PageModel`] estimate.
    pub fn pages_of(&self, relation: &str) -> Result<u64, CatalogError> {
        let rel = self.relation(relation)?;
        if let Some(&pages) = self.real_pages.get(relation) {
            return Ok(pages);
        }
        Ok(self.page_model.pages_for(rel.cardinality() as u64))
    }

    /// Installs the persistent backend's measured per-relation heap page
    /// counts and its measured blocking factor, making the backend the one
    /// source of truth for page-level costing ([`Catalog::pages_of`] and
    /// [`PageModel::tuples_per_page`]). Called by the engine at open and
    /// after each checkpoint; never advances the plan epoch on its own —
    /// callers decide whether re-costing should invalidate cached plans.
    pub fn set_real_page_counts(
        &mut self,
        pages: BTreeMap<String, u64>,
        tuples_per_page: Option<u64>,
    ) {
        self.real_pages = pages;
        if let Some(bf) = tuples_per_page {
            self.page_model.tuples_per_page = bf.max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::{Attribute, ValueType};

    fn catalog_with_employees() -> Catalog {
        let mut cat = Catalog::new();
        let status = cat
            .types_mut()
            .declare_enum(
                "statustype",
                &["student", "technician", "assistant", "professor"],
            )
            .unwrap();
        cat.types_mut()
            .declare_subrange("enumbertype", 1, 99)
            .unwrap();
        cat.types_mut().declare_string("nametype", 10).unwrap();
        let schema = RelationSchema::new(
            "employees",
            vec![
                Attribute::new("enr", cat.types().resolve("enumbertype").unwrap()),
                Attribute::new("ename", cat.types().resolve("nametype").unwrap()),
                Attribute::new("estatus", ValueType::Enum(status.clone())),
            ],
            &["enr"],
        )
        .unwrap();
        cat.declare_relation(schema).unwrap();
        cat.insert(
            "employees",
            Tuple::new(vec![
                Value::int(10),
                Value::str("Abel"),
                status.value("professor").unwrap(),
            ]),
        )
        .unwrap();
        cat.insert(
            "employees",
            Tuple::new(vec![
                Value::int(20),
                Value::str("Highman"),
                status.value("technician").unwrap(),
            ]),
        )
        .unwrap();
        cat
    }

    #[test]
    fn declare_and_lookup_relations() {
        let cat = catalog_with_employees();
        assert_eq!(cat.relation_count(), 1);
        assert_eq!(cat.relation_names(), vec!["employees"]);
        assert!(cat.relation("employees").is_ok());
        assert!(cat.relation("papers").is_err());
        let id = cat.relation_id("employees").unwrap();
        assert!(cat.relation_by_id(id).is_some());
        assert!(cat.relation_by_id(RelId(42)).is_none());
    }

    #[test]
    fn duplicate_relation_names_rejected() {
        let mut cat = catalog_with_employees();
        let schema =
            RelationSchema::all_key("employees", vec![Attribute::new("x", ValueType::int())]);
        assert!(cat.declare_relation(schema).is_err());
    }

    #[test]
    fn cross_relation_dereference() {
        let cat = catalog_with_employees();
        let rel = cat.relation("employees").unwrap();
        let r = rel.ref_by_key(&Key::single(20i64)).unwrap();
        assert_eq!(cat.deref(r).unwrap().get(1), &Value::str("Highman"));
        assert_eq!(
            cat.deref_component(r, "ename").unwrap(),
            &Value::str("Highman")
        );
        let bogus = ElemRef::new(RelId(9), pascalr_relation::RowId(0));
        assert!(cat.deref(bogus).is_err());
    }

    #[test]
    fn selected_variable_by_name() {
        let cat = catalog_with_employees();
        let t = cat
            .selected("employees", &Key::single(10i64))
            .unwrap()
            .unwrap();
        assert_eq!(t.get(1), &Value::str("Abel"));
        assert!(cat
            .selected("employees", &Key::single(77i64))
            .unwrap()
            .is_none());
        assert!(cat.selected("missing", &Key::single(1i64)).is_err());
    }

    #[test]
    fn permanent_index_declaration_and_build() {
        let mut cat = catalog_with_employees();
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        assert!(cat.has_index_on("employees", &["enr"]));
        assert!(!cat.has_index_on("employees", &["ename"]));
        assert!(cat
            .declare_index("enrindex", "employees", &["enr"])
            .is_err());
        assert!(cat.declare_index("bad", "employees", &["zzz"]).is_err());
        assert!(cat.declare_index("bad", "missing", &["enr"]).is_err());

        let idx = cat.build_index("enrindex").unwrap();
        assert_eq!(idx.entry_count(), 2);
        assert!(cat.build_index("nosuch").is_err());
        assert_eq!(cat.indexes().count(), 1);
    }

    #[test]
    fn duplicate_attribute_and_duplicate_coverage_are_rejected() {
        let mut cat = catalog_with_employees();
        // Repeated component names in one declaration.
        let err = cat
            .declare_index("twice", "employees", &["enr", "enr"])
            .unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
        // Empty component list.
        assert!(cat.declare_index("none", "employees", &[]).is_err());
        // Two indexes over the identical (relation, attributes).
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        let err = cat
            .declare_index("enrindex2", "employees", &["enr"])
            .unwrap_err();
        assert!(err.to_string().contains("already covers"), "{err}");
        assert!(err.to_string().contains("enrindex"), "{err}");
        // A different component list under a new name is fine.
        cat.declare_index("nameindex", "employees", &["ename"])
            .unwrap();
        assert_eq!(cat.indexes().count(), 2);
    }

    #[test]
    fn maintained_index_follows_inserts_and_survives_staleness() {
        let mut cat = catalog_with_employees();
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        let use0 = cat.permanent_index("employees", &["enr"]).unwrap();
        assert!(!use0.rebuilt, "declare builds eagerly");
        assert_eq!(use0.index.entry_count(), 2);

        // Insert: maintained incrementally, no rebuild on next use.
        cat.insert(
            "employees",
            Tuple::new(vec![
                Value::int(30),
                Value::str("Newman"),
                cat.types()
                    .enum_type("statustype")
                    .unwrap()
                    .value("assistant")
                    .unwrap(),
            ]),
        )
        .unwrap();
        let use1 = cat.permanent_index("employees", &["enr"]).unwrap();
        assert!(!use1.rebuilt, "insert maintenance must not stale the index");
        assert_eq!(use1.index.entry_count(), 3);
        assert_eq!(use1.index.probe(&Key::single(30i64)).len(), 1);

        // Mutable access stales; the next use rebuilds once.
        cat.relation_mut("employees").unwrap().clear();
        let use2 = cat.permanent_index("employees", &["enr"]).unwrap();
        assert!(use2.rebuilt, "stale index rebuilds lazily");
        assert_eq!(use2.index.entry_count(), 0);
        let use3 = cat.permanent_index("employees", &["enr"]).unwrap();
        assert!(!use3.rebuilt, "rebuild happens once");

        // Unknown coverage is not served.
        assert!(cat.permanent_index("employees", &["ename"]).is_none());
        assert!(cat.permanent_index("papers", &["enr"]).is_none());
    }

    #[test]
    fn drop_index_removes_the_declaration_and_bumps_the_epoch() {
        let mut cat = catalog_with_employees();
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        let before = cat.epoch();
        let decl = cat.drop_index("enrindex").unwrap();
        assert_eq!(decl.name, "enrindex");
        assert!(cat.epoch() > before, "dropping an index re-plans");
        assert!(cat.permanent_index("employees", &["enr"]).is_none());
        assert!(cat.drop_index("enrindex").is_err());
    }

    #[test]
    fn redeclaring_a_relation_guards_dangling_index_declarations() {
        let mut cat = catalog_with_employees();
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();

        // A schema without the indexed component is rejected up front.
        let lacking = RelationSchema::all_key(
            "employees",
            vec![Attribute::new("ename", ValueType::string(10))],
        );
        let err = cat.redeclare_relation(lacking).unwrap_err();
        assert!(err.to_string().contains("enrindex"), "{err}");
        assert!(
            cat.relation("employees").unwrap().cardinality() == 2,
            "a rejected redeclaration must not touch the relation"
        );

        // A schema that keeps the component (even at another position) is
        // fine; the index rebuilds against the new layout.
        let keeping = RelationSchema::new(
            "employees",
            vec![
                Attribute::new("ename", ValueType::string(10)),
                Attribute::new("enr", ValueType::subrange(1, 99)),
            ],
            &["enr"],
        )
        .unwrap();
        let id = cat.redeclare_relation(keeping).unwrap();
        assert_eq!(id, cat.relation_id("employees").unwrap());
        cat.insert(
            "employees",
            Tuple::new(vec![Value::str("Abel"), Value::int(10)]),
        )
        .unwrap();
        let use_ = cat.permanent_index("employees", &["enr"]).unwrap();
        assert_eq!(use_.index.probe(&Key::single(10i64)).len(), 1);
        assert!(cat
            .redeclare_relation(RelationSchema::all_key(
                "ghost",
                vec![Attribute::new("x", ValueType::int())],
            ))
            .is_err());
    }

    #[test]
    fn stats_and_pages() {
        let cat = catalog_with_employees();
        let stats = cat.stats("employees").unwrap();
        assert_eq!(stats.cardinality, 2);
        assert_eq!(stats.column("enr").unwrap().distinct, 2);
        let all = cat.all_stats();
        assert!(all.contains_key("employees"));
        assert_eq!(cat.pages_of("employees").unwrap(), 1);
        assert!(cat.pages_of("missing").is_err());
    }

    #[test]
    fn epoch_advances_on_every_invalidating_mutation() {
        let mut cat = Catalog::new();
        assert_eq!(cat.epoch(), 0);
        let e0 = cat.epoch();
        cat.types_mut().declare_string("nametype", 10).unwrap();
        assert!(cat.epoch() > e0);

        let mut cat = catalog_with_employees();
        let declared = cat.epoch();
        assert!(declared > 0, "declarations and inserts advance the epoch");

        cat.insert(
            "employees",
            Tuple::new(vec![
                Value::int(30),
                Value::str("Newman"),
                cat.types()
                    .enum_type("statustype")
                    .unwrap()
                    .value("assistant")
                    .unwrap(),
            ]),
        )
        .unwrap();
        assert!(cat.epoch() > declared);

        let after_insert = cat.epoch();
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        assert!(cat.epoch() > after_insert);

        let after_index = cat.epoch();
        cat.relation_mut("employees").unwrap().clear();
        assert!(cat.epoch() > after_index);

        let after_clear = cat.epoch();
        cat.bump_epoch();
        assert_eq!(cat.epoch(), after_clear + 1);

        // Read-only access does not advance the epoch.
        let snapshot = cat.epoch();
        let _ = cat.relation("employees").unwrap();
        let _ = cat.stats("employees").unwrap();
        let _ = cat.all_stats();
        assert_eq!(cat.epoch(), snapshot);
    }

    #[test]
    fn analyze_caches_stats_under_the_stats_epoch_without_plan_epoch_bump() {
        let mut cat = catalog_with_employees();
        assert_eq!(cat.stats_epoch(), 0);
        assert_eq!(cat.stats_epoch_of("employees"), 0);
        assert!(cat.cached_stats("employees").is_none());

        let plan_epoch = cat.epoch();
        let stats = cat.analyze_relation("employees").unwrap();
        assert_eq!(stats.cardinality, 2);
        assert_eq!(
            cat.epoch(),
            plan_epoch,
            "ANALYZE must not invalidate fixed-level cached plans"
        );
        assert_eq!(cat.stats_epoch(), 1);
        assert_eq!(cat.stats_epoch_of("employees"), 1);
        assert_eq!(cat.cached_stats("employees").unwrap().cardinality, 2);
        assert!(cat.analyze_relation("missing").is_err());

        // Stale by design: a later insert does not refresh the cache.
        cat.insert(
            "employees",
            Tuple::new(vec![
                Value::int(30),
                Value::str("Newman"),
                cat.types()
                    .enum_type("statustype")
                    .unwrap()
                    .value("assistant")
                    .unwrap(),
            ]),
        )
        .unwrap();
        assert_eq!(cat.cached_stats("employees").unwrap().cardinality, 2);
        assert_eq!(cat.stats_epoch_of("employees"), 1);
        // Re-analyzing refreshes and advances the epoch.
        cat.analyze_relation("employees").unwrap();
        assert_eq!(cat.cached_stats("employees").unwrap().cardinality, 3);
        assert_eq!(cat.stats_epoch_of("employees"), 2);
    }

    #[test]
    fn stats_fingerprint_tracks_only_the_named_relations() {
        let mut cat = catalog_with_employees();
        let schema =
            RelationSchema::all_key("papers", vec![Attribute::new("penr", ValueType::int())]);
        cat.declare_relation(schema).unwrap();

        assert_eq!(cat.stats_fingerprint(["employees"]), 0);
        cat.analyze_relation("employees").unwrap();
        let fp_emp = cat.stats_fingerprint(["employees"]);
        assert_eq!(fp_emp, 1);
        // Analyzing an unrelated relation leaves the fingerprint alone.
        cat.analyze_relation("papers").unwrap();
        assert_eq!(cat.stats_fingerprint(["employees"]), fp_emp);
        // ... but shows up for queries that use it.
        assert_eq!(cat.stats_fingerprint(["employees", "papers"]), 2);
        // Re-analyzing a named relation strictly increases the fingerprint.
        cat.analyze_relation("employees").unwrap();
        assert!(cat.stats_fingerprint(["employees"]) > fp_emp);
        // analyze_all covers everything.
        cat.analyze_all().unwrap();
        assert!(cat.cached_stats("papers").is_some());
        assert!(cat.stats_fingerprint(["papers"]) > 2);
    }

    #[test]
    fn insert_all_counts_new_elements() {
        let mut cat = catalog_with_employees();
        let status = cat.types().enum_type("statustype").unwrap().clone();
        let added = cat
            .insert_all(
                "employees",
                vec![
                    Tuple::new(vec![
                        Value::int(30),
                        Value::str("Newman"),
                        status.value("assistant").unwrap(),
                    ]),
                    // duplicate of an existing element: no-op
                    Tuple::new(vec![
                        Value::int(10),
                        Value::str("Abel"),
                        status.value("professor").unwrap(),
                    ]),
                ],
            )
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(cat.relation("employees").unwrap().cardinality(), 3);
    }
}
