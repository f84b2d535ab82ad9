//! Persistence codec: checkpoints and WAL records for the catalog.
//!
//! The storage backend deals only in opaque bytes; this module is where
//! those bytes get their meaning. Two artifact kinds exist:
//!
//! - **Checkpoints** ([`encode_checkpoint`] / [`decode_checkpoint`]):
//!   the full catalog — types, every relation slot (ghosts included, so
//!   [`RelId`]s and `Ref` components survive), index declarations, cached
//!   ANALYZE statistics, and the exact plan/stats epochs. A reopened
//!   database must produce byte-identical plan-cache keys, so epochs are
//!   restored verbatim rather than re-derived.
//! - **WAL records** ([`WalOp`]): one redo record per logged mutation.
//!   Replaying a record calls the same public catalog mutator the live
//!   system used, so every epoch bump is reproduced deterministically —
//!   `(epoch, stats_epoch)` after recovery equals the pre-crash value by
//!   construction, not by storing it.
//!
//! Tuples are encoded self-contained (enum values carry their full type),
//! by hand: the workspace has no serialization framework.

use std::collections::BTreeMap;

use pascalr_relation::{
    Attribute, ElemRef, EnumType, EnumValue, RelId, Relation, RelationSchema, RowId, Tuple, Value,
    ValueType,
};
use pascalr_storage::{Dec, Enc, StorageError};
use pascalr_sync::Arc;

use crate::catalog::{CachedStats, Catalog};
use crate::error::CatalogError;
use crate::stats::{ColumnStats, Histogram, RelationStats};

/// Format version of the checkpoint meta payload.
const META_VERSION: u8 = 2;

/// One named relation as exchanged with the storage backend: its name and
/// one blob holding every row slot (see [`encode_checkpoint`]).
pub type RelationRecords = (String, Vec<u8>);

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Value / tuple codec
// ---------------------------------------------------------------------------

fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Bool(b) => {
            e.u8(0);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(1);
            e.i64(*i);
        }
        Value::Str(s) => {
            e.u8(2);
            e.str(s);
        }
        Value::Enum(ev) => {
            e.u8(3);
            e.str(&ev.ty.name);
            e.usize(ev.ty.labels.len());
            for label in &ev.ty.labels {
                e.str(label);
            }
            e.u32(ev.ordinal);
        }
        Value::Ref(r) => {
            e.u8(4);
            e.u32(r.rel.0);
            e.u32(r.row.0);
        }
    }
}

fn decode_value(d: &mut Dec<'_>) -> Result<Value, StorageError> {
    Ok(match d.u8()? {
        0 => Value::Bool(d.bool()?),
        1 => Value::Int(d.i64()?),
        2 => Value::Str(d.str()?.to_string()),
        3 => {
            let name = d.str()?.to_string();
            let n = d.usize()?;
            // Each label takes at least its 8-byte length prefix, so a
            // count past the remaining bytes is corrupt: bound the
            // reservation by what is left, not by the count.
            let mut labels = Vec::with_capacity(n.min(d.remaining()));
            for _ in 0..n {
                labels.push(d.str()?.to_string());
            }
            let ty = EnumType::new(name, labels);
            let ordinal = d.u32()?;
            if ordinal as usize >= ty.labels.len() {
                return Err(corrupt(format!(
                    "enum ordinal {ordinal} out of range for {}",
                    ty.name
                )));
            }
            Value::Enum(EnumValue { ty, ordinal })
        }
        4 => Value::Ref(ElemRef::new(RelId(d.u32()?), RowId(d.u32()?))),
        tag => return Err(corrupt(format!("unknown value tag {tag}"))),
    })
}

fn encode_tuple(e: &mut Enc, t: &Tuple) {
    e.usize(t.values().len());
    for v in t.values() {
        encode_value(e, v);
    }
}

fn decode_tuple(d: &mut Dec<'_>) -> Result<Tuple, StorageError> {
    let n = d.usize()?;
    let mut values = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        values.push(decode_value(d)?);
    }
    Ok(Tuple::new(values))
}

// ---------------------------------------------------------------------------
// Type / schema codec
// ---------------------------------------------------------------------------

fn encode_value_type(e: &mut Enc, ty: &ValueType) {
    match ty {
        ValueType::Bool => e.u8(0),
        ValueType::Int { min, max } => {
            e.u8(1);
            e.i64(*min);
            e.i64(*max);
        }
        ValueType::Str { max_len } => {
            e.u8(2);
            e.usize(*max_len);
        }
        ValueType::Enum(en) => {
            e.u8(3);
            e.str(&en.name);
            e.usize(en.labels.len());
            for label in &en.labels {
                e.str(label);
            }
        }
        ValueType::Ref { relation } => {
            e.u8(4);
            e.str(relation);
        }
    }
}

fn decode_value_type(d: &mut Dec<'_>) -> Result<ValueType, StorageError> {
    Ok(match d.u8()? {
        0 => ValueType::Bool,
        1 => ValueType::subrange(d.i64()?, d.i64()?),
        2 => ValueType::string(d.usize()?),
        3 => {
            let name = d.str()?.to_string();
            let n = d.usize()?;
            let mut labels = Vec::with_capacity(n.min(d.remaining()));
            for _ in 0..n {
                labels.push(d.str()?.to_string());
            }
            ValueType::Enum(EnumType::new(name, labels))
        }
        4 => ValueType::reference(d.str()?.to_string()),
        tag => return Err(corrupt(format!("unknown type tag {tag}"))),
    })
}

fn encode_schema(e: &mut Enc, schema: &RelationSchema) {
    e.str(&schema.name);
    e.usize(schema.attributes.len());
    for attr in &schema.attributes {
        e.str(&attr.name);
        encode_value_type(e, &attr.ty);
    }
    let keys = schema.key_names();
    e.usize(keys.len());
    for k in keys {
        e.str(k);
    }
}

fn decode_schema(d: &mut Dec<'_>) -> Result<Arc<RelationSchema>, StorageError> {
    let name = d.str()?.to_string();
    let n = d.usize()?;
    let mut attributes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let attr_name = d.str()?.to_string();
        attributes.push(Attribute::new(attr_name, decode_value_type(d)?));
    }
    let k = d.usize()?;
    let mut key_names = Vec::with_capacity(k.min(1024));
    for _ in 0..k {
        key_names.push(d.str()?.to_string());
    }
    let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
    RelationSchema::new(name, attributes, &key_refs)
        .map_err(|err| corrupt(format!("invalid checkpointed schema: {err}")))
}

// ---------------------------------------------------------------------------
// Statistics codec
// ---------------------------------------------------------------------------

fn encode_stats(e: &mut Enc, stats: &RelationStats) {
    e.str(&stats.relation);
    e.u64(stats.cardinality);
    e.usize(stats.columns.len());
    for (name, col) in &stats.columns {
        e.str(name);
        e.str(&col.name);
        e.u64(col.distinct);
        e.opt_str(col.min_display.as_deref());
        e.opt_str(col.max_display.as_deref());
        e.opt_i64(col.min_int);
        e.opt_i64(col.max_int);
        match &col.histogram {
            Some(h) => {
                e.bool(true);
                e.i64(h.min);
                e.i64(h.max);
                e.usize(h.buckets.len());
                for &b in &h.buckets {
                    e.u64(b);
                }
                e.u64(h.total);
            }
            None => e.bool(false),
        }
    }
}

fn decode_stats(d: &mut Dec<'_>) -> Result<RelationStats, StorageError> {
    let relation = d.str()?.to_string();
    let cardinality = d.u64()?;
    let n = d.usize()?;
    let mut columns = BTreeMap::new();
    for _ in 0..n {
        let key = d.str()?.to_string();
        let name = d.str()?.to_string();
        let distinct = d.u64()?;
        let min_display = d.opt_string()?;
        let max_display = d.opt_string()?;
        let min_int = d.opt_i64()?;
        let max_int = d.opt_i64()?;
        let histogram = if d.bool()? {
            let min = d.i64()?;
            let max = d.i64()?;
            let b = d.usize()?;
            let mut buckets = Vec::with_capacity(b.min(1024));
            for _ in 0..b {
                buckets.push(d.u64()?);
            }
            let total = d.u64()?;
            Some(Histogram {
                min,
                max,
                buckets,
                total,
            })
        } else {
            None
        };
        columns.insert(
            key,
            ColumnStats {
                name,
                distinct,
                min_display,
                max_display,
                min_int,
                max_int,
                histogram,
            },
        );
    }
    Ok(RelationStats {
        relation,
        cardinality,
        columns,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// Encode the full catalog for a checkpoint.
///
/// Returns the opaque meta payload plus, for every *named* relation (in
/// slot order), one blob: the slot count, then per row slot a presence
/// byte followed by the tuple. Ghost slots left by `drop_relation` are
/// always empty, so they live entirely in the meta payload and the
/// backend's directory stays keyed by plain relation names.
pub fn encode_checkpoint(catalog: &Catalog) -> (Vec<u8>, Vec<RelationRecords>) {
    let mut e = Enc::new();
    e.u8(META_VERSION);
    let pm = catalog.page_model();
    e.u64(pm.tuples_per_page);
    e.u64(pm.sequential_page_cost);
    e.u64(pm.random_page_cost);
    e.u64(catalog.epoch);
    e.u64(catalog.stats_epoch);

    let types: Vec<_> = catalog.types.iter().collect();
    e.usize(types.len());
    for (name, ty) in types {
        e.str(name);
        encode_value_type(&mut e, ty);
    }

    e.usize(catalog.relations.len());
    let mut relation_records = Vec::new();
    for rel in &catalog.relations {
        let named = catalog.by_name.get(rel.name()).copied() == Some(rel.id());
        encode_schema(&mut e, rel.schema());
        e.bool(named);
        if named {
            let mut re = Enc::new();
            re.usize(rel.slot_count());
            for slot in rel.slots() {
                re.bool(slot.is_some());
                if let Some(tuple) = slot {
                    encode_tuple(&mut re, tuple);
                }
            }
            relation_records.push((rel.name().to_string(), re.into_bytes()));
        }
    }

    let decls: Vec<_> = catalog.indexes().collect();
    e.usize(decls.len());
    for decl in decls {
        e.str(&decl.name);
        e.str(&decl.relation);
        e.usize(decl.attributes.len());
        for a in &decl.attributes {
            e.str(a);
        }
    }

    e.usize(catalog.stats_cache.len());
    for (name, cached) in &catalog.stats_cache {
        e.str(name);
        e.u64(cached.epoch);
        encode_stats(&mut e, &cached.stats);
    }

    (e.into_bytes(), relation_records)
}

/// Rebuild a catalog from a checkpoint written by [`encode_checkpoint`].
///
/// Every relation keeps its original [`RelId`] slot and every tuple its
/// original [`RowId`]; epochs and cached-statistics epochs are restored
/// verbatim so plan-cache fingerprints match across the reopen.
pub fn decode_checkpoint(
    meta: &[u8],
    relations: &[RelationRecords],
) -> Result<Catalog, StorageError> {
    let mut d = Dec::new(meta);
    let version = d.u8()?;
    if version != META_VERSION {
        return Err(corrupt(format!("unsupported checkpoint version {version}")));
    }
    let mut catalog = Catalog::new();
    catalog.page_model.tuples_per_page = d.u64()?;
    catalog.page_model.sequential_page_cost = d.u64()?;
    catalog.page_model.random_page_cost = d.u64()?;
    let epoch = d.u64()?;
    let stats_epoch = d.u64()?;

    let n_types = d.usize()?;
    for _ in 0..n_types {
        let name = d.str()?.to_string();
        let ty = decode_value_type(&mut d)?;
        catalog.types.restore(&name, ty);
    }

    let by_name: BTreeMap<&str, &[u8]> = relations
        .iter()
        .map(|(name, blob)| (name.as_str(), blob.as_slice()))
        .collect();
    let n_slots = d.usize()?;
    for slot_idx in 0..n_slots {
        let schema = decode_schema(&mut d)?;
        let named = d.bool()?;
        let id = RelId(slot_idx as u32);
        let slots = if named {
            let blob = by_name.get(&*schema.name).ok_or_else(|| {
                corrupt(format!(
                    "checkpoint meta names relation {} but no blob was recovered for it",
                    schema.name
                ))
            })?;
            let mut rd = Dec::new(blob);
            let n = rd.usize()?;
            // Every slot takes at least its presence byte.
            let mut slots = Vec::with_capacity(n.min(rd.remaining()));
            for _ in 0..n {
                let slot = if rd.bool()? {
                    Some(decode_tuple(&mut rd)?)
                } else {
                    None
                };
                slots.push(slot);
            }
            rd.finish()?;
            slots
        } else {
            Vec::new()
        };
        let rel = Relation::from_slots(schema.clone(), id, slots)
            .map_err(|err| corrupt(format!("relation {}: {err}", schema.name)))?;
        if named {
            catalog.by_name.insert(rel.name().to_string(), id);
        }
        catalog.relations.push(Arc::new(rel));
    }

    let n_indexes = d.usize()?;
    for _ in 0..n_indexes {
        let name = d.str()?.to_string();
        let relation = d.str()?.to_string();
        let n_attrs = d.usize()?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1024));
        for _ in 0..n_attrs {
            attrs.push(d.str()?.to_string());
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        catalog
            .declare_index(&name, &relation, &attr_refs)
            .map_err(|err| corrupt(format!("index {name}: {err}")))?;
    }

    let n_stats = d.usize()?;
    for _ in 0..n_stats {
        let name = d.str()?.to_string();
        let cached_epoch = d.u64()?;
        let stats = decode_stats(&mut d)?;
        catalog.stats_cache.insert(
            name,
            CachedStats {
                stats: Arc::new(stats),
                epoch: cached_epoch,
            },
        );
    }
    d.finish()?;

    // Last: the mutators above (declare_index) bumped epochs; overwrite
    // with the checkpointed values so plan-cache keys match exactly.
    catalog.epoch = epoch;
    catalog.stats_epoch = stats_epoch;
    Ok(catalog)
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// One logged catalog mutation — the redo unit of the write-ahead log.
///
/// Replay calls the same public mutator the live system used
/// ([`WalOp::apply`]), so epoch bumps are reproduced rather than stored.
/// Only *successful* mutations are logged (the engine appends the record
/// between the mutation succeeding and its publication), so replay of a
/// recovered log is expected to succeed; an `Err` from `apply` means the
/// log does not match the checkpoint it extends.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// `rel :+ [tuple]` — one insert (including the `AlreadyPresent`
    /// no-op outcome, which still bumps the plan epoch).
    Insert {
        /// Target relation name.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// A batched insert (`insert_all`): one epoch bump for the batch.
    InsertAll {
        /// Target relation name.
        relation: String,
        /// The inserted tuples, in order.
        tuples: Vec<Tuple>,
    },
    /// VAR declaration of a new relation.
    DeclareRelation {
        /// The relation's full schema.
        schema: Arc<RelationSchema>,
    },
    /// Redeclaration: fresh empty relation under a (new) schema, same id.
    RedeclareRelation {
        /// The relation's new schema.
        schema: Arc<RelationSchema>,
    },
    /// Drop of a relation variable.
    DropRelation {
        /// The dropped relation's name.
        name: String,
    },
    /// Permanent index creation.
    DeclareIndex {
        /// Index name.
        name: String,
        /// Indexed relation.
        relation: String,
        /// Indexed components, in declaration order.
        attributes: Vec<String>,
    },
    /// Permanent index drop.
    DropIndex {
        /// The dropped index's name.
        name: String,
    },
    /// ANALYZE of one relation (statistics are recomputed on replay —
    /// deterministic, since the relation contents match).
    AnalyzeRelation {
        /// The analyzed relation's name.
        name: String,
    },
    /// ANALYZE of every relation.
    AnalyzeAll,
}

impl WalOp {
    /// Encode this record for the log.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalOp::Insert { relation, tuple } => {
                e.u8(0);
                e.str(relation);
                encode_tuple(&mut e, tuple);
            }
            WalOp::InsertAll { relation, tuples } => {
                e.u8(1);
                e.str(relation);
                e.usize(tuples.len());
                for t in tuples {
                    encode_tuple(&mut e, t);
                }
            }
            WalOp::DeclareRelation { schema } => {
                e.u8(2);
                encode_schema(&mut e, schema);
            }
            WalOp::RedeclareRelation { schema } => {
                e.u8(3);
                encode_schema(&mut e, schema);
            }
            WalOp::DropRelation { name } => {
                e.u8(4);
                e.str(name);
            }
            WalOp::DeclareIndex {
                name,
                relation,
                attributes,
            } => {
                e.u8(5);
                e.str(name);
                e.str(relation);
                e.usize(attributes.len());
                for a in attributes {
                    e.str(a);
                }
            }
            WalOp::DropIndex { name } => {
                e.u8(6);
                e.str(name);
            }
            WalOp::AnalyzeRelation { name } => {
                e.u8(7);
                e.str(name);
            }
            WalOp::AnalyzeAll => e.u8(8),
        }
        e.into_bytes()
    }

    /// Decode one record from the log.
    pub fn decode(bytes: &[u8]) -> Result<WalOp, StorageError> {
        let mut d = Dec::new(bytes);
        let op = match d.u8()? {
            0 => WalOp::Insert {
                relation: d.str()?.to_string(),
                tuple: decode_tuple(&mut d)?,
            },
            1 => {
                let relation = d.str()?.to_string();
                let n = d.usize()?;
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(decode_tuple(&mut d)?);
                }
                WalOp::InsertAll { relation, tuples }
            }
            2 => WalOp::DeclareRelation {
                schema: decode_schema(&mut d)?,
            },
            3 => WalOp::RedeclareRelation {
                schema: decode_schema(&mut d)?,
            },
            4 => WalOp::DropRelation {
                name: d.str()?.to_string(),
            },
            5 => {
                let name = d.str()?.to_string();
                let relation = d.str()?.to_string();
                let n = d.usize()?;
                let mut attributes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    attributes.push(d.str()?.to_string());
                }
                WalOp::DeclareIndex {
                    name,
                    relation,
                    attributes,
                }
            }
            6 => WalOp::DropIndex {
                name: d.str()?.to_string(),
            },
            7 => WalOp::AnalyzeRelation {
                name: d.str()?.to_string(),
            },
            8 => WalOp::AnalyzeAll,
            tag => return Err(corrupt(format!("unknown WAL op tag {tag}"))),
        };
        d.finish()?;
        Ok(op)
    }

    /// Redo this mutation against `catalog` through the same public
    /// mutator the live system used.
    pub fn apply(&self, catalog: &mut Catalog) -> Result<(), CatalogError> {
        match self {
            WalOp::Insert { relation, tuple } => catalog.insert(relation, tuple.clone()),
            WalOp::InsertAll { relation, tuples } => catalog
                .insert_all(relation, tuples.iter().cloned())
                .map(|_| ()),
            WalOp::DeclareRelation { schema } => {
                catalog.declare_relation(schema.clone()).map(|_| ())
            }
            WalOp::RedeclareRelation { schema } => {
                catalog.redeclare_relation(schema.clone()).map(|_| ())
            }
            WalOp::DropRelation { name } => catalog.drop_relation(name),
            WalOp::DeclareIndex {
                name,
                relation,
                attributes,
            } => {
                let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
                catalog.declare_index(name, relation, &attrs)
            }
            WalOp::DropIndex { name } => catalog.drop_index(name).map(|_| ()),
            WalOp::AnalyzeRelation { name } => catalog.analyze_relation(name).map(|_| ()),
            WalOp::AnalyzeAll => catalog.analyze_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::ValueType;

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let status = cat
            .types_mut()
            .declare_enum("statustype", &["student", "technician", "professor"])
            .unwrap();
        cat.types_mut().declare_subrange("enrtype", 1, 99).unwrap();
        let schema = RelationSchema::new(
            "employees",
            vec![
                Attribute::new("enr", cat.types().resolve("enrtype").unwrap()),
                Attribute::new("ename", ValueType::string(10)),
                Attribute::new("estatus", ValueType::Enum(status.clone())),
            ],
            &["enr"],
        )
        .unwrap();
        cat.declare_relation(schema).unwrap();
        for (enr, name, label) in [(10, "Abel", "professor"), (20, "Highman", "technician")] {
            cat.insert(
                "employees",
                Tuple::new(vec![
                    Value::int(enr),
                    Value::str(name),
                    status.value(label).unwrap(),
                ]),
            )
            .unwrap();
        }
        cat.declare_index("enrindex", "employees", &["enr"])
            .unwrap();
        cat.analyze_relation("employees").unwrap();
        cat
    }

    fn round_trip(cat: &Catalog) -> Catalog {
        let (meta, relations) = encode_checkpoint(cat);
        decode_checkpoint(&meta, &relations).unwrap()
    }

    #[test]
    fn checkpoint_round_trips_everything() {
        let cat = sample_catalog();
        let restored = round_trip(&cat);
        assert_eq!(restored.epoch(), cat.epoch());
        assert_eq!(restored.stats_epoch(), cat.stats_epoch());
        assert_eq!(restored.relation_names(), cat.relation_names());
        let rel = restored.relation("employees").unwrap();
        assert_eq!(rel.cardinality(), 2);
        assert_eq!(rel.id(), cat.relation("employees").unwrap().id());
        // Enum values survive with working equality.
        let orig: Vec<_> = cat.relation("employees").unwrap().tuples().collect();
        let back: Vec<_> = rel.tuples().collect();
        assert_eq!(orig, back);
        // Index declarations survive.
        assert!(restored.has_index_on("employees", &["enr"]));
        // Cached stats survive with their exact epochs.
        assert_eq!(
            restored.stats_epoch_of("employees"),
            cat.stats_epoch_of("employees")
        );
        let s = restored.cached_stats("employees").unwrap();
        assert_eq!(s.cardinality, 2);
        assert!(s.column("enr").is_some());
        // Types survive.
        assert!(restored.types().resolve("statustype").is_ok());
        assert!(restored.types().resolve("enrtype").is_ok());
    }

    #[test]
    fn ghost_slots_and_row_ids_survive() {
        let mut cat = sample_catalog();
        // A second relation referencing employees by Ref values.
        let schema = RelationSchema::new(
            "badges",
            vec![
                Attribute::new("bnr", ValueType::int()),
                Attribute::new("holder", ValueType::reference("employees")),
            ],
            &["bnr"],
        )
        .unwrap();
        cat.declare_relation(schema).unwrap();
        let holder = cat
            .relation("employees")
            .unwrap()
            .ref_by_key(
                &cat.relation("employees")
                    .unwrap()
                    .schema()
                    .make_key(vec![Value::int(20)])
                    .unwrap(),
            )
            .unwrap();
        cat.insert(
            "badges",
            Tuple::new(vec![Value::int(1), Value::Ref(holder)]),
        )
        .unwrap();
        // Drop a relation so a ghost slot exists, then declare another so
        // ids past the ghost matter.
        let dummy = RelationSchema::all_key("doomed", vec![Attribute::new("x", ValueType::int())]);
        cat.declare_relation(dummy).unwrap();
        cat.drop_relation("doomed").unwrap();
        let restored = round_trip(&cat);
        assert_eq!(restored.relation_count(), 2);
        assert_eq!(restored.relation_names(), vec!["employees", "badges"]);
        assert!(restored.relation("doomed").is_err());
        // The Ref component still dereferences to the same employee.
        let badge = restored
            .relation("badges")
            .unwrap()
            .tuples()
            .next()
            .unwrap();
        let Value::Ref(r) = &badge.values()[1] else {
            panic!("expected a ref");
        };
        let emp = restored.deref(*r).unwrap();
        assert_eq!(emp.values()[1], Value::str("Highman"));
    }

    #[test]
    fn wal_ops_round_trip_and_replay_matches_live() {
        let status_schema =
            RelationSchema::all_key("nums", vec![Attribute::new("n", ValueType::int())]);
        let ops = vec![
            WalOp::DeclareRelation {
                schema: status_schema.clone(),
            },
            WalOp::Insert {
                relation: "nums".to_string(),
                tuple: Tuple::new(vec![Value::int(1)]),
            },
            WalOp::InsertAll {
                relation: "nums".to_string(),
                tuples: (2..=5).map(|i| Tuple::new(vec![Value::int(i)])).collect(),
            },
            WalOp::DeclareIndex {
                name: "nidx".to_string(),
                relation: "nums".to_string(),
                attributes: vec!["n".to_string()],
            },
            WalOp::AnalyzeRelation {
                name: "nums".to_string(),
            },
            WalOp::DropIndex {
                name: "nidx".to_string(),
            },
            WalOp::RedeclareRelation {
                schema: status_schema.clone(),
            },
            WalOp::AnalyzeAll,
            WalOp::DropRelation {
                name: "nums".to_string(),
            },
        ];
        // Byte round-trip.
        for op in &ops {
            let decoded = WalOp::decode(&op.encode()).unwrap();
            assert_eq!(&decoded, op);
        }
        // Replaying the ops reproduces the live catalog's epochs exactly.
        let mut live = Catalog::new();
        let mut replayed = Catalog::new();
        for op in &ops {
            op.apply(&mut live).unwrap();
            let decoded = WalOp::decode(&op.encode()).unwrap();
            decoded.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.epoch(), live.epoch());
        assert_eq!(replayed.stats_epoch(), live.stats_epoch());
        assert_eq!(replayed.relation_count(), live.relation_count());
    }

    #[test]
    fn absurd_enum_label_counts_are_corruption_not_allocations() {
        let mut e = Enc::new();
        e.u8(3);
        e.str("statustype");
        e.u64(u64::MAX >> 1);
        let bytes = e.into_bytes();
        assert!(matches!(
            decode_value(&mut Dec::new(&bytes)),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_value_type(&mut Dec::new(&bytes)),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_and_garbage_records_are_corruption() {
        let op = WalOp::Insert {
            relation: "r".to_string(),
            tuple: Tuple::new(vec![Value::int(1)]),
        };
        let bytes = op.encode();
        assert!(WalOp::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(WalOp::decode(&[99]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(WalOp::decode(&trailing).is_err());
    }
}
