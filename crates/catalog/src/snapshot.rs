//! MVCC snapshots: pinned immutable catalog versions and the atomically
//! swapped publication cell writers go through.
//!
//! The concurrency architecture has exactly two moving parts:
//!
//! * [`CatalogSnapshot`] — a pinned, immutable version of the catalog.
//!   Pinning is an [`Arc`] clone; a pinned snapshot holds **no lock**, so
//!   readers can stream from it for arbitrarily long without stalling
//!   writers (and a writer publishing a new version never invalidates or
//!   blocks a pinned reader).
//! * [`VersionedCatalog`] — the publication cell.  Writers build the next
//!   version from a copy-on-write clone of the current one (cheap: only
//!   the relations actually touched are unshared, see [`Catalog`]'s
//!   cloning docs) and publish it with a single pointer swap.  Readers
//!   pin the current version with [`VersionedCatalog::snapshot`].
//!
//! The version counter is the catalog's existing epoch machinery: every
//! published version carries the [`Catalog::epoch`] / [`Catalog::stats_epoch`]
//! pair its mutations produced, so plan caches and statistics consumers
//! need no separate notion of "snapshot version".

use pascalr_sync::Arc;
use std::fmt;
use std::ops::Deref;

use pascalr_sync::{Mutex, RwLock};

use crate::catalog::Catalog;

/// A pinned, immutable snapshot of the catalog: the unit of consistency
/// for every read.
///
/// A snapshot is a cheap [`Clone`] (an `Arc` bump) and dereferences to
/// [`Catalog`], so everything a `&Catalog` can do — relation lookups,
/// statistics, permanent-index probes, planning, execution — works against
/// a snapshot.  Two guarantees make it a *snapshot*:
///
/// * **Stability**: the element sets, indexes and statistics it exposes
///   never change, no matter how many writers publish new versions in the
///   meantime.  A cursor streaming from a snapshot sees exactly the
///   database state at pin time.
/// * **Independence**: holding a snapshot blocks nothing.  There is no
///   guard to drop, no lock ordering to respect, and no hazard in calling
///   any other API method — read or write — while a snapshot (or a
///   cursor over one) is alive on the same thread.
#[derive(Clone)]
pub struct CatalogSnapshot {
    inner: Arc<Catalog>,
}

impl CatalogSnapshot {
    /// Wraps a catalog into a standalone snapshot (pin of a version no
    /// cell publishes — useful for tests and for executing against catalogs
    /// built outside a [`VersionedCatalog`]).
    pub fn new(catalog: Catalog) -> CatalogSnapshot {
        CatalogSnapshot {
            inner: Arc::new(catalog),
        }
    }

    /// Wraps an already-shared catalog version.
    pub fn from_arc(inner: Arc<Catalog>) -> CatalogSnapshot {
        CatalogSnapshot { inner }
    }

    /// The shared version this snapshot pins.
    pub fn as_arc(&self) -> &Arc<Catalog> {
        &self.inner
    }

    /// Unwraps into the shared version.
    pub fn into_arc(self) -> Arc<Catalog> {
        self.inner
    }

    /// Whether two snapshots pin the identical published version.
    pub fn ptr_eq(&self, other: &CatalogSnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The plan epoch of the pinned version (see [`Catalog::epoch`]).
    pub fn plan_epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

impl Deref for CatalogSnapshot {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.inner
    }
}

impl From<Catalog> for CatalogSnapshot {
    fn from(catalog: Catalog) -> CatalogSnapshot {
        CatalogSnapshot::new(catalog)
    }
}

impl fmt::Debug for CatalogSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CatalogSnapshot")
            .field("epoch", &self.inner.epoch())
            .field("stats_epoch", &self.inner.stats_epoch())
            .field("relations", &self.inner.relation_count())
            .finish()
    }
}

/// The versioned catalog cell: readers pin the current version, writers
/// publish the next one with an atomic swap.
///
/// * [`VersionedCatalog::snapshot`] holds the internal lock only for the
///   duration of an `Arc` clone — readers are never stalled by an
///   in-progress mutation, however large.
/// * [`VersionedCatalog::mutate`] / [`VersionedCatalog::try_mutate`]
///   serialize writers among themselves, apply the closure to a private
///   copy-on-write clone of the current version, and publish the result
///   with a single swap.  A mutation that panics — or, for `try_mutate`,
///   returns `Err` — publishes **nothing**: the current version stays
///   exactly as it was, which gives every write entry point all-or-nothing
///   semantics for free.
pub struct VersionedCatalog {
    /// The published version.  The lock is held only for an `Arc` clone
    /// (readers) or a pointer swap (writers) — never across a mutation.
    current: RwLock<Arc<Catalog>>,
    /// Serializes writers: the read-copy-update cycle must not interleave,
    /// or a slower writer would publish over a faster one's version.
    writer: Mutex<()>,
}

impl VersionedCatalog {
    /// Creates a cell whose initial version is `catalog`.
    pub fn new(catalog: Catalog) -> VersionedCatalog {
        VersionedCatalog::from_snapshot(CatalogSnapshot::new(catalog))
    }

    /// Creates a cell whose initial version is an existing pinned snapshot
    /// — the O(1) "fork" operation: the new cell shares every relation
    /// with the snapshot until a mutation unshares what it touches.
    pub fn from_snapshot(snapshot: CatalogSnapshot) -> VersionedCatalog {
        VersionedCatalog {
            current: RwLock::new(snapshot.into_arc()),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current version.  O(1): an `Arc` clone under a read lock
    /// held for nanoseconds, never across any mutation work.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            inner: self.current.read().clone(),
        }
    }

    /// Applies `f` to a private copy of the current version and publishes
    /// the result.  Concurrent readers keep their pinned snapshots; readers
    /// pinning *during* the mutation get the previous version; readers
    /// pinning after `mutate` returns get the new one.  If `f` panics,
    /// nothing is published.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let _writer = self.writer.lock();
        let mut next = Catalog::clone(&self.current.read());
        let result = f(&mut next);
        *self.current.write() = Arc::new(next);
        result
    }

    /// Like [`VersionedCatalog::mutate`], but publishes the new version
    /// only when `f` succeeds.  On `Err` the current version is left
    /// untouched — a failed mutation is rolled back wholesale, including
    /// any epoch bumps or partial inserts `f` performed before failing.
    pub fn try_mutate<R, E>(&self, f: impl FnOnce(&mut Catalog) -> Result<R, E>) -> Result<R, E> {
        let _writer = self.writer.lock();
        let mut next = Catalog::clone(&self.current.read());
        let result = f(&mut next)?;
        *self.current.write() = Arc::new(next);
        Ok(result)
    }

    /// Like [`VersionedCatalog::try_mutate`], but runs `after` between
    /// `f` succeeding and the new version being published — still under
    /// the writer lock, with no reader able to see the new version yet.
    ///
    /// This is the *write-ahead* hook: the durable engine logs the
    /// mutation's WAL record in `after`, so a mutation becomes visible to
    /// readers only once its redo record is on disk. If `after` fails,
    /// nothing is published and nothing was observable — the same
    /// all-or-nothing guarantee as a failing `f` (a torn WAL tail from a
    /// crash inside `after` replays as a no-op).
    pub fn try_mutate_then<R, E>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R, E>,
        after: impl FnOnce(&Catalog, &R) -> Result<(), E>,
    ) -> Result<R, E> {
        let _writer = self.writer.lock();
        let mut next = Catalog::clone(&self.current.read());
        let result = f(&mut next)?;
        after(&next, &result)?;
        *self.current.write() = Arc::new(next);
        Ok(result)
    }
}

impl fmt::Debug for VersionedCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedCatalog")
            .field("current", &self.snapshot())
            .finish()
    }
}

/// Exhaustive interleaving models of the failure paths, compiled only under
/// `RUSTFLAGS="--cfg loom"` (see `tests/loom_models.rs` at the workspace
/// root for the success-path models and the README's "Concurrency
/// correctness" section for how to run them).
#[cfg(all(test, loom))]
mod loom_models {
    use super::*;
    use crate::CatalogError;
    use pascalr_relation::{Attribute, RelationSchema, Tuple, Value, ValueType};
    use pascalr_sync::{loom, thread};

    fn catalog_with_numbers(values: &[i64]) -> Catalog {
        let mut cat = Catalog::new();
        let schema =
            RelationSchema::all_key("numbers", vec![Attribute::new("n", ValueType::int())]);
        cat.declare_relation(schema).expect("fresh catalog");
        for v in values {
            cat.insert("numbers", Tuple::new(vec![Value::int(*v)]))
                .expect("distinct values");
        }
        cat
    }

    /// A failing `try_mutate` is invisible in every interleaving: no matter
    /// when a concurrent reader pins its snapshot — before, during, or
    /// after the failed mutation — it sees the original version, original
    /// cardinality, original epoch.
    #[test]
    fn a_failed_try_mutate_is_never_observable() {
        let stats = loom::model(|| {
            let cell = Arc::new(VersionedCatalog::new(catalog_with_numbers(&[1])));
            let base_epoch = cell.snapshot().plan_epoch();

            let writer = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let result: Result<(), CatalogError> = cell.try_mutate(|c| {
                        // A partial mutation (epoch bump + insert) that then
                        // fails: the whole private clone must be discarded.
                        c.insert("numbers", Tuple::new(vec![Value::int(2)]))?;
                        c.insert("missing", Tuple::new(vec![Value::int(3)]))?;
                        Ok(())
                    });
                    assert!(result.is_err());
                })
            };
            let reader = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let snap = cell.snapshot();
                    assert_eq!(
                        snap.relation("numbers").expect("declared").cardinality(),
                        1,
                        "a failed mutation's insert leaked into a snapshot"
                    );
                    assert_eq!(
                        snap.plan_epoch(),
                        base_epoch,
                        "a failed mutation's epoch bump leaked into a snapshot"
                    );
                })
            };
            writer.join().expect("writer");
            reader.join().expect("reader");

            let after = cell.snapshot();
            assert_eq!(after.plan_epoch(), base_epoch, "no epoch bump leaked");
            assert_eq!(
                after.relation("numbers").expect("declared").cardinality(),
                1
            );
        });
        assert!(stats.complete, "schedule space exhausted");
        assert!(
            stats.iterations > 100,
            "only {} interleavings",
            stats.iterations
        );
    }

    /// A failing `try_mutate` racing a succeeding `mutate`: whichever order
    /// the writer lock serializes them in, the published history contains
    /// only the successful mutation — the failure neither blocks the
    /// success nor resurrects the pre-success version.
    #[test]
    fn a_failed_try_mutate_never_disturbs_a_concurrent_successful_mutate() {
        let stats = loom::model(|| {
            let cell = Arc::new(VersionedCatalog::new(catalog_with_numbers(&[1])));

            let failer = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let result: Result<(), CatalogError> = cell.try_mutate(|c| {
                        c.insert("missing", Tuple::new(vec![Value::int(9)]))?;
                        Ok(())
                    });
                    assert!(result.is_err());
                })
            };
            let succeeder = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    cell.mutate(|c| {
                        c.insert("numbers", Tuple::new(vec![Value::int(2)]))
                            .expect("insert");
                    });
                })
            };
            failer.join().expect("failer");
            succeeder.join().expect("succeeder");

            assert_eq!(
                cell.snapshot()
                    .relation("numbers")
                    .expect("declared")
                    .cardinality(),
                2,
                "the successful mutation survives regardless of interleaving"
            );
        });
        assert!(stats.complete, "schedule space exhausted");
        assert!(
            stats.iterations > 100,
            "only {} interleavings",
            stats.iterations
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::{Attribute, RelationSchema, Tuple, Value, ValueType};

    fn catalog_with_numbers(values: &[i64]) -> Catalog {
        let mut cat = Catalog::new();
        let schema =
            RelationSchema::all_key("numbers", vec![Attribute::new("n", ValueType::int())]);
        cat.declare_relation(schema).unwrap();
        for v in values {
            cat.insert("numbers", Tuple::new(vec![Value::int(*v)]))
                .unwrap();
        }
        cat
    }

    #[test]
    fn a_commit_unshares_one_permanent_index_shard() {
        let mut cat = Catalog::new();
        let schema = RelationSchema::new(
            "grouped",
            vec![
                Attribute::new("n", ValueType::int()),
                Attribute::new("g", ValueType::int()),
            ],
            &["n"],
        )
        .unwrap();
        cat.declare_relation(schema).unwrap();
        let row = |n: i64| Tuple::new(vec![Value::int(n), Value::int(n % 2_500)]);
        cat.insert_all("grouped", (0..5_000).map(row)).unwrap();
        cat.declare_index("ind_g", "grouped", &["g"]).unwrap();
        let cell = VersionedCatalog::new(cat);

        let before = cell.snapshot();
        cell.mutate(|c| c.insert("grouped", row(5_000)).unwrap());
        let after = cell.snapshot();

        let old = before.permanent_index("grouped", &["g"]).unwrap();
        let new = after.permanent_index("grouped", &["g"]).unwrap();
        assert!(!old.rebuilt && !new.rebuilt, "maintained, not rebuilt");
        assert!(!Arc::ptr_eq(&old.index, &new.index));
        let shards = old.index.shard_count();
        assert!(shards > 8);
        assert_eq!(new.index.shards_shared_with(&old.index), shards - 1);
        assert_eq!(old.index.entry_count(), 5_000);
        assert_eq!(new.index.entry_count(), 5_001);
        assert_eq!(old.index.probe_value(&Value::int(0)).len(), 2);
        assert_eq!(new.index.probe_value(&Value::int(0)).len(), 3);
    }

    #[test]
    fn snapshots_are_stable_across_publications() {
        let cell = VersionedCatalog::new(catalog_with_numbers(&[1, 2]));
        let pinned = cell.snapshot();
        cell.mutate(|c| {
            c.insert("numbers", Tuple::new(vec![Value::int(3)]))
                .unwrap();
        });
        // The pinned snapshot still sees the version at pin time ...
        assert_eq!(pinned.relation("numbers").unwrap().cardinality(), 2);
        // ... while a fresh pin sees the published mutation.
        assert_eq!(
            cell.snapshot().relation("numbers").unwrap().cardinality(),
            3
        );
        assert!(!pinned.ptr_eq(&cell.snapshot()));
        assert!(pinned.plan_epoch() < cell.snapshot().plan_epoch());
    }

    #[test]
    fn try_mutate_rolls_back_on_error() {
        let cell = VersionedCatalog::new(catalog_with_numbers(&[1]));
        let before = cell.snapshot();
        let result: Result<(), crate::CatalogError> = cell.try_mutate(|c| {
            // A partial mutation that then fails: nothing of it may leak.
            c.insert("numbers", Tuple::new(vec![Value::int(2)]))?;
            c.insert("missing", Tuple::new(vec![Value::int(3)]))?;
            Ok(())
        });
        assert!(result.is_err());
        let after = cell.snapshot();
        assert!(before.ptr_eq(&after), "a failed mutation publishes nothing");
        assert_eq!(after.relation("numbers").unwrap().cardinality(), 1);
        assert_eq!(after.epoch(), before.epoch());
    }

    #[test]
    fn a_panicking_mutation_publishes_nothing() {
        let cell = VersionedCatalog::new(catalog_with_numbers(&[1]));
        let before = cell.snapshot();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.mutate(|c| {
                c.insert("numbers", Tuple::new(vec![Value::int(2)]))
                    .unwrap();
                panic!("boom");
            });
        }));
        assert!(panicked.is_err());
        assert!(before.ptr_eq(&cell.snapshot()));
    }

    #[test]
    fn copy_on_write_isolates_forked_cells() {
        let cell = VersionedCatalog::new(catalog_with_numbers(&[1, 2]));
        let fork = VersionedCatalog::from_snapshot(cell.snapshot());
        assert!(cell.snapshot().ptr_eq(&fork.snapshot()), "fork pins, O(1)");

        fork.mutate(|c| c.relation_mut("numbers").unwrap().clear());
        assert_eq!(
            fork.snapshot().relation("numbers").unwrap().cardinality(),
            0
        );
        assert_eq!(
            cell.snapshot().relation("numbers").unwrap().cardinality(),
            2
        );

        cell.mutate(|c| {
            c.insert("numbers", Tuple::new(vec![Value::int(9)]))
                .unwrap();
        });
        assert_eq!(
            fork.snapshot().relation("numbers").unwrap().cardinality(),
            0
        );
        assert_eq!(
            cell.snapshot().relation("numbers").unwrap().cardinality(),
            3
        );
    }

    #[test]
    fn concurrent_readers_see_consistent_batch_counts() {
        // A writer publishes batches of 10 while readers pin snapshots:
        // every pinned cardinality must be a multiple of the batch size
        // (all-or-nothing publication), and monotone per reader.
        let cell = Arc::new(VersionedCatalog::new(catalog_with_numbers(&[])));
        const BATCH: usize = 10;
        const ROUNDS: i64 = 20;

        std::thread::scope(|scope| {
            let writer_cell = cell.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    writer_cell.mutate(|c| {
                        c.insert_all(
                            "numbers",
                            (0..BATCH as i64)
                                .map(|i| Tuple::new(vec![Value::int(round * BATCH as i64 + i)])),
                        )
                        .unwrap();
                    });
                }
            });
            for _ in 0..4 {
                let cell = cell.clone();
                scope.spawn(move || {
                    let mut last = 0;
                    loop {
                        let snap = cell.snapshot();
                        let n = snap.relation("numbers").unwrap().cardinality();
                        assert_eq!(n % BATCH, 0, "a snapshot never sees a torn batch");
                        assert!(n >= last, "snapshots move forward");
                        last = n;
                        if n == BATCH * ROUNDS as usize {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });
    }
}
