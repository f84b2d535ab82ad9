//! The shared-shard hash map behind both the relation key index and
//! [`HashIndex`](crate::HashIndex).
//!
//! Entries live in a power-of-two number of shards, each a small hash
//! table behind its own [`Arc`].  Cloning the map copies one `Arc` per
//! shard; a write unshares ([`Arc::make_mut`]) only the shard it lands in.
//! This is what lets a catalog version clone a relation in O(shards) and
//! pay O(one shard) for the insert a commit makes.
//!
//! The map is keyed by a 64-bit hash the caller computes once per
//! operation ([`ShardedMap::hash`]: `SipHash` under a key drawn per map)
//! and answers lookups through an equality test the caller supplies, so
//! the key itself may live elsewhere — the relation key index stores only
//! `hash → RowId` and reads the key back from the row.  An entry whose
//! hash is already taken by a different key goes to a small overflow list;
//! the list is scanned only when a lookup's hash matches a shard entry
//! that turns out to be another key.
//!
//! When the map outgrows its shards their count doubles.  A doubling splits
//! each shard by one more bit of the *stored* hashes, so no key is ever
//! rehashed (and the key index, which has no key to rehash, can grow at
//! all).

use pascalr_sync::Arc;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use crate::value::Value;

/// Average entries per shard above which the shard count doubles.
const SHARD_TARGET: usize = 256;

/// The per-shard tables are keyed by the stored hash itself.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type Shard<V> = HashMap<u64, V, BuildHasherDefault<StoredHash>>;

/// A hash map from caller-computed 64-bit hashes to values, stored in
/// `Arc`-shared shards (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ShardedMap<V> {
    /// The keyed hash function, drawn per map and shared by its clones:
    /// keys come from outside the program, so a fixed function would let
    /// crafted keys pile up in the overflow list.
    hasher: RandomState,
    /// Empty until the first insert, then a power of two.
    shards: Vec<Arc<Shard<V>>>,
    /// Entries whose hash a shard already holds for a different key.  Every
    /// hash here also has a shard entry, so a lookup that misses its shard
    /// never looks here.
    overflow: Vec<(u64, V)>,
    len: usize,
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        ShardedMap {
            hasher: RandomState::new(),
            shards: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }
}

impl<V: Clone> ShardedMap<V> {
    /// The hash of a key given as its component values in key order.
    ///
    /// Both sides of every lookup go through this function — a stored
    /// row's key columns and a probe [`Key`](crate::Key)'s values hash
    /// alike — so no owned key has to be built to hash a tuple's key.
    pub(crate) fn hash<'a>(&self, values: impl IntoIterator<Item = &'a Value>) -> u64 {
        let mut hasher = self.hasher.build_hasher();
        for v in values {
            v.hash(&mut hasher);
        }
        let hash = hasher.finish();
        #[cfg(test)]
        let hash = test_hooks::truncate(hash);
        hash
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn shard_of(&self, hash: u64) -> Option<usize> {
        (!self.shards.is_empty()).then(|| self.shard_index(hash))
    }

    /// The shard `hash` belongs to; the map must have shards.  High bits
    /// pick the shard; the per-shard tables use the low and the top seven
    /// bits, so the two choices stay independent.
    fn shard_index(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.shards.len() - 1)
    }

    /// The entry with hash `hash` for which `eq` holds.
    pub(crate) fn get(&self, hash: u64, mut eq: impl FnMut(&V) -> bool) -> Option<&V> {
        let value = self.shards[self.shard_of(hash)?].get(&hash)?;
        if eq(value) {
            return Some(value);
        }
        self.overflow
            .iter()
            .find(|(h, v)| *h == hash && eq(v))
            .map(|(_, v)| v)
    }

    /// Mutable access to the entry with hash `hash` for which `eq` holds,
    /// unsharing its shard only when the entry exists.
    pub(crate) fn get_mut(&mut self, hash: u64, mut eq: impl FnMut(&V) -> bool) -> Option<&mut V> {
        let i = self.shard_of(hash)?;
        if eq(self.shards[i].get(&hash)?) {
            return Arc::make_mut(&mut self.shards[i]).get_mut(&hash);
        }
        self.overflow
            .iter_mut()
            .find(|(h, v)| *h == hash && eq(v))
            .map(|(_, v)| v)
    }

    /// Adds an entry whose key the caller has checked is absent.
    pub(crate) fn insert_new(&mut self, hash: u64, value: V) {
        if self.len >= self.shards.len() * SHARD_TARGET {
            self.grow();
        }
        let i = self.shard_index(hash);
        match Arc::make_mut(&mut self.shards[i]).entry(hash) {
            Entry::Occupied(_) => self.overflow.push((hash, value)),
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
        self.len += 1;
        self.debug_check();
    }

    /// Removes and returns the entry with hash `hash` for which `eq` holds.
    pub(crate) fn remove(&mut self, hash: u64, mut eq: impl FnMut(&V) -> bool) -> Option<V> {
        let i = self.shard_of(hash)?;
        let removed = if eq(self.shards[i].get(&hash)?) {
            let shard = Arc::make_mut(&mut self.shards[i]);
            let removed = shard.remove(&hash);
            // Keep "every overflow hash has a shard entry": promote one
            // colliding entry into the freed place.
            if let Some(pos) = self.overflow.iter().position(|(h, _)| *h == hash) {
                let (_, promoted) = self.overflow.swap_remove(pos);
                shard.insert(hash, promoted);
            }
            removed
        } else {
            let pos = self
                .overflow
                .iter()
                .position(|(h, v)| *h == hash && eq(v))?;
            Some(self.overflow.swap_remove(pos).1)
        };
        self.len -= 1;
        self.debug_check();
        removed
    }

    /// All values, shard by shard, then the overflow list.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.shards
            .iter()
            .flat_map(|shard| shard.values())
            .chain(self.overflow.iter().map(|(_, v)| v))
    }

    /// Doubles the shard count (or allocates the first shard), splitting
    /// every shard by the next bit of its stored hashes.
    fn grow(&mut self) {
        let n = self.shards.len();
        if n == 0 {
            self.shards.push(Arc::default());
            return;
        }
        let split_bit = n as u64;
        let is_high = |hash: &u64| (hash >> 32) & split_bit != 0;
        let mut high = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(2 * n);
        for shard in self.shards.drain(..) {
            let (hi, lo): (Shard<V>, Shard<V>) = match Arc::try_unwrap(shard) {
                Ok(owned) => owned.into_iter().partition(|(h, _)| is_high(h)),
                Err(shared) => shared
                    .iter()
                    .map(|(h, v)| (*h, v.clone()))
                    .partition(|(h, _)| is_high(h)),
            };
            shards.push(Arc::new(lo));
            high.push(Arc::new(hi));
        }
        shards.append(&mut high);
        self.shards = shards;
        self.debug_check();
    }

    /// The structure's invariants, checked in debug builds after every
    /// mutation: a power-of-two shard count, and shard sizes plus the
    /// overflow list accounting for every entry.
    fn debug_check(&self) {
        debug_assert!(
            self.shards.is_empty() || self.shards.len().is_power_of_two(),
            "shard count {} is not a power of two",
            self.shards.len()
        );
        debug_assert_eq!(
            self.shards.iter().map(|s| s.len()).sum::<usize>() + self.overflow.len(),
            self.len,
            "shard lengths plus the overflow list must add up to len"
        );
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards this map shares (the same allocation at the same
    /// position) with `other` — the structural-sharing measure.
    pub(crate) fn shared_shards(&self, other: &Self) -> usize {
        self.shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Length of the overflow list.
    #[cfg(test)]
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

/// Test-only control over [`ShardedMap::hash`]: truncating every hash to
/// a few bits forces collisions, so the overflow path runs on small inputs.
#[cfg(test)]
pub(crate) mod test_hooks {
    use std::cell::Cell;

    thread_local! {
        static TRUNCATE_BITS: Cell<u32> = const { Cell::new(64) };
    }

    pub(crate) fn truncate(hash: u64) -> u64 {
        let bits = TRUNCATE_BITS.with(Cell::get);
        if bits >= 64 {
            hash
        } else {
            hash & ((1 << bits) - 1)
        }
    }

    /// Runs `f` with every key hash on this thread truncated to `bits`.
    pub(crate) fn with_truncated_hashes<R>(bits: u32, f: impl FnOnce() -> R) -> R {
        let before = TRUNCATE_BITS.with(|b| b.replace(bits));
        let result = f();
        TRUNCATE_BITS.with(|b| b.set(before));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h<V: Clone>(m: &ShardedMap<V>, i: u64) -> u64 {
        m.hash([&Value::int(i as i64)])
    }

    #[test]
    fn clone_shares_shards_and_a_write_unshares_one() {
        let mut a: ShardedMap<u64> = ShardedMap::default();
        for i in 0..5_000 {
            a.insert_new(h(&a, i), i);
        }
        let n = a.shard_count();
        assert!(n.is_power_of_two() && n > 1);
        let mut b = a.clone();
        assert_eq!(a.shared_shards(&b), n);
        b.insert_new(h(&b, 9_999), 9_999);
        assert_eq!(a.shared_shards(&b), n - 1);
        assert_eq!(a.get(h(&a, 9_999), |&v| v == 9_999), None);
        assert_eq!(b.get(h(&b, 9_999), |&v| v == 9_999), Some(&9_999));
        assert_eq!(b.remove(h(&b, 17), |&v| v == 17), Some(17));
        assert!(a.shared_shards(&b) >= n - 2);
        assert_eq!(a.get(h(&a, 17), |&v| v == 17), Some(&17));
    }

    #[test]
    fn doubling_keeps_every_entry_reachable() {
        let mut m: ShardedMap<u64> = ShardedMap::default();
        for i in 0..3_000 {
            m.insert_new(h(&m, i), i);
            if i % 97 == 0 {
                assert!((0..=i).all(|j| m.get(h(&m, j), |&v| v == j) == Some(&j)));
            }
        }
        assert_eq!(m.len(), 3_000);
        let mut all: Vec<u64> = m.values().copied().collect();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..3_000));
    }

    #[test]
    fn collisions_go_to_overflow_and_are_promoted_on_remove() {
        test_hooks::with_truncated_hashes(2, || {
            let mut m: ShardedMap<u64> = ShardedMap::default();
            for i in 0..40 {
                m.insert_new(h(&m, i), i);
            }
            assert_eq!(m.len(), 40);
            assert!(m.overflow_len() >= 36, "only 4 distinct hashes exist");
            for i in (0..40).step_by(3) {
                assert_eq!(m.remove(h(&m, i), |&v| v == i), Some(i));
                assert_eq!(m.remove(h(&m, i), |&v| v == i), None);
            }
            for i in 0..40 {
                let expect = (i % 3 != 0).then_some(i);
                assert_eq!(m.get(h(&m, i), |&v| v == i).copied(), expect);
            }
            if let Some(v) = m.get_mut(h(&m, 5), |&v| v == 5) {
                *v = 500;
            }
            assert_eq!(m.get(h(&m, 5), |&v| v == 500), Some(&500));
        });
    }
}
