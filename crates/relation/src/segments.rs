//! Row storage for [`Relation`](crate::Relation): slots in fixed-size
//! segments, each behind its own [`Arc`].
//!
//! Slot `i` lives at offset `i % SEGMENT` of segment `i / SEGMENT`, so a
//! [`RowId`] addresses the same slot in every version that shares the
//! segment.  Cloning the store copies one `Arc` per segment; an append
//! unshares only the tail segment and a tombstone only its own segment.
//! Every segment before the tail holds exactly `SEGMENT` slots.  The tail
//! starts small and doubles up to `SEGMENT` slots as it fills, so the many
//! tiny detached relations the executor builds cost about what a `Vec`
//! would.

use pascalr_sync::Arc;
use std::iter;

use crate::refs::RowId;
use crate::tuple::Tuple;

const SEGMENT_BITS: u32 = 6;
/// Slots per full segment.
const SEGMENT: usize = 1 << SEGMENT_BITS;
/// Slots of a relation's first segment when it is allocated.
const FIRST_SEGMENT: usize = 4;

type Segment = Arc<[Option<Tuple>]>;

/// The slot image of a relation: live tuples and `None` tombstones in
/// [`RowId`] order.  Slots a segment holds beyond `len` are `None` and
/// belong to no row yet.
#[derive(Debug, Clone, Default)]
pub(crate) struct Segments {
    segs: Vec<Segment>,
    len: usize,
}

impl Segments {
    /// Stores an exact slot image, slot `i` at [`RowId`] `i`.
    pub(crate) fn from_slots(slots: Vec<Option<Tuple>>) -> Self {
        let len = slots.len();
        let mut rest = slots.into_iter();
        let segs = (0..len.div_ceil(SEGMENT))
            .map(|_| rest.by_ref().take(SEGMENT).collect())
            .collect();
        let store = Segments { segs, len };
        store.debug_check();
        store
    }

    /// Number of slots (live and tombstoned).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The tuple at `row`, if that slot exists and is live.
    #[inline]
    pub(crate) fn get(&self, row: RowId) -> Option<&Tuple> {
        let i = row.0 as usize;
        self.segs
            .get(i >> SEGMENT_BITS)?
            .get(i & (SEGMENT - 1))?
            .as_ref()
    }

    /// Appends a live slot and returns its [`RowId`].
    pub(crate) fn push(&mut self, tuple: Tuple) -> RowId {
        let row = self.len;
        let (s, offset) = (row >> SEGMENT_BITS, row & (SEGMENT - 1));
        if s == self.segs.len() {
            let size = if s == 0 { FIRST_SEGMENT } else { SEGMENT };
            self.segs
                .push(iter::repeat_with(|| None).take(size).collect());
        }
        let tail = &mut self.segs[s];
        if offset == tail.len() {
            grow(tail);
        }
        Arc::make_mut(tail)[offset] = Some(tuple);
        self.len += 1;
        self.debug_check();
        RowId(row as u32)
    }

    /// Tombstones the slot at `row`, unsharing only its segment.
    pub(crate) fn tombstone(&mut self, row: RowId) {
        let i = row.0 as usize;
        if let Some(seg) = self.segs.get_mut(i >> SEGMENT_BITS) {
            if let Some(slot) = Arc::make_mut(seg).get_mut(i & (SEGMENT - 1)) {
                *slot = None;
            }
        }
    }

    /// Every slot in [`RowId`] order, tombstones as `None`.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<&Tuple>> + '_ {
        self.segs
            .iter()
            .flat_map(|seg| seg.iter())
            .take(self.len)
            .map(Option::as_ref)
    }

    /// The live slots with their [`RowId`]s, in [`RowId`] order.
    #[inline]
    pub(crate) fn live(&self) -> Live<'_> {
        Live {
            segs: self.segs.iter(),
            seg: &[],
            base: 0,
            offset: 0,
        }
    }

    /// The segments, for structural-sharing checks.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Checks in debug builds that every segment before the tail is full
    /// and that the tail holds the last slots.
    fn debug_check(&self) {
        debug_assert_eq!(self.segs.len(), self.len.div_ceil(SEGMENT));
        debug_assert!(
            self.segs.iter().rev().skip(1).all(|s| s.len() == SEGMENT),
            "every segment before the tail must be full"
        );
        debug_assert!(self.segs.last().is_none_or(|tail| {
            let in_tail = self.len - (self.segs.len() - 1) * SEGMENT;
            (in_tail..=SEGMENT).contains(&tail.len())
        }));
    }
}

/// Iterator over the live slots of a [`Segments`] store.  Slots past
/// `len` are `None`, so it needs no length bound.
pub(crate) struct Live<'a> {
    segs: std::slice::Iter<'a, Segment>,
    /// The segment being scanned and the [`RowId`] of its first slot.
    seg: &'a [Option<Tuple>],
    base: u32,
    /// Offset of the next slot within `seg`.
    offset: usize,
}

impl<'a> Iterator for Live<'a> {
    type Item = (RowId, &'a Tuple);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            while let Some(slot) = self.seg.get(self.offset) {
                self.offset += 1;
                if let Some(tuple) = slot {
                    return Some((RowId(self.base + self.offset as u32 - 1), tuple));
                }
            }
            // Every segment before the tail is full, so the next segment
            // starts `seg.len()` rows further on.
            self.base += self.seg.len() as u32;
            self.seg = self.segs.next()?;
            self.offset = 0;
        }
    }
}

/// Doubles a full tail segment (up to `SEGMENT` slots), moving its tuples
/// when the segment is unshared and cloning them otherwise.
fn grow(tail: &mut Segment) {
    let size = (tail.len() * 2).clamp(FIRST_SEGMENT, SEGMENT);
    let pad = iter::repeat_with(|| None);
    *tail = match Arc::get_mut(tail) {
        Some(owned) => owned
            .iter_mut()
            .map(Option::take)
            .chain(pad)
            .take(size)
            .collect(),
        None => tail.iter().cloned().chain(pad).take(size).collect(),
    };
}
