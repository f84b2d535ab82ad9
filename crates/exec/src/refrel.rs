//! Compact reference relations: the intermediate structures of the
//! combination phase.
//!
//! The paper's combination phase "manipulates only reference relations":
//! n-tuples of references to relation elements.  [`RefRel`] is a compact,
//! set-semantics container for such tuples, with the operations the
//! combination phase needs — insertion, Cartesian product, union, column
//! projection (existential quantification) and division by a reference set
//! (universal quantification).
//!
//! # Layout
//!
//! Every row is stored once.  A relation of arity `n` keeps its rows back
//! to back in one `Vec<ElemRef>` — row `i` is the slice `[i·n, (i+1)·n)` —
//! with the row count beside it, so a zero-column relation still holds its
//! rows (the base of every conjunction assembly is one empty row).
//!
//! Set semantics come from a **dedup table**: the hash of a row maps to the
//! position of the first row stored under that hash, and an equality test
//! against the stored row decides a match.  A row whose hash is already
//! taken by a different row goes to a small overflow list, which is
//! scanned only when a lookup's hash matches a table entry that turns out
//! to be another row.  This is the scheme of the relation key index
//! (`pascalr_relation`'s sharded hash map), mirrored rather than shared:
//! that map is private to its crate, hashes [`pascalr_relation::Value`]s
//! with a per-map keyed hasher, and spreads its entries over `Arc`-shared
//! shards so a catalog version clones it in O(shards).  A reference
//! relation belongs to one execution and is never cloned across versions,
//! and its keys are references the engine assigns rather than values from
//! outside the program, so it uses one plain table and a fixed hash.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use pascalr_calculus::VarName;
use pascalr_relation::ElemRef;

/// The dedup table is keyed by the row hash itself.
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

/// The hash of a row given as its references in column order: a
/// multiply-rotate fold of the packed references, then splitmix64's
/// finalizer, since the table takes its bucket and its tag from different
/// bits of the hash.
fn hash_row(refs: impl IntoIterator<Item = ElemRef>) -> u64 {
    let mut h = 0u64;
    for r in refs {
        let word = (u64::from(r.rel.0) << 32) | u64::from(r.row.0);
        h = (h.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// A relation of reference n-tuples, with one column per element variable.
#[derive(Debug, Clone)]
pub struct RefRel {
    vars: Vec<VarName>,
    /// The rows, back to back, `vars.len()` references each.
    refs: Vec<ElemRef>,
    /// Number of rows (also for zero columns, where `refs` stays empty).
    len: usize,
    /// Row hash → position of the first row stored under that hash.
    slots: HashMap<u64, usize, BuildHasherDefault<StoredHash>>,
    /// Rows whose hash `slots` already holds for a different row.  Every
    /// hash here also has a `slots` entry, so a lookup that misses `slots`
    /// never looks here.
    overflow: Vec<(u64, usize)>,
}

impl RefRel {
    /// Creates an empty reference relation over the given variables.
    pub fn new(vars: Vec<VarName>) -> Self {
        RefRel::with_capacity(vars, 0)
    }

    /// An empty reference relation with room for `rows` rows.
    fn with_capacity(vars: Vec<VarName>, rows: usize) -> Self {
        RefRel {
            refs: Vec::with_capacity(rows * vars.len()),
            vars,
            len: 0,
            slots: HashMap::with_capacity_and_hasher(rows, BuildHasherDefault::default()),
            overflow: Vec::new(),
        }
    }

    /// Creates a unary reference relation from a list of references (a
    /// *single list* in the paper's terminology).
    pub fn unary(var: VarName, refs: impl IntoIterator<Item = ElemRef>) -> Self {
        let mut rel = RefRel::new(vec![var]);
        for r in refs {
            rel.push(&[r]);
        }
        rel
    }

    /// The column variables, in order.
    pub fn vars(&self) -> &[VarName] {
        &self.vars
    }

    /// Number of reference tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.as_ref() == var)
    }

    /// Inserts a tuple (set semantics: duplicates are ignored).  Returns
    /// `true` if the tuple was new.
    pub fn push(&mut self, row: &[ElemRef]) -> bool {
        debug_assert_eq!(row.len(), self.vars.len());
        self.insert(hash_row(row.iter().copied()), row, None).1
    }

    /// Inserts the tuple `prefix` extended by `last` without building it
    /// first (set semantics, as [`RefRel::push`]).
    pub fn push_extended(&mut self, prefix: &[ElemRef], last: ElemRef) -> bool {
        debug_assert_eq!(prefix.len() + 1, self.vars.len());
        let hash = hash_row(prefix.iter().copied().chain([last]));
        self.insert(hash, prefix, Some(last)).1
    }

    /// Stores the row `prefix` (extended by `last`, if given) under `hash`
    /// unless an equal row is stored already.  Returns the row's position
    /// and whether it is new.
    fn insert(&mut self, hash: u64, prefix: &[ElemRef], last: Option<ElemRef>) -> (usize, bool) {
        let arity = self.vars.len();
        let RefRel {
            refs,
            len,
            slots,
            overflow,
            ..
        } = self;
        let is_row = |pos: usize| {
            let stored = &refs[pos * arity..(pos + 1) * arity];
            stored[..prefix.len()] == *prefix && last.is_none_or(|l| stored[prefix.len()] == l)
        };
        let pos = *len;
        match slots.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(pos);
            }
            Entry::Occupied(slot) => {
                let first = *slot.get();
                if is_row(first) {
                    return (first, false);
                }
                if let Some(&(_, other)) = overflow.iter().find(|&&(h, p)| h == hash && is_row(p)) {
                    return (other, false);
                }
                overflow.push((hash, pos));
            }
        }
        refs.extend_from_slice(prefix);
        refs.extend(last);
        *len += 1;
        (pos, true)
    }

    /// The row at `pos`; `pos` must be in bounds.
    fn slice(&self, pos: usize) -> &[ElemRef] {
        let arity = self.vars.len();
        &self.refs[pos * arity..(pos + 1) * arity]
    }

    /// Iterates over the tuples, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[ElemRef]> + '_ {
        (0..self.len).map(|pos| self.slice(pos))
    }

    /// The tuple at `idx` (insertion order), if in bounds.  Streaming
    /// cursors use this to resume iteration across calls without holding a
    /// borrowing iterator.
    pub fn row(&self, idx: usize) -> Option<&[ElemRef]> {
        (idx < self.len).then(|| self.slice(idx))
    }

    /// Cartesian product with a unary column of candidate references for a
    /// new variable.
    pub fn product_with(&self, var: VarName, refs: &[ElemRef]) -> RefRel {
        let mut vars = self.vars.clone();
        vars.push(var);
        let mut out = RefRel::with_capacity(vars, self.len * refs.len());
        for row in self.rows() {
            for &r in refs {
                out.push_extended(row, r);
            }
        }
        out
    }

    /// Inserts every row of `rows` with its columns picked by `columns`,
    /// assembling each in one reused buffer.
    fn push_picked<'r>(&mut self, rows: impl Iterator<Item = &'r [ElemRef]>, columns: &[usize]) {
        let mut picked = Vec::with_capacity(columns.len());
        for row in rows {
            picked.clear();
            picked.extend(columns.iter().map(|&i| row[i]));
            self.push(&picked);
        }
    }

    /// The column indices of `vars`.
    fn columns_of(&self, vars: &[VarName]) -> Vec<usize> {
        vars.iter()
            .map(|v| match self.col(v) {
                Some(i) => i,
                None => unreachable!("columns of existing variables"),
            })
            .collect()
    }

    /// Union with another reference relation over the *same* variables
    /// (columns are aligned by variable name).
    pub fn union_in(&mut self, other: &RefRel) {
        debug_assert_eq!(self.vars.len(), other.vars.len());
        let mapping = other.columns_of(&self.vars);
        self.push_picked(other.rows(), &mapping);
    }

    /// Projects onto the given variables (set semantics).  Used for
    /// existential quantification: projecting a variable *away* is
    /// projecting onto the remaining ones.
    pub fn project(&self, keep: &[VarName]) -> RefRel {
        let mut out = RefRel::new(keep.to_vec());
        out.push_picked(self.rows(), &self.columns_of(keep));
        out
    }

    /// Relational division by a set of references of one column: keeps the
    /// combinations of the *other* columns that co-occur with **every**
    /// reference in `divisor`.  Used for universal quantification.
    ///
    /// Returns the quotient over the remaining variables together with the
    /// unit the metrics record as comparisons: groups × |divisor|, one
    /// nominal check per divisor reference per group.  That is not a count
    /// of comparisons actually performed (a group's membership is decided
    /// by one size test), so read it as division work, not as Section 4's
    /// comparisons.
    pub fn divide_by(&self, var: &str, divisor: &[ElemRef]) -> (RefRel, u64) {
        let Some(div_col) = self.col(var) else {
            unreachable!("division column exists")
        };
        let keep_idx: Vec<usize> = (0..self.vars.len()).filter(|&i| i != div_col).collect();
        let keep: Vec<VarName> = keep_idx.iter().map(|&i| self.vars[i].clone()).collect();

        // The groups are the distinct rows of the other columns.  Rows are
        // distinct, so the divisor references a group co-occurs with are
        // as many as its rows whose division column holds one.
        let required: HashSet<ElemRef> = divisor.iter().copied().collect();
        let mut groups = RefRel::new(keep.clone());
        let mut hits: Vec<usize> = Vec::new();
        let mut key = Vec::with_capacity(keep_idx.len());
        for row in self.rows() {
            key.clear();
            key.extend(keep_idx.iter().map(|&i| row[i]));
            let (group, new) = groups.insert(hash_row(key.iter().copied()), &key, None);
            if new {
                hits.push(0);
            }
            if required.contains(&row[div_col]) {
                hits[group] += 1;
            }
        }
        let checks = (groups.len() * required.len()) as u64;
        let mut out = RefRel::new(keep);
        for (key, &n) in groups.rows().zip(&hits) {
            if n == required.len() {
                out.push(key);
            }
        }
        (out, checks)
    }

    /// The distinct references appearing in one column.
    pub fn column_refs(&self, var: &str) -> Vec<ElemRef> {
        let Some(idx) = self.col(var) else {
            return Vec::new();
        };
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in self.rows() {
            if seen.insert(row[idx]) {
                out.push(row[idx]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::{RelId, RowId};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn r(rel: u32, row: u32) -> ElemRef {
        ElemRef::new(RelId(rel), RowId(row))
    }
    fn v(name: &str) -> VarName {
        VarName::from(name)
    }

    #[test]
    fn push_deduplicates() {
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        assert!(rel.push(&[r(1, 1), r(2, 1)]));
        assert!(!rel.push(&[r(1, 1), r(2, 1)]));
        assert!(rel.push(&[r(1, 1), r(2, 2)]));
        assert!(!rel.push_extended(&[r(1, 1)], r(2, 2)));
        assert!(rel.push_extended(&[r(1, 2)], r(2, 2)));
        assert_eq!(rel.len(), 3);
        assert!(!rel.is_empty());
        assert_eq!(rel.col("p"), Some(1));
        assert_eq!(rel.col("zz"), None);
    }

    #[test]
    fn zero_columns_hold_one_empty_row() {
        let mut rel = RefRel::new(Vec::new());
        assert!(rel.row(0).is_none());
        assert!(rel.push(&[]));
        assert!(!rel.push(&[]));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), Some(&[][..]));
        let e = rel.product_with(v("e"), &[r(1, 1), r(1, 2)]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn rows_sharing_a_hash_are_told_apart() {
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        let (a, b, c) = ([r(1, 1), r(2, 1)], [r(1, 2), r(2, 2)], [r(1, 3), r(2, 3)]);
        assert_eq!(rel.insert(7, &a, None), (0, true));
        // Same hash, different rows: both land, the later ones in the
        // overflow list, and each is found again under that hash.
        assert_eq!(rel.insert(7, &b[..1], Some(b[1])), (1, true));
        assert_eq!(rel.insert(7, &c, None), (2, true));
        assert_eq!(rel.overflow.len(), 2);
        assert_eq!(rel.insert(7, &a, None), (0, false));
        assert_eq!(rel.insert(7, &b, None), (1, false));
        assert_eq!(rel.insert(7, &c[..1], Some(c[1])), (2, false));
        assert_eq!(rel.len(), 3);
        let rows: Vec<&[ElemRef]> = rel.rows().collect();
        assert_eq!(rows, [&a[..], &b[..], &c[..]]);
    }

    #[test]
    fn unary_and_product() {
        let e = RefRel::unary(v("e"), [r(1, 1), r(1, 2)]);
        assert_eq!(e.len(), 2);
        let ep = e.product_with(v("p"), &[r(2, 1), r(2, 2), r(2, 3)]);
        assert_eq!(ep.len(), 6);
        assert_eq!(ep.vars().len(), 2);
    }

    #[test]
    fn union_aligns_columns_by_name() {
        let mut a = RefRel::new(vec![v("e"), v("p")]);
        a.push(&[r(1, 1), r(2, 1)]);
        let mut b = RefRel::new(vec![v("p"), v("e")]);
        b.push(&[r(2, 9), r(1, 9)]);
        b.push(&[r(2, 1), r(1, 1)]); // same as a's row, in swapped order
        a.union_in(&b);
        assert_eq!(a.len(), 2);
        let cols = a.column_refs("e");
        assert!(cols.contains(&r(1, 1)));
        assert!(cols.contains(&r(1, 9)));
    }

    #[test]
    fn projection_removes_columns_and_duplicates() {
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        rel.push(&[r(1, 1), r(2, 1)]);
        rel.push(&[r(1, 1), r(2, 2)]);
        rel.push(&[r(1, 2), r(2, 1)]);
        let p = rel.project(&[v("e")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.vars().len(), 1);
    }

    #[test]
    fn division_requires_all_divisor_refs() {
        // (e, p) pairs; employee 1 pairs with papers 1 and 2; employee 2 only
        // with paper 1.
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        rel.push(&[r(1, 1), r(2, 1)]);
        rel.push(&[r(1, 1), r(2, 2)]);
        rel.push(&[r(1, 2), r(2, 1)]);
        let (q, checks) = rel.divide_by("p", &[r(2, 1), r(2, 2)]);
        assert_eq!(q.len(), 1);
        assert!(checks >= 2);
        assert_eq!(q.column_refs("e"), vec![r(1, 1)]);

        // Division by an empty divisor keeps every group present.
        let (q, _) = rel.divide_by("p", &[]);
        assert_eq!(q.len(), 2);

        // Rows whose divisor-column value is outside the divisor set do not
        // help a group qualify.
        let (q, _) = rel.divide_by("p", &[r(2, 3)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn column_refs_of_missing_column_is_empty() {
        let rel = RefRel::unary(v("e"), [r(1, 1)]);
        assert!(rel.column_refs("zz").is_empty());
    }

    type Model = BTreeSet<Vec<ElemRef>>;

    /// The relation's rows as a set, checking on the way that they are
    /// distinct and that `row(i)` walks them in insertion order.
    fn as_model(rel: &RefRel) -> Model {
        let rows: Vec<Vec<ElemRef>> = rel.rows().map(<[ElemRef]>::to_vec).collect();
        assert_eq!(rows.len(), rel.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(rel.row(i), Some(row.as_slice()));
        }
        assert!(rel.row(rows.len()).is_none());
        let model: Model = rows.into_iter().collect();
        assert_eq!(model.len(), rel.len(), "rows are distinct");
        model
    }

    /// A row of `arity` references, drawn from a few per column so that
    /// duplicates and shared prefixes are common.
    fn draw_row(arity: usize, draws: &mut impl Iterator<Item = u32>) -> Vec<ElemRef> {
        (0..arity)
            .map(|c| r(c as u32, draws.next().unwrap_or(0) % 3))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `push` / `push_extended` / `union_in` / `project` /
        /// `divide_by` / `column_refs` sequences at arities 0–3 agree with
        /// a set-of-rows model, and `row(i)` replays insertion order.
        #[test]
        fn refrel_agrees_with_a_set_model(
            arity in 0usize..4,
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..40),
        ) {
            let vars: Vec<VarName> = ["a", "b", "c"][..arity].iter().map(|s| v(s)).collect();
            let mut rel = RefRel::new(vars.clone());
            let mut model = Model::new();
            let mut order: Vec<Vec<ElemRef>> = Vec::new();
            for (op, seed) in ops {
                let mut draws = (0..8).map(|i| (seed >> (i * 8)) as u32);
                match op {
                    0 | 1 => {
                        let row = draw_row(arity, &mut draws);
                        let new = if op == 0 || arity == 0 {
                            rel.push(&row)
                        } else {
                            rel.push_extended(&row[..arity - 1], row[arity - 1])
                        };
                        prop_assert_eq!(new, model.insert(row.clone()));
                        if new {
                            order.push(row);
                        }
                    }
                    2 => {
                        // Union with a relation over the reversed columns.
                        let mut other = RefRel::new(vars.iter().rev().cloned().collect());
                        for _ in 0..(seed % 4) {
                            let row = draw_row(arity, &mut draws);
                            let reversed: Vec<ElemRef> = row.iter().rev().copied().collect();
                            other.push(&reversed);
                        }
                        for row in other.rows() {
                            let aligned: Vec<ElemRef> = row.iter().rev().copied().collect();
                            if model.insert(aligned.clone()) {
                                order.push(aligned);
                            }
                        }
                        rel.union_in(&other);
                    }
                    3 => {
                        let keep: Vec<usize> = (0..arity).filter(|i| seed >> i & 1 == 1).collect();
                        let keep_vars: Vec<VarName> = keep.iter().map(|&i| vars[i].clone()).collect();
                        let expected: Model = model
                            .iter()
                            .map(|row| keep.iter().map(|&i| row[i]).collect())
                            .collect();
                        prop_assert_eq!(as_model(&rel.project(&keep_vars)), expected);
                    }
                    4 if arity > 0 => {
                        let col = seed as usize % arity;
                        let divisor: Vec<ElemRef> =
                            (0..3).filter(|i| seed >> (8 + i) & 1 == 1).map(|i| r(col as u32, i)).collect();
                        let group = |row: &Vec<ElemRef>| -> Vec<ElemRef> {
                            row.iter().enumerate().filter(|&(i, _)| i != col).map(|(_, &x)| x).collect()
                        };
                        let groups: Model = model.iter().map(group).collect();
                        let expected: Model = groups
                            .iter()
                            .filter(|g| {
                                divisor.iter().all(|d| {
                                    model.iter().any(|row| group(row) == **g && row[col] == *d)
                                })
                            })
                            .cloned()
                            .collect();
                        let (quotient, checks) = rel.divide_by(&vars[col], &divisor);
                        prop_assert_eq!(as_model(&quotient), expected);
                        prop_assert_eq!(checks, (groups.len() * divisor.len()) as u64);
                    }
                    _ if arity > 0 => {
                        let col = seed as usize % arity;
                        let mut expected: Vec<ElemRef> = Vec::new();
                        for row in &order {
                            if !expected.contains(&row[col]) {
                                expected.push(row[col]);
                            }
                        }
                        prop_assert_eq!(rel.column_refs(&vars[col]), expected);
                    }
                    _ => {}
                }
                prop_assert_eq!(as_model(&rel), model.clone());
                let rows: Vec<Vec<ElemRef>> = rel.rows().map(<[ElemRef]>::to_vec).collect();
                prop_assert_eq!(&rows, &order);
            }
        }

        /// Division is the classical double difference
        /// πA(R) − πA((πA(R) × S) − R), with A every column but the divided
        /// one: over random rows of 1–3 columns, divided on each column by a
        /// random divisor (some of its references in no row) and by the
        /// empty one.
        #[test]
        fn division_is_the_classical_double_difference(
            arity in 1usize..4,
            rows in proptest::collection::vec(proptest::collection::vec(0u32..3, 3), 0..30),
            divisor in proptest::collection::vec(0u32..5, 0..4),
        ) {
            let vars: Vec<VarName> = ["a", "b", "c"][..arity].iter().map(|s| v(s)).collect();
            let rows: HashSet<Vec<ElemRef>> = rows
                .iter()
                .map(|row| (0..arity).map(|c| r(c as u32, row[c])).collect())
                .collect();
            let mut rel = RefRel::new(vars.clone());
            for row in &rows {
                rel.push(row);
            }
            for (col, var) in vars.iter().enumerate() {
                let drawn: Vec<ElemRef> = divisor.iter().map(|&i| r(col as u32, i)).collect();
                for s in [drawn, Vec::new()] {
                    let a_of = |row: &Vec<ElemRef>| {
                        let mut a = row.clone();
                        a.remove(col);
                        a
                    };
                    let pa: HashSet<Vec<ElemRef>> = rows.iter().map(a_of).collect();
                    let missing: HashSet<Vec<ElemRef>> = pa
                        .iter()
                        .flat_map(|a| s.iter().map(move |&b| (a, b)))
                        .filter(|&(a, b)| {
                            let mut row = a.clone();
                            row.insert(col, b);
                            !rows.contains(&row)
                        })
                        .map(|(a, _)| a.clone())
                        .collect();
                    let classical: HashSet<Vec<ElemRef>> = pa.difference(&missing).cloned().collect();
                    let (quotient, _) = rel.divide_by(var, &s);
                    let ours: HashSet<Vec<ElemRef>> = quotient.rows().map(<[ElemRef]>::to_vec).collect();
                    prop_assert_eq!(ours.len(), quotient.len());
                    prop_assert_eq!(ours, classical, "dividing on {} by {:?}", col, s);
                }
            }
        }
    }
}
