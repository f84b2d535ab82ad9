//! Compact reference relations: the intermediate structures of the
//! combination phase.
//!
//! The paper's combination phase "manipulates only reference relations":
//! n-tuples of references to relation elements.  [`RefRel`] is a compact,
//! set-semantics container for such tuples, with the operations the
//! combination phase needs — insertion, Cartesian product, union, column
//! projection (existential quantification) and division by a reference set
//! (universal quantification).

use std::collections::{HashMap, HashSet};

use pascalr_calculus::VarName;
use pascalr_relation::ElemRef;

/// A relation of reference n-tuples, with one column per element variable.
#[derive(Debug, Clone)]
pub struct RefRel {
    vars: Vec<VarName>,
    rows: Vec<Box<[ElemRef]>>,
    seen: HashSet<Box<[ElemRef]>>,
}

impl RefRel {
    /// Creates an empty reference relation over the given variables.
    pub fn new(vars: Vec<VarName>) -> Self {
        RefRel {
            vars,
            rows: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Creates a unary reference relation from a list of references (a
    /// *single list* in the paper's terminology).
    pub fn unary(var: VarName, refs: impl IntoIterator<Item = ElemRef>) -> Self {
        let mut rel = RefRel::new(vec![var]);
        for r in refs {
            rel.push(vec![r]);
        }
        rel
    }

    /// The column variables, in order.
    pub fn vars(&self) -> &[VarName] {
        &self.vars
    }

    /// Number of reference tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.as_ref() == var)
    }

    /// Inserts a tuple (set semantics: duplicates are ignored).  Returns
    /// `true` if the tuple was new.
    pub fn push(&mut self, row: Vec<ElemRef>) -> bool {
        debug_assert_eq!(row.len(), self.vars.len());
        let boxed = row.into_boxed_slice();
        if self.seen.contains(&boxed) {
            return false;
        }
        self.seen.insert(boxed.clone());
        self.rows.push(boxed);
        true
    }

    /// Iterates over the tuples.
    pub fn rows(&self) -> impl Iterator<Item = &[ElemRef]> + '_ {
        self.rows.iter().map(std::convert::AsRef::as_ref)
    }

    /// The tuple at `idx` (insertion order), if in bounds.  Streaming
    /// cursors use this to resume iteration across calls without holding a
    /// borrowing iterator.
    pub fn row(&self, idx: usize) -> Option<&[ElemRef]> {
        self.rows.get(idx).map(std::convert::AsRef::as_ref)
    }

    /// Cartesian product with a unary column of candidate references for a
    /// new variable.
    pub fn product_with(&self, var: VarName, refs: &[ElemRef]) -> RefRel {
        let mut vars = self.vars.clone();
        vars.push(var);
        let mut out = RefRel::new(vars);
        for row in &self.rows {
            for &r in refs {
                let mut new_row = row.to_vec();
                new_row.push(r);
                out.push(new_row);
            }
        }
        out
    }

    /// Union with another reference relation over the *same* variables
    /// (columns are aligned by variable name).
    pub fn union_in(&mut self, other: &RefRel) {
        debug_assert_eq!(self.vars.len(), other.vars.len());
        let mapping: Vec<usize> = self
            .vars
            .iter()
            .map(|v| match other.col(v) {
                Some(i) => i,
                None => unreachable!("union over identical variable sets"),
            })
            .collect();
        for row in &other.rows {
            let new_row: Vec<ElemRef> = mapping.iter().map(|&i| row[i]).collect();
            self.push(new_row);
        }
    }

    /// Projects onto the given variables (set semantics).  Used for
    /// existential quantification: projecting a variable *away* is
    /// projecting onto the remaining ones.
    pub fn project(&self, keep: &[VarName]) -> RefRel {
        let indices: Vec<usize> = keep
            .iter()
            .map(|v| match self.col(v) {
                Some(i) => i,
                None => unreachable!("projection onto existing variables"),
            })
            .collect();
        let mut out = RefRel::new(keep.to_vec());
        for row in &self.rows {
            out.push(indices.iter().map(|&i| row[i]).collect());
        }
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
        let keep: Vec<VarName> = self
            .vars
            .iter()
            .filter(|v| v.as_ref() != var)
            .cloned()
            .collect();
        let keep_idx: Vec<usize> = keep
            .iter()
            .map(|v| match self.col(v) {
                Some(i) => i,
                None => unreachable!("kept column exists"),
            })
            .collect();

        let required: HashSet<ElemRef> = divisor.iter().copied().collect();
        let mut groups: HashMap<Vec<ElemRef>, HashSet<ElemRef>> = HashMap::new();
        for row in &self.rows {
            let key: Vec<ElemRef> = keep_idx.iter().map(|&i| row[i]).collect();
            let v = row[div_col];
            if required.contains(&v) {
                groups.entry(key).or_default().insert(v);
            } else {
                groups.entry(key).or_default();
            }
        }
        let mut out = RefRel::new(keep);
        let mut checks = 0u64;
        for (key, seen) in groups {
            checks += required.len() as u64;
            if seen.len() == required.len() {
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
        for row in &self.rows {
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

    fn r(rel: u32, row: u32) -> ElemRef {
        ElemRef::new(RelId(rel), RowId(row))
    }
    fn v(name: &str) -> VarName {
        VarName::from(name)
    }

    #[test]
    fn push_deduplicates() {
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        assert!(rel.push(vec![r(1, 1), r(2, 1)]));
        assert!(!rel.push(vec![r(1, 1), r(2, 1)]));
        assert!(rel.push(vec![r(1, 1), r(2, 2)]));
        assert_eq!(rel.len(), 2);
        assert!(!rel.is_empty());
        assert_eq!(rel.col("p"), Some(1));
        assert_eq!(rel.col("zz"), None);
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
        a.push(vec![r(1, 1), r(2, 1)]);
        let mut b = RefRel::new(vec![v("p"), v("e")]);
        b.push(vec![r(2, 9), r(1, 9)]);
        b.push(vec![r(2, 1), r(1, 1)]); // same as a's row, in swapped order
        a.union_in(&b);
        assert_eq!(a.len(), 2);
        let cols = a.column_refs("e");
        assert!(cols.contains(&r(1, 1)));
        assert!(cols.contains(&r(1, 9)));
    }

    #[test]
    fn projection_removes_columns_and_duplicates() {
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        rel.push(vec![r(1, 1), r(2, 1)]);
        rel.push(vec![r(1, 1), r(2, 2)]);
        rel.push(vec![r(1, 2), r(2, 1)]);
        let p = rel.project(&[v("e")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.vars().len(), 1);
    }

    #[test]
    fn division_requires_all_divisor_refs() {
        // (e, p) pairs; employee 1 pairs with papers 1 and 2; employee 2 only
        // with paper 1.
        let mut rel = RefRel::new(vec![v("e"), v("p")]);
        rel.push(vec![r(1, 1), r(2, 1)]);
        rel.push(vec![r(1, 1), r(2, 2)]);
        rel.push(vec![r(1, 2), r(2, 1)]);
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
}
