//! The costing view of page-level storage.
//!
//! The original PASCAL/R system read disk-resident relations
//! "one-element-at-a-time" (Section 4.1, citing the paper's reference 15),
//! and the paper's cost arguments are about *how often* relations are read
//! and how large intermediate structures become — not absolute I/O
//! latencies. [`PageModel`] captures exactly that: a relation of `n`
//! elements occupies `ceil(n / tuples_per_page)` pages, a full scan reads
//! all of them, and a point access through a selected variable or index
//! probe reads one page.
//!
//! `tuples_per_page` is the **blocking factor** of that model, and it is
//! a model on every backend: the persistent backend stores each relation
//! as one checkpoint blob, not as pages, so there is no measured figure
//! to install. `Catalog::pages_of` is always `pages_for(cardinality)`,
//! and the default `tuples_per_page = 32` keeps cost numbers comparable
//! with earlier experiments.

/// Configuration of the page model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageModel {
    /// Number of relation elements stored per page.
    pub tuples_per_page: u64,
    /// Simulated cost (arbitrary units) of reading one page sequentially.
    pub sequential_page_cost: u64,
    /// Simulated cost of reading one page at random (point access).
    pub random_page_cost: u64,
}

impl Default for PageModel {
    fn default() -> Self {
        PageModel {
            tuples_per_page: 32,
            sequential_page_cost: 1,
            random_page_cost: 4,
        }
    }
}

impl PageModel {
    /// A page model with a given blocking factor and default costs.
    pub fn with_tuples_per_page(tuples_per_page: u64) -> Self {
        PageModel {
            tuples_per_page: tuples_per_page.max(1),
            ..Default::default()
        }
    }

    /// Number of pages a relation of `cardinality` elements occupies.
    pub fn pages_for(&self, cardinality: u64) -> u64 {
        if cardinality == 0 {
            0
        } else {
            cardinality.div_ceil(self.tuples_per_page)
        }
    }

    /// Simulated cost of scanning a relation of `cardinality` elements.
    pub fn scan_cost(&self, cardinality: u64) -> u64 {
        self.pages_for(cardinality) * self.sequential_page_cost
    }

    /// Simulated cost of `n` point accesses.
    pub fn point_cost(&self, n: u64) -> u64 {
        n * self.random_page_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_round_up() {
        let m = PageModel::with_tuples_per_page(32);
        assert_eq!(m.pages_for(0), 0);
        assert_eq!(m.pages_for(1), 1);
        assert_eq!(m.pages_for(32), 1);
        assert_eq!(m.pages_for(33), 2);
        assert_eq!(m.pages_for(64), 2);
        assert_eq!(m.pages_for(65), 3);
    }

    #[test]
    fn zero_blocking_factor_is_clamped() {
        let m = PageModel::with_tuples_per_page(0);
        assert_eq!(m.tuples_per_page, 1);
        assert_eq!(m.pages_for(5), 5);
    }

    #[test]
    fn costs_scale_with_pages_and_accesses() {
        let m = PageModel::default();
        assert_eq!(m.scan_cost(64), 2 * m.sequential_page_cost);
        assert_eq!(m.point_cost(3), 3 * m.random_page_cost);
        assert!(m.point_cost(1) > m.scan_cost(1) / 4);
    }
}
