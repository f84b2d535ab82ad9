//! The backend-generic **read seam** between the executor and storage.
//!
//! Every tuple the collection phase touches flows through a
//! [`StorageReader`]: full scans, reference dereferences and
//! permanent-index probes.  The reader wraps the pinned catalog snapshot
//! the cursor already owns — tuples live in the catalog's in-memory
//! relations regardless of which [`pascalr_storage::StorageBackend`]
//! persists them — but it is the single place where read-side accounting
//! is grounded:
//!
//! * **Page accounting** asks [`pascalr_catalog::Catalog::pages_of`]: the
//!   paper's analytical [`pascalr_storage::PageModel`], the same on every
//!   backend.
//! * A future backend that pages tuples in lazily only has to change this
//!   module — the phase code above it is already backend-generic.

use pascalr_catalog::{Catalog, PermanentIndexUse};
use pascalr_relation::{ElemRef, Relation, Tuple};
use pascalr_storage::{Metrics, Phase};

use crate::error::ExecError;

/// Read access to the stored relations for one query execution, pinned to
/// one immutable catalog version.
///
/// `Copy` on purpose: the reader is a borrow, cheap to pass by value
/// through the collection-phase helpers.
#[derive(Debug, Clone, Copy)]
pub struct StorageReader<'a> {
    catalog: &'a Catalog,
}

impl<'a> StorageReader<'a> {
    /// Wraps a pinned catalog version.
    pub fn new(catalog: &'a Catalog) -> Self {
        StorageReader { catalog }
    }

    /// The underlying catalog version (for schema/type lookups that are
    /// not tuple reads).
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Resolves a relation by name, mapping the catalog's miss to the
    /// executor's [`ExecError::UnknownRelation`].
    pub fn relation(&self, name: &str) -> Result<&'a Relation, ExecError> {
        self.catalog
            .relation(name)
            .map_err(|_| ExecError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Full scan: every live element of `relation` with its reference, in
    /// storage order.
    pub fn scan(&self, relation: &'a Relation) -> impl Iterator<Item = (ElemRef, &'a Tuple)> + 'a {
        relation.iter()
    }

    /// Point read: dereferences one element reference.
    pub fn deref(&self, relation: &'a Relation, r: ElemRef) -> Result<&'a Tuple, ExecError> {
        Ok(relation.deref(r)?)
    }

    /// The maintained permanent index on exactly `relation(attributes)`,
    /// if one is declared (see [`Catalog::permanent_index`]).
    pub fn permanent_index(
        &self,
        relation: &str,
        attributes: &[&str],
    ) -> Option<PermanentIndexUse> {
        self.catalog.permanent_index(relation, attributes)
    }

    /// Records one full scan of `relation` against `metrics`, charging the
    /// tuple count and the page count of the catalog's page model.
    pub fn record_scan(
        &self,
        metrics: &Metrics,
        phase: Phase,
        relation: &str,
    ) -> Result<(), ExecError> {
        let rel = self.relation(relation)?;
        let tuples = rel.cardinality() as u64;
        let pages = self
            .catalog
            .pages_of(relation)
            .unwrap_or_else(|_| self.catalog.page_model().pages_for(tuples));
        metrics.record_scan(phase, relation, tuples, pages);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascalr_relation::Value;

    fn sample() -> Catalog {
        pascalr_workload::figure1_sample_database().unwrap()
    }

    #[test]
    fn reader_resolves_scans_and_derefs() {
        let cat = sample();
        let reader = StorageReader::new(&cat);
        let rel = reader.relation("employees").unwrap();
        let scanned: Vec<_> = reader.scan(rel).collect();
        assert_eq!(scanned.len(), rel.cardinality());
        let (r, t) = scanned[0];
        assert_eq!(reader.deref(rel, r).unwrap(), t);
        assert!(matches!(
            reader.relation("nosuch"),
            Err(ExecError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn scan_accounting_uses_the_page_model() {
        let cat = sample();
        let reader = StorageReader::new(&cat);
        let metrics = Metrics::new();
        reader
            .record_scan(&metrics, Phase::Collection, "employees")
            .unwrap();
        let modeled = cat
            .page_model()
            .pages_for(cat.relation("employees").unwrap().cardinality() as u64);
        assert_eq!(metrics.snapshot().total().pages_read, modeled);

        // Rows inserted later are charged as the model prices them: no
        // page count is frozen at an earlier state.
        let mut cat = cat;
        let template = cat
            .relation("employees")
            .unwrap()
            .tuples()
            .next()
            .unwrap()
            .clone();
        for enr in 61..=99 {
            let mut values = template.values().to_vec();
            values[0] = Value::int(enr);
            cat.insert("employees", Tuple::new(values)).unwrap();
        }
        let reader = StorageReader::new(&cat);
        let metrics = Metrics::new();
        reader
            .record_scan(&metrics, Phase::Collection, "employees")
            .unwrap();
        let grown = cat.page_model().pages_for(45);
        assert!(grown > modeled);
        assert_eq!(metrics.snapshot().total().pages_read, grown);
        assert_eq!(cat.pages_of("employees").unwrap(), grown);
    }
}
