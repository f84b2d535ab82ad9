//! Access metrics: the quantities the paper's cost arguments are stated in.
//!
//! The paper argues about (a) how often each database relation is read,
//! (b) how large the intermediate reference structures get, and (c) how much
//! combinatorial work the combination phase performs.  The executor reports
//! all of these through a [`Metrics`] handle that is cheap to clone and
//! thread-safe, so that benches can attribute work to the three phases of
//! the evaluation procedure (collection, combination, construction).
//!
//! # Atomic ordering policy
//!
//! Every atomic access in this module is `Ordering::Relaxed`, deliberately:
//!
//! * The atomics are **pure statistics accumulators**.  Nothing is
//!   published *through* them: no thread reads a counter to decide whether
//!   another thread's writes to unrelated memory are visible, so none of
//!   the acquire/release edges that stronger orderings buy would ever be
//!   relied upon.  Relaxed still guarantees per-counter atomicity and
//!   modification-order consistency, which is exactly the contract a
//!   `fetch_add` tally needs.
//! * Cross-counter exactness is provided by *join/scope edges, not
//!   orderings*: callers that assert on totals (tests, benches, the
//!   oracle) read a [`MetricsSnapshot`] after joining the worker threads,
//!   and thread join is already a happens-before edge for every Relaxed
//!   write the worker made.  A snapshot taken concurrently with live
//!   recorders is documented as a monotone point-in-time sample
//!   ([`Metrics::snapshot`]), so it needs no seq-cst totality either.
//! * [`Metrics::reset`] is likewise Relaxed and documented as requiring
//!   quiescence: resetting while recorders are live zeroes each counter
//!   atomically but not the set of counters as a unit — the same unit of
//!   consistency every multi-counter operation here has.
//!
//! Policy for future changes: a counter that stays a statistic may be
//! added as Relaxed with no further comment, but any atomic whose value is
//! *read to make a cross-thread decision* (a stop flag, an epoch gate, a
//! once-guard) must use acquire/release (or stronger) and carry a comment
//! naming the write it synchronizes with.  The loom model suite
//! (`RUSTFLAGS="--cfg loom" cargo test`) is the place to prove such an
//! addition right: under `--cfg loom` these atomics compile to the
//! vendored model checker's and every access becomes an explored
//! schedulable point.

use pascalr_sync::atomic::{AtomicU64, Ordering};
use pascalr_sync::Arc;
use std::collections::BTreeMap;

use pascalr_sync::Mutex;

/// The phase of the evaluation procedure a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Collection phase: range expressions and single join terms.
    Collection,
    /// Combination phase: conjunctions, disjunction, quantifiers.
    Combination,
    /// Construction phase: dereference and component projection.
    Construction,
    /// Work outside the three phases (normalization, planning, loading).
    Other,
}

impl Phase {
    /// All phases in reporting order.
    pub const ALL: [Phase; 4] = [
        Phase::Collection,
        Phase::Combination,
        Phase::Construction,
        Phase::Other,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Collection => 0,
            Phase::Combination => 1,
            Phase::Construction => 2,
            Phase::Other => 3,
        }
    }

    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Collection => "collection",
            Phase::Combination => "combination",
            Phase::Construction => "construction",
            Phase::Other => "other",
        }
    }
}

/// Plain-old-data snapshot of one phase's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Number of full relation scans (`FOR EACH r IN rel` loops over a
    /// database relation).
    pub relation_scans: u64,
    /// Number of elements read from database relations.
    pub tuples_read: u64,
    /// Number of simulated pages read from database relations.
    pub pages_read: u64,
    /// Number of indexes built.
    pub index_builds: u64,
    /// Number of index probes.
    pub index_probes: u64,
    /// Number of tuples materialized into intermediate structures (single
    /// lists, indirect joins, reference relations, value lists).
    pub intermediate_tuples: u64,
    /// Number of join-term / value comparisons evaluated.
    pub comparisons: u64,
    /// Number of reference dereferences (construction phase work).
    pub dereferences: u64,
}

impl Counters {
    /// Component-wise sum.
    pub fn add(&self, other: &Counters) -> Counters {
        Counters {
            relation_scans: self.relation_scans + other.relation_scans,
            tuples_read: self.tuples_read + other.tuples_read,
            pages_read: self.pages_read + other.pages_read,
            index_builds: self.index_builds + other.index_builds,
            index_probes: self.index_probes + other.index_probes,
            intermediate_tuples: self.intermediate_tuples + other.intermediate_tuples,
            comparisons: self.comparisons + other.comparisons,
            dereferences: self.dereferences + other.dereferences,
        }
    }

    /// Component-wise saturating difference (`self - other`).
    pub fn saturating_sub(&self, other: &Counters) -> Counters {
        Counters {
            relation_scans: self.relation_scans.saturating_sub(other.relation_scans),
            tuples_read: self.tuples_read.saturating_sub(other.tuples_read),
            pages_read: self.pages_read.saturating_sub(other.pages_read),
            index_builds: self.index_builds.saturating_sub(other.index_builds),
            index_probes: self.index_probes.saturating_sub(other.index_probes),
            intermediate_tuples: self
                .intermediate_tuples
                .saturating_sub(other.intermediate_tuples),
            comparisons: self.comparisons.saturating_sub(other.comparisons),
            dereferences: self.dereferences.saturating_sub(other.dereferences),
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

#[derive(Default)]
struct PhaseCells {
    relation_scans: AtomicU64,
    tuples_read: AtomicU64,
    pages_read: AtomicU64,
    index_builds: AtomicU64,
    index_probes: AtomicU64,
    intermediate_tuples: AtomicU64,
    comparisons: AtomicU64,
    dereferences: AtomicU64,
}

impl PhaseCells {
    fn snapshot(&self) -> Counters {
        Counters {
            relation_scans: self.relation_scans.load(Ordering::Relaxed),
            tuples_read: self.tuples_read.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            intermediate_tuples: self.intermediate_tuples.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            dereferences: self.dereferences.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
struct MetricsInner {
    phases: [PhaseCells; 4],
    /// Scan counts per database relation (the paper's "each relation is read
    /// no more than once" claim, Experiment E6).
    relation_scan_counts: Mutex<BTreeMap<String, u64>>,
    /// Final sizes of named intermediate structures (Figure 2 / E2).
    structure_sizes: Mutex<BTreeMap<String, u64>>,
}

/// Thread-safe, cheaply clonable metrics handle.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("snapshot", &self.snapshot().total())
            .finish()
    }
}

impl Metrics {
    /// Creates a fresh metrics handle with all counters at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn cells(&self, phase: Phase) -> &PhaseCells {
        &self.inner.phases[phase.index()]
    }

    /// Records a full scan of a named database relation reading
    /// `tuples` elements spread over `pages` pages.
    pub fn record_scan(&self, phase: Phase, relation: &str, tuples: u64, pages: u64) {
        let c = self.cells(phase);
        c.relation_scans.fetch_add(1, Ordering::Relaxed);
        c.tuples_read.fetch_add(tuples, Ordering::Relaxed);
        c.pages_read.fetch_add(pages, Ordering::Relaxed);
        let mut map = self.inner.relation_scan_counts.lock();
        *map.entry(relation.to_string()).or_insert(0) += 1;
    }

    /// Records additional element reads outside a full scan (e.g. point
    /// lookups through a selected variable).
    pub fn record_tuple_reads(&self, phase: Phase, tuples: u64, pages: u64) {
        let c = self.cells(phase);
        c.tuples_read.fetch_add(tuples, Ordering::Relaxed);
        c.pages_read.fetch_add(pages, Ordering::Relaxed);
    }

    /// Records construction of an index.
    pub fn record_index_build(&self, phase: Phase) {
        self.cells(phase)
            .index_builds
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` index probes.
    pub fn record_index_probes(&self, phase: Phase, n: u64) {
        self.cells(phase)
            .index_probes
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` tuples materialized into intermediate structures.
    pub fn record_intermediate(&self, phase: Phase, n: u64) {
        self.cells(phase)
            .intermediate_tuples
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` comparisons.
    pub fn record_comparisons(&self, phase: Phase, n: u64) {
        self.cells(phase)
            .comparisons
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` dereferences.
    pub fn record_dereferences(&self, phase: Phase, n: u64) {
        self.cells(phase)
            .dereferences
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records (or overwrites) the final size of a named intermediate
    /// structure, e.g. `sl_csoph` or `ij_c_t`.
    pub fn record_structure_size(&self, name: &str, size: u64) {
        self.inner
            .structure_sizes
            .lock()
            .insert(name.to_string(), size);
    }

    /// Takes a point-in-time copy of every counter.
    ///
    /// Each counter is read atomically and every counter is monotone, but
    /// the snapshot is not a cross-counter atomic cut: a snapshot taken
    /// while recorders are live may see counter A from before an event and
    /// counter B from after it.  Callers that assert exact cross-counter
    /// totals (tests, benches, the oracle) take the snapshot after joining
    /// the recording threads, which makes it exact — see the module-level
    /// atomic ordering policy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut per_phase = BTreeMap::new();
        for phase in Phase::ALL {
            per_phase.insert(phase.name().to_string(), self.cells(phase).snapshot());
        }
        MetricsSnapshot {
            per_phase,
            relation_scan_counts: self.inner.relation_scan_counts.lock().clone(),
            structure_sizes: self.inner.structure_sizes.lock().clone(),
        }
    }

    /// Resets every counter to zero.
    ///
    /// Intended for quiescent handles (between bench iterations, between
    /// oracle runs).  Resetting while recorders are live zeroes each
    /// counter atomically but races with in-flight increments — some may
    /// land before the reset, some after.
    pub fn reset(&self) {
        for phase in Phase::ALL {
            let c = self.cells(phase);
            c.relation_scans.store(0, Ordering::Relaxed);
            c.tuples_read.store(0, Ordering::Relaxed);
            c.pages_read.store(0, Ordering::Relaxed);
            c.index_builds.store(0, Ordering::Relaxed);
            c.index_probes.store(0, Ordering::Relaxed);
            c.intermediate_tuples.store(0, Ordering::Relaxed);
            c.comparisons.store(0, Ordering::Relaxed);
            c.dereferences.store(0, Ordering::Relaxed);
        }
        self.inner.relation_scan_counts.lock().clear();
        self.inner.structure_sizes.lock().clear();
    }
}

/// A point-in-time copy of all metrics, for reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters per phase, keyed by phase name.
    pub per_phase: BTreeMap<String, Counters>,
    /// Number of scans per database relation.
    pub relation_scan_counts: BTreeMap<String, u64>,
    /// Final sizes of named intermediate structures.
    pub structure_sizes: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Sum of the counters over all phases.
    pub fn total(&self) -> Counters {
        self.per_phase
            .values()
            .fold(Counters::default(), |acc, c| acc.add(c))
    }

    /// Counters for one phase.
    pub fn phase(&self, phase: Phase) -> Counters {
        self.per_phase
            .get(phase.name())
            .copied()
            .unwrap_or_default()
    }

    /// Number of scans recorded against a relation.
    pub fn scans_of(&self, relation: &str) -> u64 {
        self.relation_scan_counts
            .get(relation)
            .copied()
            .unwrap_or(0)
    }

    /// The maximum number of scans any single relation received — the
    /// paper's Strategy 1 claim is that this is 1.
    pub fn max_scans_per_relation(&self) -> u64 {
        self.relation_scan_counts
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Size of a named intermediate structure (0 if not recorded).
    pub fn structure_size(&self, name: &str) -> u64 {
        self.structure_sizes.get(name).copied().unwrap_or(0)
    }

    /// Sum of all recorded intermediate structure sizes.
    pub fn total_structure_size(&self) -> u64 {
        self.structure_sizes.values().sum()
    }

    /// Renders a compact multi-line report (used by examples and benches).
    /// Streams every line into one output `String` — no intermediate
    /// per-line allocations.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total();
        let _ = writeln!(
            out,
            "scans={} tuples_read={} pages_read={} index_builds={} index_probes={} intermediate={} comparisons={} derefs={}",
            total.relation_scans,
            total.tuples_read,
            total.pages_read,
            total.index_builds,
            total.index_probes,
            total.intermediate_tuples,
            total.comparisons,
            total.dereferences,
        );
        for phase in Phase::ALL {
            let c = self.phase(phase);
            if !c.is_zero() {
                let _ = writeln!(
                    out,
                    "  [{}] scans={} tuples={} pages={} index_probes={} intermediate={} comparisons={}",
                    phase.name(),
                    c.relation_scans,
                    c.tuples_read,
                    c.pages_read,
                    c.index_probes,
                    c.intermediate_tuples,
                    c.comparisons
                );
            }
        }
        if !self.relation_scan_counts.is_empty() {
            out.push_str("  scans per relation: ");
            for (index, (k, v)) in self.relation_scan_counts.iter().enumerate() {
                if index > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push('\n');
        }
        if !self.structure_sizes.is_empty() {
            out.push_str("  intermediate structures: ");
            for (index, (k, v)) in self.structure_sizes.iter().enumerate() {
                if index > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_phase() {
        let m = Metrics::new();
        m.record_scan(Phase::Collection, "employees", 100, 4);
        m.record_scan(Phase::Collection, "papers", 50, 2);
        m.record_scan(Phase::Combination, "employees", 100, 4);
        m.record_intermediate(Phase::Collection, 30);
        m.record_comparisons(Phase::Combination, 500);
        m.record_dereferences(Phase::Construction, 7);
        m.record_index_build(Phase::Collection);
        m.record_index_probes(Phase::Collection, 12);
        m.record_tuple_reads(Phase::Construction, 3, 1);

        let s = m.snapshot();
        assert_eq!(s.phase(Phase::Collection).relation_scans, 2);
        assert_eq!(s.phase(Phase::Collection).tuples_read, 150);
        assert_eq!(s.phase(Phase::Combination).comparisons, 500);
        assert_eq!(s.phase(Phase::Construction).dereferences, 7);
        assert_eq!(s.total().relation_scans, 3);
        assert_eq!(s.total().tuples_read, 253);
        assert_eq!(s.scans_of("employees"), 2);
        assert_eq!(s.scans_of("papers"), 1);
        assert_eq!(s.scans_of("courses"), 0);
        assert_eq!(s.max_scans_per_relation(), 2);
    }

    #[test]
    fn structure_sizes_are_recorded_and_summed() {
        let m = Metrics::new();
        m.record_structure_size("sl_csoph", 10);
        m.record_structure_size("ij_c_t", 25);
        m.record_structure_size("sl_csoph", 12); // overwrite
        let s = m.snapshot();
        assert_eq!(s.structure_size("sl_csoph"), 12);
        assert_eq!(s.structure_size("ij_c_t"), 25);
        assert_eq!(s.structure_size("missing"), 0);
        assert_eq!(s.total_structure_size(), 37);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record_scan(Phase::Collection, "r", 10, 1);
        m.record_structure_size("x", 5);
        m.reset();
        let s = m.snapshot();
        assert!(s.total().is_zero());
        assert!(s.relation_scan_counts.is_empty());
        assert!(s.structure_sizes.is_empty());
    }

    #[test]
    fn counters_arithmetic() {
        let a = Counters {
            relation_scans: 2,
            tuples_read: 10,
            ..Default::default()
        };
        let b = Counters {
            relation_scans: 1,
            tuples_read: 3,
            comparisons: 7,
            ..Default::default()
        };
        let sum = a.add(&b);
        assert_eq!(sum.relation_scans, 3);
        assert_eq!(sum.tuples_read, 13);
        assert_eq!(sum.comparisons, 7);
        let diff = sum.saturating_sub(&a);
        assert_eq!(diff, b);
        let under = b.saturating_sub(&sum);
        assert_eq!(under.relation_scans, 0);
    }

    #[test]
    fn clones_share_the_same_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record_comparisons(Phase::Other, 9);
        assert_eq!(m.snapshot().phase(Phase::Other).comparisons, 9);
    }

    #[test]
    fn render_mentions_phases_and_structures() {
        let m = Metrics::new();
        m.record_scan(Phase::Collection, "courses", 5, 1);
        m.record_structure_size("sl_csoph", 2);
        let text = m.snapshot().render();
        assert!(text.contains("[collection]"));
        assert!(
            text.contains("pages=1") && text.contains("index_probes=0"),
            "per-phase lines carry page and index-probe counts: {text}"
        );
        assert!(text.contains("courses=1"));
        assert!(text.contains("sl_csoph=2"));
    }

    #[test]
    fn metrics_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
    }
}
