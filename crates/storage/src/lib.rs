//! `pascalr-storage`: the storage engine.
//!
//! Three layers live here:
//!
//! 1. **Backends** ([`StorageBackend`]): where tuples survive (or don't).
//!    [`MemoryBackend`] is the zero-cost default; [`FileBackend`] writes
//!    each checkpoint as one CRC-framed blob per relation, logs every
//!    mutation to a write-ahead log with the same framing, and performs
//!    redo recovery on open. The file layer beneath it ([`StorageFs`]) has
//!    a real-directory implementation ([`DiskFs`]) and an in-memory
//!    fault-injecting one ([`MemFs`]) for crash tests.
//! 2. **Costing** ([`PageModel`]): the optimizer's view of the blocking
//!    factor, a model of the paper's cost arguments on every backend —
//!    no backend stores pages.
//! 3. **Access metrics** ([`Metrics`]): per-query counts of relation
//!    reads, page accesses and comparisons, reproducing the paper's
//!    Section 4 accounting in measurable form.

#![forbid(unsafe_code)]

pub mod backend;
pub mod codec;
pub mod counters;
pub mod error;
pub mod fs;
pub mod metrics;
pub mod pages;
pub mod wal;

pub use backend::{CheckpointData, FileBackend, HeapOptions, MemoryBackend, StorageBackend};
pub use codec::{Dec, Enc};
pub use counters::StorageCounters;
pub use error::StorageError;
pub use fs::{DiskFs, MemFs, StorageFs};
pub use metrics::{Counters, Metrics, MetricsSnapshot, Phase};
pub use pages::PageModel;
pub use wal::FsyncPolicy;
