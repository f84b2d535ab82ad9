//! Shared durability counters for the persistent backend.
//!
//! [`StorageCounters`] bundles every counter the storage engine ticks —
//! WAL volume, recovery replays, checkpoints — as
//! `Arc<Counter>` handles. The engine's `DbObs` registers the same
//! handles in its metrics [`Registry`](pascalr_obs::Registry), so the
//! numbers surface through `render_prometheus()` / `metrics_json()`
//! without the storage crate knowing the registry exists.

use pascalr_obs::Counter;
use pascalr_sync::Arc;

/// Every counter the persistent backend ticks, shareable with a metrics
/// registry.
#[derive(Debug, Clone)]
pub struct StorageCounters {
    /// WAL records appended.
    pub wal_appends: Arc<Counter>,
    /// WAL bytes appended (frame headers included).
    pub wal_bytes: Arc<Counter>,
    /// WAL fsyncs issued.
    pub wal_fsyncs: Arc<Counter>,
    /// WAL records replayed during redo recovery on open.
    pub recovery_replays: Arc<Counter>,
    /// Checkpoints written.
    pub checkpoints: Arc<Counter>,
}

impl StorageCounters {
    /// Counters not attached to any registry (tests, standalone use).
    pub fn detached() -> StorageCounters {
        StorageCounters {
            wal_appends: Arc::new(Counter::new()),
            wal_bytes: Arc::new(Counter::new()),
            wal_fsyncs: Arc::new(Counter::new()),
            recovery_replays: Arc::new(Counter::new()),
            checkpoints: Arc::new(Counter::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counters_start_at_zero_and_tick() {
        let c = StorageCounters::detached();
        assert_eq!(c.wal_appends.get(), 0);
        c.wal_appends.inc();
        c.checkpoints.add(3);
        assert_eq!(c.wal_appends.get(), 1);
        assert_eq!(c.checkpoints.get(), 3);
    }
}
