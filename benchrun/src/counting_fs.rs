//! `CountingFs`: the benchmark's view of the device.  A [`StorageFs`] over
//! [`DiskFs`] that counts and times every call the engine makes, so the
//! number and size of writes, the flushes and the recovery reads are
//! measured where they happen.

use std::sync::Mutex;
use std::time::Instant;

use pascalr::storage::StorageError;
use pascalr::{DiskFs, StorageFs};

use crate::trace::Tracer;

/// Calls and bytes since the last [`CountingFs::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    /// `append` + `write_at` + `write_atomic` calls.
    pub write_calls: u64,
    /// Bytes handed to those calls.
    pub bytes_written: u64,
    /// `append` calls alone (the WAL's path).
    pub append_calls: u64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// Time inside `append`.
    pub append_ns: u64,
    /// `sync` calls.
    pub sync_calls: u64,
    /// Time inside `sync`.
    pub sync_ns: u64,
    /// `read` + `read_at` calls.
    pub read_calls: u64,
    /// Bytes those calls returned.
    pub bytes_read: u64,
}

/// The counting wrapper.  With a [`Tracer`] every call is also a span.
#[derive(Debug)]
pub struct CountingFs {
    inner: DiskFs,
    counts: Mutex<FsCounts>,
    tracer: Option<Tracer>,
}

impl CountingFs {
    /// Wraps the directory `inner` maps.
    pub fn new(inner: DiskFs, tracer: Option<Tracer>) -> CountingFs {
        CountingFs {
            inner,
            counts: Mutex::new(FsCounts::default()),
            tracer,
        }
    }

    /// The counts since the previous call, which it resets — one call per
    /// phase boundary.
    pub fn take(&self) -> FsCounts {
        std::mem::take(&mut *self.lock())
    }

    /// Total size of the files on disk.
    pub fn bytes_on_disk(&self) -> Result<u64, StorageError> {
        let mut total = 0;
        for name in self.inner.list()? {
            total += self.inner.len(&name)?;
        }
        Ok(total)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FsCounts> {
        // Plain counters: every update leaves them valid.
        self.counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs one inner call inside a span, then books it.
    fn call<R>(
        &self,
        span: &'static str,
        bytes: u64,
        f: impl FnOnce(&DiskFs) -> R,
        book: impl FnOnce(&mut FsCounts, u64, &R),
    ) -> R {
        let id = self.tracer.as_ref().map(|t| t.enter(span, 0));
        let start = Instant::now();
        let result = f(&self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (&self.tracer, id) {
            t.exit(id, bytes);
        }
        book(&mut self.lock(), ns, &result);
        result
    }
}

impl StorageFs for CountingFs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.call(
            "storage.read",
            0,
            |fs| fs.read(name),
            |c, _, r| {
                c.read_calls += 1;
                if let Ok(Some(data)) = r {
                    c.bytes_read += data.len() as u64;
                }
            },
        )
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        self.call(
            "storage.read",
            len as u64,
            |fs| fs.read_at(name, offset, len),
            |c, _, _| {
                c.read_calls += 1;
                c.bytes_read += len as u64;
            },
        )
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.call(
            "storage.write",
            data.len() as u64,
            |fs| fs.write_at(name, offset, data),
            |c, _, _| {
                c.write_calls += 1;
                c.bytes_written += data.len() as u64;
            },
        )
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.call(
            "storage.append",
            data.len() as u64,
            |fs| fs.append(name, data),
            |c, ns, _| {
                c.write_calls += 1;
                c.bytes_written += data.len() as u64;
                c.append_calls += 1;
                c.append_bytes += data.len() as u64;
                c.append_ns += ns;
            },
        )
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.call(
            "storage.write",
            data.len() as u64,
            |fs| fs.write_atomic(name, data),
            |c, _, _| {
                c.write_calls += 1;
                c.bytes_written += data.len() as u64;
            },
        )
    }

    fn len(&self, name: &str) -> Result<u64, StorageError> {
        self.inner.len(name)
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        self.call(
            "storage.sync",
            0,
            |fs| fs.sync(name),
            |c, ns, _| {
                c.sync_calls += 1;
                c.sync_ns += ns;
            },
        )
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
}
