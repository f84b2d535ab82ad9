//! The [`StorageBackend`] abstraction and its two implementations.
//!
//! A backend owns the durability of the engine: the catalog hands it
//! opaque byte payloads (WAL records on every logged mutation, one blob
//! per relation at checkpoints) and asks for them back on open. Query
//! execution never blocks on a backend — published catalog snapshots pin
//! immutable in-memory state, and the backend's job is to reconstruct
//! that state after a restart.
//!
//! - [`MemoryBackend`] is the default: no files, no logging, exactly the
//!   pre-durability engine.
//! - [`FileBackend`] is the real one: a CRC-framed WAL with redo
//!   recovery, and generation-numbered checkpoint files committed by an
//!   atomic `meta.bin` swap.
//!
//! ## On-disk layout (`FileBackend`)
//!
//! | file | contents |
//! |------|----------|
//! | `meta.bin` | commit point: magic, then one frame holding the generation, the relation directory (name → offset and length of its blob) and the catalog metadata |
//! | `data_<gen>.bin` | one frame per named relation: its whole blob, appended at checkpoint |
//! | `wal_<gen>.log` | redo log of mutations since checkpoint `<gen>` |
//!
//! Every frame is the WAL's `[len: u32][crc32: u32][payload]`, so the log
//! and the checkpoint share one framing and one checksum.
//!
//! A checkpoint writes the *next* generation's data and (empty) WAL
//! files, fsyncs them, then atomically replaces `meta.bin`. A crash
//! anywhere before that replace leaves the previous generation fully
//! intact; a crash after it leaves the new one — there is no in-between.
//! Because the data file is durable before the commit point names it,
//! recovery reads each relation with one positioned read and treats a
//! short or mismatching frame as corruption, never as a torn tail.

use std::fmt;

use pascalr_sync::{Arc, Mutex};

use crate::codec::{Dec, Enc};
use crate::counters::StorageCounters;
use crate::error::StorageError;
use crate::fs::StorageFs;
use crate::wal::{frame_header, replay, verify_frame, FsyncPolicy, WalWriter, WAL_FRAME_HEADER};

/// Magic prefix of `meta.bin` (`PRHEAP` + format version). Directories
/// written under another magic are refused as corrupt: there is no
/// migration.
const META_MAGIC: &[u8; 8] = b"PRHEAP02";

/// Everything a backend recovered on open: the checkpointed state plus
/// the redo log to replay on top of it.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    /// Opaque catalog metadata written by the last checkpoint.
    pub meta: Vec<u8>,
    /// Each named relation's blob, in checkpoint order.
    pub relations: Vec<(String, Vec<u8>)>,
    /// WAL payloads appended after the checkpoint, in append order.
    pub wal_records: Vec<Vec<u8>>,
    /// Whether a torn WAL tail was discarded during recovery.
    pub torn_tail: bool,
    /// The checkpoint generation that was opened.
    pub generation: u64,
}

/// Where and how the engine's tuples survive a restart.
///
/// Payloads are opaque to the backend: the catalog's codec decides what a
/// WAL record or a relation blob contains. The contract is ordering —
/// [`StorageBackend::log`] is called *before* the mutation it describes
/// becomes visible to readers, so every recovered log is a redo log.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Whether this backend survives a process restart.
    fn is_persistent(&self) -> bool;

    /// Append one redo record, durable to the degree the backend's fsync
    /// policy promises. Called before the mutation is published.
    fn log(&self, payload: &[u8]) -> Result<(), StorageError>;

    /// Force all acknowledged-but-buffered log records to durable
    /// storage, regardless of fsync policy.
    fn sync(&self) -> Result<(), StorageError>;

    /// Write a full checkpoint: `meta` (opaque catalog metadata) plus
    /// every relation's blob. On success the WAL is rotated empty —
    /// recovery starts from this state.
    fn checkpoint(&self, meta: &[u8], relations: &[(String, Vec<u8>)]) -> Result<(), StorageError>;

    /// Recover the last checkpoint and the redo records logged after it,
    /// or `Ok(None)` when no checkpoint exists (fresh database). Callers
    /// must write an initial checkpoint before the first [`log`] call.
    ///
    /// [`log`]: StorageBackend::log
    fn open_checkpoint(&self) -> Result<Option<CheckpointData>, StorageError>;
}

/// The default backend: everything lives in process memory and vanishes
/// with it. All durability hooks are no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {
    fn is_persistent(&self) -> bool {
        false
    }

    fn log(&self, _payload: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }

    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }

    fn checkpoint(
        &self,
        _meta: &[u8],
        _relations: &[(String, Vec<u8>)],
    ) -> Result<(), StorageError> {
        Ok(())
    }

    fn open_checkpoint(&self) -> Result<Option<CheckpointData>, StorageError> {
        Ok(None)
    }
}

/// Where one relation's frame sits in the checkpoint's data file.
#[derive(Debug)]
struct RelExtent {
    name: String,
    /// Byte offset of the frame header.
    offset: u64,
    /// Length of the blob (the frame minus its header).
    len: u64,
}

/// Tuning knobs for [`FileBackend`].
#[derive(Debug, Clone, Copy)]
pub struct HeapOptions {
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
}

impl Default for HeapOptions {
    fn default() -> HeapOptions {
        HeapOptions {
            fsync: FsyncPolicy::EveryCommit,
        }
    }
}

/// File-backed persistent backend: one CRC-framed blob per relation per
/// checkpoint generation, a WAL with redo recovery, and an atomic
/// `meta.bin` commit point.
#[derive(Debug)]
pub struct FileBackend {
    fs: Arc<dyn StorageFs>,
    wal: WalWriter,
    /// The generation `meta.bin` names; the lock also serializes
    /// checkpoints.
    generation: Mutex<u64>,
    counters: StorageCounters,
}

impl FileBackend {
    /// A backend over `fs` with the given tuning and shared counters.
    pub fn new(fs: Arc<dyn StorageFs>, options: HeapOptions, counters: StorageCounters) -> Self {
        let wal = WalWriter::new(
            Arc::clone(&fs),
            wal_file(0),
            options.fsync,
            counters.clone(),
        );
        FileBackend {
            fs,
            wal,
            generation: Mutex::new(0),
            counters,
        }
    }

    /// The counters this backend ticks.
    pub fn counters(&self) -> &StorageCounters {
        &self.counters
    }

    fn encode_meta(
        generation: u64,
        directory: &[RelExtent],
        meta: &[u8],
    ) -> Result<Vec<u8>, StorageError> {
        let mut e = Enc::new();
        e.u64(generation);
        e.usize(directory.len());
        for extent in directory {
            e.str(&extent.name);
            e.u64(extent.offset);
            e.u64(extent.len);
        }
        e.bytes(meta);
        let body = e.into_bytes();
        let mut out = Vec::with_capacity(META_MAGIC.len() + WAL_FRAME_HEADER + body.len());
        out.extend_from_slice(META_MAGIC);
        out.extend_from_slice(&frame_header(&body)?);
        out.extend_from_slice(&body);
        Ok(out)
    }

    fn decode_meta(raw: &[u8]) -> Result<(u64, Vec<RelExtent>, Vec<u8>), StorageError> {
        let Some(framed) = raw.strip_prefix(META_MAGIC) else {
            return Err(StorageError::corrupt(
                "meta.bin has no PRHEAP02 magic (an unknown or older format)",
            ));
        };
        verify_frame(framed, "meta.bin")?;
        let mut d = Dec::new(&framed[WAL_FRAME_HEADER..]);
        let generation = d.u64()?;
        let n = d.usize()?;
        let mut directory = Vec::with_capacity(n.min(d.remaining()));
        for _ in 0..n {
            directory.push(RelExtent {
                name: d.str()?.to_string(),
                offset: d.u64()?,
                len: d.u64()?,
            });
        }
        let meta = d.bytes()?.to_vec();
        d.finish()?;
        Ok((generation, directory, meta))
    }
}

fn data_file(generation: u64) -> String {
    format!("data_{generation}.bin")
}

fn wal_file(generation: u64) -> String {
    format!("wal_{generation}.log")
}

impl StorageBackend for FileBackend {
    fn is_persistent(&self) -> bool {
        true
    }

    fn log(&self, payload: &[u8]) -> Result<(), StorageError> {
        self.wal.append(payload)
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    fn checkpoint(&self, meta: &[u8], relations: &[(String, Vec<u8>)]) -> Result<(), StorageError> {
        let mut generation = self.generation.lock();
        let old_gen = *generation;
        let next_gen = old_gen + 1;
        let data = data_file(next_gen);

        // A checkpoint that crashed before its commit point may have left
        // this generation's data file behind: start it afresh.
        self.fs.remove(&data)?;
        let mut directory = Vec::with_capacity(relations.len());
        let mut offset = 0u64;
        for (name, blob) in relations {
            // Header and blob go down as two appends, so the blob is never
            // copied into a framed buffer.
            self.fs.append(&data, &frame_header(blob)?)?;
            self.fs.append(&data, blob)?;
            directory.push(RelExtent {
                name: name.clone(),
                offset,
                len: blob.len() as u64,
            });
            offset += (WAL_FRAME_HEADER + blob.len()) as u64;
        }
        self.fs.sync(&data)?;
        // A fresh empty WAL for the new generation, durable before the
        // commit point names it.
        self.fs.write_atomic(&wal_file(next_gen), b"")?;

        // Commit point: after this atomic replace, recovery sees the new
        // generation; before it, the old one — never a mixture.
        self.fs
            .write_atomic("meta.bin", &Self::encode_meta(next_gen, &directory, meta)?)?;

        *generation = next_gen;
        self.wal.rotate_to(wal_file(next_gen));
        self.counters.checkpoints.inc();

        // Best-effort cleanup of the superseded generation.
        let _ = self.fs.remove(&data_file(old_gen));
        let _ = self.fs.remove(&wal_file(old_gen));
        Ok(())
    }

    fn open_checkpoint(&self) -> Result<Option<CheckpointData>, StorageError> {
        let Some(raw_meta) = self.fs.read("meta.bin")? else {
            return Ok(None);
        };
        let (generation, directory, meta) = Self::decode_meta(&raw_meta)?;
        let data = data_file(generation);

        let mut relations = Vec::with_capacity(directory.len());
        for RelExtent { name, offset, len } in directory {
            let len = usize::try_from(len)
                .ok()
                .and_then(|len| len.checked_add(WAL_FRAME_HEADER))
                .ok_or_else(|| {
                    StorageError::corrupt(format!("relation {name}: blob length {len} too large"))
                })?;
            let mut blob = self.fs.read_at(&data, offset, len)?;
            verify_frame(&blob, &format!("{data}: relation {name}"))?;
            blob.drain(..WAL_FRAME_HEADER);
            relations.push((name, blob));
        }

        let wal_name = wal_file(generation);
        let log = self.fs.read(&wal_name)?.unwrap_or_default();
        let outcome = replay(&log);
        if outcome.torn_tail {
            // Drop the torn tail so future appends extend a valid log.
            self.fs
                .write_atomic(&wal_name, &log[..outcome.bytes_consumed])?;
        }
        self.counters
            .recovery_replays
            .add(outcome.records.len() as u64);

        *self.generation.lock() = generation;
        self.wal.rotate_to(wal_name);
        Ok(Some(CheckpointData {
            meta,
            relations,
            wal_records: outcome.records,
            torn_tail: outcome.torn_tail,
            generation,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    fn blob(prefix: &str, n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| format!("{prefix}-{i:04}{:>40}", "x").into_bytes())
            .collect()
    }

    fn heap(fs: &MemFs) -> FileBackend {
        FileBackend::new(
            Arc::new(fs.clone()) as Arc<dyn StorageFs>,
            HeapOptions::default(),
            StorageCounters::detached(),
        )
    }

    #[test]
    fn memory_backend_is_transparent() {
        let b = MemoryBackend;
        assert!(!b.is_persistent());
        b.log(b"ignored").unwrap();
        b.checkpoint(b"m", &[]).unwrap();
        assert!(b.open_checkpoint().unwrap().is_none());
    }

    #[test]
    fn checkpoint_then_reopen_round_trips() {
        let fs = MemFs::new();
        let b = heap(&fs);
        assert!(b.open_checkpoint().unwrap().is_none());
        let rels = vec![
            ("emp".to_string(), blob("emp", 300)),
            ("dept".to_string(), blob("dept", 5)),
            ("empty".to_string(), Vec::new()),
        ];
        b.checkpoint(b"catalog-meta", &rels).unwrap();
        b.log(b"op1").unwrap();
        b.log(b"op2").unwrap();

        let b2 = heap(&fs);
        let data = b2.open_checkpoint().unwrap().unwrap();
        assert_eq!(data.meta, b"catalog-meta");
        assert_eq!(data.generation, 1);
        assert!(!data.torn_tail);
        assert_eq!(data.wal_records, vec![b"op1".to_vec(), b"op2".to_vec()]);
        assert_eq!(data.relations, rels);
        assert_eq!(b2.counters().recovery_replays.get(), 2);
    }

    #[test]
    fn checkpoint_rotates_wal_and_drops_old_generation() {
        let fs = MemFs::new();
        let b = heap(&fs);
        b.checkpoint(b"g1", &[("r".to_string(), blob("r", 10))])
            .unwrap();
        b.log(b"before-ckpt").unwrap();
        b.checkpoint(b"g2", &[("r".to_string(), blob("r", 11))])
            .unwrap();
        b.log(b"after-ckpt").unwrap();

        let names = fs.list().unwrap();
        assert!(names.contains(&"data_2.bin".to_string()));
        assert!(
            !names.contains(&"data_1.bin".to_string()),
            "old gen not removed: {names:?}"
        );
        assert!(!names.contains(&"wal_1.log".to_string()));

        let b2 = heap(&fs);
        let data = b2.open_checkpoint().unwrap().unwrap();
        assert_eq!(data.generation, 2);
        assert_eq!(data.meta, b"g2");
        assert_eq!(data.wal_records, vec![b"after-ckpt".to_vec()]);
        assert_eq!(data.relations[0].1, blob("r", 11));
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let fs = MemFs::new();
        let b = heap(&fs);
        b.checkpoint(b"m", &[]).unwrap();
        b.log(b"whole").unwrap();
        b.log(b"torn-record").unwrap();
        let len = fs.len("wal_1.log").unwrap() as usize;
        fs.truncate("wal_1.log", len - 3);

        let b2 = heap(&fs);
        let data = b2.open_checkpoint().unwrap().unwrap();
        assert!(data.torn_tail);
        assert_eq!(data.wal_records, vec![b"whole".to_vec()]);
        // Appends after a torn-tail open must extend a valid log.
        b2.log(b"fresh").unwrap();
        let b3 = heap(&fs);
        let data = b3.open_checkpoint().unwrap().unwrap();
        assert!(!data.torn_tail);
        assert_eq!(data.wal_records, vec![b"whole".to_vec(), b"fresh".to_vec()]);
    }

    #[test]
    fn crash_before_meta_swap_keeps_old_generation() {
        let fs = MemFs::new();
        let b = heap(&fs);
        b.checkpoint(b"old", &[("r".to_string(), blob("r", 4))])
            .unwrap();
        b.log(b"logged-on-old").unwrap();
        // Simulate a crash mid-checkpoint: new data/wal files written but
        // meta.bin still names generation 1.
        let snap = fs.snapshot();
        b.checkpoint(b"new", &[("r".to_string(), blob("r", 9))])
            .unwrap();
        let mut crashed = snap;
        // Keep the new generation's partial files around as garbage.
        let after = fs.snapshot();
        crashed.insert("data_2.bin".to_string(), after["data_2.bin"].clone());
        crashed.insert("wal_2.log".to_string(), Vec::new());
        fs.restore(crashed);

        let b2 = heap(&fs);
        let data = b2.open_checkpoint().unwrap().unwrap();
        assert_eq!(data.generation, 1);
        assert_eq!(data.meta, b"old");
        assert_eq!(data.relations[0].1, blob("r", 4));
        assert_eq!(data.wal_records, vec![b"logged-on-old".to_vec()]);

        // The next checkpoint replaces the leftover data_2, not appends to it.
        b2.checkpoint(b"retry", &[("r".to_string(), blob("r", 6))])
            .unwrap();
        let data = heap(&fs).open_checkpoint().unwrap().unwrap();
        assert_eq!(data.generation, 2);
        assert_eq!(data.meta, b"retry");
        assert_eq!(data.relations, vec![("r".to_string(), blob("r", 6))]);
        assert_eq!(
            fs.len("data_2.bin").unwrap(),
            (WAL_FRAME_HEADER + blob("r", 6).len()) as u64
        );
    }

    #[test]
    fn corrupt_meta_is_reported_not_misread() {
        let fs = MemFs::new();
        let b = heap(&fs);
        b.checkpoint(b"m", &[]).unwrap();
        let pristine = fs.snapshot();
        fs.corrupt_byte("meta.bin", 12);
        let b2 = heap(&fs);
        assert!(matches!(
            b2.open_checkpoint(),
            Err(StorageError::Corrupt { .. })
        ));
        // A directory of the previous format is refused, not migrated.
        fs.restore(pristine);
        let mut meta = fs.read("meta.bin").unwrap().unwrap();
        meta[..8].copy_from_slice(b"PRHEAP01");
        fs.write_atomic("meta.bin", &meta).unwrap();
        assert!(matches!(
            heap(&fs).open_checkpoint(),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
