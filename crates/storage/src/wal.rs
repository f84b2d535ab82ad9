//! Write-ahead log: CRC-framed appends with torn-tail-tolerant replay.
//!
//! Each record on disk is `[len: u32][crc32: u32][payload]`. Appends go
//! through [`WalWriter`], whose [`FsyncPolicy`] decides when the log is
//! forced to durable storage — the commit protocol is *WAL before
//! visible*: the engine appends (and, policy permitting, fsyncs) the
//! record before publishing the catalog version it describes, so every
//! acknowledged mutation is either on disk or was never observable.
//!
//! [`replay`] walks the log from the start and stops cleanly at the first
//! frame that is short, oversized, or fails its checksum. A damaged
//! *tail* is the expected signature of a crash mid-append and is simply
//! discarded (`ReplayOutcome::torn_tail`); redo recovery applies only the
//! fully framed prefix.

use pascalr_sync::{Arc, Mutex};

use crate::counters::StorageCounters;
use crate::error::StorageError;
use crate::fs::StorageFs;

/// Bytes of the per-record frame header (`len` + `crc32`).
pub const WAL_FRAME_HEADER: usize = 8;

/// Upper bound on a single WAL payload; frames claiming more are treated
/// as a torn tail, bounding what a corrupted length prefix can make the
/// replayer allocate.  [`WalWriter::append`] refuses larger payloads, so
/// every acknowledged record replays.
pub const MAX_WAL_PAYLOAD: usize = 1 << 28;

/// When the WAL forces appended records to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every logged mutation (the default): an acknowledged
    /// mutation survives any later crash.
    EveryCommit,
    /// Fsync once per `n` appends: bounded data loss (at most the last
    /// `n - 1` acknowledged mutations) for much higher ingest throughput.
    Batched(u64),
    /// Never fsync from the WAL path; durability happens only at
    /// checkpoints and file-system discretion. For tests and bulk loads.
    Never,
}

/// CRC-32 lookup table (ISO-HDLC polynomial, the `zlib` one,
/// bit-reflected), computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (ISO-HDLC polynomial, the `zlib` one), table-driven and
/// hand-rolled because the workspace vendors no checksum crate. The WAL
/// frames, the checkpoint's relation frames and `meta.bin` all use it.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8)
    })
}

/// The `[len][crc32]` header that frames `payload` in the log and in a
/// checkpoint's data file. Fails when the payload does not fit the `u32`
/// length field.
pub fn frame_header(payload: &[u8]) -> Result<[u8; WAL_FRAME_HEADER], StorageError> {
    let len = u32::try_from(payload.len()).map_err(|_| StorageError::Unsupported {
        detail: format!("a frame of {} byte(s) exceeds 4 GiB", payload.len()),
    })?;
    let mut header = [0u8; WAL_FRAME_HEADER];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(header)
}

/// Check that `bytes` is exactly one frame — header, payload, nothing
/// after — whose payload is then `bytes[WAL_FRAME_HEADER..]`. Any mismatch
/// is [`StorageError::Corrupt`] naming `what`: unlike a log tail, such a
/// frame was made durable before anything pointed at it.
pub fn verify_frame(bytes: &[u8], what: &str) -> Result<(), StorageError> {
    let Some((len, crc, payload)) = split_header(bytes) else {
        return Err(StorageError::corrupt(format!("{what}: short frame")));
    };
    if len != payload.len() {
        return Err(StorageError::corrupt(format!(
            "{what}: frame claims {len} byte(s), {} stored",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StorageError::corrupt(format!("{what}: checksum mismatch")));
    }
    Ok(())
}

/// The claimed payload length and CRC of the frame starting `bytes`, and
/// the bytes after its header; `None` when the header itself is short.
fn split_header(bytes: &[u8]) -> Option<(usize, u32, &[u8])> {
    let (&[l0, l1, l2, l3, c0, c1, c2, c3], rest) = bytes.split_first_chunk()?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    Some((len, u32::from_le_bytes([c0, c1, c2, c3]), rest))
}

/// What [`replay`] recovered from a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The fully framed payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the log consumed by those records.
    pub bytes_consumed: usize,
    /// Whether trailing bytes were discarded (crash mid-append).
    pub torn_tail: bool,
}

/// Decode every complete frame from `log`, stopping at the first torn,
/// short, oversized, or checksum-failing frame.
pub fn replay(log: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((len, crc, rest)) = split_header(&log[pos..]) {
        if len > MAX_WAL_PAYLOAD || len > rest.len() {
            break;
        }
        let payload = &rest[..len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        pos += WAL_FRAME_HEADER + len;
    }
    ReplayOutcome {
        records,
        bytes_consumed: pos,
        torn_tail: pos != log.len(),
    }
}

#[derive(Debug)]
struct WalState {
    /// Appends since the last fsync (for [`FsyncPolicy::Batched`]).
    unsynced: u64,
}

/// Appender for one WAL file. Clones share position state, so one writer
/// exists per backend; rotation (checkpointing) swaps the file name.
#[derive(Debug)]
pub struct WalWriter {
    fs: Arc<dyn StorageFs>,
    file: Mutex<String>,
    policy: FsyncPolicy,
    state: Mutex<WalState>,
    counters: StorageCounters,
}

impl WalWriter {
    /// A writer appending to `file` on `fs` under `policy`, ticking
    /// `counters` for every append/byte/fsync.
    pub fn new(
        fs: Arc<dyn StorageFs>,
        file: String,
        policy: FsyncPolicy,
        counters: StorageCounters,
    ) -> WalWriter {
        WalWriter {
            fs,
            file: Mutex::new(file),
            policy,
            state: Mutex::new(WalState { unsynced: 0 }),
            counters,
        }
    }

    /// The file currently being appended to.
    pub fn file(&self) -> String {
        self.file.lock().clone()
    }

    /// The counters this writer ticks.
    pub fn counters(&self) -> &StorageCounters {
        &self.counters
    }

    /// Point the writer at a fresh (already created) log file — the
    /// checkpoint rotation step.
    pub fn rotate_to(&self, file: String) {
        *self.file.lock() = file;
        self.state.lock().unsynced = 0;
    }

    /// Append one framed payload, fsyncing per the policy. Returns after
    /// the record is durable to the degree the policy promises.  A payload
    /// longer than [`MAX_WAL_PAYLOAD`] is refused before anything is
    /// written: replay would drop its frame as a torn tail.
    pub fn append(&self, payload: &[u8]) -> Result<(), StorageError> {
        if payload.len() > MAX_WAL_PAYLOAD {
            return Err(StorageError::Unsupported {
                detail: format!(
                    "a WAL record of {} byte(s) exceeds the {MAX_WAL_PAYLOAD}-byte limit",
                    payload.len()
                ),
            });
        }
        let mut framed = Vec::with_capacity(WAL_FRAME_HEADER + payload.len());
        framed.extend_from_slice(&frame_header(payload)?);
        framed.extend_from_slice(payload);
        let file = self.file();
        self.fs.append(&file, &framed)?;
        self.counters.wal_appends.inc();
        self.counters.wal_bytes.add(framed.len() as u64);
        let mut state = self.state.lock();
        state.unsynced += 1;
        let sync_now = match self.policy {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::Batched(n) => state.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if sync_now {
            self.fs.sync(&file)?;
            self.counters.wal_fsyncs.inc();
            state.unsynced = 0;
        }
        Ok(())
    }

    /// Force everything appended so far to durable storage regardless of
    /// policy (used at checkpoint boundaries and explicit `sync()`).
    pub fn sync(&self) -> Result<(), StorageError> {
        let file = self.file();
        let mut state = self.state.lock();
        if state.unsynced > 0 {
            self.fs.sync(&file)?;
            self.counters.wal_fsyncs.inc();
            state.unsynced = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = frame_header(payload).unwrap().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn frame_and_replay_round_trip() {
        let mut log = Vec::new();
        let payloads: Vec<&[u8]> = vec![b"one", b"", b"three"];
        for p in &payloads {
            log.extend_from_slice(&frame(p));
        }
        let out = replay(&log);
        assert_eq!(
            out.records,
            payloads.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        );
        assert!(!out.torn_tail);
        assert_eq!(out.bytes_consumed, log.len());
    }

    #[test]
    fn torn_tail_is_discarded_silently() {
        let mut log = frame(b"committed");
        let full = log.len();
        log.extend_from_slice(&frame(b"torn")[..5]); // crash mid-append
        let out = replay(&log);
        assert_eq!(out.records, vec![b"committed".to_vec()]);
        assert!(out.torn_tail);
        assert_eq!(out.bytes_consumed, full);
    }

    #[test]
    fn checksum_failure_stops_replay() {
        let mut log = frame(b"good");
        let mut bad = frame(b"flipped");
        let at = bad.len() - 1;
        bad[at] ^= 0xff;
        log.extend_from_slice(&bad);
        log.extend_from_slice(&frame(b"after")); // unreachable past damage
        let out = replay(&log);
        assert_eq!(out.records, vec![b"good".to_vec()]);
        assert!(out.torn_tail);
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        let mut log = frame(b"ok");
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 4]);
        let out = replay(&log);
        assert_eq!(out.records.len(), 1);
        assert!(out.torn_tail);
    }

    #[test]
    fn writer_policies_control_fsyncs() {
        let fs = Arc::new(MemFs::new());
        let every = WalWriter::new(
            fs.clone() as Arc<dyn StorageFs>,
            "w1".to_string(),
            FsyncPolicy::EveryCommit,
            StorageCounters::detached(),
        );
        every.append(b"a").unwrap();
        every.append(b"b").unwrap();
        assert_eq!(every.counters().wal_fsyncs.get(), 2);
        assert_eq!(every.counters().wal_appends.get(), 2);

        let batched = WalWriter::new(
            fs.clone() as Arc<dyn StorageFs>,
            "w2".to_string(),
            FsyncPolicy::Batched(3),
            StorageCounters::detached(),
        );
        for _ in 0..7 {
            batched.append(b"x").unwrap();
        }
        assert_eq!(
            batched.counters().wal_fsyncs.get(),
            2,
            "7 appends at batch 3"
        );
        batched.sync().unwrap();
        assert_eq!(batched.counters().wal_fsyncs.get(), 3);
        batched.sync().unwrap();
        assert_eq!(batched.counters().wal_fsyncs.get(), 3, "clean sync is free");

        let raw = fs.read("w1").unwrap().unwrap();
        let out = replay(&raw);
        assert_eq!(out.records, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn oversized_payload_is_refused_before_anything_is_written() {
        let fs = Arc::new(MemFs::new());
        let w = WalWriter::new(
            fs.clone() as Arc<dyn StorageFs>,
            "wal.0.log".to_string(),
            FsyncPolicy::EveryCommit,
            StorageCounters::detached(),
        );
        w.append(b"kept").unwrap();
        let before = fs.read("wal.0.log").unwrap().unwrap();
        let (appends, bytes) = (w.counters().wal_appends.get(), w.counters().wal_bytes.get());

        // Zeroed lazily and refused before the CRC, so this stays cheap.
        let oversized = vec![0u8; MAX_WAL_PAYLOAD + 1];
        assert!(matches!(
            w.append(&oversized),
            Err(StorageError::Unsupported { .. })
        ));
        let after = fs.read("wal.0.log").unwrap().unwrap();
        assert_eq!(after, before);
        assert_eq!(w.counters().wal_appends.get(), appends);
        assert_eq!(w.counters().wal_bytes.get(), bytes);
        assert_eq!(replay(&after).records, vec![b"kept".to_vec()]);
    }

    #[test]
    fn rotation_starts_a_fresh_log() {
        let fs = Arc::new(MemFs::new());
        let w = WalWriter::new(
            fs.clone() as Arc<dyn StorageFs>,
            "wal.0.log".to_string(),
            FsyncPolicy::Never,
            StorageCounters::detached(),
        );
        w.append(b"old").unwrap();
        fs.write_atomic("wal.1.log", b"").unwrap();
        w.rotate_to("wal.1.log".to_string());
        w.append(b"new").unwrap();
        let out = replay(&fs.read("wal.1.log").unwrap().unwrap());
        assert_eq!(out.records, vec![b"new".to_vec()]);
    }
}
