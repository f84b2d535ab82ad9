//! The file layer beneath the persistent backend.
//!
//! [`StorageFs`] is a tiny flat-namespace file abstraction: named byte
//! files with append, positional read/write, atomic whole-file replace,
//! and explicit durability points ([`StorageFs::sync`]). Two
//! implementations ship with the crate:
//!
//! - [`DiskFs`] maps files onto a directory via `std::fs`. This module is
//!   the **only** place in the workspace allowed to touch `std::fs` (a
//!   `repo_lints` gate enforces it), so every durability decision — the
//!   write-temp-then-rename commit point, when `fsync` actually happens —
//!   is auditable in one file.
//! - [`MemFs`] keeps files in memory and adds fault-injection hooks
//!   ([`MemFs::snapshot`] / [`MemFs::restore`] / [`MemFs::truncate`]) so
//!   crash-recovery tests can stop a "process" at an arbitrary WAL byte
//!   without spawning processes or touching the real disk.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use pascalr_sync::{Arc, Mutex};

use crate::error::StorageError;

/// A flat namespace of named byte files with explicit durability points.
///
/// All methods take `&self`; implementations synchronize internally. File
/// names are backend-chosen identifiers (`meta.bin`, `wal.3.log`, …), not
/// user input, and never contain path separators.
pub trait StorageFs: Send + Sync + fmt::Debug {
    /// Read the entire file, or `Ok(None)` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Read exactly `len` bytes at `offset`. Reading past the end of the
    /// file is corruption (the caller's directory said the bytes exist).
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError>;

    /// Overwrite the byte range at `offset`, extending the file
    /// (zero-filled) if it ends before `offset`. Creates the file if
    /// missing. Not durable until [`StorageFs::sync`].
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Append bytes to the end of the file, creating it if missing.
    /// Not durable until [`StorageFs::sync`].
    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Atomically replace the file's contents and make them durable: after
    /// this returns, a crash observes either the old contents or the new,
    /// never a mixture. This is the commit point for checkpoints.
    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Current length of the file in bytes (0 if it does not exist).
    fn len(&self, name: &str) -> Result<u64, StorageError>;

    /// Force previously written bytes of this file to durable storage.
    fn sync(&self, name: &str) -> Result<(), StorageError>;

    /// Remove the file if it exists.
    fn remove(&self, name: &str) -> Result<(), StorageError>;

    /// Names of all existing files, sorted.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

/// [`StorageFs`] over a real directory.
///
/// Files are opened per call — the backend above writes a checkpoint as a
/// few large appends, reads it back with one positioned read per relation
/// and logs with one append per record, so the simplicity is worth more
/// than a descriptor cache. [`StorageFs::write_atomic`] writes `<name>.tmp`,
/// fsyncs it, renames over `<name>`, then fsyncs the directory so the
/// rename itself is durable.
#[derive(Debug)]
pub struct DiskFs {
    root: PathBuf,
}

impl DiskFs {
    /// Open (creating if needed) the directory that holds the database
    /// files.
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskFs, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StorageError::io(&format!("create {}", root.display()), &e))?;
        Ok(DiskFs { root })
    }

    /// The directory the database files live in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        // Durability of creates/renames requires fsyncing the directory
        // entry, not just the file contents.
        let dir = std::fs::File::open(&self.root)
            .map_err(|e| StorageError::io(&format!("open dir {}", self.root.display()), &e))?;
        dir.sync_all()
            .map_err(|e| StorageError::io(&format!("fsync dir {}", self.root.display()), &e))
    }
}

impl StorageFs for DiskFs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError::io(&format!("read {name}"), &e)),
        }
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let mut file = std::fs::File::open(self.path(name))
            .map_err(|e| StorageError::io(&format!("open {name}"), &e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StorageError::io(&format!("seek {name}@{offset}"), &e))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf).map_err(|e| {
            StorageError::corrupt(format!(
                "short read of {len} byte(s) at {name}@{offset}: {e}"
            ))
        })?;
        Ok(buf)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(name))
            .map_err(|e| StorageError::io(&format!("open {name} for write"), &e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StorageError::io(&format!("seek {name}@{offset}"), &e))?;
        file.write_all(data)
            .map_err(|e| StorageError::io(&format!("write {name}@{offset}"), &e))
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))
            .map_err(|e| StorageError::io(&format!("open {name} for append"), &e))?;
        file.write_all(data)
            .map_err(|e| StorageError::io(&format!("append {name}"), &e))
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| StorageError::io(&format!("create {name}.tmp"), &e))?;
        file.write_all(data)
            .map_err(|e| StorageError::io(&format!("write {name}.tmp"), &e))?;
        file.sync_all()
            .map_err(|e| StorageError::io(&format!("fsync {name}.tmp"), &e))?;
        drop(file);
        std::fs::rename(&tmp, self.path(name))
            .map_err(|e| StorageError::io(&format!("rename {name}.tmp -> {name}"), &e))?;
        self.sync_dir()
    }

    fn len(&self, name: &str) -> Result<u64, StorageError> {
        match std::fs::metadata(self.path(name)) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(StorageError::io(&format!("stat {name}"), &e)),
        }
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::File::open(self.path(name)) {
            Ok(file) => file
                .sync_all()
                .map_err(|e| StorageError::io(&format!("fsync {name}"), &e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::io(&format!("open {name} for fsync"), &e)),
        }
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::io(&format!("remove {name}"), &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| StorageError::io(&format!("list {}", self.root.display()), &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| StorageError::io(&format!("list {}", self.root.display()), &e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

/// In-memory [`StorageFs`] with fault-injection hooks for crash tests.
///
/// Cloning the handle shares the underlying files (like two descriptors on
/// one filesystem). [`MemFs::snapshot`] captures the current "on-disk"
/// state and [`MemFs::restore`] rewinds to it, which models a crash that
/// loses everything written since; [`MemFs::truncate`] cuts a file to a
/// prefix, which models a torn append.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemFs {
    /// Create an empty in-memory filesystem.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Capture the full current state for a later [`MemFs::restore`].
    pub fn snapshot(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().clone()
    }

    /// Replace the state with a snapshot, discarding all writes since.
    pub fn restore(&self, snapshot: BTreeMap<String, Vec<u8>>) {
        *self.files.lock() = snapshot;
    }

    /// Cut `name` down to its first `len` bytes (no-op if already
    /// shorter or missing) — a torn tail on a partially flushed append.
    pub fn truncate(&self, name: &str, len: usize) {
        if let Some(data) = self.files.lock().get_mut(name) {
            data.truncate(len);
        }
    }

    /// Flip byte `offset` of `name` (no-op when out of range) — models a
    /// corrupted sector under an already-written record.
    pub fn corrupt_byte(&self, name: &str, offset: usize) {
        if let Some(byte) = self
            .files
            .lock()
            .get_mut(name)
            .and_then(|data| data.get_mut(offset))
        {
            *byte ^= 0xff;
        }
    }
}

impl StorageFs for MemFs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.files.lock().get(name).cloned())
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let files = self.files.lock();
        let data = files
            .get(name)
            .ok_or_else(|| StorageError::corrupt(format!("read_at on missing file {name}")))?;
        let start = usize::try_from(offset)
            .map_err(|_| StorageError::corrupt(format!("offset {offset} out of range")))?;
        let end = start.checked_add(len).filter(|&end| end <= data.len());
        match end {
            Some(end) => Ok(data[start..end].to_vec()),
            None => Err(StorageError::corrupt(format!(
                "short read of {len} byte(s) at {name}@{offset} (file is {} byte(s))",
                data.len()
            ))),
        }
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let mut files = self.files.lock();
        let file = files.entry(name.to_string()).or_default();
        let start = usize::try_from(offset)
            .map_err(|_| StorageError::corrupt(format!("offset {offset} out of range")))?;
        let end = start.saturating_add(data.len());
        if file.len() < end {
            file.resize(end, 0);
        }
        file[start..end].copy_from_slice(data);
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.files
            .lock()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.files.lock().insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn len(&self, name: &str) -> Result<u64, StorageError> {
        Ok(self.files.lock().get(name).map_or(0, |d| d.len() as u64))
    }

    fn sync(&self, _name: &str) -> Result<(), StorageError> {
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.files.lock().remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.files.lock().keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(fs: &dyn StorageFs) {
        assert_eq!(fs.read("a").unwrap(), None);
        assert_eq!(fs.len("a").unwrap(), 0);
        fs.append("a", b"hel").unwrap();
        fs.append("a", b"lo").unwrap();
        assert_eq!(fs.read("a").unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(fs.len("a").unwrap(), 5);
        assert_eq!(fs.read_at("a", 1, 3).unwrap(), b"ell");
        assert!(fs.read_at("a", 3, 3).is_err(), "read past EOF is an error");
        fs.write_at("a", 4, b"p!").unwrap();
        assert_eq!(fs.read("a").unwrap().as_deref(), Some(&b"hellp!"[..]));
        fs.write_at("b", 2, b"xy").unwrap();
        assert_eq!(fs.read("b").unwrap().as_deref(), Some(&b"\0\0xy"[..]));
        fs.write_atomic("a", b"replaced").unwrap();
        assert_eq!(fs.read("a").unwrap().as_deref(), Some(&b"replaced"[..]));
        fs.sync("a").unwrap();
        let names = fs.list().unwrap();
        assert!(names.contains(&"a".to_string()) && names.contains(&"b".to_string()));
        fs.remove("b").unwrap();
        fs.remove("b").unwrap(); // idempotent
        assert_eq!(fs.read("b").unwrap(), None);
    }

    #[test]
    fn mem_fs_contract() {
        exercise(&MemFs::new());
    }

    #[test]
    fn disk_fs_contract() {
        let dir = std::env::temp_dir().join(format!("pascalr-diskfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = DiskFs::open(&dir).unwrap();
        exercise(&fs);
        // write_atomic must not leave the temp file behind.
        assert!(!fs.list().unwrap().iter().any(|n| n.ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_fs_fault_injection() {
        let fs = MemFs::new();
        fs.append("wal", b"0123456789").unwrap();
        let snap = fs.snapshot();
        fs.append("wal", b"abcdef").unwrap();
        fs.truncate("wal", 12);
        assert_eq!(
            fs.read("wal").unwrap().as_deref(),
            Some(&b"0123456789ab"[..])
        );
        fs.corrupt_byte("wal", 0);
        assert_ne!(fs.read("wal").unwrap().unwrap()[0], b'0');
        fs.restore(snap);
        assert_eq!(fs.read("wal").unwrap().as_deref(), Some(&b"0123456789"[..]));
    }

    #[test]
    fn mem_fs_clones_share_state() {
        let a = MemFs::new();
        let b = a.clone();
        a.append("f", b"x").unwrap();
        assert_eq!(b.read("f").unwrap().as_deref(), Some(&b"x"[..]));
    }
}
