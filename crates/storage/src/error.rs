//! Errors raised by the storage engine.

use std::fmt;

/// Errors raised by storage backends, the write-ahead log and the on-disk
/// codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying file operation failed.
    Io {
        /// Description of the failed operation.
        detail: String,
    },
    /// Stored bytes did not decode (checksum mismatch, short read, bad
    /// magic, out-of-range tag).  Torn WAL *tails* are **not** reported as
    /// corruption — redo recovery discards them silently — so this variant
    /// means a checkpoint or an already-acknowledged record is damaged.
    Corrupt {
        /// Description of the undecodable state.
        detail: String,
    },
    /// The operation is not supported by this backend.
    Unsupported {
        /// Description of the unsupported operation.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { detail } => write!(f, "storage I/O error: {detail}"),
            StorageError::Corrupt { detail } => write!(f, "corrupt storage state: {detail}"),
            StorageError::Unsupported { detail } => {
                write!(f, "unsupported storage operation: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Convenience constructor for I/O failures.
    pub fn io(context: &str, e: &std::io::Error) -> Self {
        StorageError::Io {
            detail: format!("{context}: {e}"),
        }
    }

    /// Convenience constructor for corruption reports.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_cause() {
        let e = StorageError::corrupt("bad magic");
        assert!(e.to_string().contains("bad magic"));
        let e = StorageError::Unsupported {
            detail: "a frame of 9000 byte(s)".to_string(),
        };
        assert!(e.to_string().contains("9000"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(StorageError::io("open meta.bin", &io)
            .to_string()
            .contains("meta.bin"));
    }
}
