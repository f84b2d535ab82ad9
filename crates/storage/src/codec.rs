//! Minimal hand-rolled binary codec used by the persistent backend.
//!
//! The workspace has no serialization framework, so every persisted
//! structure is encoded by hand through these primitives. The
//! format is little-endian, length-prefixed, and deliberately boring: a
//! reopened database must decode bytes written by an older process, so
//! there is no implicit schema — every reader states exactly what it
//! expects and fails with [`StorageError::Corrupt`] otherwise.

use crate::error::StorageError;

/// Byte-buffer encoder. All integers are little-endian.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Create an empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a `usize` as a `u64` (lossless on all supported targets).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append an `Option<i64>` as a presence byte plus the value.
    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.i64(x);
            }
            None => self.bool(false),
        }
    }

    /// Append an `Option<&str>` as a presence byte plus the string.
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
            None => self.bool(false),
        }
    }
}

/// Byte-buffer decoder over a borrowed slice. Every read is bounds-checked
/// and returns [`StorageError::Corrupt`] on underflow or malformed data.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Require that the whole input was consumed (trailing garbage is a
    /// corruption signal for fixed-layout structures).
    pub fn finish(&self) -> Result<(), StorageError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(StorageError::corrupt(format!(
                "{} trailing byte(s) after decoded value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::corrupt(format!(
                "short read: wanted {n} byte(s), {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StorageError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `bool` byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, StorageError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::corrupt(format!(
                "invalid bool byte {other:#04x}"
            ))),
        }
    }

    /// Read a `usize` written by [`Enc::usize`].
    pub fn usize(&mut self) -> Result<usize, StorageError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| StorageError::corrupt(format!("usize value {v} out of range")))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(StorageError::corrupt(format!(
                "length prefix {n} exceeds {} remaining byte(s)",
                self.remaining()
            )));
        }
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StorageError> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map_err(|e| StorageError::corrupt(format!("invalid UTF-8: {e}")))
    }

    /// Read an `Option<i64>` written by [`Enc::opt_i64`].
    pub fn opt_i64(&mut self) -> Result<Option<i64>, StorageError> {
        Ok(if self.bool()? {
            Some(self.i64()?)
        } else {
            None
        })
    }

    /// Read an `Option<String>` written by [`Enc::opt_str`].
    pub fn opt_string(&mut self) -> Result<Option<String>, StorageError> {
        Ok(if self.bool()? {
            Some(self.str()?.to_string())
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(65535);
        e.u32(123_456);
        e.u64(u64::MAX);
        e.i64(-42);
        e.bool(true);
        e.usize(99);
        e.bytes(b"raw");
        e.str("héllo");
        e.opt_i64(Some(-1));
        e.opt_i64(None);
        e.opt_str(Some("x"));
        e.opt_str(None);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().ok(), Some(7));
        assert_eq!(d.u16().ok(), Some(65535));
        assert_eq!(d.u32().ok(), Some(123_456));
        assert_eq!(d.u64().ok(), Some(u64::MAX));
        assert_eq!(d.i64().ok(), Some(-42));
        assert_eq!(d.bool().ok(), Some(true));
        assert_eq!(d.usize().ok(), Some(99));
        assert_eq!(d.bytes().ok(), Some(&b"raw"[..]));
        assert_eq!(d.str().ok(), Some("héllo"));
        assert_eq!(d.opt_i64().ok(), Some(Some(-1)));
        assert_eq!(d.opt_i64().ok(), Some(None));
        assert_eq!(d.opt_string().ok(), Some(Some("x".to_string())));
        assert_eq!(d.opt_string().ok(), Some(None));
        assert!(d.finish().is_ok());
    }

    #[test]
    fn short_reads_are_corruption_not_panics() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u64().is_err());
        // A huge length prefix must not cause a huge allocation or panic.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_are_corruption() {
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.bool(), Err(StorageError::Corrupt { .. })));
        let mut e = Enc::new();
        e.bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.str(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut d = Dec::new(&[1, 2, 3]);
        let _ = d.u8();
        assert!(d.finish().is_err());
    }
}
