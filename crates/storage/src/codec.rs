//! Little-endian binary encoding helpers shared by every durable format
//! (page-file manifests, WAL records, checkpoint metadata).
//!
//! Writers push onto a `Vec<u8>`; readers consume from a [`Reader`] whose
//! every accessor bounds-checks and surfaces truncation as
//! [`StorageError::Corrupt`] instead of panicking — durable bytes are
//! adversarial input by definition.

use crate::error::{StorageError, StorageResult};
use crate::schema::{Column, Schema};
use crate::value::DataType;

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length prefix followed by UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a table schema: a `u16` arity, then each column's name and
/// [`DataType::to_tag`]. The one schema encoding of the WAL's
/// `CreateTable` record and the checkpoint manifest.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u16(buf, schema.arity() as u16);
    for col in schema.columns() {
        put_str(buf, &col.name);
        put_u8(buf, col.data_type.to_tag());
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Context string baked into truncation errors (`"wal record"`,
    /// `"manifest"`, …).
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, labelling errors with `what`.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, at: 0, what }
    }

    fn corrupt(&self, need: &str) -> StorageError {
        StorageError::Corrupt(format!(
            "truncated {} at byte {}: expected {need}",
            self.what, self.at
        ))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed tail, without advancing. Pair with [`Reader::skip`]
    /// for formats that embed self-delimiting payloads (e.g. tuples).
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    /// Advance past `n` bytes previously inspected via [`Reader::rest`].
    pub fn skip(&mut self, n: usize) -> StorageResult<()> {
        self.take(n).map(|_| ())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| self.corrupt("raw bytes"))?;
        self.at += n;
        Ok(s)
    }

    /// Take a `u8`.
    pub fn take_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Take a little-endian `u16`.
    pub fn take_u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> StorageResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> StorageResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("fixed-width slice")))
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> StorageResult<String> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return Err(self.corrupt("string payload"));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StorageError::Corrupt(format!("invalid UTF-8 in {}", self.what)))
    }

    /// Take a schema written by [`put_schema`]. Relation qualifiers are not
    /// persisted: base-table columns are always unqualified.
    pub fn take_schema(&mut self) -> StorageResult<Schema> {
        let arity = self.take_u16()?;
        let mut columns = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            let name = self.take_str()?;
            let tag = self.take_u8()?;
            let ty = DataType::from_tag(tag).ok_or_else(|| {
                StorageError::Corrupt(format!("{} has unknown column type tag {tag}", self.what))
            })?;
            columns.push(Column::new(name, ty));
        }
        Ok(Schema::new(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 700);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héap");
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 700);
        assert_eq!(r.take_u32().unwrap(), 70_000);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_str().unwrap(), "héap");
        assert!(r.is_empty());
    }

    #[test]
    fn schema_roundtrips_and_rejects_unknown_tags() {
        let schema = Schema::from_pairs(&[("uid", DataType::Int), ("loc", DataType::Point)]);
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        assert_eq!(Reader::new(&buf, "test").take_schema().unwrap(), schema);
        let last = buf.len() - 1;
        buf[last] = 0xEE;
        let err = Reader::new(&buf, "manifest").take_schema().unwrap_err();
        assert_eq!(
            err.to_string(),
            StorageError::Corrupt("manifest has unknown column type tag 238".into()).to_string()
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut], "test");
            assert!(r.take_str().is_err(), "prefix {cut} must not decode");
        }
        // A length prefix pointing past the end must not allocate or panic.
        let mut bogus = Vec::new();
        put_u32(&mut bogus, u32::MAX);
        let mut r = Reader::new(&bogus, "test");
        assert!(matches!(r.take_str(), Err(StorageError::Corrupt(_))));
    }
}
