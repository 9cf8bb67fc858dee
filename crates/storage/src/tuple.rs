//! Tuples (rows) and their binary encoding.
//!
//! The encoding is a length-prefixed sequence of tagged values:
//!
//! ```text
//! tuple  := u16 arity, value*
//! value  := u8 tag, payload
//! tag    := 0 Null | 1 Int | 2 Float | 3 Text | 4 Bool | 5 Point | 6 Rect
//! ```
//!
//! Integers and floats are little-endian; text is a `u32` length followed by
//! UTF-8 bytes. The format is what [`crate::page::Page`] stores in its slots.

use crate::error::{StorageError, StorageResult};
use crate::value::{Value, ValueRef};
use std::fmt;
use std::ops::Range;

/// A row of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at ordinal `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenate two tuples (join output row).
    pub fn join(&self, right: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Tuple { values }
    }

    /// Project a subset of values by ordinal (out-of-range ordinals are
    /// skipped, mirroring [`crate::schema::Schema::project`]).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices
                .iter()
                .filter_map(|&i| self.values.get(i).cloned())
                .collect(),
        }
    }

    /// Size of the binary encoding in bytes.
    pub fn encoded_size(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_size).sum::<usize>()
    }

    /// Append the binary encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.values.len() <= u16::MAX as usize);
        buf.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            match v {
                Value::Null => buf.push(0),
                Value::Int(x) => {
                    buf.push(1);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    buf.push(2);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Text(s) => {
                    buf.push(3);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
                Value::Bool(b) => {
                    buf.push(4);
                    buf.push(*b as u8);
                }
                Value::Point(x, y) => {
                    buf.push(5);
                    buf.extend_from_slice(&x.to_le_bytes());
                    buf.extend_from_slice(&y.to_le_bytes());
                }
                Value::Rect(a, b, c, d) => {
                    buf.push(6);
                    for v in [a, b, c, d] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decode a tuple from the front of `bytes`, returning the tuple and the
    /// number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> StorageResult<(Tuple, usize)> {
        let arity = read_arity(bytes)?;
        let mut off = 2;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            let (tag, payload) = value_span(bytes, off)?;
            values.push(read_value(tag, &bytes[payload.clone()])?.to_value());
            off = payload.end;
        }
        Ok((Tuple { values }, off))
    }
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.to_owned())
}

/// Why encoded row bytes could not be read. Two bytes wide, so a caller
/// testing every row of a page (a scan key) passes it around in registers;
/// `?` turns it into the [`StorageError::Corrupt`] that describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// Fewer than the two bytes of the arity.
    TruncatedArity,
    /// A column ordinal at or past the row's arity.
    PastArity,
    /// The row ends where a value's tag should be.
    TruncatedTag,
    /// The row ends inside a `Text` value's length prefix.
    TruncatedTextLength,
    /// A tag no value type has.
    UnknownTag(u8),
    /// The row ends inside a value's payload.
    TruncatedPayload,
    /// A `Text` payload that is not UTF-8.
    InvalidUtf8,
}

impl From<Malformed> for StorageError {
    #[cold]
    fn from(m: Malformed) -> StorageError {
        match m {
            Malformed::TruncatedArity => corrupt("truncated arity"),
            Malformed::PastArity => corrupt("column ordinal past the row's arity"),
            Malformed::TruncatedTag => corrupt("truncated tag"),
            Malformed::TruncatedTextLength => corrupt("truncated text length"),
            Malformed::UnknownTag(t) => StorageError::Corrupt(format!("unknown value tag {t}")),
            Malformed::TruncatedPayload => corrupt("truncated payload"),
            Malformed::InvalidUtf8 => corrupt("invalid utf8"),
        }
    }
}

#[inline]
fn read_arity(bytes: &[u8]) -> Result<usize, Malformed> {
    match bytes {
        [lo, hi, ..] => Ok(u16::from_le_bytes([*lo, *hi]) as usize),
        _ => Err(Malformed::TruncatedArity),
    }
}

/// The tag of the value encoded at `off` and the range of its payload,
/// checked to lie inside `bytes`: the one place that knows each tag's
/// width, so adversarial page bytes surface as `Corrupt`, never as a panic
/// or an out-of-bounds read.
#[inline]
fn value_span(bytes: &[u8], off: usize) -> Result<(u8, Range<usize>), Malformed> {
    /// Payload width by tag, for every tag but `Text`'s.
    const WIDTH: [u8; 7] = [0, 8, 8, 0, 1, 16, 32];
    let tag = *bytes.get(off).ok_or(Malformed::TruncatedTag)?;
    let start = off + 1;
    let len = if tag == 3 {
        let prefix = bytes
            .get(start..start + 4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .ok_or(Malformed::TruncatedTextLength)?;
        4 + u32::from_le_bytes(prefix) as usize
    } else {
        *WIDTH
            .get(usize::from(tag))
            .ok_or(Malformed::UnknownTag(tag))? as usize
    };
    let end = start
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or(Malformed::TruncatedPayload)?;
    Ok((tag, start..end))
}

/// Interpret a payload [`value_span`] delimited for `tag`.
#[inline]
fn read_value(tag: u8, payload: &[u8]) -> Result<ValueRef<'_>, Malformed> {
    let word = |k: usize| {
        let raw = payload[k * 8..k * 8 + 8]
            .try_into()
            .expect("value_span sized the payload");
        u64::from_le_bytes(raw)
    };
    let float = |k: usize| f64::from_bits(word(k));
    Ok(match tag {
        0 => ValueRef::Null,
        1 => ValueRef::Int(word(0) as i64),
        2 => ValueRef::Float(float(0)),
        3 => {
            let text = std::str::from_utf8(&payload[4..]).map_err(|_| Malformed::InvalidUtf8)?;
            ValueRef::Text(text)
        }
        4 => ValueRef::Bool(payload[0] != 0),
        5 => ValueRef::Point(float(0), float(1)),
        _ => ValueRef::Rect(float(0), float(1), float(2), float(3)),
    })
}

/// One encoded value of a row, as [`RowRef::field`] finds it: the value's
/// tag ([`DataType::to_tag`](crate::DataType::to_tag), 0 for NULL) and
/// its payload, already checked to be as long as the tag says. Two values
/// of one tag are equal exactly when their payloads are equal bytes.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    tag: u8,
    payload: &'a [u8],
}

impl<'a> Field<'a> {
    /// The value's tag.
    #[inline]
    pub fn tag(self) -> u8 {
        self.tag
    }

    /// The payload bytes after the tag (for `Text`, the `u32` length
    /// prefix and the bytes it counts).
    #[inline]
    pub fn payload(self) -> &'a [u8] {
        self.payload
    }

    /// The value itself. A `Text` payload is checked to be UTF-8 here.
    #[inline]
    pub fn value(self) -> Result<ValueRef<'a>, Malformed> {
        read_value(self.tag, self.payload)
    }
}

/// A borrowed view over one encoded tuple — a slot of a
/// [`crate::page::Page`] — that reads single columns in place. A scan
/// tests its predicate through this view and decodes
/// ([`RowRef::to_tuple`]) only the rows that pass.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    bytes: &'a [u8],
}

impl<'a> RowRef<'a> {
    /// View `bytes` as one encoded tuple. Nothing is validated until a
    /// column is read.
    pub fn new(bytes: &'a [u8]) -> Self {
        RowRef { bytes }
    }

    /// The encoded value at ordinal `i`, found by walking the tags before
    /// it. Every read is bounds-checked: a truncated or malformed row (and
    /// an ordinal past the row's arity) is [`Malformed`].
    #[inline]
    pub fn field(&self, i: usize) -> Result<Field<'a>, Malformed> {
        if i >= read_arity(self.bytes)? {
            return Err(Malformed::PastArity);
        }
        let mut off = 2;
        for _ in 0..i {
            off = value_span(self.bytes, off)?.1.end;
        }
        let (tag, payload) = value_span(self.bytes, off)?;
        Ok(Field {
            tag,
            payload: &self.bytes[payload],
        })
    }

    /// The value at ordinal `i` ([`RowRef::field`], then
    /// [`Field::value`]); a malformed row is `Corrupt`.
    #[inline]
    pub fn column(&self, i: usize) -> StorageResult<ValueRef<'a>> {
        Ok(self.field(i)?.value()?)
    }

    /// Decode the whole row.
    pub fn to_tuple(&self) -> StorageResult<Tuple> {
        Tuple::decode(self.bytes).map(|(tuple, _)| tuple)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![
            Value::Int(42),
            Value::Float(3.5),
            Value::Text("The Matrix".into()),
            Value::Null,
            Value::Bool(true),
            Value::Point(-93.2, 44.9),
            Value::Rect(0.0, 0.0, 10.5, 20.25),
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_size());
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, t);
    }

    #[test]
    fn decode_two_consecutive_tuples() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::Text("x".into())]);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let (da, n) = Tuple::decode(&buf).unwrap();
        let (db, m) = Tuple::decode(&buf[n..]).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn decode_rejects_truncation_at_every_prefix() {
        let t = sample();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Tuple::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes should not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_bad_utf8() {
        // arity 1, tag 9.
        let buf = vec![1, 0, 9];
        assert!(matches!(Tuple::decode(&buf), Err(StorageError::Corrupt(_))));
        // arity 1, text of length 1 with invalid UTF-8.
        let buf = vec![1, 0, 3, 1, 0, 0, 0, 0xFF];
        assert!(matches!(Tuple::decode(&buf), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn join_and_project() {
        let l = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let r = Tuple::new(vec![Value::Text("a".into())]);
        let j = l.join(&r);
        assert_eq!(j.arity(), 3);
        let p = j.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Text("a".into()), Value::Int(1)]);
    }

    #[test]
    fn display_is_parenthesized() {
        let t = Tuple::new(vec![Value::Int(1), Value::Text("x".into())]);
        assert_eq!(t.to_string(), "(1, x)");
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::default();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, 2);
    }
}
