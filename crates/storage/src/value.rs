//! The dynamic value system shared by all layers of RecDB-rs.
//!
//! Values carry their own runtime type and support the total ordering the
//! sort / B-tree layers need (floats order via [`f64::total_cmp`], `Null`
//! sorts first, and cross-type comparisons fall back to a stable type rank).

use std::cmp::Ordering;
use std::fmt;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (user ids, item ids, counts).
    Int,
    /// 64-bit IEEE float (ratings, predicted scores, distances).
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// 2-D point `(x, y)` — the PostGIS-substitute geometry type.
    Point,
    /// Axis-aligned rectangle `(min_x, min_y, max_x, max_y)` — the region
    /// type used for urban-area columns in the §V case study.
    Rect,
}

impl DataType {
    /// The stable one-byte tag used by every durable format (page blocks,
    /// manifests, WAL records). Matches the tuple-encoding value tags.
    pub fn to_tag(self) -> u8 {
        match self {
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
            DataType::Bool => 4,
            DataType::Point => 5,
            DataType::Rect => 6,
        }
    }

    /// Inverse of [`DataType::to_tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<DataType> {
        Some(match tag {
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Text,
            4 => DataType::Bool,
            5 => DataType::Point,
            6 => DataType::Rect,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Text => "Text",
            DataType::Bool => "Bool",
            DataType::Point => "Point",
            DataType::Rect => "Rect",
        };
        f.write_str(s)
    }
}

/// A single dynamically-typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    /// 2-D point `(x, y)`.
    Point(f64, f64),
    /// Axis-aligned rectangle `(min_x, min_y, max_x, max_y)`.
    Rect(f64, f64, f64, f64),
}

impl Value {
    /// Runtime type of the value, or `None` for `Null` (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Point(_, _) => Some(DataType::Point),
            Value::Rect(..) => Some(DataType::Rect),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view, coercing from `Int` only.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view: `Int` widens to `f64`, `Float` passes through.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Point view.
    pub fn as_point(&self) -> Option<(f64, f64)> {
        match self {
            Value::Point(x, y) => Some((*x, *y)),
            _ => None,
        }
    }

    /// Rect view as `(min_x, min_y, max_x, max_y)`.
    pub fn as_rect(&self) -> Option<(f64, f64, f64, f64)> {
        match self {
            Value::Rect(a, b, c, d) => Some((*a, *b, *c, *d)),
            _ => None,
        }
    }

    /// Whether this value is storable in a column of type `ty`.
    ///
    /// NULL is storable anywhere; `Int` is storable in a `Float` column
    /// (implicit widening, applied at insert time by the heap).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Point(_, _), DataType::Point)
                | (Value::Rect(..), DataType::Rect)
        )
    }

    /// The borrowed view of this value: what the comparisons below run on,
    /// and what a [`crate::tuple::RowRef`] reads straight off a page.
    #[inline]
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Point(x, y) => ValueRef::Point(*x, *y),
            Value::Rect(a, b, c, d) => ValueRef::Rect(*a, *b, *c, *d),
        }
    }

    /// Total order over values ([`ValueRef::total_cmp`]). This is the
    /// ordering used by sort operators and B-tree keys.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_value_ref().total_cmp(other.as_value_ref())
    }

    /// SQL equality ([`ValueRef::sql_eq`]).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.as_value_ref().sql_eq(other.as_value_ref())
    }

    /// Approximate in-memory footprint in bytes, used by the page layer's
    /// encoder to budget tuples into 8 KiB pages.
    pub fn encoded_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => 4 + s.len(),
            Value::Bool(_) => 1,
            Value::Point(_, _) => 16,
            Value::Rect(..) => 32,
        }
    }
}

/// A borrowed, `Copy` view of one value: `Text` points into the bytes it
/// was read from (a page, or an owned [`Value`]), so comparing a stored
/// column with a constant copies nothing. The value ordering lives here;
/// [`Value`] delegates to it.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bool(bool),
    /// 2-D point `(x, y)`.
    Point(f64, f64),
    /// Axis-aligned rectangle `(min_x, min_y, max_x, max_y)`.
    Rect(f64, f64, f64, f64),
}

impl ValueRef<'_> {
    /// True if the value is SQL NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Integer view, coercing from `Int` only.
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view: `Int` widens to `f64`, `Float` passes through.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(v) => Some(v as f64),
            ValueRef::Float(v) => Some(v),
            _ => None,
        }
    }

    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Point(x, y) => Value::Point(x, y),
            ValueRef::Rect(a, b, c, d) => Value::Rect(a, b, c, d),
        }
    }

    /// Rank used to order values of different types (NULL first).
    pub(crate) fn type_rank(self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) => 2,
            ValueRef::Text(_) => 3,
            ValueRef::Point(_, _) => 4,
            ValueRef::Rect(..) => 5,
        }
    }

    /// Total order over values: numerics compare numerically across
    /// `Int`/`Float`, otherwise same-type natural order, otherwise by type
    /// rank.
    #[inline]
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Text(a), Text(b)) => a.cmp(b),
            (Point(ax, ay), Point(bx, by)) => ax.total_cmp(&bx).then_with(|| ay.total_cmp(&by)),
            (Rect(a0, a1, a2, a3), Rect(b0, b1, b2, b3)) => a0
                .total_cmp(&b0)
                .then_with(|| a1.total_cmp(&b1))
                .then_with(|| a2.total_cmp(&b2))
                .then_with(|| a3.total_cmp(&b3)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                // Int/Float cross comparison.
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => a.type_rank().cmp(&b.type_rank()),
            },
        }
    }

    /// SQL equality: NULL equals nothing (returns `None`), numerics compare
    /// across `Int`/`Float`.
    pub fn sql_eq(self, other: ValueRef<'_>) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal; hash the
            // f64 bit pattern of the widened value for both.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Point(x, y) => {
                4u8.hash(state);
                x.to_bits().hash(state);
                y.to_bits().hash(state);
            }
            Value::Rect(a, b, c, d) => {
                5u8.hash(state);
                a.to_bits().hash(state);
                b.to_bits().hash(state);
                c.to_bits().hash(state);
                d.to_bits().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Point(x, y) => write!(f, "POINT({x} {y})"),
            Value::Rect(a, b, c, d) => write!(f, "RECT({a} {b}, {c} {d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<(f64, f64)> for Value {
    fn from((x, y): (f64, f64)) -> Self {
        Value::Point(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn null_sorts_first_and_equals_nothing_in_sql() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Bool(false));
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN above +inf; the key property is non-panicking,
        // reflexive-equal ordering.
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(!Value::Text("x".into()).conforms_to(DataType::Int));
        assert!(Value::Point(1.0, 2.0).conforms_to(DataType::Point));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("hi".into()).as_text(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Point(1.0, 2.0).as_point(), Some((1.0, 2.0)));
        assert_eq!(Value::Text("hi".into()).as_f64(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Point(1.0, 2.0).to_string(), "POINT(1 2)");
        assert_eq!(Value::Text("abc".into()).to_string(), "abc");
    }

    #[test]
    fn encoded_size_tracks_payload() {
        assert_eq!(Value::Int(0).encoded_size(), 9);
        assert_eq!(Value::Text("abcd".into()).encoded_size(), 1 + 4 + 4);
        assert_eq!(Value::Null.encoded_size(), 1);
        assert_eq!(Value::Point(0.0, 0.0).encoded_size(), 17);
    }

    #[test]
    fn ordering_across_types_is_total_and_antisymmetric() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(-5),
            Value::Float(0.5),
            Value::Text("a".into()),
            Value::Point(0.0, 0.0),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
            }
        }
    }
}
