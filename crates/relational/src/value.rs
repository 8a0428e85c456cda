//! Scalar values stored in tuples.
//!
//! `Value` is the single dynamic scalar type of the substrate. It must be
//! hashable and totally ordered (tuples key hash maps and sorted output), so
//! floats are wrapped in a bit-canonicalizing newtype.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An `f64` with total equality/ordering semantics suitable for hashing.
///
/// NaNs are canonicalized to a single bit pattern and `-0.0` is normalized to
/// `+0.0`, so `Eq`/`Hash` agree with `Ord` (which uses `f64::total_cmp`).
#[derive(Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a float, canonicalizing NaN and negative zero.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            OrderedF64(f64::NAN)
        } else if v == 0.0 {
            OrderedF64(0.0)
        } else {
            OrderedF64(v)
        }
    }

    /// The underlying float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One step of the in-tree hash behind [`Value::stable_hash`].
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// A scalar value in a tuple.
///
/// Comparisons between different variants are *undefined* for predicates
/// (they evaluate to "false") but are still totally ordered for canonical
/// sorting, using the variant rank.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares equal only to itself for bag identity purposes.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with canonical NaN/zero.
    Float(OrderedF64),
    /// Shared string. `Arc<String>` is a thin pointer, which keeps
    /// `Value` at 16 bytes (an `Arc<str>` fat pointer would make it 24);
    /// the `Arc` keeps tuple clones cheap.
    Str(Arc<String>),
}

impl Value {
    /// Construct a float value.
    pub fn float(v: f64) -> Self {
        Value::Float(OrderedF64::new(v))
    }

    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(s.as_ref().to_owned()))
    }

    /// Compare two values *as a predicate would*: `None` when the variants
    /// differ (or either side is NULL), `Some(ordering)` otherwise.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Deterministic 64-bit hash, seed-free and platform-independent:
    /// shard placement and join-index buckets agree across runs. Equal
    /// values (NULL included) hash equal.
    pub(crate) fn stable_hash(&self) -> u64 {
        match self {
            Value::Null => mix(0xA1, 0),
            Value::Bool(b) => mix(0xB2, u64::from(*b)),
            Value::Int(i) => mix(0xC3, *i as u64),
            Value::Float(f) => mix(0xD4, f.get().to_bits()),
            Value::Str(s) => s.as_bytes().iter().fold(0xE5, |h, &b| mix(h, u64::from(b))),
        }
    }

    /// Approximate serialized size in bytes, used for message accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
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
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_is_canonical() {
        let a = Value::float(f64::NAN);
        let b = Value::float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(Value::float(0.0), Value::float(-0.0));
        assert_eq!(hash_of(&Value::float(0.0)), hash_of(&Value::float(-0.0)));
    }

    #[test]
    fn sql_cmp_same_type() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::float(1.5).sql_cmp(&Value::float(1.5)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_cmp_cross_type_is_none() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = vec![
            Value::str("z"),
            Value::Int(4),
            Value::Null,
            Value::float(2.0),
            Value::Bool(true),
        ];
        vals.sort();
        vals.dedup();
        assert_eq!(vals.len(), 5);
        // Null sorts first by variant rank.
        assert_eq!(vals[0], Value::Null);
    }

    #[test]
    fn size_accounting() {
        assert_eq!(Value::Int(7).size_bytes(), 8);
        assert_eq!(Value::str("abc").size_bytes(), 7);
        assert_eq!(Value::Null.size_bytes(), 1);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    /// `Value` is 16 bytes (a thin `Arc<String>` for strings), and the
    /// move from `Arc<str>` changed nothing observable: ordering, hashing,
    /// `sql_cmp`, Display/Debug and shard placement all equal the figures
    /// recorded with `Str(Arc<str>)`.
    #[test]
    fn sixteen_byte_value_keeps_string_semantics() {
        use crate::shard::ShardMap;
        use crate::tuple::Tuple;
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Tuple>(), 16);

        let strs = [
            "",
            "a",
            "B",
            "ab",
            "abc",
            "zz",
            "héllo",
            "10",
            "9",
            "tab\tq\"x",
        ];
        let vals: Vec<Value> = strs.iter().map(Value::str).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        let order = [
            "",
            "10",
            "9",
            "B",
            "a",
            "ab",
            "abc",
            "héllo",
            "tab\tq\"x",
            "zz",
        ];
        assert_eq!(sorted, order.map(Value::str));

        // The previous layout, for hash parity (std's hasher is not stable
        // across releases, so its outputs are compared, not recorded).
        #[derive(Hash)]
        #[allow(dead_code)]
        enum ArcStrValue {
            Null,
            Bool(bool),
            Int(i64),
            Float(OrderedF64),
            Str(Arc<str>),
        }
        for (v, s) in vals.iter().zip(strs) {
            assert_eq!(hash_of(v), hash_of(&ArcStrValue::Str(Arc::from(s))));
            assert_eq!(hash_of(v), hash_of(&Value::from(s.to_string())));
            assert_eq!(v.to_string(), s);
            assert_eq!(format!("{v:?}"), format!("{s:?}"));
        }
        assert_eq!(format!("{:?}", Value::str("tab\tq\"x")), r#""tab\tq\"x""#);

        // sql_cmp of every pair, row by row: `<`, `=`, `>`.
        let cmps = [
            "=<<<<<<<<<",
            ">=><<<<>><",
            "><=<<<<>><",
            ">>>=<<<>><",
            ">>>>=<<>><",
            ">>>>>=>>>>",
            ">>>>><=>><",
            "><<<<<<=<<",
            "><<<<<<>=<",
            ">>>>><>>>=",
        ];
        for (a, row) in vals.iter().zip(cmps) {
            let got: String = vals
                .iter()
                .map(|b| match a.sql_cmp(b) {
                    Some(Ordering::Less) => '<',
                    Some(Ordering::Equal) => '=',
                    Some(Ordering::Greater) => '>',
                    None => '?',
                })
                .collect();
            assert_eq!(got, row, "sql_cmp row of {a:?}");
        }

        // Shard placement under hash(4), hash(64) and range(10, 4).
        let shards = [
            (1, 37, 1),
            (0, 52, 0),
            (0, 0, 0),
            (3, 19, 3),
            (1, 29, 1),
            (3, 63, 3),
            (3, 7, 3),
            (1, 9, 1),
            (1, 45, 1),
            (2, 22, 2),
        ];
        for (v, want) in vals.iter().zip(shards) {
            let got = (
                ShardMap::hash(4).shard_of_value(v),
                ShardMap::hash(64).shard_of_value(v),
                ShardMap::range(10, 4).shard_of_value(v),
            );
            assert_eq!(got, want, "shard placement of {v:?}");
        }
    }
}
