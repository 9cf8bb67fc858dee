//! Ordered secondary indexes, on the paged B+-tree.
//!
//! A [`BTreeIndex`] keeps one key per row in a [`BTree`] that pages
//! through its table's buffer pool, beside the table's heap. Each
//! 24-byte key is
//!
//! ```text
//! 0       type rank of the leading key column's value (NULL first)
//! 1..18   a prefix of that value (below)
//! 18..24  the row's rid: page (u32) and slot (u16), big-endian
//! ```
//!
//! A number's prefix starts with the total-order bits of `as_f64`, so `1`
//! and `1.0` share a *bucket* of 8 bytes, as [`Value::total_cmp`] equates
//! them; a `Float` ends there, an `Int` adds a `1` byte and its exact
//! [`enc_i64`], so integers past 2⁵³ that share a bucket keep distinct
//! keys. A `Text` of up to 17 bytes is its bytes zero-padded; a longer one
//! keeps its first 9 bytes and a 64-bit hash of the whole text. A `Point`
//! holds both coordinates, a `Rect` its first two, a `Bool` one byte and
//! NULL nothing. Keys order values as [`Value::total_cmp`] does, texts by
//! their first 9 bytes. Only rectangles and hash collisions can share a
//! key with values they differ from, so [`BTreeIndex::lookup`] fetches the
//! row of every key it walks and keeps those that equal the probe. No
//! caller sees the lossy key.
//!
//! Nothing checkpoints index pages: recovery rebuilds every index from
//! the manifest's definition and the recovered heap.

use crate::btree::{
    enc_f64_asc, enc_i64, successor, BTree, Key, RangeCursor, DEFAULT_NODE_CAPACITY, KEY_SIZE,
};
use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapTable, Rid};
use crate::pool::BufferPool;
use crate::tuple::Tuple;
use crate::value::{Value, ValueRef};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

/// Bytes of the leading key column's value a key holds.
const PREFIX: usize = 17;

/// Where a key's rid starts: after the rank byte and the prefix.
const RID_AT: usize = 1 + PREFIX;

/// A number's rank byte and bucket: every key that shares them equals a
/// `Float` probe of those bits.
const BUCKET: usize = 1 + 8;

/// The leading bytes a text longer than [`PREFIX`] keeps before its hash.
const TEXT_HEAD: usize = PREFIX - 8;

/// An ordered index from a table's key columns to its rids (non-unique).
#[derive(Debug)]
pub struct BTreeIndex {
    name: String,
    /// Ordinals of the indexed columns in the base table schema.
    key_columns: Vec<usize>,
    tree: BTree,
}

impl BTreeIndex {
    /// An empty index over the given column ordinals, paged through
    /// `pool` (its table's).
    pub fn new(pool: Arc<BufferPool>, name: &str, key_columns: Vec<usize>) -> StorageResult<Self> {
        Ok(BTreeIndex {
            tree: BTree::create(pool, name, DEFAULT_NODE_CAPACITY)?,
            name: name.to_owned(),
            key_columns,
        })
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordinals of the indexed columns.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// The tree that holds the entries (length, height, pages, raw keys).
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    /// Add the entry of `row`, stored at `rid`: a run of one key (the
    /// key holds the rid, so no other entry has it).
    pub fn insert(&mut self, row: &Tuple, rid: Rid) -> StorageResult<()> {
        self.tree.insert_run(&[self.key(row, rid)])
    }

    /// Remove the entry of `row`, stored at `rid`: the range of its one
    /// key.
    pub fn remove(&mut self, row: &Tuple, rid: Rid) -> StorageResult<()> {
        let key = self.key(row, rid);
        self.tree.remove_range(key, successor(key)).map(drop)
    }

    /// The key of `row`, stored at `rid`.
    pub(crate) fn key(&self, row: &Tuple, rid: Rid) -> Key {
        encode(self.lead(row), rid)
    }

    /// Replace every entry with `keys`, one per row in any order (none
    /// empties the index): a fresh tree bulk-built from them
    /// ([`BTree::from_sorted`]) replaces the old one, whose pages leave
    /// the pool with it.
    pub(crate) fn rebuild(&mut self, mut keys: Vec<Key>) -> StorageResult<()> {
        keys.sort_unstable();
        let pool = Arc::clone(self.tree.pool());
        self.tree = BTree::from_sorted(pool, &self.name, self.tree.max_keys(), keys)?;
        Ok(())
    }

    /// Every row of `heap` — the indexed table's — whose leading key
    /// column equals `probe` under [`Value::total_cmp`], with its rid, in
    /// rid order. One walk covers the keys that share `probe`'s prefix (a
    /// number's: its bucket); the row of each key that can equal `probe`
    /// is fetched and rechecked. `on_fetch` runs before each fetch (a
    /// governor's tick); its error stops the lookup.
    pub fn lookup<E: From<StorageError>>(
        &self,
        heap: &HeapTable,
        probe: &Value,
        mut on_fetch: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<(Rid, Tuple)>, E> {
        let exact = encode(probe, Rid::new(0, 0));
        let shared = match probe {
            Value::Int(_) | Value::Float(_) => BUCKET,
            _ => RID_AT,
        };
        let (mut lo, mut last) = (exact, exact);
        lo[shared..].fill(0);
        last[shared..].fill(u8::MAX);
        // In a bucket a Float (marker byte 0) equals every number, an Int
        // only itself; any other walk holds only keys with `exact`'s prefix.
        let may_equal =
            |k: &&Key| k[..RID_AT] == exact[..RID_AT] || k[BUCKET] == 0 || exact[BUCKET] == 0;
        let mut cursor = RangeCursor::new(lo, successor(last));
        let (mut batch, mut rows) = (Vec::new(), Vec::new());
        while self.tree.next_batch(&mut cursor, &mut batch)? {
            for key in batch.iter().filter(may_equal) {
                on_fetch()?;
                let rid = rid_of(key);
                let row = heap.get(rid)?;
                if self.lead(&row).total_cmp(probe).is_eq() {
                    rows.push((rid, row));
                }
            }
        }
        rows.sort_unstable_by_key(|&(rid, _)| rid);
        Ok(rows)
    }

    /// The leading key column of `row` (NULL if it has none).
    fn lead<'a>(&self, row: &'a Tuple) -> &'a Value {
        let column = self.key_columns.first().and_then(|&c| row.get(c));
        column.unwrap_or(&Value::Null)
    }
}

/// The key of a row stored at `rid` whose leading key column is `value`
/// (module docs).
fn encode(value: &Value, rid: Rid) -> Key {
    let value = value.as_value_ref();
    let mut key = [0u8; KEY_SIZE];
    key[0] = value.type_rank();
    let prefix = &mut key[1..RID_AT];
    match value {
        ValueRef::Null => {}
        ValueRef::Bool(b) => prefix[0] = u8::from(b),
        ValueRef::Int(i) => {
            prefix[..8].copy_from_slice(&enc_f64_asc(i as f64));
            prefix[8] = 1; // after its bucket's Floats
            prefix[9..].copy_from_slice(&enc_i64(i));
        }
        ValueRef::Float(f) => prefix[..8].copy_from_slice(&enc_f64_asc(f)),
        ValueRef::Text(s) if s.len() <= PREFIX => prefix[..s.len()].copy_from_slice(s.as_bytes()),
        ValueRef::Text(s) => {
            let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(s);
            prefix[..TEXT_HEAD].copy_from_slice(&s.as_bytes()[..TEXT_HEAD]);
            prefix[TEXT_HEAD..].copy_from_slice(&hash.to_be_bytes());
        }
        ValueRef::Point(x, y) | ValueRef::Rect(x, y, ..) => {
            prefix[..8].copy_from_slice(&enc_f64_asc(x));
            prefix[8..16].copy_from_slice(&enc_f64_asc(y));
        }
    }
    key[RID_AT..RID_AT + 4].copy_from_slice(&rid.page.to_be_bytes());
    key[RID_AT + 4..].copy_from_slice(&rid.slot.to_be_bytes());
    key
}

fn rid_of(key: &Key) -> Rid {
    let r = &key[RID_AT..];
    Rid::new(
        u32::from_be_bytes([r[0], r[1], r[2], r[3]]),
        u16::from_be_bytes([r[4], r[5]]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    /// A one-column heap of type `ty` holding `values`, and an index on it.
    fn indexed(ty: DataType, values: &[Value]) -> (HeapTable, BTreeIndex) {
        let mut heap = HeapTable::new(Schema::new(vec![Column::new("k", ty)]));
        let mut idx = BTreeIndex::new(Arc::clone(heap.pool()), "i", vec![0]).unwrap();
        for v in values {
            let rid = heap.insert(Tuple::new(vec![v.clone()])).unwrap();
            idx.insert(&heap.get(rid).unwrap(), rid).unwrap();
        }
        (heap, idx)
    }

    fn slots(heap: &HeapTable, idx: &BTreeIndex, probe: Value) -> Vec<u16> {
        fetched_slots(heap, idx, probe).0
    }

    /// The slots a lookup of `probe` returns, and how many rows it fetched.
    fn fetched_slots(heap: &HeapTable, idx: &BTreeIndex, probe: Value) -> (Vec<u16>, usize) {
        let mut fetches = 0;
        let rows = idx
            .lookup(heap, &probe, || {
                fetches += 1;
                StorageResult::Ok(())
            })
            .unwrap();
        (rows.iter().map(|(rid, _)| rid.slot).collect(), fetches)
    }

    #[test]
    fn point_lookup_is_non_unique_and_in_rid_order() {
        let ints = [1, 2, 1, 3, 1].map(Value::Int);
        let (heap, idx) = indexed(DataType::Int, &ints);
        assert_eq!(idx.tree().len(), 5);
        assert_eq!(slots(&heap, &idx, Value::Int(1)), [0, 2, 4]);
        assert_eq!(slots(&heap, &idx, Value::Float(3.0)), [3], "1 = 1.0");
        assert!(slots(&heap, &idx, Value::Int(4)).is_empty());
        assert!(slots(&heap, &idx, Value::Text("1".into())).is_empty());
    }

    #[test]
    fn keys_order_by_type_rank_then_value_then_rid() {
        let rid = Rid::new(0, 0);
        let ordered = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(2.5),
            Value::Text(String::new()),
            Value::Text("ab".into()),
            Value::Point(0.0, -1.0),
            Value::Point(0.0, 1.0),
            Value::Rect(0.0, 0.0, 1.0, 1.0),
        ];
        for w in ordered.windows(2) {
            assert!(
                encode(&w[0], rid) < encode(&w[1], rid),
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
        let (one, big) = (encode(&Value::Int(1), rid), 1i64 << 53);
        assert_eq!(one[..BUCKET], encode(&Value::Float(1.0), rid)[..BUCKET]);
        assert!(
            encode(&Value::Float(1.0), rid) < one,
            "a bucket's Floats come first"
        );
        assert!(encode(&Value::Int(big), rid) < encode(&Value::Int(big + 1), rid));
        assert!(one < encode(&Value::Int(1), Rid::new(0, 1)));
        assert!(encode(&Value::Int(1), Rid::new(0, 9)) < encode(&Value::Int(1), Rid::new(1, 0)));
        assert_eq!(
            rid_of(&encode(&Value::Null, Rid::new(7, 300))),
            Rid::new(7, 300)
        );
    }

    /// Values that share a long head, or one `f64`, still have keys of
    /// their own: a probe fetches its matches and nothing else.
    #[test]
    fn a_probe_fetches_only_its_matches_where_values_share_a_prefix() {
        let urls: Vec<Value> = (0..300)
            .map(|n| Value::Text(format!("https://example.com/items/{n}")))
            .collect();
        let (heap, idx) = indexed(DataType::Text, &urls);
        let probe = Value::Text("https://example.com/items/123".into());
        assert_eq!(fetched_slots(&heap, &idx, probe), (vec![123], 1));
        let absent = Value::Text("https://example.com/items/x".into());
        assert_eq!(fetched_slots(&heap, &idx, absent), (vec![], 0));

        // Near 2^62 one f64 covers 1,024 integers.
        let ints: Vec<Value> = (0..300).map(|n| Value::Int((1 << 62) + n)).collect();
        let (heap, idx) = indexed(DataType::Int, &ints);
        let probe = Value::Int((1 << 62) + 7);
        assert_eq!(fetched_slots(&heap, &idx, probe), (vec![7], 1));
        // A Float equals every integer of its bucket: all are matches.
        let (slots, fetches) = fetched_slots(&heap, &idx, Value::Float((1u64 << 62) as f64));
        assert_eq!((slots.len(), fetches), (300, 300));
    }

    #[test]
    fn the_recheck_separates_values_that_share_a_key() {
        // A Rect's key holds only its first two coordinates.
        let rects = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)].map(|(c, d)| Value::Rect(0.0, 0.0, c, d));
        let (heap, idx) = indexed(DataType::Rect, &rects);
        let probe = Value::Rect(0.0, 0.0, 1.0, 1.0);
        assert_eq!(fetched_slots(&heap, &idx, probe), (vec![0, 2], 3));

        let big = 1i64 << 53;
        let mixed = [
            Value::Int(big),
            Value::Float(big as f64),
            Value::Int(big + 1),
        ];
        let (heap, idx) = indexed(DataType::Float, &mixed);
        assert_eq!(
            slots(&heap, &idx, Value::Int(big + 1)),
            [0, 1, 2],
            "all widen to 2^53"
        );
        let (heap, idx) = indexed(DataType::Int, &[big, big + 1, big].map(Value::Int));
        assert_eq!(slots(&heap, &idx, Value::Int(big + 1)), [1]);
        assert_eq!(slots(&heap, &idx, Value::Int(big)), [0, 2]);
        assert_eq!(slots(&heap, &idx, Value::Float(big as f64)), [0, 1, 2]);
    }

    #[test]
    fn remove_and_clear_drop_entries() {
        let (heap, mut idx) = indexed(DataType::Int, &[5, 5, 6].map(Value::Int));
        idx.remove(&Tuple::new(vec![Value::Int(5)]), Rid::new(0, 0))
            .unwrap();
        assert_eq!(slots(&heap, &idx, Value::Int(5)), [1]);
        assert_eq!(idx.tree().len(), 2);
        let pages = || heap.pool().resident_pages();
        let before = pages();
        idx.rebuild(Vec::new()).unwrap();
        assert!(idx.tree().is_empty());
        assert!(slots(&heap, &idx, Value::Int(6)).is_empty());
        assert_eq!(pages(), before, "the new tree's root replaced the old one");
    }
}
