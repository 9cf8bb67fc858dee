//! Ordered secondary indexes.
//!
//! [`BTreeIndex`] maps composite keys (`Vec<Value>`, compared with the
//! total order from [`crate::value::Value`]) to record ids. It supports
//! point lookups, inclusive range scans, and ordered iteration in both
//! directions — everything the paper's `RecScoreIndex` B+-trees and primary
//! key indexes need. It lives in memory and reads no page; the rids it
//! returns are what cost page accesses, when the heap fetches them.

use crate::heap::Rid;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Composite index key.
pub type IndexKey = Vec<Value>;

/// An ordered index from composite keys to record ids (non-unique).
#[derive(Debug)]
pub struct BTreeIndex {
    name: String,
    /// Ordinals of the indexed columns in the base table schema.
    key_columns: Vec<usize>,
    map: BTreeMap<IndexKey, Vec<Rid>>,
    entries: u64,
}

impl BTreeIndex {
    /// An empty index over the given column ordinals.
    pub fn new(name: impl Into<String>, key_columns: Vec<usize>) -> Self {
        BTreeIndex {
            name: name.into(),
            key_columns,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordinals of the indexed columns.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Number of `(key, rid)` entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Extract this index's key from a full table tuple.
    pub fn key_of(&self, tuple: &crate::tuple::Tuple) -> IndexKey {
        self.key_columns
            .iter()
            .map(|&i| tuple.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Insert an entry.
    pub fn insert(&mut self, key: IndexKey, rid: Rid) {
        self.map.entry(key).or_default().push(rid);
        self.entries += 1;
    }

    /// Remove one entry matching `(key, rid)`. Returns whether it existed.
    pub fn remove(&mut self, key: &IndexKey, rid: Rid) -> bool {
        if let Some(rids) = self.map.get_mut(key) {
            if let Some(pos) = rids.iter().position(|&r| r == rid) {
                rids.swap_remove(pos);
                if rids.is_empty() {
                    self.map.remove(key);
                }
                self.entries -= 1;
                return true;
            }
        }
        false
    }

    /// Point lookup: all rids for exactly `key`.
    pub fn lookup(&self, key: &IndexKey) -> Vec<Rid> {
        self.map.get(key).cloned().unwrap_or_default()
    }

    /// Range scan over `[low, high]` bounds (either side optional),
    /// ascending key order.
    pub fn range(
        &self,
        low: Option<&IndexKey>,
        high: Option<&IndexKey>,
    ) -> impl Iterator<Item = (&IndexKey, Rid)> + '_ {
        let lo: Bound<IndexKey> = match low {
            Some(k) => Bound::Included(k.clone()),
            None => Bound::Unbounded,
        };
        let hi: Bound<IndexKey> = match high {
            Some(k) => Bound::Included(k.clone()),
            None => Bound::Unbounded,
        };
        self.map
            .range((lo, hi))
            .flat_map(|(k, rids)| rids.iter().map(move |&r| (k, r)))
    }

    /// Full ordered iteration, ascending.
    pub fn iter_asc(&self) -> impl Iterator<Item = (&IndexKey, Rid)> + '_ {
        self.map
            .iter()
            .flat_map(|(k, rids)| rids.iter().map(move |&r| (k, r)))
    }

    /// Full ordered iteration, descending — how `IndexRecommend` walks the
    /// per-user score tree to produce top-k answers without sorting.
    pub fn iter_desc(&self) -> impl Iterator<Item = (&IndexKey, Rid)> + '_ {
        self.map
            .iter()
            .rev()
            .flat_map(|(k, rids)| rids.iter().map(move |&r| (k, r)))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> IndexKey {
        vec![Value::Int(v)]
    }

    #[test]
    fn point_lookup_non_unique() {
        let mut idx = BTreeIndex::new("ratings_uid", vec![0]);
        idx.insert(k(1), Rid::new(0, 0));
        idx.insert(k(1), Rid::new(0, 1));
        idx.insert(k(2), Rid::new(0, 2));
        let mut got = idx.lookup(&k(1));
        got.sort();
        assert_eq!(got, vec![Rid::new(0, 0), Rid::new(0, 1)]);
        assert_eq!(idx.lookup(&k(3)), vec![]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn range_scan_inclusive() {
        let mut idx = BTreeIndex::new("i", vec![0]);
        for v in 0..10 {
            idx.insert(k(v), Rid::new(0, v as u16));
        }
        let got: Vec<i64> = idx
            .range(Some(&k(3)), Some(&k(6)))
            .map(|(key, _)| key[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
        let open: Vec<i64> = idx
            .range(Some(&k(8)), None)
            .map(|(key, _)| key[0].as_int().unwrap())
            .collect();
        assert_eq!(open, vec![8, 9]);
    }

    #[test]
    fn descending_iteration_orders_by_key() {
        let mut idx = BTreeIndex::new("scores", vec![0]);
        for (score, item) in [(4.5, 1), (2.0, 2), (5.0, 3), (3.5, 4)] {
            idx.insert(vec![Value::Float(score)], Rid::new(0, item));
        }
        let order: Vec<u16> = idx.iter_desc().map(|(_, r)| r.slot).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let mut idx = BTreeIndex::new("c", vec![0, 1]);
        idx.insert(vec![Value::Int(1), Value::Int(9)], Rid::new(0, 0));
        idx.insert(vec![Value::Int(2), Value::Int(0)], Rid::new(0, 1));
        idx.insert(vec![Value::Int(1), Value::Int(1)], Rid::new(0, 2));
        let order: Vec<u16> = idx.iter_asc().map(|(_, r)| r.slot).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn remove_specific_entry() {
        let mut idx = BTreeIndex::new("i", vec![0]);
        idx.insert(k(1), Rid::new(0, 0));
        idx.insert(k(1), Rid::new(0, 1));
        assert!(idx.remove(&k(1), Rid::new(0, 0)));
        assert!(!idx.remove(&k(1), Rid::new(0, 0)), "already gone");
        assert_eq!(idx.lookup(&k(1)), vec![Rid::new(0, 1)]);
        assert!(idx.remove(&k(1), Rid::new(0, 1)));
        assert!(idx.is_empty());
    }

    #[test]
    fn key_of_extracts_indexed_columns() {
        let idx = BTreeIndex::new("i", vec![2, 0]);
        let t = crate::tuple::Tuple::new(vec![
            Value::Int(7),
            Value::Text("x".into()),
            Value::Float(1.5),
        ]);
        assert_eq!(idx.key_of(&t), vec![Value::Float(1.5), Value::Int(7)]);
    }
}
