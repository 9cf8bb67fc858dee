//! A paged B+-tree over buffer-pool frames.
//!
//! This is the engine's one ordered index structure, behind both the
//! RecScoreIndex and the secondary indexes ([`crate::index`]):
//! fixed-width 24-byte keys that each index layer packs from the key
//! codec below, nodes stored one per 8 KiB block through the
//! [`BufferPool`], and leaves chained left-to-right for range scans.
//! The shape follows the classic
//! textbook B+-tree (and the simpledb-style `index/btree` exemplars):
//!
//! * the **root is always page 0** of the tree's pool file, so the tree
//!   needs no separate superblock — a root split copies both halves into
//!   fresh pages and rewrites page 0 as a branch;
//! * splits happen **preemptively on the way down**: any full child on
//!   the descent path is split before descending into it, so an insert
//!   into a leaf can never cascade upward. An injected failure at the
//!   `storage::btree_split` fail point therefore leaves the tree valid —
//!   completed splits stand on their own and the key is simply not
//!   inserted;
//! * deletes do not rebalance (like PostgreSQL's `nbtree`, which only
//!   reclaims fully-empty pages). Empty leaves stay in the chain and are
//!   skipped by scans; a rebuilt index replaces its tree wholesale
//!   instead.
//!
//! Node fan-out is configurable (`max_keys`), clamped to what fits one
//! block. Production trees use [`DEFAULT_NODE_CAPACITY`]; tests shrink it
//! to force deep trees and splits from tiny datasets.

pub mod node;

use crate::error::StorageResult;
use crate::pool::{BufferPool, FileId, FileKind, FrameData};
use node::Node;
pub use node::{Key, KEY_SIZE, MAX_BRANCH_KEYS, MAX_LEAF_KEYS, NO_PAGE};
use std::sync::Arc;

/// Default maximum keys per node (both leaf and branch). 256 keys × 24
/// bytes fills ~75% of a block, leaving headroom for the header.
pub const DEFAULT_NODE_CAPACITY: usize = 256;

/// Page number of the root node, fixed for the life of the tree.
const ROOT_PAGE: u32 = 0;

/// Order-preserving encoding of an `i64`: flip the sign bit and emit
/// big-endian, so unsigned byte order matches signed integer order.
#[inline]
pub fn enc_i64(x: i64) -> [u8; 8] {
    ((x as u64) ^ (1 << 63)).to_be_bytes()
}

/// Inverse of [`enc_i64`].
#[inline]
pub fn dec_i64(b: [u8; 8]) -> i64 {
    (u64::from_be_bytes(b) ^ (1 << 63)) as i64
}

/// Total-order bits of an `f64`, ascending: byte order matches
/// [`f64::total_cmp`] (`-NaN < -∞ < … < +∞ < +NaN`, `-0.0 < +0.0`).
#[inline]
pub fn enc_f64_asc(s: f64) -> [u8; 8] {
    let bits = s.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    ordered.to_be_bytes()
}

/// Inverse of [`enc_f64_asc`].
#[inline]
pub fn dec_f64_asc(b: [u8; 8]) -> f64 {
    let ordered = u64::from_be_bytes(b);
    let bits = if ordered >> 63 == 1 {
        ordered & !(1 << 63)
    } else {
        !ordered
    };
    f64::from_bits(bits)
}

/// The smallest key strictly greater than `k`, or `None` if `k` is the
/// maximum key (used as an exclusive upper bound for inclusive ranges).
#[inline]
pub fn successor(mut k: Key) -> Option<Key> {
    for b in k.iter_mut().rev() {
        if *b < u8::MAX {
            *b += 1;
            return Some(k);
        }
        *b = 0;
    }
    None
}

/// A B+-tree of fixed-width keys, paged through a [`BufferPool`].
#[derive(Debug)]
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
    max_keys: usize,
    len: u64,
}

/// The owned position of one range walk over `[lo, hi)`: which page
/// [`BTree::next_batch`] reads next. It borrows nothing, so an operator
/// can keep one beside an `Arc` of the tree's owner across `next()` calls.
#[derive(Debug, Clone)]
pub struct RangeCursor {
    /// The next page to read: the root before the first batch (the walk
    /// descends from it), then the leaf chain.
    next: u32,
    lo: Key,
    hi: Option<Key>,
    done: bool,
}

impl RangeCursor {
    /// A cursor over `[lo, hi)`; `hi = None` means "to the end". An empty
    /// or inverted range (`hi <= lo`) is exhausted from the start and
    /// never touches the pool.
    pub fn new(lo: Key, hi: Option<Key>) -> Self {
        RangeCursor {
            next: ROOT_PAGE,
            done: hi.is_some_and(|hi| hi <= lo),
            lo,
            hi,
        }
    }

    /// A cursor over nothing.
    pub fn empty() -> Self {
        RangeCursor::new([0; KEY_SIZE], Some([0; KEY_SIZE]))
    }
}

impl BTree {
    /// Create an empty tree as a new file in `pool`. `label` names the
    /// tree in corruption errors; `max_keys` bounds node fan-out (clamped
    /// to `[4, block capacity]`).
    pub fn create(pool: Arc<BufferPool>, label: &str, max_keys: usize) -> StorageResult<Self> {
        let max_keys = max_keys.clamp(4, MAX_LEAF_KEYS.min(MAX_BRANCH_KEYS));
        let file = pool.create_file(FileKind::Index, label);
        let root = pool.allocate_page(file, FrameData::Node(Node::leaf()))?;
        debug_assert_eq!(root, ROOT_PAGE);
        Ok(BTree {
            pool,
            file,
            max_keys,
            len: 0,
        })
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer pool this tree pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Node pages allocated so far (for sizing diagnostics).
    pub fn node_pages(&self) -> u32 {
        self.pool.page_count(self.file)
    }

    /// Configured maximum keys per node.
    pub fn max_keys(&self) -> usize {
        self.max_keys
    }

    /// Insert `key`. Returns `false` (without change) if it was already
    /// present.
    pub fn insert(&mut self, key: Key) -> StorageResult<bool> {
        // Preemptive split: never descend into a full node.
        let root_full = self
            .pool
            .with_node(self.file, ROOT_PAGE, |n| n.keys.len() >= self.max_keys)?;
        if root_full {
            self.split_root()?;
        }
        let mut pno = ROOT_PAGE;
        loop {
            enum Step {
                Inserted(bool),
                Descend { child: u32, idx: usize },
            }
            let step = self.pool.with_node_mut(self.file, pno, |n| {
                if n.is_leaf {
                    match n.keys.binary_search(&key) {
                        Ok(_) => Step::Inserted(false),
                        Err(at) => {
                            n.keys.insert(at, key);
                            Step::Inserted(true)
                        }
                    }
                } else {
                    let idx = n.keys.partition_point(|k| k <= &key);
                    Step::Descend {
                        child: n.children[idx],
                        idx,
                    }
                }
            })?;
            match step {
                Step::Inserted(added) => {
                    if added {
                        self.len += 1;
                    }
                    return Ok(added);
                }
                Step::Descend { child, idx, .. } => {
                    let full = self
                        .pool
                        .with_node(self.file, child, |n| n.keys.len() >= self.max_keys)?;
                    if full {
                        self.split_child(pno, idx)?;
                        // The split may have redirected our key to the new
                        // right sibling; recompute the child from the
                        // updated parent.
                        pno = self.pool.with_node(self.file, pno, |n| {
                            let idx = n.keys.partition_point(|k| k <= &key);
                            n.children[idx]
                        })?;
                    } else {
                        pno = child;
                    }
                }
            }
        }
    }

    /// Remove `key`. Returns `false` if it was not present. No rebalance:
    /// an emptied leaf stays in the chain.
    pub fn remove(&mut self, key: &Key) -> StorageResult<bool> {
        let mut pno = ROOT_PAGE;
        loop {
            let next = self.pool.with_node_mut(self.file, pno, |n| {
                if n.is_leaf {
                    match n.keys.binary_search(key) {
                        Ok(at) => {
                            n.keys.remove(at);
                            Ok(true)
                        }
                        Err(_) => Ok(false),
                    }
                } else {
                    let idx = n.keys.partition_point(|k| k <= key);
                    Err(n.children[idx])
                }
            })?;
            match next {
                Ok(removed) => {
                    if removed {
                        self.len -= 1;
                    }
                    return Ok(removed);
                }
                Err(child) => pno = child,
            }
        }
    }

    /// Advance `cursor` by one leaf: replace `batch` with that leaf's keys
    /// inside the cursor's range (possibly none — emptied leaves stay in
    /// the chain) and return `true`, or return `false` with `batch` empty
    /// once the range is exhausted. This is the tree's only range walk.
    ///
    /// A fresh cursor starts at the root, so its first call also descends
    /// the branch levels; every later call reads exactly one leaf. Each
    /// node visit is one pool access that copies the node's keys out, so
    /// nothing is held between calls and an abandoned cursor has nothing
    /// to release. The caller consumes
    /// `batch` without the pool locked and may itself use the pool.
    ///
    /// The cursor holds a page number, not a borrow: it stays valid only
    /// while the tree is not mutated, which `&self` callers get for free
    /// from holding the tree immutably across the walk.
    pub fn next_batch(
        &self,
        cursor: &mut RangeCursor,
        batch: &mut Vec<Key>,
    ) -> StorageResult<bool> {
        batch.clear();
        if cursor.done {
            return Ok(false);
        }
        let (lo, hi) = (&cursor.lo, cursor.hi.as_ref());
        loop {
            let (is_leaf, next) = self.pool.with_node(self.file, cursor.next, |n| {
                if !n.is_leaf {
                    return (false, n.children[n.keys.partition_point(|k| k <= lo)]);
                }
                let start = n.keys.partition_point(|k| k < lo);
                // `lo < hi` (the cursor's invariant), so `end >= start`.
                let end = hi.map_or(n.keys.len(), |hi| n.keys.partition_point(|k| k < hi));
                batch.extend_from_slice(&n.keys[start..end]);
                // A leaf whose last key reaches `hi` completes the range;
                // an empty leaf never does.
                let reached_hi = hi.is_some_and(|hi| n.keys.last().is_some_and(|last| last >= hi));
                (true, if reached_hi { NO_PAGE } else { n.next })
            })?;
            cursor.next = next;
            if is_leaf {
                cursor.done = next == NO_PAGE;
                return Ok(true);
            }
        }
    }

    /// Every key in ascending order (used by clone/debug paths).
    pub fn keys(&self) -> StorageResult<Vec<Key>> {
        let (mut cursor, mut batch) = (RangeCursor::new([0; KEY_SIZE], None), Vec::new());
        let mut out = Vec::with_capacity(self.len as usize);
        while self.next_batch(&mut cursor, &mut batch)? {
            out.extend_from_slice(&batch);
        }
        Ok(out)
    }

    /// Tree height in levels (1 = root is a leaf). Diagnostic.
    pub fn height(&self) -> StorageResult<u32> {
        let mut pno = ROOT_PAGE;
        let mut h = 1;
        loop {
            let child = self.pool.with_node(self.file, pno, |n| {
                if n.is_leaf {
                    None
                } else {
                    Some(n.children[0])
                }
            })?;
            match child {
                Some(c) => {
                    pno = c;
                    h += 1;
                }
                None => return Ok(h),
            }
        }
    }

    /// Split the full root in place: copy its halves into two fresh pages
    /// and rewrite page 0 as a branch over them. This is the only
    /// operation that changes the tree's height.
    fn split_root(&mut self) -> StorageResult<()> {
        recdb_fault::fail_point("storage::btree_split")?;
        let root = self.pool.with_node(self.file, ROOT_PAGE, |n| n.clone())?;
        let (left, right, sep) = split_node(root);
        let left_pno = self.pool.allocate_page(self.file, FrameData::Node(left))?;
        let right_pno = self.pool.allocate_page(self.file, FrameData::Node(right))?;
        // Wire the leaf chain through the two copies.
        self.pool.with_node_mut(self.file, left_pno, |n| {
            if n.is_leaf {
                n.next = right_pno;
            }
        })?;
        self.pool.with_node_mut(self.file, ROOT_PAGE, |n| {
            *n = Node::branch(vec![sep], vec![left_pno, right_pno]);
        })?;
        Ok(())
    }

    /// Split the full child at `parent.children[idx]`, inserting the new
    /// separator and right sibling into the parent (which has room: the
    /// caller split it preemptively on the way down).
    fn split_child(&mut self, parent: u32, idx: usize) -> StorageResult<()> {
        recdb_fault::fail_point("storage::btree_split")?;
        let child_pno = self
            .pool
            .with_node(self.file, parent, |n| n.children[idx])?;
        let child = self.pool.with_node(self.file, child_pno, |n| n.clone())?;
        let (left, right, sep) = split_node(child);
        let right_pno = self.pool.allocate_page(self.file, FrameData::Node(right))?;
        self.pool.with_node_mut(self.file, child_pno, |n| {
            let was_leaf = left.is_leaf;
            *n = left;
            if was_leaf {
                n.next = right_pno;
            }
        })?;
        self.pool.with_node_mut(self.file, parent, |n| {
            n.keys.insert(idx, sep);
            n.children.insert(idx + 1, right_pno);
        })?;
        Ok(())
    }
}

/// Split one overfull node into `(left, right, separator)`. For leaves
/// the separator is copied up (it stays in the right leaf); for branches
/// the middle key moves up. The caller wires leaf `next` pointers.
fn split_node(mut node: Node) -> (Node, Node, Key) {
    let mid = node.keys.len() / 2;
    if node.is_leaf {
        let right_keys = node.keys.split_off(mid);
        let sep = right_keys[0];
        let right = Node {
            is_leaf: true,
            keys: right_keys,
            children: Vec::new(),
            next: node.next,
        };
        (node, right, sep)
    } else {
        let mut right_keys = node.keys.split_off(mid);
        let sep = right_keys.remove(0);
        let right_children = node.children.split_off(mid + 1);
        let right = Node::branch(right_keys, right_children);
        (node, right, sep)
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        self.pool.remove_file(self.file);
    }
}

impl Clone for BTree {
    /// Deep-copy the tree into a fresh file in the same pool by bulk
    /// inserting keys in ascending order (which keeps the copy's leaves
    /// right-packed).
    fn clone(&self) -> Self {
        let label = format!("clone-of-file-{}", self.file);
        let mut copy = BTree::create(Arc::clone(&self.pool), &label, self.max_keys)
            .expect("allocating a root leaf for a tree clone");
        let (mut cursor, mut batch) = (RangeCursor::new([0; KEY_SIZE], None), Vec::new());
        while self
            .next_batch(&mut cursor, &mut batch)
            .expect("scanning a tree during clone")
        {
            for &key in &batch {
                copy.insert(key)
                    .expect("re-inserting a key into a tree clone");
            }
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // No test here arms a fault site: the split fail point's test is in
    // tests/faults.rs, where every test holds `recdb_fault::exclusive()`
    // (the fault registry is process-global).

    fn key(n: u64) -> Key {
        let mut k = [0u8; KEY_SIZE];
        k[..8].copy_from_slice(&n.to_be_bytes());
        k
    }

    #[test]
    fn i64_encoding_is_order_preserving() {
        let vals = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(enc_i64(w[0]) < enc_i64(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(dec_i64(enc_i64(v)), v);
        }
    }

    #[test]
    fn f64_encoding_matches_total_cmp() {
        let vals = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -5.5,
            -0.0,
            0.0,
            1.0e-300,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in vals.windows(2) {
            assert!(enc_f64_asc(w[0]) < enc_f64_asc(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(dec_f64_asc(enc_f64_asc(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn successor_carries_and_ends_at_the_maximum_key() {
        let mut k = key(7);
        k[KEY_SIZE - 2..].fill(0xFF);
        let mut want = key(7);
        want[KEY_SIZE - 3] = 1;
        assert_eq!(successor(k), Some(want));
        assert_eq!(successor([0xFF; KEY_SIZE]), None);
    }

    /// The keys of `[lo, hi)`, walked a leaf at a time.
    fn range(t: &BTree, lo: Key, hi: Option<Key>) -> Vec<Key> {
        let (mut cursor, mut batch, mut out) = (RangeCursor::new(lo, hi), Vec::new(), Vec::new());
        while t.next_batch(&mut cursor, &mut batch).unwrap() {
            out.extend_from_slice(&batch);
        }
        out
    }

    fn small_tree(max_keys: usize) -> BTree {
        BTree::create(Arc::new(BufferPool::unbounded()), "t", max_keys).unwrap()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = small_tree(4);
        for n in 0..100 {
            assert!(t.insert(key(n)).unwrap());
        }
        assert_eq!(t.len(), 100);
        assert!(!t.insert(key(50)).unwrap(), "duplicate insert must no-op");
        assert_eq!(t.len(), 100);
        assert_eq!(t.keys().unwrap(), (0..100).map(key).collect::<Vec<_>>());
        assert!(t.remove(&key(30)).unwrap());
        assert!(!t.remove(&key(30)).unwrap());
        assert!(!t.keys().unwrap().contains(&key(30)));
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn keys_come_back_sorted_regardless_of_insert_order() {
        let mut t = small_tree(4);
        // Insert in a scrambled deterministic order.
        for n in 0..500u64 {
            t.insert(key((n * 331) % 500)).unwrap();
        }
        let keys = t.keys().unwrap();
        assert_eq!(keys.len(), 500);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(t.height().unwrap() >= 3, "fan-out 4 over 500 keys is deep");
    }

    #[test]
    fn range_scan_respects_bounds() {
        let mut t = small_tree(5);
        for n in 0..200 {
            t.insert(key(n)).unwrap();
        }
        let got = range(&t, key(50), Some(key(60)));
        assert_eq!(got, (50..60).map(key).collect::<Vec<_>>());
        assert_eq!(
            range(&t, key(190), None),
            (190..200).map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cursor_costs_one_pool_access_per_node_and_stops_on_leaf_boundaries() {
        let pool = Arc::new(BufferPool::unbounded());
        let mut t = BTree::create(Arc::clone(&pool), "t", 4).unwrap();
        for n in 0..100 {
            t.insert(key(n)).unwrap();
        }
        let accesses = || pool.hits() + pool.misses();
        let height = u64::from(t.height().unwrap());
        assert!(height >= 3);

        // The first batch pays the descent, every later one a single leaf.
        let mut cursor = RangeCursor::new(key(0), None);
        let mut batch = Vec::new();
        let mut leaf_firsts = Vec::new();
        let mut before = accesses();
        while t.next_batch(&mut cursor, &mut batch).unwrap() {
            let cost = accesses() - before;
            assert_eq!(cost, if leaf_firsts.is_empty() { height } else { 1 });
            leaf_firsts.push(batch[0]);
            before = accesses();
        }
        assert_eq!(accesses(), before, "an exhausted cursor reads nothing");
        assert!(leaf_firsts.len() > 10);

        // `hi` exactly on a leaf's first key: everything below it, nothing
        // of that leaf.
        for hi in &leaf_firsts[1..] {
            let want: Vec<Key> = (0..100).map(key).take_while(|k| k < hi).collect();
            assert_eq!(range(&t, key(0), Some(*hi)), want);
        }

        // Empty and inverted ranges never touch the pool.
        let before = accesses();
        for mut cursor in [
            RangeCursor::empty(),
            RangeCursor::new(key(50), Some(key(50))),
            RangeCursor::new(key(60), Some(key(40))),
        ] {
            assert!(!t.next_batch(&mut cursor, &mut batch).unwrap());
            assert!(batch.is_empty());
        }
        assert_eq!(accesses(), before);
    }

    #[test]
    fn scan_skips_emptied_leaves() {
        let mut t = small_tree(4);
        for n in 0..100 {
            t.insert(key(n)).unwrap();
        }
        // Hollow out the middle: leaves there become empty but stay chained.
        for n in 20..80 {
            t.remove(&key(n)).unwrap();
        }
        let keys = t.keys().unwrap();
        let expected: Vec<Key> = (0..20).chain(80..100).map(key).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn clone_is_deep_and_equal() {
        let mut t = small_tree(6);
        for n in 0..150 {
            t.insert(key(n * 3)).unwrap();
        }
        let mut c = t.clone();
        assert_eq!(c.keys().unwrap(), t.keys().unwrap());
        c.insert(key(1)).unwrap();
        assert!(!t.keys().unwrap().contains(&key(1)), "clone shares state");
    }

    #[test]
    fn works_under_a_tiny_pool() {
        let pool = Arc::new(BufferPool::in_memory(4));
        let mut t = BTree::create(Arc::clone(&pool), "t", 8).unwrap();
        for n in 0..2000 {
            t.insert(key((n * 7919) % 2000)).unwrap();
        }
        assert_eq!(t.len(), 2000);
        assert!(pool.evictions() > 0, "a 4-frame pool must evict");
        let keys = t.keys().unwrap();
        assert_eq!(keys.len(), 2000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
