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

    /// Build a tree as a new file in `pool` from strictly ascending
    /// `keys`, bottom-up: leaves filled to `max_keys` (the last one takes
    /// the rest) and chained left to right, then each branch level over
    /// the one below, its children spread evenly over as few nodes as
    /// hold them, up to a level that fits one node: the root, written to
    /// page 0. Every leaf is at the same depth. Each node is written
    /// once, with no search and no split, so `n` keys cost about `n /
    /// max_keys` page allocations. `label` and `max_keys` are as for
    /// [`BTree::create`].
    ///
    /// # Panics
    ///
    /// If `keys` is not strictly ascending.
    pub fn from_sorted(
        pool: Arc<BufferPool>,
        label: &str,
        max_keys: usize,
        keys: impl IntoIterator<Item = Key>,
    ) -> StorageResult<Self> {
        let mut tree = BTree::create(pool, label, max_keys)?;
        let cap = tree.max_keys;
        // `(first key, page)` of each node of the level being built.
        let mut level: Vec<(Key, u32)> = Vec::new();
        let mut leaf: Vec<Key> = Vec::with_capacity(cap);
        let mut last: Option<Key> = None;
        for key in keys {
            assert!(
                last.is_none_or(|last| last < key),
                "BTree::from_sorted: keys must be strictly ascending"
            );
            last = Some(key);
            if leaf.len() == cap {
                // A key follows, so the next page allocated is this
                // leaf's right sibling.
                let next = tree.node_pages() + 1;
                let full = std::mem::replace(&mut leaf, Vec::with_capacity(cap));
                let node = Node {
                    keys: full,
                    next,
                    ..Node::leaf()
                };
                level.push((node.keys[0], tree.allocate(node)?));
            }
            leaf.push(key);
            tree.len += 1;
        }
        if level.is_empty() {
            // Everything fits the root leaf.
            tree.pool
                .with_node_mut(tree.file, ROOT_PAGE, |n| n.keys = leaf)?;
            return Ok(tree);
        }
        let first = leaf[0];
        level.push((
            first,
            tree.allocate(Node {
                keys: leaf,
                ..Node::leaf()
            })?,
        ));
        while level.len() > cap + 1 {
            let nodes = level.len().div_ceil(cap + 1);
            let (base, extra) = (level.len() / nodes, level.len() % nodes);
            let mut rest = &level[..];
            let mut above = Vec::with_capacity(nodes);
            for i in 0..nodes {
                let (group, tail) = rest.split_at(base + usize::from(i < extra));
                above.push((group[0].0, tree.allocate(branch_over(group))?));
                rest = tail;
            }
            level = above;
        }
        let root = branch_over(&level);
        tree.pool
            .with_node_mut(tree.file, ROOT_PAGE, |n| *n = root)?;
        Ok(tree)
    }

    /// Append `node` to the tree's file.
    fn allocate(&self, node: Node) -> StorageResult<u32> {
        self.pool.allocate_page(self.file, FrameData::Node(node))
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

/// The branch over `children`, given as `(first key, page)`: each
/// separator is the first key of the child to its right.
fn branch_over(children: &[(Key, u32)]) -> Node {
    Node::branch(
        children[1..].iter().map(|&(first, _)| first).collect(),
        children.iter().map(|&(_, page)| page).collect(),
    )
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
    /// Deep-copy the tree into a fresh file in the same pool: its keys,
    /// streamed a leaf at a time, bulk-built by [`BTree::from_sorted`].
    fn clone(&self) -> Self {
        let label = format!("clone-of-file-{}", self.file);
        let (mut cursor, mut batch) = (RangeCursor::new([0; KEY_SIZE], None), Vec::new());
        let leaves = std::iter::from_fn(|| {
            let more = self
                .next_batch(&mut cursor, &mut batch)
                .expect("scanning a tree during clone");
            more.then(|| std::mem::take(&mut batch))
        });
        BTree::from_sorted(
            Arc::clone(&self.pool),
            &label,
            self.max_keys,
            leaves.flatten(),
        )
        .expect("writing the nodes of a tree clone")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Check `t`'s shape and return its keys in leaf-chain order: every
    /// node within `max_keys`, keys strictly ascending in every node and
    /// inside the bounds its parent's separators set (a child holds the
    /// keys `>=` the separator on its left and `<` the one on its right),
    /// every leaf at the same depth, and the leaf chain visiting exactly
    /// the leaves left to right before it ends.
    fn checked_keys(t: &BTree) -> Vec<Key> {
        // (page, depth, low bound, high bound) still to visit, leftmost last.
        let mut stack = vec![(ROOT_PAGE, 1u32, None::<Key>, None::<Key>)];
        let (mut leaves, mut depth) = (Vec::new(), None);
        while let Some((page, d, lo, hi)) = stack.pop() {
            let node = t.pool.with_node(t.file, page, Node::clone).unwrap();
            assert!(node.keys.len() <= t.max_keys, "page {page} overfull");
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "page {page}");
            assert!(node.keys.iter().all(|k| lo.is_none_or(|lo| lo <= *k)));
            assert!(node.keys.iter().all(|k| hi.is_none_or(|hi| *k < hi)));
            if node.is_leaf {
                assert_eq!(*depth.get_or_insert(d), d, "leaf {page} at another depth");
                leaves.push(page);
                continue;
            }
            assert_eq!(node.children.len(), node.keys.len() + 1);
            for (i, &child) in node.children.iter().enumerate().rev() {
                let lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let hi = node.keys.get(i).copied().or(hi);
                stack.push((child, d + 1, lo, hi));
            }
        }
        assert_eq!(depth, Some(t.height().unwrap()));
        let (mut keys, mut page) = (Vec::new(), leaves[0]);
        for (at, &want) in leaves.iter().enumerate() {
            assert_eq!(page, want, "chain leaves the tree order at leaf {at}");
            let (next, leaf_keys) = t
                .pool
                .with_node(t.file, page, |n| (n.next, n.keys.clone()))
                .unwrap();
            keys.extend(leaf_keys);
            page = next;
        }
        assert_eq!(page, NO_PAGE, "chain runs past the last leaf");
        keys
    }

    #[test]
    fn bulk_build_fills_its_leaves() {
        // 81,174 keys: 318 leaves of up to 256, two branches, the root.
        let pool = Arc::new(BufferPool::unbounded());
        let t = BTree::from_sorted(pool, "t", 256, (0..81_174).map(key)).unwrap();
        assert_eq!(t.len(), 81_174);
        assert_eq!((t.node_pages(), t.height().unwrap()), (321, 3));
        assert_eq!(checked_keys(&t), (0..81_174).map(key).collect::<Vec<_>>());
        // A clone is bulk-built too.
        let c = t.clone();
        assert_eq!((c.node_pages(), c.len()), (321, 81_174));
        assert_eq!(checked_keys(&c), checked_keys(&t));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_build_rejects_unsorted_keys() {
        let pool = Arc::new(BufferPool::unbounded());
        let _ = BTree::from_sorted(pool, "t", 4, [key(2), key(2)]);
    }

    /// What a step does to the tree and to the reference set.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64),
        Remove(u64),
        Range(u64, Option<u64>),
    }

    fn step_strategy(span: u64) -> impl Strategy<Value = Step> {
        (0u8..3, 0..span, proptest::option::of(0..span)).prop_map(|(kind, x, y)| match kind {
            0 => Step::Insert(x),
            1 => Step::Remove(x),
            _ => Step::Range(x, y),
        })
    }

    /// A node capacity, a key count that is often one of the sizes where
    /// the shape changes (0, 1, a full root leaf, one key past it, a
    /// third and a fourth level at capacity 4), and the gaps between
    /// consecutive keys.
    fn bulk_case() -> impl Strategy<Value = (usize, Vec<u64>)> {
        let cap = prop_oneof![Just(4usize), Just(5), Just(8)];
        cap.prop_flat_map(|cap| {
            let n = prop_oneof![
                Just(0usize),
                Just(1),
                Just(cap),
                Just(cap + 1),
                Just(cap * (cap + 1) + 1),
                Just(cap * (cap + 1) * (cap + 1) + 1),
                0..400usize,
            ];
            let gaps = n.prop_flat_map(|n| proptest::collection::vec(1u64..4, n));
            (Just(cap), gaps)
        })
    }

    proptest! {
        /// A bulk-built tree against a `BTreeSet` of the same keys: its
        /// shape (see `checked_keys`), every `next_batch` range walk, and
        /// then random inserts, removes and range walks on both.
        #[test]
        fn bulk_build_equals_a_btreeset(
            (cap, gaps) in bulk_case(),
            ranges in proptest::collection::vec((0u64..1700, proptest::option::of(0u64..1700)), 0..8),
            steps in proptest::collection::vec(step_strategy(1700), 0..80),
        ) {
            let mut reference: BTreeSet<u64> = gaps
                .iter()
                .scan(0, |at, gap| { *at += gap; Some(*at) })
                .collect();
            let pool = Arc::new(BufferPool::unbounded());
            let mut t = BTree::from_sorted(pool, "t", cap, reference.iter().map(|&n| key(n))).unwrap();
            prop_assert_eq!(t.len(), reference.len() as u64);
            let want: Vec<Key> = reference.iter().map(|&n| key(n)).collect();
            prop_assert_eq!(checked_keys(&t), want);
            if reference.len() > cap * (cap + 1) {
                prop_assert!(t.height().unwrap() >= 3);
            }
            let walk = |t: &BTree, reference: &BTreeSet<u64>, lo: u64, hi: Option<u64>| {
                let want: Vec<Key> = match hi {
                    Some(hi) if hi <= lo => Vec::new(),
                    Some(hi) => reference.range(lo..hi).map(|&n| key(n)).collect(),
                    None => reference.range(lo..).map(|&n| key(n)).collect(),
                };
                (range(t, key(lo), hi.map(key)), want)
            };
            for &(lo, hi) in &ranges {
                let (got, want) = walk(&t, &reference, lo, hi);
                prop_assert_eq!(got, want, "range {}..{:?}", lo, hi);
            }
            for (at, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Insert(n) => {
                        prop_assert_eq!(t.insert(key(n)).unwrap(), reference.insert(n), "step {} insert {}", at, n);
                    }
                    Step::Remove(n) => {
                        prop_assert_eq!(t.remove(&key(n)).unwrap(), reference.remove(&n), "step {} remove {}", at, n);
                    }
                    Step::Range(lo, hi) => {
                        let (got, want) = walk(&t, &reference, lo, hi);
                        prop_assert_eq!(got, want, "step {} range {}..{:?}", at, lo, hi);
                    }
                }
                prop_assert_eq!(t.len(), reference.len() as u64);
            }
            let want: Vec<Key> = reference.iter().map(|&n| key(n)).collect();
            prop_assert_eq!(checked_keys(&t), want);
        }
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
