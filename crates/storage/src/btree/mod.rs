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
//!   needs no separate superblock — a root that splits moves to a fresh
//!   page, and page 0 becomes the branch above it;
//! * **every insert is a sorted run** that falls into a gap of the tree
//!   ([`BTree::insert_run`]; one key is a run of one). A run shorter than
//!   a node that fits the leaf it lands in is spliced into that leaf in
//!   place. Any other run rewrites the leaf with the run spliced in as
//!   full leaves, and the splits that causes are planned bottom-up before
//!   any node is written, so an injected failure at the
//!   `storage::btree_split` fail point leaves the tree as it was;
//! * **every delete is a key range** ([`BTree::remove_range`]; one key is
//!   the range up to its [`successor`]), and deletes do not rebalance
//!   (like PostgreSQL's `nbtree`, which only reclaims fully-empty pages).
//!   Empty leaves stay in the chain and are skipped by scans (a run
//!   inserted into their range fills them again); a rebuilt index
//!   replaces its tree wholesale instead.
//!
//! Node fan-out is configurable (`max_keys`), clamped to what fits one
//! block. Production trees use [`DEFAULT_NODE_CAPACITY`]; tests shrink it
//! to force deep trees and splits from tiny datasets.

pub mod node;

use crate::error::StorageResult;
use crate::pool::{BufferPool, FileId, FileKind, FrameData};
use node::Node;
pub use node::{Key, KEY_SIZE, MAX_BRANCH_KEYS, MAX_LEAF_KEYS, NO_PAGE};
use std::ops::ControlFlow;
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
        let root = stack_levels(level, cap, |node| tree.allocate(node))?;
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

    /// Insert the strictly ascending `keys` as one run; this is the tree's
    /// only insert (one key is a run of one). A run shorter than
    /// `max_keys` first descends to the leaf where its first key lands,
    /// reading one node per level, and if the run fits that leaf and lies
    /// below the separator on its right, it is spliced in there: one pool
    /// access per level, and the leaf is the one page written.
    ///
    /// Any other run costs about two descents' worth of pool accesses plus
    /// one page written per `max_keys` keys, instead of a descent per key.
    /// It descends once, to the leaf where its first key lands. That
    /// leaf's keys below the run, the run and the leaf's keys above it are
    /// written left to right as full leaves (`max_keys` each, as
    /// [`BTree::from_sorted`] writes them), except that the last two share
    /// the rest evenly: a leaf that overflows by one key splits in half.
    /// The first leaf goes into the leaf's own page,
    /// the others into fresh pages chained after it. Their
    /// separators enter the branch above, which splits into as few nodes
    /// as hold its children, spread evenly, when they overflow it, and so
    /// on up to the root, which stays page 0: a root that overflows moves
    /// to a fresh page under a new root, and every leaf stays at one
    /// depth. Where the run spans separators left by removed keys (see
    /// [`BTree::remove_range`]), its keys go to the emptied leaves between
    /// them, each leaf's share written the same way.
    ///
    /// Every node the run changes is computed before any is written, and
    /// each split evaluates the `storage::btree_split` fail point while
    /// nothing is written yet: an injected failure returns with the tree
    /// as it was.
    ///
    /// # Panics
    ///
    /// If `keys` is not strictly ascending, or if a key of the tree lies
    /// between its first and last key (inclusive): a key already in the
    /// tree is a caller's bug.
    pub fn insert_run(&mut self, keys: &[Key]) -> StorageResult<()> {
        let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
            return Ok(());
        };
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "BTree::insert_run: keys must be strictly ascending"
        );
        if keys.len() < self.max_keys && self.splice_into_leaf(keys)? {
            self.len += keys.len() as u64;
            return Ok(());
        }
        let mut plan = RunPlan {
            first,
            last,
            base: self.node_pages(),
            fresh: Vec::new(),
            rewrites: Vec::new(),
        };
        let siblings = self.plan_run(ROOT_PAGE, keys, &mut plan)?;
        if !siblings.is_empty() {
            // The root split: its planned contents move to a fresh page
            // and page 0 becomes the branch (levels) above them.
            recdb_fault::fail_point("storage::btree_split")?;
            let (page, root) = plan.rewrites.pop().expect("the root is planned last");
            debug_assert_eq!(page, ROOT_PAGE);
            let mut level = vec![(first, plan.place(root))];
            level.extend(siblings);
            let root = stack_levels(level, self.max_keys, |node| Ok(plan.place(node)))?;
            plan.rewrites.push((ROOT_PAGE, root));
        }
        for (at, node) in plan.fresh.into_iter().enumerate() {
            let page = self.allocate(node)?;
            debug_assert_eq!(page, plan.base + at as u32);
        }
        for (page, node) in plan.rewrites {
            self.pool.with_node_mut(self.file, page, |n| *n = node)?;
        }
        self.len += keys.len() as u64;
        Ok(())
    }

    /// Splice `keys` into the leaf where they land, in place, if they fit
    /// it and lie below the separator on its right: one pool access per
    /// level, the leaf the only page written. Returns whether it did; if
    /// not, nothing was written. A key of the leaf inside the run is left
    /// for [`BTree::plan_run`] to report.
    fn splice_into_leaf(&self, keys: &[Key]) -> StorageResult<bool> {
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        let mut page = ROOT_PAGE;
        loop {
            let step = self.pool.edit_node(self.file, page, |n| {
                if !n.is_leaf {
                    let i = n.keys.partition_point(|k| *k <= first);
                    // A run that reaches the next separator spans two children.
                    if n.keys.get(i).is_some_and(|sep| *sep <= last) {
                        return (ControlFlow::Break(false), false);
                    }
                    return (ControlFlow::Continue(n.children[i]), false);
                }
                let at = n.keys.partition_point(|k| *k < first);
                let fits = n.keys.len() + keys.len() <= self.max_keys
                    && n.keys.get(at).is_none_or(|k| *k > last);
                if fits {
                    n.keys.splice(at..at, keys.iter().copied());
                }
                (ControlFlow::Break(fits), fits)
            })?;
            match step {
                ControlFlow::Continue(child) => page = child,
                ControlFlow::Break(spliced) => return Ok(spliced),
            }
        }
    }

    /// Plan the part of `plan`'s run that falls under `page`: `keys` are
    /// the run's keys inside the page's key range (none for a node the run
    /// only spans, which is read to check that it holds no key inside the
    /// run). Returns the `(first key, page)` of each fresh node that now
    /// follows `page` at its level, for the level above to take in.
    fn plan_run(
        &self,
        page: u32,
        keys: &[Key],
        plan: &mut RunPlan,
    ) -> StorageResult<Vec<(Key, u32)>> {
        let node = self.pool.with_node(self.file, page, Node::clone)?;
        let (first, last) = (plan.first, plan.last);
        let cap = self.max_keys;
        if node.is_leaf {
            let at = node.keys.partition_point(|k| *k < first);
            assert!(
                node.keys.get(at).is_none_or(|k| *k > last),
                "BTree::insert_run: the tree holds a key inside the run"
            );
            if keys.is_empty() {
                return Ok(Vec::new());
            }
            let mut merged = node.keys;
            merged.splice(at..at, keys.iter().copied());
            let leaves = merged.len().div_ceil(cap);
            if leaves > 1 {
                recdb_fault::fail_point("storage::btree_split")?;
            }
            // Full leaves, except that the last two share what is left
            // evenly: a leaf a few keys over capacity splits in half, not
            // into a full leaf and a near-empty one.
            let full = leaves.saturating_sub(2) * cap;
            let chunks = merged[..full]
                .chunks(cap)
                .chain(spread(&merged[full..], cap));
            // Leaf `j > 0` lands on fresh page `next_fresh + j - 1`.
            let next_fresh = plan.base + plan.fresh.len() as u32;
            let mut siblings = Vec::with_capacity(leaves - 1);
            for (j, chunk) in chunks.enumerate() {
                let leaf = Node {
                    keys: chunk.to_vec(),
                    next: if j + 1 < leaves {
                        next_fresh + j as u32
                    } else {
                        node.next
                    },
                    ..Node::leaf()
                };
                if j == 0 {
                    plan.rewrites.push((page, leaf));
                } else {
                    siblings.push((chunk[0], plan.place(leaf)));
                }
            }
            return Ok(siblings);
        }
        // The children the run spans: from the one `first` descends to
        // through the one `last` does.
        let spanned =
            node.keys.partition_point(|k| *k <= first)..=node.keys.partition_point(|k| *k <= last);
        // `(separator on its left, page)` of every child, each spanned
        // child followed by what it split into. The first child has no
        // separator; its slot is never read.
        let mut level = Vec::with_capacity(node.children.len());
        let mut rest = keys;
        for (i, &child) in node.children.iter().enumerate() {
            level.push((if i == 0 { first } else { node.keys[i - 1] }, child));
            if spanned.contains(&i) {
                let take = node
                    .keys
                    .get(i)
                    .map_or(rest.len(), |sep| rest.partition_point(|k| k < sep));
                let (share, tail) = rest.split_at(take);
                rest = tail;
                level.extend(self.plan_run(child, share, plan)?);
            }
        }
        if level.len() == node.children.len() {
            return Ok(Vec::new());
        }
        if level.len() <= cap + 1 {
            plan.rewrites.push((page, branch_over(&level)));
            return Ok(Vec::new());
        }
        recdb_fault::fail_point("storage::btree_split")?;
        let mut groups = spread(&level, cap + 1);
        let own = groups.next().expect("an overfull branch has children");
        plan.rewrites.push((page, branch_over(own)));
        Ok(groups
            .map(|group| (group[0].0, plan.place(branch_over(group))))
            .collect())
    }

    /// Remove every key in `[lo, hi)` (`hi = None`: to the end) and return
    /// how many there were; this is the tree's only delete (one key `k` is
    /// the range `[k, successor(k))`). One descent to `lo`'s leaf, then
    /// one access per leaf along the chain, each leaf losing keys written
    /// in the access that reads it (a node left as it was is not
    /// dirtied). No rebalance: emptied leaves stay in the chain, and a
    /// later [`BTree::insert_run`] into their range fills them.
    pub fn remove_range(&mut self, lo: Key, hi: Option<Key>) -> StorageResult<u64> {
        if hi.is_some_and(|hi| hi <= lo) {
            return Ok(0);
        }
        let (mut page, mut removed) = (ROOT_PAGE, 0u64);
        while page != NO_PAGE {
            let (gone, next) = self.pool.edit_node(self.file, page, |n| {
                if !n.is_leaf {
                    let child = n.children[n.keys.partition_point(|k| *k <= lo)];
                    return ((0, child), false);
                }
                let start = n.keys.partition_point(|k| *k < lo);
                // Scanned, not searched: the drain moves every key past
                // `start` anyway, and a short range ends a key or two on.
                let end = hi
                    .and_then(|hi| n.keys[start..].iter().position(|k| *k >= hi))
                    .map_or(n.keys.len(), |gone| start + gone);
                let next = if end < n.keys.len() { NO_PAGE } else { n.next };
                drop(n.keys.drain(start..end));
                ((end - start, next), end > start)
            })?;
            removed += gone as u64;
            page = next;
        }
        self.len -= removed;
        Ok(removed)
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

    /// Check the tree's shape and return its keys in leaf-chain order:
    /// every node within `max_keys`, keys strictly ascending in every node
    /// and inside the bounds its parent's separators set (a child holds
    /// the keys `>=` the separator on its left and `<` the one on its
    /// right), every leaf at the same depth, and the leaf chain visiting
    /// exactly the leaves left to right before it ends. A diagnostic for
    /// tests: it reads every node.
    ///
    /// # Panics
    ///
    /// On the first broken invariant, naming the page, or a pool error.
    pub fn checked_keys(&self) -> Vec<Key> {
        // (page, depth, low bound, high bound) still to visit, leftmost last.
        let mut stack = vec![(ROOT_PAGE, 1u32, None::<Key>, None::<Key>)];
        let (mut leaves, mut depth) = (Vec::new(), None);
        let read = |page: u32| {
            self.pool
                .with_node(self.file, page, Node::clone)
                .expect("reading a node to check it")
        };
        while let Some((page, d, lo, hi)) = stack.pop() {
            let node = read(page);
            assert!(node.keys.len() <= self.max_keys, "page {page} overfull");
            assert!(
                node.keys.windows(2).all(|w| w[0] < w[1]),
                "page {page} unsorted"
            );
            assert!(
                node.keys
                    .iter()
                    .all(|k| lo.is_none_or(|lo| lo <= *k) && hi.is_none_or(|hi| *k < hi)),
                "page {page} holds a key outside its parent's bounds"
            );
            if node.is_leaf {
                assert_eq!(*depth.get_or_insert(d), d, "leaf {page} at another depth");
                leaves.push(page);
                continue;
            }
            assert_eq!(node.children.len(), node.keys.len() + 1, "branch {page}");
            for (i, &child) in node.children.iter().enumerate().rev() {
                let lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let hi = node.keys.get(i).copied().or(hi);
                stack.push((child, d + 1, lo, hi));
            }
        }
        assert_eq!(depth, Some(self.height().expect("reading the height")));
        let (mut keys, mut page) = (Vec::new(), leaves[0]);
        for (at, &want) in leaves.iter().enumerate() {
            assert_eq!(page, want, "chain leaves the tree order at leaf {at}");
            let leaf = read(page);
            keys.extend(leaf.keys);
            page = leaf.next;
        }
        assert_eq!(page, NO_PAGE, "chain runs past the last leaf");
        assert_eq!(
            keys.len() as u64,
            self.len,
            "len() disagrees with the leaves"
        );
        keys
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

/// The root over `level`, the `(first key, page)` of each node of one
/// level in key order: branch levels are stacked on it, each spreading
/// the level below evenly over as few nodes as hold it (`place` writes a
/// node and returns its page), until one node holds a level.
fn stack_levels(
    mut level: Vec<(Key, u32)>,
    max_keys: usize,
    mut place: impl FnMut(Node) -> StorageResult<u32>,
) -> StorageResult<Node> {
    while level.len() > max_keys + 1 {
        level = spread(&level, max_keys + 1)
            .map(|group| Ok((group[0].0, place(branch_over(group))?)))
            .collect::<StorageResult<_>>()?;
    }
    Ok(branch_over(&level))
}

/// `items` cut into as few consecutive groups of at most `max` as hold
/// them, their sizes differing by at most one.
fn spread<T>(items: &[T], max: usize) -> impl Iterator<Item = &[T]> {
    let groups = items.len().div_ceil(max);
    let (base, extra) = (items.len() / groups, items.len() % groups);
    let mut rest = items;
    (0..groups).map(move |i| {
        let (group, tail) = rest.split_at(base + usize::from(i < extra));
        rest = tail;
        group
    })
}

/// What [`BTree::insert_run`] will write: nodes for fresh pages, and new
/// contents for existing ones, children before parents.
struct RunPlan {
    /// The run's first and last key.
    first: Key,
    last: Key,
    /// The page the first fresh node will be allocated as.
    base: u32,
    fresh: Vec<Node>,
    rewrites: Vec<(u32, Node)>,
}

impl RunPlan {
    /// Plan `node` onto the next fresh page and return that page.
    fn place(&mut self, node: Node) -> u32 {
        self.fresh.push(node);
        self.base + self.fresh.len() as u32 - 1
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

    /// Insert `key(n)` as a run of one key.
    fn put(t: &mut BTree, n: u64) {
        t.insert_run(&[key(n)]).unwrap();
    }

    /// Remove `key(n)` as the range of one key: whether it was there.
    fn cut(t: &mut BTree, n: u64) -> bool {
        t.remove_range(key(n), successor(key(n))).unwrap() == 1
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = small_tree(4);
        for n in 0..100 {
            put(&mut t, n);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.keys().unwrap(), (0..100).map(key).collect::<Vec<_>>());
        assert!(cut(&mut t, 30));
        assert!(!cut(&mut t, 30));
        assert!(!t.keys().unwrap().contains(&key(30)));
        assert_eq!(t.len(), 99);
    }

    #[test]
    #[should_panic(expected = "inside the run")]
    fn inserting_a_key_the_tree_holds_panics() {
        let mut t = small_tree(4);
        for n in 0..100 {
            put(&mut t, n);
        }
        put(&mut t, 50);
    }

    #[test]
    fn a_one_key_run_into_a_leaf_with_room_writes_only_that_leaf() {
        // Full leaves of 8 over 0, 10, …, 1990 behind a 3-frame pool, and
        // room made in the leaf of 480..550 by removing 500.
        let pool = Arc::new(BufferPool::in_memory(3));
        let keys = (0..200).map(|n| key(n * 10));
        let mut t = BTree::from_sorted(Arc::clone(&pool), "t", 8, keys).unwrap();
        assert!(cut(&mut t, 500));
        let height = u64::from(t.height().unwrap());
        assert_eq!(height, 3);
        let accesses = || pool.hits() + pool.misses();
        // A walk of every leaf writes every dirty page back: the pages
        // left resident were read back clean.
        let clean = |t: &BTree| {
            t.keys().unwrap();
            assert_eq!(pool.dirty_pages(), 0);
        };
        clean(&t);
        let before = accesses();
        put(&mut t, 505);
        assert_eq!(accesses() - before, height, "one access per level");
        assert_eq!(pool.dirty_pages(), 1, "the leaf is the one page written");
        clean(&t);
        let before = accesses();
        assert!(cut(&mut t, 520));
        assert_eq!(accesses() - before, height, "one access per level");
        assert_eq!(pool.dirty_pages(), 1, "the leaf is the one page written");
        let mut want: Vec<u64> = (0..200)
            .map(|n| n * 10)
            .filter(|&n| n != 500 && n != 520)
            .collect();
        want.push(505);
        want.sort_unstable();
        assert_eq!(
            t.checked_keys(),
            want.into_iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn keys_come_back_sorted_regardless_of_insert_order() {
        let mut t = small_tree(4);
        // Insert in a scrambled deterministic order.
        for n in 0..500u64 {
            put(&mut t, (n * 331) % 500);
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
            put(&mut t, n);
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
            put(&mut t, n);
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
            put(&mut t, n);
        }
        // Hollow out the middle: leaves there become empty but stay chained.
        for n in 20..80 {
            assert!(cut(&mut t, n));
        }
        let keys = t.keys().unwrap();
        let expected: Vec<Key> = (0..20).chain(80..100).map(key).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn clone_is_deep_and_equal() {
        let mut t = small_tree(6);
        for n in 0..150 {
            put(&mut t, n * 3);
        }
        let mut c = t.clone();
        assert_eq!(c.keys().unwrap(), t.keys().unwrap());
        put(&mut c, 1);
        assert!(!t.keys().unwrap().contains(&key(1)), "clone shares state");
    }

    #[test]
    fn bulk_build_fills_its_leaves() {
        // 81,174 keys: 318 leaves of up to 256, two branches, the root.
        let pool = Arc::new(BufferPool::unbounded());
        let t = BTree::from_sorted(pool, "t", 256, (0..81_174).map(key)).unwrap();
        assert_eq!(t.len(), 81_174);
        assert_eq!((t.node_pages(), t.height().unwrap()), (321, 3));
        assert_eq!(t.checked_keys(), (0..81_174).map(key).collect::<Vec<_>>());
        // A clone is bulk-built too.
        let c = t.clone();
        assert_eq!((c.node_pages(), c.len()), (321, 81_174));
        assert_eq!(c.checked_keys(), t.checked_keys());
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
            prop_assert_eq!(t.checked_keys(), want);
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
                        if reference.insert(n) {
                            put(&mut t, n);
                        }
                    }
                    Step::Remove(n) => {
                        prop_assert_eq!(cut(&mut t, n), reference.remove(&n), "step {} remove {}", at, n);
                    }
                    Step::Range(lo, hi) => {
                        let (got, want) = walk(&t, &reference, lo, hi);
                        prop_assert_eq!(got, want, "step {} range {}..{:?}", at, lo, hi);
                    }
                }
                prop_assert_eq!(t.len(), reference.len() as u64);
            }
            let want: Vec<Key> = reference.iter().map(|&n| key(n)).collect();
            prop_assert_eq!(t.checked_keys(), want);
        }
    }

    /// Keys `from, from + stride, …` (`len` of them), cut short before
    /// the first key of `reference` at or past `from`: a run that fits
    /// the gap it starts in (none if `from` is taken).
    fn gap_run(reference: &BTreeSet<u64>, from: u64, len: usize, stride: u64) -> Vec<u64> {
        let end = reference.range(from..).next().copied().unwrap_or(u64::MAX);
        (0..len as u64)
            .map(|j| from + j * stride)
            .take_while(|&n| n < end)
            .collect()
    }

    #[test]
    fn insert_run_lands_anywhere_in_a_leaf() {
        // Capacity 4 over 1000, 2000, …, 40000: leaves of four keys,
        // three levels. Runs of 1 key, one leaf, two levels' and three
        // levels' worth go into an empty tree, a root leaf, before the
        // first key, between two keys of a leaf, after a leaf's last key
        // (before the next leaf's separator) and after the last key.
        let capacity_runs = [1usize, 4, 4 * 5 + 1, 4 * 5 * 5 + 1];
        let trees: [&[u64]; 3] = [&[], &[1000, 40_000], &[]];
        for (shape, base) in trees.iter().enumerate() {
            for len in capacity_runs {
                for from in [1, 2001, 8001, 40_001] {
                    let keys: Vec<u64> = if shape == 2 {
                        (1..=40).map(|n| n * 1000).collect()
                    } else {
                        base.to_vec()
                    };
                    let mut reference: BTreeSet<u64> = keys.iter().copied().collect();
                    let pool = Arc::new(BufferPool::unbounded());
                    let mut t =
                        BTree::from_sorted(pool, "t", 4, keys.iter().map(|&n| key(n))).unwrap();
                    let run = gap_run(&reference, from, len, 1);
                    assert_eq!(run.len(), len.min(999), "{shape} {from} {len}");
                    t.insert_run(&run.iter().map(|&n| key(n)).collect::<Vec<_>>())
                        .unwrap();
                    reference.extend(&run);
                    let want: Vec<Key> = reference.iter().map(|&n| key(n)).collect();
                    assert_eq!(
                        t.checked_keys(),
                        want,
                        "tree {shape}, run of {len} at {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_run_writes_full_leaves_in_about_two_descents() {
        // 64 runs of 1,560 keys in ascending order, as a set-up
        // materializes 64 users: each run costs its descent and the
        // rewrites above it, not a descent per key, and its leaves are
        // full but for the last two, which share the rest evenly. The
        // next run fills the last; the other is left at least half full,
        // so the tree holds at most half a leaf per run more than one
        // built from the same keys.
        let pool = Arc::new(BufferPool::unbounded());
        let mut t = BTree::create(Arc::clone(&pool), "t", 256).unwrap();
        let accesses = || pool.hits() + pool.misses();
        let before = accesses();
        for user in 0..64u64 {
            let run: Vec<Key> = (0..1560).map(|n| key(user * 10_000 + n)).collect();
            t.insert_run(&run).unwrap();
        }
        let per_run = (accesses() - before) as f64 / 64.0;
        assert!(per_run <= 6.0, "{per_run} pool accesses per run");
        let bulk = BTree::from_sorted(Arc::clone(&pool), "b", 256, t.keys().unwrap()).unwrap();
        assert_eq!(t.checked_keys(), bulk.checked_keys());
        assert!(
            t.node_pages() <= bulk.node_pages() + 64 / 2 + 1,
            "{} pages against {} bulk-built",
            t.node_pages(),
            bulk.node_pages()
        );
    }

    #[test]
    fn rewriting_a_growing_prefix_adds_pages_with_its_keys_not_its_edits() {
        // 16 prefixes of 40 keys, bulk-built into full leaves at capacity
        // 8. Each round rewrites every prefix with one key more, as a
        // growing list edit does (`remove_range`, then `insert_run`), the
        // new key landing near the front of the prefix's first leaf every
        // time. Each overflow splits that leaf in half, so a prefix costs
        // a page per cap / 2 keys it gains, as the same keys inserted one
        // by one do; splitting off a one-key leaf instead would leave the
        // first leaf full and cost a page per edit (173 pages here, not
        // 76).
        const CAP: usize = 8;
        const PREFIXES: u64 = 16;
        const ROUNDS: u64 = 16;
        let base = |p: u64| (0..40).map(move |n| p * 1000 + n * 20);
        let keys = (0..PREFIXES).flat_map(base).map(key);
        let mut t = BTree::from_sorted(Arc::new(BufferPool::unbounded()), "t", CAP, keys).unwrap();
        let mut by_key = t.clone();
        let before = t.node_pages();
        for round in 0..ROUNDS {
            for p in 0..PREFIXES {
                let (lo, hi) = (key(p * 1000), Some(key((p + 1) * 1000)));
                let mut prefix = range(&t, lo, hi);
                assert_eq!(t.remove_range(lo, hi).unwrap(), prefix.len() as u64);
                let new = key(p * 1000 + 1 + round);
                prefix.push(new);
                prefix.sort_unstable();
                t.insert_run(&prefix).unwrap();
                by_key.insert_run(&[new]).unwrap();
            }
        }
        assert_eq!(t.checked_keys(), by_key.checked_keys());
        let (grown, by_key_grown) = (t.node_pages() - before, by_key.node_pages() - before);
        let added = (PREFIXES * ROUNDS) as u32;
        assert!(
            grown <= by_key_grown + 2,
            "{grown} pages added by rewrites against {by_key_grown} by single inserts"
        );
        // A leaf page per cap / 2 keys, and one branch page per four leaves.
        assert!(
            grown <= added / (CAP as u32 / 2) * 5 / 4,
            "{grown} pages added for {added} keys"
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn insert_run_rejects_unsorted_keys() {
        small_tree(4).insert_run(&[key(3), key(1)]).unwrap();
    }

    #[test]
    #[should_panic(expected = "inside the run")]
    fn insert_run_rejects_a_run_over_a_key_of_the_tree() {
        let pool = Arc::new(BufferPool::unbounded());
        let mut t = BTree::from_sorted(pool, "t", 4, (0..100).map(|n| key(n * 10))).unwrap();
        // 505 is free, but 510 lies between the run's ends.
        t.insert_run(&[key(505), key(515)]).unwrap();
    }

    #[test]
    #[should_panic(expected = "inside the run")]
    fn insert_run_rejects_a_run_over_a_key_in_another_leaf() {
        let pool = Arc::new(BufferPool::unbounded());
        let mut t = BTree::from_sorted(pool, "t", 4, (0..100).map(|n| key(n * 10))).unwrap();
        // The run's first key lands in the leaf ending at 30; 40 (the
        // next leaf's first key) and everything to 290 lie inside it.
        t.insert_run(&[key(35), key(295)]).unwrap();
    }

    #[test]
    fn remove_range_empties_leaves_that_a_run_fills_again() {
        let pool = Arc::new(BufferPool::unbounded());
        let mut t = BTree::from_sorted(pool, "t", 4, (0..200).map(|n| key(n * 10))).unwrap();
        let pages = t.node_pages();
        assert_eq!(t.remove_range(key(300), Some(key(1500))).unwrap(), 120);
        assert_eq!(t.remove_range(key(300), Some(key(1500))).unwrap(), 0);
        assert_eq!(t.len(), 80);
        // The new run spans the separators the removed keys left: its
        // keys go to the emptied leaves, not to fresh pages.
        let run: Vec<Key> = (0..120).map(|n| key(300 + n * 10 + 5)).collect();
        t.insert_run(&run).unwrap();
        let mut want: Vec<u64> = (0..30).chain(150..200).map(|n| n * 10).collect();
        want.extend((0..120).map(|n| 300 + n * 10 + 5));
        want.sort_unstable();
        assert_eq!(
            t.checked_keys(),
            want.into_iter().map(key).collect::<Vec<_>>()
        );
        assert!(t.node_pages() <= pages + 4, "{} pages", t.node_pages());
        assert_eq!(t.remove_range(key(0), None).unwrap(), 200);
        assert!(t.checked_keys().is_empty());
    }

    /// What a step of the run proptest does to the tree and the set.
    #[derive(Debug, Clone)]
    enum RunStep {
        One(Step),
        /// A run of up to `len` keys `stride` apart from `from`, cut to
        /// the gap it starts in.
        Run {
            from: u64,
            len: usize,
            stride: u64,
        },
        /// `remove_range` over `[lo, lo + width)`.
        RemoveRange {
            lo: u64,
            width: u64,
        },
    }

    fn run_step_strategy(span: u64) -> impl Strategy<Value = RunStep> {
        // Runs of 1 key, one leaf, two levels' and three levels' worth at
        // capacity 4, or anything up to 150.
        let len = prop_oneof![Just(1usize), Just(4), Just(21), Just(101), 1..150usize];
        prop_oneof![
            step_strategy(span).prop_map(RunStep::One),
            (0..span, len, 1u64..4).prop_map(|(from, len, stride)| RunStep::Run {
                from,
                len,
                stride
            }),
            (0..span, 0u64..200).prop_map(|(lo, width)| RunStep::RemoveRange { lo, width }),
        ]
    }

    proptest! {
        /// Runs that respect the gap they start in, interleaved with
        /// single inserts, removes, range removes and range walks, on a
        /// tree (capacity 4, 5 or 8; empty, a root leaf or bulk-built) and
        /// on a `BTreeSet`: after every step the tree's shape holds (see
        /// `checked_keys`) and its keys are the set's.
        #[test]
        fn insert_run_equals_a_btreeset(
            (cap, gaps) in bulk_case(),
            steps in proptest::collection::vec(run_step_strategy(1700), 0..40),
        ) {
            let mut reference: BTreeSet<u64> = gaps
                .iter()
                .scan(0, |at, gap| { *at += gap * 4; Some(*at) })
                .collect();
            let pool = Arc::new(BufferPool::unbounded());
            let mut t = BTree::from_sorted(pool, "t", cap, reference.iter().map(|&n| key(n))).unwrap();
            for (at, step) in steps.into_iter().enumerate() {
                match step {
                    RunStep::One(Step::Insert(n)) => {
                        if reference.insert(n) {
                            put(&mut t, n);
                        }
                    }
                    RunStep::One(Step::Remove(n)) => {
                        prop_assert_eq!(cut(&mut t, n), reference.remove(&n), "step {} remove {}", at, n);
                    }
                    RunStep::One(Step::Range(lo, hi)) => {
                        let want: Vec<Key> = match hi {
                            Some(hi) if hi <= lo => Vec::new(),
                            Some(hi) => reference.range(lo..hi).map(|&n| key(n)).collect(),
                            None => reference.range(lo..).map(|&n| key(n)).collect(),
                        };
                        prop_assert_eq!(range(&t, key(lo), hi.map(key)), want, "step {} range", at);
                    }
                    RunStep::Run { from, len, stride } => {
                        let run = gap_run(&reference, from, len, stride);
                        t.insert_run(&run.iter().map(|&n| key(n)).collect::<Vec<_>>()).unwrap();
                        reference.extend(run);
                    }
                    RunStep::RemoveRange { lo, width } => {
                        let gone: Vec<u64> = reference.range(lo..lo + width).copied().collect();
                        let removed = t.remove_range(key(lo), Some(key(lo + width))).unwrap();
                        prop_assert_eq!(removed, gone.len() as u64, "step {} remove_range", at);
                        for n in gone {
                            reference.remove(&n);
                        }
                    }
                }
                let want: Vec<Key> = reference.iter().map(|&n| key(n)).collect();
                prop_assert_eq!(t.checked_keys(), want, "step {}", at);
            }
        }
    }

    #[test]
    fn works_under_a_tiny_pool() {
        let pool = Arc::new(BufferPool::in_memory(4));
        let mut t = BTree::create(Arc::clone(&pool), "t", 8).unwrap();
        for n in 0..2000 {
            put(&mut t, (n * 7919) % 2000);
        }
        assert_eq!(t.len(), 2000);
        assert!(pool.evictions() > 0, "a 4-frame pool must evict");
        let keys = t.keys().unwrap();
        assert_eq!(keys.len(), 2000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
