//! `RecScoreIndex` — the pre-computed recommendation score index (§IV-C).
//!
//! The paper's structure (Figure 4) is a hash table from user id to a
//! per-user B+-tree keyed by predicted rating, whose leaves point to items
//! in descending score order. Here the whole index is **disk-resident**:
//! one paged [`recdb_storage::BTree`] over a shared [`BufferPool`], so a
//! materialized index far larger than RAM pages in and out of a bounded
//! frame set instead of living in process heap.
//!
//! The tree is keyed `(user, score, item)` with the score (and the
//! tie-breaking item id) encoded *descending*, so an ascending leaf-chain
//! scan of one user's key range yields items from best to worst — exactly
//! Algorithm 3's Phase II/III traversal, and the only order any plan
//! reads. Nothing is stored a second time, and the index is written a
//! user's whole list at a time, in three ways: built whole from every
//! list ([`RecScoreIndex::from_lists`], the tree bulk-built), a
//! materialized user ([`RecScoreIndex::replace_user_list`]) and the
//! Algorithm 4 cache manager's edit of a user
//! ([`RecScoreIndex::edit_user_list`]: one walk, one rewrite). The last
//! two remove the user's key range and enter the new list as one sorted
//! run ([`BTree::insert_run`]). There is no pair-level write: a pair is
//! found by walking its user's key range, O(the user's list), and
//! Algorithm 4 edits a user's pairs together.
//!
//! All three fields use the tree's order-preserving key codec
//! ([`recdb_storage::btree::enc_i64`], [`recdb_storage::btree::enc_f64_asc`]
//! — the same order as [`f64::total_cmp`]), packed into its fixed
//! 24-byte keys. Small per-user metadata (entry counts, the completeness set)
//! stays in memory: it is O(users), not O(users × items).
//!
//! Reads are **lazy**: every read goes through one [`ScoreCursor`], which
//! holds a position in the tree and the keys of the one leaf it read
//! last. Asking for the next entry reads a further leaf only when that
//! batch is used up, so taking a user's top `k` costs one descent plus
//! the leaves that hold those `k` entries — not the user's whole list —
//! and a cursor dropped early has nothing to release.

use recdb_storage::btree::{dec_f64_asc, dec_i64, enc_f64_asc, enc_i64, successor, Key};
use recdb_storage::{BTree, BufferPool, RangeCursor, DEFAULT_NODE_CAPACITY};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tree key `(user↑, score↓, item↓)`: ascending key order scans one
/// user's entries from highest to lowest score, ties by item id
/// descending.
fn fwd_key(user: i64, score: f64, item: i64) -> Key {
    let mut k = [0u8; 24];
    k[..8].copy_from_slice(&enc_i64(user));
    let desc_score = enc_f64_asc(score).map(|b| !b);
    k[8..16].copy_from_slice(&desc_score);
    let desc_item = enc_i64(item).map(|b| !b);
    k[16..].copy_from_slice(&desc_item);
    k
}

/// The 8-byte field of a key starting at byte `at`.
fn field(k: &Key, at: usize) -> [u8; 8] {
    let mut f = [0u8; 8];
    f.copy_from_slice(&k[at..at + 8]);
    f
}

/// `user`'s entries as tree keys in key order: score descending
/// (`total_cmp`), then item descending; an identical key is one entry.
fn user_keys(user: i64, entries: &[(i64, f64)]) -> Vec<Key> {
    let mut keys: Vec<Key> = entries
        .iter()
        .map(|&(item, score)| fwd_key(user, score, item))
        .collect();
    // The keys share their user bytes; the other 16 read as one
    // big-endian integer order them.
    keys.sort_unstable_by_key(|k| {
        u128::from_be_bytes(k[8..].try_into().expect("a key is 8 + 16 bytes"))
    });
    keys.dedup();
    keys
}

/// `[first, past the last)` key of `user`'s prefix: every key the user
/// can own, whatever its score (`None`: to the end of the key space).
fn user_range(user: i64) -> (Key, Option<Key>) {
    let (mut lo, mut last) = ([u8::MIN; 24], [u8::MAX; 24]);
    lo[..8].copy_from_slice(&enc_i64(user));
    last[..8].copy_from_slice(&enc_i64(user));
    (lo, successor(last))
}

fn fwd_decode(k: &Key) -> (i64, i64, f64) {
    let user = dec_i64(field(k, 0));
    let score = dec_f64_asc(field(k, 8).map(|b| !b));
    let item = dec_i64(field(k, 16).map(|b| !b));
    (user, item, score)
}

/// One user's part of an index built whole by
/// [`RecScoreIndex::from_lists`]: the user, its `(item, score)` entries,
/// and whether they are its complete unseen-item list.
pub type UserList = (i64, Vec<(i64, f64)>, bool);

/// The pre-computed score index, paged through a buffer pool.
#[derive(Debug, Clone)]
pub struct RecScoreIndex {
    /// `(user, score↓, item↓)` — the one copy of every entry.
    fwd: BTree,
    /// Materialized entries per user (O(users) memory).
    counts: HashMap<i64, usize>,
    /// Users whose *entire* unseen-item list is materialized. Only these
    /// can serve IndexRecommend top-k queries soundly, and no plan reads
    /// the entries of any other user (Algorithm 4 admits per pair).
    complete: HashSet<i64>,
    entries: usize,
}

/// Pool faults during index maintenance are process-local invariant
/// violations (a corrupt spill file, a failed write-back) —
/// the durable store is never involved, so there is no recovery path
/// short of rebuilding the index. Surface them loudly.
const POOL_FAULT: &str = "RecScoreIndex buffer-pool operation failed";

/// An owned position in the tree: the tree cursor plus the one
/// leaf batch it last read. It borrows nothing, so `IndexRecommendOp`
/// keeps one beside its `Arc<RecScoreIndex>` snapshot and a `LIMIT k`
/// above it stops the leaf walk by simply not asking again.
#[derive(Debug)]
pub struct ScoreCursor {
    range: RangeCursor,
    /// In-range keys of the leaf read last; at most one node's worth.
    leaf: Vec<Key>,
    /// Next entry of `leaf` to hand out.
    pos: usize,
}

impl ScoreCursor {
    fn over(range: RangeCursor) -> Self {
        ScoreCursor {
            range,
            leaf: Vec::new(),
            pos: 0,
        }
    }

    /// A cursor over nothing.
    pub fn empty() -> Self {
        ScoreCursor::over(RangeCursor::empty())
    }
}

impl RecScoreIndex {
    /// An empty index over a private, unbounded in-memory pool.
    pub fn new() -> Self {
        Self::with_pool(Arc::new(BufferPool::unbounded()), DEFAULT_NODE_CAPACITY)
    }

    /// An empty index paged through `pool`. `node_capacity` bounds keys
    /// per tree node (tests shrink it to force splits early).
    pub fn with_pool(pool: Arc<BufferPool>, node_capacity: usize) -> Self {
        let fwd = BTree::create(pool, "rec_index", node_capacity).expect(POOL_FAULT);
        RecScoreIndex {
            fwd,
            counts: HashMap::new(),
            complete: HashSet::new(),
            entries: 0,
        }
    }

    /// The index, paged through `pool`, that holds exactly `lists`: each
    /// [`UserList`] names one user (each user once), the user's `(item,
    /// score)` entries (each item once) and whether they are the user's
    /// whole unseen-item list (an empty complete list keeps the user
    /// complete). Each list is sorted into key order and the lists are
    /// taken by user, so their keys form one ascending set, which gives
    /// the per-user counts and from which the tree is built bottom-up in
    /// one pass ([`BTree::from_sorted`]): the same entries, counts and
    /// completeness set as entering the lists into an empty index, in
    /// fewer, fuller pages.
    pub fn from_lists(
        pool: Arc<BufferPool>,
        node_capacity: usize,
        lists: impl IntoIterator<Item = UserList>,
    ) -> Self {
        let mut lists: Vec<_> = lists.into_iter().collect();
        lists.sort_unstable_by_key(|&(user, _, _)| user);
        let (mut keys, mut counts, mut complete) = (Vec::new(), HashMap::new(), HashSet::new());
        for (user, entries, is_complete) in lists {
            let start = keys.len();
            keys.extend(user_keys(user, &entries));
            if keys.len() > start {
                counts.insert(user, keys.len() - start);
            }
            if is_complete {
                complete.insert(user);
            }
        }
        let entries = keys.len();
        let fwd = BTree::from_sorted(pool, "rec_index", node_capacity, keys).expect(POOL_FAULT);
        RecScoreIndex {
            fwd,
            counts,
            complete,
            entries,
        }
    }

    /// The pool this index pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.fwd.pool()
    }

    /// Node pages the tree has allocated (for sizing diagnostics).
    pub fn node_pages(&self) -> u64 {
        u64::from(self.fwd.node_pages())
    }

    /// Levels of the tree (1 = its root is a leaf): the pool
    /// accesses a top-k read pays before its first leaf. Diagnostic.
    pub fn fwd_height(&self) -> u32 {
        self.fwd.height().expect(POOL_FAULT)
    }

    /// Number of materialized `(user, item, score)` entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of users with at least one materialized entry.
    pub fn user_count(&self) -> usize {
        self.counts.len()
    }

    /// Whether user `u` has any materialized entries.
    pub fn has_user(&self, user: i64) -> bool {
        self.counts.contains_key(&user)
    }

    /// Every `(item, score)` of user `u`, whatever the score: the user's
    /// whole key prefix. [`RecScoreIndex::iter_desc`] without bounds spans
    /// `[-∞, +∞]` and so leaves NaN scores out;
    /// [`RecScoreIndex::edit_user_list`] must see those too.
    fn user_list(&self, user: i64) -> impl Iterator<Item = (i64, f64)> + '_ {
        if !self.has_user(user) {
            return self.walk(ScoreCursor::empty());
        }
        let (lo, hi) = user_range(user);
        self.walk(ScoreCursor::over(RangeCursor::new(lo, hi)))
    }

    /// `cursor`'s remaining `(item, score)` entries.
    fn walk(&self, mut cursor: ScoreCursor) -> impl Iterator<Item = (i64, f64)> + '_ {
        std::iter::from_fn(move || self.next_entry(&mut cursor))
            .map(|(_, item, score)| (item, score))
    }

    /// Whether the user's full unseen-item list is materialized. Set by
    /// [`RecScoreIndex::replace_user_list`] and [`RecScoreIndex::from_lists`],
    /// cleared by any eviction touching the user.
    pub fn is_complete(&self, user: i64) -> bool {
        self.complete.contains(&user)
    }

    /// Replace user `u`'s entire materialized list (each item once) and
    /// mark it complete: the old entries leave in one range removal, and
    /// the new list, sorted into key order, enters as one run
    /// ([`BTree::insert_run`]) — about two descents and one page per node
    /// of entries, not a descent per entry. (A complete list also enters a
    /// whole index built by [`RecScoreIndex::from_lists`].)
    pub fn replace_user_list(&mut self, user: i64, list: &[(i64, f64)]) {
        self.write_user_keys(user, &user_keys(user, list));
        self.complete.insert(user);
    }

    /// Apply one Algorithm 4 decision to `user`'s list: drop the entries
    /// of the items in `evict`, then enter `admit` (an admitted item that
    /// is listed takes its new score). The result — entries, counts and
    /// completeness — is that of removing each evicted pair and then
    /// entering each admitted one, pair by pair (an eviction that finds
    /// its entry clears the user's completeness, admissions leave it as it
    /// is; the unit tests keep that pair-by-pair reference), for one walk
    /// of the list and, if anything changed, one rewrite of it, instead of
    /// a walk per pair. A list holds each item once, as every writer here
    /// keeps it.
    pub fn edit_user_list(&mut self, user: i64, evict: &[i64], admit: &[(i64, f64)]) {
        let old: Vec<(i64, f64)> = self.user_list(user).collect();
        let evict: HashSet<i64> = evict.iter().copied().collect();
        let mut list: Vec<(i64, f64)> = old
            .iter()
            .copied()
            .filter(|(item, _)| !evict.contains(item))
            .collect();
        if list.len() < old.len() {
            self.complete.remove(&user);
        }
        // A later admission of the same item wins, as a later insert does.
        let admit: HashMap<i64, f64> = admit.iter().copied().collect();
        list.retain(|(item, _)| !admit.contains_key(item));
        list.extend(admit);
        let keys = user_keys(user, &list);
        if keys != user_keys(user, &old) {
            self.write_user_keys(user, &keys);
        }
    }

    /// Make `keys` (in key order, all in `user`'s prefix) the user's
    /// entries, its completeness untouched: one range removal of the old
    /// ones, one run for the new.
    fn write_user_keys(&mut self, user: i64, keys: &[Key]) {
        if let Some(old) = self.counts.remove(&user) {
            let (lo, hi) = user_range(user);
            let removed = self.fwd.remove_range(lo, hi).expect(POOL_FAULT);
            debug_assert_eq!(removed, old as u64);
            self.entries -= old;
        }
        self.fwd.insert_run(keys).expect(POOL_FAULT);
        if !keys.is_empty() {
            self.counts.insert(user, keys.len());
        }
        self.entries += keys.len();
    }

    /// A cursor over user `u`'s entries in **descending** score order —
    /// Algorithm 3's Phase II traversal. The optional inclusive score
    /// bounds (the `rPred` rating-value filter) become the key range, so
    /// out-of-bounds entries are never read.
    pub fn cursor_desc(
        &self,
        user: i64,
        min_score: Option<f64>,
        max_score: Option<f64>,
    ) -> ScoreCursor {
        if !self.has_user(user) {
            return ScoreCursor::empty();
        }
        // In the key space the *highest* score sorts first, so the
        // range's low end carries the max bound and vice versa.
        let lo = fwd_key(user, max_score.unwrap_or(f64::INFINITY), i64::MAX);
        let hi = successor(fwd_key(
            user,
            min_score.unwrap_or(f64::NEG_INFINITY),
            i64::MIN,
        ));
        ScoreCursor::over(RangeCursor::new(lo, hi))
    }

    /// The next `(user, item, score)` under `cursor`, reading one more
    /// leaf only when the last one is used up. Every read of the index
    /// goes through here. The cursor must come from this index and the
    /// index must not have been mutated since (readers hold an immutable
    /// snapshot; maintenance copies-on-write).
    pub fn next_entry(&self, cursor: &mut ScoreCursor) -> Option<(i64, i64, f64)> {
        loop {
            if let Some(key) = cursor.leaf.get(cursor.pos) {
                cursor.pos += 1;
                return Some(fwd_decode(key));
            }
            cursor.pos = 0;
            if !self
                .fwd
                .next_batch(&mut cursor.range, &mut cursor.leaf)
                .expect(POOL_FAULT)
            {
                return None;
            }
        }
    }

    /// Iterate a user's `(item, score)` entries in descending score order
    /// ([`RecScoreIndex::cursor_desc`] as an iterator). Lazy: taking `n`
    /// entries reads only the leaves that hold them.
    pub fn iter_desc(
        &self,
        user: i64,
        min_score: Option<f64>,
        max_score: Option<f64>,
    ) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.walk(self.cursor_desc(user, min_score, max_score))
    }

    /// Every user the index holds anything for (arbitrary order): those
    /// with entries, plus complete users whose list is empty because they
    /// have rated every item — a rebuild must carry those forward too.
    pub fn users(&self) -> impl Iterator<Item = i64> + '_ {
        let listless = self
            .complete
            .iter()
            .filter(|user| !self.counts.contains_key(user));
        self.counts.keys().chain(listless).copied()
    }
}

impl Default for RecScoreIndex {
    fn default() -> Self {
        RecScoreIndex::new()
    }
}

/// The pair-by-pair operations, the reference the list writes are tested
/// against. No engine path writes a single pair.
#[cfg(test)]
impl RecScoreIndex {
    /// The materialized score for a pair, if present: a walk of the
    /// user's list, O(its length).
    pub(crate) fn get(&self, user: i64, item: i64) -> Option<f64> {
        self.user_list(user)
            .find(|&(i, _)| i == item)
            .map(|(_, score)| score)
    }

    /// Materialize (or refresh) one entry: a run of one key.
    pub(crate) fn insert(&mut self, user: i64, item: i64, score: f64) {
        match self.get(user, item) {
            Some(old) if old.to_bits() == score.to_bits() => return,
            Some(old) => self.cut(fwd_key(user, old, item)),
            None => {
                *self.counts.entry(user).or_insert(0) += 1;
                self.entries += 1;
            }
        }
        self.fwd
            .insert_run(&[fwd_key(user, score, item)])
            .expect(POOL_FAULT);
    }

    /// Evict one entry; returns whether it was present.
    pub(crate) fn remove(&mut self, user: i64, item: i64) -> bool {
        let Some(score) = self.get(user, item) else {
            return false;
        };
        self.cut(fwd_key(user, score, item));
        self.complete.remove(&user);
        self.entries -= 1;
        match self.counts.get_mut(&user) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.counts.remove(&user);
            }
        }
        true
    }

    /// Remove the one tree key `key`: the range up to its successor.
    fn cut(&mut self, key: Key) {
        let removed = self
            .fwd
            .remove_range(key, successor(key))
            .expect(POOL_FAULT);
        assert_eq!(removed, 1, "the key was in the tree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RecScoreIndex {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 10, 4.5);
        idx.insert(1, 11, 2.0);
        idx.insert(1, 12, 5.0);
        idx.insert(2, 10, 3.0);
        idx
    }

    #[test]
    fn fwd_key_roundtrips_and_orders_descending() {
        let (u, i, s) = fwd_decode(&fwd_key(3, 4.25, -9));
        assert_eq!((u, i, s), (3, -9, 4.25));
        // Higher score sorts first; ties broken by higher item id first.
        assert!(fwd_key(1, 5.0, 2) < fwd_key(1, 4.0, 2));
        assert!(fwd_key(1, 3.0, 8) < fwd_key(1, 3.0, 7));
        // User is the major dimension.
        assert!(fwd_key(1, -10.0, 0) < fwd_key(2, 10.0, 0));
    }

    #[test]
    fn desc_iteration_orders_by_score() {
        let idx = sample();
        let items: Vec<i64> = idx.iter_desc(1, None, None).map(|(i, _)| i).collect();
        assert_eq!(items, vec![12, 10, 11]);
    }

    #[test]
    fn score_range_filter() {
        let idx = sample();
        let items: Vec<i64> = idx
            .iter_desc(1, Some(2.5), Some(4.5))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(items, vec![10], "only 4.5 is within [2.5, 4.5]");
        let items: Vec<i64> = idx.iter_desc(1, Some(2.0), None).map(|(i, _)| i).collect();
        assert_eq!(items, vec![12, 10, 11], "inclusive lower bound");
    }

    #[test]
    fn insert_refreshes_score() {
        let mut idx = sample();
        assert_eq!(idx.len(), 4);
        idx.insert(1, 10, 1.0); // re-score, not a new entry
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.get(1, 10), Some(1.0));
        let items: Vec<i64> = idx.iter_desc(1, None, None).map(|(i, _)| i).collect();
        assert_eq!(items, vec![12, 11, 10]);
    }

    #[test]
    fn remove_evicts_and_cleans_empty_users() {
        let mut idx = sample();
        assert!(idx.remove(2, 10));
        assert!(!idx.has_user(2), "user with no entries disappears");
        assert!(!idx.remove(2, 10), "double eviction is a no-op");
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn missing_user_iterates_empty() {
        let idx = sample();
        assert_eq!(idx.iter_desc(99, None, None).count(), 0);
        assert_eq!(idx.get(99, 1), None);
    }

    #[test]
    fn equal_scores_are_kept_distinct_by_item() {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 7, 3.0);
        idx.insert(1, 8, 3.0);
        assert_eq!(idx.len(), 2);
        let items: Vec<i64> = idx.iter_desc(1, None, None).map(|(i, _)| i).collect();
        assert_eq!(items, vec![8, 7], "ties broken by item id, descending");
    }

    #[test]
    fn negative_ids_and_scores_order_correctly() {
        let mut idx = RecScoreIndex::new();
        idx.insert(-5, -3, -1.5);
        idx.insert(-5, -4, 2.5);
        idx.insert(-5, 6, 0.0);
        let got: Vec<(i64, f64)> = idx.iter_desc(-5, None, None).collect();
        assert_eq!(got, vec![(-4, 2.5), (6, 0.0), (-3, -1.5)]);
        assert_eq!(idx.get(-5, -3), Some(-1.5));
    }

    #[test]
    fn completeness_tracking() {
        let mut idx = sample();
        assert!(!idx.is_complete(1), "pair inserts never complete a list");
        idx.replace_user_list(1, &[(10, 4.5), (11, 2.0), (12, 5.0)]);
        assert!(idx.is_complete(1));
        // Evicting any pair of the user invalidates completeness.
        idx.remove(1, 11);
        assert!(!idx.is_complete(1));
    }

    #[test]
    fn replace_user_list_swaps_and_completes() {
        let mut idx = sample();
        idx.replace_user_list(1, &[(20, 9.0), (21, 8.0)]);
        assert!(idx.is_complete(1));
        let got: Vec<i64> = idx.iter_desc(1, None, None).map(|(i, _)| i).collect();
        assert_eq!(got, vec![20, 21]);
        assert_eq!(idx.len(), 3, "user 2's entry survives");
        idx.replace_user_list(1, &[]);
        assert!(!idx.has_user(1));
        assert_eq!(idx.len(), 1);
        // Complete with nothing left to recommend is still complete, and
        // still a user a rebuild has to carry forward.
        assert!(idx.is_complete(1));
        let mut users: Vec<i64> = idx.users().collect();
        users.sort_unstable();
        assert_eq!(users, vec![1, 2]);
    }

    #[test]
    fn pair_operations_and_replacement_see_nan_scores() {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 7, f64::NAN);
        idx.insert(1, 8, -f64::NAN);
        assert!(idx.get(1, 7).is_some_and(f64::is_nan));
        assert_eq!(idx.iter_desc(1, None, None).count(), 0, "outside [-∞, +∞]");
        idx.insert(1, 7, 2.0);
        assert_eq!(idx.len(), 2, "re-scored in place, not duplicated");
        idx.replace_user_list(1, &[(9, 1.0)]);
        assert_eq!((idx.len(), idx.get(1, 8)), (1, None), "NaN entry drained");
    }

    fn score_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0i64..6).prop_map(|h| h as f64 / 2.0), // few values → many ties
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::NEG_INFINITY),
            any::<f64>(),
        ]
    }

    /// One mutation of the index; `Replace` lists hold each item once, as
    /// the materializer's do.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(i64, i64, f64),
        Remove(i64, i64),
        Replace(i64, Vec<(i64, f64)>),
    }

    /// Half the steps insert, a quarter remove, a quarter replace.
    fn step_strategy() -> impl Strategy<Value = Step> {
        let (user, item) = (-2i64..3, -20i64..40);
        let list = proptest::collection::btree_map(item.clone(), score_strategy(), 0..30);
        (0u8..4, user, item, score_strategy(), list).prop_map(|(kind, u, i, s, list)| match kind {
            0 | 1 => Step::Insert(u, i, s),
            2 => Step::Remove(u, i),
            _ => Step::Replace(u, list.into_iter().collect()),
        })
    }

    proptest! {
        /// Interleaved `insert` / `remove` / `replace_user_list` against a
        /// `HashMap` of the latest score per pair, under a node capacity
        /// of 8 and a 6-frame pool so a user's list spans many leaves and
        /// they get evicted mid-walk. After every step the touched pairs'
        /// `get`, the counters, the completeness set and every prefix
        /// `take(n)` of the touched user's lazy read must agree with the
        /// reference, also after dropping the iterator mid-leaf. Bounds
        /// are key ranges, so the reference filters in
        /// `f64::total_cmp` order (`-0.0` is below a `0.0` bound) and an
        /// unbounded read spans `[-∞, +∞]`, which leaves NaN scores out —
        /// while `get`, `len` and the replacement drain still see them.
        #[test]
        fn lazy_iter_desc_matches_reference_for_every_prefix(
            steps in proptest::collection::vec(step_strategy(), 0..60),
            min in proptest::option::of(score_strategy()),
            max in proptest::option::of(score_strategy()),
        ) {
            let pool = Arc::new(BufferPool::in_memory(6));
            let mut idx = RecScoreIndex::with_pool(Arc::clone(&pool), 8);
            let mut latest: HashMap<(i64, i64), f64> = HashMap::new();
            let mut complete = HashSet::new();
            let (floor, ceil) = (min.unwrap_or(f64::NEG_INFINITY), max.unwrap_or(f64::INFINITY));
            let bits = |list: &[(i64, f64)]| -> Vec<(i64, u64)> {
                list.iter().map(|&(i, s)| (i, s.to_bits())).collect()
            };
            for (at, step) in steps.into_iter().enumerate() {
                let (user, touched): (i64, Vec<i64>) = match step {
                    Step::Insert(u, i, s) => {
                        idx.insert(u, i, s);
                        latest.insert((u, i), s);
                        (u, vec![i])
                    }
                    Step::Remove(u, i) => {
                        let was = latest.remove(&(u, i)).is_some();
                        prop_assert_eq!(idx.remove(u, i), was, "step {}", at);
                        if was {
                            complete.remove(&u);
                        }
                        (u, vec![i])
                    }
                    Step::Replace(u, list) => {
                        idx.replace_user_list(u, &list);
                        latest.retain(|&(owner, _), _| owner != u);
                        latest.extend(list.iter().map(|&(i, s)| ((u, i), s)));
                        complete.insert(u);
                        (u, list.iter().map(|&(i, _)| i).chain([-21]).collect())
                    }
                };
                for item in touched {
                    prop_assert_eq!(
                        idx.get(user, item).map(f64::to_bits),
                        latest.get(&(user, item)).copied().map(f64::to_bits),
                        "step {} get({}, {})", at, user, item
                    );
                }
                prop_assert_eq!(idx.len(), latest.len(), "step {}", at);
                let users: HashSet<i64> = latest.keys().map(|&(u, _)| u).collect();
                prop_assert_eq!(idx.user_count(), users.len(), "step {}", at);
                for u in -2..3 {
                    prop_assert_eq!(idx.is_complete(u), complete.contains(&u), "step {} user {}", at, u);
                }
                let mut want: Vec<(i64, f64)> = latest
                    .iter()
                    .filter(|(&(u, _), s)| u == user && s.total_cmp(&floor).is_ge() && s.total_cmp(&ceil).is_le())
                    .map(|(&(_, i), &s)| (i, s))
                    .collect();
                want.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
                for n in 0..=want.len() + 1 {
                    let mut iter = idx.iter_desc(user, min, max);
                    let got: Vec<(i64, f64)> = iter.by_ref().take(n).collect();
                    prop_assert_eq!(bits(&got), bits(&want[..n.min(want.len())]), "step {} prefix {}", at, n);
                    drop(iter);
                }
            }
        }
    }

    proptest! {
        /// `from_lists` against the same lists entered one by one into an
        /// empty index — complete ones by `replace_user_list`, partial
        /// ones pair by pair — under a node capacity of 4 and a 6-frame
        /// pool: every user's whole list in key order (NaN scores
        /// included), the counters and the completeness set.
        #[test]
        fn bulk_built_index_equals_one_built_by_entry(
            lists in proptest::collection::btree_map(
                -3i64..4,
                (proptest::collection::btree_map(-20i64..40, score_strategy(), 0..30), any::<bool>()),
                0..7,
            ),
        ) {
            let pool = Arc::new(BufferPool::in_memory(6));
            let mut by_entry = RecScoreIndex::with_pool(Arc::clone(&pool), 4);
            for (&user, (entries, complete)) in &lists {
                let entries: Vec<(i64, f64)> = entries.iter().map(|(&i, &s)| (i, s)).collect();
                if *complete {
                    by_entry.replace_user_list(user, &entries);
                } else {
                    for &(item, score) in &entries {
                        by_entry.insert(user, item, score);
                    }
                }
            }
            let bulk = RecScoreIndex::from_lists(
                Arc::clone(&pool),
                4,
                lists.iter().map(|(&user, (entries, complete))| {
                    (user, entries.iter().map(|(&i, &s)| (i, s)).collect(), *complete)
                }),
            );
            let bits = |idx: &RecScoreIndex, user: i64| -> Vec<(i64, u64)> {
                idx.user_list(user).map(|(i, s)| (i, s.to_bits())).collect()
            };
            for user in -3..4 {
                prop_assert_eq!(bits(&bulk, user), bits(&by_entry, user), "user {}", user);
                prop_assert_eq!(bulk.has_user(user), by_entry.has_user(user));
                prop_assert_eq!(bulk.is_complete(user), by_entry.is_complete(user));
            }
            prop_assert_eq!(bulk.len(), by_entry.len());
            prop_assert_eq!(bulk.user_count(), by_entry.user_count());
            prop_assert!(bulk.node_pages() <= by_entry.node_pages());
        }
    }

    /// `replace_user_list` as it was before lists entered as one run: the
    /// old entries removed and the new ones inserted one key at a time.
    fn replace_key_by_key(idx: &mut RecScoreIndex, user: i64, list: &[(i64, f64)]) {
        let old: Vec<(i64, f64)> = idx.user_list(user).collect();
        for &(item, score) in &old {
            idx.cut(fwd_key(user, score, item));
        }
        idx.entries -= old.len();
        idx.counts.remove(&user);
        let mut added = 0;
        for &(item, score) in list {
            idx.fwd.insert_run(&[fwd_key(user, score, item)]).unwrap();
            added += 1;
        }
        if added > 0 {
            idx.counts.insert(user, added);
        }
        idx.entries += added;
        idx.complete.insert(user);
    }

    /// Every user's whole list with score bits, the entry and user
    /// counts, and each user's completeness, for users `-3..4`.
    type Contents = (Vec<Vec<(i64, u64)>>, usize, usize, Vec<bool>);

    fn contents(idx: &RecScoreIndex) -> Contents {
        let lists = (-3..4)
            .map(|u| idx.user_list(u).map(|(i, s)| (i, s.to_bits())).collect())
            .collect();
        let complete = (-3..4).map(|u| idx.is_complete(u)).collect();
        (lists, idx.len(), idx.user_count(), complete)
    }

    fn list_strategy() -> impl Strategy<Value = Vec<(i64, f64)>> {
        proptest::collection::btree_map(-20i64..40, score_strategy(), 0..30)
            .prop_map(|list| list.into_iter().collect())
    }

    proptest! {
        /// Users materialized in any order, some twice, through the run
        /// path, against the same lists entered key by key and against
        /// `from_lists` over each user's last list: every user's whole
        /// list in key order (NaN scores included), the counters and the
        /// completeness set, under a node capacity of 4 and a 6-frame pool.
        #[test]
        fn run_path_equals_from_lists_and_the_per_key_path(
            writes in proptest::collection::vec((-3i64..4, list_strategy()), 0..12),
        ) {
            let pool = Arc::new(BufferPool::in_memory(6));
            let mut run = RecScoreIndex::with_pool(Arc::clone(&pool), 4);
            let mut by_key = RecScoreIndex::with_pool(Arc::clone(&pool), 4);
            let mut last = HashMap::new();
            for (user, list) in &writes {
                run.replace_user_list(*user, list);
                replace_key_by_key(&mut by_key, *user, list);
                last.insert(*user, list.clone());
                prop_assert_eq!(contents(&run), contents(&by_key));
            }
            let bulk = RecScoreIndex::from_lists(
                Arc::clone(&pool),
                4,
                last.into_iter().map(|(user, list)| (user, list, true)),
            );
            prop_assert_eq!(contents(&run), contents(&bulk));
            run.fwd.checked_keys();
        }

        /// One Algorithm 4 edit of a user's list against the same evictions
        /// and admissions applied pair by pair (`remove`s, then `insert`s)
        /// on a copy: partial and complete users, evictions of absent
        /// pairs, an item evicted and readmitted, a repeated admission
        /// (the later one wins), a re-admission at the same score.
        #[test]
        fn one_pass_edit_equals_pair_by_pair(
            lists in proptest::collection::vec((-3i64..4, list_strategy(), any::<bool>()), 0..5),
            user in -3i64..4,
            evict in proptest::collection::vec(-22i64..42, 0..12),
            admit in proptest::collection::vec((-22i64..42, score_strategy()), 0..12),
            readmit in any::<bool>(),
        ) {
            let pool = Arc::new(BufferPool::in_memory(6));
            let mut idx = RecScoreIndex::with_pool(Arc::clone(&pool), 4);
            for (u, list, complete) in &lists {
                if *complete {
                    idx.replace_user_list(*u, list);
                } else {
                    for &(item, score) in list {
                        idx.insert(*u, item, score);
                    }
                }
            }
            let mut admit = admit;
            if readmit {
                // Readmit an evicted item, and one at its current score.
                admit.extend(evict.first().map(|&item| (item, 1.5)));
                admit.extend(idx.user_list(user).next());
            }
            let mut pairwise = idx.clone();
            for &item in &evict {
                pairwise.remove(user, item);
            }
            for &(item, score) in &admit {
                pairwise.insert(user, item, score);
            }
            idx.edit_user_list(user, &evict, &admit);
            prop_assert_eq!(contents(&idx), contents(&pairwise));
            idx.fwd.checked_keys();
        }
    }

    #[test]
    fn works_under_a_tiny_shared_pool() {
        // The tree pages through 6 frames; the dataset spans far more
        // node pages than that, so iteration exercises real eviction.
        let pool = Arc::new(BufferPool::in_memory(6));
        let mut idx = RecScoreIndex::with_pool(Arc::clone(&pool), 8);
        for user in 0..20 {
            for item in 0..50 {
                idx.insert(user, item, (item % 11) as f64 - (user % 3) as f64);
            }
        }
        assert_eq!(idx.len(), 20 * 50);
        assert!(pool.evictions() > 0, "tiny pool must evict");
        for user in 0..20 {
            let scores: Vec<f64> = idx.iter_desc(user, None, None).map(|(_, s)| s).collect();
            assert_eq!(scores.len(), 50);
            assert!(scores.windows(2).all(|w| w[0] >= w[1]), "descending");
        }
    }
}
