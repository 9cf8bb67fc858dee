//! The recommendation-aware operator family (§IV).
//!
//! * [`RecommendOp`] — Algorithms 1/2: score user/item pairs from the
//!   trained model. With uid/iid/ratingval predicates pushed into it, it is
//!   the paper's FILTERRECOMMEND: only the requested users/items are
//!   scored, so cost scales with the predicate selectivity instead of
//!   `|U| × |I|`. It scores one *user* at a time: without a pushed-down
//!   item list (paper Query 1's shape) through the whole-domain kernel,
//!   with one through the candidate-list kernel
//!   [`RecModel::score_items_into`] — one call per user, so a three-item
//!   `IN` list never pays for a whole-domain pass. Which of the two runs
//!   is a property of the plan, not a setting. The whole-domain kernel
//!   fills a dense score row per user (`recdb_algo::ScoreScratch`) that
//!   one of two consumers reads: streamed, [`RecModel::score_unseen_into`]
//!   emits every unseen item; under `ORDER BY <score> DESC LIMIT k` the
//!   planner hands the operator the `k` ([`RecommendOp::with_top_k`]) and
//!   [`RecModel::top_k_unseen_into`] walks the row once, keeping only the
//!   best `k` (a candidate not above the `k`-th kept score costs one
//!   comparison), so no pair is built for the tail and only the `k`
//!   winning tuples are.
//! * [`JoinRecommendOp`] — §IV-B2: predicts a score only for items that
//!   survive the join predicate. It pulls the (already filtered) outer
//!   relation in fixed-size blocks and scores each block as one candidate
//!   list per user — Algorithm 1's block-nested loop: load the user's
//!   vector once, probe every candidate against it — then emits rows
//!   outer-major, users in `uPred` order, as a tuple-at-a-time loop would.
//! * [`IndexRecommendOp`] — Algorithm 3: serves pre-computed scores from
//!   the [`RecScoreIndex`] in descending score order per user (Phase I
//!   user filter → Phase II rating-range tree traversal → Phase III item
//!   filter).
//!
//! All three emit `〈user, item, ratingval〉` tuples for items **unseen** by
//! the user ("each tuple represents ... item i (unseen by user uid)");
//! pairs with no model signal score 0 (Algorithm 1 line 14). Both facts
//! live in `recdb-algo`, on the two kernels the operators call.

use super::PhysicalOp;
use crate::error::ExecResult;
use crate::rec_index::{RecScoreIndex, ScoreCursor};
use recdb_algo::{in_bounds, serving_order, RecModel, ScoreScratch};
use recdb_guard::QueryGuard;
use recdb_storage::{Schema, Tuple, Value};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Arc;

/// Encoded size of one output tuple (arity header + three tagged 8-byte
/// values): what a sort above the operator would charge per held row.
const REC_TUPLE_BYTES: u64 = 2 + 3 * 9;

/// One `〈user, item, ratingval〉` output tuple.
fn rec_tuple(user: i64, item: i64, score: f64) -> Tuple {
    Tuple::new(vec![
        Value::Int(user),
        Value::Int(item),
        Value::Float(score),
    ])
}

/// A pushed-down id list with duplicates dropped, first occurrence kept
/// (an `IN (8, 8)` list must not double-count id 8, whichever operator
/// serves it). A one-id list — `WHERE uid = ?`, the hot statement — has
/// nothing to dedup and does not pay for a hash set.
fn distinct(mut list: Vec<i64>) -> Vec<i64> {
    if list.len() > 1 {
        let mut seen = HashSet::with_capacity(list.len());
        list.retain(|id| seen.insert(*id));
    }
    list
}

/// Resolve a pushed-down id list to `(id, dense index)` pairs: duplicates
/// and ids the model does not know drop out.
fn resolve_ids(list: Vec<i64>, idx: impl Fn(i64) -> Option<usize>) -> Vec<(i64, usize)> {
    distinct(list)
        .into_iter()
        .filter_map(|id| Some((id, idx(id)?)))
        .collect()
}

/// The `uPred` user list as `(uid, dense index)`; `None` is every user
/// known to the model, in dense-index order.
fn resolve_users(model: &RecModel, users: Option<Vec<i64>>) -> Vec<(i64, usize)> {
    let matrix = model.matrix();
    match users {
        Some(list) => resolve_ids(list, |u| matrix.user_idx(u)),
        None => matrix.user_ids().iter().copied().zip(0..).collect(),
    }
}

// -------------------------------------------------------------- Recommend

/// The RECOMMEND / FILTERRECOMMEND operator.
pub struct RecommendOp {
    model: Arc<RecModel>,
    schema: Schema,
    /// `(uid, dense user index)`, resolved once at construction.
    users: Vec<(i64, usize)>,
    /// The pushed-down `iPred` as dense item indexes; `None` scores the
    /// whole item domain.
    items: Option<Vec<usize>>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// Next user to score.
    u_cursor: usize,
    /// Next entry of `block`.
    i_cursor: usize,
    /// `(dense item index, score)` of every unseen item of the domain for
    /// `users[u_cursor - 1]`, in domain order.
    block: Vec<(usize, f64)>,
    /// The candidate-list scores behind `block`, aligned with `items`.
    scores: Vec<Option<f64>>,
    scratch: ScoreScratch,
    guard: QueryGuard,
    /// Whether any predicate was pushed into the operator — decides the
    /// FILTERRECOMMEND vs RECOMMEND display name. Captured at build time
    /// because `users` is normalized to a concrete list.
    filtered: bool,
    /// The top-k sink: emit only the best `k` rows, best first.
    top_k: Option<usize>,
    /// The sink's output once it has run.
    selected: Option<std::vec::IntoIter<Tuple>>,
    /// Peak bytes of the rows the sink held (charged to the governor).
    buffered_bytes: u64,
}

impl RecommendOp {
    /// Build the operator. `users`/`items` of `None` mean "all users/items
    /// known to the model" (the plain RECOMMEND of Algorithm 1); lists
    /// implement the pushed-down `uPred`/`iPred` of FILTERRECOMMEND.
    ///
    /// The operator's domain is the recommender's input data: ids that
    /// never appeared in the ratings table are not part of `U × I` and
    /// produce no rows (a filter on them intersects to nothing).
    ///
    /// Under `guard`, every `(user, item)` pair of the operator's domain
    /// is one row unit — including pairs skipped as already-rated or
    /// out-of-bounds — plus one per user for the step to the next; a
    /// user's units are charged when the user is scored (that is when the
    /// work is done), so cancellation and the deadline are observed
    /// between users. The top-k sink also charges the memory budget with
    /// the `≤ k` rows it holds; with `k = 0` it scores nothing and bills
    /// the end-of-stream unit only.
    pub fn new(
        model: Arc<RecModel>,
        schema: Schema,
        users: Option<Vec<i64>>,
        items: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
        guard: QueryGuard,
    ) -> Self {
        let filtered =
            users.is_some() || items.is_some() || min_rating.is_some() || max_rating.is_some();
        let users = resolve_users(&model, users);
        let items = items.map(|list| {
            resolve_ids(list, |i| model.matrix().item_idx(i))
                .into_iter()
                .map(|(_, i)| i)
                .collect()
        });
        RecommendOp {
            model,
            schema,
            users,
            items,
            min_rating,
            max_rating,
            u_cursor: 0,
            i_cursor: 0,
            block: Vec::new(),
            scores: Vec::new(),
            scratch: ScoreScratch::default(),
            guard,
            filtered,
            top_k: None,
            selected: None,
            buffered_bytes: 0,
        }
    }

    /// End in a bounded selection: emit only the best `k` rows of the
    /// operator's output, in the order `ORDER BY <score> DESC` over
    /// INDEXRECOMMEND delivers — [`recdb_algo::serving_order`]: score
    /// descending under [`f64::total_cmp`], then the user's position in
    /// the `uPred` list, then item id descending (the RecScoreIndex key
    /// order). Pairs are scored and bounded exactly as without the sink
    /// and ranked per user — over the whole domain by
    /// [`RecModel::top_k_unseen_into`] straight from the score row, over
    /// an `iPred` list by [`RecModel::rank_top_k`] — then merged across
    /// users, and only the `k` winners become tuples; the operator is
    /// blocking, like the sort it replaces.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Bill one user's row units: a unit per pair of the domain and one
    /// for the step to the next user.
    fn bill_user(&self) -> ExecResult<()> {
        let domain = self
            .items
            .as_ref()
            .map_or(self.model.matrix().n_items(), Vec::len);
        self.guard.tick_n(domain as u64 + 1)?;
        Ok(())
    }

    /// Bill dense user `u`'s row units, then fill `block` with every
    /// unseen item of the domain and its score: one whole-domain pass, or
    /// one candidate-list call over the `iPred`.
    fn score_user(&mut self, u: usize) -> ExecResult<()> {
        self.bill_user()?;
        self.block.clear();
        match &self.items {
            None => self
                .model
                .score_unseen_into(u, &mut self.scratch, &mut self.block),
            Some(items) => {
                self.scores.clear();
                self.model
                    .score_items_into(u, items, &mut self.scratch, &mut self.scores);
                let unseen = items.iter().zip(&self.scores);
                self.block
                    .extend(unseen.filter_map(|(&i, &score)| Some((i, score?))));
            }
        }
        Ok(())
    }

    /// Run the top-k sink over every user.
    fn select(&mut self, k: usize) -> ExecResult<Vec<Tuple>> {
        let (min, max) = (self.min_rating, self.max_rating);
        let model = Arc::clone(&self.model);
        let ids = model.matrix().item_ids();
        // `(user's place in the list, dense item index, score)`, best
        // first, at most `k`.
        let mut best: Vec<(usize, usize, f64)> = Vec::new();
        let mut top = Vec::new();
        // `LIMIT 0` asks for no row: no user is scored or billed.
        let users = if k == 0 { 0 } else { self.users.len() };
        for at in 0..users {
            let u = self.users[at].1;
            top.clear();
            if self.items.is_none() {
                // The whole domain: one walk over the user's score row.
                self.bill_user()?;
                model.top_k_unseen_into(u, k, min, max, &mut self.scratch, &mut top);
            } else {
                self.score_user(u)?;
                let kept = self.block.iter().filter(|(_, s)| in_bounds(*s, min, max));
                top = model.rank_top_k(kept.copied(), k);
            }
            best.extend(top.drain(..).map(|(i, score)| (at, i, score)));
            // Equal scores go to the earlier user in the list, then, within
            // a user, to the larger item id.
            best.sort_by(|a, b| {
                serving_order(
                    (a.2, (Reverse(a.0), ids[a.1])),
                    (b.2, (Reverse(b.0), ids[b.1])),
                )
            });
            best.truncate(k);
            let held = best.len() as u64 * REC_TUPLE_BYTES;
            if held > self.buffered_bytes {
                self.guard.charge_mem(held - self.buffered_bytes)?;
                self.buffered_bytes = held;
            }
        }
        // End of stream is one row unit, as on the streaming path.
        self.guard.tick()?;
        Ok(best
            .into_iter()
            .map(|(at, i, score)| rec_tuple(self.users[at].0, ids[i], score))
            .collect())
    }
}

impl PhysicalOp for RecommendOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if let Some(k) = self.top_k {
            if self.selected.is_none() {
                let rows = self.select(k);
                // The stream ends after an error.
                self.selected = Some(Vec::new().into_iter());
                match rows {
                    Ok(rows) => self.selected = Some(rows.into_iter()),
                    Err(e) => return Some(Err(e)),
                }
            }
            return self.selected.as_mut()?.next().map(Ok);
        }
        // One user at a time: tuples from the scored block.
        loop {
            while let Some(&(i, score)) = self.block.get(self.i_cursor) {
                self.i_cursor += 1;
                if in_bounds(score, self.min_rating, self.max_rating) {
                    let (user, _) = self.users[self.u_cursor - 1];
                    return Some(Ok(rec_tuple(user, self.model.matrix().item_id(i), score)));
                }
            }
            let Some(&(_, u)) = self.users.get(self.u_cursor) else {
                // End of stream is one row unit.
                return self.guard.tick().err().map(|e| Err(e.into()));
            };
            if let Err(e) = self.score_user(u) {
                return Some(Err(e));
            }
            self.u_cursor += 1;
            self.i_cursor = 0;
        }
    }

    fn name(&self) -> &'static str {
        if self.filtered {
            "FilterRecommend"
        } else {
            "Recommend"
        }
    }

    fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }
}

// ---------------------------------------------------------- JoinRecommend

/// Outer tuples one JoinRecommend block holds at most: each is scored for
/// every user of the block's candidate lists.
const JOIN_BLOCK_TUPLES: usize = 256;

/// Scores one JoinRecommend block holds at most (tuples × users): a long
/// `uPred` — or none, which is every user — shrinks the block, never
/// below one tuple, so the score grid stays small.
const JOIN_BLOCK_PAIRS: usize = 16_384;

/// The JOINRECOMMEND operator: predicts scores only for the items flowing
/// out of the outer relation. Output tuples are `rec ++ outer`.
pub struct JoinRecommendOp<'a> {
    model: Arc<RecModel>,
    schema: Schema,
    outer: Box<dyn PhysicalOp + 'a>,
    /// Ordinal of the item-id column in the outer schema.
    outer_item_ordinal: usize,
    /// `(uid, dense user index)`, resolved once at construction.
    users: Vec<(i64, usize)>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// Joinable outer tuples a block holds at most.
    block_len: usize,
    /// The current block's joinable outer tuples …
    block: Vec<Tuple>,
    /// … and their dense item indexes: every user's candidate list.
    items: Vec<usize>,
    /// User-major scores of the block: `scores[k * items.len() + j]` is
    /// `users[k]`'s for `items[j]`, `None` when the user rated it.
    scores: Vec<Option<f64>>,
    /// Next `(tuple j, user k)` of the block, as `j * users.len() + k`.
    cursor: usize,
    /// The last user in `uPred` whose output has tuple `j`, set as the
    /// cursor reaches `(j, 0)`: that output takes the tuple, the earlier
    /// ones clone it.
    taker: Option<usize>,
    /// The outer has ended.
    outer_done: bool,
    scratch: ScoreScratch,
    guard: QueryGuard,
    /// Peak encoded bytes of the outer tuples a block held.
    buffered_bytes: u64,
}

impl<'a> JoinRecommendOp<'a> {
    /// Build the operator. `schema` is the output: the recommend leaf's
    /// three columns, then the outer's. Under `guard` it charges one row
    /// unit per outer tuple pulled (the end of the outer included) and per
    /// tuple emitted — what a tuple-at-a-time join charges — so
    /// cancellation and the deadline are observed at every step, within a
    /// block as between blocks.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: Arc<RecModel>,
        schema: Schema,
        outer: Box<dyn PhysicalOp + 'a>,
        outer_item_ordinal: usize,
        users: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
        guard: QueryGuard,
    ) -> Self {
        let users = resolve_users(&model, users);
        let block_len = (JOIN_BLOCK_PAIRS / users.len().max(1)).clamp(1, JOIN_BLOCK_TUPLES);
        JoinRecommendOp {
            model,
            schema,
            outer,
            outer_item_ordinal,
            users,
            min_rating,
            max_rating,
            block_len,
            block: Vec::new(),
            items: Vec::new(),
            scores: Vec::new(),
            cursor: 0,
            taker: None,
            outer_done: false,
            scratch: ScoreScratch::default(),
            guard,
            buffered_bytes: 0,
        }
    }

    /// Pull the next block of joinable outer tuples and score it, one
    /// candidate list per user. Tuples whose join key is NULL, not an
    /// integer, or an item outside the recommender's universe never match
    /// and are dropped here.
    fn fill_block(&mut self) -> ExecResult<()> {
        self.block.clear();
        self.items.clear();
        self.scores.clear();
        self.cursor = 0;
        let mut bytes = 0;
        while self.block.len() < self.block_len {
            self.guard.tick()?;
            let Some(tuple) = self.outer.next() else {
                self.outer_done = true;
                break;
            };
            let tuple = tuple?;
            let key = tuple.get(self.outer_item_ordinal).and_then(Value::as_int);
            let Some(i) = key.and_then(|item| self.model.matrix().item_idx(item)) else {
                continue;
            };
            bytes += tuple.encoded_size() as u64;
            self.items.push(i);
            self.block.push(tuple);
        }
        self.buffered_bytes = self.buffered_bytes.max(bytes);
        if !self.items.is_empty() {
            for &(_, u) in &self.users {
                self.model
                    .score_items_into(u, &self.items, &mut self.scratch, &mut self.scores);
            }
        }
        Ok(())
    }

    /// The score user `k` gets for the block's tuple `j`, if that pair is
    /// output: rated pairs are not recommendations, and the rating bounds
    /// apply to the rest.
    fn emitted_score(&self, j: usize, k: usize) -> Option<f64> {
        self.scores[k * self.block.len() + j]
            .filter(|&s| in_bounds(s, self.min_rating, self.max_rating))
    }
}

impl PhysicalOp for JoinRecommendOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        let n_users = self.users.len();
        loop {
            // Outer-major, users in `uPred` order: the order a
            // tuple-at-a-time loop emits.
            while self.cursor < self.block.len() * n_users {
                let (j, k) = (self.cursor / n_users, self.cursor % n_users);
                if k == 0 {
                    self.taker = (0..n_users)
                        .rev()
                        .find(|&later| self.emitted_score(j, later).is_some());
                }
                let Some(score) = self.emitted_score(j, k) else {
                    self.cursor += 1;
                    continue;
                };
                if let Err(e) = self.guard.tick() {
                    return Some(Err(e.into()));
                }
                self.cursor += 1;
                let item = self.model.matrix().item_id(self.items[j]);
                let (user, _) = self.users[k];
                let mut row = Vec::with_capacity(3 + self.block[j].arity());
                row.extend([Value::Int(user), Value::Int(item), Value::Float(score)]);
                if self.taker == Some(k) {
                    row.extend(std::mem::take(&mut self.block[j]).into_values());
                } else {
                    row.extend_from_slice(self.block[j].values());
                }
                return Some(Ok(Tuple::new(row)));
            }
            if self.outer_done {
                return None;
            }
            if let Err(e) = self.fill_block() {
                self.block.clear();
                return Some(Err(e));
            }
        }
    }

    fn name(&self) -> &'static str {
        "JoinRecommend"
    }

    fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }
}

// --------------------------------------------------------- IndexRecommend

/// The INDEXRECOMMEND operator (Algorithm 3). It pulls: each `next()`
/// advances a cursor over the current user's forward-tree range, which
/// reads one more leaf only when the last one is used up — so a `LIMIT k`
/// above it touches the leaves holding the first `k` qualifying entries
/// and no others. `index` is an immutable snapshot (maintenance swaps in
/// a rebuilt index, it never edits this one), so the cursor stays valid
/// for the operator's life.
pub struct IndexRecommendOp {
    index: Arc<RecScoreIndex>,
    schema: Schema,
    users: Vec<i64>,
    item_filter: Option<HashSet<i64>>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// Next user to start.
    u_cursor: usize,
    /// Phase II position within `users[u_cursor - 1]`'s list.
    cursor: ScoreCursor,
    guard: QueryGuard,
}

impl IndexRecommendOp {
    /// Build the operator for the given (Phase I) user list, each user
    /// served once at its first position — what FILTERRECOMMEND answers
    /// for `uid IN (1, 1)`. `item_filter` is the Phase III `iPred`; the
    /// rating bounds are the Phase II `rPred`. `guard` is charged one row
    /// unit per emitted tuple and per user started, so cancellation and
    /// the deadline are observed between entries of a long drain.
    pub fn new(
        index: Arc<RecScoreIndex>,
        schema: Schema,
        users: Vec<i64>,
        item_filter: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
        guard: QueryGuard,
    ) -> Self {
        IndexRecommendOp {
            index,
            schema,
            users: distinct(users),
            item_filter: item_filter.map(|v| v.into_iter().collect()),
            min_rating,
            max_rating,
            u_cursor: 0,
            cursor: ScoreCursor::empty(),
            guard,
        }
    }
}

impl PhysicalOp for IndexRecommendOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            // Phase II: rating-range tree traversal, descending.
            while let Some((user, item, score)) = self.index.next_entry(&mut self.cursor) {
                // Phase III: item-id filtering.
                if self
                    .item_filter
                    .as_ref()
                    .is_none_or(|set| set.contains(&item))
                {
                    return Some(Ok(rec_tuple(user, item, score)));
                }
            }
            // Phase I: the next user of the list.
            let &user = self.users.get(self.u_cursor)?;
            self.u_cursor += 1;
            self.cursor = self
                .index
                .cursor_desc(user, self.min_rating, self.max_rating);
        }
    }

    fn name(&self) -> &'static str {
        "IndexRecommend"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{drain, ValuesOp};
    use recdb_algo::{Algorithm, Rating, RatingsMatrix};
    use recdb_storage::{Column, DataType};

    fn rec_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
            Column::qualified("R", "ratingval", DataType::Float),
        ])
    }

    /// Figure 1 data: users 1–4, items 1–3.
    fn model() -> Arc<RecModel> {
        Arc::new(
            RecModel::train(
                Algorithm::ItemCosCF,
                RatingsMatrix::from_ratings(vec![
                    Rating::new(1, 1, 1.5),
                    Rating::new(2, 2, 3.5),
                    Rating::new(2, 1, 4.5),
                    Rating::new(2, 3, 2.0),
                    Rating::new(3, 2, 1.0),
                    Rating::new(3, 1, 2.0),
                    Rating::new(4, 2, 1.0),
                ]),
                &Default::default(),
                &QueryGuard::unlimited(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn full_recommend_covers_all_unseen_pairs() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            None,
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        // 4 users × 3 items = 12 pairs, 7 rated → 5 unseen.
        assert_eq!(got.len(), 5);
        for t in &got {
            let u = t.get(0).unwrap().as_int().unwrap();
            let i = t.get(1).unwrap().as_int().unwrap();
            assert!(
                model().matrix().rating_of(u, i).is_none(),
                "({u},{i}) rated"
            );
        }
    }

    fn triples(rows: &[Tuple]) -> Vec<(i64, i64, u64)> {
        rows.iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                    t.get(2).unwrap().as_f64().unwrap().to_bits(),
                )
            })
            .collect()
    }

    /// The whole-domain kernel and the candidate-list kernel over a
    /// pushed-down item list are two evaluations of the same relation:
    /// listing every item explicitly must give the same rows, order and
    /// score bits.
    #[test]
    fn whole_domain_matches_listing_every_item_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let model = Arc::new(
                RecModel::train(
                    algo,
                    model().matrix().clone(),
                    &Default::default(),
                    &QueryGuard::unlimited(),
                )
                .unwrap(),
            );
            let every_item = model.matrix().item_ids().to_vec();
            for (min, max) in [(None, None), (Some(1.2), None), (Some(0.5), Some(1.2))] {
                for users in [None, Some(vec![4, 1, 99, 4])] {
                    let mut domain = RecommendOp::new(
                        model.clone(),
                        rec_schema(),
                        users.clone(),
                        None,
                        min,
                        max,
                        QueryGuard::unlimited(),
                    );
                    let mut listed = RecommendOp::new(
                        model.clone(),
                        rec_schema(),
                        users.clone(),
                        Some(every_item.clone()),
                        min,
                        max,
                        QueryGuard::unlimited(),
                    );
                    assert_eq!(
                        triples(&drain(&mut domain).unwrap()),
                        triples(&drain(&mut listed).unwrap()),
                        "{algo} users {users:?} bounds {min:?}..{max:?}"
                    );
                }
            }
        }
    }

    /// Both kernels bill what scoring one pair at a time billed.
    #[test]
    fn both_paths_bill_one_unit_per_pair() {
        // 4 users × (3 items + 1 step to the next user) + 1 end of stream.
        const UNITS: u64 = 4 * (3 + 1) + 1;
        let every_item = model().matrix().item_ids().to_vec();
        for items in [None, Some(every_item)] {
            let run = |budget: Option<u64>| {
                let guard = QueryGuard::with_limits(None, budget, None);
                let mut op = RecommendOp::new(
                    model(),
                    rec_schema(),
                    None,
                    items.clone(),
                    None,
                    None,
                    guard.clone(),
                );
                (drain(&mut op).map(|rows| rows.len()), guard.rows_used())
            };
            assert_eq!(run(None), (Ok(5), UNITS), "items {items:?}");
            assert_eq!(run(Some(UNITS)).0, Ok(5), "items {items:?}");
            assert!(run(Some(UNITS - 1)).0.is_err(), "items {items:?}");
        }
    }

    #[test]
    fn unfiltered_recommend_is_cancelled_between_user_blocks() {
        let guard = QueryGuard::unlimited();
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, None, None, guard.clone());
        // User 1's block (items 2 and 3) is scored on the first call.
        let first = op.next().unwrap().unwrap();
        assert_eq!(first.get(0).unwrap(), &Value::Int(1));
        guard.cancel();
        // Its remaining row is already computed; the next block is not
        // started.
        assert_eq!(op.next().unwrap().unwrap().get(1).unwrap(), &Value::Int(3));
        assert!(matches!(
            op.next(),
            Some(Err(crate::error::ExecError::Guard(
                recdb_guard::GuardError::Cancelled { .. }
            )))
        ));
    }

    #[test]
    fn filter_recommend_scopes_to_user() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        // User 1 rated item 1 only → items 2, 3 unseen.
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|t| t.get(0).unwrap() == &Value::Int(1)));
    }

    #[test]
    fn filter_recommend_scopes_to_items() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2]),
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(1).unwrap(), &Value::Int(2));
        // Predicted value matches the model's Eq. 2 output.
        let expected = model().predict(1, 2).unwrap();
        assert_eq!(got[0].get(2).unwrap().as_f64().unwrap(), expected);
    }

    #[test]
    fn rating_bounds_prune_output() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            None,
            None,
            Some(0.5),
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        assert!(got
            .iter()
            .all(|t| t.get(2).unwrap().as_f64().unwrap() >= 0.5));
        let mut unbounded = RecommendOp::new(
            model(),
            rec_schema(),
            None,
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        assert!(drain(&mut unbounded).unwrap().len() >= got.len());
    }

    #[test]
    fn unknown_ids_are_outside_the_domain() {
        // Users/items that never appear in the ratings table are not part
        // of the recommender's U × I and yield no rows.
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![99]),
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        assert!(drain(&mut op).unwrap().is_empty());
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2, 44, 45]),
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1, "only the known item 2 survives");
    }

    #[test]
    fn duplicate_filter_ids_do_not_duplicate_output() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1, 1]),
            Some(vec![2, 2, 2]),
            None,
            None,
            QueryGuard::unlimited(),
        );
        assert_eq!(drain(&mut op).unwrap().len(), 1);
    }

    #[test]
    fn join_recommend_scores_only_outer_items() {
        let outer_schema = Schema::new(vec![
            Column::qualified("M", "mid", DataType::Int),
            Column::qualified("M", "name", DataType::Text),
        ]);
        let outer = Box::new(ValuesOp::new(
            outer_schema,
            vec![
                Tuple::new(vec![Value::Int(2), Value::Text("Inception".into())]),
                Tuple::new(vec![Value::Int(3), Value::Text("The Matrix".into())]),
                Tuple::new(vec![Value::Null, Value::Text("ghost".into())]),
            ],
        ));
        let mut op = JoinRecommendOp::new(
            model(),
            rec_schema().join(outer.schema()),
            outer,
            0,
            Some(vec![1]),
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        // User 1: items 2 and 3 are unseen → two joined tuples.
        assert_eq!(got.len(), 2);
        for t in &got {
            assert_eq!(t.arity(), 5);
            assert_eq!(t.get(1), t.get(3), "item id equals outer mid");
        }
        assert_eq!(got[0].get(4).unwrap().as_text(), Some("Inception"));
    }

    #[test]
    fn join_recommend_matches_the_point_predictor() {
        // Every outer item × every user, duplicates and unknown ids in
        // both lists: rows come out outer-major, users in list order, with
        // exactly the model's per-pair scores.
        let outer_schema = Schema::new(vec![Column::qualified("M", "mid", DataType::Int)]);
        let outer_ids = [3i64, 77, 1, 3];
        let outer = Box::new(ValuesOp::new(
            outer_schema,
            outer_ids
                .iter()
                .map(|&i| Tuple::new(vec![Value::Int(i)]))
                .collect(),
        ));
        let users = vec![4i64, 99, 1, 4];
        let mut op = JoinRecommendOp::new(
            model(),
            rec_schema().join(outer.schema()),
            outer,
            0,
            Some(users),
            None,
            None,
            QueryGuard::unlimited(),
        );
        let m = model();
        let mut want = Vec::new();
        for item in outer_ids {
            for user in [4i64, 1] {
                if m.matrix().item_idx(item).is_some() && m.matrix().rating_of(user, item).is_none()
                {
                    want.push((user, item, m.predict(user, item).unwrap_or(0.0).to_bits()));
                }
            }
        }
        assert_eq!(triples(&drain(&mut op).unwrap()), want);
        assert!(!want.is_empty());
    }

    #[test]
    fn join_recommend_skips_rated_pairs() {
        let outer_schema = Schema::new(vec![Column::qualified("M", "mid", DataType::Int)]);
        let outer = Box::new(ValuesOp::new(
            outer_schema,
            vec![Tuple::new(vec![Value::Int(1)])], // user 1 already rated item 1
        ));
        let mut op = JoinRecommendOp::new(
            model(),
            rec_schema().join(outer.schema()),
            outer,
            0,
            Some(vec![1]),
            None,
            None,
            QueryGuard::unlimited(),
        );
        assert!(drain(&mut op).unwrap().is_empty());
    }

    fn sample_index() -> Arc<RecScoreIndex> {
        let mut idx = RecScoreIndex::new();
        idx.replace_user_list(1, &[(10, 4.5), (11, 2.0), (12, 5.0)]);
        idx.replace_user_list(2, &[(10, 3.0)]);
        Arc::new(idx)
    }

    #[test]
    fn index_recommend_emits_descending() {
        let mut op = IndexRecommendOp::new(
            sample_index(),
            rec_schema(),
            vec![1],
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        let items: Vec<i64> = got
            .iter()
            .map(|t| t.get(1).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(items, vec![12, 10, 11]);
        let scores: Vec<f64> = got
            .iter()
            .map(|t| t.get(2).unwrap().as_f64().unwrap())
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn index_recommend_three_phase_filtering() {
        // Phase I: users [1, 2]; Phase II: rating ≥ 3; Phase III: items {10, 12}.
        let mut op = IndexRecommendOp::new(
            sample_index(),
            rec_schema(),
            vec![1, 2],
            Some(vec![10, 12]),
            Some(3.0),
            None,
            QueryGuard::unlimited(),
        );
        let got = drain(&mut op).unwrap();
        let triples: Vec<(i64, i64, f64)> = got
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                    t.get(2).unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(triples, vec![(1, 12, 5.0), (1, 10, 4.5), (2, 10, 3.0)]);
    }

    #[test]
    fn index_recommend_unknown_user_is_empty() {
        let mut op = IndexRecommendOp::new(
            sample_index(),
            rec_schema(),
            vec![42],
            None,
            None,
            None,
            QueryGuard::unlimited(),
        );
        assert!(drain(&mut op).unwrap().is_empty());
    }

    /// 8 users × 70 items, two fifths rated: every user keeps ~40 unseen
    /// items, so under a node capacity of 8 one list spans many leaves.
    fn wide_model() -> Arc<RecModel> {
        let mut ratings = Vec::new();
        for u in 1..=8i64 {
            for i in 1..=70i64 {
                if (u * 7 + i * 3) % 5 < 2 {
                    ratings.push(Rating::new(u, i, ((u + 2 * i) % 9 + 1) as f64 / 2.0));
                }
            }
        }
        Arc::new(
            RecModel::train(
                Algorithm::ItemCosCF,
                RatingsMatrix::from_ratings(ratings),
                &Default::default(),
                &QueryGuard::unlimited(),
            )
            .unwrap(),
        )
    }

    /// What FILTERRECOMMEND answers for the same predicates, in
    /// INDEXRECOMMEND's order: users as first listed, then score
    /// descending, ties by item id descending.
    fn online_reference(
        model: &Arc<RecModel>,
        users: &[i64],
        items: Option<Vec<i64>>,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Vec<(i64, i64, u64)> {
        let mut op = RecommendOp::new(
            model.clone(),
            rec_schema(),
            Some(users.to_vec()),
            items,
            min,
            max,
            QueryGuard::unlimited(),
        );
        let mut want = triples(&drain(&mut op).unwrap());
        let listed = |user: i64| users.iter().position(|&u| u == user);
        want.sort_by(|a, b| {
            listed(a.0)
                .cmp(&listed(b.0))
                .then(f64::from_bits(b.2).total_cmp(&f64::from_bits(a.2)))
                .then(b.1.cmp(&a.1))
        });
        want
    }

    /// `users`' full lists materialized into 8-key nodes behind a 6-frame
    /// pool: every list is a chain of leaves that evict each other.
    fn materialized(model: &Arc<RecModel>, users: &[i64]) -> Arc<RecScoreIndex> {
        let pool = Arc::new(recdb_storage::BufferPool::in_memory(6));
        let mut idx = RecScoreIndex::with_pool(pool, 8);
        for &user in users {
            let list: Vec<(i64, f64)> = online_reference(model, &[user], None, None, None)
                .iter()
                .map(|&(_, item, bits)| (item, f64::from_bits(bits)))
                .collect();
            idx.replace_user_list(user, &list);
        }
        Arc::new(idx)
    }

    #[test]
    fn index_recommend_under_limit_matches_filter_recommend() {
        let model = wide_model();
        let index = materialized(&model, &[3, 5]);
        let list = online_reference(&model, &[3], None, None, None);
        assert!(
            list.len() > 32,
            "user 3's list must span several 8-key leaves"
        );
        // Phase III matches that sit past the second leaf, plus an id no
        // list holds.
        let deep: Vec<i64> = list[20..]
            .iter()
            .step_by(7)
            .map(|t| t.1)
            .chain([999])
            .collect();
        let (hi, lo) = (f64::from_bits(list[5].2), f64::from_bits(list[30].2));
        assert!(lo < hi);
        // (users, `iid IN` list, min rating, max rating)
        type Case<'a> = (&'a [i64], Option<Vec<i64>>, Option<f64>, Option<f64>);
        let cases: [Case; 6] = [
            (&[3], None, None, None),
            // `uid IN (3, 3)`: FilterRecommend answers each user once.
            (&[3, 3], None, None, None),
            (&[3], Some(deep.clone()), None, None),
            (&[3], None, Some(lo), Some(hi)),
            (&[3, 5], None, None, None),
            (&[5, 3], Some(deep), Some(lo), None),
        ];
        for (users, items, min, max) in cases {
            let want = online_reference(&model, users, items.clone(), min, max);
            assert!(!want.is_empty(), "vacuous case {users:?} {items:?}");
            for k in [1, 10, want.len(), want.len() + 5] {
                let guard = QueryGuard::unlimited();
                let op = IndexRecommendOp::new(
                    index.clone(),
                    rec_schema(),
                    users.to_vec(),
                    items.clone(),
                    min,
                    max,
                    guard.clone(),
                );
                let mut limited =
                    crate::ops::LimitOp::new(Box::new(op), k as u64, QueryGuard::unlimited());
                let got = triples(&drain(&mut limited).unwrap());
                assert_eq!(
                    got,
                    want[..k.min(want.len())],
                    "users {users:?} items {items:?} bounds {min:?}..{max:?} k {k}"
                );
                if k > want.len() {
                    // A full drain bills one unit per emitted tuple, one
                    // per user started, one for the end of stream.
                    let started = users.iter().collect::<HashSet<_>>().len();
                    assert_eq!(guard.rows_used(), (want.len() + started + 1) as u64);
                }
            }
        }
    }

    #[test]
    fn index_recommend_observes_cancel_and_deadline_between_entries() {
        use crate::error::ExecError;
        use recdb_guard::GuardError;
        use std::time::Duration;
        let model = wide_model();
        let index = materialized(&model, &[3]);
        let started = |guard: &QueryGuard| {
            let mut op = IndexRecommendOp::new(
                index.clone(),
                rec_schema(),
                vec![3],
                None,
                None,
                None,
                guard.clone(),
            );
            // Three entries in: mid-leaf, far from the end of the list.
            for _ in 0..3 {
                op.next().unwrap().unwrap();
            }
            op
        };
        let cancelled = |op: &mut IndexRecommendOp| {
            matches!(
                op.next(),
                Some(Err(ExecError::Guard(GuardError::Cancelled { .. })))
            )
        };

        let guard = QueryGuard::unlimited();
        let mut op = started(&guard);
        guard.cancel();
        assert!(cancelled(&mut op));

        let guard = QueryGuard::with_limits(Some(Duration::from_millis(200)), None, None);
        let mut op = started(&guard);
        std::thread::sleep(Duration::from_millis(220));
        assert!(cancelled(&mut op));
    }

    /// The top-k sink's total order over `(uid, iid, score bits)` rows of
    /// the unfused stream: score descending under `total_cmp`, then the
    /// user's place in the stream (the `uPred` list order), then item id
    /// descending.
    fn ranked(mut rows: Vec<(i64, i64, u64)>) -> Vec<(i64, i64, u64)> {
        let mut order: Vec<i64> = rows.iter().map(|r| r.0).collect();
        order.dedup();
        let place = |user: i64| order.iter().position(|&u| u == user);
        rows.sort_by(|a, b| {
            f64::from_bits(b.2)
                .total_cmp(&f64::from_bits(a.2))
                .then(place(a.0).cmp(&place(b.0)))
                .then(b.1.cmp(&a.1))
        });
        rows
    }

    mod fused_topk {
        use super::*;
        use crate::ops::SortOp;
        use proptest::prelude::*;
        use recdb_algo::model::TrainConfig;
        use recdb_algo::SvdParams;

        proptest! {
            /// `RecommendOp::with_top_k(k)` against the operator it
            /// replaces — the same `RecommendOp` without a sink, drained,
            /// ordered by the documented total order and truncated — over
            /// small tie-rich worlds whose item ids disagree with their
            /// dense indexes: same rows, same order, same score bits, same
            /// row units; `k` rows of memory where a sort needs them all.
            #[test]
            fn fused_topk_equals_the_sorted_stream_truncated(
                ratings in proptest::collection::vec((1i64..7, 1i64..10, 1u8..6), 1..40),
                users in 0usize..3,
                listed_items in any::<bool>(),
                bounds in 0usize..3,
            ) {
                let matrix = RatingsMatrix::from_ratings(
                    ratings.iter().map(|&(u, i, r)| Rating::new(u, (i * 7) % 10, f64::from(r))),
                );
                let config = TrainConfig {
                    svd: SvdParams { epochs: 3, ..SvdParams::default() },
                    ..TrainConfig::default()
                };
                // One user, a list with a duplicate and an unknown id, or
                // every user the model knows.
                let first = matrix.user_ids()[0];
                let users = match users {
                    0 => Some(vec![first]),
                    1 => Some(vec![5, first, 99, 5, 2]),
                    _ => None,
                };
                let items = listed_items.then(|| vec![0, 7, 4, 7, 55, 1, 8, 5]);
                for algo in Algorithm::ALL {
                    let model = RecModel::train(algo, matrix.clone(), &config, &QueryGuard::unlimited());
                    let model = Arc::new(model.unwrap());
                    let op = |min: Option<f64>, max: Option<f64>, guard: &QueryGuard| {
                        RecommendOp::new(
                            model.clone(),
                            rec_schema(),
                            users.clone(),
                            items.clone(),
                            min,
                            max, guard.clone(),
                        )
                    };
                    // Bounds that sit on scores the stream really has, so
                    // the inclusive edges are exercised.
                    let unlimited = QueryGuard::unlimited();
                    let mut scores: Vec<f64> = drain(&mut op(None, None, &unlimited))
                        .unwrap()
                        .iter()
                        .map(|t| t.get(2).unwrap().as_f64().unwrap())
                        .collect();
                    scores.sort_by(f64::total_cmp);
                    let at = |q: usize| scores.get(scores.len() * q / 4).copied();
                    let (min, max) = match bounds {
                        0 => (None, None),
                        1 => (at(1), None),
                        _ => (at(1), at(3)),
                    };

                    let streamed = QueryGuard::unlimited();
                    let want = ranked(triples(&drain(&mut op(min, max, &streamed)).unwrap()));
                    let n = want.len();
                    for k in [0, 1, 3, n, n + 5] {
                        let case = format!(
                            "{algo} users {users:?} items {items:?} bounds {min:?}..{max:?} k {k}"
                        );
                        let budget = k as u64 * REC_TUPLE_BYTES;
                        let guard = QueryGuard::with_limits(None, None, Some(budget));
                        let mut fused = op(min, max, &guard).with_top_k(k);
                        let got = drain(&mut fused);
                        prop_assert!(got.is_ok(), "{}: {:?}", case, got);
                        prop_assert_eq!(triples(&got.unwrap()), &want[..k.min(n)], "{}", case);
                        prop_assert_eq!(fused.buffered_bytes(), (k.min(n)) as u64 * REC_TUPLE_BYTES);
                        prop_assert_eq!(guard.mem_used(), fused.buffered_bytes(), "{}", case);
                        // `LIMIT 0` scores nothing: the end-of-stream unit.
                        let units = if k == 0 { 1 } else { streamed.rows_used() };
                        prop_assert_eq!(guard.rows_used(), units, "{}", case);

                        // The sort the sink replaces holds every row.
                        let guard = QueryGuard::with_limits(None, None, Some(budget));
                        let score = crate::expr::BoundExpr::Column(2);
                        let mut sort = SortOp::new(Box::new(op(min, max, &guard)), vec![(score, true)], guard.clone());
                        prop_assert_eq!(drain(&mut sort).is_err(), n > k, "{}", case);
                    }
                }
            }
        }

        #[test]
        fn fused_topk_observes_the_governor_between_user_blocks() {
            use crate::error::ExecError;
            use recdb_guard::GuardError;
            // Figure 1: 3 items, so one user block is 3 + 1 row units.
            const BLOCK: u64 = 3 + 1;
            let run = |guard: &QueryGuard| {
                let mut op =
                    RecommendOp::new(model(), rec_schema(), None, None, None, None, guard.clone())
                        .with_top_k(2);
                let first = op.next();
                assert!(op.next().is_none(), "the stream ends after an error");
                first
            };
            // A row budget that covers user 1's block but not user 2's
            // trips when the second block is billed, before it is scored.
            let guard = QueryGuard::with_limits(None, Some(BLOCK), None);
            assert!(matches!(
                run(&guard),
                Some(Err(ExecError::Guard(GuardError::ResourceExhausted {
                    resource: "rows",
                    ..
                })))
            ));
            assert_eq!(guard.rows_used(), 2 * BLOCK);
            // A cancelled statement stops at the first block boundary.
            let guard = QueryGuard::unlimited();
            guard.cancel();
            assert!(matches!(
                run(&guard),
                Some(Err(ExecError::Guard(GuardError::Cancelled { .. })))
            ));
            assert_eq!(guard.rows_used(), BLOCK);
        }

        /// The point of the sink: `k` tuples are built, not one per scored
        /// pair.
        #[test]
        fn fused_topk_builds_k_tuples() {
            let model = wide_model();
            let run = |top_k: Option<usize>| {
                let mut op = RecommendOp::new(
                    model.clone(),
                    rec_schema(),
                    Some(vec![3]),
                    None,
                    None,
                    None,
                    QueryGuard::unlimited(),
                );
                if let Some(k) = top_k {
                    op = op.with_top_k(k);
                }
                crate::alloc_count::allocations_in(|| drain(&mut op).unwrap().len())
            };
            let (streamed, per_pair) = run(None);
            let (selected, per_k) = run(Some(3));
            assert!(streamed > 32 && selected == 3);
            // What the sink charges per held row is what a sort would.
            assert_eq!(rec_tuple(1, 2, 3.0).encoded_size() as u64, REC_TUPLE_BYTES);
            assert!(
                per_pair as usize >= streamed,
                "one tuple per scored pair: {per_pair}"
            );
            assert!(per_k < 32, "a handful of buffers and three tuples: {per_k}");
        }
    }

    /// JoinRecommend in blocks against the tuple-at-a-time loop it
    /// replaced.
    mod join_blocks {
        use super::*;
        use proptest::prelude::*;
        use recdb_algo::model::TrainConfig;
        use recdb_algo::SvdParams;
        use std::cell::Cell;
        use std::rc::Rc;

        /// `(uid, iid, score bits, outer position)` of one joined row.
        type Row = (i64, i64, u64, i64);

        /// Outer rows `(key, position)`.
        fn outer_rows(keys: &[Value]) -> Vec<Tuple> {
            keys.iter()
                .enumerate()
                .map(|(at, key)| Tuple::new(vec![key.clone(), Value::Int(at as i64)]))
                .collect()
        }

        /// An outer over `rows` that counts its pulls.
        struct Counted {
            inner: ValuesOp,
            pulls: Rc<Cell<usize>>,
        }

        impl PhysicalOp for Counted {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn next(&mut self) -> Option<ExecResult<Tuple>> {
                self.pulls.set(self.pulls.get() + 1);
                self.inner.next()
            }
            fn name(&self) -> &'static str {
                "Counted"
            }
        }

        fn join<'a>(
            model: &Arc<RecModel>,
            rows: Vec<Tuple>,
            users: Option<Vec<i64>>,
            (min, max): (Option<f64>, Option<f64>),
            guard: &QueryGuard,
        ) -> (JoinRecommendOp<'a>, Rc<Cell<usize>>) {
            let schema = Schema::new(vec![
                Column::qualified("M", "mid", DataType::Int),
                Column::qualified("M", "at", DataType::Int),
            ]);
            let pulls = Rc::new(Cell::new(0));
            let outer = Box::new(Counted {
                inner: ValuesOp::new(schema, rows),
                pulls: pulls.clone(),
            });
            let op = JoinRecommendOp::new(
                model.clone(),
                rec_schema().join(outer.schema()),
                outer,
                0,
                users,
                min,
                max,
                guard.clone(),
            );
            (op, pulls)
        }

        fn joined(rows: &[Tuple]) -> Vec<Row> {
            triples(rows)
                .into_iter()
                .zip(rows)
                .map(|((u, i, s), t)| (u, i, s, t.get(4).unwrap().as_int().unwrap()))
                .collect()
        }

        /// The operator before blocks: per outer tuple, per distinct known
        /// user in list order, one `unseen_score`.
        fn per_pair_reference(
            model: &RecModel,
            rows: &[Tuple],
            users: Option<Vec<i64>>,
            (min, max): (Option<f64>, Option<f64>),
        ) -> Vec<Row> {
            let users = resolve_users(model, users);
            let mut want = Vec::new();
            for t in rows {
                let key = t.get(0).and_then(Value::as_int);
                let Some(i) = key.and_then(|item| model.matrix().item_idx(item)) else {
                    continue;
                };
                for &(user, u) in &users {
                    match model.unseen_score(u, i) {
                        Some(score) if in_bounds(score, min, max) => want.push((
                            user,
                            key.unwrap(),
                            score.to_bits(),
                            t.get(1).unwrap().as_int().unwrap(),
                        )),
                        _ => {}
                    }
                }
            }
            want
        }

        /// Rows, order and score bits of the reference; the units of a
        /// tuple-at-a-time join (one per outer tuple, per row, and the end
        /// of the outer); the block's bytes.
        fn check(
            model: &Arc<RecModel>,
            rows: &[Tuple],
            users: Option<Vec<i64>>,
            bounds: (Option<f64>, Option<f64>),
        ) -> Result<Vec<Row>, TestCaseError> {
            let want = per_pair_reference(model, rows, users.clone(), bounds);
            let guard = QueryGuard::unlimited();
            let (mut op, pulls) = join(model, rows.to_vec(), users, bounds, &guard);
            let out = drain(&mut op).unwrap();
            for row in &out {
                // Moved to its last user or cloned for an earlier one, the
                // outer tuple arrives whole.
                let at = row.get(4).unwrap().as_int().unwrap() as usize;
                prop_assert_eq!(&row.values()[3..], rows[at].values());
            }
            let got = joined(&out);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(guard.rows_used(), (rows.len() + want.len() + 1) as u64);
            prop_assert_eq!(
                pulls.get(),
                rows.len() + 1,
                "the outer is pulled to its end once"
            );
            let joinable: Vec<&Tuple> = rows
                .iter()
                .filter(|t| {
                    let key = t.get(0).and_then(Value::as_int);
                    key.and_then(|i| model.matrix().item_idx(i)).is_some()
                })
                .collect();
            let held: u64 = joinable.iter().map(|t| t.encoded_size() as u64).sum();
            prop_assert_eq!(op.buffered_bytes() > 0, !joinable.is_empty());
            prop_assert!(op.buffered_bytes() <= held);
            Ok(want)
        }

        proptest! {
            /// Outers around one and two blocks, with NULL, text, float and
            /// unknown keys; every user (at least two), one user, two users
            /// out of id order, or a list with duplicates and an unknown id;
            /// bounds on real scores. With two users or more a tuple is
            /// cloned for its earlier users and moved to its last.
            #[test]
            fn join_blocks_equal_the_per_pair_reference(
                ratings in proptest::collection::vec((1i64..7, 1i64..10, 1u8..6), 1..40),
                len in prop_oneof![0usize..6, 250usize..262, 508usize..516],
                keys in proptest::collection::vec(
                    prop_oneof![
                        (0i64..10).prop_map(Value::Int),
                        (0i64..10).prop_map(Value::Int),
                        (0i64..10).prop_map(Value::Int),
                        Just(Value::Null),
                        Just(Value::Text("7".into())),
                        Just(Value::Float(4.0)),
                        Just(Value::Int(77)),
                    ],
                    1..24,
                ),
                users in 0usize..4,
                bounds in 0usize..3,
            ) {
                // User 7 is never drawn: the model always has two users.
                let matrix = RatingsMatrix::from_ratings(
                    ratings
                        .iter()
                        .map(|&(u, i, r)| Rating::new(u, (i * 7) % 10, f64::from(r)))
                        .chain([Rating::new(7, 3, 2.0)]),
                );
                let config = TrainConfig {
                    svd: SvdParams { epochs: 3, ..SvdParams::default() },
                    ..TrainConfig::default()
                };
                let first = matrix.user_ids()[0];
                let users = match users {
                    0 => None,
                    1 => Some(vec![first]),
                    2 => Some(vec![7, first]),
                    _ => Some(vec![5, first, 99, 5, 2]),
                };
                let keys: Vec<Value> = (0..len).map(|j| keys[j % keys.len()].clone()).collect();
                let rows = outer_rows(&keys);
                for algo in Algorithm::ALL {
                    let model = RecModel::train(algo, matrix.clone(), &config, &QueryGuard::unlimited());
                    let model = Arc::new(model.unwrap());
                    let all = check(&model, &rows, users.clone(), (None, None))?;
                    let mut scores: Vec<f64> = all.iter().map(|r| f64::from_bits(r.2)).collect();
                    scores.sort_by(f64::total_cmp);
                    let at = |q: usize| scores.get(scores.len() * q / 4).copied();
                    let bounds = match bounds {
                        0 => (None, None),
                        1 => (at(1), None),
                        _ => (at(1), at(3)),
                    };
                    check(&model, &rows, users.clone(), bounds)?;
                }
            }
        }

        /// Exactly one block, one block and a tuple, and two blocks and a
        /// tuple: the first `next()` pulls one block (and the end of the
        /// outer only if the block is not full).
        #[test]
        fn join_blocks_pull_the_outer_a_block_at_a_time() {
            let model = wide_model();
            let every_item = model.matrix().item_ids().to_vec();
            for n in [1, 255, 256, 257, 513] {
                let keys: Vec<Value> = (0..n)
                    .map(|j| Value::Int(every_item[j % every_item.len()]))
                    .collect();
                let rows = outer_rows(&keys);
                check(&model, &rows, None, (None, None)).unwrap();
                let guard = QueryGuard::unlimited();
                let (mut op, pulls) = join(&model, rows, None, (None, None), &guard);
                op.next().unwrap().unwrap();
                let first_block = n.min(JOIN_BLOCK_TUPLES) + usize::from(n < JOIN_BLOCK_TUPLES);
                assert_eq!(pulls.get(), first_block, "outer of {n}");
            }
        }

        /// A row budget trips under exactly the budgets it tripped under
        /// tuple at a time.
        #[test]
        fn join_blocks_bill_the_tuple_at_a_time_row_units() {
            let model = wide_model();
            let keys: Vec<Value> = (0..300).map(|j| Value::Int(j % 80)).collect();
            let rows = outer_rows(&keys);
            let users = Some(vec![3, 5]);
            let want = per_pair_reference(&model, &rows, users.clone(), (None, None));
            let units = (rows.len() + want.len() + 1) as u64;
            for (budget, ok) in [(units, true), (units - 1, false)] {
                let guard = QueryGuard::with_limits(None, Some(budget), None);
                let (mut op, _) = join(&model, rows.clone(), users.clone(), (None, None), &guard);
                assert_eq!(drain(&mut op).is_ok(), ok, "budget {budget} of {units}");
            }
        }

        /// Cancellation and the deadline stop the operator at the block
        /// boundary: the next block is never pulled.
        #[test]
        fn join_blocks_observe_cancel_and_deadline_between_blocks() {
            use crate::error::ExecError;
            use recdb_guard::GuardError;
            use std::time::Duration;
            let model = wide_model();
            let keys: Vec<Value> = (0..600).map(|j| Value::Int(1 + j % 70)).collect();
            let rows = outer_rows(&keys);
            let users = Some(vec![3]);
            let want = per_pair_reference(&model, &rows, users.clone(), (None, None));
            let in_first = want
                .iter()
                .filter(|r| r.3 < JOIN_BLOCK_TUPLES as i64)
                .count();
            assert!(in_first > 0 && in_first < want.len());
            let first_block = |guard: &QueryGuard| {
                let (mut op, pulls) =
                    join(&model, rows.clone(), users.clone(), (None, None), guard);
                for row in &want[..in_first] {
                    assert_eq!(joined(&[op.next().unwrap().unwrap()]), [*row]);
                }
                assert_eq!(pulls.get(), JOIN_BLOCK_TUPLES);
                (op, pulls)
            };
            let cancelled = |op: &mut JoinRecommendOp, pulls: &Rc<Cell<usize>>| {
                let stopped = matches!(
                    op.next(),
                    Some(Err(ExecError::Guard(GuardError::Cancelled { .. })))
                );
                stopped && pulls.get() == JOIN_BLOCK_TUPLES
            };

            let guard = QueryGuard::unlimited();
            let (mut op, pulls) = first_block(&guard);
            guard.cancel();
            assert!(cancelled(&mut op, &pulls));

            let guard = QueryGuard::with_limits(Some(Duration::from_millis(200)), None, None);
            let (mut op, pulls) = first_block(&guard);
            std::thread::sleep(Duration::from_millis(220));
            assert!(cancelled(&mut op, &pulls));
        }

        /// A `uPred` of every user shrinks the block so the score grid
        /// stays at most `JOIN_BLOCK_PAIRS`.
        #[test]
        fn many_users_shrink_the_block() {
            let users: Vec<i64> = (0..1000).collect();
            let ratings = users.iter().map(|&u| Rating::new(u, u % 7, 3.0));
            let model = Arc::new(
                RecModel::train(
                    Algorithm::Popularity,
                    RatingsMatrix::from_ratings(ratings),
                    &Default::default(),
                    &QueryGuard::unlimited(),
                )
                .unwrap(),
            );
            let keys: Vec<Value> = (0..40).map(|j| Value::Int(j % 7)).collect();
            let rows = outer_rows(&keys);
            check(&model, &rows, None, (None, None)).unwrap();
            let guard = QueryGuard::unlimited();
            let (mut op, pulls) = join(&model, rows, None, (None, None), &guard);
            op.next().unwrap().unwrap();
            assert_eq!(pulls.get(), JOIN_BLOCK_PAIRS / 1000);
        }
    }

    #[test]
    fn filter_recommend_does_less_prediction_work_than_full() {
        // Cost-shape assertion: the filtered operator emits (and therefore
        // scored) a small fraction of what the full operator does.
        let full = drain(&mut RecommendOp::new(
            model(),
            rec_schema(),
            None,
            None,
            None,
            None,
            QueryGuard::unlimited(),
        ))
        .unwrap()
        .len();
        let filtered = drain(&mut RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2]),
            None,
            None,
            QueryGuard::unlimited(),
        ))
        .unwrap()
        .len();
        assert!(filtered * 2 <= full, "filtered {filtered} vs full {full}");
    }
}
