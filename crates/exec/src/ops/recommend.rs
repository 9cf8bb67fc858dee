//! The recommendation-aware operator family (§IV).
//!
//! * [`RecommendOp`] — Algorithms 1/2: score user/item pairs from the
//!   trained model. With uid/iid/ratingval predicates pushed into it, it is
//!   the paper's FILTERRECOMMEND: only the requested users/items are
//!   scored, so cost scales with the predicate selectivity instead of
//!   `|U| × |I|`. Without a pushed-down item list (paper Query 1's shape)
//!   it scores one *user block* at a time through
//!   [`RecModel::score_unseen_into`]; with one it scores per pair, so a
//!   three-item `IN` list never pays for a whole-domain pass. Which of the
//!   two runs is a property of the plan, not a setting. Under
//!   `ORDER BY <score> DESC LIMIT k` the planner hands it the `k`
//!   ([`RecommendOp::with_top_k`]): it then ranks inside the scoring pass
//!   and builds only the `k` winning tuples.
//! * [`JoinRecommendOp`] — §IV-B2: streams the (already filtered) outer
//!   relation and predicts a score only for items that survive the join
//!   predicate.
//! * [`IndexRecommendOp`] — Algorithm 3: serves pre-computed scores from
//!   the [`RecScoreIndex`] in descending score order per user (Phase I
//!   user filter → Phase II rating-range tree traversal → Phase III item
//!   filter).
//!
//! All three emit `〈user, item, ratingval〉` tuples for items **unseen** by
//! the user ("each tuple represents ... item i (unseen by user uid)");
//! pairs with no model signal score 0 (Algorithm 1 line 14). Both facts
//! live in `recdb-algo`: the per-pair paths below call
//! [`RecModel::unseen_score`], the block paths its user-at-a-time form.

use super::PhysicalOp;
use crate::error::ExecResult;
use crate::rec_index::{RecScoreIndex, ScoreCursor};
use recdb_algo::{RecModel, ScoreScratch};
use recdb_guard::QueryGuard;
use recdb_storage::{Schema, Tuple, Value};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::Arc;

fn in_bounds(score: f64, min: Option<f64>, max: Option<f64>) -> bool {
    min.is_none_or(|m| score >= m) && max.is_none_or(|m| score <= m)
}

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
    /// The pushed-down `iPred` as `(iid, dense item index)`; `None` scores
    /// the whole item domain a user block at a time.
    items: Option<Vec<(i64, usize)>>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// Next user to start.
    u_cursor: usize,
    /// Per-pair path: next entry of `items` for `users[u_cursor]`.
    /// Block path: next entry of `block`.
    i_cursor: usize,
    /// Block path: `(dense item index, score)` of every unseen item of
    /// `users[u_cursor - 1]`, ascending in item index.
    block: Vec<(usize, f64)>,
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
    pub fn new(
        model: Arc<RecModel>,
        schema: Schema,
        users: Option<Vec<i64>>,
        items: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
    ) -> Self {
        let filtered =
            users.is_some() || items.is_some() || min_rating.is_some() || max_rating.is_some();
        let users = resolve_users(&model, users);
        let items = items.map(|list| resolve_ids(list, |i| model.matrix().item_idx(i)));
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
            scratch: ScoreScratch::default(),
            guard: QueryGuard::unlimited(),
            filtered,
            top_k: None,
            selected: None,
            buffered_bytes: 0,
        }
    }

    /// End in a bounded selection: emit only the best `k` rows of the
    /// operator's output, in the order `ORDER BY <score> DESC` over
    /// INDEXRECOMMEND delivers — score descending under
    /// [`f64::total_cmp`], then the user's position in the `uPred` list,
    /// then item id descending (the RecScoreIndex key order). Pairs are
    /// scored and bounded exactly as without the sink, ranked per user
    /// with [`RecModel::rank_top_k`], and only the `k` winners become
    /// tuples; the operator is blocking, like the sort it replaces.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Attach a resource governor. Every `(user, item)` pair of the
    /// operator's domain is one row unit — including pairs skipped as
    /// already-rated or out-of-bounds. The per-pair path charges them one
    /// by one; the block path charges a user's pairs when it scores the
    /// block (that is when the work is done) and observes cancellation
    /// and the deadline between blocks. The top-k sink charges every user
    /// as one block and the memory budget with the `≤ k` rows it holds;
    /// with `k = 0` it scores nothing and bills the end-of-stream unit
    /// only.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// The best `k` in-bounds `(item index, score)` pairs of dense user
    /// `u`, ranked; bills the user's block.
    fn user_top_k(&mut self, u: usize, k: usize) -> ExecResult<Vec<(usize, f64)>> {
        let (model, min, max) = (&self.model, self.min_rating, self.max_rating);
        let domain = self
            .items
            .as_ref()
            .map_or(model.matrix().n_items(), Vec::len);
        self.guard.tick_n(domain as u64 + 1)?;
        self.block.clear();
        match &self.items {
            None if min.is_none() && max.is_none() => return Ok(model.top_k_unseen(u, k)),
            None => model.score_unseen_into(u, &mut self.scratch, &mut self.block),
            Some(items) => self.block.extend(
                items
                    .iter()
                    .filter_map(|&(_, i)| Some((i, model.unseen_score(u, i)?))),
            ),
        }
        let kept = self.block.iter().filter(|(_, s)| in_bounds(*s, min, max));
        Ok(model.rank_top_k(kept.copied(), k))
    }

    /// Run the top-k sink over every user.
    fn select(&mut self, k: usize) -> ExecResult<Vec<Tuple>> {
        // `(uid, dense item index, score)`, best first, at most `k`.
        let mut best: Vec<(i64, usize, f64)> = Vec::new();
        // `LIMIT 0` asks for no row: no block is scored or billed.
        let users = if k == 0 { 0 } else { self.users.len() };
        for at in 0..users {
            let (user, u) = self.users[at];
            let top = self.user_top_k(u, k)?;
            best.extend(top.into_iter().map(|(i, score)| (user, i, score)));
            // Stable, so equal scores stay in user-list order and, within
            // a user, in rank order (item id descending).
            best.sort_by(|a, b| b.2.total_cmp(&a.2));
            best.truncate(k);
            let held = best.len() as u64 * REC_TUPLE_BYTES;
            if held > self.buffered_bytes {
                self.guard.charge_mem(held - self.buffered_bytes)?;
                self.buffered_bytes = held;
            }
        }
        // End of stream is one row unit, as on the streaming paths.
        self.guard.tick()?;
        let matrix = self.model.matrix();
        Ok(best
            .into_iter()
            .map(|(user, i, score)| rec_tuple(user, matrix.item_id(i), score))
            .collect())
    }

    /// Whole item domain: one scoring pass per user, tuples from the block.
    fn next_from_blocks(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            while let Some(&(i, score)) = self.block.get(self.i_cursor) {
                self.i_cursor += 1;
                if in_bounds(score, self.min_rating, self.max_rating) {
                    let (user, _) = self.users[self.u_cursor - 1];
                    return Some(Ok(rec_tuple(user, self.model.matrix().item_id(i), score)));
                }
            }
            let Some(&(_, u)) = self.users.get(self.u_cursor) else {
                // End of stream is one row unit, as on the per-pair path.
                return self.guard.tick().err().map(|e| Err(e.into()));
            };
            // What the per-pair loop would bill for this user: one unit
            // per item of the domain plus the step to the next user.
            let pairs = self.model.matrix().n_items() as u64;
            if let Err(e) = self.guard.tick_n(pairs + 1) {
                return Some(Err(e.into()));
            }
            self.block.clear();
            self.model
                .score_unseen_into(u, &mut self.scratch, &mut self.block);
            self.u_cursor += 1;
            self.i_cursor = 0;
        }
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
        let Some(items) = &self.items else {
            return self.next_from_blocks();
        };
        // Pushed-down item list: Eq. 2/3 per requested pair.
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            let &(user, u) = self.users.get(self.u_cursor)?;
            let Some(&(item, i)) = items.get(self.i_cursor) else {
                self.u_cursor += 1;
                self.i_cursor = 0;
                continue;
            };
            self.i_cursor += 1;
            // Unseen items only; rated pairs are not recommendations.
            let Some(score) = self.model.unseen_score(u, i) else {
                continue;
            };
            if in_bounds(score, self.min_rating, self.max_rating) {
                return Some(Ok(rec_tuple(user, item, score)));
            }
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
    pending: VecDeque<Tuple>,
    guard: QueryGuard,
}

impl<'a> JoinRecommendOp<'a> {
    /// Build the operator. `rec_schema` is the recommend leaf's 3-column
    /// schema; the output schema is `rec_schema ⊕ outer.schema()`.
    pub fn new(
        model: Arc<RecModel>,
        rec_schema: Schema,
        outer: Box<dyn PhysicalOp + 'a>,
        outer_item_ordinal: usize,
        users: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
    ) -> Self {
        let users = resolve_users(&model, users);
        let schema = rec_schema.join(outer.schema());
        JoinRecommendOp {
            model,
            schema,
            outer,
            outer_item_ordinal,
            users,
            min_rating,
            max_rating,
            pending: VecDeque::new(),
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor (checked once per outer tuple /
    /// emitted tuple).
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }
}

impl PhysicalOp for JoinRecommendOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            if let Some(t) = self.pending.pop_front() {
                return Some(Ok(t));
            }
            let outer_tuple = match self.outer.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            let Some(item) = outer_tuple
                .get(self.outer_item_ordinal)
                .and_then(Value::as_int)
            else {
                continue; // NULL / non-integer join keys never match
            };
            let Some(i) = self.model.matrix().item_idx(item) else {
                continue; // items outside the recommender's universe
            };
            for &(user, u) in &self.users {
                let Some(score) = self.model.unseen_score(u, i) else {
                    continue;
                };
                if !in_bounds(score, self.min_rating, self.max_rating) {
                    continue;
                }
                self.pending
                    .push_back(rec_tuple(user, item, score).join(&outer_tuple));
            }
        }
    }

    fn name(&self) -> &'static str {
        "JoinRecommend"
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
    /// rating bounds are the Phase II `rPred`.
    pub fn new(
        index: Arc<RecScoreIndex>,
        schema: Schema,
        users: Vec<i64>,
        item_filter: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
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
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor (one row unit per emitted tuple and per
    /// user started, so cancellation and the deadline are observed
    /// between entries of a long drain).
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
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
        Arc::new(RecModel::train(
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
        ))
    }

    #[test]
    fn full_recommend_covers_all_unseen_pairs() {
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, None, None);
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

    /// The whole-domain (user block) path and the pushed-down-list (per
    /// pair) path are two evaluations of the same relation: listing every
    /// item explicitly must give the same rows, order and score bits.
    #[test]
    fn block_path_matches_per_pair_path_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let model = Arc::new(RecModel::train(
                algo,
                model().matrix().clone(),
                &Default::default(),
            ));
            let every_item = model.matrix().item_ids().to_vec();
            for (min, max) in [(None, None), (Some(1.2), None), (Some(0.5), Some(1.2))] {
                for users in [None, Some(vec![4, 1, 99, 4])] {
                    let mut blocks = RecommendOp::new(
                        model.clone(),
                        rec_schema(),
                        users.clone(),
                        None,
                        min,
                        max,
                    );
                    let mut pairs = RecommendOp::new(
                        model.clone(),
                        rec_schema(),
                        users.clone(),
                        Some(every_item.clone()),
                        min,
                        max,
                    );
                    assert_eq!(
                        triples(&drain(&mut blocks).unwrap()),
                        triples(&drain(&mut pairs).unwrap()),
                        "{algo} users {users:?} bounds {min:?}..{max:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_path_bills_the_per_pair_row_units() {
        // 4 users × (3 items + 1 step to the next user) + 1 end of stream.
        const UNITS: u64 = 4 * (3 + 1) + 1;
        let every_item = model().matrix().item_ids().to_vec();
        for items in [None, Some(every_item)] {
            let run = |budget: Option<u64>| {
                let guard = QueryGuard::with_limits(None, budget, None);
                let mut op =
                    RecommendOp::new(model(), rec_schema(), None, items.clone(), None, None)
                        .with_guard(guard.clone());
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
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, None, None)
            .with_guard(guard.clone());
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
        let mut op = RecommendOp::new(model(), rec_schema(), Some(vec![1]), None, None, None);
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
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, Some(0.5), None);
        let got = drain(&mut op).unwrap();
        assert!(got
            .iter()
            .all(|t| t.get(2).unwrap().as_f64().unwrap() >= 0.5));
        let mut unbounded = RecommendOp::new(model(), rec_schema(), None, None, None, None);
        assert!(drain(&mut unbounded).unwrap().len() >= got.len());
    }

    #[test]
    fn unknown_ids_are_outside_the_domain() {
        // Users/items that never appear in the ratings table are not part
        // of the recommender's U × I and yield no rows.
        let mut op = RecommendOp::new(model(), rec_schema(), Some(vec![99]), None, None, None);
        assert!(drain(&mut op).unwrap().is_empty());
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2, 44, 45]),
            None,
            None,
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
        let mut op =
            JoinRecommendOp::new(model(), rec_schema(), outer, 0, Some(vec![1]), None, None);
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
        let mut op = JoinRecommendOp::new(model(), rec_schema(), outer, 0, Some(users), None, None);
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
        let mut op =
            JoinRecommendOp::new(model(), rec_schema(), outer, 0, Some(vec![1]), None, None);
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
        let mut op = IndexRecommendOp::new(sample_index(), rec_schema(), vec![1], None, None, None);
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
        let mut op =
            IndexRecommendOp::new(sample_index(), rec_schema(), vec![42], None, None, None);
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
        Arc::new(RecModel::train(
            Algorithm::ItemCosCF,
            RatingsMatrix::from_ratings(ratings),
            &Default::default(),
        ))
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
                )
                .with_guard(guard.clone());
                let mut limited = crate::ops::LimitOp::new(Box::new(op), k as u64);
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
            let mut op =
                IndexRecommendOp::new(index.clone(), rec_schema(), vec![3], None, None, None)
                    .with_guard(guard.clone());
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
                    let model = Arc::new(RecModel::train(algo, matrix.clone(), &config));
                    let op = |min: Option<f64>, max: Option<f64>, guard: &QueryGuard| {
                        RecommendOp::new(
                            model.clone(),
                            rec_schema(),
                            users.clone(),
                            items.clone(),
                            min,
                            max,
                        )
                        .with_guard(guard.clone())
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
                        let mut sort = SortOp::new(Box::new(op(min, max, &guard)), vec![(score, true)])
                            .with_guard(guard.clone());
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
                let mut op = RecommendOp::new(model(), rec_schema(), None, None, None, None)
                    .with_guard(guard.clone())
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
                let mut op =
                    RecommendOp::new(model.clone(), rec_schema(), Some(vec![3]), None, None, None);
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
        ))
        .unwrap()
        .len();
        assert!(filtered * 2 <= full, "filtered {filtered} vs full {full}");
    }
}
