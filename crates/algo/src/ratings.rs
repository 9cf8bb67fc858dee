//! The sparse user/item ratings matrix.
//!
//! [`RatingsMatrix`] is the in-memory form of the paper's `Ratings(uid, iid,
//! ratingval)` table: external 64-bit user/item ids are mapped to dense
//! indexes, and the ratings are stored once, as a [`Csr`] by user (the
//! *UserVector table* of Algorithm 1) beside its transpose by item (the
//! *ItemVector table*), each row sorted by dense index so similarity
//! computations can merge-intersect in linear time. Values are `f32`, the
//! precision every model consumes; the heap keeps the `f64` the user
//! inserted, and every half-star rating is exact in both.

use crate::csr::Csr;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;

/// One `(user, item, rating)` observation with external ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// External user id (the `uid` column).
    pub user: i64,
    /// External item id (the `iid` column).
    pub item: i64,
    /// The rating value (numeric scale, e.g. 1–5, or unary 1.0).
    pub value: f64,
}

impl Rating {
    /// Construct a rating.
    pub fn new(user: i64, item: i64, value: f64) -> Self {
        Rating { user, item, value }
    }
}

/// Sparse ratings matrix with dense user/item index spaces.
#[derive(Debug, Clone, Default)]
pub struct RatingsMatrix {
    user_ids: Vec<i64>,
    item_ids: Vec<i64>,
    user_index: HashMap<i64, usize>,
    item_index: HashMap<i64, usize>,
    /// CSR over users (row = user, col = item), built once by
    /// [`RatingsBuilder::build`].
    user_csr: Csr<f32>,
    /// CSR over items (row = item, col = user): the user CSR's transpose.
    item_csr: Csr<f32>,
    /// Dense item indexes in descending item id order.
    items_by_id_desc: Vec<u32>,
}

impl RatingsMatrix {
    /// Build from observations. If the same `(user, item)` pair appears more
    /// than once, the **last** rating wins (a re-rate overwrites), matching
    /// UPDATE semantics on a keyed ratings table.
    pub fn from_ratings(ratings: impl IntoIterator<Item = Rating>) -> Self {
        let ratings = ratings.into_iter();
        let mut builder = RatingsBuilder::with_capacity(ratings.size_hint().0);
        for r in ratings {
            builder.push(r.user, r.item, r.value);
        }
        builder.build()
    }

    /// Number of distinct users.
    pub fn n_users(&self) -> usize {
        self.user_ids.len()
    }

    /// Number of distinct items.
    pub fn n_items(&self) -> usize {
        self.item_ids.len()
    }

    /// Number of stored ratings (after last-wins dedup).
    pub fn n_ratings(&self) -> usize {
        self.user_csr.nnz()
    }

    /// Dense index of an external user id.
    pub fn user_idx(&self, user: i64) -> Option<usize> {
        self.user_index.get(&user).copied()
    }

    /// Dense index of an external item id.
    pub fn item_idx(&self, item: i64) -> Option<usize> {
        self.item_index.get(&item).copied()
    }

    /// External id of a dense user index.
    pub fn user_id(&self, idx: usize) -> i64 {
        self.user_ids[idx]
    }

    /// External id of a dense item index.
    pub fn item_id(&self, idx: usize) -> i64 {
        self.item_ids[idx]
    }

    /// All external user ids, in first-seen order.
    pub fn user_ids(&self) -> &[i64] {
        &self.user_ids
    }

    /// All external item ids, in first-seen order.
    pub fn item_ids(&self) -> &[i64] {
        &self.item_ids
    }

    /// Dense item indexes in descending item **id** order: the order in
    /// which [`crate::serving_order`] breaks ties between one user's
    /// items.
    pub fn items_by_id_desc(&self) -> &[u32] {
        &self.items_by_id_desc
    }

    /// CSR view over users: row `u` = user `u`'s `(item_idx, rating)`
    /// entries as parallel flat slices. Empty for a default matrix.
    pub fn user_csr(&self) -> &Csr<f32> {
        &self.user_csr
    }

    /// CSR view over items (the CSC of the user view): row `i` = item
    /// `i`'s `(user_idx, rating)` entries.
    pub fn item_csr(&self) -> &Csr<f32> {
        &self.item_csr
    }

    /// The rating user `user_idx` gave item `item_idx`, if any.
    pub fn rating_at(&self, user_idx: usize, item_idx: usize) -> Option<f64> {
        self.user_csr.get(user_idx, item_idx).map(f64::from)
    }

    /// Dense indexes of the items user `user_idx` has **not** rated,
    /// ascending — the candidate set of a `RECOMMEND` for that user.
    pub fn unseen_items(&self, user_idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.unseen_runs(user_idx).flatten()
    }

    /// [`unseen_items`](Self::unseen_items) as ascending non-empty runs of
    /// consecutive indexes — the gaps between the user's rated items — so
    /// a pass over a dense per-item row tests nothing per item.
    pub fn unseen_runs(&self, user_idx: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let (rated, _) = self.user_csr.row(user_idx);
        // The row ascends without repeats; the domain's end closes the
        // last gap.
        let ends = rated.iter().map(|&i| i as usize).chain([self.n_items()]);
        let mut start = 0;
        ends.map(move |end| {
            let run = start..end;
            start = end + 1;
            run
        })
        .filter(|run| !run.is_empty())
    }

    /// The rating for external ids, if both exist and the pair is rated.
    pub fn rating_of(&self, user: i64, item: i64) -> Option<f64> {
        let u = self.user_idx(user)?;
        let i = self.item_idx(item)?;
        self.rating_at(u, i)
    }

    /// Mean of all stored ratings (0 if empty) — the SVD baseline offset.
    pub fn global_mean(&self) -> f64 {
        if self.n_ratings() == 0 {
            return 0.0;
        }
        let sum: f64 = self.user_csr.iter().map(|(_, _, r)| f64::from(r)).sum();
        sum / self.n_ratings() as f64
    }
}

/// A [`RatingsMatrix`] under construction, fed one observation at a time
/// — by [`RatingsMatrix::from_ratings`] and by a scan of a ratings table
/// alike. Ids intern in first-appearance order, duplicates included, and
/// each observation is held as one 12-byte `(user, item, value)` triple
/// until [`RatingsBuilder::build`] lays the triples out as the user CSR
/// (the last rating of a pair wins) and drops them before it transposes.
#[derive(Debug, Default)]
pub struct RatingsBuilder {
    matrix: RatingsMatrix,
    triples: Vec<(u32, u32, f32)>,
}

impl RatingsBuilder {
    /// A builder with room for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        RatingsBuilder {
            matrix: RatingsMatrix::default(),
            triples: Vec::with_capacity(n),
        }
    }

    /// Add one observation; the value is held at `f32`, the precision
    /// every model consumes.
    pub fn push(&mut self, user: i64, item: i64, value: f64) {
        let m = &mut self.matrix;
        let u = intern(&mut m.user_index, &mut m.user_ids, user);
        let i = intern(&mut m.item_index, &mut m.item_ids, item);
        self.triples.push((u, i, value as f32));
    }

    /// The matrix of every observation pushed.
    pub fn build(self) -> RatingsMatrix {
        let RatingsBuilder {
            matrix: mut m,
            triples,
        } = self;
        m.user_csr = Csr::from_triples(m.n_users(), triples.iter().copied());
        drop(triples);
        m.item_csr = m.user_csr.transpose(m.n_items());
        m.items_by_id_desc = (0..m.n_items() as u32).collect();
        m.items_by_id_desc
            .sort_unstable_by_key(|&i| Reverse(m.item_ids[i as usize]));
        m
    }
}

/// `id`'s dense index, assigning the next one on first sight.
fn intern(index: &mut HashMap<i64, usize>, ids: &mut Vec<i64>, id: i64) -> u32 {
    let idx = *index.entry(id).or_insert_with(|| {
        ids.push(id);
        ids.len() - 1
    });
    u32::try_from(idx).expect("dense index exceeds u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RatingsMatrix {
        RatingsMatrix::from_ratings(vec![
            Rating::new(1, 1, 1.5),
            Rating::new(2, 2, 3.5),
            Rating::new(2, 1, 4.5),
            Rating::new(2, 3, 2.0),
            Rating::new(3, 2, 1.0),
            Rating::new(3, 1, 2.0),
            Rating::new(4, 2, 1.0),
        ])
    }

    #[test]
    fn dimensions_match_paper_figure1() {
        // The Figure 1 ratings table: 4 users, 3 items, 7 ratings.
        let m = small();
        assert_eq!(m.n_users(), 4);
        assert_eq!(m.n_items(), 3);
        assert_eq!(m.n_ratings(), 7);
    }

    #[test]
    fn row_and_column_views_agree() {
        let m = small();
        let u2 = m.user_idx(2).unwrap();
        let (items, _) = m.user_csr().row(u2);
        let rated: Vec<i64> = items.iter().map(|&i| m.item_id(i as usize)).collect();
        assert_eq!(rated, vec![1, 2, 3]); // sorted by dense idx = first-seen
        let i1 = m.item_idx(1).unwrap();
        let (users, _) = m.item_csr().row(i1);
        let raters: Vec<i64> = users.iter().map(|&u| m.user_id(u as usize)).collect();
        assert_eq!(raters, vec![1, 2, 3]);
    }

    #[test]
    fn rating_lookup() {
        let m = small();
        assert_eq!(m.rating_of(2, 1), Some(4.5));
        assert_eq!(m.rating_of(1, 2), None, "unrated pair");
        assert_eq!(m.rating_of(99, 1), None, "unknown user");
        assert_eq!(m.rating_of(1, 99), None, "unknown item");
    }

    #[test]
    fn duplicate_pair_last_wins() {
        let m = RatingsMatrix::from_ratings(vec![Rating::new(1, 1, 2.0), Rating::new(1, 1, 5.0)]);
        assert_eq!(m.n_ratings(), 1);
        assert_eq!(m.rating_of(1, 1), Some(5.0));
    }

    #[test]
    fn global_mean() {
        let m = RatingsMatrix::from_ratings(vec![
            Rating::new(1, 1, 1.0),
            Rating::new(1, 2, 2.0),
            Rating::new(2, 1, 3.0),
        ]);
        assert!((m.global_mean() - 2.0).abs() < 1e-12);
        assert_eq!(RatingsMatrix::default().global_mean(), 0.0);
    }

    #[test]
    fn adjacency_lists_sorted() {
        let m = small();
        for u in 0..m.n_users() {
            assert!(m.user_csr().row(u).0.windows(2).all(|w| w[0] < w[1]));
        }
        for i in 0..m.n_items() {
            assert!(m.item_csr().row(i).0.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn item_view_is_the_user_view_transposed() {
        let m = small();
        assert_eq!(m.user_csr().n_rows(), m.n_users());
        assert_eq!(m.item_csr().n_rows(), m.n_items());
        assert_eq!(m.item_csr().nnz(), m.n_ratings());
        for (u, i, r) in m.user_csr().iter() {
            assert_eq!(m.item_csr().get(i as usize, u as usize), Some(r));
        }
    }

    /// The one precision change of storing the ratings once: an
    /// f32-inexact rating reads back widened from f32, and Popularity
    /// averages the widened values.
    #[test]
    fn ratings_are_held_at_f32() {
        let m = RatingsMatrix::from_ratings(vec![
            Rating::new(1, 1, 3.7),
            Rating::new(2, 1, 4.5),
            Rating::new(2, 2, 1.0),
        ]);
        let widened = f64::from(3.7f32);
        assert_ne!(widened, 3.7);
        assert_eq!(m.rating_of(1, 1), Some(widened));
        let mean = (widened + 4.5 + 1.0) / 3.0;
        assert_eq!(m.global_mean(), mean);
        let k = crate::popularity::DEFAULT_DAMPING;
        let model = crate::PopularityModel::train(m.clone());
        let mut score = Vec::new();
        model.predict_items_into(&[m.item_idx(1).unwrap()], &mut score);
        assert_eq!(score, vec![Some((widened + 4.5 + k * mean) / (2.0 + k))]);
    }

    #[test]
    fn csr_row_ptr_is_monotone_and_complete() {
        let m = small();
        let ptr = m.user_csr().row_ptr();
        assert_eq!(ptr.first(), Some(&0));
        assert_eq!(ptr.last(), Some(&m.n_ratings()));
        assert!(ptr.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m.user_csr().row_range(0), 0..m.user_csr().row(0).0.len());
    }

    #[test]
    fn default_matrix_has_empty_csr() {
        let m = RatingsMatrix::default();
        assert_eq!(m.user_csr().n_rows(), 0);
        assert_eq!(m.user_csr().nnz(), 0);
        assert_eq!(m.item_csr().n_rows(), 0);
        assert_eq!(m.item_csr().nnz(), 0);
    }

    #[test]
    fn negative_and_large_external_ids() {
        let m = RatingsMatrix::from_ratings(vec![
            Rating::new(-5, i64::MAX, 3.0),
            Rating::new(i64::MIN, -5, 1.0),
        ]);
        assert_eq!(m.rating_of(-5, i64::MAX), Some(3.0));
        assert_eq!(m.rating_of(i64::MIN, -5), Some(1.0));
    }
}
