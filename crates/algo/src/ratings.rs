//! The sparse user/item ratings matrix.
//!
//! [`RatingsMatrix`] is the in-memory form of the paper's `Ratings(uid, iid,
//! ratingval)` table: external 64-bit user/item ids are mapped to dense
//! indexes, and the matrix is stored twice — by row (each user's rated
//! items, the *UserVector table* of Algorithm 1) and by column (each item's
//! raters, the *ItemVector table*). Both adjacency lists are kept sorted by
//! dense index so similarity computations can merge-intersect in linear
//! time.

use std::collections::HashMap;

/// Compressed-sparse-row view of one orientation of the ratings matrix.
///
/// Row `r` occupies `row_ptr[r] .. row_ptr[r + 1]` in the two flat
/// arrays: `col_idx` holds the dense column indexes (sorted ascending
/// within each row, `u32` — half the footprint of `usize`) and `values`
/// the ratings, narrowed to `f32` for the numeric kernels. The view is
/// built once from the jagged adjacency lists and is read-only; the
/// jagged rows stay authoritative for `f64` lookups.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    fn from_jagged(rows: &[Vec<(usize, f64)>]) -> Self {
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in rows {
            for &(col, val) in row {
                col_idx.push(u32::try_from(col).expect("dense index exceeds u32"));
                values.push(val as f32);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows in this orientation.
    pub fn n_rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `r` as parallel `(column indexes, values)` slices.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The half-open `row_ptr` range of row `r` into [`Self::col_idx`].
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// The row-pointer array (`n_rows + 1` entries, first 0, last `nnz`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indexes, row-concatenated.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// All values, row-concatenated, parallel to [`Self::col_idx`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

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
    /// `by_user[u]` = sorted `(item_idx, rating)` list.
    by_user: Vec<Vec<(usize, f64)>>,
    /// `by_item[i]` = sorted `(user_idx, rating)` list.
    by_item: Vec<Vec<(usize, f64)>>,
    /// CSR over users (row = user, col = item), built once in
    /// [`RatingsMatrix::from_ratings`].
    user_csr: Csr,
    /// CSR over items (row = item, col = user) — the CSC view.
    item_csr: Csr,
    n_ratings: usize,
}

impl RatingsMatrix {
    /// Build from observations. If the same `(user, item)` pair appears more
    /// than once, the **last** rating wins (a re-rate overwrites), matching
    /// UPDATE semantics on a keyed ratings table.
    pub fn from_ratings(ratings: impl IntoIterator<Item = Rating>) -> Self {
        let mut m = RatingsMatrix::default();
        // Ids intern in first-appearance order, duplicates included.
        for r in ratings {
            let u = m.intern_user(r.user);
            let i = m.intern_item(r.item);
            m.by_user[u].push((i, r.value));
        }
        // Last-wins: the stable sort keeps a pair's duplicates in arrival
        // order, and each later one overwrites the kept entry.
        for row in &mut m.by_user {
            row.sort_by_key(|&(i, _)| i);
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
            m.n_ratings += row.len();
        }
        // Walking users ascending leaves every column sorted by user.
        for (u, row) in m.by_user.iter().enumerate() {
            for &(i, value) in row {
                m.by_item[i].push((u, value));
            }
        }
        m.user_csr = Csr::from_jagged(&m.by_user);
        m.item_csr = Csr::from_jagged(&m.by_item);
        m
    }

    fn intern_user(&mut self, user: i64) -> usize {
        *self.user_index.entry(user).or_insert_with(|| {
            self.user_ids.push(user);
            self.by_user.push(Vec::new());
            self.user_ids.len() - 1
        })
    }

    fn intern_item(&mut self, item: i64) -> usize {
        *self.item_index.entry(item).or_insert_with(|| {
            self.item_ids.push(item);
            self.by_item.push(Vec::new());
            self.item_ids.len() - 1
        })
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
        self.n_ratings
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

    /// A user's rated items as sorted `(item_idx, rating)` pairs.
    pub fn user_row(&self, user_idx: usize) -> &[(usize, f64)] {
        &self.by_user[user_idx]
    }

    /// An item's raters as sorted `(user_idx, rating)` pairs.
    pub fn item_col(&self, item_idx: usize) -> &[(usize, f64)] {
        &self.by_item[item_idx]
    }

    /// CSR view over users: row `u` = user `u`'s `(item_idx, rating)`
    /// entries as parallel flat slices. Empty for a default matrix.
    pub fn user_csr(&self) -> &Csr {
        &self.user_csr
    }

    /// CSR view over items (the CSC of the user view): row `i` = item
    /// `i`'s `(user_idx, rating)` entries.
    pub fn item_csr(&self) -> &Csr {
        &self.item_csr
    }

    /// The rating user `user_idx` gave item `item_idx`, if any.
    pub fn rating_at(&self, user_idx: usize, item_idx: usize) -> Option<f64> {
        let row = &self.by_user[user_idx];
        row.binary_search_by_key(&item_idx, |&(i, _)| i)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// Dense indexes of the items user `user_idx` has **not** rated,
    /// ascending — the candidate set of a `RECOMMEND` for that user.
    pub fn unseen_items(&self, user_idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (rated, _) = self.user_csr.row(user_idx);
        // Both sequences ascend, so the next rated index is always ≥ `i`.
        let mut rated = rated.iter().map(|&i| i as usize).peekable();
        (0..self.n_items()).filter(move |i| rated.next_if_eq(i).is_none())
    }

    /// The rating for external ids, if both exist and the pair is rated.
    pub fn rating_of(&self, user: i64, item: i64) -> Option<f64> {
        let u = self.user_idx(user)?;
        let i = self.item_idx(item)?;
        self.rating_at(u, i)
    }

    /// Mean of all stored ratings (0 if empty) — the SVD baseline offset.
    pub fn global_mean(&self) -> f64 {
        if self.n_ratings == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .by_user
            .iter()
            .flat_map(|row| row.iter().map(|&(_, r)| r))
            .sum();
        sum / self.n_ratings as f64
    }

    /// Iterate every `(user_idx, item_idx, rating)` triple.
    pub fn iter_dense(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.by_user
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&(i, r)| (u, i, r)))
    }
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
        let rated: Vec<i64> = m.user_row(u2).iter().map(|&(i, _)| m.item_id(i)).collect();
        assert_eq!(rated, vec![1, 2, 3]); // sorted by dense idx = first-seen
        let i1 = m.item_idx(1).unwrap();
        let raters: Vec<i64> = m.item_col(i1).iter().map(|&(u, _)| m.user_id(u)).collect();
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
    fn iter_dense_covers_everything() {
        let m = small();
        let total: usize = m.iter_dense().count();
        assert_eq!(total, 7);
        let sum: f64 = m.iter_dense().map(|(_, _, r)| r).sum();
        assert!((sum - 15.5).abs() < 1e-12);
    }

    #[test]
    fn adjacency_lists_sorted() {
        let m = small();
        for u in 0..m.n_users() {
            assert!(m.user_row(u).windows(2).all(|w| w[0].0 < w[1].0));
        }
        for i in 0..m.n_items() {
            assert!(m.item_col(i).windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn csr_views_mirror_jagged_rows() {
        let m = small();
        assert_eq!(m.user_csr().n_rows(), m.n_users());
        assert_eq!(m.item_csr().n_rows(), m.n_items());
        assert_eq!(m.user_csr().nnz(), m.n_ratings());
        assert_eq!(m.item_csr().nnz(), m.n_ratings());
        for u in 0..m.n_users() {
            let (cols, vals) = m.user_csr().row(u);
            let jagged = m.user_row(u);
            assert_eq!(cols.len(), jagged.len());
            for ((&c, &v), &(i, r)) in cols.iter().zip(vals).zip(jagged) {
                assert_eq!(c as usize, i);
                assert_eq!(f64::from(v), r, "half-star ratings are f32-exact");
            }
        }
        for i in 0..m.n_items() {
            let (cols, vals) = m.item_csr().row(i);
            let jagged = m.item_col(i);
            assert_eq!(cols.len(), jagged.len());
            for ((&c, &v), &(u, r)) in cols.iter().zip(vals).zip(jagged) {
                assert_eq!(c as usize, u);
                assert_eq!(f64::from(v), r);
            }
        }
    }

    #[test]
    fn csr_row_ptr_is_monotone_and_complete() {
        let m = small();
        let ptr = m.user_csr().row_ptr();
        assert_eq!(ptr.first(), Some(&0));
        assert_eq!(ptr.last(), Some(&m.n_ratings()));
        assert!(ptr.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m.user_csr().row_range(0), 0..m.user_row(0).len());
    }

    #[test]
    fn default_matrix_has_empty_csr() {
        let m = RatingsMatrix::default();
        assert_eq!(m.user_csr().n_rows(), 0);
        assert_eq!(m.user_csr().nnz(), 0);
        assert!(m.item_csr().col_idx().is_empty());
        assert!(m.item_csr().values().is_empty());
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
