//! The sparse user/item ratings matrix.
//!
//! [`RatingsMatrix`] is the in-memory form of the paper's `Ratings(uid, iid,
//! ratingval)` table: external 64-bit user/item ids are mapped to dense
//! indexes. Each user's row of `(item, f64 rating)` pairs, sorted by item,
//! is the one exact copy of the ratings (what [`RatingsMatrix::rating_at`]
//! reads). Beside it sit two read-only CSR views with `f32` values for the
//! numeric kernels: by user (the *UserVector table* of Algorithm 1) and its
//! transpose by item (the *ItemVector table*), each row sorted by dense
//! index so similarity computations can merge-intersect in linear time.

use std::collections::HashMap;

/// Compressed-sparse-row view of one orientation of the ratings matrix.
///
/// Row `r` occupies `row_ptr[r] .. row_ptr[r + 1]` in the two flat
/// arrays: `col_idx` holds the dense column indexes (sorted ascending
/// within each row, `u32` — half the footprint of `usize`) and `values`
/// the ratings, narrowed to `f32` for the numeric kernels. The views are
/// built once from the user rows and are read-only; the rows stay
/// authoritative for `f64` lookups.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    fn from_rows(rows: &[Vec<(usize, f64)>]) -> Self {
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

    /// The transpose over `n_cols` columns, by the counting sort
    /// [`crate::NeighborhoodTable::from_lists`] transposes with: count each
    /// column, prefix-sum into row starts, then place entries walking rows
    /// ascending, so every transposed row comes out sorted.
    fn transpose(&self, n_cols: usize) -> Self {
        let mut row_ptr = vec![0usize; n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..n_cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..n_cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.n_rows() {
            let r32 = u32::try_from(r).expect("dense index exceeds u32");
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let at = &mut next[c as usize];
                col_idx[*at] = r32;
                values[*at] = v;
                *at += 1;
            }
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

    /// The half-open range of row `r` in the flat arrays.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// The row-pointer array (`n_rows + 1` entries, first 0, last `nnz`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
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
    /// CSR over users (row = user, col = item), built once in
    /// [`RatingsMatrix::from_ratings`].
    user_csr: Csr,
    /// CSR over items (row = item, col = user) — the CSC view.
    item_csr: Csr,
}

impl RatingsMatrix {
    /// Build from observations. If the same `(user, item)` pair appears more
    /// than once, the **last** rating wins (a re-rate overwrites), matching
    /// UPDATE semantics on a keyed ratings table.
    pub fn from_ratings(ratings: impl IntoIterator<Item = Rating>) -> Self {
        let mut m = RatingsMatrix::default();
        // Ids intern in first-appearance order, duplicates included.
        for r in ratings {
            let u = intern(&mut m.user_index, &mut m.user_ids, r.user);
            let i = intern(&mut m.item_index, &mut m.item_ids, r.item);
            m.by_user.resize_with(m.user_ids.len(), Vec::new);
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
            row.shrink_to_fit();
        }
        m.user_csr = Csr::from_rows(&m.by_user);
        m.item_csr = m.user_csr.transpose(m.n_items());
        m
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

    /// A user's rated items as sorted `(item_idx, rating)` pairs.
    pub fn user_row(&self, user_idx: usize) -> &[(usize, f64)] {
        &self.by_user[user_idx]
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
        if self.n_ratings() == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .by_user
            .iter()
            .flat_map(|row| row.iter().map(|&(_, r)| r))
            .sum();
        sum / self.n_ratings() as f64
    }
}

/// `id`'s dense index, assigning the next one on first sight.
fn intern(index: &mut HashMap<i64, usize>, ids: &mut Vec<i64>, id: i64) -> usize {
    *index.entry(id).or_insert_with(|| {
        ids.push(id);
        ids.len() - 1
    })
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
            assert!(m.user_row(u).windows(2).all(|w| w[0].0 < w[1].0));
        }
        for i in 0..m.n_items() {
            assert!(m.item_csr().row(i).0.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn csr_views_mirror_jagged_rows() {
        let m = small();
        assert_eq!(m.user_csr().n_rows(), m.n_users());
        assert_eq!(m.item_csr().n_rows(), m.n_items());
        assert_eq!(m.user_csr().nnz(), m.n_ratings());
        assert_eq!(m.item_csr().nnz(), m.n_ratings());
        let mut columns = vec![Vec::new(); m.n_items()];
        for u in 0..m.n_users() {
            let (cols, vals) = m.user_csr().row(u);
            let jagged = m.user_row(u);
            assert_eq!(cols.len(), jagged.len());
            for ((&c, &v), &(i, r)) in cols.iter().zip(vals).zip(jagged) {
                assert_eq!(c as usize, i);
                assert_eq!(f64::from(v), r, "half-star ratings are f32-exact");
                columns[i].push((u, r));
            }
        }
        for (i, column) in columns.iter().enumerate() {
            let (cols, vals) = m.item_csr().row(i);
            assert_eq!(cols.len(), column.len());
            for ((&c, &v), &(u, r)) in cols.iter().zip(vals).zip(column) {
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
