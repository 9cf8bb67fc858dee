//! Non-personalized (popularity) recommendation — the first class of the
//! paper's §II algorithm taxonomy: "this class of algorithms leverages
//! statistics and/or summary information to recommend the same interesting
//! (e.g., the most highly rated) items to all users".
//!
//! The score of an item is its **damped mean rating**
//!
//! ```text
//! score(i) = (Σ r_{u,i} + k · μ) / (n_i + k)
//! ```
//!
//! where `μ` is the global mean and `k` damps items with few ratings
//! toward it (the classic Bayesian-average ranking, e.g. IMDb's Top 250).
//! Every user receives the same ranking over their unseen items — which is
//! also the standard cold-start fallback when a CF model has no signal.
//!
//! Like the CF models it exposes two scoring kernels, whole domain
//! ([`PopularityModel::score_unseen_into`]) and candidate list
//! ([`PopularityModel::predict_items_into`]), and leaves the Algorithm 1
//! rule to [`crate::RecModel`].

use crate::ratings::RatingsMatrix;

/// Damping strength: an item needs this many ratings before its own mean
/// dominates the global mean.
pub const DEFAULT_DAMPING: f64 = 5.0;

/// A non-personalized popularity model.
#[derive(Debug, Clone)]
pub struct PopularityModel {
    matrix: RatingsMatrix,
    /// Damped mean per dense item index.
    item_scores: Vec<f64>,
    global_mean: f64,
    damping: f64,
}

impl PopularityModel {
    /// Train with the default damping.
    pub fn train(matrix: RatingsMatrix) -> Self {
        PopularityModel::train_with_damping(matrix, DEFAULT_DAMPING)
    }

    /// Train with explicit damping `k ≥ 0`.
    pub fn train_with_damping(matrix: RatingsMatrix, damping: f64) -> Self {
        assert!(damping >= 0.0, "damping must be non-negative");
        let global_mean = matrix.global_mean();
        // Each column's f64 ratings, added in ascending-user order from
        // -0.0 — what `Sum` over the column did — so every score keeps its
        // bits.
        let mut sums = vec![-0.0f64; matrix.n_items()];
        for u in 0..matrix.n_users() {
            for &(i, r) in matrix.user_row(u) {
                sums[i] += r;
            }
        }
        let item_scores = sums
            .into_iter()
            .enumerate()
            .map(|(i, sum)| {
                let n = matrix.item_csr().row_range(i).len() as f64;
                if n + damping == 0.0 {
                    0.0
                } else {
                    (sum + damping * global_mean) / (n + damping)
                }
            })
            .collect();
        PopularityModel {
            matrix,
            item_scores,
            global_mean,
            damping,
        }
    }

    /// The training ratings snapshot.
    pub fn matrix(&self) -> &RatingsMatrix {
        &self.matrix
    }

    /// The global mean rating.
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// The damping constant.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Number of ratings the model was built from.
    pub fn trained_on(&self) -> usize {
        self.matrix.n_ratings()
    }

    /// The damped mean of each item of `items`, appended to `out` in list
    /// order — the same for every user, and never `None`: an item nobody
    /// rated still has the global mean. Raw kernel: it does not look at
    /// whether the user rated a candidate.
    pub fn predict_items_into(&self, items: &[usize], out: &mut Vec<Option<f64>>) {
        out.extend(items.iter().map(|&i| Some(self.item_scores[i])));
    }

    /// Append `(item_idx, damped mean)` for every item user `u` has not
    /// rated, ascending in item index.
    pub fn score_unseen_into(&self, u: usize, out: &mut Vec<(usize, f64)>) {
        out.extend(
            self.matrix
                .unseen_items(u)
                .map(|i| (i, self.item_scores[i])),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::Rating;

    fn matrix() -> RatingsMatrix {
        RatingsMatrix::from_ratings(vec![
            // Item 1: two high ratings. Item 2: one low. Item 3: many mid.
            Rating::new(1, 1, 5.0),
            Rating::new(2, 1, 5.0),
            Rating::new(1, 2, 1.0),
            Rating::new(2, 3, 3.0),
            Rating::new(3, 3, 3.0),
            Rating::new(4, 3, 3.0),
            Rating::new(5, 3, 3.0),
        ])
    }

    /// The damped mean of the item with external id `item`.
    fn item_score(m: &PopularityModel, item: i64) -> f64 {
        let mut out = Vec::new();
        m.predict_items_into(&[m.matrix().item_idx(item).unwrap()], &mut out);
        out[0].unwrap()
    }

    #[test]
    fn damped_mean_pulls_sparse_items_toward_global_mean() {
        let m = PopularityModel::train_with_damping(matrix(), 5.0);
        let mu = m.global_mean();
        let (s1, s2) = (item_score(&m, 1), item_score(&m, 2));
        // Item 1's raw mean is 5.0, but with 2 ratings and k=5 the damped
        // score sits between μ and 5.
        assert!(s1 > mu && s1 < 5.0);
        // Item 2's raw mean is 1.0; damped score sits between 1 and μ.
        assert!(s2 > 1.0 && s2 < mu);
    }

    #[test]
    fn zero_damping_is_plain_mean() {
        let m = PopularityModel::train_with_damping(matrix(), 0.0);
        assert_eq!(item_score(&m, 1), 5.0);
        assert_eq!(item_score(&m, 3), 3.0);
    }

    #[test]
    fn same_score_for_every_user() {
        let m = PopularityModel::train(matrix());
        let items: Vec<usize> = (0..m.matrix().n_items()).collect();
        let mut per_item = Vec::new();
        m.predict_items_into(&items, &mut per_item);
        for u in 0..m.matrix().n_users() {
            let mut unseen = Vec::new();
            m.score_unseen_into(u, &mut unseen);
            for (i, score) in unseen {
                assert_eq!(Some(score), per_item[i], "user {u} item {i}");
            }
        }
    }

    #[test]
    fn well_rated_item_ranks_above_poorly_rated() {
        let m = PopularityModel::train(matrix());
        // Item 1 (two 5s) must outrank item 2 (one 1).
        assert!(item_score(&m, 1) > item_score(&m, 2));
    }

    /// Scores and the global mean keep their bits against sums written out
    /// from the ratings, each column in ascending-user order: f32-inexact
    /// values, a re-rated pair, and — under a negative global mean, where
    /// the sign survives — an item rated only -0.0.
    #[test]
    fn scores_match_a_column_sum_reference_bit_for_bit() {
        let ratings = vec![
            Rating::new(3, 1, -0.1),
            Rating::new(1, 1, -4.7),
            Rating::new(2, 2, -0.0),
            Rating::new(1, 2, -0.0),
            Rating::new(2, 1, 1e-17),
            Rating::new(1, 3, -2.3),
            Rating::new(2, 3, 0.0),
            Rating::new(3, 1, -3.3),
            Rating::new(4, 3, 1.0 / 3.0),
        ];
        let matrix = RatingsMatrix::from_ratings(ratings.clone());
        // Last-wins cells keyed (user, item) by dense index: row-major.
        let mut cells = std::collections::BTreeMap::new();
        for r in &ratings {
            let (u, i) = (matrix.user_idx(r.user), matrix.item_idx(r.item));
            cells.insert((u.unwrap(), i.unwrap()), r.value);
        }
        let mean = cells.values().sum::<f64>() / cells.len() as f64;
        assert!(mean < 0.0);
        for damping in [0.0, DEFAULT_DAMPING] {
            let model = PopularityModel::train_with_damping(matrix.clone(), damping);
            assert_eq!(model.global_mean().to_bits(), mean.to_bits());
            let items: Vec<usize> = (0..matrix.n_items()).collect();
            let mut scores = Vec::new();
            model.predict_items_into(&items, &mut scores);
            for i in items {
                let column: Vec<f64> = cells
                    .iter()
                    .filter(|&(&(_, item), _)| item == i)
                    .map(|(_, &r)| r)
                    .collect();
                let (sum, n) = (column.iter().sum::<f64>(), column.len() as f64);
                let want = (sum + damping * mean) / (n + damping);
                assert_eq!(
                    scores[i].map(f64::to_bits),
                    Some(want.to_bits()),
                    "item {i}"
                );
            }
        }
        let zero_item = matrix.item_idx(2).unwrap();
        let mut score = Vec::new();
        PopularityModel::train_with_damping(matrix, 0.0)
            .predict_items_into(&[zero_item], &mut score);
        assert_eq!(score[0].map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = PopularityModel::train(RatingsMatrix::default());
        assert_eq!(m.global_mean(), 0.0);
        assert_eq!(m.trained_on(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_damping_rejected() {
        let _ = PopularityModel::train_with_damping(matrix(), -1.0);
    }
}
