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
        let item_scores = (0..matrix.n_items())
            .map(|i| {
                let col = matrix.item_col(i);
                let sum: f64 = col.iter().map(|&(_, r)| r).sum();
                let n = col.len() as f64;
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

    /// The damped mean score of an item by dense index.
    pub fn item_score(&self, item_idx: usize) -> f64 {
        self.item_scores[item_idx]
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

    /// Operator-facing score: rated pairs echo the stored rating, unknown
    /// ids score 0, unseen items get the item's damped mean (identical for
    /// every user).
    pub fn score(&self, user: i64, item: i64) -> f64 {
        let (Some(u), Some(i)) = (self.matrix.user_idx(user), self.matrix.item_idx(item)) else {
            return 0.0;
        };
        self.score_indexed(u, i)
    }

    /// [`score`](Self::score) for already-resolved dense indexes (skips
    /// the two HashMap id lookups on hot paths).
    pub fn score_indexed(&self, u: usize, i: usize) -> f64 {
        if let Some(r) = self.matrix.rating_at(u, i) {
            return r;
        }
        self.item_scores[i]
    }

    /// Predicted rating for an unseen pair only.
    pub fn predict(&self, user: i64, item: i64) -> Option<f64> {
        let (u, i) = (self.matrix.user_idx(user)?, self.matrix.item_idx(item)?);
        self.predict_indexed(u, i)
    }

    /// [`predict`](Self::predict) for already-resolved dense indexes.
    pub fn predict_indexed(&self, u: usize, i: usize) -> Option<f64> {
        if self.matrix.rating_at(u, i).is_some() {
            return None;
        }
        Some(self.item_scores[i])
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

    #[test]
    fn damped_mean_pulls_sparse_items_toward_global_mean() {
        let m = PopularityModel::train_with_damping(matrix(), 5.0);
        let mu = m.global_mean();
        let i1 = m.matrix().item_idx(1).unwrap();
        let i2 = m.matrix().item_idx(2).unwrap();
        // Item 1's raw mean is 5.0, but with 2 ratings and k=5 the damped
        // score sits between μ and 5.
        assert!(m.item_score(i1) > mu && m.item_score(i1) < 5.0);
        // Item 2's raw mean is 1.0; damped score sits between 1 and μ.
        assert!(m.item_score(i2) > 1.0 && m.item_score(i2) < mu);
    }

    #[test]
    fn zero_damping_is_plain_mean() {
        let m = PopularityModel::train_with_damping(matrix(), 0.0);
        let i1 = m.matrix().item_idx(1).unwrap();
        let i3 = m.matrix().item_idx(3).unwrap();
        assert_eq!(m.item_score(i1), 5.0);
        assert_eq!(m.item_score(i3), 3.0);
    }

    #[test]
    fn same_ranking_for_every_user() {
        let m = PopularityModel::train(matrix());
        // Users 4 and 5 both have items 1 and 2 unseen; scores identical.
        assert_eq!(m.predict(4, 1), m.predict(5, 1));
        assert_eq!(m.predict(4, 2), m.predict(5, 2));
    }

    #[test]
    fn rated_pairs_echo_and_unknowns_zero() {
        let m = PopularityModel::train(matrix());
        assert_eq!(m.score(1, 1), 5.0);
        assert_eq!(m.predict(1, 1), None);
        assert_eq!(m.score(99, 1), 0.0);
        assert_eq!(m.score(1, 99), 0.0);
    }

    #[test]
    fn well_rated_item_ranks_above_poorly_rated() {
        let m = PopularityModel::train(matrix());
        // For user 5 (rated only item 3): item 1 (two 5s) must outrank
        // item 2 (one 1).
        assert!(m.predict(5, 1).unwrap() > m.predict(5, 2).unwrap());
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = PopularityModel::train(RatingsMatrix::default());
        assert_eq!(m.score(1, 1), 0.0);
        assert_eq!(m.global_mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_damping_rejected() {
        let _ = PopularityModel::train_with_damping(matrix(), -1.0);
    }
}
