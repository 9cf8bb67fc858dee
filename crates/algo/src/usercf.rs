//! User–user collaborative filtering (the paper's UserCosCF / UserPearCF).
//!
//! The paper's USERCF operator (§IV-A2) "is similar to ITEMCF except that
//! it accesses ... the item vector table (ItemVector) and the user
//! neighborhood table (UserNeighborhood)". Prediction is Eq. 2 transposed:
//!
//! ```text
//! RecScore(u, i) = Σ_{v ∈ V} sim(u, v) · r_{v,i}  /  Σ_{v ∈ V} |sim(u, v)|
//! ```
//!
//! where `V` is user `u`'s similarity list reduced to the users who rated
//! item `i`.
//!
//! As in [`crate::itemcf`] the model exposes two kernels and leaves the
//! Algorithm 1 rule to [`crate::RecModel`]:
//!
//! * **Whole domain** — [`UserCfModel::score_row`] needs no reverse
//!   table: it walks the forward list `N(u)` and scatters each neighbor
//!   `v`'s CSR row `{(i, r_vi)}` into per-candidate `(num, den)`
//!   accumulators, then divides them into the dense score row of
//!   [`ScoreScratch`] (a select for `den = 0`, not a branch) that
//!   [`crate::RecModel`]'s two whole-domain consumers read.
//! * **Candidate list** — [`UserCfModel::predict_items_into`] marks
//!   `sim(u, v)` for `v ∈ N(u)` once per call in a dense per-user row
//!   ([`ScoreScratch`]), then gathers each candidate's raters (the item's
//!   CSR row) from it.
//!
//! Candidate `i` receives exactly the terms of `N(u) ∩ raters(i)` on both,
//! in ascending `v` (`N(u)` is sorted by neighbor index, and so is the
//! item's rater column) — the order the per-pair merge-intersect they
//! replaced (kept as a test oracle) used — so the sums are bit-identical.

use crate::model::TrainError;
use crate::neighborhood::{
    build_user_neighborhood, NeighborhoodParams, NeighborhoodTable, ScoreScratch,
};
use crate::ratings::RatingsMatrix;
use recdb_guard::QueryGuard;

/// A user–user CF model: ratings snapshot plus user neighborhood table.
#[derive(Debug, Clone)]
pub struct UserCfModel {
    matrix: RatingsMatrix,
    neighborhood: NeighborhoodTable,
    params: NeighborhoodParams,
}

impl UserCfModel {
    /// Train the model, under
    /// `guard` (checked per similarity chunk; `algo::neighborhood_build`
    /// fault site live).
    pub fn train(
        matrix: RatingsMatrix,
        params: NeighborhoodParams,
        guard: &QueryGuard,
    ) -> Result<Self, TrainError> {
        let neighborhood = build_user_neighborhood(&matrix, &params, guard)?;
        Ok(UserCfModel {
            matrix,
            neighborhood,
            params,
        })
    }

    /// The training ratings snapshot.
    pub fn matrix(&self) -> &RatingsMatrix {
        &self.matrix
    }

    /// The user neighborhood table.
    pub fn neighborhood(&self) -> &NeighborhoodTable {
        &self.neighborhood
    }

    /// The parameters the model was trained with.
    pub fn params(&self) -> &NeighborhoodParams {
        &self.params
    }

    /// Number of ratings the model was built from.
    pub fn trained_on(&self) -> usize {
        self.matrix.n_ratings()
    }

    /// Transposed Eq. 2 for every item of the domain into `scratch`'s
    /// dense score row, indexed by item; items `u` rated are scored too
    /// (the row's consumers skip them) and candidates no neighbor rated
    /// score 0. Bit-identical to
    /// [`predict_items_into`](Self::predict_items_into) per candidate
    /// (module docs).
    pub fn score_row<'s>(&self, u: usize, scratch: &'s mut ScoreScratch) -> &'s [f64] {
        let acc = scratch.reset(self.matrix.n_items());
        let (neighbors, sims) = self.neighborhood.neighbors(u);
        for (&v, &sim) in neighbors.iter().zip(sims) {
            let (items, ratings) = self.matrix.user_csr().row(v as usize);
            for (&i, &r_vi) in items.iter().zip(ratings) {
                let [num, den] = &mut acc[i as usize];
                *num += sim * f64::from(r_vi);
                *den += sim.abs();
            }
        }
        scratch.quotients()
    }

    /// Transposed Eq. 2 for each item of `items`, appended to `out` in
    /// list order; `None` when no neighbor of `u` rated the candidate. Raw
    /// kernel: it does not look at whether `u` rated a candidate. One
    /// marking of `N(u)`, then one gather over `raters(i)` per candidate
    /// (module docs).
    pub fn predict_items_into(
        &self,
        u: usize,
        items: &[usize],
        scratch: &mut ScoreScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        let (neighbors, sims) = self.neighborhood.neighbors(u);
        let sims = scratch.mark(
            self.matrix.n_users(),
            neighbors
                .iter()
                .zip(sims)
                .map(|(&v, &sim)| (v as usize, sim)),
        );
        out.extend(items.iter().map(|&i| {
            let (raters, ratings) = self.matrix.item_csr().row(i);
            let (mut num, mut den) = (0.0, 0.0);
            for (&v, &r_vi) in raters.iter().zip(ratings) {
                if let Some(sim) = sims.get(v as usize) {
                    num += sim * f64::from(r_vi);
                    den += sim.abs();
                }
            }
            if den == 0.0 {
                None
            } else {
                Some(num / den)
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::Rating;

    fn figure1() -> UserCfModel {
        UserCfModel::train(
            RatingsMatrix::from_ratings(vec![
                Rating::new(1, 1, 1.5),
                Rating::new(2, 2, 3.5),
                Rating::new(2, 1, 4.5),
                Rating::new(2, 3, 2.0),
                Rating::new(3, 2, 1.0),
                Rating::new(3, 1, 2.0),
                Rating::new(4, 2, 1.0),
            ]),
            NeighborhoodParams::cosine(),
            &QueryGuard::unlimited(),
        )
        .unwrap()
    }

    /// Transposed Eq. 2 for external ids the model knows, as a one-item
    /// list.
    fn predict(m: &UserCfModel, user: i64, item: i64) -> Option<f64> {
        let matrix = m.matrix();
        let (u, i) = (matrix.user_idx(user)?, matrix.item_idx(item)?);
        let mut out = Vec::new();
        m.predict_items_into(u, &[i], &mut ScoreScratch::default(), &mut out);
        out[0]
    }

    #[test]
    fn prediction_uses_similar_users_who_rated_item() {
        let m = figure1();
        // Item 3 was rated only by user 2 (2.0). Any user similar to user 2
        // gets a prediction pulled toward 2.0; with one rater the weighted
        // average is exactly 2.0 regardless of the weight's magnitude.
        let p = predict(&m, 3, 3).unwrap();
        assert!((p - 2.0).abs() < 1e-12);
    }

    #[test]
    fn user_without_similar_raters_gets_none() {
        let m = UserCfModel::train(
            RatingsMatrix::from_ratings(vec![Rating::new(1, 10, 5.0), Rating::new(2, 20, 4.0)]),
            NeighborhoodParams::cosine(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(predict(&m, 1, 20), None);
    }

    #[test]
    fn itemcf_and_usercf_agree_on_symmetric_data() {
        // On a fully symmetric ratings square, the two transposed models
        // produce the same score matrix.
        let ratings = vec![
            Rating::new(1, 1, 2.0),
            Rating::new(1, 2, 4.0),
            Rating::new(2, 1, 2.0),
            Rating::new(2, 2, 4.0),
            Rating::new(3, 1, 2.0),
        ];
        let ucf = UserCfModel::train(
            RatingsMatrix::from_ratings(ratings.clone()),
            NeighborhoodParams::cosine(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        // User 3 hasn't rated item 2; users 1,2 (perfectly similar) rated
        // it 4.0, so the prediction is 4.0.
        assert!((predict(&ucf, 3, 2).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_variant_trains() {
        let m = UserCfModel::train(
            figure1().matrix().clone(),
            NeighborhoodParams::pearson(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        // Pearson needs ≥2 co-rated dims; users 2 and 3 share items 1,2.
        let u2 = m.matrix().user_idx(2).unwrap();
        let u3 = m.matrix().user_idx(3).unwrap();
        assert!(m.neighborhood().sim(u2, u3).is_some());
    }
}
