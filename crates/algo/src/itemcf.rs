//! Item–item collaborative filtering (the paper's ItemCosCF / ItemPearCF).
//!
//! Prediction follows Eq. 2 exactly:
//!
//! ```text
//! RecScore(u, i) = Σ_{l ∈ L} sim(i, l) · r_{u,l}  /  Σ_{l ∈ L} |sim(i, l)|
//! ```
//!
//! where `L` is item `i`'s similarity list *reduced to the items rated by
//! user `u`* ("Before this computation, we reduce each similarity list L to
//! contain only items rated by user u").
//!
//! The model exposes exactly two scoring kernels. The Algorithm 1 rule
//! around them — a rated pair is not a recommendation, an empty `L` scores
//! 0 — is written once, on [`crate::RecModel`].
//!
//! * **Whole domain** — [`ItemCfModel::score_row`] scores *every* item in
//!   one pass: the reduction "to items rated by user u" is done once, by
//!   walking `rated(u)` and scattering each rating along the reverse list
//!   `rev(l)` ([`NeighborhoodTable::reverse`]) into dense per-candidate
//!   `(num, den)` accumulators, then dividing them into the dense score
//!   row of [`ScoreScratch`] with a select for `den = 0`, not a branch.
//!   Cost is `Σ_{l ∈ rated(u)} |rev(l)|` multiply-adds plus `n_items`
//!   divisions instead of `n_items` list reductions. The row's two
//!   consumers, on [`crate::RecModel`], emit every unseen item or keep
//!   only the best `k` of them.
//! * **Candidate list** — [`ItemCfModel::predict_items_into`] scores the
//!   items a plan asks for (the outer of JOINRECOMMEND, a pushed-down
//!   `iPred`), Algorithm 1's block-nested loop: the user's ratings are
//!   marked once per call in a dense per-item row
//!   ([`ScoreScratch`]), then each candidate gathers its forward list
//!   `N(i)` (≤ `max_neighbors` entries) from that row. Cost is `|rated(u)|
//!   + Σ_i |N(i)|` probes, with no per-pair search or merge.
//!
//! The two agree **bit for bit**, and with the per-pair merge-intersect of
//! `rated(u)` and `N(i)` they replaced (kept as a test oracle). A candidate
//! `i` receives exactly the terms `{sim(i, l)·r_ul : l ∈ rated(u) ∩
//! N(i)}`, since `(i, sim(i, l)) ∈ rev(l) ⇔ l ∈ N(i)`. The whole-domain
//! pass visits `l` in ascending order (the CSR row is sorted), the gather
//! walks `N(i)` in ascending `l` (the list is sorted by neighbor index),
//! and so did the merge, so all three add the same `f64` terms to a
//! 0.0-initialised sum in the same sequence. Only the order over `l`
//! matters: within one `rev(l)` every candidate is touched once.

use crate::model::TrainError;
use crate::neighborhood::{
    build_item_neighborhood, NeighborhoodParams, NeighborhoodTable, ScoreScratch,
};
use crate::ratings::RatingsMatrix;
use recdb_guard::QueryGuard;

/// An item–item CF model: the ratings snapshot it was trained on plus the
/// item neighborhood table.
#[derive(Debug, Clone)]
pub struct ItemCfModel {
    matrix: RatingsMatrix,
    neighborhood: NeighborhoodTable,
    params: NeighborhoodParams,
}

impl ItemCfModel {
    /// Train the model ("Step I: Recommendation Model Building"), under
    /// `guard` (checked per similarity chunk; `algo::neighborhood_build`
    /// fault site live).
    pub fn train(
        matrix: RatingsMatrix,
        params: NeighborhoodParams,
        guard: &QueryGuard,
    ) -> Result<Self, TrainError> {
        let neighborhood = build_item_neighborhood(&matrix, &params, guard)?;
        Ok(ItemCfModel {
            matrix,
            neighborhood,
            params,
        })
    }

    /// The training ratings snapshot.
    pub fn matrix(&self) -> &RatingsMatrix {
        &self.matrix
    }

    /// The item neighborhood table.
    pub fn neighborhood(&self) -> &NeighborhoodTable {
        &self.neighborhood
    }

    /// The parameters the model was trained with.
    pub fn params(&self) -> &NeighborhoodParams {
        &self.params
    }

    /// Number of ratings the model was built from (drives the N%
    /// maintenance rule in `recdb-core`).
    pub fn trained_on(&self) -> usize {
        self.matrix.n_ratings()
    }

    /// Eq. 2 for every item of the domain into `scratch`'s dense score
    /// row, indexed by item; items `u` rated are scored too (the row's
    /// consumers skip them) and no-overlap candidates score 0. One pass
    /// over `rated(u)` × reverse lists, then one branch-free division
    /// pass — bit-identical to [`predict_items_into`](Self::predict_items_into)
    /// per candidate (module docs).
    pub fn score_row<'s>(&self, u: usize, scratch: &'s mut ScoreScratch) -> &'s [f64] {
        let acc = scratch.reset(self.matrix.n_items());
        let (rated_items, ratings) = self.matrix.user_csr().row(u);
        for (&l, &r_ul) in rated_items.iter().zip(ratings) {
            let r_ul = f64::from(r_ul);
            let (candidates, sims) = self.neighborhood.reverse(l as usize);
            for (&i, &sim) in candidates.iter().zip(sims) {
                let [num, den] = &mut acc[i as usize];
                *num += sim * r_ul;
                *den += sim.abs();
            }
        }
        scratch.quotients()
    }

    /// Eq. 2 for each item of `items`, appended to `out` in list order;
    /// `None` when `L ∩ rated(u)` is empty. Raw kernel: it does not look
    /// at whether `u` rated a candidate ([`crate::RecModel`] does). One
    /// marking of `rated(u)`, then one gather of `N(i)` per candidate
    /// (module docs).
    pub fn predict_items_into(
        &self,
        u: usize,
        items: &[usize],
        scratch: &mut ScoreScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        let (rated_items, ratings) = self.matrix.user_csr().row(u);
        let rated = scratch.mark(
            self.matrix.n_items(),
            rated_items
                .iter()
                .zip(ratings)
                .map(|(&l, &r_ul)| (l as usize, f64::from(r_ul))),
        );
        out.extend(items.iter().map(|&i| {
            let (mut num, mut den) = (0.0, 0.0);
            let (neighbors, sims) = self.neighborhood.neighbors(i);
            for (&l, &sim) in neighbors.iter().zip(sims) {
                if let Some(r_ul) = rated.get(l as usize) {
                    num += sim * r_ul;
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

    fn figure1() -> ItemCfModel {
        ItemCfModel::train(
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

    /// Eq. 2 for external ids the model knows, as a one-item list.
    fn predict(m: &ItemCfModel, user: i64, item: i64) -> Option<f64> {
        let matrix = m.matrix();
        let (u, i) = (matrix.user_idx(user)?, matrix.item_idx(item)?);
        let mut out = Vec::new();
        m.predict_items_into(u, &[i], &mut ScoreScratch::default(), &mut out);
        out[0]
    }

    #[test]
    fn unseen_pair_prediction_matches_eq2_by_hand() {
        let m = figure1();
        // User 1 rated only item 1 (1.5). Predicting item 2:
        // L = neighbors(2) ∩ rated(1) = {1}.
        // RecScore = sim(2,1)·1.5 / |sim(2,1)| = 1.5 (sim > 0 cancels).
        let p = predict(&m, 1, 2).unwrap();
        assert!((p - 1.5).abs() < 1e-12);
    }

    #[test]
    fn prediction_weights_multiple_neighbors() {
        let m = figure1();
        // User 4 rated only item 2 (1.0); predict item 1 via neighbor 2.
        let p = predict(&m, 4, 1).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_overlap_predicts_none() {
        // Two disconnected bipartite components.
        let m = ItemCfModel::train(
            RatingsMatrix::from_ratings(vec![Rating::new(1, 10, 5.0), Rating::new(2, 20, 4.0)]),
            NeighborhoodParams::cosine(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(predict(&m, 1, 20), None);
    }

    #[test]
    fn predictions_bounded_by_user_rating_range() {
        // Eq. 2 is a convex combination when all sims are positive, so the
        // prediction lies within the user's min..max rating.
        let m = figure1();
        for &u in m.matrix().user_ids() {
            let uidx = m.matrix().user_idx(u).unwrap();
            let (_, row) = m.matrix().user_csr().row(uidx);
            let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let (lo, hi) = (f64::from(lo), f64::from(hi));
            for &i in m.matrix().item_ids() {
                if let Some(p) = predict(&m, u, i) {
                    assert!(
                        p >= lo - 1e-9 && p <= hi + 1e-9,
                        "prediction {p} outside [{lo}, {hi}] for user {u} item {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn trained_on_counts_ratings() {
        assert_eq!(figure1().trained_on(), 7);
    }
}
