//! Regularized gradient-descent matrix factorization (the paper's "SVD").
//!
//! The paper (§IV-A3, Eq. 3) learns user factor vectors `p_u` and item
//! factor vectors `q_i` minimizing
//!
//! ```text
//! Σ_{(u,i)∈K} (r_ui − q_iᵀ p_u)² + λ(‖q_i‖² + ‖p_u‖²)
//! ```
//!
//! via stochastic gradient descent ("Regularized Gradient Descent Singular
//! Value Decomposition"). The learned tables are exactly the paper's
//! Figure 2 *User Factor Table* and *Item Factor Table*; prediction is the
//! dot product (Algorithm 2, line 7), exposed as two kernels — the
//! blocked whole-domain [`SvdModel::score_row`] and the
//! candidate-list [`SvdModel::predict_items_into`] — with the rule around them
//! (a rated pair is not a recommendation) written once on
//! [`crate::RecModel`].
//!
//! Factors are stored row-major as flat `Vec<f32>` (`p_u =
//! user_factors[u*f .. (u+1)*f]`) and every inner loop goes through
//! [`crate::kernels`], so the trainer streams contiguous memory and the
//! dot products auto-vectorize. Ratings are read from the CSR view of
//! [`RatingsMatrix`]. A small deterministic xorshift PRNG seeds the
//! factors so training is reproducible for a given [`SvdParams::seed`].
//!
//! Training is one SGD stream: each epoch visits every rating once in a
//! Fisher–Yates order drawn from the generator that initialized the
//! factors, so the factors depend only on the ratings and the
//! parameters. SGD is a sequential chain — every update reads the factors
//! the previous update wrote — so there is no parallel trainer.

use crate::kernels;
use crate::model::TrainError;
use crate::neighborhood::ScoreScratch;
use crate::ratings::RatingsMatrix;
use recdb_guard::QueryGuard;

/// Hyper-parameters for SGD matrix factorization.
#[derive(Debug, Clone, Copy)]
pub struct SvdParams {
    /// Number of latent factors (the paper's Figure 2 shows 3; defaults
    /// follow common MovieLens practice).
    pub factors: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Regularization strength λ of Eq. 3.
    pub lambda: f64,
    /// Number of passes over the ratings.
    pub epochs: usize,
    /// PRNG seed for factor initialization and the visit orders.
    pub seed: u64,
}

impl Default for SvdParams {
    fn default() -> Self {
        SvdParams {
            factors: 32,
            learning_rate: 0.01,
            lambda: 0.05,
            epochs: 30,
            seed: 0x5EED_CAFE,
        }
    }
}

/// Deterministic xorshift64* generator for reproducible initialization.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher–Yates shuffle of `order` driven by `rng`.
fn shuffle(order: &mut [u32], rng: &mut XorShift64) {
    for k in (1..order.len()).rev() {
        let j = (rng.next_u64() % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
}

/// A trained matrix-factorization model: the user and item factor tables.
#[derive(Debug, Clone)]
pub struct SvdModel {
    matrix: RatingsMatrix,
    /// `user_factors[u * factors ..][..factors]` = p_u (flat row-major).
    user_factors: Vec<f32>,
    /// `item_factors[i * factors ..][..factors]` = q_i (flat row-major).
    item_factors: Vec<f32>,
    factors: usize,
    params: SvdParams,
    /// Training RMSE of the final epoch (a health indicator).
    final_rmse: f64,
}

impl SvdModel {
    /// Train with SGD on the given ratings snapshot, under `guard`: the
    /// guard and the `algo::svd_epoch` fault site are evaluated before
    /// every epoch, so a deadline or injected failure aborts within one
    /// epoch.
    pub fn train(
        matrix: RatingsMatrix,
        params: SvdParams,
        guard: &QueryGuard,
    ) -> Result<Self, TrainError> {
        let f = params.factors.max(1);
        let n_users = matrix.n_users();
        let n_items = matrix.n_items();
        let mut rng = XorShift64::new(params.seed);
        // Initialize around sqrt(mean/f) so initial dot products land near
        // the rating scale, a standard Funk-SVD warm start.
        let mean = matrix.global_mean();
        let scale = if mean > 0.0 {
            (mean / f as f64).sqrt()
        } else {
            0.1
        };
        let mut user_factors: Vec<f32> = (0..n_users * f)
            .map(|_| (scale * (0.5 + 0.5 * rng.next_f64())) as f32)
            .collect();
        let mut item_factors: Vec<f32> = (0..n_items * f)
            .map(|_| (scale * (0.5 + 0.5 * rng.next_f64())) as f32)
            .collect();

        // `rng` goes on from the initialization, so the update stream
        // depends only on the seed.
        let triples: Vec<(u32, u32, f32)> = matrix.user_csr().iter().collect();
        let lr = params.learning_rate as f32;
        let lambda = params.lambda as f32;
        let mut order: Vec<u32> = (0..triples.len() as u32).collect();
        let mut final_rmse = 0.0;
        for _epoch in 0..params.epochs {
            recdb_fault::fail_point("algo::svd_epoch")?;
            guard.check()?;
            shuffle(&mut order, &mut rng);
            let mut sq_err = 0.0f64;
            for &t in &order {
                let (u, i, r) = triples[t as usize];
                let (u, i) = (u as usize, i as usize);
                let p = &mut user_factors[u * f..(u + 1) * f];
                let q = &mut item_factors[i * f..(i + 1) * f];
                let err = r - kernels::dot(p, q);
                sq_err += f64::from(err) * f64::from(err);
                kernels::sgd_step(p, q, err, lr, lambda);
            }
            if !triples.is_empty() {
                final_rmse = (sq_err / triples.len() as f64).sqrt();
            }
        }
        Ok(SvdModel {
            matrix,
            user_factors,
            item_factors,
            factors: f,
            params,
            final_rmse,
        })
    }

    /// The training ratings snapshot.
    pub fn matrix(&self) -> &RatingsMatrix {
        &self.matrix
    }

    /// Hyper-parameters used for training.
    pub fn params(&self) -> &SvdParams {
        &self.params
    }

    /// Number of latent factors.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// Training RMSE of the last epoch, accumulated during it: each
    /// rating's error before its own update (0 with no ratings or epochs).
    pub fn final_rmse(&self) -> f64 {
        self.final_rmse
    }

    /// Number of ratings the model was built from.
    pub fn trained_on(&self) -> usize {
        self.matrix.n_ratings()
    }

    /// The user factor vector p_u (paper Figure 2a), by dense index.
    pub fn user_vector(&self, u: usize) -> &[f32] {
        &self.user_factors[u * self.factors..(u + 1) * self.factors]
    }

    /// The item factor vector q_i (paper Figure 2b), by dense index.
    pub fn item_vector(&self, i: usize) -> &[f32] {
        &self.item_factors[i * self.factors..(i + 1) * self.factors]
    }

    /// Algorithm 2 line 7 for each item of `items`: the dot product `q_iᵀ
    /// p_u`, appended to `out` in list order, never `None` (every known
    /// pair has factors). Raw kernel: it does not look at whether `u`
    /// rated a candidate.
    pub fn predict_items_into(&self, u: usize, items: &[usize], out: &mut Vec<Option<f64>>) {
        let p_u = self.user_vector(u);
        out.extend(
            items
                .iter()
                .map(|&i| Some(f64::from(kernels::dot(p_u, self.item_vector(i))))),
        );
    }

    /// Batched raw scores: factor dot products of user `u` against the
    /// contiguous item range `first_item .. first_item + out.len()`.
    fn score_block(&self, u: usize, first_item: usize, out: &mut [f32]) {
        let f = self.factors;
        let lo = first_item * f;
        let hi = lo + out.len() * f;
        kernels::score_block(self.user_vector(u), &self.item_factors[lo..hi], f, out);
    }

    /// Batch-score every item of the domain into `scratch`'s dense score
    /// row, indexed by item (rated ones too; the row's consumers skip
    /// them). Items are scored in contiguous [`kernels::score_block`]
    /// chunks and widened to `f64`, so the user's factors resolve once per
    /// user instead of once per pair. Bit-identical to
    /// [`Self::predict_items_into`] per item.
    pub fn score_row<'s>(&self, u: usize, scratch: &'s mut ScoreScratch) -> &'s [f64] {
        const BLOCK: usize = 256;
        let row = scratch.row(self.matrix.n_items());
        let mut buf = [0.0f32; BLOCK];
        for (block, chunk) in row.chunks_mut(BLOCK).enumerate() {
            let scores = &mut buf[..chunk.len()];
            self.score_block(u, block * BLOCK, scores);
            for (slot, &s) in chunk.iter_mut().zip(scores.iter()) {
                *slot = f64::from(s);
            }
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::Rating;

    fn dense_block() -> RatingsMatrix {
        // 6 users × 6 items, rank-1 structure: r(u, i) = (u % 3 + 1) + noise-free
        // pattern so a low-rank model can fit it well. Hold out (0, 5).
        let mut ratings = Vec::new();
        for u in 0..6i64 {
            for i in 0..6i64 {
                if u == 0 && i == 5 {
                    continue;
                }
                let r = ((u % 3) + 1) as f64 + ((i % 2) as f64) * 0.5;
                ratings.push(Rating::new(u, i, r));
            }
        }
        RatingsMatrix::from_ratings(ratings)
    }

    /// The dot product for dense user `u` and item `i`.
    fn predict(model: &SvdModel, u: usize, i: usize) -> f64 {
        let mut out = Vec::new();
        model.predict_items_into(u, &[i], &mut out);
        out[0].unwrap()
    }

    /// The prediction for the held-out pair (user 0, item 5).
    fn heldout(model: &SvdModel) -> f64 {
        let m = model.matrix();
        predict(model, m.user_idx(0).unwrap(), m.item_idx(5).unwrap())
    }

    #[test]
    fn training_reduces_rmse_below_half_star() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 8,
                epochs: 200,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert!(
            model.final_rmse() < 0.25,
            "training RMSE {} too high",
            model.final_rmse()
        );
    }

    #[test]
    fn heldout_prediction_close_to_pattern() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 8,
                epochs: 300,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        // True value for (0, 5): (0 % 3 + 1) + (5 % 2)·0.5 = 1.5.
        let p = heldout(&model);
        assert!(
            (p - 1.5).abs() < 0.6,
            "held-out prediction {p} too far from 1.5"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SvdModel::train(
            dense_block(),
            SvdParams::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let b = SvdModel::train(
            dense_block(),
            SvdParams::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(a.user_vector(0), b.user_vector(0));
        assert_eq!(a.item_vector(3), b.item_vector(3));
        let c = SvdModel::train(
            dense_block(),
            SvdParams {
                seed: 99,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_ne!(a.user_vector(0), c.user_vector(0));
    }

    #[test]
    fn factor_tables_have_figure2_shape() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 3,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(model.factors(), 3);
        assert_eq!(model.user_vector(0).len(), 3);
        assert_eq!(model.item_vector(0).len(), 3);
    }

    #[test]
    fn empty_matrix_trains_without_panic() {
        let model = SvdModel::train(
            RatingsMatrix::default(),
            SvdParams::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(model.final_rmse(), 0.0);
    }

    #[test]
    fn score_block_matches_per_pair_dots() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 5,
                epochs: 10,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let n_items = model.matrix().n_items();
        let mut out = vec![0.0f32; n_items];
        for u in 0..model.matrix().n_users() {
            model.score_block(u, 0, &mut out);
            for (i, &s) in out.iter().enumerate() {
                let expected = kernels::dot(model.user_vector(u), model.item_vector(i));
                assert_eq!(s.to_bits(), expected.to_bits(), "user {u} item {i}");
            }
            // A block starting mid-range scores the same items.
            let mut tail = vec![0.0f32; n_items - 2];
            model.score_block(u, 2, &mut tail);
            for (j, &s) in tail.iter().enumerate() {
                assert_eq!(s.to_bits(), out[j + 2].to_bits());
            }
        }
    }

    #[test]
    fn score_row_matches_per_pair_predictions() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 6,
                epochs: 15,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let m = model.matrix().clone();
        let mut scratch = ScoreScratch::default();
        for u in 0..m.n_users() {
            let row = model.score_row(u, &mut scratch);
            let expected: Vec<f64> = (0..m.n_items()).map(|i| predict(&model, u, i)).collect();
            assert_eq!(row, &expected[..], "user {u}");
        }
    }

    #[test]
    fn xorshift_is_uniformish() {
        let mut rng = XorShift64::new(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
