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
//! blocked whole-domain [`SvdModel::score_unseen_into`] and the
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
//! # Parallel training & determinism
//!
//! SGD is inherently sequential — every update reads the factors the
//! previous update wrote — so parallelizing it changes the update stream.
//! The contract here:
//!
//! * [`SvdParams::threads`] `= 1` (the **default**) runs the exact
//!   sequential SGD stream (global Fisher–Yates visit order continuing
//!   the initialization generator).
//! * `threads > 1` (or `0` = all cores) opts into **block-sequential
//!   cache-blocked SGD** (Gemulla-style stratified DSGD): users and items
//!   are each partitioned into `B` contiguous blocks, where `B` is the
//!   requested worker count clamped to the matrix dimensions. An epoch is
//!   `B` sub-epochs; in sub-epoch `s`, cell `t` trains on (user block
//!   `t`, item block `(t + s) mod B`). The `B` cells of one sub-epoch
//!   touch pairwise-disjoint user *and* item factor rows, so they can run
//!   in any order — or on any number of OS threads — and produce the
//!   **same bits**. Each cell derives its visit order from a private
//!   PRNG seeded by `(seed, epoch, sub-epoch, block)` only. There are no
//!   epoch-start factor snapshots, no per-shard delta buffers, and no
//!   merge pass: updates land in place, and the result is deterministic
//!   for a fixed `(seed, threads)` pair regardless of the machine's
//!   actual core count.
//!
//! Note the serial path reports the paper-era RMSE (pre-update error
//! accumulated *during* the epoch) while the block path evaluates at
//! training end; both converge to the same notion as training settles.

use crate::csr::Csr;
use crate::kernels;
use crate::model::TrainError;
use crate::parallel::effective_threads;
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
    /// PRNG seed for factor initialization.
    pub seed: u64,
    /// SGD worker threads. `1` (the default) is the exact sequential
    /// update stream; `> 1` (or `0` = all cores) opts into deterministic
    /// block-sequential SGD — see the module docs for the
    /// reproducibility contract.
    pub threads: usize,
}

impl Default for SvdParams {
    fn default() -> Self {
        SvdParams {
            factors: 32,
            learning_rate: 0.01,
            lambda: 0.05,
            epochs: 30,
            seed: 0x5EED_CAFE,
            threads: 1,
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
    /// Training RMSE after the final epoch (a health indicator).
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

        let threads = effective_threads(params.threads).min(n_users.max(1));
        let final_rmse = if threads <= 1 {
            sgd_serial(
                &matrix,
                &params,
                f,
                &mut rng,
                &mut user_factors,
                &mut item_factors,
                guard,
            )?
        } else {
            // The block grid needs at least as many item blocks as user
            // blocks for sub-epoch cells to stay disjoint, so B is also
            // clamped by the item count.
            let b = threads.min(n_items.max(1));
            sgd_block_sequential(
                &matrix,
                &params,
                f,
                b,
                &mut user_factors,
                &mut item_factors,
                guard,
            )?
        };
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

    /// Training RMSE after the last epoch.
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

    /// Batch-score every item the user has **not** rated, pushing
    /// `(item_idx, score)` in ascending item order. Items are scored in
    /// contiguous [`kernels::score_block`] chunks and the user's sorted CSR
    /// row is merged in to skip rated pairs, so ids and ratings resolve
    /// once per user instead of once per pair. Produces bit-identical
    /// scores to [`Self::predict_items_into`] over the unrated items.
    pub fn score_unseen_into(&self, u: usize, out: &mut Vec<(usize, f64)>) {
        const BLOCK: usize = 256;
        let n_items = self.matrix.n_items();
        let (rated, _) = self.matrix.user_csr().row(u);
        let mut rated_pos = 0;
        let mut buf = [0.0f32; BLOCK];
        let mut first = 0;
        while first < n_items {
            let len = BLOCK.min(n_items - first);
            self.score_block(u, first, &mut buf[..len]);
            for (j, &s) in buf[..len].iter().enumerate() {
                let i = first + j;
                while rated_pos < rated.len() && (rated[rated_pos] as usize) < i {
                    rated_pos += 1;
                }
                if rated_pos < rated.len() && rated[rated_pos] as usize == i {
                    continue;
                }
                out.push((i, f64::from(s)));
            }
            first += len;
        }
    }
}

/// The exact sequential SGD loop (`rng` continues the initialization
/// generator, so the update stream depends only on the seed). Returns the
/// during-epoch training RMSE of the final epoch.
#[allow(clippy::too_many_arguments)]
fn sgd_serial(
    matrix: &RatingsMatrix,
    params: &SvdParams,
    f: usize,
    rng: &mut XorShift64,
    user_factors: &mut [f32],
    item_factors: &mut [f32],
    guard: &QueryGuard,
) -> Result<f64, TrainError> {
    let triples: Vec<(u32, u32, f32)> = matrix.user_csr().iter().collect();
    let lr = params.learning_rate as f32;
    let lambda = params.lambda as f32;
    let mut order: Vec<u32> = (0..triples.len() as u32).collect();
    let mut final_rmse = 0.0;
    for _epoch in 0..params.epochs {
        recdb_fault::fail_point("algo::svd_epoch")?;
        guard.check()?;
        // Fisher-Yates shuffle of the visit order each epoch.
        shuffle(&mut order, rng);
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
        final_rmse = if triples.is_empty() {
            0.0
        } else {
            (sq_err / triples.len() as f64).sqrt()
        };
    }
    Ok(final_rmse)
}

/// One cell of the block grid: train on (user block `t`, item block `c`)
/// with a visit order derived only from `(seed, epoch, sub, t)`. The
/// borrow set is exactly the two factor chunks, which is what lets the
/// `B` cells of a sub-epoch run concurrently without synchronization.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    csr: &Csr<f32>,
    splits: &[u32],
    b: usize,
    per_u: usize,
    per_i: usize,
    f: usize,
    seed: u64,
    epoch: usize,
    sub: usize,
    t: usize,
    c: usize,
    u_chunk: &mut [f32],
    i_chunk: &mut [f32],
    lr: f32,
    lambda: f32,
) {
    let first_user = t * per_u;
    let item_base = c * per_i;
    let users_in_block = u_chunk.len() / f;
    // Distinct splitmix64-style stream per (epoch, sub-epoch, block): all
    // inputs are fixed before the sub-epoch starts, hence deterministic.
    let mut rng = XorShift64::new(
        seed.wrapping_add((epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((sub as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((t as u64).wrapping_mul(0x94D0_49BB_1331_11EB)),
    );
    let mut order: Vec<u32> = (0..users_in_block as u32).collect();
    shuffle(&mut order, &mut rng);
    for &local in &order {
        let local = local as usize;
        let u = first_user + local;
        // The CSR row is sorted by item index, so the entries belonging
        // to item block `c` are one precomputed contiguous subrange.
        let lo = splits[u * (b + 1) + c] as usize;
        let hi = splits[u * (b + 1) + c + 1] as usize;
        if lo == hi {
            continue;
        }
        let (cols, vals) = csr.row(u);
        let p = &mut u_chunk[local * f..(local + 1) * f];
        for (&i, &r) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
            let qi = (i as usize - item_base) * f;
            let q = &mut i_chunk[qi..qi + f];
            let err = r - kernels::dot(p, q);
            kernels::sgd_step(p, q, err, lr, lambda);
        }
    }
}

/// Block-sequential cache-blocked SGD (module docs): a `B × B` grid of
/// (user block, item block) cells, `B` sub-epochs per epoch, cell
/// `(t, (t + s) mod B)` trained in sub-epoch `s`. Updates land in the
/// factor tables directly — no snapshots, no delta merges. Because the
/// cells of a sub-epoch touch disjoint factor rows, running them on one
/// thread in canonical order is bit-identical to running them on `B`
/// threads, so the worker count below adapts to the machine while the
/// result depends only on `(seed, B)`. Returns the end-of-training RMSE.
#[allow(clippy::too_many_arguments)]
fn sgd_block_sequential(
    matrix: &RatingsMatrix,
    params: &SvdParams,
    f: usize,
    b: usize,
    user_factors: &mut [f32],
    item_factors: &mut [f32],
    guard: &QueryGuard,
) -> Result<f64, TrainError> {
    let n_users = matrix.n_users();
    let n_items = matrix.n_items();
    let csr = matrix.user_csr();
    let per_u = n_users.div_ceil(b);
    let per_i = n_items.div_ceil(b);
    let lr = params.learning_rate as f32;
    let lambda = params.lambda as f32;

    // Split every user's CSR row at the item-block boundaries once:
    // splits[u*(B+1) + k] = first position in row(u) with item ≥ k·per_i.
    let mut splits: Vec<u32> = Vec::with_capacity(n_users * (b + 1));
    for u in 0..n_users {
        let (cols, _) = csr.row(u);
        for k in 0..=b {
            let bound = (k * per_i).min(n_items) as u32;
            splits.push(cols.partition_point(|&col| col < bound) as u32);
        }
    }

    // Hardware workers actually used; the schedule and the bits do not
    // depend on this (disjoint cells), only wall-clock does. On a single
    // core the cells run inline with zero spawn overhead.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(b);
    for epoch in 0..params.epochs {
        // Epoch-coordinator check: one guard/fault evaluation per epoch,
        // so cells stay check-free and lock-free.
        recdb_fault::fail_point("algo::svd_epoch")?;
        guard.check()?;
        for sub in 0..b {
            if workers <= 1 {
                let mut items = &mut *item_factors;
                let mut item_chunks: Vec<Option<&mut [f32]>> = Vec::with_capacity(b);
                while !items.is_empty() {
                    let take = (per_i * f).min(items.len());
                    let (head, rest) = items.split_at_mut(take);
                    item_chunks.push(Some(head));
                    items = rest;
                }
                for (t, u_chunk) in user_factors.chunks_mut(per_u * f).enumerate() {
                    let c = (t + sub) % b;
                    let Some(i_chunk) = item_chunks.get_mut(c).and_then(Option::take) else {
                        continue;
                    };
                    run_cell(
                        csr,
                        &splits,
                        b,
                        per_u,
                        per_i,
                        f,
                        params.seed,
                        epoch,
                        sub,
                        t,
                        c,
                        u_chunk,
                        i_chunk,
                        lr,
                        lambda,
                    );
                }
            } else {
                let splits = &splits;
                std::thread::scope(|scope| {
                    let mut item_chunks: Vec<Option<&mut [f32]>> =
                        item_factors.chunks_mut(per_i * f).map(Some).collect();
                    for (t, u_chunk) in user_factors.chunks_mut(per_u * f).enumerate() {
                        let c = (t + sub) % b;
                        let Some(i_chunk) = item_chunks.get_mut(c).and_then(Option::take) else {
                            continue;
                        };
                        scope.spawn(move || {
                            run_cell(
                                csr,
                                splits,
                                b,
                                per_u,
                                per_i,
                                f,
                                params.seed,
                                epoch,
                                sub,
                                t,
                                c,
                                u_chunk,
                                i_chunk,
                                lr,
                                lambda,
                            );
                        });
                    }
                });
            }
        }
    }
    let triples: Vec<(u32, u32, f32)> = matrix.user_csr().iter().collect();
    Ok(parallel_rmse(&triples, user_factors, item_factors, f, b))
}

/// RMSE over `triples` with the given factor tables. The triples are cut
/// into `threads` contiguous chunks and the per-chunk partial sums are
/// combined in slice order, so the result is deterministic for a fixed
/// chunk count whether the chunks run inline or on worker threads.
fn parallel_rmse(
    triples: &[(u32, u32, f32)],
    user_factors: &[f32],
    item_factors: &[f32],
    f: usize,
    threads: usize,
) -> f64 {
    if triples.is_empty() {
        return 0.0;
    }
    let per = triples.len().div_ceil(threads.max(1));
    let chunk_sum = |slice: &[(u32, u32, f32)]| {
        let mut sq = 0.0f64;
        for &(u, i, r) in slice {
            let p = &user_factors[u as usize * f..(u as usize + 1) * f];
            let q = &item_factors[i as usize * f..(i as usize + 1) * f];
            let err = f64::from(r) - f64::from(kernels::dot(p, q));
            sq += err * err;
        }
        sq
    };
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let partials: Vec<f64> = if hw <= 1 {
        triples.chunks(per).map(chunk_sum).collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = triples
                .chunks(per)
                .map(|slice| s.spawn(|| chunk_sum(slice)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("RMSE worker panicked"))
                .collect()
        })
    };
    (partials.iter().sum::<f64>() / triples.len() as f64).sqrt()
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
    fn parallel_training_is_deterministic() {
        let params = SvdParams {
            factors: 8,
            epochs: 40,
            threads: 3,
            ..Default::default()
        };
        let a = SvdModel::train(dense_block(), params, &QueryGuard::unlimited()).unwrap();
        let b = SvdModel::train(dense_block(), params, &QueryGuard::unlimited()).unwrap();
        for u in 0..6 {
            assert_eq!(a.user_vector(u), b.user_vector(u), "user {u}");
        }
        for i in 0..6 {
            assert_eq!(a.item_vector(i), b.item_vector(i), "item {i}");
        }
        assert_eq!(a.final_rmse(), b.final_rmse());
    }

    #[test]
    fn parallel_training_converges() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                factors: 8,
                epochs: 300,
                threads: 2,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert!(
            model.final_rmse() < 0.5,
            "parallel training RMSE {} too high",
            model.final_rmse()
        );
        let p = heldout(&model);
        assert!(
            (p - 1.5).abs() < 0.8,
            "held-out prediction {p} too far from 1.5"
        );
    }

    #[test]
    fn auto_threads_trains_without_panic() {
        let model = SvdModel::train(
            dense_block(),
            SvdParams {
                epochs: 10,
                threads: 0,
                ..Default::default()
            },
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert!(model.final_rmse().is_finite());
        for u in 0..6 {
            for i in 0..6 {
                assert!(predict(&model, u, i).is_finite());
            }
        }
    }

    #[test]
    fn thread_count_clamps_to_user_count() {
        // 6 users, 32 requested workers: shards degenerate to ≤ 1 user.
        let params = SvdParams {
            factors: 4,
            epochs: 20,
            threads: 32,
            ..Default::default()
        };
        let a = SvdModel::train(dense_block(), params, &QueryGuard::unlimited()).unwrap();
        let b = SvdModel::train(dense_block(), params, &QueryGuard::unlimited()).unwrap();
        assert_eq!(a.user_vector(0), b.user_vector(0));
        assert!(a.final_rmse().is_finite());
    }

    #[test]
    fn block_count_clamps_to_item_count() {
        // Many users, 2 items: the block grid must clamp B to the item
        // count so sub-epoch cells keep disjoint item blocks.
        let mut ratings = Vec::new();
        for u in 0..20i64 {
            ratings.push(Rating::new(u, 0, 2.0 + (u % 3) as f64));
            ratings.push(Rating::new(u, 1, 3.0));
        }
        let params = SvdParams {
            factors: 4,
            epochs: 15,
            threads: 8,
            ..Default::default()
        };
        let a = SvdModel::train(
            RatingsMatrix::from_ratings(ratings.clone()),
            params,
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let b = SvdModel::train(
            RatingsMatrix::from_ratings(ratings),
            params,
            &QueryGuard::unlimited(),
        )
        .unwrap();
        assert!(a.final_rmse().is_finite());
        for u in 0..20 {
            assert_eq!(a.user_vector(u), b.user_vector(u), "user {u}");
        }
    }

    #[test]
    fn empty_matrix_parallel_trains_without_panic() {
        let model = SvdModel::train(
            RatingsMatrix::default(),
            SvdParams {
                threads: 4,
                ..Default::default()
            },
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
    fn score_unseen_matches_per_pair_predictions() {
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
        let mut out = Vec::new();
        for u in 0..m.n_users() {
            out.clear();
            model.score_unseen_into(u, &mut out);
            let expected: Vec<(usize, f64)> = (0..m.n_items())
                .filter(|&i| m.rating_at(u, i).is_none())
                .map(|i| (i, predict(&model, u, i)))
                .collect();
            assert_eq!(out, expected, "user {u}");
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
