//! Hold-out accuracy evaluation (RMSE / MAE).
//!
//! The paper explicitly does *not* claim accuracy improvements ("RecDB does
//! not introduce a novel recommendation model with higher accuracy"), but a
//! credible implementation must demonstrate that its predictors behave like
//! the textbook algorithms. This module provides a seeded train/test split
//! and the two standard error metrics.

use crate::model::{Algorithm, RecModel, TrainConfig, TrainError};
use crate::neighborhood::ScoreScratch;
use crate::ratings::{Rating, RatingsMatrix};
use recdb_guard::QueryGuard;

/// Accuracy of a model on a test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Root mean squared error over covered pairs.
    pub rmse: f64,
    /// Mean absolute error over covered pairs.
    pub mae: f64,
    /// Fraction of test pairs the model could score at all (both ids known
    /// to the model and a non-trivial prediction available).
    pub coverage: f64,
    /// Number of test pairs evaluated.
    pub n_test: usize,
}

/// Split ratings into `(train, test)` with `test_fraction` of observations
/// held out, deterministically for a given `seed`.
pub fn split(ratings: &[Rating], test_fraction: f64, seed: u64) -> (Vec<Rating>, Vec<Rating>) {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test_fraction must be in [0, 1)"
    );
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut state = seed.max(1);
    for &r in ratings {
        // xorshift64* per observation.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let roll = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        if roll < test_fraction {
            test.push(r);
        } else {
            train.push(r);
        }
    }
    (train, test)
}

/// Train on `train` (under an unlimited guard, so only an injected fault
/// stops it), score every `test` pair, and report error metrics.
///
/// Pairs the model cannot score (unknown user/item or no neighborhood
/// signal) are excluded from the error average and reflected in
/// [`Accuracy::coverage`].
pub fn evaluate(
    algorithm: Algorithm,
    train: Vec<Rating>,
    test: &[Rating],
    config: &TrainConfig,
) -> Result<Accuracy, TrainError> {
    let matrix = RatingsMatrix::from_ratings(train);
    let model = RecModel::train(algorithm, matrix, config, &QueryGuard::unlimited())?;
    Ok(evaluate_model(&model, test))
}

/// Score every `test` pair with an already-trained model.
///
/// Ids are resolved to dense indexes once per pair, and each user's test
/// items are scored by one candidate-list call
/// ([`RecModel::predict_items_into`]); errors are then summed in test-set
/// order, so the metrics do not depend on the grouping.
pub fn evaluate_model(model: &RecModel, test: &[Rating]) -> Accuracy {
    let matrix = model.matrix();
    // `(user, item, position in test)`, grouped by user.
    let mut pairs: Vec<(usize, usize, usize)> = test
        .iter()
        .enumerate()
        .filter_map(|(at, r)| Some((matrix.user_idx(r.user)?, matrix.item_idx(r.item)?, at)))
        .collect();
    pairs.sort_unstable();
    let mut predicted = vec![None; test.len()];
    let (mut scratch, mut items, mut out) = (ScoreScratch::default(), Vec::new(), Vec::new());
    for group in pairs.chunk_by(|a, b| a.0 == b.0) {
        items.clear();
        items.extend(group.iter().map(|&(_, i, _)| i));
        out.clear();
        model.predict_items_into(group[0].0, &items, &mut scratch, &mut out);
        for (&(_, _, at), &p) in group.iter().zip(&out) {
            predicted[at] = p;
        }
    }
    let mut sq = 0.0;
    let mut abs = 0.0;
    let mut covered = 0usize;
    for (r, p) in test.iter().zip(predicted) {
        if let Some(p) = p {
            let err = p - r.value;
            sq += err * err;
            abs += err.abs();
            covered += 1;
        }
    }
    let n_test = test.len();
    if covered == 0 {
        return Accuracy {
            rmse: f64::NAN,
            mae: f64::NAN,
            coverage: 0.0,
            n_test,
        };
    }
    Accuracy {
        rmse: (sq / covered as f64).sqrt(),
        mae: abs / covered as f64,
        coverage: covered as f64 / n_test.max(1) as f64,
        n_test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::SvdParams;

    /// Structured synthetic ratings: user `u` likes item `i` as
    /// `3 + sin(u·i)`-ish deterministic pattern, clamped to [1, 5].
    fn structured(n_users: i64, n_items: i64) -> Vec<Rating> {
        let mut out = Vec::new();
        for u in 0..n_users {
            for i in 0..n_items {
                // Leave some sparsity.
                if (u * 7 + i * 3) % 4 == 0 {
                    continue;
                }
                let base = 1.0 + ((u % 5) as f64 + (i % 5) as f64) / 2.0;
                out.push(Rating::new(u, i, base.clamp(1.0, 5.0)));
            }
        }
        out
    }

    #[test]
    fn split_is_deterministic_and_proportional() {
        let data = structured(20, 20);
        let (tr1, te1) = split(&data, 0.25, 42);
        let (tr2, te2) = split(&data, 0.25, 42);
        assert_eq!(te1.len(), te2.len());
        assert_eq!(tr1.len(), tr2.len());
        let frac = te1.len() as f64 / data.len() as f64;
        assert!((frac - 0.25).abs() < 0.08, "held out {frac}");
        let (_, te3) = split(&data, 0.25, 43);
        assert_ne!(te1.len() + te1.len(), te3.len() + te1.len() + 1); // trivially true; seeds differ below
        assert!(
            te1.iter().map(|r| (r.user, r.item)).collect::<Vec<_>>()
                != te3.iter().map(|r| (r.user, r.item)).collect::<Vec<_>>()
                || te1.len() != te3.len()
        );
    }

    #[test]
    fn itemcf_beats_trivial_error_on_structured_data() {
        let data = structured(30, 30);
        let (train, test) = split(&data, 0.2, 7);
        let acc = evaluate(Algorithm::ItemCosCF, train, &test, &TrainConfig::default()).unwrap();
        assert!(acc.coverage > 0.9, "coverage {}", acc.coverage);
        // Ratings span [1, 5]; random guessing RMSE ≈ 1.6. The pattern is
        // learnable, so CF should do much better.
        assert!(acc.rmse < 1.0, "ItemCosCF RMSE {}", acc.rmse);
        assert!(acc.mae <= acc.rmse + 1e-12, "MAE bounded by RMSE");
    }

    #[test]
    fn svd_learns_structured_data() {
        let data = structured(30, 30);
        let (train, test) = split(&data, 0.2, 7);
        let acc = evaluate(
            Algorithm::Svd,
            train,
            &test,
            &TrainConfig {
                svd: SvdParams {
                    factors: 8,
                    epochs: 60,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(acc.coverage > 0.95);
        assert!(acc.rmse < 1.0, "SVD RMSE {}", acc.rmse);
    }

    #[test]
    fn empty_test_set_yields_nan_metrics() {
        let data = structured(5, 5);
        let acc = evaluate(Algorithm::ItemCosCF, data, &[], &TrainConfig::default()).unwrap();
        assert!(acc.rmse.is_nan());
        assert_eq!(acc.coverage, 0.0);
        assert_eq!(acc.n_test, 0);
    }

    #[test]
    fn uncoverable_pairs_lower_coverage() {
        let train = vec![Rating::new(1, 1, 5.0), Rating::new(1, 2, 4.0)];
        // Test on an unknown user: nothing coverable.
        let test = vec![Rating::new(99, 1, 3.0)];
        let acc = evaluate(Algorithm::ItemCosCF, train, &test, &TrainConfig::default()).unwrap();
        assert_eq!(acc.coverage, 0.0);
    }
}
