//! f32 numeric-parity regression: the CSR/flat-f32 storage layer must not
//! move held-out accuracy. The constants below are the f64-path metrics
//! recorded on LDOS-CoMoDa *before* ratings and SVD factors moved to f32
//! (same split seed, same training knobs). Half-star ratings are exactly
//! representable in f32 and all accumulation stays in f64, so the CF
//! paths reproduce the baseline bit-for-bit; SVD trains through f32
//! factors and is held to the issue's 1e-3 parity budget.

use recdb_algo::eval::{evaluate, split};
use recdb_algo::model::TrainConfig;
use recdb_algo::{Algorithm, SvdParams};
use recdb_datasets::SyntheticSpec;

/// f64-path RMSE/MAE on ldos-comoda, `split(ratings, 0.2, 7)`,
/// `SvdParams { factors: 16, epochs: 20, ..default }`.
const SVD_RMSE_F64: f64 = 0.741160507389;
const SVD_MAE_F64: f64 = 0.588235543080;
const ITEMCF_RMSE_F64: f64 = 0.875773788413;
const ITEMCF_MAE_F64: f64 = 0.701083601412;
const USERCF_RMSE_F64: f64 = 0.925996507564;
const USERCF_MAE_F64: f64 = 0.720817740088;

const TOLERANCE: f64 = 1e-3;

fn ldos_split() -> (Vec<recdb_algo::Rating>, Vec<recdb_algo::Rating>) {
    let dataset = recdb_datasets::generate(&SyntheticSpec::ldos_comoda());
    split(&dataset.algo_ratings(), 0.2, 7)
}

fn config() -> TrainConfig {
    TrainConfig {
        svd: SvdParams {
            factors: 16,
            epochs: 20,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn svd_f32_rmse_matches_f64_baseline() {
    let (train, test) = ldos_split();
    let acc = evaluate(Algorithm::Svd, train, &test, &config()).unwrap();
    assert!(
        (acc.rmse - SVD_RMSE_F64).abs() < TOLERANCE,
        "SVD RMSE drifted: f32 {} vs f64 baseline {SVD_RMSE_F64}",
        acc.rmse
    );
    assert!(
        (acc.mae - SVD_MAE_F64).abs() < TOLERANCE,
        "SVD MAE drifted: f32 {} vs f64 baseline {SVD_MAE_F64}",
        acc.mae
    );
    assert_eq!(acc.n_test, 462, "split changed — baselines no longer apply");
}

#[test]
fn itemcf_f32_rmse_matches_f64_baseline() {
    let (train, test) = ldos_split();
    let acc = evaluate(Algorithm::ItemCosCF, train, &test, &config()).unwrap();
    assert!(
        (acc.rmse - ITEMCF_RMSE_F64).abs() < TOLERANCE,
        "ItemCosCF RMSE drifted: f32 {} vs f64 baseline {ITEMCF_RMSE_F64}",
        acc.rmse
    );
    assert!(
        (acc.mae - ITEMCF_MAE_F64).abs() < TOLERANCE,
        "ItemCosCF MAE drifted: f32 {} vs f64 baseline {ITEMCF_MAE_F64}",
        acc.mae
    );
}

#[test]
fn usercf_f32_rmse_matches_f64_baseline() {
    let (train, test) = ldos_split();
    let acc = evaluate(Algorithm::UserCosCF, train, &test, &config()).unwrap();
    assert!(
        (acc.rmse - USERCF_RMSE_F64).abs() < TOLERANCE,
        "UserCosCF RMSE drifted: f32 {} vs f64 baseline {USERCF_RMSE_F64}",
        acc.rmse
    );
    assert!(
        (acc.mae - USERCF_MAE_F64).abs() < TOLERANCE,
        "UserCosCF MAE drifted: f32 {} vs f64 baseline {USERCF_MAE_F64}",
        acc.mae
    );
}
