//! Fault injection into the model builds. The fault registry is
//! process-global and every build evaluates its sites, so each test here
//! holds `recdb_fault::exclusive()` for its whole body; no lib test of
//! this crate arms a site (see the `recdb_fault` module docs).

use recdb_algo::model::TrainError;
use recdb_algo::neighborhood::build_item_neighborhood;
use recdb_algo::{NeighborhoodParams, Rating, RatingsMatrix};
use recdb_guard::QueryGuard;

/// `n_users × n_items` at ~35 % density, ratings in half-star steps from
/// an xorshift stream seeded by `seed`.
fn random_matrix(seed: u64, n_users: i64, n_items: i64) -> RatingsMatrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut ratings = Vec::new();
    for u in 0..n_users {
        for i in 0..n_items {
            if next() % 100 < 35 {
                let r = 1.0 + (next() % 9) as f64 * 0.5;
                ratings.push(Rating::new(u, i, r));
            }
        }
    }
    RatingsMatrix::from_ratings(ratings)
}

/// A fault stops the neighborhood build at the chunk whose gate it fires
/// in, and the retry builds the same table as a clean build.
#[test]
fn governed_build_fails_within_one_chunk() {
    let _gate = recdb_fault::exclusive();
    recdb_fault::clear();
    let m = random_matrix(5, 40, 30);
    let params = NeighborhoodParams {
        threads: 1,
        ..NeighborhoodParams::cosine()
    };
    let clean = build_item_neighborhood(&m, &params, &QueryGuard::unlimited()).unwrap();
    // 30 rows in chunks of 3: the fault fires at the second chunk's
    // gate and the remaining eight never reach theirs.
    recdb_fault::arm_error("algo::neighborhood_build", 2);
    assert!(matches!(
        build_item_neighborhood(&m, &params, &QueryGuard::unlimited()),
        Err(TrainError::Fault(_))
    ));
    assert_eq!(recdb_fault::hits("algo::neighborhood_build"), 2);
    recdb_fault::clear();
    assert_eq!(
        build_item_neighborhood(&m, &params, &QueryGuard::unlimited()).unwrap(),
        clean
    );
}
