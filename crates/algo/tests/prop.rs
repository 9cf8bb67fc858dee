//! Property-based tests for the recommendation algorithms: similarity
//! bounds, matrix invariants, and predictor sanity on arbitrary rating
//! data.

use proptest::prelude::*;
use recdb_algo::kernels;
use recdb_algo::model::TrainConfig;
use recdb_algo::neighborhood::{
    build_item_neighborhood, build_user_neighborhood, NeighborhoodTable,
};
use recdb_algo::similarity::{co_rated_sums, similarity, Similarity};
use recdb_algo::{
    Algorithm, Csr, ItemCfModel, NeighborhoodParams, Rating, RatingsMatrix, RecModel, ScoreScratch,
    SvdModel, SvdParams,
};
use recdb_guard::QueryGuard;
use std::collections::HashMap;

#[path = "../src/merge_reference.rs"]
mod merge_reference;
use merge_reference::merge_eq2;

// The builds under an unlimited guard: no test in this binary arms a
// fault site.

fn item_table(m: &RatingsMatrix, params: &NeighborhoodParams) -> NeighborhoodTable {
    build_item_neighborhood(m, params, &QueryGuard::unlimited()).unwrap()
}

fn user_table(m: &RatingsMatrix, params: &NeighborhoodParams) -> NeighborhoodTable {
    build_user_neighborhood(m, params, &QueryGuard::unlimited()).unwrap()
}

fn train(algorithm: Algorithm, matrix: RatingsMatrix, config: &TrainConfig) -> RecModel {
    RecModel::train(algorithm, matrix, config, &QueryGuard::unlimited()).unwrap()
}

fn svd(matrix: RatingsMatrix, params: SvdParams) -> SvdModel {
    SvdModel::train(matrix, params, &QueryGuard::unlimited()).unwrap()
}

fn ratings_strategy() -> impl Strategy<Value = Vec<Rating>> {
    proptest::collection::vec((0i64..15, 0i64..15, 1u8..=10), 1..80).prop_map(|v| {
        v.into_iter()
            .map(|(u, i, r)| Rating::new(u, i, r as f64 / 2.0))
            .collect()
    })
}

/// Small dense id spaces and many draws: most pairs appear several times.
fn duplicate_heavy_strategy() -> impl Strategy<Value = Vec<Rating>> {
    proptest::collection::vec((0i64..5, 0i64..5, 1u8..=10), 0..70).prop_map(|v| {
        v.into_iter()
            .map(|(u, i, r)| Rating::new(u, i, r as f64 / 2.0))
            .collect()
    })
}

/// Values for the neighborhood kernel: half stars mixed with arbitrary
/// (f32-inexact, negative) ones, ±0.0 and NaN — nothing checks that a
/// rating is finite, and a zero or NaN term must leave a partner's sums
/// exactly as the pairwise merge leaves them. Half stars are listed twice
/// to weight them.
fn kernel_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1u8..=10).prop_map(|r| f64::from(r) / 2.0),
        (1u8..=10).prop_map(|r| f64::from(r) / 2.0),
        -5.0f64..5.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
    ]
}

/// Small dense matrices for the neighborhood kernel, optionally with one
/// user who rated every item and one item only that user rated: a row's
/// terms mostly outnumber the entities, so most rows scan their slots.
/// Every dense row and column holds a rating by construction (ids exist
/// only once rated), so the emptiest shape is a single-entry row.
fn kernel_matrix_strategy() -> impl Strategy<Value = RatingsMatrix> {
    (
        proptest::collection::vec((0i64..12, 0i64..12, kernel_value()), 1..70),
        any::<bool>(),
    )
        .prop_map(|(cells, full_user)| {
            let mut ratings: Vec<Rating> = cells
                .into_iter()
                .map(|(u, i, r)| Rating::new(u, i, r))
                .collect();
            if full_user {
                for i in 0..12 {
                    ratings.push(Rating::new(100, i, 1.0 + (i % 9) as f64 * 0.5));
                }
                ratings.push(Rating::new(100, 200, 3.5));
            }
            RatingsMatrix::from_ratings(ratings)
        })
}

/// Sparse matrices: a few ratings per user over many items, so a row's
/// terms are far fewer than the entities and rows keep a list of the
/// partners they touched.
fn sparse_kernel_matrix_strategy() -> impl Strategy<Value = RatingsMatrix> {
    proptest::collection::vec((0i64..20, 0i64..150, kernel_value()), 1..100).prop_map(|cells| {
        RatingsMatrix::from_ratings(cells.into_iter().map(|(u, i, r)| Rating::new(u, i, r)))
    })
}

/// The all-pairs build the row product replaced: merge-intersect every
/// pair of rows of `rows` (values widened from the same `f32` storage),
/// then truncate each list by `|sim|` descending, index ascending.
fn all_pairs_oracle(rows: &Csr<f32>, params: &NeighborhoodParams) -> NeighborhoodTable {
    let n = rows.n_rows();
    let vectors: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|e| {
            let (cols, vals) = rows.row(e);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| (c as usize, f64::from(v)))
                .collect()
        })
        .collect();
    let mut lists: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            let sim = co_rated_sums(&vectors[a], &vectors[b]).score(params.measure);
            if let Some(sim) = sim.filter(|s| s.abs() > params.min_abs_sim) {
                lists[a].push((b, sim));
                lists[b].push((a, sim));
            }
        }
    }
    for list in &mut lists {
        if let Some(k) = params.max_neighbors {
            list.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
            list.truncate(k);
        }
        list.sort_by_key(|&(nb, _)| nb);
    }
    let triples = lists.iter().enumerate().flat_map(|(e, list)| {
        list.iter()
            .map(move |&(nb, sim)| (e as u32, nb as u32, sim))
    });
    NeighborhoodTable::from_forward(Csr::from_triples(n, triples))
}

/// `reverse(l)` must hold exactly the forward pairs that name `l`, same
/// sim bits, ascending in entity.
fn assert_reverse_is_transpose(table: &NeighborhoodTable) -> Result<(), TestCaseError> {
    let mut transposed: Vec<Vec<(usize, u64)>> = vec![Vec::new(); table.len()];
    for (e, l, sim) in table.forward().iter() {
        transposed[l as usize].push((e as usize, sim.to_bits()));
    }
    for (l, want) in transposed.iter().enumerate() {
        let (entities, sims) = table.reverse(l);
        let got: Vec<(usize, u64)> = entities
            .iter()
            .zip(sims)
            .map(|(&e, s)| (e as usize, s.to_bits()))
            .collect();
        prop_assert_eq!(&got, want, "reverse({})", l);
    }
    Ok(())
}

/// Every forward list as `(neighbor, sim bits)`: unlike
/// `NeighborhoodTable: PartialEq`, it tells -0.0 from 0.0 and NaN from
/// itself.
fn forward_bits(table: &NeighborhoodTable) -> Vec<Vec<(usize, u64)>> {
    (0..table.len())
        .map(|e| {
            let (nbs, sims) = table.neighbors(e);
            nbs.iter()
                .zip(sims)
                .map(|(&nb, sim)| (nb as usize, sim.to_bits()))
                .collect()
        })
        .collect()
}

/// Row `r` of `m` as `(column, value)` pairs.
fn row_pairs<V: Copy>(m: &Csr<V>, r: usize) -> Vec<(usize, V)> {
    let (cols, vals) = m.row(r);
    cols.iter()
        .zip(vals)
        .map(|(&c, &v)| (c as usize, v))
        .collect()
}

/// Arbitrary `(row, col, value)` triples over a small grid, duplicates
/// likely, with the grid's row and column counts.
fn triples_strategy() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f64)>)> {
    (1usize..8, 1usize..8).prop_flat_map(|(rows, cols)| {
        let cell = (0..rows as u32, 0..cols as u32, -5.0f64..5.0);
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(cell, 0..40),
        )
    })
}

/// Ratings for the candidate-list oracle: half stars mixed with ±0.0,
/// NaN and arbitrary values (nothing checks a rating is finite), and
/// optionally a lonely user whose one item nobody else rated — the
/// emptiest user a `RatingsMatrix` can hold (every user it knows has a
/// rating), with nothing to gather under either CF orientation.
fn list_kernel_ratings_strategy() -> impl Strategy<Value = Vec<Rating>> {
    let value = prop_oneof![
        (1u8..=10).prop_map(|r| f64::from(r) / 2.0),
        (1u8..=10).prop_map(|r| f64::from(r) / 2.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        -5.0f64..5.0,
    ];
    (
        proptest::collection::vec((0i64..10, 0i64..14, value), 1..60),
        any::<bool>(),
    )
        .prop_map(|(cells, lonely)| {
            let mut ratings: Vec<Rating> = cells
                .into_iter()
                .map(|(u, i, r)| Rating::new(u, i, r))
                .collect();
            if lonely {
                ratings.push(Rating::new(500, 900, 3.0));
            }
            ratings
        })
}

/// What the per-pair path predicted before the candidate-list kernel
/// (`None` = no signal): the merge-intersect for the CF models, the point
/// formulas for SVD and Popularity, written from their definitions.
fn merge_reference(model: &RecModel, u: usize, i: usize) -> Option<f64> {
    let m = model.matrix();
    match model {
        RecModel::Item(item) => merge_eq2(m.user_csr().row(u), item.neighborhood().neighbors(i)),
        RecModel::User(user) => merge_eq2(m.item_csr().row(i), user.neighborhood().neighbors(u)),
        RecModel::Factors(svd) => Some(f64::from(kernels::dot(
            svd.user_vector(u),
            svd.item_vector(i),
        ))),
        RecModel::Popular(p) => {
            // The column in ascending-user order, widened from f32.
            let col: Vec<f64> = (0..m.n_users()).filter_map(|u| m.rating_at(u, i)).collect();
            let sum: f64 = col.iter().sum();
            let (n, k) = (col.len() as f64, p.damping());
            Some(if n + k == 0.0 {
                0.0
            } else {
                (sum + k * p.global_mean()) / (n + k)
            })
        }
    }
}

/// Score bits, so NaN and -0.0 compare exactly.
fn bits(scores: &[Option<f64>]) -> Vec<Option<u64>> {
    scores.iter().map(|s| s.map(f64::to_bits)).collect()
}

fn sparse_vec_strategy() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::btree_map(0usize..30, -5.0f64..5.0, 0..15)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    /// Cosine and Pearson over co-rated dimensions always land in
    /// [-1, 1] (Cauchy–Schwarz holds on the restricted vectors too).
    #[test]
    fn similarity_is_bounded(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            if let Some(s) = similarity(&a, &b, measure) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "{measure:?} = {s}");
                prop_assert!(s.is_finite());
            }
        }
    }

    /// Similarity is symmetric, and self-similarity of a non-degenerate
    /// vector is 1 under cosine.
    #[test]
    fn similarity_symmetry_and_reflexivity(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            prop_assert_eq!(similarity(&a, &b, measure), similarity(&b, &a, measure));
        }
        if a.iter().any(|&(_, v)| v != 0.0) {
            let s = similarity(&a, &a, Similarity::Cosine).unwrap();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    /// The co-rated accumulator counts exactly the common indices.
    #[test]
    fn co_rated_counts_intersection(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        let sums = co_rated_sums(&a, &b);
        let set_a: std::collections::BTreeSet<usize> = a.iter().map(|&(i, _)| i).collect();
        let set_b: std::collections::BTreeSet<usize> = b.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(sums.n, set_a.intersection(&set_b).count());
    }

    /// RatingsMatrix agrees with a last-wins HashMap reference model.
    #[test]
    fn matrix_matches_hashmap_model(ratings in ratings_strategy()) {
        let m = RatingsMatrix::from_ratings(ratings.clone());
        let mut model: HashMap<(i64, i64), f64> = HashMap::new();
        for r in &ratings {
            model.insert((r.user, r.item), r.value);
        }
        prop_assert_eq!(m.n_ratings(), model.len());
        for (&(u, i), &v) in &model {
            prop_assert_eq!(m.rating_of(u, i), Some(v));
        }
        // Every CSR entry is the map's (half-star, f32-exact) value, and the
        // item view holds it too.
        for (u, i, r) in m.user_csr().iter() {
            let (user, item) = (m.user_id(u as usize), m.item_id(i as usize));
            prop_assert_eq!(f64::from(r), model[&(user, item)]);
            prop_assert_eq!(m.item_csr().get(i as usize, u as usize), Some(r));
        }
    }

    /// Last-wins dedup inside the CSR build gives exactly what
    /// deduplicating through a pair map up front does: same id order, same
    /// count, and both CSR views equal to the map's rows and columns.
    #[test]
    fn from_ratings_matches_pair_map_dedup(ratings in duplicate_heavy_strategy()) {
        let m = RatingsMatrix::from_ratings(ratings.clone());
        let mut latest: HashMap<(i64, i64), f64> = HashMap::new();
        let mut order: Vec<(i64, i64)> = Vec::new();
        for r in &ratings {
            if latest.insert((r.user, r.item), r.value).is_none() {
                order.push((r.user, r.item));
            }
        }
        let (mut user_ids, mut item_ids): (Vec<i64>, Vec<i64>) = (Vec::new(), Vec::new());
        for &(u, i) in &order {
            if !user_ids.contains(&u) {
                user_ids.push(u);
            }
            if !item_ids.contains(&i) {
                item_ids.push(i);
            }
        }
        prop_assert_eq!(m.user_ids(), &user_ids[..]);
        prop_assert_eq!(m.item_ids(), &item_ids[..]);
        prop_assert_eq!(m.n_ratings(), order.len());
        let dense = |ids: &[i64], id: i64| ids.iter().position(|&x| x == id).unwrap();
        let mut by_user: Vec<Vec<(usize, f32)>> = vec![Vec::new(); user_ids.len()];
        let mut by_item: Vec<Vec<(usize, f32)>> = vec![Vec::new(); item_ids.len()];
        for &(u, i) in &order {
            let (ui, ii) = (dense(&user_ids, u), dense(&item_ids, i));
            let v = latest[&(u, i)] as f32;
            by_user[ui].push((ii, v));
            by_item[ii].push((ui, v));
        }
        prop_assert_eq!(m.user_csr().n_rows(), user_ids.len());
        prop_assert_eq!(m.item_csr().n_rows(), item_ids.len());
        for (u, want) in by_user.iter_mut().enumerate() {
            want.sort_by_key(|&(i, _)| i);
            prop_assert_eq!(&row_pairs(m.user_csr(), u), want);
        }
        for (i, want) in by_item.iter_mut().enumerate() {
            want.sort_by_key(|&(u, _)| u);
            prop_assert_eq!(&row_pairs(m.item_csr(), i), want);
        }
    }

    /// The row-product build equals the all-pairs merge-intersect build
    /// bit for bit — every sim, every truncation tie-break, both
    /// orientations, at every thread count, on dense matrices (rows scan
    /// their slots) and sparse ones (rows keep a touched list) — and its
    /// reverse lists are the exact transpose.
    #[test]
    fn row_product_equals_all_pairs_oracle(
        matrix in prop_oneof![kernel_matrix_strategy(), sparse_kernel_matrix_strategy()],
    ) {
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            for max_neighbors in [None, Some(1), Some(3)] {
                for min_abs_sim in [0.0, 0.5] {
                    let params = NeighborhoodParams { measure, max_neighbors, min_abs_sim, threads: 1 };
                    let item_oracle = forward_bits(&all_pairs_oracle(matrix.item_csr(), &params));
                    let user_oracle = forward_bits(&all_pairs_oracle(matrix.user_csr(), &params));
                    for threads in [1, 2, 3, 8] {
                        let params = NeighborhoodParams { threads, ..params };
                        let items = item_table(&matrix, &params);
                        prop_assert_eq!(&forward_bits(&items), &item_oracle, "items {:?}", params);
                        let users = user_table(&matrix, &params);
                        prop_assert_eq!(&forward_bits(&users), &user_oracle, "users {:?}", params);
                        assert_reverse_is_transpose(&items)?;
                        assert_reverse_is_transpose(&users)?;
                    }
                }
            }
        }
    }

    /// With strictly positive ratings, cosine item-item similarities are
    /// non-negative, so the Eq. 2 prediction is a convex combination: it
    /// must lie within the user's own rating range.
    #[test]
    fn itemcf_prediction_bounded_by_user_range(ratings in ratings_strategy()) {
        let matrix = RatingsMatrix::from_ratings(ratings);
        let guard = QueryGuard::unlimited();
        let model = ItemCfModel::train(matrix.clone(), NeighborhoodParams::cosine(), &guard).unwrap();
        for &user in matrix.user_ids() {
            let u = matrix.user_idx(user).unwrap();
            let (_, row) = matrix.user_csr().row(u);
            let lo = row.iter().map(|&r| f64::from(r)).fold(f64::INFINITY, f64::min);
            let hi = row.iter().map(|&r| f64::from(r)).fold(f64::NEG_INFINITY, f64::max);
            let items: Vec<usize> = (0..matrix.n_items()).collect();
            let mut predicted = Vec::new();
            model.predict_items_into(u, &items, &mut ScoreScratch::default(), &mut predicted);
            for (i, p) in predicted.into_iter().enumerate() {
                let item = matrix.item_id(i);
                if let Some(p) = p {
                    prop_assert!(
                        p >= lo - 1e-9 && p <= hi + 1e-9,
                        "user {user} item {item}: {p} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    /// Every algorithm trains without panicking on arbitrary data, scores
    /// are finite, and exactly the rated pairs are not recommendations.
    #[test]
    fn all_algorithms_total_on_arbitrary_data(ratings in ratings_strategy()) {
        let config = TrainConfig {
            svd: SvdParams { epochs: 2, factors: 4, ..SvdParams::default() },
            ..TrainConfig::default()
        };
        for algo in Algorithm::ALL {
            let matrix = RatingsMatrix::from_ratings(ratings.clone());
            let model = train(algo, matrix.clone(), &config);
            for u in 0..matrix.n_users().min(5) {
                for i in 0..matrix.n_items().min(5) {
                    let s = model.unseen_score(u, i);
                    prop_assert!(s.is_none_or(f64::is_finite), "{algo} score({u},{i}) = {s:?}");
                    prop_assert_eq!(s.is_none(), matrix.rating_at(u, i).is_some(), "{}", algo);
                }
            }
        }
    }

    /// Neighborhood tables are symmetric with matching scores, and
    /// truncation keeps a subset of the full table's edges.
    #[test]
    fn neighborhood_symmetry_and_truncation(ratings in ratings_strategy(), k in 1usize..6) {
        let matrix = RatingsMatrix::from_ratings(ratings);
        for table in [
            item_table(&matrix, &NeighborhoodParams::cosine()),
            user_table(&matrix, &NeighborhoodParams::cosine()),
        ] {
            for (e, nb, s) in table.forward().iter() {
                prop_assert_eq!(table.sim(nb as usize, e as usize), Some(s));
                prop_assert!(nb != e, "no self-edges");
            }
        }
        let full = item_table(&matrix, &NeighborhoodParams::cosine());
        let trunc = item_table(
            &matrix,
            &NeighborhoodParams { max_neighbors: Some(k), ..NeighborhoodParams::cosine() },
        );
        for e in 0..trunc.len() {
            prop_assert!(trunc.neighbors(e).0.len() <= k);
        }
        for (e, nb, s) in trunc.forward().iter() {
            prop_assert_eq!(full.sim(e as usize, nb as usize), Some(s), "truncated edge must exist in full");
        }
    }

    /// The reverse adjacency is the exact transpose of the forward lists —
    /// same pairs, same sim bits, each reverse row ascending — and the
    /// whole table (both directions) is identical at every thread count,
    /// truncated or not.
    #[test]
    fn reverse_lists_are_the_exact_transpose(ratings in ratings_strategy(), k in 1usize..6) {
        let matrix = RatingsMatrix::from_ratings(ratings);
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            for max_neighbors in [None, Some(k)] {
                let params = NeighborhoodParams { measure, max_neighbors, min_abs_sim: 0.0, threads: 1 };
                for (serial, parallel) in [
                    (
                        item_table(&matrix, &params),
                        item_table(&matrix, &NeighborhoodParams { threads: 3, ..params }),
                    ),
                    (
                        user_table(&matrix, &params),
                        user_table(&matrix, &NeighborhoodParams { threads: 3, ..params }),
                    ),
                ] {
                    prop_assert_eq!(&serial, &parallel, "threads 1 vs 3");
                    assert_reverse_is_transpose(&serial)?;
                }
            }
        }
    }

    /// The user-at-a-time pass equals the per-pair oracle bit for bit, for
    /// every algorithm, truncated or not, at `threads` 1 and 3.
    #[test]
    fn user_pass_is_bit_identical_to_per_pair(ratings in ratings_strategy(), k in 1usize..6) {
        let matrix = RatingsMatrix::from_ratings(ratings);
        let mut scratch = ScoreScratch::default();
        let mut batch = Vec::new();
        for algo in Algorithm::ALL {
            for max_neighbors in [None, Some(k)] {
                for threads in [1, 3] {
                    let mut config = TrainConfig::default();
                    config.neighborhood.max_neighbors = max_neighbors;
                    config.neighborhood.threads = threads;
                    config.svd = SvdParams { epochs: 2, factors: 4, ..SvdParams::default() };
                    let model = train(algo, matrix.clone(), &config);
                    for u in 0..matrix.n_users() {
                        batch.clear();
                        model.score_unseen_into(u, &mut scratch, &mut batch);
                        let got: Vec<(usize, u64)> =
                            batch.iter().map(|&(i, s)| (i, s.to_bits())).collect();
                        let want: Vec<(usize, u64)> = (0..matrix.n_items())
                            .filter(|&i| matrix.rating_at(u, i).is_none())
                            .map(|i| (i, model.predict_indexed(u, i).unwrap_or(0.0).to_bits()))
                            .collect();
                        prop_assert_eq!(&got, &want, "{} k {:?} threads {} user {}", algo, max_neighbors, threads, u);
                        // The per-pair rule is the batch entry, and `None`
                        // exactly on rated pairs.
                        let per_pair: Vec<(usize, u64)> = (0..matrix.n_items())
                            .filter_map(|i| Some((i, model.unseen_score(u, i)?.to_bits())))
                            .collect();
                        prop_assert_eq!(per_pair, got, "{} k {:?} threads {} user {}", algo, max_neighbors, threads, u);
                    }
                }
            }
        }
    }

    /// The candidate-list kernel equals the per-pair merge it replaced,
    /// bit for bit, for every model family, truncated or not: lists in
    /// any order with duplicates, rated candidates (`None`), candidates
    /// with no signal (0, or `None` from `predict_items_into`), NaN and
    /// ±0.0 ratings; one `ScoreScratch` alternates between this model and
    /// a smaller one. A one-item call is the parent's `unseen_score`.
    #[test]
    fn candidate_list_is_bit_identical_to_the_merge_reference(
        ratings in list_kernel_ratings_strategy(),
        k in 1usize..6,
        picks in proptest::collection::vec(0usize..64, 0..30),
    ) {
        let matrix = RatingsMatrix::from_ratings(ratings.iter().copied());
        // A different item count for the shared scratch.
        let small = RatingsMatrix::from_ratings(ratings.iter().copied().take(ratings.len() / 2 + 1));
        let mut scratch = ScoreScratch::default();
        let mut out = Vec::new();
        for algo in Algorithm::ALL {
            for max_neighbors in [None, Some(k)] {
                let mut config = TrainConfig::default();
                config.neighborhood.max_neighbors = max_neighbors;
                config.neighborhood.threads = 1;
                config.svd = SvdParams { epochs: 2, factors: 4, ..SvdParams::default() };
                let models = [
                    train(algo, matrix.clone(), &config),
                    train(algo, small.clone(), &config),
                ];
                for u in 0..matrix.n_users() {
                    for model in &models {
                        let m = model.matrix();
                        let u = u % m.n_users();
                        let rated: Vec<usize> =
                            m.user_csr().row(u).0.iter().map(|&i| i as usize).collect();
                        // Random picks (with repeats), every rated item, and
                        // the first pick again.
                        let items: Vec<usize> = picks
                            .iter()
                            .map(|&p| p % m.n_items())
                            .chain(rated.iter().copied())
                            .chain(picks.first().map(|&p| p % m.n_items()))
                            .collect();
                        let case = format!("{algo} k {max_neighbors:?} user {u} items {items:?}");
                        let reference = |i: usize| {
                            (m.rating_at(u, i).is_none()).then(|| merge_reference(model, u, i))
                        };

                        out.clear();
                        model.score_items_into(u, &items, &mut scratch, &mut out);
                        let want: Vec<Option<f64>> =
                            items.iter().map(|&i| reference(i).map(|p| p.unwrap_or(0.0))).collect();
                        prop_assert_eq!(bits(&out), bits(&want), "score_items_into {}", &case);
                        for &i in &rated {
                            prop_assert!(want[items.iter().position(|&x| x == i).unwrap()].is_none());
                        }

                        out.clear();
                        model.predict_items_into(u, &items, &mut scratch, &mut out);
                        let want: Vec<Option<f64>> =
                            items.iter().map(|&i| reference(i).flatten()).collect();
                        prop_assert_eq!(bits(&out), bits(&want), "predict_items_into {}", &case);

                        for &i in &items {
                            let parent = reference(i).map(|p| p.unwrap_or(0.0));
                            prop_assert_eq!(bits(&[model.unseen_score(u, i)]), bits(&[parent]), "{}", &case);
                            prop_assert_eq!(
                                bits(&[model.predict_indexed(u, i)]),
                                bits(&[reference(i).flatten()]),
                                "{}", &case
                            );
                        }
                    }
                }
            }
        }
    }

    /// SVD training is deterministic for a fixed seed.
    #[test]
    fn svd_deterministic(ratings in ratings_strategy(), seed in 1u64..1000) {
        let params = SvdParams { epochs: 3, factors: 4, seed, ..SvdParams::default() };
        let a = svd(RatingsMatrix::from_ratings(ratings.clone()), params);
        let b = svd(RatingsMatrix::from_ratings(ratings.clone()), params);
        let matrix = RatingsMatrix::from_ratings(ratings);
        let items: Vec<usize> = (0..matrix.n_items().min(3)).collect();
        for u in 0..matrix.n_users().min(3) {
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            a.predict_items_into(u, &items, &mut pa);
            b.predict_items_into(u, &items, &mut pb);
            prop_assert_eq!(pa, pb);
        }
    }

    /// The counting-sort build from unsorted triples with duplicates is
    /// the last-wins pair map, row by row, each row ascending.
    #[test]
    fn csr_from_triples_is_the_last_wins_pair_map((rows, _cols, triples) in triples_strategy()) {
        let m = Csr::from_triples(rows, triples.iter().copied());
        let mut latest = std::collections::BTreeMap::new();
        for &(r, c, v) in &triples {
            latest.insert((r as usize, c as usize), v.to_bits());
        }
        prop_assert_eq!(m.n_rows(), rows);
        prop_assert_eq!(m.nnz(), latest.len());
        for r in 0..rows {
            let got: Vec<(usize, u64)> =
                row_pairs(&m, r).into_iter().map(|(c, v)| (c, v.to_bits())).collect();
            let want: Vec<(usize, u64)> =
                latest.range((r, 0)..(r + 1, 0)).map(|(&(_, c), &v)| (c, v)).collect();
            prop_assert_eq!(got, want, "row {}", r);
        }
    }

    /// Transposing twice gives the matrix back, and the transpose holds
    /// exactly the swapped entries.
    #[test]
    fn csr_transpose_twice_is_identity((rows, cols, triples) in triples_strategy()) {
        let m = Csr::from_triples(rows, triples.into_iter());
        let t = m.transpose(cols);
        prop_assert_eq!(t.n_rows(), cols);
        let mut swapped: Vec<(u32, u32, u64)> =
            m.iter().map(|(r, c, v)| (c, r, v.to_bits())).collect();
        swapped.sort_unstable();
        let got: Vec<(u32, u32, u64)> = t.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        prop_assert_eq!(got, swapped);
        prop_assert_eq!(t.transpose(rows), m);
    }

    /// `get` is a linear search of the row, for every cell of the grid and
    /// one column past it.
    #[test]
    fn csr_get_is_a_linear_search((rows, cols, triples) in triples_strategy()) {
        let m = Csr::from_triples(rows, triples.into_iter());
        for r in 0..rows {
            let pairs = row_pairs(&m, r);
            for c in 0..=cols {
                let want = pairs.iter().find(|&&(col, _)| col == c).map(|&(_, v)| v);
                prop_assert_eq!(m.get(r, c), want, "({}, {})", r, c);
            }
        }
    }
}

/// Worlds for the top-k kernel: ratings drawn from half stars, one value
/// drawn often (exact ties), ±0.0, ±∞ and NaN — or, when `tied` is set,
/// every rating the same value, so whole score rows tie. Item ids are
/// scattered (`i * 37 % 101`), so dense order and id order disagree. A
/// matrix knows only users and items that have a rating, so the emptiest
/// shapes are these: a user whose one rating is of an item nobody else
/// rated (no model signal: every score 0), and a user who rated every item
/// (no candidates).
fn top_k_world_strategy() -> impl Strategy<Value = RatingsMatrix> {
    let value = prop_oneof![
        (1u8..=10).prop_map(|r| f64::from(r) / 2.0),
        Just(3.0),
        Just(3.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ];
    (
        proptest::collection::vec((0i64..8, 0i64..30, value), 1..90),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(cells, tied, full_user)| {
            let mut ratings: Vec<Rating> = cells
                .into_iter()
                .map(|(u, i, r)| Rating::new(u, i * 37 % 101, if tied { 3.0 } else { r }))
                .collect();
            ratings.push(Rating::new(500, 900, 4.0));
            if full_user {
                let items: Vec<i64> = ratings.iter().map(|r| r.item).collect();
                ratings.extend(items.into_iter().map(|i| Rating::new(600, i, 2.5)));
            }
            RatingsMatrix::from_ratings(ratings)
        })
}

proptest! {
    /// The one-walk top-k kernel equals its definition — every unseen
    /// item scored ([`RecModel::score_unseen_into`]), kept when inside the
    /// `[min, max]` bounds (`>=` / `<=`), stably sorted by score
    /// descending under `total_cmp`, then item id descending, and
    /// truncated to `k` — in ids and score bits, for every model family
    /// and measure, `k` of 0, 1, 10 and past the domain, with and without
    /// bounds taken from the user's own scores. One scratch serves every
    /// model in turn, so a stale row would show.
    #[test]
    fn top_k_kernel_equals_sort_then_truncate(
        matrix in top_k_world_strategy(),
        bound_picks in (0usize..4, 0usize..1000, 0usize..1000),
    ) {
        let mut config = TrainConfig::default();
        config.neighborhood.threads = 1;
        config.svd = SvdParams { epochs: 2, factors: 4, ..SvdParams::default() };
        let ids = matrix.item_ids();
        let mut scratch = ScoreScratch::default();
        let (mut unseen, mut got) = (Vec::new(), Vec::new());
        for algo in Algorithm::ALL {
            let model = train(algo, matrix.clone(), &config);
            for u in 0..matrix.n_users() {
                unseen.clear();
                model.score_unseen_into(u, &mut scratch, &mut unseen);
                let (which, lo, hi) = bound_picks;
                let pick = |p: usize| unseen.get(p % unseen.len().max(1)).map(|&(_, s)| s);
                let (min, max) = match which {
                    0 => (None, None),
                    1 => (pick(lo), None),
                    2 => (None, pick(hi)),
                    _ => (pick(lo), pick(hi)),
                };
                for k in [0, 1, 10, matrix.n_items() + 3] {
                    let mut want: Vec<(usize, f64)> = unseen
                        .iter()
                        .copied()
                        .filter(|&(_, s)| {
                            min.is_none_or(|m| s >= m) && max.is_none_or(|m| s <= m)
                        })
                        .collect();
                    want.sort_by(|a, b| b.1.total_cmp(&a.1).then(ids[b.0].cmp(&ids[a.0])));
                    want.truncate(k);
                    let want: Vec<(usize, u64)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();

                    got.clear();
                    model.top_k_unseen_into(u, k, min, max, &mut scratch, &mut got);
                    let got_bits: Vec<(usize, u64)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
                    prop_assert_eq!(&got_bits, &want, "{} user {} k {} bounds {:?}", algo, u, k, (min, max));
                    if (min, max) == (None, None) {
                        let top: Vec<(usize, u64)> = model
                            .top_k_unseen(u, k)
                            .iter()
                            .map(|&(i, s)| (i, s.to_bits()))
                            .collect();
                        prop_assert_eq!(&top, &want, "top_k_unseen {} user {} k {}", algo, u, k);
                    }
                }
            }
        }
    }
}
