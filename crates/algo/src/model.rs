//! The unified recommendation model (`RecModel`) and algorithm names.
//!
//! `CREATE RECOMMENDER ... USING <algorithm>` and `RECOMMEND ... USING
//! <algorithm>` name one of the paper's five §III-A algorithms (or the
//! extension [`crate::popularity`] ranking); [`Algorithm`] parses those
//! names and [`RecModel`] wraps the corresponding trained model behind one
//! scoring interface.
//!
//! # One build
//!
//! [`RecModel::train`] is the only way to build a model, and it is always
//! governed: it takes a [`QueryGuard`] and returns [`TrainError`] when the
//! guard stops the build or a fault-injection site fires in it. Each model
//! type below it likewise has one `train`. A caller with no limits passes
//! [`QueryGuard::unlimited`]; the fault sites stay live for it too.
//!
//! # Two kernels, one rule
//!
//! Each model type supplies two kernels and nothing else, both per user:
//!
//! * **whole domain** — `score_row(u)`: a dense score row over every item
//!   (see [`ScoreScratch`]), read here by two consumers that skip the
//!   items `u` rated: [`RecModel::score_unseen_into`] emits every unseen
//!   item, ascending (the streaming `RECOMMEND`, the score materializer),
//!   and [`RecModel::top_k_unseen_into`] keeps the best `k` of them in
//!   [`serving_order`] in one walk (Query 1's `ORDER BY … LIMIT k`);
//! * **candidate list** — `predict_items_into(u, items)`: the raw
//!   prediction of each listed item (Eq. 2 for the CF models, the factor
//!   dot product for SVD, the damped mean for Popularity; `None` = no
//!   signal), in list order (JOINRECOMMEND's outer block, a pushed-down
//!   `iPred`, Alg. 4 admissions, the evaluation harness).
//!
//! The rule the paper wraps around them (Algorithms 1/2: a pair the user
//! already rated is not a recommendation; an unrated pair with no signal
//! scores 0) is written here and only here, over the candidate list:
//! [`RecModel::score_items_into`] (`None` = rated; no signal = `Some(0.0)`
//! — by definition the entry [`RecModel::score_unseen_into`] emits for
//! that item) and [`RecModel::predict_items_into`] (`None` = rated or no
//! signal — what the evaluation harness averages over). The point forms
//! [`RecModel::unseen_score`], [`RecModel::predict_indexed`] and
//! [`RecModel::predict`] are one-item lists.

use crate::itemcf::ItemCfModel;
use crate::neighborhood::{NeighborhoodParams, ScoreScratch};
use crate::popularity::PopularityModel;
use crate::ratings::RatingsMatrix;
use crate::similarity::Similarity;
use crate::svd::{SvdModel, SvdParams};
use crate::topk::{serving_order, top_k_by, TopK};
use crate::usercf::UserCfModel;
use recdb_fault::FaultError;
use recdb_guard::{GuardError, QueryGuard};
use std::fmt;
use std::str::FromStr;

/// Why a governed model build stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The build's [`QueryGuard`] cancelled it (deadline, explicit
    /// cancel, or budget).
    Guard(GuardError),
    /// A deterministic fault-injection site fired inside the build.
    Fault(FaultError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Guard(e) => write!(f, "model build stopped: {e}"),
            TrainError::Fault(e) => write!(f, "model build failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Guard(e) => Some(e),
            TrainError::Fault(e) => Some(e),
        }
    }
}

impl From<GuardError> for TrainError {
    fn from(e: GuardError) -> Self {
        TrainError::Guard(e)
    }
}

impl From<FaultError> for TrainError {
    fn from(e: FaultError) -> Self {
        TrainError::Fault(e)
    }
}

/// The recommendation algorithms RecDB supports (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Item–item CF, cosine similarity — the paper's default.
    ItemCosCF,
    /// Item–item CF, Pearson correlation.
    ItemPearCF,
    /// User–user CF, cosine similarity.
    UserCosCF,
    /// User–user CF, Pearson correlation.
    UserPearCF,
    /// Regularized gradient-descent matrix factorization.
    Svd,
    /// Non-personalized damped-mean popularity ranking (§II class 1;
    /// an extension beyond the paper's five CF algorithms).
    Popularity,
}

impl Algorithm {
    /// All algorithms, for exhaustive sweeps in benches/tests.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::ItemCosCF,
        Algorithm::ItemPearCF,
        Algorithm::UserCosCF,
        Algorithm::UserPearCF,
        Algorithm::Svd,
        Algorithm::Popularity,
    ];

    /// The canonical name used in SQL.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::ItemCosCF => "ItemCosCF",
            Algorithm::ItemPearCF => "ItemPearCF",
            Algorithm::UserCosCF => "UserCosCF",
            Algorithm::UserPearCF => "UserPearCF",
            Algorithm::Svd => "SVD",
            Algorithm::Popularity => "Popularity",
        }
    }

    /// Whether this is a neighborhood (vs matrix-factorization) algorithm.
    pub fn is_neighborhood(&self) -> bool {
        !matches!(self, Algorithm::Svd | Algorithm::Popularity)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "itemcoscf" => Ok(Algorithm::ItemCosCF),
            "itempearcf" => Ok(Algorithm::ItemPearCF),
            "usercoscf" => Ok(Algorithm::UserCosCF),
            "userpearcf" => Ok(Algorithm::UserPearCF),
            "svd" => Ok(Algorithm::Svd),
            "popularity" | "mostpopular" => Ok(Algorithm::Popularity),
            other => Err(format!(
                "unknown recommendation algorithm `{other}` (expected ItemCosCF, \
                 ItemPearCF, UserCosCF, UserPearCF, SVD, or Popularity)"
            )),
        }
    }
}

/// Training-time configuration shared by every algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainConfig {
    /// Neighborhood knobs for the CF algorithms.
    pub neighborhood: NeighborhoodKnobs,
    /// SVD hyper-parameters.
    pub svd: SvdParams,
}

/// Neighborhood knobs exposed without committing to a measure (the measure
/// comes from the [`Algorithm`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborhoodKnobs {
    /// Optional neighbor-list truncation.
    pub max_neighbors: Option<usize>,
    /// Minimum |sim| to keep an edge.
    pub min_abs_sim: f64,
    /// Build threads (`0` = all cores; output is bit-identical for every
    /// setting — see [`crate::neighborhood`]). The `Default` of `0` makes
    /// model building parallel out of the box.
    pub threads: usize,
}

impl NeighborhoodKnobs {
    fn params(&self, measure: Similarity) -> NeighborhoodParams {
        NeighborhoodParams {
            measure,
            max_neighbors: self.max_neighbors,
            min_abs_sim: self.min_abs_sim,
            threads: self.threads,
        }
    }
}

/// A trained recommendation model of any supported algorithm.
#[derive(Debug, Clone)]
pub enum RecModel {
    /// Item neighborhood model (ItemCosCF / ItemPearCF).
    Item(ItemCfModel),
    /// User neighborhood model (UserCosCF / UserPearCF).
    User(UserCfModel),
    /// Factor model (SVD).
    Factors(SvdModel),
    /// Non-personalized popularity model.
    Popular(PopularityModel),
}

impl RecModel {
    /// Train the model for `algorithm` on a ratings snapshot
    /// ("Recommender Initialization", §III-A), under `guard`: it is
    /// checked per SVD epoch and per similarity chunk, and the build's
    /// fault-injection sites (`algo::svd_epoch`, `algo::neighborhood_build`)
    /// are live, so a deadline or injected fault aborts the build instead
    /// of wedging it. A build with no limits passes
    /// [`QueryGuard::unlimited`].
    pub fn train(
        algorithm: Algorithm,
        matrix: RatingsMatrix,
        config: &TrainConfig,
        guard: &QueryGuard,
    ) -> Result<Self, TrainError> {
        Ok(match algorithm {
            Algorithm::ItemCosCF => RecModel::Item(ItemCfModel::train(
                matrix,
                config.neighborhood.params(Similarity::Cosine),
                guard,
            )?),
            Algorithm::ItemPearCF => RecModel::Item(ItemCfModel::train(
                matrix,
                config.neighborhood.params(Similarity::Pearson),
                guard,
            )?),
            Algorithm::UserCosCF => RecModel::User(UserCfModel::train(
                matrix,
                config.neighborhood.params(Similarity::Cosine),
                guard,
            )?),
            Algorithm::UserPearCF => RecModel::User(UserCfModel::train(
                matrix,
                config.neighborhood.params(Similarity::Pearson),
                guard,
            )?),
            Algorithm::Svd => RecModel::Factors(SvdModel::train(matrix, config.svd, guard)?),
            Algorithm::Popularity => {
                // A single cheap aggregation pass: one check suffices.
                guard.check()?;
                RecModel::Popular(PopularityModel::train(matrix))
            }
        })
    }

    /// The ratings snapshot the model was trained on.
    pub fn matrix(&self) -> &RatingsMatrix {
        match self {
            RecModel::Item(m) => m.matrix(),
            RecModel::User(m) => m.matrix(),
            RecModel::Factors(m) => m.matrix(),
            RecModel::Popular(m) => m.matrix(),
        }
    }

    /// Number of ratings the model was built from (for the N% rule).
    pub fn trained_on(&self) -> usize {
        match self {
            RecModel::Item(m) => m.trained_on(),
            RecModel::User(m) => m.trained_on(),
            RecModel::Factors(m) => m.trained_on(),
            RecModel::Popular(m) => m.trained_on(),
        }
    }

    /// Algorithm 1 over a candidate list: append one entry per item of
    /// `items` to `out`, `None` when `u` rated the item and otherwise the
    /// model's candidate-list kernel's prediction, with no signal becoming
    /// `no_signal`.
    fn rule_items_into(
        &self,
        u: usize,
        items: &[usize],
        scratch: &mut ScoreScratch,
        out: &mut Vec<Option<f64>>,
        no_signal: Option<f64>,
    ) {
        let start = out.len();
        match self {
            RecModel::Item(m) => m.predict_items_into(u, items, scratch, out),
            RecModel::User(m) => m.predict_items_into(u, items, scratch, out),
            RecModel::Factors(m) => m.predict_items_into(u, items, out),
            RecModel::Popular(m) => m.predict_items_into(items, out),
        }
        let matrix = self.matrix();
        for (entry, &i) in out[start..].iter_mut().zip(items) {
            *entry = if matrix.rating_at(u, i).is_some() {
                None
            } else {
                entry.or(no_signal)
            };
        }
    }

    /// The recommendation score of each item of `items` for dense user
    /// `u` (Algorithm 1), appended to `out` in list order: `None` when `u`
    /// already rated the item — the pair is not a recommendation —
    /// otherwise the prediction, with no signal scoring 0 (line 14).
    /// Duplicates are scored once per occurrence. Every entry is
    /// bit-identical to what [`score_unseen_into`](Self::score_unseen_into)
    /// emits for that item; the cost is one pass over the user's side of
    /// the model plus the candidates' own lists (see [`crate::itemcf`] /
    /// [`crate::usercf`]), not a whole-domain pass.
    pub fn score_items_into(
        &self,
        u: usize,
        items: &[usize],
        scratch: &mut ScoreScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        self.rule_items_into(u, items, scratch, out, Some(0.0));
    }

    /// [`score_items_into`](Self::score_items_into) with no signal left as
    /// `None`: the predicted rating of each listed item, `None` when the
    /// user rated it or the model has no signal for the pair — what the
    /// evaluation harness measures.
    pub fn predict_items_into(
        &self,
        u: usize,
        items: &[usize],
        scratch: &mut ScoreScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        self.rule_items_into(u, items, scratch, out, None);
    }

    /// Predicted rating of dense item `i` for dense user `u`: `None` when
    /// the user already rated the item or the model has no signal for the
    /// pair. A one-item [`predict_items_into`](Self::predict_items_into).
    pub fn predict_indexed(&self, u: usize, i: usize) -> Option<f64> {
        let mut out = Vec::with_capacity(1);
        self.predict_items_into(u, &[i], &mut ScoreScratch::default(), &mut out);
        out[0]
    }

    /// [`predict_indexed`](Self::predict_indexed) for external ids; ids
    /// the model does not know predict `None`.
    pub fn predict(&self, user: i64, item: i64) -> Option<f64> {
        let matrix = self.matrix();
        self.predict_indexed(matrix.user_idx(user)?, matrix.item_idx(item)?)
    }

    /// The recommendation score of one pair: a one-item
    /// [`score_items_into`](Self::score_items_into) (`None` = rated; no
    /// signal = `Some(0.0)`). For callers that really have one pair —
    /// OnTopDB's per-pair export; an operator with several candidates for
    /// a user makes one list call.
    pub fn unseen_score(&self, u: usize, i: usize) -> Option<f64> {
        let mut out = Vec::with_capacity(1);
        self.score_items_into(u, &[i], &mut ScoreScratch::default(), &mut out);
        out[0]
    }

    /// The dense score row of dense user `u`: a score for every item of
    /// the domain, indexed by item, rated items included (see
    /// [`ScoreScratch`]). The neighborhood arms scatter into `scratch` and
    /// divide (see [`crate::itemcf`] / [`crate::usercf`]), the SVD arm
    /// runs blocked dot-product kernels into it, and Popularity lends its
    /// per-item table.
    fn score_row<'s>(&'s self, u: usize, scratch: &'s mut ScoreScratch) -> &'s [f64] {
        match self {
            RecModel::Item(m) => m.score_row(u, scratch),
            RecModel::User(m) => m.score_row(u, scratch),
            RecModel::Factors(m) => m.score_row(u, scratch),
            RecModel::Popular(m) => m.item_scores(),
        }
    }

    /// Score every item dense user `u` has **not** rated in one
    /// user-at-a-time pass, appending `(item_idx, score)` in ascending
    /// item order — what the streaming `RECOMMEND` operator and the score
    /// materializer run per user: the dense score row, read once with the
    /// user's rated items skipped. Every entry is bit-identical to
    /// [`score_items_into`](Self::score_items_into) for that item.
    pub fn score_unseen_into(
        &self,
        u: usize,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        let row = self.score_row(u, scratch);
        for run in self.matrix().unseen_runs(u) {
            out.extend(run.clone().zip(&row[run]).map(|(i, &s)| (i, s)));
        }
    }

    /// The `k` best unseen items of dense user `u` whose score lies in
    /// `[min, max]` (`None` = unbounded; a bound is tested with `>=` /
    /// `<=`, so a NaN score passes only when there is no bound), appended
    /// to `out` best first in [`serving_order`] — exactly
    /// [`score_unseen_into`](Self::score_unseen_into), then the bounds,
    /// then a stable sort in the serving order, then truncation to `k`.
    ///
    /// One walk over the dense score row in descending item id order
    /// ([`RatingsMatrix::items_by_id_desc`]): once `k` are held, a
    /// candidate whose score is not above the `k`-th kept one under
    /// [`f64::total_cmp`] is rejected with that one comparison — a tie
    /// arrives after every kept item and has the smaller id, so it loses,
    /// and the total order places NaN and signed zeros exactly. Rated
    /// items are skipped; the rest take the exact path, a bounded
    /// selection in the serving order. No `(item, score)` pair is built
    /// for the rejected tail.
    pub fn top_k_unseen_into(
        &self,
        u: usize,
        k: usize,
        min: Option<f64>,
        max: Option<f64>,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        if k == 0 {
            return;
        }
        let row = self.score_row(u, scratch);
        select_top_k(row, self.matrix(), u, k, (min, max), out);
    }

    /// The `k` best unseen items for dense user `u` in recommendation rank
    /// order (the `RECOMMEND ... ORDER BY score DESC LIMIT k` answer): an
    /// unbounded [`top_k_unseen_into`](Self::top_k_unseen_into).
    pub fn top_k_unseen(&self, u: usize, k: usize) -> Vec<(usize, f64)> {
        let mut top = Vec::new();
        self.top_k_unseen_into(u, k, None, None, &mut ScoreScratch::default(), &mut top);
        top
    }

    /// The `k` best of one user's `(item_idx, score)` pairs, best first, in
    /// [`serving_order`] keyed by item id — for a scored candidate list
    /// (a pushed-down `iPred`); a whole domain goes through
    /// [`top_k_unseen_into`](Self::top_k_unseen_into).
    pub fn rank_top_k(
        &self,
        scored: impl IntoIterator<Item = (usize, f64)>,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let ids = self.matrix().item_ids();
        top_k_by(scored, k, |a, b| {
            serving_order((a.1, ids[a.0]), (b.1, ids[b.0]))
        })
    }
}

/// The walk of [`RecModel::top_k_unseen_into`]: the `k` best items of
/// `row` (one score per item of `matrix`) that user `u` has not rated and
/// whose score lies in `bounds`, appended to `out` in [`serving_order`].
fn select_top_k(
    row: &[f64],
    matrix: &RatingsMatrix,
    u: usize,
    k: usize,
    (min, max): (Option<f64>, Option<f64>),
    out: &mut Vec<(usize, f64)>,
) {
    let ids = matrix.item_ids();
    // One bit per item: set for the items `u` rated.
    let mut rated = vec![0u64; row.len().div_ceil(64)];
    for &l in matrix.user_csr().row(u).0 {
        rated[l as usize / 64] |= 1 << (l % 64);
    }
    let mut top = TopK::new(k, |a: &(usize, f64), b: &(usize, f64)| {
        serving_order((a.1, ids[a.0]), (b.1, ids[b.0]))
    });
    // The `k`-th kept score, once `k` are held. The walk goes by item id
    // descending, so a later candidate that ties it has the smaller id and
    // loses: rejecting every score that is not above it under `total_cmp`
    // is exact, NaNs and signed zeros included.
    let mut floor: Option<f64> = None;
    for &i in matrix.items_by_id_desc() {
        let (i, s) = (i as usize, row[i as usize]);
        if floor.is_some_and(|kth| s.total_cmp(&kth).is_le())
            || rated[i / 64] >> (i % 64) & 1 == 1
            || !in_bounds(s, min, max)
        {
            continue;
        }
        top.push((i, s));
        floor = top.floor().map(|&(_, kth)| kth);
    }
    out.extend(top.into_sorted_vec());
}

/// Whether `score` lies in `[min, max]` (`None` = unbounded), tested with
/// `>=` / `<=`: a NaN score fails any bound.
#[inline]
pub fn in_bounds(score: f64, min: Option<f64>, max: Option<f64>) -> bool {
    min.is_none_or(|m| score >= m) && max.is_none_or(|m| score <= m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_reference::merge_eq2;
    use crate::ratings::Rating;

    fn matrix() -> RatingsMatrix {
        RatingsMatrix::from_ratings(vec![
            Rating::new(1, 1, 1.5),
            Rating::new(2, 2, 3.5),
            Rating::new(2, 1, 4.5),
            Rating::new(2, 3, 2.0),
            Rating::new(3, 2, 1.0),
            Rating::new(3, 1, 2.0),
            Rating::new(4, 2, 1.0),
        ])
    }

    #[test]
    fn parse_all_algorithm_names() {
        for algo in Algorithm::ALL {
            let parsed: Algorithm = algo.name().parse().unwrap();
            assert_eq!(parsed, algo);
            // Case-insensitive, like SQL keywords.
            let parsed: Algorithm = algo.name().to_uppercase().parse().unwrap();
            assert_eq!(parsed, algo);
        }
        assert!("TensorFact".parse::<Algorithm>().is_err());
    }

    #[test]
    fn every_algorithm_trains_and_scores() {
        let config = TrainConfig {
            svd: SvdParams {
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        for algo in Algorithm::ALL {
            let model = RecModel::train(algo, matrix(), &config, &QueryGuard::unlimited()).unwrap();
            assert_eq!(model.trained_on(), 7, "{algo}");
            // A rated pair and ids the model never saw predict nothing.
            assert_eq!(model.predict(2, 1), None, "{algo}");
            assert_eq!(model.predict(99, 1), None, "{algo}");
            assert_eq!(model.predict(1, 99), None, "{algo}");
            // Predictions are finite for all pairs.
            for u in 1..=4 {
                for i in 1..=3 {
                    let p = model.predict(u, i);
                    assert!(p.is_none_or(f64::is_finite), "{algo} ({u},{i}) {p:?}");
                }
            }
        }
    }

    #[test]
    fn indexed_paths_match_id_paths_for_every_algorithm() {
        let config = TrainConfig {
            svd: SvdParams {
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        for algo in Algorithm::ALL {
            let m = matrix();
            let model =
                RecModel::train(algo, m.clone(), &config, &QueryGuard::unlimited()).unwrap();
            for &user in m.user_ids() {
                let u = m.user_idx(user).unwrap();
                for &item in m.item_ids() {
                    let i = m.item_idx(item).unwrap();
                    assert_eq!(
                        model.predict(user, item),
                        model.predict_indexed(u, i),
                        "{algo}"
                    );
                }
            }
        }
    }

    /// Figure 1 plus a denser seeded world whose shape forces the edge
    /// cases of the user-at-a-time pass: anti-correlated raters (negative
    /// Pearson sims), an item only one user rated (no co-raters under
    /// Pearson, so empty forward *and* reverse lists), and single-rating
    /// users. (Every user a `RatingsMatrix` knows has at least one rating;
    /// "no signal at all" is a user whose only item has no neighbors.)
    fn parity_worlds() -> Vec<RatingsMatrix> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut ratings = Vec::new();
        for u in 0..40 {
            for i in 0..30 {
                if next() % 100 < 30 {
                    // Even users like low item ids, odd users high ones.
                    let liked = (i < 15) == (u % 2 == 0);
                    let base = if liked { 3.5 } else { 1.0 };
                    ratings.push(Rating::new(u, i, base + (next() % 4) as f64 * 0.5));
                }
            }
        }
        ratings.push(Rating::new(100, 900, 4.0)); // isolated user and item
        ratings.push(Rating::new(101, 3, 2.5)); // single-rating user
        vec![matrix(), RatingsMatrix::from_ratings(ratings)]
    }

    /// The raw prediction the per-pair path made before the candidate-list
    /// kernel (`None` = no signal): the merge-intersect for the CF models,
    /// the point formulas for SVD and Popularity.
    fn merge_reference(model: &RecModel, u: usize, i: usize) -> Option<f64> {
        let m = model.matrix();
        match model {
            RecModel::Item(item) => {
                merge_eq2(m.user_csr().row(u), item.neighborhood().neighbors(i))
            }
            RecModel::User(user) => {
                merge_eq2(m.item_csr().row(i), user.neighborhood().neighbors(u))
            }
            RecModel::Factors(svd) => Some(f64::from(crate::kernels::dot(
                svd.user_vector(u),
                svd.item_vector(i),
            ))),
            RecModel::Popular(p) => {
                let mut out = Vec::new();
                p.predict_items_into(&[i], &mut out);
                out[0]
            }
        }
    }

    #[test]
    fn both_kernels_match_the_merge_reference_for_every_algorithm() {
        let bits = |s: Option<f64>| s.map(f64::to_bits);
        let mut scratch = ScoreScratch::default();
        let mut negative_sims = false;
        let mut empty_reverse = false;
        let mut no_signal = false;
        let knobs: Vec<(Option<usize>, f64)> = [None, Some(1), Some(8), Some(64)]
            .into_iter()
            .flat_map(|k| [(k, 0.0), (k, 0.2)])
            .collect();
        for m in parity_worlds() {
            // Every item, backwards, then every other item again: list
            // order is not index order, and half the list repeats.
            let items: Vec<usize> = (0..m.n_items())
                .rev()
                .chain((0..m.n_items()).step_by(2))
                .collect();
            for algo in Algorithm::ALL {
                // The neighborhood knobs do not apply to SVD and Popularity.
                let knobs = if algo.is_neighborhood() {
                    &knobs[..]
                } else {
                    &knobs[..1]
                };
                for &(max_neighbors, min_abs_sim) in knobs {
                    let config = TrainConfig {
                        neighborhood: NeighborhoodKnobs {
                            max_neighbors,
                            min_abs_sim,
                            threads: 1,
                        },
                        svd: SvdParams {
                            epochs: 5,
                            ..Default::default()
                        },
                    };
                    let model = RecModel::train(algo, m.clone(), &config, &QueryGuard::unlimited())
                        .unwrap();
                    if let RecModel::Item(item) = &model {
                        let t = item.neighborhood();
                        negative_sims |= t.forward().iter().any(|(_, _, s)| s < 0.0);
                        empty_reverse |= (0..t.len()).any(|i| t.reverse(i).0.is_empty());
                    }
                    let (mut batch, mut listed) = (Vec::new(), Vec::new());
                    for u in 0..m.n_users() {
                        let case =
                            format!("{algo} k {max_neighbors:?} floor {min_abs_sim} user {u}");
                        let rated = |i: usize| m.rating_at(u, i).is_some();
                        // Algorithm 1 over the reference, item by item.
                        let want: Vec<Option<f64>> = (0..m.n_items())
                            .map(|i| {
                                (!rated(i)).then(|| merge_reference(&model, u, i).unwrap_or(0.0))
                            })
                            .collect();

                        batch.clear();
                        model.score_unseen_into(u, &mut scratch, &mut batch);
                        let got: Vec<(usize, u64)> =
                            batch.iter().map(|&(i, s)| (i, s.to_bits())).collect();
                        let expected: Vec<(usize, u64)> = (0..m.n_items())
                            .filter_map(|i| Some((i, want[i]?.to_bits())))
                            .collect();
                        assert_eq!(got, expected, "whole domain, {case}");

                        listed.clear();
                        model.score_items_into(u, &items, &mut scratch, &mut listed);
                        let got: Vec<Option<u64>> = listed.iter().map(|&s| bits(s)).collect();
                        let expected: Vec<Option<u64>> =
                            items.iter().map(|&i| bits(want[i])).collect();
                        assert_eq!(got, expected, "candidate list, {case}");

                        for (i, &score) in want.iter().enumerate() {
                            assert_eq!(bits(model.unseen_score(u, i)), bits(score), "{case}");
                            let predicted = (!rated(i)).then(|| merge_reference(&model, u, i));
                            assert_eq!(
                                bits(model.predict_indexed(u, i)),
                                bits(predicted.flatten()),
                                "{case}"
                            );
                            no_signal |= predicted == Some(None);
                        }
                    }
                }
            }
        }
        assert!(negative_sims, "the sweep must cover negative similarities");
        assert!(empty_reverse, "the sweep must cover empty reverse lists");
        assert!(no_signal, "the sweep must cover unrated pairs that score 0");
    }

    #[test]
    fn top_k_unseen_ranks_by_score_then_item_id_descending() {
        let model = RecModel::train(
            Algorithm::Popularity,
            matrix(),
            &TrainConfig::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        // User 1 rated only item 1 → items 2 and 3 are candidates.
        let u = model.matrix().user_idx(1).unwrap();
        let top = model.top_k_unseen(u, 10);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1, "descending scores");
        let one = model.top_k_unseen(u, 1);
        assert_eq!(one[0], top[0]);
        assert!(model.top_k_unseen(u, 0).is_empty());

        // Ties go to the larger item *id*, not the larger dense index: ids
        // 30, 10, 20 are interned in that order (indexes 0, 1, 2), so index
        // order and id order disagree.
        let m = RatingsMatrix::from_ratings(vec![
            Rating::new(1, 30, 3.0),
            Rating::new(1, 10, 3.0),
            Rating::new(1, 20, 3.0),
            Rating::new(2, 30, 3.0),
        ]);
        let model = RecModel::train(
            Algorithm::Popularity,
            m,
            &TrainConfig::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let ids = |ranked: Vec<(usize, f64)>| -> Vec<i64> {
            ranked
                .iter()
                .map(|&(i, _)| model.matrix().item_id(i))
                .collect()
        };
        let tied = [(0, 1.0), (1, 1.0), (2, 1.0), (1, 2.0), (0, -0.0), (2, 0.0)];
        assert_eq!(ids(model.rank_top_k(tied, 6)), vec![10, 30, 20, 10, 20, 30]);
        assert_eq!(ids(model.rank_top_k(tied, 2)), vec![10, 30]);
        // User 2 has items 10 and 20 left, both rated once at 3.0.
        let u = model.matrix().user_idx(2).unwrap();
        assert_eq!(ids(model.top_k_unseen(u, 1)), vec![20]);
    }

    /// The walk on hand-made rows the models cannot produce: both signed
    /// zeros, NaNs of both signs (`total_cmp` ranks a positive NaN above
    /// `+∞` and a negative one below `-∞`), and runs of equal scores whose
    /// item ids disagree with their dense indexes — against the bounded,
    /// stably sorted, truncated definition.
    #[test]
    fn select_top_k_orders_signed_zeros_nans_and_ties_exactly() {
        // Ids interned in a scrambled order; user 1 rates ids 12 and 64,
        // dense indexes 3 and 8 (the 9.0s of the first row).
        let item_ids = [40, 7, 93, 12, 55, 3, 71, 28, 64, 19, 86, 35];
        let mut ratings: Vec<Rating> = item_ids.iter().map(|&i| Rating::new(2, i, 1.0)).collect();
        ratings.push(Rating::new(1, 12, 1.0));
        ratings.push(Rating::new(1, 64, 1.0));
        let m = RatingsMatrix::from_ratings(ratings);
        let u = m.user_idx(1).unwrap();
        let neg_nan = -f64::NAN;
        let rows = [
            [
                0.0, -0.0, 0.0, 9.0, -0.0, 0.0, -0.0, 0.0, 9.0, -0.0, 0.0, -0.0,
            ],
            [
                1.0,
                f64::NAN,
                neg_nan,
                1.0,
                f64::INFINITY,
                1.0,
                neg_nan,
                -0.0,
                1.0,
                f64::NAN,
                0.0,
                1.0,
            ],
            [2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5],
        ];
        let bounds = [
            (None, None),
            (Some(0.0), None),
            (None, Some(-0.0)),
            (Some(1.0), Some(f64::INFINITY)),
        ];
        for row in rows {
            for (min, max) in bounds {
                for k in [1, 2, 3, 5, 20] {
                    let mut want: Vec<(usize, f64)> = (0..row.len())
                        .filter(|&i| m.rating_at(u, i).is_none())
                        .map(|i| (i, row[i]))
                        .filter(|&(_, s)| in_bounds(s, min, max))
                        .collect();
                    want.sort_by(|a, b| {
                        b.1.total_cmp(&a.1)
                            .then(m.item_id(b.0).cmp(&m.item_id(a.0)))
                    });
                    want.truncate(k);
                    let mut got = Vec::new();
                    select_top_k(&row, &m, u, k, (min, max), &mut got);
                    let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{row:?} k {k} bounds {min:?} {max:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighborhood_flag() {
        assert!(Algorithm::ItemCosCF.is_neighborhood());
        assert!(Algorithm::UserPearCF.is_neighborhood());
        assert!(!Algorithm::Svd.is_neighborhood());
        assert!(!Algorithm::Popularity.is_neighborhood());
    }

    #[test]
    fn display_matches_sql_name() {
        assert_eq!(Algorithm::Svd.to_string(), "SVD");
        assert_eq!(Algorithm::ItemCosCF.to_string(), "ItemCosCF");
    }
}
