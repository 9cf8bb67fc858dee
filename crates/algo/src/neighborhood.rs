//! Neighborhood model construction (the paper's "Step I: Recommendation
//! Model Building").
//!
//! For item–item CF the model is the *Item Neighborhood Table*: for every
//! item, the list of `(neighbor item, SimScore)` pairs (paper §IV-A1). For
//! user–user CF it is the symmetric *User Neighborhood Table*. Both come
//! from one row-at-a-time sparse product (Gustavson's `AᵀA`) over the two
//! CSR views of [`RatingsMatrix`] ([`Csr`]): for entity
//! `a`, walk its row (its raters `u`, ascending) and for each `u` walk
//! `u`'s row in the *other* view, adding the term into a dense slot per
//! partner `b`. Only pairs that share a rater are visited — `Σᵤ nᵤ²`
//! multiply-adds, never more than all-pairs merging — and a worker's
//! transient state is `O(n)`, not `O(pairs)`. A pair's slot receives the
//! terms a merge-intersect of the two vectors
//! ([`crate::similarity::co_rated_sums`], the point API and test oracle)
//! would, in the same ascending order, and both measures are symmetric
//! in `(a, b)`, so rows `a` and `b` agree on `sim(a, b)` to the bit.
//!
//! # The slot and the partner rule
//!
//! A slot holds what its measure needs and no more. Pearson needs all six
//! [`CoRatedSums`] (48 bytes). Cosine needs `[Σxy, Σx², Σy²]` (24 bytes):
//! it is undefined exactly when `Σx² · Σy² == 0`, which a slot no term
//! reached meets, so it needs no count. `x²` is computed once per rater,
//! not once per term.
//!
//! Row `a`'s term count `T(a) = Σ_{u ∈ raters(a)} |row(u)|` is known from
//! the row pointers before the row starts, and it decides how the row
//! finds its partners. With `T(a) ≥ n` the inner loop only adds — no
//! presence test — and the row then scans all `n` slots once, scoring and
//! resetting each. With `T(a) < n` each term asks whether its slot is
//! still untouched and, the first time, notes the partner in a list that
//! the row then drains, so a sparse row costs its terms and not `n`.
//! Either way a row costs `O(T(a) + |row(a)|)` beyond the scan's `n ≤
//! T(a)`, and the whole build `O(Σᵤ nᵤ² + n)`. MovieLens-shaped worlds
//! scan every row; on LDOS-CoMoDa 596 of 612 item rows keep the list
//! (`crates/bench/tests/golden_tables.rs` pins both to the bit).
//!
//! [`NeighborhoodParams::max_neighbors`] optionally truncates each list to
//! the strongest `k` neighbors (by `|sim|`), the standard space/accuracy
//! knob; the paper keeps full lists, so the default is no truncation. A
//! row is truncated as it is finished, so a build holds at most `n · k`
//! list entries plus one row's candidates per worker.
//!
//! # Parallel building & determinism
//!
//! Rows are independent, so the build fans them out with
//! [`crate::parallel::for_each_chunk`]; [`NeighborhoodParams::threads`]
//! controls the worker count (default `0` = all cores). The output is
//! **bit-identical** for every thread count, including the serial build,
//! because each row is computed whole by one worker from the read-only
//! CSR views: its sums, its truncation under a *total* order (`|sim|`
//! descending, then neighbor index ascending) and its final sort by
//! neighbor index depend on nothing another worker does. Scheduling only
//! decides *who* computes a row; the counting sort of
//! [`Csr::from_triples`] places finished rows by index.
//!
//! # Forward and reverse lists
//!
//! The table is two [`Csr`]s with `f64` sims, 12 B per pair each. Eq. 2
//! for *one* candidate `i` reads the forward list `N(i)`. Scoring *every*
//! candidate of one user instead walks the table the other way: for each
//! item `l` the user rated, which candidates `i` list `l` as a neighbor?
//! That is the transpose `rev(l) = {(i, sim(i, l)) : l ∈ N(i)}`
//! ([`NeighborhoodTable::reverse`]). Untruncated tables are symmetric,
//! truncated ones are not, so the transpose is always built explicitly —
//! by [`Csr::transpose`] over the *canonical* forward lists, after
//! truncation and the final sort, which makes it a pure function of them
//! and therefore identical at every `threads` too. [`crate::itemcf`]
//! describes the scoring pass that consumes it.

use crate::csr::Csr;
use crate::model::TrainError;
use crate::parallel::{effective_threads, for_each_chunk};
use crate::ratings::RatingsMatrix;
use crate::similarity::{CoRatedSums, Similarity};
use recdb_guard::QueryGuard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Tuning knobs for neighborhood model building.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodParams {
    /// Similarity measure (cosine or Pearson).
    pub measure: Similarity,
    /// Keep at most this many neighbors per entity (by absolute strength);
    /// `None` keeps every neighbor with a defined similarity.
    pub max_neighbors: Option<usize>,
    /// Drop neighbors whose |sim| is at or below this floor (default 0:
    /// zero-similarity neighbors carry no signal in Eq. 2).
    pub min_abs_sim: f64,
    /// Worker threads for the pairwise build: `0` (the default) uses all
    /// available cores, `1` forces the serial path. Every setting produces
    /// a bit-identical table (see the module docs).
    pub threads: usize,
}

impl Default for NeighborhoodParams {
    fn default() -> Self {
        NeighborhoodParams {
            measure: Similarity::Cosine,
            max_neighbors: None,
            min_abs_sim: 0.0,
            threads: 0,
        }
    }
}

impl NeighborhoodParams {
    /// Cosine with default knobs.
    pub fn cosine() -> Self {
        NeighborhoodParams::default()
    }

    /// Pearson with default knobs.
    pub fn pearson() -> Self {
        NeighborhoodParams {
            measure: Similarity::Pearson,
            ..Default::default()
        }
    }
}

/// A similarity-list table over `n` entities: row `e` of `forward` holds
/// `e`'s `(neighbor_idx, sim)` pairs sorted by neighbor index (for merge
/// joins), and `reverse` is its transpose (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborhoodTable {
    forward: Csr<f64>,
    reverse: Csr<f64>,
}

impl NeighborhoodTable {
    /// The table whose forward lists are the rows of the square matrix
    /// `forward`; the reverse lists are its transpose.
    pub fn from_forward(forward: Csr<f64>) -> Self {
        let reverse = forward.transpose(forward.n_rows());
        NeighborhoodTable { forward, reverse }
    }

    /// The forward lists as one matrix: row `e` is `N(e)`.
    pub fn forward(&self) -> &Csr<f64> {
        &self.forward
    }

    /// Neighbor list of entity `idx` as parallel `(neighbor indexes,
    /// sims)` slices, ascending in neighbor index.
    pub fn neighbors(&self, idx: usize) -> (&[u32], &[f64]) {
        self.forward.row(idx)
    }

    /// The entities that list `idx` as a neighbor, as parallel
    /// `(entity indexes, sims)` slices ascending in entity index:
    /// `sims[j] == sim(entities[j], idx)`.
    pub fn reverse(&self, idx: usize) -> (&[u32], &[f64]) {
        self.reverse.row(idx)
    }

    /// Heap bytes of the reverse adjacency (what the user-at-a-time pass
    /// costs on top of the forward lists).
    pub fn reverse_bytes(&self) -> usize {
        self.reverse.heap_bytes()
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.forward.n_rows()
    }

    /// True when the table covers no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored `(entity, neighbor)` pairs.
    pub fn total_pairs(&self) -> usize {
        self.forward.nnz()
    }

    /// Similarity between `a` and `b` if `b` is in `a`'s list.
    pub fn sim(&self, a: usize, b: usize) -> Option<f64> {
        self.forward.get(a, b)
    }
}

/// Reusable state of the two scoring kernels, one per scoring thread;
/// holding it across calls saves re-allocating a dense row per user.
///
/// * **Whole domain**: each model family fills one **dense score row**,
///   a score for every item of the domain, rated ones included — ItemCF
///   and UserCF scatter Eq. 2's `(Σ sim·r, Σ |sim|)` into per-candidate
///   accumulators and divide them in one branch-free pass, SVD widens its
///   [`crate::kernels::score_block`] chunks into it, and Popularity lends
///   its per-item table instead. Two consumers on [`crate::RecModel`]
///   read the row once, skipping the user's rated items:
///   [`score_unseen_into`](crate::RecModel::score_unseen_into) emits every
///   unseen item (materialization, the streaming `RECOMMEND`), and
///   [`top_k_unseen_into`](crate::RecModel::top_k_unseen_into) keeps only
///   the best `k` (`ORDER BY score DESC LIMIT k`).
/// * **Candidate list** ([`crate::RecModel::score_items_into`]): one side
///   of Eq. 2 marked in a dense row — the user's ratings by item (ItemCF)
///   or `sim(u, v)` by neighbor `v` (UserCF) — that each candidate's list
///   is gathered from. A slot is present when its stamp is the current
///   call's, never by a sentinel value (ratings are not checked to be
///   finite), so a call forgets the previous one without touching the
///   row, and one scratch serves models of any size.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    acc: Vec<[f64; 2]>,
    /// The dense score row of the last whole-domain pass.
    row: Vec<f64>,
    /// `(value, stamp)` per entity.
    marks: Vec<(f64, u32)>,
    /// The current call's stamp; slots start at 0, calls at 1.
    stamp: u32,
}

impl ScoreScratch {
    /// Zeroed accumulators for `n` candidates.
    pub(crate) fn reset(&mut self, n: usize) -> &mut [[f64; 2]] {
        self.acc.clear();
        self.acc.resize(n, [0.0; 2]);
        &mut self.acc
    }

    /// The score row, resized to `n` items; its contents are the caller's
    /// to overwrite.
    pub(crate) fn row(&mut self, n: usize) -> &mut [f64] {
        self.row.resize(n, 0.0);
        &mut self.row
    }

    /// Fill the score row with `num / den` of each accumulator; a
    /// candidate that received no term scores 0 (Algorithm 1 line 14).
    /// The quotient is taken for every slot and the zero chosen by a
    /// select, not a branch, so the pass has no data-dependent jump.
    pub(crate) fn quotients(&mut self) -> &[f64] {
        self.row.clear();
        self.row.extend(self.acc.iter().map(|&[num, den]| {
            let q = num / den;
            if den == 0.0 {
                0.0
            } else {
                q
            }
        }));
        &self.row
    }

    /// Forget the previous call's marks and mark `entries` in a row over
    /// `n` entities.
    pub(crate) fn mark(
        &mut self,
        n: usize,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) -> Marked<'_> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old slots may carry any stamp, so start over.
            self.marks.clear();
            self.stamp = 1;
        }
        if self.marks.len() < n {
            self.marks.resize(n, (0.0, 0));
        }
        for (e, value) in entries {
            self.marks[e] = (value, self.stamp);
        }
        Marked {
            slots: &self.marks,
            stamp: self.stamp,
        }
    }
}

/// The row [`ScoreScratch::mark`] filled.
pub(crate) struct Marked<'a> {
    slots: &'a [(f64, u32)],
    stamp: u32,
}

impl Marked<'_> {
    /// The value marked for entity `e` in this call, if any.
    #[inline]
    pub(crate) fn get(&self, e: usize) -> Option<f64> {
        let (value, stamp) = self.slots[e];
        (stamp == self.stamp).then_some(value)
    }
}

/// Build the item–item neighborhood table from the ratings matrix.
///
/// Items are compared in the *user-rating space*: item vectors are the
/// columns of the ratings matrix (paper §II Step I). Governed: `guard`
/// and the `algo::neighborhood_build` fault site are checked once per
/// work chunk, so a cancellation or fault stops the build within one
/// chunk.
pub fn build_item_neighborhood(
    m: &RatingsMatrix,
    params: &NeighborhoodParams,
    guard: &QueryGuard,
) -> Result<NeighborhoodTable, TrainError> {
    build_pairwise(m.item_csr(), m.user_csr(), params, guard)
}

/// Build the user–user neighborhood table (rows of the matrix), governed
/// as [`build_item_neighborhood`] is.
pub fn build_user_neighborhood(
    m: &RatingsMatrix,
    params: &NeighborhoodParams,
    guard: &QueryGuard,
) -> Result<NeighborhoodTable, TrainError> {
    build_pairwise(m.user_csr(), m.item_csr(), params, guard)
}

/// One partner's running sums in a row of the product: what a measure
/// needs and no more.
trait Slot: Copy + Default + Send {
    /// Add one co-rated term `(x, y)`; `xx` is `x·x`, computed once per
    /// rater rather than once per term.
    fn add(&mut self, x: f64, xx: f64, y: f64);
    /// True for a slot no term has reached. It may also be true for one
    /// whose terms so far summed to nothing; listing such a partner twice
    /// is harmless, because the second visit finds the slot reset and
    /// scores `None`.
    fn looks_untouched(&self) -> bool;
    /// The similarity the sums define, if any; `None` for an untouched
    /// slot.
    fn score(&self) -> Option<f64>;
}

/// Cosine's slot: `[Σxy, Σx², Σy²]`, 24 bytes, half of [`CoRatedSums`].
/// It needs no count (see [`crate::similarity`]'s `cosine`).
#[derive(Debug, Default, Clone, Copy)]
struct CosineSums([f64; 3]);

impl Slot for CosineSums {
    #[inline]
    fn add(&mut self, x: f64, xx: f64, y: f64) {
        let [dot, sq_a, sq_b] = &mut self.0;
        *dot += x * y;
        *sq_a += xx;
        *sq_b += y * y;
    }

    #[inline]
    fn looks_untouched(&self) -> bool {
        self.0[2] == 0.0
    }

    fn score(&self) -> Option<f64> {
        let [dot, sq_a, sq_b] = self.0;
        crate::similarity::cosine(dot, sq_a, sq_b)
    }
}

/// Pearson's slot: all six sums, the count included.
impl Slot for CoRatedSums {
    #[inline]
    fn add(&mut self, x: f64, xx: f64, y: f64) {
        self.n += 1;
        self.dot += x * y;
        self.sum_a += x;
        self.sum_b += y;
        self.sq_a += xx;
        self.sq_b += y * y;
    }

    #[inline]
    fn looks_untouched(&self) -> bool {
        self.n == 0
    }

    fn score(&self) -> Option<f64> {
        self.pearson()
    }
}

/// One worker's state for the row product, reused for every row it
/// computes.
struct RowWorker<S> {
    /// One slot per possible partner; all-default between rows.
    acc: Vec<S>,
    /// Partners whose slot the current row wrote to (rows that scan keep
    /// it empty).
    touched: Vec<u32>,
    /// The current row's scored neighbors, before truncation.
    candidates: Vec<(u32, f64)>,
    /// Finished rows as `(entity, neighbor, sim)`, each row ascending in
    /// neighbor.
    finished: Vec<(u32, u32, f64)>,
}

impl<S: Slot> RowWorker<S> {
    /// A worker for rows over `n` possible partners.
    fn new(n: usize) -> Self {
        RowWorker {
            acc: vec![S::default(); n],
            touched: Vec::new(),
            candidates: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Append entity `a`'s finished neighbor list to `finished`.
    /// `entities` is the CSR view whose rows are the entities being
    /// compared, `raters` its transpose.
    fn row(
        &mut self,
        a: usize,
        entities: &Csr<f32>,
        raters: &Csr<f32>,
        params: &NeighborhoodParams,
    ) {
        let n = self.acc.len();
        let (a_raters, a_vals) = entities.row(a);
        // The row's term count is known before it starts. With at least as
        // many terms as slots, add without a presence test and scan every
        // slot once afterwards; with fewer, note each partner the first
        // time its slot is reached, so a sparse row costs its terms, not n.
        let terms: usize = a_raters
            .iter()
            .map(|&u| raters.row_range(u as usize).len())
            .sum();
        let scan = terms >= n;
        for (&u, &x) in a_raters.iter().zip(a_vals) {
            let (partners, vals) = raters.row(u as usize);
            let x = f64::from(x);
            let xx = x * x;
            if scan {
                for (&b, &y) in partners.iter().zip(vals) {
                    self.acc[b as usize].add(x, xx, f64::from(y));
                }
            } else {
                for (&b, &y) in partners.iter().zip(vals) {
                    let slot = &mut self.acc[b as usize];
                    if slot.looks_untouched() {
                        self.touched.push(b);
                    }
                    slot.add(x, xx, f64::from(y));
                }
            }
        }
        self.candidates.clear();
        let mut take = |b: u32| {
            let sim = std::mem::take(&mut self.acc[b as usize]).score();
            if let Some(sim) = sim.filter(|s| b as usize != a && s.abs() > params.min_abs_sim) {
                self.candidates.push((b, sim));
            }
        };
        if scan {
            (0..n as u32).for_each(&mut take);
        } else {
            self.touched.drain(..).for_each(take);
        }
        if let Some(k) = params.max_neighbors.filter(|&k| k < self.candidates.len()) {
            // A total order (neighbor indexes are unique), so the kept set
            // does not depend on the order candidates arrived in.
            self.candidates.select_nth_unstable_by(k, |x, y| {
                y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0))
            });
            self.candidates.truncate(k);
        }
        self.candidates.sort_unstable_by_key(|&(nb, _)| nb);
        let a = a as u32;
        self.finished
            .extend(self.candidates.iter().map(|&(nb, sim)| (a, nb, sim)));
    }
}

/// The row product over `entities` (row = one entity's `(rater, value)`
/// entries) and its transpose `raters`, with the slot of the measure; see
/// the module docs.
fn build_pairwise(
    entities: &Csr<f32>,
    raters: &Csr<f32>,
    params: &NeighborhoodParams,
    guard: &QueryGuard,
) -> Result<NeighborhoodTable, TrainError> {
    match params.measure {
        Similarity::Cosine => build_rows::<CosineSums>(entities, raters, params, guard),
        Similarity::Pearson => build_rows::<CoRatedSums>(entities, raters, params, guard),
    }
}

fn build_rows<S: Slot>(
    entities: &Csr<f32>,
    raters: &Csr<f32>,
    params: &NeighborhoodParams,
    guard: &QueryGuard,
) -> Result<NeighborhoodTable, TrainError> {
    let n = entities.n_rows();
    let threads = effective_threads(params.threads);
    // A row costs the summed lengths of its raters' rows, which varies by
    // orders of magnitude; smallish dynamic chunks keep workers balanced
    // at one atomic fetch_add per chunk.
    let chunk = (n / (threads * 8).max(1)).clamp(1, 256);
    // Worker closures cannot return `Err`, so an abort parks the error
    // in a shared slot; the flag makes the remaining chunks no-ops
    // so cancellation latency is one chunk, not the whole build.
    let abort: Mutex<Option<TrainError>> = Mutex::new(None);
    let aborted = AtomicBool::new(false);
    let workers = for_each_chunk(
        n,
        threads,
        chunk,
        || RowWorker::<S>::new(n),
        |worker: &mut RowWorker<S>, range| {
            if aborted.load(Ordering::Relaxed) {
                return;
            }
            let gate = recdb_fault::fail_point("algo::neighborhood_build")
                .map_err(TrainError::from)
                .and_then(|()| guard.check().map_err(TrainError::from));
            if let Err(e) = gate {
                aborted.store(true, Ordering::Relaxed);
                let mut slot = abort.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(e);
                return;
            }
            for a in range {
                worker.row(a, entities, raters, params);
            }
        },
    );
    if let Some(e) = abort.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let rows = workers.iter().flat_map(|w| w.finished.iter().copied());
    Ok(NeighborhoodTable::from_forward(Csr::from_triples(n, rows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::Rating;

    fn item_table(m: &RatingsMatrix, params: &NeighborhoodParams) -> NeighborhoodTable {
        build_item_neighborhood(m, params, &QueryGuard::unlimited()).unwrap()
    }

    fn user_table(m: &RatingsMatrix, params: &NeighborhoodParams) -> NeighborhoodTable {
        build_user_neighborhood(m, params, &QueryGuard::unlimited()).unwrap()
    }

    /// The Figure 1 ratings (4 users, 3 items).
    fn figure1() -> RatingsMatrix {
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

    /// Presence is the stamp, not the value: NaN and -0.0 are marked
    /// values, a new call forgets the old one, and a wrapped stamp cannot
    /// revive a slot marked 2³² calls ago.
    #[test]
    fn marks_forget_the_previous_call_and_survive_stamp_wrap() {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let mut scratch = ScoreScratch::default();
        let row = scratch.mark(4, [(1, f64::NAN), (3, -0.0)]);
        assert_eq!(row.get(0), None);
        assert!(row.get(1).is_some_and(f64::is_nan));
        assert_eq!(bits(row.get(3)), bits(Some(-0.0)));
        // A smaller row keeps the larger allocation; old slots are absent.
        let row = scratch.mark(2, [(0, 2.5)]);
        assert_eq!(row.get(0), Some(2.5));
        assert_eq!((row.get(1), row.get(3)), (None, None));
        scratch.stamp = u32::MAX;
        let row = scratch.mark(4, [(2, 1.0)]);
        // Slots 1 and 3 were marked with stamp 1, the stamp after the wrap.
        assert_eq!((row.get(0), row.get(1), row.get(3)), (None, None, None));
        assert_eq!(row.get(2), Some(1.0));
    }

    #[test]
    fn item_neighborhood_is_symmetric() {
        let m = figure1();
        let t = item_table(&m, &NeighborhoodParams::cosine());
        assert_eq!(t.len(), 3);
        for (a, b, s) in t.forward().iter() {
            assert_eq!(t.sim(b as usize, a as usize), Some(s), "symmetry {a}<->{b}");
        }
    }

    #[test]
    fn item_cosine_matches_hand_computation() {
        let m = figure1();
        let t = item_table(&m, &NeighborhoodParams::cosine());
        // Items 1 and 2 (dense 0 and 1): co-raters are users 2 and 3.
        // Item1 vector over them: (4.5, 2.0); item2: (3.5, 1.0).
        let i1 = m.item_idx(1).unwrap();
        let i2 = m.item_idx(2).unwrap();
        let expected = (4.5 * 3.5 + 2.0 * 1.0)
            / ((4.5f64 * 4.5 + 2.0 * 2.0).sqrt() * (3.5f64 * 3.5 + 1.0 * 1.0).sqrt());
        let got = t.sim(i1, i2).unwrap();
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn no_corated_users_means_no_edge() {
        // Items 10 and 20 share no raters.
        let m = RatingsMatrix::from_ratings(vec![Rating::new(1, 10, 5.0), Rating::new(2, 20, 4.0)]);
        let t = item_table(&m, &NeighborhoodParams::cosine());
        assert_eq!(t.total_pairs(), 0);
    }

    #[test]
    fn truncation_keeps_strongest() {
        // Item 0 co-rated with items 1..=3 at decreasing strength.
        let mut ratings = Vec::new();
        // Users 1..4 rate item 0 and one other item each with varying values.
        // Construct overlaps so |sim| differs: identical ratings → sim 1.
        for u in 1..=6 {
            ratings.push(Rating::new(u, 0, u as f64));
        }
        // Item 1 overlaps users 1..=6 identically (cos = 1).
        for u in 1..=6 {
            ratings.push(Rating::new(u, 1, u as f64));
        }
        // Item 2 overlaps in 2 users with opposite magnitudes (weaker cos).
        ratings.push(Rating::new(1, 2, 6.0));
        ratings.push(Rating::new(6, 2, 1.0));
        // Item 3 overlaps in 1 user (cos = 1 over the single dim).
        ratings.push(Rating::new(1, 3, 1.0));
        let m = RatingsMatrix::from_ratings(ratings);
        let full = item_table(&m, &NeighborhoodParams::cosine());
        let i0 = m.item_idx(0).unwrap();
        assert_eq!(full.neighbors(i0).0.len(), 3);
        let trunc = item_table(
            &m,
            &NeighborhoodParams {
                max_neighbors: Some(2),
                ..NeighborhoodParams::cosine()
            },
        );
        // The kept neighbors are the two with the highest |sim|.
        let kept = trunc.neighbors(i0).0;
        assert_eq!(kept.len(), 2);
        let (nbs, sims) = full.neighbors(i0);
        let mut ranked: Vec<(u32, f64)> = nbs.iter().copied().zip(sims.iter().copied()).collect();
        ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let mut strongest: Vec<u32> = ranked[..2].iter().map(|&(n, _)| n).collect();
        strongest.sort_unstable();
        assert_eq!(kept, &strongest[..]);
    }

    #[test]
    fn user_neighborhood_uses_rows() {
        let m = figure1();
        let t = user_table(&m, &NeighborhoodParams::cosine());
        assert_eq!(t.len(), 4);
        // Users 2 and 3 co-rated items 1 and 2.
        let u2 = m.user_idx(2).unwrap();
        let u3 = m.user_idx(3).unwrap();
        let expected = (4.5 * 2.0 + 3.5 * 1.0)
            / ((4.5f64 * 4.5 + 3.5 * 3.5).sqrt() * (2.0f64 * 2.0 + 1.0 * 1.0).sqrt());
        assert!((t.sim(u2, u3).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn neighbor_lists_sorted_by_index() {
        let m = figure1();
        let t = item_table(&m, &NeighborhoodParams::cosine());
        for e in 0..t.len() {
            assert!(t.neighbors(e).0.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn pearson_table_on_figure1() {
        let m = figure1();
        let t = item_table(&m, &NeighborhoodParams::pearson());
        // Items 1,2 have exactly 2 co-raters with distinct values on both
        // sides ⇒ correlation is ±1; verify it's defined and in range.
        let i1 = m.item_idx(1).unwrap();
        let i2 = m.item_idx(2).unwrap();
        let s = t.sim(i1, i2).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn min_abs_sim_filters_weak_edges() {
        let m = figure1();
        let strict = item_table(
            &m,
            &NeighborhoodParams {
                min_abs_sim: 0.9999,
                ..NeighborhoodParams::cosine()
            },
        );
        let loose = item_table(&m, &NeighborhoodParams::cosine());
        assert!(strict.total_pairs() <= loose.total_pairs());
    }

    #[test]
    fn empty_matrix_builds_empty_table() {
        let m = RatingsMatrix::default();
        let t = item_table(&m, &NeighborhoodParams::cosine());
        assert!(t.is_empty());
        assert_eq!(t.total_pairs(), 0);
    }

    /// A mid-sized pseudo-random matrix with varied overlap patterns.
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
                // ~35% density, ratings in 1.0..=5.0 (half-star steps).
                if next() % 100 < 35 {
                    let r = 1.0 + (next() % 9) as f64 * 0.5;
                    ratings.push(Rating::new(u, i, r));
                }
            }
        }
        RatingsMatrix::from_ratings(ratings)
    }

    #[test]
    fn parallel_build_bit_identical_to_serial() {
        let m = random_matrix(42, 40, 30);
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            for max_neighbors in [None, Some(3), Some(7)] {
                let base = NeighborhoodParams {
                    measure,
                    max_neighbors,
                    min_abs_sim: 0.0,
                    threads: 1,
                };
                let serial = item_table(&m, &base);
                for threads in [2, 3, 8] {
                    let par = item_table(&m, &NeighborhoodParams { threads, ..base });
                    assert_eq!(
                        par, serial,
                        "measure {measure:?}, k {max_neighbors:?}, t {threads}"
                    );
                }
                let auto = item_table(&m, &NeighborhoodParams { threads: 0, ..base });
                assert_eq!(auto, serial);
            }
        }
    }

    #[test]
    fn parallel_user_build_matches_serial() {
        let m = random_matrix(7, 25, 20);
        let serial = user_table(
            &m,
            &NeighborhoodParams {
                threads: 1,
                ..NeighborhoodParams::pearson()
            },
        );
        let par = user_table(
            &m,
            &NeighborhoodParams {
                threads: 4,
                ..NeighborhoodParams::pearson()
            },
        );
        assert_eq!(par, serial);
    }

    #[test]
    fn more_threads_than_entities() {
        // n = 3 items with 16 workers: shard boundaries degenerate.
        let m = figure1();
        let serial = item_table(
            &m,
            &NeighborhoodParams {
                threads: 1,
                ..NeighborhoodParams::cosine()
            },
        );
        let par = item_table(
            &m,
            &NeighborhoodParams {
                threads: 16,
                ..NeighborhoodParams::cosine()
            },
        );
        assert_eq!(par, serial);
    }

    #[test]
    fn empty_matrix_with_many_threads() {
        let m = RatingsMatrix::default();
        let t = item_table(
            &m,
            &NeighborhoodParams {
                threads: 8,
                ..NeighborhoodParams::cosine()
            },
        );
        assert!(t.is_empty());
    }

    #[test]
    fn truncation_tie_break_prefers_lower_neighbor_index() {
        // Items 1, 2, 3 all tie at |sim| = 1 against item 0 (single
        // co-rater each with identical ratings); k = 2 must keep the two
        // lowest indices regardless of build order.
        let ratings = vec![
            Rating::new(1, 0, 2.0),
            Rating::new(1, 1, 2.0),
            Rating::new(2, 0, 3.0),
            Rating::new(2, 2, 3.0),
            Rating::new(3, 0, 4.0),
            Rating::new(3, 3, 4.0),
        ];
        let m = RatingsMatrix::from_ratings(ratings);
        let i0 = m.item_idx(0).unwrap();
        for threads in [1, 2, 8] {
            let t = item_table(
                &m,
                &NeighborhoodParams {
                    max_neighbors: Some(2),
                    threads,
                    ..NeighborhoodParams::cosine()
                },
            );
            let want = [m.item_idx(1).unwrap(), m.item_idx(2).unwrap()].map(|i| i as u32);
            assert_eq!(t.neighbors(i0).0, &want[..], "threads {threads}");
        }
    }

    #[test]
    fn truncated_rows_are_finished_before_they_are_kept() {
        // The memory bound of a `max_neighbors = Some(k)` build: a kept row
        // is already cut to `k` entries, and the only other list entries a
        // worker holds are one row's candidates, fewer than `n` of them.
        let m = random_matrix(11, 40, 30);
        let (n, k) = (m.n_items(), 3);
        let params = NeighborhoodParams {
            max_neighbors: Some(k),
            ..NeighborhoodParams::pearson()
        };
        let full = item_table(&m, &NeighborhoodParams::pearson());
        assert!(
            (0..n).any(|a| full.neighbors(a).0.len() > k),
            "cut must bite"
        );
        let mut worker = RowWorker::<CoRatedSums>::new(n);
        for a in 0..n {
            let before = worker.finished.len();
            worker.row(a, m.item_csr(), m.user_csr(), &params);
            let kept = worker.finished.len() - before;
            assert_eq!(kept, full.neighbors(a).0.len().min(k), "row {a}");
            assert!(worker.candidates.capacity() < 2 * n);
            assert!(worker.touched.is_empty() && worker.acc.iter().all(|s| s.n == 0));
        }
        assert!(worker.finished.len() <= n * k);
        let table = item_table(&m, &params);
        assert_eq!(table.forward().iter().collect::<Vec<_>>(), worker.finished);
    }

    /// A cancelled or expired guard stops the build at its first chunk,
    /// at any thread count. (The fault half, which arms a site, is in
    /// `tests/faults.rs`.)
    #[test]
    fn governed_build_fails_within_one_chunk() {
        let m = random_matrix(5, 40, 30);
        let cancelled = QueryGuard::unlimited();
        cancelled.cancel();
        let expired = QueryGuard::with_limits(Some(std::time::Duration::ZERO), None, None);
        for guard in [&cancelled, &expired] {
            for threads in [1, 4] {
                let params = NeighborhoodParams {
                    threads,
                    ..NeighborhoodParams::cosine()
                };
                assert!(matches!(
                    build_item_neighborhood(&m, &params, guard),
                    Err(TrainError::Guard(_))
                ));
                assert!(matches!(
                    build_user_neighborhood(&m, &params, guard),
                    Err(TrainError::Guard(_))
                ));
            }
        }
    }
}
