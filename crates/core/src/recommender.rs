//! One created recommender: its definition, trained model, maintenance
//! state, usage statistics, and materialized score index.
//!
//! A recommender is built in one place, [`StagedRebuild::build`]: load its
//! definition's ratings, train, refresh the score index. `CREATE
//! RECOMMENDER`, the retrain when an engine opens and the N % rule all call
//! it, always under a [`QueryGuard`] (an unlimited one at open), so every
//! build observes cancellation and its fault sites.

use crate::cache::{CacheDecision, CacheManager, UsageStats};
use crate::error::{EngineError, EngineResult};
use parking_lot::{Mutex, RwLock};
use recdb_algo::model::TrainConfig;
use recdb_algo::parallel::for_each_chunk;
use recdb_algo::{Algorithm, RatingsBuilder, RatingsMatrix, RecModel, ScoreScratch};
use recdb_exec::{RecScoreIndex, UserList};
use recdb_guard::QueryGuard;
use recdb_storage::{BufferPool, Catalog, DEFAULT_NODE_CAPACITY};
use recdb_wal::RecommenderDef;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A recommender created by `CREATE RECOMMENDER` (§III-A).
pub struct Recommender {
    /// The definition `CREATE RECOMMENDER` logs and a checkpoint keeps.
    def: RecommenderDef,
    /// `def.algorithm`, parsed.
    algorithm: Algorithm,
    model: Arc<RecModel>,
    /// Time spent building the current model (Table II's metric).
    build_time: Duration,
    /// Ratings inserted since the current model was built (the N% rule).
    pending_updates: usize,
    /// Materialized score index, swapped wholesale on maintenance.
    index: Option<Arc<RecScoreIndex>>,
    /// The buffer pool the materialized index pages through (the
    /// catalog's, which is the engine's shared pool).
    pool: Arc<BufferPool>,
    /// Usage histograms, updated from `&self` query paths.
    stats: Mutex<UsageStats>,
    /// The Algorithm 4 manager.
    cache_manager: Mutex<CacheManager>,
}

impl std::fmt::Debug for Recommender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recommender")
            .field("name", &self.def.name)
            .field("ratings_table", &self.def.table)
            .field("algorithm", &self.algorithm)
            .field("trained_on", &self.model.trained_on())
            .field("pending_updates", &self.pending_updates)
            .field(
                "materialized_entries",
                &self.index.as_ref().map(|i| i.len()).unwrap_or(0),
            )
            .finish()
    }
}

/// Fully trained build artifacts, computed off to the side. The concurrent
/// engine trains with no engine lock held and publishes the result with
/// [`Recommender::new`] or [`Recommender::publish`] under a brief write
/// lock — readers keep serving the previous model for the whole rebuild.
pub struct StagedRebuild {
    algorithm: Algorithm,
    model: Arc<RecModel>,
    index: Option<Arc<RecScoreIndex>>,
    load_time: Duration,
    train_time: Duration,
    build_time: Duration,
}

impl StagedRebuild {
    /// The one model build (§III-A): scan `def`'s ratings table under a
    /// brief read latch of `catalog`, train `def`'s algorithm on them with
    /// no latch held, and refresh `old_index` against the new model ("RECDB
    /// maintains the recommendation score for all materialized entries",
    /// §IV-D). `guard` governs the training and the refresh, and their
    /// fault sites (`algo::*`, `core::materialize_worker`) are live; the
    /// refresh stage runs its gate even with no index to refresh. Nothing
    /// is published here, so a cancelled or faulted build leaves the
    /// previous model (and index) serving.
    pub fn build(
        def: &RecommenderDef,
        config: &TrainConfig,
        catalog: &RwLock<Catalog>,
        old_index: Option<&RecScoreIndex>,
        guard: &QueryGuard,
    ) -> EngineResult<Self> {
        let algorithm: Algorithm = def
            .algorithm
            .parse()
            .map_err(|_| recdb_exec::ExecError::UnknownAlgorithm(def.algorithm.clone()))?;
        let loading = Instant::now();
        let (matrix, pool) = {
            let catalog = catalog.read();
            let matrix = load_matrix(&catalog, &def.table, &def.users, &def.items, &def.ratings)?;
            (matrix, Arc::clone(catalog.pool()))
        };
        let load_time = loading.elapsed();
        let started = Instant::now();
        let model = Arc::new(RecModel::train(algorithm, matrix, config, guard)?);
        let train_time = started.elapsed();
        let index = refresh_index(old_index, &model, guard, &pool)?;
        Ok(StagedRebuild {
            algorithm,
            model,
            index,
            load_time,
            train_time,
            build_time: started.elapsed(),
        })
    }

    /// The algorithm the definition named.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Wall-clock time of training and refresh (the Table II metric); the
    /// scan is [`StagedRebuild::load_time`].
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The scan of the ratings table.
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// The part of [`StagedRebuild::build_time`] spent training the model.
    pub fn train_time(&self) -> Duration {
        self.train_time
    }

    /// The rest: refreshing the materialized score index.
    pub fn refresh_time(&self) -> Duration {
        self.build_time.saturating_sub(self.train_time)
    }
}

impl Recommender {
    /// A recommender for `def` serving the model `staged` built for it
    /// ("initialize", §III-A). Its name and table are kept lowercase and
    /// its algorithm by canonical name, as the definition is logged.
    pub fn new(
        mut def: RecommenderDef,
        staged: StagedRebuild,
        hotness_threshold: f64,
        now: u64,
        pool: Arc<BufferPool>,
    ) -> Self {
        def.name.make_ascii_lowercase();
        def.table.make_ascii_lowercase();
        def.algorithm = staged.algorithm.name().to_owned();
        Recommender {
            def,
            algorithm: staged.algorithm,
            model: staged.model,
            build_time: staged.build_time,
            pending_updates: 0,
            index: staged.index,
            pool,
            stats: Mutex::new(UsageStats::new(now)),
            cache_manager: Mutex::new(CacheManager::new(hotness_threshold)),
        }
    }

    /// Recommender name (lowercase).
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// The ratings table the recommender was created on (lowercase).
    pub fn ratings_table(&self) -> &str {
        &self.def.table
    }

    /// The algorithm from USING.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The definition `CREATE RECOMMENDER` logs and a checkpoint keeps.
    pub fn def(&self) -> &RecommenderDef {
        &self.def
    }

    /// The trained model.
    pub fn model(&self) -> Arc<RecModel> {
        Arc::clone(&self.model)
    }

    /// Time spent building the current model (Table II).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Ratings inserted since the model was built.
    pub fn pending_updates(&self) -> usize {
        self.pending_updates
    }

    /// The materialized index, if any.
    pub fn index(&self) -> Option<Arc<RecScoreIndex>> {
        self.index.as_ref().map(Arc::clone)
    }

    /// Number of materialized `(user, item)` entries.
    pub fn materialized_entries(&self) -> usize {
        self.index.as_ref().map(|i| i.len()).unwrap_or(0)
    }

    /// Record a recommendation query by `user` (updates the Users
    /// Histogram). Called from the read path, hence `&self`.
    pub fn record_query(&self, user: i64, now: u64) {
        self.stats.lock().record_query(user, now);
    }

    /// Record a rating insertion `(user, item)` (updates the Items
    /// Histogram and the pending-update counter).
    pub fn record_insert(&mut self, item: i64, now: u64) {
        self.pending_updates += 1;
        self.stats.lock().record_update(item, now);
    }

    /// The N% maintenance rule (§III-A): rebuild once pending updates reach
    /// `threshold_pct` percent of the entries used to build the model.
    pub fn needs_maintenance(&self, threshold_pct: f64) -> bool {
        let base = self.model.trained_on().max(1) as f64;
        (self.pending_updates as f64) / base * 100.0 >= threshold_pct
    }

    /// Swap staged rebuild artifacts in and reset the pending-update
    /// counter. Infallible by design: callers hold a write lock for just
    /// this call.
    pub fn publish(&mut self, staged: StagedRebuild) {
        self.model = staged.model;
        self.build_time = staged.build_time;
        self.pending_updates = 0;
        self.index = staged.index;
    }

    /// Apply `edit` to the materialized index (an empty one over this
    /// recommender's pool if there is none yet) and publish the result.
    /// Readers keep their snapshot: the index is edited in place only when
    /// nobody else holds it, and copied first otherwise.
    fn edit_index<R>(&mut self, edit: impl FnOnce(&mut RecScoreIndex) -> R) -> R {
        let mut index = match self.index.take() {
            Some(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
            None => RecScoreIndex::with_pool(Arc::clone(&self.pool), DEFAULT_NODE_CAPACITY),
        };
        let out = edit(&mut index);
        self.index = Some(Arc::new(index));
        out
    }

    /// Pre-compute the full unseen-item score list for one user and mark it
    /// complete (the §IV-C pre-computation that IndexRecommend serves).
    /// The same gated path as [`Recommender::materialize_all`], under an
    /// unlimited guard: only an injected fault can stop it, and as this
    /// returns nothing, that fault panics.
    pub fn materialize_user(&mut self, user: i64) {
        let model = Arc::clone(&self.model);
        let guard = QueryGuard::unlimited();
        self.edit_index(|index| materialize_into(index, &model, &[user], 1, &guard))
            .expect("an unlimited guard stops materialization only on an injected fault")
    }

    /// Pre-compute score lists for every user known to the model on
    /// `threads` workers (`0` = all cores), under `guard`. Each score is a
    /// pure function of the already-trained model, so the resulting index
    /// is identical for every thread count. On any failure the index holds
    /// exactly what it held before.
    pub fn materialize_all(&mut self, threads: usize, guard: &QueryGuard) -> EngineResult<()> {
        let model = Arc::clone(&self.model);
        let users = model.matrix().user_ids();
        self.edit_index(|index| materialize_into(index, &model, users, threads, guard))
    }

    /// Run the Algorithm 4 cache manager at tick `now`: refresh rates,
    /// decide admissions/evictions, and apply them to the index. Returns
    /// the decision for observability.
    pub fn run_cache_manager(&mut self, now: u64) -> CacheDecision {
        let model = Arc::clone(&self.model);
        let matrix = model.matrix();
        let decision = {
            let mut stats = self.stats.lock();
            let mut mgr = self.cache_manager.lock();
            mgr.run(&mut stats, now, |u, i| matrix.rating_of(u, i).is_none())
        };
        if decision.admitted.is_empty() && decision.evicted.is_empty() {
            return decision;
        }
        self.edit_index(|index| {
            for &(u, i) in &decision.evicted {
                index.remove(u, i);
            }
            // One candidate list per user: the manager emits each user's
            // admissions together.
            let mut scratch = ScoreScratch::default();
            for admitted in decision.admitted.chunk_by(|a, b| a.0 == b.0) {
                let user = admitted[0].0;
                let items: Vec<i64> = admitted.iter().map(|&(_, item)| item).collect();
                let scores = score_item_ids(&model, user, &items, &mut scratch);
                for (item, score) in items.into_iter().zip(scores) {
                    // Admitted pairs are unseen; ids newer than the model
                    // have no prediction yet and enter at 0.
                    index.insert(user, item, score.flatten().unwrap_or(0.0));
                }
            }
        });
        decision
    }

    /// Immutable access to the usage statistics (testing/observability).
    pub fn with_stats<R>(&self, f: impl FnOnce(&UsageStats) -> R) -> R {
        f(&self.stats.lock())
    }
}

/// The build pipeline's materialization stage: a fresh score index
/// against a freshly trained model, built in one pass
/// ([`RecScoreIndex::from_lists`]); `old` is only read. Complete users
/// re-materialize in full (an empty list stays complete); partial
/// (cache-admitted) pairs re-score individually, a pair rated since it was
/// admitted leaves, and ids the model does not know enter at 0.0. The
/// `core::materialize_worker` fault site is evaluated even when there is
/// nothing to refresh, so injected failures cover create as well as
/// maintain.
fn refresh_index(
    old: Option<&RecScoreIndex>,
    model: &RecModel,
    guard: &QueryGuard,
    pool: &Arc<BufferPool>,
) -> EngineResult<Option<Arc<RecScoreIndex>>> {
    materialize_gate(guard)?;
    let Some(old) = old else { return Ok(None) };
    let (complete, partial): (Vec<i64>, Vec<i64>) =
        old.users().partition(|&user| old.is_complete(user));
    let scored = score_lists(model, &complete, 1, guard)?;
    let mut lists: Vec<UserList> = complete
        .into_iter()
        .zip(scored)
        .map(|(user, list)| (user, list, true))
        .collect();
    let mut scratch = ScoreScratch::default();
    for user in partial {
        guard.check()?;
        let items: Vec<i64> = old
            .iter_desc(user, None, None)
            .map(|(item, _)| item)
            .collect();
        let scores = score_item_ids(model, user, &items, &mut scratch);
        let list = items
            .into_iter()
            .zip(scores)
            .filter_map(|(item, score)| match score {
                Some(Some(score)) => Some((item, score)),
                // A pair the user has since rated is not a recommendation.
                Some(None) => None,
                // Ids the new model doesn't know keep the legacy
                // unpredictable-pair score of 0.0.
                None => Some((item, 0.0)),
            });
        lists.push((user, list.collect(), false));
    }
    let fresh = RecScoreIndex::from_lists(Arc::clone(pool), DEFAULT_NODE_CAPACITY, lists);
    Ok(Some(Arc::new(fresh)))
}

/// `user`'s scores for the external ids `items` under `model`, in list
/// order, from one candidate-list call: `None` where the model does not
/// know the user or the item, otherwise the
/// [`RecModel::score_items_into`] entry (`None` = rated).
fn score_item_ids(
    model: &RecModel,
    user: i64,
    items: &[i64],
    scratch: &mut ScoreScratch,
) -> Vec<Option<Option<f64>>> {
    let matrix = model.matrix();
    let Some(u) = matrix.user_idx(user) else {
        return vec![None; items.len()];
    };
    let dense: Vec<Option<usize>> = items.iter().map(|&item| matrix.item_idx(item)).collect();
    let known: Vec<usize> = dense.iter().flatten().copied().collect();
    let mut scores = Vec::with_capacity(known.len());
    model.score_items_into(u, &known, scratch, &mut scores);
    let mut scores = scores.into_iter();
    dense
        .iter()
        .map(|i| i.and_then(|_| scores.next()))
        .collect()
}

/// The materialization stage's checkpoint: the `core::materialize_worker`
/// fault site, then the guard.
fn materialize_gate(guard: &QueryGuard) -> EngineResult<()> {
    recdb_fault::fail_point("core::materialize_worker")?;
    guard.check()?;
    Ok(())
}

/// `user`'s complete unseen-item list under `model`, as `(item id,
/// score)` pairs.
fn unseen_list(model: &RecModel, user: i64, scratch: &mut ScoreScratch) -> Vec<(i64, f64)> {
    let matrix = model.matrix();
    match matrix.user_idx(user) {
        Some(u) => {
            // One user-at-a-time pass over dense indexes, mapped back to
            // ids at the end.
            let mut scored = Vec::new();
            model.score_unseen_into(u, scratch, &mut scored);
            scored
                .into_iter()
                .map(|(i, score)| (matrix.item_id(i), score))
                .collect()
        }
        // Unknown user: every item is unseen and unpredictable → 0.0,
        // matching the per-pair `predict(..).unwrap_or(0.0)` behavior.
        None => matrix.item_ids().iter().map(|&item| (item, 0.0)).collect(),
    }
}

/// Score `users`' complete unseen-item lists under `model` on `threads`
/// workers (`0` = all cores) and swap each into `index` as one complete
/// list ([`RecScoreIndex::replace_user_list`]). `index` is touched only
/// after every list is scored.
fn materialize_into(
    index: &mut RecScoreIndex,
    model: &RecModel,
    users: &[i64],
    threads: usize,
    guard: &QueryGuard,
) -> EngineResult<()> {
    let lists = score_lists(model, users, threads, guard)?;
    for (&user, list) in users.iter().zip(lists) {
        index.replace_user_list(user, &list);
    }
    Ok(())
}

/// `users`' complete unseen-item lists under `model`, in `users` order,
/// scored on `threads` workers (`0` = all cores). Workers only fan out
/// the scoring; the lists are put in order on the calling thread. Each
/// worker chunk evaluates the `core::materialize_worker` fault site and
/// the guard before scoring.
fn score_lists(
    model: &RecModel,
    users: &[i64],
    threads: usize,
    guard: &QueryGuard,
) -> EngineResult<Vec<Vec<(i64, f64)>>> {
    // Workers cannot return `Err` through the fan-out, so the first
    // failure lands in a shared slot and flips a flag that makes the
    // remaining chunks bail out immediately.
    let aborted = AtomicBool::new(false);
    let abort: Mutex<Option<EngineError>> = Mutex::new(None);
    // Per worker thread: its scored users plus the scoring scratch it
    // reuses across all of them.
    type Worker = (Vec<(usize, Vec<(i64, f64)>)>, ScoreScratch);
    let mut per_user: Vec<(usize, Vec<(i64, f64)>)> = for_each_chunk(
        users.len(),
        recdb_algo::effective_threads(threads),
        8,
        Worker::default,
        |(out, scratch): &mut Worker, range| {
            if aborted.load(Ordering::Relaxed) {
                return;
            }
            // The governor is charged once per chunk, not per pair.
            if let Err(e) = materialize_gate(guard) {
                aborted.store(true, Ordering::Relaxed);
                abort.lock().get_or_insert(e);
                return;
            }
            for pos in range {
                out.push((pos, unseen_list(model, users[pos], scratch)));
            }
        },
    )
    .into_iter()
    .flat_map(|(out, _)| out)
    .collect();
    if let Some(e) = abort.into_inner() {
        return Err(e);
    }
    per_user.sort_unstable_by_key(|&(pos, _)| pos);
    Ok(per_user.into_iter().map(|(_, list)| list).collect())
}

/// Scan a ratings table into a [`RatingsMatrix`], resolving the three
/// named columns: each row's triple goes straight into a
/// [`RatingsBuilder`], in heap order, so a pair stored twice keeps its
/// later row's rating.
pub fn load_matrix(
    catalog: &Catalog,
    ratings_table: &str,
    users_column: &str,
    items_column: &str,
    ratings_column: &str,
) -> EngineResult<RatingsMatrix> {
    let table = catalog.table(ratings_table)?;
    let schema = table.schema();
    let u = schema.resolve(users_column)?;
    let i = schema.resolve(items_column)?;
    let r = schema.resolve(ratings_column)?;
    let mut ratings = RatingsBuilder::with_capacity(table.tuple_count() as usize);
    // Three columns read in place per row: no tuple is decoded.
    table.heap().visit_all(|page_no, page| {
        for (slot, row) in page.live_rows() {
            let (user, item, value) = (row.column(u)?, row.column(i)?, row.column(r)?);
            let (Some(user), Some(item), Some(value)) =
                (user.as_int(), item.as_int(), value.as_f64())
            else {
                return Err(EngineError::Exec(recdb_exec::ExecError::Type(format!(
                    "non-numeric rating triple in `{ratings_table}` at page {page_no}, slot {slot}"
                ))));
            };
            ratings.push(user, item, value);
        }
        Ok(())
    })?;
    Ok(ratings.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_algo::Rating;
    use recdb_storage::{DataType, Schema, Tuple, Value};

    fn catalog_with_ratings(rows: &[(i64, i64, f64)]) -> RwLock<Catalog> {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "ratings",
                Schema::from_pairs(&[
                    ("uid", DataType::Int),
                    ("iid", DataType::Int),
                    ("ratingval", DataType::Float),
                ]),
            )
            .unwrap();
        for &(u, i, r) in rows {
            t.insert(Tuple::new(vec![
                Value::Int(u),
                Value::Int(i),
                Value::Float(r),
            ]))
            .unwrap();
        }
        RwLock::new(cat)
    }

    fn figure1_rows() -> Vec<(i64, i64, f64)> {
        vec![
            (1, 1, 1.5),
            (2, 2, 3.5),
            (2, 1, 4.5),
            (2, 3, 2.0),
            (3, 2, 1.0),
            (3, 1, 2.0),
            (4, 2, 1.0),
        ]
    }

    /// `GeneralRec` on the Figure 1 ratings, its algorithm spelled as SQL
    /// may spell it.
    fn def() -> RecommenderDef {
        RecommenderDef {
            name: "GeneralRec".into(),
            table: "ratings".into(),
            users: "uid".into(),
            items: "iid".into(),
            ratings: "ratingval".into(),
            algorithm: "itemcoscf".into(),
        }
    }

    fn make(cat: &RwLock<Catalog>) -> Recommender {
        let guard = QueryGuard::unlimited();
        let staged = StagedRebuild::build(&def(), &TrainConfig::default(), cat, None, &guard);
        Recommender::new(
            def(),
            staged.unwrap(),
            0.5,
            0,
            Arc::clone(cat.read().pool()),
        )
    }

    /// An N% rebuild as the engine runs one: stage the new model and
    /// index from the table, publish.
    fn rebuild(
        rec: &mut Recommender,
        cat: &RwLock<Catalog>,
        guard: &QueryGuard,
    ) -> EngineResult<()> {
        let config = TrainConfig::default();
        let staged = StagedRebuild::build(rec.def(), &config, cat, rec.index().as_deref(), guard)?;
        rec.publish(staged);
        Ok(())
    }

    #[test]
    fn create_trains_from_table() {
        let cat = catalog_with_ratings(&figure1_rows());
        let rec = make(&cat);
        assert_eq!(rec.model().trained_on(), 7);
        assert_eq!(rec.model().matrix().rating_of(2, 1), Some(4.5));
        assert_eq!(rec.name(), "generalrec");
        assert_eq!(
            rec.def(),
            &RecommenderDef {
                name: "generalrec".into(),
                table: "ratings".into(),
                users: "uid".into(),
                items: "iid".into(),
                ratings: "ratingval".into(),
                algorithm: Algorithm::ItemCosCF.name().into(),
            }
        );
    }

    #[test]
    fn n_percent_maintenance_rule() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        assert!(!rec.needs_maintenance(10.0));
        rec.record_insert(1, 1); // 1/7 ≈ 14% ≥ 10%
        assert!(rec.needs_maintenance(10.0));
        assert!(!rec.needs_maintenance(50.0));
        for k in 0..3 {
            rec.record_insert(k, 2);
        }
        assert!(rec.needs_maintenance(50.0), "4/7 ≈ 57%");
    }

    #[test]
    fn rebuild_retrains_and_resets_counter() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        // New rating arrives in the table and is recorded.
        cat.write()
            .table_mut("ratings")
            .unwrap()
            .insert(Tuple::new(vec![
                Value::Int(4),
                Value::Int(3),
                Value::Float(5.0),
            ]))
            .unwrap();
        rec.record_insert(3, 1);
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        assert_eq!(rec.pending_updates(), 0);
        assert_eq!(rec.model().trained_on(), 8);
        assert_eq!(
            rec.model().matrix().rating_of(4, 3),
            Some(5.0),
            "new rating visible"
        );
    }

    #[test]
    fn materialize_user_builds_complete_list() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_user(1);
        let idx = rec.index().unwrap();
        assert!(idx.is_complete(1));
        // User 1 rated item 1 → 2 unseen items materialized.
        assert_eq!(idx.iter_desc(1, None, None).count(), 2);
        assert!(!idx.is_complete(2));
    }

    #[test]
    fn materialize_all_covers_every_user() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_all(0, &QueryGuard::unlimited()).unwrap();
        let idx = rec.index().unwrap();
        // User 2 rated all three items → no entries, but still complete.
        assert_eq!(idx.user_count(), 3);
        // 4 users × 3 items − 7 rated = 5 entries.
        assert_eq!(idx.len(), 5);
        for u in 1..=4 {
            assert!(idx.is_complete(u));
        }
    }

    #[test]
    fn materialize_all_parallel_matches_serial() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut serial = make(&cat);
        serial.materialize_all(1, &QueryGuard::unlimited()).unwrap();
        let serial_idx = serial.index().unwrap();
        for threads in [2, 4, 0] {
            let mut par = make(&cat);
            par.materialize_all(threads, &QueryGuard::unlimited())
                .unwrap();
            let idx = par.index().unwrap();
            assert_eq!(idx.len(), serial_idx.len(), "threads {threads}");
            assert_eq!(idx.user_count(), serial_idx.user_count());
            for u in 1..=4 {
                assert_eq!(idx.is_complete(u), serial_idx.is_complete(u));
                let a: Vec<_> = idx.iter_desc(u, None, None).collect();
                let b: Vec<_> = serial_idx.iter_desc(u, None, None).collect();
                assert_eq!(a, b, "user {u}, threads {threads}");
            }
        }
    }

    /// Append one rating row to the catalog's `ratings` table.
    fn rate(cat: &RwLock<Catalog>, user: i64, item: i64, value: f64) {
        cat.write()
            .table_mut("ratings")
            .unwrap()
            .insert(Tuple::new(vec![
                Value::Int(user),
                Value::Int(item),
                Value::Float(value),
            ]))
            .unwrap();
    }

    /// `user`'s complete unseen-item list through the point API.
    fn per_pair_list(model: &RecModel, user: i64) -> Vec<(i64, f64)> {
        model
            .matrix()
            .item_ids()
            .iter()
            .filter(|&&item| model.matrix().rating_of(user, item).is_none())
            .map(|&item| (item, model.predict(user, item).unwrap_or(0.0)))
            .collect()
    }

    /// What the per-pair path builds for `users`: every unseen pair
    /// scored through the point API, entered as one complete list.
    fn per_pair_index(model: &RecModel, users: &[i64]) -> RecScoreIndex {
        let mut index = RecScoreIndex::new();
        for &user in users {
            index.replace_user_list(user, &per_pair_list(model, user));
        }
        index
    }

    /// The refresh as it was done key by key: into an empty index, each
    /// complete user's list through `replace_user_list`, each partial
    /// user's still-unseen pairs re-scored one `insert` at a time (ids the
    /// model does not know at 0.0), all through the point API.
    fn per_key_refresh(old: &RecScoreIndex, model: &RecModel) -> RecScoreIndex {
        let mut fresh = RecScoreIndex::new();
        for user in old.users() {
            if old.is_complete(user) {
                fresh.replace_user_list(user, &per_pair_list(model, user));
                continue;
            }
            for (item, _) in old.iter_desc(user, None, None) {
                if model.matrix().rating_of(user, item).is_none() {
                    fresh.insert(user, item, model.predict(user, item).unwrap_or(0.0));
                }
            }
        }
        fresh
    }

    fn assert_same_index(got: &RecScoreIndex, want: &RecScoreIndex, users: &[i64]) {
        let bits = |idx: &RecScoreIndex| -> Vec<(i64, i64, u64)> {
            users
                .iter()
                .flat_map(|&u| {
                    idx.iter_desc(u, None, None)
                        .map(move |(i, s)| (u, i, s.to_bits()))
                })
                .collect()
        };
        assert_eq!(bits(got), bits(want));
        assert_eq!(got.len(), want.len());
        assert_eq!(got.user_count(), want.user_count());
        for &u in users {
            assert_eq!(got.is_complete(u), want.is_complete(u), "user {u}");
        }
    }

    #[test]
    fn bulk_materialization_matches_the_per_pair_path() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        let all = [1, 2, 3, 4, 99];
        // `materialize_user`, including a user the model has never seen.
        for u in [4, 1, 99] {
            rec.materialize_user(u);
        }
        assert_same_index(
            &rec.index().unwrap(),
            &per_pair_index(&rec.model(), &[4, 1, 99]),
            &all,
        );
        // Re-materializing into the same index replaces, never duplicates.
        rec.materialize_user(4);
        assert_same_index(
            &rec.index().unwrap(),
            &per_pair_index(&rec.model(), &[4, 1, 99]),
            &all,
        );
        // User 4 rates item 1, which its list holds: the rebuild's
        // refresh re-materializes the user without that pair.
        assert!(rec.index().unwrap().get(4, 1).is_some());
        rate(&cat, 4, 1, 2.0);
        rec.record_insert(1, 1);
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        assert_same_index(
            &rec.index().unwrap(),
            &per_pair_index(&rec.model(), &[4, 1, 99]),
            &all,
        );
        // `materialize_all`: user 2 rated everything, so its list is
        // complete and empty.
        let mut every = make(&cat);
        every.materialize_all(2, &QueryGuard::unlimited()).unwrap();
        assert_same_index(
            &every.index().unwrap(),
            &per_pair_index(&every.model(), &[1, 2, 3, 4]),
            &all,
        );
    }

    /// The one-pass refresh builds what the key-by-key one did, for every
    /// kind of user an index holds: complete with entries, complete and
    /// empty, complete but unknown to the model, partial (admitted pairs,
    /// one of them an unknown item, one rated since), partial by eviction,
    /// and partial but unknown to the model. The old index is not touched.
    #[test]
    fn bulk_refresh_equals_the_per_key_refresh() {
        let mut rows = figure1_rows();
        rows.push((5, 1, 3.0));
        let cat = catalog_with_ratings(&rows);
        let mut rec = make(&cat);
        for user in [4, 2, 99, 5] {
            rec.materialize_user(user);
        }
        rec.edit_index(|index| index.remove(5, 3));
        for user in [1, 9] {
            for _ in 0..10 {
                rec.record_query(user, 5);
            }
        }
        for item in [2, 3, 77] {
            rec.record_insert(item, 5);
        }
        let decision = rec.run_cache_manager(10);
        for pair in [(1, 2), (1, 3), (1, 77), (9, 2)] {
            assert!(decision.admitted.contains(&pair), "{pair:?} {decision:?}");
        }
        let old = rec.index().unwrap();
        let users = [1, 2, 3, 4, 5, 9, 99];
        let before: Vec<Vec<(i64, f64)>> = users
            .iter()
            .map(|&u| old.iter_desc(u, None, None).collect())
            .collect();
        assert!(old.is_complete(2) && !old.has_user(2));
        assert!(old.is_complete(4) && old.is_complete(99));
        assert!([1, 5, 9]
            .iter()
            .all(|&u| old.has_user(u) && !old.is_complete(u)));
        // User 4 rates a listed item, user 1 an admitted one, and item 5
        // appears.
        rate(&cat, 4, 1, 2.0);
        rate(&cat, 1, 3, 4.0);
        rate(&cat, 3, 5, 3.5);
        let staged = StagedRebuild::build(
            rec.def(),
            &TrainConfig::default(),
            &cat,
            Some(&old),
            &QueryGuard::unlimited(),
        )
        .unwrap();
        let fresh = staged.index.unwrap();
        let want = per_key_refresh(&old, &staged.model);
        assert_same_index(&fresh, &want, &users);
        assert_eq!(fresh.get(1, 3), None, "rated since it was admitted");
        assert_eq!(fresh.get(1, 77), Some(0.0), "unknown item at 0.0");
        assert!(fresh.is_complete(2) && fresh.get(2, 5).is_some());
        let after: Vec<Vec<(i64, f64)>> = users
            .iter()
            .map(|&u| old.iter_desc(u, None, None).collect())
            .collect();
        assert_eq!(after, before, "old index untouched");
    }

    proptest::proptest! {
        /// The table scan feeds the builder the rows in heap order, so it
        /// builds what `from_ratings` builds from the live rows in that
        /// order: a pair stored twice keeps its later rating, deleted rows
        /// are gone, and ids intern in first-appearance order.
        #[test]
        fn load_matrix_equals_from_ratings_in_heap_order(
            rows in proptest::collection::vec((0i64..5, -2i64..6, 0usize..4), 0..60),
            deleted in proptest::collection::vec(proptest::prelude::any::<bool>(), 60),
        ) {
            const VALUES: [f64; 4] = [1.0, 3.7, 4.5, 5.0];
            let rows: Vec<(i64, i64, f64)> = rows.into_iter().map(|(u, i, v)| (u, i, VALUES[v])).collect();
            let cat = catalog_with_ratings(&rows);
            {
                let mut cat = cat.write();
                let table = cat.table_mut("ratings").unwrap();
                let rids: Vec<_> = table.heap().scan().map(|(rid, _)| rid).collect();
                proptest::prop_assert_eq!(rids.len(), rows.len());
                for (&rid, _) in rids.iter().zip(&deleted).filter(|(_, &gone)| gone) {
                    table.delete(rid).unwrap();
                }
            }
            let live = rows
                .iter()
                .zip(&deleted)
                .filter(|(_, &gone)| !gone)
                .map(|(&(u, i, v), _)| Rating::new(u, i, v));
            let want = RatingsMatrix::from_ratings(live);
            let got = load_matrix(&cat.read(), "ratings", "uid", "iid", "ratingval").unwrap();
            proptest::prop_assert_eq!(got.user_ids(), want.user_ids());
            proptest::prop_assert_eq!(got.item_ids(), want.item_ids());
            proptest::prop_assert_eq!(got.user_csr(), want.user_csr());
            proptest::prop_assert_eq!(got.item_csr(), want.item_csr());
            proptest::prop_assert_eq!(got.items_by_id_desc(), want.items_by_id_desc());
        }
    }

    #[test]
    fn rebuild_refreshes_materialized_entries() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_user(4);
        let before = rec.index().unwrap().get(4, 1);
        assert!(before.is_some());
        // User 4 rates item 1 → after maintenance the pair is seen and must
        // leave the index, while the user list stays complete.
        cat.write()
            .table_mut("ratings")
            .unwrap()
            .insert(Tuple::new(vec![
                Value::Int(4),
                Value::Int(1),
                Value::Float(2.0),
            ]))
            .unwrap();
        rec.record_insert(1, 1);
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        let idx = rec.index().unwrap();
        assert_eq!(idx.get(4, 1), None, "now-rated pair dematerialized");
        assert!(idx.is_complete(4));
        assert!(idx.get(4, 3).is_some(), "still-unseen pair retained");
    }

    #[test]
    fn complete_user_with_nothing_left_stays_complete_across_a_rebuild() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_user(2); // rated all three items: complete, no entries
        let idx = rec.index().unwrap();
        assert!(idx.is_complete(2) && !idx.has_user(2));
        // Item 4 appears; the rebuild must keep serving user 2 from the
        // index, now with the new item in the list.
        rate(&cat, 1, 4, 3.0);
        rec.record_insert(4, 1);
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        let idx = rec.index().unwrap();
        assert!(idx.is_complete(2), "hot user silently de-materialized");
        let items: Vec<i64> = idx.iter_desc(2, None, None).map(|(i, _)| i).collect();
        assert_eq!(items, vec![4]);
    }

    #[test]
    fn cancelled_or_expired_rebuild_keeps_the_previous_model_and_index() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_user(4);
        let entries = |rec: &Recommender| -> Vec<_> {
            rec.index().unwrap().iter_desc(4, None, None).collect()
        };
        let before = entries(&rec);
        rate(&cat, 4, 1, 2.0);
        rec.record_insert(1, 1);
        let cancelled = QueryGuard::unlimited();
        cancelled.cancel();
        let expired = QueryGuard::with_limits(Some(Duration::ZERO), None, None);
        for guard in [&cancelled, &expired] {
            let err = rebuild(&mut rec, &cat, guard).unwrap_err();
            assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
            assert_eq!(rec.model().trained_on(), 7, "old model still serving");
            assert_eq!(rec.pending_updates(), 1);
            assert_eq!(entries(&rec), before, "old index untouched");
        }
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        assert_eq!(rec.model().trained_on(), 8);
        assert_eq!(rec.index().unwrap().get(4, 1), None);
    }

    #[test]
    fn cache_manager_admits_hot_pairs_into_index() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        // User 1 queries a lot; item 3 is updated a lot.
        for _ in 0..10 {
            rec.record_query(1, 5);
        }
        rec.record_insert(3, 5);
        let decision = rec.run_cache_manager(10);
        assert!(decision.admitted.contains(&(1, 3)));
        let idx = rec.index().unwrap();
        assert!(idx.get(1, 3).is_some());
        assert!(!idx.is_complete(1), "pair admission is partial");
    }

    /// Admissions and the rebuild's re-score of admitted pairs run one
    /// candidate list per user; each pair scores what the point API says,
    /// ids the model does not know enter at 0, and a pair rated since it
    /// was admitted leaves the index.
    #[test]
    fn admitted_and_refreshed_pairs_score_like_the_point_api() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        // Users 1, 4 and 9 (unknown to the model) are equally hot, and so
        // are items 2, 3 and 99 (unknown).
        for user in [1, 4, 9] {
            for _ in 0..10 {
                rec.record_query(user, 5);
            }
        }
        for item in [2, 3, 99] {
            rec.record_insert(item, 5);
        }
        let point = |rec: &Recommender, user: i64, item: i64| {
            let model = rec.model();
            let m = model.matrix();
            m.user_idx(user)
                .zip(m.item_idx(item))
                .and_then(|(u, i)| model.unseen_score(u, i))
                .unwrap_or(0.0)
        };
        let decision = rec.run_cache_manager(10);
        for pair in [(1, 2), (1, 3), (1, 99), (4, 3), (9, 2)] {
            assert!(decision.admitted.contains(&pair), "{pair:?} {decision:?}");
        }
        let idx = rec.index().unwrap();
        for &(user, item) in &decision.admitted {
            assert_eq!(idx.get(user, item), Some(point(&rec, user, item)));
        }

        cat.write()
            .table_mut("ratings")
            .unwrap()
            .insert(Tuple::new(vec![
                Value::Int(4),
                Value::Int(3),
                Value::Float(5.0),
            ]))
            .unwrap();
        rec.record_insert(3, 11);
        rebuild(&mut rec, &cat, &QueryGuard::unlimited()).unwrap();
        let idx = rec.index().unwrap();
        assert_eq!(idx.get(4, 3), None, "rated since it was admitted");
        for &(user, item) in decision.admitted.iter().filter(|&&p| p != (4, 3)) {
            assert_eq!(idx.get(user, item), Some(point(&rec, user, item)));
        }
    }

    #[test]
    fn cache_manager_evicts_cold_pairs() {
        let cat = catalog_with_ratings(&figure1_rows());
        let mut rec = make(&cat);
        rec.materialize_user(4); // contains (4, 1) and (4, 3)
                                 // Heat: user 1 hot, user 4 cold; item 1 hot, item 3 cold-ish.
        for _ in 0..100 {
            rec.record_query(1, 5);
        }
        rec.record_query(4, 5);
        for _ in 0..100 {
            rec.record_insert(1, 5);
        }
        rec.record_insert(3, 5);
        let decision = rec.run_cache_manager(10);
        assert!(decision.evicted.contains(&(4, 3)), "{decision:?}");
        let idx = rec.index().unwrap();
        assert_eq!(idx.get(4, 3), None);
        assert!(!idx.is_complete(4), "eviction breaks completeness");
    }

    #[test]
    fn load_matrix_rejects_bad_columns() {
        let cat = catalog_with_ratings(&figure1_rows());
        let cat = cat.read();
        assert!(load_matrix(&cat, "ratings", "nope", "iid", "ratingval").is_err());
        assert!(load_matrix(&cat, "missing", "uid", "iid", "ratingval").is_err());
    }

    #[test]
    fn build_time_is_recorded() {
        let cat = catalog_with_ratings(&figure1_rows());
        let rec = make(&cat);
        // Tiny model, but the timer must have run.
        assert!(rec.build_time() > Duration::ZERO);
    }
}
