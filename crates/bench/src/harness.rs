//! Shared experiment scaffolding.
//!
//! A [`World`] is one §VI testbed: a dataset loaded into **two** engines —
//! a native RecDB instance (with recommenders created and, for top-k
//! experiments, hot users materialized in the RecScoreIndex) and an
//! [`OnTopDb`] baseline wired to an identical copy of the data.
//!
//! The SQL builders produce the exact query shapes of the evaluation:
//!
//! * **Selectivity** (Figs. 6–7): `RECOMMEND … WHERE iid IN (…)` with the
//!   IN-list sized to 0.1 % / 1 % / 10 % of the item universe. RecDB's
//!   FilterRecommend scores `|U| × |list|` pairs; OnTopDB always scores
//!   all `|U| × |I|` pairs and loads them back before filtering, so the
//!   gap is ∝ 1/selectivity — the paper's converge-at-10 % shape.
//! * **Join** (Figs. 8–9): paper Query 4 (one-way) and a users-table
//!   two-way variant.
//! * **Top-k** (Figs. 10–12): paper Query 1 with `LIMIT k`, served from
//!   the materialized RecScoreIndex on the RecDB side.

use recdb_algo::model::{NeighborhoodKnobs, TrainConfig};
use recdb_algo::Algorithm;
use recdb_core::{RecDb, RecDbConfig};
use recdb_datasets::{Dataset, SyntheticSpec};
use recdb_exec::ResultSet;
use recdb_ontop::{OnTopDb, PredictionScope};
use std::time::{Duration, Instant};

/// Number of users pre-materialized ("hot" users) for top-k experiments.
pub const HOT_USERS: usize = 16;

/// One dataset loaded into both systems.
pub struct World {
    /// Dataset name (movielens / ldos-comoda / yelp).
    pub name: String,
    /// The generated data.
    pub dataset: Dataset,
    /// Native RecDB with recommenders created.
    pub db: RecDb,
    /// The OnTopDB baseline over an identical copy.
    pub ontop: OnTopDb,
    /// Algorithms with recommenders/engines built.
    pub algorithms: Vec<Algorithm>,
    /// The users materialized in the RecScoreIndex (query targets).
    pub hot_users: Vec<i64>,
}

/// Training knobs used by every experiment: neighbor lists truncated to 64
/// (standard production CF practice; documented in EXPERIMENTS.md).
pub fn bench_config() -> RecDbConfig {
    RecDbConfig {
        maintenance_threshold_pct: f64::INFINITY,
        train: TrainConfig {
            neighborhood: NeighborhoodKnobs {
                max_neighbors: Some(64),
                min_abs_sim: 0.0,
                ..Default::default()
            },
            // A production-grade SGD budget (the paper's SVD builds are
            // ~7x slower than its neighborhood builds — Table II).
            svd: recdb_algo::SvdParams {
                factors: 50,
                epochs: 120,
                ..recdb_algo::SvdParams::default()
            },
        },
        ..RecDbConfig::default()
    }
}

impl World {
    /// Build a world from a spec, creating one recommender per algorithm
    /// on both systems and materializing [`HOT_USERS`] users.
    pub fn build(spec: &SyntheticSpec, algorithms: &[Algorithm]) -> World {
        let dataset = recdb_datasets::generate(spec);

        let mut db = RecDb::with_config(bench_config());
        dataset.load_into(&mut db).expect("load native");
        for algo in algorithms {
            db.execute(&format!(
                "CREATE RECOMMENDER bench_{algo} ON ratings USERS FROM uid \
                 ITEMS FROM iid RATINGS FROM ratingval USING {algo}"
            ))
            .expect("create recommender");
        }

        // Hot users: evenly spaced user ids (deterministic, covers the
        // activity spectrum since ids are arbitrary).
        let n_users = dataset.users.len();
        let hot_users: Vec<i64> = (0..HOT_USERS.min(n_users))
            .map(|k| ((k * n_users.max(1) / HOT_USERS.max(1)) + 1) as i64)
            .collect();
        for algo in algorithms {
            let rec = db
                .recommender(&format!("bench_{algo}"))
                .expect("recommender exists");
            for &u in &hot_users {
                rec.materialize_user(u);
            }
        }

        let mut baseline = RecDb::with_config(bench_config());
        dataset.load_into(&mut baseline).expect("load baseline");
        let mut ontop = OnTopDb::new(baseline).expect("ontop");
        for algo in algorithms {
            ontop
                .create_recommender("ratings", "uid", "iid", "ratingval", *algo)
                .expect("ontop engine");
        }

        World {
            name: spec.name.clone(),
            dataset,
            db,
            ontop,
            algorithms: algorithms.to_vec(),
            hot_users,
        }
    }

    /// The MovieLens world.
    pub fn movielens(algorithms: &[Algorithm]) -> World {
        World::build(&SyntheticSpec::movielens(), algorithms)
    }

    /// The LDOS-CoMoDa world.
    pub fn ldos(algorithms: &[Algorithm]) -> World {
        World::build(&SyntheticSpec::ldos_comoda(), algorithms)
    }

    /// The Yelp world.
    pub fn yelp(algorithms: &[Algorithm]) -> World {
        World::build(&SyntheticSpec::yelp(), algorithms)
    }

    /// A small world for harness self-tests.
    pub fn tiny(algorithms: &[Algorithm]) -> World {
        World::build(&SyntheticSpec::movielens().scaled(0.01), algorithms)
    }

    /// Run the native (RecDB) side of a query.
    pub fn run_recdb(&mut self, sql: &str) -> ResultSet {
        self.db.query(sql).expect("recdb query")
    }

    /// Run the OnTopDB side: recompute all-pairs predictions, reload the
    /// predictions table, then run the residual SQL.
    pub fn run_ontop(&mut self, algorithm: Algorithm, residual_sql: &str) -> ResultSet {
        self.ontop
            .run(
                "ratings",
                algorithm,
                PredictionScope::AllUsers,
                residual_sql,
            )
            .expect("ontop query")
    }
}

// ------------------------------------------------------------ query shapes

/// Deterministically pick `⌈pct × n_items⌉` item ids (≥ 1).
pub fn item_subset(n_items: usize, pct: f64, seed: u64) -> Vec<i64> {
    let count = ((n_items as f64 * pct / 100.0).round() as usize).clamp(1, n_items);
    // Low-discrepancy stride walk over the id space, deterministic per seed.
    let stride = (n_items / count).max(1);
    (0..count)
        .map(|k| (((seed as usize + k * stride) % n_items) + 1) as i64)
        .collect()
}

fn in_list(items: &[i64]) -> String {
    items
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Figs. 6–7, RecDB side: FilterRecommend over an item subset.
pub fn recdb_selectivity_sql(algorithm: Algorithm, items: &[i64]) -> String {
    format!(
        "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING {algorithm} \
         WHERE R.iid IN ({})",
        in_list(items)
    )
}

/// Figs. 6–7, OnTopDB side: the same filter over the reloaded predictions.
pub fn ontop_selectivity_sql(items: &[i64]) -> String {
    format!(
        "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P \
         WHERE P.iid IN ({})",
        in_list(items)
    )
}

/// Figs. 8–9, RecDB side, one-way join (paper Query 4).
pub fn recdb_join1_sql(algorithm: Algorithm, user: i64, genre: &str) -> String {
    format!(
        "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING {algorithm} \
         WHERE R.uid = {user} AND M.mid = R.iid AND M.genre = '{genre}'"
    )
}

/// Figs. 8–9, OnTopDB side, one-way join.
pub fn ontop_join1_sql(user: i64, genre: &str) -> String {
    format!(
        "SELECT P.uid, M.name, P.ratingval FROM _ontop_predictions AS P, movies AS M \
         WHERE P.uid = {user} AND M.mid = P.iid AND M.genre = '{genre}'"
    )
}

/// Figs. 8–9, RecDB side, two-way join (adds the users table).
pub fn recdb_join2_sql(algorithm: Algorithm, user: i64, genre: &str) -> String {
    format!(
        "SELECT U.name, M.name, R.ratingval FROM ratings AS R, movies AS M, users AS U \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING {algorithm} \
         WHERE R.uid = {user} AND M.mid = R.iid AND U.uid = R.uid \
         AND M.genre = '{genre}'"
    )
}

/// Figs. 8–9, OnTopDB side, two-way join.
pub fn ontop_join2_sql(user: i64, genre: &str) -> String {
    format!(
        "SELECT U.name, M.name, P.ratingval \
         FROM _ontop_predictions AS P, movies AS M, users AS U \
         WHERE P.uid = {user} AND M.mid = P.iid AND U.uid = P.uid \
         AND M.genre = '{genre}'"
    )
}

/// Figs. 10–12, RecDB side: paper Query 1 (top-k for one user).
pub fn recdb_topk_sql(algorithm: Algorithm, user: i64, k: usize) -> String {
    format!(
        "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING {algorithm} \
         WHERE R.uid = {user} ORDER BY R.ratingval DESC LIMIT {k}"
    )
}

/// Figs. 10–12, OnTopDB side: predict-all, sort, take k.
pub fn ontop_topk_sql(user: i64, k: usize) -> String {
    format!(
        "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P \
         WHERE P.uid = {user} ORDER BY P.ratingval DESC LIMIT {k}"
    )
}

// ---------------------------------------------------------------- timing

/// Median wall-clock time of `reps` runs of `f` (after one warm-up run).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let _ = f();
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let _ = f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Format a duration as seconds with engineering precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn algos() -> Vec<Algorithm> {
        vec![Algorithm::ItemCosCF]
    }

    #[test]
    fn tiny_world_builds_and_answers() {
        let mut w = World::tiny(&algos());
        let items = item_subset(w.dataset.items.len(), 10.0, 7);
        let native = w.run_recdb(&recdb_selectivity_sql(Algorithm::ItemCosCF, &items));
        let baseline = w.run_ontop(Algorithm::ItemCosCF, &ontop_selectivity_sql(&items));
        assert_eq!(
            native.len(),
            baseline.len(),
            "both systems return the same answer cardinality"
        );
        assert!(!native.is_empty());
    }

    #[test]
    fn item_subset_sizes() {
        assert_eq!(item_subset(1682, 0.1, 0).len(), 2);
        assert_eq!(item_subset(1682, 1.0, 0).len(), 17);
        assert_eq!(item_subset(1682, 10.0, 0).len(), 168);
        assert_eq!(item_subset(10, 0.001, 0).len(), 1, "floor at one item");
        // Distinct ids in range.
        let items = item_subset(100, 10.0, 3);
        assert!(items.iter().all(|&i| (1..=100).contains(&i)));
        let mut dedup = items.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), items.len());
    }

    #[test]
    fn topk_agrees_between_index_and_ontop() {
        let mut w = World::tiny(&algos());
        let user = w.hot_users[0];
        let native = w.run_recdb(&recdb_topk_sql(Algorithm::ItemCosCF, user, 5));
        let baseline = w.run_ontop(Algorithm::ItemCosCF, &ontop_topk_sql(user, 5));
        assert_eq!(native.len(), baseline.len());
        // Score multisets agree (ties may order differently).
        let scores = |r: &ResultSet| {
            let mut v: Vec<f64> = r
                .rows()
                .iter()
                .map(|t| t.get(2).unwrap().as_f64().unwrap())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let (a, b) = (scores(&native), scores(&baseline));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn join_sql_shapes_run() {
        let mut w = World::tiny(&algos());
        let user = w.hot_users[0];
        let native = w.run_recdb(&recdb_join1_sql(Algorithm::ItemCosCF, user, "Action"));
        let baseline = w.run_ontop(Algorithm::ItemCosCF, &ontop_join1_sql(user, "Action"));
        assert_eq!(native.len(), baseline.len());
        let native2 = w.run_recdb(&recdb_join2_sql(Algorithm::ItemCosCF, user, "Action"));
        let baseline2 = w.run_ontop(Algorithm::ItemCosCF, &ontop_join2_sql(user, "Action"));
        assert_eq!(native2.len(), baseline2.len());
    }

    #[test]
    fn time_median_is_positive() {
        let d = time_median(3, || std::hint::black_box(1 + 1));
        assert!(d >= Duration::ZERO);
        assert!(secs(Duration::from_millis(5)).contains("ms"));
        assert!(secs(Duration::from_secs(2)).contains('s'));
        assert!(secs(Duration::from_micros(12)).contains("us"));
    }
}
