//! The one world every workload runs in: the MovieLens-shaped synthetic
//! dataset loaded into one engine, one `ItemCosCF` recommender, 64 hot
//! users materialized, served over loopback TCP.

use recdb::algo::model::{NeighborhoodKnobs, TrainConfig};
use recdb::core::{RecDb, RecDbConfig};
use recdb::datasets::{generate, Dataset, SyntheticSpec};
use recdb::server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Users pre-materialized in the RecScoreIndex.
pub const HOT_USERS: usize = 64;
/// Name of the benchmark's recommender.
pub const RECOMMENDER: &str = "benchrec";
pub const CREATE_RECOMMENDER: &str = "CREATE RECOMMENDER benchrec ON ratings USERS FROM uid \
     ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF";

/// What distinguishes one workload's engine from another's.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// `Some` = durable engine (WAL + checkpoints) rooted there.
    pub data_dir: Option<PathBuf>,
    pub buffer_pool_pages: usize,
}

/// Wall time of each set-up phase, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate_ms: f64,
    pub load_ms: f64,
    pub build_ms: f64,
    pub materialize_ms: f64,
    pub total_s: f64,
}

pub struct World {
    pub dataset: Dataset,
    pub db: Arc<RecDb>,
    pub server: Server,
    pub hot_users: Vec<i64>,
    pub phases: Phases,
}

/// The `crates/bench` harness's training knobs (neighbour lists truncated
/// to 64) with everything else at the engine's defaults: N = 10 %
/// auto-maintenance on, fsync per commit, 10 s lock timeout.
pub fn engine_config(spec: &EngineSpec) -> RecDbConfig {
    RecDbConfig {
        train: TrainConfig {
            neighborhood: NeighborhoodKnobs {
                max_neighbors: Some(64),
                min_abs_sim: 0.0,
                ..Default::default()
            },
            ..TrainConfig::default()
        },
        data_dir: spec.data_dir.clone(),
        buffer_pool_pages: spec.buffer_pool_pages,
        ..RecDbConfig::default()
    }
}

pub fn dataset_spec(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed,
        ..SyntheticSpec::movielens()
    }
}

/// Evenly spaced user ids: user activity is Zipf-ranked by id, so the hot
/// set covers the whole activity spectrum.
pub fn hot_users(n_users: usize) -> Vec<i64> {
    (0..HOT_USERS.min(n_users))
        .map(|k| (k * n_users / HOT_USERS + 1) as i64)
        .collect()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl World {
    /// Everything a deployment does before it can take its first request.
    pub fn set_up(seed: u64, spec: &EngineSpec) -> Result<World, String> {
        let started = Instant::now();
        let mut phases = Phases::default();

        let t = Instant::now();
        let dataset = generate(&dataset_spec(seed));
        phases.generate_ms = ms_since(t);

        let t = Instant::now();
        if let Some(dir) = &spec.data_dir {
            reset_dir(dir)?;
        }
        let mut db = RecDb::open_with_config(engine_config(spec)).map_err(|e| e.to_string())?;
        dataset.load_into(&mut db).map_err(|e| e.to_string())?;
        phases.load_ms = ms_since(t);

        let t = Instant::now();
        db.execute(CREATE_RECOMMENDER).map_err(|e| e.to_string())?;
        phases.build_ms = ms_since(t);

        let t = Instant::now();
        let hot_users = hot_users(dataset.users.len());
        {
            let mut rec = db
                .recommender_mut(RECOMMENDER)
                .ok_or("recommender missing after CREATE")?;
            for &u in &hot_users {
                rec.materialize_user(u);
            }
        }
        phases.materialize_ms = ms_since(t);

        // The bulk load creates tables behind the WAL's back; a durable
        // engine is recoverable only once a checkpoint holds them. (A
        // no-op in memory.)
        db.checkpoint().map_err(|e| e.to_string())?;
        let db = Arc::new(db);
        let server =
            Server::start(Arc::clone(&db), ServerConfig::default()).map_err(|e| e.to_string())?;
        phases.total_s = started.elapsed().as_secs_f64();

        Ok(World {
            dataset,
            db,
            server,
            hot_users,
            phases,
        })
    }
}

/// An empty directory at `dir`, whatever was there before.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}
