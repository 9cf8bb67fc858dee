//! # recdb-core
//!
//! The RecDB-rs engine (the paper's §III–§IV system layer):
//!
//! * [`engine::RecDb`] — the façade: a SQL entry point over the storage
//!   catalog, the recommender catalog, and the query executor,
//! * [`recommender::Recommender`] — one created recommender: trained
//!   [`recdb_algo::RecModel`], pending-update counter with the N%
//!   maintenance rule (§III-A), and the materialized
//!   [`recdb_exec::RecScoreIndex`] (§IV-C),
//! * [`cache::CacheManager`] — the adaptive materialization manager of
//!   Algorithm 4: per-user demand rates, per-item consumption rates,
//!   hotness ratios, admission/eviction lists (§IV-D).
//!
//! ```
//! use recdb_core::RecDb;
//!
//! let db = RecDb::new();
//! db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)").unwrap();
//! db.execute("INSERT INTO ratings VALUES (1, 1, 5.0), (2, 1, 4.0), (2, 2, 3.0)").unwrap();
//! db.execute("CREATE RECOMMENDER Rec ON ratings USERS FROM uid ITEMS FROM iid \
//!             RATINGS FROM ratingval USING ItemCosCF").unwrap();
//! let out = db.execute("SELECT R.iid, R.ratingval FROM ratings AS R \
//!                       RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
//!                       WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10").unwrap();
//! assert!(out.rows().map(|r| r.len()).unwrap_or(0) >= 1);
//! ```

pub mod cache;
pub mod engine;
pub mod error;
pub mod recommender;
pub mod session;
mod statement_cache;

pub use cache::{CacheDecision, CacheManager, UsageStats};
pub use engine::{
    CatalogMut, CatalogRef, GovernorConfig, QueryResult, RecDb, RecDbConfig, RecommenderMut,
    RecommenderRef,
};
pub use error::{EngineError, EngineResult};
pub use recommender::{Recommender, StagedRebuild};
pub use session::Session;
// Re-export the guard types so engine callers can build per-call limits
// and cancel handles without depending on the guard crate directly.
pub use recdb_guard::{GuardError, QueryGuard};
