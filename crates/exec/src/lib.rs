//! # recdb-exec
//!
//! Query processing for RecDB-rs (paper §IV): logical plans, a rule-based
//! optimizer, and Volcano-style physical operators — including the paper's
//! recommendation-aware operator family:
//!
//! * `RECOMMEND` (ItemCF / UserCF / MatrixFact, Algorithms 1–2) — the leaf
//!   that scores user/item pairs,
//! * `FILTERRECOMMEND` — the same leaf with uid/iid/ratingval predicates
//!   pushed *below* the score computation (§IV-B1),
//! * `JOINRECOMMEND` — index-nested-loop-style join that predicts scores
//!   only for tuples that satisfy the join predicate (§IV-B2),
//! * `INDEXRECOMMEND` (Algorithm 3) — serves pre-computed scores from
//!   [`rec_index::RecScoreIndex`] in descending score order (§IV-C).
//!
//! The optimizer (in [`optimizer`]) implements the paper's plan rewrites:
//! predicate pushdown into the Recommend leaf, JoinRecommend selection, and
//! IndexRecommend access-path choice when a materialized score index covers
//! the querying users.

// Engine-reachable code must surface errors, not panic; tests are exempt
// via `allow-unwrap-in-tests` in the workspace clippy.toml.
#![warn(clippy::unwrap_used)]

#[cfg(test)]
mod alloc_count;
pub mod error;
pub mod expr;
pub mod ops;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod provider;
pub mod rec_index;
pub mod result;
mod scan_keys;

pub use error::{ExecError, ExecResult};
pub use expr::BoundExpr;
pub use optimizer::optimize;
pub use physical::{execute_plan, execute_plan_profiled, ExecContext, ExecMetrics, Profiler};
pub use plan::{build_logical, LogicalPlan};
pub use provider::{Clause, ModelVersion, RecommenderProvider};
pub use rec_index::{RecScoreIndex, UserList};
pub use result::ResultSet;
