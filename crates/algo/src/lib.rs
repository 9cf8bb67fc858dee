//! # recdb-algo
//!
//! The recommendation algorithms of the RecDB paper (ICDE 2017 §II–§IV):
//!
//! * [`csr`] — compressed sparse rows, the one sparse layout: built by a
//!   stable counting sort, transposed by the same,
//! * [`ratings::RatingsMatrix`] — sparse user/item ratings with row and
//!   column views (the "UserVector" / "ItemVector" tables of Algorithm 1),
//! * [`similarity`] — cosine and Pearson correlation over co-rated
//!   dimensions (Eq. 1),
//! * [`neighborhood`] — item–item and user–user similarity-list models
//!   (forward lists plus their transpose),
//! * [`itemcf`] / [`usercf`] — neighborhood predictors (Eq. 2), over the
//!   whole item domain and over a candidate list,
//! * [`svd`] — regularized gradient-descent matrix factorization (Eq. 3),
//! * [`kernels`] — flat-`f32` vectorizable primitives (`dot`, `axpy`,
//!   `score_block`) shared by the SVD trainer and the score materializer,
//! * [`popularity`] — the non-personalized class of the §II taxonomy
//!   (damped-mean item ranking; also the cold-start fallback),
//! * [`model`] — the [`model::RecModel`] wrapper + [`model::Algorithm`]
//!   names used in SQL (`USING ItemCosCF`, …),
//! * [`eval`] — RMSE / MAE hold-out evaluation (an extension; the paper
//!   reports performance only, but a credible release needs accuracy
//!   checks to show the predictors are implemented correctly),
//! * [`parallel`] / [`topk`] — scoped-thread scheduling and stable bounded
//!   top-k selection shared by the model builders and the executor, and
//!   [`topk::serving_order`], the one order recommendations are served in.

pub mod csr;
pub mod eval;
pub mod itemcf;
pub mod kernels;
#[cfg(test)]
mod merge_reference;
pub mod model;
pub mod neighborhood;
pub mod parallel;
pub mod popularity;
pub mod ratings;
pub mod similarity;
pub mod svd;
pub mod topk;
pub mod usercf;

pub use csr::Csr;
pub use itemcf::ItemCfModel;
pub use model::{in_bounds, Algorithm, RecModel, TrainError};
pub use neighborhood::{NeighborhoodParams, NeighborhoodTable, ScoreScratch};
pub use parallel::effective_threads;
pub use popularity::PopularityModel;
pub use ratings::{Rating, RatingsMatrix};
pub use similarity::Similarity;
pub use svd::{SvdModel, SvdParams};
pub use topk::{serving_order, top_k_by, TopK};
pub use usercf::UserCfModel;
