//! # recdb-datasets
//!
//! Seeded synthetic stand-ins for the paper's three evaluation datasets
//! (§VI): **MovieLens-100K** (943 users × 1,682 movies × 100,000 ratings),
//! **LDOS-CoMoDa** (185 × 785 × 2,297), and the **Yelp** challenge subset
//! (3,403 users × 1,446 businesses × 126,747 reviews, with locations for
//! the §V POI case study).
//!
//! The real datasets cannot ship with this repository, so the generators
//! reproduce the properties the experiments depend on:
//!
//! * the exact cardinalities (|U|, |I|, |R|) — operator costs in the
//!   evaluation scale with these,
//! * Zipf-skewed item popularity and user activity (real rating data is
//!   heavy-tailed; neighborhood sizes and similarity-list lengths follow),
//! * learnable low-rank structure plus noise, so the CF/SVD models produce
//!   non-degenerate score distributions,
//! * movie genres / business categories and planar business locations, so
//!   the join and spatial queries of §V–§VI are meaningful.
//!
//! Everything is deterministic for a fixed [`SyntheticSpec::seed`].

pub mod generate;
pub mod load;
pub mod spec;

pub use generate::{generate, CityRow, Dataset, ItemRow, UserRow};
pub use load::LoadedTables;
pub use spec::SyntheticSpec;
