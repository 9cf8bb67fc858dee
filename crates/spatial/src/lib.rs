//! # recdb-spatial
//!
//! The PostGIS substitute for the paper's location-aware case study (§V).
//! RecDB integrates with PostGIS to spatially filter and rank recommended
//! POIs; the case study uses exactly three geometry functions plus a
//! combined score:
//!
//! * [`functions::st_contains`] — polygon/region containment (Query 6),
//! * [`functions::st_dwithin`] — within-distance predicate (Query 7),
//! * [`functions::st_distance`] — point distance (Query 8),
//! * [`functions::cscore`] — the combined rating/proximity score of
//!   Query 8's `ORDER BY CScore(...)`.
//!
//! The §V queries evaluate these predicates row by row over the
//! recommended POIs; there is no spatial index access path.

pub mod functions;
pub mod geom;

pub use functions::{cscore, st_contains, st_distance, st_dwithin};
pub use geom::{Point, Polygon, Rect};
