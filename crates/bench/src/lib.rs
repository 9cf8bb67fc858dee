//! # recdb-bench
//!
//! Shared scaffolding for the benchmark harness that regenerates every
//! table and figure of the paper's evaluation (§VI). `src/bin/
//! experiments.rs` is the one driver: one section per table, figure and
//! ablation.

pub mod harness;

pub use harness::*;
