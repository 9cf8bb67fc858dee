//! # recdb-wal
//!
//! The write-ahead log behind RecDB-rs durability: an append-only file of
//! length-prefixed, CRC32-checksummed logical redo records, fsynced at
//! commit points and pruned after checkpoints.
//!
//! * [`WalRecord`] — one logical record per mutating statement, and
//!   [`RecommenderDef`], the recommender definition it and the checkpoint
//!   metadata share,
//! * [`Wal`] — the log file: append / commit (fsync) / prune, with
//!   torn-tail detection on open,
//! * [`WalError`] — I/O, fault-injection, and corruption failures.
//!
//! The engine's contract: a statement is *committed* once its record's
//! [`Wal::commit`] returns `Ok`. Recovery replays every record newer than
//! the page-store checkpoint; records that never reached a commit are
//! discarded by the torn-tail scan as if the statement never ran.

// Engine-reachable paths must surface `WalError`, not panic
// (`clippy.toml` exempts `#[cfg(test)]` code).
#![warn(clippy::unwrap_used)]

pub mod error;
pub mod log;
pub mod record;

pub use error::{WalError, WalResult};
pub use log::{OpenedWal, Wal};
pub use record::{RecommenderDef, WalRecord};
