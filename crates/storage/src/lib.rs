//! # recdb-storage
//!
//! The storage substrate for RecDB-rs: an in-process relational storage
//! engine modelled on the access paths the RecDB paper (ICDE 2017) assumes
//! from PostgreSQL.
//!
//! It provides:
//!
//! * [`value::Value`] / [`value::DataType`] — the dynamic value system,
//! * [`schema::Schema`] — column metadata with alias-aware resolution,
//! * [`tuple::Tuple`] — a row of values,
//! * [`page::Page`] — an 8 KiB slotted page holding binary-encoded tuples,
//! * [`heap::HeapTable`] — a page-based heap with block-at-a-time scans,
//! * [`pool::BufferPool`] — fixed-capacity frames with clock eviction;
//!   every heap page and B+-tree node is resident in (or faulted into) a
//!   pool frame, so data ≫ RAM workloads run in bounded memory,
//! * [`btree::BTree`] — a paged B+-tree over pool frames, the one ordered
//!   index structure: it holds the engine's RecScoreIndex and every
//!   secondary index,
//! * [`index::BTreeIndex`] — a secondary index: one tree key per row, an
//!   equality lookup that rechecks the rows it fetches,
//! * [`catalog::Catalog`] — the table catalog.
//!
//! Page accesses are counted in one place: the pool's
//! [`pool::BufferPool::hits`] / [`pool::BufferPool::misses`], exported as
//! the `recdb_buffer_pool_hits_total` / `recdb_buffer_pool_misses_total`
//! series.
//!
//! The paper's recommendation-aware operators (ItemCF-Recommend etc.) are
//! specified as *block-nested-loop* algorithms over tables fetched "block by
//! block"; this crate exposes exactly that granularity via
//! [`heap::HeapTable::visit_run`], which hands the visitor each page's rows
//! undecoded ([`page::PageView::live_rows`] over [`tuple::RowRef`]), a run
//! of up to [`pool::SCAN_RUN`] pages per call.

// Engine-reachable paths must surface `StorageError`, not panic
// (`clippy.toml` exempts `#[cfg(test)]` code).
#![warn(clippy::unwrap_used)]

mod block;
pub mod btree;
pub mod catalog;
pub mod checksum;
pub mod codec;
pub mod error;
pub mod heap;
pub mod index;
pub mod page;
pub mod pagefile;
pub mod pool;
pub mod schema;
pub mod tuple;
pub mod value;

pub use btree::{BTree, RangeCursor, DEFAULT_NODE_CAPACITY, KEY_SIZE};
pub use catalog::{Catalog, Table};
pub use checksum::crc32;
pub use codec::Reader;
pub use error::{StorageError, StorageResult};
pub use heap::{HeapTable, Rid};
pub use index::BTreeIndex;
pub use page::{Page, PageView, PAGE_HEADER_SIZE, PAGE_SIZE};
pub use pagefile::{read_snapshot, write_snapshot, RecoveryMode, Snapshot};
pub use pool::{BufferPool, FileId, FileKind, FrameData, ScanBuffer};
pub use schema::{Column, Schema};
pub use tuple::{Field, Malformed, RowRef, Tuple};
pub use value::{DataType, Value, ValueRef};
