//! Sessions and transaction state.
//!
//! A [`Session`] is one logical connection to a shared [`RecDb`]: it owns
//! the `BEGIN`/`COMMIT`/`ROLLBACK` state for that connection and routes
//! its statements through the engine's lock table. Statements executed
//! outside an explicit transaction auto-commit, but still run inside an
//! *implicit* transaction so that a failed (or panicked, or cancelled)
//! statement rolls its partial effects back and releases its locks.
//!
//! Undo is physical and read off the statement's redo record
//! (`ActiveTxn::capture_undo`) before the record is applied: before the
//! first change a transaction makes to a table it keeps a pre-image — the
//! cheap "tail" form (page count plus a copy of the last page) for
//! append-only INSERTs, the full page vector for DELETE/UPDATE — and
//! rollback restores those bytes exactly. Byte-identical restoration keeps
//! record-id assignment deterministic, which WAL replay relies on.
//!
//! A session also caches its `SELECT` and `INSERT` statements by template
//! (see `statement_cache`), so a repeat of a statement shape with new
//! literals is neither parsed nor planned again.

use crate::engine::{QueryResult, RecDb, TxnOutcome};
use crate::error::{EngineError, EngineResult};
use crate::recommender::Recommender;
use crate::statement_cache::{CacheOutcome, StatementCache};
use recdb_exec::ResultSet;
use recdb_guard::QueryGuard;
use recdb_storage::{Catalog, Page, Table};
use recdb_txn::TxnId;
use recdb_wal::WalRecord;
use std::collections::{BTreeMap, BTreeSet};

/// One logical connection to a shared [`RecDb`].
///
/// Sessions are cheap; create one per thread of work. Each session has at
/// most one open transaction. Any statement failure inside an explicit
/// transaction — including a lock timeout, a cancelled guard, or a
/// contained panic — aborts the whole transaction (strict two-phase
/// locking keeps no partial statements), and the session is immediately
/// usable for a fresh `BEGIN`.
///
/// Dropping a session with an open transaction rolls it back.
pub struct Session<'db> {
    db: &'db RecDb,
    pub(crate) state: TxnState,
    statements: StatementCache,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db RecDb) -> Self {
        Session {
            db,
            state: TxnState::default(),
            statements: StatementCache::default(),
        }
    }

    /// The engine this session talks to.
    pub fn db(&self) -> &'db RecDb {
        self.db
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.state.txn.as_ref().is_some_and(|t| !t.implicit)
    }

    /// Execute one SQL statement in this session under the engine's
    /// configured resource limits.
    pub fn execute(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let guard = self.db.config().governor.guard();
        self.execute_with_guard(sql, guard)
    }

    /// Execute one SQL statement under an explicit [`QueryGuard`].
    /// Cancelling the guard while the statement waits for a table lock
    /// abandons the wait, aborts the transaction, and releases every lock
    /// it held.
    ///
    /// A `SELECT` or `INSERT` whose template this session has run before
    /// is not parsed or planned again: its cached statement runs with the
    /// new literal values.
    pub fn execute_with_guard(
        &mut self,
        sql: &str,
        guard: QueryGuard,
    ) -> EngineResult<QueryResult> {
        let db = self.db;
        let normalized = recdb_sql::normalize(sql);
        if let Some(n) = &normalized {
            if let Some(prepared) = self.statements.get_mut(&n.template) {
                db.count_statement_cache(CacheOutcome::Hit);
                return db.execute_prepared(&mut self.state, prepared, &n.params, guard);
            }
        }
        let statement = recdb_sql::parse(sql).inspect_err(|_| {
            db.count_statement_cache(CacheOutcome::Uncacheable);
        })?;
        let cacheable = normalized.and_then(|n| {
            let prepared = db.prepare(&statement, &n.params)?;
            Some((n, prepared))
        });
        let Some((n, prepared)) = cacheable else {
            db.count_statement_cache(CacheOutcome::Uncacheable);
            return db.execute_statement(&mut self.state, statement, guard);
        };
        db.count_statement_cache(CacheOutcome::Miss);
        let prepared = self.statements.insert(n.template, prepared);
        db.execute_prepared(&mut self.state, prepared, &n.params, guard)
    }

    /// Execute a `;`-separated script, stopping at the first error.
    pub fn execute_script(&mut self, sql: &str) -> EngineResult<Vec<QueryResult>> {
        let statements = recdb_sql::parse_many(sql)?;
        statements
            .into_iter()
            .map(|s| {
                let guard = self.db.config().governor.guard();
                self.db.execute_statement(&mut self.state, s, guard)
            })
            .collect()
    }

    /// Execute a SELECT and return its rows (convenience).
    pub fn query(&mut self, sql: &str) -> EngineResult<ResultSet> {
        match self.execute(sql)? {
            QueryResult::Rows(r) => Ok(r),
            _ => Err(EngineError::Exec(recdb_exec::ExecError::Unsupported(
                "statement did not produce rows".into(),
            ))),
        }
    }

    /// Execute a SELECT under an explicit [`QueryGuard`] and return its
    /// rows.
    pub fn query_with_guard(&mut self, sql: &str, guard: QueryGuard) -> EngineResult<ResultSet> {
        match self.execute_with_guard(sql, guard)? {
            QueryResult::Rows(r) => Ok(r),
            _ => Err(EngineError::Exec(recdb_exec::ExecError::Unsupported(
                "statement did not produce rows".into(),
            ))),
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.state.txn.take() {
            // Nothing to report an undo failure to from `drop`.
            let _ = self.db.abort_txn(txn, TxnOutcome::Abort);
        }
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("in_transaction", &self.in_transaction())
            .finish_non_exhaustive()
    }
}

/// Per-session transaction slot: `None` between statements outside an
/// explicit transaction.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    pub(crate) txn: Option<ActiveTxn>,
}

/// What kind of data pre-image a transaction already holds for a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataSave {
    /// Append-only pre-image: undo truncates back to the saved extent.
    Tail,
    /// Full page pre-image: undo restores every page. Subsumes `Tail`.
    Full,
    /// The table was created by this transaction: undo drops it, so no
    /// data pre-image is ever needed.
    Created,
}

/// One live transaction: its lock-table identity, its undo log, and the
/// side effects deferred to commit.
#[derive(Debug)]
pub(crate) struct ActiveTxn {
    pub(crate) id: TxnId,
    /// Implicit transactions wrap a single auto-committed statement; they
    /// never enter the checkpoint txn-gate and end with their statement.
    pub(crate) implicit: bool,
    /// Physical undo log, applied in reverse on abort.
    pub(crate) undo: Vec<UndoOp>,
    /// Strongest data pre-image captured per table (keys lowercase).
    data_saved: BTreeMap<String, DataSave>,
    /// Whether this transaction has appended anything to the WAL (and so
    /// needs a commit/abort marker).
    pub(crate) wrote_wal: bool,
    /// Recommender item-statistics updates `(recommender, item)` from this
    /// transaction's writes, applied only if it commits.
    pub(crate) deferred_stats: Vec<(String, i64)>,
    /// Tables written by this transaction (lowercase), for the commit-time
    /// N% maintenance pass.
    pub(crate) touched: BTreeSet<String>,
}

impl ActiveTxn {
    pub(crate) fn new(id: TxnId, implicit: bool) -> Self {
        ActiveTxn {
            id,
            implicit,
            undo: Vec::new(),
            data_saved: BTreeMap::new(),
            wrote_wal: false,
            deferred_stats: Vec::new(),
            touched: BTreeSet::new(),
        }
    }

    pub(crate) fn push_undo(&mut self, op: UndoOp) {
        self.undo.push(op);
    }

    /// Capture what undoing `record` needs, before it is applied to
    /// `catalog`. Table names in records are lowercase.
    ///
    /// * `Insert`: the table's append-only pre-image, unless one already
    ///   covers it.
    /// * `Delete`/`Update`: the full page pre-image, unless a full one (or
    ///   a created-by-this-txn note) covers it. An existing `Tail` entry is
    ///   escalated: the full snapshot is pushed *after* it, and
    ///   reverse-order undo applies the full restore first, then the tail
    ///   truncation — landing exactly on the transaction's start state.
    /// * `CreateTable`/`CreateIndex`: a drop, and for a table no data
    ///   pre-image for its writes.
    /// * `DropIndex`: the key columns to re-create it from.
    /// * `DropTable`: the table itself, which the apply returns and the
    ///   caller keeps; here a later re-CREATE in this transaction just
    ///   starts its pre-image tracking fresh.
    ///
    /// A DDL record the apply will refuse (a taken name, a missing table
    /// or index) changes nothing and gets no undo — a drop captured for a
    /// `CREATE` of an existing name would destroy it on rollback.
    pub(crate) fn capture_undo(
        &mut self,
        catalog: &Catalog,
        record: &WalRecord,
    ) -> EngineResult<()> {
        match record {
            WalRecord::Insert { table, .. } if !self.data_saved.contains_key(table) => {
                let (page_count, last_page) = catalog.table(table)?.snapshot_tail()?;
                self.undo.push(UndoOp::TableTail {
                    name: table.clone(),
                    page_count,
                    last_page,
                });
                self.data_saved.insert(table.clone(), DataSave::Tail);
            }
            WalRecord::Delete { table, .. } | WalRecord::Update { table, .. }
                if !matches!(
                    self.data_saved.get(table),
                    Some(DataSave::Full | DataSave::Created)
                ) =>
            {
                let pages = catalog.table(table)?.snapshot_pages()?;
                self.undo.push(UndoOp::TablePages {
                    name: table.clone(),
                    pages,
                });
                self.data_saved.insert(table.clone(), DataSave::Full);
            }
            WalRecord::CreateTable { name, .. } if !catalog.contains(name) => {
                self.undo.push(UndoOp::CreatedTable { name: name.clone() });
                self.data_saved.insert(name.clone(), DataSave::Created);
            }
            WalRecord::CreateIndex { table, index, .. }
                if catalog.table(table).is_ok_and(|t| t.index(index).is_err()) =>
            {
                self.undo.push(UndoOp::CreatedIndex {
                    table: table.clone(),
                    index: index.clone(),
                });
            }
            WalRecord::DropIndex { table, index } => {
                let Ok(t) = catalog.table(table) else {
                    return Ok(());
                };
                let Ok(idx) = t.index(index) else {
                    return Ok(());
                };
                let schema = t.schema();
                let columns = idx
                    .key_columns()
                    .iter()
                    .map(|&o| {
                        let col = schema.column(o).expect("index key ordinal within schema");
                        col.name.clone()
                    })
                    .collect();
                self.undo.push(UndoOp::DroppedIndex {
                    table: table.clone(),
                    index: index.clone(),
                    columns,
                });
            }
            WalRecord::DropTable { name } => {
                self.data_saved.remove(name);
            }
            _ => {}
        }
        Ok(())
    }

    /// Queue recommender side effects of a write to `table` (lowercase)
    /// for commit time.
    pub(crate) fn defer_stats(&mut self, table: String, items: Vec<(String, i64)>) {
        self.deferred_stats.extend(items);
        self.touched.insert(table);
    }
}

/// One physical undo action. Applied in reverse push order on abort.
pub(crate) enum UndoOp {
    /// Truncate a table's heap back to an append-only snapshot point.
    TableTail {
        name: String,
        page_count: usize,
        last_page: Option<Page>,
    },
    /// Restore a table's full page pre-image.
    TablePages { name: String, pages: Vec<Page> },
    /// The transaction created this table: drop it.
    CreatedTable { name: String },
    /// The transaction dropped this table (and its recommenders):
    /// reinstall both.
    DroppedTable {
        table: Box<Table>,
        recommenders: Vec<Recommender>,
    },
    /// The transaction created this index: drop it.
    CreatedIndex { table: String, index: String },
    /// The transaction dropped this index: re-create it (the rebuild
    /// backfills from the heap, which undo has already restored).
    DroppedIndex {
        table: String,
        index: String,
        columns: Vec<String>,
    },
    /// The transaction created this recommender: remove it.
    CreatedRecommender { name: String },
    /// The transaction dropped this recommender: reinstall it.
    DroppedRecommender { recommender: Box<Recommender> },
}

impl std::fmt::Debug for UndoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UndoOp::TableTail {
                name, page_count, ..
            } => write!(f, "TableTail({name}, {page_count} pages)"),
            UndoOp::TablePages { name, pages } => {
                write!(f, "TablePages({name}, {} pages)", pages.len())
            }
            UndoOp::CreatedTable { name } => write!(f, "CreatedTable({name})"),
            UndoOp::DroppedTable { table, .. } => write!(f, "DroppedTable({})", table.name()),
            UndoOp::CreatedIndex { table, index } => write!(f, "CreatedIndex({table}.{index})"),
            UndoOp::DroppedIndex { table, index, .. } => {
                write!(f, "DroppedIndex({table}.{index})")
            }
            UndoOp::CreatedRecommender { name } => write!(f, "CreatedRecommender({name})"),
            UndoOp::DroppedRecommender { recommender } => {
                write!(f, "DroppedRecommender({})", recommender.name())
            }
        }
    }
}
