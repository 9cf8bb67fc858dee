//! Sessions and transaction state.
//!
//! A [`Session`] is one logical connection to a shared [`RecDb`]: it owns
//! the `BEGIN`/`COMMIT`/`ROLLBACK` state for that connection and routes
//! its statements through the engine's lock table. Statements executed
//! outside an explicit transaction auto-commit, but still run inside an
//! *implicit* transaction so that a failed (or panicked, or cancelled)
//! statement rolls its partial effects back and releases its locks.
//!
//! A session also caches its `SELECT` and `INSERT` statements by template
//! (see `statement_cache`), so a repeat of a statement shape with new
//! literals is neither parsed nor planned again.

use crate::engine::txn::ActiveTxn;
use crate::engine::{QueryResult, RecDb, TxnOutcome};
use crate::error::EngineResult;
use crate::statement_cache::{CacheOutcome, StatementCache};
use recdb_exec::ResultSet;
use recdb_guard::QueryGuard;

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
        let guard = || self.db.config().governor.guard();
        let statements = recdb_sql::parse_many(sql)?.into_iter();
        statements
            .map(|s| self.db.execute_statement(&mut self.state, s, guard()))
            .collect()
    }

    /// Execute a SELECT and return its rows (convenience).
    pub fn query(&mut self, sql: &str) -> EngineResult<ResultSet> {
        self.execute(sql)?.expect_rows()
    }

    /// Execute a SELECT under an explicit [`QueryGuard`] and return its
    /// rows.
    pub fn query_with_guard(&mut self, sql: &str, guard: QueryGuard) -> EngineResult<ResultSet> {
        self.execute_with_guard(sql, guard)?.expect_rows()
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
