//! Transaction control (BEGIN/COMMIT/ROLLBACK and the implicit
//! transaction of an autocommitted statement), the table locks a
//! statement takes, and the physical undo log.
//!
//! Invariant: undo restores byte-identical pages, so a WAL written around
//! an aborted or half-applied statement replays to the same rids. Undo
//! has one form for rows: before a transaction first changes a page that
//! existed when it first wrote the table, it copies that page
//! (`ActiveTxn::capture_undo`, reading the pages off the statement's redo
//! record before it is applied). Rollback cuts the heap back to the
//! extent it had then, reinstalls the copies and the live count, and
//! rebuilds the table's indexes. A DELETE or UPDATE therefore pays for
//! the pages it touches, not for the table.

use super::statement_metrics::TxnOutcome;
use super::{QueryResult, RecDb};
use crate::error::{EngineError, EngineResult};
use crate::recommender::Recommender;
use crate::session::TxnState;
use recdb_guard::QueryGuard;
use recdb_sql::Statement;
use recdb_storage::{BTreeIndex, Catalog, HeapTable, Page, Table};
use recdb_txn::{LockError, LockMode, TxnId};
use recdb_wal::WalRecord;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl RecDb {
    /// Abort the transaction a failed statement ran in (if any). Inside an
    /// explicit transaction this rolls back the *whole* transaction, as in
    /// PostgreSQL without savepoints.
    pub(super) fn abort_failed_statement(&self, state: &mut TxnState, error: &EngineError) {
        if let Some(txn) = state.txn.take() {
            let outcome = if matches!(error, EngineError::LockTimeout { .. }) {
                TxnOutcome::Timeout
            } else {
                TxnOutcome::Abort
            };
            // The statement's own error is the one reported.
            let _ = self.abort_txn(txn, outcome);
        }
    }

    /// `BEGIN`: open an explicit transaction on this session.
    pub(super) fn begin_txn(&self, state: &mut TxnState) -> EngineResult<QueryResult> {
        if state.txn.is_some() {
            return Err(EngineError::TransactionActive);
        }
        self.enter_txn_gate();
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        state.txn = Some(ActiveTxn::new(id, false));
        Ok(QueryResult::TransactionStarted)
    }

    /// `COMMIT`: make the transaction durable (commit marker + fsync),
    /// apply its deferred recommender side effects, and release its locks.
    ///
    /// Fail point: `txn::commit` fires before the commit marker; an armed
    /// fault rolls the transaction back instead.
    pub(super) fn commit_txn(
        &self,
        state: &mut TxnState,
        guard: &QueryGuard,
    ) -> EngineResult<QueryResult> {
        let Some(txn) = state.txn.take() else {
            return Err(EngineError::NoActiveTransaction);
        };
        if let Err(e) = recdb_fault::fail_point("txn::commit") {
            let _ = self.abort_txn(txn, TxnOutcome::Abort);
            return Err(e.into());
        }
        if txn.wrote_wal {
            let result = {
                let _ckpt = self.ckpt_latch.read();
                let dur = self.durability.as_ref().expect("wrote_wal implies durable");
                let mut dur = dur.lock();
                dur.wal
                    .append(&WalRecord::TxnCommit { txn: txn.id })
                    .and_then(|_lsn| dur.wal.commit())
            };
            if let Err(e) = result {
                // The marker may or may not be durable; the abort path
                // writes a TxnAbort that unmarks it at recovery if it is.
                let _ = self.abort_txn(txn, TxnOutcome::Abort);
                return Err(e.into());
            }
        }
        // Past this point the transaction IS committed: a failing deferred
        // maintenance rebuild surfaces its error but undoes nothing.
        self.finish_commit(txn, guard)?;
        Ok(QueryResult::TransactionCommitted)
    }

    /// `ROLLBACK`: undo the transaction and release its locks. An undo
    /// step that fails (a heap page the pool cannot produce while the
    /// table's indexes are rebuilt) is this statement's error.
    ///
    /// Fail point: `txn::rollback` — the rollback itself still runs (undo
    /// must never be skipped); the armed fault only poisons the reported
    /// outcome.
    pub(super) fn rollback_txn(&self, state: &mut TxnState) -> EngineResult<QueryResult> {
        let Some(txn) = state.txn.take() else {
            return Err(EngineError::NoActiveTransaction);
        };
        let fault = recdb_fault::fail_point("txn::rollback");
        self.abort_txn(txn, TxnOutcome::Abort)?;
        fault?;
        Ok(QueryResult::TransactionRolledBack)
    }

    /// Roll a transaction back: apply its physical undo log in reverse,
    /// write a best-effort `TxnAbort` marker, release every lock, and
    /// leave the transaction gate. Every undo operation runs even when an
    /// earlier one fails — restoring a table's heap pages cannot fail
    /// halfway, but rebuilding its secondary indexes reads the heap back
    /// through the pool, which can — and the first such error is
    /// returned once the locks are released. A panic anywhere in the
    /// undo/WAL section is contained so the lock release below always
    /// runs. Without that containment an abandoned
    /// session whose abort path panics (an armed `wal::append` fault, a
    /// corrupted pre-image) would strand its X-locks until process exit
    /// — and, aborting from `Session::drop` during an unwind, turn into
    /// a double panic that kills the process.
    pub(crate) fn abort_txn(&self, mut txn: ActiveTxn, outcome: TxnOutcome) -> EngineResult<()> {
        let mut undo_error = None;
        let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Under the checkpoint latch: a snapshot must not capture the
            // half-undone (or half-done) state of an aborting statement.
            let _ckpt = self.ckpt_latch.read();
            if !txn.undo.is_empty() {
                let mut catalog = self.catalog.write();
                while let Some(op) = txn.undo.pop() {
                    if let Err(e) = self.undo_op(&mut catalog, op) {
                        undo_error.get_or_insert(e);
                    }
                }
            }
            if txn.wrote_wal {
                if let Some(dur) = &self.durability {
                    let mut dur = dur.lock();
                    // Best effort: recovery treats a missing commit marker
                    // as an abort anyway.
                    let _ = dur.wal.append(&WalRecord::TxnAbort { txn: txn.id });
                    let _ = dur.wal.commit();
                }
            }
        }));
        if contained.is_err() {
            self.metrics.counter("recdb_txn_abort_panics_total").inc();
        }
        self.locks.release_all(txn.id);
        if !txn.implicit {
            self.exit_txn_gate();
        }
        self.count_txn(outcome);
        undo_error.map_or(Ok(()), Err)
    }

    /// Apply one undo operation. Best-effort by construction: each op
    /// restores a state this transaction itself captured, so a missing
    /// table here means a later undo op (processed first, in reverse
    /// order) already covers it. `Err` only when restoring a table fails.
    fn undo_op(&self, catalog: &mut Catalog, op: UndoOp) -> EngineResult<()> {
        match op {
            UndoOp::TableData {
                name,
                page_count,
                live_tuples,
                pages,
            } => {
                if let Ok(t) = catalog.table_mut(&name) {
                    t.restore_heap(page_count, pages, live_tuples)?;
                }
            }
            UndoOp::CreatedTable { name } => {
                let _ = catalog.take_table(&name);
            }
            UndoOp::DroppedTable {
                table,
                recommenders,
            } => {
                catalog.restore_table(*table);
                recommenders.iter().for_each(|r| self.gauge_materialized(r));
                self.recommenders.write().extend(recommenders);
            }
            UndoOp::CreatedIndex { table, index } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.drop_index(&index);
                }
            }
            UndoOp::DroppedIndex { table, index } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    t.restore_index(*index);
                }
            }
            UndoOp::CreatedRecommender { name } => {
                self.recommenders
                    .write()
                    .retain(|r| !r.name().eq_ignore_ascii_case(&name));
                self.gauge_dropped(&name);
            }
            UndoOp::DroppedRecommender { recommender } => {
                self.gauge_materialized(&recommender);
                self.recommenders.write().push(recommender);
            }
        }
        Ok(())
    }

    /// Finish a committed transaction: apply its deferred recommender
    /// side effects under its still-held locks, then release them (and
    /// leave the checkpoint gate, for an explicit one).
    pub(super) fn finish_commit(&self, txn: ActiveTxn, guard: &QueryGuard) -> EngineResult<()> {
        let deferred = self.apply_deferred(&txn, guard);
        self.locks.release_all(txn.id);
        if !txn.implicit {
            self.exit_txn_gate();
        }
        self.count_txn(TxnOutcome::Commit);
        deferred
    }

    /// Count one finished transaction in `recdb_txn_total{outcome=…}`.
    fn count_txn(&self, outcome: TxnOutcome) {
        self.statement_metrics.txns[outcome as usize].inc();
    }

    /// The table locks a statement needs, deduplicated and in
    /// deterministic (sorted) order so multi-lock statements from
    /// different sessions can never deadlock each other.
    pub(super) fn statement_locks(
        &self,
        statement: &Statement,
    ) -> EngineResult<Vec<(String, LockMode)>> {
        use LockMode::{Exclusive, Shared};
        let mut locks: Vec<(String, LockMode)> = match statement {
            Statement::CreateTable { name, .. } | Statement::DropTable { name } => {
                vec![(name.to_ascii_lowercase(), Exclusive)]
            }
            Statement::Insert { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Update { table, .. }
            | Statement::CreateIndex { table, .. }
            | Statement::DropIndex { table, .. } => {
                vec![(table.to_ascii_lowercase(), Exclusive)]
            }
            Statement::CreateRecommender { ratings_table, .. } => {
                vec![(ratings_table.to_ascii_lowercase(), Exclusive)]
            }
            Statement::DropRecommender { name } => {
                // Resolve the recommender to its ratings table; dropping
                // is serialized with writers of that table.
                let rec = self
                    .recommender(name)
                    .ok_or_else(|| EngineError::RecommenderNotFound(name.clone()))?;
                vec![(rec.ratings_table().to_owned(), Exclusive)]
            }
            Statement::Select(select) | Statement::ExplainAnalyze(select) => select
                .from
                .iter()
                .map(|t| (t.table.to_ascii_lowercase(), Shared))
                .collect(),
            Statement::Explain(_) | Statement::Begin | Statement::Commit | Statement::Rollback => {
                Vec::new()
            }
        };
        // Sort by table, exclusive first, then keep the strongest mode
        // per table (dedup_by drops the *later* element of a pair).
        locks.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| (b.1 == Exclusive).cmp(&(a.1 == Exclusive)))
        });
        locks.dedup_by(|later, earlier| later.0 == earlier.0);
        Ok(locks)
    }

    /// Take `locks` for the session's transaction, first opening the
    /// implicit one a free-standing statement runs in.
    pub(super) fn acquire_locks(
        &self,
        state: &mut TxnState,
        locks: &[(String, LockMode)],
        guard: &QueryGuard,
    ) -> EngineResult<()> {
        if locks.is_empty() {
            return Ok(());
        }
        let txn = state.txn.get_or_insert_with(|| {
            ActiveTxn::new(self.next_txn.fetch_add(1, Ordering::Relaxed), true)
        });
        for (table, mode) in locks {
            self.locks
                .acquire(txn.id, table, *mode, self.config.lock_timeout, guard)
                .map_err(lock_to_engine)?;
        }
        Ok(())
    }

    /// The active transaction, after [`RecDb::acquire_locks`].
    pub(super) fn active(state: &mut TxnState) -> &mut ActiveTxn {
        state
            .txn
            .as_mut()
            .expect("statement with locks runs inside a transaction")
    }

    /// Append a statement's redo record for the enclosing transaction.
    /// Implicit transactions append + fsync immediately (plain records,
    /// byte-compatible with the pre-transaction WAL format); explicit
    /// transactions wrap records in [`WalRecord::InTxn`] and defer the
    /// fsync to COMMIT. Callers hold the checkpoint latch across the
    /// memory apply and this call.
    pub(super) fn log_statement(&self, txn: &mut ActiveTxn, record: WalRecord) -> EngineResult<()> {
        let Some(dur) = &self.durability else {
            return Ok(());
        };
        let mut dur = dur.lock();
        if txn.implicit {
            let result = dur.wal.append(&record).and_then(|_lsn| dur.wal.commit());
            if result.is_err() {
                // The record may or may not have reached disk. Keep the
                // applied mutation in memory — a crash-and-reopen that
                // finds the record would replay it, and live state must
                // not diverge from that outcome. (This preserves the
                // engine's pre-transaction fault-injection semantics.)
                txn.undo.clear();
                txn.data_saved.clear();
            }
            result?;
        } else {
            if !txn.wrote_wal {
                txn.wrote_wal = true;
                dur.wal.append(&WalRecord::TxnBegin { txn: txn.id })?;
            }
            dur.wal.append(&WalRecord::InTxn {
                txn: txn.id,
                record: Box::new(record),
            })?;
        }
        Ok(())
    }
}

/// Map a lock-layer failure to a first-class engine error.
fn lock_to_engine(e: LockError) -> EngineError {
    match e {
        LockError::Timeout { table, waited } => EngineError::LockTimeout { table, waited },
        LockError::Cancelled(g) => g.into(),
        LockError::Fault(f) => f.into(),
    }
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
    /// Per table written (keys lowercase): where in `undo` its
    /// [`UndoOp::TableData`] is, or `None` when this transaction created
    /// the table, whose undo drops it and needs no page copies.
    data_saved: BTreeMap<String, Option<usize>>,
    /// Whether this transaction has appended anything to the WAL (and so
    /// needs a commit/abort marker).
    pub(crate) wrote_wal: bool,
    /// Recommender item-statistics updates `(recommender, item)` from this
    /// transaction's writes, applied only if it commits.
    pub(crate) deferred_stats: Vec<(Arc<Recommender>, i64)>,
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

    /// Capture what undoing `record` needs, before it is applied to
    /// `catalog`. Table names in records are lowercase.
    ///
    /// Rows get page copies ([`ActiveTxn::save_pages`]); a create gets a
    /// drop (a table created here needs no copies); a drop's undo comes
    /// from the apply, which returns the dropped object. A DDL record the
    /// apply will refuse gets no undo — a drop captured for a `CREATE` of
    /// an existing name would destroy it on rollback.
    pub(crate) fn capture_undo(
        &mut self,
        catalog: &Catalog,
        record: &WalRecord,
    ) -> EngineResult<()> {
        match record {
            WalRecord::Insert { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::Update { table, .. } => {
                self.save_pages(table, catalog.table(table)?.heap(), record)?;
            }
            WalRecord::CreateTable { name, .. } if !catalog.contains(name) => {
                self.undo.push(UndoOp::CreatedTable { name: name.clone() });
                self.data_saved.insert(name.clone(), None);
            }
            WalRecord::CreateIndex { table, index, .. }
                if catalog.table(table).is_ok_and(|t| t.index(index).is_err()) =>
            {
                self.undo.push(UndoOp::CreatedIndex {
                    table: table.clone(),
                    index: index.clone(),
                });
            }
            WalRecord::DropTable { name } => {
                self.data_saved.remove(name);
            }
            _ => {}
        }
        Ok(())
    }

    /// Copy each page of `heap` that `record` is about to change and that
    /// existed when this transaction first wrote the table: the last page
    /// for an `Insert`, the rids' pages for a `Delete`, both for an
    /// `Update`. The first write also saves the heap's extent and live
    /// count. Pages past that extent are this transaction's own appends,
    /// which undo cuts off instead.
    fn save_pages(
        &mut self,
        table: &str,
        heap: &HeapTable,
        record: &WalRecord,
    ) -> EngineResult<()> {
        let at = match self.data_saved.get(table) {
            Some(None) => return Ok(()),
            Some(Some(at)) => *at,
            None => {
                self.undo.push(UndoOp::TableData {
                    name: table.to_owned(),
                    page_count: heap.page_count() as u32,
                    live_tuples: heap.tuple_count(),
                    pages: BTreeMap::new(),
                });
                self.data_saved
                    .insert(table.to_owned(), Some(self.undo.len() - 1));
                self.undo.len() - 1
            }
        };
        let UndoOp::TableData {
            page_count, pages, ..
        } = &mut self.undo[at]
        else {
            unreachable!("data_saved points at a TableData undo");
        };
        let last = (heap.page_count() as u32).checked_sub(1);
        let changed: Vec<u32> = match record {
            WalRecord::Delete { rids, .. } => rids.iter().map(|rid| rid.page).collect(),
            WalRecord::Update { changes, .. } => changes
                .iter()
                .map(|(rid, _)| rid.page)
                .chain(last)
                .collect(),
            _ => last.into_iter().collect(),
        };
        for page in changed {
            if page < *page_count {
                if let Entry::Vacant(slot) = pages.entry(page) {
                    slot.insert(heap.page_image(page)?);
                }
            }
        }
        Ok(())
    }

    /// Queue recommender side effects of a write to `table` (lowercase)
    /// for commit time.
    pub(crate) fn defer_stats(&mut self, table: String, items: Vec<(Arc<Recommender>, i64)>) {
        self.deferred_stats.extend(items);
        self.touched.insert(table);
    }
}

/// One physical undo action. Applied in reverse push order on abort.
pub(crate) enum UndoOp {
    /// Put a table's heap back as it was when this transaction first wrote
    /// it: cut it to `page_count` pages, reinstall the copies of the pages
    /// it changed below that, and restore the live count.
    TableData {
        name: String,
        page_count: u32,
        live_tuples: u64,
        pages: BTreeMap<u32, Page>,
    },
    /// The transaction created this table: drop it.
    CreatedTable { name: String },
    /// The transaction dropped this table (and its recommenders):
    /// reinstall both.
    DroppedTable {
        table: Box<Table>,
        recommenders: Vec<Arc<Recommender>>,
    },
    /// The transaction created this index: drop it.
    CreatedIndex { table: String, index: String },
    /// The transaction dropped this index: reinstall it. Undo has already
    /// put the heap back to what the index was dropped over.
    DroppedIndex {
        table: String,
        index: Box<BTreeIndex>,
    },
    /// The transaction created this recommender: remove it.
    CreatedRecommender { name: String },
    /// The transaction dropped this recommender: reinstall it.
    DroppedRecommender { recommender: Arc<Recommender> },
}

impl std::fmt::Debug for UndoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UndoOp::TableData {
                name,
                page_count,
                pages,
                ..
            } => write!(
                f,
                "TableData({name}, {} of {page_count} pages)",
                pages.len()
            ),
            UndoOp::CreatedTable { name } => write!(f, "CreatedTable({name})"),
            UndoOp::DroppedTable { table, .. } => write!(f, "DroppedTable({})", table.name()),
            UndoOp::CreatedIndex { table, index } => write!(f, "CreatedIndex({table}.{index})"),
            UndoOp::DroppedIndex { table, index } => {
                write!(f, "DroppedIndex({table}.{})", index.name())
            }
            UndoOp::CreatedRecommender { name } => write!(f, "CreatedRecommender({name})"),
            UndoOp::DroppedRecommender { recommender } => {
                write!(f, "DroppedRecommender({})", recommender.name())
            }
        }
    }
}
