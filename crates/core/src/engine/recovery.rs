//! Opening an engine, crash recovery, checkpoints, and the one function
//! that applies a table or index redo record.
//!
//! Invariant: live statements and WAL replay change a catalog only
//! through `apply_record`, so replay rebuilds the live heaps byte for byte
//! and every rid a later `Delete`/`Update` record names. A checkpoint
//! first drains explicit transactions, so no transaction's records
//! straddle the point where the log is pruned.

use super::statement_metrics::StatementMetrics;
use super::txn::UndoOp;
use super::{RecDb, RecDbConfig};
use crate::error::{EngineError, EngineResult};
use crate::recommender::{build_version, Recommender};
use crate::session::TxnState;
use parking_lot::{Mutex, RwLock};
use recdb_exec::ExecMetrics;
use recdb_guard::QueryGuard;
use recdb_obs::{Clock, Registry, SystemClock};
use recdb_storage::{
    codec, read_snapshot, write_snapshot, BufferPool, Catalog, Reader, RecoveryMode, StorageError,
};
use recdb_txn::{LockTable, TxnId};
use recdb_wal::{RecommenderDef, Wal, WalRecord};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

/// WAL file name within a data directory.
const WAL_FILE: &str = "wal.log";

/// How long a draining checkpoint parks between re-checks of the
/// transaction gate.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Durable-mode state: the data directory and its open write-ahead log.
/// Present only on engines built via [`RecDb::open`] /
/// [`RecDb::open_with_config`].
///
/// There is deliberately no `Drop` impl that flushes state: dropping a
/// durable engine without calling [`RecDb::checkpoint`] is exactly a crash,
/// and recovery must cope (the crash-matrix tests rely on this).
#[derive(Debug)]
pub(super) struct Durability {
    pub(super) dir: PathBuf,
    pub(super) wal: Wal,
}

/// The gate a checkpoint closes to drain explicit transactions: no new
/// `BEGIN` is admitted while `draining`, and the checkpoint proceeds once
/// `active` reaches zero.
#[derive(Debug, Default)]
pub(super) struct TxnGate {
    /// Open explicit transactions (implicit single-statement transactions
    /// never enter the gate; the checkpoint latch serializes those).
    active: usize,
    /// A checkpoint is waiting for the gate to empty.
    draining: bool,
}

impl RecDb {
    /// The engine around its state, fresh or recovered — what both
    /// [`RecDb::with_config`] and [`RecDb::open_with_config`] return. The
    /// pool's and the lock table's metrics attach here; the registry then
    /// renders the pool's own counters, with the counts recovery took.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn assemble(
        config: RecDbConfig,
        pool: Arc<BufferPool>,
        metrics: Arc<Registry>,
        catalog: Catalog,
        recommenders: Vec<Arc<Recommender>>,
        clock: u64,
        durability: Option<Durability>,
        next_txn: TxnId,
    ) -> Self {
        pool.attach_metrics(&metrics);
        let locks = LockTable::new();
        locks.attach_metrics(&metrics);
        RecDb {
            catalog: RwLock::new(catalog),
            recommenders: RwLock::new(recommenders),
            wall: profile_clock_or_wall(&config),
            config,
            clock: AtomicU64::new(clock),
            durability: durability.map(Mutex::new),
            pool,
            exec_metrics: ExecMetrics::resolve(&metrics),
            statement_metrics: StatementMetrics::resolve(&metrics),
            rows_returned: metrics.counter("recdb_rows_returned_total"),
            metrics,
            locks,
            next_txn: AtomicU64::new(next_txn),
            gate: StdMutex::new(TxnGate::default()),
            gate_cond: Condvar::new(),
            ckpt_latch: RwLock::new(()),
            default_session: Mutex::new(TxnState::default()),
        }
    }

    /// Open (or create) a durable engine rooted at `dir` with default
    /// configuration, running crash recovery: restore the latest
    /// checkpoint, verify page checksums, replay the WAL tail, and rebuild
    /// recommender models from the recovered ratings.
    pub fn open(dir: impl Into<PathBuf>) -> EngineResult<Self> {
        RecDb::open_with_config(RecDbConfig {
            data_dir: Some(dir.into()),
            ..RecDbConfig::default()
        })
    }

    /// Open an engine with explicit configuration. With
    /// `config.data_dir = None` this is just [`RecDb::with_config`];
    /// otherwise it recovers durable state from the directory:
    ///
    /// 1. Restore the newest checkpoint (`catalog.meta` + page files),
    ///    verifying every page checksum under `config.recovery`.
    /// 2. Scan the WAL once to find committed transactions: a transaction's
    ///    [`WalRecord::InTxn`] records replay only if its `TxnCommit`
    ///    marker made it to disk (a later `TxnAbort` unmarks it).
    /// 3. Replay surviving records with LSN beyond the checkpoint through
    ///    `apply_record`, the function live statements apply them with,
    ///    so replay reproduces identical record ids.
    /// 4. Rebuild recommender models from their recovered definitions —
    ///    models are derived state and are never logged.
    pub fn open_with_config(config: RecDbConfig) -> EngineResult<Self> {
        let Some(dir) = config.data_dir.clone() else {
            return Ok(RecDb::with_config(config));
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| EngineError::Storage(StorageError::io("create data dir", e)))?;
        // Evicted frames spill to scratch files under the data directory;
        // recovery never reads them (crash safety stays checkpoint + WAL).
        // Their names hold this run's file ids, so the files an earlier
        // run left behind are deleted rather than piling up.
        let spill_dir = dir.join("pool");
        if let Err(e) = std::fs::remove_dir_all(&spill_dir) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(StorageError::io("clear spill dir", e).into());
            }
        }
        let pool = Arc::new(BufferPool::spilling(config.buffer_pool_pages, spill_dir));
        let snapshot = read_snapshot(&dir, config.recovery, Arc::clone(&pool))?;
        let (mut catalog, meta, checkpoint_lsn) = match snapshot {
            Some(s) => (s.catalog, s.meta, s.lsn),
            None => (Catalog::with_pool(Arc::clone(&pool)), Vec::new(), 0),
        };
        // The checkpoint's metadata blob: a count, then one definition per
        // recommender (empty for a fresh database).
        let mut defs = Vec::new();
        if !meta.is_empty() {
            let mut r = Reader::new(&meta, "recommender metadata");
            for _ in 0..r.take_u32()? {
                defs.push(RecommenderDef::take(&mut r)?);
            }
        }
        let opened = Wal::open(&dir.join(WAL_FILE), checkpoint_lsn)?;
        let salvage = matches!(config.recovery, RecoveryMode::SalvageToLastGood);
        let metrics = Arc::new(Registry::new());
        if let Some(bytes) = opened.truncated {
            metrics
                .counter("recdb_recovery_truncated_bytes_total")
                .add(bytes);
        }
        // Pass 1: which transactions committed, and the highest txn id the
        // log has ever seen (the id counter must restart past it, or a new
        // uncommitted transaction could alias an old commit marker).
        let mut committed: BTreeSet<TxnId> = BTreeSet::new();
        let mut max_txn: TxnId = 0;
        for (_, record) in &opened.records {
            match record {
                WalRecord::TxnBegin { txn } | WalRecord::InTxn { txn, .. } => {
                    max_txn = max_txn.max(*txn);
                }
                WalRecord::TxnCommit { txn } => {
                    max_txn = max_txn.max(*txn);
                    committed.insert(*txn);
                }
                // An abort marker *after* a commit marker unmarks it: the
                // abort path writes one when the commit fsync fails, and
                // the live engine rolled the transaction back.
                WalRecord::TxnAbort { txn } => {
                    max_txn = max_txn.max(*txn);
                    committed.remove(txn);
                }
                _ => {}
            }
        }
        // Pass 2: redo. Bare records (auto-committed statements) always
        // replay; wrapped ones only if their transaction committed.
        let mut clock = 0u64;
        let mut replayed = 0u64;
        for (lsn, record) in opened.records {
            if lsn <= checkpoint_lsn {
                // Already reflected in the restored pages.
                continue;
            }
            let record = match record {
                WalRecord::TxnBegin { .. }
                | WalRecord::TxnCommit { .. }
                | WalRecord::TxnAbort { .. } => continue,
                WalRecord::InTxn { txn, record } => {
                    if committed.contains(&txn) {
                        *record
                    } else {
                        continue;
                    }
                }
                other => other,
            };
            clock += 1;
            replayed += 1;
            match apply_record(&mut catalog, &record) {
                Ok(_) => {}
                // Salvaged (blanked) pages make previously valid record
                // ids dangle; in salvage mode those redo ops are skipped.
                Err(EngineError::Storage(StorageError::InvalidRid { .. })) if salvage => {}
                Err(e) => return Err(e),
            }
            replay_definitions(record, &mut defs);
        }
        metrics
            .counter("recdb_recovery_replayed_records_total")
            .add(replayed);
        // Models are derived state: each is retrained from its definition
        // and the recovered ratings by the build a live CREATE RECOMMENDER
        // runs. Its guard is unlimited, so a statement deadline cannot fail
        // an open; its fault sites are live.
        let catalog = RwLock::new(catalog);
        let guard = QueryGuard::unlimited();
        let mut recommenders = Vec::new();
        for def in defs {
            let version = build_version(&def, &config.train, &catalog, None, &guard)?;
            let pool = Arc::clone(&pool);
            recommenders.push(Arc::new(Recommender::new(
                def,
                version,
                config.hotness_threshold,
                clock,
                pool,
            )?));
        }
        let catalog = catalog.into_inner();
        let mut wal = opened.wal;
        wal.attach_metrics(&metrics);
        let durability = Some(Durability { dir, wal });
        Ok(RecDb::assemble(
            config,
            pool,
            metrics,
            catalog,
            recommenders,
            clock,
            durability,
            max_txn + 1,
        ))
    }

    /// Snapshot all heap pages and catalog/recommender metadata to the
    /// data directory, then prune the WAL records the snapshot covers.
    /// A no-op for in-memory engines.
    ///
    /// The checkpoint first *drains* explicit transactions: new `BEGIN`s
    /// wait, and the snapshot proceeds once open transactions finish (a
    /// transaction's WAL records must never straddle the prune point).
    /// If they do not finish within [`RecDbConfig::lock_timeout`] the
    /// checkpoint gives up with [`EngineError::CheckpointContended`].
    pub fn checkpoint(&self) -> EngineResult<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let _drain = self.drain_explicit_txns()?;
        let _ckpt = self.ckpt_latch.write();
        let mut catalog = self.catalog.write();
        let mut meta = Vec::new();
        {
            let recs = self.recommenders.read();
            codec::put_u32(&mut meta, recs.len() as u32);
            for rec in recs.iter() {
                rec.def().put(&mut meta);
            }
        }
        let dur = self.durability.as_ref().expect("checked durable above");
        let mut dur = dur.lock();
        let lsn = dur.wal.last_lsn();
        write_snapshot(&dur.dir, &mut catalog, &meta, lsn)?;
        dur.wal.prune(lsn)?;
        Ok(())
    }

    /// Close the transaction gate and wait for open explicit transactions
    /// to finish. The returned guard reopens the gate on drop (success or
    /// error paths alike).
    fn drain_explicit_txns(&self) -> EngineResult<DrainGuard<'_>> {
        let budget = self.config.lock_timeout;
        let started = Instant::now();
        let mut gate = lock_gate(&self.gate);
        loop {
            if !gate.draining && gate.active == 0 {
                break;
            }
            let waited = started.elapsed();
            if waited >= budget {
                return Err(EngineError::CheckpointContended {
                    active: gate.active,
                    waited,
                });
            }
            let (next, _) = self
                .gate_cond
                .wait_timeout(gate, DRAIN_POLL)
                .unwrap_or_else(|e| e.into_inner());
            gate = next;
        }
        gate.draining = true;
        drop(gate);
        Ok(DrainGuard {
            gate: &self.gate,
            cond: &self.gate_cond,
        })
    }

    /// Count an explicit transaction in (BEGIN). Waits while a checkpoint
    /// is draining — BEGIN has no timeout budget of its own; the
    /// checkpoint's drain is bounded, so the wait is short.
    pub(super) fn enter_txn_gate(&self) {
        let mut gate = lock_gate(&self.gate);
        while gate.draining {
            let (next, _) = self
                .gate_cond
                .wait_timeout(gate, DRAIN_POLL)
                .unwrap_or_else(|e| e.into_inner());
            gate = next;
        }
        gate.active += 1;
    }

    /// Count an explicit transaction out (COMMIT/ROLLBACK/abort).
    pub(super) fn exit_txn_gate(&self) {
        lock_gate(&self.gate).active -= 1;
        self.gate_cond.notify_all();
    }
}

/// Reopens the checkpoint drain gate when the checkpoint finishes (or
/// fails), waking queued `BEGIN`s.
struct DrainGuard<'a> {
    gate: &'a StdMutex<TxnGate>,
    cond: &'a Condvar,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        lock_gate(self.gate).draining = false;
        self.cond.notify_all();
    }
}

/// Lock the gate mutex ignoring poison (the gate is two plain integers;
/// no invariant can tear).
fn lock_gate(m: &StdMutex<TxnGate>) -> StdMutexGuard<'_, TxnGate> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Apply one table or index redo record to `catalog`. Live statements
/// (through [`RecDb::write`]) and WAL replay both call this, and nothing
/// else mutates a durable catalog, so heap appends land on the record ids
/// the live run assigned and the rids a later `Delete`/`Update` names
/// match the replayed heap exactly. A `DropTable` or `DropIndex` returns
/// the undo of the drop, which holds the removed table or index whole for
/// the undo log to keep (replay drops it); recommender definitions and
/// transaction markers leave the catalog alone.
pub(super) fn apply_record(
    catalog: &mut Catalog,
    record: &WalRecord,
) -> EngineResult<Option<UndoOp>> {
    match record {
        WalRecord::CreateTable { name, schema } => {
            catalog.create_table(name, schema.clone())?;
        }
        WalRecord::DropTable { name } => {
            return Ok(Some(UndoOp::DroppedTable {
                table: Box::new(catalog.take_table(name)?),
                recommenders: Vec::new(),
            }));
        }
        WalRecord::Insert { table, tuples } => {
            let t = catalog.table_mut(table)?;
            for tuple in tuples {
                t.insert(tuple.clone())?;
            }
        }
        WalRecord::Delete { table, rids } => {
            let t = catalog.table_mut(table)?;
            for &rid in rids {
                t.delete(rid)?;
            }
        }
        WalRecord::Update { table, changes } => {
            let t = catalog.table_mut(table)?;
            for (rid, tuple) in changes {
                t.delete(*rid)?;
                t.insert(tuple.clone())?;
            }
        }
        WalRecord::CreateIndex {
            table,
            index,
            columns,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            catalog.table_mut(table)?.create_index(index, &cols)?;
        }
        WalRecord::DropIndex { table, index } => {
            let dropped = catalog.table_mut(table)?.drop_index(index)?;
            return Ok(Some(UndoOp::DroppedIndex {
                table: table.clone(),
                index: Box::new(dropped),
            }));
        }
        WalRecord::CreateRecommender(_)
        | WalRecord::DropRecommender { .. }
        | WalRecord::TxnBegin { .. }
        | WalRecord::TxnCommit { .. }
        | WalRecord::TxnAbort { .. }
        | WalRecord::InTxn { .. } => {}
    }
    Ok(None)
}

/// Recovery's other half of a replayed record: its effect on the
/// recommender definitions, whose models are retrained once the whole tail
/// is replayed. Dropping a table drops the recommenders created on it.
fn replay_definitions(record: WalRecord, defs: &mut Vec<RecommenderDef>) {
    match record {
        WalRecord::DropTable { name } => defs.retain(|d| !d.table.eq_ignore_ascii_case(&name)),
        WalRecord::CreateRecommender(def) => {
            defs.retain(|d| !d.name.eq_ignore_ascii_case(&def.name));
            defs.push(def);
        }
        WalRecord::DropRecommender { name } => defs.retain(|d| !d.name.eq_ignore_ascii_case(&name)),
        _ => {}
    }
}

/// The wall clock used for `EXPLAIN ANALYZE` timings: the configured
/// [`RecDbConfig::profile_clock`] if present (tests inject a manual clock
/// for determinism), otherwise a real monotonic [`SystemClock`].
fn profile_clock_or_wall(config: &RecDbConfig) -> Arc<dyn Clock> {
    config
        .profile_clock
        .clone()
        .unwrap_or_else(|| Arc::new(SystemClock::new()) as Arc<dyn Clock>)
}
