//! The RecDB engine façade: parse → plan → optimize → execute, plus the
//! recommender lifecycle (§III) and the concurrency-control layer.
//!
//! # Concurrency model
//!
//! [`RecDb`] takes `&self` everywhere and is `Send + Sync`: wrap it in an
//! `Arc` and issue statements from as many threads as you like, each
//! through its own [`Session`]. Isolation is strict two-phase locking at
//! table granularity via [`recdb_txn::LockTable`]: readers take shared
//! locks (and never block each other), writers take exclusive locks, and
//! every lock is held to the end of the enclosing transaction. There is no
//! deadlock detector — contended acquisitions time out after
//! [`RecDbConfig::lock_timeout`] with [`EngineError::LockTimeout`], and
//! within a single statement locks are acquired in sorted order so one
//! statement can never deadlock another.
//!
//! Underneath the lock table sit short-lived latches in a fixed order
//! (checkpoint latch → catalog → recommenders → durability), held only for
//! the memory mutation itself, never across model training or a lock-table
//! wait.
//!
//! Every statement runs inside a transaction. Statements outside an
//! explicit `BEGIN` auto-commit an *implicit* one; either way a failed,
//! cancelled, or panicking statement rolls back its physical undo log and
//! releases its locks, so the engine keeps serving. Explicit transactions
//! write `TxnBegin`/`InTxn`/`TxnCommit` WAL records and fsync once at
//! COMMIT; recovery replays only transactions whose commit marker made it
//! to disk.

use crate::error::{EngineError, EngineResult};
use crate::recommender::{load_matrix, Recommender};
use crate::session::{ActiveTxn, Session, TxnState, UndoOp};
use crate::statement_cache::{self, CacheOutcome, Prepared};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use recdb_algo::model::TrainConfig;
use recdb_algo::Algorithm;
use recdb_exec::expr::{bind, constant, literal_value};
use recdb_exec::ops::ScanOp;
use recdb_exec::{
    execute_plan, execute_plan_profiled, ExecContext, ExecMetrics, LogicalPlan, RecScoreIndex,
    RecommenderProvider, ResultSet,
};
use recdb_guard::QueryGuard;
use recdb_obs::{Clock, Counter, MetricsSnapshot, Registry, SystemClock};
use recdb_sql::{parse, parse_many, Expr, Literal, SelectStatement, Statement};
use recdb_storage::{
    codec, read_snapshot_with, write_snapshot, BufferPool, Catalog, DataType, Reader, RecoveryMode,
    Rid, Schema, StorageError, Table, Tuple,
};
use recdb_txn::{LockError, LockMode, LockTable, TxnId};
use recdb_wal::{RecommenderDef, Wal, WalRecord};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

/// WAL file name within a data directory.
const WAL_FILE: &str = "wal.log";

/// Bucket bounds (microseconds) for the per-algorithm model-build
/// histogram: 100µs to 10s, one decade per bucket.
const MODEL_BUILD_BUCKETS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// How long a draining checkpoint parks between re-checks of the
/// transaction gate.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Default resource limits applied to every statement (and model build)
/// the engine runs. `None` everywhere means ungoverned — the default.
/// Per-call overrides go through [`RecDb::execute_with_guard`] /
/// [`RecDb::query_with_guard`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GovernorConfig {
    /// Wall-clock deadline per statement.
    pub deadline: Option<Duration>,
    /// Maximum rows an operator tree may process per statement.
    pub row_budget: Option<u64>,
    /// Maximum bytes blocking operators (sort buffers, join build sides,
    /// aggregate groups) may retain per statement.
    pub mem_budget: Option<u64>,
}

impl GovernorConfig {
    /// Build a fresh guard enforcing these limits, starting now.
    pub fn guard(&self) -> QueryGuard {
        if *self == GovernorConfig::default() {
            return QueryGuard::unlimited();
        }
        QueryGuard::with_limits(self.deadline, self.row_budget, self.mem_budget)
    }
}

/// Engine-wide tunables.
#[derive(Debug, Clone)]
pub struct RecDbConfig {
    /// The N% maintenance threshold (§III-A): rebuild a model once pending
    /// updates reach this percentage of the ratings it was built from.
    pub maintenance_threshold_pct: f64,
    /// The Algorithm 4 `HOTNESS-THRESHOLD` in `[0, 1]`.
    pub hotness_threshold: f64,
    /// Model-training knobs shared by all recommenders.
    pub train: TrainConfig,
    /// Whether inserts trigger the N% rule automatically (the paper's
    /// behaviour). Disable for benches that want explicit control.
    pub auto_maintenance: bool,
    /// Worker threads for score-index materialization (`0` = all cores).
    /// Materialization is a pure fan-out, so the index is identical for
    /// every setting. Model-*training* threads live in
    /// [`RecDbConfig::train`] (`train.neighborhood.threads`,
    /// `train.svd.threads`).
    pub build_threads: usize,
    /// Default per-statement resource limits (deadline, row budget,
    /// memory budget). Ungoverned by default.
    pub governor: GovernorConfig,
    /// Directory for durable storage (WAL + checkpointed page files).
    /// `None` (the default) keeps the engine fully in-memory. Durable
    /// engines are constructed with [`RecDb::open`] /
    /// [`RecDb::open_with_config`], which run crash recovery.
    pub data_dir: Option<PathBuf>,
    /// How recovery reacts to checksum failures in durable files:
    /// abort-and-name-the-page ([`RecoveryMode::Strict`], the default) or
    /// bring up everything that still verifies
    /// ([`RecoveryMode::SalvageToLastGood`]).
    pub recovery: RecoveryMode,
    /// Clock used by `EXPLAIN ANALYZE` profiling. `None` (the default)
    /// uses the wall clock ([`SystemClock`]); tests inject a
    /// [`recdb_obs::ManualClock`] for byte-stable timings.
    pub profile_clock: Option<Arc<dyn Clock>>,
    /// How long a statement waits for a contended table lock before
    /// failing with [`EngineError::LockTimeout`] (also the budget a
    /// checkpoint spends waiting for open transactions to drain). A zero
    /// timeout never blocks: contended acquisitions fail immediately.
    pub lock_timeout: Duration,
    /// Maximum resident frames in the engine's buffer pool. Every heap
    /// page and index node lives in (or is faulted into) one of
    /// these 8 KiB frames; once all are in use the clock sweep evicts a
    /// page, so tables and indexes far larger than
    /// `buffer_pool_pages × 8 KiB` run in bounded decoded-page memory.
    /// Durable engines spill evicted frames to scratch files under
    /// `data_dir/pool/`; in-memory engines keep the encoded blocks on the
    /// heap (the data has nowhere else to live). Values below 2 are
    /// clamped up; see `docs/STORAGE.md` for sizing guidance.
    pub buffer_pool_pages: usize,
}

impl Default for RecDbConfig {
    fn default() -> Self {
        RecDbConfig {
            maintenance_threshold_pct: 10.0,
            hotness_threshold: 0.5,
            train: TrainConfig::default(),
            auto_maintenance: true,
            build_threads: 0,
            governor: GovernorConfig::default(),
            data_dir: None,
            recovery: RecoveryMode::Strict,
            profile_clock: None,
            lock_timeout: Duration::from_secs(10),
            buffer_pool_pages: 1024,
        }
    }
}

/// The outcome of one executed statement.
#[derive(Debug)]
pub enum QueryResult {
    /// `CREATE TABLE` succeeded.
    TableCreated(String),
    /// `DROP TABLE` succeeded.
    TableDropped(String),
    /// `INSERT` stored this many rows.
    Inserted(usize),
    /// `CREATE RECOMMENDER` trained a model.
    RecommenderCreated {
        /// Recommender name.
        name: String,
        /// Model build time (the Table II metric).
        build_time: Duration,
    },
    /// `DROP RECOMMENDER` succeeded.
    RecommenderDropped(String),
    /// `CREATE INDEX` succeeded.
    IndexCreated(String),
    /// `DROP INDEX` succeeded.
    IndexDropped(String),
    /// `DELETE` removed this many rows.
    Deleted(usize),
    /// `UPDATE` rewrote this many rows.
    Updated(usize),
    /// A `SELECT` produced rows.
    Rows(ResultSet),
    /// `BEGIN` opened an explicit transaction.
    TransactionStarted,
    /// `COMMIT` made the transaction's effects durable and visible.
    TransactionCommitted,
    /// `ROLLBACK` undid the transaction.
    TransactionRolledBack,
}

impl QueryResult {
    /// The result set, for `SELECT` outcomes.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            QueryResult::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Consume into a result set, for `SELECT` outcomes.
    pub fn into_rows(self) -> Option<ResultSet> {
        match self {
            QueryResult::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Durable-mode state: the data directory and its open write-ahead log.
/// Present only on engines built via [`RecDb::open`] /
/// [`RecDb::open_with_config`].
///
/// There is deliberately no `Drop` impl that flushes state: dropping a
/// durable engine without calling [`RecDb::checkpoint`] is exactly a crash,
/// and recovery must cope (the crash-matrix tests rely on this).
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: Wal,
}

/// The gate a checkpoint closes to drain explicit transactions: no new
/// `BEGIN` is admitted while `draining`, and the checkpoint proceeds once
/// `active` reaches zero.
#[derive(Debug, Default)]
struct TxnGate {
    /// Open explicit transactions (implicit single-statement transactions
    /// never enter the gate; the checkpoint latch serializes those).
    active: usize,
    /// A checkpoint is waiting for the gate to empty.
    draining: bool,
}

/// The engine: catalog + recommenders + executor behind a SQL interface.
///
/// `Send + Sync`: share one engine across threads with `Arc` and give each
/// thread its own [`Session`] (or use the engine-level [`RecDb::execute`],
/// which auto-commits each statement through an internal default session).
#[derive(Debug)]
pub struct RecDb {
    catalog: RwLock<Catalog>,
    recommenders: RwLock<Vec<Recommender>>,
    config: RecDbConfig,
    /// Logical clock: one tick per executed statement. Drives the usage
    /// histograms deterministically.
    clock: AtomicU64,
    durability: Option<Mutex<Durability>>,
    /// The engine-wide buffer pool: every catalog heap page and every
    /// index node — secondary or RecScoreIndex — pages through these
    /// frames.
    pool: Arc<BufferPool>,
    /// Engine-wide metric registry. Shared (`Arc`) so the WAL and the
    /// executor record into the same cells.
    metrics: Arc<Registry>,
    /// Counters every SELECT bumps, resolved from `metrics` once at open
    /// (a lookup by name takes the registry lock and builds a key).
    exec_metrics: ExecMetrics,
    statement_metrics: StatementMetrics,
    rows_returned: Arc<Counter>,
    /// Time source for `EXPLAIN ANALYZE` ([`RecDbConfig::profile_clock`]
    /// or the wall clock).
    wall: Arc<dyn Clock>,
    /// Table-granularity strict-2PL lock table.
    locks: LockTable,
    /// Next transaction id. Recovery seeds this past every id in the WAL
    /// so a reopened engine can never collide with an old commit marker.
    next_txn: AtomicU64,
    /// Checkpoint drain gate for explicit transactions.
    gate: StdMutex<TxnGate>,
    gate_cond: Condvar,
    /// Read side: held by every mutating statement across its memory
    /// apply + WAL append, and by COMMIT across the commit marker + fsync.
    /// Write side: the checkpoint — so a snapshot never captures half a
    /// statement and a transaction's WAL records never straddle a prune.
    ckpt_latch: RwLock<()>,
    /// Session state behind [`RecDb::execute`]: `BEGIN` through the
    /// engine-level API lands here. Statements outside one of its explicit
    /// transactions bypass it entirely and run concurrently.
    default_session: Mutex<TxnState>,
}

impl Default for RecDb {
    fn default() -> Self {
        RecDb::new()
    }
}

impl RecDb {
    /// An empty engine with default configuration.
    pub fn new() -> Self {
        RecDb::with_config(RecDbConfig::default())
    }

    /// An empty in-memory engine with explicit configuration. For a
    /// durable engine (`config.data_dir` set) use
    /// [`RecDb::open_with_config`], which can fail and therefore returns a
    /// `Result`.
    pub fn with_config(config: RecDbConfig) -> Self {
        assert!(
            config.data_dir.is_none(),
            "RecDbConfig::data_dir requires RecDb::open_with_config (recovery can fail)"
        );
        let pool = Arc::new(BufferPool::in_memory(config.buffer_pool_pages));
        let catalog = Catalog::with_pool(Arc::clone(&pool));
        let metrics = Arc::new(Registry::new());
        RecDb::assemble(config, pool, metrics, catalog, Vec::new(), 0, None, 1)
    }

    /// The engine around its state, fresh or recovered — what both
    /// [`RecDb::with_config`] and [`RecDb::open_with_config`] return. The
    /// pool's and the lock table's metrics attach here; counts the pool
    /// took during recovery carry over.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: RecDbConfig,
        pool: Arc<BufferPool>,
        metrics: Arc<Registry>,
        catalog: Catalog,
        recommenders: Vec<Recommender>,
        clock: u64,
        durability: Option<Durability>,
        next_txn: TxnId,
    ) -> Self {
        pool.attach_metrics(&metrics);
        let locks = LockTable::new();
        locks.attach_metrics(Arc::clone(&metrics));
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
        let snapshot = read_snapshot_with(&dir, config.recovery, Arc::clone(&pool))?;
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
        // and the recovered ratings, as a live CREATE RECOMMENDER trains it.
        let mut recommenders = Vec::new();
        for def in defs {
            let algorithm: Algorithm = def
                .algorithm
                .parse()
                .map_err(|_| recdb_exec::ExecError::UnknownAlgorithm(def.algorithm.clone()))?;
            let matrix = load_matrix(&catalog, &def.table, &def.users, &def.items, &def.ratings)?;
            recommenders.push(Recommender::create_from_matrix(
                &def.name,
                &def.table,
                &def.users,
                &def.items,
                &def.ratings,
                algorithm,
                config.train,
                config.hotness_threshold,
                clock,
                matrix,
                None,
                Arc::clone(&pool),
            )?);
        }
        let mut wal = opened.wal;
        wal.attach_metrics(Arc::clone(&metrics));
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

    /// Whether this engine persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The engine-wide buffer pool (frame counters, hit/miss statistics).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The data directory, for durable engines.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref()?;
        self.config.data_dir.as_deref()
    }

    /// Open a new [`Session`] — one logical connection with its own
    /// `BEGIN`/`COMMIT`/`ROLLBACK` state. Sessions are cheap; create one
    /// per thread of work.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
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
    fn enter_txn_gate(&self) {
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
    fn exit_txn_gate(&self) {
        lock_gate(&self.gate).active -= 1;
        self.gate_cond.notify_all();
    }

    /// The table catalog (shared read guard).
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef(self.catalog.read())
    }

    /// Mutable catalog access, bypassing the lock table *and the WAL*: a
    /// crash loses whatever it changed. Its one user is OnTopDB's scratch
    /// predictions table, rebuilt on every query and never meant to
    /// survive; everything else writes through SQL (or
    /// [`RecDb::insert_tuples`]).
    pub fn catalog_mut(&self) -> CatalogMut<'_> {
        CatalogMut(self.catalog.write())
    }

    /// Engine configuration.
    pub fn config(&self) -> &RecDbConfig {
        &self.config
    }

    /// Current logical clock tick.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// The engine-wide metric registry (see `docs/OBSERVABILITY.md` for
    /// the catalog). Shareable: clone the `Arc` to scrape from another
    /// thread.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Point-in-time copy of every engine metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Render all engine metrics in the Prometheus text exposition format.
    pub fn render_metrics(&self) -> String {
        self.metrics.render()
    }

    /// The lock table (introspection: tests assert on held locks).
    pub fn lock_table(&self) -> &LockTable {
        &self.locks
    }

    /// Look up a recommender by name (shared read guard).
    pub fn recommender(&self, name: &str) -> Option<RecommenderRef<'_>> {
        let recs = self.recommenders.read();
        let idx = recs
            .iter()
            .position(|r| r.name().eq_ignore_ascii_case(name))?;
        Some(RecommenderRef { recs, idx })
    }

    /// Look up a recommender mutably by name (write guard: blocks the
    /// read path for as long as it is held).
    pub fn recommender_mut(&self, name: &str) -> Option<RecommenderMut<'_>> {
        let recs = self.recommenders.write();
        let idx = recs
            .iter()
            .position(|r| r.name().eq_ignore_ascii_case(name))?;
        Some(RecommenderMut { recs, idx })
    }

    /// Names of all recommenders.
    pub fn recommender_names(&self) -> Vec<String> {
        self.recommenders
            .read()
            .iter()
            .map(|r| r.name().to_owned())
            .collect()
    }

    /// Execute one SQL statement under the engine's configured resource
    /// limits ([`RecDbConfig::governor`]).
    ///
    /// Statements run through an internal default session: a `BEGIN` here
    /// opens a transaction that subsequent [`RecDb::execute`] calls join.
    /// Statements outside such a transaction auto-commit and run fully
    /// concurrently. For independent concurrent transactions, give each
    /// thread its own [`RecDb::session`].
    pub fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        let guard = self.config.governor.guard();
        self.execute_with_guard(sql, guard)
    }

    /// Execute one SQL statement under an explicit [`QueryGuard`],
    /// overriding the configured defaults. Keep a
    /// [`QueryGuard::cancel_handle`] to cancel from another thread; a
    /// cancelled statement aborts its transaction and releases its locks,
    /// including while parked in a lock wait.
    ///
    /// The statement runs inside a panic boundary: a panicking operator or
    /// model build surfaces as [`EngineError::Internal`] instead of
    /// unwinding through the caller, and the engine keeps serving.
    pub fn execute_with_guard(&self, sql: &str, guard: QueryGuard) -> EngineResult<QueryResult> {
        let statement = parse(sql)?;
        self.execute_default(statement, guard)
    }

    /// Execute a `;`-separated script, stopping at the first error.
    pub fn execute_script(&self, sql: &str) -> EngineResult<Vec<QueryResult>> {
        let statements = parse_many(sql)?;
        statements
            .into_iter()
            .map(|s| {
                let guard = self.config.governor.guard();
                self.execute_default(s, guard)
            })
            .collect()
    }

    /// Route one statement through the default session if it concerns an
    /// open default-session transaction (or starts one); otherwise run it
    /// as a free-standing auto-committed statement that holds no session
    /// lock — concurrent `execute` callers proceed in parallel.
    fn execute_default(
        &self,
        statement: Statement,
        guard: QueryGuard,
    ) -> EngineResult<QueryResult> {
        let mut state = self.default_session.lock();
        if state.txn.is_some()
            || matches!(
                statement,
                Statement::Begin | Statement::Commit | Statement::Rollback
            )
        {
            self.execute_statement(&mut state, statement, guard)
        } else {
            drop(state);
            let mut ephemeral = TxnState::default();
            self.execute_statement(&mut ephemeral, statement, guard)
        }
    }

    /// Execute a SELECT and return its rows (convenience).
    pub fn query(&self, sql: &str) -> EngineResult<ResultSet> {
        match self.execute(sql)? {
            QueryResult::Rows(r) => Ok(r),
            _ => Err(EngineError::Exec(recdb_exec::ExecError::Unsupported(
                "statement did not produce rows".into(),
            ))),
        }
    }

    /// Execute a SELECT under an explicit [`QueryGuard`] and return its
    /// rows.
    pub fn query_with_guard(&self, sql: &str, guard: QueryGuard) -> EngineResult<ResultSet> {
        match self.execute_with_guard(sql, guard)? {
            QueryResult::Rows(r) => Ok(r),
            _ => Err(EngineError::Exec(recdb_exec::ExecError::Unsupported(
                "statement did not produce rows".into(),
            ))),
        }
    }

    /// Render the optimized logical plan of a SELECT (EXPLAIN).
    pub fn explain(&self, sql: &str) -> EngineResult<String> {
        let Statement::Select(select) = parse(sql)? else {
            return Err(EngineError::Exec(recdb_exec::ExecError::Unsupported(
                "EXPLAIN is only available for SELECT".into(),
            )));
        };
        let catalog = self.catalog.read();
        let mut planned = None;
        let plan = statement_cache::plan(&select, &mut planned, &catalog)?;
        Ok(plan.explain())
    }

    /// Run a parsed statement once (see [`RecDb::execute_prepared`]).
    pub(crate) fn execute_statement(
        &self,
        state: &mut TxnState,
        statement: Statement,
        guard: QueryGuard,
    ) -> EngineResult<QueryResult> {
        self.execute_prepared(state, &mut Prepared::once(statement), &[], guard)
    }

    /// `statement` as a cached template whose slots `params` value, or
    /// `None` unless it is a `SELECT` or `INSERT` whose literals are those
    /// values slot for slot ([`recdb_sql::parameterize`]).
    pub(crate) fn prepare(&self, statement: &Statement, params: &[Literal]) -> Option<Prepared> {
        let statement = recdb_sql::parameterize(statement, params)?;
        let locks = self.statement_locks(&statement).ok()?;
        Some(Prepared {
            statement,
            locks: Some(locks),
            plan: None,
        })
    }

    /// Count one statement a session ran in `recdb_statement_cache_total`.
    pub(crate) fn count_statement_cache(&self, outcome: CacheOutcome) {
        self.statement_metrics.cache[outcome as usize].inc();
    }

    /// The heart of statement execution, for a statement run once and for
    /// a cached template alike: tick the clock, dispatch transaction
    /// control directly, and run everything else inside the session's
    /// (implicit or explicit) transaction under a panic boundary, its
    /// parameter slots valued from `params`. Any failure — error, governor
    /// verdict, lock timeout, or contained panic — aborts the transaction:
    /// undo is applied and every lock is released before the error
    /// returns.
    pub(crate) fn execute_prepared(
        &self,
        state: &mut TxnState,
        prepared: &mut Prepared,
        params: &[Literal],
        guard: QueryGuard,
    ) -> EngineResult<QueryResult> {
        self.clock.fetch_add(1, Ordering::Relaxed);
        self.statement_metrics.statements[StatementKind::of(&prepared.statement) as usize].inc();
        match prepared.statement {
            Statement::Begin => return self.begin_txn(state),
            Statement::Commit => {
                return self
                    .commit_txn(state, &guard)
                    .map_err(|e| flatten_guard_error_counted(&self.metrics, e));
            }
            Statement::Rollback => return self.rollback_txn(state),
            _ => {}
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.run_statement(state, prepared, params, &guard)
        }));
        match outcome {
            Ok(Ok(result)) => {
                if state.txn.as_ref().is_some_and(|t| t.implicit) {
                    let txn = state.txn.take().expect("checked implicit txn present");
                    self.finish_autocommit(txn, &guard)
                        .map_err(|e| flatten_guard_error_counted(&self.metrics, e))?;
                }
                Ok(result)
            }
            Ok(Err(e)) => {
                let e = flatten_guard_error_counted(&self.metrics, e);
                self.abort_failed_statement(state, &e);
                Err(e)
            }
            Err(payload) => {
                let e = EngineError::Internal(panic_message(payload.as_ref()));
                self.abort_failed_statement(state, &e);
                Err(e)
            }
        }
    }

    /// Abort the transaction a failed statement ran in (if any). Inside an
    /// explicit transaction this rolls back the *whole* transaction, as in
    /// PostgreSQL without savepoints.
    fn abort_failed_statement(&self, state: &mut TxnState, error: &EngineError) {
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
    fn begin_txn(&self, state: &mut TxnState) -> EngineResult<QueryResult> {
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
    fn commit_txn(&self, state: &mut TxnState, guard: &QueryGuard) -> EngineResult<QueryResult> {
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
        let deferred = self.apply_deferred(&txn, guard);
        self.locks.release_all(txn.id);
        self.exit_txn_gate();
        self.count_txn(TxnOutcome::Commit);
        deferred?;
        Ok(QueryResult::TransactionCommitted)
    }

    /// `ROLLBACK`: undo the transaction and release its locks. An undo
    /// step that fails (a heap page the pool cannot produce while the
    /// table's indexes are rebuilt) is this statement's error.
    ///
    /// Fail point: `txn::rollback` — the rollback itself still runs (undo
    /// must never be skipped); the armed fault only poisons the reported
    /// outcome.
    fn rollback_txn(&self, state: &mut TxnState) -> EngineResult<QueryResult> {
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
            UndoOp::TableTail {
                name,
                page_count,
                last_page,
            } => {
                if let Ok(t) = catalog.table_mut(&name) {
                    t.rollback_tail(page_count, last_page)?;
                }
            }
            UndoOp::TablePages { name, pages } => {
                if let Ok(t) = catalog.table_mut(&name) {
                    t.rollback_pages(pages)?;
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
                self.recommenders.write().extend(recommenders);
            }
            UndoOp::CreatedIndex { table, index } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.drop_index(&index);
                }
            }
            UndoOp::DroppedIndex {
                table,
                index,
                columns,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let _ = t.create_index(&index, &cols);
                }
            }
            UndoOp::CreatedRecommender { name } => {
                self.recommenders
                    .write()
                    .retain(|r| !r.name().eq_ignore_ascii_case(&name));
            }
            UndoOp::DroppedRecommender { recommender } => {
                self.recommenders.write().push(*recommender);
            }
        }
        Ok(())
    }

    /// Finish an implicit (auto-commit) transaction after its one
    /// statement succeeded: apply deferred recommender side effects under
    /// the still-held locks, then release them.
    fn finish_autocommit(&self, txn: ActiveTxn, guard: &QueryGuard) -> EngineResult<()> {
        let deferred = self.apply_deferred(&txn, guard);
        self.locks.release_all(txn.id);
        self.count_txn(TxnOutcome::Commit);
        deferred
    }

    /// Commit-time recommender side effects: item-statistics updates for
    /// every rating the transaction wrote, then the N% maintenance pass
    /// over the tables it touched. Runs while the transaction still holds
    /// its X locks, so the rebuild trains on exactly the committed state.
    fn apply_deferred(&self, txn: &ActiveTxn, guard: &QueryGuard) -> EngineResult<()> {
        if !txn.deferred_stats.is_empty() {
            let now = self.clock();
            let mut recs = self.recommenders.write();
            for (name, item) in &txn.deferred_stats {
                if let Some(rec) = recs.iter_mut().find(|r| r.name() == name) {
                    rec.record_insert(*item, now);
                }
            }
        }
        for table in &txn.touched {
            self.run_auto_maintenance(table, guard)?;
        }
        Ok(())
    }

    /// Count one finished transaction in `recdb_txn_total{outcome=…}`.
    fn count_txn(&self, outcome: TxnOutcome) {
        self.statement_metrics.txns[outcome as usize].inc();
    }

    /// The table locks a statement needs, deduplicated and in
    /// deterministic (sorted) order so multi-lock statements from
    /// different sessions can never deadlock each other.
    fn statement_locks(&self, statement: &Statement) -> EngineResult<Vec<(String, LockMode)>> {
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
                let recs = self.recommenders.read();
                let rec = recs
                    .iter()
                    .find(|r| r.name().eq_ignore_ascii_case(name))
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

    /// Lazily open the implicit transaction a free-standing statement
    /// runs in, and return the transaction id.
    fn ensure_txn(&self, state: &mut TxnState) -> TxnId {
        if state.txn.is_none() {
            let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
            state.txn = Some(ActiveTxn::new(id, true));
        }
        state.txn.as_ref().expect("just ensured").id
    }

    /// The active transaction, after [`RecDb::ensure_txn`].
    fn active(state: &mut TxnState) -> &mut ActiveTxn {
        state
            .txn
            .as_mut()
            .expect("statement with locks runs inside a transaction")
    }

    /// Acquire the statement's locks, then dispatch it. Runs inside the
    /// panic boundary of [`RecDb::execute_prepared`].
    fn run_statement(
        &self,
        state: &mut TxnState,
        prepared: &mut Prepared,
        params: &[Literal],
        guard: &QueryGuard,
    ) -> EngineResult<QueryResult> {
        let worked_out;
        let needed = match &prepared.locks {
            Some(locks) => locks,
            None => {
                worked_out = self.statement_locks(&prepared.statement)?;
                &worked_out
            }
        };
        if !needed.is_empty() {
            let txn_id = self.ensure_txn(state);
            for (table, mode) in needed {
                self.locks
                    .acquire(txn_id, table, *mode, self.config.lock_timeout, Some(guard))
                    .map_err(lock_to_engine)?;
            }
        }
        match &prepared.statement {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::from_pairs(
                    &columns
                        .iter()
                        .map(|c| Ok((c.name.as_str(), map_type(&c.type_name)?)))
                        .collect::<EngineResult<Vec<_>>>()?,
                );
                let record = WalRecord::CreateTable {
                    name: name.to_ascii_lowercase(),
                    schema,
                };
                self.write(Self::active(state), record, Vec::new())
                    .map_err(|e| match e {
                        // Named as the statement spelled it.
                        EngineError::Storage(StorageError::TableExists(_)) => {
                            StorageError::TableExists(name.clone()).into()
                        }
                        e => e,
                    })?;
                Ok(QueryResult::TableCreated(name.clone()))
            }
            Statement::DropTable { name } => {
                let record = WalRecord::DropTable {
                    name: name.to_ascii_lowercase(),
                };
                self.write(Self::active(state), record, Vec::new())?;
                Ok(QueryResult::TableDropped(name.clone()))
            }
            Statement::Insert { table, rows } => {
                let tuples = rows
                    .iter()
                    .map(|row| const_tuple(row, params))
                    .collect::<EngineResult<Vec<Tuple>>>()?;
                let n = self.insert_into(state, table, tuples)?;
                Ok(QueryResult::Inserted(n))
            }
            Statement::CreateRecommender {
                name,
                ratings_table,
                users_column,
                items_column,
                ratings_column,
                algorithm,
            } => {
                // Cheap early check; re-checked under the write lock
                // before publishing (same-name creations on *different*
                // tables are not serialized by the table lock).
                if self
                    .recommenders
                    .read()
                    .iter()
                    .any(|r| r.name().eq_ignore_ascii_case(name))
                {
                    return Err(EngineError::RecommenderExists(name.clone()));
                }
                let algorithm: Algorithm = algorithm
                    .parse()
                    .map_err(|_| recdb_exec::ExecError::UnknownAlgorithm(algorithm.clone()))?;
                // Scan under a short read latch, then train with no
                // engine latch held — the table's X lock (already ours)
                // keeps the scanned matrix authoritative.
                let matrix = {
                    let catalog = self.catalog.read();
                    load_matrix(
                        &catalog,
                        ratings_table,
                        users_column,
                        items_column,
                        ratings_column,
                    )?
                };
                let rec = Recommender::create_from_matrix(
                    name,
                    ratings_table,
                    users_column,
                    items_column,
                    ratings_column,
                    algorithm,
                    self.config.train,
                    self.config.hotness_threshold,
                    self.clock(),
                    matrix,
                    Some(guard),
                    Arc::clone(&self.pool),
                )?;
                let build_time = rec.build_time();
                self.observe_model_build(rec.algorithm(), build_time);
                let log_record = WalRecord::CreateRecommender(rec.def());
                let txn = Self::active(state);
                let _ckpt = self.ckpt_latch.read();
                {
                    let mut recs = self.recommenders.write();
                    if recs.iter().any(|r| r.name().eq_ignore_ascii_case(name)) {
                        return Err(EngineError::RecommenderExists(name.clone()));
                    }
                    txn.push_undo(UndoOp::CreatedRecommender {
                        name: rec.name().to_owned(),
                    });
                    recs.push(rec);
                }
                self.log_statement(txn, log_record)?;
                Ok(QueryResult::RecommenderCreated {
                    name: name.clone(),
                    build_time,
                })
            }
            Statement::DropRecommender { name } => {
                let txn = Self::active(state);
                let _ckpt = self.ckpt_latch.read();
                {
                    let mut recs = self.recommenders.write();
                    let Some(pos) = recs
                        .iter()
                        .position(|r| r.name().eq_ignore_ascii_case(name))
                    else {
                        return Err(EngineError::RecommenderNotFound(name.clone()));
                    };
                    let rec = recs.remove(pos);
                    txn.push_undo(UndoOp::DroppedRecommender {
                        recommender: Box::new(rec),
                    });
                }
                self.log_statement(
                    txn,
                    WalRecord::DropRecommender {
                        name: name.to_ascii_lowercase(),
                    },
                )?;
                Ok(QueryResult::RecommenderDropped(name.clone()))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                let record = WalRecord::CreateIndex {
                    table: table.to_ascii_lowercase(),
                    index: name.clone(),
                    columns: columns.clone(),
                };
                self.write(Self::active(state), record, Vec::new())?;
                Ok(QueryResult::IndexCreated(name.clone()))
            }
            Statement::DropIndex { name, table } => {
                let record = WalRecord::DropIndex {
                    table: table.to_ascii_lowercase(),
                    index: name.clone(),
                };
                self.write(Self::active(state), record, Vec::new())?;
                Ok(QueryResult::IndexDropped(name.clone()))
            }
            Statement::Explain(select) => {
                let catalog = self.catalog.read();
                let plan = statement_cache::plan(select, &mut prepared.plan, &catalog)?;
                let schema = Schema::from_pairs(&[("plan", DataType::Text)]);
                let rows = plan
                    .explain()
                    .lines()
                    .map(|l| Tuple::new(vec![recdb_storage::Value::Text(l.to_owned())]))
                    .collect();
                Ok(QueryResult::Rows(ResultSet::new(schema, rows)))
            }
            Statement::ExplainAnalyze(select) => {
                let rows = self.run_explain_analyze(select, &mut prepared.plan, guard)?;
                Ok(QueryResult::Rows(rows))
            }
            Statement::Delete { table, filter } => {
                let n = self.delete_where(state, table, filter.as_ref(), guard)?;
                Ok(QueryResult::Deleted(n))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                let n = self.update_where(state, table, assignments, filter.as_ref(), guard)?;
                Ok(QueryResult::Updated(n))
            }
            Statement::Select(select) => {
                let rows = self.run_select(select, &mut prepared.plan, params, guard)?;
                self.rows_returned.add(rows.len() as u64);
                Ok(QueryResult::Rows(rows))
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                unreachable!("transaction control dispatched in execute_prepared")
            }
        }
    }

    /// The one write path of a table or index statement, which hands in
    /// its redo record and the rating items it touches. Under the
    /// checkpoint latch and the catalog write latch it captures what
    /// undoing the record needs, applies it with [`apply_record`] — the
    /// function recovery replays it with — and logs it; then it defers the
    /// N% statistics of `touched` to commit. Recommenders created on a
    /// dropped table go with it, and its undo restores both.
    fn write(
        &self,
        txn: &mut ActiveTxn,
        record: WalRecord,
        touched: Vec<(String, i64)>,
    ) -> EngineResult<()> {
        let _ckpt = self.ckpt_latch.read();
        {
            let mut catalog = self.catalog.write();
            txn.capture_undo(&catalog, &record)?;
            if let Some(table) = apply_record(&mut catalog, &record)? {
                let mut recs = self.recommenders.write();
                let (recommenders, kept) = recs
                    .drain(..)
                    .partition(|r| r.ratings_table() == table.name());
                *recs = kept;
                txn.push_undo(UndoOp::DroppedTable {
                    table: Box::new(table),
                    recommenders,
                });
            }
        }
        let rated = match &record {
            WalRecord::Insert { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::Update { table, .. } => Some(table.clone()),
            _ => None,
        };
        self.log_statement(txn, record)?;
        if let Some(table) = rated {
            txn.defer_stats(table, touched);
        }
        Ok(())
    }

    /// Append a statement's redo record for the enclosing transaction.
    /// Implicit transactions append + fsync immediately (plain records,
    /// byte-compatible with the pre-transaction WAL format); explicit
    /// transactions wrap records in [`WalRecord::InTxn`] and defer the
    /// fsync to COMMIT. Callers hold the checkpoint latch across the
    /// memory apply and this call.
    fn log_statement(&self, txn: &mut ActiveTxn, record: WalRecord) -> EngineResult<()> {
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

    /// Record one model (re)build duration in the per-algorithm histogram.
    fn observe_model_build(&self, algorithm: Algorithm, build_time: Duration) {
        self.metrics
            .histogram_with(
                "recdb_model_build_micros",
                MODEL_BUILD_BUCKETS,
                &[("algorithm", algorithm.name())],
            )
            .observe(micros(build_time));
    }

    /// The rows of table `t` a DELETE or UPDATE with `filter` acts on (all
    /// rows when `None`), in heap order: the scan a same-predicate SELECT
    /// runs, billing `guard` page by page. It completes before any page
    /// pre-image is saved or record logged: a statement the governor
    /// refuses leaves the table and the WAL untouched.
    fn matching_rows(
        t: &Table,
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<Vec<(Rid, Tuple)>> {
        let scan = ScanOp::new(t.heap(), t.schema().clone()).with_guard(guard.clone());
        let scan = match filter {
            Some(filter) => scan.with_filter(filter, &[])?,
            None => scan,
        };
        Ok(scan.matching_rows()?)
    }

    /// Delete rows matching `filter` (all rows when `None`). Recommender
    /// statistics and the N% rule are deferred to commit.
    fn delete_where(
        &self,
        state: &mut TxnState,
        table: &str,
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<usize> {
        let (rids, touched) = {
            let catalog = self.catalog.read();
            let rows = Self::matching_rows(catalog.table(table)?, filter, guard)?;
            let touched = self.touched_items(&catalog, table, rows.iter().map(|(_, t)| t))?;
            let rids: Vec<Rid> = rows.into_iter().map(|(rid, _)| rid).collect();
            (rids, touched)
        };
        let n = rids.len();
        let record = WalRecord::Delete {
            table: table.to_ascii_lowercase(),
            rids,
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }

    /// Rewrite rows matching `filter` with the SET assignments applied.
    fn update_where(
        &self,
        state: &mut TxnState,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<usize> {
        let (rids, new_tuples, touched) = {
            let catalog = self.catalog.read();
            let t = catalog.table(table)?;
            let sets: Vec<(usize, recdb_exec::BoundExpr)> = assignments
                .iter()
                .map(|(col, e)| Ok((t.schema().resolve(col)?, bind(e, t.schema(), &[])?)))
                .collect::<EngineResult<_>>()?;
            let mut rids = Vec::new();
            let mut new_tuples = Vec::new();
            for (rid, tuple) in Self::matching_rows(t, filter, guard)? {
                let mut values = tuple.clone().into_values();
                for (ordinal, expr) in &sets {
                    values[*ordinal] = expr.eval(&tuple)?;
                }
                rids.push(rid);
                new_tuples.push(Tuple::new(values));
            }
            let touched = self.touched_items(&catalog, table, &new_tuples)?;
            (rids, new_tuples, touched)
        };
        let n = rids.len();
        let record = WalRecord::Update {
            table: table.to_ascii_lowercase(),
            changes: rids.into_iter().zip(new_tuples).collect(),
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }

    /// The `(recommender name, item id)` pairs `tuples` of `table` touch,
    /// for the recommenders created on it — what commit feeds their
    /// statistics and the N% rule.
    fn touched_items<'t>(
        &self,
        catalog: &Catalog,
        table: &str,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> EngineResult<Vec<(String, i64)>> {
        let table_key = table.to_ascii_lowercase();
        let t = catalog.table(table)?;
        let item_ordinals: Vec<(String, usize)> = self
            .recommenders
            .read()
            .iter()
            .filter(|r| r.ratings_table() == table_key)
            .map(|r| Ok((r.name().to_owned(), t.schema().resolve(r.items_column())?)))
            .collect::<EngineResult<_>>()?;
        let mut touched = Vec::new();
        for tuple in tuples {
            for (rec, ord) in &item_ordinals {
                if let Some(item) = tuple.get(*ord).and_then(recdb_storage::Value::as_int) {
                    touched.push((rec.clone(), item));
                }
            }
        }
        Ok(touched)
    }

    /// Run the N% rule for every recommender on `table`. A cancelled or
    /// faulted rebuild leaves the previous model serving (the publish in
    /// [`Recommender::publish`] is atomic and only reached on success).
    fn run_auto_maintenance(&self, table: &str, guard: &QueryGuard) -> EngineResult<()> {
        if !self.config.auto_maintenance {
            return Ok(());
        }
        let table_key = table.to_ascii_lowercase();
        let due: Vec<String> = self
            .recommenders
            .read()
            .iter()
            .filter(|r| {
                r.ratings_table() == table_key
                    && r.needs_maintenance(self.config.maintenance_threshold_pct)
            })
            .map(|r| r.name().to_owned())
            .collect();
        for name in due {
            self.rebuild_recommender(&name, guard)?;
        }
        Ok(())
    }

    /// Rebuild one recommender's model: capture its inputs under a brief
    /// read lock, scan the ratings under a brief catalog read latch, train
    /// with *no* engine lock held, and publish under a brief write lock.
    /// Readers serve the previous model throughout.
    fn rebuild_recommender(&self, name: &str, guard: &QueryGuard) -> EngineResult<()> {
        let (algorithm, train, index, table, users, items, ratings) = {
            let recs = self.recommenders.read();
            let Some(rec) = recs.iter().find(|r| r.name() == name) else {
                return Ok(()); // dropped concurrently — nothing to rebuild
            };
            (
                rec.algorithm(),
                rec.train_config(),
                rec.index(),
                rec.ratings_table().to_owned(),
                rec.users_column().to_owned(),
                rec.items_column().to_owned(),
                rec.ratings_column().to_owned(),
            )
        };
        let loading = Instant::now();
        let matrix = {
            let catalog = self.catalog.read();
            load_matrix(&catalog, &table, &users, &items, &ratings)?
        };
        let load_time = loading.elapsed();
        let staged = Recommender::stage_rebuild(
            algorithm,
            &train,
            index.as_deref(),
            matrix,
            Some(guard),
            &self.pool,
        )?;
        self.observe_model_build(algorithm, staged.build_time());
        for (stage, time) in [
            ("load", load_time),
            ("train", staged.train_time()),
            ("refresh", staged.refresh_time()),
        ] {
            self.metrics
                .histogram_with(
                    "recdb_model_rebuild_stage_micros",
                    MODEL_BUILD_BUCKETS,
                    &[("stage", stage)],
                )
                .observe(micros(time));
        }
        let mut recs = self.recommenders.write();
        if let Some(rec) = recs.iter_mut().find(|r| r.name() == name) {
            rec.publish(staged);
        }
        Ok(())
    }

    /// Insert pre-built tuples into a table as one auto-committed
    /// transaction, updating recommender statistics and running the N%
    /// maintenance rule. This is also the bulk-loading path used by the
    /// dataset loaders.
    pub fn insert_tuples(&self, table: &str, tuples: Vec<Tuple>) -> EngineResult<usize> {
        let guard = self.config.governor.guard();
        let mut state = TxnState::default();
        let lower = table.to_ascii_lowercase();
        let result = (|| {
            let txn_id = self.ensure_txn(&mut state);
            self.locks
                .acquire(
                    txn_id,
                    &lower,
                    LockMode::Exclusive,
                    self.config.lock_timeout,
                    Some(&guard),
                )
                .map_err(lock_to_engine)?;
            self.insert_into(&mut state, table, tuples)
        })();
        match result {
            Ok(n) => {
                let txn = state.txn.take().expect("insert ran inside a transaction");
                self.finish_autocommit(txn, &guard)
                    .map_err(|e| flatten_guard_error_counted(&self.metrics, e))?;
                Ok(n)
            }
            Err(e) => {
                let e = flatten_guard_error_counted(&self.metrics, e);
                self.abort_failed_statement(&mut state, &e);
                Err(e)
            }
        }
    }

    /// The INSERT body: the tuples' items for the N% rule, then the one
    /// write path. Callers hold the table's X lock.
    fn insert_into(
        &self,
        state: &mut TxnState,
        table: &str,
        tuples: Vec<Tuple>,
    ) -> EngineResult<usize> {
        let n = tuples.len();
        let touched = self.touched_items(&self.catalog.read(), table, &tuples)?;
        let record = WalRecord::Insert {
            table: table.to_ascii_lowercase(),
            tuples,
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }

    /// Pre-compute the full RecScoreIndex for every user of a recommender
    /// (§IV-C pre-computation). Holds the recommender write lock for the
    /// duration — recommendation queries wait; run it at load time.
    pub fn materialize(&self, recommender: &str) -> EngineResult<()> {
        let threads = self.config.build_threads;
        let guard = self.config.governor.guard();
        let mut recs = self.recommenders.write();
        let rec = recs
            .iter_mut()
            .find(|r| r.name().eq_ignore_ascii_case(recommender))
            .ok_or_else(|| EngineError::RecommenderNotFound(recommender.to_owned()))?;
        let result = rec.materialize_all(threads, Some(&guard));
        self.metrics
            .gauge_with("recdb_materialized_entries", &[("recommender", rec.name())])
            .set(rec.materialized_entries() as i64);
        result.map_err(|e| flatten_guard_error_counted(&self.metrics, e))
    }

    /// Run one cache-manager pass (Algorithm 4) for a recommender at the
    /// current tick.
    pub fn run_cache_manager(
        &self,
        recommender: &str,
    ) -> EngineResult<crate::cache::CacheDecision> {
        let now = self.clock();
        let mut recs = self.recommenders.write();
        let rec = recs
            .iter_mut()
            .find(|r| r.name().eq_ignore_ascii_case(recommender))
            .ok_or_else(|| EngineError::RecommenderNotFound(recommender.to_owned()))?;
        let decision = rec.run_cache_manager(now);
        self.metrics
            .counter("recdb_cache_admitted_total")
            .add(decision.admitted.len() as u64);
        self.metrics
            .counter("recdb_cache_evicted_total")
            .add(decision.evicted.len() as u64);
        self.metrics
            .gauge_with("recdb_materialized_entries", &[("recommender", rec.name())])
            .set(rec.materialized_entries() as i64);
        Ok(decision)
    }

    /// Run a SELECT through the plan `planned` holds (see
    /// [`statement_cache::plan`]), its parameter slots valued from
    /// `params`.
    fn run_select(
        &self,
        select: &SelectStatement,
        planned: &mut Option<statement_cache::Planned>,
        params: &[Literal],
        guard: &QueryGuard,
    ) -> EngineResult<ResultSet> {
        let catalog = self.catalog.read();
        let plan = statement_cache::plan(select, planned, &catalog)?;
        self.record_query_stats(plan, params)?;
        let ctx = ExecContext::new(&catalog, self, guard.clone())
            .with_metrics(&self.exec_metrics)
            .with_params(params);
        Ok(execute_plan(plan, &ctx)?)
    }

    /// Run a SELECT with per-operator profiling and render the annotated
    /// plan tree (`EXPLAIN ANALYZE`). The statement really executes —
    /// side effects on metrics and query statistics are identical to a
    /// plain run — but the result rows are discarded in favour of the
    /// profile, as in PostgreSQL.
    fn run_explain_analyze(
        &self,
        select: &SelectStatement,
        planned: &mut Option<statement_cache::Planned>,
        guard: &QueryGuard,
    ) -> EngineResult<ResultSet> {
        let catalog = self.catalog.read();
        let plan = statement_cache::plan(select, planned, &catalog)?;
        self.record_query_stats(plan, &[])?;
        let ctx = ExecContext::new(&catalog, self, guard.clone()).with_metrics(&self.exec_metrics);
        let (rows, profile) = execute_plan_profiled(plan, &ctx, Arc::clone(&self.wall))?;
        self.rows_returned.add(rows.len() as u64);
        let schema = Schema::from_pairs(&[("plan", DataType::Text)]);
        let lines = profile
            .render()
            .into_iter()
            .map(|l| Tuple::new(vec![recdb_storage::Value::Text(l)]))
            .collect();
        Ok(ResultSet::new(schema, lines))
    }

    /// Update the Users Histogram (`QC_u`, `TS_u`) for recommendation
    /// queries with a resolved user predicate, its slots valued from
    /// `params`.
    fn record_query_stats(&self, plan: &LogicalPlan, params: &[Literal]) -> EngineResult<()> {
        let Some(node) = find_recommend(plan) else {
            return Ok(());
        };
        let Some(users) = node.preds(params)?.user_ids else {
            return Ok(());
        };
        let recs = self.recommenders.read();
        let Some(rec) = recs.iter().find(|r| {
            r.ratings_table().eq_ignore_ascii_case(&node.ratings_table)
                && r.algorithm() == node.algorithm
        }) else {
            return Ok(());
        };
        for u in users {
            rec.record_query(u, self.clock());
        }
        Ok(())
    }
}

impl RecommenderProvider for RecDb {
    fn model(
        &self,
        ratings_table: &str,
        algorithm: Algorithm,
    ) -> Option<Arc<recdb_algo::RecModel>> {
        self.recommenders
            .read()
            .iter()
            .find(|r| {
                r.ratings_table().eq_ignore_ascii_case(ratings_table) && r.algorithm() == algorithm
            })
            .map(Recommender::model)
    }

    fn rec_index(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<RecScoreIndex>> {
        self.recommenders
            .read()
            .iter()
            .find(|r| {
                r.ratings_table().eq_ignore_ascii_case(ratings_table) && r.algorithm() == algorithm
            })
            .and_then(Recommender::index)
    }
}

/// Shared read access to the catalog, [`Deref`]-transparent.
pub struct CatalogRef<'a>(RwLockReadGuard<'a, Catalog>);

impl Deref for CatalogRef<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0
    }
}

/// Exclusive access to the catalog, [`DerefMut`]-transparent. See
/// [`RecDb::catalog_mut`] for the (narrow) intended use.
pub struct CatalogMut<'a>(RwLockWriteGuard<'a, Catalog>);

impl Deref for CatalogMut<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl DerefMut for CatalogMut<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        &mut self.0
    }
}

/// Shared read access to one recommender, [`Deref`]-transparent.
pub struct RecommenderRef<'a> {
    recs: RwLockReadGuard<'a, Vec<Recommender>>,
    idx: usize,
}

impl Deref for RecommenderRef<'_> {
    type Target = Recommender;
    fn deref(&self) -> &Recommender {
        &self.recs[self.idx]
    }
}

/// Exclusive access to one recommender, [`DerefMut`]-transparent.
pub struct RecommenderMut<'a> {
    recs: RwLockWriteGuard<'a, Vec<Recommender>>,
    idx: usize,
}

impl Deref for RecommenderMut<'_> {
    type Target = Recommender;
    fn deref(&self) -> &Recommender {
        &self.recs[self.idx]
    }
}

impl DerefMut for RecommenderMut<'_> {
    fn deref_mut(&mut self) -> &mut Recommender {
        &mut self.recs[self.idx]
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

/// A duration as a histogram observation in whole microseconds.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Map a lock-layer failure to a first-class engine error.
fn lock_to_engine(e: LockError) -> EngineError {
    match e {
        LockError::Timeout { table, waited } => EngineError::LockTimeout { table, waited },
        LockError::Cancelled(g) => g.into(),
        LockError::Fault(f) => f.into(),
    }
}

/// Apply one table or index redo record to `catalog`. Live statements
/// (through [`RecDb::write`]) and WAL replay both call this, and nothing
/// else mutates a durable catalog, so heap appends land on the record ids
/// the live run assigned and the rids a later `Delete`/`Update` names
/// match the replayed heap exactly. Returns the table a `DropTable`
/// removed, for the undo log to keep; recommender definitions and
/// transaction markers leave the catalog alone.
fn apply_record(catalog: &mut Catalog, record: &WalRecord) -> EngineResult<Option<Table>> {
    match record {
        WalRecord::CreateTable { name, schema } => {
            catalog.create_table(name, schema.clone())?;
        }
        WalRecord::DropTable { name } => return Ok(Some(catalog.take_table(name)?)),
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
            catalog.table_mut(table)?.drop_index(index)?;
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

/// Lift governor verdicts buried in the executor layer to first-class
/// engine errors (`Cancelled` / `ResourceExhausted`).
fn flatten_guard_error(e: EngineError) -> EngineError {
    match e {
        EngineError::Exec(recdb_exec::ExecError::Guard(g)) => g.into(),
        other => other,
    }
}

/// [`flatten_guard_error`] plus metric recording: governor verdicts bump
/// `recdb_governor_cancellations_total{cause=…}` so operators can see *why*
/// queries are being killed without scraping logs.
fn flatten_guard_error_counted(metrics: &Registry, e: EngineError) -> EngineError {
    let e = flatten_guard_error(e);
    let cause = match &e {
        EngineError::Cancelled { .. } => Some("cancelled"),
        EngineError::ResourceExhausted { resource, .. } => Some(*resource),
        _ => None,
    };
    if let Some(cause) = cause {
        metrics
            .counter_with("recdb_governor_cancellations_total", &[("cause", cause)])
            .inc();
    }
    e
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

/// What a statement is: the `kind` label of `recdb_statements_total`.
#[derive(Debug, Clone, Copy)]
enum StatementKind {
    CreateTable,
    DropTable,
    Insert,
    CreateRecommender,
    DropRecommender,
    Delete,
    Update,
    CreateIndex,
    DropIndex,
    Explain,
    ExplainAnalyze,
    Select,
    Begin,
    Commit,
    Rollback,
}

impl StatementKind {
    const LABELS: [&'static str; 15] = [
        "create_table",
        "drop_table",
        "insert",
        "create_recommender",
        "drop_recommender",
        "delete",
        "update",
        "create_index",
        "drop_index",
        "explain",
        "explain_analyze",
        "select",
        "begin",
        "commit",
        "rollback",
    ];

    fn of(statement: &Statement) -> Self {
        match statement {
            Statement::CreateTable { .. } => StatementKind::CreateTable,
            Statement::DropTable { .. } => StatementKind::DropTable,
            Statement::Insert { .. } => StatementKind::Insert,
            Statement::CreateRecommender { .. } => StatementKind::CreateRecommender,
            Statement::DropRecommender { .. } => StatementKind::DropRecommender,
            Statement::Delete { .. } => StatementKind::Delete,
            Statement::Update { .. } => StatementKind::Update,
            Statement::CreateIndex { .. } => StatementKind::CreateIndex,
            Statement::DropIndex { .. } => StatementKind::DropIndex,
            Statement::Explain(_) => StatementKind::Explain,
            Statement::ExplainAnalyze(_) => StatementKind::ExplainAnalyze,
            Statement::Select(_) => StatementKind::Select,
            Statement::Begin => StatementKind::Begin,
            Statement::Commit => StatementKind::Commit,
            Statement::Rollback => StatementKind::Rollback,
        }
    }
}

/// How a transaction finished: the `outcome` label of `recdb_txn_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TxnOutcome {
    Commit,
    Abort,
    /// Killed by a lock wait that ran out of budget.
    Timeout,
}

impl TxnOutcome {
    const LABELS: [&'static str; 3] = ["commit", "abort", "timeout"];
}

/// The counters every statement bumps, resolved from the registry once at
/// open (a lookup by name formats the series key and takes the registry
/// lock): `recdb_statements_total{kind}` indexed by [`StatementKind`],
/// `recdb_txn_total{outcome}` indexed by [`TxnOutcome`],
/// `recdb_statement_cache_total{outcome}` indexed by [`CacheOutcome`].
#[derive(Debug)]
struct StatementMetrics {
    statements: Vec<Arc<Counter>>,
    txns: Vec<Arc<Counter>>,
    cache: Vec<Arc<Counter>>,
}

impl StatementMetrics {
    fn resolve(registry: &Registry) -> Self {
        let series = |name, label, values: &[&str]| {
            values
                .iter()
                .map(|value| registry.counter_with(name, &[(label, value)]))
                .collect()
        };
        StatementMetrics {
            statements: series("recdb_statements_total", "kind", &StatementKind::LABELS),
            txns: series("recdb_txn_total", "outcome", &TxnOutcome::LABELS),
            cache: series(
                "recdb_statement_cache_total",
                "outcome",
                &CacheOutcome::LABELS,
            ),
        }
    }
}

/// Best-effort extraction of a caught panic's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "statement panicked".to_owned()
    }
}

fn find_recommend(plan: &LogicalPlan) -> Option<&recdb_exec::plan::RecommendNode> {
    match plan {
        LogicalPlan::Recommend(node) => Some(node),
        LogicalPlan::RecJoin { rec, .. } => Some(rec),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. } => find_recommend(input),
        LogicalPlan::Join { left, right, .. } => {
            find_recommend(left).or_else(|| find_recommend(right))
        }
        LogicalPlan::Scan { .. } => None,
    }
}

/// Map a SQL type name to a [`DataType`], with common synonyms.
fn map_type(name: &str) -> EngineResult<DataType> {
    match name.to_ascii_lowercase().as_str() {
        "int" | "integer" | "bigint" | "smallint" => Ok(DataType::Int),
        "float" | "real" | "double" | "numeric" | "decimal" => Ok(DataType::Float),
        "text" | "varchar" | "char" | "string" => Ok(DataType::Text),
        "bool" | "boolean" => Ok(DataType::Bool),
        "point" | "geometry" => Ok(DataType::Point),
        "rect" | "region" => Ok(DataType::Rect),
        other => Err(EngineError::UnknownType(other.to_owned())),
    }
}

/// Evaluate an INSERT row of constant expressions to a tuple, its
/// parameter slots valued from `params`.
fn const_tuple(row: &[Expr], params: &[Literal]) -> EngineResult<Tuple> {
    let empty_schema = Schema::default();
    let empty_tuple = Tuple::default();
    let mut values = Vec::with_capacity(row.len());
    for expr in row {
        // A fast path for plain constants avoids the bind machinery.
        if let Some(value) = constant(expr, params) {
            values.push(literal_value(value?));
            continue;
        }
        let bound = bind(expr, &empty_schema, params)
            .map_err(|e| EngineError::NonConstantInsert(e.to_string()))?;
        let value = bound
            .eval(&empty_tuple)
            .map_err(|e| EngineError::NonConstantInsert(e.to_string()))?;
        values.push(value);
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_storage::Value;

    /// Stand up the paper's Figure 1 database through pure SQL.
    fn figure1_db() -> RecDb {
        let db = RecDb::new();
        db.execute_script(
            "CREATE TABLE users (uid INT, name TEXT, city TEXT);
             CREATE TABLE movies (mid INT, name TEXT, genre TEXT);
             CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             INSERT INTO users VALUES (1, 'Alice', 'Minneapolis'), (2, 'Bob', 'Austin'),
                                      (3, 'Carol', 'Minneapolis'), (4, 'Eve', 'San Diego');
             INSERT INTO movies VALUES (1, 'Spartacus', 'Action'),
                                       (2, 'Inception', 'Suspense'),
                                       (3, 'The Matrix', 'Sci-Fi');
             INSERT INTO ratings VALUES (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5),
                                        (2, 3, 2.0), (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);",
        )
        .unwrap();
        db
    }

    fn with_recommender() -> RecDb {
        let db = figure1_db();
        db.execute(
            "CREATE RECOMMENDER GeneralRec ON ratings \
             USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF",
        )
        .unwrap();
        db
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<RecDb>();
        check::<Arc<RecDb>>();
    }

    #[test]
    fn ddl_and_inserts() {
        let db = figure1_db();
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        assert_eq!(db.catalog().table("users").unwrap().tuple_count(), 4);
    }

    #[test]
    fn create_recommender_via_sql() {
        let db = figure1_db();
        let result = db
            .execute(
                "CREATE RECOMMENDER GeneralRec ON ratings \
                 USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF",
            )
            .unwrap();
        assert!(matches!(
            result,
            QueryResult::RecommenderCreated { ref name, .. } if name == "GeneralRec"
        ));
        assert_eq!(db.recommender_names(), vec!["generalrec"]);
        let err = db
            .execute(
                "CREATE RECOMMENDER GeneralRec ON ratings \
                 USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD",
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::RecommenderExists(_)));
    }

    #[test]
    fn paper_query1_end_to_end() {
        let db = with_recommender();
        let rows = db
            .query(
                "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10",
            )
            .unwrap();
        assert_eq!(rows.len(), 2, "user 1 has two unseen movies");
        assert_eq!(rows.value(0, "uid").unwrap(), &Value::Int(1));
    }

    #[test]
    fn missing_recommender_reported_via_sql() {
        let db = figure1_db();
        let err = db
            .query(
                "SELECT R.uid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF",
            )
            .unwrap_err();
        assert!(err.to_string().contains("CREATE RECOMMENDER"));
    }

    #[test]
    fn drop_recommender_and_table_cascade() {
        let db = with_recommender();
        db.execute("DROP RECOMMENDER GeneralRec").unwrap();
        assert!(db.recommender_names().is_empty());
        assert!(matches!(
            db.execute("DROP RECOMMENDER GeneralRec").unwrap_err(),
            EngineError::RecommenderNotFound(_)
        ));
        // Re-create, then drop the table: the recommender goes with it.
        db.execute(
            "CREATE RECOMMENDER R2 ON ratings \
             USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF",
        )
        .unwrap();
        db.execute("DROP TABLE ratings").unwrap();
        assert!(db.recommender_names().is_empty());
    }

    #[test]
    fn insert_triggers_n_percent_maintenance() {
        let db = with_recommender();
        assert_eq!(
            db.recommender("GeneralRec").unwrap().model().trained_on(),
            7
        );
        // 10% of 7 ratings → a single insert triggers a rebuild.
        db.execute("INSERT INTO ratings VALUES (4, 3, 5.0)")
            .unwrap();
        let rec = db.recommender("GeneralRec").unwrap();
        assert_eq!(rec.model().trained_on(), 8, "model rebuilt");
        assert_eq!(rec.pending_updates(), 0);
        assert_eq!(rec.model().matrix().rating_of(4, 3), Some(5.0));
    }

    #[test]
    fn maintenance_can_be_deferred() {
        let db = RecDb::with_config(RecDbConfig {
            auto_maintenance: false,
            ..Default::default()
        });
        db.execute_script(
            "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             INSERT INTO ratings VALUES (1, 1, 5.0), (2, 1, 4.0);
             CREATE RECOMMENDER R ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING ItemCosCF;
             INSERT INTO ratings VALUES (2, 2, 3.0);",
        )
        .unwrap();
        let rec = db.recommender("R").unwrap();
        assert_eq!(rec.model().trained_on(), 2, "not rebuilt");
        assert_eq!(rec.pending_updates(), 1);
    }

    #[test]
    fn materialize_then_topk_uses_index() {
        let db = with_recommender();
        db.materialize("GeneralRec").unwrap();
        assert_eq!(
            db.recommender("GeneralRec").unwrap().materialized_entries(),
            5
        );
        let rows = db
            .query(
                "SELECT R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn query_stats_recorded_for_user_predicates() {
        let db = with_recommender();
        for _ in 0..3 {
            db.query(
                "SELECT R.iid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1",
            )
            .unwrap();
        }
        let rec = db.recommender("GeneralRec").unwrap();
        rec.with_stats(|s| {
            assert_eq!(s.user(1).unwrap().query_count, 3);
            assert!(s.user(2).is_none());
        });
    }

    #[test]
    fn type_synonyms_in_create_table() {
        let db = RecDb::new();
        db.execute(
            "CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR, d BOOLEAN, e GEOMETRY, f REGION)",
        )
        .unwrap();
        let schema = db.catalog().table("t").unwrap().schema().clone();
        assert_eq!(schema.column(0).unwrap().data_type, DataType::Int);
        assert_eq!(schema.column(4).unwrap().data_type, DataType::Point);
        assert_eq!(schema.column(5).unwrap().data_type, DataType::Rect);
        assert!(matches!(
            db.execute("CREATE TABLE bad (a BLOB)").unwrap_err(),
            EngineError::UnknownType(_)
        ));
    }

    #[test]
    fn insert_constant_expressions() {
        let db = RecDb::new();
        db.execute("CREATE TABLE t (a INT, p POINT, r RECT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1 + 2, POINT(1, 2), RECT(0, 0, 5, 5))")
            .unwrap();
        let rows = db.query("SELECT * FROM t").unwrap();
        assert_eq!(rows.value(0, "a").unwrap(), &Value::Int(3));
        assert_eq!(rows.value(0, "p").unwrap(), &Value::Point(1.0, 2.0));
        // Non-constant rows are rejected.
        let err = db.execute("INSERT INTO t VALUES (x, POINT(1,2), RECT(0,0,1,1))");
        assert!(matches!(
            err.unwrap_err(),
            EngineError::NonConstantInsert(_)
        ));
    }

    #[test]
    fn explain_shows_optimized_plan() {
        let db = with_recommender();
        let text = db
            .explain(
                "SELECT R.iid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1",
            )
            .unwrap();
        assert!(text.contains("FilterRecommend"), "{text}");
    }

    #[test]
    fn create_and_drop_index_via_sql() {
        let db = figure1_db();
        assert!(matches!(
            db.execute("CREATE INDEX movies_mid ON movies (mid)")
                .unwrap(),
            QueryResult::IndexCreated(_)
        ));
        assert!(db
            .catalog()
            .table("movies")
            .unwrap()
            .index("movies_mid")
            .is_ok());
        assert!(matches!(
            db.execute("DROP INDEX movies_mid ON movies").unwrap(),
            QueryResult::IndexDropped(_)
        ));
        assert!(db.execute("DROP INDEX movies_mid ON movies").is_err());
        assert!(db.execute("CREATE INDEX i ON movies (nosuch)").is_err());
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let db = with_recommender();
        let rows = db
            .query(
                "EXPLAIN SELECT R.iid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1",
            )
            .unwrap();
        let text: Vec<String> = rows
            .column_values("plan")
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(
            text.iter().any(|l| l.contains("FilterRecommend")),
            "{text:?}"
        );
    }

    #[test]
    fn clock_ticks_per_statement() {
        let db = RecDb::new();
        assert_eq!(db.clock(), 0);
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(db.clock(), 2);
    }

    #[test]
    fn delete_statement_removes_rows_and_retrains() {
        let db = with_recommender();
        // Delete all of user 2's ratings (4 rows of 7 → well past N%).
        let result = db.execute("DELETE FROM ratings WHERE uid = 2").unwrap();
        assert!(matches!(result, QueryResult::Deleted(3)));
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 4);
        let rec = db.recommender("GeneralRec").unwrap();
        assert_eq!(rec.model().trained_on(), 4, "model rebuilt without user 2");
        assert_eq!(
            rec.model().matrix().user_idx(2),
            None,
            "user 2 gone from the model"
        );
    }

    #[test]
    fn update_statement_rewrites_rows() {
        let db = with_recommender();
        let result = db
            .execute("UPDATE ratings SET ratingval = 5.0 WHERE uid = 1 AND iid = 1")
            .unwrap();
        assert!(matches!(result, QueryResult::Updated(1)));
        let rows = db
            .query("SELECT ratingval FROM ratings WHERE uid = 1 AND iid = 1")
            .unwrap();
        assert_eq!(rows.value(0, "ratingval").unwrap(), &Value::Float(5.0));
        // The re-rate reached the model through maintenance.
        let rec = db.recommender("GeneralRec").unwrap();
        assert_eq!(rec.model().matrix().rating_of(1, 1), Some(5.0));
    }

    #[test]
    fn update_with_expression_and_no_filter() {
        let db = figure1_db();
        let result = db
            .execute("UPDATE ratings SET ratingval = ratingval + 1")
            .unwrap();
        assert!(matches!(result, QueryResult::Updated(7)));
        let rows = db
            .query("SELECT ratingval FROM ratings WHERE uid = 2 AND iid = 1")
            .unwrap();
        assert_eq!(rows.value(0, "ratingval").unwrap(), &Value::Float(5.5));
    }

    #[test]
    fn delete_everything() {
        let db = figure1_db();
        let result = db.execute("DELETE FROM ratings").unwrap();
        assert!(matches!(result, QueryResult::Deleted(7)));
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 0);
    }

    #[test]
    fn aggregate_sql_through_engine() {
        let db = figure1_db();
        let rows = db
            .query(
                "SELECT genre, COUNT(*) AS n FROM movies GROUP BY genre \
                 ORDER BY genre ASC",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.value(0, "genre").unwrap().as_text(), Some("Action"));
        assert_eq!(rows.value(0, "n").unwrap(), &Value::Int(1));
        // Global aggregate.
        let rows = db
            .query("SELECT COUNT(*) AS n, AVG(ratingval) AS mean FROM ratings")
            .unwrap();
        assert_eq!(rows.value(0, "n").unwrap(), &Value::Int(7));
        let mean = rows.value(0, "mean").unwrap().as_f64().unwrap();
        assert!((mean - 15.5 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn query_on_non_select_errors() {
        let db = RecDb::new();
        assert!(db.query("CREATE TABLE t (a INT)").is_err());
    }

    // ---- transactions & concurrency ----

    #[test]
    fn explicit_txn_commit_makes_writes_visible() {
        let db = figure1_db();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        assert!(session.in_transaction());
        session
            .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        session
            .execute("INSERT INTO ratings VALUES (9, 8, 3.0)")
            .unwrap();
        assert!(matches!(
            session.execute("COMMIT").unwrap(),
            QueryResult::TransactionCommitted
        ));
        assert!(!session.in_transaction());
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 9);
        assert!(!db.lock_table().is_locked("ratings"), "locks released");
    }

    #[test]
    fn rollback_undoes_inserts_deletes_and_updates() {
        let db = figure1_db();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session
            .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        session
            .execute("DELETE FROM ratings WHERE uid = 2")
            .unwrap();
        session
            .execute("UPDATE ratings SET ratingval = 0.0 WHERE uid = 1")
            .unwrap();
        session.execute("ROLLBACK").unwrap();
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        let rows = db
            .query("SELECT ratingval FROM ratings WHERE uid = 1 AND iid = 1")
            .unwrap();
        assert_eq!(rows.value(0, "ratingval").unwrap(), &Value::Float(1.5));
        assert!(!db.lock_table().is_locked("ratings"));
    }

    #[test]
    fn rollback_restores_ddl() {
        let db = with_recommender();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("CREATE TABLE scratch (a INT)").unwrap();
        session.execute("INSERT INTO scratch VALUES (1)").unwrap();
        session
            .execute("CREATE INDEX r_uid ON ratings (uid)")
            .unwrap();
        session.execute("DROP RECOMMENDER GeneralRec").unwrap();
        session.execute("DROP TABLE movies").unwrap();
        session.execute("ROLLBACK").unwrap();
        assert!(db.catalog().table("scratch").is_err(), "created table gone");
        assert!(db
            .catalog()
            .table("ratings")
            .unwrap()
            .index("r_uid")
            .is_err());
        assert_eq!(db.recommender_names(), vec!["generalrec"]);
        assert_eq!(db.catalog().table("movies").unwrap().tuple_count(), 3);
    }

    #[test]
    fn refused_create_of_a_taken_name_rolls_back_nothing_it_names() {
        let db = figure1_db();
        db.execute("CREATE INDEX movies_mid ON movies (mid)")
            .unwrap();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        let err = session.execute("CREATE TABLE Movies (a INT)").unwrap_err();
        assert_eq!(
            err,
            EngineError::Storage(StorageError::TableExists("Movies".into()))
        );
        assert!(!session.in_transaction(), "the failure aborted the txn");
        db.execute("CREATE INDEX movies_mid ON movies (genre)")
            .unwrap_err();
        let catalog = db.catalog();
        let movies = catalog.table("movies").unwrap();
        assert_eq!(movies.tuple_count(), 3);
        assert_eq!(movies.index("movies_mid").unwrap().key_columns(), [0]);
    }

    #[test]
    fn rollback_recreates_dropped_index() {
        let db = figure1_db();
        db.execute("CREATE INDEX movies_mid ON movies (mid)")
            .unwrap();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("DROP INDEX movies_mid ON movies").unwrap();
        session.execute("ROLLBACK").unwrap();
        assert!(db
            .catalog()
            .table("movies")
            .unwrap()
            .index("movies_mid")
            .is_ok());
    }

    #[test]
    fn transaction_control_errors() {
        let db = RecDb::new();
        let mut session = db.session();
        assert!(matches!(
            session.execute("COMMIT").unwrap_err(),
            EngineError::NoActiveTransaction
        ));
        assert!(matches!(
            session.execute("ROLLBACK").unwrap_err(),
            EngineError::NoActiveTransaction
        ));
        session.execute("BEGIN").unwrap();
        assert!(matches!(
            session.execute("BEGIN").unwrap_err(),
            EngineError::TransactionActive
        ));
        session.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn statement_failure_aborts_whole_transaction() {
        let db = figure1_db();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session
            .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        // A failing statement rolls the whole transaction back.
        session
            .execute("INSERT INTO nosuch VALUES (1)")
            .unwrap_err();
        assert!(!session.in_transaction());
        assert!(matches!(
            session.execute("COMMIT").unwrap_err(),
            EngineError::NoActiveTransaction
        ));
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        assert!(!db.lock_table().is_locked("ratings"));
    }

    #[test]
    fn contended_write_times_out() {
        let db = RecDb::with_config(RecDbConfig {
            lock_timeout: Duration::ZERO,
            ..Default::default()
        });
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut writer = db.session();
        writer.execute("BEGIN").unwrap();
        writer.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut other = db.session();
        other.execute("BEGIN").unwrap();
        let err = other.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert!(
            matches!(err, EngineError::LockTimeout { ref table, .. } if table == "t"),
            "{err}"
        );
        // The timed-out transaction was rolled back; the writer commits.
        assert!(!other.in_transaction());
        writer.execute("COMMIT").unwrap();
        assert_eq!(db.catalog().table("t").unwrap().tuple_count(), 1);
    }

    #[test]
    fn concurrent_readers_share_locks() {
        // Zero lock timeout: if readers blocked each other at all, the
        // second SELECT would fail instead of sharing the lock.
        let db = RecDb::with_config(RecDbConfig {
            lock_timeout: Duration::ZERO,
            ..Default::default()
        });
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut r1 = db.session();
        let mut r2 = db.session();
        r1.execute("BEGIN").unwrap();
        r2.execute("BEGIN").unwrap();
        assert_eq!(r1.query("SELECT * FROM t").unwrap().len(), 1);
        assert_eq!(r2.query("SELECT * FROM t").unwrap().len(), 1);
        // But a writer cannot join the shared lock.
        let mut w = db.session();
        w.execute("BEGIN").unwrap();
        assert!(matches!(
            w.execute("INSERT INTO t VALUES (2)").unwrap_err(),
            EngineError::LockTimeout { .. }
        ));
        r1.execute("COMMIT").unwrap();
        r2.execute("COMMIT").unwrap();
    }

    #[test]
    fn dropping_session_rolls_back_open_transaction() {
        let db = figure1_db();
        {
            let mut session = db.session();
            session.execute("BEGIN").unwrap();
            session
                .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
                .unwrap();
        }
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        assert!(!db.lock_table().is_locked("ratings"));
    }

    #[test]
    fn txn_outcomes_are_counted() {
        let db = RecDb::with_config(RecDbConfig {
            lock_timeout: Duration::ZERO,
            ..Default::default()
        });
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("COMMIT").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("ROLLBACK").unwrap();
        let mut holder = db.session();
        holder.execute("BEGIN").unwrap();
        holder.execute("INSERT INTO t VALUES (3)").unwrap();
        let mut loser = db.session();
        loser.execute("BEGIN").unwrap();
        loser.execute("INSERT INTO t VALUES (4)").unwrap_err();
        holder.execute("COMMIT").unwrap();
        let snap = db.metrics_snapshot();
        // CREATE TABLE + two INSERT auto-commits + two explicit commits.
        assert!(snap.counter("recdb_txn_total{outcome=\"commit\"}") >= 3);
        assert_eq!(snap.counter("recdb_txn_total{outcome=\"abort\"}"), 1);
        assert_eq!(snap.counter("recdb_txn_total{outcome=\"timeout\"}"), 1);
    }

    /// Each statement, failed or not, counts once under its own `kind`.
    #[test]
    fn every_statement_kind_counts_under_its_label() {
        let db = RecDb::new();
        for (sql, kind) in [
            ("CREATE TABLE t (a INT)", "create_table"),
            ("INSERT INTO t VALUES (1)", "insert"),
            ("UPDATE t SET a = 2", "update"),
            ("DELETE FROM t WHERE a = 3", "delete"),
            ("CREATE INDEX i ON t (a)", "create_index"),
            ("DROP INDEX i ON t", "drop_index"),
            ("SELECT a FROM t", "select"),
            ("EXPLAIN SELECT a FROM t", "explain"),
            ("EXPLAIN ANALYZE SELECT a FROM t", "explain_analyze"),
            ("BEGIN", "begin"),
            ("COMMIT", "commit"),
            ("ROLLBACK", "rollback"),
            (
                "CREATE RECOMMENDER r ON t USERS FROM a ITEMS FROM a \
                 RATINGS FROM a USING ItemCosCF",
                "create_recommender",
            ),
            ("DROP RECOMMENDER nosuch", "drop_recommender"),
            ("DROP TABLE t", "drop_table"),
        ] {
            let series = format!("recdb_statements_total{{kind=\"{kind}\"}}");
            let before = db.metrics_snapshot();
            let _ = db.execute(sql);
            let after = db.metrics_snapshot();
            assert_eq!(after.counter(&series), before.counter(&series) + 1, "{sql}");
            assert_eq!(
                after.counter_family("recdb_statements_total"),
                before.counter_family("recdb_statements_total") + 1,
                "{sql}"
            );
        }
    }

    #[test]
    fn engine_level_execute_joins_default_session_txn() {
        let db = figure1_db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 8);
    }

    #[test]
    fn arc_shared_engine_serves_parallel_readers() {
        let db = Arc::new(with_recommender());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let rows = db
                            .query(
                                "SELECT R.iid FROM ratings AS R \
                                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                                 WHERE R.uid = 1",
                            )
                            .unwrap();
                        assert_eq!(rows.len(), 2);
                    }
                });
            }
        });
    }

    #[test]
    fn panic_during_write_statement_releases_locks() {
        let _x = recdb_fault::exclusive();
        recdb_fault::clear();
        let db = figure1_db();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session
            .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        assert!(db.lock_table().is_locked("ratings"));
        // The next write panics at its lock acquisition; the boundary
        // must contain it, abort the whole transaction, and release the
        // ratings lock already held.
        recdb_fault::arm_panic("txn::lock_acquire", 1);
        let err = session.execute("INSERT INTO users VALUES (9, 'Mal', 'X')");
        assert!(
            matches!(err.unwrap_err(), EngineError::Internal(_)),
            "panic surfaces as a contained internal error"
        );
        assert!(!session.in_transaction());
        assert!(!db.lock_table().is_locked("ratings"), "locks released");
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 7);
        // The engine keeps serving.
        db.execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
            .unwrap();
        assert_eq!(db.catalog().table("ratings").unwrap().tuple_count(), 8);
        recdb_fault::clear();
    }
}
