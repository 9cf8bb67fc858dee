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
//! (checkpoint latch → catalog → recommender registry → durability), held
//! only for the memory mutation itself, never across model training or a
//! lock-table wait. The registry's write side is taken only by `CREATE` /
//! `DROP RECOMMENDER`, `DROP TABLE`, their undo and open; work on one
//! recommender goes through its `Arc<Recommender>` handle and its own
//! locks (edit lock → version slot), with no engine latch held.
//!
//! Every statement runs inside a transaction. Statements outside an
//! explicit `BEGIN` auto-commit an *implicit* one; either way a failed,
//! cancelled, or panicking statement rolls back its physical undo log and
//! releases its locks, so the engine keeps serving. Explicit transactions
//! write `TxnBegin`/`InTxn`/`TxnCommit` WAL records and fsync once at
//! COMMIT; recovery replays only transactions whose commit marker made it
//! to disk.
//!
//! Dispatch lives here; the other seams are child modules: `recovery`
//! (open, replay, checkpoint), `txn` (transactions and undo), `dml` (the
//! INSERT, DELETE and UPDATE bodies), `maintenance` (model rebuilds and
//! the cache manager) and `statement_metrics`.

mod dml;
mod maintenance;
mod recovery;
mod statement_metrics;
pub(crate) mod txn;

use crate::error::{EngineError, EngineResult};
use crate::recommender::{build_version, Recommender};
use crate::session::{Session, TxnState};
use crate::statement_cache::{self, CacheOutcome, Prepared};
use dml::{const_tuple, map_type};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use recdb_algo::model::TrainConfig;
use recdb_exec::{
    execute_plan, execute_plan_profiled, Clause, ExecContext, ExecMetrics, ModelVersion,
    RecommenderProvider, ResultSet,
};
use recdb_guard::QueryGuard;
use recdb_obs::{Clock, Counter, MetricsSnapshot, Registry};
use recdb_sql::{parse, parse_many, Literal, SelectStatement, Statement};
use recdb_storage::{BufferPool, Catalog, DataType, RecoveryMode, Schema, StorageError, Tuple};
use recdb_txn::LockTable;
use recdb_wal::{RecommenderDef, WalRecord};
use recovery::{apply_record, Durability, TxnGate};
pub(crate) use statement_metrics::TxnOutcome;
use statement_metrics::{StatementKind, StatementMetrics};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;
use txn::{ActiveTxn, UndoOp};

/// Default resource limits applied to every statement the engine runs,
/// the model builds of `CREATE RECOMMENDER` and the N % rule included
/// (open's retrain is unlimited). `None` everywhere means no limits — the
/// default.
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
    /// `f64::INFINITY` never rebuilds (no pending count reaches it), for
    /// benches and tests that want explicit control.
    pub maintenance_threshold_pct: f64,
    /// The Algorithm 4 `HOTNESS-THRESHOLD` in `[0, 1]`.
    pub hotness_threshold: f64,
    /// Model-training knobs shared by all recommenders.
    pub train: TrainConfig,
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
    /// uses the wall clock ([`recdb_obs::SystemClock`]); tests inject a
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
#[derive(Debug, Clone)]
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

    /// The rows of a `SELECT`; any other outcome is an error to a caller
    /// that asked for rows.
    pub(crate) fn expect_rows(self) -> EngineResult<ResultSet> {
        self.into_rows().ok_or_else(|| {
            recdb_exec::ExecError::Unsupported("statement did not produce rows".into()).into()
        })
    }
}

/// The engine: catalog + recommenders + executor behind a SQL interface.
///
/// `Send + Sync`: share one engine across threads with `Arc` and give each
/// thread its own [`Session`] (or use the engine-level [`RecDb::execute`],
/// which auto-commits each statement through an internal default session).
#[derive(Debug)]
pub struct RecDb {
    catalog: RwLock<Catalog>,
    recommenders: RwLock<Vec<Arc<Recommender>>>,
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

    /// The handle of the recommender `name`. It holds no engine latch,
    /// so it can be kept across any call into the engine.
    pub fn recommender(&self, name: &str) -> Option<Arc<Recommender>> {
        let recs = self.recommenders.read();
        recs.iter()
            .find(|r| r.name().eq_ignore_ascii_case(name))
            .cloned()
    }

    /// [`RecDb::recommender`]: a handle changes itself through `&self`.
    #[deprecated(note = "use `RecDb::recommender`")]
    pub fn recommender_mut(&self, name: &str) -> Option<Arc<Recommender>> {
        self.recommender(name)
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
        let statements = parse_many(sql)?.into_iter();
        statements
            .map(|s| self.execute_default(s, self.config.governor.guard()))
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
        self.execute(sql)?.expect_rows()
    }

    /// Execute a SELECT under an explicit [`QueryGuard`] and return its
    /// rows.
    pub fn query_with_guard(&self, sql: &str, guard: QueryGuard) -> EngineResult<ResultSet> {
        self.execute_with_guard(sql, guard)?.expect_rows()
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
        self.run_in_txn(state, &guard, |state| {
            self.run_statement(state, prepared, params, &guard)
        })
    }

    /// Run `body`, one statement's work, in the session's transaction
    /// under a panic boundary; an implicit transaction commits when it
    /// succeeds.
    fn run_in_txn<T>(
        &self,
        state: &mut TxnState,
        guard: &QueryGuard,
        body: impl FnOnce(&mut TxnState) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let e = match catch_unwind(AssertUnwindSafe(|| body(state))) {
            Ok(Ok(result)) => {
                if state.txn.as_ref().is_some_and(|t| t.implicit) {
                    let txn = state.txn.take().expect("checked implicit txn present");
                    self.finish_commit(txn, guard)
                        .map_err(|e| flatten_guard_error_counted(&self.metrics, e))?;
                }
                return Ok(result);
            }
            Ok(Err(e)) => flatten_guard_error_counted(&self.metrics, e),
            Err(payload) => EngineError::Internal(panic_message(payload.as_ref())),
        };
        self.abort_failed_statement(state, &e);
        Err(e)
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
        self.acquire_locks(state, needed, guard)?;
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
                let clause = Clause {
                    table: ratings_table,
                    users: users_column,
                    items: items_column,
                    ratings: ratings_column,
                    algorithm: algorithm
                        .parse()
                        .map_err(|_| recdb_exec::ExecError::UnknownAlgorithm(algorithm.clone()))?,
                };
                refuse_taken(&self.recommenders.read(), name, clause)?;
                let def = RecommenderDef {
                    name: name.clone(),
                    table: ratings_table.clone(),
                    users: users_column.clone(),
                    items: items_column.clone(),
                    ratings: ratings_column.clone(),
                    algorithm: algorithm.clone(),
                };
                // The build scans under a short read latch and trains with
                // no engine latch held — the table's X lock (already ours)
                // keeps the scanned matrix authoritative.
                let version = build_version(&def, &self.config.train, &self.catalog, None, guard)?;
                let rec = Recommender::new(
                    def,
                    version,
                    self.config.hotness_threshold,
                    self.clock(),
                    Arc::clone(&self.pool),
                )?;
                let build_time = rec.build_time();
                self.observe_model_build(rec.algorithm(), build_time);
                let log_record = WalRecord::CreateRecommender(rec.def().clone());
                let txn = Self::active(state);
                let _ckpt = self.ckpt_latch.read();
                {
                    let mut recs = self.recommenders.write();
                    refuse_taken(&recs, rec.name(), rec.clause())?;
                    txn.undo.push(UndoOp::CreatedRecommender {
                        name: rec.name().to_owned(),
                    });
                    self.gauge_materialized(&rec);
                    recs.push(Arc::new(rec));
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
                    let recommender = recs.remove(pos);
                    self.gauge_dropped(recommender.name());
                    txn.undo.push(UndoOp::DroppedRecommender { recommender });
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
                let lines = plan.explain().lines().map(str::to_owned).collect();
                Ok(QueryResult::Rows(plan_rows(lines)))
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
        touched: Vec<(Arc<Recommender>, i64)>,
    ) -> EngineResult<()> {
        let _ckpt = self.ckpt_latch.read();
        {
            let mut catalog = self.catalog.write();
            txn.capture_undo(&catalog, &record)?;
            if let Some(mut undo) = apply_record(&mut catalog, &record)? {
                if let UndoOp::DroppedTable {
                    table,
                    recommenders,
                } = &mut undo
                {
                    let mut recs = self.recommenders.write();
                    (*recommenders, *recs) = recs
                        .drain(..)
                        .partition(|r| r.ratings_table() == table.name());
                    for rec in recommenders.iter() {
                        self.gauge_dropped(rec.name());
                    }
                }
                txn.undo.push(undo);
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
        let ctx = ExecContext::new(&catalog, self, guard.clone()).with_metrics(&self.exec_metrics);
        let (rows, profile) = execute_plan_profiled(plan, &ctx, Arc::clone(&self.wall))?;
        self.rows_returned.add(rows.len() as u64);
        Ok(plan_rows(profile.render()))
    }
}

impl RecommenderProvider for RecDb {
    /// The version of the recommender `clause` names, found in one pass
    /// that also counts `users` in its Users Histogram (`QC_u`, `TS_u`).
    fn version(&self, clause: Clause<'_>, users: &[i64]) -> Option<Arc<ModelVersion>> {
        let recs = self.recommenders.read();
        let rec = recs.iter().find(|r| r.clause().matches(&clause))?;
        let now = self.clock();
        for &u in users {
            rec.record_query(u, now);
        }
        Some(rec.version())
    }
}

/// Refuse a new recommender `name` over `clause` if a recommender
/// already takes the name or already serves the clause.
fn refuse_taken(recs: &[Arc<Recommender>], name: &str, clause: Clause<'_>) -> EngineResult<()> {
    match recs
        .iter()
        .find(|r| r.name().eq_ignore_ascii_case(name) || r.clause().matches(&clause))
    {
        Some(r) => Err(EngineError::RecommenderExists(r.name().to_owned())),
        None => Ok(()),
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

/// Lift governor verdicts buried in the executor layer to first-class
/// engine errors (`Cancelled` / `ResourceExhausted`), and count them in
/// `recdb_governor_cancellations_total{cause=…}` so operators can see *why*
/// queries are being killed without scraping logs.
fn flatten_guard_error_counted(metrics: &Registry, e: EngineError) -> EngineError {
    let e = match e {
        EngineError::Exec(recdb_exec::ExecError::Guard(g)) => g.into(),
        other => other,
    };
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

/// Plan text as a one-column `plan` result, one row per line.
fn plan_rows(lines: Vec<String>) -> ResultSet {
    let schema = Schema::from_pairs(&[("plan", DataType::Text)]);
    let rows = lines
        .into_iter()
        .map(|l| Tuple::new(vec![l.into()]))
        .collect();
    ResultSet::new(schema, rows)
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

    /// A reader holding a version across an N% rebuild keeps the model
    /// and the index of one build; a fresh lookup returns the rebuild's.
    #[test]
    fn a_held_version_stays_one_build_across_a_publish() {
        let db = with_recommender();
        db.materialize("GeneralRec").unwrap();
        let rec = db.recommender("GeneralRec").unwrap();
        let held = rec.version();
        let entries = |version: &ModelVersion| -> Vec<(i64, i64, u64)> {
            let index = version.index.as_ref().unwrap();
            (1..=4)
                .flat_map(|u| {
                    index
                        .iter_desc(u, None, None)
                        .map(move |(i, s)| (u, i, s.to_bits()))
                })
                .collect()
        };
        let before = entries(&held);
        assert!(before.iter().any(|&(u, i, _)| (u, i) == (4, 3)));
        db.execute("INSERT INTO ratings VALUES (4, 3, 5.0)")
            .unwrap();
        assert_eq!(held.model.trained_on(), 7);
        assert_eq!(entries(&held), before);
        let fresh = rec.version();
        assert_eq!(fresh.model.trained_on(), 8);
        let index = fresh.index.as_ref().unwrap();
        assert!(index.is_complete(4) && index.iter_desc(4, None, None).all(|(i, _)| i != 3));
        assert!(Arc::ptr_eq(&fresh.model, &rec.model()));
        assert!(Arc::ptr_eq(index, &rec.index().unwrap()));
    }

    #[test]
    fn maintenance_can_be_deferred() {
        let db = RecDb::with_config(RecDbConfig {
            maintenance_threshold_pct: f64::INFINITY,
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
}
