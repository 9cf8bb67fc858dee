//! Crash-recovery acceptance tests: WAL replay, checkpointing, torn-tail
//! truncation, checksum verification, and the fault-injected crash matrix.
//!
//! Every test holds [`recdb::fault::exclusive`] for its whole body: durable
//! statements pass through the `wal::*` / `storage::*` fail points, and the
//! fault registry is process-global while the harness runs tests in
//! parallel.
//!
//! Crash model: dropping a [`RecDb`] *is* the crash — there is no `Drop`
//! flush. A statement counts as committed only when `execute` returned
//! `Ok`; after reopen the engine must hold exactly what a serial replay of
//! the acknowledged statements holds (`common::History`): nothing lost and
//! nothing phantom, in every row, index and recommender definition.

mod common;

use common::{fault_seed, temp_dir, History, Outcome};
use proptest::prelude::*;
use recdb::core::{EngineError, RecDb, RecDbConfig};
use recdb::datasets::{generate, SyntheticSpec};
use recdb::exec::ExecError;
use recdb::fault;
use recdb::storage::{RecoveryMode, Value};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;

/// One step of a crash-matrix workload.
#[derive(Debug)]
enum Op {
    Sql(String),
    Checkpoint,
    /// Materialize the recommender's RecScoreIndex (B+-tree inserts, node
    /// splits, and heavy pool traffic). The index is derived state: the
    /// replay never runs this step.
    Materialize(&'static str),
}

/// Where a run crashed: the step that failed, and the message it panicked
/// with, if it panicked.
#[derive(Debug)]
struct Crash {
    step: usize,
    panic: Option<String>,
}

/// A crash-matrix workload and the pool it runs against. Auto-maintenance
/// is off: it runs *after* a statement's commit fsync, so a fault injected
/// there would crash a statement that is already durable — outside the
/// acknowledged-prefix crash model. Index builds are driven by the
/// explicit `Materialize` step instead.
struct Matrix {
    steps: Vec<Op>,
    pool_pages: usize,
    /// Whether an injected fault may surface as a panic: the
    /// RecScoreIndex's tree operations under pool pressure. Elsewhere a
    /// site must fail with an error, and a panic fails the test.
    panics: bool,
}

impl Matrix {
    /// Multi-row inserts, an index build, an update, a delete, and
    /// mid-stream checkpoints so `storage::page_flush` and
    /// `storage::checkpoint` are reached too; default pool.
    fn mixed() -> Self {
        let sql = |s: &str| Op::Sql(s.to_owned());
        Matrix {
            steps: vec![
                sql("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"),
                sql("INSERT INTO ratings VALUES (1, 1, 5.0), (1, 2, 3.0)"),
                sql("INSERT INTO ratings VALUES (2, 1, 4.0), (2, 3, 5.0)"),
                sql("CREATE INDEX ratings_uid ON ratings (uid)"),
                Op::Checkpoint,
                sql("INSERT INTO ratings VALUES (3, 2, 2.5)"),
                sql("UPDATE ratings SET ratingval = 4.5 WHERE uid = 1 AND iid = 2"),
                sql("DELETE FROM ratings WHERE uid = 2 AND iid = 1"),
                Op::Checkpoint,
                sql("INSERT INTO ratings VALUES (4, 1, 3.5)"),
            ],
            pool_pages: RecDbConfig::default().buffer_pool_pages,
            panics: false,
        }
    }

    /// A workload sized against a 4-frame pool: a multi-page ratings table
    /// whose secondary index is created first, so its tree splits and pages
    /// inside the INSERTs; a recommender whose materialized index splits
    /// its own tree; checkpoints (which stream every heap page through the
    /// pool); and a full-table UPDATE scan.
    fn small_pool() -> Self {
        let mut steps = vec![
            Op::Sql("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)".into()),
            Op::Sql("CREATE INDEX ratings_uid ON ratings (uid)".into()),
        ];
        let mut rows: Vec<String> = Vec::new();
        for u in 0..12i64 {
            for i in 0..110i64 {
                if (u * 5 + i) % 4 == 0 {
                    continue; // held out: every user keeps unseen items
                }
                let val = f64::from(((u + i * 3) % 9 + 1) as i32) / 2.0;
                rows.push(format!("({u}, {i}, {val})"));
            }
        }
        for chunk in rows.chunks(90) {
            steps.push(Op::Sql(format!(
                "INSERT INTO ratings VALUES {}",
                chunk.join(", ")
            )));
        }
        steps.extend([
            Op::Sql(
                "CREATE RECOMMENDER PoolRec ON ratings \
                 USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF"
                    .into(),
            ),
            Op::Materialize("PoolRec"),
            Op::Checkpoint,
            Op::Sql("UPDATE ratings SET ratingval = 1.5 WHERE uid = 7".into()),
            Op::Sql("DELETE FROM ratings WHERE iid = 42".into()),
            Op::Checkpoint,
        ]);
        Matrix {
            steps,
            pool_pages: 4,
            panics: true,
        }
    }

    fn config(&self, dir: &Path, recovery: RecoveryMode) -> RecDbConfig {
        RecDbConfig {
            data_dir: Some(dir.to_path_buf()),
            recovery,
            buffer_pool_pages: self.pool_pages,
            maintenance_threshold_pct: f64::INFINITY,
            ..RecDbConfig::default()
        }
    }

    /// Run the steps against a fresh durable engine in `dir` with `fault`
    /// (site, nth hit) armed, and crash — drop the engine, nothing flushed
    /// — at the first step that fails or panics. Where the workload allows
    /// it, a panic is a crash too: the WAL never saw a commit marker for
    /// the statement. Returns what the engine was sent and answered, and
    /// the crash, if any.
    fn run(&self, dir: &Path, fault: Option<(&'static str, u64)>) -> (History, Option<Crash>) {
        fault::clear();
        let db = RecDb::open_with_config(self.config(dir, RecoveryMode::Strict))
            .expect("open fresh durable engine");
        if let Some((site, nth)) = fault {
            fault::arm_error(site, nth);
        }
        // Keep this thread's expected unwinds out of the test output; other
        // threads' panics still print.
        let quiet = self.panics.then(|| {
            let this = std::thread::current().id();
            let hook = Arc::new(std::panic::take_hook());
            let inner = Arc::clone(&hook);
            std::panic::set_hook(Box::new(move |info| {
                if std::thread::current().id() != this {
                    inner(info);
                }
            }));
            hook
        });
        let mut history = History::new();
        let mut crash = None;
        for (i, step) in self.steps.iter().enumerate() {
            let survived = std::panic::catch_unwind(AssertUnwindSafe(|| match step {
                Op::Sql(sql) => history.exec(&db, sql),
                Op::Checkpoint => db.checkpoint().is_ok(),
                Op::Materialize(rec) => db.materialize(rec).is_ok(),
            }));
            let panic = match survived {
                Ok(true) => continue,
                Ok(false) => None,
                Err(payload) => {
                    if let Op::Sql(sql) = step {
                        history.record(Outcome::Failed, sql);
                    }
                    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
                    Some(
                        text.or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_default(),
                    )
                }
            };
            crash = Some(Crash { step: i, panic });
            break;
        }
        if let Some(hook) = quiet {
            drop(std::panic::take_hook());
            std::panic::set_hook(Arc::into_inner(hook).expect("the quiet hook is gone"));
        }
        fault::clear();
        (history, crash)
    }

    /// Reopen `dir` in `mode`; the recovered engine must match `history`.
    fn recover(&self, dir: &Path, mode: RecoveryMode, history: &History, context: &str) -> RecDb {
        let db = RecDb::open_with_config(self.config(dir, mode))
            .unwrap_or_else(|e| panic!("{context}: reopen failed: {e}"));
        history.assert_matches(&db, context);
        db
    }

    /// Run with `site` armed to fail at its `nth` hit, crash, reopen in
    /// `mode`, and check the recovered engine. Returns the crash.
    fn crash_once(&self, site: &'static str, nth: u64, mode: RecoveryMode) -> Option<Crash> {
        let dir = temp_dir("crash");
        let (history, crash) = self.run(dir.path(), Some((site, nth)));
        let context = format!("site {site} nth {nth} ({mode:?}), crash {crash:?}");
        let panicked = matches!(&crash, Some(Crash { panic: Some(_), .. }));
        assert!(self.panics || !panicked, "{context}: a panic, not an error");
        self.recover(dir.path(), mode, &history, &context);
        crash
    }
}

/// Sweep one fail site of the mixed workload across every hit position it
/// can reach.
fn crash_matrix(site: &'static str, max_nth: u64) {
    let _gate = fault::exclusive();
    let matrix = Matrix::mixed();
    for nth in 1..=max_nth {
        matrix.crash_once(site, nth, RecoveryMode::Strict);
    }
}

// ---------------------------------------------------------------------
// Clean-path durability
// ---------------------------------------------------------------------

#[test]
fn durable_engine_survives_clean_reopen_with_checkpoint() {
    let _gate = fault::exclusive();
    let dir = temp_dir("clean");
    let mut matrix = Matrix::mixed();
    matrix.steps.push(Op::Checkpoint);
    let (history, crash) = matrix.run(dir.path(), None);
    assert!(crash.is_none(), "{crash:?}");
    let db = matrix.recover(dir.path(), RecoveryMode::Strict, &history, "clean reopen");
    assert_eq!(db.data_dir(), Some(dir.path()));
    // The final checkpoint covered every record, so the log is only a
    // 16-byte header again.
    let wal_len = std::fs::metadata(dir.path().join("wal.log"))
        .expect("wal")
        .len();
    assert_eq!(wal_len, 16, "checkpoint should prune the log");
}

#[test]
fn uncheckpointed_commits_replay_from_the_log() {
    let _gate = fault::exclusive();
    let dir = temp_dir("replay");
    // Checkpoints left out on purpose: everything must come back from WAL
    // replay alone.
    let mut matrix = Matrix::mixed();
    matrix.steps.retain(|s| !matches!(s, Op::Checkpoint));
    let (history, crash) = matrix.run(dir.path(), None);
    assert!(crash.is_none(), "{crash:?}");
    matrix.recover(dir.path(), RecoveryMode::Strict, &history, "log replay");
}

#[test]
fn torn_wal_tail_loses_only_the_torn_suffix() {
    let _gate = fault::exclusive();
    let dir = temp_dir("torn");
    let mut matrix = Matrix::mixed();
    matrix.steps.truncate(2);
    let (mut history, crash) = matrix.run(dir.path(), None);
    assert!(crash.is_none(), "{crash:?}");
    // Simulate a crash mid-append: garbage after the last good frame.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.path().join("wal.log"))
        .expect("open wal");
    f.write_all(&[0xAB; 37]).expect("tear the tail");
    drop(f);

    let db = matrix.recover(dir.path(), RecoveryMode::Strict, &history, "torn tail");
    // The healed log keeps accepting commits.
    history.must(&db, "INSERT INTO ratings VALUES (3, 1, 2.0)");
    drop(db);
    matrix.recover(dir.path(), RecoveryMode::Strict, &history, "after the heal");
}

// ---------------------------------------------------------------------
// Crash matrix: every fail point, every hit position
// ---------------------------------------------------------------------

#[test]
fn crash_matrix_wal_append() {
    // One hit per durable statement: sweep past the workload length.
    crash_matrix("wal::append", 9);
}

#[test]
fn crash_matrix_wal_fsync() {
    crash_matrix("wal::fsync", 9);
}

#[test]
fn crash_matrix_page_flush() {
    // Fires once per dirty page written by a checkpoint.
    crash_matrix("storage::page_flush", 4);
}

#[test]
fn crash_matrix_checkpoint() {
    // Fires once per checkpoint, just before the manifest rename.
    crash_matrix("storage::checkpoint", 2);
}

/// CI matrix entry point: drives the crash schedule from
/// `RECDB_FAULT_SEED` (seeds 1, 7, 42 in the workflow).
#[test]
fn seeded_crash_sweep_recovers_committed_prefix() {
    let _gate = fault::exclusive();
    let matrix = Matrix::mixed();
    for site in [
        "wal::append",
        "wal::fsync",
        "storage::page_flush",
        "storage::checkpoint",
    ] {
        let nth = fault::schedule_nth(fault_seed(), site, 9);
        matrix.crash_once(site, nth, RecoveryMode::Strict);
    }
}

// ---------------------------------------------------------------------
// Crash matrix under buffer-pool pressure: storage::pool_evict and
// storage::btree_split
// ---------------------------------------------------------------------

/// How many times the small-pool workload reaches `storage::btree_split`
/// before its `Materialize` step (the secondary index's splits, all inside
/// INSERTs), and how many times that step does (the RecScoreIndex's).
fn split_counts() -> (u64, u64) {
    const SITE: &str = "storage::btree_split";
    fault::clear();
    let dir = temp_dir("split-count");
    let matrix = Matrix::small_pool();
    let db = RecDb::open_with_config(matrix.config(dir.path(), RecoveryMode::Strict))
        .expect("open small-pool engine");
    fault::arm_error(SITE, u64::MAX / 2); // enables hit counting; never fires
    let mut before = None;
    for step in &matrix.steps {
        match step {
            Op::Sql(sql) => drop(db.execute(sql).expect("unfaulted statement")),
            Op::Checkpoint => db.checkpoint().expect("unfaulted checkpoint"),
            Op::Materialize(rec) => {
                before = Some(fault::hits(SITE));
                db.materialize(rec).expect("unfaulted materialize");
                break;
            }
        }
    }
    let before = before.expect("the workload materializes");
    let during = fault::hits(SITE) - before;
    fault::clear();
    (before, during)
}

#[test]
fn crash_matrix_pool_evict() {
    let _gate = fault::exclusive();
    let matrix = Matrix::small_pool();
    // Evictions number in the hundreds under a 4-frame pool; probe the
    // early hits densely and the tail geometrically.
    for nth in [1, 2, 3, 5, 9, 27, 81, 243] {
        matrix.crash_once("storage::pool_evict", nth, RecoveryMode::Strict);
    }
}

#[test]
fn crash_matrix_btree_split() {
    let _gate = fault::exclusive();
    // The first splits are the secondary index's, inside the INSERTs;
    // materializing the score index splits its tree (the panicking
    // RecScoreIndex path) after them. Crash at every one of both kinds.
    let (index_splits, score_splits) = split_counts();
    assert!(
        index_splits >= 4,
        "only {index_splits} secondary-index splits"
    );
    assert!(score_splits >= 1, "materializing split nothing");
    let matrix = Matrix::small_pool();
    for nth in 1..=index_splits + score_splits {
        let crash = matrix.crash_once("storage::btree_split", nth, RecoveryMode::Strict);
        let step = crash.as_ref().map(|c| &matrix.steps[c.step]);
        let in_insert = matches!(step, Some(Op::Sql(sql)) if sql.starts_with("INSERT"));
        let in_materialize = matches!(step, Some(Op::Materialize(_)));
        let want_insert = nth <= index_splits;
        assert!(
            (in_insert, in_materialize) == (want_insert, !want_insert),
            "nth {nth} of {index_splits} + {score_splits}: {crash:?} at {step:?}"
        );
    }
}

/// The seeded sweep over the pool-pressure sites, in both recovery
/// modes (CI drives `RECDB_FAULT_SEED` as for the main matrix).
#[test]
fn seeded_pool_crash_sweep_recovers_in_both_modes() {
    let _gate = fault::exclusive();
    let matrix = Matrix::small_pool();
    for site in ["storage::pool_evict", "storage::btree_split"] {
        let nth = fault::schedule_nth(fault_seed(), site, 64);
        matrix.crash_once(site, nth, RecoveryMode::Strict);
        matrix.crash_once(site, nth, RecoveryMode::SalvageToLastGood);
    }
}

// ---------------------------------------------------------------------
// Checksums: corruption detection and salvage
// ---------------------------------------------------------------------

/// Build a two-table checkpoint and then flip one byte inside a `ratings`
/// page, returning the data directory.
fn corrupted_checkpoint(tag: &str) -> common::TempDir {
    let dir = temp_dir(tag);
    {
        let db = RecDb::open(dir.path()).expect("open");
        db.execute_script(
            "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             CREATE TABLE items (iid INT, name TEXT);
             INSERT INTO ratings VALUES (1, 1, 5.0), (2, 1, 4.0), (3, 2, 3.0);
             INSERT INTO items VALUES (1, 'Spartacus'), (2, 'Inception');",
        )
        .expect("seed");
        db.checkpoint().expect("checkpoint");
    }
    let page_file = std::fs::read_dir(dir.path())
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("ratings.") && name.ends_with(".tbl")
        })
        .expect("ratings page file exists");
    let mut bytes = std::fs::read(&page_file).expect("read page file");
    bytes[100] ^= 0xFF; // flip one byte inside page 0's payload
    std::fs::write(&page_file, bytes).expect("write corrupted file");
    dir
}

#[test]
fn corrupted_page_in_strict_mode_names_table_file_and_page() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = corrupted_checkpoint("strict");
    match RecDb::open(dir.path()) {
        Err(EngineError::Corruption { table, source }) => {
            assert_eq!(table, "ratings");
            let msg = source.to_string();
            assert!(msg.contains("ratings."), "file not named: {msg}");
            assert!(msg.contains("page 0"), "page not named: {msg}");
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
}

#[test]
fn corrupted_page_in_salvage_mode_keeps_the_healthy_tables() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = corrupted_checkpoint("salvage");
    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        recovery: RecoveryMode::SalvageToLastGood,
        ..RecDbConfig::default()
    })
    .expect("salvage open succeeds");
    // The bad page is blanked, the rest of the database serves.
    let items = db
        .query("SELECT iid, name FROM items")
        .expect("items intact");
    assert_eq!(items.len(), 2);
    assert_eq!(
        db.query("SELECT uid FROM ratings")
            .expect("table usable")
            .len(),
        0,
        "the corrupt page's rows are gone, not resurrected"
    );
    // And the salvaged engine accepts new writes.
    db.execute("INSERT INTO ratings VALUES (9, 9, 1.0)")
        .expect("insert after salvage");
    assert_eq!(db.query("SELECT uid FROM ratings").expect("rows").len(), 1);
}

// ---------------------------------------------------------------------
// Recommenders: definitions persist, models rebuild
// ---------------------------------------------------------------------

#[test]
fn recommender_answers_survive_crash_and_reopen() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("rec");
    let dir = tmp.path();
    const RECOMMEND: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";
    let answers_before;
    {
        let db = RecDb::open(dir).expect("open");
        db.execute_script(
            "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             INSERT INTO ratings VALUES (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5),
                                        (2, 3, 2.0), (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);
             CREATE RECOMMENDER GeneralRec ON ratings \
             USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF;",
        )
        .expect("seed + recommender");
        let rows = db.query(RECOMMEND).expect("recommend before crash");
        answers_before = (0..rows.len())
            .map(|i| {
                format!(
                    "{}|{}",
                    rows.value(i, "iid").unwrap(),
                    rows.value(i, "ratingval").unwrap()
                )
            })
            .collect::<Vec<_>>();
        assert!(!answers_before.is_empty());
        // No checkpoint: definition and ratings come back via the WAL,
        // and the model is rebuilt from the recovered rows.
    }
    // Open's retrain is the build CREATE RECOMMENDER runs, fault sites
    // live: a fault in it fails the open, and the next open recovers.
    fault::arm_error("algo::neighborhood_build", 1);
    let err = RecDb::open(dir).expect_err("the retrain's fault fails the open");
    assert!(
        matches!(
            &err,
            EngineError::Exec(ExecError::FaultInjected(f)) if f.site == "algo::neighborhood_build"
        ),
        "{err:?}"
    );
    fault::clear();
    let db = RecDb::open(dir).expect("reopen");
    assert_eq!(db.recommender_names(), vec!["generalrec"]);
    let rows = db.query(RECOMMEND).expect("recommend after recovery");
    let answers_after = (0..rows.len())
        .map(|i| {
            format!(
                "{}|{}",
                rows.value(i, "iid").unwrap(),
                rows.value(i, "ratingval").unwrap()
            )
        })
        .collect::<Vec<_>>();
    assert_eq!(answers_after, answers_before, "same model, same answers");

    // A checkpoint persists the definition in the manifest too: prune the
    // log, reopen, and the recommender is still there.
    db.checkpoint().expect("checkpoint");
    drop(db);
    let db = RecDb::open(dir).expect("reopen from checkpoint");
    assert_eq!(db.recommender_names(), vec!["generalrec"]);
    assert!(!db.query(RECOMMEND).expect("recommend").is_empty());

    // DROP RECOMMENDER is durable as well.
    db.execute("DROP RECOMMENDER GeneralRec").expect("drop");
    drop(db);
    let db = RecDb::open(dir).expect("reopen after drop");
    assert!(db.recommender_names().is_empty());
}

// ---------------------------------------------------------------------
// Live state == replayed state
// ---------------------------------------------------------------------

/// Every table's heap as encoded page blocks (at LSN 0), its live tuple
/// count, and each secondary index's tree keys in order (value prefix +
/// rid) — the state WAL replay must reproduce byte for byte, because
/// later `Delete`/`Update` records name rids.
type PhysicalTable = (String, Vec<Vec<u8>>, u64, Vec<(String, Vec<[u8; 24]>)>);

fn physical_state(db: &RecDb) -> Vec<PhysicalTable> {
    let catalog = db.catalog();
    catalog
        .tables()
        .map(|t| {
            let pages = (0..t.heap().page_count() as u32)
                .map(|p| t.heap().encode_page_block(p, 0).expect("page block"))
                .collect();
            let indexes = t
                .indexes()
                .iter()
                .map(|idx| {
                    (
                        idx.name().to_owned(),
                        idx.tree().keys().expect("index keys"),
                    )
                })
                .collect();
            (t.name().to_owned(), pages, t.tuple_count(), indexes)
        })
        .collect()
}

/// One generated step: `(kind, table, column, rows, pivot)`. Rows are
/// `(a, b, text length)`; the text column makes UPDATEs move tuples.
type Step = (u8, u8, u8, Vec<(i64, i64, usize)>, i64);

fn step_sql((kind, table, column, rows, pivot): &Step) -> String {
    let t = format!("t{table}");
    let col = ["a", "b", "c"][*column as usize];
    match kind {
        0 => format!("CREATE TABLE {t} (a INT, b FLOAT, c TEXT)"),
        1 => format!("DROP TABLE {t}"),
        2..=4 => {
            let values: Vec<String> = rows
                .iter()
                .map(|(a, b, len)| format!("({a}, {b}.5, '{}')", "x".repeat(*len)))
                .collect();
            format!("INSERT INTO {t} VALUES {}", values.join(", "))
        }
        5 => format!("DELETE FROM {t} WHERE a % 4 = {}", pivot % 4),
        6 => format!(
            "UPDATE {t} SET b = b + 1, c = '{}' WHERE a < {pivot}",
            "y".repeat(rows.len() * 3)
        ),
        7 => format!("CREATE INDEX {t}_{col} ON {t} ({col})"),
        8 => format!("DROP INDEX {t}_{col} ON {t}"),
        9 => "BEGIN".to_owned(),
        10 => "COMMIT".to_owned(),
        // Half-applied: the statement fails on a value of the wrong type
        // for the INT column after earlier rows of its record were
        // applied, so undo runs on a partly applied record. The INSERT's
        // last row is a TEXT. The UPDATE sets `a` to NULL where
        // `a >= pivot / 2` and to TRUE below it, so it fails on the first
        // such row in heap order, after the rows before it were moved.
        11 if pivot % 2 == 0 => {
            let values: Vec<String> = rows
                .iter()
                .map(|(a, b, len)| format!("({a}, {b}.5, '{}')", "x".repeat(*len)))
                .collect();
            format!(
                "INSERT INTO {t} VALUES {}, ('x', 0.5, 'x')",
                values.join(", ")
            )
        }
        11 => format!(
            "UPDATE {t} SET a = a < {} OR NULL WHERE a < {pivot}",
            pivot / 2
        ),
        _ => "ROLLBACK".to_owned(),
    }
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..13,
            0u8..2,
            0u8..3,
            proptest::collection::vec((0i64..40, 0i64..5, 0usize..120), 1..40),
            0i64..40,
        ),
        1..30,
    )
}

proptest! {
    /// Whatever a script of DDL, DML and transactions leaves in a durable
    /// engine, dropping the engine without a checkpoint and replaying the
    /// WAL rebuilds byte-identical heaps and the same index entries.
    /// Statements that fail (a missing table, a duplicate index, a row of
    /// the wrong type after earlier rows were applied) are part of the
    /// script: they roll back, and replay must not see them.
    #[test]
    fn live_state_equals_replayed_state(script in script_strategy()) {
        let _gate = fault::exclusive();
        fault::clear();
        let tmp = temp_dir("live-replay");
        let dir = tmp.path();
        let config = || RecDbConfig {
            data_dir: Some(dir.to_path_buf()),
            buffer_pool_pages: 4,
            ..RecDbConfig::default()
        };
        let db = RecDb::open_with_config(config()).expect("open");
        let live = {
            let mut session = db.session();
            for sql in ["CREATE TABLE t0 (a INT, b FLOAT, c TEXT)", "CREATE TABLE t1 (a INT, b FLOAT, c TEXT)"] {
                session.execute(sql).expect("seed tables");
            }
            for step in &script {
                let _ = session.execute(&step_sql(step));
            }
            if session.in_transaction() {
                session.execute("COMMIT").expect("final commit");
            }
            drop(session);
            physical_state(&db)
        };
        drop(db); // crash: no checkpoint
        let replayed = physical_state(&RecDb::open_with_config(config()).expect("reopen"));
        // Name the first difference before comparing every byte.
        let summary = |state: &[PhysicalTable]| -> Vec<(String, Vec<u32>, u64, usize)> {
            state
                .iter()
                .map(|(name, pages, rows, indexes)| {
                    let page_crcs = pages.iter().map(|p| recdb::storage::crc32(p)).collect();
                    (name.clone(), page_crcs, *rows, indexes.len())
                })
                .collect()
        };
        prop_assert_eq!(summary(&live), summary(&replayed));
        prop_assert!(live == replayed, "heap bytes or index entries differ");
    }
}

/// An UPDATE moves each row it rewrites to the heap's last page. Rolling
/// it back must put that page back too, even when no row it matched lived
/// there: the rolled-back heap is the one it started from, byte for byte.
#[test]
fn a_rolled_back_update_restores_the_page_its_rows_moved_to() {
    let db = RecDb::new();
    db.execute("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
        .expect("create");
    let rows: Vec<String> = (0..300)
        .map(|a| format!("({a}, 0.5, '{}')", "x".repeat(40)))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .expect("insert");
    let before = physical_state(&db);
    let pages = |db: &RecDb| db.catalog().table("t").expect("t").heap().page_count();
    let last_page = pages(&db) - 1;
    assert!(last_page >= 1, "a multi-page heap");
    let mut session = db.session();
    session.execute("BEGIN").expect("begin");
    session
        .execute("UPDATE t SET b = 1.5 WHERE a = 0")
        .expect("update row 0, on page 0");
    assert_eq!(pages(&db) - 1, last_page, "the moved row fit the last page");
    session.execute("ROLLBACK").expect("rollback");
    assert!(physical_state(&db) == before, "heap bytes differ");
}

// ---------------------------------------------------------------------
// Datasets loaded into a durable engine
// ---------------------------------------------------------------------

/// `Dataset::load_into` is logged like any other DDL and DML: a crash
/// before the first checkpoint replays every table and row.
#[test]
fn dataset_loaded_into_a_durable_engine_survives_a_crash() {
    let _gate = fault::exclusive();
    fault::clear();
    for spec in [
        SyntheticSpec::movielens().scaled(0.02),
        SyntheticSpec::yelp().scaled(0.02),
    ] {
        let dataset = generate(&spec);
        let tmp = temp_dir("load-into");
        let dir = tmp.path();
        let counts = |db: &RecDb| -> Vec<(String, u64)> {
            let catalog = db.catalog();
            catalog
                .tables()
                .map(|t| (t.name().to_owned(), t.tuple_count()))
                .collect()
        };
        let loaded = {
            let mut db = RecDb::open(dir).expect("open");
            dataset.load_into(&mut db).expect("load");
            counts(&db)
        };
        assert_eq!(
            loaded
                .iter()
                .find(|(t, _)| t == "ratings")
                .map(|(_, n)| *n as usize),
            Some(dataset.ratings.len())
        );
        let db = RecDb::open(dir).expect("reopen without a checkpoint");
        assert_eq!(counts(&db), loaded);
    }
}

// ---------------------------------------------------------------------
// Durable byte formats, pinned by files an earlier build wrote
// ---------------------------------------------------------------------

/// Written by the engine at commit `95269c0`: a checkpoint at LSN 5 (two
/// empty tables of every column type, two indexes, one recommender
/// definition in the metadata blob) and a WAL tail holding every record
/// kind — plain and inside committed and rolled-back transactions.
const GOLDEN_MANIFEST: &[u8] = include_bytes!("golden/catalog.meta");
const GOLDEN_WAL: &[u8] = include_bytes!("golden/wal.log");
/// The manifest the same build wrote after opening those files and
/// checkpointing at LSN 22.
const GOLDEN_RECHECKPOINTED: &[u8] = include_bytes!("golden/recheckpointed.meta");

#[test]
fn durable_files_from_an_earlier_build_open_unchanged() {
    use recdb::storage::crc32;
    use recdb::wal::Wal;
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("golden");
    let dir = tmp.path();
    std::fs::create_dir_all(dir).expect("dir");
    std::fs::write(dir.join("catalog.meta"), GOLDEN_MANIFEST).expect("manifest");
    std::fs::write(dir.join("wal.log"), GOLDEN_WAL).expect("wal");
    for table in ["places", "ratings"] {
        std::fs::write(dir.join(format!("{table}.5.tbl")), []).expect("empty table file");
    }

    // Every record re-encodes to exactly the frame it was read from.
    let opened = Wal::open(&dir.join("wal.log"), 0).expect("open log");
    assert!(opened.truncated.is_none());
    let mut log = GOLDEN_WAL[..16].to_vec();
    for (lsn, record) in &opened.records {
        let mut body = lsn.to_le_bytes().to_vec();
        body.extend(record.encode());
        log.extend((body.len() as u32).to_le_bytes());
        log.extend(crc32(&body).to_le_bytes());
        log.extend(body);
    }
    assert_eq!(log, GOLDEN_WAL);
    drop(opened);

    let db = RecDb::open(dir).expect("open the earlier build's files");
    assert_eq!(db.recommender_names(), vec!["svdrec"]);
    {
        let catalog = db.catalog();
        assert_eq!(catalog.table_names(), vec!["extra", "places", "ratings"]);
        let places = catalog.table("places").expect("places");
        let types: Vec<String> = (0..places.schema().arity())
            .map(|i| format!("{:?}", places.schema().column(i).unwrap().data_type))
            .collect();
        assert_eq!(types, ["Int", "Text", "Bool", "Point", "Rect", "Float"]);
        assert!(places.indexes().is_empty(), "places_id_name was dropped");
        assert!(catalog
            .table("ratings")
            .unwrap()
            .index("ratings_uid")
            .is_ok());
        assert!(catalog.table("extra").unwrap().index("extra_a_b").is_ok());
        assert_eq!(catalog.table("extra").unwrap().tuple_count(), 0);
    }
    let rows = db
        .query("SELECT loc, area FROM places WHERE id = 1")
        .expect("places row");
    assert_eq!(rows.value(0, "loc").unwrap(), &Value::Point(1.5, -2.0));
    assert_eq!(
        rows.value(0, "area").unwrap(),
        &Value::Rect(0.0, 0.0, 3.0, 4.0)
    );
    let ratings = db
        .query("SELECT uid, ratingval FROM ratings WHERE uid = 1")
        .expect("ratings");
    assert_eq!(ratings.value(0, "ratingval").unwrap(), &Value::Float(5.0));
    assert_eq!(db.query("SELECT uid FROM ratings").unwrap().len(), 6);
    assert!(!db
        .query(
            "SELECT R.iid FROM ratings AS R RECOMMEND R.iid TO R.uid ON R.ratingval \
             USING SVD WHERE R.uid = 1"
        )
        .expect("recommend")
        .is_empty());

    // Checkpointing that state writes the earlier build's manifest and
    // metadata blob byte for byte, and the same heap pages.
    db.checkpoint().expect("checkpoint");
    let manifest = std::fs::read(dir.join("catalog.meta")).expect("manifest");
    assert_eq!(manifest, GOLDEN_RECHECKPOINTED);
    for (table, crc) in [("places", 0x58c9_34d5), ("ratings", 0xf2d9_e911)] {
        let pages = std::fs::read(dir.join(format!("{table}.22.tbl"))).expect("pages");
        assert_eq!(crc32(&pages), crc, "{table} heap bytes");
    }
}
