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
//! `Ok`; after reopen the committed prefix must be intact, with nothing
//! lost and nothing phantom. The "expected" side is an in-memory shadow
//! engine that applies exactly the statements the durable engine
//! acknowledged.

use recdb::core::{EngineError, RecDb, RecDbConfig};
use recdb::fault;
use recdb::storage::RecoveryMode;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory per test run; removed on success, left behind on
/// failure for post-mortem.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "recdb-recovery-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One step of the crash-matrix workload.
#[derive(Clone, Copy)]
enum Op {
    Sql(&'static str),
    Checkpoint,
}

/// A mixed DML/DDL workload: multi-row inserts, an index build, an
/// update, a delete, and a mid-stream checkpoint so the
/// `storage::page_flush` / `storage::checkpoint` sites are exercised too.
const WORKLOAD: &[Op] = &[
    Op::Sql("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"),
    Op::Sql("INSERT INTO ratings VALUES (1, 1, 5.0), (1, 2, 3.0)"),
    Op::Sql("INSERT INTO ratings VALUES (2, 1, 4.0), (2, 3, 5.0)"),
    Op::Sql("CREATE INDEX ratings_uid ON ratings (uid)"),
    Op::Checkpoint,
    Op::Sql("INSERT INTO ratings VALUES (3, 2, 2.5)"),
    Op::Sql("UPDATE ratings SET ratingval = 4.5 WHERE uid = 1 AND iid = 2"),
    Op::Sql("DELETE FROM ratings WHERE uid = 2 AND iid = 1"),
    Op::Checkpoint,
    Op::Sql("INSERT INTO ratings VALUES (4, 1, 3.5)"),
];

/// The ratings table as a sorted row list, or `None` if it doesn't exist
/// (e.g. the crash predated CREATE TABLE).
fn ratings_rows(db: &mut RecDb) -> Option<Vec<String>> {
    match db.query("SELECT uid, iid, ratingval FROM ratings") {
        Ok(rs) => {
            let mut rows: Vec<String> = (0..rs.len())
                .map(|i| {
                    format!(
                        "{}|{}|{}",
                        rs.value(i, "uid").unwrap(),
                        rs.value(i, "iid").unwrap(),
                        rs.value(i, "ratingval").unwrap()
                    )
                })
                .collect();
            rows.sort();
            Some(rows)
        }
        Err(_) => None,
    }
}

fn has_uid_index(db: &RecDb) -> bool {
    db.catalog()
        .table("ratings")
        .map(|t| t.index("ratings_uid").is_ok())
        .unwrap_or(false)
}

/// Run the workload against a durable engine with `site` armed to fail at
/// its `nth` hit, crash at the first error (or at the end), reopen, and
/// assert the recovered state equals the shadow of acknowledged
/// statements.
fn crash_once(site: &'static str, nth: u64, tag: &str) {
    fault::clear();
    let dir = temp_dir(tag);
    let mut shadow = RecDb::new();
    let db = RecDb::open(&dir).expect("open fresh durable engine");
    assert!(db.is_durable());

    fault::arm_error(site, nth);
    for op in WORKLOAD {
        let survived = match *op {
            Op::Sql(sql) => match db.execute(sql) {
                Ok(_) => {
                    shadow
                        .execute(sql)
                        .unwrap_or_else(|e| panic!("shadow rejected `{sql}`: {e}"));
                    true
                }
                Err(_) => false,
            },
            Op::Checkpoint => db.checkpoint().is_ok(),
        };
        if !survived {
            break; // first failure = the crash point
        }
    }
    fault::clear();
    drop(db); // crash: nothing is flushed on drop

    let mut recovered =
        RecDb::open(&dir).unwrap_or_else(|e| panic!("site {site} nth {nth}: reopen failed: {e}"));
    assert_eq!(
        ratings_rows(&mut recovered),
        ratings_rows(&mut shadow),
        "site {site} nth {nth}: recovered rows diverge from committed prefix"
    );
    assert_eq!(
        has_uid_index(&recovered),
        has_uid_index(&shadow),
        "site {site} nth {nth}: index presence diverges"
    );
    cleanup(&dir);
}

/// Sweep one fail site across every hit position the workload can reach.
fn crash_matrix(site: &'static str, max_nth: u64, tag: &str) {
    let _gate = fault::exclusive();
    for nth in 1..=max_nth {
        crash_once(site, nth, tag);
    }
}

// ---------------------------------------------------------------------
// Clean-path durability
// ---------------------------------------------------------------------

#[test]
fn durable_engine_survives_clean_reopen_with_checkpoint() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = temp_dir("clean");
    let mut shadow = RecDb::new();
    {
        let db = RecDb::open(&dir).expect("open");
        assert_eq!(db.data_dir(), Some(dir.as_path()));
        for op in WORKLOAD {
            match *op {
                Op::Sql(sql) => {
                    db.execute(sql).expect("workload");
                    shadow.execute(sql).expect("shadow");
                }
                Op::Checkpoint => db.checkpoint().expect("checkpoint"),
            }
        }
        db.checkpoint().expect("final checkpoint");
    }
    let mut db = RecDb::open(&dir).expect("reopen");
    assert_eq!(ratings_rows(&mut db), ratings_rows(&mut shadow));
    assert!(has_uid_index(&db));
    // The final checkpoint covered every record, so the log is only a
    // 16-byte header again.
    let wal_len = std::fs::metadata(dir.join("wal.log")).expect("wal").len();
    assert_eq!(wal_len, 16, "checkpoint should prune the log");
    cleanup(&dir);
}

#[test]
fn uncheckpointed_commits_replay_from_the_log() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = temp_dir("replay");
    let mut shadow = RecDb::new();
    {
        let db = RecDb::open(&dir).expect("open");
        for op in WORKLOAD {
            if let Op::Sql(sql) = *op {
                db.execute(sql).expect("workload");
                shadow.execute(sql).expect("shadow");
            }
            // Checkpoints skipped on purpose: everything must come back
            // from WAL replay alone.
        }
    }
    let mut db = RecDb::open(&dir).expect("reopen");
    assert_eq!(ratings_rows(&mut db), ratings_rows(&mut shadow));
    assert!(has_uid_index(&db));
    cleanup(&dir);
}

#[test]
fn torn_wal_tail_loses_only_the_torn_suffix() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = temp_dir("torn");
    let mut shadow = RecDb::new();
    {
        let db = RecDb::open(&dir).expect("open");
        for sql in [
            "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)",
            "INSERT INTO ratings VALUES (1, 1, 5.0), (2, 1, 4.0)",
        ] {
            db.execute(sql).expect("workload");
            shadow.execute(sql).expect("shadow");
        }
    }
    // Simulate a crash mid-append: garbage after the last good frame.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal.log"))
        .expect("open wal");
    f.write_all(&[0xAB; 37]).expect("tear the tail");
    drop(f);

    let mut db = RecDb::open(&dir).expect("reopen truncates the torn tail");
    assert_eq!(ratings_rows(&mut db), ratings_rows(&mut shadow));
    // The healed log keeps accepting commits.
    db.execute("INSERT INTO ratings VALUES (3, 1, 2.0)")
        .expect("insert after heal");
    drop(db);
    let mut db = RecDb::open(&dir).expect("reopen again");
    assert_eq!(ratings_rows(&mut db).expect("rows").len(), 3);
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// Crash matrix: every fail point, every hit position
// ---------------------------------------------------------------------

#[test]
fn crash_matrix_wal_append() {
    // One hit per durable statement: sweep past the workload length.
    crash_matrix("wal::append", 9, "append");
}

#[test]
fn crash_matrix_wal_fsync() {
    crash_matrix("wal::fsync", 9, "fsync");
}

#[test]
fn crash_matrix_page_flush() {
    // Fires once per dirty page written by a checkpoint.
    crash_matrix("storage::page_flush", 4, "flush");
}

#[test]
fn crash_matrix_checkpoint() {
    // Fires once per checkpoint, just before the manifest rename.
    crash_matrix("storage::checkpoint", 2, "ckpt");
}

/// CI matrix entry point: drives the crash schedule from
/// `RECDB_FAULT_SEED` (seeds 1, 7, 42 in the workflow).
#[test]
fn seeded_crash_sweep_recovers_committed_prefix() {
    let seed: u64 = std::env::var("RECDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let _gate = fault::exclusive();
    for site in [
        "wal::append",
        "wal::fsync",
        "storage::page_flush",
        "storage::checkpoint",
    ] {
        let nth = fault::schedule_nth(seed, site, 9);
        crash_once(site, nth, "seeded");
    }
}

// ---------------------------------------------------------------------
// Crash matrix under buffer-pool pressure: storage::pool_evict and
// storage::btree_split
// ---------------------------------------------------------------------

/// One step of the small-pool workload. Auto-maintenance is disabled in
/// this matrix: it runs *after* a statement's commit fsync, so an
/// injected pool fault there would crash a statement that is already
/// durable — outside the acknowledged-prefix crash model. Index builds
/// are driven by the explicit `Materialize` op instead.
enum PoolOp {
    Sql(String),
    Checkpoint,
    /// Materialize the recommender's RecScoreIndex (B+-tree inserts,
    /// node splits, and heavy pool traffic). Runs only on the durable
    /// engine: the index is derived state and never compared.
    Materialize,
}

/// A workload sized against a 4-frame pool: a multi-page ratings table,
/// a recommender whose materialized index spans dozens of node pages,
/// checkpoints (which stream every heap page through the pool), and a
/// full-table UPDATE scan.
fn pool_ops() -> Vec<PoolOp> {
    let mut ops = vec![PoolOp::Sql(
        "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)".into(),
    )];
    let mut chunk: Vec<String> = Vec::new();
    for u in 0..12i64 {
        for i in 0..110i64 {
            if (u * 5 + i) % 4 == 0 {
                continue; // held out: every user keeps unseen items
            }
            let val = f64::from(((u + i * 3) % 9 + 1) as i32) / 2.0;
            chunk.push(format!("({u}, {i}, {val})"));
            if chunk.len() == 90 {
                ops.push(PoolOp::Sql(format!(
                    "INSERT INTO ratings VALUES {}",
                    chunk.join(", ")
                )));
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        ops.push(PoolOp::Sql(format!(
            "INSERT INTO ratings VALUES {}",
            chunk.join(", ")
        )));
    }
    ops.push(PoolOp::Sql(
        "CREATE RECOMMENDER PoolRec ON ratings \
         USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF"
            .into(),
    ));
    ops.push(PoolOp::Materialize);
    ops.push(PoolOp::Checkpoint);
    ops.push(PoolOp::Sql(
        "UPDATE ratings SET ratingval = 1.5 WHERE uid = 7".into(),
    ));
    ops.push(PoolOp::Sql("DELETE FROM ratings WHERE iid = 42".into()));
    ops.push(PoolOp::Checkpoint);
    ops
}

/// As [`crash_once`], but against a 4-frame engine, and with *panics*
/// counted as crashes too: a heap scan reports a pool fault as an error,
/// but the RecScoreIndex's tree operations (materialize, and the index
/// lookups of a query) still surface one as a panic, and a mid-statement
/// panic is exactly a crash in this model — the WAL never saw a commit
/// marker for the statement, so recovery must exclude it.
fn pool_crash_once(site: &'static str, nth: u64, mode: RecoveryMode, tag: &str) {
    fault::clear();
    let dir = temp_dir(tag);
    let small_pool = |recovery| RecDbConfig {
        data_dir: Some(dir.clone()),
        recovery,
        buffer_pool_pages: 4,
        auto_maintenance: false,
        ..RecDbConfig::default()
    };
    let mut shadow = RecDb::with_config(RecDbConfig {
        auto_maintenance: false,
        ..RecDbConfig::default()
    });
    let db =
        RecDb::open_with_config(small_pool(RecoveryMode::Strict)).expect("open small-pool engine");

    fault::arm_error(site, nth);
    // Injected pool faults may legitimately panic (see above); keep the
    // expected unwinds out of the test output.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for op in pool_ops() {
        let survived = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &op {
            PoolOp::Sql(sql) => db.execute(sql).is_ok(),
            PoolOp::Checkpoint => db.checkpoint().is_ok(),
            PoolOp::Materialize => db.materialize("PoolRec").is_ok(),
        }))
        .unwrap_or(false);
        if survived {
            if let PoolOp::Sql(sql) = &op {
                shadow
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("shadow rejected `{sql}`: {e}"));
            }
        } else {
            break; // first failure (or panic) = the crash point
        }
    }
    std::panic::set_hook(quiet);
    fault::clear();
    drop(db); // crash: nothing is flushed on drop

    let mut recovered = RecDb::open_with_config(small_pool(mode))
        .unwrap_or_else(|e| panic!("site {site} nth {nth} ({tag}): reopen failed: {e}"));
    assert_eq!(
        ratings_rows(&mut recovered),
        ratings_rows(&mut shadow),
        "site {site} nth {nth} ({tag}): recovered rows diverge from committed prefix"
    );
    assert_eq!(
        recovered.recommender_names(),
        shadow.recommender_names(),
        "site {site} nth {nth} ({tag}): recommender presence diverges"
    );
    cleanup(&dir);
}

#[test]
fn crash_matrix_pool_evict() {
    let _gate = fault::exclusive();
    // Evictions number in the hundreds under a 4-frame pool; probe the
    // early hits densely and the tail geometrically.
    for nth in [1, 2, 3, 5, 9, 27, 81, 243] {
        pool_crash_once("storage::pool_evict", nth, RecoveryMode::Strict, "evict");
    }
}

#[test]
fn crash_matrix_btree_split() {
    let _gate = fault::exclusive();
    // Splits happen only while materializing the score index.
    for nth in 1..=4 {
        pool_crash_once("storage::btree_split", nth, RecoveryMode::Strict, "split");
    }
}

/// The seeded sweep over the pool-pressure sites, in both recovery
/// modes (CI drives `RECDB_FAULT_SEED` as for the main matrix).
#[test]
fn seeded_pool_crash_sweep_recovers_in_both_modes() {
    let seed: u64 = std::env::var("RECDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let _gate = fault::exclusive();
    for site in ["storage::pool_evict", "storage::btree_split"] {
        let nth = fault::schedule_nth(seed, site, 64);
        pool_crash_once(site, nth, RecoveryMode::Strict, "seeded-strict");
        pool_crash_once(site, nth, RecoveryMode::SalvageToLastGood, "seeded-salvage");
    }
}

// ---------------------------------------------------------------------
// Checksums: corruption detection and salvage
// ---------------------------------------------------------------------

/// Build a two-table checkpoint and then flip one byte inside a `ratings`
/// page, returning the data directory.
fn corrupted_checkpoint(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    {
        let db = RecDb::open(&dir).expect("open");
        db.execute_script(
            "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             CREATE TABLE items (iid INT, name TEXT);
             INSERT INTO ratings VALUES (1, 1, 5.0), (2, 1, 4.0), (3, 2, 3.0);
             INSERT INTO items VALUES (1, 'Spartacus'), (2, 'Inception');",
        )
        .expect("seed");
        db.checkpoint().expect("checkpoint");
    }
    let page_file = std::fs::read_dir(&dir)
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
    match RecDb::open(&dir) {
        Err(EngineError::Corruption { table, source }) => {
            assert_eq!(table, "ratings");
            let msg = source.to_string();
            assert!(msg.contains("ratings."), "file not named: {msg}");
            assert!(msg.contains("page 0"), "page not named: {msg}");
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn corrupted_page_in_salvage_mode_keeps_the_healthy_tables() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = corrupted_checkpoint("salvage");
    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(dir.clone()),
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
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// Recommenders: definitions persist, models rebuild
// ---------------------------------------------------------------------

#[test]
fn recommender_answers_survive_crash_and_reopen() {
    let _gate = fault::exclusive();
    fault::clear();
    let dir = temp_dir("rec");
    const RECOMMEND: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";
    let answers_before;
    {
        let db = RecDb::open(&dir).expect("open");
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
    let db = RecDb::open(&dir).expect("reopen");
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
    let db = RecDb::open(&dir).expect("reopen from checkpoint");
    assert_eq!(db.recommender_names(), vec!["generalrec"]);
    assert!(!db.query(RECOMMEND).expect("recommend").is_empty());

    // DROP RECOMMENDER is durable as well.
    db.execute("DROP RECOMMENDER GeneralRec").expect("drop");
    drop(db);
    let db = RecDb::open(&dir).expect("reopen after drop");
    assert!(db.recommender_names().is_empty());
    cleanup(&dir);
}
