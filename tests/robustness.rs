//! Robustness acceptance tests: resource governance, cancellation,
//! panic containment, and deterministic fault injection, all driven
//! through the public [`RecDb`] SQL surface.
//!
//! Every test that arms a fault site holds [`recdb::fault::exclusive`]
//! for its whole body and clears the registry on entry and exit — the
//! registry is process-global and the test harness runs in parallel.

mod common;

use common::{fault_seed, seed_ratings, temp_dir};
use recdb::core::{EngineError, GovernorConfig, QueryGuard, QueryResult, RecDb, RecDbConfig};
use recdb::exec::{ExecError, ResultSet};
use recdb::fault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const RECOMMEND_SQL: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
     RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
     WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";

const CREATE_REC_SQL: &str = "CREATE RECOMMENDER MovieRec ON ratings \
     USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF";

fn seeded_db() -> RecDb {
    let db = RecDb::new();
    seed_ratings(&db);
    db
}

fn ratings_count(db: &mut RecDb) -> usize {
    db.query("SELECT uid FROM ratings")
        .expect("count query")
        .len()
}

// ---------------------------------------------------------------------
// Governor: deadlines, budgets, cancellation
// ---------------------------------------------------------------------

/// ISSUE acceptance: a RECOMMEND query issued with an already-expired
/// deadline returns `Cancelled` — it neither hangs nor panics.
#[test]
fn zero_deadline_recommend_is_cancelled() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = seeded_db();
    db.execute(CREATE_REC_SQL).expect("create recommender");
    let guard = QueryGuard::with_limits(Some(Duration::ZERO), None, None);
    match db.query_with_guard(RECOMMEND_SQL, guard) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The engine keeps serving after the cancellation.
    assert!(!db
        .query(RECOMMEND_SQL)
        .expect("ungoverned retry")
        .is_empty());
}

/// A zero deadline also stops plain scans and model builds.
#[test]
fn zero_deadline_stops_scans_and_builds() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = seeded_db();
    let expired = || QueryGuard::with_limits(Some(Duration::ZERO), None, None);
    match db.query_with_guard("SELECT uid FROM ratings", expired()) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("scan: expected Cancelled, got {other:?}"),
    }
    match db.execute_with_guard(CREATE_REC_SQL, expired()) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("build: expected Cancelled, got {other:?}"),
    }
    // The cancelled build must not have registered a recommender.
    assert!(db.recommender("MovieRec").is_none());
    db.execute(CREATE_REC_SQL)
        .expect("unlimited build succeeds");
}

#[test]
fn row_budget_trips_resource_exhausted() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = seeded_db();
    let guard = QueryGuard::with_limits(None, Some(3), None);
    match db.query_with_guard("SELECT uid FROM ratings", guard) {
        Err(EngineError::ResourceExhausted {
            resource: "rows",
            budget: 3,
            ..
        }) => {}
        other => panic!("expected rows ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn mem_budget_trips_on_sort_buffering() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = seeded_db();
    let guard = QueryGuard::with_limits(None, None, Some(16));
    match db.query_with_guard("SELECT uid FROM ratings ORDER BY ratingval DESC", guard) {
        Err(EngineError::ResourceExhausted {
            resource: "memory", ..
        }) => {}
        other => panic!("expected memory ResourceExhausted, got {other:?}"),
    }
}

/// Engine-wide defaults from `RecDbConfig.governor` apply to plain
/// `query()` calls with no per-call guard.
#[test]
fn config_level_row_budget_governs_plain_queries() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let config = RecDbConfig {
        governor: GovernorConfig {
            row_budget: Some(4),
            ..GovernorConfig::default()
        },
        ..RecDbConfig::default()
    };
    let db = RecDb::with_config(config);
    seed_ratings(&db); // DDL + INSERT charge no row work
    match db.query("SELECT uid FROM ratings") {
        Err(EngineError::ResourceExhausted {
            resource: "rows", ..
        }) => {}
        other => panic!("expected rows ResourceExhausted, got {other:?}"),
    }
}

/// A cancel handle flipped from another thread stops the statement.
#[test]
fn cross_thread_cancel_stops_statement() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = seeded_db();
    let guard = QueryGuard::unlimited();
    let handle = guard.cancel_handle();
    std::thread::spawn(move || handle.cancel())
        .join()
        .expect("cancel thread");
    match db.query_with_guard("SELECT uid FROM ratings", guard) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// Rows in the DML governor world: enough heap pages that a scan is
/// still running when the canceller thread below gets to flip its handle.
const DML_ROWS: u64 = 20_000;

/// The `ratings` heap as the checksummed blocks a checkpoint would write.
fn ratings_bytes(db: &RecDb) -> Vec<Vec<u8>> {
    let catalog = db.catalog();
    let heap = catalog.table("ratings").expect("ratings").heap();
    (0..heap.page_count() as u32)
        .map(|page| heap.encode_page_block(page, 0).expect("page block"))
        .collect()
}

/// `GovernorConfig` promises its limits to every statement: `UPDATE` and
/// `DELETE` scan under the statement's guard like the same-predicate
/// `SELECT`, inside and outside an explicit transaction. A refused
/// statement leaves the table byte-identical and appends nothing to the
/// WAL; retried ungoverned it succeeds.
#[test]
fn governor_refuses_update_and_delete_without_a_trace() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let tmp = temp_dir("dml");
    let dir = tmp.path();
    let db = RecDb::open(dir).expect("open durable");
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create table");
    for batch in 0..DML_ROWS / 1000 {
        let rows: Vec<String> = (batch * 1000..(batch + 1) * 1000)
            .map(|n| format!("({}, {n}, {}.5)", n % 10, n % 5))
            .collect();
        db.execute(&format!("INSERT INTO ratings VALUES {}", rows.join(", ")))
            .expect("load");
    }
    let wal_appends = || db.metrics_snapshot().counter("recdb_wal_appends_total");

    // One uid per (statement, transaction mode), so every retry finds rows.
    let cases = [
        ("UPDATE ratings SET ratingval = 0.5 WHERE uid = 3", false),
        ("UPDATE ratings SET ratingval = 0.5 WHERE uid = 4", true),
        ("DELETE FROM ratings WHERE uid = 5", false),
        ("DELETE FROM ratings WHERE uid = 6", true),
    ];
    for (sql, in_txn) in cases {
        for refusal in ["row budget", "zero deadline", "cancel mid-scan"] {
            let case = format!("{sql} (in txn: {in_txn}) under {refusal}");
            let (before, appends) = (ratings_bytes(&db), wal_appends());
            // The scan bills a page at a time: the budget trips on the
            // first page, with every live row of it charged.
            let first_page = db
                .catalog()
                .table("ratings")
                .expect("ratings")
                .heap()
                .page_image(0)
                .expect("page 0");
            let first_page_rows = Some(first_page.live_count() as u64);
            let guard = match refusal {
                "row budget" => QueryGuard::with_limits(None, Some(10), None),
                "zero deadline" => QueryGuard::with_limits(Some(Duration::ZERO), None, None),
                _ => QueryGuard::unlimited(),
            };
            let mut session = db.session();
            if in_txn {
                session.execute("BEGIN").expect("begin");
            }
            let done = AtomicBool::new(false);
            let result = std::thread::scope(|scope| {
                if refusal == "cancel mid-scan" {
                    // Cancels once the scan has charged its first row.
                    scope.spawn(|| {
                        while guard.rows_used() == 0 && !done.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        guard.cancel();
                    });
                }
                let result = session.execute_with_guard(sql, guard.clone());
                done.store(true, Ordering::Relaxed);
                result
            });
            match (refusal, result) {
                (
                    "row budget",
                    Err(EngineError::ResourceExhausted {
                        resource: "rows",
                        budget: 10,
                        used,
                    }),
                ) => assert_eq!(Some(used), first_page_rows, "{case}"),
                ("zero deadline", Err(EngineError::Cancelled { .. })) => {}
                ("cancel mid-scan", Err(EngineError::Cancelled { .. })) => {
                    let used = guard.rows_used();
                    assert!((1..DML_ROWS).contains(&used), "{case}: {used} rows in");
                }
                (_, other) => panic!("{case}: got {other:?}"),
            }
            assert!(!session.in_transaction(), "{case}: the refusal aborts");
            assert!(ratings_bytes(&db) == before, "{case}: table changed");
            assert_eq!(wal_appends(), appends, "{case}: WAL grew");
        }
        let mut session = db.session();
        let script = if in_txn {
            format!("BEGIN; {sql}; COMMIT")
        } else {
            sql.to_owned()
        };
        let results = session.execute_script(&script).expect("ungoverned retry");
        let changed = results.iter().any(|r| {
            matches!(r, QueryResult::Updated(n) | QueryResult::Deleted(n) if *n == DML_ROWS as usize / 10)
        });
        assert!(changed, "{sql}: {results:?}");
    }
}

// ---------------------------------------------------------------------
// Fault injection: every site unwinds cleanly and the engine survives
// ---------------------------------------------------------------------

/// ISSUE acceptance: an injected fault in `core::materialize_worker`
/// mid-`CREATE RECOMMENDER` fails the statement, leaves the engine
/// serving and the catalog uncorrupted, and the retried CREATE succeeds
/// (the site disarms on trigger, modelling a transient fault).
#[test]
fn faulted_create_recommender_is_atomic_and_retryable() {
    let _gate = fault::exclusive();
    fault::clear();
    let mut db = seeded_db();
    let rows_before = ratings_count(&mut db);

    fault::arm_error("core::materialize_worker", 1);
    match db.execute(CREATE_REC_SQL) {
        Err(EngineError::Exec(ExecError::FaultInjected(e))) => {
            assert_eq!(e.site, "core::materialize_worker");
        }
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    assert_eq!(fault::triggered("core::materialize_worker"), 1);

    // No half-built recommender was published and the catalog is intact.
    assert!(db.recommender("MovieRec").is_none());
    assert!(db.recommender_names().is_empty());
    assert_eq!(ratings_count(&mut db), rows_before);

    // The transient fault disarmed itself: the retry succeeds end to end.
    db.execute(CREATE_REC_SQL).expect("retried CREATE succeeds");
    assert!(db.recommender("MovieRec").is_some());
    assert!(!db.query(RECOMMEND_SQL).expect("recommend").is_empty());
    fault::clear();
}

/// A faulted *rebuild* (N% maintenance) keeps the previous model
/// serving: the staged swap publishes nothing on failure.
#[test]
fn faulted_rebuild_keeps_previous_model_serving() {
    let _gate = fault::exclusive();
    fault::clear();
    let config = RecDbConfig {
        maintenance_threshold_pct: 1.0, // rebuild on nearly every insert
        ..RecDbConfig::default()
    };
    let db = RecDb::with_config(config);
    seed_ratings(&db);
    db.execute(CREATE_REC_SQL).expect("create recommender");
    let baseline = db.query(RECOMMEND_SQL).expect("baseline recommend");

    fault::arm_error("core::materialize_worker", 1);
    let maintained = db.execute("INSERT INTO ratings VALUES (1, 7, 4.5)");
    assert!(maintained.is_err(), "maintenance should hit the fault");

    // The old model still answers; the engine did not lose the
    // recommender or corrupt its index.
    assert!(db.recommender("MovieRec").is_some());
    assert_eq!(
        db.query(RECOMMEND_SQL)
            .expect("recommend after fault")
            .len(),
        baseline.len()
    );
    // Disarmed: the next maintenance-triggering insert rebuilds fine.
    db.execute("INSERT INTO ratings VALUES (2, 5, 3.5)")
        .expect("rebuild after disarm");
    fault::clear();
}

/// A world whose N % rebuild has work to stop part-way: 400 users × 64
/// items, every user materialized, rebuilt on any insert. The item table
/// is built in many chunks (one `algo::neighborhood_build` hit each) and
/// the refresh scores its 400 complete lists in chunks of 8 users (one
/// `core::materialize_worker` hit each, after one for the stage).
fn rebuild_world() -> RecDb {
    let config = RecDbConfig {
        maintenance_threshold_pct: 0.0001,
        ..RecDbConfig::default()
    };
    let db = RecDb::with_config(config);
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create table");
    let rows: Vec<String> = (1..=400i64)
        .flat_map(|uid| (1..=64i64).map(move |iid| (uid, iid)))
        .filter(|&(uid, iid)| (uid * 7 + iid * 3) % 5 < 2)
        .map(|(uid, iid)| {
            format!(
                "({uid}, {iid}, {:.1})",
                1.0 + ((uid + iid) % 9) as f64 / 2.0
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO ratings VALUES {}", rows.join(", ")))
        .expect("seed inserts");
    db.execute(CREATE_REC_SQL).expect("create recommender");
    db.materialize("MovieRec").expect("materialize");
    db
}

/// The answers a rebuild must not change until it publishes: top 5 of a
/// few users from the index, and every recommendation of one of them.
fn served_answers(db: &RecDb) -> Vec<ResultSet> {
    let mut answers: Vec<ResultSet> = [1, 57, 400]
        .iter()
        .map(|uid| {
            let sql = RECOMMEND_SQL.replace("R.uid = 1", &format!("R.uid = {uid}"));
            db.query(&sql).expect("recommend")
        })
        .collect();
    let full = RECOMMEND_SQL.replace(" LIMIT 5", "");
    answers.push(db.query(&full).expect("recommend all"));
    answers
}

/// An N % rebuild stopped part-way — a fault in the neighborhood build at
/// a later chunk, a fault in the refresh's scoring at a later chunk, and
/// a cancel that lands while the refresh runs — fails its statement and
/// publishes nothing: the previous model and index keep serving the same
/// answers, and the next rebuild succeeds.
#[test]
fn rebuild_stopped_part_way_keeps_the_previous_model_and_index() {
    let _gate = fault::exclusive();
    fault::clear();
    let mut db = rebuild_world();
    let trained_on = |db: &RecDb| db.recommender("MovieRec").unwrap().model().trained_on();
    let insert = |row: i64| format!("INSERT INTO ratings VALUES (1000, {row}, 4.0)");
    let mut row = 0;
    // The fault site armed at its third hit, or `None`: cancel the guard
    // once the refresh stage has begun.
    let stops = [
        Some("algo::neighborhood_build"),
        Some("core::materialize_worker"),
        None,
    ];
    for stop in stops {
        let mut attempts = 0;
        let (before, model_rows, failed) = loop {
            attempts += 1;
            let before = served_answers(&db);
            let model_rows = trained_on(&db);
            let guard = QueryGuard::unlimited();
            let canceller = match stop {
                Some(site) => {
                    fault::arm_error(site, 3);
                    None
                }
                None => {
                    // Hits are counted only while a site is armed; this
                    // trigger is never reached.
                    fault::arm_error("core::materialize_worker", 1_000_000);
                    let start = fault::hits("core::materialize_worker");
                    let handle = guard.cancel_handle();
                    Some(std::thread::spawn(move || {
                        // The stage's gate is its first hit; its 50
                        // scoring chunks check the guard after it.
                        while fault::hits("core::materialize_worker") == start {
                            std::hint::spin_loop();
                        }
                        handle.cancel();
                    }))
                }
            };
            row += 1;
            let failed = db.execute_with_guard(&insert(row), guard);
            if let Some(canceller) = canceller {
                canceller.join().expect("canceller");
            }
            fault::clear();
            // A cancel races the stage it aims at. A rebuild that finished
            // first has published its model: stop the next one instead.
            if stop.is_none() && failed.is_ok() && attempts < 5 {
                continue;
            }
            break (before, model_rows, failed);
        };
        match (stop, failed) {
            (None, Err(EngineError::Cancelled { .. })) => {}
            (Some(site), Err(EngineError::Exec(ExecError::FaultInjected(e)))) => {
                assert_eq!(e.site, site)
            }
            (stop, other) => panic!("{stop:?}: expected the rebuild to stop, got {other:?}"),
        }
        assert_eq!(
            trained_on(&db),
            model_rows,
            "{stop:?}: a model was published"
        );
        assert_eq!(served_answers(&db), before, "{stop:?}: answers changed");
        let rows = ratings_count(&mut db);
        row += 1;
        db.execute(&insert(row)).expect("the next rebuild succeeds");
        assert_eq!(trained_on(&db), rows + 1, "{stop:?}: not rebuilt");
    }
}

/// Error-mode faults at every site surface as `Err` through the public
/// SQL API and leave the engine usable; the retry succeeds.
#[test]
fn every_fault_site_unwinds_cleanly() {
    let _gate = fault::exclusive();
    fault::clear();

    // storage::heap_append — INSERT fails, then works once disarmed.
    let mut db = seeded_db();
    let before = ratings_count(&mut db);
    fault::arm_error("storage::heap_append", 1);
    assert!(db
        .execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .is_err());
    assert_eq!(ratings_count(&mut db), before);
    db.execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .expect("insert after disarm");
    assert_eq!(ratings_count(&mut db), before + 1);

    // exec::sort_materialize — ORDER BY fails, then works.
    fault::arm_error("exec::sort_materialize", 1);
    assert!(db
        .query("SELECT uid FROM ratings ORDER BY ratingval DESC")
        .is_err());
    db.query("SELECT uid FROM ratings ORDER BY ratingval DESC")
        .expect("sort after disarm");

    // algo::neighborhood_build — CF model build fails, then works.
    fault::arm_error("algo::neighborhood_build", 1);
    assert!(db.execute(CREATE_REC_SQL).is_err());
    assert!(db.recommender("MovieRec").is_none());
    db.execute(CREATE_REC_SQL).expect("CF build after disarm");

    // algo::svd_epoch — SVD training fails mid-epoch, then works.
    let create_svd = "CREATE RECOMMENDER SvdRec ON ratings USERS FROM uid \
         ITEMS FROM iid RATINGS FROM ratingval USING SVD";
    fault::arm_error("algo::svd_epoch", 2);
    assert!(db.execute(create_svd).is_err());
    assert!(db.recommender("SvdRec").is_none());
    db.execute(create_svd).expect("SVD build after disarm");

    fault::clear();
}

/// Panic-mode faults are contained at the engine boundary as
/// `EngineError::Internal`; the engine keeps serving afterwards.
#[test]
fn panic_faults_are_contained_as_internal_errors() {
    let _gate = fault::exclusive();
    fault::clear();
    let mut db = seeded_db();
    let before = ratings_count(&mut db);

    fault::arm_panic("storage::heap_append", 1);
    match db.execute("INSERT INTO ratings VALUES (3, 8, 1.5)") {
        Err(EngineError::Internal(msg)) => {
            assert!(msg.contains("storage::heap_append"), "got: {msg}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(ratings_count(&mut db), before, "engine still serving");

    // A panic mid-build must not publish a recommender either.
    fault::arm_panic("core::materialize_worker", 1);
    match db.execute(CREATE_REC_SQL) {
        Err(EngineError::Internal(_)) => {}
        other => panic!("expected Internal, got {other:?}"),
    }
    assert!(db.recommender("MovieRec").is_none());
    db.execute(CREATE_REC_SQL)
        .expect("create after panic fault");
    assert!(!db.query(RECOMMEND_SQL).expect("recommend").is_empty());
    fault::clear();
}

/// Error-mode faults at the transaction sites abort the transaction
/// cleanly and leave the engine serving.
#[test]
fn txn_fault_sites_abort_cleanly() {
    let _gate = fault::exclusive();
    fault::clear();
    let mut db = seeded_db();
    let before = ratings_count(&mut db);

    // txn::lock_acquire — the write statement inside an explicit
    // transaction fails to lock; the whole transaction aborts and the
    // session is back in autocommit.
    fault::arm_error("txn::lock_acquire", 1);
    db.execute("BEGIN").expect("begin");
    assert!(db
        .execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .is_err());
    match db.execute("COMMIT") {
        Err(EngineError::NoActiveTransaction) => {}
        other => panic!("txn aborted, COMMIT should have nothing: {other:?}"),
    }
    assert_eq!(ratings_count(&mut db), before);

    // txn::commit — the commit marker is poisoned, so the transaction
    // rolls back instead; its writes never become visible. Disarmed,
    // the retry commits.
    fault::arm_error("txn::commit", 1);
    db.execute("BEGIN").expect("begin");
    db.execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .expect("insert inside txn");
    assert!(db.execute("COMMIT").is_err());
    assert_eq!(ratings_count(&mut db), before, "faulted commit rolled back");
    db.execute("BEGIN").expect("begin");
    db.execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .expect("insert inside txn");
    db.execute("COMMIT").expect("commit after disarm");
    assert_eq!(ratings_count(&mut db), before + 1);

    // txn::rollback — the undo still runs (it must never be skipped);
    // only the reported outcome is poisoned.
    fault::arm_error("txn::rollback", 1);
    db.execute("BEGIN").expect("begin");
    db.execute("INSERT INTO ratings VALUES (2, 7, 2.0)")
        .expect("insert inside txn");
    assert!(db.execute("ROLLBACK").is_err());
    assert_eq!(
        ratings_count(&mut db),
        before + 1,
        "rollback still undid the insert"
    );
    db.execute("BEGIN").expect("session back in autocommit");
    db.execute("ROLLBACK").expect("clean rollback");
    fault::clear();
}

/// A `ratings` heap of a few dozen pages behind a 4-frame pool: every
/// scan of it reads most pages from the backing store.
fn small_pool_db(data_dir: Option<std::path::PathBuf>) -> RecDb {
    let config = RecDbConfig {
        data_dir,
        buffer_pool_pages: 4,
        ..RecDbConfig::default()
    };
    let db = RecDb::open_with_config(config).expect("open 4-frame engine");
    load_ratings(&db, "ratings");
    db
}

/// Create `table` with the ratings layout and 5,000 rows, 500 per uid
/// 0..10.
fn load_ratings(db: &RecDb, table: &str) {
    db.execute(&format!(
        "CREATE TABLE {table} (uid INT, iid INT, ratingval FLOAT)"
    ))
    .expect("create table");
    for batch in 0..5 {
        let rows: Vec<String> = (batch * 1000..(batch + 1) * 1000)
            .map(|n| format!("({}, {n}, {}.5)", n % 10, n % 5))
            .collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
            .expect("load");
    }
}

/// A scan has an error channel: a pool that cannot produce a page fails
/// the statement with the storage error itself — not a contained panic —
/// for `SELECT`, `UPDATE` and `DELETE` alike. An injected fault stays
/// retryable on the wire, the session keeps working, and the retried
/// statement succeeds.
#[test]
fn pool_fault_in_a_scan_is_an_error_not_a_contained_panic() {
    let _gate = fault::exclusive();
    fault::clear();
    let db = small_pool_db(None);
    let mut session = db.session();
    let statements = [
        ("SELECT uid FROM ratings WHERE uid = 3", 500),
        ("UPDATE ratings SET ratingval = 0.5 WHERE uid = 4", 500),
        ("DELETE FROM ratings WHERE uid = 5", 500),
    ];
    for (sql, affected) in statements {
        fault::arm_error("storage::pool_read", 1);
        let err = session
            .execute(sql)
            .expect_err("the first backing read of the scan fails");
        assert_eq!(fault::triggered("storage::pool_read"), 1, "{sql}");
        fault::clear();
        assert!(!matches!(err, EngineError::Internal(_)), "{sql}: {err:?}");
        assert!(
            err.to_string().contains("storage::pool_read"),
            "{sql}: {err}"
        );
        let wire = recdb::server::classify(&err);
        assert_eq!(wire.code, recdb::server::ErrorCode::Fault, "{sql}: {err:?}");
        assert!(wire.retryable, "{sql}: {err:?}");
        assert!(!session.in_transaction(), "{sql}: the failure aborts");
        let n = match session.execute(sql).expect("retry after the fault") {
            QueryResult::Rows(rows) => rows.len(),
            QueryResult::Updated(n) | QueryResult::Deleted(n) => n,
            other => panic!("{sql}: {other:?}"),
        };
        assert_eq!(n, affected, "{sql}");
    }
}

/// ROLLBACK reinstalls the pages a transaction saved, which reads
/// nothing, then rebuilds the table's secondary indexes by reading its
/// heap back through the pool; a page the pool cannot produce there is
/// the ROLLBACK's storage error — not a panic contained inside the abort
/// — and the heap is restored all the same, after a DELETE or an INSERT.
#[test]
fn pool_fault_during_rollback_is_a_storage_error() {
    let _gate = fault::exclusive();
    fault::clear();
    let db = small_pool_db(None);
    db.execute("CREATE INDEX ratings_uid ON ratings (uid)")
        .expect("create index");
    let mut session = db.session();
    for sql in [
        "DELETE FROM ratings WHERE uid = 3",
        "INSERT INTO ratings VALUES (3, 9000, 1.5)",
    ] {
        session.execute("BEGIN").expect("begin");
        session
            .execute(sql)
            .expect("statement inside the transaction");
        fault::arm_error("storage::pool_read", 1);
        let err = session
            .execute("ROLLBACK")
            .expect_err("reading the restored heap fails");
        assert_eq!(fault::triggered("storage::pool_read"), 1, "{sql}");
        fault::clear();
        assert!(
            matches!(
                err,
                EngineError::Storage(_) | EngineError::Corruption { .. }
            ),
            "{sql}: {err:?}"
        );
        assert!(
            err.to_string().contains("storage::pool_read"),
            "{sql}: {err}"
        );
        assert!(!session.in_transaction(), "{sql}");
        let rows = session
            .query("SELECT iid FROM ratings WHERE uid = 3")
            .expect("scan after the failed rollback");
        assert_eq!(rows.len(), 500, "{sql}: the heap was restored");
    }
    assert_eq!(
        db.metrics_snapshot()
            .counter("recdb_txn_abort_panics_total"),
        0
    );
}

/// ROLLBACK of `DROP INDEX` puts back the index the drop removed, whole:
/// it reads nothing, so a pool that cannot produce a page cannot lose the
/// index. It exists afterwards, and its lookups return what a scan does.
#[test]
fn rollback_of_drop_index_keeps_the_index_when_the_pool_faults() {
    let _gate = fault::exclusive();
    fault::clear();
    let db = small_pool_db(None);
    db.execute("CREATE INDEX ratings_uid ON ratings (uid)")
        .expect("create index");
    let mut session = db.session();
    session.execute("BEGIN").expect("begin");
    session
        .execute("DROP INDEX ratings_uid ON ratings")
        .expect("drop index inside the transaction");
    fault::arm_error("storage::pool_read", 1);
    let rolled_back = session.execute("ROLLBACK");
    fault::clear();
    rolled_back.expect("the rollback reads no page");
    let catalog = db.catalog();
    let table = catalog.table("ratings").expect("ratings");
    let index = table.index("ratings_uid").expect("the index is back");
    for uid in [0, 3, 9, 10] {
        let probe = recdb::storage::Value::Int(uid);
        let looked_up = index
            .lookup(table.heap(), &probe, || {
                Ok::<_, recdb::storage::StorageError>(())
            })
            .expect("lookup");
        let scanned: Vec<_> = table
            .heap()
            .scan()
            .filter(|(_, row)| row.get(0) == Some(&probe))
            .collect();
        assert_eq!(looked_up, scanned, "uid {uid}");
        assert_eq!(looked_up.len(), if uid < 10 { 500 } else { 0 }, "uid {uid}");
    }
}

/// A ROLLBACK that fails while it refills the table's indexes from the
/// restored heap, after a DELETE or an INSERT, leaves the indexes not
/// matching the heap. The planner must not join through them:
/// the join hashes and returns every row an index-less copy of the table
/// returns. The next write to the table rebuilds them, and the index join
/// is back with the same rows.
#[test]
fn a_join_never_reads_an_index_a_failed_rollback_left_stale() {
    let _gate = fault::exclusive();
    fault::clear();
    let db = small_pool_db(None);
    load_ratings(&db, "copy");
    db.execute("CREATE TABLE users (uid INT)")
        .expect("create users");
    db.execute("INSERT INTO users VALUES (3), (7)")
        .expect("load users");
    db.execute("CREATE INDEX ratings_uid ON ratings (uid)")
        .expect("create index");
    let join = |table: &str| {
        format!("SELECT U.uid, R.iid FROM users AS U, {table} AS R WHERE U.uid = R.uid")
    };
    let rows = |table: &str| {
        let result = db.query(&join(table)).expect("join");
        let mut rows: Vec<(String, String)> = (0..result.len())
            .map(|i| {
                let cell = |column| result.value(i, column).expect("column").to_string();
                (cell("uid"), cell("iid"))
            })
            .collect();
        rows.sort();
        rows
    };
    // The join operator `EXPLAIN ANALYZE` shows.
    let join_operator = || {
        let plan = db
            .query(&format!("EXPLAIN ANALYZE {}", join("ratings")))
            .expect("explain analyze");
        (0..plan.len())
            .filter_map(|i| {
                let line = plan.value(i, "plan").expect("plan column").to_string();
                let op = line.split_whitespace().next()?.to_owned();
                op.ends_with("Join").then_some(op)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(join_operator(), ["IndexJoin"]);
    assert_eq!(rows("ratings").len(), 1000);

    let mut session = db.session();
    for (n, sql) in [
        "DELETE FROM ratings WHERE uid = 3",
        "INSERT INTO ratings VALUES (3, 9000, 1.5)",
    ]
    .into_iter()
    .enumerate()
    {
        session.execute("BEGIN").expect("begin");
        session
            .execute(sql)
            .expect("statement inside the transaction");
        fault::arm_error("storage::pool_read", 1);
        session
            .execute("ROLLBACK")
            .expect_err("reading the restored heap fails");
        assert_eq!(fault::triggered("storage::pool_read"), 1, "{sql}");
        fault::clear();

        assert_eq!(rows("ratings"), rows("copy"), "{sql}");
        assert_eq!(join_operator(), ["HashJoin"], "{sql}");

        for table in ["ratings", "copy"] {
            db.execute(&format!("INSERT INTO {table} VALUES (7, {n}, 2.5)"))
                .expect("a write rebuilds the indexes first");
        }
        assert_eq!(join_operator(), ["IndexJoin"], "{sql}");
        assert_eq!(rows("ratings"), rows("copy"), "{sql}");
        assert_eq!(rows("ratings").len(), 1001 + n, "{sql}");
    }
}

/// Corrupt data is fatal, and says where: a checksum-bad spill block
/// under a scan is the engine's `Corruption` error naming table, file and
/// page, which the wire layer does not offer for retry.
#[test]
fn corrupt_spill_block_under_a_scan_is_a_fatal_corruption_error() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("spill");
    let dir = tmp.path();
    let db = small_pool_db(Some(dir.to_path_buf()));
    // Page 0 left the 4-frame pool long ago; damage its spilled image.
    let spill = dir.join("pool").join("ratings.0.spill");
    let mut bytes = std::fs::read(&spill).expect("read spill file");
    bytes[100] ^= 0xFF;
    std::fs::write(&spill, bytes).expect("write damaged spill file");

    for sql in [
        "SELECT uid FROM ratings WHERE uid = 3",
        "DELETE FROM ratings WHERE uid = 3",
    ] {
        let err = db.execute(sql).expect_err("page 0 fails its checksum");
        match &err {
            EngineError::Corruption { table, source } => {
                assert_eq!(table, "ratings", "{sql}");
                assert!(
                    matches!(source, recdb::storage::StorageError::Corruption { file, page: 0, .. } if file == "ratings"),
                    "{sql}: {source:?}"
                );
            }
            other => panic!("{sql}: expected Corruption, got {other:?}"),
        }
        let wire = recdb::server::classify(&err);
        assert_eq!(wire.code, recdb::server::ErrorCode::Corruption, "{sql}");
        assert!(!wire.retryable, "{sql}");
    }
}

/// `CREATE INDEX` backfills through the same page access as a scan, so a
/// checksum-bad spill block under it is the same fatal `Corruption` — not
/// a contained panic — and no half-built index is left registered.
#[test]
fn corrupt_spill_block_under_create_index_is_a_corruption_error() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("index");
    let dir = tmp.path();
    let db = small_pool_db(Some(dir.to_path_buf()));
    let spill = dir.join("pool").join("ratings.0.spill");
    let mut bytes = std::fs::read(&spill).expect("read spill file");
    bytes[100] ^= 0xFF;
    std::fs::write(&spill, bytes).expect("write damaged spill file");

    let err = db
        .execute("CREATE INDEX ratings_uid ON ratings (uid)")
        .expect_err("page 0 fails its checksum");
    match &err {
        EngineError::Corruption { table, source } => {
            assert_eq!(table, "ratings");
            assert!(
                matches!(source, recdb::storage::StorageError::Corruption { file, page: 0, .. } if file == "ratings"),
                "{source:?}"
            );
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
    match db.execute("DROP INDEX ratings_uid ON ratings") {
        Err(EngineError::Storage(recdb::storage::StorageError::IndexNotFound(_))) => {}
        other => panic!("the failed CREATE INDEX left an index behind: {other:?}"),
    }
}

/// A dropped table lives on in its transaction's undo log beside the
/// table re-created under its name, and both spill under one label: each
/// needs a spill file of its own. After the ROLLBACK the dropped table
/// reads back its own rows — through a scan and through its index, whose
/// name the re-created table reused.
#[test]
fn a_rolled_back_drop_and_recreate_reads_the_dropped_tables_rows() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("recreate");
    let dir = tmp.path();
    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(dir.to_path_buf()),
        buffer_pool_pages: 4,
        ..RecDbConfig::default()
    })
    .expect("open 4-frame engine");
    let insert = |session: &mut recdb::core::Session<'_>, from: i64, n: i64| {
        let rows: Vec<String> = (from..from + n).map(|a| format!("({a}, {a})")).collect();
        let sql = format!("INSERT INTO t VALUES {}", rows.join(", "));
        session.execute(&sql).expect("insert");
    };
    let mut session = db.session();
    for sql in ["CREATE TABLE t (a INT, b INT)", "CREATE INDEX t_a ON t (a)"] {
        session.execute(sql).expect("create");
    }
    insert(&mut session, 0, 400);
    for sql in [
        "BEGIN",
        "DROP TABLE t",
        "CREATE TABLE t (a INT, b INT)",
        "CREATE INDEX t_a ON t (a)",
    ] {
        session.execute(sql).expect(sql);
    }
    insert(&mut session, 10_000, 1200);
    session.execute("ROLLBACK").expect("rollback");

    let scanned = session.query("SELECT a FROM t").expect("scan");
    let mut values: Vec<i64> = (0..scanned.len())
        .map(|i| scanned.value(i, "a").and_then(|v| v.as_int()).expect("a"))
        .collect();
    values.sort_unstable();
    assert_eq!(values, (0..400).collect::<Vec<_>>());

    session.execute("CREATE TABLE k (k INT)").expect("create k");
    session
        .execute("INSERT INTO k VALUES (7), (399), (10007)")
        .expect("insert k");
    let join = "SELECT K.k, T.b FROM k AS K, t AS T WHERE K.k = T.a";
    let plan = session
        .query(&format!("EXPLAIN ANALYZE {join}"))
        .expect("explain");
    assert!((0..plan.len()).any(|i| {
        let line = plan.value(i, "plan").expect("plan").to_string();
        line.trim_start().starts_with("IndexJoin")
    }));
    let joined = session.query(join).expect("join");
    let mut bs: Vec<i64> = (0..joined.len())
        .map(|i| joined.value(i, "b").and_then(|v| v.as_int()).expect("b"))
        .collect();
    bs.sort_unstable();
    assert_eq!(bs, [7, 399]);
}

/// Spill files are scratch, named by the file ids of the run that wrote
/// them, and recovery never reads them: reopening after a crash deletes
/// the crashed run's files, and only the reopened engine's own remain.
#[test]
fn reopening_after_a_crash_keeps_only_the_live_spill_files() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("respill");
    let dir = tmp.path();
    let config = || RecDbConfig {
        data_dir: Some(dir.to_path_buf()),
        buffer_pool_pages: 4,
        ..RecDbConfig::default()
    };
    let spill_files = || {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("pool"))
            .expect("spill dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let db = RecDb::open_with_config(config()).expect("open 4-frame engine");
    db.execute("CREATE TABLE early (a INT)").expect("create");
    load_ratings(&db, "ratings");
    db.execute("DROP TABLE early").expect("drop");
    db.checkpoint().expect("checkpoint");
    assert_eq!(spill_files(), ["ratings.1.spill"]);
    // Crash: no destructor runs, so no spill file is removed (dropping
    // the engine would delete them as its tables go).
    std::mem::forget(db);

    // The checkpoint restores `ratings` as the new run's first file.
    let db = RecDb::open_with_config(config()).expect("reopen");
    assert_eq!(
        db.query("SELECT uid FROM ratings").expect("scan").len(),
        5000
    );
    assert_eq!(spill_files(), ["ratings.0.spill"]);
}

/// The join of `users` with `table` on uid as sorted `(uid, iid)` pairs,
/// and the join operators its `EXPLAIN ANALYZE` shows.
fn uid_join(db: &RecDb, table: &str) -> (Vec<(String, String)>, Vec<String>) {
    let sql = format!("SELECT U.uid, R.iid FROM users AS U, {table} AS R WHERE U.uid = R.uid");
    let result = db.query(&sql).expect("join");
    let mut rows: Vec<(String, String)> = (0..result.len())
        .map(|i| {
            let cell = |column| result.value(i, column).expect("column").to_string();
            (cell("uid"), cell("iid"))
        })
        .collect();
    rows.sort();
    let plan = db
        .query(&format!("EXPLAIN ANALYZE {sql}"))
        .expect("explain analyze");
    let operators = (0..plan.len())
        .filter_map(|i| {
            let line = plan.value(i, "plan").expect("plan column").to_string();
            let op = line.split_whitespace().next()?.to_owned();
            op.ends_with("Join").then_some(op)
        })
        .collect();
    (rows, operators)
}

/// A node split of the index's paged tree that fails inside an INSERT is
/// that statement's error, not a panic: the statement rolls back, and the
/// index join that follows returns the rows a hash join over an
/// index-less copy of the table returns.
#[test]
fn a_failed_index_split_fails_the_insert_and_the_join_stays_exact() {
    let _gate = fault::exclusive();
    fault::clear();
    let db = small_pool_db(None);
    load_ratings(&db, "copy");
    db.execute("CREATE TABLE users (uid INT)")
        .expect("create users");
    db.execute("INSERT INTO users VALUES (3), (7), (11)")
        .expect("load users");
    db.execute("CREATE INDEX ratings_uid ON ratings (uid)")
        .expect("create index");
    // 300 rows of one uid fill that uid's leaf past its capacity.
    let rows: Vec<String> = (0..300)
        .map(|n| format!("(3, {}, 1.5)", 9000 + n))
        .collect();
    let insert = |table: &str| format!("INSERT INTO {table} VALUES {}", rows.join(", "));
    fault::arm_error("storage::btree_split", 1);
    let err = db.execute(&insert("ratings")).expect_err("the split fails");
    assert_eq!(fault::triggered("storage::btree_split"), 1);
    fault::clear();
    assert!(err.to_string().contains("storage::btree_split"), "{err}");
    assert_eq!(uid_join(&db, "ratings").1, ["IndexJoin"]);
    assert_eq!(uid_join(&db, "copy").1, ["HashJoin"]);
    assert_eq!(uid_join(&db, "ratings").0, uid_join(&db, "copy").0);

    for table in ["ratings", "copy"] {
        db.execute(&insert(table)).expect("the retry succeeds");
    }
    let (rows, operators) = uid_join(&db, "ratings");
    assert_eq!(operators, ["IndexJoin"]);
    assert_eq!(rows.len(), 1300);
    assert_eq!(rows, uid_join(&db, "copy").0);
}

// ---------------------------------------------------------------------
// Seeded sweep (CI matrix drives RECDB_FAULT_SEED over [1, 7, 42])
// ---------------------------------------------------------------------

const ALL_SITES: [&str; 8] = [
    "storage::heap_append",
    "core::materialize_worker",
    "algo::svd_epoch",
    "algo::neighborhood_build",
    "exec::sort_materialize",
    "txn::lock_acquire",
    "txn::commit",
    "txn::rollback",
];

/// Run the full workload with one site armed at a seed-derived hit and
/// prove that whatever fails, the engine ends the workload consistent.
#[test]
fn seeded_fault_sweep_never_corrupts_the_engine() {
    let _gate = fault::exclusive();
    let seed = fault_seed();
    for site in ALL_SITES {
        fault::clear();
        let mut db = seeded_db(); // seed before arming: faults target the workload
        let nth = fault::schedule_nth(seed, site, 4);
        fault::arm_error(site, nth);

        // Each step may fail (depending on where the schedule lands) but
        // must never panic or wedge the engine.
        let _ = db.execute(CREATE_REC_SQL);
        let _ = db.execute(
            "CREATE RECOMMENDER SvdRec ON ratings USERS FROM uid \
             ITEMS FROM iid RATINGS FROM ratingval USING SVD",
        );
        let _ = db.execute("INSERT INTO ratings VALUES (4, 3, 2.5)");
        let _ = db.execute("BEGIN");
        let _ = db.execute("INSERT INTO ratings VALUES (5, 2, 4.0)");
        let _ = db.execute("COMMIT");
        let _ = db.execute("BEGIN");
        let _ = db.execute("INSERT INTO ratings VALUES (6, 1, 3.5)");
        let _ = db.execute("ROLLBACK");
        let _ = db.query("SELECT uid FROM ratings ORDER BY ratingval DESC");
        let _ = db.query(RECOMMEND_SQL);

        fault::clear();
        // Post-sweep invariants: catalog answers, and a fresh build over
        // the same (now fault-free) engine completes.
        assert!(
            ratings_count(&mut db) > 0,
            "seed {seed} site {site}: catalog wedged"
        );
        if db.recommender("MovieRec").is_none() {
            db.execute(CREATE_REC_SQL)
                .unwrap_or_else(|e| panic!("seed {seed} site {site}: rebuild failed: {e}"));
        }
        assert!(
            !db.query(RECOMMEND_SQL)
                .unwrap_or_else(|e| panic!("seed {seed} site {site}: recommend failed: {e}"))
                .is_empty(),
            "seed {seed} site {site}: no recommendations"
        );
    }
}

// ---------------------------------------------------------------------
// Session teardown: abandoned transactions must release their locks
// ---------------------------------------------------------------------

/// Dropping a session with an explicit transaction still open (a crashed
/// client, a dropped connection) rolls the transaction back and releases
/// every lock — the serving layer depends on this for its own teardown.
#[test]
fn dropped_session_with_open_txn_releases_locks() {
    let _gate = fault::exclusive(); // no fault armed by a parallel test may fire here
    let db = RecDb::new();
    db.execute("CREATE TABLE t (a INT)").expect("create");
    {
        let mut session = db.session();
        session.execute("BEGIN").expect("begin");
        session.execute("INSERT INTO t VALUES (1)").expect("insert");
        assert!(db.lock_table().held_count() > 0, "txn should hold locks");
        // Session dropped here with the transaction open.
    }
    assert_eq!(
        db.lock_table().held_count(),
        0,
        "Session::drop must abort the open transaction and release locks"
    );
    // The abandoned insert is gone and the table is immediately writable.
    assert_eq!(db.query("SELECT a FROM t").expect("scan").len(), 0);
    db.execute("INSERT INTO t VALUES (2)").expect("not locked");
}

/// The hard case: the abort path *itself* panics (armed `wal::append`
/// fault while writing the TxnAbort marker). The panic must be contained
/// inside `abort_txn` — locks still release, no panic escapes
/// `Session::drop`, and the engine keeps serving.
#[test]
fn abort_path_panic_still_releases_locks() {
    let _gate = fault::exclusive();
    fault::clear();
    let tmp = temp_dir("abortpanic");
    let dir = tmp.path();
    {
        let db = RecDb::open_with_config(RecDbConfig {
            data_dir: Some(dir.to_path_buf()),
            ..RecDbConfig::default()
        })
        .expect("open durable");
        db.execute("CREATE TABLE t (a INT)").expect("create");
        let escaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = db.session();
            session.execute("BEGIN").expect("begin");
            session.execute("INSERT INTO t VALUES (1)").expect("insert");
            // Arm AFTER the insert so the txn's own WAL writes go
            // through; the next `wal::append` is the abort marker.
            fault::arm_panic("wal::append", 1);
            // Session::drop -> abort_txn -> WAL abort marker -> panic,
            // which must be contained.
        }));
        let abort_fault_fired = fault::triggered("wal::append") > 0;
        fault::clear();
        assert!(escaped.is_ok(), "panic escaped Session::drop: {escaped:?}");
        assert!(
            abort_fault_fired,
            "the armed abort-path fault never fired; test is vacuous"
        );
        assert_eq!(
            db.lock_table().held_count(),
            0,
            "abort-path panic stranded locks"
        );
        assert!(
            db.render_metrics()
                .contains("recdb_txn_abort_panics_total 1"),
            "contained panic not counted"
        );
        // Engine still serves reads and writes.
        assert_eq!(db.query("SELECT a FROM t").expect("scan").len(), 0);
        db.execute("INSERT INTO t VALUES (3)")
            .expect("still writable");
    }
}

// ---------------------------------------------------------------------
// Lock-layer faults (here rather than in the crates' lib tests: see the
// `recdb_fault` module docs)
// ---------------------------------------------------------------------

/// A panic at the lock acquisition of a write inside an explicit
/// transaction is contained, aborts the whole transaction and releases
/// the locks it already held.
#[test]
fn panic_during_write_statement_releases_locks() {
    let _x = fault::exclusive();
    fault::clear();
    let db = RecDb::new();
    db.execute_script(
        "CREATE TABLE users (uid INT, name TEXT, city TEXT);
         CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
         INSERT INTO ratings VALUES (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5),
                                    (2, 3, 2.0), (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);",
    )
    .unwrap();
    let mut session = db.session();
    session.execute("BEGIN").unwrap();
    session
        .execute("INSERT INTO ratings VALUES (9, 9, 4.0)")
        .unwrap();
    assert!(db.lock_table().is_locked("ratings"));
    // The next write panics at its lock acquisition; the boundary
    // must contain it, abort the whole transaction, and release the
    // ratings lock already held.
    fault::arm_panic("txn::lock_acquire", 1);
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
    fault::clear();
}

/// `txn::lock_acquire` fails the acquisition before anything is granted,
/// and disarms itself.
#[test]
fn lock_acquire_fail_point_aborts_the_acquisition() {
    use recdb_txn::{LockError, LockMode, LockTable};
    const NOW: Duration = Duration::ZERO;
    let _x = fault::exclusive();
    fault::clear();
    let lt = LockTable::new();
    fault::arm_error("txn::lock_acquire", 1);
    let err = lt
        .acquire(1, "t", LockMode::Shared, NOW, &QueryGuard::unlimited())
        .expect_err("armed fail point");
    assert!(matches!(err, LockError::Fault(_)), "{err:?}");
    assert!(!lt.is_locked("t"), "failed acquire must grant nothing");
    // Self-disarming: the next acquire succeeds.
    lt.acquire(1, "t", LockMode::Shared, NOW, &QueryGuard::unlimited())
        .expect("disarmed");
    fault::clear();
}
