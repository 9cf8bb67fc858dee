//! Concurrency acceptance tests: N reader × M writer stress against an
//! `Arc`-shared engine, checked for torn reads in flight and for lost
//! updates against a serially-replayed shadow engine; plus the targeted
//! lock-behaviour guarantees (readers never block each other, contended
//! writes time out, cancelled waiters return promptly) and crash
//! recovery in the middle of a concurrent run.
//!
//! Thread counts and workload sizes follow the `RECDB_STRESS_*`
//! environment variables (see [`StressConfig::from_env`]); the CI
//! `concurrency-stress` job raises them and sweeps `RECDB_FAULT_SEED`
//! over {1, 7, 42} so the seeded commit/rollback schedule varies.

use recdb::core::{EngineError, QueryGuard, RecDb, RecDbConfig};
use recdb::exec::ResultSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const RECOMMEND_SQL: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
     RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
     WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";

const CREATE_REC_SQL: &str = "CREATE RECOMMENDER StressRec ON ratings \
     USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF";

/// Deterministic base data: 6 users × 8 items with one gap per user, the
/// same layout the robustness suite uses.
fn seed_ratings(db: &RecDb) {
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create table");
    let mut rows = Vec::new();
    for uid in 1..=6i64 {
        for iid in 1..=8i64 {
            if (uid + iid) % 7 == 0 {
                continue;
            }
            let rating = 1.0 + ((uid * 3 + iid * 5) % 9) as f64 / 2.0;
            rows.push(format!("({uid}, {iid}, {rating:.1})"));
        }
    }
    let sql = format!("INSERT INTO ratings VALUES {}", rows.join(", "));
    db.execute(&sql).expect("seed inserts");
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "recdb-conc-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// splitmix64 — the seeded schedule for commit/rollback decisions and
/// reader probe targets. Deterministic per (seed, lane, step).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Workload shape, overridable from the environment for the CI stress job.
#[derive(Debug, Clone, Copy)]
struct StressConfig {
    readers: usize,
    writers: usize,
    txns_per_writer: usize,
    queries_per_reader: usize,
    seed: u64,
}

impl StressConfig {
    fn from_env() -> Self {
        StressConfig {
            readers: env_usize("RECDB_STRESS_READERS", 4),
            writers: env_usize("RECDB_STRESS_WRITERS", 2),
            txns_per_writer: env_usize("RECDB_STRESS_TXNS", 40),
            queries_per_reader: env_usize("RECDB_STRESS_QUERIES", 160),
            seed: std::env::var("RECDB_FAULT_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(42),
        }
    }

    /// Statements the workload will issue: every writer transaction is
    /// BEGIN + 3 INSERTs + COMMIT/ROLLBACK, every reader probe is one
    /// SELECT (with a RECOMMEND every fourth step).
    fn total_statements(&self) -> usize {
        self.writers * self.txns_per_writer * 5
            + self.readers * self.queries_per_reader
            + self.readers * self.queries_per_reader / 4
    }
}

/// Marker rows for writer `w`, transaction `s`: three rows under one
/// synthetic uid, so a torn read is visible as a count of 1 or 2.
fn marker_uid(w: usize, s: usize) -> i64 {
    1_000 + (w as i64) * 1_000 + s as i64
}

fn marker_rating(w: usize, s: usize, k: usize) -> f64 {
    1.0 + ((w * 7 + s * 3 + k) % 9) as f64 / 2.0
}

fn commits(seed: u64, w: usize, s: usize) -> bool {
    // ~75% commit, 25% rollback, deterministic per seed.
    !mix(seed ^ ((w as u64) << 32) ^ s as u64).is_multiple_of(4)
}

/// One writer transaction through a session: BEGIN, three marker
/// inserts, then the seeded COMMIT or ROLLBACK. Returns true when the
/// COMMIT was acknowledged.
fn run_writer_txn(session: &mut recdb::core::Session<'_>, seed: u64, w: usize, s: usize) -> bool {
    session.execute("BEGIN").expect("begin");
    let uid = marker_uid(w, s);
    for k in 0..3usize {
        let iid = k as i64 + 1;
        let rating = marker_rating(w, s, k);
        session
            .execute(&format!(
                "INSERT INTO ratings VALUES ({uid}, {iid}, {rating:.1})"
            ))
            .expect("marker insert");
    }
    if commits(seed, w, s) {
        session.execute("COMMIT").expect("commit");
        true
    } else {
        session.execute("ROLLBACK").expect("rollback");
        false
    }
}

/// One reader probe: count the marker rows of a seeded (writer, txn)
/// target — strict 2PL means the count must be 0 (not committed yet /
/// rolled back) or 3 (committed), never 1 or 2.
fn run_reader_probe(db: &RecDb, seed: u64, cfg: StressConfig, r: usize, q: usize) {
    let roll = mix(seed ^ 0xDEAD ^ ((r as u64) << 40) ^ q as u64);
    let w = (roll as usize) % cfg.writers;
    let s = ((roll >> 16) as usize) % cfg.txns_per_writer;
    let uid = marker_uid(w, s);
    let rows = db
        .query(&format!("SELECT iid FROM ratings WHERE uid = {uid}"))
        .expect("reader probe");
    assert!(
        rows.is_empty() || rows.len() == 3,
        "torn read: saw {} of 3 marker rows for writer {w} txn {s}",
        rows.len()
    );
    if q.is_multiple_of(4) {
        let recs = db.query(RECOMMEND_SQL).expect("concurrent recommend");
        assert!(!recs.is_empty(), "recommendation under concurrency");
    }
}

/// Sorted full contents of the ratings table, in milli-units, for
/// order-insensitive state comparison between engines.
fn table_state(db: &RecDb) -> Vec<(i64, i64, i64)> {
    let rows: ResultSet = db
        .query("SELECT uid, iid, ratingval FROM ratings")
        .expect("state scan");
    let mut v: Vec<(i64, i64, i64)> = rows
        .rows()
        .iter()
        .map(|t| {
            (
                t.get(0).unwrap().as_int().unwrap(),
                t.get(1).unwrap().as_int().unwrap(),
                (t.get(2).unwrap().as_f64().unwrap() * 1000.0).round() as i64,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// Replay exactly the acknowledged commits serially into a fresh engine
/// and return its final state.
fn shadow_state(acknowledged: &[(usize, usize)]) -> Vec<(i64, i64, i64)> {
    let shadow = RecDb::with_config(RecDbConfig {
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    });
    seed_ratings(&shadow);
    for &(w, s) in acknowledged {
        let uid = marker_uid(w, s);
        for k in 0..3usize {
            let iid = k as i64 + 1;
            let rating = marker_rating(w, s, k);
            shadow
                .execute(&format!(
                    "INSERT INTO ratings VALUES ({uid}, {iid}, {rating:.1})"
                ))
                .expect("shadow insert");
        }
    }
    table_state(&shadow)
}

// ---------------------------------------------------------------------
// The stress test: linearizable reads in flight, serial shadow at rest
// ---------------------------------------------------------------------

/// ISSUE acceptance: ≥4 readers and ≥2 writers hammer one shared engine
/// with ≥1k statements. Readers must never observe a torn transaction,
/// and the final table state must equal a serial replay of exactly the
/// acknowledged commits — no lost updates, no resurrected rollbacks.
#[test]
fn stress_readers_and_writers_match_serial_shadow() {
    let cfg = StressConfig::from_env();
    assert!(
        cfg.total_statements() >= 1_000,
        "stress must issue >= 1k statements (got {}); raise RECDB_STRESS_*",
        cfg.total_statements()
    );
    let db = RecDb::with_config(RecDbConfig {
        maintenance_threshold_pct: f64::INFINITY, // keep commits cheap; the model serves stale
        ..RecDbConfig::default()
    });
    seed_ratings(&db);
    db.execute(CREATE_REC_SQL).expect("create recommender");

    let mut acknowledged: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for w in 0..cfg.writers {
            let db = &db;
            writer_handles.push(scope.spawn(move || {
                let mut session = db.session();
                let mut committed = Vec::new();
                for s in 0..cfg.txns_per_writer {
                    if run_writer_txn(&mut session, cfg.seed, w, s) {
                        committed.push((w, s));
                    }
                }
                committed
            }));
        }
        let mut reader_handles = Vec::new();
        for r in 0..cfg.readers {
            let db = &db;
            reader_handles.push(scope.spawn(move || {
                for q in 0..cfg.queries_per_reader {
                    run_reader_probe(db, cfg.seed, cfg, r, q);
                }
            }));
        }
        for h in reader_handles {
            h.join().expect("reader thread");
        }
        for h in writer_handles {
            acknowledged.extend(h.join().expect("writer thread"));
        }
    });

    // Every lock is back in the pool once the run is over.
    assert_eq!(db.lock_table().held_count(), 0, "locks leaked");
    assert_eq!(
        table_state(&db),
        shadow_state(&acknowledged),
        "concurrent run diverged from the serial replay of its commits"
    );
}

/// Crash in the middle of a concurrent run: drop the durable engine with
/// no final checkpoint while every writer transaction's fate is known,
/// then reopen. Recovery must reconstruct exactly the acknowledged
/// commits — rolled-back and unfinished work stays gone.
#[test]
fn crash_mid_concurrent_run_recovers_exactly_acknowledged_commits() {
    let dir = temp_dir("crash");
    let _ = std::fs::remove_dir_all(&dir);
    let seed = StressConfig::from_env().seed;
    let writers = 2usize;
    let txns = 12usize;

    let mut acknowledged: Vec<(usize, usize)> = Vec::new();
    {
        let db = RecDb::open_with_config(RecDbConfig {
            data_dir: Some(dir.clone()),
            maintenance_threshold_pct: f64::INFINITY,
            ..RecDbConfig::default()
        })
        .expect("open durable engine");
        seed_ratings(&db);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..writers {
                let db = &db;
                handles.push(scope.spawn(move || {
                    let mut session = db.session();
                    let mut committed = Vec::new();
                    for s in 0..txns {
                        if run_writer_txn(&mut session, seed, w, s) {
                            committed.push((w, s));
                        }
                    }
                    committed
                }));
            }
            for h in handles {
                acknowledged.extend(h.join().expect("writer thread"));
            }
        });
        // Dropped here without a checkpoint: the WAL alone carries the run.
    }

    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(dir.clone()),
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    })
    .expect("reopen after crash");
    assert_eq!(
        table_state(&db),
        shadow_state(&acknowledged),
        "recovery must replay exactly the acknowledged commits"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// ---------------------------------------------------------------------
// Targeted lock behaviour
// ---------------------------------------------------------------------

/// Readers share the lock: with a zero lock timeout (any wait at all
/// fails), a second session's reads succeed while a read transaction is
/// open — concurrent readers never block each other.
#[test]
fn concurrent_readers_never_block() {
    let db = RecDb::with_config(RecDbConfig {
        lock_timeout: Duration::ZERO,
        ..RecDbConfig::default()
    });
    seed_ratings(&db);
    let mut holder = db.session();
    holder.execute("BEGIN").expect("begin");
    holder
        .query("SELECT uid FROM ratings")
        .expect("reader holds S");
    // Any number of concurrent readers get in without waiting at all.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let db = &db;
            scope.spawn(move || {
                db.query("SELECT uid FROM ratings")
                    .expect("shared read must not wait");
            });
        }
    });
    holder.execute("COMMIT").expect("commit");
}

/// ISSUE acceptance: a contended write under a zero lock timeout fails
/// with `LockTimeout` naming the table — it does not wait, wedge, or
/// panic — and succeeds once the holder commits.
#[test]
fn zero_timeout_contended_write_times_out() {
    let db = RecDb::with_config(RecDbConfig {
        lock_timeout: Duration::ZERO,
        ..RecDbConfig::default()
    });
    seed_ratings(&db);
    let mut holder = db.session();
    holder.execute("BEGIN").expect("begin");
    holder
        .execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .expect("holder takes X");
    match db.execute("INSERT INTO ratings VALUES (2, 7, 3.0)") {
        Err(EngineError::LockTimeout { table, .. }) => assert_eq!(table, "ratings"),
        other => panic!("expected LockTimeout, got {other:?}"),
    }
    holder.execute("COMMIT").expect("commit");
    db.execute("INSERT INTO ratings VALUES (2, 7, 3.0)")
        .expect("write after release");
}

/// A waiter parked on a lock honours its guard's cancellation: it
/// returns `Cancelled` promptly (well before the lock timeout), and the
/// engine keeps serving.
#[test]
fn cancelled_lock_waiter_returns_promptly() {
    let db = RecDb::with_config(RecDbConfig {
        lock_timeout: Duration::from_secs(60), // a full wait would hang the test
        ..RecDbConfig::default()
    });
    seed_ratings(&db);
    let mut holder = db.session();
    holder.execute("BEGIN").expect("begin");
    holder
        .execute("INSERT INTO ratings VALUES (1, 7, 2.0)")
        .expect("holder takes X");

    let guard = QueryGuard::unlimited();
    let handle = guard.cancel_handle();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let db = &db;
        let waiter = scope
            .spawn(move || db.execute_with_guard("INSERT INTO ratings VALUES (2, 7, 3.0)", guard));
        std::thread::sleep(Duration::from_millis(50));
        handle.cancel();
        match waiter.join().expect("waiter thread") {
            Err(EngineError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation must not wait out the lock timeout"
    );
    holder.execute("COMMIT").expect("commit");
    db.execute("INSERT INTO ratings VALUES (2, 7, 3.0)")
        .expect("engine still serving");
}
