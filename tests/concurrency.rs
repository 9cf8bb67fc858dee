//! Concurrency acceptance tests: N reader × M writer stress against an
//! `Arc`-shared engine, checked for torn reads in flight and for lost
//! updates against the serial replay of its acknowledged commits
//! (`common::History`); plus the targeted lock-behaviour guarantees
//! (readers never block each other, contended writes time out, cancelled
//! waiters return promptly) and crash recovery in the middle of a
//! concurrent run.
//!
//! Thread counts and workload sizes follow the `RECDB_STRESS_*`
//! environment variables (see [`StressConfig::from_env`]); the CI
//! `concurrency-stress` job raises them and sweeps `RECDB_FAULT_SEED`
//! over {1, 7, 42} so the seeded commit/rollback schedule varies.

mod common;

use common::{fault_seed, run_marker, seed_ratings, seed_ratings_sql, temp_dir, End, History};
use common::{Marker, Outcome};
use recdb::core::{EngineError, QueryGuard, RecDb, RecDbConfig};
use std::time::{Duration, Instant};

const RECOMMEND_SQL: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
     RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
     WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";

const CREATE_REC_SQL: &str = "CREATE RECOMMENDER StressRec ON ratings \
     USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF";

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
            seed: fault_seed(),
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

fn commits(seed: u64, w: usize, s: usize) -> bool {
    // ~75% commit, 25% rollback, deterministic per seed.
    !mix(seed ^ ((w as u64) << 32) ^ s as u64).is_multiple_of(4)
}

/// The seed ratings, written to `db` and recorded as acknowledged.
fn seeded(db: &RecDb) -> History {
    let mut history = History::new();
    for sql in seed_ratings_sql() {
        history.must(db, &sql);
    }
    history
}

/// Writer `w`'s marker transactions through one session, each ended by
/// the seeded COMMIT or ROLLBACK; every one must go as scheduled.
fn run_writer(db: &RecDb, seed: u64, w: usize, txns: usize) -> History {
    let mut session = db.session();
    let mut history = History::new();
    for s in 0..txns {
        let marker = Marker::ratings(w, s);
        let (end, want) = if commits(seed, w, s) {
            (End::Commit, Outcome::Acked)
        } else {
            (End::Rollback, Outcome::RolledBack)
        };
        let outcome = run_marker(&mut session, &marker, end, 1);
        assert_eq!(outcome, want, "writer {w} txn {s}");
        history.marker(&marker, outcome);
    }
    history
}

/// One reader probe: count the marker rows of a seeded (writer, txn)
/// target — strict 2PL means the count must be 0 (not committed yet /
/// rolled back) or 3 (committed), never 1 or 2.
fn run_reader_probe(db: &RecDb, cfg: StressConfig, r: usize, q: usize) {
    let roll = mix(cfg.seed ^ 0xDEAD ^ ((r as u64) << 40) ^ q as u64);
    let w = (roll as usize) % cfg.writers;
    let s = ((roll >> 16) as usize) % cfg.txns_per_writer;
    let rows = Marker::ratings(w, s).rows_in(db);
    assert!(
        rows == 0 || rows == 3,
        "torn read: saw {rows} of 3 marker rows for writer {w} txn {s}"
    );
    if q.is_multiple_of(4) {
        let recs = db.query(RECOMMEND_SQL).expect("concurrent recommend");
        assert!(!recs.is_empty(), "recommendation under concurrency");
    }
}

// ---------------------------------------------------------------------
// The stress test: linearizable reads in flight, serial replay at rest
// ---------------------------------------------------------------------

/// ISSUE acceptance: ≥4 readers and ≥2 writers hammer one shared engine
/// with ≥1k statements. Readers must never observe a torn transaction,
/// and the final state must equal a serial replay of exactly the
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
    let mut history = seeded(&db);
    history.must(&db, CREATE_REC_SQL);

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..cfg.writers)
            .map(|w| {
                let db = &db;
                scope.spawn(move || run_writer(db, cfg.seed, w, cfg.txns_per_writer))
            })
            .collect();
        for r in 0..cfg.readers {
            let db = &db;
            scope.spawn(move || {
                for q in 0..cfg.queries_per_reader {
                    run_reader_probe(db, cfg, r, q);
                }
            });
        }
        for h in writers {
            history.extend(h.join().expect("writer thread"));
        }
    });

    // Every lock is back in the pool once the run is over.
    assert_eq!(db.lock_table().held_count(), 0, "locks leaked");
    history.assert_matches(&db, "concurrent run vs the serial replay of its commits");
}

/// Crash in the middle of a concurrent run: drop the durable engine with
/// no final checkpoint while every writer transaction's fate is known,
/// then reopen. Recovery must reconstruct exactly the acknowledged
/// commits — rolled-back and unfinished work stays gone.
#[test]
fn crash_mid_concurrent_run_recovers_exactly_acknowledged_commits() {
    let dir = temp_dir("crash");
    let seed = fault_seed();
    let config = || RecDbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    };
    let mut history;
    {
        let db = RecDb::open_with_config(config()).expect("open durable engine");
        history = seeded(&db);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let db = &db;
                    scope.spawn(move || run_writer(db, seed, w, 12))
                })
                .collect();
            for h in writers {
                history.extend(h.join().expect("writer thread"));
            }
        });
        // Dropped here without a checkpoint: the WAL alone carries the run.
    }
    let db = RecDb::open_with_config(config()).expect("reopen after crash");
    history.assert_matches(&db, "recovery must replay exactly the acknowledged commits");
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
