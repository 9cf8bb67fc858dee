//! Wire-level acceptance + chaos tests for the serving layer: typed
//! results over TCP, transactions per connection, admission control,
//! timeouts, killed connections mid-transaction, the seeded fault sweep
//! over the `server::*` sites (verified against a shadow engine), and
//! crash-during-serve recovery.
//!
//! Every test that arms a fault site holds [`recdb::fault::exclusive`]
//! for its whole body — the registry is process-global and the harness
//! runs tests in parallel.

use recdb::core::RecDb;
use recdb::core::RecDbConfig;
use recdb::fault;
use recdb::server::{
    Client, ClientConfig, ClientError, ErrorCode, Server, ServerConfig, WireResult,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "recdb-server-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

fn sweep_seed() -> u64 {
    std::env::var("RECDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Start a server over a fresh in-memory engine with a markers table.
fn marker_server(cfg: ServerConfig) -> (Arc<RecDb>, Server) {
    let db = Arc::new(RecDb::new());
    db.execute("CREATE TABLE markers (writer INT, marker INT, part INT)")
        .expect("create markers");
    let server = Server::start(Arc::clone(&db), cfg).expect("bind server");
    (db, server)
}

/// Wait (bounded) for a condition the server reaches asynchronously —
/// e.g. noticing a dead peer at its next read slice.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

// ---------------------------------------------------------------------
// Round trips: typed results, errors, metrics, ping
// ---------------------------------------------------------------------

#[test]
fn typed_results_round_trip_over_the_wire() {
    let db = Arc::new(RecDb::new());
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.ping().expect("ping");
    assert!(matches!(
        client
            .execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
            .expect("create"),
        WireResult::TableCreated(name) if name == "ratings"
    ));
    assert!(matches!(
        client
            .execute("INSERT INTO ratings VALUES (1, 1, 5.0), (1, 2, 3.0), (2, 1, 4.0)")
            .expect("insert"),
        WireResult::Inserted(3)
    ));
    let rows = client
        .query("SELECT uid, iid, ratingval FROM ratings WHERE uid = 1")
        .expect("select");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.schema().columns().len(), 3);

    // An engine error travels as a classified, fatal error frame and the
    // connection stays healthy for the next statement.
    let err = client.execute("THIS IS NOT SQL").expect_err("parse error");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(!e.retryable);
        }
        other => panic!("expected server error, got {other}"),
    }
    client.ping().expect("connection still healthy");

    // The METRICS verb serves the whole registry, server metrics included.
    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("recdb_connections_active"), "{text}");
    assert!(
        text.contains("recdb_requests_total{outcome=\"ok\"}"),
        "{text}"
    );
    assert!(text.contains("recdb_request_micros"), "{text}");

    let report = server.shutdown();
    assert!(report.drained_within_deadline, "{report:?}");
    assert_eq!(db.lock_table().held_count(), 0);
}

#[test]
fn transactions_are_per_connection_over_the_wire() {
    let (db, server) = marker_server(ServerConfig::default());
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");

    assert!(matches!(
        a.execute("BEGIN").expect("begin"),
        WireResult::TransactionStarted
    ));
    assert!(a.in_transaction());
    a.execute("INSERT INTO markers VALUES (1, 1, 0)")
        .expect("insert");

    // B's session is independent: it has no transaction open.
    let err = b.execute("COMMIT").expect_err("no txn on b");
    assert!(matches!(&err, ClientError::Server(e) if e.code == ErrorCode::TransactionState));

    assert!(matches!(
        a.execute("COMMIT").expect("commit"),
        WireResult::TransactionCommitted
    ));
    assert!(!a.in_transaction());
    assert_eq!(
        b.query("SELECT marker FROM markers").expect("read").len(),
        1
    );

    // ROLLBACK over the wire undoes.
    a.execute("BEGIN").expect("begin 2");
    a.execute("INSERT INTO markers VALUES (1, 2, 0)")
        .expect("insert 2");
    a.execute("ROLLBACK").expect("rollback");
    assert_eq!(
        b.query("SELECT marker FROM markers").expect("read 2").len(),
        1
    );

    drop((a, b));
    server.shutdown();
    assert_eq!(db.lock_table().held_count(), 0);
}

// ---------------------------------------------------------------------
// Killed connections and abandoned transactions
// ---------------------------------------------------------------------

#[test]
fn killed_connection_mid_transaction_releases_locks() {
    let (db, server) = marker_server(ServerConfig::default());
    let mut victim = Client::connect(server.addr()).expect("connect");
    victim.execute("BEGIN").expect("begin");
    victim
        .execute("INSERT INTO markers VALUES (7, 7, 0)")
        .expect("insert");
    assert!(db.lock_table().held_count() > 0, "txn should hold locks");

    // Kill the socket with the transaction open. The server must notice
    // the dead peer, drop the session, abort the transaction, and
    // release every lock.
    victim.drop_connection();
    eventually("server aborts the orphaned transaction", || {
        db.lock_table().held_count() == 0
    });

    // The rolled-back insert is gone and the table is writable at once.
    let mut other = Client::connect(server.addr()).expect("connect other");
    assert_eq!(
        other
            .query("SELECT marker FROM markers")
            .expect("read")
            .len(),
        0
    );
    other
        .execute("INSERT INTO markers VALUES (8, 8, 0)")
        .expect("table not locked");

    drop(other);
    server.shutdown();
    assert_eq!(db.lock_table().held_count(), 0);
}

// ---------------------------------------------------------------------
// Admission control and timeouts
// ---------------------------------------------------------------------

#[test]
fn admission_control_rejects_then_recovers() {
    let (db, server) = marker_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let no_retry = ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    };
    let c1 = Client::connect_with(server.addr(), no_retry.clone()).expect("c1");
    let _c2 = Client::connect_with(server.addr(), no_retry.clone()).expect("c2");

    // Third connection: immediate retryable rejection, not a hang.
    let err = Client::connect_with(server.addr(), no_retry.clone()).expect_err("over cap");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert!(e.retryable, "overload must be retryable");
        }
        other => panic!("expected overloaded, got {other}"),
    }
    assert!(db
        .render_metrics()
        .contains("recdb_server_overload_rejections_total 1"));

    // Capacity freed -> admitted again (the reconnecting client's
    // backoff would ride this out on its own with retries enabled).
    drop(c1);
    eventually("server reaps the closed connection", || {
        server.active_connections() < 2
    });
    let mut c3 = Client::connect_with(server.addr(), no_retry).expect("admitted after close");
    c3.ping().expect("healthy");

    drop((_c2, c3));
    server.shutdown();
}

#[test]
fn idle_timeout_closes_and_client_reconnects() {
    let (_db, server) = marker_server(ServerConfig {
        idle_timeout: Duration::from_millis(120),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("first ping");
    let reconnects_before = client.reconnects();

    std::thread::sleep(Duration::from_millis(400));
    // The server closed the idle connection; the client transparently
    // reconnects and the call still succeeds.
    client.ping().expect("ping after idle close");
    assert!(
        client.reconnects() > reconnects_before,
        "client should have dialed again after the idle close"
    );
    server.shutdown();
}

#[test]
fn per_request_deadline_is_cancelled_and_retryable() {
    let db = Arc::new(RecDb::new());
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create");
    let mut batch = Vec::new();
    for uid in 0..40i64 {
        for iid in 0..40i64 {
            batch.push(format!(
                "({uid}, {iid}, {})",
                1.0 + ((uid + iid) % 8) as f64 * 0.5
            ));
        }
    }
    db.execute(&format!("INSERT INTO ratings VALUES {}", batch.join(", ")))
        .expect("seed");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("bind");
    let mut client = Client::connect_with(
        server.addr(),
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    // A deadline of ~zero cancels even a cheap scan; the wire error is
    // the engine's Cancelled, marked retryable.
    let err = client
        .execute_with_deadline(
            "SELECT uid, iid, ratingval FROM ratings ORDER BY ratingval",
            Some(Duration::from_micros(1)),
        )
        .expect_err("deadline must trip");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Cancelled);
            assert!(e.retryable);
        }
        other => panic!("expected cancelled, got {other}"),
    }
    // Without the deadline the same statement succeeds on the same
    // connection.
    client
        .execute("SELECT uid, iid, ratingval FROM ratings ORDER BY ratingval")
        .expect("no deadline");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Frame hardening at the socket level
// ---------------------------------------------------------------------

/// Read one length-prefixed frame directly off a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

#[test]
fn oversized_frame_is_rejected_without_allocation_or_panic() {
    let (_db, server) = marker_server(ServerConfig {
        max_frame_bytes: 64 * 1024,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
    let _hello = read_raw_frame(&mut raw).expect("hello frame");

    // Announce a ~4 GiB frame. The server must answer with a clean
    // frame_too_large error and close — never allocate or panic.
    raw.write_all(&0xFFFF_FFFFu32.to_be_bytes())
        .expect("header");
    let reply = read_raw_frame(&mut raw).expect("error frame");
    let text = String::from_utf8_lossy(&reply).into_owned();
    assert!(text.contains("frame_too_large"), "{text}");
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest); // server closes after the error
    assert!(rest.is_empty());

    // The server itself keeps serving.
    let mut client = Client::connect(server.addr()).expect("still serving");
    client.ping().expect("healthy");
    server.shutdown();
}

/// A result larger than `max_frame_bytes` is answered with a fatal
/// `frame_too_large` error instead of a dropped connection: the session
/// and its open transaction carry on, and the transaction commits.
#[test]
fn oversized_result_is_refused_and_the_transaction_carries_on() {
    let (db, server) = marker_server(ServerConfig {
        max_frame_bytes: 64 * 1024,
        ..ServerConfig::default()
    });
    db.execute("CREATE TABLE notes (body TEXT)")
        .expect("create notes");
    let body = "x".repeat(1000);
    let values = vec![format!("('{body}')"); 100].join(", ");
    db.execute(&format!("INSERT INTO notes VALUES {values}"))
        .expect("~100 KiB of notes");

    let mut client = Client::connect(server.addr()).expect("connect");
    client.execute("BEGIN").expect("begin");
    client
        .execute("INSERT INTO markers VALUES (1, 1, 0)")
        .expect("insert");
    match client.query("SELECT body FROM notes") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::FrameTooLarge, "{e}");
            assert!(!e.retryable, "{e}");
        }
        other => panic!("expected frame_too_large, got {other:?}"),
    }
    assert!(client.in_transaction());
    assert_eq!(
        client
            .query("SELECT COUNT(*) FROM notes")
            .expect("same session")
            .len(),
        1
    );
    assert!(matches!(
        client.execute("COMMIT").expect("commit"),
        WireResult::TransactionCommitted
    ));
    assert_eq!(db.query("SELECT marker FROM markers").unwrap().len(), 1);

    drop(client);
    server.shutdown();
    assert_eq!(db.lock_table().held_count(), 0);
}

// ---------------------------------------------------------------------
// Seeded fault sweep over the server sites, vs a shadow engine
// ---------------------------------------------------------------------

const SERVER_SITES: [&str; 3] = [
    "server::accept",
    "server::frame_read",
    "server::frame_write",
];

/// For every server fail point and every scheduled hit position, run a
/// transactional wire workload with the site armed, then prove: no lock
/// leaks, and the surviving data equals a shadow engine replaying
/// exactly the acknowledged commits (modulo ambiguous commits, which
/// must still be atomic).
#[test]
fn seeded_server_fault_sweep_matches_shadow_replay() {
    let _gate = fault::exclusive();
    let seed = sweep_seed();
    for site in SERVER_SITES {
        for round in 0..4u64 {
            fault::clear();
            let (db, server) = marker_server(ServerConfig {
                idle_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            });
            let addr = server.addr();
            let nth = fault::schedule_nth(seed.wrapping_add(round), site, 4);
            fault::arm_error(site, nth);

            let mut acked: Vec<i64> = Vec::new();
            let mut client = Client::connect_with(
                addr,
                ClientConfig {
                    max_retries: 6,
                    backoff_base: Duration::from_millis(1),
                    ..ClientConfig::default()
                },
            )
            .expect("sweep connect");
            for marker in 0..6i64 {
                // Whole-transaction retry, the only sound unit.
                for _attempt in 0..3 {
                    let ok = client.execute("BEGIN").is_ok()
                        && client
                            .execute(&format!("INSERT INTO markers VALUES (0, {marker}, 0)"))
                            .is_ok()
                        && client
                            .execute(&format!("INSERT INTO markers VALUES (0, {marker}, 1)"))
                            .is_ok();
                    if !ok {
                        if client.in_transaction() {
                            let _ = client.execute("ROLLBACK");
                        }
                        continue;
                    }
                    match client.execute("COMMIT") {
                        Ok(WireResult::TransactionCommitted) => {
                            acked.push(marker);
                            break;
                        }
                        Ok(_) => {}
                        Err(ClientError::ConnectionLost { sent: true, .. }) => break, // ambiguous
                        Err(_) => {}
                    }
                }
            }
            drop(client);
            fault::clear();
            let report = server.shutdown();
            assert_eq!(
                report.leaked_connections, 0,
                "seed {seed} site {site} round {round}: leaked connections"
            );
            assert_eq!(
                db.lock_table().held_count(),
                0,
                "seed {seed} site {site} round {round}: leaked locks"
            );

            // Shadow replay: a fresh engine executing exactly the acked
            // commits serially.
            let shadow = RecDb::new();
            shadow
                .execute("CREATE TABLE markers (writer INT, marker INT, part INT)")
                .expect("shadow create");
            for m in &acked {
                shadow
                    .execute(&format!(
                        "INSERT INTO markers VALUES (0, {m}, 0), (0, {m}, 1)"
                    ))
                    .expect("shadow insert");
            }
            let count_rows = |db: &RecDb, marker: i64| {
                db.query(&format!("SELECT part FROM markers WHERE marker = {marker}"))
                    .expect("count query")
                    .len()
            };
            for m in &acked {
                assert_eq!(
                    count_rows(&db, *m),
                    count_rows(&shadow, *m),
                    "seed {seed} site {site} round {round}: acked marker {m} diverges from shadow"
                );
            }
            // Non-acked markers may exist (ambiguous commits) but must
            // be atomic: exactly 0 or 2 rows, never torn.
            for m in 0..6i64 {
                let n = count_rows(&db, m);
                assert!(
                    n == 0 || n == 2,
                    "seed {seed} site {site} round {round}: marker {m} torn ({n} rows)"
                );
            }
        }
    }
    fault::clear();
}

// ---------------------------------------------------------------------
// Crash-during-serve recovery
// ---------------------------------------------------------------------

/// Commits acknowledged over the wire must survive a crash: force-stop
/// the server with connections open mid-transaction, reopen the data
/// directory, and check exactly the acked markers (plus nothing torn).
#[test]
fn crash_during_serve_preserves_exactly_acked_commits() {
    let dir = temp_dir("crash");
    let acked: Vec<i64> = {
        let db = Arc::new(
            RecDb::open_with_config(RecDbConfig {
                data_dir: Some(dir.clone()),
                ..RecDbConfig::default()
            })
            .expect("open durable"),
        );
        db.execute("CREATE TABLE markers (writer INT, marker INT, part INT)")
            .expect("create");
        db.checkpoint().expect("baseline checkpoint");
        let server = Server::start(
            Arc::clone(&db),
            ServerConfig {
                // Tiny drain budget: shutdown behaves like a hard stop
                // for anything in flight.
                drain_timeout: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.addr();

        let mut acked = Vec::new();
        let mut client = Client::connect(addr).expect("connect");
        for marker in 0..5i64 {
            client.execute("BEGIN").expect("begin");
            client
                .execute(&format!("INSERT INTO markers VALUES (0, {marker}, 0)"))
                .expect("insert 0");
            client
                .execute(&format!("INSERT INTO markers VALUES (0, {marker}, 1)"))
                .expect("insert 1");
            if let Ok(WireResult::TransactionCommitted) = client.execute("COMMIT") {
                acked.push(marker);
            }
        }
        // Leave a transaction OPEN mid-flight when the server dies: its
        // effects must not survive.
        client.execute("BEGIN").expect("begin open");
        client
            .execute("INSERT INTO markers VALUES (0, 999, 0)")
            .expect("uncommitted insert");
        server.shutdown();
        acked
        // engine dropped here; the open transaction was aborted by the
        // server's teardown, the acked commits were WAL-fsynced at their
        // COMMIT.
    };

    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(dir.clone()),
        ..RecDbConfig::default()
    })
    .expect("reopen");
    let rows = db
        .query("SELECT marker, part FROM markers")
        .expect("read back");
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for row in rows.rows() {
        if let recdb::storage::Value::Int(m) = row.values()[0] {
            *counts.entry(m).or_insert(0) += 1;
        }
    }
    assert_eq!(counts.get(&999), None, "uncommitted txn leaked to disk");
    for m in &acked {
        assert_eq!(
            counts.get(m),
            Some(&2),
            "acked marker {m} lost or torn after recovery"
        );
    }
    for (m, n) in &counts {
        assert!(
            acked.contains(m) && *n == 2,
            "marker {m} on disk was never acknowledged (or torn: {n} rows)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Graceful shutdown semantics
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_drains_in_flight_statements() {
    let (db, server) = marker_server(ServerConfig::default());
    let addr = server.addr();

    // A client mid-burst: statements must keep succeeding until the
    // drain, and the one in flight at shutdown must complete.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_with(
            addr,
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let mut completed = 0u64;
        loop {
            match client.execute(&format!("INSERT INTO markers VALUES (1, {completed}, 0)")) {
                Ok(_) => completed += 1,
                Err(_) => return completed,
            }
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    let report = server.shutdown();
    let completed = worker.join().expect("worker");
    assert!(
        report.drained_within_deadline,
        "in-flight statements should drain inside the deadline: {report:?}"
    );
    assert_eq!(report.leaked_connections, 0);
    assert_eq!(
        db.lock_table().held_count(),
        0,
        "locks leaked past shutdown"
    );
    // Every acknowledged insert is visible; the drain lost nothing.
    assert_eq!(
        db.query("SELECT marker FROM markers").expect("read").len() as u64,
        completed
    );

    // New connections are refused after shutdown.
    assert!(Client::connect_with(
        addr,
        ClientConfig {
            max_retries: 0,
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        }
    )
    .is_err());
}
