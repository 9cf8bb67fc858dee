//! Wire-level acceptance + chaos tests for the serving layer: typed
//! results over TCP, transactions per connection, admission control,
//! timeouts, killed connections mid-transaction, the seeded fault sweep
//! over the `server::*` sites, crash-during-serve recovery, and the soak
//! (re-armed faults, abandoned connections, recovery). The last three
//! are held to the serial replay of their acknowledged commits
//! (`common::History`).
//!
//! Every test holds [`recdb::fault::exclusive`] for its whole body: the
//! fault registry is process-global and the harness runs tests in
//! parallel, so a site the fault sweep arms would otherwise fire in
//! whichever test reaches it next. The tests run one at a time.

mod common;

use common::{fault_seed, run_marker, temp_dir, End, History, Marker, Outcome, MARKERS_TABLE};
use recdb::core::{RecDb, RecDbConfig};
use recdb::fault;
use recdb::server::{
    Client, ClientConfig, ClientError, ErrorCode, Request, Response, Server, ServerConfig,
    WireResult,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Start a server over a fresh in-memory engine with a markers table.
fn marker_server(cfg: ServerConfig) -> (Arc<RecDb>, Server) {
    let db = Arc::new(RecDb::new());
    db.execute(MARKERS_TABLE).expect("create markers");
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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
    let _gate = fault::exclusive();
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

/// `request` as one frame: the 4-byte length, then the payload.
fn request_frame(request: &Request) -> Vec<u8> {
    let payload = request.encode();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// `SELECT COUNT(*) FROM markers` as one frame.
fn count_frame() -> Vec<u8> {
    request_frame(&Request::Statement {
        deadline: None,
        sql: "SELECT COUNT(*) FROM markers".into(),
    })
}

/// The next reply on a raw socket, decoded.
fn raw_reply(raw: &mut TcpStream) -> Response {
    let frame = read_raw_frame(raw).expect("reply frame");
    Response::decode(&frame).expect("reply decodes")
}

fn is_count(reply: &Response) -> bool {
    matches!(reply, Response::Result(WireResult::Rows { rows, .. }) if rows.len() == 1)
}

/// A request whose bytes arrive one per segment, the header included, is
/// read whole and answered; so is the next one on the same connection.
#[test]
fn a_frame_sent_one_byte_at_a_time_is_answered() {
    let _gate = fault::exclusive();
    let (_db, server) = marker_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
    raw.set_nodelay(true).expect("nodelay");
    let _hello = read_raw_frame(&mut raw).expect("hello frame");
    for _ in 0..2 {
        for byte in count_frame() {
            raw.write_all(&[byte]).expect("one byte");
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = raw_reply(&mut raw);
        assert!(is_count(&reply), "{reply:?}");
    }
    server.shutdown();
}

/// Two requests in one write get two replies, in order; a request whose
/// head came with the one before is read to its end.
#[test]
fn two_frames_in_one_write_get_two_replies_in_order() {
    let _gate = fault::exclusive();
    let (_db, server) = marker_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
    raw.set_nodelay(true).expect("nodelay");
    let _hello = read_raw_frame(&mut raw).expect("hello frame");

    let mut both = request_frame(&Request::Ping);
    both.extend(count_frame());
    raw.write_all(&both).expect("two frames");
    assert_eq!(raw_reply(&mut raw), Response::Pong);
    let reply = raw_reply(&mut raw);
    assert!(is_count(&reply), "{reply:?}");

    let mut split = count_frame();
    let tail = split.split_off(split.len() - 3);
    let mut head = request_frame(&Request::Ping);
    head.extend(split);
    raw.write_all(&head)
        .expect("a frame and the head of the next");
    assert_eq!(raw_reply(&mut raw), Response::Pong);
    std::thread::sleep(Duration::from_millis(20));
    raw.write_all(&tail).expect("the tail");
    let reply = raw_reply(&mut raw);
    assert!(is_count(&reply), "{reply:?}");
    server.shutdown();
}

/// A result larger than `max_frame_bytes` is answered with a fatal
/// `frame_too_large` error instead of a dropped connection: the session
/// and its open transaction carry on, and the transaction commits.
#[test]
fn oversized_result_is_refused_and_the_transaction_carries_on() {
    let _gate = fault::exclusive();
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
// Seeded fault sweep over the server sites, against the replay
// ---------------------------------------------------------------------

const SERVER_SITES: [&str; 3] = [
    "server::accept",
    "server::frame_read",
    "server::frame_write",
];

/// For every server fail point and every scheduled hit position, run a
/// transactional wire workload with the site armed, then prove: no lock
/// leaks, and the surviving data equals the replay of exactly the
/// acknowledged commits (an ambiguous commit is whole or absent).
#[test]
fn seeded_server_fault_sweep_matches_shadow_replay() {
    let _gate = fault::exclusive();
    let seed = fault_seed();
    for site in SERVER_SITES {
        for round in 0..4u64 {
            fault::clear();
            let (db, server) = marker_server(ServerConfig {
                idle_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            });
            let mut history = History::new();
            history.record(Outcome::Acked, MARKERS_TABLE);
            let nth = fault::schedule_nth(seed.wrapping_add(round), site, 4);
            fault::arm_error(site, nth);

            let mut client = Client::connect_with(
                server.addr(),
                ClientConfig {
                    max_retries: 6,
                    backoff_base: Duration::from_millis(1),
                    ..ClientConfig::default()
                },
            )
            .expect("sweep connect");
            for marker in 0..6i64 {
                let marker = Marker::wire(0, marker, 2);
                history.marker(&marker, run_marker(&mut client, &marker, End::Commit, 3));
            }
            drop(client);
            fault::clear();
            let report = server.shutdown();
            let context = format!("seed {seed} site {site} round {round}");
            assert_eq!(
                report.leaked_connections, 0,
                "{context}: leaked connections"
            );
            assert_eq!(db.lock_table().held_count(), 0, "{context}: leaked locks");
            history.assert_matches(&db, &context);
        }
    }
    fault::clear();
}

// ---------------------------------------------------------------------
// Crash-during-serve recovery and the soak
// ---------------------------------------------------------------------

/// Commits acknowledged over the wire must survive a crash: force-stop
/// the server with a connection open mid-transaction, reopen the data
/// directory, and find exactly the acknowledged markers.
#[test]
fn crash_during_serve_preserves_exactly_acked_commits() {
    let _gate = fault::exclusive();
    let dir = temp_dir("crash");
    let config = || RecDbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..RecDbConfig::default()
    };
    let mut history = History::new();
    {
        let db = Arc::new(RecDb::open_with_config(config()).expect("open durable"));
        history.must(&db, MARKERS_TABLE);
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
        let mut client = Client::connect(server.addr()).expect("connect");
        for marker in 0..5i64 {
            let marker = Marker::wire(0, marker, 2);
            let outcome = run_marker(&mut client, &marker, End::Commit, 1);
            assert_eq!(outcome, Outcome::Acked, "{marker:?}");
            history.marker(&marker, outcome);
        }
        // Leave a transaction OPEN mid-flight when the server dies: its
        // effects must not survive.
        let open = Marker::wire(0, 999, 2);
        history.marker(&open, run_marker(&mut client, &open, End::Open(1), 1));
        server.shutdown();
        // The engine is dropped here: the server's teardown aborted the
        // open transaction, and the acked commits were WAL-fsynced at
        // their COMMIT.
    }
    let db = RecDb::open_with_config(config()).expect("reopen");
    history.assert_matches(&db, "crash during serve");
}

/// The wire soak: two writers each run 40 three-part marker transactions
/// over real sockets while the `server::*` sites fire and re-arm from the
/// seed, every 5th transaction is abandoned with its connection after one
/// insert, and a reader runs throughout. Then no connection may leak, no
/// lock may be held, and the reopened data directory must hold exactly
/// the acknowledged markers, none torn. CI runs it in release at
/// `RECDB_FAULT_SEED` ∈ {1, 7, 42}.
#[test]
fn soak_under_rearmed_server_faults_keeps_exactly_the_acked_commits() {
    let _gate = fault::exclusive();
    let seed = fault_seed();
    let dir = temp_dir("soak");
    let config = || RecDbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..RecDbConfig::default()
    };
    let mut history = History::new();
    {
        let db = Arc::new(RecDb::open_with_config(config()).expect("open engine"));
        history.must(&db, MARKERS_TABLE);
        db.checkpoint().expect("initial checkpoint");
        let server = Server::start(
            Arc::clone(&db),
            ServerConfig {
                idle_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .expect("bind server");
        let addr = server.addr();

        // One seeded fault per server site up front; the writers re-arm
        // each site after it fires (see `soak_writer`).
        fault::clear();
        for site in SERVER_SITES {
            fault::arm_error(site, fault::schedule_nth(seed, site, 6));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2i64)
                .map(|w| scope.spawn(move || soak_writer(addr, seed, w, 40)))
                .collect();
            let stop = &stop;
            scope.spawn(move || {
                if let Ok(mut client) = Client::connect(addr) {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = client.query("SELECT COUNT(*) FROM markers");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            });
            for h in writers {
                history.extend(h.join().expect("soak writer"));
            }
            stop.store(true, Ordering::Relaxed);
        });
        fault::clear();

        let report = server.shutdown();
        assert_eq!(report.leaked_connections, 0, "seed {seed}: {report:?}");
        let held = db.lock_table().held_count();
        assert_eq!(held, 0, "seed {seed}: locks held after shutdown");
        // The engine is dropped here with no close beyond the shutdown
        // checkpoint.
    }
    let db = RecDb::open_with_config(config()).expect("reopen engine");
    history.assert_matches(&db, &format!("soak seed {seed}"));
}

/// One soak writer: marker transactions `w · 10⁶ + m`, each retried whole
/// up to 4 times. After each, a site whose fault has fired is re-armed at
/// a fresh position derived from (seed, marker), so faults keep landing
/// at varied but reproducible hits throughout the run.
fn soak_writer(addr: SocketAddr, seed: u64, w: i64, txns: i64) -> History {
    let config = ClientConfig {
        max_retries: 8,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).expect("writer connect");
    let mut history = History::new();
    let mut seen = [0u64; SERVER_SITES.len()];
    for m in 0..txns {
        let id = w * 1_000_000 + m;
        let marker = Marker::wire(w, id, 3);
        // Every 5th transaction is abandoned mid-flight: the connection
        // drops after BEGIN + one insert, and the server's session abort
        // must reclaim its locks.
        let end = if m % 5 == 4 {
            End::Open(1)
        } else {
            End::Commit
        };
        let outcome = run_marker(&mut client, &marker, end, 4);
        if outcome == Outcome::Abandoned {
            client.drop_connection();
        }
        history.marker(&marker, outcome);
        for (seen, site) in seen.iter_mut().zip(SERVER_SITES) {
            let fired = fault::triggered(site);
            if fired > *seen {
                *seen = fired;
                let nth = fault::schedule_nth(seed ^ (id as u64).wrapping_mul(0x9E37), site, 8);
                fault::arm_error(site, nth);
            }
        }
    }
    history
}

// ---------------------------------------------------------------------
// Graceful shutdown semantics
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_drains_in_flight_statements() {
    let _gate = fault::exclusive();
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
