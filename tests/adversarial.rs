//! Adversarial-input properties: arbitrary hostile SQL must surface as
//! `Err(_)` (or valid rows) through the public [`RecDb`] API — never a
//! panic, hang, or corrupted engine. Statement execution is wrapped in
//! `catch_unwind` at the engine boundary, and the parser bounds
//! expression nesting, so even token soup and 5000-deep expressions are
//! ordinary errors.

use proptest::prelude::*;
use recdb::core::{EngineError, QueryResult, RecDb};

/// Tokens that commonly appear in (and confuse) SQL front ends: valid
/// keywords, operators, literals, and some outright garbage.
const TOKENS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "INSERT",
    "INTO",
    "VALUES",
    "CREATE",
    "TABLE",
    "RECOMMENDER",
    "RECOMMEND",
    "TO",
    "ON",
    "USING",
    "ORDER",
    "BY",
    "LIMIT",
    "AND",
    "OR",
    "NOT",
    "NULL",
    "JOIN",
    "AS",
    "DROP",
    "UPDATE",
    "SET",
    "DELETE",
    "GROUP",
    "(",
    ")",
    ",",
    ";",
    "*",
    "=",
    "<>",
    "<",
    ">",
    "+",
    "-",
    "/",
    ".",
    "ratings",
    "uid",
    "iid",
    "ratingval",
    "R",
    "ItemCosCF",
    "SVD",
    "1",
    "42",
    "-1",
    "3.5",
    "0.0",
    "'text'",
    "''",
    "@#$%",
    "\\",
    "`",
    "9999999999999999999999",
    // Digits the statement cache's normalizer must not take for literals:
    // in a comment, an identifier, and an escaped string.
    "-- 12 'x\n",
    "col1",
    "'it''s 7'",
];

fn db_with_table() -> RecDb {
    let db = RecDb::new();
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create table");
    db.execute("INSERT INTO ratings VALUES (1, 1, 5.0), (1, 2, 3.0), (2, 1, 4.0), (2, 3, 2.5)")
        .expect("seed rows");
    db
}

/// What a statement must do again when a session runs it a second time,
/// the second time from its statement cache if it is cached: return the
/// same rows, fail with the same error, or make the same kind of write.
/// `None` for DDL and transaction control, whose second run meets the
/// state the first one left (a dropped table, an open transaction).
fn repeatable(outcome: &Result<QueryResult, EngineError>) -> Option<String> {
    Some(match outcome {
        Ok(QueryResult::Rows(rows)) => format!("rows {:?}", rows.rows()),
        Ok(QueryResult::Inserted(_)) => "inserted".into(),
        Ok(QueryResult::Deleted(_)) => "deleted".into(),
        Ok(QueryResult::Updated(_)) => "updated".into(),
        Ok(_) => return None,
        Err(e) => format!("error {e}"),
    })
}

/// The engine survived if it can still run a plain query afterwards.
fn assert_still_serving(db: &mut RecDb) {
    let rows = db
        .query("SELECT uid, iid, ratingval FROM ratings")
        .expect("engine must keep serving after adversarial input");
    assert!(!rows.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Token soup: random sequences of plausible SQL tokens, each run
    /// twice in one session. Ok or Err are both fine, panics are not, and
    /// the second run (a statement-cache hit, where the first one cached
    /// it) ends as the first did.
    #[test]
    fn token_soup_never_panics(idx in proptest::collection::vec(0usize..TOKENS.len(), 0..24)) {
        let sql: String = idx
            .iter()
            .map(|&i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ");
        let mut db = db_with_table();
        {
            let mut session = db.session();
            let first = session.execute(&sql);
            let second = session.execute(&sql);
            if let Some(first) = repeatable(&first) {
                prop_assert_eq!(Some(first), repeatable(&second), "{}", sql);
            }
        }
        assert_still_serving(&mut db);
    }

    /// Deeply nested expressions (parens, NOT chains, unary minus) are
    /// rejected by the parser's depth limit instead of overflowing the
    /// stack.
    #[test]
    fn deep_nesting_is_an_error_not_a_crash(depth in 200usize..3000, kind in 0u8..3) {
        let expr = match kind {
            0 => format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
            1 => format!("{}ratingval > 1", "NOT ".repeat(depth)),
            _ => format!("{}ratingval", "-".repeat(depth)),
        };
        let sql = format!("SELECT uid FROM ratings WHERE {expr}");
        let mut db = db_with_table();
        match db.query(&sql) {
            Err(EngineError::Parse(_)) => {}
            other => return Err(format!("expected Parse error, got {other:?}")),
        }
        assert_still_serving(&mut db);
    }

    /// LIMIT extremes: zero, huge, and values far beyond the row count.
    #[test]
    fn limit_extremes_are_handled(limit in prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::from(u32::MAX)),
        Just(u64::MAX),
        1u64..1000,
    ]) {
        let mut db = db_with_table();
        let result = db.query(&format!(
            "SELECT uid FROM ratings ORDER BY ratingval DESC LIMIT {limit}"
        ));
        match result {
            Ok(rows) => prop_assert!(rows.len() as u64 <= limit.min(4)),
            Err(EngineError::Parse(_)) => {} // an out-of-range literal is a parse error
            Err(other) => return Err(format!("unexpected error: {other:?}")),
        }
        assert_still_serving(&mut db);
    }

    /// Queries against empty or dropped tables return rows or a clean
    /// error; a recommender over an empty table must not divide by zero.
    #[test]
    fn empty_and_dropped_tables_do_not_panic(case in 0u8..4) {
        let db = RecDb::new();
        db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
            .expect("create table");
        match case {
            0 => {
                let rows = db.query("SELECT uid FROM ratings").expect("empty scan");
                prop_assert_eq!(rows.len(), 0);
            }
            1 => {
                // Recommender over zero ratings.
                let _ = db.execute(
                    "CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
                     RATINGS FROM ratingval USING ItemCosCF",
                );
                let _ = db.query(
                    "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
                     RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                     WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5",
                );
            }
            2 => {
                db.execute("DROP TABLE ratings").expect("drop");
                prop_assert!(db.query("SELECT uid FROM ratings").is_err());
            }
            _ => {
                db.execute("DROP TABLE ratings").expect("drop");
                prop_assert!(db
                    .execute("INSERT INTO ratings VALUES (1, 1, 1.0)")
                    .is_err());
            }
        }
        // Whatever happened, fresh DDL still works.
        db.execute("CREATE TABLE t2 (a INT)").expect("ddl after abuse");
    }

    /// Mutating statements with hostile fragments: either apply cleanly
    /// or error; row counts stay coherent.
    #[test]
    fn hostile_mutations_keep_counts_coherent(
        uid in -5i64..5,
        cmp_idx in 0usize..4,
        lim in 0usize..6,
    ) {
        let cmp = ["=", "<>", "<", ">"][cmp_idx];
        let db = db_with_table();
        let before = db.query("SELECT uid FROM ratings").expect("count").len();
        let deleted = match db.execute(&format!("DELETE FROM ratings WHERE uid {cmp} {uid}")) {
            Ok(recdb::core::QueryResult::Deleted(n)) => n,
            Ok(_) => 0,
            Err(_) => 0,
        };
        prop_assert!(deleted <= before);
        let after = db.query("SELECT uid FROM ratings").expect("count").len();
        prop_assert_eq!(after, before - deleted);
        // A LIMIT on the remaining rows never exceeds them.
        let rows = db
            .query(&format!("SELECT uid FROM ratings LIMIT {lim}"))
            .expect("limited scan");
        prop_assert!(rows.len() <= lim.min(after));
    }
}

// ---------------------------------------------------------------------
// Wire-level adversarial input: byte soup at a live server socket
// ---------------------------------------------------------------------

use recdb::server::{Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Read one length-prefixed frame off a raw socket, if the peer sends one.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes thrown at the server socket — raw, or framed with
    /// a *valid* length prefix around garbage, or framed with a hostile
    /// oversized prefix — must never panic the server or wedge it. After
    /// every abuse the server still answers a well-formed client.
    #[test]
    fn wire_byte_soup_never_kills_the_server(
        bytes in proptest::collection::vec(0u8..=255u8, 0..256),
        mode in 0u8..3,
        huge_len in 0x0100_0001u32..0xFFFF_FFFFu32,
    ) {
        let db = Arc::new(RecDb::new());
        let server = Server::start(
            Arc::clone(&db),
            ServerConfig {
                max_frame_bytes: 0x0100_0000, // 16 MiB default, explicit
                read_timeout: std::time::Duration::from_millis(500),
                idle_timeout: std::time::Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .expect("bind");

        let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
        let _hello = read_raw_frame(&mut raw);
        match mode {
            0 => {
                // Raw soup: whatever the first 4 bytes announce, the
                // peer never delivers it; the read budget must reap us.
                let _ = raw.write_all(&bytes);
            }
            1 => {
                // A perfectly framed garbage payload: the server must
                // answer malformed_frame (or a typed result, if the
                // bytes happen to decode) and never panic.
                let _ = raw.write_all(&(bytes.len() as u32).to_be_bytes());
                let _ = raw.write_all(&bytes);
                if let Some(reply) = read_raw_frame(&mut raw) {
                    prop_assert!(!reply.is_empty());
                }
            }
            _ => {
                // Hostile length prefix beyond max_frame_bytes: clean
                // frame_too_large error, close, no allocation.
                let _ = raw.write_all(&huge_len.to_be_bytes());
                if let Some(reply) = read_raw_frame(&mut raw) {
                    let text = String::from_utf8_lossy(&reply).into_owned();
                    prop_assert!(text.contains("frame_too_large"), "{}", text);
                }
            }
        }
        drop(raw);

        // The server survived: a well-formed client gets service.
        let mut probe = Client::connect(server.addr()).expect("server still accepting");
        probe.ping().expect("server still serving");
        drop(probe);
        let report = server.shutdown();
        prop_assert_eq!(report.leaked_connections, 0);
        prop_assert_eq!(db.lock_table().held_count(), 0);
    }
}
