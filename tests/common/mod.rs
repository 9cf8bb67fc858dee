//! The harness the root tests share to hold a system to what it
//! acknowledged: temp dirs, the `RECDB_FAULT_SEED` read, the 6×8 seed
//! ratings, the marker transaction over a [`Session`] or a wire
//! [`Client`], and the one oracle.
//!
//! The oracle: a [`History`] records each statement group the system
//! was sent and what became of it ([`Outcome`]). [`History::replay`]
//! runs the acknowledged groups serially in a fresh in-memory engine, and
//! [`History::assert_matches`] requires the system's [`state`] — every
//! table's rows, every index and its key columns, every recommender
//! definition — to equal the replay's. Nothing acknowledged may be lost
//! and nothing else may appear. A [`Outcome::Maybe`] group (COMMIT sent,
//! no reply) is replayed only if the system holds its rows, and then it
//! must hold all of them.

// Each test binary that declares `mod common` uses a different part of
// the module; the rest would be dead code in that binary.
#![allow(dead_code)]

use recdb::core::{RecDb, RecDbConfig, Session};
use recdb::server::{Client, ClientError};
use recdb::storage::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Temp dirs and the fault seed
// ---------------------------------------------------------------------

/// A fresh, empty directory for one test run. Removed on drop, unless the
/// thread is panicking: a failed test leaves its files for post-mortem.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A directory under the system temp dir named for the test binary, the
/// process, `tag` and a counter, so parallel tests never share one.
pub fn temp_dir(tag: &str) -> TempDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "recdb-{}-{}-{tag}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// The seed of the fault and commit schedules: `RECDB_FAULT_SEED`
/// (CI sweeps {1, 7, 42}), 42 when unset.
pub fn fault_seed() -> u64 {
    std::env::var("RECDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

// ---------------------------------------------------------------------
// Seed ratings
// ---------------------------------------------------------------------

/// The seed ratings as two statements: 6 users × 8 items, one gap per
/// user so every user has something left to recommend.
pub fn seed_ratings_sql() -> [String; 2] {
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
    [
        "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)".to_owned(),
        format!("INSERT INTO ratings VALUES {}", rows.join(", ")),
    ]
}

/// Create and fill the seed ratings table in `db`.
pub fn seed_ratings(db: &RecDb) {
    for sql in seed_ratings_sql() {
        db.execute(&sql).expect("seed ratings");
    }
}

// ---------------------------------------------------------------------
// The marker transaction
// ---------------------------------------------------------------------

/// The table wire markers go to.
pub const MARKERS_TABLE: &str = "CREATE TABLE markers (writer INT, marker INT, part INT)";

/// One marker transaction: single-row INSERTs that share a key, so a
/// torn transaction shows as a partial count under `probe`.
#[derive(Debug, Clone)]
pub struct Marker {
    /// The INSERTs, in order, one per part.
    pub inserts: Vec<String>,
    /// A SELECT returning exactly this transaction's rows.
    pub probe: String,
}

impl Marker {
    /// `parts` rows `(writer, marker, part)` in [`MARKERS_TABLE`].
    pub fn wire(writer: i64, marker: i64, parts: i64) -> Self {
        Marker {
            inserts: (0..parts)
                .map(|p| format!("INSERT INTO markers VALUES ({writer}, {marker}, {p})"))
                .collect(),
            probe: format!(
                "SELECT part FROM markers WHERE writer = {writer} AND marker = {marker}"
            ),
        }
    }

    /// Three ratings of items 1–3 by the synthetic user
    /// `1000 + 1000 · writer + txn`, in the seed ratings table.
    pub fn ratings(writer: usize, txn: usize) -> Self {
        let uid = 1_000 + writer as i64 * 1_000 + txn as i64;
        Marker {
            inserts: (0..3usize)
                .map(|k| {
                    let rating = 1.0 + ((writer * 7 + txn * 3 + k) % 9) as f64 / 2.0;
                    format!("INSERT INTO ratings VALUES ({uid}, {}, {rating:.1})", k + 1)
                })
                .collect(),
            probe: format!("SELECT iid FROM ratings WHERE uid = {uid}"),
        }
    }

    /// How many of this transaction's rows `db` holds.
    pub fn rows_in(&self, db: &RecDb) -> usize {
        db.query(&self.probe).expect("marker probe").len()
    }
}

/// What a connection answered to one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ok,
    Err,
    /// The request was sent and no reply came back: it may have run.
    Lost,
}

/// A connection a marker transaction runs over: an in-process
/// [`Session`] or a wire [`Client`].
pub trait Conn {
    fn send(&mut self, sql: &str) -> Reply;
    fn in_transaction(&self) -> bool;
}

impl Conn for Session<'_> {
    fn send(&mut self, sql: &str) -> Reply {
        match self.execute(sql) {
            Ok(_) => Reply::Ok,
            Err(_) => Reply::Err,
        }
    }

    fn in_transaction(&self) -> bool {
        Session::in_transaction(self)
    }
}

impl Conn for Client {
    fn send(&mut self, sql: &str) -> Reply {
        fn lost(e: &ClientError) -> bool {
            match e {
                ClientError::ConnectionLost { sent: true, .. } => true,
                ClientError::RetriesExhausted { last, .. } => lost(last),
                _ => false,
            }
        }
        match self.execute(sql) {
            Ok(_) => Reply::Ok,
            Err(e) if lost(&e) => Reply::Lost,
            Err(_) => Reply::Err,
        }
    }

    fn in_transaction(&self) -> bool {
        Client::in_transaction(self)
    }
}

/// How a marker transaction is to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Commit,
    Rollback,
    /// Stop after this many inserts and leave the transaction open; the
    /// caller then drops the connection or stops the server.
    Open(usize),
}

/// What became of a statement group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed, and the system said so.
    Acked,
    /// COMMIT was sent and no reply came back: committed or not.
    Maybe,
    /// Rolled back as planned: every INSERT and the ROLLBACK replied Ok.
    RolledBack,
    /// Not committed: a statement failed.
    Failed,
    /// Left open with the transaction unfinished.
    Abandoned,
}

/// Run `marker` as one transaction over `conn`, retrying a failed attempt
/// whole, from BEGIN, up to `attempts` times (after a ROLLBACK if the
/// failure left the transaction open). A maybe or abandoned attempt is
/// never retried: a retry could apply the marker twice.
pub fn run_marker(conn: &mut impl Conn, marker: &Marker, end: End, attempts: usize) -> Outcome {
    for _ in 0..attempts {
        match marker_attempt(conn, marker, end) {
            Outcome::Failed => {
                if conn.in_transaction() {
                    conn.send("ROLLBACK");
                }
            }
            done => return done,
        }
    }
    Outcome::Failed
}

fn marker_attempt(conn: &mut impl Conn, marker: &Marker, end: End) -> Outcome {
    if conn.send("BEGIN") != Reply::Ok {
        return Outcome::Failed;
    }
    for (part, sql) in marker.inserts.iter().enumerate() {
        if end == End::Open(part) {
            return Outcome::Abandoned;
        }
        if conn.send(sql) != Reply::Ok {
            return Outcome::Failed;
        }
    }
    if end == End::Rollback {
        return match conn.send("ROLLBACK") {
            Reply::Ok => Outcome::RolledBack,
            _ => Outcome::Failed,
        };
    }
    match conn.send("COMMIT") {
        Reply::Ok => Outcome::Acked,
        Reply::Lost => Outcome::Maybe,
        Reply::Err => Outcome::Failed,
    }
}

// ---------------------------------------------------------------------
// The history and its replay
// ---------------------------------------------------------------------

/// One group of statements that commit together.
#[derive(Debug, Clone)]
struct Group {
    outcome: Outcome,
    statements: Vec<String>,
    /// For a marker transaction, the probe that finds its rows.
    probe: Option<String>,
}

/// Every statement group a system was sent, with what became of it.
#[derive(Debug, Clone, Default)]
pub struct History {
    groups: Vec<Group>,
}

impl History {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one autocommit statement.
    pub fn record(&mut self, outcome: Outcome, sql: &str) {
        self.groups.push(Group {
            outcome,
            statements: vec![sql.to_owned()],
            probe: None,
        });
    }

    /// Run `sql` autocommit on `db` and record it; true if acknowledged.
    pub fn exec(&mut self, db: &RecDb, sql: &str) -> bool {
        let ok = db.execute(sql).is_ok();
        self.record(if ok { Outcome::Acked } else { Outcome::Failed }, sql);
        ok
    }

    /// Run `sql` autocommit on `db`, which must acknowledge it.
    pub fn must(&mut self, db: &RecDb, sql: &str) {
        db.execute(sql)
            .unwrap_or_else(|e| panic!("`{sql}` failed: {e}"));
        self.record(Outcome::Acked, sql);
    }

    /// Record a marker transaction.
    pub fn marker(&mut self, marker: &Marker, outcome: Outcome) {
        self.groups.push(Group {
            outcome,
            statements: marker.inserts.clone(),
            probe: Some(marker.probe.clone()),
        });
    }

    /// Append another history. The groups of concurrent writers replay
    /// in this order, not in commit order, so they must commute.
    pub fn extend(&mut self, other: History) {
        self.groups.extend(other.groups);
    }

    /// A fresh in-memory engine after a serial replay of the acknowledged
    /// groups, plus each maybe group whose rows `system` holds (all of
    /// them, or the transaction was torn).
    pub fn replay(&self, system: &RecDb) -> RecDb {
        let shadow = RecDb::with_config(RecDbConfig {
            maintenance_threshold_pct: f64::INFINITY,
            ..RecDbConfig::default()
        });
        for group in &self.groups {
            let apply = match (group.outcome, &group.probe) {
                (Outcome::Acked, _) => true,
                (Outcome::Maybe, Some(probe)) => {
                    let held = system.query(probe).expect("maybe probe").len();
                    assert!(
                        held == 0 || held == group.statements.len(),
                        "torn transaction: {held} of {} rows of {:?}",
                        group.statements.len(),
                        group.statements
                    );
                    held > 0
                }
                _ => false,
            };
            if !apply {
                continue;
            }
            for sql in &group.statements {
                shadow
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("replay rejected `{sql}`: {e}"));
            }
        }
        shadow
    }

    /// `system`'s state must equal the replay's.
    pub fn assert_matches(&self, system: &RecDb, context: &str) {
        let (live, replayed) = (state(system), state(&self.replay(system)));
        let only = |a: &State, b: &State| -> Vec<Fact> {
            let missing = a.0.iter().filter(|f| b.0.binary_search(f).is_err());
            missing.take(5).cloned().collect()
        };
        assert!(
            live == replayed,
            "{context}: the system diverges from the replay of its acknowledged statements: \
             {} vs {} facts; only in the system {:?}; only in the replay {:?}",
            live.0.len(),
            replayed.0.len(),
            only(&live, &replayed),
            only(&replayed, &live)
        );
    }
}

// ---------------------------------------------------------------------
// State
// ---------------------------------------------------------------------

/// One stored value; floats by their bits, so `-0.0 ≠ 0.0` and a changed
/// lowest bit shows.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Null,
    Int(i64),
    Float(u64),
    Text(String),
    Bool(bool),
    Point(u64, u64),
    Rect([u64; 4]),
}

impl From<&Value> for Cell {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(f.to_bits()),
            Value::Text(s) => Cell::Text(s.clone()),
            Value::Bool(b) => Cell::Bool(*b),
            Value::Point(x, y) => Cell::Point(x.to_bits(), y.to_bits()),
            Value::Rect(a, b, c, d) => Cell::Rect([a, b, c, d].map(|f| f.to_bits())),
        }
    }
}

/// One fact an engine stores.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    /// Table, column position, `name type`.
    Column(String, usize, String),
    /// Table, index name, key column positions.
    Index(String, String, Vec<usize>),
    /// Table, one row.
    Row(String, Vec<Cell>),
    /// A recommender definition.
    Recommender(String),
}

/// What an engine stores, as a sorted multiset of facts.
#[derive(Debug, PartialEq, Eq)]
pub struct State(Vec<Fact>);

/// Every table's columns, indexes with their key columns and rows, and
/// every recommender definition of `db`.
pub fn state(db: &RecDb) -> State {
    let mut facts = Vec::new();
    for t in db.catalog().tables() {
        let table = || t.name().to_owned();
        for (i, c) in t.schema().columns().iter().enumerate() {
            let column = format!("{} {:?}", c.name, c.data_type);
            facts.push(Fact::Column(table(), i, column));
        }
        for index in t.indexes() {
            let columns = index.key_columns().to_vec();
            facts.push(Fact::Index(table(), index.name().to_owned(), columns));
        }
        for (_, row) in t.heap().scan() {
            facts.push(Fact::Row(
                table(),
                row.values().iter().map(Cell::from).collect(),
            ));
        }
    }
    for name in db.recommender_names() {
        if let Some(rec) = db.recommender(&name) {
            facts.push(Fact::Recommender(format!("{:?}", rec.def())));
        }
    }
    facts.sort_unstable();
    State(facts)
}
