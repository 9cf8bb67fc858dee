//! The per-session statement cache against the literal path. A `SELECT`
//! or `INSERT` a session has run before is neither parsed nor planned
//! again: its cached plan runs with the new literals as parameters. Every
//! answer it gives — on the miss that cached the statement and on the hit
//! that reused it — must be what parsing, planning and running the text
//! from scratch gives, row for row and score bit for score bit, through
//! the same physical operators; and a table dropped and re-created under
//! a cached plan must be planned again.

use proptest::prelude::*;
use recdb::core::{QueryGuard, QueryResult, RecDb, Session};
use recdb::exec::{
    build_logical, execute_plan, execute_plan_profiled, optimize, ExecContext, ResultSet,
};
use recdb::obs::ManualClock;
use recdb::sql::{normalize, parameterize, parse, Statement};
use recdb::storage::{Tuple, Value};
use std::sync::{Arc, OnceLock};

/// The synthetic MovieLens world (133 users, 238 movies in 18 genres,
/// 2,000 ratings) with two recommenders: ItemCosCF materialized for every
/// user, so its users are served by `IndexRecommend`, and UserCosCF
/// online. `sink` takes the generated INSERTs.
fn world() -> RecDb {
    let mut db = RecDb::new();
    recdb::datasets::generate(&recdb::datasets::SyntheticSpec::movielens().scaled(0.02))
        .load_into(&mut db)
        .expect("load the world");
    for algo in ["ItemCosCF", "UserCosCF"] {
        db.execute(&format!(
            "CREATE RECOMMENDER {algo}Rec ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING {algo}"
        ))
        .expect("create recommender");
    }
    db.materialize("ItemCosCFRec").expect("materialize");
    db.execute("CREATE TABLE sink (a INT, b FLOAT, c TEXT)")
        .expect("create sink");
    db
}

/// A value compared bit for bit: a float by its bits, anything else by
/// its debug form.
fn bits(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Column names, then rows of [`bits`].
type Table = (Vec<String>, Vec<Vec<String>>);

fn table(r: &ResultSet) -> Table {
    let names = r
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let rows = r
        .rows()
        .iter()
        .map(|t| t.values().iter().map(bits).collect())
        .collect();
    (names, rows)
}

/// `sql` parsed, planned and run from scratch, with no cache anywhere:
/// the answer a cached run must give. Errors read as the engine reports
/// them.
fn literal(db: &RecDb, sql: &str) -> Result<Table, String> {
    let err = |e: recdb::exec::ExecError| recdb::core::EngineError::from(e).to_string();
    let Statement::Select(select) = parse(sql).map_err(|e| e.to_string())? else {
        panic!("not a SELECT: {sql}")
    };
    let catalog = db.catalog();
    let plan = optimize(build_logical(&select, &catalog).map_err(err)?);
    let ctx = ExecContext::new(&catalog, db, QueryGuard::unlimited());
    Ok(table(&execute_plan(&plan, &ctx).map_err(err)?))
}

/// `sql` through `session`, as a [`Table`] or the error's text.
fn cached(session: &mut Session<'_>, sql: &str) -> Result<Table, String> {
    session
        .query(sql)
        .map(|r| table(&r))
        .map_err(|e| e.to_string())
}

/// The operator labels `EXPLAIN ANALYZE` prints for `sql` (actuals cut),
/// planned from its literals, or — `slotted` — from its template with the
/// literals as parameters, the way a session runs it.
fn labels(db: &RecDb, sql: &str, slotted: bool) -> Result<Vec<String>, String> {
    let statement = parse(sql).map_err(|e| e.to_string())?;
    let (statement, params) = if slotted {
        let n = normalize(sql).expect("normalizes");
        let statement = parameterize(&statement, &n.params).expect("cacheable");
        (statement, n.params)
    } else {
        (statement, Vec::new())
    };
    let Statement::Select(select) = statement else {
        panic!("not a SELECT: {sql}")
    };
    let catalog = db.catalog();
    let plan = optimize(build_logical(&select, &catalog).map_err(|e| e.to_string())?);
    let ctx = ExecContext::new(&catalog, db, QueryGuard::unlimited()).with_params(&params);
    let clock = Arc::new(ManualClock::new());
    let (_, profile) = execute_plan_profiled(&plan, &ctx, clock).map_err(|e| e.to_string())?;
    let mut lines = profile.render();
    lines.pop(); // the total
    Ok(lines
        .iter()
        .map(|l| l.split(" (rows=").next().unwrap_or_default().to_owned())
        .collect())
}

/// `recdb_statement_cache_total{outcome}`.
fn cache_count(db: &RecDb, outcome: &str) -> u64 {
    db.metrics_snapshot().counter(&format!(
        "recdb_statement_cache_total{{outcome=\"{outcome}\"}}"
    ))
}

/// Random draws a statement is built from.
struct Draws(Vec<u64>, usize);

impl Draws {
    /// A draw in `0..n`.
    fn pick(&mut self, n: usize) -> usize {
        self.1 += 1;
        (self.0[self.1 % self.0.len()] as usize / 7 + self.1 * 31) % n
    }

    /// One of `options`.
    fn one<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.pick(options.len())]
    }

    /// A user id, in the forms the lexer reads: mostly a rated user, also
    /// an unknown one, a negative one, a float or an exponent (which do
    /// not push down as ids).
    fn uid(&mut self) -> String {
        let u = self.pick(40) as i64 - 3;
        match self.pick(10) {
            0 => format!("{u}.0"),
            1 => "1e1".into(),
            2 => format!("-{}", u.abs()),
            3 => "999".into(),
            _ => u.to_string(),
        }
    }

    /// An item id, likewise.
    fn iid(&mut self) -> String {
        match self.pick(6) {
            0 => "-2".into(),
            1 => "7.0".into(),
            _ => (self.pick(60) + 1).to_string(),
        }
    }

    /// A rating bound or factor: integers, floats, `.5`, `4.`, exponents,
    /// negatives.
    fn number(&mut self) -> &'static str {
        self.one(&[
            "3", "2.5", ".5", "4.", "1e0", "2.5E-1", "-1", "0", "5", "3.25", "1E1",
        ])
    }

    /// A quoted text: a genre, or one that is none — with `''` escapes
    /// and multi-byte characters.
    fn text(&mut self) -> &'static str {
        self.one(&[
            "'Action'",
            "'Drama'",
            "'Sci-Fi'",
            "'Film-Noir'",
            "'Comedy'",
            "'War'",
            "''",
            "'Amélie''s'",
            "'日本'",
            "'7'",
        ])
    }

    fn limit(&mut self) -> usize {
        self.pick(14)
    }
}

const REC: &str = "FROM ratings AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING";

/// A SELECT over the paper's shapes with random literals.
fn select(d: &mut Draws) -> String {
    let algo = d.one(&["ItemCosCF", "UserCosCF"]);
    match d.pick(8) {
        // Query 1.
        0 => format!(
            "SELECT R.uid, R.iid, R.ratingval {REC} {algo} WHERE R.uid = {} \
             ORDER BY R.ratingval DESC LIMIT {}",
            d.uid(),
            d.limit()
        ),
        // Query 4.
        1 => format!(
            "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
             WHERE R.uid = {} AND M.mid = R.iid AND M.genre = {}",
            d.uid(),
            d.text()
        ),
        2 => format!(
            "SELECT R.uid, R.iid, R.ratingval {REC} {algo} \
             WHERE R.uid IN ({}, {}, {}) AND R.iid IN ({}, {}) \
             ORDER BY R.ratingval DESC LIMIT {}",
            d.uid(),
            d.uid(),
            d.uid(),
            d.iid(),
            d.iid(),
            d.limit()
        ),
        3 => format!(
            "SELECT R.iid, R.ratingval {REC} {algo} \
             WHERE R.uid = {} AND R.ratingval BETWEEN {} AND {}",
            d.uid(),
            d.number(),
            d.number()
        ),
        // Repeated uid conjuncts intersect; bounds take the tighter.
        4 => {
            let uid = d.uid();
            let again = if d.pick(2) == 0 { uid.clone() } else { d.uid() };
            format!(
                "SELECT R.iid, R.ratingval {REC} {algo} \
                 WHERE R.uid = {uid} AND R.uid = {again} AND R.ratingval >= {} \
                 AND {} >= R.ratingval AND R.ratingval >= {} \
                 ORDER BY R.ratingval DESC LIMIT {}",
                d.number(),
                d.number(),
                d.number(),
                d.limit()
            )
        }
        // Scan keys on a base table.
        5 => format!(
            "SELECT uid, iid, ratingval FROM ratings \
             WHERE uid = {} AND ratingval >= {} AND {} <> iid",
            d.uid(),
            d.number(),
            d.iid()
        ),
        // Constants in the select list and the sort key.
        6 => format!(
            "SELECT R.iid, R.ratingval * {} - {} AS s {REC} {algo} WHERE R.uid = {} \
             ORDER BY R.ratingval * {} DESC, R.iid LIMIT {}",
            d.number(),
            d.number(),
            d.uid(),
            d.number(),
            d.limit()
        ),
        _ => format!(
            "SELECT M.genre, COUNT(*) AS n FROM movies AS M \
             WHERE M.mid <= {} AND M.genre <> {} GROUP BY M.genre ORDER BY n DESC, M.genre",
            d.iid(),
            d.text()
        ),
    }
}

fn prop_world() -> &'static RecDb {
    static WORLD: OnceLock<RecDb> = OnceLock::new();
    WORLD.get_or_init(world)
}

proptest! {
    /// Each generated statement runs twice in one session: the miss that
    /// caches it, then a hit. Both answer as the literal path does, and
    /// the plan bound from parameters runs the literal plan's operators.
    #[test]
    fn cached_statements_answer_as_the_literal_path(
        draws in prop::collection::vec(any::<u64>(), 24),
        insert in 0u8..4,
    ) {
        let db = prop_world();
        let mut d = Draws(draws, 0);
        let mut session = db.session();
        if insert == 0 {
            // Twice through the session (miss, then hit), then once parsed
            // as ever by the engine-level API, which caches nothing: the
            // three runs end alike and store the same row.
            let sql = format!("INSERT INTO sink VALUES ({}, {}, {})", d.iid(), d.number(), d.text());
            let mut outcomes = Vec::new();
            for run in 0..3 {
                let result = if run < 2 { session.execute(&sql) } else { db.execute(&sql) };
                outcomes.push(result.map(|r| matches!(r, QueryResult::Inserted(1))).map_err(|e| e.to_string()));
            }
            prop_assert_eq!(&outcomes[0], &outcomes[2], "{}", sql);
            prop_assert_eq!(&outcomes[1], &outcomes[2], "{}", sql);
            if outcomes[2] == Ok(true) {
                let stored = db.query("SELECT a, b, c FROM sink").map_err(|e| e.to_string())?;
                let (_, rows) = table(&stored);
                let last = &rows[rows.len() - 3..];
                prop_assert_eq!(&last[0], &last[2], "{}", sql);
                prop_assert_eq!(&last[1], &last[2], "{}", sql);
            }
            return Ok(());
        }
        let sql = select(&mut d);
        let want = literal(db, &sql);
        for run in 0..2 {
            let hits = cache_count(db, "hit");
            prop_assert_eq!(cached(&mut session, &sql), want.clone(), "run {}: {}", run, sql);
            prop_assert_eq!(cache_count(db, "hit") - hits, run, "run {}: {}", run, sql);
        }
        prop_assert_eq!(labels(db, &sql, true), labels(db, &sql, false), "{}", sql);
    }
}

/// Query 4 for every genre and many users is one template: one miss, and
/// a hit for every other request.
#[test]
fn every_genre_and_user_of_query_4_is_one_entry() {
    let db = world();
    let genres = db
        .query("SELECT M.genre, COUNT(*) AS n FROM movies AS M GROUP BY M.genre ORDER BY M.genre")
        .expect("genres");
    let genres: Vec<String> = genres
        .rows()
        .iter()
        .map(|t| t.get(0).and_then(Value::as_text).expect("text").to_owned())
        .collect();
    assert_eq!(genres.len(), 18);
    let counts = |db: &RecDb| ["hit", "miss", "uncacheable"].map(|o| cache_count(db, o));
    let before = counts(&db);
    let mut session = db.session();
    let mut requests = 0;
    for genre in &genres {
        for uid in 1..=25 {
            let sql = format!(
                "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = {uid} AND M.mid = R.iid AND M.genre = '{genre}'"
            );
            assert_eq!(cached(&mut session, &sql), literal(&db, &sql), "{sql}");
            requests += 1;
        }
    }
    let after = counts(&db);
    assert_eq!(
        [0, 1, 2].map(|i| after[i] - before[i]),
        [requests - 1, 1, 0],
        "hit, miss, uncacheable"
    );
}

/// Run `sql` in `session` and check it against the literal path.
fn check(db: &RecDb, session: &mut Session<'_>, sql: &str) -> Result<Table, String> {
    let got = cached(session, sql);
    assert_eq!(got, literal(db, sql), "{sql}");
    got
}

/// One table, `t (a INT, b TEXT)`, with three rows.
fn t_world() -> RecDb {
    let db = RecDb::new();
    db.execute_script(
        "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x'), (2, 'y'), (1, 'z')",
    )
    .expect("t");
    db
}

const T_QUERY: &str = "SELECT a, b FROM t WHERE a = 1";

/// Another session drops `t` and creates it again with its columns the
/// other way round: the cached plan read column 0 as `a`, so the template
/// must be planned again.
#[test]
fn a_table_recreated_in_another_order_is_planned_again() {
    let db = t_world();
    let mut reader = db.session();
    let first = check(&db, &mut reader, T_QUERY).expect("rows");
    assert_eq!(first.1.len(), 2);
    let mut writer = db.session();
    for sql in [
        "DROP TABLE t",
        "CREATE TABLE t (b TEXT, a INT)",
        "INSERT INTO t VALUES ('w', 1), ('v', 3)",
    ] {
        writer.execute(sql).expect(sql);
    }
    let again = check(&db, &mut reader, "SELECT a, b FROM t WHERE a = 1").expect("rows");
    assert_eq!(again.1, [["Int(1)", "Text(\"w\")"]]);
}

/// A `CREATE TABLE` that is rolled back leaves nothing a cached template
/// could plan against, and a drop-and-recreate rolled back restores the
/// table the first plan was built for.
#[test]
fn rolled_back_ddl_leaves_the_cached_answers_as_they_were() {
    let db = t_world();
    let mut reader = db.session();
    let mut writer = db.session();
    let missing = "SELECT a FROM u WHERE a = 5";
    let err = check(&db, &mut reader, missing).expect_err("no table u");
    writer
        .execute_script("BEGIN; CREATE TABLE u (a INT); INSERT INTO u VALUES (5); ROLLBACK")
        .expect("rolled back");
    assert_eq!(check(&db, &mut reader, missing), Err(err));
    writer
        .execute_script("CREATE TABLE u (b TEXT, a INT); INSERT INTO u VALUES ('q', 5)")
        .expect("u");
    assert_eq!(
        check(&db, &mut reader, missing).expect("rows").1,
        [["Int(5)"]]
    );

    let before = check(&db, &mut reader, T_QUERY).expect("rows");
    writer
        .execute_script(
            "BEGIN; DROP TABLE t; CREATE TABLE t (b TEXT, a INT); \
             INSERT INTO t VALUES ('w', 1); ROLLBACK",
        )
        .expect("rolled back");
    assert_eq!(check(&db, &mut reader, T_QUERY), Ok(before));
}

/// DDL inside the session's own explicit transaction: the template sees
/// the re-created table at once, and the original again after ROLLBACK.
#[test]
fn ddl_in_the_sessions_own_transaction_is_seen_at_once() {
    let db = t_world();
    let mut session = db.session();
    let before = check(&db, &mut session, T_QUERY).expect("rows");
    session.execute("BEGIN").expect("begin");
    for sql in [
        "DROP TABLE t",
        "CREATE TABLE t (b TEXT, a INT)",
        "INSERT INTO t VALUES ('w', 1)",
    ] {
        session.execute(sql).expect(sql);
    }
    let inside = cached(&mut session, T_QUERY).expect("rows");
    assert_eq!(inside.1, [["Int(1)", "Text(\"w\")"]]);
    session.execute("ROLLBACK").expect("rollback");
    assert_eq!(check(&db, &mut session, T_QUERY), Ok(before));
}

/// A string literal is the text it spells whichever path reads it: the
/// parser, the session's normalizer, or a tuple handed to the engine. A
/// byte-at-a-time lexer once read `é` as `Ã©`.
#[test]
fn multibyte_text_is_the_same_value_from_sql_and_from_the_api() {
    let db = RecDb::new();
    db.execute("CREATE TABLE people (id INT, name TEXT)")
        .expect("create");
    db.insert_tuples(
        "people",
        vec![Tuple::new(vec![
            Value::Int(1),
            Value::Text("Amélie".into()),
        ])],
    )
    .expect("api insert");
    db.execute("INSERT INTO people VALUES (2, 'Amélie')")
        .expect("parsed insert");
    let mut session = db.session();
    session
        .execute("INSERT INTO people VALUES (3, 'Amélie')")
        .expect("cached insert");
    let names = db.query("SELECT name FROM people").expect("names");
    assert!(names
        .rows()
        .iter()
        .all(|t| t.get(0) == Some(&Value::Text("Amélie".into()))));
    for _ in 0..2 {
        let matched = session
            .query("SELECT id FROM people WHERE name = 'Amélie'")
            .expect("matched");
        assert_eq!(matched.len(), 3);
    }
    assert_eq!(
        db.query("SELECT id FROM people WHERE name = 'Amélie'")
            .expect("parsed")
            .len(),
        3
    );
}
