//! Observability acceptance tests: engine-wide metrics move as a scripted
//! session runs, `EXPLAIN ANALYZE` actuals agree with real cardinalities,
//! timings are deterministic under an injected manual clock, and the
//! Prometheus rendering is well-formed.

mod common;

use common::temp_dir;
use recdb::core::{GovernorConfig, RecDb, RecDbConfig};
use recdb::obs::ManualClock;
use std::sync::Arc;

const SCHEMA: &str = "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
     INSERT INTO ratings VALUES
        (1, 1, 5.0), (1, 2, 3.0), (2, 1, 4.0), (2, 3, 5.0),
        (3, 2, 2.0), (3, 3, 4.0), (4, 1, 1.0), (4, 3, 3.5);
     CREATE RECOMMENDER obs ON ratings USERS FROM uid ITEMS FROM iid \
        RATINGS FROM ratingval USING ItemCosCF;";

const TOPK: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
     RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
     WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";

#[test]
fn counters_move_across_a_scripted_durable_session() {
    let tmp = temp_dir("session");
    let dir = tmp.path();
    {
        let db = RecDb::open(dir).expect("open durable engine");
        db.execute_script(SCHEMA).expect("schema + recommender");

        // A plain scan, so the SeqScan rows counter moves too.
        db.query("SELECT uid, iid FROM ratings")
            .expect("plain scan");
        // Before materialization the score index cannot serve the query:
        // the planner falls back to online FilterRecommend (a miss).
        db.query(TOPK).expect("online query");
        db.materialize("obs").expect("materialize");
        // Now the same query is served from the RecScoreIndex (a hit).
        db.query(TOPK).expect("indexed query");
        db.checkpoint().expect("checkpoint");

        let snap = db.metrics_snapshot();
        assert_eq!(
            snap.counter("recdb_statements_total{kind=\"create_table\"}"),
            1
        );
        assert_eq!(snap.counter("recdb_statements_total{kind=\"insert\"}"), 1);
        assert_eq!(
            snap.counter("recdb_statements_total{kind=\"create_recommender\"}"),
            1
        );
        assert_eq!(snap.counter("recdb_statements_total{kind=\"select\"}"), 3);
        assert!(snap.counter("recdb_rows_scanned_total") > 0, "{snap:?}");
        assert!(snap.counter("recdb_rows_returned_total") > 0, "{snap:?}");
        assert_eq!(snap.counter("recdb_recscoreindex_misses_total"), 1);
        assert_eq!(snap.counter("recdb_recscoreindex_hits_total"), 1);
        assert!(snap.counter("recdb_wal_appends_total") > 0, "{snap:?}");
        assert!(snap.counter("recdb_wal_appended_bytes_total") > 0);
        assert!(snap.counter("recdb_wal_fsyncs_total") > 0, "{snap:?}");
        let build = snap
            .histogram("recdb_model_build_micros{algorithm=\"ItemCosCF\"}")
            .expect("model build histogram");
        assert_eq!(build.count, 1);
        assert!(
            snap.gauge("recdb_materialized_entries{recommender=\"obs\"}") > 0,
            "{snap:?}"
        );
        // Crash here: no final checkpoint after this insert, so the next
        // open must replay it from the WAL.
        db.execute("INSERT INTO ratings VALUES (5, 1, 2.0)")
            .expect("post-checkpoint insert");
    }
    let db = RecDb::open(dir).expect("reopen");
    let snap = db.metrics_snapshot();
    assert!(
        snap.counter("recdb_recovery_replayed_records_total") > 0,
        "the uncheckpointed insert must be replayed: {snap:?}"
    );
}

/// A scan of a table larger than the pool reads it in runs of 32 pages,
/// one backing read each: through a 16-frame spilling pool, a full scan of
/// a 128-page heap none of whose pages is resident is 128 misses, no hit,
/// and 4 backing reads.
#[test]
fn a_scan_larger_than_the_pool_reads_in_runs() {
    let tmp = temp_dir("runs");
    let db = RecDb::open_with_config(RecDbConfig {
        data_dir: Some(tmp.path().to_path_buf()),
        buffer_pool_pages: 16,
        ..RecDbConfig::default()
    })
    .expect("open durable engine");
    // A batch of 100 rows adds at most one page, so each loop stops on
    // its target exactly.
    let fill = |table: &str, target: usize| {
        db.execute(&format!(
            "CREATE TABLE {table} (uid INT, iid INT, ratingval FLOAT)"
        ))
        .expect("create");
        let pages = || {
            db.catalog()
                .table(table)
                .expect("table")
                .heap()
                .page_count()
        };
        let mut n = 0;
        while pages() < target {
            let rows: Vec<String> = (n..n + 100).map(|i| format!("({i}, {i}, 1.5)")).collect();
            db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
                .expect("insert");
            n += 100;
        }
        assert_eq!(pages(), target);
    };
    fill("ratings", 128);
    // Twice the pool's worth of fresh pages pushes every ratings page out.
    fill("flood", 32);
    let before = db.metrics_snapshot();
    db.query("SELECT uid FROM ratings WHERE uid = -1")
        .expect("scan");
    let after = db.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("recdb_buffer_pool_hits_total"), 0);
    assert_eq!(delta("recdb_buffer_pool_misses_total"), 128);
    assert_eq!(delta("recdb_buffer_pool_backing_reads_total"), 4);
    assert_eq!(delta("recdb_pages_evicted_total"), 0);
}

/// An N%-rule rebuild observes each of its three stages once — scanning
/// the ratings into a matrix, training, refreshing the score index — and
/// `CREATE RECOMMENDER`, which is not a rebuild, observes none.
#[test]
fn rebuild_stages_are_timed_once_per_rebuild() {
    let db = RecDb::new();
    db.execute_script(SCHEMA).expect("schema + recommender");
    // Eight ratings trained on: each single-row insert is 12.5 % pending,
    // past the default 10 % rule.
    for user in 10..13 {
        db.execute(&format!("INSERT INTO ratings VALUES ({user}, 2, 4.0)"))
            .expect("insert");
    }
    let snap = db.metrics_snapshot();
    let builds = snap
        .histogram("recdb_model_build_micros{algorithm=\"ItemCosCF\"}")
        .expect("model build histogram");
    let rebuilds = builds.count - 1;
    assert_eq!(rebuilds, 3, "one rebuild per insert");
    for stage in ["load", "train", "refresh"] {
        let timed = snap
            .histogram(&format!(
                "recdb_model_rebuild_stage_micros{{stage=\"{stage}\"}}"
            ))
            .expect("stage histogram");
        assert_eq!(timed.count, rebuilds, "{stage}");
    }
}

#[test]
fn cache_manager_decisions_are_counted() {
    let db = RecDb::with_config(RecDbConfig {
        // Admit everything Algorithm 4 considers, so the workload below
        // is guaranteed to move the admission counter.
        hotness_threshold: 0.0,
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    });
    db.execute_script(SCHEMA).expect("schema + recommender");
    // Algorithm 4 only scores pairs *touched since the last run*: user 1
    // must issue queries and some item must absorb rating inserts. Item 3
    // is unseen by user 1, so (1, 3) is a materialization candidate.
    for round in 0..5 {
        db.query(TOPK).expect("workload query");
        db.execute(&format!(
            "INSERT INTO ratings VALUES ({}, 3, 4.0)",
            100 + round
        ))
        .expect("workload insert");
    }
    let decision = db.run_cache_manager("obs").expect("cache manager");
    let snap = db.metrics_snapshot();
    assert!(!decision.admitted.is_empty(), "{decision:?}");
    assert_eq!(
        snap.counter("recdb_cache_admitted_total"),
        decision.admitted.len() as u64
    );
    assert_eq!(
        snap.counter("recdb_cache_evicted_total"),
        decision.evicted.len() as u64
    );
    assert_eq!(
        snap.gauge("recdb_materialized_entries{recommender=\"obs\"}"),
        decision.admitted.len() as i64 - decision.evicted.len() as i64
    );
}

#[test]
fn explain_analyze_row_counts_match_actual_cardinality() {
    let db = RecDb::new();
    db.execute_script(SCHEMA).expect("schema + recommender");
    let expected = db.query(TOPK).expect("plain query").len();
    assert!(expected > 0);

    let plan = db
        .query(&format!("EXPLAIN ANALYZE {TOPK}"))
        .expect("explain analyze");
    let lines: Vec<String> = (0..plan.len())
        .map(|i| plan.value(i, "plan").expect("plan column").to_string())
        .collect();
    let root = &lines[0];
    assert!(
        root.contains(&format!("rows={expected}")),
        "root actuals {root:?} must match the plain query's {expected} rows"
    );
    assert!(
        lines.iter().any(|l| l.contains("Recommend")),
        "plan tree must show the recommendation operator: {lines:?}"
    );
    assert!(
        lines.last().expect("total line").starts_with("Total:"),
        "{lines:?}"
    );
    // Every operator line carries actuals.
    for line in &lines[..lines.len() - 1] {
        assert!(
            line.contains("rows=") && line.contains("calls=") && line.contains("time="),
            "{line:?}"
        );
    }
}

#[test]
fn manual_clock_makes_explain_analyze_deterministic() {
    let run = || -> Vec<String> {
        let db = RecDb::with_config(RecDbConfig {
            profile_clock: Some(Arc::new(ManualClock::new())),
            ..RecDbConfig::default()
        });
        db.execute_script(SCHEMA).expect("schema + recommender");
        let plan = db
            .query(&format!("EXPLAIN ANALYZE {TOPK}"))
            .expect("explain analyze");
        (0..plan.len())
            .map(|i| plan.value(i, "plan").expect("plan column").to_string())
            .collect()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "frozen clock must give byte-stable output");
    // A never-advanced clock reads zero elapsed. User 1 has one unseen
    // item; the online leaf selects the top 5 itself, so no sort node.
    assert_eq!(
        first,
        [
            "Project (rows=1 calls=2 time=0.000ms)",
            "  FilterRecommend ItemCosCF top-k=5 (rows=1 calls=2 time=0.000ms) buffered=29B",
            "Total: 0.000ms",
        ]
    );
}

#[test]
fn governor_cancellations_are_counted_by_cause() {
    let db = RecDb::with_config(RecDbConfig {
        governor: GovernorConfig {
            row_budget: Some(3),
            ..GovernorConfig::default()
        },
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    });
    db.execute("CREATE TABLE t (a INT)").expect("create");
    db.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
        .expect("insert");
    db.query("SELECT a FROM t")
        .expect_err("row budget must trip");
    let snap = db.metrics_snapshot();
    assert_eq!(
        snap.counter("recdb_governor_cancellations_total{cause=\"rows\"}"),
        1,
        "{snap:?}"
    );
}

/// Transaction outcomes and lock waits feed their counters: commits,
/// rollbacks, and a lock timeout each land in `recdb_txn_total`, and the
/// contended acquisition shows up in `recdb_lock_waits_total` plus the
/// `recdb_lock_wait_micros` histogram.
#[test]
fn transaction_and_lock_metrics_are_counted() {
    let db = RecDb::with_config(RecDbConfig {
        lock_timeout: std::time::Duration::ZERO, // contended writes fail fast
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    });
    db.execute("CREATE TABLE t (a INT)").expect("create"); // autocommit = commit #1
    let mut writer = db.session();
    writer.execute("BEGIN").expect("begin");
    writer.execute("INSERT INTO t VALUES (1)").expect("insert");
    writer.execute("COMMIT").expect("commit"); // commit #2
    writer.execute("BEGIN").expect("begin");
    writer.execute("INSERT INTO t VALUES (2)").expect("insert");
    writer.execute("ROLLBACK").expect("rollback"); // abort #1

    // Hold an exclusive lock open and contend from a second session.
    writer.execute("BEGIN").expect("begin");
    writer.execute("INSERT INTO t VALUES (3)").expect("insert");
    let mut other = db.session();
    other
        .execute("INSERT INTO t VALUES (4)")
        .expect_err("zero-timeout contended write must time out"); // timeout #1
    writer.execute("COMMIT").expect("commit"); // commit #3

    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("recdb_txn_total{outcome=\"commit\"}"), 3);
    assert_eq!(snap.counter("recdb_txn_total{outcome=\"abort\"}"), 1);
    assert_eq!(snap.counter("recdb_txn_total{outcome=\"timeout\"}"), 1);
    assert_eq!(snap.counter("recdb_lock_waits_total"), 1, "{snap:?}");
    let waits = snap
        .histogram("recdb_lock_wait_micros")
        .expect("lock wait histogram");
    assert_eq!(waits.count, 1);
}

#[test]
fn prometheus_render_is_well_formed() {
    let db = RecDb::new();
    db.execute_script(SCHEMA).expect("schema + recommender");
    db.query("SELECT uid, iid FROM ratings")
        .expect("plain scan");
    db.query(TOPK).expect("query");
    let snap = db.metrics_snapshot();
    let text = db.render_metrics();

    // Minimal exposition-format parser: every line is either a `# TYPE`
    // header or `series value` with a numeric value.
    let mut families = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            families.push(parts.next().expect("family name").to_owned());
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "{line:?}"
            );
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty(), "{line:?}");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("non-numeric sample {line:?}"));
        }
    }
    for family in [
        "recdb_statements_total",
        "recdb_rows_scanned_total",
        "recdb_rows_returned_total",
        "recdb_model_build_micros",
    ] {
        assert!(families.contains(&family.to_owned()), "missing {family}");
    }
    // The render agrees with the snapshot it came from.
    assert!(text.contains(&format!(
        "recdb_rows_returned_total {}",
        snap.counter("recdb_rows_returned_total")
    )));
    assert!(text.contains(&format!(
        "recdb_statements_total{{kind=\"select\"}} {}",
        snap.counter("recdb_statements_total{kind=\"select\"}")
    )));
}
