//! Cross-crate integration: the full pipeline from synthetic data through
//! the engine, checked for consistency between access paths, algorithms,
//! and against the OnTopDB baseline.

mod common;

use recdb::algo::Algorithm;
use recdb::core::{EngineError, RecDb, RecDbConfig};
use recdb::datasets::SyntheticSpec;
use recdb::exec::ResultSet;
use recdb::guard::QueryGuard;
use recdb::ontop::{OnTopDb, PredictionScope};

fn small_spec() -> SyntheticSpec {
    SyntheticSpec::movielens().scaled(0.02)
}

fn loaded_db() -> RecDb {
    let mut db = RecDb::new();
    recdb::datasets::generate(&small_spec())
        .load_into(&mut db)
        .unwrap();
    db
}

/// `(uid, iid, score bits)` in result order.
fn pairs(r: &ResultSet) -> Vec<(i64, i64, u64)> {
    r.rows()
        .iter()
        .map(|t| {
            (
                t.get(0).unwrap().as_int().unwrap(),
                t.get(1).unwrap().as_int().unwrap(),
                t.get(2).unwrap().as_f64().unwrap().to_bits(),
            )
        })
        .collect()
}

/// [`pairs`] for order-insensitive comparison. Scores compare by bit
/// pattern: every access path evaluates the same Eq. 2/3 sums in the same
/// order, so there is no tolerance to grant.
fn sorted_pairs(r: &ResultSet) -> Vec<(i64, i64, u64)> {
    let mut v = pairs(r);
    v.sort_unstable();
    v
}

/// RecDB and OnTopDB must produce identical prediction sets for every
/// algorithm — the paper's comparison is about *performance*, not answers.
/// The table carries two recommenders of the algorithm: `t`, over the
/// transposed ratings (items recommended to items' raters), and `r`; each
/// clause is answered by its own.
#[test]
fn recdb_and_ontop_agree_for_every_algorithm() {
    for algo in Algorithm::ALL {
        let db = loaded_db();
        db.execute_script(&format!(
            "CREATE RECOMMENDER t ON ratings USERS FROM iid ITEMS FROM uid \
             RATINGS FROM ratingval USING {algo};
             CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING {algo}"
        ))
        .unwrap();
        for (users, items) in [("uid", "iid"), ("iid", "uid")] {
            let native = db
                .query(&format!(
                    "SELECT R.{users}, R.{items}, R.ratingval FROM ratings AS R \
                     RECOMMEND R.{items} TO R.{users} ON R.ratingval USING {algo} \
                     WHERE R.{users} IN (1, 2, 3)"
                ))
                .unwrap();

            let mut ontop = OnTopDb::new(loaded_db()).unwrap();
            ontop
                .create_recommender("ratings", users, items, "ratingval", algo)
                .unwrap();
            let baseline = ontop
                .run(
                    "ratings",
                    algo,
                    PredictionScope::AllUsers,
                    "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P \
                     WHERE P.uid IN (1, 2, 3)",
                )
                .unwrap();
            assert_eq!(
                sorted_pairs(&native),
                sorted_pairs(&baseline),
                "{algo} TO {users}: native and on-top answers diverge"
            );
            assert!(!native.is_empty(), "{algo}: no recommendations at all");
        }
    }
}

/// The probe world: `r(uid, iid, a, b)` with `b = 6 − a` on every row.
fn probe_table() -> String {
    let rows: Vec<String> = (1..=12i64)
        .flat_map(|u| (1..=10i64).map(move |i| (u, i)))
        .filter(|&(u, i)| (u * 7 + i * 3) % 4 != 0)
        .map(|(u, i)| {
            let a = 1 + (u * i + u) % 5;
            format!("({u}, {i}, {a}.0, {}.0)", 6 - a)
        })
        .collect();
    format!(
        "CREATE TABLE r (uid INT, iid INT, a FLOAT, b FLOAT);
         INSERT INTO r VALUES {}",
        rows.join(", ")
    )
}

/// The probe world with two ItemCosCF recommenders on it: `ra` over `a`
/// and `rb` over `b`.
fn probe_script() -> String {
    format!(
        "{};
         CREATE RECOMMENDER ra ON r USERS FROM uid ITEMS FROM iid RATINGS FROM a \
         USING ItemCosCF;
         CREATE RECOMMENDER rb ON r USERS FROM uid ITEMS FROM iid RATINGS FROM b \
         USING ItemCosCF",
        probe_table()
    )
}

fn probe_db() -> RecDb {
    let db = RecDb::new();
    db.execute_script(&probe_script()).unwrap();
    db
}

/// `RECOMMEND R.iid TO R.uid ON R.<column> USING ItemCosCF` for user 1.
fn probe_query(column: &str) -> String {
    format!(
        "SELECT R.uid, R.iid, R.{column} FROM r AS R \
         RECOMMEND R.iid TO R.uid ON R.{column} USING ItemCosCF WHERE R.uid = 1"
    )
}

/// The probe's answers over `a` and over `b`, as sorted score bits.
fn probe_answers(db: &RecDb) -> [Vec<(i64, i64, u64)>; 2] {
    ["a", "b"].map(|column| sorted_pairs(&db.query(&probe_query(column)).unwrap()))
}

/// Two recommenders of one algorithm on one table, over different rating
/// columns: `ON R.a` is answered by `ra` and `ON R.b` by `rb`, each equal
/// to OnTopDB over its own column, score for score.
#[test]
fn each_rating_column_is_answered_by_its_own_recommender() {
    let db = probe_db();
    let [a, b] = probe_answers(&db);
    assert_ne!(a, b, "the two columns must score differently");
    for (column, native) in [("a", a), ("b", b)] {
        let base = RecDb::new();
        base.execute_script(&probe_table()).unwrap();
        let mut ontop = OnTopDb::new(base).unwrap();
        ontop
            .create_recommender("r", "uid", "iid", column, Algorithm::ItemCosCF)
            .unwrap();
        let baseline = ontop
            .run(
                "r",
                Algorithm::ItemCosCF,
                PredictionScope::SingleUser(1),
                "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P",
            )
            .unwrap();
        assert_eq!(native, sorted_pairs(&baseline), "ON R.{column}");
    }
}

/// A clause over a column no recommender covers is an error that names
/// the column, not another recommender's answer.
#[test]
fn a_clause_no_recommender_covers_is_an_error_naming_its_column() {
    let db = RecDb::new();
    db.execute_script(&format!(
        "{};
         CREATE RECOMMENDER ra ON r USERS FROM uid ITEMS FROM iid RATINGS FROM a \
         USING ItemCosCF",
        probe_table()
    ))
    .unwrap();
    let err = db.query(&probe_query("b")).unwrap_err().to_string();
    assert!(err.contains("ON b USING ItemCosCF"), "{err}");
}

/// A second `CREATE RECOMMENDER` over the same table, columns and
/// algorithm is refused, however it spells them; another algorithm over
/// the same columns is another recommender.
#[test]
fn a_second_recommender_over_the_same_five_is_refused() {
    let db = probe_db();
    let err = db
        .execute(
            "CREATE RECOMMENDER rc ON R USERS FROM UID ITEMS FROM iid RATINGS FROM A \
             USING itemcoscf",
        )
        .unwrap_err();
    assert_eq!(err, EngineError::RecommenderExists("ra".into()));
    assert_eq!(db.recommender_names(), ["ra", "rb"]);
    db.execute(
        "CREATE RECOMMENDER rc ON r USERS FROM uid ITEMS FROM iid RATINGS FROM a \
         USING ItemPearCF",
    )
    .unwrap();
}

/// `BEGIN; DROP RECOMMENDER ra; ROLLBACK` changes no answer: not at once,
/// and not after a checkpoint and a reopen of the durable engine.
#[test]
fn a_rolled_back_drop_recommender_changes_no_answer() {
    let dir = common::temp_dir("rolled-back-drop");
    let db = RecDb::open(dir.path()).unwrap();
    db.execute_script(&probe_script()).unwrap();
    let before = probe_answers(&db);
    assert_ne!(
        before[0], before[1],
        "the two columns must score differently"
    );
    db.execute_script("BEGIN; DROP RECOMMENDER ra; ROLLBACK")
        .unwrap();
    assert_eq!(probe_answers(&db), before, "after the ROLLBACK");
    db.checkpoint().unwrap();
    drop(db);
    let db = RecDb::open(dir.path()).unwrap();
    assert_eq!(
        probe_answers(&db),
        before,
        "after a checkpoint and a reopen"
    );
}

/// A recommender handle holds no engine latch: with one held, the same
/// thread creates and drops recommenders, materializes and runs the cache
/// manager, and the handle sees what they did. The body runs on a thread
/// of its own so that a deadlock fails the test instead of hanging it.
#[test]
fn a_held_recommender_handle_blocks_no_statement() {
    let (done, finished) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let db = probe_db();
        let ra = db.recommender("ra").unwrap();
        db.execute(
            "CREATE RECOMMENDER rc ON r USERS FROM uid ITEMS FROM iid RATINGS FROM a \
             USING SVD",
        )
        .unwrap();
        db.execute("DROP RECOMMENDER rb").unwrap();
        db.materialize("ra").unwrap();
        db.query(&probe_query("a")).unwrap();
        db.run_cache_manager("ra").unwrap();
        done.send(ra.materialized_entries()).unwrap();
    });
    let entries = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the statements finish while a handle is held");
    body.join().expect("the body ran to its end");
    assert!(entries > 0);
}

/// The user-at-a-time scoring pass against its per-pair oracle on a seeded
/// synthetic world: every algorithm, truncated and full neighbor lists,
/// with and without a similarity floor, every user — equal to the bit.
#[test]
fn user_pass_equals_per_pair_on_a_synthetic_world() {
    use recdb::algo::model::{NeighborhoodKnobs, TrainConfig};
    use recdb::algo::{RatingsMatrix, RecModel, ScoreScratch, SvdParams};
    let ratings = recdb::datasets::generate(&small_spec()).algo_ratings();
    let matrix = RatingsMatrix::from_ratings(ratings);
    let mut scratch = ScoreScratch::default();
    let mut batch = Vec::new();
    for algo in Algorithm::ALL {
        // The neighborhood knobs do not apply to SVD and Popularity.
        let knobs: Vec<(Option<usize>, f64)> = if algo.is_neighborhood() {
            [None, Some(1), Some(8), Some(64)]
                .into_iter()
                .flat_map(|k| [(k, 0.0), (k, 0.2)])
                .collect()
        } else {
            vec![(None, 0.0)]
        };
        for (max_neighbors, min_abs_sim) in knobs {
            let config = TrainConfig {
                neighborhood: NeighborhoodKnobs {
                    max_neighbors,
                    min_abs_sim,
                    threads: 0,
                },
                svd: SvdParams {
                    epochs: 3,
                    ..SvdParams::default()
                },
            };
            let model =
                RecModel::train(algo, matrix.clone(), &config, &QueryGuard::unlimited()).unwrap();
            for u in 0..matrix.n_users() {
                batch.clear();
                model.score_unseen_into(u, &mut scratch, &mut batch);
                let got: Vec<(usize, u64)> = batch.iter().map(|&(i, s)| (i, s.to_bits())).collect();
                let want: Vec<(usize, u64)> = matrix
                    .unseen_items(u)
                    .map(|i| (i, model.predict_indexed(u, i).unwrap_or(0.0).to_bits()))
                    .collect();
                assert_eq!(
                    got, want,
                    "{algo} k {max_neighbors:?} floor {min_abs_sim} user {u}"
                );
            }
        }
    }
}

/// Paper Query 1's shape (one user, whole item domain) runs the
/// user-at-a-time scoring pass; OnTopDB scores the same pairs one
/// `predict` at a time. Same rows, same order, same score bits — and the
/// operator tree reports the cardinalities the Volcano protocol implies.
#[test]
fn filter_recommend_matches_ontop_row_for_row() {
    for algo in Algorithm::ALL {
        let db = loaded_db();
        db.execute(&format!(
            "CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING {algo}"
        ))
        .unwrap();
        let recommend = format!(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} WHERE R.uid = 2"
        );
        let native = db.query(&recommend).unwrap();

        let mut ontop = OnTopDb::new(loaded_db()).unwrap();
        ontop
            .create_recommender("ratings", "uid", "iid", "ratingval", algo)
            .unwrap();
        let baseline = ontop
            .run(
                "ratings",
                algo,
                PredictionScope::SingleUser(2),
                "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P",
            )
            .unwrap();
        assert_eq!(pairs(&native), pairs(&baseline), "{algo}");

        let unseen = native.len();
        assert!(unseen > 10, "{algo}: world too small for a top-10");
        let plan = db
            .query(&format!(
                "EXPLAIN ANALYZE {recommend} ORDER BY R.ratingval DESC LIMIT 10"
            ))
            .unwrap();
        let lines: Vec<String> = (0..plan.len())
            .map(|i| plan.value(i, "plan").unwrap().to_string())
            .collect();
        let actuals = |op: &str, rows: usize| {
            let want = format!("rows={rows} calls={}", rows + 1);
            assert!(
                lines.iter().any(|l| l.contains(op) && l.contains(&want)),
                "{algo}: {op} must report {want}: {lines:?}"
            );
        };
        // `LIMIT 10` over `ORDER BY <score> DESC` is the recommend
        // operator's own sink: it hands up ten rows, and nothing sorts
        // above it.
        actuals("Project", 10);
        actuals("FilterRecommend", 10);
        assert!(
            lines.len() == 3 && !lines.iter().any(|l| l.contains("Sort")),
            "{algo}: {lines:?}"
        );
    }
}

/// The materialized index path must return exactly what the online path
/// returns, for every algorithm — and, once the statement asks for an
/// order, the same rows in the same order: FilterRecommend's top-k sink
/// and the RecScoreIndex break score ties the same way (Popularity scores
/// are tie-rich).
#[test]
fn index_and_online_paths_agree() {
    for algo in Algorithm::ALL {
        let db = loaded_db();
        db.execute(&format!(
            "CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING {algo}"
        ))
        .unwrap();
        // A repeated id in the list names the user once, on both paths.
        let users = ["R.uid = 2", "R.uid IN (2, 2)", "R.uid IN (7, 2)"];
        let unordered = users.map(|users| {
            format!(
                "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
                 WHERE {users}"
            )
        });
        let n = db.query(&unordered[2]).unwrap().len();
        let ordered: Vec<String> = unordered
            .iter()
            .flat_map(|sql| {
                [1, 2, 10, n + 5].map(|k| format!("{sql} ORDER BY R.ratingval DESC LIMIT {k}"))
            })
            .collect();
        let run = |sqls: &[String]| -> Vec<ResultSet> {
            sqls.iter().map(|sql| db.query(sql).unwrap()).collect()
        };
        let online = (run(&unordered), run(&ordered));
        db.materialize("r").unwrap();
        let indexed = (run(&unordered), run(&ordered));
        for (i, sql) in unordered.iter().enumerate() {
            assert_eq!(
                sorted_pairs(&online.0[i]),
                sorted_pairs(&indexed.0[i]),
                "{algo}: index path diverged from online path for {sql}"
            );
        }
        assert_eq!(online.0[0].len(), online.0[1].len());
        for (i, sql) in ordered.iter().enumerate() {
            assert_eq!(
                pairs(&online.1[i]),
                pairs(&indexed.1[i]),
                "{algo}: row order differs between access paths for {sql}"
            );
        }
        assert_eq!(online.1[3].len(), online.0[0].len(), "LIMIT n + 5 is all");
    }
}

/// New ratings flow through maintenance into both the model and the
/// materialized index.
#[test]
fn maintenance_keeps_index_fresh() {
    let mut db = RecDb::with_config(RecDbConfig {
        maintenance_threshold_pct: 0.0, // rebuild on every insert
        ..RecDbConfig::default()
    });
    recdb::datasets::generate(&small_spec())
        .load_into(&mut db)
        .unwrap();
    db.execute(
        "CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING ItemCosCF",
    )
    .unwrap();
    db.materialize("r").unwrap();

    // Find an unseen pair for user 1 that is currently in the index.
    let rec = db.recommender("r").unwrap();
    let (item, _) = rec
        .index()
        .unwrap()
        .iter_desc(1, None, None)
        .next()
        .expect("entry for user 1");

    // User 1 rates it → maintenance fires → it must leave the index.
    db.execute(&format!("INSERT INTO ratings VALUES (1, {item}, 5.0)"))
        .unwrap();
    assert_eq!(rec.pending_updates(), 0, "maintenance ran");
    let idx = rec.index().unwrap();
    assert_eq!(
        idx.iter_desc(1, None, None).find(|&(i, _)| i == item),
        None,
        "now-rated pair dematerialized"
    );
    assert!(idx.is_complete(1), "user list re-materialized in full");
    // And the query no longer recommends the rated item.
    let rows = db
        .query(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1",
        )
        .unwrap();
    assert!(rows
        .rows()
        .iter()
        .all(|t| t.get(1).unwrap().as_int() != Some(item)));
}

/// Filters, joins, sorting, and limits compose with the recommendation
/// operator and agree with manually filtered full output.
#[test]
fn composed_query_matches_manual_filtering() {
    let db = loaded_db();
    db.execute(
        "CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING ItemCosCF",
    )
    .unwrap();
    let full = db
        .query(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 3",
        )
        .unwrap();
    let filtered = db
        .query(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 3 AND R.ratingval >= 3.0 \
             ORDER BY R.ratingval DESC LIMIT 5",
        )
        .unwrap();
    let mut expected: Vec<f64> = full
        .rows()
        .iter()
        .map(|t| t.get(2).unwrap().as_f64().unwrap())
        .filter(|&s| s >= 3.0)
        .collect();
    expected.sort_by(|a, b| b.total_cmp(a));
    expected.truncate(5);
    let got: Vec<f64> = filtered
        .rows()
        .iter()
        .map(|t| t.get(2).unwrap().as_f64().unwrap())
        .collect();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert!((g - e).abs() < 1e-12);
    }
}

/// The POI pipeline end to end on the Yelp-like dataset: recommendation +
/// spatial filter + combined ranking.
#[test]
fn poi_pipeline_end_to_end() {
    let mut db = RecDb::new();
    let dataset = recdb::datasets::generate(&SyntheticSpec::yelp().scaled(0.05));
    dataset.load_into(&mut db).unwrap();
    db.execute(
        "CREATE RECOMMENDER poi ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING ItemCosCF",
    )
    .unwrap();
    let rows = db
        .query(
            "SELECT B.name, R.ratingval, \
                    CScore(R.ratingval, ST_Distance(B.loc, POINT(500, 500))) AS c \
             FROM ratings AS R, businesses AS B \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND R.iid = B.bid \
             AND ST_DWithin(B.loc, POINT(500, 500), 400) \
             ORDER BY CScore(R.ratingval, ST_Distance(B.loc, POINT(500, 500))) DESC \
             LIMIT 5",
        )
        .unwrap();
    assert!(rows.len() <= 5);
    // Combined scores are within [0, 1] and descending.
    let scores: Vec<f64> = rows
        .rows()
        .iter()
        .map(|t| t.get(2).unwrap().as_f64().unwrap())
        .collect();
    assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));
}

/// Data-movement cost shape (§IV-A): the all-pairs baseline loads far more
/// prediction rows back into the database than a selective query needs;
/// visible as the row count of `_ontop_predictions` after each run.
#[test]
fn ontop_pays_data_movement_cost() {
    let mut ontop = OnTopDb::new(loaded_db()).unwrap();
    ontop
        .create_recommender("ratings", "uid", "iid", "ratingval", Algorithm::ItemCosCF)
        .unwrap();
    let mut rows_loaded = |scope| {
        ontop
            .run(
                "ratings",
                Algorithm::ItemCosCF,
                scope,
                "SELECT P.iid FROM _ontop_predictions AS P WHERE P.uid = 1",
            )
            .unwrap();
        let catalog = ontop.db().catalog();
        catalog
            .table(recdb::ontop::PREDICTIONS_TABLE)
            .unwrap()
            .tuple_count()
    };
    let writes_all = rows_loaded(PredictionScope::AllUsers);
    // The single-user ablation writes far fewer tuples back to the DB.
    let writes_one = rows_loaded(PredictionScope::SingleUser(1));
    assert!(
        writes_one * 10 < writes_all,
        "single-user reload ({writes_one}) should be ≪ all-pairs ({writes_all})"
    );
}
