//! # recdb-ontop
//!
//! The **OnTopDB** baseline of the paper's evaluation (§I, §VI): the
//! recommendation functionality implemented *on top of* the database
//! engine, the way an application would wire LensKit/Mahout to PostgreSQL.
//!
//! The baseline deliberately reproduces both costs the paper attributes to
//! this architecture:
//!
//! 1. **Data movement** — ratings are extracted from the database with a
//!    full scan, the model lives in the application's memory, and the
//!    produced predictions are bulk-loaded *back into the database* before
//!    the query's filters/joins/top-k run over them as ordinary SQL.
//! 2. **All-pairs prediction** — "OnTopDB processes a recommendation query
//!    for all the users before recommending the items to a particular
//!    user" (§VI-B): every query recomputes the full prediction table
//!    regardless of how selective its predicates are.
//!
//! [`PredictionScope`] lets ablations relax cost 2 (predict for the query
//! user only) to separate the two effects.

use recdb_algo::model::TrainConfig;
use recdb_algo::{Algorithm, RecModel};
use recdb_core::recommender::load_matrix;
use recdb_core::{EngineError, EngineResult, QueryGuard, RecDb};
use recdb_exec::ResultSet;
use recdb_storage::{DataType, Schema, Tuple, Value};
use std::time::{Duration, Instant};

/// The name of the table OnTopDB loads predictions into.
pub const PREDICTIONS_TABLE: &str = "_ontop_predictions";

/// How much of the prediction matrix each query recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionScope {
    /// The paper's OnTopDB: predict for every user (default).
    AllUsers,
    /// Ablation: predict only for one user (a smarter application layer).
    SingleUser(i64),
}

/// An external recommendation engine bolted onto the database.
pub struct OnTopEngine {
    algorithm: Algorithm,
    ratings_table: String,
    model: RecModel,
    build_time: Duration,
}

impl OnTopEngine {
    /// Extract the ratings from the database and train the model in
    /// application memory (the extract + load half of cost 1). The build
    /// has no limits; its fault sites are live.
    pub fn build(
        db: &RecDb,
        ratings_table: &str,
        users_column: &str,
        items_column: &str,
        ratings_column: &str,
        algorithm: Algorithm,
        config: &TrainConfig,
    ) -> EngineResult<Self> {
        let started = Instant::now();
        let matrix = {
            let catalog = db.catalog();
            load_matrix(
                &catalog,
                ratings_table,
                users_column,
                items_column,
                ratings_column,
            )?
        };
        let model = RecModel::train(algorithm, matrix, config, &QueryGuard::unlimited())?;
        Ok(OnTopEngine {
            algorithm,
            ratings_table: ratings_table.to_ascii_lowercase(),
            model,
            build_time: started.elapsed(),
        })
    }

    /// The algorithm this engine was trained with.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The ratings table the model was extracted from.
    pub fn ratings_table(&self) -> &str {
        &self.ratings_table
    }

    /// Extraction + training time (Table II's OnTopDB-side counterpart).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The trained model (read access for tests).
    pub fn model(&self) -> &RecModel {
        &self.model
    }

    /// Compute the prediction rows for the given scope: one
    /// `(uid, iid, ratingval)` row per unseen pair.
    pub fn predict_rows(&self, scope: PredictionScope) -> Vec<Tuple> {
        let matrix = self.model.matrix();
        let users: Vec<i64> = match scope {
            PredictionScope::AllUsers => matrix.user_ids().to_vec(),
            PredictionScope::SingleUser(u) => vec![u],
        };
        let mut rows = Vec::new();
        for &user in &users {
            // A user outside the recommender's input has no row, as in
            // the RECOMMEND operators.
            let Some(u) = matrix.user_idx(user) else {
                continue;
            };
            for (i, &item) in matrix.item_ids().iter().enumerate() {
                if let Some(score) = self.model.unseen_score(u, i) {
                    rows.push(Tuple::new(vec![
                        Value::Int(user),
                        Value::Int(item),
                        Value::Float(score),
                    ]));
                }
            }
        }
        rows
    }
}

/// The OnTopDB application: a database plus external engines.
pub struct OnTopDb {
    db: RecDb,
    engines: Vec<OnTopEngine>,
}

impl OnTopDb {
    /// Wrap a database. The predictions table is created eagerly.
    pub fn new(db: RecDb) -> EngineResult<Self> {
        if !db.catalog().contains(PREDICTIONS_TABLE) {
            db.catalog_mut().create_table(
                PREDICTIONS_TABLE,
                Schema::from_pairs(&[
                    ("uid", DataType::Int),
                    ("iid", DataType::Int),
                    ("ratingval", DataType::Float),
                ]),
            )?;
        }
        Ok(OnTopDb {
            db,
            engines: Vec::new(),
        })
    }

    /// The underlying database.
    pub fn db(&self) -> &RecDb {
        &self.db
    }

    /// Extract + train an external engine (counterpart of
    /// `CREATE RECOMMENDER`).
    pub fn create_recommender(
        &mut self,
        ratings_table: &str,
        users_column: &str,
        items_column: &str,
        ratings_column: &str,
        algorithm: Algorithm,
    ) -> EngineResult<Duration> {
        let config = self.db.config().train;
        let engine = OnTopEngine::build(
            &self.db,
            ratings_table,
            users_column,
            items_column,
            ratings_column,
            algorithm,
            &config,
        )?;
        let build_time = engine.build_time();
        self.engines
            .retain(|e| !(e.ratings_table == engine.ratings_table && e.algorithm == algorithm));
        self.engines.push(engine);
        Ok(build_time)
    }

    fn engine(&self, ratings_table: &str, algorithm: Algorithm) -> EngineResult<&OnTopEngine> {
        self.engines
            .iter()
            .find(|e| {
                e.ratings_table.eq_ignore_ascii_case(ratings_table) && e.algorithm == algorithm
            })
            .ok_or_else(|| {
                EngineError::RecommenderNotFound(format!(
                    "OnTopDB engine for `{ratings_table}` using {algorithm}"
                ))
            })
    }

    /// Run one recommendation query the OnTopDB way:
    ///
    /// 1. recompute predictions (scope per [`PredictionScope`]),
    /// 2. truncate and bulk-load [`PREDICTIONS_TABLE`],
    /// 3. execute `residual_sql` — plain SQL that reads
    ///    `_ontop_predictions` (and any other tables) to apply the query's
    ///    filters, joins, ordering, and limit.
    pub fn run(
        &mut self,
        ratings_table: &str,
        algorithm: Algorithm,
        scope: PredictionScope,
        residual_sql: &str,
    ) -> EngineResult<ResultSet> {
        let rows = self.engine(ratings_table, algorithm)?.predict_rows(scope);
        {
            let mut catalog = self.db.catalog_mut();
            let table = catalog.table_mut(PREDICTIONS_TABLE)?;
            table.truncate()?;
            table.insert_many(rows)?;
        }
        self.db.query(residual_sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1 world loaded into a fresh database.
    fn base_db() -> RecDb {
        let db = RecDb::new();
        db.execute_script(
            "CREATE TABLE movies (mid INT, name TEXT, genre TEXT);
             CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
             INSERT INTO movies VALUES (1, 'Spartacus', 'Action'),
                                       (2, 'Inception', 'Suspense'),
                                       (3, 'The Matrix', 'Sci-Fi');
             INSERT INTO ratings VALUES (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5),
                                        (2, 3, 2.0), (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);",
        )
        .unwrap();
        db
    }

    fn ontop() -> OnTopDb {
        let mut o = OnTopDb::new(base_db()).unwrap();
        o.create_recommender("ratings", "uid", "iid", "ratingval", Algorithm::ItemCosCF)
            .unwrap();
        o
    }

    #[test]
    fn predictions_cover_all_unseen_pairs() {
        let o = ontop();
        let rows = o
            .engine("ratings", Algorithm::ItemCosCF)
            .unwrap()
            .predict_rows(PredictionScope::AllUsers);
        // 4 users × 3 items − 7 rated = 5 unseen pairs.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn single_user_scope_is_smaller() {
        let o = ontop();
        let engine = o.engine("ratings", Algorithm::ItemCosCF).unwrap();
        let all = engine.predict_rows(PredictionScope::AllUsers).len();
        let one = engine.predict_rows(PredictionScope::SingleUser(1)).len();
        assert_eq!(one, 2);
        assert!(one < all);
    }

    #[test]
    fn run_loads_predictions_then_filters() {
        let mut o = ontop();
        let result = o
            .run(
                "ratings",
                Algorithm::ItemCosCF,
                PredictionScope::AllUsers,
                "SELECT P.iid, P.ratingval FROM _ontop_predictions AS P \
                 WHERE P.uid = 1 ORDER BY P.ratingval DESC LIMIT 10",
            )
            .unwrap();
        assert_eq!(result.len(), 2);
        // The predictions table holds the full matrix even though the
        // query asked for one user — that's the OnTopDB inefficiency.
        assert_eq!(
            o.db()
                .catalog()
                .table(PREDICTIONS_TABLE)
                .unwrap()
                .tuple_count(),
            5
        );
    }

    #[test]
    fn ontop_matches_recdb_answers() {
        // Same data, same algorithm → identical recommendation sets.
        let recdb = base_db();
        recdb
            .execute(
                "CREATE RECOMMENDER R ON ratings USERS FROM uid ITEMS FROM iid \
                 RATINGS FROM ratingval USING ItemCosCF",
            )
            .unwrap();
        let native = recdb
            .query(
                "SELECT R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1 ORDER BY R.iid",
            )
            .unwrap();
        let mut o = ontop();
        let baseline = o
            .run(
                "ratings",
                Algorithm::ItemCosCF,
                PredictionScope::AllUsers,
                "SELECT P.iid, P.ratingval FROM _ontop_predictions AS P \
                 WHERE P.uid = 1 ORDER BY P.iid",
            )
            .unwrap();
        assert_eq!(native.len(), baseline.len());
        for (a, b) in native.rows().iter().zip(baseline.rows()) {
            assert_eq!(a.get(0), b.get(0));
            let (x, y) = (
                a.get(1).unwrap().as_f64().unwrap(),
                b.get(1).unwrap().as_f64().unwrap(),
            );
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn run_with_join_over_predictions() {
        let mut o = ontop();
        let result = o
            .run(
                "ratings",
                Algorithm::ItemCosCF,
                PredictionScope::AllUsers,
                "SELECT M.name, P.ratingval \
                 FROM _ontop_predictions AS P, movies AS M \
                 WHERE P.uid = 4 AND M.mid = P.iid AND M.genre = 'Sci-Fi'",
            )
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.value(0, "name").unwrap().as_text(),
            Some("The Matrix")
        );
    }

    #[test]
    fn reruns_replace_previous_predictions() {
        let mut o = ontop();
        for _ in 0..3 {
            o.run(
                "ratings",
                Algorithm::ItemCosCF,
                PredictionScope::AllUsers,
                "SELECT P.uid FROM _ontop_predictions AS P LIMIT 1",
            )
            .unwrap();
        }
        assert_eq!(
            o.db()
                .catalog()
                .table(PREDICTIONS_TABLE)
                .unwrap()
                .tuple_count(),
            5,
            "truncate-and-reload, not append"
        );
    }

    #[test]
    fn missing_engine_reported() {
        let mut o = ontop();
        let err = o
            .run(
                "ratings",
                Algorithm::Svd,
                PredictionScope::AllUsers,
                "SELECT P.uid FROM _ontop_predictions AS P",
            )
            .unwrap_err();
        assert!(err.to_string().contains("SVD"));
    }
}
