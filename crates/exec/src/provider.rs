//! The bridge between the executor and the recommender catalog.
//!
//! The `RECOMMEND` clause does not name a recommender: the paper's engine
//! "figures that an ItemCosCF recommender is already created" from the
//! ratings table in FROM and the algorithm in USING (§IV-A1, Query 2
//! discussion). [`RecommenderProvider`] is that lookup, implemented by
//! `recdb-core`'s recommender catalog and by test doubles here.

use crate::rec_index::RecScoreIndex;
use recdb_algo::{Algorithm, RecModel};
use std::sync::Arc;

/// Resolves `(ratings table, algorithm)` to a trained model and, when
/// materialized, a pre-computed score index.
pub trait RecommenderProvider {
    /// The trained model for a recommender created on `ratings_table` with
    /// `algorithm`, or `None` if no such recommender exists.
    fn model(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<RecModel>>;

    /// The materialized [`RecScoreIndex`] for the recommender, if the cache
    /// manager has materialized one.
    fn rec_index(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<RecScoreIndex>>;
}

/// A provider with no recommenders (plain-SQL execution contexts).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRecommenders;

impl RecommenderProvider for NoRecommenders {
    fn model(&self, _: &str, _: Algorithm) -> Option<Arc<RecModel>> {
        None
    }

    fn rec_index(&self, _: &str, _: Algorithm) -> Option<Arc<RecScoreIndex>> {
        None
    }
}

/// A single-recommender provider, convenient for tests and benches.
pub struct SingleRecommender {
    /// Table the recommender was created on (folded to lowercase).
    pub table: String,
    /// Algorithm it was trained with.
    pub algorithm: Algorithm,
    /// The trained model.
    pub model: Arc<RecModel>,
    /// Optional materialized index.
    pub index: Option<Arc<RecScoreIndex>>,
}

impl SingleRecommender {
    /// Wrap a model as a provider for `table`/`algorithm`.
    pub fn new(table: &str, algorithm: Algorithm, model: RecModel) -> Self {
        SingleRecommender {
            table: table.to_ascii_lowercase(),
            algorithm,
            model: Arc::new(model),
            index: None,
        }
    }

    /// Attach a materialized index.
    pub fn with_index(mut self, index: RecScoreIndex) -> Self {
        self.index = Some(Arc::new(index));
        self
    }
}

impl RecommenderProvider for SingleRecommender {
    fn model(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<RecModel>> {
        (self.table.eq_ignore_ascii_case(ratings_table) && self.algorithm == algorithm)
            .then(|| Arc::clone(&self.model))
    }

    fn rec_index(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<RecScoreIndex>> {
        if !self.table.eq_ignore_ascii_case(ratings_table) || self.algorithm != algorithm {
            return None;
        }
        self.index.as_ref().map(Arc::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_algo::{Rating, RatingsMatrix};
    use recdb_guard::QueryGuard;

    fn model() -> RecModel {
        RecModel::train(
            Algorithm::ItemCosCF,
            RatingsMatrix::from_ratings(vec![Rating::new(1, 1, 5.0), Rating::new(1, 2, 3.0)]),
            &Default::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn single_provider_matches_table_and_algorithm() {
        let p = SingleRecommender::new("Ratings", Algorithm::ItemCosCF, model());
        assert!(p.model("ratings", Algorithm::ItemCosCF).is_some());
        assert!(p.model("RATINGS", Algorithm::ItemCosCF).is_some());
        assert!(p.model("ratings", Algorithm::Svd).is_none());
        assert!(p.model("other", Algorithm::ItemCosCF).is_none());
        assert!(p.rec_index("ratings", Algorithm::ItemCosCF).is_none());
    }

    #[test]
    fn index_attachment() {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 3, 4.0);
        let p = SingleRecommender::new("r", Algorithm::ItemCosCF, model()).with_index(idx);
        assert_eq!(p.rec_index("r", Algorithm::ItemCosCF).unwrap().len(), 1);
        assert!(p.rec_index("r", Algorithm::Svd).is_none());
    }

    #[test]
    fn no_recommenders_returns_none() {
        let p = NoRecommenders;
        assert!(p.model("x", Algorithm::Svd).is_none());
        assert!(p.rec_index("x", Algorithm::Svd).is_none());
    }
}
