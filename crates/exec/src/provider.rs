//! The bridge between the executor and the recommender catalog.
//!
//! The `RECOMMEND` clause does not name a recommender: the paper's engine
//! "figures that an ItemCosCF recommender is already created" from the
//! ratings table in FROM and the algorithm in USING (§IV-A1, Query 2
//! discussion). [`RecommenderProvider`] is that lookup, implemented by
//! `recdb-core`'s recommender catalog and by test doubles here. It hands
//! out one [`ModelVersion`]: the model and the score index a request reads
//! always come from the same build.

use crate::rec_index::RecScoreIndex;
use recdb_algo::{Algorithm, RecModel};
use std::sync::Arc;
use std::time::Duration;

/// A recommender's trained state (RecModel plus RecScoreIndex, §III and
/// §IV-C), immutable once published. An N % rebuild (§III-A) publishes a
/// new version in one `Arc` swap, so a reader holding a version keeps a
/// model and an index of one build for as long as it holds it.
#[derive(Debug, Clone)]
pub struct ModelVersion {
    /// The trained model.
    pub model: Arc<RecModel>,
    /// The materialized score index, if any user or pair is materialized.
    pub index: Option<Arc<RecScoreIndex>>,
    /// The build's scan of the ratings table.
    pub load_time: Duration,
    /// The build's model training.
    pub train_time: Duration,
    /// The build's refresh of the score index against the new model.
    pub refresh_time: Duration,
}

impl ModelVersion {
    /// Training plus refresh (the Table II metric); the scan is
    /// [`ModelVersion::load_time`].
    pub fn build_time(&self) -> Duration {
        self.train_time + self.refresh_time
    }
}

/// Resolves `(ratings table, algorithm)` to the recommender's current
/// [`ModelVersion`].
pub trait RecommenderProvider {
    /// The current version of the recommender created on `ratings_table`
    /// with `algorithm`, or `None` if no such recommender exists.
    fn version(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<ModelVersion>>;

    /// A statement's Recommend leaf asks that recommender for `users`
    /// (its `uPred`, in WHERE order, repeats kept): the Users Histogram's
    /// input (§III-B). Called once per leaf per execution, after
    /// [`RecommenderProvider::version`] found the recommender. Does
    /// nothing unless the provider keeps such statistics.
    fn record_query(&self, _ratings_table: &str, _algorithm: Algorithm, _users: &[i64]) {}
}

/// A provider with no recommenders (plain-SQL execution contexts).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRecommenders;

impl RecommenderProvider for NoRecommenders {
    fn version(&self, _: &str, _: Algorithm) -> Option<Arc<ModelVersion>> {
        None
    }
}

/// A single-recommender provider, convenient for tests and benches.
pub struct SingleRecommender {
    /// Table the recommender was created on (folded to lowercase).
    pub table: String,
    /// Algorithm it was trained with.
    pub algorithm: Algorithm,
    /// The version it serves.
    pub version: Arc<ModelVersion>,
}

impl SingleRecommender {
    /// Wrap a model as a provider for `table`/`algorithm`: no score index,
    /// no build times.
    pub fn new(table: &str, algorithm: Algorithm, model: RecModel) -> Self {
        let version = ModelVersion {
            model: Arc::new(model),
            index: None,
            load_time: Duration::ZERO,
            train_time: Duration::ZERO,
            refresh_time: Duration::ZERO,
        };
        SingleRecommender {
            table: table.to_ascii_lowercase(),
            algorithm,
            version: Arc::new(version),
        }
    }

    /// Attach a materialized index.
    pub fn with_index(mut self, index: RecScoreIndex) -> Self {
        Arc::make_mut(&mut self.version).index = Some(Arc::new(index));
        self
    }
}

impl RecommenderProvider for SingleRecommender {
    fn version(&self, ratings_table: &str, algorithm: Algorithm) -> Option<Arc<ModelVersion>> {
        (self.table.eq_ignore_ascii_case(ratings_table) && self.algorithm == algorithm)
            .then(|| Arc::clone(&self.version))
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
        assert!(p.version("ratings", Algorithm::ItemCosCF).is_some());
        assert!(p.version("RATINGS", Algorithm::ItemCosCF).is_some());
        assert!(p.version("ratings", Algorithm::Svd).is_none());
        assert!(p.version("other", Algorithm::ItemCosCF).is_none());
        assert!(p
            .version("ratings", Algorithm::ItemCosCF)
            .unwrap()
            .index
            .is_none());
    }

    #[test]
    fn index_attachment() {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 3, 4.0);
        let p = SingleRecommender::new("r", Algorithm::ItemCosCF, model()).with_index(idx);
        let version = p.version("r", Algorithm::ItemCosCF).unwrap();
        assert_eq!(version.index.as_ref().unwrap().len(), 1);
        assert_eq!(version.model.trained_on(), 2);
        assert!(p.version("r", Algorithm::Svd).is_none());
    }

    #[test]
    fn no_recommenders_returns_none() {
        assert!(NoRecommenders.version("x", Algorithm::Svd).is_none());
    }
}
