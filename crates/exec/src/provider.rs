//! The bridge between the executor and the recommender catalog.
//!
//! `CREATE RECOMMENDER` defines a recommender by five things (§III-A): a
//! ratings table, its users, items and ratings columns, and an algorithm.
//! A `RECOMMEND <item> TO <user> ON <rating> USING <algorithm>` clause
//! names the same five, a [`Clause`], and [`RecommenderProvider`] resolves
//! it to the recommender that matches all of them, or to none: never to
//! another recommender's answer. It hands out one [`ModelVersion`]: the
//! model and the score index a request reads come from one build.

use crate::rec_index::RecScoreIndex;
use recdb_algo::{Algorithm, RecModel};
use std::fmt;
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

/// The five things a recommender is defined by and a `RECOMMEND` clause
/// names (§III-A).
#[derive(Debug, Clone, Copy)]
pub struct Clause<'a> {
    /// The ratings table.
    pub table: &'a str,
    /// Its users column (`TO`, `USERS FROM`).
    pub users: &'a str,
    /// Its items column (`RECOMMEND`, `ITEMS FROM`).
    pub items: &'a str,
    /// Its ratings column (`ON`, `RATINGS FROM`).
    pub ratings: &'a str,
    /// The algorithm (`USING`).
    pub algorithm: Algorithm,
}

impl Clause<'_> {
    /// Whether `self` and `other` name one recommender: all five match,
    /// table and column names ASCII case-insensitively.
    pub fn matches(&self, other: &Clause<'_>) -> bool {
        self.algorithm == other.algorithm
            && [self.table, self.users, self.items, self.ratings]
                .iter()
                .zip([other.table, other.users, other.items, other.ratings])
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl fmt::Display for Clause<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`RECOMMEND {} TO {} ON {} USING {}` on table `{}`",
            self.items, self.users, self.ratings, self.algorithm, self.table
        )
    }
}

/// Resolves a `RECOMMEND` clause to the current [`ModelVersion`] of the
/// recommender it names.
pub trait RecommenderProvider {
    /// The current version of the recommender that `clause` names, or
    /// `None` if there is none. The statement asks it for `users` (the
    /// leaf's `uPred`, in WHERE order, repeats kept; empty without one),
    /// which a provider keeping the Users Histogram (§III-B) counts.
    /// Called once per Recommend leaf per execution.
    fn version(&self, clause: Clause<'_>, users: &[i64]) -> Option<Arc<ModelVersion>>;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use recdb_algo::{Rating, RatingsMatrix};
    use recdb_guard::QueryGuard;

    /// A single-recommender provider for the executor's tests.
    pub(crate) struct SingleRecommender {
        /// Table the recommender was created on, then its users, items and
        /// ratings columns.
        names: [String; 4],
        /// Algorithm it was trained with.
        algorithm: Algorithm,
        /// The version it serves.
        pub(crate) version: Arc<ModelVersion>,
    }

    impl SingleRecommender {
        /// Wrap a model as a provider for the clause over `names` (table,
        /// users, items, ratings) with `algorithm`: no score index, no build
        /// times.
        pub(crate) fn new(names: [&str; 4], algorithm: Algorithm, model: RecModel) -> Self {
            let version = ModelVersion {
                model: Arc::new(model),
                index: None,
                load_time: Duration::ZERO,
                train_time: Duration::ZERO,
                refresh_time: Duration::ZERO,
            };
            SingleRecommender {
                names: names.map(str::to_owned),
                algorithm,
                version: Arc::new(version),
            }
        }

        /// Attach a materialized index.
        pub(crate) fn with_index(mut self, index: RecScoreIndex) -> Self {
            Arc::make_mut(&mut self.version).index = Some(Arc::new(index));
            self
        }
    }

    impl RecommenderProvider for SingleRecommender {
        fn version(&self, clause: Clause<'_>, _users: &[i64]) -> Option<Arc<ModelVersion>> {
            let [table, users, items, ratings] = &self.names;
            let ours = Clause {
                table,
                users,
                items,
                ratings,
                algorithm: self.algorithm,
            };
            ours.matches(&clause).then(|| Arc::clone(&self.version))
        }
    }

    fn model() -> RecModel {
        RecModel::train(
            Algorithm::ItemCosCF,
            RatingsMatrix::from_ratings(vec![Rating::new(1, 1, 5.0), Rating::new(1, 2, 3.0)]),
            &Default::default(),
            &QueryGuard::unlimited(),
        )
        .unwrap()
    }

    fn clause<'a>(table: &'a str, ratings: &'a str, algorithm: Algorithm) -> Clause<'a> {
        Clause {
            table,
            users: "UID",
            items: "iid",
            ratings,
            algorithm,
        }
    }

    #[test]
    fn single_provider_matches_all_five() {
        let names = ["Ratings", "uid", "iid", "ratingval"];
        let p = SingleRecommender::new(names, Algorithm::ItemCosCF, model());
        let found = |c: Clause<'_>| p.version(c, &[1]).is_some();
        assert!(found(clause("ratings", "ratingval", Algorithm::ItemCosCF)));
        assert!(found(clause("RATINGS", "RatingVal", Algorithm::ItemCosCF)));
        assert!(!found(clause("ratings", "ratingval", Algorithm::Svd)));
        assert!(!found(clause("other", "ratingval", Algorithm::ItemCosCF)));
        assert!(!found(clause("ratings", "other", Algorithm::ItemCosCF)));
        let version = p
            .version(clause("ratings", "ratingval", Algorithm::ItemCosCF), &[])
            .unwrap();
        assert!(version.index.is_none());
    }

    #[test]
    fn index_attachment() {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 3, 4.0);
        let names = ["r", "uid", "iid", "a"];
        let p = SingleRecommender::new(names, Algorithm::ItemCosCF, model()).with_index(idx);
        let version = p
            .version(clause("r", "a", Algorithm::ItemCosCF), &[])
            .unwrap();
        assert_eq!(version.index.as_ref().unwrap().len(), 1);
        assert_eq!(version.model.trained_on(), 2);
    }

    #[test]
    fn a_clause_renders_every_column() {
        let text = clause("r", "b", Algorithm::ItemCosCF).to_string();
        assert_eq!(
            text,
            "`RECOMMEND iid TO UID ON b USING ItemCosCF` on table `r`"
        );
    }
}
