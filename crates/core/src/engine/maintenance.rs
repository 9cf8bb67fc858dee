//! Recommender maintenance: commit-time item statistics and the N% rebuild
//! rule (§III-A), materialization (§IV-C), the Algorithm 4 cache manager
//! and the query statistics that feed it (§IV-D).
//!
//! Invariant: a rebuild trains with no engine latch held and publishes
//! its `ModelVersion` (model and score index) in one `Arc` swap, so a
//! cancelled or failed rebuild leaves the previous version serving and a
//! reader never sees a model of one build with an index of another.
//! Commit-time maintenance runs while the committing transaction still
//! holds its X locks, so it trains on exactly the committed state. All of
//! it works on the recommenders' handles, never on the registry's write
//! side.

use super::txn::ActiveTxn;
use super::{flatten_guard_error_counted, RecDb};
use crate::error::{EngineError, EngineResult};
use crate::recommender::{build_version, Recommender};
use recdb_algo::Algorithm;
use recdb_guard::QueryGuard;
use std::sync::Arc;
use std::time::Duration;

/// Bucket bounds (microseconds) for the per-algorithm model-build
/// histogram: 100µs to 10s, one decade per bucket.
const MODEL_BUILD_BUCKETS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

impl RecDb {
    /// Commit-time recommender side effects: item-statistics updates for
    /// every rating the transaction wrote, then the N% maintenance pass
    /// over the tables it touched. Runs while the transaction still holds
    /// its X locks, so the rebuild trains on exactly the committed state.
    pub(super) fn apply_deferred(&self, txn: &ActiveTxn, guard: &QueryGuard) -> EngineResult<()> {
        let now = self.clock();
        for (rec, item) in &txn.deferred_stats {
            rec.record_insert(*item, now);
        }
        for table in &txn.touched {
            self.run_auto_maintenance(table, guard)?;
        }
        Ok(())
    }

    /// Record one model (re)build duration in the per-algorithm histogram.
    pub(super) fn observe_model_build(&self, algorithm: Algorithm, build_time: Duration) {
        self.metrics
            .histogram_with(
                "recdb_model_build_micros",
                MODEL_BUILD_BUCKETS,
                &[("algorithm", algorithm.name())],
            )
            .observe(micros(build_time));
    }

    /// Run the N% rule for every recommender on `table`. A cancelled or
    /// faulted rebuild leaves the previous version serving (the swap in
    /// [`Recommender::publish`] is only reached on success).
    fn run_auto_maintenance(&self, table: &str, guard: &QueryGuard) -> EngineResult<()> {
        let table_key = table.to_ascii_lowercase();
        let due: Vec<Arc<Recommender>> = self
            .recommenders
            .read()
            .iter()
            .filter(|r| {
                r.ratings_table() == table_key
                    && r.needs_maintenance(self.config.maintenance_threshold_pct)
            })
            .cloned()
            .collect();
        for rec in due {
            self.rebuild_recommender(&rec, guard)?;
        }
        Ok(())
    }

    /// Rebuild one recommender's model: build a new version from its
    /// definition and the version serving now ([`build_version`]: scan
    /// under a brief catalog read latch, train with *no* engine latch
    /// held), and publish it. Readers serve the previous version
    /// throughout.
    fn rebuild_recommender(&self, rec: &Recommender, guard: &QueryGuard) -> EngineResult<()> {
        let base = rec.version();
        let index = base.index.as_deref();
        let fresh = build_version(rec.def(), &self.config.train, &self.catalog, index, guard)?;
        self.observe_model_build(rec.algorithm(), fresh.build_time());
        for (stage, time) in [
            ("load", fresh.load_time),
            ("train", fresh.train_time),
            ("refresh", fresh.refresh_time),
        ] {
            self.metrics
                .histogram_with(
                    "recdb_model_rebuild_stage_micros",
                    MODEL_BUILD_BUCKETS,
                    &[("stage", stage)],
                )
                .observe(micros(time));
        }
        rec.publish(&base, fresh, guard)?;
        self.gauge_materialized(rec);
        Ok(())
    }

    /// Pre-compute the full RecScoreIndex for every user of a recommender
    /// (§IV-C pre-computation). Its readers are served while the lists
    /// are scored and wait only while they enter the index; run it at
    /// load time.
    pub fn materialize(&self, recommender: &str) -> EngineResult<()> {
        let guard = self.config.governor.guard();
        let rec = self.found(recommender)?;
        let result = rec.materialize_all(0, &guard);
        self.gauge_materialized(&rec);
        result.map_err(|e| flatten_guard_error_counted(&self.metrics, e))
    }

    /// Run one cache-manager pass (Algorithm 4) for a recommender at the
    /// current tick.
    pub fn run_cache_manager(
        &self,
        recommender: &str,
    ) -> EngineResult<crate::cache::CacheDecision> {
        let now = self.clock();
        let rec = self.found(recommender)?;
        let decision = rec.run_cache_manager(now);
        self.metrics
            .counter("recdb_cache_admitted_total")
            .add(decision.admitted.len() as u64);
        self.metrics
            .counter("recdb_cache_evicted_total")
            .add(decision.evicted.len() as u64);
        self.gauge_materialized(&rec);
        Ok(decision)
    }

    /// [`RecDb::recommender`], or the error naming a missing one.
    fn found(&self, name: &str) -> EngineResult<Arc<Recommender>> {
        self.recommender(name)
            .ok_or_else(|| EngineError::RecommenderNotFound(name.to_owned()))
    }

    /// Set `recdb_materialized_entries` and `recdb_rec_index_pages` for
    /// `rec`: after every version the engine publishes, and when undo
    /// brings a dropped recommender back.
    pub(super) fn gauge_materialized(&self, rec: &Recommender) {
        let (entries, pages) = (rec.materialized_entries(), rec.index_pages());
        self.set_index_gauges(rec.name(), entries as i64, pages as i64);
    }

    /// Zero both index gauges of the recommender `name`, which has left
    /// the engine (dropped, with its table, or its creation undone).
    pub(super) fn gauge_dropped(&self, name: &str) {
        self.set_index_gauges(name, 0, 0);
    }

    fn set_index_gauges(&self, name: &str, entries: i64, pages: i64) {
        let labels = [("recommender", name)];
        self.metrics
            .gauge_with("recdb_materialized_entries", &labels)
            .set(entries);
        self.metrics
            .gauge_with("recdb_rec_index_pages", &labels)
            .set(pages);
    }
}

/// A duration as a histogram observation in whole microseconds.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}
