//! The per-session statement cache: parse and plan once per statement
//! shape.
//!
//! The paper's workload is a few statement shapes whose requests differ
//! only in their literals (Query 1 and Query 4 in `R.uid = ?` and
//! `M.genre = ?`). A [`Session`](crate::Session) keys each `SELECT` and
//! single `INSERT` by its template ([`recdb_sql::normalize`]) and keeps a
//! [`Prepared`] statement: the parsed statement with parameter slots in
//! place of its literals, its sorted table locks, and, once a `SELECT` has
//! run, its optimized plan. A repeat of the shape skips lexing, parsing,
//! `build_logical` and `optimize`; the executor reads the new literal
//! values from the slots when it builds the physical plan. A statement
//! run once (DDL, `EXPLAIN`, transaction control, scripts, anything whose
//! literals and slots disagree) goes through the same
//! [`RecDb`](crate::RecDb) code as a one-shot [`Prepared`] with no slots.
//!
//! A plan names tables and their column order, so it records the catalog
//! epoch it was built at; when the epoch has moved (a table was created,
//! dropped or restored since), the next run plans the template again.

use recdb_exec::{build_logical, optimize, LogicalPlan};
use recdb_sql::{SelectStatement, Statement};
use recdb_storage::Catalog;
use recdb_txn::LockMode;
use std::collections::{HashMap, VecDeque};

use crate::error::EngineResult;

/// How many templates one session keeps; the oldest goes first. The
/// benchmark's workloads need one per shape, a handful in all.
const CAPACITY: usize = 64;

/// A statement ready to run, once or many times.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// The statement, with parameter slots if it came from a template.
    pub(crate) statement: Statement,
    /// Its table locks, sorted; `None` when they are worked out at run
    /// time (a one-shot statement: `DROP RECOMMENDER` finds its table
    /// among the recommenders then).
    pub(crate) locks: Option<Vec<(String, LockMode)>>,
    /// A `SELECT`'s optimized plan, once built.
    pub(crate) plan: Option<Planned>,
}

impl Prepared {
    /// `statement` to run once, its locks and plan worked out as it runs.
    pub(crate) fn once(statement: Statement) -> Self {
        Prepared {
            statement,
            locks: None,
            plan: None,
        }
    }
}

/// An optimized plan and the catalog epoch it was built at.
#[derive(Debug)]
pub(crate) struct Planned {
    epoch: u64,
    plan: LogicalPlan,
}

/// The optimized plan of `select` against `catalog`: the one `planned`
/// holds if the catalog's epoch has not moved since it was built, else a
/// new one, kept in `planned`. The caller holds `catalog` read-latched
/// (and the statement's table locks) while it runs the plan.
pub(crate) fn plan<'p>(
    select: &SelectStatement,
    planned: &'p mut Option<Planned>,
    catalog: &Catalog,
) -> EngineResult<&'p LogicalPlan> {
    let epoch = catalog.epoch();
    if planned.as_ref().is_none_or(|p| p.epoch != epoch) {
        let plan = optimize(build_logical(select, catalog)?);
        *planned = Some(Planned { epoch, plan });
    }
    Ok(&planned.as_ref().expect("planned above").plan)
}

/// What the cache did with one statement: the `outcome` label of
/// `recdb_statement_cache_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CacheOutcome {
    /// The template was cached: no parse, and the plan was reused unless
    /// the catalog changed.
    Hit,
    /// The statement was parsed and its template cached.
    Miss,
    /// The statement was parsed and run as today, not cached.
    Uncacheable,
}

impl CacheOutcome {
    pub(crate) const LABELS: [&'static str; 3] = ["hit", "miss", "uncacheable"];
}

/// A bounded map from template to [`Prepared`] statement.
#[derive(Debug, Default)]
pub(crate) struct StatementCache {
    entries: HashMap<String, Prepared>,
    /// Templates in the order they were cached, oldest first.
    order: VecDeque<String>,
}

impl StatementCache {
    /// The statement cached under `template`.
    pub(crate) fn get_mut(&mut self, template: &str) -> Option<&mut Prepared> {
        self.entries.get_mut(template)
    }

    /// Cache `prepared` under `template`, evicting the oldest entry when
    /// full, and hand it back to run.
    pub(crate) fn insert(&mut self, template: String, prepared: Prepared) -> &mut Prepared {
        if self.order.len() == CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(template.clone());
        self.entries.entry(template).or_insert(prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oldest_template_goes_when_the_cache_is_full() {
        let mut cache = StatementCache::default();
        let prepared = || Prepared::once(Statement::Begin);
        for i in 0..=CAPACITY {
            cache.insert(format!("t{i}"), prepared());
        }
        assert_eq!(cache.entries.len(), CAPACITY);
        assert!(cache.get_mut("t0").is_none());
        assert!(cache.get_mut("t1").is_some());
        assert!(cache.get_mut(&format!("t{CAPACITY}")).is_some());
    }
}
