//! The counters every statement and transaction bumps, resolved from the
//! registry once at open.
//!
//! Invariant: each `LABELS` array lists its enum's variants in declaration
//! order, so a series vector indexed by `kind as usize` yields that kind's
//! counter.

use crate::statement_cache::CacheOutcome;
use recdb_obs::{Counter, Registry};
use recdb_sql::Statement;
use std::sync::Arc;

/// What a statement is: the `kind` label of `recdb_statements_total`.
#[derive(Debug, Clone, Copy)]
pub(super) enum StatementKind {
    CreateTable,
    DropTable,
    Insert,
    CreateRecommender,
    DropRecommender,
    Delete,
    Update,
    CreateIndex,
    DropIndex,
    Explain,
    ExplainAnalyze,
    Select,
    Begin,
    Commit,
    Rollback,
}

impl StatementKind {
    const LABELS: [&'static str; 15] = [
        "create_table",
        "drop_table",
        "insert",
        "create_recommender",
        "drop_recommender",
        "delete",
        "update",
        "create_index",
        "drop_index",
        "explain",
        "explain_analyze",
        "select",
        "begin",
        "commit",
        "rollback",
    ];

    pub(super) fn of(statement: &Statement) -> Self {
        match statement {
            Statement::CreateTable { .. } => StatementKind::CreateTable,
            Statement::DropTable { .. } => StatementKind::DropTable,
            Statement::Insert { .. } => StatementKind::Insert,
            Statement::CreateRecommender { .. } => StatementKind::CreateRecommender,
            Statement::DropRecommender { .. } => StatementKind::DropRecommender,
            Statement::Delete { .. } => StatementKind::Delete,
            Statement::Update { .. } => StatementKind::Update,
            Statement::CreateIndex { .. } => StatementKind::CreateIndex,
            Statement::DropIndex { .. } => StatementKind::DropIndex,
            Statement::Explain(_) => StatementKind::Explain,
            Statement::ExplainAnalyze(_) => StatementKind::ExplainAnalyze,
            Statement::Select(_) => StatementKind::Select,
            Statement::Begin => StatementKind::Begin,
            Statement::Commit => StatementKind::Commit,
            Statement::Rollback => StatementKind::Rollback,
        }
    }
}

/// How a transaction finished: the `outcome` label of `recdb_txn_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TxnOutcome {
    Commit,
    Abort,
    /// Killed by a lock wait that ran out of budget.
    Timeout,
}

impl TxnOutcome {
    const LABELS: [&'static str; 3] = ["commit", "abort", "timeout"];
}

/// The counters every statement bumps, resolved from the registry once at
/// open (a lookup by name formats the series key and takes the registry
/// lock): `recdb_statements_total{kind}` indexed by [`StatementKind`],
/// `recdb_txn_total{outcome}` indexed by [`TxnOutcome`],
/// `recdb_statement_cache_total{outcome}` indexed by [`CacheOutcome`].
#[derive(Debug)]
pub(super) struct StatementMetrics {
    pub(super) statements: Vec<Arc<Counter>>,
    pub(super) txns: Vec<Arc<Counter>>,
    pub(super) cache: Vec<Arc<Counter>>,
}

impl StatementMetrics {
    pub(super) fn resolve(registry: &Registry) -> Self {
        let series = |name, label, values: &[&str]| {
            values
                .iter()
                .map(|value| registry.counter_with(name, &[(label, value)]))
                .collect()
        };
        StatementMetrics {
            statements: series("recdb_statements_total", "kind", &StatementKind::LABELS),
            txns: series("recdb_txn_total", "outcome", &TxnOutcome::LABELS),
            cache: series(
                "recdb_statement_cache_total",
                "outcome",
                &CacheOutcome::LABELS,
            ),
        }
    }
}
