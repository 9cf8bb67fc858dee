//! The bodies of INSERT, DELETE and UPDATE: each turns its statement into
//! one redo record and hands it to `RecDb::write`.
//!
//! Invariant: a DELETE or UPDATE finds its rows with a complete scan
//! before anything is saved or logged, so a statement the governor stops
//! leaves the table and the WAL untouched.

use super::RecDb;
use crate::error::{EngineError, EngineResult};
use crate::recommender::Recommender;
use crate::session::TxnState;
use recdb_exec::expr::{bind, constant, literal_value};
use recdb_exec::ops::ScanOp;
use recdb_guard::QueryGuard;
use recdb_sql::{Expr, Literal};
use recdb_storage::{Catalog, DataType, Rid, Schema, Table, Tuple};
use recdb_txn::LockMode;
use recdb_wal::WalRecord;
use std::sync::Arc;

impl RecDb {
    /// The rows of table `t` a DELETE or UPDATE with `filter` acts on (all
    /// rows when `None`), in heap order: the scan a same-predicate SELECT
    /// runs, billing `guard` page by page. It completes before any page
    /// pre-image is saved or record logged: a statement the governor
    /// refuses leaves the table and the WAL untouched.
    fn matching_rows(
        t: &Table,
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<Vec<(Rid, Tuple)>> {
        let scan = ScanOp::new(t.heap(), t.schema().clone(), guard.clone());
        let scan = match filter {
            Some(filter) => scan.with_filter(filter, &[])?,
            None => scan,
        };
        Ok(scan.matching_rows()?)
    }

    /// Delete rows matching `filter` (all rows when `None`). Recommender
    /// statistics and the N% rule are deferred to commit.
    pub(super) fn delete_where(
        &self,
        state: &mut TxnState,
        table: &str,
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<usize> {
        let (rids, touched) = {
            let catalog = self.catalog.read();
            let rows = Self::matching_rows(catalog.table(table)?, filter, guard)?;
            let touched = self.touched_items(&catalog, table, rows.iter().map(|(_, t)| t))?;
            let rids: Vec<Rid> = rows.into_iter().map(|(rid, _)| rid).collect();
            (rids, touched)
        };
        let n = rids.len();
        let record = WalRecord::Delete {
            table: table.to_ascii_lowercase(),
            rids,
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }

    /// Rewrite rows matching `filter` with the SET assignments applied.
    pub(super) fn update_where(
        &self,
        state: &mut TxnState,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
        guard: &QueryGuard,
    ) -> EngineResult<usize> {
        let (rids, new_tuples, touched) = {
            let catalog = self.catalog.read();
            let t = catalog.table(table)?;
            let sets: Vec<(usize, recdb_exec::BoundExpr)> = assignments
                .iter()
                .map(|(col, e)| Ok((t.schema().resolve(col)?, bind(e, t.schema(), &[])?)))
                .collect::<EngineResult<_>>()?;
            let mut rids = Vec::new();
            let mut new_tuples = Vec::new();
            for (rid, tuple) in Self::matching_rows(t, filter, guard)? {
                let mut values = tuple.clone().into_values();
                for (ordinal, expr) in &sets {
                    values[*ordinal] = expr.eval(&tuple)?;
                }
                rids.push(rid);
                new_tuples.push(Tuple::new(values));
            }
            let touched = self.touched_items(&catalog, table, &new_tuples)?;
            (rids, new_tuples, touched)
        };
        let n = rids.len();
        let record = WalRecord::Update {
            table: table.to_ascii_lowercase(),
            changes: rids.into_iter().zip(new_tuples).collect(),
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }

    /// The `(recommender, item id)` pairs `tuples` of `table` touch, for
    /// the recommenders created on it — what commit feeds their statistics
    /// and the N% rule.
    fn touched_items<'t>(
        &self,
        catalog: &Catalog,
        table: &str,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> EngineResult<Vec<(Arc<Recommender>, i64)>> {
        let table_key = table.to_ascii_lowercase();
        let t = catalog.table(table)?;
        let item_ordinals: Vec<(Arc<Recommender>, usize)> = self
            .recommenders
            .read()
            .iter()
            .filter(|r| r.ratings_table() == table_key)
            .map(|r| Ok((Arc::clone(r), t.schema().resolve(&r.def().items)?)))
            .collect::<EngineResult<_>>()?;
        let mut touched = Vec::new();
        for tuple in tuples {
            for (rec, ord) in &item_ordinals {
                if let Some(item) = tuple.get(*ord).and_then(recdb_storage::Value::as_int) {
                    touched.push((Arc::clone(rec), item));
                }
            }
        }
        Ok(touched)
    }

    /// Insert pre-built tuples into a table as one auto-committed
    /// transaction, updating recommender statistics and running the N%
    /// maintenance rule. This is also the bulk-loading path used by the
    /// dataset loaders.
    pub fn insert_tuples(&self, table: &str, tuples: Vec<Tuple>) -> EngineResult<usize> {
        let guard = self.config.governor.guard();
        let lock = [(table.to_ascii_lowercase(), LockMode::Exclusive)];
        self.run_in_txn(&mut TxnState::default(), &guard, |state| {
            self.acquire_locks(state, &lock, &guard)?;
            self.insert_into(state, table, tuples)
        })
    }

    /// The INSERT body: the tuples' items for the N% rule, then the one
    /// write path. Callers hold the table's X lock.
    pub(super) fn insert_into(
        &self,
        state: &mut TxnState,
        table: &str,
        tuples: Vec<Tuple>,
    ) -> EngineResult<usize> {
        let n = tuples.len();
        let touched = self.touched_items(&self.catalog.read(), table, &tuples)?;
        let record = WalRecord::Insert {
            table: table.to_ascii_lowercase(),
            tuples,
        };
        self.write(Self::active(state), record, touched)?;
        Ok(n)
    }
}

/// Map a SQL type name to a [`DataType`], with common synonyms.
pub(super) fn map_type(name: &str) -> EngineResult<DataType> {
    match name.to_ascii_lowercase().as_str() {
        "int" | "integer" | "bigint" | "smallint" => Ok(DataType::Int),
        "float" | "real" | "double" | "numeric" | "decimal" => Ok(DataType::Float),
        "text" | "varchar" | "char" | "string" => Ok(DataType::Text),
        "bool" | "boolean" => Ok(DataType::Bool),
        "point" | "geometry" => Ok(DataType::Point),
        "rect" | "region" => Ok(DataType::Rect),
        other => Err(EngineError::UnknownType(other.to_owned())),
    }
}

/// Evaluate an INSERT row of constant expressions to a tuple, its
/// parameter slots valued from `params`.
pub(super) fn const_tuple(row: &[Expr], params: &[Literal]) -> EngineResult<Tuple> {
    let empty_schema = Schema::default();
    let empty_tuple = Tuple::default();
    let mut values = Vec::with_capacity(row.len());
    for expr in row {
        // A fast path for plain constants avoids the bind machinery.
        if let Some(value) = constant(expr, params) {
            values.push(literal_value(value?));
            continue;
        }
        let bound = bind(expr, &empty_schema, params)
            .map_err(|e| EngineError::NonConstantInsert(e.to_string()))?;
        let value = bound
            .eval(&empty_tuple)
            .map_err(|e| EngineError::NonConstantInsert(e.to_string()))?;
        values.push(value);
    }
    Ok(Tuple::new(values))
}
