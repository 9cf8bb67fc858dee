//! Index nested-loop join: probe a base-table B-tree index with each
//! outer tuple instead of materializing and hashing the whole inner table.
//!
//! Chosen by the physical planner when the inner side of an equi-join is a
//! base table (optionally with a filter) that has a single-column
//! secondary index on the join column. For selective outer inputs a probe
//! reads the index's tree down to one leaf and one heap page per matching
//! row instead of the full inner relation — the access-path trade-off
//! visible in the buffer pool's hit/miss counters.

use super::PhysicalOp;
use crate::error::{ExecError, ExecResult};
use crate::expr::BoundExpr;
use recdb_guard::QueryGuard;
use recdb_storage::{BTreeIndex, Schema, Table, Tuple};
use std::collections::VecDeque;

/// An index nested-loop join. Output tuples are `outer ++ inner`.
pub struct IndexJoinOp<'a> {
    outer: Box<dyn PhysicalOp + 'a>,
    inner_table: &'a Table,
    index: &'a BTreeIndex,
    schema: Schema,
    /// Ordinal of the probe column in the outer schema.
    outer_ordinal: usize,
    /// Residual predicate over the joined schema (covers any filter on the
    /// inner side plus non-equi join conjuncts).
    residual: Option<BoundExpr>,
    pending: VecDeque<Tuple>,
    guard: QueryGuard,
}

impl<'a> IndexJoinOp<'a> {
    /// Build the operator. `inner_schema` is the inner table's schema
    /// qualified by its query binding.
    pub fn new(
        outer: Box<dyn PhysicalOp + 'a>,
        inner_table: &'a Table,
        index: &'a BTreeIndex,
        inner_schema: &Schema,
        outer_ordinal: usize,
        residual: Option<BoundExpr>,
    ) -> Self {
        let schema = outer.schema().join(inner_schema);
        IndexJoinOp {
            outer,
            inner_table,
            index,
            schema,
            outer_ordinal,
            residual,
            pending: VecDeque::new(),
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor (checked once per probe, output row and
    /// row the index fetches).
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }
}

impl PhysicalOp for IndexJoinOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            if let Some(t) = self.pending.pop_front() {
                return Some(Ok(t));
            }
            let outer_tuple = match self.outer.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            let key = match outer_tuple.get(self.outer_ordinal) {
                Some(key) if !key.is_null() => key,
                _ => continue, // SQL equality: NULL joins nothing
            };
            let tick = || self.guard.tick().map_err(ExecError::from);
            let matches = match self.index.lookup(self.inner_table.heap(), key, tick) {
                Ok(rows) => rows,
                Err(e) => return Some(Err(e)),
            };
            for (_, inner_tuple) in matches {
                let joined = outer_tuple.join(&inner_tuple);
                match &self.residual {
                    None => self.pending.push_back(joined),
                    Some(p) => match p.eval_predicate(&joined) {
                        Ok(true) => self.pending.push_back(joined),
                        Ok(false) => {}
                        Err(e) => return Some(Err(e)),
                    },
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "IndexJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::bind;
    use crate::ops::{drain, ValuesOp};
    use recdb_sql::parse;
    use recdb_storage::{Catalog, Column, DataType, Value};

    fn outer_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
        ])
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let movies = cat
            .create_table(
                "movies",
                Schema::from_pairs(&[
                    ("mid", DataType::Int),
                    ("name", DataType::Text),
                    ("genre", DataType::Text),
                ]),
            )
            .unwrap();
        for (mid, name, genre) in [
            (10, "Spartacus", "Action"),
            (11, "Inception", "Suspense"),
            (12, "The Matrix", "Sci-Fi"),
            (10, "Spartacus (1960)", "Action"), // duplicate key
        ] {
            movies
                .insert(Tuple::new(vec![
                    Value::Int(mid),
                    Value::Text(name.into()),
                    Value::Text(genre.into()),
                ]))
                .unwrap();
        }
        movies.create_index("movies_mid", &["mid"]).unwrap();
        cat
    }

    fn outer_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10)]),
            Tuple::new(vec![Value::Int(1), Value::Int(12)]),
            Tuple::new(vec![Value::Int(2), Value::Null]),
            Tuple::new(vec![Value::Int(2), Value::Int(99)]),
        ]
    }

    #[test]
    fn probes_match_hash_join_semantics() {
        let cat = catalog();
        let table = cat.table("movies").unwrap();
        let index = table.index("movies_mid").unwrap();
        let inner_schema = table.schema().with_qualifier("M");
        let outer = Box::new(ValuesOp::new(outer_schema(), outer_rows()));
        let mut op = IndexJoinOp::new(outer, table, index, &inner_schema, 1, None);
        let got = drain(&mut op).unwrap();
        // iid 10 matches two movies, iid 12 one, NULL and 99 none.
        assert_eq!(got.len(), 3);
        for t in &got {
            assert_eq!(t.get(1), t.get(2), "join key equality");
            assert_eq!(t.arity(), 5);
        }
    }

    #[test]
    fn residual_filters_joined_rows() {
        let cat = catalog();
        let table = cat.table("movies").unwrap();
        let index = table.index("movies_mid").unwrap();
        let inner_schema = table.schema().with_qualifier("M");
        let joined = outer_schema().join(&inner_schema);
        let recdb_sql::Statement::Select(s) =
            parse("SELECT * FROM t WHERE M.genre = 'Action'").unwrap()
        else {
            panic!()
        };
        let residual = bind(&s.filter.unwrap(), &joined, &[]).unwrap();
        let outer = Box::new(ValuesOp::new(outer_schema(), outer_rows()));
        let mut op = IndexJoinOp::new(outer, table, index, &inner_schema, 1, Some(residual));
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 2, "only the two Action duplicates of mid 10");
    }

    #[test]
    fn index_join_fetches_one_page_per_match() {
        // A probe descends the index's tree to one leaf, then fetches the
        // heap page of each matching rid — it never scans the table.
        let cat = catalog();
        let table = cat.table("movies").unwrap();
        let index = table.index("movies_mid").unwrap();
        let height = u64::from(index.tree().height().unwrap());
        let inner_schema = table.schema().with_qualifier("M");
        let accesses = || cat.pool().hits() + cat.pool().misses();
        let before = accesses();
        let outer = Box::new(ValuesOp::new(
            outer_schema(),
            vec![Tuple::new(vec![Value::Int(1), Value::Int(12)])],
        ));
        let mut op = IndexJoinOp::new(outer, table, index, &inner_schema, 1, None);
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(accesses() - before, height + 1, "the descent and one tuple");
    }
}
