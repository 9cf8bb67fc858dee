//! Inner join: hash join on one extracted equi-condition, falling back to
//! block nested loop when no equality is available.

use super::PhysicalOp;
use crate::error::ExecResult;
use crate::expr::BoundExpr;
use recdb_guard::QueryGuard;
use recdb_storage::{Schema, Tuple, Value};
use std::collections::HashMap;

/// An inner join operator. The right input is materialized at open time
/// (build side); the left input streams (probe side).
pub struct JoinOp<'a> {
    left: Box<dyn PhysicalOp + 'a>,
    schema: Schema,
    /// `(left ordinal, right ordinal)` for the hash path.
    equi: Option<(usize, usize)>,
    /// Residual predicate bound against the joined schema.
    residual: Option<BoundExpr>,
    right_rows: Vec<Tuple>,
    /// Hash table over the build side (populated when `equi` is set):
    /// key value → row indexes in `right_rows`.
    hash: HashMap<Value, Vec<usize>>,
    built: bool,
    current_left: Option<Tuple>,
    /// Pending matches for the current probe tuple (indexes into
    /// `right_rows`), consumed in order.
    match_queue: std::vec::IntoIter<usize>,
    right_source: Option<Box<dyn PhysicalOp + 'a>>,
    guard: QueryGuard,
}

impl<'a> JoinOp<'a> {
    /// Construct a join. `equi` is a pair of ordinals (left-side ordinal in
    /// the left schema, right-side ordinal in the right schema) for a hash
    /// join; `residual` is any remaining predicate over the joined schema.
    pub fn new(
        left: Box<dyn PhysicalOp + 'a>,
        right: Box<dyn PhysicalOp + 'a>,
        equi: Option<(usize, usize)>,
        residual: Option<BoundExpr>,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        JoinOp {
            left,
            schema,
            equi,
            residual,
            right_rows: Vec::new(),
            hash: HashMap::new(),
            built: false,
            current_left: None,
            match_queue: Vec::new().into_iter(),
            right_source: Some(right),
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor: the build-side drain ticks per row
    /// and charges each buffered row's encoded size against the memory
    /// budget; the probe loop ticks per probe tuple.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    fn build(&mut self) -> ExecResult<()> {
        let mut right = self.right_source.take().expect("build runs once");
        while let Some(t) = right.next() {
            let tuple = t?;
            self.guard.tick()?;
            self.guard.charge_mem(tuple.encoded_size() as u64)?;
            if let Some((_, r_ord)) = self.equi {
                let key = tuple.get(r_ord).cloned().unwrap_or(Value::Null);
                // NULL keys never match in SQL equality; skip them.
                if !key.is_null() {
                    self.hash
                        .entry(key)
                        .or_default()
                        .push(self.right_rows.len());
                }
            }
            self.right_rows.push(tuple);
        }
        self.built = true;
        Ok(())
    }

    fn matches_for(&self, left: &Tuple) -> Vec<usize> {
        match self.equi {
            Some((l_ord, _)) => {
                let key = left.get(l_ord).cloned().unwrap_or(Value::Null);
                if key.is_null() {
                    return Vec::new();
                }
                self.hash.get(&key).cloned().unwrap_or_default()
            }
            None => (0..self.right_rows.len()).collect(),
        }
    }
}

impl PhysicalOp for JoinOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if !self.built {
            if let Err(e) = self.build() {
                return Some(Err(e));
            }
        }
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            if let Some(left) = &self.current_left {
                for idx in self.match_queue.by_ref() {
                    let joined = left.join(&self.right_rows[idx]);
                    match &self.residual {
                        None => return Some(Ok(joined)),
                        Some(p) => match p.eval_predicate(&joined) {
                            Ok(true) => return Some(Ok(joined)),
                            Ok(false) => continue,
                            Err(e) => return Some(Err(e)),
                        },
                    }
                }
                self.current_left = None;
            }
            let left = match self.left.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            self.match_queue = self.matches_for(&left).into_iter();
            self.current_left = Some(left);
        }
    }

    fn name(&self) -> &'static str {
        if self.equi.is_some() {
            "HashJoin"
        } else {
            "NestedLoopJoin"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::bind;
    use crate::ops::{drain, ValuesOp};
    use recdb_sql::parse;
    use recdb_storage::{Column, DataType};

    fn left_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
        ])
    }

    fn right_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("M", "mid", DataType::Int),
            Column::qualified("M", "genre", DataType::Text),
        ])
    }

    fn left_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10)]),
            Tuple::new(vec![Value::Int(1), Value::Int(11)]),
            Tuple::new(vec![Value::Int(2), Value::Int(10)]),
            Tuple::new(vec![Value::Int(3), Value::Null]),
        ]
    }

    fn right_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(10), Value::Text("Action".into())]),
            Tuple::new(vec![Value::Int(11), Value::Text("Sci-Fi".into())]),
            Tuple::new(vec![Value::Int(12), Value::Text("Action".into())]),
        ]
    }

    fn make(equi: Option<(usize, usize)>, residual_sql: Option<&str>) -> JoinOp<'static> {
        let left = Box::new(ValuesOp::new(left_schema(), left_rows()));
        let right = Box::new(ValuesOp::new(right_schema(), right_rows()));
        let joined_schema = left_schema().join(&right_schema());
        let residual = residual_sql.map(|src| {
            let recdb_sql::Statement::Select(s) =
                parse(&format!("SELECT * FROM t WHERE {src}")).unwrap()
            else {
                panic!()
            };
            bind(&s.filter.unwrap(), &joined_schema, &[]).unwrap()
        });
        JoinOp::new(left, right, equi, residual)
    }

    #[test]
    fn hash_join_on_equality() {
        let mut op = make(Some((1, 0)), None); // R.iid = M.mid
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 3, "three rating rows match a movie");
        for t in &got {
            assert_eq!(t.get(1), t.get(2), "iid equals mid in every output");
            assert_eq!(t.arity(), 4);
        }
    }

    #[test]
    fn null_keys_never_match() {
        let mut op = make(Some((1, 0)), None);
        let got = drain(&mut op).unwrap();
        assert!(got.iter().all(|t| t.get(0).unwrap() != &Value::Int(3)));
    }

    #[test]
    fn residual_filters_joined_rows() {
        let mut op = make(Some((1, 0)), Some("M.genre = 'Action'"));
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 2);
        for t in &got {
            assert_eq!(t.get(3).unwrap().as_text(), Some("Action"));
        }
    }

    #[test]
    fn nested_loop_cross_product() {
        let mut op = make(None, None);
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 4 * 3);
    }

    #[test]
    fn nested_loop_with_non_equi_predicate() {
        let mut op = make(None, Some("R.iid < M.mid"));
        let got = drain(&mut op).unwrap();
        // (10 < 11), (10 < 12), (11 < 12), (10 < 11), (10 < 12) rows:
        // left (1,10): matches mid 11, 12 → 2
        // left (1,11): matches mid 12 → 1
        // left (2,10): matches mid 11, 12 → 2
        // left (3,NULL): comparison is NULL → rejected
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn empty_sides() {
        let left = Box::new(ValuesOp::new(left_schema(), Vec::new()));
        let right = Box::new(ValuesOp::new(right_schema(), right_rows()));
        let mut op = JoinOp::new(left, right, Some((1, 0)), None);
        assert!(drain(&mut op).unwrap().is_empty());

        let left = Box::new(ValuesOp::new(left_schema(), left_rows()));
        let right = Box::new(ValuesOp::new(right_schema(), Vec::new()));
        let mut op = JoinOp::new(left, right, Some((1, 0)), None);
        assert!(drain(&mut op).unwrap().is_empty());
    }

    #[test]
    fn schema_concatenates() {
        let op = make(Some((1, 0)), None);
        assert_eq!(op.schema().arity(), 4);
        assert_eq!(op.schema().resolve("M.genre").unwrap(), 3);
    }
}
