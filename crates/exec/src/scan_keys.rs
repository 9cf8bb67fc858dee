//! Scan keys: the part of a predicate a sequential scan tests on the page
//! bytes, before a row is decoded.
//!
//! A predicate directly over a base table is split, conjunct by conjunct,
//! into **keys** — `column ⋈ constant` or `constant ⋈ column` for
//! `= <> < <= > >=` — and a **residual** (everything else, re-joined with
//! `AND` in its original order). The scan decodes only the rows every key
//! accepts and evaluates the residual on those, so a residual error
//! surfaces only for rows that pass the keys. The rule is syntactic, like
//! the rest of the optimizer: no statistics, no cost model.

use crate::error::ExecResult;
use crate::expr::{bind, comparison, BoundExpr};
use recdb_sql::{BinaryOp, Expr};
use recdb_storage::{RowRef, Schema, StorageResult, Value};
use std::cmp::Ordering;

/// `column ⋈ constant`, decided on one encoded row.
#[derive(Debug)]
pub(crate) struct ScanKey {
    column: usize,
    /// Whether an ordering of the column's value against `constant`
    /// satisfies the comparison.
    holds: fn(Ordering) -> bool,
    constant: Value,
}

impl ScanKey {
    /// `conjunct` as a key, if it compares a column with a literal. With
    /// the literal on the left the operator is mirrored: `5 < c` is
    /// `c > 5`.
    fn from_conjunct(conjunct: &BoundExpr) -> Option<ScanKey> {
        let BoundExpr::Binary { op, left, right } = conjunct else {
            return None;
        };
        let (column, constant, op) = match (&**left, &**right) {
            (BoundExpr::Column(column), BoundExpr::Literal(constant)) => (*column, constant, *op),
            (BoundExpr::Literal(constant), BoundExpr::Column(column)) => {
                let mirrored = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::Le => BinaryOp::Ge,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::Ge => BinaryOp::Le,
                    symmetric => *symmetric,
                };
                (*column, constant, mirrored)
            }
            _ => return None,
        };
        Some(ScanKey {
            column,
            holds: comparison(op)?,
            constant: constant.clone(),
        })
    }

    /// Whether `row` satisfies the key. A NULL on either side is NULL under
    /// three-valued logic, which a filter rejects.
    fn accepts(&self, row: RowRef<'_>) -> StorageResult<bool> {
        let value = row.column(self.column)?;
        let constant = self.constant.as_value_ref();
        Ok(!value.is_null() && !constant.is_null() && (self.holds)(value.total_cmp(constant)))
    }

    /// Whether `row` satisfies every key.
    pub(crate) fn accept_all(keys: &[ScanKey], row: RowRef<'_>) -> StorageResult<bool> {
        for key in keys {
            if !key.accepts(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Bind `predicate` against `schema` and split it into scan keys and the
/// residual.
pub(crate) fn split(
    predicate: &Expr,
    schema: &Schema,
) -> ExecResult<(Vec<ScanKey>, Option<BoundExpr>)> {
    let mut keys = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    for conjunct in predicate.conjuncts() {
        let bound = bind(conjunct, schema)?;
        match ScanKey::from_conjunct(&bound) {
            Some(key) => keys.push(key),
            None => {
                residual = Some(match residual {
                    None => bound,
                    Some(earlier) => BoundExpr::Binary {
                        op: BinaryOp::And,
                        left: Box::new(earlier),
                        right: Box::new(bound),
                    },
                })
            }
        }
    }
    Ok((keys, residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use crate::ops::{drain, FilterOp, PhysicalOp, ScanOp, ValuesOp};
    use proptest::prelude::*;
    use recdb_guard::QueryGuard;
    use recdb_sql::Literal;
    use recdb_storage::{Column, DataType, HeapTable, Rid, Tuple};

    const TYPES: [DataType; 6] = [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
        DataType::Point,
        DataType::Rect,
    ];
    const FLOATS: [f64; 6] = [-1.0, 0.0, 1.0, 2.0, 2.5, f64::NAN];
    /// Empty, multi-byte, and (last) long enough that a few rows fill a page.
    const TEXTS: [&str; 6] = ["", "a", "ab", "é", "日本語", "long"];

    fn text(d: usize) -> String {
        match TEXTS[d % 6] {
            "long" => "x".repeat(1500),
            short => short.to_owned(),
        }
    }

    /// A cell of type `ty` from a raw draw: NULL one time in five, and
    /// small domains so that equalities (also `Int` against `Float`) hit.
    fn cell(ty: DataType, draw: usize) -> Value {
        if draw.is_multiple_of(5) {
            return Value::Null;
        }
        let d = draw / 5;
        match ty {
            DataType::Int => Value::Int((d % 6) as i64 - 2),
            DataType::Float => Value::Float(FLOATS[d % 6]),
            DataType::Text => Value::Text(text(d)),
            DataType::Bool => Value::Bool(d.is_multiple_of(2)),
            DataType::Point => Value::Point((d % 3) as f64, (d / 3 % 2) as f64),
            DataType::Rect => Value::Rect(0.0, 0.0, (d % 3) as f64, 1.0),
        }
    }

    /// A constant of any literal type, whatever the column it meets.
    fn literal(draw: usize) -> Expr {
        let d = draw / 5;
        Expr::Literal(match draw % 5 {
            0 => Literal::Null,
            1 => Literal::Int((d % 6) as i64 - 2),
            2 => Literal::Float(FLOATS[d % 6]),
            3 => Literal::Str(text(d % 5)),
            _ => Literal::Bool(d.is_multiple_of(2)),
        })
    }

    fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    const COMPARISONS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];

    /// One conjunct from raw draws, and whether it has the shape of a key.
    fn atom((a, b, c, shape): (usize, usize, usize, usize), columns: usize) -> (Expr, bool) {
        let col = |draw: usize| Expr::qcol("T", &format!("c{}", draw % columns));
        let cmp = |draw: usize| COMPARISONS[draw % 6];
        match shape % 10 {
            0..=3 => (binary(cmp(c), col(a), literal(b)), true),
            4 | 5 => (binary(cmp(c), literal(b), col(a)), true),
            // Errors for every non-NULL value of the column.
            6 => {
                let quotient = binary(BinaryOp::Div, col(a), Expr::int(0));
                (binary(BinaryOp::Eq, quotient, Expr::int(1)), false)
            }
            7 => {
                let list = vec![literal(b), literal(c)];
                let (expr, negated) = (Box::new(col(a)), c.is_multiple_of(2));
                (
                    Expr::InList {
                        expr,
                        list,
                        negated,
                    },
                    false,
                )
            }
            8 => {
                let either = binary(cmp(c), col(a), literal(b));
                let or = binary(cmp(b), col(c), literal(a));
                (binary(BinaryOp::Or, either, or), false)
            }
            // Errors unless the column is numeric.
            _ => {
                let sum = binary(BinaryOp::Add, col(a), Expr::int(1));
                (binary(cmp(c), sum, literal(b)), false)
            }
        }
    }

    /// The predicate over `atoms` and the conjuncts a scan must see in it:
    /// a left- or right-nested `AND` chain, or one `OR` of two chains
    /// (a single conjunct, so nothing in it is a key).
    fn predicate(atoms: Vec<(Expr, bool)>, nesting: usize) -> (Expr, Vec<(Expr, bool)>) {
        let chain = |atoms: &[(Expr, bool)], right_nested: bool| {
            let mut exprs = atoms.iter().map(|(e, _)| e.clone());
            if right_nested {
                let last = exprs.next_back().expect("at least one atom");
                exprs.rfold(last, |acc, e| binary(BinaryOp::And, e, acc))
            } else {
                let first = exprs.next().expect("at least one atom");
                exprs.fold(first, |acc, e| binary(BinaryOp::And, acc, e))
            }
        };
        match nesting % 4 {
            3 => {
                let (head, tail) = atoms.split_at(atoms.len() / 2);
                let head = if head.is_empty() { tail } else { head };
                let or = binary(BinaryOp::Or, chain(head, false), chain(tail, true));
                (or.clone(), vec![(or, false)])
            }
            n => (chain(&atoms, n == 2), atoms),
        }
    }

    /// What the fused scan must return, from first principles: a row is
    /// kept when every key conjunct is TRUE and then every residual
    /// conjunct is; residual conjuncts run in order, only on rows the keys
    /// accept, up to the first FALSE; the first failing one fails the scan.
    fn model(
        rows: &[(Rid, Tuple)],
        conjuncts: &[(Expr, bool)],
        schema: &Schema,
    ) -> ExecResult<Vec<(Rid, Tuple)>> {
        let bound: Vec<(BoundExpr, bool)> = conjuncts
            .iter()
            .map(|(e, is_key)| Ok((bind(e, schema)?, *is_key)))
            .collect::<ExecResult<_>>()?;
        let mut kept = Vec::new();
        'rows: for (rid, tuple) in rows {
            for (key, _) in bound.iter().filter(|(_, is_key)| *is_key) {
                if !key.eval_predicate(tuple).expect("a comparison never fails") {
                    continue 'rows;
                }
            }
            let mut all_true = true;
            for (residual, _) in bound.iter().filter(|(_, is_key)| !*is_key) {
                match residual.eval(tuple)? {
                    Value::Bool(true) => {}
                    Value::Bool(false) => continue 'rows,
                    Value::Null => all_true = false,
                    other => panic!("conjunct evaluated to {other}"),
                }
            }
            if all_true {
                kept.push((*rid, tuple.clone()));
            }
        }
        Ok(kept)
    }

    proptest! {
        /// The fused scan against the operator pair it replaces, and
        /// against the model above where that pair fails on a row the keys
        /// would have rejected first.
        #[test]
        fn fused_scan_matches_filter_over_scan(
            types in prop::collection::vec(0usize..6, 1..5),
            cells in prop::collection::vec(prop::collection::vec(0usize..3000, 5), 0..120),
            deleted in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
            atoms in prop::collection::vec((0usize..3000, 0usize..3000, 0usize..3000, 0usize..10), 1..5),
            nesting in 0usize..4,
        ) {
            // The random columns, then a Text column whose long values
            // spread the rows over several pages.
            let types: Vec<DataType> =
                types.iter().map(|&t| TYPES[t]).chain([DataType::Text]).collect();
            let schema = Schema::new(
                types.iter().enumerate().map(|(i, &ty)| Column::qualified("T", format!("c{i}"), ty)).collect(),
            );
            let mut heap = HeapTable::new(schema.clone());
            let mut rids = Vec::new();
            for row in &cells {
                let values = types.iter().zip(row).map(|(&ty, &draw)| cell(ty, draw)).collect();
                rids.push(heap.insert(Tuple::new(values)).unwrap());
            }
            for index in &deleted {
                if !rids.is_empty() {
                    let rid = rids.swap_remove(index.index(rids.len()));
                    heap.delete(rid).unwrap();
                }
            }
            let live: Vec<(Rid, Tuple)> = heap.scan().collect();
            prop_assert_eq!(live.len(), rids.len());

            let atoms = atoms.into_iter().map(|draws| atom(draws, types.len())).collect();
            let (predicate, conjuncts) = predicate(atoms, nesting);
            let case = format!("{predicate:?} over {types:?}");

            let guard = QueryGuard::unlimited();
            let accesses = || heap.pool().hits() + heap.pool().misses();
            let before = accesses();
            let mut fused = ScanOp::new(&heap, schema.clone())
                .with_filter(&predicate)
                .unwrap()
                .with_guard(guard.clone());
            let got = drain(&mut fused);
            if got.is_ok() {
                prop_assert_eq!(guard.rows_used(), live.len() as u64 + 1, "{}", case);
                prop_assert_eq!(accesses() - before, heap.page_count() as u64, "{}", case);
            }

            let want = model(&live, &conjuncts, &schema);
            let tuples = |rows: Vec<(Rid, Tuple)>| rows.into_iter().map(|(_, t)| t).collect::<Vec<_>>();
            prop_assert_eq!(&got, &want.clone().map(tuples), "{}", case);

            // The oracle: σ over an unfused scan. Where it succeeds the
            // fused scan returns its rows in its order; it fails on a
            // superset of the inputs the fused scan fails on.
            let unfused = ValuesOp::new(schema.clone(), tuples(live.clone()));
            let mut oracle = FilterOp::new(Box::new(unfused), bind(&predicate, &schema).unwrap());
            if let Ok(rows) = drain(&mut oracle) {
                prop_assert_eq!(&got, &Ok(rows), "{}", case);
            }

            // UPDATE and DELETE take the same rows with their record ids,
            // billing the live rows and no end-of-stream unit.
            let guard = QueryGuard::unlimited();
            let dml = ScanOp::new(&heap, schema.clone())
                .with_filter(&predicate)
                .unwrap()
                .with_guard(guard.clone())
                .matching_rows();
            if dml.is_ok() {
                prop_assert_eq!(guard.rows_used(), live.len() as u64, "{}", case);
            }
            prop_assert_eq!(dml, want, "{}", case);
        }
    }

    /// The parsed `WHERE` clause `src`.
    fn where_clause(src: &str) -> Expr {
        let recdb_sql::Statement::Select(s) =
            recdb_sql::parse(&format!("SELECT * FROM t WHERE {src}")).unwrap()
        else {
            panic!()
        };
        s.filter.unwrap()
    }

    fn split_sql(src: &str, schema: &Schema) -> (usize, Option<BoundExpr>) {
        let (keys, residual) = split(&where_clause(src), schema).unwrap();
        (keys.len(), residual)
    }

    #[test]
    fn which_conjuncts_become_keys() {
        let schema = Schema::from_pairs(&[("uid", DataType::Int), ("name", DataType::Text)]);
        let bound = |src: &str| split_sql(src, &schema).1.unwrap();
        assert_eq!(split_sql("uid = 3", &schema), (1, None));
        assert_eq!(split_sql("'b' >= name AND uid <> NULL", &schema), (2, None));
        assert_eq!(
            split_sql("uid = 3 AND uid + 1 > 2 AND 4 > uid", &schema),
            (2, Some(bound("uid + 1 > 2")))
        );
        // Residual conjuncts keep their order.
        assert_eq!(
            split_sql("uid / 0 = 1 AND (name = 'a' AND uid IN (1, 2))", &schema),
            (1, Some(bound("uid / 0 = 1 AND uid IN (1, 2)")))
        );
        // Not `column ⋈ constant`: two columns, a computed side, `OR`, `-1`
        // (a negation, not a literal), `BETWEEN`.
        for residual in [
            "uid = uid",
            "uid * 2 = 4",
            "uid = 3 OR uid = 4",
            "uid = -1",
            "uid BETWEEN 1 AND 2",
        ] {
            assert_eq!(split_sql(residual, &schema), (0, Some(bound(residual))));
        }
    }

    #[test]
    fn a_residual_error_surfaces_only_for_rows_the_keys_accept() {
        let schema = Schema::from_pairs(&[("uid", DataType::Int)]);
        let mut heap = HeapTable::new(schema.clone());
        for uid in [1, 2, 3] {
            heap.insert(Tuple::new(vec![Value::Int(uid)])).unwrap();
        }
        let scan = |src: &str| {
            let mut op = ScanOp::new(&heap, schema.clone())
                .with_filter(&where_clause(src))
                .unwrap();
            drain(&mut op).map(|rows| rows.len())
        };
        assert_eq!(scan("uid / 0 = 1 AND uid = 9"), Ok(0));
        assert_eq!(
            scan("uid = 2 AND uid / 0 = 1"),
            Err(ExecError::DivisionByZero)
        );
    }

    /// A page of `Text` rows the key rejects is read where it lies: the
    /// scan allocates nothing for it.
    #[test]
    fn rejected_text_rows_allocate_nothing() {
        let schema = Schema::from_pairs(&[("mid", DataType::Int), ("genre", DataType::Text)]);
        let mut heap = HeapTable::new(schema.clone());
        for mid in 0..100 {
            let genre = Value::Text(format!("genre-{}", mid % 7));
            heap.insert(Tuple::new(vec![Value::Int(mid), genre]))
                .unwrap();
        }
        assert_eq!(heap.page_count(), 1);
        let mut op = ScanOp::new(&heap, schema)
            .with_filter(&where_clause("genre = 'Crime' AND 'genre-9' < genre"))
            .unwrap();
        let (end, allocations) = crate::alloc_count::allocations_in(|| op.next());
        assert!(end.is_none());
        assert_eq!(allocations, 0);
    }
}
