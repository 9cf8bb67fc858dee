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
//!
//! A key is compiled once, when `split` builds it: its operator is a
//! `CmpOp`, and an `Int`, `Float` or `Text` constant is also kept
//! encoded, as a row stores it (a tag and a payload, see
//! `recdb_storage::Field`). A stored value with the constant's tag is
//! then decided on its bytes:
//!
//! * equal payload bytes are equal values, so nothing is decoded (a
//!   `Text` equal to the constant is valid UTF-8 because the constant is);
//! * unequal `Int` or `Float` bytes are unequal values (`f64::total_cmp`
//!   orders floats by their bits), which settles `=` and `<>`;
//! * an unequal `Text` is checked to be UTF-8, as decoding it would check
//!   it (the same `Malformed::InvalidUtf8`), and ordered by its bytes
//!   after the length prefix: `str::cmp` is byte order, so all six
//!   operators are settled there.
//!
//! Everything else takes the **general rule**, `ValueRef::total_cmp` on
//! the decoded value: the four order operators on unequal numbers, a NULL
//! on either side, `Int` against `Float`, any other type and a malformed
//! row. So a compiled key keeps the rows and returns the errors, `Corrupt`
//! messages included, that the general rule alone would; a property test
//! below pins that on arbitrary row bytes.

use crate::error::ExecResult;
use crate::expr::{bind, BoundExpr, CmpOp};
use recdb_sql::{BinaryOp, Expr, Literal};
use recdb_storage::{Field, Malformed, RowRef, Schema, Tuple, Value};
use std::cmp::Ordering;

/// `column ⋈ constant`, decided on one encoded row.
#[derive(Debug)]
pub(crate) struct ScanKey {
    column: usize,
    op: CmpOp,
    constant: Value,
    /// `constant` as a row stores it, if it is an `Int`, `Float` or
    /// `Text`; other constants only the general rule decides.
    encoded: Option<Encoded>,
}

/// A key's constant as a row stores it: its value tag and payload.
#[derive(Debug)]
enum Encoded {
    /// An `Int` or a `Float`: eight payload bytes.
    Word(u8, [u8; 8]),
    /// A `Text`: its UTF-8 bytes, without the `u32` length prefix.
    Text(u8, Box<[u8]>),
}

impl ScanKey {
    /// `conjunct` as a key, if it compares a column with a literal. With
    /// the literal on the left the operator is mirrored: `5 < c` is
    /// `c > 5`.
    fn from_conjunct(conjunct: &BoundExpr) -> Option<ScanKey> {
        let BoundExpr::Binary { op, left, right } = conjunct else {
            return None;
        };
        let op = CmpOp::of(*op)?;
        let (column, constant, op) = match (&**left, &**right) {
            (BoundExpr::Column(column), BoundExpr::Literal(constant)) => (*column, constant, op),
            (BoundExpr::Literal(constant), BoundExpr::Column(column)) => {
                (*column, constant, op.mirrored())
            }
            _ => return None,
        };
        let mut row = Vec::with_capacity(2 + constant.encoded_size());
        Tuple::new(vec![constant.clone()]).encode_into(&mut row);
        let field = RowRef::new(&row)
            .field(0)
            .expect("a one-value row has a field 0");
        let encoded = match constant {
            Value::Int(_) | Value::Float(_) => {
                let word = field.payload().try_into().expect("an 8-byte payload");
                Some(Encoded::Word(field.tag(), word))
            }
            Value::Text(_) => Some(Encoded::Text(field.tag(), text_bytes(field).into())),
            _ => None,
        };
        Some(ScanKey {
            column,
            op,
            constant: constant.clone(),
            encoded,
        })
    }

    /// Whether `row` satisfies the key: on the bytes where the stored
    /// value carries the constant's tag, by the general rule otherwise.
    #[inline]
    fn accepts(&self, row: RowRef<'_>) -> Result<bool, Malformed> {
        let field = row.field(self.column)?;
        match &self.encoded {
            Some(Encoded::Word(tag, word)) if field.tag() == *tag => {
                if field.payload() == word {
                    return Ok(self.op.holds(Ordering::Equal));
                }
                if let CmpOp::Eq | CmpOp::Ne = self.op {
                    // Unequal bytes of one numeric tag are unequal values.
                    return Ok(self.op == CmpOp::Ne);
                }
            }
            Some(Encoded::Text(tag, text)) if field.tag() == *tag => {
                let stored = text_bytes(field);
                // `str::cmp` is byte order.
                let order = stored.cmp(text);
                // ASCII is UTF-8, and checked word by word: most stored
                // texts skip `from_utf8`'s slower walk.
                if order.is_ne() && !stored.is_ascii() && std::str::from_utf8(stored).is_err() {
                    return Err(Malformed::InvalidUtf8);
                }
                return Ok(self.op.holds(order));
            }
            _ => {}
        }
        self.decoded(field)
    }

    /// What the bytes alone did not settle, by the general rule. A NULL on
    /// either side is NULL under three-valued logic, which a filter
    /// rejects.
    #[inline]
    fn decoded(&self, field: Field<'_>) -> Result<bool, Malformed> {
        let (stored, constant) = (field.value()?, self.constant.as_value_ref());
        if stored.is_null() || constant.is_null() {
            return Ok(false);
        }
        Ok(self.op.holds(stored.total_cmp(constant)))
    }

    /// Whether `row` satisfies every key.
    #[inline]
    pub(crate) fn accept_all(keys: &[ScanKey], row: RowRef<'_>) -> Result<bool, Malformed> {
        for key in keys {
            if !key.accepts(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A `Text` field's bytes after its `u32` length prefix (`RowRef::field`
/// has checked the prefix and the bytes it counts are there).
#[inline]
fn text_bytes(field: Field<'_>) -> &[u8] {
    &field.payload()[4..]
}

/// Bind `predicate` against `schema`, its parameter slots valued from
/// `params`, and split it into scan keys and the residual. A slot is a
/// constant like a literal, so `uid = $1` compiles to a key on `$1`'s
/// value.
pub(crate) fn split(
    predicate: &Expr,
    schema: &Schema,
    params: &[Literal],
) -> ExecResult<(Vec<ScanKey>, Option<BoundExpr>)> {
    let mut keys = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    for conjunct in predicate.conjuncts() {
        let bound = bind(conjunct, schema, params)?;
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
    use recdb_storage::{Column, DataType, HeapTable, Rid, StorageError, StorageResult};

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
            .map(|(e, is_key)| Ok((bind(e, schema, &[])?, *is_key)))
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
            let mut fused = ScanOp::new(&heap, schema.clone(), guard.clone())
                .with_filter(&predicate, &[])
                .unwrap();
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
            let mut oracle = FilterOp::new(Box::new(unfused), bind(&predicate, &schema, &[]).unwrap(), QueryGuard::unlimited());
            if let Ok(rows) = drain(&mut oracle) {
                prop_assert_eq!(&got, &Ok(rows), "{}", case);
            }

            // UPDATE and DELETE take the same rows with their record ids,
            // billing the live rows and no end-of-stream unit.
            let guard = QueryGuard::unlimited();
            let dml = ScanOp::new(&heap, schema.clone(), guard.clone())
                .with_filter(&predicate, &[])
                .unwrap()
                .matching_rows();
            if dml.is_ok() {
                prop_assert_eq!(guard.rows_used(), live.len() as u64, "{}", case);
            }
            prop_assert_eq!(dml, want, "{}", case);
        }
    }

    /// Floats whose bits tell apart what `==` does not: both zeros, NaN.
    const EDGE_FLOATS: [f64; 6] = [-0.0, 0.0, 1.0, -1.0, 2.5, f64::NAN];

    /// Texts that share a head (`"abc"`, `"abd"`), differ only in length
    /// (`"ab"`, `"abc"`), hold multi-byte characters (`"é"` sorts after
    /// `"b"`, `"日本"` is a head of `"日本語"`), and whose order is not length
    /// order (`"b" > "ab"`), so a compare of length-prefixed bytes would show.
    const EDGE_TEXTS: [&str; 8] = ["", "b", "ab", "abc", "abd", "é", "日本", "日本語"];

    /// NULL or a value of any type from a raw draw, from domains small
    /// enough that equal values (`Int` against `Float` too) turn up.
    fn any_value(draw: usize) -> Value {
        let d = draw / 7;
        match draw % 7 {
            0 => Value::Null,
            1 => Value::Int((d % 5) as i64 - 2),
            2 => Value::Float(EDGE_FLOATS[d % 6]),
            3 => Value::Text(EDGE_TEXTS[d % EDGE_TEXTS.len()].to_owned()),
            4 => Value::Bool(d.is_multiple_of(2)),
            5 => Value::Point((d % 2) as f64, 0.0),
            _ => Value::Rect(0.0, 0.0, (d % 2) as f64, 1.0),
        }
    }

    /// `values` as a row stores them. With `broken`, every `Text` ends in
    /// a lone UTF-8 lead byte: its bytes still share a head with the text
    /// (and with constants that do), but they are not UTF-8.
    fn encode_row(values: &[Value], broken: bool) -> Vec<u8> {
        let mut row = (values.len() as u16).to_le_bytes().to_vec();
        for value in values {
            match value {
                Value::Text(s) if broken => {
                    row.push(DataType::Text.to_tag());
                    row.extend_from_slice(&(s.len() as u32 + 1).to_le_bytes());
                    row.extend_from_slice(s.as_bytes());
                    row.push(0xC3);
                }
                value => {
                    let mut one = Vec::new();
                    Tuple::new(vec![value.clone()]).encode_into(&mut one);
                    row.extend_from_slice(&one[2..]);
                }
            }
        }
        row
    }

    /// The general rule written out: read the column's value, then
    /// `column op constant` (or `constant op column`) under `total_cmp`;
    /// NULL on either side rejects.
    fn general_rule(
        row: RowRef<'_>,
        column: usize,
        op: BinaryOp,
        constant: &Value,
        literal_left: bool,
    ) -> StorageResult<bool> {
        let stored = row.column(column)?;
        let constant = constant.as_value_ref();
        if stored.is_null() || constant.is_null() {
            return Ok(false);
        }
        let ordering = if literal_left {
            constant.total_cmp(stored)
        } else {
            stored.total_cmp(constant)
        };
        Ok(match op {
            BinaryOp::Eq => ordering.is_eq(),
            BinaryOp::Neq => ordering.is_ne(),
            BinaryOp::Lt => ordering.is_lt(),
            BinaryOp::Le => ordering.is_le(),
            BinaryOp::Gt => ordering.is_gt(),
            _ => ordering.is_ge(),
        })
    }

    /// The key `column op constant`, or `constant op column`.
    fn key(column: usize, op: BinaryOp, constant: &Value, literal_left: bool) -> ScanKey {
        let (col, lit) = (
            Box::new(BoundExpr::Column(column)),
            Box::new(BoundExpr::Literal(constant.clone())),
        );
        let (left, right) = if literal_left { (lit, col) } else { (col, lit) };
        ScanKey::from_conjunct(&BoundExpr::Binary { op, left, right })
            .expect("a comparison of a column with a literal is a key")
    }

    proptest! {
        /// The compiled keys against the general rule, on row bytes a page
        /// could hold and many it could not: random bytes, and encodings
        /// of zero to four values of every tag, whole, with one byte
        /// changed, cut short, or with texts that are not UTF-8. Each key
        /// (any constant, any of the six operators, either side, any
        /// ordinal) returns exactly the rule's `Ok(bool)` or its error; a
        /// conjunction stops at the first key that rejects or fails.
        #[test]
        fn compiled_key_equals_the_general_rule(
            values in prop::collection::vec(0usize..3000, 0..5),
            noise in prop::collection::vec(any::<u8>(), 0..24),
            (shape, at, byte) in (0usize..5, any::<prop::sample::Index>(), any::<u8>()),
            keys in prop::collection::vec((0usize..5, 0usize..3000, 0usize..6, any::<bool>(), any::<bool>()), 1..4),
        ) {
            let values_of_row: Vec<Value> = values.iter().map(|&d| any_value(d)).collect();
            let mut row = encode_row(&values_of_row, shape == 4);
            match shape {
                0 => row = noise,
                1 | 4 => {}
                2 => {
                    let i = at.index(row.len());
                    row[i] = byte;
                }
                _ => row.truncate(at.index(row.len())),
            }
            let row = RowRef::new(&row);

            let mut compiled = Vec::new();
            let mut want = Ok(true);
            for &(column, draw, op, literal_left, from_row) in &keys {
                // Half the constants have the type of the value the row was
                // built with at that ordinal, so the same-tag paths run.
                let draw = match values.get(column) {
                    Some(&stored) if from_row => draw - draw % 7 + stored % 7,
                    _ => draw,
                };
                let (op, constant) = (COMPARISONS[op], any_value(draw));
                let key = key(column, op, &constant, literal_left);
                let expected = general_rule(row, column, op, &constant, literal_left);
                let case = format!("{op:?} {constant:?} at {column} (literal left: {literal_left}) on {row:?}");
                prop_assert_eq!(key.accepts(row).map_err(StorageError::from), expected.clone(), "{}", case);
                if want == Ok(true) {
                    want = expected;
                }
                compiled.push(key);
            }
            prop_assert_eq!(ScanKey::accept_all(&compiled, row).map_err(StorageError::from), want);
        }
    }

    /// Stored text that is not UTF-8 is `Corrupt` under every operator and
    /// `Text` constant, as the general rule has it: only bytes equal to
    /// the constant, which are UTF-8 because it is, skip the check.
    #[test]
    fn text_keys_check_utf8_as_the_general_rule_does() {
        let payloads: [&[u8]; 5] = [b"b", b"ab", "é".as_bytes(), b"\xff", b"b\xc3"];
        for payload in payloads {
            let mut row = vec![1, 0, 3];
            row.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            row.extend_from_slice(payload);
            let row = RowRef::new(&row);
            for text in ["", "b", "ab", "é"] {
                let constant = Value::Text(text.to_owned());
                for op in COMPARISONS {
                    for literal_left in [false, true] {
                        assert_eq!(
                            key(0, op, &constant, literal_left)
                                .accepts(row)
                                .map_err(StorageError::from),
                            general_rule(row, 0, op, &constant, literal_left),
                            "{op:?} {text:?} (literal left: {literal_left}) on {payload:?}"
                        );
                    }
                }
            }
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
        let (keys, residual) = split(&where_clause(src), schema, &[]).unwrap();
        (keys.len(), residual)
    }

    #[test]
    fn which_conjuncts_become_keys() {
        let schema = Schema::from_pairs(&[("uid", DataType::Int), ("name", DataType::Text)]);
        let bound = |src: &str| split_sql(src, &schema).1.unwrap();
        assert_eq!(split_sql("uid = 3", &schema), (1, None));
        assert_eq!(split_sql("'b' >= name AND uid <> NULL", &schema), (2, None));
        // `-1` binds as a literal.
        assert_eq!(split_sql("uid = -1 AND -2.5 < uid", &schema), (2, None));
        assert_eq!(
            split_sql("uid = 3 AND uid + 1 > 2 AND 4 > uid", &schema),
            (2, Some(bound("uid + 1 > 2")))
        );
        // Residual conjuncts keep their order.
        assert_eq!(
            split_sql("uid / 0 = 1 AND (name = 'a' AND uid IN (1, 2))", &schema),
            (1, Some(bound("uid / 0 = 1 AND uid IN (1, 2)")))
        );
        // Not `column ⋈ constant`: two columns, a computed side, `OR`, a
        // negated column, `BETWEEN`.
        for residual in [
            "uid = uid",
            "uid * 2 = 4",
            "uid = 3 OR uid = 4",
            "-uid = 1",
            "uid BETWEEN 1 AND 2",
        ] {
            assert_eq!(split_sql(residual, &schema), (0, Some(bound(residual))));
        }
    }

    /// `expr` bound without folding a negated literal: the negation is
    /// evaluated on every row, as it was before `bind` folded it.
    fn bind_unfolded(expr: &Expr, schema: &Schema) -> BoundExpr {
        match expr {
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(bind_unfolded(expr, schema)),
            },
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(bind_unfolded(left, schema)),
                right: Box::new(bind_unfolded(right, schema)),
            },
            leaf => bind(leaf, schema, &[]).unwrap(),
        }
    }

    /// A negative constant is a key now that `-1` binds as a literal, and
    /// it keeps exactly the rows, in order, that evaluating the negation
    /// on each row kept: both zeros, NaN, NULL and `Int` against `Float`
    /// included.
    #[test]
    fn negative_constants_keep_the_rows_the_negation_kept() {
        let schema = Schema::from_pairs(&[("uid", DataType::Int), ("r", DataType::Float)]);
        let mut heap = HeapTable::new(schema.clone());
        for uid in [-3, -2, -1, 0, 1, 2] {
            for r in EDGE_FLOATS.iter().copied().chain([-2.5]) {
                heap.insert(Tuple::new(vec![Value::Int(uid), Value::Float(r)]))
                    .unwrap();
            }
        }
        heap.insert(Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap();
        let rows: Vec<Tuple> = heap.scan().map(|(_, t)| t).collect();
        for src in [
            "uid = -1",
            "uid < -1",
            "-2 >= uid",
            "uid <> -1",
            "uid = -1.0",
            "r = -0.0",
            "r > -0.0",
            "-2.5 = r",
            "r >= -1",
            "uid = -(-1)",
            "uid = -1 AND r < -0.5",
        ] {
            let predicate = where_clause(src);
            let (keys, residual) = split(&predicate, &schema, &[]).unwrap();
            assert!(residual.is_none() && !keys.is_empty(), "{src}");
            let mut fused = ScanOp::new(&heap, schema.clone(), QueryGuard::unlimited())
                .with_filter(&predicate, &[])
                .unwrap();
            let unfolded = bind_unfolded(&predicate, &schema);
            let mut filter = FilterOp::new(
                Box::new(ValuesOp::new(schema.clone(), rows.clone())),
                unfolded,
                QueryGuard::unlimited(),
            );
            assert_eq!(drain(&mut fused), drain(&mut filter), "{src}");
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
            let mut op = ScanOp::new(&heap, schema.clone(), QueryGuard::unlimited())
                .with_filter(&where_clause(src), &[])
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
        let mut op = ScanOp::new(&heap, schema, QueryGuard::unlimited())
            .with_filter(&where_clause("genre = 'Crime' AND 'genre-9' < genre"), &[])
            .unwrap();
        let (end, allocations) = crate::alloc_count::allocations_in(|| op.next());
        assert!(end.is_none());
        assert_eq!(allocations, 0);
    }
}
