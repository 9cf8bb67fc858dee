//! Volcano-style physical operators.
//!
//! Every operator implements [`PhysicalOp`]: `next()` produces one tuple at
//! a time, so recommendation operators are non-blocking ("pipeline-able")
//! exactly as §IV-B requires — downstream operators receive scored tuples
//! before the recommender has finished all its predictions.

pub mod aggregate;
pub mod index_join;
pub mod join;
pub mod recommend;

use crate::error::{ExecError, ExecResult};
use crate::expr::BoundExpr;
use crate::scan_keys::{self, ScanKey};
use recdb_guard::QueryGuard;
use recdb_obs::{Clock, Counter, OpStats};
use recdb_sql::{Expr, Literal};
use recdb_storage::{HeapTable, Rid, ScanBuffer, Schema, StorageError, Tuple, Value};
use std::collections::VecDeque;
use std::sync::Arc;

pub use aggregate::{AggFunc, AggOutput, HashAggregateOp};
pub use index_join::IndexJoinOp;
pub use join::JoinOp;
pub use recommend::{IndexRecommendOp, JoinRecommendOp, RecommendOp};

/// A pull-based physical operator.
pub trait PhysicalOp {
    /// The operator's output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next tuple, `None` at end of stream.
    fn next(&mut self) -> Option<ExecResult<Tuple>>;
    /// The physical operator name as shown by `EXPLAIN ANALYZE` (e.g.
    /// `"HashJoin"`). Access-path variants report what actually ran, which
    /// is the point of ANALYZE over plain EXPLAIN.
    fn name(&self) -> &'static str;
    /// Peak bytes this operator buffered (0 for streaming operators;
    /// materializing operators like [`SortOp`] report their high-water
    /// mark).
    fn buffered_bytes(&self) -> u64 {
        0
    }
    /// What `EXPLAIN ANALYZE` shows after the operator's name and logical
    /// detail, for an operator that absorbed a plan node above it (a
    /// `SeqScan` carrying a filter).
    fn detail(&self) -> Option<String> {
        None
    }
}

// ---------------------------------------------------------------- Metered

/// Profiling decorator: wraps any operator and records per-call actuals
/// into a shared [`OpStats`] — rows out, `next()` calls, cumulative time
/// (children included, since the child's `next()` runs inside ours), and
/// the inner operator's buffered high-water mark.
pub struct MeteredOp<'a> {
    inner: Box<dyn PhysicalOp + 'a>,
    stats: Arc<OpStats>,
    clock: Arc<dyn Clock>,
}

impl<'a> MeteredOp<'a> {
    /// Wrap `inner`, recording into `stats` with time read from `clock`.
    pub fn new(
        inner: Box<dyn PhysicalOp + 'a>,
        stats: Arc<OpStats>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        MeteredOp {
            inner,
            stats,
            clock,
        }
    }
}

impl PhysicalOp for MeteredOp<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        self.stats.record_call();
        let start = self.clock.now_micros();
        let out = self.inner.next();
        self.stats
            .record_elapsed_micros(self.clock.now_micros().saturating_sub(start));
        self.stats
            .record_buffered_bytes(self.inner.buffered_bytes());
        if matches!(out, Some(Ok(_))) {
            self.stats.record_row();
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn buffered_bytes(&self) -> u64 {
        self.inner.buffered_bytes()
    }
}

/// Drain an operator into a vector, stopping at the first error.
pub fn drain(op: &mut dyn PhysicalOp) -> ExecResult<Vec<Tuple>> {
    let mut rows = Vec::new();
    while let Some(t) = op.next() {
        rows.push(t?);
    }
    Ok(rows)
}

// ------------------------------------------------------------------- Scan

/// Sequential heap scan, a run of pages at a time
/// ([`HeapTable::visit_run`]), carrying the predicate that sits directly on
/// the table.
///
/// The predicate's `AND`-conjuncts of the form `column ⋈ constant` (or
/// `constant ⋈ column`) for `= <> < <= > >=` are **scan keys**; the rest
/// is the **residual**. Each page is one pool access. Inside it the keys
/// run on the encoded rows and only the rows they accept are decoded; the
/// residual runs on those decoded rows after the run has returned,
/// because the page visitor may run under the pool's lock. So a residual
/// error surfaces only for rows that pass the keys. A page bills the
/// governor and the rows-scanned counter once, with its live-row count —
/// every row the scan examined, kept or not. An error at a page (the
/// pool's, a key's, the governor's) ends the run there: the rows kept
/// from the pages before it are emitted first, then the error.
pub struct ScanOp<'a> {
    heap: &'a HeapTable,
    schema: Schema,
    keys: Vec<ScanKey>,
    residual: Option<BoundExpr>,
    /// The next page to visit.
    page: u32,
    /// Rows of the current run that passed the keys.
    buffer: VecDeque<(Rid, Tuple)>,
    /// The error that ended the current run, due after `buffer`.
    failed: Option<ExecError>,
    run: ScanBuffer,
    guard: QueryGuard,
    rows_scanned: Option<Arc<Counter>>,
}

impl<'a> ScanOp<'a> {
    /// Scan `heap`, emitting tuples under `schema` (the table schema
    /// qualified by the query binding). `guard` is charged once per page
    /// with the page's live rows, and once for the end-of-stream call.
    pub fn new(heap: &'a HeapTable, schema: Schema, guard: QueryGuard) -> Self {
        ScanOp {
            heap,
            schema,
            keys: Vec::new(),
            residual: None,
            page: 0,
            buffer: VecDeque::new(),
            failed: None,
            run: ScanBuffer::default(),
            guard,
            rows_scanned: None,
        }
    }

    /// Emit only the rows for which `predicate`, bound against this scan's
    /// schema with its parameter slots valued from `params`, is TRUE.
    pub fn with_filter(mut self, predicate: &Expr, params: &[Literal]) -> ExecResult<Self> {
        (self.keys, self.residual) = scan_keys::split(predicate, &self.schema, params)?;
        Ok(self)
    }

    /// Attach an engine-wide rows-scanned counter, bumped once per page
    /// with the live rows the scan examined there.
    pub fn with_rows_counter(mut self, counter: Arc<Counter>) -> Self {
        self.rows_scanned = Some(counter);
        self
    }

    /// Every matching row with its record id, in heap order (`UPDATE` and
    /// `DELETE` act on these).
    pub fn matching_rows(mut self) -> ExecResult<Vec<(Rid, Tuple)>> {
        std::iter::from_fn(|| self.next_row()).collect()
    }

    fn next_row(&mut self) -> Option<ExecResult<(Rid, Tuple)>> {
        loop {
            while let Some((rid, tuple)) = self.buffer.pop_front() {
                match &self.residual {
                    None => return Some(Ok((rid, tuple))),
                    Some(residual) => match residual.eval_predicate(&tuple) {
                        Ok(true) => return Some(Ok((rid, tuple))),
                        Ok(false) => {}
                        Err(e) => return Some(Err(e)),
                    },
                }
            }
            if let Some(e) = self.failed.take() {
                return Some(Err(e));
            }
            if !self.load_run() {
                return None;
            }
        }
    }

    /// Refill the buffer from the next run of pages; `false` past the
    /// last one. A page that fails keeps none of its rows, and the error
    /// waits in `failed`; the next run starts at that page.
    fn load_run(&mut self) -> bool {
        let ScanOp {
            heap,
            keys,
            page,
            buffer,
            failed,
            run,
            guard,
            rows_scanned,
            ..
        } = self;
        let visited = heap.visit_run(*page, run, |page_no, view| {
            let kept = buffer.len();
            let mut live = 0u64;
            let billed = view
                .live_rows()
                .try_for_each(|(slot, row)| {
                    live += 1;
                    if ScanKey::accept_all(keys, row)? {
                        buffer.push_back((Rid::new(page_no, slot), row.to_tuple()?));
                    }
                    Ok::<_, StorageError>(())
                })
                .map_err(ExecError::from)
                .and_then(|()| {
                    if let Some(counter) = rows_scanned {
                        counter.add(live);
                    }
                    Ok(guard.tick_n(live)?)
                });
            if billed.is_err() {
                buffer.truncate(kept);
            }
            billed?;
            *page = page_no + 1;
            Ok(())
        });
        match visited {
            Ok(pages) => pages > 0,
            Err(e) => {
                *failed = Some(e);
                true
            }
        }
    }
}

impl PhysicalOp for ScanOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        match self.next_row() {
            Some(row) => Some(row.map(|(_, tuple)| tuple)),
            // The end-of-stream call is a unit of work like any other
            // operator's, so a drained scan charges live rows + 1.
            None => self.guard.tick().err().map(|e| Err(e.into())),
        }
    }

    fn name(&self) -> &'static str {
        "SeqScan"
    }

    fn detail(&self) -> Option<String> {
        if self.keys.is_empty() && self.residual.is_none() {
            return None;
        }
        let residual = if self.residual.is_some() {
            " +residual"
        } else {
            ""
        };
        Some(format!("filter: keys={}{residual}", self.keys.len()))
    }
}

// ----------------------------------------------------------------- Filter

/// σ — emit tuples whose predicate evaluates to TRUE.
pub struct FilterOp<'a> {
    input: Box<dyn PhysicalOp + 'a>,
    predicate: BoundExpr,
    guard: QueryGuard,
}

impl<'a> FilterOp<'a> {
    /// Wrap `input` with a bound predicate. `guard` is checked once per
    /// input tuple, so long runs of filtered-out rows stay cancellable.
    pub fn new(input: Box<dyn PhysicalOp + 'a>, predicate: BoundExpr, guard: QueryGuard) -> Self {
        FilterOp {
            input,
            predicate,
            guard,
        }
    }
}

impl PhysicalOp for FilterOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            let tuple = match self.input.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            match self.predicate.eval_predicate(&tuple) {
                Ok(true) => return Some(Ok(tuple)),
                Ok(false) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn name(&self) -> &'static str {
        "Filter"
    }
}

// ---------------------------------------------------------------- Project

/// π — compute output expressions per tuple.
///
/// The operator owns each input row. A projection that lists its input's
/// columns in order (Query 1's `R.uid, R.iid, R.ratingval` over its leaf)
/// passes the row through; the result's column names still come from the
/// plan. Any other projection first evaluates its computed outputs on the
/// row, then takes each bare column's value out of it: the last output
/// that names a column moves the value, earlier ones clone it. That is
/// decided once, in `new`.
pub struct ProjectOp<'a> {
    input: Box<dyn PhysicalOp + 'a>,
    /// How each output takes its value from the owned row.
    picks: Vec<Pick>,
    /// The outputs are the input's columns in order.
    identity: bool,
    schema: Schema,
    guard: QueryGuard,
}

/// How one output of a projection takes its value.
#[derive(Debug, PartialEq)]
enum Pick {
    /// The last output naming this column: the value is moved out of the
    /// row.
    Move(usize),
    /// An earlier output naming a column a later one moves: cloned.
    Clone(usize),
    /// A constant.
    Literal(Value),
    /// A computed expression, evaluated on the whole row.
    Eval(BoundExpr),
}

impl Pick {
    /// Each output's pick.
    fn of(exprs: Vec<BoundExpr>) -> Vec<Pick> {
        let mut picks: Vec<Pick> = exprs
            .into_iter()
            .map(|e| match e {
                BoundExpr::Column(c) => Pick::Move(c),
                BoundExpr::Literal(v) => Pick::Literal(v),
                e => Pick::Eval(e),
            })
            .collect();
        // Left to right, so every later column output is still a move.
        for at in 0..picks.len() {
            if let Pick::Move(c) = picks[at] {
                if picks[at + 1..].contains(&Pick::Move(c)) {
                    picks[at] = Pick::Clone(c);
                }
            }
        }
        picks
    }
}

impl<'a> ProjectOp<'a> {
    /// Wrap `input`; `exprs` are bound against the input schema, `schema`
    /// is the output schema. `guard` is checked once per emitted tuple.
    pub fn new(
        input: Box<dyn PhysicalOp + 'a>,
        exprs: Vec<BoundExpr>,
        schema: Schema,
        guard: QueryGuard,
    ) -> Self {
        let identity = exprs.len() == input.schema().arity()
            && exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i));
        ProjectOp {
            input,
            picks: Pick::of(exprs),
            identity,
            schema,
            guard,
        }
    }

    /// The output row for `tuple`.
    fn project(&self, tuple: Tuple) -> ExecResult<Tuple> {
        // A row shorter or longer than the input schema says is taken
        // column by column, so a missing column reads NULL as evaluating
        // it does.
        if self.identity && tuple.arity() == self.picks.len() {
            return Ok(tuple);
        }
        let mut out = Vec::with_capacity(self.picks.len());
        for pick in &self.picks {
            out.push(match pick {
                Pick::Eval(e) => e.eval(&tuple)?,
                _ => Value::Null,
            });
        }
        let mut row = tuple.into_values();
        for (value, pick) in out.iter_mut().zip(&self.picks) {
            match pick {
                Pick::Move(c) => {
                    if let Some(v) = row.get_mut(*c) {
                        *value = std::mem::replace(v, Value::Null);
                    }
                }
                Pick::Clone(c) => *value = row.get(*c).cloned().unwrap_or(Value::Null),
                Pick::Literal(v) => *value = v.clone(),
                Pick::Eval(_) => {}
            }
        }
        Ok(Tuple::new(out))
    }
}

impl PhysicalOp for ProjectOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if let Err(e) = self.guard.tick() {
            return Some(Err(e.into()));
        }
        Some(self.input.next()?.and_then(|tuple| self.project(tuple)))
    }

    fn name(&self) -> &'static str {
        "Project"
    }
}

// ------------------------------------------------------------------- Sort

/// Blocking sort. Drains its input on first `next()`.
///
/// A plain sort buffers every input row. With [`SortOp::with_limit`] the
/// operator is a bounded top-k: rows stream through a `k`-slot heap
/// ([`recdb_algo::TopK`]), so at most `k` rows (and their sort keys) are
/// held at any moment — `O(n log k)` time, `O(k)` space instead of
/// `O(n log n)` / `O(n)`. Selection is stable — rows that tie on every
/// key keep input order — so the output is exactly the full sort
/// truncated to `k`; the planner uses this to fuse `LIMIT k` over
/// `ORDER BY` (the `RECOMMEND … LIMIT k` fast path).
pub struct SortOp<'a> {
    input: Box<dyn PhysicalOp + 'a>,
    /// `(key expression, descending?)` in priority order.
    keys: Vec<(BoundExpr, bool)>,
    /// Keep only the best `k` rows (fused `LIMIT`).
    limit: Option<usize>,
    sorted: Option<std::vec::IntoIter<Tuple>>,
    error: Option<crate::error::ExecError>,
    guard: QueryGuard,
    /// High-water mark of the encoded bytes of the rows held (profiling
    /// actual; exactly what `charge_mem` accounted against the governor).
    buffered_bytes: u64,
}

/// A buffered row with its evaluated sort key.
type KeyedRow = (Vec<Value>, Tuple);

impl<'a> SortOp<'a> {
    /// Wrap `input` with bound sort keys. Under `guard` the blocking drain
    /// ticks per input row and charges the memory budget with the encoded
    /// size of the rows it *holds* — every row for a plain sort, at most
    /// `k` for a top-k (a row that never enters the heap, or leaves it, is
    /// not held) — so a runaway sort is stopped while buffering, not
    /// after.
    pub fn new(
        input: Box<dyn PhysicalOp + 'a>,
        keys: Vec<(BoundExpr, bool)>,
        guard: QueryGuard,
    ) -> Self {
        SortOp {
            input,
            keys,
            limit: None,
            sorted: None,
            error: None,
            guard,
            buffered_bytes: 0,
        }
    }

    /// A sort that only ever holds and emits the best `limit` rows,
    /// selected with a bounded heap.
    pub fn with_limit(
        input: Box<dyn PhysicalOp + 'a>,
        keys: Vec<(BoundExpr, bool)>,
        limit: usize,
        guard: QueryGuard,
    ) -> Self {
        SortOp {
            limit: Some(limit),
            ..SortOp::new(input, keys, guard)
        }
    }

    fn materialize(&mut self) -> ExecResult<Vec<Tuple>> {
        recdb_fault::fail_point("exec::sort_materialize")?;
        let keys = &self.keys;
        let cmp = |a: &KeyedRow, b: &KeyedRow| {
            for (i, (_, desc)) in keys.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        };
        let mut all: Vec<KeyedRow> = Vec::new();
        let mut best = self.limit.map(|k| recdb_algo::TopK::new(k, cmp));
        let mut held = 0u64;
        // Key buffer of the last row that fell out of the heap, reused so
        // a top-k over a long input does not allocate per rejected row.
        let mut spare_key: Vec<Value> = Vec::new();
        while let Some(t) = self.input.next() {
            let tuple = t?;
            self.guard.tick()?;
            let mut key = std::mem::take(&mut spare_key);
            key.reserve_exact(keys.len());
            for (expr, _) in keys {
                key.push(expr.eval(&tuple)?);
            }
            held += tuple.encoded_size() as u64;
            match &mut best {
                None => all.push((key, tuple)),
                Some(best) => {
                    if let Some((mut key, dropped)) = best.push((key, tuple)) {
                        held -= dropped.encoded_size() as u64;
                        key.clear();
                        spare_key = key;
                    }
                }
            }
            if held > self.buffered_bytes {
                self.guard.charge_mem(held - self.buffered_bytes)?;
                self.buffered_bytes = held;
            }
        }
        let rows = match best {
            // Stable heap selection: identical output to the stable full
            // sort below truncated to `k`.
            Some(best) => best.into_sorted_vec(),
            None => {
                all.sort_by(cmp);
                all
            }
        };
        Ok(rows.into_iter().map(|(_, t)| t).collect())
    }
}

impl PhysicalOp for SortOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if self.sorted.is_none() && self.error.is_none() {
            match self.materialize() {
                Ok(rows) => self.sorted = Some(rows.into_iter()),
                Err(e) => self.error = Some(e),
            }
        }
        if let Some(e) = self.error.take() {
            return Some(Err(e));
        }
        self.sorted.as_mut()?.next().map(Ok)
    }

    fn name(&self) -> &'static str {
        if self.limit.is_some() {
            "TopKSort"
        } else {
            "Sort"
        }
    }

    fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }
}

// ------------------------------------------------------------------ Limit

/// Emit at most `limit` tuples.
pub struct LimitOp<'a> {
    input: Box<dyn PhysicalOp + 'a>,
    remaining: u64,
    guard: QueryGuard,
}

impl<'a> LimitOp<'a> {
    /// Wrap `input` with a row budget. `guard` is checked on each call (a
    /// pass-through check; the wrapped input does its own row
    /// accounting).
    pub fn new(input: Box<dyn PhysicalOp + 'a>, limit: u64, guard: QueryGuard) -> Self {
        LimitOp {
            input,
            remaining: limit,
            guard,
        }
    }
}

impl PhysicalOp for LimitOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if self.remaining == 0 {
            return None;
        }
        if let Err(e) = self.guard.check() {
            return Some(Err(e.into()));
        }
        let t = self.input.next()?;
        if t.is_ok() {
            self.remaining -= 1;
        }
        Some(t)
    }

    fn name(&self) -> &'static str {
        "Limit"
    }
}

// A values operator used by tests and INSERT ... SELECT style plumbing.

/// Emit a fixed list of tuples (test/bench helper).
pub struct ValuesOp {
    schema: Schema,
    rows: std::vec::IntoIter<Tuple>,
}

impl ValuesOp {
    /// Build from a schema and rows.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ValuesOp {
            schema,
            rows: rows.into_iter(),
        }
    }
}

impl PhysicalOp for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        self.rows.next().map(Ok)
    }

    fn name(&self) -> &'static str {
        "Values"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::bind;
    use recdb_sql::parse;
    use recdb_storage::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "ratingval", DataType::Float),
        ])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Float(((i * 7) % 10) as f64 / 2.0),
                ])
            })
            .collect()
    }

    fn values(n: i64) -> Box<dyn PhysicalOp> {
        Box::new(ValuesOp::new(schema(), rows(n)))
    }

    fn predicate(src: &str) -> BoundExpr {
        let recdb_sql::Statement::Select(s) =
            parse(&format!("SELECT * FROM t WHERE {src}")).unwrap()
        else {
            panic!()
        };
        bind(&s.filter.unwrap(), &schema(), &[]).unwrap()
    }

    #[test]
    fn scan_reads_all_pages() {
        let mut heap = HeapTable::new(schema());
        for t in rows(2000) {
            heap.insert(t).unwrap();
        }
        let mut op = ScanOp::new(&heap, schema(), QueryGuard::unlimited());
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 2000);
        assert_eq!(got[0].get(0).unwrap(), &Value::Int(0));
    }

    #[test]
    fn filter_keeps_matching() {
        let mut op = FilterOp::new(values(10), predicate("uid < 3"), QueryGuard::unlimited());
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn project_computes_expressions() {
        let recdb_sql::Statement::Select(s) = parse("SELECT uid * 2 AS d FROM t").unwrap() else {
            panic!()
        };
        let recdb_sql::SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let bound = bind(expr, &schema(), &[]).unwrap();
        let out_schema = Schema::from_pairs(&[("d", DataType::Int)]);
        let mut op = ProjectOp::new(values(3), vec![bound], out_schema, QueryGuard::unlimited());
        let got = drain(&mut op).unwrap();
        assert_eq!(got[2].get(0).unwrap(), &Value::Int(4));
    }

    /// Projections that move columns out of their rows against evaluating
    /// every output on a clone of the row.
    mod row_moves {
        use super::*;
        use proptest::prelude::*;
        use recdb_sql::BinaryOp;

        /// NULL or a value of any type, texts multi-byte and long included.
        fn value(draw: usize) -> Value {
            let d = draw / 6;
            match draw % 6 {
                0 => Value::Null,
                1 => Value::Int(d as i64 - 50),
                2 => Value::Float(d as f64 / 4.0),
                3 => Value::Text(["", "é", "日本語", "x".repeat(300).as_str()][d % 4].to_owned()),
                4 => Value::Point(d as f64, 1.0),
                _ => Value::Rect(0.0, 0.0, d as f64, 1.0),
            }
        }

        /// One output from raw draws: mostly bare columns (a small domain,
        /// so repeats are common, and one ordinal past the row's end) and
        /// literals; sometimes a computed expression, which may fail.
        fn output((kind, column, draw): (usize, usize, usize)) -> BoundExpr {
            match kind % 8 {
                0..=3 => BoundExpr::Column(column % 4),
                4..=6 => BoundExpr::Literal(value(draw)),
                _ => BoundExpr::Binary {
                    op: BinaryOp::Add,
                    left: Box::new(BoundExpr::Column(column % 3)),
                    right: Box::new(BoundExpr::Literal(Value::Int(1))),
                },
            }
        }

        proptest! {
            #[test]
            fn project_moves_equal_evaluating_on_a_clone(
                rows in prop::collection::vec(prop::collection::vec(0usize..600, 2..5), 0..12),
                outputs in prop::collection::vec((0usize..8, 0usize..4, 0usize..600), 1..6),
                identity in 0usize..4,
            ) {
                // Rows of the schema's three columns, and some one short
                // or one long of it.
                let rows: Vec<Tuple> = rows
                    .iter()
                    .map(|row| Tuple::new(row.iter().map(|&d| value(d)).collect()))
                    .collect();
                let columns = || (0..3).map(BoundExpr::Column);
                let exprs: Vec<BoundExpr> = match identity {
                    0 => columns().collect(),
                    _ => outputs.into_iter().map(output).collect(),
                };

                let want: ExecResult<Vec<Tuple>> = rows
                    .iter()
                    .map(|row| {
                        let row = row.clone();
                        exprs.iter().map(|e| e.eval(&row)).collect::<ExecResult<_>>().map(Tuple::new)
                    })
                    .collect();
                let input = Box::new(ValuesOp::new(Schema::from_pairs(&[
                    ("a", DataType::Int),
                    ("b", DataType::Int),
                    ("c", DataType::Int),
                ]), rows));
                let out_schema = Schema::new(
                    (0..exprs.len()).map(|i| Column::new(format!("o{i}"), DataType::Int)).collect(),
                );
                let mut op = ProjectOp::new(input, exprs.clone(), out_schema, QueryGuard::unlimited());
                prop_assert_eq!(op.identity, exprs.iter().cloned().eq(columns()), "{:?}", exprs);
                prop_assert_eq!(drain(&mut op), want, "{:?}", exprs);
            }
        }

        #[test]
        fn only_a_columns_earlier_readers_clone_it() {
            let exprs = vec![
                BoundExpr::Column(1),
                BoundExpr::Literal(Value::Int(7)),
                BoundExpr::Column(0),
                BoundExpr::Column(1),
                BoundExpr::Column(1),
            ];
            assert_eq!(
                Pick::of(exprs),
                [
                    Pick::Clone(1),
                    Pick::Literal(Value::Int(7)),
                    Pick::Move(0),
                    Pick::Clone(1),
                    Pick::Move(1),
                ]
            );
            // A computed output reads the row before any value leaves it.
            let computed = predicate("uid < 3");
            assert_eq!(
                Pick::of(vec![BoundExpr::Column(0), computed.clone()]),
                [Pick::Move(0), Pick::Eval(computed)]
            );
        }

        /// The input's columns in order pass each row through, whole.
        #[test]
        fn an_identity_projection_passes_rows_through() {
            let exprs = vec![BoundExpr::Column(0), BoundExpr::Column(1)];
            let mut op = ProjectOp::new(values(3), exprs, schema(), QueryGuard::unlimited());
            assert!(op.identity);
            let (rows, allocations) =
                crate::alloc_count::allocations_in(|| drain(&mut op).unwrap());
            assert_eq!(rows, super::rows(3));
            assert_eq!(allocations, 1, "the drained vector only");
            let swapped = vec![BoundExpr::Column(1), BoundExpr::Column(0)];
            let op = ProjectOp::new(values(3), swapped, schema(), QueryGuard::unlimited());
            assert!(!op.identity);
        }
    }

    #[test]
    fn sort_orders_desc_then_asc() {
        let keys = vec![
            (predicate_expr("ratingval"), true),
            (predicate_expr("uid"), false),
        ];
        let mut op = SortOp::new(values(10), keys, QueryGuard::unlimited());
        let got = drain(&mut op).unwrap();
        let vals: Vec<f64> = got
            .iter()
            .map(|t| t.get(1).unwrap().as_f64().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]), "{vals:?}");
        // Ties broken by ascending uid.
        for w in got.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.get(1) == b.get(1) {
                assert!(a.get(0).unwrap() < b.get(0).unwrap());
            }
        }
    }

    fn predicate_expr(col: &str) -> BoundExpr {
        bind(&recdb_sql::Expr::col(col), &schema(), &[]).unwrap()
    }

    #[test]
    fn bounded_topk_matches_full_sort_truncated() {
        // ratingval has duplicates ((i*7)%10)/2 cycles every 10 rows, so
        // stability under ties is exercised.
        let keys = || {
            vec![
                (predicate_expr("ratingval"), true),
                (predicate_expr("uid"), false),
            ]
        };
        for n in [0i64, 1, 5, 37] {
            for k in [0usize, 1, 3, 10, 50] {
                let mut full = SortOp::new(values(n), keys(), QueryGuard::unlimited());
                let mut want = drain(&mut full).unwrap();
                want.truncate(k);
                let mut topk = SortOp::with_limit(values(n), keys(), k, QueryGuard::unlimited());
                let got = drain(&mut topk).unwrap();
                assert_eq!(got, want, "n {n}, k {k}");
            }
        }
    }

    #[test]
    fn bounded_topk_single_key_ties_keep_input_order() {
        // All rows tie on the (constant) key: top-k must keep the first k
        // rows in input order, like a stable sort + truncate.
        let keys = vec![(predicate_expr("ratingval"), false)];
        let schema = schema();
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Float(1.0)]))
            .collect();
        let input = Box::new(ValuesOp::new(schema, tuples));
        let mut op = SortOp::with_limit(input, keys, 3, QueryGuard::unlimited());
        let got = drain(&mut op).unwrap();
        let ids: Vec<i64> = got
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn bounded_topk_holds_and_charges_at_most_k_rows() {
        // 697 rows (the shape that tripped a LIMIT 10 before the heap was
        // fed incrementally), ascending on the descending key so that
        // every row enters the heap and displaces another: the worst case
        // for "rows admitted".
        let tuples: Vec<Tuple> = (0..697)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Float(i as f64)]))
            .collect();
        let row_bytes = tuples[0].encoded_size() as u64;
        assert!(tuples.iter().all(|t| t.encoded_size() as u64 == row_bytes));
        let keys = || vec![(predicate_expr("ratingval"), true)];
        let budget = 10 * row_bytes;

        let guard = QueryGuard::with_limits(None, None, Some(budget));
        let input = Box::new(ValuesOp::new(schema(), tuples.clone()));
        let mut topk = SortOp::with_limit(input, keys(), 10, guard.clone());
        let got = drain(&mut topk).expect("ten held rows fit a ten-row budget");
        let ids: Vec<i64> = got
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, (687..697).rev().collect::<Vec<i64>>());
        assert_eq!(topk.buffered_bytes(), budget, "peak = k rows");
        assert_eq!(guard.mem_used(), budget, "charged = peak held");
        assert_eq!(guard.rows_used(), 697, "still one tick per input row");

        // The unbounded sort of the same input holds everything and trips.
        let guard = QueryGuard::with_limits(None, None, Some(budget));
        let input = Box::new(ValuesOp::new(schema(), tuples));
        let mut full = SortOp::new(input, keys(), guard);
        assert!(drain(&mut full).is_err());
    }

    #[test]
    fn limit_truncates() {
        let mut op = LimitOp::new(values(10), 4, QueryGuard::unlimited());
        assert_eq!(drain(&mut op).unwrap().len(), 4);
        let mut op = LimitOp::new(values(2), 100, QueryGuard::unlimited());
        assert_eq!(drain(&mut op).unwrap().len(), 2);
        let mut op = LimitOp::new(values(5), 0, QueryGuard::unlimited());
        assert_eq!(drain(&mut op).unwrap().len(), 0);
    }

    #[test]
    fn filter_propagates_eval_errors() {
        let mut op = FilterOp::new(values(3), predicate("uid / 0 = 1"), QueryGuard::unlimited());
        assert!(drain(&mut op).is_err());
    }

    #[test]
    fn sort_propagates_eval_errors() {
        let keys = vec![(predicate("uid / 0 = 1"), false)];
        let mut op = SortOp::new(values(3), keys, QueryGuard::unlimited());
        assert!(drain(&mut op).is_err());
    }

    #[test]
    fn pipeline_composes() {
        // values → filter → sort → limit
        let filtered = Box::new(FilterOp::new(
            values(100),
            predicate("uid >= 10"),
            QueryGuard::unlimited(),
        ));
        let sorted = Box::new(SortOp::new(
            filtered,
            vec![(predicate_expr("uid"), true)],
            QueryGuard::unlimited(),
        ));
        let mut limited = LimitOp::new(sorted, 3, QueryGuard::unlimited());
        let got = drain(&mut limited).unwrap();
        let uids: Vec<i64> = got
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(uids, vec![99, 98, 97]);
    }
}
