//! Physical planning and execution.
//!
//! Translates an (optimized) [`LogicalPlan`] into a tree of
//! [`PhysicalOp`]s, making the remaining *access-path* decisions the paper
//! assigns to the executor:
//!
//! * the Recommend leaf becomes `INDEXRECOMMEND` when a materialized
//!   [`crate::rec_index::RecScoreIndex`] fully covers the querying users
//!   (§IV-C), else
//!   `RECOMMEND`/`FILTERRECOMMEND`;
//! * `Sort` is elided when an `IndexRecommend` below it already delivers
//!   tuples in descending rating order (the paper's top-k plan);
//! * `LIMIT k` over `ORDER BY <score> DESC` directly over a Recommend leaf
//!   that is served online becomes that operator's top-k sink
//!   ([`RecommendOp::with_top_k`]) — no sort above it;
//! * joins hash on one extracted equi-condition when available.

use crate::error::{ExecError, ExecResult};
use crate::expr::{bind, BoundExpr};
use crate::ops::{
    drain, AggOutput, FilterOp, HashAggregateOp, IndexJoinOp, IndexRecommendOp, JoinOp,
    JoinRecommendOp, LimitOp, MeteredOp, PhysicalOp, ProjectOp, RecommendOp, ScanOp, SortOp,
};
use crate::plan::{AggregateOutput, LogicalPlan, RecommendNode, RecommendPreds};
use crate::provider::RecommenderProvider;
use crate::rec_index::RecScoreIndex;
use crate::result::ResultSet;
use recdb_algo::RecModel;
use recdb_guard::QueryGuard;
use recdb_obs::{Clock, Counter, OpStats, ProfiledOp, QueryProfile, Registry};
use recdb_sql::{BinaryOp, Expr, Literal, OrderKey};
use recdb_storage::{Catalog, Schema};
use std::cell::RefCell;
use std::sync::Arc;

/// The executor's counters, resolved from the engine-wide registry once
/// (at engine open) so building a plan bumps a stored cell instead of
/// taking the registry lock and formatting a series key per statement.
#[derive(Debug)]
pub struct ExecMetrics {
    rows_scanned: Arc<Counter>,
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
}

impl ExecMetrics {
    /// Resolve (creating at zero if absent) the executor's series.
    pub fn resolve(registry: &Registry) -> Self {
        ExecMetrics {
            rows_scanned: registry.counter("recdb_rows_scanned_total"),
            index_hits: registry.counter("recdb_recscoreindex_hits_total"),
            index_misses: registry.counter("recdb_recscoreindex_misses_total"),
        }
    }
}

/// Everything the physical planner needs to resolve names.
pub struct ExecContext<'a> {
    /// The table catalog.
    pub catalog: &'a Catalog,
    /// The recommender catalog.
    pub provider: &'a dyn RecommenderProvider,
    /// Resource governor propagated into every operator of the built tree.
    pub guard: QueryGuard,
    /// Engine-wide counters; when set, scans bump the rows-scanned
    /// counter and the Recommend access-path choice records
    /// RecScoreIndex hits/misses.
    pub metrics: Option<&'a ExecMetrics>,
    /// When set, every built operator is wrapped in a [`MeteredOp`] and
    /// the build assembles the [`QueryProfile`] tree (`EXPLAIN ANALYZE`).
    pub profiler: Option<Profiler>,
    /// The values of the plan's parameter slots, in slot order: the build
    /// reads every constant of a parameterized plan from here.
    pub params: &'a [Literal],
}

impl<'a> ExecContext<'a> {
    /// A context with no metrics and no profiling attached.
    pub fn new(
        catalog: &'a Catalog,
        provider: &'a dyn RecommenderProvider,
        guard: QueryGuard,
    ) -> Self {
        ExecContext {
            catalog,
            provider,
            guard,
            metrics: None,
            profiler: None,
            params: &[],
        }
    }

    /// Attach the engine-wide executor counters.
    pub fn with_metrics(mut self, metrics: &'a ExecMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Value the plan's parameter slots with `params`.
    pub fn with_params(mut self, params: &'a [Literal]) -> Self {
        self.params = params;
        self
    }
}

/// Assembles the profiled-operator tree while the physical plan is built.
///
/// The recursive build pushes each finished node onto a stack; a parent
/// collects everything its children pushed (`split_off` at the mark taken
/// before recursing) so plan fusion — `LIMIT` over `ORDER BY` collapsing
/// into one `TopKSort`, a redundant sort eliding entirely — falls out
/// naturally: one physical operator, one profile node.
pub struct Profiler {
    clock: Arc<dyn Clock>,
    stack: RefCell<Vec<ProfiledOp>>,
}

impl Profiler {
    /// A profiler reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Profiler {
            clock,
            stack: RefCell::new(Vec::new()),
        }
    }

    fn finish(self, total_micros: u64) -> QueryProfile {
        let mut stack = self.stack.into_inner();
        let root = stack.pop().expect("profiled build produced a root");
        QueryProfile { root, total_micros }
    }
}

/// A built operator plus the column reference (if any) by which its output
/// is already sorted in descending order.
struct Built<'a> {
    op: Box<dyn PhysicalOp + 'a>,
    sorted_desc: Option<String>,
}

/// Execute a logical plan to a materialized result.
///
/// The guard is checked once before any operator runs, so an
/// already-expired deadline (or a cancelled handle) fails fast without
/// touching storage, and then cooperatively inside every operator's
/// `next()` loop.
pub fn execute_plan(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> ExecResult<ResultSet> {
    ctx.guard.check()?;
    let mut built = build(plan, ctx)?;
    let rows = drain(built.op.as_mut())?;
    Ok(ResultSet::new(plan.schema(), rows))
}

/// Execute a logical plan while collecting per-operator actuals — the
/// engine of `EXPLAIN ANALYZE`. Timing reads `clock`, so tests inject a
/// manual clock for byte-stable output.
pub fn execute_plan_profiled(
    plan: &LogicalPlan,
    ctx: &ExecContext<'_>,
    clock: Arc<dyn Clock>,
) -> ExecResult<(ResultSet, QueryProfile)> {
    ctx.guard.check()?;
    let profiled = ExecContext {
        catalog: ctx.catalog,
        provider: ctx.provider,
        guard: ctx.guard.clone(),
        metrics: ctx.metrics,
        profiler: Some(Profiler::new(Arc::clone(&clock))),
        params: ctx.params,
    };
    let start = clock.now_micros();
    let mut built = build(plan, &profiled)?;
    let rows = drain(built.op.as_mut())?;
    let total_micros = clock.now_micros().saturating_sub(start);
    drop(built);
    let profile = profiled.profiler.expect("set above").finish(total_micros);
    Ok((ResultSet::new(plan.schema(), rows), profile))
}

/// Recursive build entry point: delegates to [`build_node`], then — when a
/// profiler is attached — wraps the finished operator in a [`MeteredOp`]
/// and records its node (with whatever children the recursion pushed) in
/// the profile tree.
fn build<'a>(plan: &LogicalPlan, ctx: &ExecContext<'a>) -> ExecResult<Built<'a>> {
    let Some(profiler) = &ctx.profiler else {
        return build_node(plan, ctx);
    };
    let mark = profiler.stack.borrow().len();
    let built = build_node(plan, ctx)?;
    let children = profiler.stack.borrow_mut().split_off(mark);
    let stats = Arc::new(OpStats::default());
    let label = node_label(built.op.as_ref(), plan);
    profiler.stack.borrow_mut().push(ProfiledOp {
        label,
        stats: Arc::clone(&stats),
        children,
    });
    Ok(Built {
        op: Box::new(MeteredOp::new(built.op, stats, Arc::clone(&profiler.clock))),
        sorted_desc: built.sorted_desc,
    })
}

/// Display label for a profiled node: the *physical* operator name (so
/// fusion and access-path choices show what actually ran) plus the most
/// useful logical detail.
fn node_label(op: &dyn PhysicalOp, plan: &LogicalPlan) -> String {
    let name = op.name();
    match plan {
        LogicalPlan::Scan { table, binding, .. } => format!("{name} {table} AS {binding}"),
        // The scan took the predicate above it: one operator for both.
        LogicalPlan::Filter { input, .. } if name == "SeqScan" => {
            let filter = op.detail().unwrap_or_default();
            format!("{} {filter}", node_label(op, input))
        }
        LogicalPlan::Recommend(node) => format!("{name} {}", node.algorithm.name()),
        LogicalPlan::RecJoin { rec, .. } if name == "JoinRecommend" => {
            format!("{name} {}", rec.algorithm.name())
        }
        LogicalPlan::Limit { input, limit } => match &**input {
            // The online Recommend leaf took the `k` as its sink: one
            // operator for Limit, Sort and leaf.
            LogicalPlan::Sort { input: leaf, .. } if name.ends_with("Recommend") => {
                format!("{} top-k={limit}", node_label(op, leaf))
            }
            _ => format!("{name} k={limit}"),
        },
        // A Sort node whose physical operator is not a sort: the stream
        // below was already ordered (IndexRecommend) and the sort elided.
        LogicalPlan::Sort { .. } if !name.contains("Sort") => format!("{name} [sort elided]"),
        _ => name.to_owned(),
    }
}

fn build_node<'a>(plan: &LogicalPlan, ctx: &ExecContext<'a>) -> ExecResult<Built<'a>> {
    let bind = |e: &Expr, schema: &Schema| bind(e, schema, ctx.params);
    match plan {
        LogicalPlan::Scan { table, schema, .. } => Ok(Built {
            op: Box::new(seq_scan(table, schema, ctx)?),
            sorted_desc: None,
        }),
        LogicalPlan::Recommend(node) => build_recommend(node, ctx),
        LogicalPlan::Filter { input, predicate } => {
            // A predicate directly over a base table runs inside the scan:
            // one operator, which decodes only the rows its keys accept.
            if let LogicalPlan::Scan { table, schema, .. } = &**input {
                return Ok(Built {
                    op: Box::new(seq_scan(table, schema, ctx)?.with_filter(predicate, ctx.params)?),
                    sorted_desc: None,
                });
            }
            let child = build(input, ctx)?;
            let bound = bind(predicate, child.op.schema())?;
            Ok(Built {
                sorted_desc: child.sorted_desc,
                op: Box::new(FilterOp::new(child.op, bound).with_guard(ctx.guard.clone())),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let l = build(left, ctx)?;
            // Access-path choice: probe a B-tree index on the inner table
            // when the join is an equi-join on an indexed leading column.
            if let Some(built) =
                try_index_join(l.op.schema().clone(), right, predicate.as_ref(), ctx)?
            {
                let (inner_table, index, inner_schema, residual, l_ord) = built;
                return Ok(Built {
                    op: Box::new(
                        IndexJoinOp::new(l.op, inner_table, index, &inner_schema, l_ord, residual)
                            .with_guard(ctx.guard.clone()),
                    ),
                    sorted_desc: None,
                });
            }
            let r = build(right, ctx)?;
            let (equi, residual) =
                split_join_predicate(predicate.as_ref(), l.op.schema(), r.op.schema(), ctx)?;
            Ok(Built {
                op: Box::new(JoinOp::new(l.op, r.op, equi, residual).with_guard(ctx.guard.clone())),
                sorted_desc: None,
            })
        }
        LogicalPlan::RecJoin {
            rec,
            outer,
            outer_item_column,
        } => {
            let model = recommender_model(rec, ctx)?;
            let preds = rec.preds(ctx.params)?;
            let outer_built = build(outer, ctx)?;
            let ordinal = outer_built.op.schema().resolve(outer_item_column)?;
            // iPred on the rec side composes with the join: keep only outer
            // items in the pushed-down list.
            let op = JoinRecommendOp::new(
                model,
                rec.schema(),
                outer_built.op,
                ordinal,
                preds.user_ids,
                preds.min_rating,
                preds.max_rating,
            )
            .with_guard(ctx.guard.clone());
            let op: Box<dyn PhysicalOp + 'a> = match &preds.item_ids {
                None => Box::new(op),
                Some(items) => {
                    let schema = op.schema().clone();
                    let pred =
                        item_in_list_predicate(&schema, &rec.binding, &rec.item_column, items)?;
                    Box::new(FilterOp::new(Box::new(op), pred).with_guard(ctx.guard.clone()))
                }
            };
            Ok(Built {
                op,
                sorted_desc: None,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            outputs,
        } => {
            let child = build(input, ctx)?;
            let keys: Vec<BoundExpr> = group_by
                .iter()
                .map(|g| bind(g, child.op.schema()))
                .collect::<ExecResult<_>>()?;
            let bound_outputs: Vec<AggOutput> = outputs
                .iter()
                .map(|o| {
                    Ok(match o {
                        AggregateOutput::Group { index, .. } => AggOutput::Group(*index),
                        AggregateOutput::Agg { func, arg, .. } => AggOutput::Agg(
                            *func,
                            arg.as_ref()
                                .map(|a| bind(a, child.op.schema()))
                                .transpose()?,
                        ),
                    })
                })
                .collect::<ExecResult<_>>()?;
            Ok(Built {
                op: Box::new(
                    HashAggregateOp::new(child.op, keys, bound_outputs, plan.schema())
                        .with_guard(ctx.guard.clone()),
                ),
                sorted_desc: None,
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let child = build(input, ctx)?;
            if sort_is_redundant(keys, child.sorted_desc.as_deref(), child.op.schema()) {
                return Ok(child);
            }
            let bound: Vec<(BoundExpr, bool)> = keys
                .iter()
                .map(|k| Ok((bind(&k.expr, child.op.schema())?, k.desc)))
                .collect::<ExecResult<_>>()?;
            let sorted_desc = single_desc_column(keys);
            Ok(Built {
                op: Box::new(SortOp::new(child.op, bound).with_guard(ctx.guard.clone())),
                sorted_desc,
            })
        }
        LogicalPlan::Limit { input, limit } => {
            // Fuse `LIMIT k` over `ORDER BY` into a bounded top-k sort:
            // the sort then keeps only `k` rows (stable heap selection)
            // instead of fully sorting its input.
            if let LogicalPlan::Sort {
                input: sort_input,
                keys,
            } = &**input
            {
                let k = usize::try_from(*limit).unwrap_or(usize::MAX);
                // Ordered by the Recommend leaf's own score with nothing in
                // between: an online leaf selects the `k` itself. Decided
                // here, not by a logical rewrite, because whether the leaf
                // runs online is known only now; a materialized user keeps
                // `Limit` over `IndexRecommend` below.
                if let LogicalPlan::Recommend(node) = &**sort_input {
                    let score = format!("{}.{}", node.binding, node.rating_column);
                    let preds = node.preds(ctx.params)?;
                    if serving_index(node, &preds, ctx).is_none()
                        && sort_is_redundant(keys, Some(&score), &node.schema())
                    {
                        return Ok(Built {
                            op: Box::new(online_recommend(node, preds, ctx)?.with_top_k(k)),
                            sorted_desc: Some(score),
                        });
                    }
                }
                let child = build(sort_input, ctx)?;
                if sort_is_redundant(keys, child.sorted_desc.as_deref(), child.op.schema()) {
                    return Ok(Built {
                        sorted_desc: child.sorted_desc,
                        op: Box::new(LimitOp::new(child.op, *limit).with_guard(ctx.guard.clone())),
                    });
                }
                let bound: Vec<(BoundExpr, bool)> = keys
                    .iter()
                    .map(|k| Ok((bind(&k.expr, child.op.schema())?, k.desc)))
                    .collect::<ExecResult<_>>()?;
                let sorted_desc = single_desc_column(keys);
                return Ok(Built {
                    op: Box::new(
                        SortOp::with_limit(child.op, bound, k).with_guard(ctx.guard.clone()),
                    ),
                    sorted_desc,
                });
            }
            let child = build(input, ctx)?;
            Ok(Built {
                sorted_desc: child.sorted_desc,
                op: Box::new(LimitOp::new(child.op, *limit).with_guard(ctx.guard.clone())),
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let child = build(input, ctx)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| bind(e, child.op.schema()))
                .collect::<ExecResult<_>>()?;
            Ok(Built {
                op: Box::new(
                    ProjectOp::new(child.op, bound, plan.schema()).with_guard(ctx.guard.clone()),
                ),
                sorted_desc: None,
            })
        }
    }
}

fn seq_scan<'a>(table: &str, schema: &Schema, ctx: &ExecContext<'a>) -> ExecResult<ScanOp<'a>> {
    let heap = ctx.catalog.table(table)?.heap();
    let scan = ScanOp::new(heap, schema.clone()).with_guard(ctx.guard.clone());
    Ok(match ctx.metrics {
        Some(metrics) => scan.with_rows_counter(Arc::clone(&metrics.rows_scanned)),
        None => scan,
    })
}

/// The RecScoreIndex that can serve `node` with predicates `preds`:
/// IndexRecommend is sound only when every queried user's full list is
/// materialized.
fn serving_index(
    node: &RecommendNode,
    preds: &RecommendPreds,
    ctx: &ExecContext<'_>,
) -> Option<Arc<RecScoreIndex>> {
    let users = preds.user_ids.as_ref().filter(|users| !users.is_empty())?;
    let index = ctx
        .provider
        .rec_index(&node.ratings_table, node.algorithm)?;
    users.iter().all(|&u| index.is_complete(u)).then_some(index)
}

fn build_recommend<'a>(node: &RecommendNode, ctx: &ExecContext<'a>) -> ExecResult<Built<'a>> {
    let preds = node.preds(ctx.params)?;
    let Some(index) = serving_index(node, &preds, ctx) else {
        return Ok(Built {
            op: Box::new(online_recommend(node, preds, ctx)?),
            sorted_desc: None,
        });
    };
    if let Some(metrics) = ctx.metrics {
        metrics.index_hits.inc();
    }
    let users = preds.user_ids.unwrap_or_default();
    let sorted_desc =
        (users.len() == 1).then(|| format!("{}.{}", node.binding, node.rating_column));
    Ok(Built {
        op: Box::new(
            IndexRecommendOp::new(
                index,
                node.schema(),
                users,
                preds.item_ids,
                preds.min_rating,
                preds.max_rating,
            )
            .with_guard(ctx.guard.clone()),
        ),
        sorted_desc,
    })
}

fn recommender_model(node: &RecommendNode, ctx: &ExecContext<'_>) -> ExecResult<Arc<RecModel>> {
    ctx.provider
        .model(&node.ratings_table, node.algorithm)
        .ok_or_else(|| ExecError::NoRecommender {
            table: node.ratings_table.clone(),
            algorithm: node.algorithm.name().to_owned(),
        })
}

/// On-the-fly prediction: the score index cannot serve this query.
fn online_recommend(
    node: &RecommendNode,
    preds: RecommendPreds,
    ctx: &ExecContext<'_>,
) -> ExecResult<RecommendOp> {
    let model = recommender_model(node, ctx)?;
    if let Some(metrics) = ctx.metrics {
        metrics.index_misses.inc();
    }
    Ok(RecommendOp::new(
        model,
        node.schema(),
        preds.user_ids,
        preds.item_ids,
        preds.min_rating,
        preds.max_rating,
    )
    .with_guard(ctx.guard.clone()))
}

/// Is the requested sort already satisfied by a stream sorted descending on
/// `sorted_ref`?
fn sort_is_redundant(keys: &[OrderKey], sorted_ref: Option<&str>, schema: &Schema) -> bool {
    let Some(sorted_ref) = sorted_ref else {
        return false;
    };
    let [key] = keys else { return false };
    if !key.desc {
        return false;
    }
    let Some(reference) = key.expr.column_ref() else {
        return false;
    };
    // Same column iff both references resolve to the same ordinal.
    match (schema.resolve(&reference), schema.resolve(sorted_ref)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn single_desc_column(keys: &[OrderKey]) -> Option<String> {
    let [key] = keys else { return None };
    if !key.desc {
        return None;
    }
    key.expr.column_ref()
}

/// An extracted equi-condition (left/right ordinals) plus the residual
/// predicate bound against the joined schema.
type JoinPredicateParts = (Option<(usize, usize)>, Option<BoundExpr>);

/// Split a join predicate into one hash-able equi-condition (ordinals in
/// the left/right schemas) and a residual bound against the joined schema.
fn split_join_predicate(
    predicate: Option<&Expr>,
    left: &Schema,
    right: &Schema,
    ctx: &ExecContext<'_>,
) -> ExecResult<JoinPredicateParts> {
    let Some(predicate) = predicate else {
        return Ok((None, None));
    };
    let joined = left.join(right);
    let mut equi = None;
    let mut residual = Vec::new();
    for c in predicate.conjuncts() {
        if equi.is_none() {
            if let Some(pair) = match_equi(c, left, right) {
                equi = Some(pair);
                continue;
            }
        }
        residual.push(c.clone());
    }
    let residual = match Expr::and_all(residual) {
        Some(e) => Some(bind(&e, &joined, ctx.params)?),
        None => None,
    };
    Ok((equi, residual))
}

fn match_equi(expr: &Expr, left: &Schema, right: &Schema) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left: a,
        right: b,
    } = expr
    else {
        return None;
    };
    let resolve = |e: &Expr, s: &Schema| -> Option<usize> { s.resolve(&e.column_ref()?).ok() };
    if let (Some(l), Some(r)) = (resolve(a, left), resolve(b, right)) {
        return Some((l, r));
    }
    if let (Some(l), Some(r)) = (resolve(b, left), resolve(a, right)) {
        return Some((l, r));
    }
    None
}

/// What `try_index_join` hands the Join arm when an index path exists.
type IndexJoinParts<'a> = (
    &'a recdb_storage::Table,
    &'a recdb_storage::BTreeIndex,
    Schema,
    Option<BoundExpr>,
    usize,
);

/// Probe for an index nested-loop opportunity: the inner (right) side must
/// be a base-table scan (optionally filtered), the predicate must contain
/// an equi-condition on the inner table's single-column index, and every
/// other conjunct becomes the residual. A stale index (a failed rollback
/// rebuild) is never offered: the join hashes instead.
fn try_index_join<'a>(
    left_schema: Schema,
    right: &LogicalPlan,
    predicate: Option<&Expr>,
    ctx: &ExecContext<'a>,
) -> ExecResult<Option<IndexJoinParts<'a>>> {
    let Some(predicate) = predicate else {
        return Ok(None);
    };
    let (table_name, inner_schema, inner_filter) = match right {
        LogicalPlan::Scan { table, schema, .. } => (table, schema.clone(), None),
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Scan { table, schema, .. } => {
                (table, schema.clone(), Some(predicate.clone()))
            }
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let table = ctx.catalog.table(table_name)?;
    let mut chosen: Option<(usize, &recdb_storage::BTreeIndex)> = None;
    let mut residual = Vec::new();
    for c in predicate.conjuncts() {
        if chosen.is_none() {
            if let Some((l_ord, r_ord)) = match_equi(c, &left_schema, &inner_schema) {
                let mut usable = table.usable_indexes().iter();
                if let Some(index) = usable.find(|i| i.key_columns() == [r_ord]) {
                    chosen = Some((l_ord, index));
                    continue;
                }
            }
        }
        residual.push(c.clone());
    }
    let Some((l_ord, index)) = chosen else {
        return Ok(None);
    };
    if let Some(f) = inner_filter {
        residual.push(f);
    }
    let joined = left_schema.join(&inner_schema);
    let residual = match Expr::and_all(residual) {
        Some(e) => Some(bind(&e, &joined, ctx.params)?),
        None => None,
    };
    Ok(Some((table, index, inner_schema, residual, l_ord)))
}

/// Build `binding.item_column IN (items)` bound against `schema` — used to
/// re-apply a pushed-down iPred on top of JoinRecommend output.
fn item_in_list_predicate(
    schema: &Schema,
    binding: &str,
    item_column: &str,
    items: &[i64],
) -> ExecResult<BoundExpr> {
    let expr = Expr::InList {
        expr: Box::new(Expr::qcol(binding, item_column)),
        list: items.iter().map(|&v| Expr::int(v)).collect(),
        negated: false,
    };
    bind(&expr, schema, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::plan::build_logical;
    use crate::provider::SingleRecommender;
    use crate::rec_index::RecScoreIndex;
    use recdb_algo::{Algorithm, Rating, RatingsMatrix, RecModel};
    use recdb_sql::parse;
    use recdb_storage::{DataType, Tuple, Value};

    /// Figure 1's world: ratings + movies tables, an ItemCosCF recommender.
    fn setup() -> (Catalog, SingleRecommender) {
        let mut cat = Catalog::new();
        let ratings = cat
            .create_table(
                "ratings",
                Schema::from_pairs(&[
                    ("uid", DataType::Int),
                    ("iid", DataType::Int),
                    ("ratingval", DataType::Float),
                ]),
            )
            .unwrap();
        let data = vec![
            (1, 1, 1.5),
            (2, 2, 3.5),
            (2, 1, 4.5),
            (2, 3, 2.0),
            (3, 2, 1.0),
            (3, 1, 2.0),
            (4, 2, 1.0),
        ];
        for (u, i, r) in &data {
            ratings
                .insert(Tuple::new(vec![
                    Value::Int(*u),
                    Value::Int(*i),
                    Value::Float(*r),
                ]))
                .unwrap();
        }
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
            (1, "Spartacus", "Action"),
            (2, "Inception", "Suspense"),
            (3, "The Matrix", "Sci-Fi"),
        ] {
            movies
                .insert(Tuple::new(vec![
                    Value::Int(mid),
                    Value::Text(name.into()),
                    Value::Text(genre.into()),
                ]))
                .unwrap();
        }
        let model = RecModel::train(
            Algorithm::ItemCosCF,
            RatingsMatrix::from_ratings(data.iter().map(|&(u, i, r)| Rating::new(u, i, r))),
            &Default::default(),
        );
        let provider = SingleRecommender::new("ratings", Algorithm::ItemCosCF, model);
        (cat, provider)
    }

    fn run(sql: &str, cat: &Catalog, provider: &SingleRecommender) -> ResultSet {
        let recdb_sql::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let plan = optimize(build_logical(&s, cat).unwrap());
        let ctx = ExecContext::new(cat, provider, QueryGuard::unlimited());
        execute_plan(&plan, &ctx).unwrap()
    }

    #[test]
    fn plain_sql_end_to_end() {
        let (cat, provider) = setup();
        let r = run(
            "SELECT name FROM movies WHERE genre = 'Action'",
            &cat,
            &provider,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "name").unwrap().as_text(), Some("Spartacus"));
    }

    #[test]
    fn paper_query1_top_k_recommendation() {
        let (cat, provider) = setup();
        let r = run(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10",
            &cat,
            &provider,
        );
        // User 1 rated item 1 → items 2 and 3 recommended.
        assert_eq!(r.len(), 2);
        let scores: Vec<f64> = r
            .rows()
            .iter()
            .map(|t| t.get(2).unwrap().as_f64().unwrap())
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn limit_over_sort_fuses_into_bounded_topk() {
        let (cat, provider) = setup();
        // All rows, fully sorted (no LIMIT → plain SortOp)...
        let full = run(
            "SELECT uid, iid, ratingval FROM ratings ORDER BY ratingval DESC, uid, iid",
            &cat,
            &provider,
        );
        assert_eq!(full.len(), 7);
        // ...must be the exact prefix of the fused top-k plan's output.
        for k in [0usize, 1, 3, 7, 20] {
            let topk = run(
                &format!(
                    "SELECT uid, iid, ratingval FROM ratings \
                     ORDER BY ratingval DESC, uid, iid LIMIT {k}"
                ),
                &cat,
                &provider,
            );
            assert_eq!(topk.rows(), &full.rows()[..k.min(7)], "k {k}");
        }
    }

    #[test]
    fn paper_query4_join_with_genre_filter() {
        let (cat, provider) = setup();
        let r = run(
            "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 4 AND M.mid = R.iid AND M.genre = 'Sci-Fi'",
            &cat,
            &provider,
        );
        // User 4 rated item 2 only; item 3 (Sci-Fi) is unseen.
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "name").unwrap().as_text(), Some("The Matrix"));
    }

    #[test]
    fn join_and_recjoin_agree() {
        // The same query with the ratings table second (so the RecJoin
        // rewrite does not fire) must produce identical rows.
        let (cat, provider) = setup();
        let via_recjoin = run(
            "SELECT M.name, R.ratingval FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND M.mid = R.iid ORDER BY M.name",
            &cat,
            &provider,
        );
        let via_join = run(
            "SELECT M.name, R.ratingval FROM movies AS M, ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND M.mid = R.iid ORDER BY M.name",
            &cat,
            &provider,
        );
        assert_eq!(via_recjoin.rows(), via_join.rows());
        assert_eq!(via_recjoin.len(), 2);
    }

    /// `provider` with `users`' full lists materialized.
    fn materialized(provider: SingleRecommender, users: &[i64]) -> SingleRecommender {
        let model = provider.model("ratings", Algorithm::ItemCosCF).unwrap();
        let mut idx = RecScoreIndex::new();
        for &user in users {
            let list: Vec<(i64, f64)> = model
                .matrix()
                .item_ids()
                .iter()
                .filter(|&&item| model.matrix().rating_of(user, item).is_none())
                .map(|&item| (item, model.predict(user, item).unwrap_or(0.0)))
                .collect();
            idx.replace_user_list(user, &list);
        }
        provider.with_index(idx)
    }

    /// The operator tree `EXPLAIN ANALYZE` would print, without the
    /// actuals and the total.
    fn operators(sql: &str, cat: &Catalog, provider: &SingleRecommender) -> Vec<String> {
        let recdb_sql::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let plan = optimize(build_logical(&s, cat).unwrap());
        let ctx = ExecContext::new(cat, provider, QueryGuard::unlimited());
        let clock = Arc::new(recdb_obs::ManualClock::new());
        let (_, profile) = execute_plan_profiled(&plan, &ctx, clock).unwrap();
        let mut lines = profile.render();
        lines.pop();
        lines
            .iter()
            .map(|l| l.split(" (rows=").next().unwrap().trim().to_owned())
            .collect()
    }

    const RECOMMEND: &str = "SELECT R.iid, R.ratingval FROM ratings AS R \
                             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF";

    #[test]
    fn index_recommend_serves_topk_when_complete() {
        let (cat, online) = setup();
        let (_, provider) = setup();
        let indexed = materialized(provider, &[1, 4]);
        // User 1's two candidates tie on score: the two access paths must
        // still agree on which comes first (item id descending).
        for users in ["R.uid = 1", "R.uid IN (4, 1)"] {
            for k in [0, 1, 2, 9] {
                let sql = format!("{RECOMMEND} WHERE {users} ORDER BY R.ratingval DESC LIMIT {k}");
                let with_index = run(&sql, &cat, &indexed);
                assert_eq!(with_index.rows(), run(&sql, &cat, &online).rows(), "{sql}");
                assert_eq!(
                    with_index.len(),
                    k.min(if users.contains("IN") { 4 } else { 2 })
                );
            }
        }
        let top1 = run(
            &format!("{RECOMMEND} WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 1"),
            &cat,
            &online,
        );
        assert_eq!(top1.rows()[0].get(0), Some(&Value::Int(3)));
    }

    /// Which physical operators serve `ORDER BY <score> DESC LIMIT k`: the
    /// online leaf alone when the order is its own score and nothing sits
    /// in between, `TopKSort` or `Limit` in every other shape.
    #[test]
    fn online_recommend_leaf_takes_limit_over_its_own_score_as_a_sink() {
        let (cat, online) = setup();
        let (_, provider) = setup();
        let indexed = materialized(provider, &[1, 4]);
        let ops = |tail: &str, provider| operators(&format!("{RECOMMEND} {tail}"), &cat, provider);
        let top2 = "ORDER BY R.ratingval DESC LIMIT 2";
        assert_eq!(
            ops(&format!("WHERE R.uid = 1 {top2}"), &online),
            ["Project", "FilterRecommend ItemCosCF top-k=2"]
        );
        assert_eq!(
            ops(
                &format!("WHERE R.uid IN (1, 4) AND R.iid IN (2, 3) {top2}"),
                &online
            ),
            ["Project", "FilterRecommend ItemCosCF top-k=2"]
        );
        assert_eq!(
            ops("ORDER BY ratingval DESC LIMIT 2", &online),
            ["Project", "Recommend ItemCosCF top-k=2"]
        );
        // A user without a complete list sends the whole statement online.
        assert_eq!(
            ops(&format!("WHERE R.uid IN (1, 2) {top2}"), &indexed),
            ["Project", "FilterRecommend ItemCosCF top-k=2"]
        );
        // Materialized users keep Algorithm 3's plans.
        assert_eq!(
            ops(&format!("WHERE R.uid = 1 {top2}"), &indexed),
            ["Project", "Limit k=2", "IndexRecommend ItemCosCF"]
        );
        assert_eq!(
            ops(&format!("WHERE R.uid IN (1, 4) {top2}"), &indexed),
            ["Project", "TopKSort k=2", "IndexRecommend ItemCosCF"]
        );
        // Another order, a second key, or no limit: a sort above the leaf.
        assert_eq!(
            ops("WHERE R.uid = 1 ORDER BY R.ratingval ASC LIMIT 2", &online),
            ["Project", "TopKSort k=2", "FilterRecommend ItemCosCF"]
        );
        assert_eq!(
            ops(
                "WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid LIMIT 2",
                &online
            ),
            ["Project", "TopKSort k=2", "FilterRecommend ItemCosCF"]
        );
        assert_eq!(
            ops("WHERE R.uid = 1 ORDER BY R.ratingval DESC", &online),
            ["Project", "Sort", "FilterRecommend ItemCosCF"]
        );
        // A residual predicate between the sort and the leaf.
        assert_eq!(
            ops(
                &format!("WHERE R.uid = 1 AND R.ratingval * 2 > 1 {top2}"),
                &online
            ),
            [
                "Project",
                "TopKSort k=2",
                "Filter",
                "FilterRecommend ItemCosCF"
            ]
        );
    }

    /// A predicate directly over a base table is the scan's own: one
    /// `SeqScan` node, wherever the plan puts it. Over anything else the
    /// `Filter` operator stays.
    #[test]
    fn filter_over_a_base_table_is_one_seq_scan() {
        let (cat, provider) = setup();
        let ops = |sql: &str| operators(sql, &cat, &provider);
        assert_eq!(
            ops("SELECT name FROM movies WHERE genre = 'Action'"),
            ["Project", "SeqScan movies AS movies filter: keys=1"]
        );
        assert_eq!(
            ops("SELECT iid FROM ratings WHERE uid = 4 AND ratingval * 2 > 1"),
            [
                "Project",
                "SeqScan ratings AS ratings filter: keys=1 +residual"
            ]
        );
        assert_eq!(
            ops("SELECT iid FROM ratings WHERE uid = 4 OR iid = 1"),
            [
                "Project",
                "SeqScan ratings AS ratings filter: keys=0 +residual"
            ]
        );
        assert_eq!(
            ops("SELECT iid FROM ratings"),
            ["Project", "SeqScan ratings AS ratings"]
        );
        // Paper Query 4: JoinRecommend's outer is the filtered scan.
        assert_eq!(
            ops(
                "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 4 AND M.mid = R.iid AND M.genre = 'Sci-Fi'"
            ),
            [
                "Project",
                "JoinRecommend ItemCosCF",
                "SeqScan movies AS M filter: keys=1"
            ]
        );
        // A hash join's inputs and an aggregate's input get it too.
        assert_eq!(
            ops("SELECT A.name FROM movies AS A, movies AS B \
                 WHERE A.mid = B.mid AND A.genre = 'Action' AND B.mid > 0"),
            [
                "Project",
                "HashJoin",
                "SeqScan movies AS A filter: keys=1",
                "SeqScan movies AS B filter: keys=1"
            ]
        );
        assert_eq!(
            ops("SELECT M.genre, COUNT(*) AS n FROM movies AS M \
                 WHERE M.mid >= 2 GROUP BY M.genre"),
            ["HashAggregate", "SeqScan movies AS M filter: keys=1"]
        );
        // Not over a base table: the Filter operator, as before.
        assert_eq!(
            ops(&format!(
                "{RECOMMEND} WHERE R.uid = 1 AND R.ratingval * 2 > 1"
            )),
            ["Project", "Filter", "FilterRecommend ItemCosCF"]
        );
    }

    #[test]
    fn incomplete_index_falls_back_to_online() {
        let (cat, provider) = setup();
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 2, 99.0); // bogus partial entry, NOT marked complete
        let provider = SingleRecommender {
            index: Some(std::sync::Arc::new(idx)),
            ..provider
        };
        let r = run(
            "SELECT R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1",
            &cat,
            &provider,
        );
        // The bogus 99.0 must NOT appear: online path was used.
        assert!(r
            .rows()
            .iter()
            .all(|t| t.get(1).unwrap().as_f64().unwrap() < 99.0));
    }

    #[test]
    fn missing_recommender_is_reported() {
        let (cat, provider) = setup();
        let recdb_sql::Statement::Select(s) = parse(
            "SELECT R.uid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD",
        )
        .unwrap() else {
            panic!()
        };
        let plan = optimize(build_logical(&s, &cat).unwrap());
        let ctx = ExecContext::new(&cat, &provider, QueryGuard::unlimited());
        let err = execute_plan(&plan, &ctx).unwrap_err();
        assert!(matches!(err, ExecError::NoRecommender { .. }));
    }

    #[test]
    fn projection_expressions_compute() {
        let (cat, provider) = setup();
        let r = run(
            "SELECT R.iid, R.ratingval * 2 AS doubled FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND R.iid = 2",
            &cat,
            &provider,
        );
        assert_eq!(r.len(), 1);
        let doubled = r.value(0, "doubled").unwrap().as_f64().unwrap();
        assert!((doubled - 3.0).abs() < 1e-9, "1.5 * 2 (Eq. 2 by hand)");
    }

    #[test]
    fn aggregate_query_end_to_end() {
        let (cat, provider) = setup();
        let r = run(
            "SELECT M.genre, COUNT(*) AS n FROM movies AS M GROUP BY M.genre \
             ORDER BY n DESC, M.genre ASC",
            &cat,
            &provider,
        );
        assert_eq!(r.len(), 3, "three genres, one movie each");
        for t in r.rows() {
            assert_eq!(t.get(1).unwrap(), &Value::Int(1));
        }
        // Aggregate over recommendation output: how many recommendations
        // per user, and their mean predicted score.
        let r = run(
            "SELECT R.uid, COUNT(*) AS n, AVG(R.ratingval) AS mean \
             FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             GROUP BY R.uid ORDER BY R.uid",
            &cat,
            &provider,
        );
        // Users 1, 3, 4 have unseen items (user 2 rated everything).
        assert_eq!(r.len(), 3);
        let total: i64 = r
            .rows()
            .iter()
            .map(|t| t.get(1).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 5, "5 unseen pairs overall");
    }

    #[test]
    fn index_join_chosen_and_correct() {
        let (mut cat, provider) = setup();
        // Without an index: hash join. With: index nested loop. Answers
        // must be identical and the indexed run must read fewer pages for
        // a selective probe stream.
        let sql = "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
                   RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                   WHERE R.uid = 4 AND M.mid = R.iid ORDER BY M.name";
        // Defeat the RecJoin rewrite so the plain Join arm is exercised:
        // put movies first (rec on the right keeps Join).
        let sql_plain = "SELECT M.name, R.ratingval FROM movies AS M, ratings AS R \
                         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                         WHERE R.uid = 4 AND M.mid = R.iid ORDER BY M.name";
        let before = run(sql_plain, &cat, &provider);
        cat.table_mut("movies")
            .unwrap()
            .create_index("movies_mid", &["mid"])
            .unwrap();
        let after = run(sql_plain, &cat, &provider);
        assert_eq!(before.rows(), after.rows());
        let with_recjoin = run(sql, &cat, &provider);
        assert_eq!(with_recjoin.len(), after.len());
    }

    #[test]
    fn index_join_with_inner_filter_residual() {
        let (mut cat, provider) = setup();
        cat.table_mut("movies")
            .unwrap()
            .create_index("movies_mid", &["mid"])
            .unwrap();
        let users = cat
            .create_table(
                "users",
                Schema::from_pairs(&[("uid", DataType::Int), ("name", DataType::Text)]),
            )
            .unwrap();
        for (uid, name) in [(1, "Alice"), (2, "Bob"), (3, "Carol"), (4, "Eve")] {
            users
                .insert(Tuple::new(vec![Value::Int(uid), Value::Text(name.into())]))
                .unwrap();
        }
        // users × movies equi-join with a genre filter on the inner side.
        let r = run(
            "SELECT U.name, M.name FROM users AS U, movies AS M \
             WHERE U.uid = M.mid AND M.genre = 'Sci-Fi'",
            &cat,
            &provider,
        );
        // users 1..4 join movies 1..3 on uid = mid; only movie 3 is Sci-Fi.
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "M.name").unwrap().as_text(), Some("The Matrix"));
    }

    #[test]
    fn two_way_join_three_tables() {
        let (mut cat, provider) = setup();
        let users = cat
            .create_table(
                "users",
                Schema::from_pairs(&[("uid", DataType::Int), ("city", DataType::Text)]),
            )
            .unwrap();
        users
            .insert(Tuple::new(vec![
                Value::Int(1),
                Value::Text("Minneapolis".into()),
            ]))
            .unwrap();
        let r = run(
            "SELECT U.city, M.name, R.ratingval \
             FROM ratings AS R, movies AS M, users AS U \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND M.mid = R.iid AND U.uid = R.uid \
             AND M.genre = 'Sci-Fi'",
            &cat,
            &provider,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "city").unwrap().as_text(), Some("Minneapolis"));
        assert_eq!(r.value(0, "name").unwrap().as_text(), Some("The Matrix"));
    }
}
