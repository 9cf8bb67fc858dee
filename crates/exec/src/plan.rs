//! Logical query plans.
//!
//! [`build_logical`] turns a parsed `SELECT` into the *naive* plan shape of
//! the paper's Figure 3: the `RECOMMEND` leaf (or table scans) at the
//! bottom, cross joins in FROM order, one `Filter` carrying the whole WHERE
//! clause, then `Sort` / `Limit` / `Project`. The optimizer
//! ([`crate::optimizer`]) rewrites that shape into the paper's optimized
//! plans (FilterRecommend, JoinRecommend).

use crate::error::{ExecError, ExecResult};
use crate::expr::{constant, BuiltinFunc};
use crate::ops::aggregate::AggFunc;
use recdb_algo::Algorithm;
use recdb_sql::{Expr, Literal, OrderKey, ParamKind, SelectItem, SelectStatement};
use recdb_storage::{Catalog, Column, DataType, Schema};
use std::fmt;

/// The `RECOMMEND` leaf: which recommender to read and, after
/// optimization, which uid/iid/ratingval predicates were pushed into it
/// (turning it into the paper's FILTERRECOMMEND).
///
/// A pushed-down predicate keeps its constants as written — integer or
/// float literals, or parameter slots — and [`RecommendNode::preds`]
/// values them when the physical plan is built, so one optimized plan
/// serves every value of a statement's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendNode {
    /// The binding (alias) of the ratings table in FROM.
    pub binding: String,
    /// The ratings table the recommender was created on.
    pub ratings_table: String,
    /// The recommendation algorithm from USING.
    pub algorithm: Algorithm,
    /// Output column name for the user id (from `TO <col>`).
    pub user_column: String,
    /// Output column name for the item id (from `RECOMMEND <col>`).
    pub item_column: String,
    /// Output column name for the predicted rating (from `ON <col>`).
    pub rating_column: String,
    /// `uPred`: the candidate users of each absorbed predicate (`uid = k`,
    /// `uid IN (…)`) in WHERE order; the leaf scores their intersection.
    pub user_lists: Vec<Vec<Expr>>,
    /// `iPred`: the candidate items of each absorbed predicate, likewise.
    pub item_lists: Vec<Vec<Expr>>,
    /// `rPred` lower bounds (inclusive); the largest applies.
    pub min_ratings: Vec<Expr>,
    /// `rPred` upper bounds (inclusive); the smallest applies.
    pub max_ratings: Vec<Expr>,
}

/// A Recommend leaf's pushed-down predicates valued for one execution:
/// what its physical operators take.
#[derive(Debug, PartialEq)]
pub struct RecommendPreds {
    /// Only score these users (`uPred`), when pushed down.
    pub user_ids: Option<Vec<i64>>,
    /// Only score these items (`iPred`), when pushed down.
    pub item_ids: Option<Vec<i64>>,
    /// Minimum predicted rating (`rPred` lower bound, inclusive).
    pub min_rating: Option<f64>,
    /// Maximum predicted rating (`rPred` upper bound, inclusive).
    pub max_rating: Option<f64>,
}

impl RecommendNode {
    /// Output schema: `(user, item, rating)` qualified by the binding.
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            Column::qualified(&self.binding, &self.user_column, DataType::Int),
            Column::qualified(&self.binding, &self.item_column, DataType::Int),
            Column::qualified(&self.binding, &self.rating_column, DataType::Float),
        ])
    }

    /// True once any predicate was pushed into the leaf (i.e. the physical
    /// operator will be FILTERRECOMMEND rather than plain RECOMMEND).
    pub fn is_filtered(&self) -> bool {
        !(self.user_lists.is_empty()
            && self.item_lists.is_empty()
            && self.min_ratings.is_empty()
            && self.max_ratings.is_empty())
    }

    /// The pushed-down predicates with the statement's `params` bound:
    /// each id list intersected with the lists before it (in the first
    /// one's order), the largest lower and the smallest upper bound.
    pub fn preds(&self, params: &[Literal]) -> ExecResult<RecommendPreds> {
        let ids = |lists: &[Vec<Expr>]| -> ExecResult<Option<Vec<i64>>> {
            let mut ids: Option<Vec<i64>> = None;
            for list in lists {
                let list = list
                    .iter()
                    .map(|e| match value(e, params)? {
                        Literal::Int(v) => Ok(*v),
                        other => Err(ExecError::Bind(format!("`{other}` is not an id"))),
                    })
                    .collect::<ExecResult<Vec<i64>>>()?;
                ids = Some(match ids {
                    None => list,
                    Some(old) => old.into_iter().filter(|v| list.contains(v)).collect(),
                });
            }
            Ok(ids)
        };
        let bound = |bounds: &[Expr], tighter: fn(f64, f64) -> f64| {
            bounds.iter().try_fold(None, |acc: Option<f64>, e| {
                let v = match value(e, params)? {
                    Literal::Int(v) => *v as f64,
                    Literal::Float(v) => *v,
                    other => return Err(ExecError::Bind(format!("`{other}` is not a rating"))),
                };
                Ok(Some(acc.map_or(v, |m| tighter(m, v))))
            })
        };
        Ok(RecommendPreds {
            user_ids: ids(&self.user_lists)?,
            item_ids: ids(&self.item_lists)?,
            min_rating: bound(&self.min_ratings, f64::max)?,
            max_rating: bound(&self.max_ratings, f64::min)?,
        })
    }
}

/// The value of a pushed-down constant.
fn value<'e>(expr: &'e Expr, params: &'e [Literal]) -> ExecResult<&'e Literal> {
    constant(expr, params)
        .unwrap_or_else(|| Err(ExecError::Bind(format!("`{expr}` is not a constant"))))
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Binding (alias) used by the query.
        binding: String,
        /// Schema qualified by the binding.
        schema: Schema,
    },
    /// The recommendation leaf.
    Recommend(RecommendNode),
    /// σ — keep tuples where the predicate is TRUE.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: Expr,
    },
    /// Inner join (cross product when `predicate` is `None`).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate, if any.
        predicate: Option<Expr>,
    },
    /// The paper's JOINRECOMMEND: scores only the items flowing out of
    /// `outer`. Output columns: recommend columns first, then outer's.
    RecJoin {
        /// The recommendation side.
        rec: RecommendNode,
        /// The outer relation (already filtered).
        outer: Box<LogicalPlan>,
        /// Column reference in `outer` equated with the item id.
        outer_item_column: String,
    },
    /// γ — hash aggregation with optional grouping.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// GROUP BY expressions (grouping keys).
        group_by: Vec<Expr>,
        /// Output columns in select-list order.
        outputs: Vec<AggregateOutput>,
    },
    /// Sort by keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<OrderKey>,
    },
    /// Keep the first `limit` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        limit: u64,
    },
    /// π — compute output expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
}

/// One output column of an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateOutput {
    /// A grouping expression (must appear in GROUP BY).
    Group {
        /// The expression (index into `group_by` resolved at build time).
        index: usize,
        /// Output column name.
        name: String,
    },
    /// An aggregate call.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Argument (`None` = `COUNT(*)`).
        arg: Option<Expr>,
        /// Output column name.
        name: String,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Recommend(node) => node.schema(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::RecJoin { rec, outer, .. } => rec.schema().join(&outer.schema()),
            LogicalPlan::Aggregate {
                input,
                group_by,
                outputs,
            } => {
                let input_schema = input.schema();
                Schema::new(
                    outputs
                        .iter()
                        .map(|o| match o {
                            AggregateOutput::Group { index, name } => {
                                // Column-ref groups keep their qualifier so
                                // `ORDER BY M.genre` still binds above the
                                // aggregate.
                                let expr = &group_by[*index];
                                let from_input = expr.column_ref().and_then(|r| {
                                    input_schema
                                        .resolve_column(&r)
                                        .ok()
                                        .map(|(_, c)| (c.relation.clone(), c.data_type))
                                });
                                match from_input {
                                    Some((relation, data_type)) => Column {
                                        relation,
                                        name: name.clone(),
                                        data_type,
                                    },
                                    None => {
                                        Column::new(name.clone(), infer_type(expr, &input_schema))
                                    }
                                }
                            }
                            AggregateOutput::Agg { func, arg, name } => {
                                let ty = match func {
                                    AggFunc::Count => DataType::Int,
                                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                                    AggFunc::Min | AggFunc::Max => arg
                                        .as_ref()
                                        .map(|a| infer_type(a, &input_schema))
                                        .unwrap_or(DataType::Float),
                                };
                                Column::new(name.clone(), ty)
                            }
                        })
                        .collect(),
                )
            }
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let input_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, name)| {
                            // Column refs keep their qualifier; computed
                            // expressions are unqualified outputs.
                            if let Some(reference) = e.column_ref() {
                                if let Ok((_, col)) = input_schema.resolve_column(&reference) {
                                    return Column {
                                        relation: col.relation.clone(),
                                        name: name.clone(),
                                        data_type: col.data_type,
                                    };
                                }
                            }
                            Column::new(name.clone(), infer_type(e, &input_schema))
                        })
                        .collect(),
                )
            }
        }
    }

    /// EXPLAIN-style indented rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table, binding, .. } => {
                out.push_str(&format!("{pad}SeqScan {table} AS {binding}\n"));
            }
            LogicalPlan::Recommend(node) => {
                let op = if node.is_filtered() {
                    "FilterRecommend"
                } else {
                    "Recommend"
                };
                out.push_str(&format!(
                    "{pad}{op} {} ON {} USING {}",
                    node.binding, node.ratings_table, node.algorithm
                ));
                match node.preds(&[]) {
                    Ok(preds) => {
                        if let Some(users) = &preds.user_ids {
                            out.push_str(&format!(" users={users:?}"));
                        }
                        if let Some(items) = &preds.item_ids {
                            out.push_str(&format!(" items[{}]", items.len()));
                        }
                        if preds.min_rating.is_some() || preds.max_rating.is_some() {
                            out.push_str(&format!(
                                " rating=[{:?}, {:?}]",
                                preds.min_rating, preds.max_rating
                            ));
                        }
                    }
                    // Parameter slots have values only when the plan runs.
                    Err(_) => out.push_str(" [parameterized]"),
                }
                out.push('\n');
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
            } => {
                match predicate {
                    Some(p) => out.push_str(&format!("{pad}Join on {p}\n")),
                    None => out.push_str(&format!("{pad}CrossJoin\n")),
                }
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::RecJoin {
                rec,
                outer,
                outer_item_column,
            } => {
                out.push_str(&format!(
                    "{pad}JoinRecommend {}.{} = {outer_item_column} USING {}",
                    rec.binding, rec.item_column, rec.algorithm
                ));
                match rec.preds(&[]) {
                    Ok(RecommendPreds {
                        user_ids: Some(users),
                        ..
                    }) => out.push_str(&format!(" users={users:?}")),
                    Ok(_) => {}
                    Err(_) => out.push_str(" [parameterized]"),
                }
                out.push('\n');
                outer.explain_into(out, depth + 1);
            }
            LogicalPlan::Aggregate { input, outputs, .. } => {
                out.push_str(&format!(
                    "{pad}HashAggregate [{}]\n",
                    outputs
                        .iter()
                        .map(|o| match o {
                            AggregateOutput::Group { name, .. } => name.clone(),
                            AggregateOutput::Agg { func, name, .. } =>
                                format!("{}({name})", func.name()),
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                out.push_str(&format!(
                    "{pad}Sort [{}]\n",
                    keys.iter()
                        .map(|k| format!("{} {}", k.expr, if k.desc { "DESC" } else { "ASC" }))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, limit } => {
                out.push_str(&format!("{pad}Limit {limit}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                out.push_str(&format!(
                    "{pad}Project [{}]\n",
                    exprs
                        .iter()
                        .map(|(_, n)| n.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Best-effort output type inference for computed projection columns.
fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Literal(Literal::Int(_)) => DataType::Int,
        Expr::Literal(Literal::Float(_)) => DataType::Float,
        Expr::Literal(Literal::Str(_)) => DataType::Text,
        Expr::Literal(Literal::Bool(_)) => DataType::Bool,
        Expr::Literal(Literal::Null) => DataType::Int,
        Expr::Param(p) => match p.kind {
            ParamKind::Int => DataType::Int,
            ParamKind::Float => DataType::Float,
            ParamKind::Str => DataType::Text,
        },
        Expr::Column { .. } => {
            let reference = expr.column_ref().expect("column");
            schema
                .resolve_column(&reference)
                .map(|(_, c)| c.data_type)
                .unwrap_or(DataType::Float)
        }
        Expr::Unary { expr, .. } => infer_type(expr, schema),
        Expr::Binary { op, left, .. } => {
            use recdb_sql::BinaryOp::*;
            match op {
                Or | And | Eq | Neq | Lt | Le | Gt | Ge => DataType::Bool,
                Add | Sub | Mul | Div => infer_type(left, schema),
            }
        }
        Expr::InList { .. } | Expr::Between { .. } => DataType::Bool,
        Expr::Function { name, .. } => match BuiltinFunc::resolve(name) {
            Some((BuiltinFunc::StContains | BuiltinFunc::StDWithin, _)) => DataType::Bool,
            Some((BuiltinFunc::MakePoint, _)) => DataType::Point,
            Some((BuiltinFunc::MakeRect, _)) => DataType::Rect,
            _ => DataType::Float,
        },
    }
}

/// Build the naive logical plan for a SELECT against a catalog.
pub fn build_logical(select: &SelectStatement, catalog: &Catalog) -> ExecResult<LogicalPlan> {
    if select.from.is_empty() {
        return Err(ExecError::Unsupported(
            "SELECT without FROM is not supported".into(),
        ));
    }

    // Which FROM entry is the recommender's ratings table?
    let rec_binding = select.recommend.as_ref().map(|rec| {
        let qualifier = rec.item_column.split_once('.').map(|(q, _)| q.to_owned());
        // Unqualified RECOMMEND columns bind to the first FROM entry.
        qualifier.unwrap_or_else(|| select.from[0].binding().to_owned())
    });

    let mut leaves: Vec<LogicalPlan> = Vec::with_capacity(select.from.len());
    for table_ref in &select.from {
        let binding = table_ref.binding();
        let is_rec = rec_binding
            .as_deref()
            .is_some_and(|b| b.eq_ignore_ascii_case(binding));
        if is_rec {
            let rec = select
                .recommend
                .as_ref()
                .expect("rec_binding implies clause");
            let algorithm: Algorithm = rec
                .algorithm
                .parse()
                .map_err(|_| ExecError::UnknownAlgorithm(rec.algorithm.clone()))?;
            let strip = |s: &str| -> String {
                s.split_once('.')
                    .map(|(_, c)| c.to_owned())
                    .unwrap_or_else(|| s.to_owned())
            };
            leaves.push(LogicalPlan::Recommend(RecommendNode {
                binding: binding.to_owned(),
                ratings_table: table_ref.table.clone(),
                algorithm,
                user_column: strip(&rec.user_column),
                item_column: strip(&rec.item_column),
                rating_column: strip(&rec.rating_column),
                user_lists: Vec::new(),
                item_lists: Vec::new(),
                min_ratings: Vec::new(),
                max_ratings: Vec::new(),
            }));
        } else {
            let table = catalog.table(&table_ref.table)?;
            leaves.push(LogicalPlan::Scan {
                table: table_ref.table.clone(),
                binding: binding.to_owned(),
                schema: table.schema().with_qualifier(binding),
            });
        }
    }

    // Left-deep cross-join tree in FROM order.
    let mut plan = leaves.remove(0);
    for right in leaves {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            predicate: None,
        };
    }

    if let Some(filter) = &select.filter {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: filter.clone(),
        };
    }

    // Aggregate queries replace the projection with a γ node.
    let has_aggregates = select.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        SelectItem::Wildcard => false,
    });
    if has_aggregates || !select.group_by.is_empty() {
        plan = build_aggregate(select, plan)?;
        if !select.order_by.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: select.order_by.clone(),
            };
        }
        if let Some(limit) = select.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit,
            };
        }
        return Ok(plan);
    }

    if !select.order_by.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: select.order_by.clone(),
        };
    }
    if let Some(limit) = select.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit,
        };
    }

    // Projection: expand * against the current schema.
    let input_schema = plan.schema();
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for (i, item) in select.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for col in input_schema.columns() {
                    let e = match &col.relation {
                        Some(rel) => Expr::qcol(rel, &col.name),
                        None => Expr::col(&col.name),
                    };
                    exprs.push((e, col.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| {
                    expr.column_ref()
                        .map(|r| r.split_once('.').map(|(_, c)| c.to_owned()).unwrap_or(r))
                        .unwrap_or_else(|| format!("col{}", i + 1))
                });
                exprs.push((expr.clone(), name));
            }
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    })
}

/// Is this expression exactly an aggregate call?
fn aggregate_call(expr: &Expr) -> Option<(AggFunc, Option<Expr>)> {
    let Expr::Function { name, args } = expr else {
        return None;
    };
    let func = AggFunc::resolve(name)?;
    match (func, args.len()) {
        (AggFunc::Count, 0) => Some((func, None)),
        (_, 1) => Some((func, Some(args[0].clone()))),
        _ => None,
    }
}

/// Does the expression contain an aggregate call anywhere?
fn contains_aggregate(expr: &Expr) -> bool {
    if aggregate_call(expr).is_some() {
        return true;
    }
    match expr {
        Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => false,
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Function { args, .. } => args.iter().any(contains_aggregate),
    }
}

/// Build the γ node: every select item must be either a grouping
/// expression (appearing in GROUP BY) or a top-level aggregate call — the
/// standard simple-aggregation rule.
fn build_aggregate(select: &SelectStatement, input: LogicalPlan) -> ExecResult<LogicalPlan> {
    let input_schema = input.schema();
    // Two expressions group identically if they are structurally equal or
    // are column references resolving to the same ordinal.
    let same_group = |a: &Expr, b: &Expr| -> bool {
        if a == b {
            return true;
        }
        match (a.column_ref(), b.column_ref()) {
            (Some(ra), Some(rb)) => {
                matches!(
                    (input_schema.resolve(&ra), input_schema.resolve(&rb)),
                    (Ok(x), Ok(y)) if x == y
                )
            }
            _ => false,
        }
    };
    let mut outputs = Vec::with_capacity(select.items.len());
    for (i, item) in select.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(ExecError::Unsupported(
                "SELECT * cannot be combined with GROUP BY / aggregates".into(),
            ));
        };
        let name = alias.clone().unwrap_or_else(|| match expr {
            Expr::Function { name, .. } => name.to_ascii_lowercase(),
            _ => expr
                .column_ref()
                .map(|r| r.split_once('.').map(|(_, c)| c.to_owned()).unwrap_or(r))
                .unwrap_or_else(|| format!("col{}", i + 1)),
        });
        if let Some((func, arg)) = aggregate_call(expr) {
            outputs.push(AggregateOutput::Agg { func, arg, name });
            continue;
        }
        if contains_aggregate(expr) {
            return Err(ExecError::Unsupported(
                "aggregates must be top-level select items (e.g. AVG(x), not AVG(x) + 1)".into(),
            ));
        }
        let index = select
            .group_by
            .iter()
            .position(|g| same_group(g, expr))
            .ok_or_else(|| {
                ExecError::Bind(format!(
                    "select item `{name}` must appear in GROUP BY or be an aggregate"
                ))
            })?;
        outputs.push(AggregateOutput::Group { index, name });
    }
    Ok(LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: select.group_by.clone(),
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_sql::parse;
    use recdb_storage::Value;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "ratings",
            Schema::from_pairs(&[
                ("uid", DataType::Int),
                ("iid", DataType::Int),
                ("ratingval", DataType::Float),
            ]),
        )
        .unwrap();
        cat.create_table(
            "movies",
            Schema::from_pairs(&[
                ("mid", DataType::Int),
                ("name", DataType::Text),
                ("genre", DataType::Text),
            ]),
        )
        .unwrap();
        cat
    }

    fn select(src: &str) -> SelectStatement {
        match parse(src).unwrap() {
            recdb_sql::Statement::Select(s) => s,
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn plain_select_builds_scan_filter_project() {
        let plan =
            build_logical(&select("SELECT uid FROM ratings WHERE uid = 1"), &catalog()).unwrap();
        let LogicalPlan::Project { input, exprs } = &plan else {
            panic!()
        };
        assert_eq!(exprs.len(), 1);
        assert!(matches!(**input, LogicalPlan::Filter { .. }));
        assert_eq!(plan.schema().arity(), 1);
    }

    #[test]
    fn recommend_leaf_replaces_ratings_scan() {
        let plan = build_logical(
            &select(
                "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF",
            ),
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::Recommend(node) = &**input else {
            panic!("expected Recommend leaf, got {input}")
        };
        assert_eq!(node.algorithm, Algorithm::ItemCosCF);
        assert_eq!(node.binding, "R");
        assert!(!node.is_filtered());
        // Schema is (uid, iid, ratingval) qualified by R.
        let s = node.schema();
        assert_eq!(s.resolve("R.uid").unwrap(), 0);
        assert_eq!(s.resolve("R.ratingval").unwrap(), 2);
    }

    #[test]
    fn star_expansion_uses_input_schema() {
        let plan = build_logical(&select("SELECT * FROM movies"), &catalog()).unwrap();
        assert_eq!(plan.schema().arity(), 3);
        assert_eq!(plan.schema().column(1).unwrap().name, "name");
    }

    #[test]
    fn join_order_is_from_order() {
        let plan = build_logical(
            &select("SELECT R.uid, M.name FROM ratings AS R, movies AS M WHERE R.iid = M.mid"),
            &catalog(),
        )
        .unwrap();
        // Project → Filter → Join(Scan ratings, Scan movies)
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Filter { input, .. } = *input else {
            panic!()
        };
        let LogicalPlan::Join { left, right, .. } = *input else {
            panic!()
        };
        assert!(matches!(*left, LogicalPlan::Scan { ref binding, .. } if binding == "R"));
        assert!(matches!(*right, LogicalPlan::Scan { ref binding, .. } if binding == "M"));
    }

    #[test]
    fn unknown_table_and_algorithm_error() {
        let err = build_logical(&select("SELECT * FROM nope"), &catalog()).unwrap_err();
        assert!(matches!(err, ExecError::Storage(_)));
        let err = build_logical(
            &select(
                "SELECT R.uid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING DeepFM",
            ),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::UnknownAlgorithm(a) if a == "DeepFM"));
    }

    #[test]
    fn unqualified_recommend_binds_first_table() {
        let plan = build_logical(
            &select(
                "SELECT uid FROM ratings \
                 RECOMMEND iid TO uid ON ratingval USING SVD",
            ),
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::Recommend(node) = &**input else {
            panic!()
        };
        assert_eq!(node.binding, "ratings");
        assert_eq!(node.algorithm, Algorithm::Svd);
    }

    #[test]
    fn order_and_limit_nodes_stack() {
        let plan = build_logical(
            &select("SELECT uid FROM ratings ORDER BY uid DESC LIMIT 5"),
            &catalog(),
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Limit { input, limit } = *input else {
            panic!()
        };
        assert_eq!(limit, 5);
        assert!(matches!(*input, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn explain_renders_tree() {
        let plan = build_logical(
            &select(
                "SELECT R.uid FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = 1",
            ),
            &catalog(),
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Recommend"));
        assert!(text.contains("ItemCosCF"));
    }

    #[test]
    fn aggregate_plan_shape_and_schema() {
        let plan = build_logical(
            &select(
                "SELECT genre, COUNT(*) AS n, AVG(mid) AS mean FROM movies \
                 GROUP BY genre ORDER BY n DESC LIMIT 3",
            ),
            &catalog(),
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("HashAggregate"), "{text}");
        let LogicalPlan::Limit { input, .. } = plan else {
            panic!("{text}")
        };
        let LogicalPlan::Sort { input, .. } = *input else {
            panic!("{text}")
        };
        let LogicalPlan::Aggregate { outputs, .. } = *input else {
            panic!("{text}")
        };
        assert_eq!(outputs.len(), 3);
        // Schema: Text, Int, Float.
        let plan = build_logical(
            &select("SELECT genre, COUNT(*) AS n, AVG(mid) AS mean FROM movies GROUP BY genre"),
            &catalog(),
        )
        .unwrap();
        let s = plan.schema();
        assert_eq!(s.column(0).unwrap().data_type, DataType::Text);
        assert_eq!(s.column(1).unwrap().data_type, DataType::Int);
        assert_eq!(s.column(2).unwrap().data_type, DataType::Float);
    }

    #[test]
    fn non_grouped_select_item_rejected() {
        let err = build_logical(
            &select("SELECT name, COUNT(*) FROM movies GROUP BY genre"),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Bind(m) if m.contains("GROUP BY")));
        let err =
            build_logical(&select("SELECT * FROM movies GROUP BY genre"), &catalog()).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let plan = build_logical(
            &select("SELECT COUNT(*) AS n, MIN(mid) AS lo FROM movies"),
            &catalog(),
        )
        .unwrap();
        assert!(matches!(plan, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn projected_type_inference() {
        let plan = build_logical(
            &select(
                "SELECT name, mid * 2 AS double_mid, genre = 'Action' AS is_action FROM movies",
            ),
            &catalog(),
        )
        .unwrap();
        let s = plan.schema();
        assert_eq!(s.column(0).unwrap().data_type, DataType::Text);
        assert_eq!(s.column(1).unwrap().data_type, DataType::Int);
        assert_eq!(s.column(2).unwrap().data_type, DataType::Bool);
        // Sanity: Value::Bool conforms to the inferred Bool column.
        assert!(Value::Bool(true).conforms_to(s.column(2).unwrap().data_type));
    }
}
