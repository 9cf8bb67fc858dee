//! Logical query plans.
//!
//! [`build_logical`] turns a parsed `SELECT` into the *naive* plan shape of
//! the paper's Figure 3: the `RECOMMEND` leaf (or table scans) at the
//! bottom, cross joins in FROM order, one `Filter` carrying the whole WHERE
//! clause, then `Sort` / `Limit` / `Project`. The optimizer
//! ([`crate::optimizer`]) rewrites that shape into the paper's optimized
//! plans (FilterRecommend, JoinRecommend).
//!
//! **A node's schema is data.** Every node that defines its output
//! columns — `Scan`, the `Recommend` leaf, `Join`, `RecJoin`, `Aggregate`,
//! `Project` — computes its [`Schema`] once, when the node is built
//! ([`LogicalPlan::join`], [`LogicalPlan::project`], …), from its
//! children's stored schemas; `Filter`, `Sort` and `Limit` pass their
//! input's through. [`LogicalPlan::schema`] only borrows, and a schema is
//! shared, so the executor, which runs a cached plan once per request,
//! never derives or copies one. An optimizer rewrite never changes a
//! node's output columns, so it moves the node's schema along with it.

use crate::error::{ExecError, ExecResult};
use crate::expr::{constant, BuiltinFunc};
use crate::ops::aggregate::AggFunc;
use crate::provider::Clause;
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
///
/// Built by [`RecommendNode::new`], which computes the leaf's schema.
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
    /// `(user, item, rating)` qualified by the binding.
    schema: Schema,
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
    /// A leaf with no predicate pushed into it (a plain RECOMMEND).
    pub fn new(
        binding: String,
        ratings_table: String,
        algorithm: Algorithm,
        user_column: String,
        item_column: String,
        rating_column: String,
    ) -> Self {
        let schema = recommend_schema(&binding, &user_column, &item_column, &rating_column);
        RecommendNode {
            binding,
            ratings_table,
            algorithm,
            user_column,
            item_column,
            rating_column,
            user_lists: Vec::new(),
            item_lists: Vec::new(),
            min_ratings: Vec::new(),
            max_ratings: Vec::new(),
            schema,
        }
    }

    /// Output schema: `(user, item, rating)` qualified by the binding.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The recommender this leaf reads: its ratings table, user, item and
    /// rating columns and algorithm.
    pub fn clause(&self) -> Clause<'_> {
        Clause {
            table: &self.ratings_table,
            users: &self.user_column,
            items: &self.item_column,
            ratings: &self.rating_column,
            algorithm: self.algorithm,
        }
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

/// A Recommend leaf's output columns: `(user, item, rating)` qualified by
/// `binding`.
fn recommend_schema(binding: &str, user: &str, item: &str, rating: &str) -> Schema {
    Schema::new(vec![
        Column::qualified(binding, user, DataType::Int),
        Column::qualified(binding, item, DataType::Int),
        Column::qualified(binding, rating, DataType::Float),
    ])
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
    /// Inner join (cross product when `predicate` is `None`). Built by
    /// [`LogicalPlan::join`].
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate, if any.
        predicate: Option<Expr>,
        /// Left's columns, then right's.
        schema: Schema,
    },
    /// The paper's JOINRECOMMEND: scores only the items flowing out of
    /// `outer`. The optimizer builds it from a [`LogicalPlan::Join`] of
    /// the leaf and `outer`, whose schema it keeps.
    RecJoin {
        /// The recommendation side.
        rec: RecommendNode,
        /// The outer relation (already filtered).
        outer: Box<LogicalPlan>,
        /// Column reference in `outer` equated with the item id.
        outer_item_column: String,
        /// Recommend columns first, then outer's.
        schema: Schema,
    },
    /// γ — hash aggregation with optional grouping. Built by
    /// [`LogicalPlan::aggregate`].
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// GROUP BY expressions (grouping keys).
        group_by: Vec<Expr>,
        /// Output columns in select-list order.
        outputs: Vec<AggregateOutput>,
        /// One column per output.
        schema: Schema,
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
    /// π — compute output expressions. Built by [`LogicalPlan::project`].
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// One column per expression.
        schema: Schema,
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
    /// `left ⋈ right` on `predicate` (a cross product when `None`).
    pub fn join(left: LogicalPlan, right: LogicalPlan, predicate: Option<Expr>) -> Self {
        let schema = left.schema().join(right.schema());
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate,
            schema,
        }
    }

    /// γ over `input`: `outputs` grouped by `group_by`.
    pub fn aggregate(
        input: LogicalPlan,
        group_by: Vec<Expr>,
        outputs: Vec<AggregateOutput>,
    ) -> Self {
        let schema = aggregate_schema(input.schema(), &group_by, &outputs);
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            outputs,
            schema,
        }
    }

    /// π of `exprs` over `input`.
    pub fn project(input: LogicalPlan, exprs: Vec<(Expr, String)>) -> Self {
        let schema = project_schema(input.schema(), &exprs);
        LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema,
        }
    }

    /// The node's output schema, as stored when the node was built.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::RecJoin { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Recommend(node) => node.schema(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
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
                ..
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
                ..
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
            LogicalPlan::Project { input, exprs, .. } => {
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

/// The column `reference` names in `schema`, if it resolves.
fn resolved<'s>(reference: &Expr, schema: &'s Schema) -> Option<&'s Column> {
    let (qualifier, name) = reference.as_column()?;
    let i = schema.resolve_parts(qualifier, name).ok()?;
    schema.column(i)
}

/// An `Aggregate` node's output columns over an input of `input` columns.
fn aggregate_schema(input: &Schema, group_by: &[Expr], outputs: &[AggregateOutput]) -> Schema {
    Schema::new(
        outputs
            .iter()
            .map(|o| match o {
                AggregateOutput::Group { index, name } => {
                    // Column-ref groups keep their qualifier so
                    // `ORDER BY M.genre` still binds above the aggregate.
                    let expr = &group_by[*index];
                    match resolved(expr, input) {
                        Some(c) => Column {
                            relation: c.relation.clone(),
                            name: name.clone(),
                            data_type: c.data_type,
                        },
                        None => Column::new(name.clone(), infer_type(expr, input)),
                    }
                }
                AggregateOutput::Agg { func, arg, name } => {
                    let ty = match func {
                        AggFunc::Count => DataType::Int,
                        AggFunc::Sum | AggFunc::Avg => DataType::Float,
                        AggFunc::Min | AggFunc::Max => arg
                            .as_ref()
                            .map(|a| infer_type(a, input))
                            .unwrap_or(DataType::Float),
                    };
                    Column::new(name.clone(), ty)
                }
            })
            .collect(),
    )
}

/// A `Project` node's output columns over an input of `input` columns:
/// column refs keep their qualifier; computed expressions are unqualified.
fn project_schema(input: &Schema, exprs: &[(Expr, String)]) -> Schema {
    Schema::new(
        exprs
            .iter()
            .map(|(e, name)| match resolved(e, input) {
                Some(col) => Column {
                    relation: col.relation.clone(),
                    name: name.clone(),
                    data_type: col.data_type,
                },
                None => Column::new(name.clone(), infer_type(e, input)),
            })
            .collect(),
    )
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
        Expr::Column { .. } => resolved(expr, schema).map_or(DataType::Float, |c| c.data_type),
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
            leaves.push(LogicalPlan::Recommend(RecommendNode::new(
                binding.to_owned(),
                table_ref.table.clone(),
                algorithm,
                strip(&rec.user_column),
                strip(&rec.item_column),
                strip(&rec.rating_column),
            )));
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
        plan = LogicalPlan::join(plan, right, None);
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
                    expr.as_column()
                        .map_or_else(|| format!("col{}", i + 1), |(_, name)| name.to_owned())
                });
                exprs.push((expr.clone(), name));
            }
        }
    }
    Ok(LogicalPlan::project(plan, exprs))
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
        match (a.as_column(), b.as_column()) {
            (Some((qa, na)), Some((qb, nb))) => {
                matches!(
                    (input_schema.resolve_parts(qa, na), input_schema.resolve_parts(qb, nb)),
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
                .as_column()
                .map_or_else(|| format!("col{}", i + 1), |(_, name)| name.to_owned()),
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
    Ok(LogicalPlan::aggregate(
        input,
        select.group_by.clone(),
        outputs,
    ))
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
        let LogicalPlan::Project { input, exprs, .. } = &plan else {
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

    /// Stored schemas against a derivation from the leaves up.
    mod stored_schemas {
        use super::*;
        use crate::optimizer::{optimize, optimize_pushdown_only};
        use proptest::prelude::*;

        /// `plan`'s output columns derived from its leaves up, by the rule
        /// of each node: the oracle for the schema each node stores.
        fn derived(plan: &LogicalPlan, catalog: &Catalog) -> Schema {
            let rec = |n: &RecommendNode| {
                recommend_schema(&n.binding, &n.user_column, &n.item_column, &n.rating_column)
            };
            match plan {
                LogicalPlan::Scan { table, binding, .. } => catalog
                    .table(table)
                    .unwrap()
                    .schema()
                    .with_qualifier(binding),
                LogicalPlan::Recommend(node) => rec(node),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => derived(input, catalog),
                LogicalPlan::Join { left, right, .. } => {
                    derived(left, catalog).join(&derived(right, catalog))
                }
                LogicalPlan::RecJoin {
                    rec: node, outer, ..
                } => rec(node).join(&derived(outer, catalog)),
                LogicalPlan::Aggregate {
                    input,
                    group_by,
                    outputs,
                    ..
                } => aggregate_schema(&derived(input, catalog), group_by, outputs),
                LogicalPlan::Project { input, exprs, .. } => {
                    project_schema(&derived(input, catalog), exprs)
                }
            }
        }

        /// Every node of `plan`, root first.
        fn nodes(plan: &LogicalPlan) -> Vec<&LogicalPlan> {
            let inputs: Vec<&LogicalPlan> = match plan {
                LogicalPlan::Scan { .. } | LogicalPlan::Recommend(_) => vec![],
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Project { input, .. } => vec![input],
                LogicalPlan::Join { left, right, .. } => vec![left, right],
                LogicalPlan::RecJoin { outer, .. } => vec![outer],
            };
            std::iter::once(plan)
                .chain(inputs.into_iter().flat_map(nodes))
                .collect()
        }

        const CONJUNCTS: [&str; 13] = [
            "R.uid = 1",
            "R.uid IN (1, 2)",
            "R.iid = M.mid",
            "R.iid = M.mid",
            "M.mid = R.iid",
            "M.mid = R.iid",
            "M.genre = 'Action'",
            "R.ratingval >= 2.5",
            "R.ratingval BETWEEN 1 AND 4",
            "R.ratingval > 3",
            "R.uid = M.mid",
            "M.mid * 2 > R.iid",
            "uid = 3",
        ];
        const ITEMS: [&str; 9] = [
            "R.uid",
            "R.iid",
            "R.ratingval",
            "M.name",
            "M.genre",
            "R.ratingval * 2 AS doubled",
            "M.mid + 1",
            "genre",
            "ratingval",
        ];
        const AGGREGATES: [&str; 4] = [
            "COUNT(*) AS n",
            "AVG(R.ratingval) AS mean",
            "MAX(M.name)",
            "MIN(R.iid) AS lo",
        ];

        /// A SELECT over `ratings AS R` and `movies AS M` from raw draws:
        /// either or both relations in either order, maybe a RECOMMEND
        /// clause, a WHERE conjunction, a select list or a grouping, an
        /// order and a limit. Many are rejected by the planner; the rest
        /// cover every node kind and every rewrite.
        fn statement(draws: &[usize]) -> String {
            let d = |i: usize| draws[i % draws.len()];
            let from = [
                "ratings AS R",
                "movies AS M",
                "ratings AS R, movies AS M",
                "ratings AS R, movies AS M",
                "movies AS M, ratings AS R",
            ][d(0) % 5];
            let recommend = if from.contains("ratings") && d(1) % 3 > 0 {
                " RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF"
            } else {
                ""
            };
            let pick = |at: usize, n: usize, pool: &[&str]| -> Vec<String> {
                (0..d(at) % (n + 1))
                    .map(|k| pool[d(at + 1 + k) % pool.len()].to_owned())
                    .collect()
            };
            let conjuncts = pick(2, 3, &CONJUNCTS);
            let filter = if conjuncts.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", conjuncts.join(" AND "))
            };
            let (items, group) = match d(6) % 4 {
                0 => ("*".to_owned(), String::new()),
                1 => {
                    let key = ["M.genre", "R.uid", "genre"][d(7) % 3];
                    let mut items = vec![key.to_owned()];
                    items.extend(pick(8, 2, &AGGREGATES));
                    (items.join(", "), format!(" GROUP BY {key}"))
                }
                _ => {
                    let mut items = pick(11, 3, &ITEMS);
                    if items.is_empty() {
                        items.push("R.ratingval".to_owned());
                    }
                    (items.join(", "), String::new())
                }
            };
            let order = match d(15) % 4 {
                0 => " ORDER BY R.ratingval DESC",
                1 => " ORDER BY M.name, R.iid DESC",
                _ => "",
            };
            let limit = if d(16) % 2 == 0 { " LIMIT 5" } else { "" };
            format!("SELECT {items} FROM {from}{recommend}{filter}{group}{order}{limit}")
        }

        proptest! {
            /// Every node's stored schema is the one derived from its
            /// children, in the naive plan and after each set of rewrites.
            #[test]
            fn every_node_stores_the_schema_its_children_derive(
                draws in prop::collection::vec(0usize..1000, 17),
            ) {
                let sql = statement(&draws);
                let catalog = catalog();
                let parsed = recdb_sql::parse(&sql);
                let Ok(recdb_sql::Statement::Select(select)) = parsed else {
                    panic!("{sql}: {parsed:?}")
                };
                if let Ok(naive) = build_logical(&select, &catalog) {
                    for plan in [naive.clone(), optimize_pushdown_only(naive.clone()), optimize(naive)] {
                        for node in nodes(&plan) {
                            prop_assert_eq!(node.schema(), &derived(node, &catalog), "{}\n{}", sql, plan);
                        }
                    }
                }
            }
        }
    }
}
