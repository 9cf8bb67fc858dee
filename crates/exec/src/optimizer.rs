//! The rule-based optimizer: the paper's plan rewrites (§IV-B).
//!
//! Three rules run in order:
//!
//! 1. **Predicate pushdown** — the WHERE conjunction is split and each
//!    conjunct is pushed to the deepest subtree whose schema can bind it;
//!    conjuncts spanning both join sides become the join predicate.
//! 2. **Recommend absorption** — conjuncts of the form `uid = k`,
//!    `iid IN (…)`, `ratingval ≥ x`, `ratingval BETWEEN a AND b` sitting
//!    directly above a `Recommend` leaf are absorbed into the leaf as
//!    `uPred`/`iPred`/`rPred`, turning it into the paper's
//!    FILTERRECOMMEND (§IV-B1): the operator "prunes the predicted rating
//!    score calculation for those items that do not satisfy the filtering
//!    predicate". A parameter slot counts as a literal of its kind: the
//!    rule looks at kinds only, and the values are read when the physical
//!    plan is built.
//! 3. **JoinRecommend selection** — a join between a Recommend leaf (left)
//!    and any other input whose predicate contains
//!    `rec.item_col = outer.X` is rewritten into the JOINRECOMMEND
//!    operator (§IV-B2), which "only predicts the recommendation score for
//!    those tuples that are guaranteed to satisfy the join predicate".

use crate::plan::{LogicalPlan, RecommendNode};
use recdb_sql::{BinaryOp, Expr, Param, ParamKind};
use recdb_storage::Schema;

/// Run all rewrite rules.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let plan = push_filters(plan);
    rewrite_rec_joins(plan)
}

/// Run only rules 1–2 (pushdown + Recommend absorption), skipping the
/// JoinRecommend rewrite — used by ablation benches to isolate the
/// JoinRecommend gain.
pub fn optimize_pushdown_only(plan: LogicalPlan) -> LogicalPlan {
    push_filters(plan)
}

// ---------------------------------------------------------------- rule 1+2

/// The ordinal `expr` names in `schema`, if it is a column that resolves.
fn ordinal(expr: &Expr, schema: &Schema) -> Option<usize> {
    let (qualifier, name) = expr.as_column()?;
    schema.resolve_parts(qualifier, name).ok()
}

/// Does `expr` bind fully against `schema`? (Every column reference
/// resolves.)
fn binds_in(expr: &Expr, schema: &Schema) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Column { .. } => ordinal(expr, schema).is_some(),
        Expr::Unary { expr, .. } => binds_in(expr, schema),
        Expr::Binary { left, right, .. } => binds_in(left, schema) && binds_in(right, schema),
        Expr::InList { expr, list, .. } => {
            binds_in(expr, schema) && list.iter().all(|e| binds_in(e, schema))
        }
        Expr::Between {
            expr, low, high, ..
        } => binds_in(expr, schema) && binds_in(low, schema) && binds_in(high, schema),
        Expr::Function { args, .. } => args.iter().all(|e| binds_in(e, schema)),
    }
}

/// `plan` with `rule` applied to each of its inputs. No rule changes a
/// node's output columns, so the node keeps the schema stored when it
/// was built.
fn map_inputs(plan: LogicalPlan, rule: fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let apply = |input: Box<LogicalPlan>| Box::new(rule(*input));
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: apply(input),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
            schema,
        } => LogicalPlan::Join {
            left: apply(left),
            right: apply(right),
            predicate,
            schema,
        },
        LogicalPlan::RecJoin {
            rec,
            outer,
            outer_item_column,
            schema,
        } => LogicalPlan::RecJoin {
            rec,
            outer: apply(outer),
            outer_item_column,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            outputs,
            schema,
        } => LogicalPlan::Aggregate {
            input: apply(input),
            group_by,
            outputs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: apply(input),
            keys,
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: apply(input),
            limit,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: apply(input),
            exprs,
            schema,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Recommend(_)) => leaf,
    }
}

fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_filters(*input);
            let conjuncts: Vec<Expr> = predicate.conjuncts().into_iter().cloned().collect();
            push_conjuncts(input, conjuncts)
        }
        other => map_inputs(other, push_filters),
    }
}

/// Push a set of conjuncts into `plan` as deep as they bind.
fn push_conjuncts(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        return plan;
    }
    match plan {
        LogicalPlan::Join {
            left,
            right,
            predicate,
            schema,
        } => {
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut here = Vec::new();
            for c in conjuncts {
                if binds_in(&c, left.schema()) {
                    to_left.push(c);
                } else if binds_in(&c, right.schema()) {
                    to_right.push(c);
                } else {
                    here.push(c);
                }
            }
            if let Some(p) = predicate {
                here.extend(p.conjuncts().into_iter().cloned());
            }
            LogicalPlan::Join {
                left: Box::new(push_conjuncts(*left, to_left)),
                right: Box::new(push_conjuncts(*right, to_right)),
                predicate: Expr::and_all(here),
                schema,
            }
        }
        LogicalPlan::Recommend(node) => absorb_into_recommend(node, conjuncts),
        LogicalPlan::Filter { input, predicate } => {
            // Merge with an existing filter and push the union.
            let mut all = conjuncts;
            all.extend(predicate.conjuncts().into_iter().cloned());
            push_conjuncts(*input, all)
        }
        other => match Expr::and_all(conjuncts) {
            Some(predicate) => LogicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
            None => other,
        },
    }
}

/// Whether `expr` is a constant of one of `kinds`: a literal, or a
/// parameter slot that will hold one.
fn is_constant(expr: &Expr, kinds: &[ParamKind]) -> bool {
    let kind = match expr {
        Expr::Literal(literal) => ParamKind::of(literal),
        Expr::Param(Param { kind, .. }) => Some(*kind),
        _ => None,
    };
    kind.is_some_and(|k| kinds.contains(&k))
}

/// Extract the integer constants of `col = k` / `col IN (…)` when `col`
/// resolves to `target` in the recommend schema.
fn extract_id_list(expr: &Expr, schema: &Schema, target: usize) -> Option<Vec<Expr>> {
    let is_target = |e: &Expr| ordinal(e, schema) == Some(target);
    let as_int = |e: &Expr| is_constant(e, &[ParamKind::Int]).then(|| e.clone());
    match expr {
        Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } => {
            if is_target(left) {
                as_int(right).map(|v| vec![v])
            } else if is_target(right) {
                as_int(left).map(|v| vec![v])
            } else {
                None
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } if is_target(expr) => list.iter().map(as_int).collect(),
        _ => None,
    }
}

/// Extract the numeric constants bounding the rating column `target` from a
/// comparison or BETWEEN: `(lower, upper)`.
fn extract_rating_bounds(
    expr: &Expr,
    schema: &Schema,
    target: usize,
) -> Option<(Option<Expr>, Option<Expr>)> {
    let is_target = |e: &Expr| ordinal(e, schema) == Some(target);
    let as_num = |e: &Expr| is_constant(e, &[ParamKind::Int, ParamKind::Float]).then(|| e.clone());
    match expr {
        Expr::Binary { op, left, right } => {
            let (col_left, lit) = if is_target(left) {
                (true, as_num(right)?)
            } else if is_target(right) {
                (false, as_num(left)?)
            } else {
                return None;
            };
            // Normalize to `col OP lit`.
            let op = if col_left {
                *op
            } else {
                match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::Le => BinaryOp::Ge,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::Ge => BinaryOp::Le,
                    other => *other,
                }
            };
            match op {
                // Inclusive bounds only: strict bounds stay as residual
                // filters (the index range scan is inclusive).
                BinaryOp::Ge => Some((Some(lit), None)),
                BinaryOp::Le => Some((None, Some(lit))),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } if is_target(expr) => Some((Some(as_num(low)?), Some(as_num(high)?))),
        _ => None,
    }
}

/// Absorb conjuncts into a Recommend leaf (rule 2); unabsorbed conjuncts
/// stay as a residual Filter above it.
fn absorb_into_recommend(mut node: RecommendNode, conjuncts: Vec<Expr>) -> LogicalPlan {
    let schema = node.schema().clone();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Some(users) = extract_id_list(&c, &schema, 0) {
            node.user_lists.push(users);
            continue;
        }
        if let Some(items) = extract_id_list(&c, &schema, 1) {
            node.item_lists.push(items);
            continue;
        }
        if let Some((lo, hi)) = extract_rating_bounds(&c, &schema, 2) {
            node.min_ratings.extend(lo);
            node.max_ratings.extend(hi);
            continue;
        }
        residual.push(c);
    }
    let leaf = LogicalPlan::Recommend(node);
    match Expr::and_all(residual) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(leaf),
            predicate,
        },
        None => leaf,
    }
}

// ------------------------------------------------------------------ rule 3

fn rewrite_rec_joins(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            predicate,
            schema,
        } => {
            let left = rewrite_rec_joins(*left);
            let right = rewrite_rec_joins(*right);
            try_rec_join(left, right, predicate, schema)
        }
        other => map_inputs(other, rewrite_rec_joins),
    }
}

/// Rewrite `Join(Recommend, outer)` into `JoinRecommend` when the join
/// predicate equates the recommend item column with an outer column. The
/// Recommend leaf must be the *left* input (FROM lists the ratings table
/// first in every paper query); otherwise the join is left untouched so
/// column order is preserved. Either way the node's columns are the
/// join's `schema`: the leaf's, then the outer's.
fn try_rec_join(
    left: LogicalPlan,
    right: LogicalPlan,
    predicate: Option<Expr>,
    schema: Schema,
) -> LogicalPlan {
    let join = |left, right, predicate| LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        predicate,
        schema: schema.clone(),
    };
    let (rec, predicate) = match (left, predicate) {
        (LogicalPlan::Recommend(rec), Some(predicate)) => (rec, predicate),
        (left, predicate) => return join(left, right, predicate),
    };
    let mut item_eq: Option<String> = None;
    let mut residual = Vec::new();
    for c in predicate.conjuncts() {
        if item_eq.is_none() {
            if let Some(outer_col) = match_item_equality(c, rec.schema(), right.schema()) {
                item_eq = Some(outer_col);
                continue;
            }
        }
        residual.push(c.clone());
    }
    let Some(outer_item_column) = item_eq else {
        return join(LogicalPlan::Recommend(rec), right, Expr::and_all(residual));
    };
    let plan = LogicalPlan::RecJoin {
        rec,
        outer: Box::new(right),
        outer_item_column,
        schema,
    };
    match Expr::and_all(residual) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
        None => plan,
    }
}

/// Match `rec.item = outer.X` (either orientation); returns the outer
/// column reference.
fn match_item_equality(expr: &Expr, rec_schema: &Schema, outer_schema: &Schema) -> Option<String> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = expr
    else {
        return None;
    };
    let is_rec_item = |e: &Expr| ordinal(e, rec_schema) == Some(1);
    let outer_ref = |e: &Expr| ordinal(e, outer_schema).and(e.column_ref());
    if is_rec_item(left) {
        outer_ref(right)
    } else if is_rec_item(right) {
        outer_ref(left)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_logical, RecommendPreds};
    use recdb_sql::parse;
    use recdb_storage::{Catalog, DataType};

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

    fn optimized(src: &str) -> LogicalPlan {
        let recdb_sql::Statement::Select(s) = parse(src).unwrap() else {
            panic!()
        };
        optimize(build_logical(&s, &catalog()).unwrap())
    }

    fn find_recommend(plan: &LogicalPlan) -> Option<&RecommendNode> {
        match plan {
            LogicalPlan::Recommend(node) => Some(node),
            LogicalPlan::RecJoin { rec, .. } => Some(rec),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. } => find_recommend(input),
            LogicalPlan::Join { left, right, .. } => {
                find_recommend(left).or_else(|| find_recommend(right))
            }
            LogicalPlan::Scan { .. } => None,
        }
    }

    /// The pushed-down predicates of the plan's Recommend leaf, valued.
    fn preds(plan: &LogicalPlan) -> RecommendPreds {
        find_recommend(plan).unwrap().preds(&[]).unwrap()
    }

    #[test]
    fn uid_equality_absorbed_as_user_pred() {
        let plan = optimized(
            "SELECT R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1",
        );
        assert_eq!(preds(&plan).user_ids, Some(vec![1]));
        assert!(find_recommend(&plan).unwrap().is_filtered());
        // No residual Filter node should remain above the leaf (the leaf
        // itself renders as FilterRecommend).
        assert!(
            !plan
                .explain()
                .lines()
                .any(|l| l.trim_start().starts_with("Filter ")),
            "{plan}"
        );
    }

    #[test]
    fn paper_query3_iid_in_list_absorbed() {
        let plan = optimized(
            "SELECT R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid=1 AND R.iid IN (1,2,3,4,5)",
        );
        let node = preds(&plan);
        assert_eq!(node.user_ids, Some(vec![1]));
        assert_eq!(node.item_ids, Some(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn rating_bounds_absorbed() {
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.ratingval >= 3.5 AND R.ratingval <= 5 AND R.uid = 2",
        );
        let node = preds(&plan);
        assert_eq!(node.min_rating, Some(3.5));
        assert_eq!(node.max_rating, Some(5.0));
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.ratingval BETWEEN 2 AND 4",
        );
        let node = preds(&plan);
        assert_eq!(node.min_rating, Some(2.0));
        assert_eq!(node.max_rating, Some(4.0));
    }

    #[test]
    fn reversed_literal_comparison_normalized() {
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE 4 >= R.ratingval AND 1 = R.uid",
        );
        let node = preds(&plan);
        assert_eq!(node.max_rating, Some(4.0));
        assert_eq!(node.user_ids, Some(vec![1]));
    }

    #[test]
    fn strict_bounds_stay_residual() {
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.ratingval > 3",
        );
        let node = preds(&plan);
        assert_eq!(node.min_rating, None);
        assert!(plan.explain().contains("Filter"), "{plan}");
    }

    #[test]
    fn paper_query4_becomes_join_recommend() {
        let plan = optimized(
            "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid=1 AND M.mid = R.iid AND M.genre='Action'",
        );
        let text = plan.explain();
        assert!(text.contains("JoinRecommend"), "{text}");
        // The genre filter must sit on the Movies side, below JoinRecommend.
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::RecJoin { rec, outer, .. } = &**input else {
            panic!("expected RecJoin at top: {text}")
        };
        assert_eq!(rec.preds(&[]).unwrap().user_ids, Some(vec![1]));
        assert!(matches!(&**outer, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn join_without_item_equality_stays_join() {
        let plan = optimized(
            "SELECT R.uid, M.name FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = M.mid",
        );
        assert!(plan.explain().contains("Join on"), "{plan}");
        assert!(!plan.explain().contains("JoinRecommend"), "{plan}");
    }

    #[test]
    fn plain_join_pushdown_splits_sides() {
        let plan = optimized(
            "SELECT R.uid, M.name FROM ratings AS R, movies AS M \
             WHERE R.uid = 7 AND M.genre = 'Action' AND R.iid = M.mid",
        );
        let text = plan.explain();
        // Both single-side conjuncts pushed below the join; equality kept
        // as the join predicate.
        let join_line = text.lines().find(|l| l.contains("Join on")).unwrap();
        assert!(join_line.contains("iid"), "{text}");
        assert!(!join_line.contains("genre"), "{text}");
    }

    #[test]
    fn conflicting_user_preds_intersect() {
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid IN (1, 2, 3) AND R.uid = 2",
        );
        let node = preds(&plan);
        assert_eq!(node.user_ids, Some(vec![2]));
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1 AND R.uid = 2",
        );
        let node = preds(&plan);
        assert_eq!(node.user_ids, Some(vec![]), "contradiction → empty");
    }

    #[test]
    fn non_literal_predicates_not_absorbed() {
        let plan = optimized(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = R.iid",
        );
        let node = preds(&plan);
        assert_eq!(node.user_ids, None);
        assert!(plan.explain().contains("Filter"));
    }

    /// A statement's parameterized form plans to the same shape as its
    /// literal form, and its leaf's predicates, valued with the literals,
    /// are the literal plan's: intersections, the tighter bound, `IN`
    /// lists, reversed comparisons.
    #[test]
    fn parameter_slots_plan_like_their_literals() {
        for sql in [
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid IN (1, 2, 3) AND 2.5 <= R.ratingval AND R.uid = 2 \
             AND R.ratingval >= 3 AND R.iid IN (4, 5) AND R.ratingval BETWEEN 1 AND 4.5",
            "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid=7 AND M.mid = R.iid AND M.genre='Action' AND R.uid = -1",
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = 1.0 AND R.iid = 'x' AND R.ratingval > 3",
        ] {
            let literal = optimized(sql);
            if sql.contains("BETWEEN") {
                let want = RecommendPreds {
                    user_ids: Some(vec![2]),
                    item_ids: Some(vec![4, 5]),
                    min_rating: Some(3.0),
                    max_rating: Some(4.5),
                };
                assert_eq!(preds(&literal), want);
            }
            let n = recdb_sql::normalize(sql).unwrap();
            let recdb_sql::Statement::Select(s) =
                recdb_sql::parameterize(&parse(sql).unwrap(), &n.params).unwrap()
            else {
                panic!()
            };
            let slotted = optimize(build_logical(&s, &catalog()).unwrap());
            // Each node's depth and operator.
            let shape = |p: &LogicalPlan| {
                p.explain()
                    .lines()
                    .map(|l| (l.len() - l.trim_start().len(), l.split_whitespace().next()))
                    .map(|(depth, op)| format!("{depth} {}", op.unwrap()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&slotted), shape(&literal), "{sql}");
            assert_eq!(
                find_recommend(&slotted).unwrap().preds(&n.params).unwrap(),
                preds(&literal),
                "{sql}"
            );
        }
    }
}
