//! The abstract syntax tree of the RecDB SQL dialect.

use std::fmt;

/// A literal value in SQL source.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// The kind of literal a parameter slot stands for. It is part of a
/// statement's template: `uid = 5` and `uid = 5.0` plan differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// An integer literal.
    Int,
    /// A float literal.
    Float,
    /// A string literal.
    Str,
}

impl ParamKind {
    /// The slot kind of a literal; `None` for `NULL` and booleans, which
    /// are keywords and stay in a template.
    pub fn of(literal: &Literal) -> Option<ParamKind> {
        match literal {
            Literal::Int(_) => Some(ParamKind::Int),
            Literal::Float(_) => Some(ParamKind::Float),
            Literal::Str(_) => Some(ParamKind::Str),
            Literal::Null | Literal::Bool(_) => None,
        }
    }
}

/// A parameter slot: the `index`-th literal of a statement template (see
/// [`crate::normalize()`]), whose value is supplied when the statement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    /// Position among the statement's slots, in source order.
    pub index: usize,
    /// The kind of literal the slot holds.
    pub kind: ParamKind,
}

impl Param {
    /// This slot's value among a statement's `params`, if one of the
    /// slot's kind is there.
    pub fn value<'p>(&self, params: &'p [Literal]) -> Option<&'p Literal> {
        params
            .get(self.index)
            .filter(|v| ParamKind::of(v) == Some(self.kind))
    }
}

/// Binary operators, loosest-binding first in the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Literal),
    /// A parameter slot, bound to a literal when the statement runs.
    Param(Param),
    /// A column reference, optionally qualified (`R.uid` or `uid`).
    Column {
        /// Relation qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IN (e1, e2, …)`.
    InList {
        /// The probe expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// The probe expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// A function call (`ST_Contains(...)`, `CScore(...)`, `POINT(x, y)`).
    Function {
        /// Function name (matched case-insensitively at bind time).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_owned(),
        }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_owned()),
            name: name.to_owned(),
        }
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// A column expression's qualifier and name, borrowed, if this is one:
    /// what the storage layer's `Schema::resolve_parts` takes, so
    /// resolving a column formats nothing.
    pub fn as_column(&self) -> Option<(Option<&str>, &str)> {
        match self {
            Expr::Column { qualifier, name } => Some((qualifier.as_deref(), name)),
            _ => None,
        }
    }

    /// The full reference text of a column expression (`R.uid`), if this
    /// is one.
    pub fn column_ref(&self) -> Option<String> {
        match self {
            Expr::Column { qualifier, name } => Some(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            }),
            _ => None,
        }
    }

    /// Split an AND tree into its conjuncts (a single non-AND expression
    /// yields itself). The optimizer works conjunct by conjunct.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Rebuild an AND tree from conjuncts; `None` when empty.
    pub fn and_all(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(exprs.into_iter().fold(first, |acc, e| Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(acc),
            right: Box::new(e),
        }))
    }
}

/// A table reference in FROM: `Ratings AS R` / `Movies M` / `Hotels`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias, if written.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the query refers to this relation by.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// The paper's `RECOMMEND <item> TO <user> ON <rating> USING <algo>` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecommendClause {
    /// The item-id column (`R.iid`).
    pub item_column: String,
    /// The user-id column (`R.uid`).
    pub user_column: String,
    /// The rating-value column (`R.ratingval`).
    pub rating_column: String,
    /// Algorithm name as written (`ItemCosCF`, `SVD`, …).
    pub algorithm: String,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// True for descending.
    pub desc: bool,
}

/// One item in the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional output alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`, if written.
        alias: Option<String>,
    },
}

/// A SELECT statement, possibly recommendation-aware.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// The select list.
    pub items: Vec<SelectItem>,
    /// FROM relations (comma join).
    pub from: Vec<TableRef>,
    /// The RECOMMEND clause, when present.
    pub recommend: Option<RecommendClause>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Type name as written (`INT`, `FLOAT`, `TEXT`, `BOOL`, `POINT`,
    /// with common synonyms resolved at bind time).
    pub type_name: String,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Row expressions (constant-foldable).
        rows: Vec<Vec<Expr>>,
    },
    /// `CREATE RECOMMENDER … USING …` (§III-A).
    CreateRecommender {
        /// Recommender name.
        name: String,
        /// Ratings table.
        ratings_table: String,
        /// Users-id column.
        users_column: String,
        /// Items-id column.
        items_column: String,
        /// Ratings-value column.
        ratings_column: String,
        /// Algorithm name.
        algorithm: String,
    },
    /// `DROP RECOMMENDER name`.
    DropRecommender {
        /// Recommender name.
        name: String,
    },
    /// `DELETE FROM name [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Row predicate; `None` deletes everything.
        filter: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, … [WHERE expr]`.
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Row predicate; `None` updates everything.
        filter: Option<Expr>,
    },
    /// `CREATE INDEX name ON table (col, …)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns, leading column first.
        columns: Vec<String>,
    },
    /// `DROP INDEX name ON table`.
    DropIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
    },
    /// `EXPLAIN SELECT …` — show the optimized plan instead of running.
    Explain(SelectStatement),
    /// `EXPLAIN ANALYZE SELECT …` — run the statement and show the plan
    /// annotated with per-operator actuals (rows, calls, time).
    ExplainAnalyze(SelectStatement),
    /// A SELECT (with or without RECOMMEND).
    Select(SelectStatement),
    /// `BEGIN` / `START TRANSACTION` — open an explicit transaction.
    Begin,
    /// `COMMIT` — make the current transaction's changes durable.
    Commit,
    /// `ROLLBACK` / `ABORT` — undo the current transaction's changes.
    Rollback,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Expr {
    /// SQL-ish rendering, fully parenthesized for unambiguity — used by
    /// `EXPLAIN` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(lit) => write!(f, "{lit}"),
            Expr::Param(p) => write!(f, "${}", p.index + 1),
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "-{expr}"),
                UnaryOp::Not => write!(f, "NOT {expr}"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Function { name, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{name}({})", items.join(", "))
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => f.write_str("NULL"),
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(s) => write!(f, "'{s}'"),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_is_sqlish() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(Expr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(Expr::qcol("R", "uid")),
                right: Box::new(Expr::int(1)),
            }),
            right: Box::new(Expr::InList {
                expr: Box::new(Expr::col("iid")),
                list: vec![Expr::int(1), Expr::int(2)],
                negated: false,
            }),
        };
        assert_eq!(e.to_string(), "((R.uid = 1) AND iid IN (1, 2))");
        let fun = Expr::Function {
            name: "ST_DWithin".into(),
            args: vec![Expr::col("loc"), Expr::col("p"), Expr::int(5)],
        };
        assert_eq!(fun.to_string(), "ST_DWithin(loc, p, 5)");
        let b = Expr::Between {
            expr: Box::new(Expr::col("r")),
            low: Box::new(Expr::int(1)),
            high: Box::new(Expr::int(4)),
            negated: true,
        };
        assert_eq!(b.to_string(), "r NOT BETWEEN 1 AND 4");
    }

    #[test]
    fn conjunct_splitting() {
        // (a AND b) AND c → [a, b, c]
        let e = Expr::and_all(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]).unwrap();
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &Expr::col("a"));
        assert_eq!(parts[2], &Expr::col("c"));
    }

    #[test]
    fn conjuncts_of_leaf_is_itself() {
        let e = Expr::col("x");
        assert_eq!(e.conjuncts(), vec![&Expr::col("x")]);
    }

    #[test]
    fn and_all_of_empty_is_none() {
        assert_eq!(Expr::and_all(vec![]), None);
        assert_eq!(Expr::and_all(vec![Expr::col("a")]), Some(Expr::col("a")));
    }

    #[test]
    fn or_does_not_split() {
        let e = Expr::Binary {
            op: BinaryOp::Or,
            left: Box::new(Expr::col("a")),
            right: Box::new(Expr::col("b")),
        };
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn column_ref_text() {
        assert_eq!(Expr::qcol("R", "uid").column_ref().unwrap(), "R.uid");
        assert_eq!(Expr::col("uid").column_ref().unwrap(), "uid");
        assert_eq!(Expr::int(3).column_ref(), None);
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            table: "Ratings".into(),
            alias: Some("R".into()),
        };
        assert_eq!(t.binding(), "R");
        let t = TableRef {
            table: "Movies".into(),
            alias: None,
        };
        assert_eq!(t.binding(), "Movies");
    }
}
