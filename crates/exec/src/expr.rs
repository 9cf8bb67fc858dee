//! Expression binding and evaluation.
//!
//! SQL [`Expr`]s reference columns by name; a [`BoundExpr`] has every
//! reference resolved to a tuple ordinal against a concrete [`Schema`], so
//! evaluation is a direct walk with no name lookups in the per-tuple hot
//! path.
//!
//! NULL follows SQL three-valued logic: comparisons with NULL yield NULL,
//! `AND`/`OR` are Kleene, and a filter keeps a tuple only when its
//! predicate evaluates to `TRUE`.

use crate::error::{ExecError, ExecResult};
use recdb_spatial::{functions, Point, Polygon, Rect};
use recdb_sql::{BinaryOp, Expr, Literal, Param, UnaryOp};
use recdb_storage::{Schema, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// An expression with all column references resolved to ordinals.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// Tuple ordinal.
    Column(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `expr IN (…)`.
    InList {
        /// Probe.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr IN (…)` where every candidate is a constant: evaluated by a
    /// hashed set probe instead of a linear scan (the constant-IN-list
    /// optimization real engines apply).
    InSet {
        /// Probe.
        expr: Box<BoundExpr>,
        /// The constant candidates.
        set: std::collections::HashSet<Value>,
        /// Whether a NULL constant appeared in the list (affects the
        /// no-match result under three-valued logic).
        has_null: bool,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Probe.
        expr: Box<BoundExpr>,
        /// Lower bound (inclusive).
        low: Box<BoundExpr>,
        /// Upper bound (inclusive).
        high: Box<BoundExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// A built-in function call.
    Function {
        /// Which built-in.
        func: BuiltinFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
}

/// The built-in (mostly spatial) functions of the §V case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFunc {
    /// `ST_Contains(region, point)` → BOOL.
    StContains,
    /// `ST_DWithin(point, point, dist)` → BOOL.
    StDWithin,
    /// `ST_Distance(point, point)` → FLOAT.
    StDistance,
    /// `CScore(ratingval, distance)` → FLOAT.
    CScore,
    /// `POINT(x, y)` → POINT.
    MakePoint,
    /// `RECT(min_x, min_y, max_x, max_y)` → RECT.
    MakeRect,
    /// `ABS(x)` → numeric.
    Abs,
}

impl BuiltinFunc {
    /// Resolve a function name (case-insensitive) to the built-in and its
    /// arity, or `None` for unknown functions.
    pub fn resolve(name: &str) -> Option<(BuiltinFunc, usize)> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "st_contains" => (BuiltinFunc::StContains, 2),
            "st_dwithin" => (BuiltinFunc::StDWithin, 3),
            "st_distance" => (BuiltinFunc::StDistance, 2),
            "cscore" => (BuiltinFunc::CScore, 2),
            "point" => (BuiltinFunc::MakePoint, 2),
            "rect" => (BuiltinFunc::MakeRect, 4),
            "abs" => (BuiltinFunc::Abs, 1),
            _ => return None,
        })
    }
}

/// Convert a SQL literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// The value of parameter slot `param` among a statement's `params`.
fn param_value<'p>(param: &Param, params: &'p [Literal]) -> ExecResult<&'p Literal> {
    param.value(params).ok_or_else(|| {
        ExecError::Bind(format!(
            "no {:?} value for parameter ${}",
            param.kind,
            param.index + 1
        ))
    })
}

/// The constant `expr` is, if it is a literal or a parameter slot: the
/// literal, or the slot's value among `params`.
pub fn constant<'e>(expr: &'e Expr, params: &'e [Literal]) -> Option<ExecResult<&'e Literal>> {
    match expr {
        Expr::Literal(lit) => Some(Ok(lit)),
        Expr::Param(param) => Some(param_value(param, params)),
        _ => None,
    }
}

/// Bind an AST expression against a schema, reading each parameter slot's
/// value from `params` (empty for a statement without slots).
pub fn bind(expr: &Expr, schema: &Schema, params: &[Literal]) -> ExecResult<BoundExpr> {
    let bind = |e: &Expr| bind(e, schema, params);
    match expr {
        Expr::Literal(lit) => Ok(BoundExpr::Literal(literal_value(lit))),
        Expr::Param(param) => Ok(BoundExpr::Literal(literal_value(param_value(
            param, params,
        )?))),
        Expr::Column { qualifier, name } => Ok(BoundExpr::Column(
            schema.resolve_parts(qualifier.as_deref(), name)?,
        )),
        Expr::Unary { op, expr } => Ok(match (op, bind(expr)?) {
            // `-1` parses as the negation of the literal `1`. Folding it
            // makes it a constant like any other (a scan key, say); the
            // value is the one evaluating the negation would give.
            (UnaryOp::Neg, BoundExpr::Literal(Value::Int(v))) if v != i64::MIN => {
                BoundExpr::Literal(Value::Int(-v))
            }
            (UnaryOp::Neg, BoundExpr::Literal(Value::Float(v))) => {
                BoundExpr::Literal(Value::Float(-v))
            }
            (op, operand) => BoundExpr::Unary {
                op: *op,
                expr: Box::new(operand),
            },
        }),
        Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
            op: *op,
            left: Box::new(bind(left)?),
            right: Box::new(bind(right)?),
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let probe = Box::new(bind(expr)?);
            // Constant candidate lists become a hashed set probe.
            if list.iter().all(|e| constant(e, params).is_some()) {
                let mut set = std::collections::HashSet::with_capacity(list.len());
                let mut has_null = false;
                for e in list {
                    let v = literal_value(constant(e, params).expect("checked constant")?);
                    if v.is_null() {
                        has_null = true;
                    } else {
                        set.insert(v);
                    }
                }
                return Ok(BoundExpr::InSet {
                    expr: probe,
                    set,
                    has_null,
                    negated: *negated,
                });
            }
            Ok(BoundExpr::InList {
                expr: probe,
                list: list.iter().map(bind).collect::<ExecResult<_>>()?,
                negated: *negated,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(BoundExpr::Between {
            expr: Box::new(bind(expr)?),
            low: Box::new(bind(low)?),
            high: Box::new(bind(high)?),
            negated: *negated,
        }),
        Expr::Function { name, args } => {
            if crate::ops::aggregate::AggFunc::resolve(name).is_some() {
                return Err(ExecError::Bind(format!(
                    "aggregate function `{name}` is only allowed at the top \
                     level of the select list of a GROUP BY / aggregate query"
                )));
            }
            let (func, arity) = BuiltinFunc::resolve(name)
                .ok_or_else(|| ExecError::Bind(format!("unknown function `{name}`")))?;
            if args.len() != arity {
                return Err(ExecError::Bind(format!(
                    "function `{name}` takes {arity} arguments, got {}",
                    args.len()
                )));
            }
            Ok(BoundExpr::Function {
                func,
                args: args.iter().map(bind).collect::<ExecResult<_>>()?,
            })
        }
    }
}

/// What a column ordinal past the tuple's arity reads as.
static NULL: Value = Value::Null;

impl BoundExpr {
    /// Evaluate against a tuple without copying what already exists: a
    /// column reads the tuple's own value and a constant the plan's, so a
    /// comparison or `IN` probe over them — `M.genre = 'Crime'`, once per
    /// scanned row — clones no `Text`. Anything computed is owned.
    pub fn eval_ref<'a>(&'a self, tuple: &'a Tuple) -> ExecResult<Cow<'a, Value>> {
        match self {
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Column(i) => Ok(Cow::Borrowed(tuple.get(*i).unwrap_or(&NULL))),
            _ => self.eval(tuple).map(Cow::Owned),
        }
    }

    /// Evaluate against a tuple to an owned value (projections, sort keys).
    pub fn eval(&self, tuple: &Tuple) -> ExecResult<Value> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => {
                self.eval_ref(tuple).map(Cow::into_owned)
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(tuple)?;
                match op {
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(x) => Ok(Value::Int(-x)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => Err(ExecError::Type(format!("cannot negate {other}"))),
                    },
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(ExecError::Type(format!("NOT applied to {other}"))),
                    },
                }
            }
            BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, tuple),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let probe = expr.eval_ref(tuple)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for candidate in list {
                    let c = candidate.eval_ref(tuple)?;
                    match probe.sql_eq(&c) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::InSet {
                expr,
                set,
                has_null,
                negated,
            } => {
                let probe = expr.eval_ref(tuple)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                if set.contains(&*probe) {
                    Ok(Value::Bool(!negated))
                } else if *has_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ref(tuple)?;
                let lo = low.eval_ref(tuple)?;
                let hi = high.eval_ref(tuple)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                Ok(Value::Bool(inside != *negated))
            }
            BoundExpr::Function { func, args } => eval_function(*func, args, tuple),
        }
    }

    /// Evaluate as a predicate: `true` only when the result is `TRUE`
    /// (SQL filter semantics — NULL and FALSE both reject).
    pub fn eval_predicate(&self, tuple: &Tuple) -> ExecResult<bool> {
        match &*self.eval_ref(tuple)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(ExecError::Type(format!(
                "WHERE predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

fn eval_binary(
    op: BinaryOp,
    left: &BoundExpr,
    right: &BoundExpr,
    tuple: &Tuple,
) -> ExecResult<Value> {
    // Kleene AND/OR with short-circuit on the determining value.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let l = left.eval(tuple)?;
        let l = match l {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => return Err(ExecError::Type(format!("logical op on {other}"))),
        };
        if op == BinaryOp::And && l == Some(false) {
            return Ok(Value::Bool(false));
        }
        if op == BinaryOp::Or && l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = right.eval(tuple)?;
        let r = match r {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => return Err(ExecError::Type(format!("logical op on {other}"))),
        };
        let out = match (op, l, r) {
            (BinaryOp::And, Some(true), Some(true)) => Some(true),
            (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => Some(false),
            (BinaryOp::Or, Some(false), Some(false)) => Some(false),
            (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => Some(true),
            _ => None,
        };
        return Ok(out.map(Value::Bool).unwrap_or(Value::Null));
    }

    let l = left.eval_ref(tuple)?;
    let r = right.eval_ref(tuple)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let Some(cmp) = CmpOp::of(op) {
        return Ok(Value::Bool(cmp.holds(l.total_cmp(&r))));
    }
    eval_arithmetic(op, &l, &r)
}

/// One of the six comparisons. An expression walk and a scan key on page
/// bytes both decide a comparison through [`CmpOp::holds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The comparison `op` is, if it is one.
    pub(crate) fn of(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::Neq => CmpOp::Ne,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::Le => CmpOp::Le,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The comparison with its operands swapped: `a < b` is `b > a`.
    pub(crate) fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            symmetric => symmetric,
        }
    }

    /// Whether `left op right` holds when `left` orders as `ordering`
    /// against `right`.
    #[inline]
    pub(crate) fn holds(self, ordering: Ordering) -> bool {
        match self {
            CmpOp::Eq => ordering.is_eq(),
            CmpOp::Ne => ordering.is_ne(),
            CmpOp::Lt => ordering.is_lt(),
            CmpOp::Le => ordering.is_le(),
            CmpOp::Gt => ordering.is_gt(),
            CmpOp::Ge => ordering.is_ge(),
        }
    }
}

fn eval_arithmetic(op: BinaryOp, l: &Value, r: &Value) -> ExecResult<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            Ok(match op {
                BinaryOp::Add => Value::Int(a.wrapping_add(b)),
                BinaryOp::Sub => Value::Int(a.wrapping_sub(b)),
                BinaryOp::Mul => Value::Int(a.wrapping_mul(b)),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    Value::Int(a.wrapping_div(b))
                }
                _ => unreachable!(),
            })
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(ExecError::Type(format!(
                        "arithmetic on non-numeric values {l} and {r}"
                    )))
                }
            };
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    Value::Float(a / b)
                }
                _ => unreachable!(),
            })
        }
    }
}

fn eval_function(func: BuiltinFunc, args: &[BoundExpr], tuple: &Tuple) -> ExecResult<Value> {
    let vals: Vec<Value> = args
        .iter()
        .map(|a| a.eval(tuple))
        .collect::<ExecResult<_>>()?;
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let point = |v: &Value, fname: &str| -> ExecResult<Point> {
        v.as_point()
            .map(|(x, y)| Point::new(x, y))
            .ok_or_else(|| ExecError::Type(format!("{fname} expects a POINT, got {v}")))
    };
    let num = |v: &Value, fname: &str| -> ExecResult<f64> {
        v.as_f64()
            .ok_or_else(|| ExecError::Type(format!("{fname} expects a number, got {v}")))
    };
    match func {
        BuiltinFunc::StContains => {
            let (a, b, c, d) = vals[0].as_rect().ok_or_else(|| {
                ExecError::Type(format!(
                    "ST_Contains expects a RECT region, got {}",
                    vals[0]
                ))
            })?;
            let region = Polygon::from_rect(Rect::new(Point::new(a, b), Point::new(c, d)));
            let p = point(&vals[1], "ST_Contains")?;
            Ok(Value::Bool(functions::st_contains(&region, &p)))
        }
        BuiltinFunc::StDWithin => {
            let a = point(&vals[0], "ST_DWithin")?;
            let b = point(&vals[1], "ST_DWithin")?;
            let d = num(&vals[2], "ST_DWithin")?;
            Ok(Value::Bool(functions::st_dwithin(&a, &b, d)))
        }
        BuiltinFunc::StDistance => {
            let a = point(&vals[0], "ST_Distance")?;
            let b = point(&vals[1], "ST_Distance")?;
            Ok(Value::Float(functions::st_distance(&a, &b)))
        }
        BuiltinFunc::CScore => {
            let r = num(&vals[0], "CScore")?;
            let d = num(&vals[1], "CScore")?;
            Ok(Value::Float(functions::cscore(r, d)))
        }
        BuiltinFunc::MakePoint => {
            let x = num(&vals[0], "POINT")?;
            let y = num(&vals[1], "POINT")?;
            Ok(Value::Point(x, y))
        }
        BuiltinFunc::MakeRect => {
            let a = num(&vals[0], "RECT")?;
            let b = num(&vals[1], "RECT")?;
            let c = num(&vals[2], "RECT")?;
            let d = num(&vals[3], "RECT")?;
            Ok(Value::Rect(a, b, c, d))
        }
        BuiltinFunc::Abs => match &vals[0] {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Float(v) => Ok(Value::Float(v.abs())),
            other => Err(ExecError::Type(format!(
                "ABS expects a number, got {other}"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_sql::parse;
    use recdb_storage::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
            Column::qualified("R", "ratingval", DataType::Float),
            Column::qualified("R", "name", DataType::Text),
            Column::qualified("R", "loc", DataType::Point),
            Column::qualified("R", "area", DataType::Rect),
        ])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![
            Value::Int(1),
            Value::Int(42),
            Value::Float(4.5),
            Value::Text("Spartacus".into()),
            Value::Point(3.0, 4.0),
            Value::Rect(0.0, 0.0, 10.0, 10.0),
        ])
    }

    /// Bind the WHERE clause of `SELECT * FROM t WHERE <src>`.
    fn where_expr(src: &str) -> BoundExpr {
        let stmt = parse(&format!("SELECT * FROM t WHERE {src}")).unwrap();
        let recdb_sql::Statement::Select(s) = stmt else {
            panic!()
        };
        bind(&s.filter.unwrap(), &schema(), &[]).unwrap()
    }

    fn eval_bool(src: &str) -> bool {
        where_expr(src).eval_predicate(&tuple()).unwrap()
    }

    #[test]
    fn comparisons_and_logic() {
        assert!(eval_bool("R.uid = 1"));
        assert!(eval_bool("uid = 1 AND iid = 42"));
        assert!(!eval_bool("uid = 1 AND iid = 43"));
        assert!(eval_bool("uid = 9 OR ratingval > 4"));
        assert!(eval_bool("NOT (uid = 9)"));
        assert!(eval_bool("ratingval >= 4.5 AND ratingval <= 4.5"));
        assert!(eval_bool("name = 'Spartacus'"));
        assert!(eval_bool("uid != 2"));
    }

    #[test]
    fn in_list_and_between() {
        assert!(eval_bool("iid IN (1, 42, 99)"));
        assert!(!eval_bool("iid IN (1, 2)"));
        assert!(eval_bool("iid NOT IN (1, 2)"));
        assert!(eval_bool("ratingval BETWEEN 4 AND 5"));
        assert!(!eval_bool("ratingval BETWEEN 1 AND 2"));
        assert!(eval_bool("ratingval NOT BETWEEN 1 AND 2"));
    }

    #[test]
    fn arithmetic() {
        let e = where_expr("uid + iid = 43");
        assert!(e.eval_predicate(&tuple()).unwrap());
        assert!(eval_bool("ratingval * 2 = 9"));
        assert!(eval_bool("7 / 2 = 3"), "integer division truncates");
        assert!(eval_bool("7.0 / 2 = 3.5"));
        assert!(eval_bool("-uid = -1"));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = where_expr("uid / 0 = 1");
        assert_eq!(e.eval_predicate(&tuple()), Err(ExecError::DivisionByZero));
        let e = where_expr("ratingval / 0.0 = 1");
        assert_eq!(e.eval_predicate(&tuple()), Err(ExecError::DivisionByZero));
    }

    #[test]
    fn null_semantics() {
        // NULL comparisons are NULL → filter rejects.
        assert!(!eval_bool("NULL = 1"));
        assert!(!eval_bool("uid = NULL"));
        // Kleene: NULL OR TRUE = TRUE; NULL AND FALSE = FALSE.
        assert!(eval_bool("NULL = 1 OR uid = 1"));
        assert!(!eval_bool("NULL = 1 AND uid = 9"));
        // IN with NULL candidates: TRUE if matched, NULL otherwise.
        assert!(eval_bool("iid IN (42, NULL)"));
        assert!(!eval_bool("iid IN (1, NULL)"));
    }

    #[test]
    fn spatial_functions() {
        assert!(eval_bool("ST_DWithin(loc, POINT(0, 0), 5)"));
        assert!(!eval_bool("ST_DWithin(loc, POINT(0, 0), 4.9)"));
        assert!(eval_bool("ST_Distance(loc, POINT(0, 0)) = 5"));
        assert!(eval_bool("ST_Contains(area, loc)"));
        assert!(!eval_bool("ST_Contains(area, POINT(11, 0))"));
        assert!(eval_bool("ST_Contains(RECT(2, 3, 4, 5), loc)"));
        assert!(eval_bool("CScore(ratingval, 100) > 0"));
    }

    #[test]
    fn bind_errors() {
        let s = schema();
        let stmt = parse("SELECT * FROM t WHERE nosuch = 1").unwrap();
        let recdb_sql::Statement::Select(sel) = stmt else {
            panic!()
        };
        assert!(matches!(
            bind(&sel.filter.unwrap(), &s, &[]),
            Err(ExecError::Storage(_))
        ));
        let stmt = parse("SELECT * FROM t WHERE frobnicate(uid) = 1").unwrap();
        let recdb_sql::Statement::Select(sel) = stmt else {
            panic!()
        };
        let err = bind(&sel.filter.unwrap(), &s, &[]).unwrap_err();
        assert!(matches!(err, ExecError::Bind(m) if m.contains("frobnicate")));
        // Wrong arity.
        let stmt = parse("SELECT * FROM t WHERE ST_Distance(loc) = 1").unwrap();
        let recdb_sql::Statement::Select(sel) = stmt else {
            panic!()
        };
        let err = bind(&sel.filter.unwrap(), &s, &[]).unwrap_err();
        assert!(matches!(err, ExecError::Bind(m) if m.contains("2 arguments")));
    }

    #[test]
    fn type_errors_are_reported() {
        let e = where_expr("name + 1 = 2");
        assert!(matches!(
            e.eval_predicate(&tuple()),
            Err(ExecError::Type(_))
        ));
        let e = where_expr("ST_Distance(uid, loc) = 1");
        assert!(matches!(
            e.eval_predicate(&tuple()),
            Err(ExecError::Type(_))
        ));
        let e = where_expr("NOT uid");
        assert!(matches!(
            e.eval_predicate(&tuple()),
            Err(ExecError::Type(_))
        ));
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        let e = where_expr("uid + 1");
        assert!(matches!(
            e.eval_predicate(&tuple()),
            Err(ExecError::Type(_))
        ));
    }

    #[test]
    fn qualified_and_unqualified_references() {
        assert!(eval_bool("R.ratingval = ratingval"));
    }

    /// A filter's per-row work: comparing a `Text` column with a constant
    /// (or probing it against a list) reads both where they are.
    #[test]
    fn text_predicates_allocate_nothing_per_row() {
        let row = tuple();
        for src in [
            "name = 'Spartacus'",
            "name != 'Inception' AND name >= 'A'",
            "name IN ('Inception', 'Spartacus')",
            "name IN (name, 'x')",
            "name BETWEEN 'A' AND 'T'",
        ] {
            let predicate = where_expr(src);
            let (kept, allocations) =
                crate::alloc_count::allocations_in(|| predicate.eval_predicate(&row));
            assert_eq!(kept, Ok(true), "{src}");
            assert_eq!(allocations, 0, "{src}");
        }
        // The owned form is what copies (one `String` per `Text`).
        let name = where_expr("name = 'x'");
        let BoundExpr::Binary { left, .. } = &name else {
            panic!("{name:?}")
        };
        let (value, allocations) = crate::alloc_count::allocations_in(|| left.eval(&row));
        assert_eq!(value, Ok(Value::Text("Spartacus".into())));
        assert_eq!(allocations, 1);
    }

    #[test]
    fn constant_in_list_binds_to_hashed_set() {
        let e = where_expr("iid IN (1, 42, 99)");
        assert!(matches!(e, BoundExpr::InSet { .. }), "{e:?}");
        assert!(e.eval_predicate(&tuple()).unwrap());
        let e = where_expr("iid NOT IN (1, 2)");
        assert!(matches!(e, BoundExpr::InSet { negated: true, .. }));
        assert!(e.eval_predicate(&tuple()).unwrap());
        // Numeric cross-type match: Int probe against Float constant.
        assert!(eval_bool("iid IN (42.0)"));
        // Non-constant candidates fall back to the scanning form.
        let e = where_expr("iid IN (uid, 42)");
        assert!(matches!(e, BoundExpr::InList { .. }));
    }

    #[test]
    fn hashed_in_set_null_semantics_match_scan_form() {
        // Matched → TRUE even with NULL present.
        assert!(eval_bool("iid IN (42, NULL)"));
        // Unmatched with NULL present → NULL → filter rejects.
        assert!(!eval_bool("iid IN (1, NULL)"));
        // Unmatched without NULL under NOT IN → TRUE.
        assert!(eval_bool("iid NOT IN (1, 2)"));
        // NOT IN with NULL and no match → NULL → rejects.
        assert!(!eval_bool("iid NOT IN (1, NULL)"));
    }
}
