//! Hash aggregation (`GROUP BY` + `COUNT/SUM/AVG/MIN/MAX`).
//!
//! Not part of the RecDB paper's operator set, but recommendation
//! *analytics* — "how many ratings per genre", "average predicted score
//! per city" — need it, and the engine would not be credible as a database
//! without it. NULL handling follows SQL: aggregate arguments that
//! evaluate to NULL are skipped; `COUNT(*)` counts rows; aggregates over
//! an empty group yield NULL (except `COUNT`, which yields 0).

use super::PhysicalOp;
use crate::error::{ExecError, ExecResult};
use crate::expr::BoundExpr;
use recdb_guard::QueryGuard;
use recdb_storage::{Schema, Tuple, Value};
use std::collections::HashMap;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Resolve an aggregate function name, `None` for non-aggregates.
    pub fn resolve(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// The SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One output column of the aggregation.
pub enum AggOutput {
    /// A grouping key, by index into the key list.
    Group(usize),
    /// An aggregate over an optional argument (`None` = `COUNT(*)`).
    Agg(AggFunc, Option<BoundExpr>),
}

#[derive(Debug, Clone)]
enum Accum {
    Count(u64),
    Sum { sum: f64, any: bool },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accum {
    fn new(func: AggFunc) -> Accum {
        match func {
            AggFunc::Count => Accum::Count(0),
            AggFunc::Sum => Accum::Sum {
                sum: 0.0,
                any: false,
            },
            AggFunc::Avg => Accum::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accum::Min(None),
            AggFunc::Max => Accum::Max(None),
        }
    }

    fn update(&mut self, value: Option<&Value>) -> ExecResult<()> {
        match self {
            Accum::Count(n) => {
                // COUNT(*) gets `None` (count the row); COUNT(expr) counts
                // non-NULL values.
                match value {
                    None => *n += 1,
                    Some(v) if !v.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            Accum::Sum { sum, any } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let x = v.as_f64().ok_or_else(|| {
                            ExecError::Type(format!("SUM over non-numeric value {v}"))
                        })?;
                        *sum += x;
                        *any = true;
                    }
                }
            }
            Accum::Avg { sum, n } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let x = v.as_f64().ok_or_else(|| {
                            ExecError::Type(format!("AVG over non-numeric value {v}"))
                        })?;
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            Accum::Min(best) => {
                if let Some(v) = value {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
            Accum::Max(best) => {
                if let Some(v) = value {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Greater)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Accum::Count(n) => Value::Int(n as i64),
            Accum::Sum { sum, any } => {
                if any {
                    Value::Float(sum)
                } else {
                    Value::Null
                }
            }
            Accum::Avg { sum, n } => {
                if n > 0 {
                    Value::Float(sum / n as f64)
                } else {
                    Value::Null
                }
            }
            Accum::Min(v) | Accum::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Blocking hash-aggregate operator. Groups appear in first-seen order.
pub struct HashAggregateOp<'a> {
    input: Box<dyn PhysicalOp + 'a>,
    keys: Vec<BoundExpr>,
    outputs: Vec<AggOutput>,
    schema: Schema,
    result: Option<std::vec::IntoIter<Tuple>>,
    error: Option<ExecError>,
    guard: QueryGuard,
}

impl<'a> HashAggregateOp<'a> {
    /// Build the operator. `keys` are the GROUP BY expressions bound
    /// against the input schema; `outputs` describe the emitted columns;
    /// `schema` is the output schema (one column per output, in order).
    pub fn new(
        input: Box<dyn PhysicalOp + 'a>,
        keys: Vec<BoundExpr>,
        outputs: Vec<AggOutput>,
        schema: Schema,
    ) -> Self {
        HashAggregateOp {
            input,
            keys,
            outputs,
            schema,
            result: None,
            error: None,
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor: the blocking aggregation drain ticks
    /// per input row and charges each new group's key size against the
    /// memory budget.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    fn aggregate_all(&mut self) -> ExecResult<Vec<Tuple>> {
        let agg_count = self
            .outputs
            .iter()
            .filter(|o| matches!(o, AggOutput::Agg(..)))
            .count();
        let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut states: Vec<(Vec<Value>, Vec<Accum>)> = Vec::new();
        while let Some(t) = self.input.next() {
            let tuple = t?;
            self.guard.tick()?;
            let key: Vec<Value> = self
                .keys
                .iter()
                .map(|k| k.eval(&tuple))
                .collect::<ExecResult<_>>()?;
            let slot = match groups.get(&key) {
                Some(&s) => s,
                None => {
                    // New-group state is what a hash aggregate actually
                    // retains, so only that is charged to the budget.
                    self.guard
                        .charge_mem(Tuple::new(key.clone()).encoded_size() as u64)?;
                    let accums: Vec<Accum> = self
                        .outputs
                        .iter()
                        .filter_map(|o| match o {
                            AggOutput::Agg(f, _) => Some(Accum::new(*f)),
                            AggOutput::Group(_) => None,
                        })
                        .collect();
                    states.push((key.clone(), accums));
                    groups.insert(key, states.len() - 1);
                    states.len() - 1
                }
            };
            let mut agg_idx = 0;
            for output in &self.outputs {
                if let AggOutput::Agg(_, arg) = output {
                    let value = match arg {
                        Some(e) => Some(e.eval(&tuple)?),
                        None => None,
                    };
                    states[slot].1[agg_idx].update(value.as_ref())?;
                    agg_idx += 1;
                }
            }
        }
        // Global aggregate over an empty input still yields one row.
        if states.is_empty() && self.keys.is_empty() && agg_count > 0 {
            let accums: Vec<Accum> = self
                .outputs
                .iter()
                .filter_map(|o| match o {
                    AggOutput::Agg(f, _) => Some(Accum::new(*f)),
                    AggOutput::Group(_) => None,
                })
                .collect();
            states.push((Vec::new(), accums));
        }
        let mut rows = Vec::with_capacity(states.len());
        for (key, accums) in states {
            let mut finished = accums.into_iter().map(Accum::finish);
            let values: Vec<Value> = self
                .outputs
                .iter()
                .map(|o| match o {
                    AggOutput::Group(k) => key[*k].clone(),
                    AggOutput::Agg(..) => finished.next().expect("one accum per agg"),
                })
                .collect();
            rows.push(Tuple::new(values));
        }
        Ok(rows)
    }
}

impl PhysicalOp for HashAggregateOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        if self.result.is_none() && self.error.is_none() {
            match self.aggregate_all() {
                Ok(rows) => self.result = Some(rows.into_iter()),
                Err(e) => self.error = Some(e),
            }
        }
        if let Some(e) = self.error.take() {
            return Some(Err(e));
        }
        self.result.as_mut()?.next().map(Ok)
    }

    fn name(&self) -> &'static str {
        "HashAggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::bind;
    use crate::ops::{drain, ValuesOp};
    use recdb_sql::Expr;
    use recdb_storage::{Column, DataType};

    fn input_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("M", "genre", DataType::Text),
            Column::qualified("M", "rating", DataType::Float),
        ])
    }

    fn rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Text("Action".into()), Value::Float(4.0)]),
            Tuple::new(vec![Value::Text("Drama".into()), Value::Float(2.0)]),
            Tuple::new(vec![Value::Text("Action".into()), Value::Float(5.0)]),
            Tuple::new(vec![Value::Text("Action".into()), Value::Null]),
            Tuple::new(vec![Value::Text("Drama".into()), Value::Float(3.0)]),
        ]
    }

    fn col(name: &str) -> BoundExpr {
        bind(&Expr::col(name), &input_schema(), &[]).unwrap()
    }

    fn out_schema(cols: &[(&str, DataType)]) -> Schema {
        Schema::from_pairs(cols)
    }

    #[test]
    fn group_by_with_count_sum_avg() {
        let op = HashAggregateOp::new(
            Box::new(ValuesOp::new(input_schema(), rows())),
            vec![col("genre")],
            vec![
                AggOutput::Group(0),
                AggOutput::Agg(AggFunc::Count, None),
                AggOutput::Agg(AggFunc::Count, Some(col("rating"))),
                AggOutput::Agg(AggFunc::Sum, Some(col("rating"))),
                AggOutput::Agg(AggFunc::Avg, Some(col("rating"))),
            ],
            out_schema(&[
                ("genre", DataType::Text),
                ("rows", DataType::Int),
                ("rated", DataType::Int),
                ("total", DataType::Float),
                ("mean", DataType::Float),
            ]),
        );
        let mut op = op;
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 2);
        // First-seen order: Action first.
        assert_eq!(got[0].get(0).unwrap().as_text(), Some("Action"));
        assert_eq!(
            got[0].get(1).unwrap(),
            &Value::Int(3),
            "COUNT(*) counts NULL row"
        );
        assert_eq!(
            got[0].get(2).unwrap(),
            &Value::Int(2),
            "COUNT(col) skips NULL"
        );
        assert_eq!(got[0].get(3).unwrap(), &Value::Float(9.0));
        assert_eq!(got[0].get(4).unwrap(), &Value::Float(4.5));
        assert_eq!(got[1].get(0).unwrap().as_text(), Some("Drama"));
        assert_eq!(got[1].get(4).unwrap(), &Value::Float(2.5));
    }

    #[test]
    fn min_max() {
        let mut op = HashAggregateOp::new(
            Box::new(ValuesOp::new(input_schema(), rows())),
            vec![],
            vec![
                AggOutput::Agg(AggFunc::Min, Some(col("rating"))),
                AggOutput::Agg(AggFunc::Max, Some(col("rating"))),
            ],
            out_schema(&[("lo", DataType::Float), ("hi", DataType::Float)]),
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(0).unwrap(), &Value::Float(2.0));
        assert_eq!(got[0].get(1).unwrap(), &Value::Float(5.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let mut op = HashAggregateOp::new(
            Box::new(ValuesOp::new(input_schema(), Vec::new())),
            vec![],
            vec![
                AggOutput::Agg(AggFunc::Count, None),
                AggOutput::Agg(AggFunc::Sum, Some(col("rating"))),
                AggOutput::Agg(AggFunc::Min, Some(col("rating"))),
            ],
            out_schema(&[
                ("n", DataType::Int),
                ("s", DataType::Float),
                ("m", DataType::Float),
            ]),
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(0).unwrap(), &Value::Int(0));
        assert_eq!(got[0].get(1).unwrap(), &Value::Null);
        assert_eq!(got[0].get(2).unwrap(), &Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let mut op = HashAggregateOp::new(
            Box::new(ValuesOp::new(input_schema(), Vec::new())),
            vec![col("genre")],
            vec![AggOutput::Group(0), AggOutput::Agg(AggFunc::Count, None)],
            out_schema(&[("genre", DataType::Text), ("n", DataType::Int)]),
        );
        assert!(drain(&mut op).unwrap().is_empty());
    }

    #[test]
    fn sum_over_text_is_type_error() {
        let mut op = HashAggregateOp::new(
            Box::new(ValuesOp::new(input_schema(), rows())),
            vec![],
            vec![AggOutput::Agg(AggFunc::Sum, Some(col("genre")))],
            out_schema(&[("s", DataType::Float)]),
        );
        assert!(matches!(drain(&mut op), Err(ExecError::Type(_))));
    }

    #[test]
    fn resolve_names() {
        assert_eq!(AggFunc::resolve("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::resolve("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::resolve("st_distance"), None);
        assert_eq!(AggFunc::Max.name(), "MAX");
    }
}
