//! Materialized query results.

use recdb_storage::{Schema, Tuple, Value};
use std::fmt;

/// A materialized result: output schema plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl ResultSet {
    /// Build a result set.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ResultSet { schema, rows }
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in output order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Consume into the schema and the rows.
    pub fn into_parts(self) -> (Schema, Vec<Tuple>) {
        (self.schema, self.rows)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, column named)`, resolving the column by reference.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let i = self.schema.resolve(column).ok()?;
        self.rows.get(row)?.get(i)
    }

    /// All values of a named column.
    pub fn column_values(&self, column: &str) -> Vec<Value> {
        match self.schema.resolve(column) {
            Ok(i) => self
                .rows
                .iter()
                .map(|r| r.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
            Err(_) => Vec::new(),
        }
    }
}

impl fmt::Display for ResultSet {
    /// A psql-ish aligned table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.qualified_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                write!(
                    f,
                    "{cell:<width$}",
                    width = widths.get(i).copied().unwrap_or(0)
                )?;
            }
            writeln!(f)
        };
        write_row(f, &headers)?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-")
        )?;
        for row in &cells {
            write_row(f, row)?;
        }
        writeln!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_storage::{Column, DataType};

    fn rs() -> ResultSet {
        ResultSet::new(
            Schema::new(vec![
                Column::qualified("R", "uid", DataType::Int),
                Column::qualified("R", "ratingval", DataType::Float),
            ]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Float(4.5)]),
                Tuple::new(vec![Value::Int(2), Value::Float(3.0)]),
            ],
        )
    }

    #[test]
    fn accessors() {
        let r = rs();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.value(0, "uid"), Some(&Value::Int(1)));
        assert_eq!(r.value(1, "R.ratingval"), Some(&Value::Float(3.0)));
        assert_eq!(r.value(2, "uid"), None);
        assert_eq!(r.value(0, "nope"), None);
        assert_eq!(r.column_values("uid"), vec![Value::Int(1), Value::Int(2)]);
        assert!(r.column_values("nope").is_empty());
    }

    #[test]
    fn display_renders_table() {
        let text = rs().to_string();
        assert!(text.contains("R.uid"));
        assert!(text.contains("4.5"));
        assert!(text.contains("(2 rows)"));
    }
}
