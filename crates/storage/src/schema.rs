//! Column and schema metadata, with alias-aware column resolution.
//!
//! Query operators concatenate schemas (joins) and rename relations
//! (`Ratings AS R`), so resolution must handle both bare names (`uid`) and
//! qualified names (`R.uid`), detecting ambiguity.

use crate::error::{StorageError, StorageResult};
use crate::value::DataType;
use std::sync::Arc;

/// A single column: an optional relation qualifier, a name, and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Relation qualifier (table name or alias), if any.
    pub relation: Option<String>,
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            relation: None,
            name: name.into(),
            data_type,
        }
    }

    /// A column qualified by a relation name or alias.
    pub fn qualified(
        relation: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Column {
            relation: Some(relation.into()),
            name: name.into(),
            data_type,
        }
    }

    /// `rel.name` if qualified, else `name`.
    pub fn qualified_name(&self) -> String {
        match &self.relation {
            Some(rel) => format!("{rel}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether a reference (optionally qualified) matches this column.
    /// Matching is case-insensitive, like PostgreSQL's folded identifiers.
    fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .relation
                .as_deref()
                .is_some_and(|r| r.eq_ignore_ascii_case(q)),
        }
    }
}

/// An ordered list of columns, immutable once built.
///
/// The list is shared: a clone is a reference-count bump, so a plan node,
/// the operator built from it and the result it produces can each hold
/// the schema without copying a column name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns: columns.into(),
        }
    }

    /// Convenience constructor from `(name, type)` pairs (unqualified).
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema {
            columns: pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Resolve a column reference such as `uid` or `R.uid` to its ordinal.
    ///
    /// Returns [`StorageError::AmbiguousColumn`] if the reference matches
    /// more than one column and [`StorageError::ColumnNotFound`] if it
    /// matches none.
    pub fn resolve(&self, reference: &str) -> StorageResult<usize> {
        match reference.split_once('.') {
            Some((qualifier, name)) => self.resolve_parts(Some(qualifier), name),
            None => self.resolve_parts(None, reference),
        }
    }

    /// [`Schema::resolve`] for a reference already split into its
    /// qualifier and name: nothing is formatted unless it fails.
    pub fn resolve_parts(&self, qualifier: Option<&str>, name: &str) -> StorageResult<usize> {
        let mut found: Option<usize> = None;
        for (i, col) in self.columns.iter().enumerate() {
            if col.matches(qualifier, name) {
                if found.is_some() {
                    return Err(StorageError::AmbiguousColumn(reference(qualifier, name)));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| StorageError::ColumnNotFound(reference(qualifier, name)))
    }

    /// A copy of this schema with every column qualified by `alias`
    /// (re-qualifying replaces any existing qualifier, as `AS` does).
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column::qualified(alias, c.name.clone(), c.data_type))
                .collect(),
        }
    }

    /// Concatenate two schemas (join output schema).
    pub fn join(&self, right: &Schema) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .chain(right.columns.iter())
                .cloned()
                .collect(),
        }
    }

    /// Project a subset of columns by ordinal.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices
                .iter()
                .filter_map(|&i| self.columns.get(i).cloned())
                .collect(),
        }
    }
}

/// A reference's text as written, `qualifier.name` or `name`.
fn reference(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratings_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
            Column::qualified("R", "ratingval", DataType::Float),
        ])
    }

    #[test]
    fn resolve_bare_and_qualified() {
        let s = ratings_schema();
        assert_eq!(s.resolve("uid").unwrap(), 0);
        assert_eq!(s.resolve("R.iid").unwrap(), 1);
        assert_eq!(s.resolve("r.RATINGVAL").unwrap(), 2, "case-insensitive");
        assert_eq!(s.resolve_parts(Some("r"), "IID").unwrap(), 1);
        assert_eq!(s.resolve_parts(None, "uid").unwrap(), 0);
    }

    #[test]
    fn a_clone_shares_the_columns() {
        let s = ratings_schema();
        let copy = s.clone();
        assert!(std::ptr::eq(s.columns(), copy.columns()));
        assert_eq!(s, copy);
    }

    #[test]
    fn resolve_missing_and_wrong_qualifier() {
        let s = ratings_schema();
        assert!(matches!(
            s.resolve("nope"),
            Err(StorageError::ColumnNotFound(_))
        ));
        assert!(matches!(
            s.resolve("M.uid"),
            Err(StorageError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn ambiguity_detected_after_join() {
        let joined = ratings_schema().join(&Schema::new(vec![Column::qualified(
            "M",
            "uid",
            DataType::Int,
        )]));
        assert!(matches!(
            joined.resolve("uid"),
            Err(StorageError::AmbiguousColumn(_))
        ));
        assert_eq!(joined.resolve("R.uid").unwrap(), 0);
        assert_eq!(joined.resolve("M.uid").unwrap(), 3);
    }

    #[test]
    fn requalification_replaces_alias() {
        let s = ratings_schema().with_qualifier("X");
        assert_eq!(s.resolve("X.uid").unwrap(), 0);
        assert!(s.resolve("R.uid").is_err());
    }

    #[test]
    fn projection_keeps_order() {
        let s = ratings_schema().project(&[2, 0]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column(0).unwrap().name, "ratingval");
        assert_eq!(s.column(1).unwrap().name, "uid");
    }

    #[test]
    fn qualified_name_format() {
        let c = Column::qualified("R", "uid", DataType::Int);
        assert_eq!(c.qualified_name(), "R.uid");
        let c = Column::new("uid", DataType::Int);
        assert_eq!(c.qualified_name(), "uid");
    }
}
