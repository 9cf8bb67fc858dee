//! Error types for the storage layer.

use std::fmt;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    TableNotFound(String),
    /// No column with this name exists in the schema.
    ColumnNotFound(String),
    /// A column reference such as `R.uid` matched more than one column.
    AmbiguousColumn(String),
    /// The tuple arity does not match the schema arity.
    ArityMismatch { expected: usize, got: usize },
    /// A value's type does not match the declared column type.
    TypeMismatch {
        column: String,
        expected: String,
        got: String,
    },
    /// A single tuple is larger than a page can hold.
    TupleTooLarge { size: usize, max: usize },
    /// The referenced record id does not exist.
    InvalidRid { page: u32, slot: u16 },
    /// An index with this name already exists on the table.
    IndexExists(String),
    /// No index with this name exists on the table.
    IndexNotFound(String),
    /// A page's binary content could not be decoded.
    Corrupt(String),
    /// An on-disk page block failed its checksum: the stored CRC
    /// (`expected`) disagrees with the CRC of the bytes actually read
    /// (`found`). Fields name the file and page so operators know exactly
    /// which block to salvage or restore.
    Corruption {
        /// File the bad block lives in (e.g. `ratings.7.tbl`).
        file: String,
        /// Page number within the file.
        page: u32,
        /// Checksum recorded in the block header.
        expected: u32,
        /// Checksum of the bytes as read.
        found: u32,
    },
    /// A filesystem operation failed (durable backend only). Carries the
    /// operation name and the OS error text.
    Io {
        /// What was being attempted (`"open"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error, stringified (keeps the type `Clone + Eq`).
        message: String,
    },
    /// A deterministic fault-injection site fired (tests only; see
    /// the `recdb-fault` crate).
    FaultInjected(String),
}

impl StorageError {
    /// Wrap a [`std::io::Error`] with the operation that failed.
    pub fn io(op: &'static str, e: std::io::Error) -> Self {
        StorageError::Io {
            op,
            message: e.to_string(),
        }
    }
}

impl From<recdb_fault::FaultError> for StorageError {
    fn from(e: recdb_fault::FaultError) -> Self {
        StorageError::FaultInjected(e.site.to_string())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(name) => write!(f, "table `{name}` already exists"),
            StorageError::TableNotFound(name) => write!(f, "table `{name}` does not exist"),
            StorageError::ColumnNotFound(name) => write!(f, "column `{name}` does not exist"),
            StorageError::AmbiguousColumn(name) => {
                write!(f, "column reference `{name}` is ambiguous")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple has {got} values but the schema has {expected} columns"
                )
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected}, got {got}"
            ),
            StorageError::TupleTooLarge { size, max } => {
                write!(
                    f,
                    "tuple of {size} bytes exceeds the page capacity of {max} bytes"
                )
            }
            StorageError::InvalidRid { page, slot } => {
                write!(f, "invalid record id (page {page}, slot {slot})")
            }
            StorageError::IndexExists(name) => write!(f, "index `{name}` already exists"),
            StorageError::IndexNotFound(name) => write!(f, "index `{name}` does not exist"),
            StorageError::Corrupt(msg) => write!(f, "corrupt page data: {msg}"),
            StorageError::Corruption {
                file,
                page,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in `{file}` page {page}: \
                 header says {expected:#010x}, block hashes to {found:#010x}"
            ),
            StorageError::Io { op, message } => write!(f, "I/O error during {op}: {message}"),
            StorageError::FaultInjected(site) => {
                write!(f, "injected fault at site `{site}`")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offender() {
        assert_eq!(
            StorageError::TableNotFound("ratings".into()).to_string(),
            "table `ratings` does not exist"
        );
        assert_eq!(
            StorageError::ArityMismatch {
                expected: 3,
                got: 2
            }
            .to_string(),
            "tuple has 2 values but the schema has 3 columns"
        );
        let e = StorageError::TypeMismatch {
            column: "uid".into(),
            expected: "Int".into(),
            got: "Text".into(),
        };
        assert!(e.to_string().contains("uid"));
        assert!(e.to_string().contains("Int"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::TableExists("t".into()),
            StorageError::TableExists("t".into())
        );
        assert_ne!(
            StorageError::TableExists("t".into()),
            StorageError::TableNotFound("t".into())
        );
    }
}
