//! Engine-level errors.

use recdb_algo::TrainError;
use recdb_exec::ExecError;
use recdb_guard::GuardError;
use recdb_sql::ParseError;
use recdb_storage::StorageError;
use recdb_wal::WalError;
use std::fmt;
use std::time::Duration;

/// Result alias for the engine.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors surfaced by [`crate::engine::RecDb`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL could not be parsed.
    Parse(ParseError),
    /// Planning or execution failed.
    Exec(ExecError),
    /// A storage operation failed.
    Storage(StorageError),
    /// A durable file failed its checksum during recovery. `table` names
    /// the affected relation (or `"catalog"` for the manifest itself); the
    /// wrapped [`StorageError::Corruption`] pinpoints the file and page.
    Corruption {
        /// The table whose data is damaged.
        table: String,
        /// The underlying checksum failure.
        source: StorageError,
    },
    /// A write-ahead-log operation failed.
    Wal(WalError),
    /// A recommender already exists that takes the new one's name or
    /// serves its clause (table, columns and algorithm); it is named.
    RecommenderExists(String),
    /// No recommender with this name exists.
    RecommenderNotFound(String),
    /// The CREATE TABLE type name is not recognized.
    UnknownType(String),
    /// INSERT rows must be constant expressions.
    NonConstantInsert(String),
    /// The statement was cancelled (explicitly, or by its deadline).
    Cancelled {
        /// Wall-clock time the statement had run when it was stopped.
        elapsed: Duration,
    },
    /// The statement exceeded a row or memory budget.
    ResourceExhausted {
        /// Which budget was exhausted (`"rows"` or `"memory"`).
        resource: &'static str,
        /// The configured budget.
        budget: u64,
        /// Usage at the moment the budget tripped.
        used: u64,
    },
    /// A panic was caught at the engine boundary; the statement failed
    /// but the engine itself keeps serving.
    Internal(String),
    /// A table lock could not be granted before the configured
    /// [`crate::engine::RecDbConfig::lock_timeout`] elapsed. The enclosing
    /// transaction has been rolled back; retry it from BEGIN.
    LockTimeout {
        /// The table whose lock was contended.
        table: String,
        /// How long the statement waited before giving up.
        waited: Duration,
    },
    /// `BEGIN` was issued while this session already has an open
    /// transaction (the engine does not nest transactions).
    TransactionActive,
    /// `COMMIT` or `ROLLBACK` was issued with no open transaction.
    NoActiveTransaction,
    /// A checkpoint gave up waiting for open explicit transactions to
    /// finish. Committed data is unaffected; retry once they complete.
    CheckpointContended {
        /// Open explicit transactions when the checkpoint gave up.
        active: usize,
        /// How long the checkpoint waited for them to drain.
        waited: Duration,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Corruption { table, source } => {
                write!(f, "corruption detected in table `{table}`: {source}")
            }
            EngineError::Wal(e) => write!(f, "write-ahead log failure: {e}"),
            EngineError::RecommenderExists(name) => {
                write!(f, "recommender `{name}` already exists")
            }
            EngineError::RecommenderNotFound(name) => {
                write!(f, "recommender `{name}` does not exist")
            }
            EngineError::UnknownType(name) => write!(
                f,
                "unknown column type `{name}` (expected INT, FLOAT, TEXT, BOOL, POINT, or RECT)"
            ),
            EngineError::NonConstantInsert(msg) => {
                write!(f, "INSERT values must be constants: {msg}")
            }
            EngineError::Cancelled { elapsed } => {
                write!(f, "statement cancelled after {:.3}s", elapsed.as_secs_f64())
            }
            EngineError::ResourceExhausted {
                resource,
                budget,
                used,
            } => write!(
                f,
                "statement exceeded its {resource} budget: used {used} of {budget}"
            ),
            EngineError::Internal(msg) => write!(f, "internal error (panic contained): {msg}"),
            EngineError::LockTimeout { table, waited } => write!(
                f,
                "lock timeout on table `{table}` after {:.3}s",
                waited.as_secs_f64()
            ),
            EngineError::TransactionActive => {
                write!(f, "a transaction is already in progress")
            }
            EngineError::NoActiveTransaction => {
                write!(f, "no transaction is in progress")
            }
            EngineError::CheckpointContended { active, waited } => write!(
                f,
                "checkpoint timed out after {:.3}s waiting for {active} open transaction(s)",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Exec(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::Corruption { source, .. } => Some(source),
            EngineError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        match e {
            // A checksum failure is the same engine error whichever layer
            // met it: recovery reading a checkpoint, or a scan faulting in
            // a spilled page.
            ExecError::Storage(e @ StorageError::Corruption { .. }) => e.into(),
            other => EngineError::Exec(other),
        }
    }
}

/// A checksum failure becomes [`EngineError::Corruption`] naming the
/// affected table: checkpoint page files are named `<table>.<lsn>.tbl`,
/// the buffer pool labels a heap's spill blocks with the bare table name,
/// and anything else is the catalog manifest itself.
impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        match &e {
            StorageError::Corruption { file, .. } => {
                let table = match file.split_once('.') {
                    Some((table, _)) if file.ends_with(".tbl") => table.to_owned(),
                    Some(_) => "catalog".to_owned(),
                    None => file.clone(),
                };
                EngineError::Corruption { table, source: e }
            }
            _ => EngineError::Storage(e),
        }
    }
}

/// Governor verdicts flatten into first-class engine errors so callers can
/// match on `Cancelled`/`ResourceExhausted` without digging through the
/// executor layer.
impl From<GuardError> for EngineError {
    fn from(e: GuardError) -> Self {
        match e {
            GuardError::Cancelled { elapsed } => EngineError::Cancelled { elapsed },
            GuardError::ResourceExhausted {
                resource,
                budget,
                used,
            } => EngineError::ResourceExhausted {
                resource,
                budget,
                used,
            },
        }
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

impl From<recdb_fault::FaultError> for EngineError {
    fn from(e: recdb_fault::FaultError) -> Self {
        EngineError::Exec(ExecError::FaultInjected(e))
    }
}

impl From<TrainError> for EngineError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Guard(g) => g.into(),
            TrainError::Fault(f) => f.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_round_trip() {
        // Every wrapping variant must expose its cause via `source()` and
        // render it in `Display`, so the chain can be walked end to end.
        let exec_err = ExecError::Storage(StorageError::TableNotFound("t".into()));
        let e = EngineError::Exec(exec_err);
        let msg = e.to_string();
        let src = std::error::Error::source(&e).expect("Exec wraps a cause");
        assert!(msg.contains(&src.to_string()), "{msg} vs {src}");
        let inner = src.source().expect("ExecError::Storage chains further");
        assert!(inner.to_string().contains("`t`"));

        let e: EngineError = GuardError::Cancelled {
            elapsed: Duration::from_millis(1500),
        }
        .into();
        assert!(matches!(e, EngineError::Cancelled { .. }));
        assert!(e.to_string().contains("1.500"));

        let e: EngineError = GuardError::ResourceExhausted {
            resource: "rows",
            budget: 10,
            used: 11,
        }
        .into();
        assert!(matches!(
            e,
            EngineError::ResourceExhausted {
                resource: "rows",
                budget: 10,
                used: 11
            }
        ));
        let msg = e.to_string();
        assert!(msg.contains("rows") && msg.contains("10") && msg.contains("11"));

        let e = EngineError::Internal("operator panicked".into());
        assert!(e.to_string().contains("panic"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn corruption_display_and_source_chain() {
        // The operator-facing story: the engine error names the table, its
        // source names the exact file and page, and the chain is walkable.
        let source = StorageError::Corruption {
            file: "ratings.7.tbl".into(),
            page: 3,
            expected: 0xDEAD_BEEF,
            found: 0x0BAD_F00D,
        };
        let e = EngineError::Corruption {
            table: "ratings".into(),
            source: source.clone(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`ratings`"), "{msg}");
        assert!(msg.contains("ratings.7.tbl"), "{msg}");
        assert!(msg.contains("page 3"), "{msg}");
        let chained = std::error::Error::source(&e).expect("Corruption chains its cause");
        assert_eq!(chained.to_string(), source.to_string());
        assert!(chained.source().is_none(), "StorageError is the root");

        let wal = EngineError::Wal(WalError::Corrupt {
            offset: 64,
            reason: "bad checksum".into(),
        });
        assert!(wal.to_string().contains("write-ahead log"));
        assert!(std::error::Error::source(&wal)
            .expect("Wal chains its cause")
            .to_string()
            .contains("byte 64"));
    }

    #[test]
    fn transaction_errors_display() {
        let e = EngineError::LockTimeout {
            table: "ratings".into(),
            waited: Duration::from_millis(250),
        };
        let msg = e.to_string();
        assert!(msg.contains("`ratings`") && msg.contains("0.250"), "{msg}");
        assert!(EngineError::TransactionActive
            .to_string()
            .contains("already in progress"));
        assert!(EngineError::NoActiveTransaction
            .to_string()
            .contains("no transaction"));
        let e = EngineError::CheckpointContended {
            active: 2,
            waited: Duration::from_secs(1),
        };
        let msg = e.to_string();
        assert!(msg.contains('2') && msg.contains("checkpoint"), "{msg}");
    }

    #[test]
    fn conversions_and_display() {
        let e: EngineError = StorageError::TableNotFound("t".into()).into();
        assert!(e.to_string().contains("`t`"));
        let e = EngineError::UnknownType("BLOB".into());
        assert!(e.to_string().contains("BLOB"));
        assert!(e.to_string().contains("POINT"));
        let e = EngineError::RecommenderExists("GeneralRec".into());
        assert!(e.to_string().contains("GeneralRec"));
    }
}
