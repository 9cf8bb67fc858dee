//! Execution-layer errors.

use recdb_fault::FaultError;
use recdb_guard::GuardError;
use recdb_storage::StorageError;
use std::fmt;

/// Result alias for the exec crate.
pub type ExecResult<T> = Result<T, ExecError>;

/// Errors raised during planning, binding, or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An underlying storage error.
    Storage(StorageError),
    /// A name could not be resolved or a construct is malformed.
    Bind(String),
    /// A runtime type error (e.g. `'abc' + 1`).
    Type(String),
    /// Integer or float division by zero.
    DivisionByZero,
    /// No recommender was created for the query's `RECOMMEND` clause: its
    /// ratings table, user, item and rating columns and algorithm. Holds
    /// the clause, rendered ([`crate::provider::Clause`]).
    NoRecommender(String),
    /// An algorithm name that RecDB does not support.
    UnknownAlgorithm(String),
    /// A feature the engine does not implement.
    Unsupported(String),
    /// The query's resource governor stopped execution (cancellation,
    /// deadline, or a row/memory budget).
    Guard(GuardError),
    /// A deterministic fault-injection site fired (tests only).
    FaultInjected(FaultError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Bind(msg) => write!(f, "binding error: {msg}"),
            ExecError::Type(msg) => write!(f, "type error: {msg}"),
            ExecError::DivisionByZero => f.write_str("division by zero"),
            ExecError::NoRecommender(clause) => write!(
                f,
                "no recommender serves {clause} (run CREATE RECOMMENDER first)"
            ),
            ExecError::UnknownAlgorithm(name) => {
                write!(f, "unknown recommendation algorithm `{name}`")
            }
            ExecError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ExecError::Guard(e) => write!(f, "query stopped: {e}"),
            ExecError::FaultInjected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::Guard(e) => Some(e),
            ExecError::FaultInjected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<GuardError> for ExecError {
    fn from(e: GuardError) -> Self {
        ExecError::Guard(e)
    }
}

impl From<FaultError> for ExecError {
    fn from(e: FaultError) -> Self {
        ExecError::FaultInjected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_no_recommender_is_actionable() {
        let clause = crate::provider::Clause {
            table: "ratings",
            users: "uid",
            items: "iid",
            ratings: "stars",
            algorithm: recdb_algo::Algorithm::Svd,
        };
        let msg = ExecError::NoRecommender(clause.to_string()).to_string();
        for part in ["SVD", "ratings", "stars", "CREATE RECOMMENDER"] {
            assert!(msg.contains(part), "{msg}");
        }
    }

    #[test]
    fn storage_error_converts_and_chains() {
        let e: ExecError = StorageError::TableNotFound("t".into()).into();
        assert!(matches!(e, ExecError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
