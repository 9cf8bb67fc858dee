//! Cooperative resource governor for queries and model builds.
//!
//! A [`QueryGuard`] bundles a cancellation flag, an optional wall-clock
//! deadline, and optional row/memory budgets behind one cheap handle.
//! Long-running loops call [`QueryGuard::tick`] once per unit of work
//! (a tuple produced, an SGD epoch, a similarity chunk) — or
//! [`QueryGuard::tick_n`] once per block of `n` units when the work is
//! done a block at a time; blocking operators additionally report
//! buffered bytes via [`QueryGuard::charge_mem`]. Each returns a structured
//! [`GuardError`] the moment a limit is crossed, so cancellation is
//! bounded by the cost of a single work unit — the Volcano analogue of
//! a per-row interrupt check.
//!
//! Guards are `Clone` + `Send` + `Sync` and share state through an
//! `Arc`, so the same guard can be handed to materialization worker
//! threads and cancelled from outside.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed operation was stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// The guard was cancelled or its wall-clock deadline passed.
    Cancelled {
        /// Time elapsed since the guard started.
        elapsed: Duration,
    },
    /// A row or memory budget was exceeded.
    ResourceExhausted {
        /// Which budget: `"rows"` or `"memory"`.
        resource: &'static str,
        /// The configured limit.
        budget: u64,
        /// The usage that crossed it.
        used: u64,
    },
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Cancelled { elapsed } => {
                write!(f, "cancelled after {:.3}s", elapsed.as_secs_f64())
            }
            GuardError::ResourceExhausted {
                resource,
                budget,
                used,
            } => write!(f, "{resource} budget exhausted: used {used} of {budget}"),
        }
    }
}

impl std::error::Error for GuardError {}

#[derive(Debug)]
struct GuardInner {
    cancelled: AtomicBool,
    started: Instant,
    deadline: Option<Instant>,
    row_budget: Option<u64>,
    rows: AtomicU64,
    mem_budget: Option<u64>,
    mem: AtomicU64,
}

/// Shared cancellation/deadline/budget token. Cloning is cheap and all
/// clones observe the same state.
#[derive(Debug, Clone)]
pub struct QueryGuard {
    inner: Arc<GuardInner>,
}

impl Default for QueryGuard {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl QueryGuard {
    /// A guard with no deadline and no budgets; `tick` only observes
    /// explicit [`cancel`](Self::cancel) calls.
    pub fn unlimited() -> Self {
        Self::build(None, None, None)
    }

    /// A guard with the given limits; `None` means unlimited.
    pub fn with_limits(
        deadline: Option<Duration>,
        row_budget: Option<u64>,
        mem_budget: Option<u64>,
    ) -> Self {
        Self::build(deadline, row_budget, mem_budget)
    }

    fn build(deadline: Option<Duration>, row_budget: Option<u64>, mem_budget: Option<u64>) -> Self {
        let started = Instant::now();
        QueryGuard {
            inner: Arc::new(GuardInner {
                cancelled: AtomicBool::new(false),
                started,
                deadline: deadline.map(|d| started + d),
                row_budget,
                rows: AtomicU64::new(0),
                mem_budget,
                mem: AtomicU64::new(0),
            }),
        }
    }

    /// A clone usable to cancel this guard from another thread.
    pub fn cancel_handle(&self) -> QueryGuard {
        self.clone()
    }

    /// Cooperatively cancel: the next `check`/`tick` on any clone fails.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Rows charged so far via [`tick`](Self::tick).
    pub fn rows_used(&self) -> u64 {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// Bytes charged so far via [`charge_mem`](Self::charge_mem).
    pub fn mem_used(&self) -> u64 {
        self.inner.mem.load(Ordering::Relaxed)
    }

    /// Check cancellation and deadline without charging any work.
    pub fn check(&self) -> Result<(), GuardError> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(GuardError::Cancelled {
                elapsed: self.elapsed(),
            });
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(GuardError::Cancelled {
                    elapsed: self.elapsed(),
                });
            }
        }
        Ok(())
    }

    /// Charge one unit of row work, then check every limit. Call once
    /// per tuple produced (or per epoch/chunk in model builds).
    pub fn tick(&self) -> Result<(), GuardError> {
        self.tick_n(1)
    }

    /// Charge `n` units of row work at once, then check every limit once
    /// — for operators that produce a block of rows per step. The row
    /// budget sees the same total as `n` calls to [`tick`](Self::tick), so
    /// a statement that runs to completion trips it under exactly the same
    /// budgets; cancellation and the deadline are observed once per block
    /// instead of once per row.
    pub fn tick_n(&self, n: u64) -> Result<(), GuardError> {
        let used = self.inner.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(budget) = self.inner.row_budget {
            if used > budget {
                return Err(GuardError::ResourceExhausted {
                    resource: "rows",
                    budget,
                    used,
                });
            }
        }
        self.check()
    }

    /// Charge `bytes` of buffered memory (sorts, hash tables), then
    /// check the memory budget.
    pub fn charge_mem(&self, bytes: u64) -> Result<(), GuardError> {
        let used = self.inner.mem.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(budget) = self.inner.mem_budget {
            if used > budget {
                return Err(GuardError::ResourceExhausted {
                    resource: "memory",
                    budget,
                    used,
                });
            }
        }
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_always_passes() {
        let g = QueryGuard::unlimited();
        for _ in 0..10_000 {
            g.tick().unwrap();
        }
        g.charge_mem(u64::MAX / 2).unwrap();
        g.check().unwrap();
    }

    #[test]
    fn zero_deadline_cancels_immediately() {
        let g = QueryGuard::with_limits(Some(Duration::ZERO), None, None);
        match g.check() {
            Err(GuardError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn row_budget_exhausts_at_boundary() {
        let g = QueryGuard::with_limits(None, Some(3), None);
        g.tick().unwrap();
        g.tick().unwrap();
        g.tick().unwrap();
        assert_eq!(
            g.tick(),
            Err(GuardError::ResourceExhausted {
                resource: "rows",
                budget: 3,
                used: 4
            })
        );
    }

    #[test]
    fn tick_n_trips_the_row_budget_exactly_where_n_ticks_do() {
        // A statement charging `blocks` blocks of `n` rows each, by block
        // and by row: both must trip, or pass, under every budget.
        for (blocks, n) in [(1u64, 1u64), (1, 7), (3, 5), (4, 0), (2, 1683)] {
            let total = blocks * n;
            for budget in [0, 1, total.saturating_sub(1), total, total + 1] {
                let by_block = QueryGuard::with_limits(None, Some(budget), None);
                let by_row = QueryGuard::with_limits(None, Some(budget), None);
                let block_trip = (0..blocks).any(|_| by_block.tick_n(n).is_err());
                let row_trip = (0..total).any(|_| by_row.tick().is_err());
                assert_eq!(block_trip, row_trip, "{blocks}×{n} rows, budget {budget}");
                assert_eq!(block_trip, total > budget);
                if !block_trip {
                    assert_eq!(by_block.rows_used(), by_row.rows_used());
                }
            }
        }
    }

    #[test]
    fn tick_n_observes_cancellation_and_deadline_once_per_block() {
        let g = QueryGuard::unlimited();
        g.tick_n(1_000).unwrap();
        g.cancel();
        assert!(matches!(g.tick_n(1_000), Err(GuardError::Cancelled { .. })));
        let expired = QueryGuard::with_limits(Some(Duration::ZERO), None, None);
        assert!(matches!(
            expired.tick_n(0),
            Err(GuardError::Cancelled { .. })
        ));
    }

    #[test]
    fn mem_budget_counts_cumulative_bytes() {
        let g = QueryGuard::with_limits(None, None, Some(100));
        g.charge_mem(60).unwrap();
        assert_eq!(
            g.charge_mem(60),
            Err(GuardError::ResourceExhausted {
                resource: "memory",
                budget: 100,
                used: 120
            })
        );
    }

    #[test]
    fn cancel_is_visible_across_clones_and_threads() {
        let g = QueryGuard::unlimited();
        let handle = g.cancel_handle();
        std::thread::spawn(move || handle.cancel())
            .join()
            .expect("cancel thread");
        assert!(g.is_cancelled());
        assert!(matches!(g.tick(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn display_is_informative() {
        let e = GuardError::ResourceExhausted {
            resource: "rows",
            budget: 10,
            used: 11,
        };
        let s = e.to_string();
        assert!(s.contains("rows") && s.contains("10") && s.contains("11"));
        let c = GuardError::Cancelled {
            elapsed: Duration::from_millis(1500),
        };
        assert!(c.to_string().contains("1.500"));
    }
}
