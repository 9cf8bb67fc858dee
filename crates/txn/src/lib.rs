//! # recdb-txn
//!
//! The concurrency-control layer of RecDB-rs: a table-granularity lock
//! table implementing strict two-phase locking for the engine's sessions.
//!
//! * Readers (`SELECT` / `RECOMMEND`) take [`LockMode::Shared`] locks on
//!   every table they scan; any number of shared holders coexist, so
//!   concurrent readers never block each other.
//! * Writers take [`LockMode::Exclusive`] locks on the tables they
//!   mutate; an exclusive lock excludes every other transaction.
//! * A transaction already holding an exclusive lock implicitly holds the
//!   shared lock too, and the *sole* shared holder may upgrade to
//!   exclusive in place (`BEGIN; SELECT ...; INSERT ...` never
//!   self-deadlocks).
//!
//! There is no deadlock detector. Instead every acquisition carries a
//! timeout: a waiter parks on a condition variable in bounded
//! exponentially growing slices (1 ms doubling to a 64 ms cap, never past
//! the remaining budget) and gives up with [`LockError::Timeout`] when the
//! budget is exhausted — contended sessions degrade gracefully instead of
//! deadlocking, the policy SimpleDB-style engines use at this
//! granularity. A waiter also re-checks its [`QueryGuard`] at every wake,
//! so a cancelled or deadline-expired query abandons the wait immediately
//! and strands no lock.
//!
//! Fail point: `txn::lock_acquire` fires at the top of every
//! [`LockTable::acquire`] call (seeded fault matrices use it to abort
//! statements at the locking layer).
//!
//! Metrics (attached via [`LockTable::attach_metrics`]):
//! `recdb_lock_waits_total` counts acquisitions that could not be granted
//! immediately, and the `recdb_lock_wait_micros` histogram records how
//! long each such wait lasted (granted *or* timed out).

use recdb_guard::{GuardError, QueryGuard};
use recdb_obs::{Counter, Histogram, Registry};
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Transaction identifier. The engine allocates these from a process-wide
/// counter; auto-committed statements get a fresh id per statement.
pub type TxnId = u64;

/// Lock strength, classic shared/exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Reader lock: compatible with other shared locks.
    Shared,
    /// Writer lock: excludes every other transaction.
    Exclusive,
}

/// Why a lock acquisition failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The wait budget ran out while another transaction held the table.
    Timeout {
        /// Table the acquisition was for.
        table: String,
        /// How long the transaction waited before giving up.
        waited: Duration,
    },
    /// The waiting query's guard tripped (cancel / deadline).
    Cancelled(GuardError),
    /// An armed `txn::lock_acquire` fail point fired.
    Fault(recdb_fault::FaultError),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout { table, waited } => write!(
                f,
                "lock wait on table `{table}` timed out after {:.3}s",
                waited.as_secs_f64()
            ),
            LockError::Cancelled(e) => write!(f, "lock wait cancelled: {e}"),
            LockError::Fault(e) => write!(f, "lock acquire fault: {e}"),
        }
    }
}

impl Error for LockError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LockError::Timeout { .. } => None,
            LockError::Cancelled(e) => Some(e),
            LockError::Fault(e) => Some(e),
        }
    }
}

/// Per-table lock state: the set of shared holders plus at most one
/// exclusive holder. An upgrading transaction appears in both.
#[derive(Debug, Default)]
struct Entry {
    shared: BTreeSet<TxnId>,
    exclusive: Option<TxnId>,
}

impl Entry {
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            // Shared: ok unless someone *else* holds exclusive.
            LockMode::Shared => self.exclusive.is_none_or(|x| x == txn),
            // Exclusive: ok if every current holder is this transaction
            // (covers fresh grant, re-entry, and the sole-reader upgrade).
            LockMode::Exclusive => {
                self.exclusive.is_none_or(|x| x == txn) && self.shared.iter().all(|&s| s == txn)
            }
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                self.shared.insert(txn);
            }
            LockMode::Exclusive => self.exclusive = Some(txn),
        }
    }

    fn release(&mut self, txn: TxnId) {
        self.shared.remove(&txn);
        if self.exclusive == Some(txn) {
            self.exclusive = None;
        }
    }

    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }
}

/// First backoff slice a waiter parks for.
const INITIAL_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff slices double up to this cap (bounded exponential backoff).
const MAX_BACKOFF: Duration = Duration::from_millis(64);
/// Decade buckets for the lock-wait histogram (microseconds).
const LOCK_WAIT_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The engine-wide lock table. Table names are the keys; the engine
/// lower-cases them before calling in (the catalog is case-folded too).
#[derive(Default)]
pub struct LockTable {
    state: Mutex<HashMap<String, Entry>>,
    cond: Condvar,
    metrics: OnceLock<LockMetrics>,
}

/// The lock table's series, resolved from the registry once, at attach.
struct LockMetrics {
    waits: Arc<Counter>,
    wait_micros: Arc<Histogram>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the engine's metric registry; waits recorded afterwards
    /// feed `recdb_lock_waits_total` and `recdb_lock_wait_micros`. May be
    /// called once; later calls are ignored.
    pub fn attach_metrics(&self, registry: &Registry) {
        let _ = self.metrics.set(LockMetrics {
            waits: registry.counter("recdb_lock_waits_total"),
            wait_micros: registry.histogram("recdb_lock_wait_micros", &LOCK_WAIT_BUCKETS),
        });
    }

    /// Acquire `mode` on `table` for transaction `txn`, waiting up to
    /// `timeout`. Re-entrant: a mode already held (or implied by a held
    /// exclusive) is granted immediately, and the sole shared holder may
    /// upgrade to exclusive. A zero timeout never blocks: it either gets
    /// the immediate grant or fails with [`LockError::Timeout`].
    pub fn acquire(
        &self,
        txn: TxnId,
        table: &str,
        mode: LockMode,
        timeout: Duration,
        guard: &QueryGuard,
    ) -> Result<(), LockError> {
        recdb_fault::fail_point("txn::lock_acquire").map_err(LockError::Fault)?;
        let mut state = lock(&self.state);
        {
            let entry = state.entry(table.to_owned()).or_default();
            if entry.grantable(txn, mode) {
                entry.grant(txn, mode);
                return Ok(());
            }
        }
        // Contended: park in bounded exponential backoff slices, waking on
        // releases, until granted, cancelled, or out of budget.
        self.note_wait_started();
        let started = Instant::now();
        let mut backoff = INITIAL_BACKOFF;
        loop {
            let waited = started.elapsed();
            if waited >= timeout {
                drop(state);
                self.observe_wait(waited);
                return Err(LockError::Timeout {
                    table: table.to_owned(),
                    waited,
                });
            }
            if let Err(e) = guard.check() {
                drop(state);
                self.observe_wait(started.elapsed());
                return Err(LockError::Cancelled(e));
            }
            let slice = backoff.min(timeout - waited);
            let (next, _) = self
                .cond
                .wait_timeout(state, slice)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            backoff = (backoff * 2).min(MAX_BACKOFF);
            let entry = state.entry(table.to_owned()).or_default();
            if entry.grantable(txn, mode) {
                entry.grant(txn, mode);
                drop(state);
                self.observe_wait(started.elapsed());
                return Ok(());
            }
        }
    }

    /// Release every lock `txn` holds (end of transaction — strict 2PL
    /// releases nothing earlier) and wake all waiters.
    pub fn release_all(&self, txn: TxnId) {
        let mut state = lock(&self.state);
        state.retain(|_, entry| {
            entry.release(txn);
            !entry.is_free()
        });
        drop(state);
        self.cond.notify_all();
    }

    /// The mode `txn` currently holds on `table`, if any (exclusive wins
    /// when upgrading). Test/introspection helper.
    pub fn held(&self, txn: TxnId, table: &str) -> Option<LockMode> {
        let state = lock(&self.state);
        let entry = state.get(table)?;
        if entry.exclusive == Some(txn) {
            Some(LockMode::Exclusive)
        } else if entry.shared.contains(&txn) {
            Some(LockMode::Shared)
        } else {
            None
        }
    }

    /// True when any transaction holds any lock on `table`.
    pub fn is_locked(&self, table: &str) -> bool {
        lock(&self.state).get(table).is_some_and(|e| !e.is_free())
    }

    /// Total number of locks currently held across all tables.
    pub fn held_count(&self) -> usize {
        lock(&self.state)
            .values()
            .map(|e| {
                e.shared.len() + usize::from(e.exclusive.is_some_and(|x| !e.shared.contains(&x)))
            })
            .sum()
    }

    fn note_wait_started(&self) {
        if let Some(m) = self.metrics.get() {
            m.waits.inc();
        }
    }

    fn observe_wait(&self, waited: Duration) {
        if let Some(m) = self.metrics.get() {
            m.wait_micros.observe(waited.as_micros() as u64);
        }
    }
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("state", &*lock(&self.state))
            .finish()
    }
}

/// Lock a std mutex ignoring poison: lock-table state is a plain map that
/// stays consistent under panic (every mutation is a single-step insert
/// or remove), so a poisoned mutex carries no torn invariants.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    const NOW: Duration = Duration::ZERO;

    #[test]
    fn shared_locks_coexist_without_waiting() {
        let g = &QueryGuard::unlimited();
        let lt = LockTable::new();
        // Zero timeout: any wait at all would fail, so success proves
        // readers never block each other.
        lt.acquire(1, "ratings", LockMode::Shared, NOW, g)
            .expect("first reader");
        lt.acquire(2, "ratings", LockMode::Shared, NOW, g)
            .expect("second reader");
        lt.acquire(3, "ratings", LockMode::Shared, NOW, g)
            .expect("third reader");
        assert_eq!(lt.held(2, "ratings"), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_conflicts_surface_timeout_with_waited_duration() {
        let g = &QueryGuard::unlimited();
        let lt = LockTable::new();
        lt.acquire(1, "ratings", LockMode::Exclusive, NOW, g)
            .expect("writer");
        let err = lt
            .acquire(2, "ratings", LockMode::Exclusive, NOW, g)
            .expect_err("second writer must time out");
        match err {
            LockError::Timeout { table, .. } => assert_eq!(table, "ratings"),
            other => panic!("expected timeout, got {other:?}"),
        }
        // Shared against exclusive also conflicts.
        assert!(lt.acquire(2, "ratings", LockMode::Shared, NOW, g).is_err());
        // A different table is independent.
        lt.acquire(2, "movies", LockMode::Exclusive, NOW, g)
            .expect("independent table");
    }

    #[test]
    fn locks_are_reentrant_and_exclusive_implies_shared() {
        let g = &QueryGuard::unlimited();
        let lt = LockTable::new();
        lt.acquire(1, "t", LockMode::Exclusive, NOW, g).unwrap();
        lt.acquire(1, "t", LockMode::Exclusive, NOW, g)
            .expect("re-entrant exclusive");
        lt.acquire(1, "t", LockMode::Shared, NOW, g)
            .expect("exclusive implies shared");
        assert_eq!(lt.held(1, "t"), Some(LockMode::Exclusive));
    }

    #[test]
    fn sole_shared_holder_upgrades_in_place() {
        let g = &QueryGuard::unlimited();
        let lt = LockTable::new();
        lt.acquire(1, "t", LockMode::Shared, NOW, g).unwrap();
        lt.acquire(1, "t", LockMode::Exclusive, NOW, g)
            .expect("sole reader upgrades");
        // With a second reader present the upgrade must fail instead.
        let lt = LockTable::new();
        lt.acquire(1, "t", LockMode::Shared, NOW, g).unwrap();
        lt.acquire(2, "t", LockMode::Shared, NOW, g).unwrap();
        assert!(lt.acquire(1, "t", LockMode::Exclusive, NOW, g).is_err());
    }

    #[test]
    fn release_all_frees_every_table_and_wakes_waiters() {
        let g = &QueryGuard::unlimited();
        let lt = Arc::new(LockTable::new());
        lt.acquire(1, "a", LockMode::Exclusive, NOW, g).unwrap();
        lt.acquire(1, "b", LockMode::Shared, NOW, g).unwrap();
        assert_eq!(lt.held_count(), 2);

        let lt2 = Arc::clone(&lt);
        let handle = thread::spawn(move || {
            lt2.acquire(
                2,
                "a",
                LockMode::Exclusive,
                Duration::from_secs(30),
                &QueryGuard::unlimited(),
            )
        });
        // Give the waiter time to park, then release: it must be granted
        // long before its 30s budget runs out.
        thread::sleep(Duration::from_millis(20));
        lt.release_all(1);
        handle
            .join()
            .expect("no panic")
            .expect("granted after release");
        assert_eq!(lt.held(2, "a"), Some(LockMode::Exclusive));
        assert!(!lt.is_locked("b"));
    }

    #[test]
    fn cancelled_guard_abandons_the_wait() {
        let g = &QueryGuard::unlimited();
        let lt = Arc::new(LockTable::new());
        lt.acquire(1, "t", LockMode::Exclusive, NOW, g).unwrap();
        let guard = QueryGuard::unlimited();
        let cancel = guard.cancel_handle();
        let done = Arc::new(AtomicBool::new(false));
        let (lt2, done2) = (Arc::clone(&lt), Arc::clone(&done));
        let handle = thread::spawn(move || {
            let r = lt2.acquire(2, "t", LockMode::Shared, Duration::from_secs(60), &guard);
            done2.store(true, Ordering::SeqCst);
            r
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!done.load(Ordering::SeqCst), "waiter must still be parked");
        cancel.cancel();
        let err = handle.join().expect("no panic").expect_err("cancelled");
        assert!(matches!(err, LockError::Cancelled(_)), "{err:?}");
        // The cancelled waiter left no lock behind.
        lt.release_all(1);
        assert!(!lt.is_locked("t"));
    }

    #[test]
    fn waits_are_counted_and_timed() {
        let g = &QueryGuard::unlimited();
        let registry = Arc::new(Registry::new());
        let lt = LockTable::new();
        lt.attach_metrics(&registry);
        lt.acquire(1, "t", LockMode::Exclusive, NOW, g).unwrap();
        // Uncontended grants record nothing.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("recdb_lock_waits_total"), 0);
        let _ = lt.acquire(2, "t", LockMode::Exclusive, Duration::from_millis(5), g);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("recdb_lock_waits_total"), 1);
        let hist = snap
            .histogram("recdb_lock_wait_micros")
            .expect("wait histogram");
        assert_eq!(hist.count, 1);
        assert!(
            hist.sum >= 1_000,
            "waited at least the 5ms budget: {hist:?}"
        );
    }
}
