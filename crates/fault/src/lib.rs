//! Deterministic fault injection for robustness testing.
//!
//! Engine code marks *named sites* — places where a real deployment could
//! fail (an allocation, a worker thread, an I/O call) — with
//! [`fail_point`]. In production builds the call is a single relaxed
//! atomic load and nothing else. Tests arm a site to trigger on its Nth
//! hit, either returning a [`FaultError`] ([`arm_error`]) or panicking
//! ([`arm_panic`]), and then drive the engine through the site to prove
//! the failure unwinds cleanly.
//!
//! Site names are `crate::operation` (e.g. `storage::heap_append`,
//! `core::materialize_worker`, `algo::svd_epoch`): the crate that hosts
//! the call site, then a short snake_case verb phrase for the operation.
//!
//! A triggered site *disarms itself*, so a retried operation succeeds —
//! this mirrors a transient production fault and is what the
//! retry-after-failure tests rely on.
//!
//! The registry is process-global. Tests that arm sites must serialize
//! via [`exclusive`] so concurrent tests don't observe each other's
//! faults. Holding it only protects tests that take it too, and every
//! model build evaluates `algo::*` and `core::materialize_worker`, so a
//! test that arms a site lives in an integration test binary in which
//! *every* test holds [`exclusive`] (`tests/robustness.rs`,
//! `crates/algo/tests/faults.rs`). No lib test of `recdb-algo`,
//! `recdb-core` or `recdb-txn` arms a site; CI greps their `src` for it.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Error produced by a triggered fault-injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that fired, e.g. `storage::heap_append`.
    pub site: &'static str,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at site `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

/// What happens when an armed site triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// `fail_point` returns `Err(FaultError)`.
    Error,
    /// `fail_point` panics (exercises `catch_unwind` containment).
    Panic,
}

#[derive(Debug)]
struct SiteState {
    /// Total `fail_point` evaluations for this site since last `clear`.
    hits: u64,
    /// Armed trigger: fire when `hits` reaches this value.
    trigger_at: Option<u64>,
    mode: FaultMode,
    /// Times this site has actually fired.
    triggered: u64,
}

impl SiteState {
    fn new() -> Self {
        SiteState {
            hits: 0,
            trigger_at: None,
            mode: FaultMode::Error,
            triggered: 0,
        }
    }
}

/// Fast path: when false, `fail_point` is a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<&'static str, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<&'static str, SiteState>> {
    // A panicking fail_point poisons the mutex by design; later tests
    // still need the registry, so poisoning is not an error here.
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Evaluate a named fault-injection site.
///
/// Returns `Ok(())` unless a test armed this site and this is the
/// triggering hit. On trigger the site disarms itself, then either
/// returns `Err(FaultError)` or panics depending on the armed
/// [`FaultMode`].
#[inline]
pub fn fail_point(site: &'static str) -> Result<(), FaultError> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fail_point_slow(site)
}

#[cold]
fn fail_point_slow(site: &'static str) -> Result<(), FaultError> {
    let mode = {
        let mut map = lock_registry();
        let state = map.entry(site).or_insert_with(SiteState::new);
        state.hits += 1;
        match state.trigger_at {
            Some(n) if state.hits >= n => {
                state.trigger_at = None; // disarm: the fault is transient
                state.triggered += 1;
                Some(state.mode)
            }
            _ => None,
        }
    };
    match mode {
        None => Ok(()),
        Some(FaultMode::Error) => Err(FaultError { site }),
        Some(FaultMode::Panic) => panic!("injected panic at fault site `{site}`"),
    }
}

fn arm(site: &'static str, nth: u64, mode: FaultMode) {
    let mut map = lock_registry();
    let state = map.entry(site).or_insert_with(SiteState::new);
    // `nth` counts from the *current* hit count so re-arming after a
    // trigger behaves like a fresh schedule.
    state.trigger_at = Some(state.hits + nth.max(1));
    state.mode = mode;
    drop(map);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Arm `site` to return an error on its `nth` future hit (1-based).
pub fn arm_error(site: &'static str, nth: u64) {
    arm(site, nth, FaultMode::Error);
}

/// Arm `site` to panic on its `nth` future hit (1-based).
pub fn arm_panic(site: &'static str, nth: u64) {
    arm(site, nth, FaultMode::Panic);
}

/// Disarm every site, zero all counters, and restore the zero-cost
/// fast path.
pub fn clear() {
    let mut map = lock_registry();
    map.clear();
    drop(map);
    ENABLED.store(false, Ordering::SeqCst);
}

/// Total `fail_point` evaluations at `site` since the last [`clear`].
pub fn hits(site: &'static str) -> u64 {
    lock_registry().get(site).map_or(0, |s| s.hits)
}

/// How many times `site` actually fired since the last [`clear`].
pub fn triggered(site: &'static str) -> u64 {
    lock_registry().get(site).map_or(0, |s| s.triggered)
}

/// Derive a deterministic 1-based trigger hit for `site` from `seed`.
///
/// Used by the seeded CI sweep: every (seed, site) pair maps to a fixed
/// "fail on the Nth hit" schedule in `1..=max_nth`, so a failing seed
/// reproduces exactly.
pub fn schedule_nth(seed: u64, site: &str, max_nth: u64) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in site.bytes() {
        x ^= u64::from(b);
        x = x.wrapping_mul(0x100_0000_01B3);
    }
    // xorshift64 finisher
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    1 + x % max_nth.max(1)
}

/// Serialize tests that arm fault sites. The registry is process-global,
/// so any test calling [`arm_error`]/[`arm_panic`] must hold this for
/// its whole body (and `clear()` before releasing).
pub fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_site_is_ok_and_uncounted() {
        let _gate = exclusive();
        clear();
        assert_eq!(fail_point("fault::test_a"), Ok(()));
        assert_eq!(hits("fault::test_a"), 0, "fast path must not count");
        clear();
    }

    #[test]
    fn error_triggers_on_nth_hit_then_disarms() {
        let _gate = exclusive();
        clear();
        arm_error("fault::test_b", 3);
        assert_eq!(fail_point("fault::test_b"), Ok(()));
        assert_eq!(fail_point("fault::test_b"), Ok(()));
        assert_eq!(
            fail_point("fault::test_b"),
            Err(FaultError {
                site: "fault::test_b"
            })
        );
        // Disarmed: the retry path sees a healthy site.
        assert_eq!(fail_point("fault::test_b"), Ok(()));
        assert_eq!(hits("fault::test_b"), 4);
        assert_eq!(triggered("fault::test_b"), 1);
        clear();
    }

    #[test]
    fn panic_mode_panics_and_registry_survives() {
        let _gate = exclusive();
        clear();
        arm_panic("fault::test_c", 1);
        let r = std::panic::catch_unwind(|| fail_point("fault::test_c"));
        assert!(r.is_err(), "armed panic site must panic");
        assert_eq!(triggered("fault::test_c"), 1);
        assert_eq!(fail_point("fault::test_c"), Ok(()), "disarmed after panic");
        clear();
    }

    #[test]
    fn sites_are_independent() {
        let _gate = exclusive();
        clear();
        arm_error("fault::test_d", 1);
        assert_eq!(fail_point("fault::test_e"), Ok(()));
        assert!(fail_point("fault::test_d").is_err());
        clear();
    }

    #[test]
    fn schedule_is_deterministic_and_in_range() {
        for seed in [0, 1, 7, 42, u64::MAX] {
            for site in ["storage::heap_append", "algo::svd_epoch"] {
                let a = schedule_nth(seed, site, 10);
                let b = schedule_nth(seed, site, 10);
                assert_eq!(a, b);
                assert!((1..=10).contains(&a));
            }
        }
        // Different sites should (for these seeds) get different slots
        // at least once — guards against a degenerate constant hash.
        let spread: std::collections::HashSet<u64> = [1u64, 7, 42]
            .iter()
            .map(|&s| schedule_nth(s, "storage::heap_append", 1000))
            .collect();
        assert!(spread.len() > 1, "seeds must spread the schedule");
    }

    #[test]
    fn display_names_the_site() {
        let e = FaultError {
            site: "core::materialize_worker",
        };
        assert!(e.to_string().contains("core::materialize_worker"));
    }
}
