//! Synchronization facade: `std::sync` in production, a model-checked
//! scheduler under test.
//!
//! The workspace's concurrency protocols — the cache's `Building`-slot
//! condvar handshake, the compile service's work queue and quarantine
//! table, the degraded handle's latch, DPF's epoch-RCU cell — are
//! exactly the kind of hand-rolled lock-free plumbing the paper's §6
//! concession ("misuse generates bad code with no warning") warns about,
//! except here the misuse would be *ours*, not a client's. Stress tests
//! on a 1-core CI box explore almost no interleavings; `vsync` exists so
//! the same production code can be driven by a deterministic scheduler
//! instead.
//!
//! - **Normal builds** (no `mcheck` feature): every name in this module
//!   is a re-export of the `std` type. Zero cost, zero behavior change —
//!   the existing 20% bench fences (codegen_cost, cache_amortize,
//!   compile_service, dpf_service) hold over the facade.
//! - **`mcheck` builds**: each type is a thin wrapper that, *when used
//!   from a thread managed by [`model`]'s cooperative scheduler*, turns
//!   every operation into a schedule point: the explorer enumerates
//!   interleavings (bounded exhaustive DFS or seeded random walks),
//!   models TSO-style store buffers for non-SeqCst atomic stores,
//!   virtualizes the clock, and detects deadlock and lost wakeups.
//!   Unmanaged threads fall straight through to `std`, so cargo's
//!   feature unification (the `mcheck` crate enabling the feature for a
//!   whole workspace test build) never changes the semantics of
//!   ordinary tests.
//!
//! Ported modules (`cache`, `service`, the serving half of `engine`,
//! `rcu`, `dpf::service`) import their primitives from here and only
//! here — `scripts/unsafe_audit.sh` and DESIGN.md "Model-checked
//! concurrency" document the rule: no raw `std::sync` in ported
//! modules.
//!
//! The facade deliberately mirrors the `std` API (poisoning included)
//! so a port is an import swap, not a rewrite.

#[cfg(feature = "mcheck")]
pub mod model;

#[cfg(feature = "mcheck")]
mod instrumented;

#[cfg(feature = "mcheck")]
pub use instrumented::{
    thread, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Condvar, Instant, Mutex, MutexGuard,
    OnceLock, WaitTimeoutResult,
};

#[cfg(not(feature = "mcheck"))]
pub use passthrough::{
    thread, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Condvar, Instant, Mutex, MutexGuard,
    OnceLock, WaitTimeoutResult,
};

// Shared-by-construction re-exports: these are pure data (or reference
// counting) with no scheduling decisions to model, so both modes use
// `std` directly.
pub use std::sync::atomic::Ordering;
pub use std::sync::{Arc, LockResult, PoisonError, TryLockError, TryLockResult, Weak};
pub use std::time::Duration;

/// Fault-injection points for the checker's mutation tests: each one
/// deliberately weakens a protocol so the explorer can prove it would
/// *catch* the regression (see `crates/mcheck`). In normal builds the
/// queries below constant-fold to "no injection".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Injection {
    /// Weakens the epoch-RCU reader announcement from `SeqCst` to
    /// `Relaxed` ([`crate::rcu::Rcu::enter`]): the StoreLoad barrier
    /// between publishing the entry epoch and loading the current
    /// generation disappears, so a writer can miss an active reader and
    /// reclaim a generation still in use.
    RcuRelaxedPublication,
    /// Drops the `Building`-slot condvar notify
    /// (`crate::cache::Build::wake`): waiters only ever progress via
    /// the stall timeout, which the explorer observes as a virtual-
    /// clock jump (or, for unbounded waits, a deadlock).
    DropCacheNotify,
    /// Breaks the persistent-cache single-writer claim
    /// (`crate::persist::StoreSlots::try_claim`): the claim is handed
    /// out but never recorded in the slot table, so two threads racing
    /// to persist one key both "win" and both publish — the
    /// `persist_single_writer` model program counts the publications
    /// and fails.
    PersistClaimRace,
}

/// Whether `i` is injected for the current model execution. Always
/// `false` outside an active model run; constant `false` in normal
/// builds (the call compiles away).
#[inline]
#[cfg(feature = "mcheck")]
pub fn injected(i: Injection) -> bool {
    model::injected(i)
}

/// Normal-build stub: no injections exist.
#[inline]
#[cfg(not(feature = "mcheck"))]
pub fn injected(_i: Injection) -> bool {
    false
}

/// The memory ordering for the epoch-RCU reader announcement: `SeqCst`
/// unless the mutation test weakened it (see
/// [`Injection::RcuRelaxedPublication`]).
#[inline]
pub fn rcu_publication_order() -> Ordering {
    if injected(Injection::RcuRelaxedPublication) {
        Ordering::Relaxed
    } else {
        Ordering::SeqCst
    }
}

#[cfg(not(feature = "mcheck"))]
mod passthrough {
    //! Production facade: straight re-exports. The only code in this
    //! module is `thread`, which narrows `std::thread` to the surface
    //! the ported modules use (so the instrumented build can mirror it
    //! exactly).

    pub use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, WaitTimeoutResult};
    pub use std::time::Instant;

    pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};

    /// Thread spawning and sleeping, re-exported from `std::thread`.
    pub mod thread {
        pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The facade must present the identical API in both modes; these
    // compile-and-run smoke checks exercise every surface the ported
    // modules rely on, so a drift in either mode fails tier-1 whether
    // or not the `mcheck` feature is unified into the build.
    #[test]
    fn facade_smoke() {
        let m = Mutex::new(1u32);
        {
            let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 2);
        assert!(m.try_lock().is_ok());

        let cv = Condvar::new();
        let g = m.lock().unwrap();
        let (g, t) = cv
            .wait_timeout(g, Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner());
        assert!(t.timed_out());
        drop(g);
        cv.notify_one();
        cv.notify_all();

        let o: OnceLock<u32> = OnceLock::new();
        assert!(o.get().is_none());
        assert_eq!(*o.get_or_init(|| 7), 7);
        assert_eq!(o.get(), Some(&7));
        assert!(o.set(9).is_err());

        let a = AtomicU64::new(1);
        a.store(2, Ordering::SeqCst);
        assert_eq!(a.swap(3, Ordering::SeqCst), 2);
        assert_eq!(a.fetch_add(1, Ordering::Relaxed), 3);
        assert_eq!(a.load(Ordering::SeqCst), 4);

        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));

        let u = AtomicUsize::new(0);
        assert_eq!(u.fetch_add(2, Ordering::SeqCst), 0);
        u.fetch_sub(1, Ordering::SeqCst);
        u.fetch_max(9, Ordering::Relaxed);
        assert_eq!(u.load(Ordering::SeqCst), 9);

        let mut boxed = Box::new(5u8);
        let p: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
        p.store(&mut *boxed, Ordering::SeqCst);
        assert_eq!(
            p.swap(std::ptr::null_mut(), Ordering::SeqCst),
            &mut *boxed as *mut u8
        );

        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(1);
        assert!(deadline.saturating_duration_since(t0) >= Duration::from_millis(1));
        let _ = t0.elapsed();
        assert!(deadline >= t0);

        let h = thread::spawn(|| 6u32);
        assert_eq!(h.join().unwrap(), 6);
        let h = thread::Builder::new()
            .name("vsync-smoke".into())
            .spawn(|| 8u32)
            .unwrap();
        assert_eq!(h.join().unwrap(), 8);
        thread::yield_now();
        thread::sleep(Duration::from_micros(10));

        assert!(!injected(Injection::RcuRelaxedPublication));
        assert_eq!(rcu_publication_order(), Ordering::SeqCst);
    }
}
