//! Generic epoch-based RCU cell on the [`vsync`](crate::vsync) facade.
//!
//! Extracted from `dpf::service`'s hand-rolled classifier RCU so the
//! protocol exists once, generically, and — because every atomic below
//! comes from `vsync` — so the `mcheck` model checker can drive it
//! through explored interleavings (see `crates/mcheck`'s RCU model
//! programs and the `RcuRelaxedPublication` mutation test).
//!
//! Protocol (unchanged from the original):
//! - **Readers never lock.** Each reader owns a registered *slot*; on
//!   [`Rcu::enter`] it announces the current epoch in its slot, loads
//!   the current value pointer, and re-checks the epoch (a concurrent
//!   publication forces a retry). [`ReadGuard`] clears the slot on
//!   drop.
//! - **Writers publish with a pointer swap**, bump the epoch *after*
//!   the swap, push the old value on the retire list, then
//!   [`Rcu::reclaim`] frees every retired entry whose retire epoch is
//!   at or below all active reader slots.
//! - The reader's announce store is the load-bearing **StoreLoad
//!   barrier**: it must be `SeqCst` so the writer's slot scan cannot
//!   miss a reader that is about to use a generation the writer just
//!   retired. [`vsync::rcu_publication_order`] returns `SeqCst` in
//!   production and weakens to `Relaxed` only under the model-checker
//!   mutation that proves the explorer catches exactly this bug.
//!
//! Under an active model execution, reclamation does not actually free:
//! the box is marked with a *freed canary* and parked in the
//! execution's graveyard, so a use-after-retire becomes a deterministic
//! assertion (with a replayable schedule) instead of undefined
//! behavior.

use crate::vsync::{self, Arc, AtomicPtr, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};

/// Heap node wrapping a published value. The canary exists only in
/// `mcheck` builds (one cold flag per published generation).
struct Node<T> {
    value: T,
    #[cfg(feature = "mcheck")]
    freed: std::sync::atomic::AtomicBool,
}

impl<T> Node<T> {
    fn boxed(value: T) -> Box<Node<T>> {
        Box::new(Node {
            value,
            #[cfg(feature = "mcheck")]
            freed: std::sync::atomic::AtomicBool::new(false),
        })
    }
}

/// Epoch-based RCU cell: wait-free lock-free readers, writer-side
/// deferred reclamation. See the module docs for the protocol.
pub struct Rcu<T: Send + Sync + 'static> {
    /// The current value (`Box::into_raw` of a [`Node`]).
    cur: AtomicPtr<Node<T>>,
    /// Publication epoch; bumped *after* every swap, starts at 1 so a
    /// slot value of 0 can mean "quiescent".
    epoch: AtomicU64,
    /// Registered reader slots. 0 = quiescent, otherwise the epoch the
    /// reader observed on entry.
    slots: Mutex<Vec<Arc<AtomicU64>>>,
    /// Retired values: (epoch at retire, node). Writer-side only.
    retired: Mutex<Vec<(u64, *mut Node<T>)>>,
    /// Cheap mirror of `retired.len()` so readers can skip reclamation
    /// probes without touching the mutex.
    retired_len: AtomicUsize,
}

// SAFETY: the raw pointers always come from `Box::into_raw` of a
// `Node<T>` with `T: Send + Sync`, and each is freed exactly once — by
// the epoch-guarded reclaim (which removes it from the retire list
// first) or by `Drop` (which has exclusive access).
unsafe impl<T: Send + Sync + 'static> Send for Rcu<T> {}
// SAFETY: as above; shared access only ever yields `&T` to values that
// reclaim has proven unreachable by that reader's epoch.
unsafe impl<T: Send + Sync + 'static> Sync for Rcu<T> {}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: Send + Sync + 'static> Rcu<T> {
    /// A cell holding `first` at epoch 1.
    pub fn new(first: T) -> Rcu<T> {
        Rcu {
            cur: AtomicPtr::new(Box::into_raw(Node::boxed(first))),
            epoch: AtomicU64::new(1),
            slots: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            retired_len: AtomicUsize::new(0),
        }
    }

    /// Registers a reader slot; the handle is what [`Rcu::enter`]
    /// announces through. Unregister with [`Rcu::unregister_slot`] when
    /// the reader is done (a stale quiescent slot is harmless but makes
    /// the reclaim scan longer).
    pub fn register_slot(&self) -> Arc<AtomicU64> {
        let slot = Arc::new(AtomicU64::new(0));
        lock(&self.slots).push(Arc::clone(&slot));
        slot
    }

    /// Removes a reader slot registered by [`Rcu::register_slot`].
    pub fn unregister_slot(&self, slot: &Arc<AtomicU64>) {
        lock(&self.slots).retain(|s| !Arc::ptr_eq(s, slot));
    }

    /// Number of registered reader slots (diagnostics).
    pub fn slots_len(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Enters a read-side critical section: publishes the entry epoch
    /// in `slot`, then loads the current value, retrying if a
    /// publication raced in between. Lock-free, and wait-free in
    /// practice (a retry requires a concurrent publish). The guard
    /// clears the slot on drop.
    #[inline]
    pub fn enter<'a>(&'a self, slot: &'a AtomicU64) -> ReadGuard<'a, T> {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            // The SeqCst announce is the required StoreLoad barrier:
            // the writer must observe our slot before we observe (and
            // start using) a generation it may retire. The ordering is
            // routed through `vsync` so the mutation test can weaken it
            // to Relaxed and prove the model checker catches the
            // resulting early reclaim.
            slot.store(e, vsync::rcu_publication_order());
            let p = self.cur.load(Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                return ReadGuard { node: p, slot };
            }
            // A publish completed mid-entry; re-announce and reload.
        }
    }

    /// Publishes a new value, retiring the old one. Returns the number
    /// of retired values reclaimed as a side effect.
    pub fn publish(&self, value: T) -> u64 {
        let p = Box::into_raw(Node::boxed(value));
        let old = self.cur.swap(p, Ordering::SeqCst);
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut r = lock(&self.retired);
            r.push((e, old));
            self.retired_len.store(r.len(), Ordering::SeqCst);
        }
        self.reclaim()
    }

    /// Frees every retired value whose retire epoch is at or below all
    /// active reader slots. Writer-side; never blocks readers. Returns
    /// the number freed.
    pub fn reclaim(&self) -> u64 {
        // Any reader that enters after this scan starts sees an epoch
        // >= every already-retired entry's epoch (the bump happens
        // before the entry is pushed), so scanning slots first is safe.
        // Entries retired after this point wait for a later scan: a reader
        // can enter, and its generation retire, between the slot scan and
        // the retire-list lock, and "nobody active" predates that reader.
        let horizon = self.epoch.load(Ordering::SeqCst);
        let min_active = lock(&self.slots)
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|&v| v != 0)
            .min();
        let mut r = lock(&self.retired);
        let mut freed = 0u64;
        r.retain(|&(e, p)| {
            let quiet = e <= horizon
                && match min_active {
                    None => true,
                    Some(m) => m >= e,
                };
            if quiet {
                // SAFETY: no active reader entered before epoch `e`, so
                // none can still hold this pointer; it is removed from
                // the list here, so it is disposed exactly once.
                unsafe { dispose(p) };
                freed += 1;
            }
            !quiet
        });
        self.retired_len.store(r.len(), Ordering::SeqCst);
        freed
    }

    /// Number of retired-but-not-yet-reclaimed values (cheap mirror,
    /// no lock).
    pub fn retired_len(&self) -> usize {
        self.retired_len.load(Ordering::SeqCst)
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

impl<T: Send + Sync + 'static> Drop for Rcu<T> {
    fn drop(&mut self) {
        // No readers can exist here: `drop` has exclusive access.
        for (_, p) in lock(&self.retired).drain(..) {
            // SAFETY: exclusive access; each retired node disposed
            // exactly once.
            unsafe { dispose(p) };
        }
        let cur = self.cur.load(Ordering::SeqCst);
        // SAFETY: as above; `cur` is never on the retire list.
        unsafe { dispose(cur) };
    }
}

impl<T: Send + Sync + 'static> std::fmt::Debug for Rcu<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rcu")
            .field("epoch", &self.epoch)
            .field("retired_len", &self.retired_len)
            .finish_non_exhaustive()
    }
}

/// Frees (or, under an active model execution, canaries-and-defers) a
/// reclaimed node.
///
/// # Safety
/// `p` must come from `Box::into_raw(Node::boxed(..))` and be disposed
/// exactly once, with no reader able to reach it per the epoch
/// argument in [`Rcu::reclaim`].
unsafe fn dispose<T: Send + Sync + 'static>(p: *mut Node<T>) {
    // SAFETY: per the contract above.
    let b = unsafe { Box::from_raw(p) };
    #[cfg(feature = "mcheck")]
    {
        if crate::vsync::model::is_managed() {
            // Don't actually free: mark the canary and park the box in
            // the execution's graveyard, so a reader that reaches this
            // node after reclaim trips a deterministic assertion
            // (replayable schedule) instead of UB.
            b.freed.store(true, std::sync::atomic::Ordering::SeqCst);
            crate::vsync::model::defer_drop(b);
            return;
        }
    }
    drop(b);
}

/// Read-side guard from [`Rcu::enter`]: derefs to the entered value,
/// clears the reader's slot on drop.
pub struct ReadGuard<'a, T> {
    node: *mut Node<T>,
    slot: &'a AtomicU64,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        #[cfg(feature = "mcheck")]
        {
            if crate::vsync::model::is_managed() {
                // SAFETY: under a model execution reclaimed nodes are
                // graveyard-parked, so the allocation is live even if
                // the protocol is broken; the canary then reports it.
                let node = unsafe { &*self.node };
                assert!(
                    !node.freed.load(std::sync::atomic::Ordering::SeqCst),
                    "RCU use-after-retire: reader dereferenced a reclaimed generation"
                );
                return &node.value;
            }
        }
        // SAFETY: the epoch protocol keeps the node alive while any
        // reader that entered before its retirement holds a guard.
        unsafe { &(*self.node).value }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        // Leaving the read-side critical section: quiesce the slot.
        self.slot.store(0, Ordering::Release);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reclaims_when_quiescent() {
        let rcu: Rcu<u64> = Rcu::new(1);
        assert_eq!(rcu.epoch(), 1);
        // No readers: each publish frees the predecessor immediately.
        assert_eq!(rcu.publish(2), 1);
        assert_eq!(rcu.publish(3), 1);
        assert_eq!(rcu.retired_len(), 0);
        let slot = rcu.register_slot();
        assert_eq!(*rcu.enter(&slot), 3);
        rcu.unregister_slot(&slot);
        assert_eq!(rcu.slots_len(), 0);
    }

    #[test]
    fn active_reader_defers_reclaim() {
        let rcu: Rcu<u64> = Rcu::new(10);
        let slot = rcu.register_slot();
        let g = rcu.enter(&slot);
        assert_eq!(*g, 10);
        // Reader active at epoch 1: the old generation must survive.
        assert_eq!(rcu.publish(20), 0);
        assert_eq!(rcu.retired_len(), 1);
        assert_eq!(*g, 10, "reader keeps its snapshot across a publish");
        drop(g);
        // Quiescent now: the next probe frees it.
        assert_eq!(rcu.reclaim(), 1);
        assert_eq!(rcu.retired_len(), 0);
        let g = rcu.enter(&slot);
        assert_eq!(*g, 20);
    }

    #[test]
    fn guard_drop_quiesces_slot() {
        let rcu: Rcu<&'static str> = Rcu::new("a");
        let slot = rcu.register_slot();
        {
            let _g = rcu.enter(&slot);
            assert_ne!(slot.load(Ordering::SeqCst), 0);
        }
        assert_eq!(slot.load(Ordering::SeqCst), 0);
    }
}
