//! # Live-updatable packet classification (`DpfService`)
//!
//! The paper's DPF compiles filters *at install time*, while traffic is
//! running (§4.2). [`crate::Dpf`] is stop-the-world: every insert or
//! remove invalidates the compiled set and classification degrades to
//! the interpreter until the owner recompiles. `DpfService` closes that
//! gap with an RCU-style hot swap:
//!
//! - **Readers never lock.** Each [`DpfReader`] owns a registered epoch
//!   slot; entering a classification (or a whole
//!   [`classify_batch`](DpfReader::classify_batch)) is two atomic
//!   stores and two loads — no mutex, no reference-count contention on
//!   the generation itself.
//! - **Writers publish generations.** `insert`/`remove` build an
//!   immutable [`Generation`] for the *new* filter set and swap it in
//!   with a single pointer store. The native build is handed to the
//!   process-wide classifier stack's compile service; for the delta
//!   window between publication and the build landing, the generation
//!   classifies with an [`Mpf`] interpreter over the same filters —
//!   correct ids, never a stale match, never a panic, never a stall.
//! - **Reclamation is epoch-deferred.** A replaced generation is freed
//!   (and its [`CodePin`] on the compiled mapping released) only once
//!   every active reader entered at or after the retire epoch — a
//!   reader mid-batch on the old code keeps it mapped and executable.
//!
//! Semantic caveat, inherited from the degradation ladder: the compiled
//! trie resolves overlapping filters by longest match, the interpreter
//! by first match. Disjoint filter sets (the common demultiplexing
//! case) classify identically in and out of the delta window.
//!
//! ```
//! use dpf::packet::{self, PacketSpec};
//! use dpf::DpfService;
//! use std::time::Duration;
//!
//! let svc = DpfService::new();
//! let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80)?);
//! let reader = svc.reader();           // clone one per thread
//! let msg = packet::build(&PacketSpec { dst_port: 80, ..PacketSpec::default() });
//! // Classification is live immediately (interpreter delta window),
//! // and upgrades in place once the background build publishes.
//! assert_eq!(reader.classify(&msg), Some(id));
//! svc.flush(Duration::from_secs(5));
//! assert_eq!(reader.classify(&msg), Some(id));
//! assert!(svc.is_native());
//! # Ok::<(), dpf::FilterError>(())
//! ```

use crate::compile::CompiledSet;
use crate::lang::Filter;
use crate::mpf::Mpf;
use crate::{cache_key, set_miss, stack, Options};
use std::cell::Cell;
use std::marker::PhantomData;
// Synchronization via vcode's `vsync` facade, and the epoch-RCU cell
// via the generic `vcode::rcu::Rcu` it was extracted into — both so the
// `mcheck` model checker can explore this module's reader/writer
// interleavings (no raw `std::sync` here; see DESIGN.md "Model-checked
// concurrency").
use vcode::rcu::Rcu;
use vcode::vsync::{
    self, Arc, AtomicBool, AtomicU64, Duration, Instant, Mutex, MutexGuard, Ordering,
};
use vcode::{CacheKey, QuarantineInfo};
use vcode_x64::CodePin;

/// One published classifier generation: an immutable snapshot serving
/// exactly one filter set. Readers obtain it through the RCU cell and
/// never observe a partially built one.
struct Generation {
    /// Filter-set sequence this generation serves (bumped per
    /// insert/remove, not per publication — a delta-window generation
    /// and its native upgrade share a `seq`).
    seq: u64,
    /// The compiled classifier, once the build has landed.
    native: Option<Arc<CompiledSet>>,
    /// Liveness pin on the compiled mapping: released only when this
    /// generation is reclaimed, i.e. after its last reader epoch
    /// retires — a reader mid-batch keeps the old code executable even
    /// if the cache evicts and drops the `CompiledSet` meanwhile.
    _pin: Option<CodePin>,
    /// Interpreter over the same filters (same ids): the delta-window
    /// engine while the native build is in flight, and the permanent
    /// backstop if codegen fails or quarantines.
    mpf: Mpf,
}

impl Generation {
    #[inline]
    fn classify(&self, msg: &[u8], degraded_calls: &AtomicU64) -> Option<u32> {
        match self.native.as_ref() {
            Some(set) => set.classify(msg),
            None => {
                degraded_calls.fetch_add(1, Ordering::Relaxed);
                self.mpf.classify(msg)
            }
        }
    }
}

// The epoch-based RCU cell that used to live here is now the generic
// `vcode::rcu::Rcu<T>` (shared with the `mcheck` model programs, which
// exhaustively explore its reader/writer interleavings and assert no
// use-after-retire). `Generation` is the `T` for this service.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Writer-side state, guarded by one mutex: the authoritative filter
/// list and the in-flight native build, if any.
struct Writer {
    filters: Vec<(u32, Filter)>,
    next_id: u32,
    opts: Options,
    /// Filter-set sequence (bumped per insert/remove).
    seq: u64,
    /// Cache key of the native build for the *current* set, still
    /// unpublished.
    pending: Option<CacheKey>,
}

struct Shared {
    rcu: Rcu<Generation>,
    writer: Mutex<Writer>,
    /// Mirror of `writer.pending.is_some()`, readable without the lock:
    /// readers use it to decide whether polling could upgrade anything.
    pending: AtomicBool,
    /// The current generation serves native code.
    native: AtomicBool,
    /// The current generation's filter-set sequence.
    seq: AtomicU64,
    // -- counters, this service's own (`DpfService::stats`) --
    published: AtomicU64,
    native_publishes: AtomicU64,
    degraded_publishes: AtomicU64,
    upgrades: AtomicU64,
    retired: AtomicU64,
    degraded_calls: AtomicU64,
}

impl Shared {
    /// Publishes a generation for the writer's current filter set.
    fn publish_generation(&self, w: &Writer, native: Option<Arc<CompiledSet>>) {
        let mut mpf = Mpf::new();
        for (id, f) in &w.filters {
            mpf.insert_as(*id, f);
        }
        let pin = native.as_ref().map(|s| s.pin());
        let is_native = native.is_some();
        let freed = self.rcu.publish(Generation {
            seq: w.seq,
            native,
            _pin: pin,
            mpf,
        });
        self.seq.store(w.seq, Ordering::SeqCst);
        self.native.store(is_native, Ordering::SeqCst);
        self.published.fetch_add(1, Ordering::Relaxed);
        if is_native {
            self.native_publishes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.degraded_publishes.fetch_add(1, Ordering::Relaxed);
        }
        self.note_freed(freed);
    }

    fn note_freed(&self, freed: u64) {
        if freed > 0 {
            self.retired.fetch_add(freed, Ordering::Relaxed);
        }
    }

    /// Submits the native build for the writer's current set to the
    /// process-wide compile service; publishes immediately when the
    /// result is already at hand.
    fn submit_build(&self, w: &mut Writer, key: CacheKey) {
        let miss = set_miss(w.filters.clone(), w.opts);
        match stack().submit(&key, miss).served() {
            Ok(set) => {
                self.publish_generation(w, Some(set));
                w.pending = None;
                self.pending.store(false, Ordering::SeqCst);
            }
            // Building: the poll path publishes on completion.
            // Shed/Quarantined: nothing enqueued now; the poll path
            // keeps re-offering the key (quarantine backoff applies),
            // so an update storm degrades to the interpreter instead of
            // wedging the service.
            Err(_) => {
                w.pending = Some(key);
                self.pending.store(true, Ordering::SeqCst);
            }
        }
    }

    /// The writer-locked half of a filter mutation: publish an
    /// interpreter generation for the new set *first* (correctness is
    /// immediate), then chase the native build.
    fn republish(&self, w: &mut Writer) {
        w.seq += 1;
        w.pending = None;
        self.pending.store(false, Ordering::SeqCst);
        let key = cache_key(&w.filters, w.opts);
        // Warm key — the same filter set compiled before, process-wide
        // (L1) or in a previous process with a persistent tier (L2) —
        // publishes native directly: no interpreter window at all.
        if let Some(set) = stack().poll(&key) {
            self.publish_generation(w, Some(set));
            return;
        }
        self.publish_generation(w, None);
        self.submit_build(w, key);
    }

    /// Adopts a finished native build for the current set, if any.
    /// Requires the writer lock; returns whether the current generation
    /// is native afterwards.
    fn poll_locked(&self, w: &mut Writer) -> bool {
        let Some(key) = w.pending.clone() else {
            self.pending.store(false, Ordering::SeqCst);
            return self.native.load(Ordering::SeqCst);
        };
        if let Some(set) = stack().poll(&key) {
            self.publish_generation(w, Some(set));
            self.upgrades.fetch_add(1, Ordering::Relaxed);
            w.pending = None;
            self.pending.store(false, Ordering::SeqCst);
            return true;
        }
        // Keep the build moving: re-offering the key re-admits a shed
        // build and probes an expired quarantine; an in-flight build
        // returns cheaply.
        self.submit_build(w, key);
        self.native.load(Ordering::SeqCst)
    }

    /// Best-effort maintenance from the read side: adopt a finished
    /// build and reclaim retired generations, but never block — all
    /// locks are `try_lock`.
    fn opportunistic_poll(&self) {
        if self.pending.load(Ordering::Relaxed) {
            if let Ok(mut w) = self.writer.try_lock() {
                self.poll_locked(&mut w);
            }
        }
        if self.rcu.retired_len() > 0 {
            let freed = self.rcu.reclaim();
            self.note_freed(freed);
        }
    }
}

/// Counter snapshot of a [`DpfService`] (see
/// [`stats`](DpfService::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceSnapshot {
    /// Generations published (every hot swap).
    pub published: u64,
    /// Publications that served native code immediately.
    pub native_publishes: u64,
    /// Publications that opened an interpreter delta window.
    pub degraded_publishes: u64,
    /// Delta windows closed by a background build landing.
    pub upgrades: u64,
    /// Retired generations reclaimed (their code pins released).
    pub retired: u64,
    /// Classifications served by the interpreter (delta windows).
    pub degraded_calls: u64,
    /// Retired generations still waiting on a reader epoch.
    pub retired_backlog: u64,
    /// A native build for the current set is still outstanding.
    pub pending: bool,
    /// The current generation serves native code.
    pub native: bool,
    /// The current generation's filter-set sequence.
    pub seq: u64,
    /// Registered readers.
    pub readers: u64,
}

/// A live-updatable, batch-classifying packet-filter service: the
/// RCU-style hot-swap layer over [`crate::Dpf`]'s compiler. See the
/// [module docs](self) for the protocol.
///
/// `DpfService` is `Send + Sync`; share it behind an `Arc` (or plain
/// references) and give each classification thread its own
/// [`DpfReader`].
pub struct DpfService {
    shared: Arc<Shared>,
}

impl Default for DpfService {
    fn default() -> DpfService {
        DpfService::new()
    }
}

impl std::fmt::Debug for DpfService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpfService")
            .field("stats", &self.stats())
            .finish()
    }
}

impl DpfService {
    /// Creates an empty service with default compilation options. The
    /// initial generation classifies everything as `None` (no filters).
    pub fn new() -> DpfService {
        DpfService::with_options(Options::default())
    }

    /// Creates an empty service with explicit dispatch-strategy options
    /// (the ablation and fault-injection knobs — a deliberately tiny
    /// `code_capacity` forces every native build to fail, pinning the
    /// service to its interpreter generations).
    pub fn with_options(opts: Options) -> DpfService {
        let shared = Shared {
            rcu: Rcu::new(Generation {
                seq: 0,
                native: None,
                _pin: None,
                mpf: Mpf::new(),
            }),
            writer: Mutex::new(Writer {
                filters: Vec::new(),
                next_id: 0,
                opts,
                seq: 0,
                pending: None,
            }),
            pending: AtomicBool::new(false),
            native: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            published: AtomicU64::new(0),
            native_publishes: AtomicU64::new(0),
            degraded_publishes: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            degraded_calls: AtomicU64::new(0),
        };
        DpfService {
            shared: Arc::new(shared),
        }
    }

    /// Installs a filter and publishes a generation for the new set
    /// before returning: subsequent classifications (on any reader)
    /// already see it. The native build proceeds in the background;
    /// until it lands the new generation classifies with the
    /// interpreter.
    pub fn insert(&self, f: Filter) -> u32 {
        let mut w = lock(&self.shared.writer);
        let id = w.next_id;
        w.next_id += 1;
        w.filters.push((id, f));
        self.shared.republish(&mut w);
        id
    }

    /// Removes a filter and publishes a generation without it before
    /// returning: once this returns, no reader classification started
    /// afterwards can return `id` (no stale positives — the guarantee
    /// the plain [`crate::Dpf`] only regains at its next compile).
    pub fn remove(&self, id: u32) -> bool {
        let mut w = lock(&self.shared.writer);
        let n = w.filters.len();
        w.filters.retain(|(i, _)| *i != id);
        if w.filters.len() == n {
            return false;
        }
        self.shared.republish(&mut w);
        true
    }

    /// Number of resident filters.
    pub fn len(&self) -> usize {
        lock(&self.shared.writer).filters.len()
    }

    /// `true` when no filters are installed.
    pub fn is_empty(&self) -> bool {
        lock(&self.shared.writer).filters.is_empty()
    }

    /// Registers a reader. One per classification thread; cloning a
    /// reader registers a fresh epoch slot.
    pub fn reader(&self) -> DpfReader {
        let slot = self.shared.rcu.register_slot();
        DpfReader {
            shared: Arc::clone(&self.shared),
            slot,
            _not_sync: PhantomData,
        }
    }

    /// Convenience single classification (registers a transient
    /// reader). Hot paths should hold a [`DpfReader`] instead.
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        self.reader().classify(msg)
    }

    /// Convenience batch classification (transient reader); see
    /// [`DpfReader::classify_batch`].
    pub fn classify_batch(&self, msgs: &[&[u8]]) -> Vec<Option<u32>> {
        self.reader().classify_batch(msgs)
    }

    /// Adopts the native build for the current filter set if it has
    /// published, and reclaims retired generations. Returns whether the
    /// current generation is native *after* the call. Never blocks on
    /// readers; cheap enough to poll per batch.
    pub fn poll_upgrade(&self) -> bool {
        let native = {
            let mut w = lock(&self.shared.writer);
            self.shared.poll_locked(&mut w)
        };
        let freed = self.shared.rcu.reclaim();
        self.shared.note_freed(freed);
        native
    }

    /// Waits (bounded) until no native build is outstanding for the
    /// current filter set, polling the upgrade path. Returns whether
    /// the current generation is native. A quarantined build (forced
    /// codegen failure) stays outstanding, so this returns `false` at
    /// the deadline — classification keeps working on the interpreter
    /// generations throughout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let native = self.poll_upgrade();
            if !self.shared.pending.load(Ordering::SeqCst) {
                return native;
            }
            if Instant::now() >= deadline {
                return native;
            }
            vsync::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The current generation's filter-set sequence (bumped on every
    /// insert/remove that changed the set).
    pub fn generation(&self) -> u64 {
        self.shared.seq.load(Ordering::SeqCst)
    }

    /// Whether the current generation serves compiled native code.
    pub fn is_native(&self) -> bool {
        self.shared.native.load(Ordering::SeqCst)
    }

    /// Typed quarantine state of the native build for the current
    /// filter set, if the process-wide compile service has one.
    pub fn quarantine(&self) -> Option<QuarantineInfo> {
        let key = {
            let w = lock(&self.shared.writer);
            w.pending
                .clone()
                .unwrap_or_else(|| cache_key(&w.filters, w.opts))
        };
        stack().service().quarantine(&key)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceSnapshot {
        let s = &*self.shared;
        ServiceSnapshot {
            published: s.published.load(Ordering::Relaxed),
            native_publishes: s.native_publishes.load(Ordering::Relaxed),
            degraded_publishes: s.degraded_publishes.load(Ordering::Relaxed),
            upgrades: s.upgrades.load(Ordering::Relaxed),
            retired: s.retired.load(Ordering::Relaxed),
            degraded_calls: s.degraded_calls.load(Ordering::Relaxed),
            retired_backlog: s.rcu.retired_len() as u64,
            pending: s.pending.load(Ordering::SeqCst),
            native: s.native.load(Ordering::SeqCst),
            seq: s.seq.load(Ordering::SeqCst),
            readers: s.rcu.slots_len() as u64,
        }
    }
}

/// A per-thread read handle on a [`DpfService`].
///
/// `Send` but not `Sync`: move one into each classification thread (or
/// [`Clone`] it — a clone registers its own epoch slot). Dropping a
/// reader unregisters it, so an idle pool never delays reclamation.
pub struct DpfReader {
    shared: Arc<Shared>,
    slot: Arc<AtomicU64>,
    /// The epoch-slot protocol allows one concurrent user per slot:
    /// `Cell` makes this handle `!Sync` while staying `Send`.
    _not_sync: PhantomData<Cell<()>>,
}

impl std::fmt::Debug for DpfReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpfReader")
            .field("slot", &self.slot.load(Ordering::Relaxed))
            .finish()
    }
}

impl DpfReader {
    /// Classifies one message against the current generation: native
    /// code when published, the delta-window interpreter otherwise.
    /// Lock-free; never panics.
    #[inline]
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        // The guard's epoch announcement keeps the generation from
        // being reclaimed until it drops.
        let g = self.shared.rcu.enter(&self.slot);
        g.classify(msg, &self.shared.degraded_calls)
    }

    /// Classifies a batch of messages in one read-side critical
    /// section, amortizing entry/exit and the engine dispatch across
    /// the whole slice. Every message in the batch is classified by the
    /// *same* generation (no torn batches). Also opportunistically
    /// adopts a finished native build first (never blocking).
    pub fn classify_batch(&self, msgs: &[&[u8]]) -> Vec<Option<u32>> {
        self.classify_batch_seq(msgs).1
    }

    /// Like [`classify_batch`](Self::classify_batch), also reporting
    /// the filter-set sequence of the generation that served the batch
    /// — the stress tests use it to prove batches are never torn across
    /// a swap.
    pub fn classify_batch_seq(&self, msgs: &[&[u8]]) -> (u64, Vec<Option<u32>>) {
        self.shared.opportunistic_poll();
        let mut out = Vec::with_capacity(msgs.len());
        let g = self.shared.rcu.enter(&self.slot);
        let seq = g.seq;
        match g.native.as_ref() {
            Some(set) => out.extend(msgs.iter().map(|m| set.classify(m))),
            None => {
                self.shared
                    .degraded_calls
                    .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                out.extend(msgs.iter().map(|m| g.mpf.classify(m)));
            }
        }
        drop(g);
        (seq, out)
    }

    /// The filter-set sequence of the generation the *next*
    /// classification will observe (or a later one).
    pub fn generation(&self) -> u64 {
        self.shared.seq.load(Ordering::SeqCst)
    }
}

impl Clone for DpfReader {
    fn clone(&self) -> DpfReader {
        DpfReader {
            shared: Arc::clone(&self.shared),
            slot: self.shared.rcu.register_slot(),
            _not_sync: PhantomData,
        }
    }
}

impl Drop for DpfReader {
    fn drop(&mut self) {
        self.shared.rcu.unregister_slot(&self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{self, PacketSpec};

    fn port_msg(port: u16) -> Vec<u8> {
        packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        })
    }

    #[test]
    fn serves_immediately_and_upgrades() {
        let svc = DpfService::new();
        let reader = svc.reader();
        assert_eq!(reader.classify(&port_msg(1000)), None);
        let ids: Vec<u32> = packet::port_filter_set(8, 1000)
            .into_iter()
            .map(|f| svc.insert(f))
            .collect();
        // Live before any build lands.
        assert_eq!(reader.classify(&port_msg(1003)), Some(ids[3]));
        assert!(svc.flush(Duration::from_secs(10)), "build never landed");
        assert!(svc.is_native());
        assert_eq!(reader.classify(&port_msg(1003)), Some(ids[3]));
        assert_eq!(reader.classify(&port_msg(2000)), None);
        let st = svc.stats();
        assert!(st.published >= 8, "one publication per mutation");
        assert_eq!(st.seq, 8);
    }

    #[test]
    fn remove_is_immediate_no_stale_positive() {
        let svc = DpfService::new();
        let reader = svc.reader();
        let a = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80).unwrap());
        let b = svc.insert(packet::tcp_port_filter(0x0a00_0002, 81).unwrap());
        svc.flush(Duration::from_secs(10));
        assert_eq!(reader.classify(&port_msg(80)), Some(a));
        assert!(svc.remove(a));
        // No recompile, no flush: the removed id must already be gone.
        assert_eq!(reader.classify(&port_msg(80)), None);
        assert_eq!(reader.classify(&port_msg(81)), Some(b));
        assert!(!svc.remove(a), "double remove");
    }

    #[test]
    fn batch_matches_single_and_is_untorn() {
        let svc = DpfService::new();
        let ids: Vec<u32> = packet::port_filter_set(16, 7000)
            .into_iter()
            .map(|f| svc.insert(f))
            .collect();
        svc.flush(Duration::from_secs(10));
        let reader = svc.reader();
        let msgs: Vec<Vec<u8>> = (0..32).map(|i| port_msg(7000 + (i % 20))).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batch = reader.classify_batch(&refs);
        for (m, got) in refs.iter().zip(&batch) {
            assert_eq!(*got, reader.classify(m));
        }
        assert_eq!(batch[3], Some(ids[3]));
        assert_eq!(batch[16], None, "port 7016 unfiltered");
    }

    #[test]
    fn reclaim_drains_after_readers_leave() {
        let svc = DpfService::new();
        let reader = svc.reader();
        for f in packet::port_filter_set(6, 3000) {
            svc.insert(f);
        }
        svc.flush(Duration::from_secs(10));
        // All mutations and their upgrades have retired; a quiescent
        // reader must not hold them back.
        svc.poll_upgrade();
        assert_eq!(svc.stats().retired_backlog, 0);
        drop(reader);
        assert_eq!(svc.stats().readers, 0);
    }

    #[test]
    fn a_batch_never_waits_for_the_writer_lock() {
        // "Readers never lock": with a writer stopped mid-update (its
        // lock held for the whole of this test) and a native build
        // outstanding, a batch still classifies — the read side's
        // maintenance only ever `try_lock`s. A blocking acquire costs a
        // few percent of throughput, under what the `dpf_service` bench
        // can see, so it is pinned here, where it is a hang.
        let svc = DpfService::with_options(Options {
            code_capacity: Some(16), // never builds: `pending` stays set
            ..Options::default()
        });
        let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80).unwrap());
        assert!(svc.stats().pending);
        let reader = svc.reader();
        let msg = port_msg(80);
        let mid_update = lock(&svc.shared.writer);
        std::thread::scope(|s| {
            let batch = s.spawn(move || reader.classify_batch(&[&msg]));
            let t0 = Instant::now();
            while !batch.is_finished() && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let returned_under_the_lock = batch.is_finished();
            drop(mid_update);
            assert_eq!(batch.join().unwrap(), vec![Some(id)]);
            assert!(
                returned_under_the_lock,
                "classify_batch waited for the writer"
            );
        });
    }

    #[test]
    fn a_herd_on_one_filter_set_shares_one_compiled_set() {
        // Many services racing the same filter set through the compile
        // service: every one classifies immediately, and they all end up
        // serving a single compiled classifier.
        let filters = packet::port_filter_set(4, 7600);
        let probe = port_msg(7602);
        let herd: Vec<DpfService> = (0..8)
            .map(|_| {
                let svc = DpfService::new();
                for f in &filters {
                    svc.insert(f.clone());
                }
                svc
            })
            .collect();
        for (k, svc) in herd.iter().enumerate() {
            assert_eq!(
                svc.classify(&probe),
                Some(2),
                "service {k} serves immediately"
            );
        }
        let sets: Vec<Arc<CompiledSet>> = herd
            .iter()
            .map(|svc| {
                assert!(svc.flush(Duration::from_secs(30)), "no upgrade");
                assert_eq!(svc.classify(&probe), Some(2));
                let reader = svc.reader();
                let g = svc.shared.rcu.enter(&reader.slot);
                Arc::clone(g.native.as_ref().expect("flushed native"))
            })
            .collect();
        for w in sets.windows(2) {
            assert!(
                Arc::ptr_eq(&w[0], &w[1]),
                "the herd must share one compiled set"
            );
        }
    }

    #[test]
    fn forced_codegen_failure_pins_interpreter_service() {
        let svc = DpfService::with_options(Options {
            code_capacity: Some(16), // hopeless: every build fails
            ..Options::default()
        });
        let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 90).unwrap());
        let reader = svc.reader();
        assert_eq!(reader.classify(&port_msg(90)), Some(id));
        assert!(!svc.flush(Duration::from_millis(300)));
        assert!(!svc.is_native());
        // Still serving, still correct, typed quarantine observable.
        assert_eq!(reader.classify(&port_msg(90)), Some(id));
        let st = svc.stats();
        assert!(st.degraded_calls >= 2);
        assert!(st.pending, "failed build stays outstanding");
    }
}
