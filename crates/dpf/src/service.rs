//! # Live-updatable packet classification (`DpfService`)
//!
//! The paper's DPF compiles filters *at install time*, while traffic is
//! running (§4.2). `DpfService` does that with an RCU-style hot swap:
//!
//! - **Readers never lock.** Each [`DpfReader`] owns a registered epoch
//!   slot; entering a classification (or a whole
//!   [`classify_batch`](DpfReader::classify_batch)) is two atomic
//!   stores and two loads — no mutex, no reference-count contention on
//!   the generation itself.
//! - **Writers build, then publish once.** `insert`/`remove` compile the
//!   *new* filter set on the calling (control-plane) thread, through the
//!   process-wide classifier stack, and swap the finished immutable
//!   `Generation` in with a single pointer store;
//!   [`insert_all`](DpfService::insert_all) does so once for a whole
//!   batch. Readers keep the previous native generation until the
//!   swap: a build costs tens of
//!   microseconds, less than waking a worker to do it (DESIGN.md "Live
//!   classifier updates"), and is paid once, by the thread that asked.
//! - **A failed build degrades, never lies.** If the native build of
//!   the new set fails, the generation published for it interprets the
//!   merged trie the native code is compiled from (PATHFINDER's walk:
//!   the same ids and the same longest-match answers, only slower) and
//!   the service keeps a typed [`BuildFailure`];
//!   [`poll_upgrade`](DpfService::poll_upgrade) retries no sooner than
//!   its backoff, and the next mutation supersedes it.
//! - **Reclamation is epoch-deferred.** A replaced generation is freed
//!   (and its `Arc` on the compiled set dropped) only once every active
//!   reader entered at or after the retire epoch — a reader mid-batch on
//!   the old code keeps it mapped and executable.
//!
//! ```
//! use dpf::packet::{self, PacketSpec};
//! use dpf::DpfService;
//!
//! let svc = DpfService::new();
//! let reader = svc.reader();           // clone one per thread
//! let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80)?);
//! // The insert compiled the new set before it returned.
//! assert!(svc.is_native());
//! let msg = packet::build(&PacketSpec { dst_port: 80, ..PacketSpec::default() });
//! assert_eq!(reader.classify(&msg), Some(id));
//! # Ok::<(), dpf::FilterError>(())
//! ```

use crate::compile::{CompileError, CompiledSet};
use crate::lang::Filter;
use crate::trie::{self, Level};
use crate::{build_set, Options};
use std::cell::Cell;
use std::marker::PhantomData;
// Synchronization via vcode's `vsync` facade, and the epoch-RCU cell
// via the generic `vcode::rcu::Rcu` it was extracted into — both so the
// `mcheck` model checker can explore this module's reader/writer
// interleavings (no raw `std::sync` here; see DESIGN.md "Model-checked
// concurrency").
use vcode::rcu::Rcu;
use vcode::vsync::{Arc, AtomicBool, AtomicU64, Duration, Instant, Mutex, MutexGuard, Ordering};
use vcode::CacheError;

/// First-failure retry backoff of a failed native build; doubles per
/// consecutive failure on the same set, up to [`RETRY_CAP`].
const RETRY_BASE: Duration = Duration::from_millis(100);
/// Backoff ceiling.
const RETRY_CAP: Duration = Duration::from_secs(5);

/// What a generation classifies with.
enum Classifier {
    /// The compiled classifier. The `Arc` is dropped only when the
    /// generation is reclaimed, i.e. after its last reader epoch retires
    /// — a reader mid-batch keeps the old code executable even if the
    /// cache evicts its own `Arc` to the set meanwhile.
    Native(Arc<CompiledSet>),
    /// The merged trie of the same filters, interpreted: the set's
    /// native build failed (or the set is the empty one a service
    /// starts with).
    Interpreter(Level),
}

impl Classifier {
    fn interpreter(filters: &[(u32, Filter)]) -> Classifier {
        Classifier::Interpreter(trie::build(filters))
    }
}

/// One published classifier generation: an immutable snapshot serving
/// exactly one filter set. Readers obtain it through the RCU cell and
/// never observe a partially built one.
struct Generation {
    /// Filter-set sequence this generation serves (bumped per
    /// insert/remove; an interpreter generation and the native one a
    /// retry heals it with share a `seq`).
    seq: u64,
    classifier: Classifier,
}

// The epoch-based RCU cell that used to live here is now the generic
// `vcode::rcu::Rcu<T>` (shared with the `mcheck` model programs, which
// exhaustively explore its reader/writer interleavings and assert no
// use-after-retire). `Generation` is the `T` for this service.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Why the current generation is interpreted: the native build of the
/// current filter set failed (see
/// [`build_failure`](DpfService::build_failure)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildFailure {
    /// Consecutive failed builds of this filter set.
    pub failures: u32,
    /// `Display` form of the most recent failure.
    pub last_error: String,
    /// Time until [`poll_upgrade`](DpfService::poll_upgrade) retries
    /// (zero if due).
    pub retry_in: Duration,
}

impl BuildFailure {
    /// The record after one more failed build (`prior` before it), and
    /// when its backoff runs out.
    fn after(prior: u32, error: &CacheError<CompileError>) -> (BuildFailure, Instant) {
        let failures = prior.saturating_add(1);
        let retry_in = RETRY_BASE
            .saturating_mul(1 << (failures - 1).min(16))
            .min(RETRY_CAP);
        let last_error = error.to_string();
        let record = BuildFailure {
            failures,
            last_error,
            retry_in,
        };
        (record, Instant::now() + retry_in)
    }
}

/// Writer-side state, guarded by one mutex: the authoritative filter
/// list and, if its native build failed, the record and retry time.
struct Writer {
    filters: Vec<(u32, Filter)>,
    next_id: u32,
    opts: Options,
    /// Filter-set sequence (bumped per insert/remove).
    seq: u64,
    failure: Option<(BuildFailure, Instant)>,
}

struct Shared {
    rcu: Rcu<Generation>,
    writer: Mutex<Writer>,
    /// The current generation serves native code.
    native: AtomicBool,
    /// The current generation's filter-set sequence.
    seq: AtomicU64,
    // -- counters, this service's own (`DpfService::stats`) --
    published: AtomicU64,
    native_publishes: AtomicU64,
    degraded_publishes: AtomicU64,
    retired: AtomicU64,
    degraded_calls: AtomicU64,
}

impl Shared {
    /// Publishes a generation for the writer's current filter set.
    fn publish(&self, w: &Writer, classifier: Classifier) {
        let is_native = matches!(classifier, Classifier::Native(_));
        let freed = self.rcu.publish(Generation {
            seq: w.seq,
            classifier,
        });
        self.seq.store(w.seq, Ordering::SeqCst);
        self.native.store(is_native, Ordering::SeqCst);
        self.published.fetch_add(1, Ordering::Relaxed);
        if is_native {
            self.native_publishes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.degraded_publishes.fetch_add(1, Ordering::Relaxed);
        }
        self.retired.fetch_add(freed, Ordering::Relaxed);
    }

    /// The writer-locked half of a filter mutation: build the
    /// classifier for `filters`, then commit the list and publish, once.
    /// Nothing is committed before the build returns, so a build that
    /// unwinds leaves the list, `seq` and what readers see in agreement.
    fn install(&self, w: &mut Writer, filters: Vec<(u32, Filter)>) {
        let built = build_set(&filters, w.opts);
        w.filters = filters;
        w.seq += 1;
        match built {
            Ok(set) => {
                w.failure = None;
                self.publish(w, Classifier::Native(set));
            }
            // Degraded, never wrong: the interpreter serves the new set.
            Err(e) => {
                w.failure = Some(BuildFailure::after(0, &e));
                self.publish(w, Classifier::interpreter(&w.filters));
            }
        }
    }

    fn reclaim(&self) {
        let freed = self.rcu.reclaim();
        // Readers call this per batch: no RMW on a shared line for nothing.
        if freed > 0 {
            self.retired.fetch_add(freed, Ordering::Relaxed);
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
    /// Publications that served native code.
    pub native_publishes: u64,
    /// Publications whose native build failed: interpreter generations.
    pub degraded_publishes: u64,
    /// Retired generations reclaimed (their compiled sets released).
    pub retired: u64,
    /// Classifications served by the interpreter.
    pub degraded_calls: u64,
    /// Retired generations still waiting on a reader epoch.
    pub retired_backlog: u64,
    /// The current generation serves native code.
    pub native: bool,
    /// The current generation's filter-set sequence.
    pub seq: u64,
    /// Registered readers.
    pub readers: u64,
}

/// A live-updatable, batch-classifying packet-filter service: the
/// compiled classifier of the resident filters behind an RCU-style hot
/// swap. See the [module docs](self) for the protocol.
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
                classifier: Classifier::interpreter(&[]),
            }),
            writer: Mutex::new(Writer {
                filters: Vec::new(),
                next_id: 0,
                opts,
                seq: 0,
                failure: None,
            }),
            native: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            published: AtomicU64::new(0),
            native_publishes: AtomicU64::new(0),
            degraded_publishes: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            degraded_calls: AtomicU64::new(0),
        };
        DpfService {
            shared: Arc::new(shared),
        }
    }

    /// Installs a filter: compiles the new set on this thread and
    /// publishes its generation before returning, so subsequent
    /// classifications (on any reader) already see it, natively. Readers
    /// are served by the previous generation meanwhile.
    pub fn insert(&self, f: Filter) -> u32 {
        self.insert_all([f])[0]
    }

    /// Installs a batch of filters under consecutive ids (in iteration
    /// order, from the next free id) with one build and one published
    /// generation for the whole batch, where an [`insert`](Self::insert)
    /// per filter costs a build each. An empty batch publishes nothing.
    pub fn insert_all(&self, filters: impl IntoIterator<Item = Filter>) -> Vec<u32> {
        let batch: Vec<Filter> = filters.into_iter().collect();
        let mut w = lock(&self.shared.writer);
        let ids: Vec<u32> = (w.next_id..).take(batch.len()).collect();
        if !ids.is_empty() {
            let mut set = w.filters.clone();
            set.extend(ids.iter().copied().zip(batch));
            self.shared.install(&mut w, set);
            w.next_id += ids.len() as u32;
        }
        ids
    }

    /// Removes a filter and publishes a generation without it before
    /// returning: once this returns, no reader classification started
    /// afterwards can return `id` (no stale positives).
    pub fn remove(&self, id: u32) -> bool {
        let mut w = lock(&self.shared.writer);
        let filters: Vec<_> = w
            .filters
            .iter()
            .filter(|(i, _)| *i != id)
            .cloned()
            .collect();
        if filters.len() == w.filters.len() {
            return false;
        }
        self.shared.install(&mut w, filters);
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

    /// Control-plane maintenance: reclaims retired generations and, if
    /// the current set's native build failed and its backoff has run
    /// out, retries it on this thread (success publishes the native
    /// generation). Returns whether the current generation is native
    /// *after* the call. Never blocks on readers; with no failure on
    /// record there is nothing to adopt — mutations publish native
    /// themselves.
    pub fn poll_upgrade(&self) -> bool {
        {
            let mut w = lock(&self.shared.writer);
            let due = w.failure.as_ref().filter(|(_, at)| Instant::now() >= *at);
            if let Some(prior) = due.map(|(f, _)| f.failures) {
                match build_set(&w.filters, w.opts) {
                    Ok(set) => {
                        w.failure = None;
                        self.shared.publish(&w, Classifier::Native(set));
                    }
                    Err(e) => w.failure = Some(BuildFailure::after(prior, &e)),
                }
            }
        }
        self.shared.reclaim();
        self.is_native()
    }

    /// [`poll_upgrade`](Self::poll_upgrade). A mutation has published
    /// its native generation by the time it returns, so there is nothing
    /// to wait for and `timeout` goes unused; kept for callers written
    /// against the background-build service.
    pub fn flush(&self, _timeout: Duration) -> bool {
        self.poll_upgrade()
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

    /// The failed native build of the current filter set, if that is
    /// why the service is on the interpreter.
    pub fn build_failure(&self) -> Option<BuildFailure> {
        let w = lock(&self.shared.writer);
        w.failure.as_ref().map(|(f, at)| BuildFailure {
            retry_in: at.saturating_duration_since(Instant::now()),
            ..f.clone()
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceSnapshot {
        let s = &*self.shared;
        ServiceSnapshot {
            published: s.published.load(Ordering::Relaxed),
            native_publishes: s.native_publishes.load(Ordering::Relaxed),
            degraded_publishes: s.degraded_publishes.load(Ordering::Relaxed),
            retired: s.retired.load(Ordering::Relaxed),
            degraded_calls: s.degraded_calls.load(Ordering::Relaxed),
            retired_backlog: s.rcu.retired_len() as u64,
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
    /// code, or the interpreter if the set's build failed. Lock-free;
    /// never panics.
    #[inline]
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        // The guard's epoch announcement keeps the generation from
        // being reclaimed until it drops.
        let g = self.shared.rcu.enter(&self.slot);
        match &g.classifier {
            Classifier::Native(set) => set.classify(msg),
            Classifier::Interpreter(trie) => {
                self.shared.degraded_calls.fetch_add(1, Ordering::Relaxed);
                trie.classify(msg, 0)
            }
        }
    }

    /// Classifies a batch of messages in one read-side critical
    /// section, amortizing entry/exit and the engine dispatch across
    /// the whole slice. Every message in the batch is classified by the
    /// *same* generation (no torn batches). Also reclaims retired
    /// generations first (best effort, never blocking).
    pub fn classify_batch(&self, msgs: &[&[u8]]) -> Vec<Option<u32>> {
        self.classify_batch_seq(msgs).1
    }

    /// Like [`classify_batch`](Self::classify_batch), also reporting
    /// the filter-set sequence of the generation that served the batch
    /// — the stress tests use it to prove batches are never torn across
    /// a swap.
    pub fn classify_batch_seq(&self, msgs: &[&[u8]]) -> (u64, Vec<Option<u32>>) {
        if self.shared.rcu.retired_len() > 0 {
            self.shared.reclaim();
        }
        let mut out = Vec::with_capacity(msgs.len());
        let g = self.shared.rcu.enter(&self.slot);
        let seq = g.seq;
        match &g.classifier {
            Classifier::Native(set) => out.extend(msgs.iter().map(|m| set.classify(m))),
            Classifier::Interpreter(trie) => {
                self.shared
                    .degraded_calls
                    .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                // A push loop, not `extend`: beside a second `extend`,
                // the native loop above spent two moves a packet on a
                // spilled length (EXPERIMENTS.md "One DPF front door").
                for m in msgs {
                    out.push(trie.classify(m, 0));
                }
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

    fn hopeless() -> Options {
        Options {
            code_capacity: Some(16), // every build overflows, retry included
            ..Options::default()
        }
    }

    #[test]
    fn an_insert_returns_native_and_publishes_once() {
        let svc = DpfService::new();
        let reader = svc.reader();
        assert_eq!(reader.classify(&port_msg(1000)), None);
        let before = svc.stats().degraded_calls;
        let ids: Vec<u32> = packet::port_filter_set(8, 1000)
            .into_iter()
            .map(|f| {
                let id = svc.insert(f);
                assert!(svc.is_native(), "insert {id} returned before its build");
                id
            })
            .collect();
        assert_eq!(reader.classify(&port_msg(1003)), Some(ids[3]));
        assert_eq!(reader.classify(&port_msg(2000)), None);
        let st = svc.stats();
        assert_eq!(st.published, 8, "one publication per mutation");
        assert_eq!((st.seq, st.native_publishes), (8, 8));
        assert_eq!(st.degraded_calls, before, "no filter set was interpreted");
        assert_eq!(svc.build_failure(), None);
    }

    #[test]
    fn remove_is_immediate_no_stale_positive() {
        let svc = DpfService::new();
        let reader = svc.reader();
        let a = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80).unwrap());
        let b = svc.insert(packet::tcp_port_filter(0x0a00_0002, 81).unwrap());
        assert_eq!(reader.classify(&port_msg(80)), Some(a));
        assert!(svc.remove(a));
        // The removed id is gone by the time `remove` returns.
        assert_eq!(reader.classify(&port_msg(80)), None);
        assert_eq!(reader.classify(&port_msg(81)), Some(b));
        assert!(!svc.remove(a), "double remove");
        assert_eq!(svc.generation(), 3, "a refused remove publishes nothing");
    }

    #[test]
    fn batch_matches_single_and_is_untorn() {
        let svc = DpfService::new();
        let ids: Vec<u32> = packet::port_filter_set(16, 7000)
            .into_iter()
            .map(|f| svc.insert(f))
            .collect();
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
        // Every replaced generation has retired; a quiescent reader
        // must not hold them back.
        svc.poll_upgrade();
        assert_eq!(svc.stats().retired_backlog, 0);
        drop(reader);
        assert_eq!(svc.stats().readers, 0);
    }

    #[test]
    fn a_batch_never_waits_for_the_writer_lock() {
        // "Readers never lock": with a writer stopped mid-build (its
        // lock held for the whole of this test) a batch still
        // classifies, on the generation published before. A blocking
        // acquire on the read side costs a few percent of throughput,
        // under what the `dpf_service` bench can see, so it is pinned
        // here, where it is a hang.
        let svc = DpfService::new();
        let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 80).unwrap());
        let reader = svc.reader();
        let msg = port_msg(80);
        let mid_build = lock(&svc.shared.writer);
        std::thread::scope(|s| {
            let batch = s.spawn(move || reader.classify_batch(&[&msg]));
            let t0 = Instant::now();
            while !batch.is_finished() && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let returned_under_the_lock = batch.is_finished();
            drop(mid_build);
            assert_eq!(batch.join().unwrap(), vec![Some(id)]);
            assert!(
                returned_under_the_lock,
                "classify_batch waited for the writer"
            );
        });
    }

    /// Serializes the tests that reason about the process-wide
    /// classifier cache: one empties it, another shares a build through
    /// it.
    static CACHE_USERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn published_code_is_kept_alive_by_its_generation() {
        let _serial = CACHE_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let svc = DpfService::new();
        let reader = svc.reader();
        let ids: Vec<u32> = packet::port_filter_set(8, 5100)
            .into_iter()
            .map(|f| svc.insert(f))
            .collect();
        // The cache lets go of the set and the pool of every parked
        // mapping: the published generation's `Arc` is what keeps the
        // code mapped.
        crate::clear_cache();
        vcode_x64::drain_pool();
        assert!(svc.is_native());
        assert_eq!(reader.classify(&port_msg(5103)), Some(ids[3]));
        assert_eq!(reader.classify(&port_msg(5108)), None);

        // A reader inside its epoch keeps the generation it entered, and
        // its code, through a superseding insert, a clear and a drain.
        let msgs: Vec<Vec<u8>> = (5100..5110).map(port_msg).collect();
        let in_flight = |c: &Classifier| match c {
            Classifier::Native(set) => msgs.iter().map(|m| set.classify(m)).collect::<Vec<_>>(),
            Classifier::Interpreter(_) => panic!("buildable set interpreted"),
        };
        let g = svc.shared.rcu.enter(&reader.slot);
        let before = in_flight(&g.classifier);
        assert_eq!(
            before[..8],
            ids.iter().map(|&id| Some(id)).collect::<Vec<_>>()
        );
        let extra = svc.insert(packet::tcp_port_filter(0x0a00_0002, 5108).unwrap());
        crate::clear_cache();
        vcode_x64::drain_pool();
        assert_eq!(in_flight(&g.classifier), before);
        drop(g);
        assert_eq!(reader.classify(&port_msg(5108)), Some(extra));
        svc.poll_upgrade();
        assert_eq!(svc.stats().retired_backlog, 0);
    }

    #[test]
    fn a_herd_on_one_filter_set_shares_one_compiled_set() {
        // Eight services racing the same cold filter set through
        // `get_or_build`: one of them builds, and they all end up
        // serving that one compiled classifier.
        let _serial = CACHE_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let filters = packet::port_filter_set(4, 7600);
        let probe = port_msg(7602);
        let start = std::sync::Barrier::new(8);
        let sets: Vec<Arc<CompiledSet>> = std::thread::scope(|s| {
            let herd: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let svc = DpfService::new();
                        start.wait();
                        for f in &filters {
                            svc.insert(f.clone());
                        }
                        assert_eq!(svc.classify(&probe), Some(2));
                        let reader = svc.reader();
                        let g = svc.shared.rcu.enter(&reader.slot);
                        match &g.classifier {
                            Classifier::Native(set) => Arc::clone(set),
                            Classifier::Interpreter(_) => panic!("buildable set interpreted"),
                        }
                    })
                })
                .collect();
            herd.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for w in sets.windows(2) {
            assert!(
                Arc::ptr_eq(&w[0], &w[1]),
                "the herd must share one compiled set"
            );
        }
    }

    #[test]
    fn forced_codegen_failure_pins_interpreter_service() {
        let svc = DpfService::with_options(hopeless());
        let id = svc.insert(packet::tcp_port_filter(0x0a00_0002, 90).unwrap());
        let reader = svc.reader();
        // Still serving, still correct, and the failure is typed.
        assert_eq!(reader.classify(&port_msg(90)), Some(id));
        assert!(!svc.is_native());
        let first = svc.build_failure().expect("the failed build is on record");
        assert_eq!(first.failures, 1);
        assert!(!first.last_error.is_empty(), "the record carries the error");
        assert!(first.retry_in <= RETRY_BASE);

        // Inside the backoff `poll_upgrade` does not rebuild; once it
        // has run out it does, and a second failure doubles the wait.
        assert!(!svc.poll_upgrade());
        assert_eq!(svc.build_failure().unwrap().failures, 1, "retried early");
        std::thread::sleep(RETRY_BASE);
        assert!(!svc.flush(Duration::ZERO));
        let second = svc.build_failure().unwrap();
        assert_eq!(second.failures, 2);
        assert!(second.retry_in > RETRY_BASE, "backoff did not double");

        assert_eq!(reader.classify(&port_msg(90)), Some(id));
        let st = svc.stats();
        assert_eq!(st.degraded_calls, 2);
        assert_eq!(
            (st.published, st.degraded_publishes),
            (1, 1),
            "a failed retry republishes nothing"
        );
    }
}
