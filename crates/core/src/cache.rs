//! Content-addressed, sharded cache for finished dynamic code.
//!
//! Dynamic codegen is only "very fast" relative to executing the code
//! once; a serving system (the ROADMAP's north star) compiles the same
//! lambda across many requests, and the win comes from *not* compiling
//! the second time. [`LambdaCache`] is the workspace-wide primitive for
//! that amortization:
//!
//! - **Content-addressed.** A [`CacheKey`] is (target id, key bytes):
//!   either the serialized vcode stream (`Program::encode`) or a client
//!   key ([`CacheKey::from_client_hash`]). The stored hash
//!   ([`digest64`](crate::persist::digest64) of the bytes, mixed with
//!   the target) just *routes* (shard choice, bucket probe); equality is
//!   decided on the full bytes, so hash collisions can never alias two
//!   programs.
//! - **Sharded.** Entries spread over `min(8, capacity)` mutexed shards
//!   by key hash; concurrent compiles of different programs do not
//!   contend.
//! - **Thundering-herd safe.** The first thread to miss installs a
//!   `Building` slot and compiles; racers wait on a condvar and share
//!   the single result — exactly one compile per key, no matter how many
//!   threads race.
//! - **Never poisoned, never wedged.** A failed build removes the slot
//!   and hands the typed error to every waiter; the next caller simply
//!   retries. A panicking build likewise clears the slot (guard in
//!   [`LambdaCache::get_or_insert_with`]) so the key stays usable. And
//!   every condvar wait is *bounded*: a builder thread that dies without
//!   unwinding (or hangs) stalls its waiters for at most the configured
//!   stall timeout, after which the stuck slot is vacated and the waiter
//!   either retries as the builder ([`get_or_insert_with`]
//!   (LambdaCache::get_or_insert_with)) or surfaces a typed
//!   [`CacheError::Stalled`] ([`get_or_build`](LambdaCache::get_or_build)).
//! - **Capacity-capped LRU, builds included.** Each shard evicts its
//!   least-recently-used *ready* entry beyond its share of the capacity,
//!   and in-flight `Building` slots count against that share: a burst of
//!   cold keys caps out at `per_shard` simultaneous builds, with the
//!   overflow compiled *uncached* (a counted bypass) instead of growing
//!   the shard without bound. Eviction only drops the cache's `Arc` —
//!   code still referenced by callers stays alive (and, for native code,
//!   its mapping stays out of the executable-memory pool) until the last
//!   clone is gone.
//! - **Observable.** Every count is the cache's own: [`CacheStats`]
//!   through [`LambdaCache::stats`].
//! - **Async-buildable.** [`crate::service::CompileService`] layers a
//!   background worker pool over the same `Building`-slot machinery via
//!   the crate-internal [`LambdaCache::begin_build`] / [`BuildTicket`]
//!   surface, so compilation can leave the request path entirely.

use crate::engine::TargetId;
use crate::persist::digest64;
use std::collections::HashMap;
// Synchronization comes from the `vsync` facade (std in production,
// model-checked scheduler under the `mcheck` feature) so the Building-
// slot protocol below is explorable by `crates/mcheck`; the facade
// `Instant` also virtualizes the stall clock, making `Stalled` paths
// deterministically replayable. Facade rule: no raw `std::sync` in this
// module (see DESIGN.md "Model-checked concurrency").
use crate::vsync::{self, Arc, AtomicU64, Condvar, Duration, Instant, Mutex, MutexGuard, Ordering};

/// Key of one cached lambda: the backend it was compiled for plus the
/// content bytes that identify the program.
///
/// The bytes are shared (`Arc`) so warm-path lookups clone the key in
/// O(1) instead of copying the serialized stream.
#[derive(Debug, Clone)]
pub struct CacheKey {
    target: TargetId,
    bytes: Arc<[u8]>,
    hash: u64,
}

/// Routing hash of (target, content hash): a cheap avalanche mix, so a
/// caller with a memoized content hash builds a key without re-scanning
/// the bytes. Every constructor must agree on this function — the stored
/// hash must be a function of (target, bytes) for `HashMap` correctness.
fn route_hash(target: TargetId, content: u64) -> u64 {
    content ^ (target.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl CacheKey {
    /// Content-addressed key: `bytes` is the program identity (e.g.
    /// `Program::encode()`); the hash mixes the [`digest64`] of the bytes
    /// with the target id, so the same stream on two backends routes —
    /// and keys — differently.
    pub fn new(target: TargetId, bytes: Vec<u8>) -> CacheKey {
        let hash = route_hash(target, digest64(&bytes));
        CacheKey {
            target,
            bytes: bytes.into(),
            hash,
        }
    }

    /// Key from an already-serialized, already-hashed identity (the
    /// memoized `Program::encoded` fast path): no byte scan, no copy.
    /// `content_hash` must be the same function of `bytes` for every key
    /// of one cache — equal keys must hash equally. `Program::encoded`
    /// supplies the hash that [`new`](Self::new) computes, so those two
    /// mix freely; a cache keyed with some other hash (FNV-1a, say) must
    /// use it for all of its keys.
    pub fn from_encoded(target: TargetId, bytes: Arc<[u8]>, content_hash: u64) -> CacheKey {
        CacheKey {
            target,
            hash: route_hash(target, content_hash),
            bytes,
        }
    }

    /// Client-hash key for callers that already maintain a collision-free
    /// 64-bit identity. The hash bytes *are* the content, so two clients
    /// passing the same `h` for different programs will alias — the
    /// client key must be collision-free by construction.
    pub fn from_client_hash(target: TargetId, h: u64) -> CacheKey {
        CacheKey::new(target, h.to_le_bytes().to_vec())
    }

    /// Key with an explicitly injected routing hash. Exists so tests can
    /// force hash collisions and prove that equality on the bytes keeps
    /// colliding keys distinct.
    pub fn with_hash(target: TargetId, bytes: Vec<u8>, hash: u64) -> CacheKey {
        CacheKey {
            target,
            bytes: bytes.into(),
            hash,
        }
    }

    /// The backend this key is scoped to.
    pub fn target(&self) -> TargetId {
        self.target
    }

    /// The routing hash (shard choice and bucket probe only).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The content bytes — the serialized program identity. The
    /// persistent tier embeds these verbatim in each artifact and
    /// fingerprints them (plain [`digest64`], whatever routing hash the
    /// key carries) to name the artifact file, so the same program maps
    /// to the same file across processes.
    pub fn content(&self) -> &[u8] {
        &self.bytes
    }
}

// Equality deliberately ignores `hash`: the hash routes, the bytes
// decide. Hash must agree with Eq for HashMap correctness, which holds
// because equal (target, bytes) always produce the same stored hash via
// the public constructors, and `with_hash` colliders compare unequal on
// bytes and merely probe the same bucket.
impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.target == other.target
            // Same shared allocation (a memoized Program re-looked-up):
            // content equality without the byte scan.
            && (Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes)
    }
}

impl Eq for CacheKey {}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned finished code with zero emission work.
    pub hits: u64,
    /// Lookups that had to compile (includes herd waiters that shared a
    /// racing compile).
    pub misses: u64,
    /// Ready entries dropped by LRU capacity enforcement.
    pub evictions: u64,
    /// Successful compiles inserted.
    pub inserts: u64,
    /// Condvar waits that exceeded the stall timeout: a builder died
    /// without unwinding (or hung) and its slot was forcibly vacated.
    pub stalls: u64,
    /// Compiles run *uncached* because the shard was already at its
    /// simultaneous-build cap (the result was returned but not shared).
    pub bypasses: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    stalls: AtomicU64,
    bypasses: AtomicU64,
}

/// Error from a bounded cache build ([`LambdaCache::get_or_build`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError<E> {
    /// The builder ran and failed with its typed error.
    Build(E),
    /// The in-flight builder for this key made no progress for the
    /// whole stall window: it died without unwinding, or hung. The
    /// stuck `Building` slot has been vacated, so the next caller can
    /// retry the compile.
    Stalled {
        /// How long this caller waited before giving up.
        waited: Duration,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for CacheError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Build(e) => write!(f, "build failed: {e}"),
            CacheError::Stalled { waited } => {
                write!(f, "in-flight build stalled (waited {waited:?})")
            }
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for CacheError<E> {}

/// In-flight compile slot: `done` flips under the mutex, waiters
/// register and sleep on the condvar under that same mutex, and the
/// result (or its absence, on failure) lives in the shard map itself.
/// The `Arc<Build>` pointer identity doubles as the build's
/// *generation*: vacate/insert decisions compare pointers so a stale
/// builder can never clobber a successor's slot.
#[derive(Debug, Default)]
struct Build {
    state: Mutex<BuildState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BuildState {
    done: bool,
    /// Set by a thread about to wait. [`Build::wake`] notifies only when
    /// it is: the common build has no waiter, and a notify nobody hears
    /// is still a futex syscall.
    awaited: bool,
}

#[derive(Debug)]
enum Slot<V: ?Sized> {
    Ready { val: Arc<V>, stamp: u64 },
    Building(Arc<Build>),
}

/// One shard under its lock: the slots, and how many of them are
/// `Building` — kept by every transition ([`claim`](Self::claim),
/// [`vacate`](Self::vacate), publication in `install_if`) so the miss
/// path's build-cap test never scans the shard.
#[derive(Debug)]
struct ShardState<V: ?Sized> {
    map: HashMap<CacheKey, Slot<V>>,
    building: usize,
}

type Shard<V> = Mutex<ShardState<V>>;

impl<V: ?Sized> ShardState<V> {
    /// Installs a fresh `Building` slot under `key` (which must be
    /// vacant) and returns its generation.
    fn claim(&mut self, key: CacheKey) -> Arc<Build> {
        let b = Arc::new(Build::default());
        let old = self.map.insert(key, Slot::Building(Arc::clone(&b)));
        debug_assert!(old.is_none(), "claimed an occupied slot");
        self.building += 1;
        self.check();
        b
    }

    /// Removes `key`'s `Building` slot if it still belongs to `build`.
    fn vacate(&mut self, key: &CacheKey, build: &Arc<Build>) -> bool {
        let ours = matches!(self.map.get(key), Some(Slot::Building(b)) if Arc::ptr_eq(b, build));
        if ours {
            self.map.remove(key);
            self.building -= 1;
            self.check();
        }
        ours
    }

    fn check(&self) {
        debug_assert_eq!(self.building, count_building(&self.map));
    }
}

/// Default bound on any one condvar wait for an in-flight build: long
/// enough that no real compile in this workspace comes near it, short
/// enough that a dead builder cannot wedge a request thread forever.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Sharded, content-addressed, LRU-capped cache of `Arc<V>` keyed by
/// [`CacheKey`]. `V` may be unsized (`LambdaCache<dyn Lambda>`).
pub struct LambdaCache<V: ?Sized> {
    shards: Vec<Shard<V>>,
    /// Max entries per shard — ready *plus* in-flight `Building` (total
    /// capacity split across shards, rounded up — the global cap is
    /// approximate by design).
    per_shard: usize,
    /// Cap on simultaneous `Building` slots per shard; cold-key bursts
    /// beyond it compile uncached (see [`CacheStats::bypasses`]).
    max_builds: usize,
    /// Upper bound on one condvar wait for an in-flight build.
    stall: Duration,
    clock: AtomicU64,
    stats: StatCells,
}

impl<V: ?Sized> std::fmt::Debug for LambdaCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LambdaCache")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Clears a `Building` slot if the builder fails or unwinds, so a
/// panicking compile never wedges the key. Removal is pointer-checked:
/// if a stall-recovery path already vacated this build and a successor
/// moved in, the successor's slot is left untouched.
///
/// The guard also wakes the build's waiters, on every path: a published
/// result disarms the vacate and leaves only the wake.
struct BuildGuard<'c, V: ?Sized> {
    cache: &'c LambdaCache<V>,
    key: &'c CacheKey,
    build: Arc<Build>,
    vacate: bool,
}

impl<V: ?Sized> Drop for BuildGuard<'_, V> {
    fn drop(&mut self) {
        if self.vacate {
            self.cache.vacate_if(self.key, &self.build);
        }
        self.build.wake();
    }
}

impl Build {
    /// Marks the build resolved and wakes whoever registered as waiting
    /// for it. A waiter registers under `state`'s mutex before its first
    /// wait and `done` flips under that mutex, so either the waiter saw
    /// `done` and never sleeps, or `wake` sees it registered and
    /// notifies: skipping the notify when nobody registered loses no
    /// wakeup.
    fn wake(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.done = true;
        let awaited = st.awaited;
        drop(st);
        if vsync::injected(vsync::Injection::DropCacheNotify) {
            // Mutation under test (model checker only): the builder
            // "forgets" to notify. Waiters must then limp home on the
            // stall timeout — which the explorer observes as a virtual-
            // clock jump, failing the latency assertion in the cache
            // model program. Proves lost notifies are catchable.
            return;
        }
        if awaited {
            self.cv.notify_all();
        }
    }
}

impl<V: ?Sized> LambdaCache<V> {
    /// Creates a cache retaining at most ~`capacity` finished lambdas
    /// (LRU beyond that; a capacity of 0 caches nothing).
    pub fn new(capacity: usize) -> LambdaCache<V> {
        let nshards = capacity.clamp(1, 8);
        let per_shard = capacity.div_ceil(nshards);
        LambdaCache {
            shards: (0..nshards)
                .map(|_| {
                    Mutex::new(ShardState {
                        map: HashMap::new(),
                        building: 0,
                    })
                })
                .collect(),
            per_shard,
            // At least one build must always be admitted or a cold
            // zero-capacity cache could never compile at all.
            max_builds: per_shard.max(1),
            stall: DEFAULT_STALL_TIMEOUT,
            clock: AtomicU64::new(1),
            stats: StatCells::default(),
        }
    }

    /// Sets the stall timeout: the longest any caller will wait on one
    /// in-flight build before vacating the stuck slot (see
    /// [`CacheError::Stalled`]). Builder-style API for construction.
    #[must_use]
    pub fn with_stall_timeout(mut self, stall: Duration) -> LambdaCache<V> {
        self.stall = stall;
        self
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, ShardState<V>> {
        let idx = (key.hash as usize) % self.shards.len();
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut shard = self.shard(key);
        match shard.map.get_mut(key) {
            Some(Slot::Ready { val, stamp }) => {
                *stamp = self.tick();
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(val))
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up `key` without counting a hit or miss. Degraded-serving
    /// handles poll this every call while their native build is in
    /// flight; counting each poll as a miss would drown the real
    /// hit/miss signal. The LRU stamp *is* refreshed on success.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut shard = self.shard(key);
        match shard.map.get_mut(key) {
            Some(Slot::Ready { val, stamp }) => {
                *stamp = self.tick();
                Some(Arc::clone(val))
            }
            _ => None,
        }
    }

    /// Removes a `Building` slot only if it still belongs to `build`
    /// (pointer identity), waking its waiters. Returns whether the slot
    /// was vacated. The check makes vacating idempotent and safe against
    /// successors: a new builder's slot under the same key is a
    /// different `Arc` and is never touched.
    fn vacate_if(&self, key: &CacheKey, build: &Arc<Build>) -> bool {
        let vacated = self.shard(key).vacate(key, build);
        if vacated {
            build.wake();
        }
        vacated
    }

    /// Returns the cached value for `key`, or runs `build` to produce
    /// it. Exactly one builder runs per key however many threads race;
    /// the others block and share the result. `build` runs *without* the
    /// shard lock held, so slow compiles don't serialize unrelated keys.
    ///
    /// Waits are bounded by the cache's stall timeout: if the in-flight
    /// builder makes no progress for the whole window (it died without
    /// unwinding, or hung), the stuck slot is vacated and this caller
    /// retries — typically becoming the next builder itself. The
    /// self-healing retry is why this method needs no stall error; use
    /// [`get_or_build`](Self::get_or_build) to surface stalls as typed
    /// errors instead.
    ///
    /// # Errors
    ///
    /// The builder's typed error, handed to the builder *and* every
    /// waiter of that round. The failed slot is removed — the key stays
    /// usable and the next caller retries the compile.
    pub fn get_or_insert_with<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        let mut build = Some(build);
        loop {
            match self.attempt(&key, &mut build) {
                Attempt::Done(result) => return result,
                // The stuck slot was vacated; retry — this thread
                // becomes the next builder unless someone beat it.
                Attempt::Stalled { .. } => continue,
            }
        }
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) with a typed
    /// stall outcome: a caller that would rather report a stuck build
    /// than take it over uses this entry point. The wait is bounded by
    /// the cache's one stall timeout
    /// ([`with_stall_timeout`](Self::with_stall_timeout)). On
    /// [`CacheError::Stalled`] the stuck `Building` slot has already been
    /// vacated, so a later retry can compile.
    ///
    /// Pass the key by reference and a hit clones nothing.
    ///
    /// # Errors
    ///
    /// [`CacheError::Build`] wraps the builder's typed error;
    /// [`CacheError::Stalled`] reports a builder that made no progress
    /// for the whole stall window.
    pub fn get_or_build<E>(
        &self,
        key: impl std::borrow::Borrow<CacheKey>,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, CacheError<E>> {
        let mut build = Some(build);
        match self.attempt(key.borrow(), &mut build) {
            Attempt::Done(result) => result.map_err(CacheError::Build),
            Attempt::Stalled { waited } => Err(CacheError::Stalled { waited }),
        }
    }

    /// One bounded lookup-or-build round. Takes the builder by
    /// `&mut Option` so a stalled round hands it back unconsumed for the
    /// caller's retry policy.
    fn attempt<E, F: FnOnce() -> Result<Arc<V>, E>>(
        &self,
        key: &CacheKey,
        build: &mut Option<F>,
    ) -> Attempt<V, E> {
        let mut waited = false;
        loop {
            let wait_on: Arc<Build>;
            {
                let mut shard = self.shard(key);
                match shard.map.get_mut(key) {
                    Some(Slot::Ready { val, stamp }) => {
                        *stamp = self.tick();
                        // A herd waiter that finds the result ready still
                        // experienced a miss (it waited for a compile).
                        if waited {
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        }
                        return Attempt::Done(Ok(Arc::clone(val)));
                    }
                    Some(Slot::Building(b)) => {
                        wait_on = Arc::clone(b);
                    }
                    None => {
                        if shard.building >= self.max_builds {
                            // The shard is saturated with in-flight
                            // builds: compile uncached rather than grow
                            // past the configured capacity.
                            drop(shard);
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                            self.stats.bypasses.fetch_add(1, Ordering::Relaxed);
                            let build = build.take().expect("builder reused");
                            return Attempt::Done(build());
                        }
                        // The miss's one key clone: the map owns it,
                        // the builder keeps borrowing the caller's.
                        let b = shard.claim(key.clone());
                        drop(shard);
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        let build = build.take().expect("builder reused");
                        return Attempt::Done(self.run_build(key, b, build));
                    }
                }
            }
            waited = true;
            // Bounded wait: the window restarts per build slot — a
            // stall means *this* builder made no progress for the window.
            let start = Instant::now();
            let deadline = start + self.stall;
            let mut st = wait_on.state.lock().unwrap_or_else(|e| e.into_inner());
            st.awaited = true;
            loop {
                if st.done {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    drop(st);
                    // Only counts as a stall if the slot really was
                    // still this build; otherwise the builder finished
                    // between our timeout and the vacate — re-probe.
                    if self.vacate_if(key, &wait_on) {
                        self.stats.stalls.fetch_add(1, Ordering::Relaxed);
                        return Attempt::Stalled {
                            waited: start.elapsed(),
                        };
                    }
                    break;
                }
                let (guard, _) = wait_on
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            // Re-probe: either Ready (success) or vacant (failed build →
            // this thread becomes the next builder).
        }
    }

    fn run_build<E>(
        &self,
        key: &CacheKey,
        build_slot: Arc<Build>,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        let mut guard = BuildGuard {
            cache: self,
            key,
            build: build_slot,
            vacate: true,
        };
        let result = build();
        if let Ok(val) = &result {
            // If the slot was vacated by stall recovery the value is
            // still returned to this caller, just not published — the
            // successor builder owns the key now.
            self.install_if(key, &guard.build, Arc::clone(val));
            guard.vacate = false;
        }
        result
    }

    /// Publishes `val` under `key` if the `Building` slot still belongs
    /// to `build` (pointer identity), enforcing capacity. Returns
    /// whether the value was published.
    fn install_if(&self, key: &CacheKey, build: &Arc<Build>, val: Arc<V>) -> bool {
        let mut shard = self.shard(key);
        match shard.map.get_mut(key) {
            Some(slot) if matches!(&*slot, Slot::Building(b) if Arc::ptr_eq(b, build)) => {
                *slot = Slot::Ready {
                    val,
                    stamp: self.tick(),
                };
            }
            _ => return false,
        }
        shard.building -= 1;
        shard.check();
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        let victims = self.evict_to(&mut shard);
        // A victim's drop can be real work (a native lambda scrubs and
        // parks its mapping) or can come back to this cache: run it
        // with the shard unlocked, so no hit waits behind it.
        drop(shard);
        drop(victims);
        true
    }

    /// Evicts least-recently-used `Ready` entries (never `Building`
    /// slots) until the shard is within its cap. In-flight `Building`
    /// slots count against the cap — capacity is a bound on the shard's
    /// footprint, not just its finished entries — but they are never
    /// victims; they vacate on completion.
    ///
    /// Runs right after a publication, under the same lock hold, so the
    /// entry just published carries the newest stamp in the shard: it is
    /// the victim only when every other slot is an in-flight build (or
    /// `per_shard == 0`), and dropping it then is right — its result was
    /// already handed to its callers, it just isn't shared.
    ///
    /// Returns the evicted slots for the caller to drop once it has
    /// released the shard.
    #[must_use = "victims must be dropped after the shard lock is released"]
    fn evict_to(&self, shard: &mut ShardState<V>) -> Vec<Slot<V>> {
        let mut victims = Vec::new();
        while shard.map.len() > self.per_shard {
            let victim = shard
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { stamp, .. } => Some((*stamp, k)),
                    Slot::Building(_) => None,
                })
                .min_by_key(|&(stamp, _)| stamp)
                // Candidates are compared by reference; only the victim
                // is cloned, to end the borrow its removal needs.
                .map(|(_, k)| k.clone());
            let Some(victim) = victim else {
                break; // only in-flight builds left
            };
            victims.extend(shard.map.remove(&victim));
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        victims
    }

    /// Probes `key` for the async compile service: a `Ready` hit returns
    /// the value, an in-flight build reports itself, and a vacant slot
    /// is *claimed* — a `Building` slot is installed and the returned
    /// [`BuildTicket`] must resolve it (finish, abandon, or drop).
    pub(crate) fn begin_build(self: &Arc<Self>, key: &CacheKey) -> Probe<V> {
        let mut shard = self.shard(key);
        match shard.map.get_mut(key) {
            Some(Slot::Ready { val, stamp }) => {
                *stamp = self.tick();
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Probe::Ready(Arc::clone(val))
            }
            Some(Slot::Building(_)) => Probe::InFlight,
            None => {
                if shard.building >= self.max_builds {
                    return Probe::Busy;
                }
                let b = shard.claim(key.clone());
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Probe::Claimed(BuildTicket {
                    cache: Arc::clone(self),
                    key: key.clone(),
                    build: b,
                    armed: true,
                })
            }
        }
    }

    /// Ready entries currently cached (excludes in-flight builds).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap_or_else(|e| e.into_inner());
                s.map.len() - s.building
            })
            .sum()
    }

    /// Whether no finished code is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every ready entry (in-flight builds complete normally).
    /// Callers holding `Arc`s keep their code.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().unwrap_or_else(|e| e.into_inner());
            let ready: Vec<_> = shard
                .map
                .extract_if(|_, slot| matches!(slot, Slot::Ready { .. }))
                .collect();
            // As in `install_if`: entries drop with the shard unlocked.
            drop(shard);
            drop(ready);
        }
    }

    /// Snapshot of this cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            bypasses: self.stats.bypasses.load(Ordering::Relaxed),
        }
    }
}

/// `Building` slots in one locked shard, counted the slow way: what
/// [`ShardState::building`] must always equal.
fn count_building<V: ?Sized>(shard: &HashMap<CacheKey, Slot<V>>) -> usize {
    shard
        .values()
        .filter(|s| matches!(s, Slot::Building(_)))
        .count()
}

/// Outcome of one bounded lookup-or-build round (internal).
enum Attempt<V: ?Sized, E> {
    Done(Result<Arc<V>, E>),
    Stalled { waited: Duration },
}

/// Result of [`LambdaCache::begin_build`]: the async service's view of
/// one key.
#[derive(Debug)]
pub(crate) enum Probe<V: ?Sized> {
    /// Finished code was already cached.
    Ready(Arc<V>),
    /// Another build (sync or async) holds the `Building` slot.
    InFlight,
    /// The shard is at its simultaneous-build cap; nothing was claimed.
    Busy,
    /// A `Building` slot was installed for the caller, who must resolve
    /// the ticket.
    Claimed(BuildTicket<V>),
}

/// Exclusive claim on one key's `Building` slot, held by an async
/// builder. Exactly one of [`finish`](Self::finish) /
/// [`abandon`](Self::abandon) resolves it; dropping the ticket (builder
/// panicked, queue torn down) abandons implicitly so the key can never
/// wedge. All resolution is pointer-checked: if the slot was vacated by
/// stall recovery and reclaimed by a successor, a stale ticket is a
/// no-op.
#[derive(Debug)]
pub(crate) struct BuildTicket<V: ?Sized> {
    cache: Arc<LambdaCache<V>>,
    key: CacheKey,
    build: Arc<Build>,
    armed: bool,
}

impl<V: ?Sized> BuildTicket<V> {
    /// The key this ticket claims.
    pub(crate) fn key(&self) -> &CacheKey {
        &self.key
    }

    /// Publishes `val` under the key and wakes waiters. Returns `false`
    /// if the slot was no longer this build's (vacated by stall/deadline
    /// recovery) — the value is then *not* cached and the caller should
    /// treat the build as expired.
    pub(crate) fn finish(mut self, val: Arc<V>) -> bool {
        self.armed = false;
        let published = self.cache.install_if(&self.key, &self.build, val);
        self.build.wake();
        published
    }

    /// Vacates the slot (build failed, expired, or was shed) and wakes
    /// waiters so they can retry.
    pub(crate) fn abandon(mut self) {
        self.armed = false;
        self.cache.vacate_if(&self.key, &self.build);
        self.build.wake();
    }
}

impl<V: ?Sized> Drop for BuildTicket<V> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.vacate_if(&self.key, &self.build);
            self.build.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn key(n: u8) -> CacheKey {
        CacheKey::new(TargetId::Mips, vec![n])
    }

    #[test]
    fn hit_miss_insert_counters() {
        let c: LambdaCache<u32> = LambdaCache::new(8);
        assert!(c.get(&key(1)).is_none());
        let v = c
            .get_or_insert_with::<Infallible>(key(1), || Ok(Arc::new(7)))
            .unwrap();
        assert_eq!(*v, 7);
        assert_eq!(*c.get(&key(1)).unwrap(), 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 2, 1, 0));
    }

    #[test]
    fn same_bytes_different_target_do_not_alias() {
        let c: LambdaCache<u32> = LambdaCache::new(8);
        let ka = CacheKey::new(TargetId::Mips, vec![1, 2, 3]);
        let kb = CacheKey::new(TargetId::X64, vec![1, 2, 3]);
        assert_ne!(ka, kb);
        c.get_or_insert_with::<Infallible>(ka.clone(), || Ok(Arc::new(1)))
            .unwrap();
        c.get_or_insert_with::<Infallible>(kb.clone(), || Ok(Arc::new(2)))
            .unwrap();
        assert_eq!(*c.get(&ka).unwrap(), 1);
        assert_eq!(*c.get(&kb).unwrap(), 2);
    }

    #[test]
    fn forced_hash_collision_does_not_alias() {
        // Capacity 16 → 8 shards × 2 slots, so both colliding keys fit
        // in the shared shard and neither is evicted.
        let c: LambdaCache<u32> = LambdaCache::new(16);
        let ka = CacheKey::with_hash(TargetId::Mips, vec![1], 0xdead_beef);
        let kb = CacheKey::with_hash(TargetId::Mips, vec![2], 0xdead_beef);
        assert_eq!(ka.hash(), kb.hash());
        assert_ne!(ka, kb);
        c.get_or_insert_with::<Infallible>(ka.clone(), || Ok(Arc::new(1)))
            .unwrap();
        c.get_or_insert_with::<Infallible>(kb.clone(), || Ok(Arc::new(2)))
            .unwrap();
        assert_eq!(*c.get(&ka).unwrap(), 1);
        assert_eq!(*c.get(&kb).unwrap(), 2);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        // Capacity 16 → 8 shards × 2 slots; hashes ≡ 0 (mod 8) pin all
        // three keys to shard 0, so the third insert must evict one.
        let c: LambdaCache<u32> = LambdaCache::new(16);
        let ka = CacheKey::with_hash(TargetId::Mips, vec![1], 0);
        let kb = CacheKey::with_hash(TargetId::Mips, vec![2], 8);
        let kc = CacheKey::with_hash(TargetId::Mips, vec![3], 16);
        c.get_or_insert_with::<Infallible>(ka.clone(), || Ok(Arc::new(1)))
            .unwrap();
        c.get_or_insert_with::<Infallible>(kb.clone(), || Ok(Arc::new(2)))
            .unwrap();
        // Touch ka so kb is the LRU victim when kc arrives.
        assert!(c.get(&ka).is_some());
        c.get_or_insert_with::<Infallible>(kc.clone(), || Ok(Arc::new(3)))
            .unwrap();
        assert!(c.get(&ka).is_some());
        assert!(c.get(&kb).is_none());
        assert!(c.get(&kc).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_keeps_caller_arcs_alive() {
        let c: LambdaCache<u32> = LambdaCache::new(1);
        let ka = CacheKey::with_hash(TargetId::Mips, vec![1], 0);
        let kb = CacheKey::with_hash(TargetId::Mips, vec![2], 0);
        let held = c
            .get_or_insert_with::<Infallible>(ka, || Ok(Arc::new(41)))
            .unwrap();
        c.get_or_insert_with::<Infallible>(kb, || Ok(Arc::new(42)))
            .unwrap();
        assert_eq!(*held, 41); // evicted from the cache, alive for us
    }

    #[test]
    fn failed_build_returns_error_and_leaves_key_usable() {
        let c: LambdaCache<u32> = LambdaCache::new(8);
        let err = c
            .get_or_insert_with(key(9), || Err::<Arc<u32>, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        // Not poisoned: the retry compiles and succeeds.
        let v = c
            .get_or_insert_with::<Infallible>(key(9), || Ok(Arc::new(5)))
            .unwrap();
        assert_eq!(*v, 5);
    }

    #[test]
    fn panicking_build_does_not_wedge_the_key() {
        let c: LambdaCache<u32> = LambdaCache::new(8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.get_or_insert_with::<Infallible>(key(3), || panic!("compile exploded"));
        }));
        assert!(r.is_err());
        let v = c
            .get_or_insert_with::<Infallible>(key(3), || Ok(Arc::new(11)))
            .unwrap();
        assert_eq!(*v, 11);
    }

    #[test]
    fn thundering_herd_compiles_exactly_once() {
        const THREADS: usize = 8;
        let c: Arc<LambdaCache<u32>> = Arc::new(LambdaCache::new(8));
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (c, builds, barrier) = (c.clone(), builds.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    let v = c
                        .get_or_insert_with::<Infallible>(key(7), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(Arc::new(99))
                        })
                        .unwrap();
                    assert_eq!(*v, 99);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_capacity_caches_nothing_but_stays_usable() {
        let c: LambdaCache<u32> = LambdaCache::new(0);
        let v = c
            .get_or_insert_with::<Infallible>(key(1), || Ok(Arc::new(7)))
            .unwrap();
        assert_eq!(*v, 7);
        assert!(c.get(&key(1)).is_none());
        assert!(c.is_empty());
    }

    /// A `Building` slot whose builder will never resolve it — the
    /// "builder thread died without unwinding" scenario. Returns the
    /// build generation so the test can assert vacate semantics.
    fn wedge(c: &LambdaCache<u32>, k: &CacheKey) -> Arc<Build> {
        c.shard(k).claim(k.clone())
    }

    /// Asserts, shard by shard, that the O(1) `building` counter equals
    /// a scan of the slots (in release builds too, where the debug
    /// assertion inside every transition is compiled out), and returns
    /// the total.
    fn building(c: &LambdaCache<u32>) -> usize {
        c.shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap();
                assert_eq!(s.building, count_building(&s.map));
                s.building
            })
            .sum()
    }

    #[test]
    fn building_counter_tracks_every_transition() {
        let c: Arc<LambdaCache<u32>> =
            Arc::new(LambdaCache::new(16).with_stall_timeout(Duration::from_millis(10)));
        assert_eq!(building(&c), 0);
        // Claim -> publish, observed from inside the builder.
        c.get_or_insert_with::<Infallible>(key(1), || {
            assert_eq!(building(&c), 1);
            Ok(Arc::new(1))
        })
        .unwrap();
        assert_eq!(building(&c), 0);
        // Claim -> failed build.
        let _ = c.get_or_insert_with(key(2), || {
            assert_eq!(building(&c), 1);
            Err::<Arc<u32>, _>("boom")
        });
        assert_eq!(building(&c), 0);
        // Claim -> panicking build (the guard vacates on unwind).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.get_or_insert_with::<Infallible>(key(3), || panic!("compile exploded"));
        }));
        assert!(r.is_err());
        assert_eq!(building(&c), 0);
        // Wedged slot -> stall-vacate by a bounded waiter.
        wedge(&c, &key(4));
        assert_eq!(building(&c), 1);
        let err = c.get_or_build::<&str>(key(4), || Ok(Arc::new(4)));
        assert!(matches!(err, Err(CacheError::Stalled { .. })));
        assert_eq!(building(&c), 0);
        // A stale generation resolving late moves nothing.
        let stale = wedge(&c, &key(5));
        assert!(c.vacate_if(&key(5), &stale));
        assert!(!c.vacate_if(&key(5), &stale));
        assert!(!c.install_if(&key(5), &stale, Arc::new(5)));
        assert_eq!(building(&c), 0);
        // Async tickets: finish, abandon, drop.
        for resolve in 0..3 {
            let Probe::Claimed(t) = c.begin_build(&key(6)) else {
                panic!("vacant key must be claimable");
            };
            assert_eq!(building(&c), 1);
            match resolve {
                0 => drop(t),
                1 => t.abandon(),
                _ => assert!(t.finish(Arc::new(6))),
            }
            assert_eq!(building(&c), 0);
        }
        // `clear` keeps in-flight builds, and their count.
        wedge(&c, &key(7));
        c.clear();
        assert_eq!((building(&c), c.len()), (1, 0));
    }

    #[test]
    fn eviction_order_is_lru_among_ready_entries_only() {
        // One shard of four slots (hashes ≡ 0 mod 8 at capacity 32).
        let c: LambdaCache<u32> = LambdaCache::new(32);
        let k = |n: u8| CacheKey::with_hash(TargetId::Mips, vec![n], u64::from(n) * 8);
        for n in 0..4 {
            c.get_or_insert_with::<Infallible>(k(n), || Ok(Arc::new(u32::from(n))))
                .unwrap();
        }
        // Recency now: 2, 0, 3, 1 (oldest first).
        for n in [2, 0, 3, 1] {
            assert!(c.peek(&k(n)).is_some());
        }
        // Each publication evicts exactly the least recently used.
        // (Survivors are not peeked: that would refresh their stamps.)
        for (insert, evicted) in [(4u8, 2u8), (5, 0), (6, 3), (7, 1)] {
            let before = c.stats().evictions;
            c.get_or_insert_with::<Infallible>(k(insert), || Ok(Arc::new(0)))
                .unwrap();
            assert_eq!((c.len(), c.stats().evictions), (4, before + 1));
            assert!(c.peek(&k(evicted)).is_none(), "{evicted} was the LRU");
        }
        assert_eq!(c.stats().evictions, 4);
        // An in-flight build holds a slot but is never the victim: with
        // one wedged, a publication evicts the oldest *ready* entry.
        wedge(&c, &k(8));
        c.get_or_insert_with::<Infallible>(k(9), || Ok(Arc::new(9)))
            .unwrap();
        assert_eq!(building(&c), 1);
        assert_eq!(c.len(), 3);
        assert!(c.peek(&k(9)).is_some());
    }

    #[test]
    fn stalled_build_surfaces_typed_error_and_vacates() {
        let c: LambdaCache<u32> = LambdaCache::new(8).with_stall_timeout(Duration::from_millis(20));
        wedge(&c, &key(1));
        let err = c
            .get_or_build::<&str>(key(1), || Ok(Arc::new(1)))
            .unwrap_err();
        match err {
            CacheError::Stalled { waited } => assert!(waited >= Duration::from_millis(20)),
            CacheError::Build(e) => panic!("expected Stalled, got Build({e})"),
        }
        assert_eq!(c.stats().stalls, 1);
        // The dead slot was vacated: the key is immediately buildable.
        let v = c.get_or_build::<&str>(key(1), || Ok(Arc::new(5))).unwrap();
        assert_eq!(*v, 5);
    }

    #[test]
    fn get_or_insert_with_self_heals_after_stall() {
        // The infallible path retries instead of surfacing Stalled: the
        // waiter that vacated the dead slot becomes the builder.
        let c: LambdaCache<u32> = LambdaCache::new(8).with_stall_timeout(Duration::from_millis(20));
        wedge(&c, &key(2));
        let t0 = std::time::Instant::now();
        let v = c
            .get_or_insert_with::<Infallible>(key(2), || Ok(Arc::new(9)))
            .unwrap();
        assert_eq!(*v, 9);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(c.stats().stalls, 1);
        assert_eq!(*c.get(&key(2)).unwrap(), 9);
    }

    #[test]
    fn stale_builder_cannot_clobber_successor() {
        // A builder that outlives its vacated slot must not overwrite
        // the successor build that reclaimed the key.
        let c: Arc<LambdaCache<u32>> = Arc::new(LambdaCache::new(8));
        let stale = wedge(&c, &key(3));
        assert!(c.vacate_if(&key(3), &stale), "vacate the dead build");
        let v = c
            .get_or_insert_with::<Infallible>(key(3), || Ok(Arc::new(42)))
            .unwrap();
        assert_eq!(*v, 42);
        // The stale generation tries to publish late: ptr-check rejects.
        assert!(!c.install_if(&key(3), &stale, Arc::new(7)));
        assert!(!c.vacate_if(&key(3), &stale));
        assert_eq!(*c.get(&key(3)).unwrap(), 42);
    }

    #[test]
    fn building_slots_count_against_capacity_and_bypass() {
        // Capacity 8 → 8 shards × 1 slot. Wedge a build into the shard
        // of a colliding key: the next cold build on that shard is over
        // the cap and must bypass (compile uncached), not queue behind
        // the cap or grow the shard.
        let c: LambdaCache<u32> = LambdaCache::new(8).with_stall_timeout(Duration::from_millis(50));
        let ka = CacheKey::with_hash(TargetId::Mips, vec![1], 0);
        let kb = CacheKey::with_hash(TargetId::Mips, vec![2], 8); // same shard
        wedge(&c, &ka);
        let v = c
            .get_or_build::<&str>(kb.clone(), || Ok(Arc::new(2)))
            .unwrap();
        assert_eq!(*v, 2);
        assert_eq!(c.stats().bypasses, 1);
        // Bypass result is served but not cached (the shard is full of
        // in-flight builds).
        assert!(c.peek(&kb).is_none());
    }

    #[test]
    fn begin_build_claims_once_and_reports_states() {
        let c: Arc<LambdaCache<u32>> = Arc::new(LambdaCache::new(8));
        let t1 = match c.begin_build(&key(4)) {
            Probe::Claimed(t) => t,
            other => panic!("expected Claimed, got {other:?}"),
        };
        assert!(matches!(c.begin_build(&key(4)), Probe::InFlight));
        assert!(t1.finish(Arc::new(4)));
        match c.begin_build(&key(4)) {
            Probe::Ready(v) => assert_eq!(*v, 4),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    /// A value whose destructor comes back to the cache, as a lambda's
    /// may (and as any destructor that blocks would stall the shard's
    /// hits): victims must be dropped with the shard unlocked.
    struct Reentrant {
        cache: std::sync::Weak<LambdaCache<Reentrant>>,
        seen: Arc<AtomicUsize>,
    }

    impl Drop for Reentrant {
        fn drop(&mut self) {
            if let Some(c) = self.cache.upgrade() {
                // One more than the length proves the drop ran at all.
                self.seen.fetch_add(c.len() + 1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn victims_drop_outside_the_shard_lock() {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let c: Arc<LambdaCache<Reentrant>> = Arc::new(LambdaCache::new(1));
            let seen = Arc::new(AtomicUsize::new(0));
            let insert = |n: u8| {
                let val = Reentrant {
                    cache: Arc::downgrade(&c),
                    seen: Arc::clone(&seen),
                };
                // The returned clone goes at once: the cache's is the last.
                drop(c.get_or_insert_with::<Infallible>(key(n), || Ok(Arc::new(val))));
            };
            insert(1);
            insert(2); // evicts 1, whose drop sees the one entry left
            assert_eq!(seen.swap(0, Ordering::SeqCst), 2);
            c.clear(); // drops 2, whose drop sees an empty cache
            assert_eq!(seen.load(Ordering::SeqCst), 1);
            done.send(()).unwrap();
        });
        // Joined with a timeout: under the lock, the drop deadlocks.
        if finished.recv_timeout(Duration::from_secs(20))
            == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        {
            panic!("a victim's drop re-entered the cache under its shard lock and hung");
        }
        worker.join().unwrap();
    }

    #[test]
    fn dropped_ticket_vacates_and_wakes_waiters() {
        let c: Arc<LambdaCache<u32>> =
            Arc::new(LambdaCache::new(8).with_stall_timeout(Duration::from_secs(5)));
        let ticket = match c.begin_build(&key(5)) {
            Probe::Claimed(t) => t,
            other => panic!("expected Claimed, got {other:?}"),
        };
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.get_or_build::<&str>(key(5), || Ok(Arc::new(55))))
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(ticket); // abandoned implicitly — waiters must not stall
        let v = waiter.join().unwrap().unwrap();
        assert_eq!(*v, 55);
    }

    #[test]
    fn peek_counts_no_stats() {
        let c: LambdaCache<u32> = LambdaCache::new(8);
        assert!(c.peek(&key(6)).is_none());
        c.get_or_insert_with::<Infallible>(key(6), || Ok(Arc::new(6)))
            .unwrap();
        let before = c.stats();
        assert_eq!(*c.peek(&key(6)).unwrap(), 6);
        let after = c.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
    }
}
