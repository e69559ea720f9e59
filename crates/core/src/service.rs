//! Background compile service: codegen off the request path, with
//! graceful degradation.
//!
//! The paper's premise is that dynamic code generation is cheap enough
//! to sit on the request path. At serving scale the *expected* cost
//! still is — but the tail is not: a builder that stalls, panics, or
//! simply arrives in a burst of cold keys must never stall traffic.
//! [`CompileService`] layers a work-stealing worker pool over the
//! [`LambdaCache`]'s `Building`-slot machinery so a request thread never
//! compiles and never waits:
//!
//! - [`submit`](CompileService::submit) is non-blocking. A warm key
//!   returns [`Submit::Ready`]; a cold key is *claimed* (the cache's
//!   thundering-herd guarantee: one claim per key, no matter how many
//!   threads race) and handed to the pool, and the caller serves a
//!   fallback until the native code publishes.
//! - Every build carries a **deadline**. A job still queued past its
//!   deadline is dropped un-run; a build that finishes past it is
//!   discarded. Either way the `Building` slot is vacated (pointer-
//!   checked, so a successor build is never clobbered) and the key is
//!   quarantined.
//! - Failing keys enter a **quarantine** table with exponential
//!   backoff: a poison lambda cannot hot-loop the workers. After the
//!   backoff expires, exactly one probe rebuild is admitted; success
//!   clears the entry, failure doubles the backoff.
//! - When the queue exceeds a configured depth the service **sheds
//!   load**: the submit returns [`Submit::Shed`] and the caller serves
//!   its fallback — nothing is enqueued, nothing waits.
//!
//! The per-key lifecycle (see DESIGN.md "Compile service & graceful
//! degradation"):
//!
//! ```text
//! Missing ──submit──▶ Queued ──worker──▶ Building ──ok──▶ Ready
//!    │                  │                   │
//!    │ queue full       │ deadline          │ error / panic / overrun
//!    ▼                  ▼                   ▼
//!  Shed             Quarantined ◀───────────┘   (backoff ×2 per failure,
//!                       │                        capped; probe on expiry)
//!                       └──backoff expired, probe succeeds──▶ Ready
//! ```
//!
//! Builder errors cross the service as `String` (via `Display`) so one
//! service type serves every cache value type in the workspace — the
//! engine's `dyn Lambda`, DPF's compiled classifiers, ASH's kernels.

use crate::cache::{CacheKey, LambdaCache};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
// Synchronization via the `vsync` facade (std in production, model-
// checked under `mcheck`): the quarantine/backoff table, the idle-
// worker condvar, and the shutdown flag are driven by `crates/mcheck`
// model programs. No raw `std::sync` in this module (DESIGN.md
// "Model-checked concurrency").
use crate::vsync::thread::JoinHandle;
use crate::vsync::{
    self, Arc, AtomicBool, AtomicU64, AtomicUsize, Condvar, Duration, Instant, Mutex, Ordering,
};

/// Tuning for one [`CompileService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the pool (clamped to ≥ 1).
    pub workers: usize,
    /// Queue depth beyond which submits are shed.
    pub queue_depth: usize,
    /// Per-build deadline: queued-past-deadline jobs are dropped un-run;
    /// builds finishing past it are discarded and the key quarantined.
    pub deadline: Duration,
    /// First-failure quarantine backoff (doubles per consecutive
    /// failure).
    pub quarantine_base: Duration,
    /// Backoff ceiling.
    pub quarantine_cap: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            quarantine_base: Duration::from_millis(100),
            quarantine_cap: Duration::from_secs(5),
        }
    }
}

/// Outcome of one non-blocking [`CompileService::submit`].
///
/// Every variant is a *served* request: `Ready` serves native code, the
/// rest tell the caller to serve its fallback ladder (and why).
pub enum Submit<V: ?Sized> {
    /// Finished code was already cached — serve it directly.
    Ready(Arc<V>),
    /// The build was accepted onto the queue; serve the fallback and
    /// [`peek`](LambdaCache::peek) the cache for the upgrade.
    Queued,
    /// Another build (sync or async) already holds the key's `Building`
    /// slot; serve the fallback.
    InFlight,
    /// The queue was at its configured depth (or the cache shard at its
    /// simultaneous-build cap) — the build was shed, nothing enqueued.
    Shed,
    /// The key is quarantined after repeated failures; serve the
    /// fallback and retry after `retry_in`.
    Quarantined {
        /// Time until the next rebuild probe is admitted.
        retry_in: Duration,
        /// Consecutive failures recorded for the key.
        failures: u32,
    },
}

impl<V: ?Sized> fmt::Debug for Submit<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Submit::Ready(_) => f.write_str("Ready(..)"),
            Submit::Queued => f.write_str("Queued"),
            Submit::InFlight => f.write_str("InFlight"),
            Submit::Shed => f.write_str("Shed"),
            Submit::Quarantined { retry_in, failures } => f
                .debug_struct("Quarantined")
                .field("retry_in", retry_in)
                .field("failures", failures)
                .finish(),
        }
    }
}

/// One service's counter snapshot ([`CompileService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Builds accepted onto the queue.
    pub enqueued: u64,
    /// Builds that finished in time and published.
    pub completed: u64,
    /// Nanoseconds spent inside completed builds (mean build latency:
    /// divide by [`completed`](Self::completed)).
    pub build_ns: u64,
    /// Builds that ran and returned an error.
    pub failed: u64,
    /// Builds whose builder panicked (caught; slot vacated).
    pub panicked: u64,
    /// Submits shed at the queue-depth (or build-cap) limit.
    pub shed: u64,
    /// Submits rejected because the key was quarantined.
    pub quarantine_rejects: u64,
    /// Builds dropped for exceeding their deadline (queued or built).
    pub deadline_expired: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub queue_depth_peak: usize,
    /// Keys currently quarantined.
    pub quarantined_keys: usize,
}

/// A key's quarantine record, as seen by [`CompileService::quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineInfo {
    /// Consecutive failures recorded.
    pub failures: u32,
    /// Time until the next probe is admitted (zero if expired).
    pub retry_in: Duration,
    /// `Display` form of the most recent failure.
    pub last_error: String,
}

struct QEntry {
    failures: u32,
    until: Instant,
    /// A post-expiry rebuild probe is queued or building; further
    /// submits stay on their fallback until it resolves.
    probing: bool,
    last_error: String,
}

/// A queued build, lent the key by the job's ticket (which owns the one
/// clone a miss makes).
type Builder<V> = Box<dyn FnOnce(&CacheKey) -> Result<Arc<V>, String> + Send + 'static>;

struct Job<V: ?Sized> {
    ticket: crate::cache::BuildTicket<V>,
    builder: Builder<V>,
    deadline: Instant,
}

#[derive(Default)]
struct StatCells {
    enqueued: AtomicU64,
    completed: AtomicU64,
    build_ns: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    shed: AtomicU64,
    quarantine_rejects: AtomicU64,
    deadline_expired: AtomicU64,
    depth_peak: AtomicUsize,
}

struct Shared<V: ?Sized> {
    cache: Arc<LambdaCache<V>>,
    cfg: ServiceConfig,
    /// One deque per worker; owners pop the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Job<V>>>>,
    /// Jobs queued across all deques (shed check + idle sleep guard).
    depth: AtomicUsize,
    /// Jobs currently inside a builder (for [`CompileService::wait_idle`]).
    active: AtomicUsize,
    /// Round-robin enqueue cursor.
    cursor: AtomicUsize,
    idle: Mutex<()>,
    work: Condvar,
    quarantine: Mutex<HashMap<CacheKey, QEntry>>,
    stats: StatCells,
    shutdown: AtomicBool,
}

/// A background compile service over one [`LambdaCache`]. See the
/// [module docs](self) for the degradation ladder.
pub struct CompileService<V: ?Sized + Send + Sync + 'static> {
    shared: Arc<Shared<V>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<V: ?Sized + Send + Sync + 'static> fmt::Debug for CompileService<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("config", &self.shared.cfg)
            .field("queue_depth", &self.shared.depth.load(Ordering::Relaxed))
            .field("active", &self.shared.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<V: ?Sized + Send + Sync + 'static> CompileService<V> {
    /// Starts a service (and its worker threads) over `cache`.
    pub fn new(cache: Arc<LambdaCache<V>>, cfg: ServiceConfig) -> CompileService<V> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cache,
            cfg,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            idle: Mutex::new(()),
            work: Condvar::new(),
            quarantine: Mutex::new(HashMap::new()),
            stats: StatCells::default(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                vsync::thread::Builder::new()
                    .name(format!("vcode-compile-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn compile worker")
            })
            .collect();
        CompileService {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// The cache this service publishes into.
    pub fn cache(&self) -> &Arc<LambdaCache<V>> {
        &self.shared.cache
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// Non-blocking lookup-or-enqueue for `key`. Never compiles and
    /// never waits on the calling thread; see [`Submit`] for the five
    /// served outcomes. `builder` runs on a pool worker only if the
    /// submit is accepted ([`Submit::Queued`]).
    pub fn submit<F>(&self, key: CacheKey, builder: F) -> Submit<V>
    where
        F: FnOnce() -> Result<Arc<V>, String> + Send + 'static,
    {
        self.submit_keyed(&key, move |_| builder())
    }

    /// [`submit`](Self::submit) with the key borrowed from the caller (a
    /// warm submit clones nothing) and lent to the builder.
    pub(crate) fn submit_keyed<F>(&self, key: &CacheKey, builder: F) -> Submit<V>
    where
        F: FnOnce(&CacheKey) -> Result<Arc<V>, String> + Send + 'static,
    {
        let s = &*self.shared;
        // Quarantine gate first: a poisoned key must not even probe the
        // cache's build cap until its backoff expires.
        let now = Instant::now();
        {
            let q = s.quarantine.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = q.get(key) {
                if entry.probing {
                    // A rebuild probe is already in flight.
                    return Submit::InFlight;
                }
                if now < entry.until {
                    s.stats.quarantine_rejects.fetch_add(1, Ordering::Relaxed);
                    return Submit::Quarantined {
                        retry_in: entry.until - now,
                        failures: entry.failures,
                    };
                }
                // Backoff expired: fall through and admit one probe.
            }
        }
        if s.depth.load(Ordering::SeqCst) >= s.cfg.queue_depth {
            s.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Submit::Shed;
        }
        match s.cache.begin_build(key) {
            crate::cache::Probe::Ready(val) => {
                // Someone (a sync path, another service) already built
                // it — a stale quarantine entry is moot.
                s.quarantine
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(key);
                Submit::Ready(val)
            }
            crate::cache::Probe::InFlight => Submit::InFlight,
            crate::cache::Probe::Busy => {
                s.stats.shed.fetch_add(1, Ordering::Relaxed);
                Submit::Shed
            }
            crate::cache::Probe::Claimed(ticket) => {
                // If this is a post-quarantine probe, mark it so racing
                // submits keep serving their fallback meanwhile.
                {
                    let mut q = s.quarantine.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(entry) = q.get_mut(key) {
                        entry.probing = true;
                    }
                }
                let job = Job {
                    ticket,
                    builder: Box::new(builder),
                    deadline: Instant::now() + s.cfg.deadline,
                };
                // Counted before it can be popped: a worker taking the job
                // first would drive `depth` below zero (shedding every submit).
                let depth = s.depth.fetch_add(1, Ordering::SeqCst) + 1;
                let slot = s.cursor.fetch_add(1, Ordering::Relaxed) % s.queues.len();
                s.queues[slot]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push_back(job);
                s.stats.enqueued.fetch_add(1, Ordering::Relaxed);
                s.stats.depth_peak.fetch_max(depth, Ordering::Relaxed);
                // Lock-then-notify pairs with the worker's locked
                // depth re-check: no lost wakeups.
                let _g = s.idle.lock().unwrap_or_else(|e| e.into_inner());
                s.work.notify_one();
                Submit::Queued
            }
        }
    }

    /// The key's quarantine record, if any.
    pub fn quarantine(&self, key: &CacheKey) -> Option<QuarantineInfo> {
        let q = self
            .shared
            .quarantine
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        q.get(key).map(|e| QuarantineInfo {
            failures: e.failures,
            retry_in: e.until.saturating_duration_since(Instant::now()),
            last_error: e.last_error.clone(),
        })
    }

    /// Snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &*self.shared;
        ServiceStats {
            enqueued: s.stats.enqueued.load(Ordering::Relaxed),
            completed: s.stats.completed.load(Ordering::Relaxed),
            build_ns: s.stats.build_ns.load(Ordering::Relaxed),
            failed: s.stats.failed.load(Ordering::Relaxed),
            panicked: s.stats.panicked.load(Ordering::Relaxed),
            shed: s.stats.shed.load(Ordering::Relaxed),
            quarantine_rejects: s.stats.quarantine_rejects.load(Ordering::Relaxed),
            deadline_expired: s.stats.deadline_expired.load(Ordering::Relaxed),
            queue_depth: s.depth.load(Ordering::Relaxed),
            queue_depth_peak: s.stats.depth_peak.load(Ordering::Relaxed),
            quarantined_keys: s.quarantine.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Blocks until no job is queued or building, or `timeout` elapses.
    /// Returns whether the service went idle. Test/drain aid — request
    /// paths never call this.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = &*self.shared;
            if s.depth.load(Ordering::SeqCst) == 0 && s.active.load(Ordering::SeqCst) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            vsync::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops the workers: queued jobs are abandoned (their `Building`
    /// slots vacated), the running build finishes its current job.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.idle.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.work.notify_all();
        }
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<V: ?Sized + Send + Sync + 'static> Drop for CompileService<V> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pops the next job for worker `me`: own queue from the front, then a
/// steal sweep over the other workers' backs.
fn next_job<V: ?Sized>(s: &Shared<V>, me: usize) -> Option<Job<V>> {
    if let Some(job) = s.queues[me]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front()
    {
        return Some(job);
    }
    let n = s.queues.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(job) = s.queues[victim]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back()
        {
            return Some(job);
        }
    }
    None
}

fn worker_loop<V: ?Sized + Send + Sync + 'static>(s: &Shared<V>, me: usize) {
    loop {
        let Some(job) = next_job(s, me) else {
            if s.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let guard = s.idle.lock().unwrap_or_else(|e| e.into_inner());
            if s.depth.load(Ordering::SeqCst) == 0 && !s.shutdown.load(Ordering::SeqCst) {
                // Bounded wait: belt-and-braces against any missed
                // notify; correctness never depends on the timeout.
                let _ = s
                    .work
                    .wait_timeout(guard, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
            }
            continue;
        };
        s.depth.fetch_sub(1, Ordering::SeqCst);
        if s.shutdown.load(Ordering::SeqCst) {
            // Torn down with work queued: vacate the slot so no sync
            // waiter blocks on a build that will never run.
            job.ticket.abandon();
            continue;
        }
        run_job(s, job);
    }
}

fn run_job<V: ?Sized + Send + Sync + 'static>(s: &Shared<V>, job: Job<V>) {
    let Job {
        ticket,
        builder,
        deadline,
    } = job;
    let key = ticket.key().clone();
    let start = Instant::now();
    if start > deadline {
        // Expired while queued: never run the builder.
        ticket.abandon();
        s.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        quarantine_failure(s, key, "build deadline expired in queue".to_string());
        return;
    }
    // The job stays `active` until its outcome is fully *recorded*
    // (publish or quarantine entry), not merely until the builder
    // returns — `wait_idle` reports idle off this counter, so
    // decrementing before the bookkeeping lets a drain-then-inspect
    // caller read the quarantine map a beat too early.
    s.active.fetch_add(1, Ordering::SeqCst);
    let outcome = catch_unwind(AssertUnwindSafe(|| builder(&key)));
    let elapsed = start.elapsed();
    let now = Instant::now();
    match outcome {
        Ok(Ok(val)) if now <= deadline => {
            // `finish` is pointer-checked: if stall recovery vacated the
            // slot meanwhile, the value is simply not cached.
            ticket.finish(val);
            s.stats.completed.fetch_add(1, Ordering::Relaxed);
            s.stats
                .build_ns
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            s.quarantine
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key);
        }
        Ok(Ok(_)) => {
            // Finished past the deadline: the result is discarded — a
            // builder this slow must not be hot-looped, so the key is
            // quarantined like a failure.
            ticket.abandon();
            s.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            quarantine_failure(s, key, format!("build overran its deadline ({elapsed:?})"));
        }
        Ok(Err(e)) => {
            ticket.abandon();
            s.stats.failed.fetch_add(1, Ordering::Relaxed);
            quarantine_failure(s, key, e);
        }
        Err(panic) => {
            ticket.abandon();
            s.stats.panicked.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|m| (*m).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "builder panicked".to_string());
            quarantine_failure(s, key, format!("builder panicked: {msg}"));
        }
    }
    s.active.fetch_sub(1, Ordering::SeqCst);
}

/// Records a failed/expired build: creates or extends the key's
/// quarantine entry with exponential backoff.
fn quarantine_failure<V: ?Sized>(s: &Shared<V>, key: CacheKey, error: String) {
    let mut q = s.quarantine.lock().unwrap_or_else(|e| e.into_inner());
    let entry = q.entry(key).or_insert_with(|| QEntry {
        failures: 0,
        until: Instant::now(),
        probing: false,
        last_error: String::new(),
    });
    entry.failures = entry.failures.saturating_add(1);
    let shift = entry.failures.saturating_sub(1).min(16);
    let backoff = s
        .cfg
        .quarantine_base
        .saturating_mul(1u32 << shift)
        .min(s.cfg.quarantine_cap);
    entry.until = Instant::now() + backoff;
    entry.probing = false;
    entry.last_error = error;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn key(n: u8) -> CacheKey {
        CacheKey::new(crate::engine::TargetId::X64, vec![n])
    }

    fn service(cfg: ServiceConfig) -> CompileService<u64> {
        CompileService::new(Arc::new(LambdaCache::new(64)), cfg)
    }

    fn tight() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            deadline: Duration::from_secs(2),
            quarantine_base: Duration::from_millis(20),
            quarantine_cap: Duration::from_millis(200),
        }
    }

    #[test]
    fn builds_in_background_and_publishes() {
        let sv = service(tight());
        match sv.submit(key(1), || Ok(Arc::new(41u64))) {
            Submit::Queued => {}
            other => panic!("expected Queued, got {other:?}"),
        }
        assert!(sv.wait_idle(Duration::from_secs(5)));
        assert_eq!(sv.cache().peek(&key(1)).as_deref(), Some(&41));
        match sv.submit(key(1), || Ok(Arc::new(99u64))) {
            Submit::Ready(v) => assert_eq!(*v, 41),
            other => panic!("expected Ready, got {other:?}"),
        }
        let st = sv.stats();
        assert_eq!(st.enqueued, 1);
        assert_eq!(st.completed, 1);
    }

    #[test]
    fn failing_key_quarantines_and_recovers_after_backoff() {
        let sv = service(tight());
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        assert!(matches!(
            sv.submit(key(2), move || {
                a.fetch_add(1, Ordering::SeqCst);
                Err("boom".to_string())
            }),
            Submit::Queued
        ));
        assert!(sv.wait_idle(Duration::from_secs(5)));
        // Quarantined: immediate resubmits are rejected without running.
        let q = sv.quarantine(&key(2)).expect("quarantined");
        assert_eq!(q.failures, 1);
        assert!(q.last_error.contains("boom"));
        match sv.submit(key(2), || Ok(Arc::new(1u64))) {
            Submit::Quarantined { failures: 1, .. } => {}
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        // After backoff expiry one probe is admitted; success clears.
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(
            sv.submit(key(2), || Ok(Arc::new(7u64))),
            Submit::Queued
        ));
        assert!(sv.wait_idle(Duration::from_secs(5)));
        assert!(sv.quarantine(&key(2)).is_none());
        assert_eq!(sv.cache().peek(&key(2)).as_deref(), Some(&7));
    }

    #[test]
    fn panicking_builder_is_caught_and_quarantined() {
        let sv = service(tight());
        assert!(matches!(
            sv.submit(key(3), || panic!("kaboom")),
            Submit::Queued
        ));
        assert!(sv.wait_idle(Duration::from_secs(5)));
        let q = sv.quarantine(&key(3)).expect("quarantined after panic");
        assert!(q.last_error.contains("kaboom"), "{}", q.last_error);
        assert_eq!(sv.stats().panicked, 1);
        // The slot was vacated: the cache holds nothing for the key.
        assert!(sv.cache().peek(&key(3)).is_none());
    }

    #[test]
    fn queue_depth_sheds_load() {
        // One worker wedged on a slow build; depth 1 → the second cold
        // key queues, the third sheds.
        let sv = service(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..tight()
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(matches!(
            sv.submit(key(4), move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Arc::new(4u64))
            }),
            Submit::Queued
        ));
        // Wait until the worker picks the job up (depth back to 0).
        let t0 = Instant::now();
        while sv.stats().queue_depth > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            sv.submit(key(5), || Ok(Arc::new(5u64))),
            Submit::Queued
        ));
        match sv.submit(key(6), || Ok(Arc::new(6u64))) {
            Submit::Shed => {}
            other => panic!("expected Shed, got {other:?}"),
        }
        assert_eq!(sv.stats().shed, 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert!(sv.wait_idle(Duration::from_secs(5)));
        assert_eq!(sv.cache().peek(&key(4)).as_deref(), Some(&4));
        assert_eq!(sv.cache().peek(&key(5)).as_deref(), Some(&5));
        assert!(sv.cache().peek(&key(6)).is_none(), "shed key never built");
    }

    #[test]
    fn duplicate_submits_collapse_to_one_build() {
        let sv = service(ServiceConfig {
            workers: 1,
            ..tight()
        });
        let runs = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (r, g) = (Arc::clone(&runs), Arc::clone(&gate));
        assert!(matches!(
            sv.submit(key(7), move || {
                r.fetch_add(1, Ordering::SeqCst);
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Arc::new(7u64))
            }),
            Submit::Queued
        ));
        for _ in 0..16 {
            let r = Arc::clone(&runs);
            match sv.submit(key(7), move || {
                r.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(7u64))
            }) {
                Submit::Queued | Submit::InFlight => {}
                other => panic!("expected collapse, got {other:?}"),
            }
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert!(sv.wait_idle(Duration::from_secs(5)));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one build per key");
        assert_eq!(sv.cache().peek(&key(7)).as_deref(), Some(&7));
    }

    #[test]
    fn deadline_overrun_discards_and_quarantines() {
        let sv = service(ServiceConfig {
            workers: 1,
            deadline: Duration::from_millis(10),
            ..tight()
        });
        assert!(matches!(
            sv.submit(key(8), || {
                std::thread::sleep(Duration::from_millis(40));
                Ok(Arc::new(8u64))
            }),
            Submit::Queued
        ));
        assert!(sv.wait_idle(Duration::from_secs(5)));
        assert!(sv.cache().peek(&key(8)).is_none(), "overrun result dropped");
        assert_eq!(sv.stats().deadline_expired, 1);
        let q = sv.quarantine(&key(8)).expect("overrun quarantines");
        assert!(q.last_error.contains("overran"), "{}", q.last_error);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let sv = service(ServiceConfig {
            workers: 1,
            quarantine_base: Duration::from_millis(10),
            quarantine_cap: Duration::from_millis(25),
            ..tight()
        });
        for want_failures in 1..=4u32 {
            // Wait out any prior backoff, then probe with a failure.
            let t0 = Instant::now();
            loop {
                match sv.quarantine(&key(9)) {
                    Some(q) if q.retry_in > Duration::ZERO => {
                        std::thread::sleep(q.retry_in.min(Duration::from_millis(5)));
                    }
                    _ => break,
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "backoff never expired"
                );
            }
            assert!(matches!(
                sv.submit(key(9), || Err("still bad".to_string())),
                Submit::Queued
            ));
            assert!(sv.wait_idle(Duration::from_secs(5)));
            let q = sv.quarantine(&key(9)).unwrap();
            assert_eq!(q.failures, want_failures);
            // Backoff: 10, 20, then capped at 25ms.
            assert!(q.retry_in <= Duration::from_millis(25));
        }
    }

    #[test]
    fn shutdown_abandons_queued_work() {
        let sv = service(ServiceConfig {
            workers: 1,
            queue_depth: 8,
            ..tight()
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(matches!(
            sv.submit(key(10), move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Arc::new(10u64))
            }),
            Submit::Queued
        ));
        let t0 = Instant::now();
        while sv.stats().queue_depth > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            sv.submit(key(11), || Ok(Arc::new(11u64))),
            Submit::Queued
        ));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        sv.shutdown();
        // The queued-but-never-run job's slot was vacated: a sync build
        // can claim the key immediately (no wedge).
        let cache = Arc::clone(sv.cache());
        let v =
            cache.get_or_insert_with::<std::convert::Infallible>(key(11), || Ok(Arc::new(11u64)));
        assert_eq!(*v.unwrap(), 11);
    }
}
