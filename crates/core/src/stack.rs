//! The code stack: one owner of the L1 [`LambdaCache`], the lazily
//! started [`CompileService`] and the optional on-disk [`DiskTier`], and
//! the one place a miss is routed. The engine's lambdas, DPF's
//! classifier sets and ASH's kernels are each one [`CodeStack`].
//!
//! A client supplies a key, an [`ArtifactCodec`] (if it persists) and one
//! *miss function*, which receives an [`L2`] handle and composes its
//! build with it: `|l2| l2.or_build(|| compile(..))`. [`L2::or_build`] is
//! the only code in the workspace that probes the artifact directory and
//! stores through, on whichever thread the miss runs, so the blocking
//! and the background path cannot drift apart. DESIGN.md "Code stack"
//! has the whole picture.

use crate::cache::{CacheError, CacheKey, LambdaCache, Probe};
use crate::persist::{ArtifactCodec, CacheTier, DiskTier, PersistError};
use crate::service::{CompileService, ServiceConfig, Submit};
// `vsync` facade, no raw `std::sync`: the sync-versus-async race through
// this module is a `crates/mcheck` model program.
use crate::vsync::{Arc, OnceLock};

/// The persistent half of one miss, handed to the client's miss
/// function; empty when no tier is attached.
#[derive(Debug)]
pub struct L2<'a, V: ?Sized> {
    tier: Option<&'a DiskTier<V>>,
    key: &'a CacheKey,
}

impl<V: ?Sized + Send + Sync> L2<'_, V> {
    /// The miss order below L1: probe the tier; on a disk miss run
    /// `build` and store its result through. A rejected artifact is a
    /// counted miss (a bad directory costs time, never correctness); a
    /// failed store is dropped (persisting never fails a build).
    ///
    /// # Errors
    ///
    /// `build`'s error, untouched.
    pub fn or_build<E>(&self, build: impl FnOnce() -> Result<Arc<V>, E>) -> Result<Arc<V>, E> {
        let Some(tier) = self.tier else {
            return build();
        };
        if let Ok(Some(val)) = tier.load(self.key) {
            return Ok(val);
        }
        let val = build()?;
        let _ = tier.store(self.key, &val);
        Ok(val)
    }
}

/// One cache + service + persistent-tier stack over values of type `V`
/// (see the [module docs](self)). Nothing runs and no directory is
/// touched until asked for.
#[derive(Debug)]
pub struct CodeStack<V: ?Sized + Send + Sync + 'static> {
    cache: Arc<LambdaCache<V>>,
    service: OnceLock<CompileService<V>>,
    l2: OnceLock<Arc<DiskTier<V>>>,
}

impl<V: ?Sized + Send + Sync + 'static> CodeStack<V> {
    /// A stack whose L1 retains at most ~`capacity` values.
    pub fn new(capacity: usize) -> CodeStack<V> {
        CodeStack {
            cache: Arc::new(LambdaCache::new(capacity)),
            service: OnceLock::new(),
            l2: OnceLock::new(),
        }
    }

    /// Blocking: an L1 hit, or exactly one caller per key runs `miss`
    /// here while racers wait (bounded by the cache's stall timeout)
    /// and share its result.
    ///
    /// # Errors
    ///
    /// [`CacheError::Build`] with `miss`'s error, handed to every racer
    /// of the round, or [`CacheError::Stalled`]; the key stays usable.
    pub fn get_or_build<E>(
        &self,
        key: &CacheKey,
        miss: impl FnOnce(L2<'_, V>) -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, CacheError<E>> {
        // Looked up by the builder, not before it: a hit never asks.
        let tier = || self.l2.get().map(|t| &**t);
        let stall = self.cache.stall_timeout();
        self.cache
            .get_or_build(key, || miss(L2 { tier: tier(), key }), stall)
    }

    /// Non-blocking: an L1 hit, or `miss` — the function
    /// [`get_or_build`](Self::get_or_build) would run here — is queued
    /// for a service worker and the caller serves its fallback. The
    /// error crosses the service as its `Display` text.
    pub fn submit<E: std::fmt::Display>(
        &self,
        key: &CacheKey,
        miss: impl FnOnce(L2<'_, V>) -> Result<Arc<V>, E> + Send + 'static,
    ) -> Submit<V> {
        // `None` without a tier: such a stack clones nothing per submit.
        let tier = self.l2.get().cloned();
        self.service().submit_keyed(key, move |key| {
            let tier = tier.as_deref();
            miss(L2 { tier, key }).map_err(|e| e.to_string())
        })
    }

    /// Can `key` be served now? An uncounted L1 peek, else — with a tier
    /// attached and no build holding the key — an L2 load promoted into
    /// L1. Never builds and never waits: handles serving a fallback call
    /// this until it answers.
    pub fn poll(&self, key: &CacheKey) -> Option<Arc<V>> {
        if let Some(val) = self.cache.peek(key) {
            return Some(val);
        }
        let tier = Some(&**self.l2.get()?);
        // Promote under the key's `Building` slot: a racing
        // `get_or_build` or `submit` then shares this load instead of
        // repeating it, or compiling beside it.
        match self.cache.begin_build(key) {
            Probe::Ready(val) => Some(val),
            Probe::InFlight | Probe::Busy => None,
            Probe::Claimed(ticket) => {
                // `or_build` with a build that declines: the probe alone
                // (a dropped ticket vacates the slot).
                let val = L2 { tier, key }.or_build(|| Err(())).ok()?;
                ticket.finish(Arc::clone(&val));
                Some(val)
            }
        }
    }

    /// The L1 cache (direct keying, invalidation, counters).
    pub fn cache(&self) -> &Arc<LambdaCache<V>> {
        &self.cache
    }

    /// The compile service, started on first use — with
    /// [`ServiceConfig::default`] unless
    /// [`configure_service`](Self::configure_service) came first.
    pub fn service(&self) -> &CompileService<V> {
        self.service
            .get_or_init(|| CompileService::new(Arc::clone(&self.cache), ServiceConfig::default()))
    }

    /// Starts the service with `cfg`; `false` (and no change) if it
    /// already started.
    pub fn configure_service(&self, cfg: ServiceConfig) -> bool {
        // Latch first: a losing call must not spawn (and join) a pool.
        if self.service.get().is_some() {
            return false;
        }
        let service = CompileService::new(Arc::clone(&self.cache), cfg);
        self.service.set(service).is_ok()
    }

    /// Attaches a persistent tier under `dir`, translating values with
    /// `codec`. First call wins (`false` afterwards, and `dir` is then
    /// neither created nor swept).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn enable_persist(
        &self,
        dir: impl Into<std::path::PathBuf>,
        codec: Box<dyn ArtifactCodec<V>>,
    ) -> Result<bool, PersistError> {
        if self.l2.get().is_some() {
            return Ok(false);
        }
        let tier = DiskTier::new(dir, codec)?;
        Ok(self.l2.set(Arc::new(tier)).is_ok())
    }

    /// The persistent tier, if one was attached.
    pub fn persist_tier(&self) -> Option<&Arc<DiskTier<V>>> {
        self.l2.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TargetId;
    use crate::persist::{Artifact, ArtifactView};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// Byte blobs as "code", counting every translation: `stored` is the
    /// store-throughs that reached the codec, `loaded` the L2 reads that
    /// produced a value.
    #[derive(Default)]
    struct CountingCodec {
        stored: Arc<AtomicUsize>,
        loaded: Arc<AtomicUsize>,
    }

    impl ArtifactCodec<Vec<u8>> for CountingCodec {
        fn to_artifact(
            &self,
            key: &CacheKey,
            val: &Arc<Vec<u8>>,
        ) -> Result<Artifact, PersistError> {
            self.stored.fetch_add(1, Ordering::SeqCst);
            Ok(Artifact {
                target: key.target(),
                args: 0,
                insns: 0,
                key: key.content().to_vec(),
                meta: Vec::new(),
                code: val.as_ref().clone(),
            })
        }

        fn from_artifact(&self, artifact: &ArtifactView<'_>) -> Result<Arc<Vec<u8>>, PersistError> {
            self.loaded.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::new(artifact.code.to_vec()))
        }
    }

    struct Fixture {
        stack: CodeStack<Vec<u8>>,
        stored: Arc<AtomicUsize>,
        loaded: Arc<AtomicUsize>,
        dir: PathBuf,
    }

    fn fixture(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("vcode-stack-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let codec = CountingCodec::default();
        let (stored, loaded) = (Arc::clone(&codec.stored), Arc::clone(&codec.loaded));
        let stack = CodeStack::new(8);
        assert!(stack.enable_persist(&dir, Box::new(codec)).expect("attach"));
        Fixture {
            stack,
            stored,
            loaded,
            dir,
        }
    }

    fn key() -> CacheKey {
        CacheKey::new(TargetId::X64, b"one key".to_vec())
    }

    /// N threads, half blocking and half non-blocking, one cold key:
    /// returns how often the build ran and every caller's final value.
    fn herd(stack: &CodeStack<Vec<u8>>) -> (usize, Vec<Arc<Vec<u8>>>) {
        const N: usize = 8;
        let builds = Arc::new(AtomicUsize::new(0));
        let start = Barrier::new(N);
        let miss = |builds: Arc<AtomicUsize>| {
            move |l2: L2<'_, Vec<u8>>| {
                l2.or_build(|| {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Long enough that the herd arrives mid-build.
                    std::thread::sleep(Duration::from_millis(20));
                    Ok::<_, String>(Arc::new(vec![0xC3; 16]))
                })
            }
        };
        let vals = std::thread::scope(|s| {
            let callers: Vec<_> = (0..N)
                .map(|i| {
                    let (start, miss) = (&start, miss(Arc::clone(&builds)));
                    s.spawn(move || {
                        start.wait();
                        if i % 2 == 0 {
                            return stack.get_or_build(&key(), miss).expect("build");
                        }
                        if let Ok(val) = stack.submit(&key(), miss).served() {
                            return val;
                        }
                        let t0 = Instant::now();
                        loop {
                            if let Some(val) = stack.poll(&key()) {
                                return val;
                            }
                            assert!(t0.elapsed() < Duration::from_secs(30), "never landed");
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller"))
                .collect::<Vec<_>>()
        });
        assert!(stack.service().wait_idle(Duration::from_secs(30)));
        (builds.load(Ordering::SeqCst), vals)
    }

    #[test]
    fn mixed_herd_builds_once_stores_once_and_reloads_once() {
        let f = fixture("herd");
        // Cold directory: one build, one store-through, one shared Arc.
        let (builds, vals) = herd(&f.stack);
        assert_eq!(builds, 1, "the miss function ran once for the whole herd");
        assert!(vals.iter().all(|v| Arc::ptr_eq(v, &vals[0])), "one Arc");
        assert_eq!(f.stored.load(Ordering::SeqCst), 1, "one store-through");
        assert_eq!(f.loaded.load(Ordering::SeqCst), 0, "nothing to load yet");

        // Warm directory, cold L1: the L2 is read once and nothing builds
        // — pollers that find the key in flight leave the disk alone.
        f.stack.cache().clear();
        let (builds, vals) = herd(&f.stack);
        assert_eq!(builds, 0, "a warm directory builds nothing");
        assert_eq!(f.loaded.load(Ordering::SeqCst), 1, "the L2 was read once");
        assert!(vals.iter().all(|v| Arc::ptr_eq(v, &vals[0])), "one Arc");
        assert_eq!(f.stored.load(Ordering::SeqCst), 1, "nothing re-stored");
        let _ = std::fs::remove_dir_all(&f.dir);
    }

    #[test]
    fn poll_promotes_from_l2_and_never_waits_on_a_build() {
        let f = fixture("poll");
        let bare: CodeStack<Vec<u8>> = CodeStack::new(8);
        assert!(bare.poll(&key()).is_none(), "no tier, nothing cached");
        assert!(f.stack.poll(&key()).is_none(), "cold tier: a clean miss");

        let built = f
            .stack
            .get_or_build(&key(), |l2| {
                l2.or_build(|| Ok::<_, String>(Arc::new(vec![7u8; 4])))
            })
            .expect("build");
        f.stack.cache().clear();
        let promoted = f.stack.poll(&key()).expect("artifact on disk");
        assert_eq!(*promoted, *built);
        assert_eq!(f.loaded.load(Ordering::SeqCst), 1);
        let again = f.stack.poll(&key()).expect("now in L1");
        assert!(Arc::ptr_eq(&again, &promoted), "promoted into L1");
        assert_eq!(f.loaded.load(Ordering::SeqCst), 1, "L1 answered");

        // A build in flight: poll answers `None` at once instead of
        // loading beside it or waiting for it.
        f.stack.cache().clear();
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                f.stack
                    .get_or_build(&key(), |_| {
                        entered.wait();
                        release.wait();
                        Ok::<_, String>(Arc::new(vec![9u8; 4]))
                    })
                    .expect("build");
            });
            entered.wait();
            assert!(f.stack.poll(&key()).is_none(), "in flight: not served");
            release.wait();
        });
        assert_eq!(f.loaded.load(Ordering::SeqCst), 1, "no load beside a build");
        assert_eq!(*f.stack.poll(&key()).expect("published"), vec![9u8; 4]);
        let _ = std::fs::remove_dir_all(&f.dir);
    }

    /// Both latches are tested before anything is constructed. A losing
    /// `configure_service` starts no pool — this one's could not even
    /// allocate its queues — and a losing `enable_persist` opens no
    /// tier, so it creates no directory.
    #[test]
    fn a_losing_latch_call_constructs_nothing() {
        let f = fixture("latches");
        f.stack.service();
        let unbuildable = ServiceConfig {
            workers: usize::MAX,
            ..ServiceConfig::default()
        };
        assert!(!f.stack.configure_service(unbuildable));

        let other = f.dir.with_extension("other");
        let codec = Box::new(CountingCodec::default());
        assert!(!f.stack.enable_persist(&other, codec).expect("no I/O"));
        assert!(!other.exists(), "the losing directory was created");
        let _ = std::fs::remove_dir_all(&f.dir);
    }
}
