//! The code stack: one owner of the L1 [`LambdaCache`] and the optional
//! on-disk [`DiskTier`], and the one place a miss is routed. Its one
//! product client is the [`Engine`](crate::Engine) (whose persistence
//! the frozen `benchmark/` times). DPF's classifier sets and ASH's
//! kernels are compiled when they are installed and owned by what
//! installed them: nothing caches them (DESIGN.md "Code stack").
//!
//! A client supplies a key, an [`ArtifactCodec`] (if it persists) and one
//! *miss function*, which receives an [`L2`] handle and composes its
//! build with it: `|l2| l2.or_build(|| compile(..))`. A miss runs on the
//! thread that asked — generation is cheap enough to sit on the request
//! path, and waking a worker costs more than the build (DESIGN.md
//! "Compile service") — and [`L2::or_build`] is the only code in the
//! workspace that probes the artifact directory and stores through.
//! DESIGN.md "Code stack" has the whole picture.

use crate::cache::{CacheError, CacheKey, LambdaCache};
use crate::persist::{ArtifactCodec, CacheTier, DiskTier, PersistError};
// `vsync` facade, no raw `std::sync`: two racers through this module are
// a `crates/mcheck` model program.
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

/// One cache + persistent-tier stack over values of type `V` (see the
/// [module docs](self)). No directory is touched until asked for.
#[derive(Debug)]
pub struct CodeStack<V: ?Sized + Send + Sync + 'static> {
    cache: LambdaCache<V>,
    l2: OnceLock<Arc<DiskTier<V>>>,
}

impl<V: ?Sized + Send + Sync + 'static> CodeStack<V> {
    /// A stack whose L1 retains at most ~`capacity` values.
    pub fn new(capacity: usize) -> CodeStack<V> {
        CodeStack {
            cache: LambdaCache::new(capacity),
            l2: OnceLock::new(),
        }
    }

    /// An L1 hit, or exactly one caller per key runs `miss` here while
    /// racers wait (bounded by the cache's stall timeout) and share its
    /// result.
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
        self.cache
            .get_or_build(key, || miss(L2 { tier: tier(), key }))
    }

    /// The L1 cache (direct keying, invalidation, counters).
    pub fn cache(&self) -> &LambdaCache<V> {
        &self.cache
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
    use std::time::Duration;

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

    /// Eight threads, one cold key: returns how often the build ran and
    /// every caller's value.
    fn herd(stack: &CodeStack<Vec<u8>>) -> (usize, Vec<Arc<Vec<u8>>>) {
        const N: usize = 8;
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(N);
        let vals = std::thread::scope(|s| {
            let callers: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let miss = |l2: L2<'_, Vec<u8>>| {
                            l2.or_build(|| {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Long enough that the herd arrives mid-build.
                                std::thread::sleep(Duration::from_millis(20));
                                Ok::<_, String>(Arc::new(vec![0xC3; 16]))
                            })
                        };
                        stack.get_or_build(&key(), miss).expect("build")
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller"))
                .collect::<Vec<_>>()
        });
        (builds.load(Ordering::SeqCst), vals)
    }

    #[test]
    fn a_herd_builds_once_stores_once_and_reloads_once() {
        let f = fixture("herd");
        // Cold directory: one build, one store-through, one shared Arc.
        let (builds, vals) = herd(&f.stack);
        assert_eq!(builds, 1, "the miss function ran once for the whole herd");
        assert!(vals.iter().all(|v| Arc::ptr_eq(v, &vals[0])), "one Arc");
        assert_eq!(f.stored.load(Ordering::SeqCst), 1, "one store-through");
        assert_eq!(f.loaded.load(Ordering::SeqCst), 0, "nothing to load yet");

        // Warm directory, cold L1: the L2 is read once, promoted into L1
        // and shared; nothing builds.
        f.stack.cache().clear();
        let (builds, vals) = herd(&f.stack);
        assert_eq!(builds, 0, "a warm directory builds nothing");
        assert_eq!(f.loaded.load(Ordering::SeqCst), 1, "the L2 was read once");
        assert!(vals.iter().all(|v| Arc::ptr_eq(v, &vals[0])), "one Arc");
        assert_eq!(f.stored.load(Ordering::SeqCst), 1, "nothing re-stored");
        let _ = std::fs::remove_dir_all(&f.dir);
    }

    /// The latch is tested before anything is constructed: a losing
    /// `enable_persist` opens no tier, so it creates no directory.
    #[test]
    fn a_losing_enable_persist_constructs_nothing() {
        let f = fixture("latches");
        let other = f.dir.with_extension("other");
        let codec = Box::new(CountingCodec::default());
        assert!(!f.stack.enable_persist(&other, codec).expect("no I/O"));
        assert!(!other.exists(), "the losing directory was created");
        let _ = std::fs::remove_dir_all(&f.dir);
    }
}
