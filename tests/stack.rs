//! Workspace integration: the one client of `vcode::CodeStack` — the
//! engine's lambdas, on all four backends — through its L1 → L2 →
//! build → store-through pipeline.
//!
//! Every count is read from the instance that produced it (a tier, a
//! backend), so the tests run in parallel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use vcode::engine::{Backend, Engine, EngineError, Lambda, Program, TargetId};
use vcode::{ArtifactView, BinOp, CacheKey, Cond, PersistError, PersistStats, UnOp};

fn backends() -> [Arc<dyn Backend>; 4] {
    [
        Arc::new(vcode_sim::engine::MipsBackend::default()),
        Arc::new(vcode_sim::engine::SparcBackend::default()),
        Arc::new(vcode_sim::engine::AlphaBackend::default()),
        Arc::new(vcode_x64::X64Backend),
    ]
}

fn engine(dir: &std::path::Path) -> Engine {
    engine_over(dir, backends())
}

fn engine_over(
    dir: &std::path::Path,
    backends: impl IntoIterator<Item = Arc<dyn Backend>>,
) -> Engine {
    let mut e = Engine::new(16);
    for b in backends {
        e.register(b);
    }
    assert!(e.enable_persist(dir).expect("tier attaches"));
    e
}

/// A real backend that counts the programs it compiles.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Backend>,
    compiled: AtomicU64,
}

impl Backend for Counting {
    fn id(&self) -> TargetId {
        self.inner.id()
    }

    fn word_bits(&self) -> u32 {
        self.inner.word_bits()
    }

    fn compile(&self, prog: &Program) -> Result<Arc<dyn Lambda>, EngineError> {
        self.compiled.fetch_add(1, Ordering::Relaxed);
        self.inner.compile(prog)
    }

    fn adopt(&self, artifact: &ArtifactView<'_>) -> Result<Arc<dyn Lambda>, PersistError> {
        self.inner.adopt(artifact)
    }
}

/// An engine over `dir` whose backends count their compiles, and those
/// backends.
fn counted_engine(dir: &std::path::Path) -> (Engine, Vec<Arc<Counting>>) {
    let counted: Vec<_> = backends()
        .into_iter()
        .map(|inner| {
            Arc::new(Counting {
                inner,
                compiled: AtomicU64::new(0),
            })
        })
        .collect();
    let e = engine_over(
        dir,
        counted.iter().map(|b| Arc::clone(b) as Arc<dyn Backend>),
    );
    (e, counted)
}

/// Programs the backend for `target` among `counted` has compiled.
fn compiles(counted: &[Arc<Counting>], target: TargetId) -> u64 {
    let b = counted
        .iter()
        .find(|b| b.id() == target)
        .expect("registered");
    b.compiled.load(Ordering::Relaxed)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcode-stack-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `fn f(x, y) = |x + y| * 3`: arithmetic, an immediate form, a branch
/// and a temporary.
fn sample() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    let skip = p.genlabel();
    p.br_imm(Cond::Ge, 2, 0, skip);
    p.un(UnOp::Neg, 2, 2);
    p.label(skip);
    p.bin_imm(BinOp::Mul, 2, 2, 3);
    p.ret(2);
    p
}

fn key_for(p: &Program, target: TargetId) -> CacheKey {
    let (bytes, hash) = p.encoded();
    CacheKey::from_encoded(target, Arc::clone(bytes), *hash)
}

/// (hits, misses, stores, rejects) `tier` gained since `before`.
fn gained(tier: PersistStats, before: PersistStats) -> (u64, u64, u64, u64) {
    (
        tier.hits - before.hits,
        tier.misses - before.misses,
        tier.stores - before.stores,
        tier.rejects - before.rejects,
    )
}

fn engine_stats(e: &Engine) -> PersistStats {
    e.persist_tier().expect("tier attached").stats()
}

/// (hits, misses, stores, rejects) of `e`'s own tier, since it opened.
fn engine_counts(e: &Engine) -> (u64, u64, u64, u64) {
    gained(engine_stats(e), PersistStats::default())
}

/// A miss reaches the persistent tier: a cold `compile_cached` leaves an
/// artifact behind, and a fresh engine over that directory serves the
/// same request from disk — one persist hit, and not one program
/// compiled.
#[test]
fn a_warm_directory_serves_a_miss_without_generating_code() {
    let dir = scratch_dir("warm");
    let p = sample();
    for target in [TargetId::X64, TargetId::Mips] {
        let (cold, counted) = counted_engine(&dir);
        let f = cold.compile_cached(target, &p).unwrap();
        assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
        assert_eq!(
            engine_counts(&cold),
            (0, 1, 1, 0),
            "{target}: probe miss, store"
        );
        assert_eq!(compiles(&counted, target), 1, "{target}: one cold build");
        let tier = cold.persist_tier().expect("tier attached");
        assert!(
            tier.path_for(&key_for(&p, target)).exists(),
            "{target}: a cold build must leave an artifact"
        );
        drop(cold);

        let (warm, counted) = counted_engine(&dir);
        let f = warm.compile_cached(target, &p).unwrap();
        assert_eq!(
            engine_counts(&warm),
            (1, 0, 0, 0),
            "{target}: served from disk"
        );
        assert_eq!(
            compiles(&counted, target),
            0,
            "{target}: a warm directory must not generate code"
        );
        assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build → store-through → drop L1 → reload, for the engine's
/// `dyn Lambda` on every backend (the workspace's one codec; DPF and ASH
/// keep no disk tier). The first build is exactly one L2 probe miss and
/// one store; the rebuild by a fresh engine is exactly one L2 hit; a
/// third build is an L1 hit that never reaches the tier; and all three
/// are bit-identical.
#[test]
fn every_backend_round_trips_through_the_stack() {
    // The observable output: the code image, then results over a grid.
    let build = |e: &Engine, target| {
        let f = e.compile_cached(target, &sample()).unwrap();
        let (_, mut out) = f.persist_image().expect("persistable");
        for (x, y) in [(3, 4), (-10, 2), (0, 0), (123_456, -654_321)] {
            out.extend_from_slice(&f.call(&[x, y]).unwrap().to_le_bytes());
        }
        out
    };
    for target in TargetId::ALL {
        let dir = scratch_dir(&format!("rt-{target}"));
        let cold = engine(&dir);
        let fresh = build(&cold, target);
        assert_eq!(engine_counts(&cold), (0, 1, 1, 0), "{target}: cold build");
        drop(cold);

        // A fresh engine over the same directory: nothing in memory, and
        // a tier of its own, counting from zero.
        let warm = engine(&dir);
        let reloaded = build(&warm, target);
        assert_eq!(engine_counts(&warm), (1, 0, 0, 0), "{target}: reload");
        assert_eq!(reloaded, fresh, "{target}: reload must be bit-identical");
        assert_eq!(build(&warm, target), fresh, "{target}: L1 hit");
        assert_eq!(engine_counts(&warm), (1, 0, 0, 0), "{target}: L1 hit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two engines over two directories in one process, driven from two
/// threads in lockstep: each tier reports exactly its own engine's
/// traffic — a different count on each side at every step, so a count
/// that leaked across would show.
#[test]
fn two_engines_in_one_process_count_apart() {
    struct Side {
        dir: PathBuf,
        engine: Engine,
        /// `f(x, y) = (x + y) * k`, one program per distinct `k`.
        factors: Vec<i32>,
    }
    let side = |tag: &str, factors: Vec<i32>| {
        let dir = scratch_dir(tag);
        let engine = engine(&dir);
        Side {
            dir,
            engine,
            factors,
        }
    };
    let program = |k: i32| {
        let mut p = Program::new(2).unwrap();
        p.bin(BinOp::Add, 2, 0, 1);
        p.bin_imm(BinOp::Mul, 2, 2, k);
        p.ret(2);
        p
    };
    let sides = [side("two-a", vec![5]), side("two-b", vec![7, 11, 13])];
    let step = Barrier::new(sides.len());
    // One side's three steps; returns what its tier read after each.
    // Nothing in here panics before the last barrier, so a failure
    // cannot strand the other side at one: the asserts come after.
    let drive = |s: &Side| -> Vec<(bool, (u64, u64, u64, u64))> {
        let compile_all = || {
            s.factors.iter().all(|&k| {
                let f = s.engine.compile_cached(TargetId::X64, &program(k));
                f.and_then(|f| f.call(&[1, 2])).ok() == Some(3 * i64::from(k))
            })
        };
        let mut seen = Vec::new();
        for step_no in 0..3 {
            if step_no > 0 {
                s.engine.cache().clear();
            }
            if step_no == 2 {
                let tier = s.engine.persist_tier().expect("tier attached");
                let victim = tier.path_for(&key_for(&program(s.factors[0]), TargetId::X64));
                let _ = std::fs::write(victim, b"rot");
            }
            // Both sides make this step's traffic at once, and read
            // only when both have made it.
            step.wait();
            let ok = compile_all();
            step.wait();
            seen.push((ok, engine_counts(&s.engine)));
        }
        seen
    };
    let seen: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = sides.iter().map(|s| scope.spawn(|| drive(s))).collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (s, seen) in sides.iter().zip(seen) {
        let n = s.factors.len() as u64;
        let want = vec![
            // Cold: a clean miss and a store each.
            (true, (0, n, n, 0)),
            // L1 dropped: a hit each.
            (true, (n, n, n, 0)),
            // L1 dropped, one artifact rotted: a reject, healed by a store.
            (true, (2 * n - 1, n, n + 1, 1)),
        ];
        assert_eq!(seen, want, "{}", s.dir.display());
        let _ = std::fs::remove_dir_all(&s.dir);
    }
}
