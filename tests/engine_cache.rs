//! Workspace integration: the runtime-retargetable engine layer and its
//! sharded compiled-lambda cache.
//!
//! Exercises the full record → compile → execute surface across all four
//! backends (x86-64 natively, MIPS/SPARC/Alpha on their simulators),
//! cache keying (no cross-backend aliasing, hits on recompile), the
//! thundering-herd guarantee with real codegen, and the pool-drain
//! regression: cached native code must stay executable after
//! `drain_pool`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::{BinOp, Cond, UnOp};

fn all_backends() -> Vec<Arc<dyn Backend>> {
    vec![
        Arc::new(vcode_sim::engine::MipsBackend::default()),
        Arc::new(vcode_sim::engine::SparcBackend::default()),
        Arc::new(vcode_sim::engine::AlphaBackend::default()),
        Arc::new(vcode_x64::X64Backend),
    ]
}

fn engine(capacity: usize) -> Engine {
    let mut e = Engine::new(capacity);
    for b in all_backends() {
        e.register(b);
    }
    e
}

/// `fn f(x, y) = |x + y| * 3` — uses arithmetic, an immediate form, a
/// branch and a temporary, so every backend's replay path is exercised.
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

#[test]
fn all_four_backends_agree() {
    let e = engine(64);
    let p = sample();
    for (x, y) in [
        (3i32, 4i32),
        (-10, 2),
        (0, 0),
        (1000, -2000),
        (123_456, -654_321),
    ] {
        let want = i64::from((x + y).abs() * 3);
        for id in TargetId::ALL {
            let f = e.compile_cached(id, &p).unwrap();
            assert_eq!(f.call(&[x, y]).unwrap(), want, "{id} f({x},{y})");
            assert_eq!(f.target(), id);
            assert!(f.code_len() > 0, "{id}");
            assert!(f.insns() > 0, "{id}");
        }
    }
}

#[test]
fn runtime_selection_by_name() {
    let e = engine(16);
    let mut p = Program::new(1).unwrap();
    p.bin_imm(BinOp::Add, 0, 0, 1);
    p.ret(0);
    for name in ["mips", "sparc", "alpha", "x64"] {
        let b = e.backend_by_name(name).unwrap();
        let f = b.compile(&p).unwrap();
        assert_eq!(f.call(&[41]).unwrap(), 42, "{name}");
    }
    assert!(e.backend_by_name("vax").is_err());
}

#[test]
fn same_stream_on_two_backends_does_not_alias() {
    let e = engine(64);
    let p = sample();
    let a = e.compile_cached(TargetId::Mips, &p).unwrap();
    let b = e.compile_cached(TargetId::X64, &p).unwrap();
    // Same vcode stream, different backends: distinct cache entries and
    // distinct code (a MIPS image run natively would be garbage).
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(a.target(), TargetId::Mips);
    assert_eq!(b.target(), TargetId::X64);
    assert_eq!(e.cache().len(), 2);
    // Both entries stay independently warm.
    let a2 = e.compile_cached(TargetId::Mips, &p).unwrap();
    let b2 = e.compile_cached(TargetId::X64, &p).unwrap();
    assert!(Arc::ptr_eq(&a, &a2));
    assert!(Arc::ptr_eq(&b, &b2));
}

#[test]
fn recompile_is_a_cache_hit_with_shared_code() {
    let e = engine(64);
    let p = sample();
    let before = e.cache_stats();
    let f1 = e.compile_cached(TargetId::X64, &p).unwrap();
    let f2 = e.compile_cached(TargetId::X64, &p).unwrap();
    let after = e.cache_stats();
    assert!(Arc::ptr_eq(&f1, &f2), "warm hit must share finished code");
    assert_eq!(after.hits - before.hits, 1);
    assert_eq!(after.misses - before.misses, 1);
    assert_eq!(after.inserts - before.inserts, 1);
    // An equal-content but separately recorded program hits too.
    let f3 = e.compile_cached(TargetId::X64, &sample()).unwrap();
    assert!(Arc::ptr_eq(&f1, &f3));
}

#[test]
fn cached_native_code_survives_drain_pool() {
    let e = engine(64);
    let p = sample();
    let f = e.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f.call(&[5, 7]).unwrap(), 36);
    // Churn some executable memory through the pool, then drain it.
    // Live code is never parked, so the cached lambda must be untouched.
    for _ in 0..8 {
        drop(vcode_x64::ExecMem::new(8 * 4096).unwrap());
    }
    vcode_x64::drain_pool();
    assert_eq!(f.call(&[5, 7]).unwrap(), 36, "cached code after drain");
    // And a fresh lookup still hits the same finished code.
    let f2 = e.compile_cached(TargetId::X64, &p).unwrap();
    assert!(Arc::ptr_eq(&f, &f2));
    assert_eq!(f2.call(&[-4, 1]).unwrap(), 9);
}

#[test]
fn concurrent_same_key_compiles_once() {
    // Real codegen under the herd: N threads race one (backend, stream)
    // key; the backend must run exactly once and everyone shares the
    // result.
    #[derive(Debug)]
    struct Counting {
        inner: vcode_x64::X64Backend,
        compiles: AtomicUsize,
    }
    impl Backend for Counting {
        fn id(&self) -> TargetId {
            TargetId::X64
        }
        fn word_bits(&self) -> u32 {
            64
        }
        fn compile(
            &self,
            prog: &Program,
        ) -> Result<Arc<dyn vcode::engine::Lambda>, vcode::EngineError> {
            self.compiles.fetch_add(1, Ordering::SeqCst);
            self.inner.compile(prog)
        }
    }

    let counting = Arc::new(Counting {
        inner: vcode_x64::X64Backend,
        compiles: AtomicUsize::new(0),
    });
    let mut e = Engine::new(64);
    e.register(counting.clone());
    let e = Arc::new(e);
    let p = Arc::new(sample());

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (e, p, barrier) = (e.clone(), p.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let f = e.compile_cached(TargetId::X64, &p).unwrap();
                f.call(&[2, 3]).unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 15);
    }
    assert_eq!(
        counting.compiles.load(Ordering::SeqCst),
        1,
        "thundering herd must compile exactly once"
    );
}

#[test]
fn uncompiled_backend_errors_are_typed() {
    // An engine with nothing registered: every path reports typed
    // errors, no panics.
    let e = Engine::new(4);
    let p = sample();
    assert!(matches!(
        e.compile(TargetId::Mips, &p),
        Err(vcode::EngineError::UnregisteredBackend(TargetId::Mips))
    ));
    assert!(matches!(
        e.compile_cached(TargetId::Alpha, &p),
        Err(vcode::EngineError::UnregisteredBackend(TargetId::Alpha))
    ));
}

/// A program that binds one label at two positions has no meaning: the
/// interpreter and every backend refuse it with the same typed error —
/// where `compile_cached` used to panic inside the assembler's label
/// table — and neither its key nor the engine is the worse for it.
#[test]
fn a_label_bound_twice_is_refused_alike_by_interpreter_and_backends() {
    let e = engine(16);
    let mut p = Program::new(0).unwrap();
    let l = p.genlabel();
    p.set(0, 1);
    p.jmp(l);
    p.label(l);
    p.set(0, 2);
    p.label(l);
    p.ret(0);
    let refused = |r: Result<i64, vcode::EngineError>, who: &str| match r {
        Err(vcode::EngineError::LabelBoundTwice { label }) => assert_eq!(label, l, "{who}"),
        other => panic!("{who}: expected LabelBoundTwice, got {other:?}"),
    };
    refused(p.interpret(&[], 100), "interpreter");
    for id in TargetId::ALL {
        refused(e.compile(id, &p).map(|_| 0), &format!("{id} compile"));
        // Twice through the cache: the failed build left no claim on
        // the key, so the second request is answered, not stalled.
        for _ in 0..2 {
            let r = e.compile_cached(id, &p).map(|_| 0);
            refused(r, &format!("{id} compile_cached"));
        }
        // The engine still compiles and runs what has a meaning.
        let f = e.compile_cached(id, &sample()).unwrap();
        assert_eq!(f.call(&[-10, 2]).unwrap(), 24, "{id}");
    }
}
