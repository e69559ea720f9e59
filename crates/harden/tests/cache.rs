//! Fault-injection corpus for the engine's compiled-lambda cache:
//! exhaustion, eviction under concurrent load, and poisoned entries
//! (failed compiles). Every failure must surface as a typed
//! [`vcode::EngineError`] — never a panic — and the cache must stay
//! fully usable afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use vcode::engine::{Backend, Engine, Lambda, Program, TargetId};
use vcode::{BinOp, CacheKey, EngineError, LambdaCache};

fn engine(capacity: usize) -> Engine {
    let mut e = Engine::new(capacity);
    e.register(Arc::new(vcode_sim::engine::MipsBackend::default()));
    e.register(Arc::new(vcode_x64::X64Backend));
    e
}

/// `fn f(x) = x * k + k`, distinct per `k` so every program is a
/// distinct cache key with a distinct result.
fn prog(k: i32) -> Program {
    let mut p = Program::new(1).unwrap();
    p.bin_imm(BinOp::Mul, 0, 0, k);
    p.bin_imm(BinOp::Add, 0, 0, k);
    p.ret(0);
    p
}

#[test]
fn exhaustion_evicts_but_never_fails() {
    // Far more distinct programs than the cache retains: every compile
    // must still succeed, evictions must be counted, and the cache must
    // end up within its capacity.
    let e = engine(4);
    for k in 1..=40 {
        let f = e.compile_cached(TargetId::X64, &prog(k)).unwrap();
        assert_eq!(f.call(&[10]).unwrap(), i64::from(10 * k + k), "k={k}");
    }
    let s = e.cache_stats();
    assert_eq!(s.inserts, 40);
    assert!(s.evictions >= 36, "evictions {}", s.evictions);
    assert!(e.cache().len() <= 4);
    // Still fully usable after the churn.
    let f = e.compile_cached(TargetId::X64, &prog(1)).unwrap();
    assert_eq!(f.call(&[1]).unwrap(), 2);
}

#[test]
fn eviction_under_concurrent_load_stays_consistent() {
    // Threads hammer a tiny cache with overlapping key sets, forcing
    // constant eviction races. Every call must return the right answer
    // and the cache must remain within capacity with sane counters.
    let e = Arc::new(engine(3));
    const THREADS: usize = 6;
    const ROUNDS: usize = 50;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (e, barrier) = (e.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ROUNDS {
                    let k = ((t + i) % 8 + 1) as i32;
                    let f = e.compile_cached(TargetId::X64, &prog(k)).unwrap();
                    assert_eq!(f.call(&[7]).unwrap(), i64::from(7 * k + k));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = e.cache_stats();
    assert!(e.cache().len() <= 3);
    assert!(s.inserts >= 8, "every key compiled at least once");
    // Conservation: every lookup was either a hit or a miss.
    assert_eq!(s.hits + s.misses, (THREADS * ROUNDS) as u64);
}

/// A backend that fails a configurable number of compiles before
/// recovering — the poisoned-entry fault.
#[derive(Debug)]
struct Flaky {
    inner: vcode_x64::X64Backend,
    failures_left: AtomicUsize,
    attempts: AtomicUsize,
}

impl Backend for Flaky {
    fn id(&self) -> TargetId {
        TargetId::X64
    }
    fn word_bits(&self) -> u32 {
        64
    }
    fn compile(&self, prog: &Program) -> Result<Arc<dyn Lambda>, EngineError> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        if self
            .failures_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(EngineError::Exec("injected compile failure".into()));
        }
        self.inner.compile(prog)
    }
}

#[test]
fn failed_compile_does_not_poison_the_key() {
    let flaky = Arc::new(Flaky {
        inner: vcode_x64::X64Backend,
        failures_left: AtomicUsize::new(2),
        attempts: AtomicUsize::new(0),
    });
    let mut e = Engine::new(8);
    e.register(flaky.clone());
    let p = prog(3);
    // Two injected failures: each returns the typed error to the caller
    // and leaves the slot vacant.
    for _ in 0..2 {
        match e.compile_cached(TargetId::X64, &p) {
            Err(EngineError::Exec(msg)) => assert!(msg.contains("injected")),
            other => panic!("expected injected failure, got {other:?}"),
        }
    }
    // Third attempt recovers; fourth is a warm hit (no new attempt).
    let f = e.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f.call(&[5]).unwrap(), 18);
    let f2 = e.compile_cached(TargetId::X64, &p).unwrap();
    assert!(Arc::ptr_eq(&f, &f2));
    assert_eq!(flaky.attempts.load(Ordering::SeqCst), 3);
}

#[test]
fn racing_threads_all_see_the_typed_error_then_recover() {
    let flaky = Arc::new(Flaky {
        inner: vcode_x64::X64Backend,
        failures_left: AtomicUsize::new(1),
        attempts: AtomicUsize::new(0),
    });
    let mut e = Engine::new(8);
    e.register(flaky.clone());
    let e = Arc::new(e);
    let p = Arc::new(prog(4));
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (e, p, barrier) = (e.clone(), p.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                // One racer eats the injected failure and retries; the
                // cache must never panic, hang, or hand out a poisoned
                // slot — eventual success for everyone.
                for _ in 0..3 {
                    if let Ok(f) = e.compile_cached(TargetId::X64, &p) {
                        return f.call(&[10]).unwrap();
                    }
                }
                panic!("compile never recovered");
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 44);
    }
}

#[test]
fn zero_capacity_cache_compiles_but_retains_nothing() {
    let e = engine(0);
    let p = prog(2);
    let f = e.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f.call(&[3]).unwrap(), 8);
    assert_eq!(e.cache().len(), 0, "capacity 0 caches nothing");
    // Compiling again builds fresh code — still correct, never a panic.
    let f2 = e.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f2.call(&[3]).unwrap(), 8);
}

#[test]
fn direct_cache_api_survives_builder_panic() {
    // The engine never panics in a builder, but the cache is a public
    // type: a client builder that panics must not wedge the slot.
    let c: LambdaCache<u32> = LambdaCache::new(4);
    let key = CacheKey::from_client_hash(TargetId::X64, 0x1234);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.get_or_insert_with::<std::convert::Infallible>(key.clone(), || panic!("builder exploded"))
    }));
    assert!(r.is_err());
    // The key is vacant, not wedged: the next builder runs and wins.
    let v = c
        .get_or_insert_with::<std::convert::Infallible>(key, || Ok(Arc::new(7)))
        .unwrap();
    assert_eq!(*v, 7);
}
