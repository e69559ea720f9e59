//! Workspace integration: the engine's serve-while-compiling surface.
//!
//! `compile_async` must serve every request immediately — interpreting
//! the recorded stream until the background build publishes — and the
//! degraded answers must match the native ones bit-for-bit on every
//! backend.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vcode::engine::{Backend, Engine, Program, ServeMode, TargetId};
use vcode::{BinOp, Cond, ServiceConfig, UnOp};

fn engine(capacity: usize) -> Engine {
    vcode_sim::engine::install();
    let mut e = Engine::new(capacity);
    e.register(Arc::new(vcode_mips::MipsBackend));
    e.register(Arc::new(vcode_sparc::SparcBackend));
    e.register(Arc::new(vcode_alpha::AlphaBackend));
    e.register(Arc::new(vcode_x64::X64Backend));
    e
}

/// `fn f(x, y) = |x + y| * 3` — the same stream the sync cache suite
/// uses: arithmetic, an immediate form, a branch and a temporary.
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

fn wait_native(e: &Engine, handle: &vcode::AsyncCompile) {
    let t0 = Instant::now();
    while !handle.native_ready() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "background build never published"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(e.service().wait_idle(Duration::from_secs(30)));
}

#[test]
fn degraded_answers_match_native_on_every_backend() {
    let e = engine(64);
    let p = sample();
    let args = [
        (3i32, 4i32),
        (-10, 2),
        (0, 0),
        (1000, -2000),
        (123_456, -654_321),
        (i32::MAX, 1), // wrapping case: degraded and native must agree
    ];
    for id in TargetId::ALL {
        let handle = e.compile_async(id, &p).unwrap();
        // Whatever tier serves, the request is answerable *now*.
        let first: Vec<i64> = args
            .iter()
            .map(|(x, y)| handle.call(&[*x, *y]).unwrap())
            .collect();
        wait_native(&e, &handle);
        assert!(handle.native_ready(), "{id}");
        let native: Vec<i64> = args
            .iter()
            .map(|(x, y)| handle.call(&[*x, *y]).unwrap())
            .collect();
        assert_eq!(first, native, "{id}: degraded must match native");
        // And the native tier agrees with the sync path.
        let sync = e.compile_cached(id, &p).unwrap();
        for ((x, y), want) in args.iter().zip(&native) {
            assert_eq!(sync.call(&[*x, *y]).unwrap(), *want, "{id} f({x},{y})");
        }
    }
}

#[test]
fn warm_key_is_native_from_the_start() {
    let e = engine(64);
    let p = sample();
    e.compile_cached(TargetId::X64, &p).unwrap();
    let handle = e.compile_async(TargetId::X64, &p).unwrap();
    assert_eq!(handle.mode(), ServeMode::Native);
    assert!(handle.native_ready());
    assert!(handle.lambda().code_len() > 0);
    assert_eq!(handle.call(&[5, 7]).unwrap(), 36);
}

#[test]
fn async_thundering_herd_compiles_once() {
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
            std::thread::sleep(Duration::from_millis(10));
            self.inner.compile(prog)
        }
    }

    let counting = Arc::new(Counting {
        inner: vcode_x64::X64Backend,
        compiles: AtomicUsize::new(0),
    });
    let mut e = Engine::new(64);
    e.register(counting.clone());
    assert!(e.configure_service(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let e = Arc::new(e);
    let p = Arc::new(sample());

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (e, p, barrier) = (e.clone(), p.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                // Non-blocking: every thread gets an answer immediately,
                // degraded or native.
                let h = e.compile_async(TargetId::X64, &p).unwrap();
                h.call(&[2, 3]).unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 15);
    }
    assert!(e.service().wait_idle(Duration::from_secs(30)));
    assert_eq!(
        counting.compiles.load(Ordering::SeqCst),
        1,
        "async thundering herd must compile exactly once"
    );
    // The published build serves natively now.
    let h = e.compile_async(TargetId::X64, &p).unwrap();
    assert_eq!(h.mode(), ServeMode::Native);
}

#[test]
fn degraded_handle_reports_itself_until_upgrade() {
    let mut e = Engine::new(64);
    // A deliberately slow backend so the degraded window is observable.
    #[derive(Debug)]
    struct Slow(vcode_x64::X64Backend);
    impl Backend for Slow {
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
            std::thread::sleep(Duration::from_millis(50));
            self.0.compile(prog)
        }
    }
    e.register(Arc::new(Slow(vcode_x64::X64Backend)));
    let p = sample();
    let h = e.compile_async(TargetId::X64, &p).unwrap();
    assert_eq!(h.mode(), ServeMode::Building);
    assert_eq!(h.lambda().target(), TargetId::X64);
    if !h.native_ready() {
        // Still degraded: code_len advertises the absence of native
        // code.
        assert_eq!(h.lambda().code_len(), 0);
        assert_eq!(h.call(&[1, 2]).unwrap(), 9);
        if !h.native_ready() {
            // Not upgraded even now, so that call was the interpreter's:
            // the handle counted it.
            assert_eq!(h.degraded_calls(), 1);
        }
    }
    wait_native(&e, &h);
    assert!(h.lambda().code_len() > 0, "upgraded handle reports native");
    let degraded = h.degraded_calls();
    assert_eq!(h.call(&[1, 2]).unwrap(), 9);
    assert_eq!(h.degraded_calls(), degraded, "a native call is not counted");
}
