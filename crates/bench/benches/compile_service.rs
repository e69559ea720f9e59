//! The async compile service: warm-up latency, degradation-ladder
//! economics, and load shedding under a submit flood.
//!
//! Three questions a serve-while-compiling engine must answer with
//! numbers:
//!
//! - **warm-up latency**: how long after `compile_async` does native
//!   code publish? (The window in which requests ride the interpreter.)
//! - **fallback-vs-native crossover**: the interpreter serves at some
//!   multiple of native cost; dividing the cold-compile cost by that
//!   per-call penalty gives the call count below which blocking on the
//!   compiler would have been *faster* than degrading — the economic
//!   justification for the ladder.
//! - **load shedding**: a flood of submits against a small queue must
//!   come back typed (`Shed`), never blocked — and the service must
//!   still publish everything it accepted.
//!
//! The gates are the flood's counts (exact) and the ladder's direction
//! (interpreter over native, the median of alternating window pairs);
//! the latencies are reported and kept, not gated.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::engine::{Engine, Program, TargetId};
use vcode::{BinOp, CacheKey, CompileService, LambdaCache, ServiceConfig, Submit};
use vcode_bench::{median, paired_windows, snapshot, window_ns};

/// A `body`-instruction straight-line program, distinct per `salt`.
fn prog(salt: i32, body: usize) -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    for i in 0..body {
        match i % 3 {
            0 => p.bin_imm(BinOp::Xor, 2, 2, salt),
            1 => p.bin(BinOp::Add, 2, 2, 0),
            _ => p.bin_imm(BinOp::And, 2, 2, 0x7fff_fffe),
        }
    }
    p.ret(2);
    p
}

/// Best-of-windows ns per op for `f` (the reported latencies).
fn measure(reps: u32, windows: u32, mut f: impl FnMut()) -> f64 {
    window_ns(reps, &mut f); // warmup
    (0..windows)
        .map(|_| window_ns(reps, &mut f))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = snapshot::smoke();
    let reps: u32 = if smoke { 200 } else { 2000 };
    let body = 128usize;
    let mut failures = Vec::new();

    let mut e = Engine::new(256);
    e.register(Arc::new(vcode_x64::X64Backend));
    println!("=== Compile service (x64 backend, {body}-insn programs) ===");

    // --- Warm-up latency: compile_async → native publish. -------------
    let rounds = if smoke { 5 } else { 20 };
    let mut best_us = f64::INFINITY;
    for salt in 0..rounds {
        let p = prog(1000 + salt, body);
        let t = Instant::now();
        let h = e.compile_async(TargetId::X64, &p).unwrap();
        while !h.native_ready() {
            std::hint::spin_loop();
            if t.elapsed() > Duration::from_secs(10) {
                failures.push("compile_service: background build never published".into());
                break;
            }
        }
        best_us = best_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    println!("  warm-up latency (submit -> native)  {best_us:>10.1} us");

    // --- Warm submit: the Ready fast path. -----------------------------
    let p = prog(1, body);
    e.compile_cached(TargetId::X64, &p).unwrap();
    let submit_ns = measure(reps * 5, 10, || {
        black_box(e.compile_async(TargetId::X64, black_box(&p)).unwrap());
    });
    println!("  warm submit (Ready fast path)       {submit_ns:>10.1} ns");

    // --- Fallback-vs-native crossover. ---------------------------------
    let native = e.compile_cached(TargetId::X64, &p).unwrap();
    let ladder = paired_windows(
        5,
        || {
            window_ns(reps, || {
                black_box(p.interpret(black_box(&[3, 4]), 1 << 20).unwrap());
            })
        },
        || {
            window_ns(reps * 5, || {
                black_box(native.call(black_box(&[3, 4])).unwrap());
            })
        },
    );
    let interp_ns = median(ladder.iter().map(|w| w.0));
    let native_ns = median(ladder.iter().map(|w| w.1));
    let slowdown = median(ladder.iter().map(|w| w.0 / w.1));
    let cold_ns = measure(reps, 10, || {
        black_box(e.compile(TargetId::X64, black_box(&p)).unwrap());
    });
    let penalty = (interp_ns - native_ns).max(1.0);
    let crossover = cold_ns / penalty;
    println!("  native call                         {native_ns:>10.1} ns");
    println!(
        "  degraded (interpreted) call         {interp_ns:>10.1} ns   ({slowdown:.0}x native)"
    );
    println!("  crossover: degrading wins past      {crossover:>10.1} calls in the build window");
    if slowdown <= 1.0 {
        failures.push(format!(
            "compile_service: interpreter ({interp_ns:.0} ns) not slower than native \
             ({native_ns:.0} ns) — the ladder is measuring the wrong thing"
        ));
    }

    // --- Load shedding under a submit flood. ---------------------------
    // Slow builders, one worker, a 4-deep queue: most of a 64-key flood
    // must shed, every outcome must be typed, and the service must still
    // resolve everything it accepted.
    let sv: CompileService<u64> = CompileService::new(
        Arc::new(LambdaCache::new(256)),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    );
    let flood = 64u64;
    let (mut queued, mut shed) = (0u64, 0u64);
    for n in 0..flood {
        match sv.submit(CacheKey::from_client_hash(TargetId::X64, n), move || {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Arc::new(n))
        }) {
            Submit::Queued => queued += 1,
            Submit::Shed => shed += 1,
            Submit::InFlight | Submit::Ready(_) | Submit::Quarantined { .. } => {}
        }
    }
    if !sv.wait_idle(Duration::from_secs(30)) {
        failures.push("compile_service: flood never drained".into());
    }
    let st = sv.stats();
    println!(
        "  flood of {flood}: {queued} queued, {shed} shed \
         (queue depth 4, peak {})",
        st.queue_depth_peak
    );
    if shed == 0 {
        failures.push("compile_service: flood past queue depth must shed".into());
    }
    if st.enqueued != st.completed + st.failed + st.panicked + st.deadline_expired {
        failures.push(format!(
            "compile_service: accepted builds not all resolved: {st:?}"
        ));
    }

    for (name, value) in [
        ("compile_service/warmup_latency_us", best_us),
        ("compile_service/crossover_calls", crossover),
        ("compile_service/warm_submit_ns", submit_ns),
        ("compile_service/native_call_ns", native_ns),
        ("compile_service/degraded_call_ns", interp_ns),
    ] {
        snapshot::record(name, value);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
