//! The executable-memory pool is quiet in steady state: a stream of
//! never-seen-before programs through `Engine::compile_cached` — every
//! request a compile, an L1 insert and an L1 eviction — maps nothing and
//! unmaps nothing once the L1 is full, because every lambda is installed
//! in a mapping sized by its *finished* code (one page here) and so the
//! mapping each eviction parks is the one the next compile adopts.
//!
//! One test, its own process: `pool_stats()` counters are process-wide.

use harden::XorShift;
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::{BinOp, Cond, UnOp};
use vcode_x64::{drain_pool, pool_stats, ExecMem, X64Backend};

const PAGE: usize = 4096;
/// L1 capacity, distinct programs (16 x the L1: by the time one comes
/// round again it was evicted long ago), and the two phases.
const L1: usize = 256;
const PROGRAMS: usize = 4096;
const WARM_UP: usize = 1024;
const MEASURED: usize = 4096;
const FUEL: u64 = 1_000_000;

/// v0/v1 are the arguments, v2..=v6 temporaries (all set before
/// anything reads them, so every path sees every register defined),
/// v7 the loop counter, which ordinary instructions never touch.
const TEMPS: u64 = 7;
const COUNTER: u8 = 7;

/// One straight-line instruction every backend and the interpreter
/// agree on (no division, shift counts below 32).
fn simple(p: &mut Program, rng: &mut XorShift) {
    const ALU: [BinOp; 6] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    let op = ALU[rng.below(6) as usize];
    let mut reg = || rng.below(TEMPS) as u8;
    let (d, a, b) = (reg(), reg(), reg());
    match rng.below(8) {
        0 => p.set(d, rng.next_u64() as i32),
        1..=3 => p.bin(op, d, a, b),
        4 => p.bin_imm(op, d, a, rng.below(2000) as i32 - 1000),
        // A large immediate: the backend's constant synthesis.
        5 => p.bin_imm(op, d, a, rng.next_u64() as i32),
        6 => p.bin_imm(BinOp::Rsh, d, a, rng.below(32) as i32),
        _ => p.un(UnOp::Neg, d, a),
    }
}

/// A terminating two-argument program of exactly `ops` instructions
/// (`ops` >= 16): ALU operations, small and large immediates, forward
/// skips and counted loops. `serial` is planted in the first, so no two
/// share a cache key.
fn program(rng: &mut XorShift, serial: u32, ops: usize) -> Program {
    let mut p = Program::new(2).unwrap();
    p.set(2, serial as i32);
    for v in 3..TEMPS as u8 {
        p.set(v, rng.next_u64() as i32);
    }
    // Leave room for the longest construct (a loop: 10) and the `ret`.
    while p.len() + 11 < ops {
        match rng.below(12) {
            // A counted loop: two to eight trips over two to six
            // instructions.
            0 => {
                let top = p.genlabel();
                p.set(COUNTER, rng.range(2, 9) as i32);
                p.label(top);
                for _ in 0..rng.range(2, 7) {
                    simple(&mut p, rng);
                }
                p.bin_imm(BinOp::Sub, COUNTER, COUNTER, 1);
                p.br_imm(Cond::Gt, COUNTER, 0, top);
            }
            // A forward branch over one to three instructions.
            1 | 2 => {
                let over = p.genlabel();
                let imm = rng.below(200) as i32 - 100;
                p.br_imm(Cond::Lt, rng.below(TEMPS) as u8, imm, over);
                for _ in 0..rng.range(1, 4) {
                    simple(&mut p, rng);
                }
                p.label(over);
            }
            _ => simple(&mut p, rng),
        }
    }
    while p.len() + 1 < ops {
        simple(&mut p, rng);
    }
    p.ret(rng.below(TEMPS) as u8);
    p
}

#[test]
fn a_cold_compile_stream_makes_no_mapping_syscalls_in_steady_state() {
    let mut rng = XorShift::new(0x9001_57ea_d157_a7e5);
    let cases: Vec<(Program, [i32; 2], i64)> = (0..PROGRAMS)
        .map(|i| {
            let ops = rng.range(16, 257) as usize;
            let p = program(&mut rng, i as u32, ops);
            let args = [rng.next_u64() as i32, rng.range(0, 4096) as i32 - 2048];
            let want = p.interpret(&args, FUEL).unwrap();
            (p, args, want)
        })
        .collect();
    let mut engine = Engine::new(L1);
    engine.register(std::sync::Arc::new(X64Backend));
    let mut request = |n: usize| {
        let (p, args, want) = &cases[n % PROGRAMS];
        // A fresh copy, as a first-sight request has: nothing memoized.
        let lambda = engine.compile_cached(TargetId::X64, &p.clone()).unwrap();
        assert!(lambda.code_len() < PAGE, "program {n} outgrew one page");
        assert_eq!(lambda.call(args).unwrap(), *want, "program {n}");
    };

    (0..WARM_UP).for_each(&mut request);
    let before = pool_stats();
    (WARM_UP..WARM_UP + MEASURED).for_each(&mut request);
    let after = pool_stats();
    assert_eq!(engine.cache_stats().hits, 0, "every request must compile");
    let deltas = [
        after.hits - before.hits,
        after.misses - before.misses,
        after.parked - before.parked,
        after.evicted - before.evicted,
    ];
    println!(
        "pool deltas over {MEASURED} requests: hits {} misses {} parked {} evicted {} (currently parked {})",
        deltas[0], deltas[1], deltas[2], deltas[3], after.currently_parked
    );
    // One adoption and one park per request, on one free list.
    assert_eq!(deltas, [MEASURED as u64, 0, MEASURED as u64, 0]);
    assert!(after.currently_parked <= 2, "{after:?}");

    // The sizing itself: a 250-op program's capacity bound is over two
    // pages, its finished code well under one, and its lambda lives in
    // (and parks into) the one-page class.
    let p = program(&mut rng, PROGRAMS as u32, 250);
    assert!(p.code_capacity() > 2 * PAGE);
    drop(engine);
    drain_pool();
    drop(X64Backend.compile(&p).unwrap());
    assert_eq!(pool_stats().currently_parked, 1);
    let hits = pool_stats().hits;
    let _one_page = ExecMem::new(PAGE).unwrap();
    assert_eq!(
        pool_stats().hits,
        hits + 1,
        "parked outside the one-page class"
    );
    assert_eq!(pool_stats().currently_parked, 0);
}
