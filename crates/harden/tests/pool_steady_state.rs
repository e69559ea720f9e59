//! The executable-memory pool is quiet in steady state: a stream of
//! never-seen-before programs through `Engine::compile_cached` — every
//! request a compile, an L1 insert and an L1 eviction — maps nothing and
//! unmaps nothing once the L1 is full, because every lambda is installed
//! in a mapping sized by its *finished* code (one page here) and so the
//! mapping each eviction parks is the one the next compile adopts. The
//! other clients of the install path are held to the same: DPF
//! classifiers, an ASH kernel and a tcc unit each park in the smallest
//! class that holds what they installed (a classifier's code and its
//! tables), and a warmed DPF service's insert/remove churn maps nothing.
//!
//! One test, its own process: `pool_stats()` counters are process-wide.

use harden::XorShift;
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::{BinOp, Cond, UnOp};
use vcode_x64::{drain_pool, pool_stats, ExecMem, X64Backend};

use dpf::packet::{self, PacketSpec};

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

    clients_park_in_their_smallest_class();
    dpf_churn_is_served_by_the_pool();
}

/// Drops `owner`, the only holder of `len` bytes of installed code, and
/// checks that its mapping parked in the smallest class that holds
/// them: the next request of that size adopts it.
fn parks_in_smallest_class<T>(what: &str, len: usize, owner: T) {
    drain_pool();
    drop(owner);
    assert_eq!(pool_stats().currently_parked, 1, "{what}");
    let hits = pool_stats().hits;
    let _class = ExecMem::new(len.div_ceil(PAGE).next_power_of_two() * PAGE).unwrap();
    assert_eq!(
        pool_stats().hits,
        hits + 1,
        "{what}: {len} bytes parked outside the smallest class holding them"
    );
}

/// The 33- and 64-port classifiers of `dpf/tests/engines.rs`, one ASH
/// kernel and one tcc unit are installed right-sized, not in a mapping
/// their capacity estimate would have asked for. A classifier's mapping
/// holds its image, the code and the tables after it, as `emit` writes
/// it: 33 ports fit one page, and the 64-port table needs more.
fn clients_park_in_their_smallest_class() {
    for n in [33, 64] {
        let mut rng = XorShift::new(0x5eeb_0000 + n as u64);
        let mut ports = std::collections::BTreeSet::new();
        while ports.len() < n {
            ports.insert(rng.range(1024, 65_000) as u16);
        }
        let filters: Vec<(u32, dpf::Filter)> = (0..)
            .zip(ports)
            .map(|(i, p)| (i, packet::tcp_port_filter(0x0a00_0002, p).unwrap()))
            .collect();
        let root = dpf::trie::build(&filters);
        let mut buf = vec![0u8; 1 << 20];
        let image = dpf::compile::emit(&root, dpf::Options::default(), &mut buf).unwrap();
        let image_len = image.fin.len - image.fin.entry;
        let set = dpf::compile::compile(&root, dpf::Options::default()).unwrap();
        assert!(set.code_len <= 150, "{} bytes", set.code_len);
        assert_eq!(
            image_len > PAGE,
            n == 64,
            "{n} ports: a {image_len}-byte image"
        );
        parks_in_smallest_class(&format!("{n}-port classifier"), image_len, set);
    }

    let kernel = ash::Pipeline::compile(&[ash::Step::Checksum, ash::Step::Swap]).unwrap();
    assert_eq!(kernel.engine_kind(), ash::EngineKind::Native);
    parks_in_smallest_class("ASH kernel", kernel.code_len, kernel);

    let unit = tcc::Program::compile(
        "int sq(int x) { return x * x; }
         int sum_sq(int n) { int s = 0; while (n > 0) { s = s + sq(n); n = n - 1; } return s; }",
    )
    .unwrap();
    assert_eq!(unit.call_int("sum_sq", &[3]), Ok(14));
    parks_in_smallest_class("tcc unit", unit.code_len, unit);
}

/// DPF installs as one more input: each insert and each remove compiles
/// its set, and the generation it supersedes parks its mapping at
/// reclaim, for the next install to adopt. Warmed for two cycles,
/// 1 000 cycles map nothing.
fn dpf_churn_is_served_by_the_pool() {
    const CYCLES: u32 = 1000;
    let svc = dpf::DpfService::new();
    svc.insert_all(packet::port_filter_set(16, 3000));
    let port = packet::build(&PacketSpec {
        dst_port: 3003,
        ..PacketSpec::default()
    });
    let cycle = |r: u32| {
        let f = packet::tcp_port_filter(0x0a00_0002, 9000 + (r % 8) as u16).unwrap();
        let id = svc.insert(f);
        assert!(svc.remove(id), "cycle {r}");
    };
    (0..2).for_each(cycle);
    let before = pool_stats();
    (2..2 + CYCLES).for_each(cycle);
    let after = pool_stats();
    assert!(svc.is_native());
    assert_eq!(svc.classify(&port), Some(3));
    println!(
        "pool deltas over {CYCLES} DPF insert/remove cycles: hits {} misses {} parked {} evicted {}",
        after.hits - before.hits,
        after.misses - before.misses,
        after.parked - before.parked,
        after.evicted - before.evicted,
    );
    assert_eq!(after.misses - before.misses, 0, "{before:?} -> {after:?}");
}
