//! The pool's hardening invariant, end to end: **a parked mapping is all
//! zero**, although a finished lambda parks by scrubbing only its dirty
//! prefix (`ExecMem::finalize_written`: the installed length for an
//! engine lambda, finished length plus the code buffer's maximum
//! over-store for code emitted in place).
//!
//! One test, so this binary is one thread using the pool: after a
//! `drain_pool` the mapping a dropped lambda parks is the very mapping
//! the next `ExecMem::new` of its class adopts, and the whole of it is
//! read back.

use harden::XorShift;
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::{BinOp, Cond, UnOp};
use vcode_x64::{drain_pool, pool_stats, ExecMem, X64Backend, X64};

const PAGE: usize = 4096;

/// Runs `parked_by`, which drops code onto an empty pool and returns a
/// size of the class it must have parked in, and adopts the mapping
/// back: it must be the one just parked, and every byte of it zero.
fn assert_parks_zeroed(what: &str, parked_by: impl FnOnce() -> usize) {
    drain_pool();
    assert_eq!(pool_stats().currently_parked, 0);
    let before = pool_stats();
    let capacity = parked_by();
    let parked = pool_stats();
    assert_eq!(parked.currently_parked, 1, "{what}: drop must park");
    let mut mem = ExecMem::new(capacity).unwrap();
    assert_eq!(pool_stats().hits, before.hits + 1, "{what}: must re-adopt");
    assert_eq!(pool_stats().currently_parked, 0);
    let stale = mem.as_mut_slice().iter().position(|&b| b != 0);
    assert_eq!(
        stale, None,
        "{what}: stale byte in a {capacity}-byte mapping"
    );
}

/// The regression-corpus programs, plus a few long seeded mixes (large
/// immediates, many labels) that fill most of a page.
fn corpus() -> Vec<Program> {
    let mut out = harden::regress_programs();
    let mut rng = XorShift::new(0xd127_7e57);
    for len in [64usize, 200, 400] {
        let mut p = Program::new(2).unwrap();
        p.set(2, 1);
        for _ in 0..len {
            let imm = rng.next_u64() as i32;
            match rng.below(4) {
                0 => p.bin(BinOp::Add, 2, 2, 0),
                1 => p.bin_imm(BinOp::Xor, 2, 2, imm),
                2 => p.un(UnOp::Neg, 2, 2),
                _ => {
                    let skip = p.genlabel();
                    p.br_imm(Cond::Lt, 1, imm, skip);
                    p.bin_imm(BinOp::Mul, 2, 2, imm | 1);
                    p.label(skip);
                }
            }
        }
        p.ret(2);
        out.push(p);
    }
    out
}

#[test]
fn parked_mappings_read_zero_whatever_parked_them() {
    let mut engine = Engine::new(0);
    engine.register(std::sync::Arc::new(X64Backend));

    // Tier-1, tier-2 and the L2 adoption path, over the corpus.
    for (i, p) in corpus().iter().enumerate() {
        // The engine installs what was written: the mapping's class is
        // the finished length's, not the capacity bound's.
        assert_parks_zeroed(&format!("program {i}, Engine::compile"), || {
            engine.compile(TargetId::X64, p).unwrap().code_len()
        });
        // Emitted in place, as direct `Assembler` clients do; optimized
        // output over-stores differently from the program's own and parks
        // through the same dirty-prefix scrub.
        let (opt, _) = vcode::tier2::optimize(p);
        let capacity = opt.code_capacity();
        assert_parks_zeroed(&format!("program {i}, tier 2"), || {
            let mut mem = ExecMem::new(capacity).unwrap();
            let fin = vcode::engine::replay::<X64>(&opt, mem.as_mut_slice()).unwrap();
            drop(mem.finalize_written(fin.len + vcode::buf::MAX_OVERSTORE));
            capacity
        });
        let lambda = engine.compile(TargetId::X64, p).unwrap();
        let (args, code) = lambda.persist_image().unwrap();
        let artifact = vcode::persist::Artifact {
            target: TargetId::X64,
            args: args as u8,
            insns: lambda.insns(),
            key: p.encode(),
            meta: Vec::new(),
            code,
        };
        drop(lambda);
        assert_parks_zeroed(&format!("program {i}, adopted"), || {
            drop(X64Backend.adopt(&artifact.view()).unwrap());
            artifact.code.len()
        });
    }

    // Near capacity: one page, programs sized so the emitted code ends
    // just short of it, on it, and past it (overflow: the unfinished
    // `ExecMem` is dropped and scrubs everything).
    let adds = |ops: usize| {
        let mut p = Program::new(1).unwrap();
        for k in 0..ops {
            p.bin_imm(BinOp::Add, 0, 0, 0x0101_0101 * (k as i32 % 7 + 1));
        }
        p.ret(0);
        p
    };
    let len_of = |ops: usize| {
        let mut mem = vec![0u8; 4 * PAGE];
        vcode::engine::replay::<X64>(&adds(ops), &mut mem)
            .unwrap()
            .len
    };
    let per_op = (len_of(200) - len_of(100)) / 100;
    let fills_page = (PAGE - (len_of(100) - 100 * per_op)) / per_op;
    let (mut fitted, mut overflowed) = (0, 0);
    for ops in fills_page - 12..=fills_page + 4 {
        let p = adds(ops);
        assert_parks_zeroed(&format!("{ops} ops in one page"), || {
            let mut mem = ExecMem::new(PAGE).unwrap();
            match vcode::engine::replay::<X64>(&p, mem.as_mut_slice()) {
                Ok(fin) => {
                    fitted += 1;
                    drop(mem.finalize_written(fin.len + vcode::buf::MAX_OVERSTORE));
                }
                Err(_) => {
                    overflowed += 1;
                    drop(mem);
                }
            }
            PAGE
        });
    }
    assert!(
        fitted > 0 && overflowed > 0,
        "the sweep must straddle the page boundary: {fitted} fit, {overflowed} overflowed"
    );

    // Past the scratch bound: code larger than `SCRATCH_MAX`. The
    // per-thread scratch doubles until it fits and is freed after the
    // install rather than kept. The lambda agrees with the interpreter;
    // its mapping is past the pool's largest class, so dropping it
    // unmaps it instead of parking it. The small compile after it, from
    // a fresh scratch, still lands on one page and parks zeroed.
    let huge = adds(vcode::engine::SCRATCH_MAX / 4);
    drain_pool();
    let lambda = engine.compile(TargetId::X64, &huge).unwrap();
    assert!(lambda.code_len() > vcode::engine::SCRATCH_MAX);
    let want = huge.interpret(&[7], u64::MAX).unwrap();
    assert_eq!(lambda.call(&[7]).unwrap(), want);
    drop(lambda);
    assert_eq!(
        pool_stats().currently_parked,
        0,
        "an outsized mapping parked"
    );
    assert_parks_zeroed("the small compile after it", || {
        let len = engine.compile(TargetId::X64, &adds(8)).unwrap().code_len();
        assert!(len < PAGE);
        len
    });
}
