//! Hot-path demux kernels in recorded [`Program`] IR — the tier-2
//! recompilation corpus for the DPF side of the workspace.
//!
//! The real DPF engine (see [`crate::compile`]) emits straight through
//! `Assembler<X64>`, exactly as the paper describes. What tiered
//! recompilation needs from this crate is the *shape* of demux work in
//! the engine's replayable IR: compare-ladder classifiers that run on
//! every packet, written with the redundancy a naive filter frontend
//! leaves behind (per-arm re-normalization of the scrutinee, copies,
//! identity arithmetic, re-stored constants). Tier-1 transliterates that
//! redundancy into the code; tier-2 folds it away — these kernels are
//! what the `tier2` bench and the cycle-reduction CI gate measure.

use vcode::engine::Program;
use vcode::{BinOp, Cond, UnOp};

/// A demux compare-ladder over one header word: `arms` resident
/// filters, each checking the scrutinee against its constant and
/// returning the filter id on match; 0 falls through as "no filter".
///
/// Written naively on purpose: every arm re-derives the scrutinee
/// through a copy chain and an identity normalization (`& -1`,
/// `addi 0`) and re-stores the miss marker, the way per-filter
/// template emission does before any cross-arm cleanup.
pub fn demux_ladder(arms: u8) -> Program {
    let mut p = Program::new(1).unwrap();
    let exit = p.genlabel();
    p.set(1, 0); // result: no-match marker
    for k in 0..arms {
        let next = p.genlabel();
        p.un(UnOp::Mov, 2, 0); // re-derive the scrutinee…
        p.un(UnOp::Mov, 3, 2); // …through a copy chain
        p.bin_imm(BinOp::And, 3, 3, -1); // identity normalization
        p.bin_imm(BinOp::Add, 3, 3, 0); // identity offset
        p.set(1, 0); // re-store the miss marker
        p.br_imm(Cond::Ne, 3, arm_key(k), next);
        p.set(1, i32::from(k) + 1);
        p.jmp(exit);
        p.label(next);
    }
    p.label(exit);
    p.ret(1);
    p
}

/// The constant filter key for arm `k` (stable across tiers and runs).
pub fn arm_key(k: u8) -> i32 {
    0x1000 + i32::from(k) * 37
}

/// A per-packet classification loop: classify `count` synthetic headers
/// (derived from a rolling seed) through an `arms`-deep inline ladder
/// and accumulate matched ids. This is the steady-state demux loop a
/// server runs per batch — the code a second tier would be for.
pub fn demux_loop(arms: u8) -> Program {
    // args: v0 = count, v1 = seed
    let mut p = Program::new(2).unwrap();
    let top = p.genlabel();
    let done = p.genlabel();
    p.set(2, 0); // acc
    p.un(UnOp::Mov, 3, 0); // i = count
    p.label(top);
    p.br_imm(Cond::Le, 3, 0, done);
    // header = (seed ^ i) re-derived with naive redundancy each packet
    p.bin(BinOp::Xor, 4, 1, 3);
    p.un(UnOp::Mov, 5, 4);
    p.bin_imm(BinOp::Mul, 5, 5, 1); // identity
    p.bin_imm(BinOp::And, 5, 5, 0xff); // field extract
    let exit = p.genlabel();
    for k in 0..arms {
        let next = p.genlabel();
        p.un(UnOp::Mov, 6, 5); // per-arm copy of the field
        p.bin_imm(BinOp::Add, 6, 6, 0); // identity offset
        p.br_imm(Cond::Ne, 6, (i32::from(k) * 17) & 0xff, next);
        p.bin_imm(BinOp::Add, 2, 2, i32::from(k) + 1);
        p.jmp(exit);
        p.label(next);
    }
    p.label(exit);
    p.bin_imm(BinOp::Sub, 3, 3, 1);
    p.jmp(top);
    p.label(done);
    p.ret(2);
    p
}

/// The demux corpus: `(name, program, representative hot input)`.
pub fn corpus() -> Vec<(&'static str, Program, Vec<i32>)> {
    vec![
        ("dpf/ladder8", demux_ladder(8), vec![arm_key(5)]),
        ("dpf/ladder16", demux_ladder(16), vec![arm_key(11)]),
        ("dpf/loop4x64", demux_loop(4), vec![64, 0x5ead]),
        ("dpf/loop8x32", demux_loop(8), vec![32, 0x0dd5]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_classifies_by_key() {
        let p = demux_ladder(8);
        assert_eq!(p.interpret(&[arm_key(0)], 100_000).unwrap(), 1);
        assert_eq!(p.interpret(&[arm_key(7)], 100_000).unwrap(), 8);
        assert_eq!(p.interpret(&[12345], 100_000).unwrap(), 0);
    }

    #[test]
    fn loop_accumulates_and_terminates() {
        let p = demux_loop(4);
        let a = p.interpret(&[64, 0x5ead], 1_000_000).unwrap();
        let b = p.interpret(&[64, 0x5ead], 1_000_000).unwrap();
        assert_eq!(a, b, "deterministic");
        assert_eq!(p.interpret(&[0, 1], 100_000).unwrap(), 0);
    }

    #[test]
    fn corpus_runs_under_interpreter_fuel() {
        for (name, p, input) in corpus() {
            p.interpret(&input, 5_000_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
