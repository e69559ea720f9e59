//! Hot-path message-transfer kernels in recorded [`Program`] IR — the
//! tier-2 recompilation corpus for the ASH side of the workspace.
//!
//! ASH's signature trick is *integration*: fusing the checksum
//! reduction into the copy loop so data is touched once. The recorded
//! engine IR has no memory operations, so these kernels model the
//! arithmetic half of that loop — a rolling word-reduction over a
//! synthetic stream — written with the redundancy a naive
//! specialization frontend leaves per iteration (copy chains, identity
//! masks, re-stored loop invariants, a dead scratch store). Tier-1
//! transliterates all of it; tier-2's peephole exists to strip it out
//! of the loop body.

use vcode::engine::Program;
use vcode::{BinOp, Cond, UnOp};

/// A checksum-style reduction: fold `count` synthetic words (derived
/// from `seed`) into a ones-complement-flavored accumulator. Per
/// iteration the naive frontend leaves two copies, two identity ops, a
/// re-stored invariant and a dead scratch value for tier-2 to delete.
pub fn checksum_loop() -> Program {
    // args: v0 = count, v1 = seed
    let mut p = Program::new(2).unwrap();
    let top = p.genlabel();
    let done = p.genlabel();
    p.set(2, 0); // sum
    p.un(UnOp::Mov, 3, 0); // i = count
    p.label(top);
    p.br_imm(Cond::Le, 3, 0, done);
    p.set(7, 0xffff); // re-stored loop invariant (mask)
    p.bin(BinOp::Mul, 4, 3, 1); // next "word" of the stream
    p.bin_imm(BinOp::Add, 4, 4, 0x9e37); // stream mix
    p.un(UnOp::Mov, 5, 4); // copy chain…
    p.un(UnOp::Mov, 6, 5); // …two deep
    p.bin_imm(BinOp::Mul, 6, 6, 1); // identity
    p.bin(BinOp::And, 6, 6, 7); // fold to 16 bits
    p.bin(BinOp::Add, 2, 2, 6); // accumulate
    p.bin_imm(BinOp::Rsh, 8, 2, 16); // carry…
    p.bin_imm(BinOp::And, 2, 2, 0xffff);
    p.bin(BinOp::Add, 2, 2, 8); // …folded back in
    p.bin_imm(BinOp::Xor, 8, 8, 0); // dead scratch (never read again)
    p.bin_imm(BinOp::Sub, 3, 3, 1);
    p.jmp(top);
    p.label(done);
    p.ret(2);
    p
}

/// A byte-swapping transfer step (the `swap` pipe of the paper's
/// Table 4 corpus) over a synthetic word stream: rotate each word's
/// halves, xor-merge into the output signature.
pub fn swap_loop() -> Program {
    // args: v0 = count, v1 = seed
    let mut p = Program::new(2).unwrap();
    let top = p.genlabel();
    let done = p.genlabel();
    p.set(2, 0); // signature
    p.un(UnOp::Mov, 3, 0);
    p.label(top);
    p.br_imm(Cond::Le, 3, 0, done);
    p.bin(BinOp::Mul, 4, 1, 3); // next word (nonlinear in the seed —
    p.bin(BinOp::Xor, 4, 4, 3); // a plain seed^i xor-fold would cancel)
    p.un(UnOp::Mov, 5, 4); // naive copy
    p.bin_imm(BinOp::Lsh, 6, 5, 16); // low half up
    p.bin_imm(BinOp::Rsh, 5, 5, 16); // high half down (arithmetic)
    p.bin_imm(BinOp::And, 5, 5, 0xffff);
    p.bin(BinOp::Or, 5, 5, 6); // swapped word
    p.bin_imm(BinOp::Or, 5, 5, 0); // identity
    p.bin(BinOp::Xor, 2, 2, 5); // merge
    p.bin_imm(BinOp::Sub, 3, 3, 1);
    p.jmp(top);
    p.label(done);
    p.ret(2);
    p
}

/// The transfer corpus: `(name, program, representative hot input)`.
pub fn corpus() -> Vec<(&'static str, Program, Vec<i32>)> {
    vec![
        ("ash/cksum64", checksum_loop(), vec![64, 0x1357]),
        ("ash/cksum256", checksum_loop(), vec![256, 0x2468]),
        ("ash/swap128", swap_loop(), vec![128, 0x0f0f]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_bounded() {
        let p = checksum_loop();
        let v = p.interpret(&[64, 0x1357], 1_000_000).unwrap();
        assert_eq!(v, p.interpret(&[64, 0x1357], 1_000_000).unwrap());
        assert!(v >= 0, "carry folding keeps the sum in range: {v}");
        assert_eq!(p.interpret(&[0, 1], 100_000).unwrap(), 0);
    }

    #[test]
    fn swap_signature_changes_with_seed() {
        let p = swap_loop();
        let a = p.interpret(&[32, 1], 1_000_000).unwrap();
        let b = p.interpret(&[32, 2], 1_000_000).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn corpus_runs_under_interpreter_fuel() {
        for (name, p, input) in corpus() {
            p.interpret(&input, 5_000_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
