//! Tier-2: an optimizer over the recorded [`Program`] IR, kept as a
//! library-level experiment.
//!
//! The paper's one-pass transliteration compiles in a handful of host
//! instructions per generated instruction, but concedes the output is
//! naive: redundant moves and foldable arithmetic survive into the code.
//! This module measures what undoing that buys:
//!
//! 1. **Peephole + constant folding** ([`optimize`]) — removes
//!    `mov d,d` and collapses move chains, folds `add 0`/`mul 1`-style
//!    identities and fully-constant expressions, deletes stores that are
//!    dead or overwritten before use, and simplifies branches
//!    (jump-to-next deleted, branch-over-jump inverted, unreachable tails
//!    dropped). Trapping operations (`div`/`mod` with a possibly-zero
//!    divisor) are never folded away — tier-2 code must fault exactly
//!    where tier-1 code does.
//! 2. **Register allocation** is not tier-2's any more: the one lowering,
//!    [`replay`], gives each register back after its vreg's last use
//!    from the liveness the program kept while it was recorded
//!    (loop-extended at back edges), so what needs registers is the
//!    stream's *pressure*, not its vreg count. [`replay_opt`] is that
//!    same function under its old name.
//!
//! [`optimize`] preserves the word-portable `i32` semantics of
//! [`Program::interpret`] bit for bit; the differential suite holds
//! optimized code equal to unoptimized code and to the interpreter on
//! every backend.
//!
//! Nothing serves traffic from here. The result that counts is exact:
//! 27 % fewer simulated cycles on the DPF/ASH hot loops, for 7× the
//! compile cost per instruction and 1.07–1.13× on the one target that
//! runs natively — under the 1.2× bar set for keeping a second serving
//! tier, so the engine hands out unoptimized code only (DESIGN.md
//! "Tier-2: a measured experiment"). Callers that want optimized code
//! lower it themselves: `replay::<T>(&optimize(p).0, mem)`.

use crate::engine::{replay, EngineError, POp, Program};
use crate::op::{BinOp, Cond, UnOp};
use crate::target::{Finished, Target};
use std::collections::{HashMap, HashSet};

/// What one [`optimize`] run did, in executable (non-label) instruction
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Executable instructions in the input stream.
    pub insns_in: usize,
    /// Executable instructions surviving optimization.
    pub insns_out: usize,
    /// `mov d,d` (after copy collapsing) deletions.
    pub moves_removed: usize,
    /// Identity and constant folds (`add 0`, `mul 1`, known operands).
    pub folds: usize,
    /// Dead or overwritten-before-use definitions deleted (including
    /// unreachable code after an unconditional transfer).
    pub dead_removed: usize,
    /// Branches deleted (target falls through), rewritten to immediate
    /// form, decided at compile time, or inverted over a jump.
    pub branches_simplified: usize,
}

impl OptStats {
    /// Executable instructions eliminated end to end.
    pub fn eliminated(&self) -> usize {
        self.insns_in.saturating_sub(self.insns_out)
    }

    /// Percentage of input instructions eliminated.
    pub fn eliminated_pct(&self) -> f64 {
        if self.insns_in == 0 {
            0.0
        } else {
            self.eliminated() as f64 * 100.0 / self.insns_in as f64
        }
    }
}

const MAX_PASSES: usize = 8;

fn count_exec(ops: &[POp]) -> usize {
    ops.iter()
        .filter(|o| !matches!(o, POp::Label { .. }))
        .count()
}

/// The interpreter's binary-op semantics, or `None` when the operation
/// would trap (division/remainder by zero) — callers must then keep the
/// original instruction so tier-2 code faults exactly like tier-1.
fn eval_bin(op: BinOp, a: i32, b: i32) -> Option<i32> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Lsh => a.wrapping_shl(b as u32),
        BinOp::Rsh => a.wrapping_shr(b as u32),
    })
}

fn eval_un(op: UnOp, x: i32) -> i32 {
    match op {
        UnOp::Com => !x,
        UnOp::Not => i32::from(x == 0),
        UnOp::Mov => x,
        UnOp::Neg => x.wrapping_neg(),
    }
}

fn eval_cond(c: Cond, a: i32, b: i32) -> bool {
    match c {
        Cond::Lt => a < b,
        Cond::Le => a <= b,
        Cond::Gt => a > b,
        Cond::Ge => a >= b,
        Cond::Eq => a == b,
        Cond::Ne => a != b,
    }
}

/// `!(a c b)` as a condition on the same operand order.
fn invert_cond(c: Cond) -> Cond {
    match c {
        Cond::Lt => Cond::Ge,
        Cond::Le => Cond::Gt,
        Cond::Gt => Cond::Le,
        Cond::Ge => Cond::Lt,
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
    }
}

/// `a c b` as a condition on swapped operands (`b c' a`).
fn swap_cond(c: Cond) -> Cond {
    match c {
        Cond::Lt => Cond::Gt,
        Cond::Le => Cond::Ge,
        Cond::Gt => Cond::Lt,
        Cond::Ge => Cond::Le,
        Cond::Eq => Cond::Eq,
        Cond::Ne => Cond::Ne,
    }
}

fn commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Per-basic-block dataflow facts for the forward simplification pass:
/// which virtual registers hold known constants, and which are verbatim
/// copies of another register. Cleared at every label (unknown incoming
/// edges).
struct BlockState {
    konst: [Option<i32>; 256],
    copy_of: [Option<u8>; 256],
}

impl BlockState {
    fn new() -> BlockState {
        BlockState {
            konst: [None; 256],
            copy_of: [None; 256],
        }
    }

    fn clear(&mut self) {
        self.konst = [None; 256];
        self.copy_of = [None; 256];
    }

    /// The copy-chain root of `v` (chains are kept depth-1).
    fn resolve(&self, v: u8) -> u8 {
        self.copy_of[usize::from(v)].unwrap_or(v)
    }

    fn k(&self, v: u8) -> Option<i32> {
        self.konst[usize::from(v)]
    }

    /// Invalidates every fact involving `d` ahead of its redefinition.
    fn def(&mut self, d: u8) {
        self.konst[usize::from(d)] = None;
        self.copy_of[usize::from(d)] = None;
        for c in self.copy_of.iter_mut() {
            if *c == Some(d) {
                *c = None;
            }
        }
    }

    fn set_const(&mut self, d: u8, v: i32) {
        self.def(d);
        self.konst[usize::from(d)] = Some(v);
    }
}

/// Emits `mov dst, a` (dropping it when it is a self-move) and records
/// the copy fact. `a` must already be copy-resolved.
fn push_mov(out: &mut Vec<POp>, st: &mut BlockState, stats: &mut OptStats, dst: u8, a: u8) {
    let a = st.resolve(a);
    if dst == a {
        stats.moves_removed += 1;
        return;
    }
    let ka = st.k(a);
    st.def(dst);
    st.copy_of[usize::from(dst)] = Some(a);
    st.konst[usize::from(dst)] = ka;
    out.push(POp::Un {
        op: UnOp::Mov,
        dst,
        a,
    });
}

/// Emits `dst = a op imm` after constant folding and identity
/// simplification. `a` must already be copy-resolved.
fn push_binimm(
    out: &mut Vec<POp>,
    st: &mut BlockState,
    stats: &mut OptStats,
    op: BinOp,
    dst: u8,
    a: u8,
    imm: i32,
) {
    if let Some(ka) = st.k(a) {
        if let Some(v) = eval_bin(op, ka, imm) {
            st.set_const(dst, v);
            out.push(POp::Set { dst, imm: v });
            stats.folds += 1;
            return;
        }
        // Known constant divided by zero: keep the trapping instruction.
    }
    let is_identity = matches!(
        (op, imm),
        (
            BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Lsh | BinOp::Rsh,
            0
        ) | (BinOp::Mul | BinOp::Div, 1)
            | (BinOp::And, -1)
    );
    if is_identity {
        stats.folds += 1;
        push_mov(out, st, stats, dst, a);
        return;
    }
    let absorbed = match (op, imm) {
        (BinOp::Mul | BinOp::And, 0) => Some(0),
        (BinOp::Mod, 1 | -1) => Some(0),
        (BinOp::Or, -1) => Some(-1),
        _ => None,
    };
    if let Some(v) = absorbed {
        stats.folds += 1;
        st.set_const(dst, v);
        out.push(POp::Set { dst, imm: v });
        return;
    }
    st.def(dst);
    out.push(POp::BinImm { op, dst, a, imm });
}

/// Forward constant/copy propagation and algebraic simplification, one
/// basic block at a time. Returns whether anything changed.
fn simplify(ops: &mut Vec<POp>, stats: &mut OptStats) -> bool {
    let mut st = BlockState::new();
    let mut out: Vec<POp> = Vec::with_capacity(ops.len());
    for &op in ops.iter() {
        match op {
            POp::Label { .. } => {
                st.clear();
                out.push(op);
            }
            POp::Set { dst, imm } => {
                if st.k(dst) == Some(imm) {
                    // Re-store of the value the slot already holds.
                    stats.dead_removed += 1;
                } else {
                    st.set_const(dst, imm);
                    out.push(op);
                }
            }
            POp::Un { op, dst, a } => {
                let a = st.resolve(a);
                if matches!(op, UnOp::Mov) {
                    push_mov(&mut out, &mut st, stats, dst, a);
                } else if let Some(ka) = st.k(a) {
                    let v = eval_un(op, ka);
                    st.set_const(dst, v);
                    out.push(POp::Set { dst, imm: v });
                    stats.folds += 1;
                } else {
                    st.def(dst);
                    out.push(POp::Un { op, dst, a });
                }
            }
            POp::Bin { op, dst, a, b } => {
                let (a, b) = (st.resolve(a), st.resolve(b));
                match (st.k(a), st.k(b)) {
                    (Some(ka), Some(kb)) if eval_bin(op, ka, kb).is_some() => {
                        let v = eval_bin(op, ka, kb).expect("checked above");
                        st.set_const(dst, v);
                        out.push(POp::Set { dst, imm: v });
                        stats.folds += 1;
                    }
                    (_, Some(kb)) => push_binimm(&mut out, &mut st, stats, op, dst, a, kb),
                    (Some(ka), None) if commutative(op) => {
                        push_binimm(&mut out, &mut st, stats, op, dst, b, ka)
                    }
                    _ => {
                        st.def(dst);
                        out.push(POp::Bin { op, dst, a, b });
                    }
                }
            }
            POp::BinImm { op, dst, a, imm } => {
                let a = st.resolve(a);
                push_binimm(&mut out, &mut st, stats, op, dst, a, imm);
            }
            POp::Br { cond, a, b, l } => {
                let (a, b) = (st.resolve(a), st.resolve(b));
                match (st.k(a), st.k(b)) {
                    (Some(ka), Some(kb)) => {
                        stats.branches_simplified += 1;
                        if eval_cond(cond, ka, kb) {
                            out.push(POp::Jmp { l });
                        }
                    }
                    (None, Some(kb)) => {
                        stats.branches_simplified += 1;
                        out.push(POp::BrImm {
                            cond,
                            a,
                            imm: kb,
                            l,
                        });
                    }
                    (Some(ka), None) => {
                        stats.branches_simplified += 1;
                        out.push(POp::BrImm {
                            cond: swap_cond(cond),
                            a: b,
                            imm: ka,
                            l,
                        });
                    }
                    (None, None) => out.push(POp::Br { cond, a, b, l }),
                }
            }
            POp::BrImm { cond, a, imm, l } => {
                let a = st.resolve(a);
                if let Some(ka) = st.k(a) {
                    stats.branches_simplified += 1;
                    if eval_cond(cond, ka, imm) {
                        out.push(POp::Jmp { l });
                    }
                } else {
                    out.push(POp::BrImm { cond, a, imm, l });
                }
            }
            POp::Jmp { .. } => out.push(op),
            POp::Ret { src } => out.push(POp::Ret {
                src: st.resolve(src),
            }),
        }
    }
    let changed = out != *ops;
    *ops = out;
    changed
}

fn def_of(op: &POp) -> Option<u8> {
    match *op {
        POp::Set { dst, .. }
        | POp::Bin { dst, .. }
        | POp::BinImm { dst, .. }
        | POp::Un { dst, .. } => Some(dst),
        _ => None,
    }
}

fn reads(op: &POp, v: u8) -> bool {
    match *op {
        POp::Bin { a, b, .. } | POp::Br { a, b, .. } => a == v || b == v,
        POp::BinImm { a, .. } | POp::BrImm { a, .. } | POp::Un { a, .. } => a == v,
        POp::Ret { src } => src == v,
        POp::Set { .. } | POp::Label { .. } | POp::Jmp { .. } => false,
    }
}

/// Whether deleting this definition can never change observable
/// behaviour (no trap it could have raised).
fn trap_free_def(op: &POp) -> bool {
    match *op {
        POp::Set { .. } | POp::Un { .. } => true,
        POp::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Mod),
        POp::BinImm { op, imm, .. } => !matches!(op, BinOp::Div | BinOp::Mod) || imm != 0,
        _ => false,
    }
}

/// Dead-definition elimination. Two sound, CFG-free rules: a definition
/// of a register that is never read anywhere in the program, and a
/// definition overwritten later in the same basic block with no
/// intervening read or control flow. Trapping definitions are kept.
fn dce(ops: &mut Vec<POp>, stats: &mut OptStats) -> bool {
    let mut read = [false; 256];
    for op in ops.iter() {
        match *op {
            POp::Bin { a, b, .. } | POp::Br { a, b, .. } => {
                read[usize::from(a)] = true;
                read[usize::from(b)] = true;
            }
            POp::BinImm { a, .. } | POp::BrImm { a, .. } | POp::Un { a, .. } => {
                read[usize::from(a)] = true;
            }
            POp::Ret { src } => read[usize::from(src)] = true,
            POp::Set { .. } | POp::Label { .. } | POp::Jmp { .. } => {}
        }
    }
    let mut keep = vec![true; ops.len()];
    for i in 0..ops.len() {
        let Some(d) = def_of(&ops[i]) else { continue };
        if !trap_free_def(&ops[i]) {
            continue;
        }
        if !read[usize::from(d)] {
            keep[i] = false;
            continue;
        }
        for oj in ops.iter().skip(i + 1) {
            if matches!(
                oj,
                POp::Label { .. }
                    | POp::Br { .. }
                    | POp::BrImm { .. }
                    | POp::Jmp { .. }
                    | POp::Ret { .. }
            ) || reads(oj, d)
            {
                break;
            }
            if def_of(oj) == Some(d) {
                keep[i] = false;
                break;
            }
        }
    }
    let removed = keep.iter().filter(|k| !**k).count();
    if removed == 0 {
        return false;
    }
    stats.dead_removed += removed;
    let mut it = keep.iter();
    ops.retain(|_| *it.next().expect("keep mask matches ops"));
    true
}

/// Branch layout: deletes branches whose target falls through, inverts
/// branch-over-jump diamonds so the hot edge falls through, drops
/// unreachable tails after unconditional transfers, and removes labels
/// nothing references.
fn layout(ops: &mut Vec<POp>, stats: &mut OptStats) -> bool {
    // The last binding, should a label have two: a program `interpret`
    // and the lowering refuse, and that this pass leaves refused.
    let mut bound: HashMap<u16, usize> = HashMap::new();
    let mut referenced: HashSet<u16> = HashSet::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            POp::Label { l } => {
                bound.insert(l, i);
            }
            POp::Br { l, .. } | POp::BrImm { l, .. } | POp::Jmp { l } => {
                referenced.insert(l);
            }
            _ => {}
        }
    }
    // Whether control at `from` reaches the binding of `l` by falling
    // through nothing but labels.
    let falls_to = |from: usize, l: u16| -> bool {
        match bound.get(&l) {
            Some(&p) if p > from => ops[from + 1..=p]
                .iter()
                .all(|o| matches!(o, POp::Label { .. })),
            _ => false,
        }
    };
    let mut out: Vec<POp> = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let op = ops[i];
        match op {
            POp::Label { l } => {
                if referenced.contains(&l) {
                    out.push(op);
                }
                i += 1;
            }
            POp::Jmp { l } if falls_to(i, l) => {
                stats.branches_simplified += 1;
                i += 1;
            }
            POp::Jmp { .. } | POp::Ret { .. } => {
                out.push(op);
                i += 1;
                // Unreachable until the next label.
                while i < ops.len() && !matches!(ops[i], POp::Label { .. }) {
                    if !matches!(ops[i], POp::Label { .. }) {
                        stats.dead_removed += 1;
                    }
                    i += 1;
                }
            }
            POp::Br { l, .. } | POp::BrImm { l, .. } if falls_to(i, l) => {
                // Both outcomes land on the same instruction; comparisons
                // cannot trap, so the branch is a no-op.
                stats.branches_simplified += 1;
                i += 1;
            }
            POp::Br { cond, a, b, l } => {
                if let Some(POp::Jmp { l: l2 }) = ops.get(i + 1).copied() {
                    if falls_to(i + 1, l) {
                        out.push(POp::Br {
                            cond: invert_cond(cond),
                            a,
                            b,
                            l: l2,
                        });
                        stats.branches_simplified += 1;
                        i += 2;
                        continue;
                    }
                }
                out.push(op);
                i += 1;
            }
            POp::BrImm { cond, a, imm, l } => {
                if let Some(POp::Jmp { l: l2 }) = ops.get(i + 1).copied() {
                    if falls_to(i + 1, l) {
                        out.push(POp::BrImm {
                            cond: invert_cond(cond),
                            a,
                            imm,
                            l: l2,
                        });
                        stats.branches_simplified += 1;
                        i += 2;
                        continue;
                    }
                }
                out.push(op);
                i += 1;
            }
            _ => {
                out.push(op);
                i += 1;
            }
        }
    }
    let changed = out != *ops;
    *ops = out;
    changed
}

/// Runs the tier-2 peephole pipeline (constant/copy propagation,
/// dead-definition elimination, branch layout) to a fixpoint and returns
/// the optimized program with what was done.
///
/// The result is semantically identical to the input under
/// [`Program::interpret`]'s word-portable semantics, including *where*
/// it traps: division by a value not provably nonzero is never deleted
/// or folded.
pub fn optimize(prog: &Program) -> (Program, OptStats) {
    let mut ops: Vec<POp> = prog.ops().collect();
    let mut stats = OptStats {
        insns_in: count_exec(&ops),
        ..OptStats::default()
    };
    for _ in 0..MAX_PASSES {
        let mut changed = simplify(&mut ops, &mut stats);
        changed |= dce(&mut ops, &mut stats);
        changed |= layout(&mut ops, &mut stats);
        if !changed {
            break;
        }
    }
    stats.insns_out = count_exec(&ops);
    let mut out = Program::new(prog.args()).expect("arity was already validated");
    for _ in 0..prog.labels() {
        out.genlabel();
    }
    for &op in &ops {
        out.record(op);
    }
    (out, stats)
}

/// [`replay`], under the name it had while it was a second lowering,
/// for callers written then.
///
/// # Errors
///
/// As [`replay`].
pub fn replay_opt<T: Target>(prog: &Program, mem: &mut [u8]) -> Result<Finished, EngineError> {
    replay::<T>(prog, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake::FakeTarget;

    /// Interpret original and optimized on the same inputs; both sides
    /// must agree result-for-result and error-for-error.
    fn assert_equiv(p: &Program, cases: &[&[i32]]) {
        let (q, _) = optimize(p);
        for args in cases {
            let want = p.interpret(args, 1_000_000);
            let got = q.interpret(args, 1_000_000);
            match (&want, &got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "args {args:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("divergence on {args:?}: {want:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn self_moves_and_move_chains_collapse() {
        let mut p = Program::new(1).unwrap();
        p.un(UnOp::Mov, 1, 0); // v1 = v0
        p.un(UnOp::Mov, 2, 1); // v2 = v1  (chain)
        p.un(UnOp::Mov, 2, 2); // self-move
        p.bin_imm(BinOp::Add, 3, 2, 5);
        p.ret(3);
        let (q, stats) = optimize(&p);
        // The chain rewrites each mov to read v0, so the copies die as
        // dead stores (or as self-moves when dst already equals the root).
        assert!(stats.moves_removed + stats.dead_removed >= 3, "{stats:?}");
        // The chain is collapsed and the dead movs eliminated: the add
        // reads v0 directly.
        assert!(
            q.ops().any(|o| matches!(o, POp::BinImm { a: 0, .. })),
            "{q:?}"
        );
        assert!(q.len() < p.len());
        assert_equiv(&p, &[&[7], &[-3], &[0]]);
    }

    #[test]
    fn identities_fold_to_moves_and_constants() {
        let mut p = Program::new(1).unwrap();
        p.bin_imm(BinOp::Add, 1, 0, 0); // v1 = v0 + 0  -> mov
        p.bin_imm(BinOp::Mul, 2, 1, 1); // v2 = v1 * 1  -> mov
        p.bin_imm(BinOp::And, 3, 2, -1); // v3 = v2 & -1 -> mov
        p.bin_imm(BinOp::Mul, 4, 3, 0); // v4 = v3 * 0  -> 0
        p.bin(BinOp::Add, 5, 3, 4); // v5 = v3 + 0  -> mov (v4 known 0)
        p.ret(5);
        let (q, stats) = optimize(&p);
        assert!(stats.folds >= 4, "{stats:?}");
        // Everything collapses to `ret v0`.
        assert_eq!(q.ops().collect::<Vec<_>>(), [POp::Ret { src: 0 }]);
        assert_equiv(&p, &[&[11], &[-11], &[0]]);
    }

    #[test]
    fn constant_chains_fold_and_known_branches_resolve() {
        let mut p = Program::new(0).unwrap();
        let skip = p.genlabel();
        p.set(0, 6);
        p.bin_imm(BinOp::Mul, 0, 0, 7); // 42, folded
        p.br_imm(Cond::Eq, 0, 42, skip); // always taken
        p.set(1, 99); // unreachable
        p.label(skip);
        p.ret(0);
        let (q, stats) = optimize(&p);
        assert!(
            stats.folds >= 1 && stats.branches_simplified >= 1,
            "{stats:?}"
        );
        // Folds to set 42; ret.
        assert_eq!(
            q.ops().collect::<Vec<_>>(),
            [POp::Set { dst: 0, imm: 42 }, POp::Ret { src: 0 }]
        );
        assert_equiv(&p, &[&[]]);
    }

    #[test]
    fn dead_and_overwritten_stores_are_removed() {
        let mut p = Program::new(1).unwrap();
        p.set(1, 1); // overwritten below before any read
        p.set(1, 2);
        p.set(2, 3); // never read anywhere
        p.bin(BinOp::Add, 3, 0, 1);
        p.ret(3);
        let (q, stats) = optimize(&p);
        assert!(stats.dead_removed >= 2, "{stats:?}");
        assert!(q.len() < p.len());
        assert_equiv(&p, &[&[5], &[0]]);
    }

    #[test]
    fn traps_are_never_folded_away() {
        // Constant division by zero must survive as a runtime fault.
        let mut p = Program::new(0).unwrap();
        p.set(0, 7);
        p.bin_imm(BinOp::Div, 1, 0, 0);
        p.ret(1);
        let (q, _) = optimize(&p);
        assert!(
            q.ops()
                .any(|o| matches!(o, POp::BinImm { op: BinOp::Div, .. })),
            "{q:?}"
        );
        assert!(q.interpret(&[], 100).is_err());
        // A dead division with an unknown divisor is also kept.
        let mut p = Program::new(2).unwrap();
        p.bin(BinOp::Div, 2, 0, 1); // v2 never read, but may trap
        p.set(3, 1);
        p.ret(3);
        let (q, _) = optimize(&p);
        assert!(
            q.ops()
                .any(|o| matches!(o, POp::Bin { op: BinOp::Div, .. })),
            "{q:?}"
        );
        assert!(q.interpret(&[1, 0], 100).is_err());
        assert_eq!(q.interpret(&[1, 1], 100).unwrap(), 1);
    }

    #[test]
    fn jump_to_next_and_branch_over_jump_are_simplified() {
        let mut p = Program::new(2).unwrap();
        let next = p.genlabel();
        let exit = p.genlabel();
        p.jmp(next); // jump to fall-through
        p.label(next);
        let other = p.genlabel();
        p.br(Cond::Lt, 0, 1, other); // branch over jump
        p.jmp(exit);
        p.label(other);
        p.bin(BinOp::Add, 0, 0, 1);
        p.label(exit);
        p.ret(0);
        let (q, stats) = optimize(&p);
        assert!(stats.branches_simplified >= 2, "{stats:?}");
        assert!(!q.ops().any(|o| matches!(o, POp::Jmp { .. })), "{q:?}");
        // The surviving branch is inverted to jump to exit.
        assert!(
            q.ops().any(|o| matches!(o, POp::Br { cond: Cond::Ge, .. })),
            "{q:?}"
        );
        assert_equiv(&p, &[&[1, 2], &[2, 1], &[0, 0]]);
    }

    #[test]
    fn loops_are_preserved_bit_for_bit() {
        // sum = 0; for (i = n; i > 0; i--) sum += i*i; return sum
        let mut p = Program::new(1).unwrap();
        let top = p.genlabel();
        let done = p.genlabel();
        p.set(1, 0); // sum
        p.un(UnOp::Mov, 2, 0); // i = n
        p.label(top);
        p.br_imm(Cond::Le, 2, 0, done);
        p.bin(BinOp::Mul, 3, 2, 2);
        p.bin(BinOp::Add, 1, 1, 3);
        p.bin_imm(BinOp::Sub, 2, 2, 1);
        p.jmp(top);
        p.label(done);
        p.ret(1);
        assert_equiv(&p, &[&[0], &[1], &[10], &[-5]]);
    }

    #[test]
    fn pressure_not_vreg_count_decides_what_fits() {
        // Forty short-lived temporaries on FakeTarget: the lowering
        // gives each register back after its vreg's last use, so the
        // program never holds more than three, and its code answers
        // what the interpreter does.
        let mut p = Program::new(1).unwrap();
        let acc = 1u8;
        p.set(acc, 0);
        for k in 0..40u8 {
            let t = 2 + k;
            p.bin_imm(BinOp::Add, t, 0, i32::from(k));
            p.bin(BinOp::Xor, acc, acc, t);
        }
        p.ret(acc);
        let mut mem = vec![0u8; p.code_capacity()];
        let fin = replay::<FakeTarget>(&p, &mut mem).unwrap();
        assert!(fin.len > 0);
        // Forty vregs live at once do not fit.
        let mut q = Program::new(1).unwrap();
        for t in 1..=40u8 {
            q.set(t, i32::from(t));
        }
        for t in 1..=40u8 {
            q.bin(BinOp::Add, 0, 0, t);
        }
        q.ret(0);
        assert!(matches!(
            replay::<FakeTarget>(&q, &mut mem),
            Err(EngineError::TooManyTemps { .. })
        ));
    }

    #[test]
    fn optimized_replay_emits_fewer_instructions() {
        // A move/identity-heavy stream: tier-2 output must be strictly
        // smaller through the same emission path.
        let mut p = Program::new(2).unwrap();
        p.un(UnOp::Mov, 2, 0);
        p.un(UnOp::Mov, 3, 2);
        p.bin_imm(BinOp::Add, 3, 3, 0);
        p.bin_imm(BinOp::Mul, 3, 3, 1);
        p.bin(BinOp::Add, 4, 3, 1);
        p.un(UnOp::Mov, 5, 4);
        p.ret(5);
        let mut m1 = vec![0u8; p.code_capacity()];
        let f1 = replay::<FakeTarget>(&p, &mut m1).unwrap();
        let (q, stats) = optimize(&p);
        let mut m2 = vec![0u8; q.code_capacity()];
        let f2 = replay::<FakeTarget>(&q, &mut m2).unwrap();
        assert!(
            f2.insns < f1.insns,
            "tier-2 {} insns vs tier-1 {} ({stats:?})",
            f2.insns,
            f1.insns
        );
        assert_equiv(&p, &[&[3, 4], &[-1, 1]]);
    }

    #[test]
    fn a_label_bound_twice_is_refused_before_and_after_optimization() {
        // `interpret` and the lowering refuse the program; the layout
        // pass must not turn it into a different one that runs (by
        // deleting the "jump to next" that targets the first binding).
        let mut p = Program::new(0).unwrap();
        let l = p.genlabel();
        p.set(0, 1);
        p.jmp(l);
        p.label(l);
        p.set(0, 2);
        p.label(l);
        p.ret(0);
        let (q, _) = optimize(&p);
        let mut mem = vec![0u8; q.code_capacity()];
        for r in [
            p.interpret(&[], 100),
            q.interpret(&[], 100),
            replay::<FakeTarget>(&q, &mut mem).map(|_| 0),
        ] {
            assert!(matches!(r, Err(EngineError::LabelBoundTwice { label }) if label == l));
        }
    }
}
