//! # vcode-alpha — Alpha backend for vcode (21064-era ISA)
//!
//! The third of the paper's platforms, and the one whose quirks the paper
//! dwells on (§5.2, §6.2):
//!
//! - **no byte or halfword memory operations** — "the current generation
//!   of Alpha chips lack byte and short word operations. As a result,
//!   VCODE must synthesize its load and store byte instructions from
//!   multiple Alpha instructions": `ldq_u`/`extbl` for loads,
//!   `ldq_u`/`insbl`/`mskbl`/`bis`/`stq_u` for stores;
//! - **no integer division** — "on machines that do not provide division
//!   in hardware, the VCODE integer division instructions require
//!   subroutine calls" that obey a special convention (arguments in
//!   `t10`/`t11`, result in `t12`, linkage in `t9`) which preserves all
//!   caller-saved registers, so leaf procedures stay leaves;
//! - **no GPR↔FPR moves** — conversions bounce through a scratch slot.
//!
//! 32-bit values (`i` *and* `u`) are kept sign-extended in 64-bit
//! registers, the Alpha convention; sign extension is order-preserving
//! for unsigned comparison, so `cmpult` works unchanged.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encode;

use encode::{br, f, ff, m, r, CPYS, CPYSN};
use vcode::asm::Asm;
use vcode::label::{Fixup, FixupTarget, Label};
use vcode::op::{BinOp, Cond, Imm, UnOp};
use vcode::reg::{Reg, RegDesc, RegFile};
use vcode::target::{BrOperand, CallFrame, JumpTarget, Leaf, Off, StackSlot, Target};
use vcode::ty::{Sig, Ty};
use vcode::{Bank, Error};

/// The Alpha target.
#[derive(Debug, Clone, Copy)]
pub enum Alpha {}

/// Base of the simulator's division-support routines (the "runtime
/// system" the paper's §5.2 discusses). Each entry is 8 bytes apart.
pub const DIV_SUPPORT_BASE: u64 = 0xd000;

/// Offsets of the individual routines from [`DIV_SUPPORT_BASE`].
pub mod divop {
    #![allow(missing_docs)]
    pub const DIVL: u64 = 0x00;
    pub const DIVLU: u64 = 0x08;
    pub const REML: u64 = 0x10;
    pub const REMLU: u64 = 0x18;
    pub const DIVQ: u64 = 0x20;
    pub const DIVQU: u64 = 0x28;
    pub const REMQ: u64 = 0x30;
    pub const REMQU: u64 = 0x38;
}

const AT: u8 = r::AT; // primary scratch
const PV: u8 = r::PV; // secondary scratch / call target
const T10: u8 = r::T10;
const T11: u8 = r::T11;
const FSCR: u8 = 1; // FP scratch

static INT_REGS: [RegDesc; 22] = vcode::regdescs![int:
    1, CallerSaved, "t0";
    2, CallerSaved, "t1";
    3, CallerSaved, "t2";
    4, CallerSaved, "t3";
    5, CallerSaved, "t4";
    6, CallerSaved, "t5";
    7, CallerSaved, "t6";
    8, CallerSaved, "t7";
    21, Arg(5), "a5";
    20, Arg(4), "a4";
    19, Arg(3), "a3";
    18, Arg(2), "a2";
    17, Arg(1), "a1";
    16, Arg(0), "a0";
    9, CalleeSaved, "s0";
    10, CalleeSaved, "s1";
    11, CalleeSaved, "s2";
    12, CalleeSaved, "s3";
    13, CalleeSaved, "s4";
    14, CalleeSaved, "s5";
    0, Reserved, "v0";
    28, Reserved, "at";
];

static FLT_REGS: [RegDesc; 18] = vcode::regdescs![flt:
    10, CallerSaved, "f10";
    11, CallerSaved, "f11";
    12, CallerSaved, "f12";
    13, CallerSaved, "f13";
    14, CallerSaved, "f14";
    15, CallerSaved, "f15";
    22, CallerSaved, "f22";
    23, CallerSaved, "f23";
    19, Arg(3), "f19";
    18, Arg(2), "f18";
    17, Arg(1), "f17";
    16, Arg(0), "f16";
    2, CalleeSaved, "f2";
    3, CalleeSaved, "f3";
    4, CalleeSaved, "f4";
    5, CalleeSaved, "f5";
    0, Reserved, "f0";
    1, Reserved, "f1";
];

static REGFILE: RegFile = RegFile {
    int: &INT_REGS,
    flt: &FLT_REGS,
    hard_temps: &[Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4)],
    hard_saved: &[Reg::int(9), Reg::int(10), Reg::int(11), Reg::int(12)],
    sp: Reg::int(r::SP),
    fp: Reg::int(15),
    zero: Some(Reg::int(r::ZERO)),
};

/// Stack frame layout (sp-relative): `ra` at 0, `s0`–`s5` at 8..56,
/// callee-saved FP at 56..88, scratch for GPR↔FPR transfers at 88,
/// locals from 96.
const RA_SLOT: i32 = 0;
const S_SLOTS: i32 = 8;
const F_SLOTS: i32 = 56;
const SCRATCH_SLOT: i16 = 88;
const SAVE_AREA: i32 = 96;
const F_CALLEE: [u8; 4] = [2, 3, 4, 5];

/// Fixup kind: 21-bit branch displacement.
const FIX_BR21: u8 = 0;

fn is32(ty: Ty) -> bool {
    matches!(ty, Ty::I | Ty::U)
}

impl Alpha {
    fn branch_to(a: &mut Asm<'_>, l: Label, opcode: u8, ra: u8) {
        a.fixup_here(FixupTarget::Label(l), FIX_BR21);
        encode::branch(&mut a.buf, opcode, ra, 0);
    }

    /// Computes the effective address into `AT` unless it is directly
    /// encodable, returning `(base, disp)`.
    #[inline]
    fn mem_addr(a: &mut Asm<'_>, base: Reg, off: Off) -> (u8, i16) {
        match off {
            Off::I(d) => match i16::try_from(d) {
                Ok(d16) => (base.num(), d16),
                Err(_) => {
                    encode::li64(&mut a.buf, AT, i64::from(d), PV);
                    encode::opr(&mut a.buf, 0x10, f::ADDQ, base.num(), AT, AT);
                    (AT, 0)
                }
            },
            Off::R(idx) => {
                encode::opr(&mut a.buf, 0x10, f::ADDQ, base.num(), idx.num(), AT);
                (AT, 0)
            }
        }
    }

    /// Re-canonicalizes a 32-bit result (sign-extend via `addl 0`).
    fn sext32(a: &mut Asm<'_>, rd: u8) {
        encode::opl(&mut a.buf, 0x10, f::ADDL, rd, 0, rd);
    }

    /// Calls a division-support routine: dividend in `t10`, divisor in
    /// `t11`, result in `t12` (`pv`), linkage in `t9` — the special
    /// convention that preserves all caller-saved registers (paper §5.2).
    fn div_call(a: &mut Asm<'_>, routine: u64, rd: u8, rs1: u8, rs2: u8) {
        encode::mov(&mut a.buf, T10, rs1);
        encode::mov(&mut a.buf, T11, rs2);
        encode::li64(&mut a.buf, AT, (DIV_SUPPORT_BASE + routine) as i64, PV);
        encode::jump(&mut a.buf, 1, r::T9, AT); // jsr t9, (at)
        encode::mov(&mut a.buf, rd, PV);
    }

    /// Moves integer bits into an FP register through the scratch slot.
    fn int_to_fpr(a: &mut Asm<'_>, fd: u8, rs: u8) {
        encode::mem(&mut a.buf, m::STQ, rs, r::SP, SCRATCH_SLOT);
        encode::mem(&mut a.buf, m::LDT, fd, r::SP, SCRATCH_SLOT);
    }

    fn fpr_to_int(a: &mut Asm<'_>, rd: u8, fs: u8) {
        encode::mem(&mut a.buf, m::STT, fs, r::SP, SCRATCH_SLOT);
        encode::mem(&mut a.buf, m::LDQ, rd, r::SP, SCRATCH_SLOT);
    }
}

/// Immediate-form fallback: materialize through the scratch (PV holds
/// the constant so AT stays free for the operation's own synthesis). Out
/// of line so the hot arms of `emit_binop_imm` fold into each call site.
#[inline(never)]
fn binop_imm_slow(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
    encode::li64(&mut a.buf, PV, imm, AT);
    Alpha::emit_binop(a, op, ty, rd, rs, Reg::int(PV));
}

impl Target for Alpha {
    const NAME: &'static str = "alpha";
    const WORD_BITS: u32 = 64;
    // ra + 6 s-regs + 4 FP callee = 11 reserved save instructions.
    const MAX_SAVE_BYTES: usize = 11 * 4;
    const CHECKS: vcode::TargetChecks = vcode::TargetChecks {
        word_bits: Self::WORD_BITS,
        insn_align: 4,
        branch_delay_slots: Self::BRANCH_DELAY_SLOTS,
        load_delay_cycles: Self::LOAD_DELAY_CYCLES,
        // $v0 (return) and $at (instruction synthesis).
        reserved_int: &[0, 28],
        // $f0 (return) and $f1 (synthesis scratch).
        reserved_flt: &[0, 1],
    };

    fn regfile() -> &'static RegFile {
        &REGFILE
    }

    fn begin(a: &mut Asm<'_>, sig: &Sig, _leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error> {
        // lda sp, -FRAME(sp); disp patched at end.
        a.ts.frame_fix = a.buf.len();
        encode::mem(&mut a.buf, m::LDA, r::SP, r::SP, 0);
        let start = a.buf.reserve(Self::MAX_SAVE_BYTES, 0);
        // Zero-filled reservations must be real nops when unused.
        let mut at = start;
        while at < a.buf.len() {
            a.buf.patch_u32(at, {
                // bis $31,$31,$31
                (0x11u32 << 26) | (31 << 21) | (31 << 16) | (0x20 << 5) | 31
            });
            at += 4;
        }
        a.ts.save_area = (start, a.buf.len());
        let (mut ni, mut nf) = (0u8, 0u8);
        for &ty in sig.args() {
            if ty.is_float() {
                if nf >= 4 {
                    return Err(Error::TooManyArgs {
                        requested: sig.args().len(),
                        max: 4,
                    });
                }
                let reg = Reg::flt(16 + nf);
                a.ra.take(reg);
                args.push(reg);
                nf += 1;
            } else {
                if ni >= 6 {
                    return Err(Error::TooManyArgs {
                        requested: sig.args().len(),
                        max: 6,
                    });
                }
                let reg = Reg::int(16 + ni);
                a.ra.take(reg);
                args.push(reg);
                ni += 1;
            }
        }
        Ok(())
    }

    fn local(a: &mut Asm<'_>, ty: Ty) -> StackSlot {
        let size = ty.size_bytes(64);
        let start = a.locals_bytes.div_ceil(size) * size;
        a.locals_bytes = start + size;
        StackSlot {
            base: Reg::int(r::SP),
            off: SAVE_AREA + start as i32,
            ty,
        }
    }

    #[allow(clippy::collapsible_match)] // the guard form obscures the ABI cases
    #[inline]
    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>) {
        match val {
            Some((Ty::F | Ty::D, v)) => {
                if v.num() != 0 {
                    encode::fop17(&mut a.buf, CPYS, v.num(), v.num(), 0);
                }
            }
            Some((_, v)) => {
                if v.num() != r::V0 {
                    encode::mov(&mut a.buf, r::V0, v.num());
                }
            }
            None => {}
        }
        let l = a.epilogue;
        Self::branch_to(a, l, br::BR, r::ZERO);
    }

    fn end(a: &mut Asm<'_>) -> Result<(), Error> {
        let used_s = a.ra.callee_used(Bank::Int);
        let used_f = a.ra.callee_used(Bank::Flt);
        let leaf = matches!(a.leaf, Leaf::Yes);
        // Fill the reserved prologue saves.
        let (start, _) = a.ts.save_area;
        let mut at = start;
        let mut put = |a: &mut Asm<'_>, opcode: u8, ra: u8, disp: i32| {
            let w = (u32::from(opcode) << 26)
                | (u32::from(ra) << 21)
                | (u32::from(r::SP) << 16)
                | (disp as u16 as u32);
            a.buf.patch_u32(at, w);
            at += 4;
        };
        if !leaf {
            put(a, m::STQ, r::RA, RA_SLOT);
        }
        for (k, s) in (9u8..15).enumerate() {
            if used_s & (1 << s) != 0 {
                put(a, m::STQ, s, S_SLOTS + 8 * k as i32);
            }
        }
        for (j, &fr) in F_CALLEE.iter().enumerate() {
            if used_f & (1 << fr) != 0 {
                put(a, m::STT, fr, F_SLOTS + 8 * j as i32);
            }
        }
        // Skip the unused tail of the reserved area with a branch.
        let (_, save_end) = a.ts.save_area;
        let rest_words = (save_end - at) / 4;
        if rest_words >= 2 {
            let w = (u32::from(br::BR) << 26)
                | (u32::from(r::ZERO) << 21)
                | ((rest_words as u32 - 1) & 0x1f_ffff);
            a.buf.patch_u32(at, w);
        }
        // Patch the frame size.
        let frame = (SAVE_AREA as usize + a.locals_bytes).div_ceil(16) * 16;
        let old = a.buf.read_u32(a.ts.frame_fix);
        a.buf.patch_u32(
            a.ts.frame_fix,
            (old & 0xffff_0000) | ((-(frame as i32)) as u16 as u32),
        );
        // Deferred epilogue.
        let here = a.buf.len();
        a.labels.bind(a.epilogue, here);
        if !leaf {
            encode::mem(&mut a.buf, m::LDQ, r::RA, r::SP, RA_SLOT as i16);
        }
        for (k, s) in (9u8..15).enumerate() {
            if used_s & (1 << s) != 0 {
                encode::mem(
                    &mut a.buf,
                    m::LDQ,
                    s,
                    r::SP,
                    (S_SLOTS + 8 * k as i32) as i16,
                );
            }
        }
        for (j, &fr) in F_CALLEE.iter().enumerate() {
            if used_f & (1 << fr) != 0 {
                encode::mem(
                    &mut a.buf,
                    m::LDT,
                    fr,
                    r::SP,
                    (F_SLOTS + 8 * j as i32) as i16,
                );
            }
        }
        encode::mem(&mut a.buf, m::LDA, r::SP, r::SP, frame as i16);
        encode::jump(&mut a.buf, 2, r::ZERO, r::RA); // ret (ra)
        Ok(())
    }

    #[inline]
    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        let disp = (dest as i64 - (fixup.at as i64 + 4)) / 4;
        if !(-(1 << 20)..(1 << 20)).contains(&disp) {
            a.record_err(Error::BranchOutOfRange { at: fixup.at, dest });
            return;
        }
        let old = a.buf.read_u32(fixup.at);
        a.buf
            .patch_u32(fixup.at, (old & 0xffe0_0000) | (disp as u32 & 0x1f_ffff));
    }

    #[inline(always)]
    fn emit_binop(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        if ty.is_float() {
            let func = match (op, ty) {
                (BinOp::Add, Ty::F) => ff::ADDS,
                (BinOp::Add, _) => ff::ADDT,
                (BinOp::Sub, Ty::F) => ff::SUBS,
                (BinOp::Sub, _) => ff::SUBT,
                (BinOp::Mul, Ty::F) => ff::MULS,
                (BinOp::Mul, _) => ff::MULT,
                (BinOp::Div, Ty::F) => ff::DIVS,
                (BinOp::Div, _) => ff::DIVT,
                _ => {
                    a.record_err(Error::BadOperands("float binop"));
                    return;
                }
            };
            encode::fop(&mut a.buf, func, rs1.num(), rs2.num(), rd.num());
            return;
        }
        let (rd, rs1, rs2) = (rd.num(), rs1.num(), rs2.num());
        let w32 = is32(ty);
        let signed = ty.is_signed();
        match op {
            BinOp::Add => {
                let func = if w32 { f::ADDL } else { f::ADDQ };
                encode::opr(&mut a.buf, 0x10, func, rs1, rs2, rd);
            }
            BinOp::Sub => {
                let func = if w32 { f::SUBL } else { f::SUBQ };
                encode::opr(&mut a.buf, 0x10, func, rs1, rs2, rd);
            }
            BinOp::And => encode::opr(&mut a.buf, 0x11, f::AND, rs1, rs2, rd),
            BinOp::Or => encode::opr(&mut a.buf, 0x11, f::BIS, rs1, rs2, rd),
            BinOp::Xor => encode::opr(&mut a.buf, 0x11, f::XOR, rs1, rs2, rd),
            BinOp::Mul => {
                let func = if w32 { f::MULL } else { f::MULQ };
                encode::opr(&mut a.buf, 0x13, func, rs1, rs2, rd);
            }
            BinOp::Div | BinOp::Mod => {
                // No hardware division (paper §5.2): runtime support.
                let routine = match (op, w32, signed) {
                    (BinOp::Div, true, true) => divop::DIVL,
                    (BinOp::Div, true, false) => divop::DIVLU,
                    (BinOp::Div, false, true) => divop::DIVQ,
                    (BinOp::Div, false, false) => divop::DIVQU,
                    (_, true, true) => divop::REML,
                    (_, true, false) => divop::REMLU,
                    (_, false, true) => divop::REMQ,
                    _ => divop::REMQU,
                };
                Self::div_call(a, routine, rd, rs1, rs2);
            }
            BinOp::Lsh => {
                if w32 {
                    encode::opr(&mut a.buf, 0x12, f::SLL, rs1, rs2, rd);
                    Self::sext32(a, rd);
                } else {
                    encode::opr(&mut a.buf, 0x12, f::SLL, rs1, rs2, rd);
                }
            }
            BinOp::Rsh if signed => encode::opr(&mut a.buf, 0x12, f::SRA, rs1, rs2, rd),
            BinOp::Rsh => {
                if w32 {
                    // Zero-extend the canonical (sign-extended) 32-bit
                    // value before the logical shift.
                    encode::opl(&mut a.buf, 0x12, f::ZAPNOT, rs1, 0x0f, AT);
                    encode::opr(&mut a.buf, 0x12, f::SRL, AT, rs2, rd);
                    Self::sext32(a, rd);
                } else {
                    encode::opr(&mut a.buf, 0x12, f::SRL, rs1, rs2, rd);
                }
            }
        }
    }

    #[inline(always)]
    fn emit_binop_imm(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        let lit_ok = (0..256).contains(&imm);
        let w32 = is32(ty);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Mul
                if lit_ok =>
            {
                let (opc, func) = match op {
                    BinOp::Add if w32 => (0x10, f::ADDL),
                    BinOp::Add => (0x10, f::ADDQ),
                    BinOp::Sub if w32 => (0x10, f::SUBL),
                    BinOp::Sub => (0x10, f::SUBQ),
                    BinOp::And => (0x11, f::AND),
                    BinOp::Or => (0x11, f::BIS),
                    BinOp::Xor => (0x11, f::XOR),
                    BinOp::Mul if w32 => (0x13, f::MULL),
                    _ => (0x13, f::MULQ),
                };
                encode::opl(&mut a.buf, opc, func, rs.num(), imm as u8, rd.num());
            }
            BinOp::Lsh | BinOp::Rsh => {
                let shift = (imm & if w32 { 31 } else { 63 }) as u8;
                if op == BinOp::Lsh {
                    encode::opl(&mut a.buf, 0x12, f::SLL, rs.num(), shift, rd.num());
                    if w32 {
                        Self::sext32(a, rd.num());
                    }
                } else if ty.is_signed() {
                    encode::opl(&mut a.buf, 0x12, f::SRA, rs.num(), shift, rd.num());
                } else if w32 {
                    encode::opl(&mut a.buf, 0x12, f::ZAPNOT, rs.num(), 0x0f, AT);
                    encode::opl(&mut a.buf, 0x12, f::SRL, AT, shift, rd.num());
                    Self::sext32(a, rd.num());
                } else {
                    encode::opl(&mut a.buf, 0x12, f::SRL, rs.num(), shift, rd.num());
                }
            }
            BinOp::Add if i16::try_from(imm).is_ok() && !w32 => {
                // lda covers 16-bit quadword adds in one instruction.
                encode::mem(&mut a.buf, m::LDA, rd.num(), rs.num(), imm as i16);
            }
            _ => binop_imm_slow(a, op, ty, rd, rs, imm),
        }
    }

    #[inline]
    fn emit_unop(a: &mut Asm<'_>, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
        match (op, ty.is_float()) {
            (UnOp::Mov, true) => {
                if rd != rs {
                    encode::fop17(&mut a.buf, CPYS, rs.num(), rs.num(), rd.num());
                }
            }
            (UnOp::Mov, false) => {
                if rd != rs {
                    encode::mov(&mut a.buf, rd.num(), rs.num());
                }
            }
            (UnOp::Neg, true) => {
                encode::fop17(&mut a.buf, CPYSN, rs.num(), rs.num(), rd.num());
            }
            (UnOp::Neg, false) => {
                let func = if is32(ty) { f::SUBL } else { f::SUBQ };
                encode::opr(&mut a.buf, 0x10, func, r::ZERO, rs.num(), rd.num());
            }
            (UnOp::Com, _) => {
                encode::opr(&mut a.buf, 0x11, f::ORNOT, r::ZERO, rs.num(), rd.num());
            }
            (UnOp::Not, _) => {
                encode::opr(&mut a.buf, 0x10, f::CMPEQ, rs.num(), r::ZERO, rd.num());
            }
        }
    }

    #[inline]
    fn emit_set(a: &mut Asm<'_>, ty: Ty, rd: Reg, imm: Imm) {
        match imm {
            Imm::Int(v) => {
                let v = if is32(ty) { i64::from(v as i32) } else { v };
                encode::li64(&mut a.buf, rd.num(), v, AT);
            }
            Imm::F32(v) => {
                encode::li64(&mut a.buf, AT, i64::from(v.to_bits() as i32), PV);
                encode::mem(&mut a.buf, m::STL, AT, r::SP, SCRATCH_SLOT);
                encode::mem(&mut a.buf, m::LDS, rd.num(), r::SP, SCRATCH_SLOT);
            }
            Imm::F64(v) => {
                encode::li64(&mut a.buf, AT, v.to_bits() as i64, PV);
                encode::mem(&mut a.buf, m::STQ, AT, r::SP, SCRATCH_SLOT);
                encode::mem(&mut a.buf, m::LDT, rd.num(), r::SP, SCRATCH_SLOT);
            }
        }
    }

    #[inline]
    fn emit_cvt(a: &mut Asm<'_>, from: Ty, to: Ty, rd: Reg, rs: Reg) {
        match (from.is_float(), to.is_float()) {
            (false, false) => match (from, to) {
                // u → 64-bit: the canonical form is sign-extended, so
                // widening zero-extends explicitly.
                (Ty::U, Ty::L | Ty::Ul | Ty::P) => {
                    encode::opl(&mut a.buf, 0x12, f::ZAPNOT, rs.num(), 0x0f, rd.num());
                }
                // 64-bit → 32-bit: truncate to canonical.
                (Ty::L | Ty::Ul | Ty::P, Ty::I | Ty::U) => {
                    encode::opl(&mut a.buf, 0x10, f::ADDL, rs.num(), 0, rd.num());
                }
                _ => {
                    if rd != rs {
                        encode::mov(&mut a.buf, rd.num(), rs.num());
                    }
                }
            },
            (false, true) => {
                // Through memory, then convert-from-quad.
                if from == Ty::U {
                    encode::opl(&mut a.buf, 0x12, f::ZAPNOT, rs.num(), 0x0f, AT);
                    Self::int_to_fpr(a, FSCR, AT);
                } else {
                    Self::int_to_fpr(a, FSCR, rs.num());
                }
                let func = if to == Ty::F { ff::CVTQS } else { ff::CVTQT };
                encode::fop(&mut a.buf, func, r::ZERO, FSCR, rd.num());
            }
            (true, false) => {
                encode::fop(&mut a.buf, ff::CVTTQ_C, r::ZERO, rs.num(), FSCR);
                Self::fpr_to_int(a, rd.num(), FSCR);
                if is32(to) {
                    Self::sext32(a, rd.num());
                }
            }
            (true, true) => match (from, to) {
                (Ty::D, Ty::F) => encode::fop(&mut a.buf, ff::CVTTS, r::ZERO, rs.num(), rd.num()),
                _ => {
                    // Register singles already live in T format.
                    if rd != rs {
                        encode::fop17(&mut a.buf, CPYS, rs.num(), rs.num(), rd.num());
                    }
                }
            },
        }
    }

    #[inline]
    fn emit_ld(a: &mut Asm<'_>, ty: Ty, rd: Reg, base: Reg, off: Off) {
        match ty {
            Ty::I | Ty::U => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::LDL, rd.num(), b, d);
            }
            Ty::L | Ty::Ul | Ty::P => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::LDQ, rd.num(), b, d);
            }
            Ty::F => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::LDS, rd.num(), b, d);
            }
            Ty::D => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::LDT, rd.num(), b, d);
            }
            // Byte/halfword loads are synthesized (paper §6.2).
            Ty::C | Ty::Uc | Ty::S | Ty::Us => {
                let (b, d) = Self::mem_addr(a, base, off);
                // at = effective address; t10 = surrounding quad.
                encode::mem(&mut a.buf, m::LDA, AT, b, d);
                encode::mem(&mut a.buf, m::LDQ_U, T10, AT, 0);
                let (ext, bits) = match ty {
                    Ty::C | Ty::Uc => (f::EXTBL, 56u8),
                    _ => (f::EXTWL, 48u8),
                };
                encode::opr(&mut a.buf, 0x12, ext, T10, AT, rd.num());
                if ty.is_signed() {
                    encode::opl(&mut a.buf, 0x12, f::SLL, rd.num(), bits, rd.num());
                    encode::opl(&mut a.buf, 0x12, f::SRA, rd.num(), bits, rd.num());
                }
            }
            Ty::V => a.record_err(Error::BadOperands("load of void")),
        }
    }

    #[inline]
    fn emit_st(a: &mut Asm<'_>, ty: Ty, src: Reg, base: Reg, off: Off) {
        match ty {
            Ty::I | Ty::U => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::STL, src.num(), b, d);
            }
            Ty::L | Ty::Ul | Ty::P => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::STQ, src.num(), b, d);
            }
            Ty::F => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::STS, src.num(), b, d);
            }
            Ty::D => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::STT, src.num(), b, d);
            }
            // The paper's worst case: byte stores synthesized with
            // ldq_u / ins / msk / bis / stq_u (§6.2).
            Ty::C | Ty::Uc | Ty::S | Ty::Us => {
                let (b, d) = Self::mem_addr(a, base, off);
                encode::mem(&mut a.buf, m::LDA, AT, b, d);
                encode::mem(&mut a.buf, m::LDQ_U, T10, AT, 0);
                let (ins, msk) = match ty {
                    Ty::C | Ty::Uc => (f::INSBL, f::MSKBL),
                    _ => (f::INSWL, f::MSKWL),
                };
                encode::opr(&mut a.buf, 0x12, ins, src.num(), AT, T11);
                encode::opr(&mut a.buf, 0x12, msk, T10, AT, T10);
                encode::opr(&mut a.buf, 0x11, f::BIS, T10, T11, T10);
                encode::mem(&mut a.buf, m::STQ_U, T10, AT, 0);
            }
            Ty::V => a.record_err(Error::BadOperands("store of void")),
        }
    }

    #[inline]
    fn emit_branch(a: &mut Asm<'_>, cond: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        if ty.is_float() {
            let BrOperand::R(rs2) = rs2 else {
                a.record_err(Error::BadOperands("float branch immediate"));
                return;
            };
            let (func, x, y, on_ne) = match cond {
                Cond::Lt => (ff::CMPTLT, rs1.num(), rs2.num(), true),
                Cond::Le => (ff::CMPTLE, rs1.num(), rs2.num(), true),
                Cond::Gt => (ff::CMPTLT, rs2.num(), rs1.num(), true),
                Cond::Ge => (ff::CMPTLE, rs2.num(), rs1.num(), true),
                Cond::Eq => (ff::CMPTEQ, rs1.num(), rs2.num(), true),
                Cond::Ne => (ff::CMPTEQ, rs1.num(), rs2.num(), false),
            };
            encode::fop(&mut a.buf, func, x, y, FSCR);
            let opcode = if on_ne { br::FBNE } else { br::FBEQ };
            Self::branch_to(a, l, opcode, FSCR);
            return;
        }
        let signed = ty.is_signed();
        // Compare-to-zero uses the direct branch forms when signed.
        if let BrOperand::I(0) = rs2 {
            if signed || matches!(cond, Cond::Eq | Cond::Ne) {
                let opcode = match cond {
                    Cond::Lt => br::BLT,
                    Cond::Le => br::BLE,
                    Cond::Gt => br::BGT,
                    Cond::Ge => br::BGE,
                    Cond::Eq => br::BEQ,
                    Cond::Ne => br::BNE,
                };
                Self::branch_to(a, l, opcode, rs1.num());
                return;
            }
        }
        // General: compare into AT, then bne/beq.
        let (func, swap, on_ne) = match (cond, signed) {
            (Cond::Eq, _) => (f::CMPEQ, false, true),
            (Cond::Ne, _) => (f::CMPEQ, false, false),
            (Cond::Lt, true) => (f::CMPLT, false, true),
            (Cond::Le, true) => (f::CMPLE, false, true),
            (Cond::Gt, true) => (f::CMPLE, false, false),
            (Cond::Ge, true) => (f::CMPLT, false, false),
            (Cond::Lt, false) => (f::CMPULT, false, true),
            (Cond::Le, false) => (f::CMPULE, false, true),
            (Cond::Gt, false) => (f::CMPULE, false, false),
            (Cond::Ge, false) => (f::CMPULT, false, false),
        };
        let _ = swap;
        match rs2 {
            BrOperand::R(r2) => {
                encode::opr(&mut a.buf, 0x10, func, rs1.num(), r2.num(), AT);
            }
            BrOperand::I(imm) => {
                // Canonicalize the immediate for 32-bit comparisons: the
                // register operand is sign-extended. Unsigned 32-bit
                // compares rely on sign-extension being order-preserving,
                // so the immediate must be sign-extended too.
                let imm = if is32(ty) { i64::from(imm as i32) } else { imm };
                if (0..256).contains(&imm) {
                    encode::opl(&mut a.buf, 0x10, func, rs1.num(), imm as u8, AT);
                } else {
                    encode::li64(&mut a.buf, PV, imm, AT);
                    encode::opr(&mut a.buf, 0x10, func, rs1.num(), PV, AT);
                }
            }
        }
        let opcode = if on_ne { br::BNE } else { br::BEQ };
        Self::branch_to(a, l, opcode, AT);
    }

    #[inline]
    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => Self::branch_to(a, l, br::BR, r::ZERO),
            JumpTarget::Reg(rs) => encode::jump(&mut a.buf, 0, r::ZERO, rs.num()),
            JumpTarget::Abs(addr) => {
                encode::li64(&mut a.buf, AT, addr as i64, PV);
                encode::jump(&mut a.buf, 0, r::ZERO, AT);
            }
        }
    }

    #[inline]
    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => Self::branch_to(a, l, br::BSR, r::RA),
            JumpTarget::Reg(rs) => encode::jump(&mut a.buf, 1, r::RA, rs.num()),
            JumpTarget::Abs(addr) => {
                encode::li64(&mut a.buf, PV, addr as i64, AT);
                encode::jump(&mut a.buf, 1, r::RA, PV);
            }
        }
    }

    #[inline]
    fn emit_nop(a: &mut Asm<'_>) {
        encode::nop(&mut a.buf);
    }

    fn call_begin(a: &mut Asm<'_>, sig: &Sig) -> CallFrame {
        let _ = a;
        CallFrame {
            sig: sig.clone(),
            stack_bytes: 0,
            next_int: 0,
            next_flt: 0,
            misc: 0,
        }
    }

    /// Note: staging adjusts `$sp`, which local slots are relative to —
    /// clients must not access locals between `call_arg` and `call_end`.
    fn call_arg(a: &mut Asm<'_>, cf: &mut CallFrame, idx: usize, ty: Ty, src: Reg) {
        let _ = idx;
        encode::mem(&mut a.buf, m::LDA, r::SP, r::SP, -8);
        if ty.is_float() {
            cf.next_flt += 1;
            if cf.next_flt > 4 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_flt as usize,
                    max: 4,
                });
                return;
            }
            let op = if ty == Ty::F { m::STS } else { m::STT };
            encode::mem(&mut a.buf, op, src.num(), r::SP, 0);
        } else {
            cf.next_int += 1;
            if cf.next_int > 6 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_int as usize,
                    max: 6,
                });
                return;
            }
            encode::mem(&mut a.buf, m::STQ, src.num(), r::SP, 0);
        }
        cf.stack_bytes += 8;
    }

    fn call_end(a: &mut Asm<'_>, cf: CallFrame, target: JumpTarget, ret: Option<(Ty, Reg)>) {
        let target = match target {
            JumpTarget::Reg(rs) => {
                encode::mov(&mut a.buf, PV, rs.num());
                JumpTarget::Reg(Reg::int(PV))
            }
            t => t,
        };
        let (mut int_slot, mut flt_slot) = (0u8, 0u8);
        let placements: Vec<(Ty, u8)> = cf
            .sig
            .args()
            .iter()
            .map(|&ty| {
                if ty.is_float() {
                    let s = flt_slot;
                    flt_slot += 1;
                    (ty, s)
                } else {
                    let s = int_slot;
                    int_slot += 1;
                    (ty, s)
                }
            })
            .collect();
        for &(ty, slot) in placements.iter().rev() {
            if ty.is_float() {
                let op = if ty == Ty::F { m::LDS } else { m::LDT };
                encode::mem(&mut a.buf, op, 16 + slot, r::SP, 0);
            } else {
                encode::mem(&mut a.buf, m::LDQ, 16 + slot, r::SP, 0);
            }
            encode::mem(&mut a.buf, m::LDA, r::SP, r::SP, 8);
        }
        Self::emit_jal(a, target);
        if let Some((ty, rd)) = ret {
            match ty {
                Ty::F | Ty::D => encode::fop17(&mut a.buf, CPYS, 0, 0, rd.num()),
                _ => encode::mov(&mut a.buf, rd.num(), r::V0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcode::{Assembler, RegClass};

    fn words(mem: &[u8], n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| u32::from_le_bytes(mem[i * 4..i * 4 + 4].try_into().unwrap()))
            .collect()
    }

    #[test]
    fn plus1_layout() {
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<Alpha>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        assert_eq!(x, Reg::int(16), "first arg in a0");
        a.addii(x, x, 1);
        a.reti(x);
        let fin = a.end().unwrap();
        let w = words(&mem, fin.len / 4);
        // lda sp, -96(sp).
        assert_eq!(w[0] >> 26, 0x08);
        assert_eq!((w[0] & 0xffff) as i16, -96);
        // After 11 reserved nops: addl a0, 1, a0 (literal form).
        assert_eq!(w[12] >> 26, 0x10);
        assert_eq!((w[12] >> 5) & 0x7f, u32::from(f::ADDL));
        assert_eq!((w[12] >> 12) & 1, 1, "literal form");
        // Tail: lda sp, +96(sp); ret.
        assert_eq!(w[w.len() - 2] >> 26, 0x08);
        assert_eq!(w[w.len() - 1] >> 26, 0x1a);
    }

    #[test]
    fn store_byte_is_synthesized_with_five_ops() {
        // The §6.2 case: an unsigned byte store expands to the
        // ldq_u/insbl/mskbl/bis/stq_u sequence.
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<Alpha>::lambda(&mut mem, "%p%i", Leaf::Yes).unwrap();
        let (p, v) = (a.arg(0), a.arg(1));
        let before = a.code_len();
        a.stuci(v, p, 3);
        let n = (a.code_len() - before) / 4;
        assert_eq!(n, 6, "lda + ldq_u + insbl + mskbl + bis + stq_u");
        a.retv();
        a.end().unwrap();
    }

    #[test]
    fn signed_byte_load_sign_extends() {
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<Alpha>::lambda(&mut mem, "%p", Leaf::Yes).unwrap();
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        let before = a.code_len();
        a.ldci(t, p, 0);
        assert_eq!((a.code_len() - before) / 4, 5, "lda+ldq_u+extbl+sll+sra");
        a.reti(t);
        a.end().unwrap();
    }

    #[test]
    fn division_calls_runtime_support() {
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<Alpha>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
        let (x, y) = (a.arg(0), a.arg(1));
        a.divi(x, x, y);
        a.reti(x);
        let fin = a.end().unwrap();
        let w = words(&mem, fin.len / 4);
        // Somewhere: a jsr (opcode 0x1a func 1) with ra = t9.
        let jsr = w
            .iter()
            .find(|&&w| w >> 26 == 0x1a && (w >> 14) & 3 == 1)
            .expect("jsr to the division routine");
        assert_eq!((jsr >> 21) & 31, 23, "links through t9");
    }

    #[test]
    fn callee_saved_patched_into_prologue() {
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<Alpha>::lambda(&mut mem, "", Leaf::No).unwrap();
        let s = a.getreg(RegClass::Persistent).unwrap();
        assert_eq!(s, Reg::int(9), "s0");
        a.setl(s, 1);
        a.retv();
        a.end().unwrap();
        let w = words(&mem, 13);
        // Reserved word 1 = stq ra, 0(sp); word 2 = stq s0, 8(sp).
        assert_eq!(w[1] >> 26, 0x2d);
        assert_eq!((w[1] >> 21) & 31, 26);
        assert_eq!(w[2] >> 26, 0x2d);
        assert_eq!((w[2] >> 21) & 31, 9);
        assert_eq!(w[2] & 0xffff, 8);
    }
}
