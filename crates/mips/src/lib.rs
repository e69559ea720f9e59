//! # vcode-mips — MIPS-I backend for vcode
//!
//! The paper's primary platform: the DECstation's R3000 (MIPS-I,
//! little-endian). This port covers the full VCODE core including the
//! machine's quirks the paper discusses:
//!
//! - **branch delay slots** — every branch is followed by a slot
//!   instruction; the backend fills it with `nop` unless the client
//!   schedules it via `schedule_delay` (paper §5.3);
//! - **load delay** — the word after a load may not use the result on
//!   MIPS-I; loads are padded with a `nop` unless the client promises
//!   distance via `raw_load`;
//! - **16-bit immediates** — constants that don't fit are synthesized
//!   with `lui`/`ori` through the assembler temporary `$at` (paper §1's
//!   "boundary conditions" made safe);
//! - **HI/LO multiply/divide** — `mult`/`div` plus `mflo`/`mfhi`.
//!
//! Generated code is executed by the `vcode-sim` crate's MIPS simulator.
//!
//! ## Conventions
//!
//! 32-bit word: `l`, `ul` and `p` fold to `i`/`u` (paper Table 1).
//! Arguments: up to four integers in `$a0`–`$a3`, up to two
//! floats/doubles in `$f12`/`$f14`. Scratch: `$at`, `$v1`, `$t8`, `$t9`,
//! `$f0`–`$f3`. Doubles live in even/odd FP register pairs (MIPS-I).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encode;

use encode::{fcmp, r, FMT_D, FMT_S, FMT_W};
use vcode::asm::Asm;
use vcode::label::{Fixup, FixupTarget, Label};
use vcode::op::{BinOp, Cond, Imm, UnOp};
use vcode::reg::{Reg, RegDesc, RegFile};
use vcode::target::{BrOperand, CallFrame, JumpTarget, Leaf, Off, StackSlot, Target};
use vcode::ty::{Sig, Ty};
use vcode::{Bank, Error};

/// The MIPS-I target.
#[derive(Debug, Clone, Copy)]
pub enum Mips {}

/// Primary integer scratch (`$at`, the assembler temporary).
const AT: u8 = r::AT;
/// Secondary integer scratch (`$v1`).
const V1: u8 = r::V1;
/// Call-target scratch (`$t9`).
const T9: u8 = r::T9;
/// Floating-point scratch pair (`$f2`/`$f3`).
const F_SCRATCH: u8 = 2;

static INT_REGS: [RegDesc; 25] = vcode::regdescs![int:
    8, CallerSaved, "t0";
    9, CallerSaved, "t1";
    10, CallerSaved, "t2";
    11, CallerSaved, "t3";
    12, CallerSaved, "t4";
    13, CallerSaved, "t5";
    14, CallerSaved, "t6";
    15, CallerSaved, "t7";
    7, Arg(3), "a3";
    6, Arg(2), "a2";
    5, Arg(1), "a1";
    4, Arg(0), "a0";
    16, CalleeSaved, "s0";
    17, CalleeSaved, "s1";
    18, CalleeSaved, "s2";
    19, CalleeSaved, "s3";
    20, CalleeSaved, "s4";
    21, CalleeSaved, "s5";
    22, CalleeSaved, "s6";
    23, CalleeSaved, "s7";
    1, Reserved, "at";
    2, Reserved, "v0";
    3, Reserved, "v1";
    24, Reserved, "t8";
    25, Reserved, "t9";
];

static FLT_REGS: [RegDesc; 16] = vcode::regdescs![flt:
    4, CallerSaved, "f4";
    6, CallerSaved, "f6";
    8, CallerSaved, "f8";
    10, CallerSaved, "f10";
    16, CallerSaved, "f16";
    18, CallerSaved, "f18";
    14, Arg(1), "f14";
    12, Arg(0), "f12";
    20, CalleeSaved, "f20";
    22, CalleeSaved, "f22";
    24, CalleeSaved, "f24";
    26, CalleeSaved, "f26";
    28, CalleeSaved, "f28";
    30, CalleeSaved, "f30";
    0, Reserved, "f0";
    2, Reserved, "f2";
];

static REGFILE: RegFile = RegFile {
    int: &INT_REGS,
    flt: &FLT_REGS,
    hard_temps: &[Reg::int(8), Reg::int(9), Reg::int(10), Reg::int(11)],
    hard_saved: &[Reg::int(16), Reg::int(17), Reg::int(18), Reg::int(19)],
    sp: Reg::int(r::SP),
    fp: Reg::int(r::FP),
    zero: Some(Reg::int(r::ZERO)),
};

/// Stack save-area layout (sp-relative): `ra` at 0, `$s0`–`$s7` at
/// 4..36, FP pairs 8-aligned at 40..88. Locals start at 88.
const RA_SLOT: i32 = 0;
const S_SLOTS: i32 = 4;
const F_SLOTS: i32 = 40;
const SAVE_AREA: i32 = 88;
/// Callee-saved FP pairs in save-slot order.
const F_CALLEE: [u8; 6] = [20, 22, 24, 26, 28, 30];

/// Fixup kind: patch the low 16 bits with the branch word displacement.
const FIX_BR16: u8 = 0;
/// Fixup kind: an `image_base` ([`Mips::patch_base`]).
const FIX_BASE: u8 = 1;

fn is_flt(ty: Ty) -> bool {
    ty.is_float()
}

impl Mips {
    /// Emits one branch instruction whose displacement will be patched,
    /// plus the delay-slot `nop` unless the client is scheduling it.
    fn branch(a: &mut Asm<'_>, l: Label, emit: impl FnOnce(&mut Asm<'_>)) {
        a.fixup_here(FixupTarget::Label(l), FIX_BR16);
        emit(a);
        if !a.manual_delay {
            encode::nop(&mut a.buf);
        }
    }

    /// Branch-always (`beq $0, $0`) with delay handling.
    fn goto(a: &mut Asm<'_>, l: Label) {
        Self::branch(a, l, |a| encode::beq(&mut a.buf, r::ZERO, r::ZERO, 0));
    }

    /// Patches an `image_base`'s `addiu` from `$ra`, which holds its own
    /// address, with the byte distance from there to `dest`.
    #[cold]
    fn patch_base(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        let Ok(disp) = i16::try_from(dest as i64 - fixup.at as i64) else {
            a.record_err(Error::BranchOutOfRange { at: fixup.at, dest });
            return;
        };
        let old = a.buf.read_u32(fixup.at);
        a.buf
            .patch_u32(fixup.at, (old & 0xffff_0000) | u32::from(disp as u16));
    }

    /// Pads the MIPS-I load delay unless a `raw_load` is in progress.
    #[inline]
    fn load_delay(a: &mut Asm<'_>) {
        if !a.raw_load {
            encode::nop(&mut a.buf);
        }
    }

    /// Resolves a VCODE memory operand to `(base, imm16)` using `$at`
    /// when the offset is a register or does not fit 16 bits.
    #[inline]
    fn mem(a: &mut Asm<'_>, base: Reg, off: Off) -> (u8, i16) {
        match off {
            Off::I(d) => match i16::try_from(d) {
                Ok(d16) => (base.num(), d16),
                Err(_) => {
                    encode::li(&mut a.buf, AT, d as u32);
                    encode::addu(&mut a.buf, AT, base.num(), AT);
                    (AT, 0)
                }
            },
            Off::R(idx) => {
                encode::addu(&mut a.buf, AT, base.num(), idx.num());
                (AT, 0)
            }
        }
    }

    /// Loads a raw 32-bit pattern into an FP register via `$at`.
    fn load_fp_bits(a: &mut Asm<'_>, fd: u8, bits: u32) {
        if bits == 0 {
            encode::mtc1(&mut a.buf, r::ZERO, fd);
        } else {
            encode::li(&mut a.buf, AT, bits);
            encode::mtc1(&mut a.buf, AT, fd);
        }
    }

    fn fmt(ty: Ty) -> u8 {
        if ty == Ty::D {
            FMT_D
        } else {
            FMT_S
        }
    }
}

/// Immediate-form fallback: the constant does not fit the immediate
/// field, so it is synthesized in `$at` (paper §1's "boundary conditions"
/// handled centrally). Out of line so the hot arms of `emit_binop_imm`
/// fold into each `*ii` call site.
#[inline(never)]
fn binop_imm_slow(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm32: i32) {
    encode::li(&mut a.buf, AT, imm32 as u32);
    Mips::emit_binop(a, op, ty, rd, rs, Reg::int(AT));
}

impl Target for Mips {
    const NAME: &'static str = "mips";
    const WORD_BITS: u32 = 32;
    const BRANCH_DELAY_SLOTS: u32 = 1;
    const LOAD_DELAY_CYCLES: u32 = 1;
    // ra + 8 s-regs + 6 FP pairs (2 swc1 each) = 21 reserved instructions.
    const MAX_SAVE_BYTES: usize = (1 + 8 + 12) * 4;
    const CHECKS: vcode::TargetChecks = vcode::TargetChecks {
        word_bits: Self::WORD_BITS,
        insn_align: 4,
        branch_delay_slots: Self::BRANCH_DELAY_SLOTS,
        load_delay_cycles: Self::LOAD_DELAY_CYCLES,
        // $at (instruction synthesis), $v0/$v1 (return), $t8/$t9
        // (scratch for large immediates and indirect calls).
        reserved_int: &[1, 2, 3, 24, 25],
        // $f0 (return) and $f2 (synthesis scratch).
        reserved_flt: &[0, 2],
    };

    fn regfile() -> &'static RegFile {
        &REGFILE
    }

    fn begin(a: &mut Asm<'_>, sig: &Sig, _leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error> {
        // addiu sp, sp, -FRAME; imm16 patched at `end`.
        a.ts.frame_fix = a.buf.len();
        encode::addiu(&mut a.buf, r::SP, r::SP, 0);
        let start = a.buf.reserve(Self::MAX_SAVE_BYTES, 0);
        a.ts.save_area = (start, a.buf.len());
        let (mut ni, mut nf) = (0u8, 0u8);
        for &ty in sig.args() {
            if is_flt(ty) {
                if nf >= 2 {
                    return Err(Error::TooManyArgs {
                        requested: sig.args().len(),
                        max: 2,
                    });
                }
                let reg = Reg::flt(12 + nf * 2);
                a.ra.take(reg);
                args.push(reg);
                nf += 1;
            } else {
                if ni >= 4 {
                    return Err(Error::TooManyArgs {
                        requested: sig.args().len(),
                        max: 4,
                    });
                }
                let reg = Reg::int(4 + ni);
                a.ra.take(reg);
                args.push(reg);
                ni += 1;
            }
        }
        Ok(())
    }

    fn local(a: &mut Asm<'_>, ty: Ty) -> StackSlot {
        let size = ty.size_bytes(32);
        let start = a.locals_bytes.div_ceil(size) * size;
        a.locals_bytes = start + size;
        StackSlot {
            base: Reg::int(r::SP),
            off: SAVE_AREA + start as i32,
            ty,
        }
    }

    #[inline]
    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>) {
        match val {
            Some((Ty::F, v)) => encode::fp_mov(&mut a.buf, FMT_S, 0, v.num()),
            Some((Ty::D, v)) => encode::fp_mov(&mut a.buf, FMT_D, 0, v.num()),
            Some((_, v)) => encode::or(&mut a.buf, r::V0, v.num(), r::ZERO),
            None => {}
        }
        let l = a.epilogue;
        Self::goto(a, l);
    }

    fn end(a: &mut Asm<'_>) -> Result<(), Error> {
        let used_s = a.ra.callee_used(Bank::Int);
        let used_f = a.ra.callee_used(Bank::Flt);
        let leaf = matches!(a.leaf, Leaf::Yes);
        // Fill the reserved prologue save area (paper §5.2): saves are
        // only known now.
        let (start, end) = a.ts.save_area;
        let mut at = start;
        let mut put = |a: &mut Asm<'_>, word: u32| {
            a.buf.patch_u32(at, word);
            at += 4;
        };
        if !leaf {
            put(a, encode::itype(0x2b, r::SP, r::RA, RA_SLOT as u16)); // sw ra
        }
        for (k, s) in (16u8..24).enumerate() {
            if used_s & (1 << s) != 0 {
                let off = (S_SLOTS + 4 * k as i32) as u16;
                put(a, encode::itype(0x2b, r::SP, s, off));
            }
        }
        for (j, &f) in F_CALLEE.iter().enumerate() {
            if used_f & (1 << f) != 0 {
                let off = F_SLOTS + 8 * j as i32;
                put(a, encode::itype(0x39, r::SP, f, off as u16));
                put(a, encode::itype(0x39, r::SP, f + 1, (off + 4) as u16));
            }
        }
        // Skip the unused tail of the reserved area (zero-filled = nops)
        // with a branch-always so calls don't execute a run of nops. The
        // branch's delay slot is the first skipped nop.
        let rest_words = (end - at) / 4;
        if rest_words >= 3 {
            let disp = (rest_words - 2) as u16; // from the delay slot to `end`
            a.buf
                .patch_u32(at, encode::itype(0x04, r::ZERO, r::ZERO, disp));
        }
        // Backpatch the activation-record size.
        let frame = (SAVE_AREA as usize + a.locals_bytes).div_ceil(8) * 8;
        let old = a.buf.read_u32(a.ts.frame_fix);
        a.buf.patch_u32(
            a.ts.frame_fix,
            (old & 0xffff_0000) | ((-(frame as i32)) as u16 as u32),
        );
        // Deferred epilogue.
        let here = a.buf.len();
        a.labels.bind(a.epilogue, here);
        if !leaf {
            encode::lw(&mut a.buf, r::RA, r::SP, RA_SLOT as i16);
        }
        for (k, s) in (16u8..24).enumerate() {
            if used_s & (1 << s) != 0 {
                encode::lw(&mut a.buf, s, r::SP, (S_SLOTS + 4 * k as i32) as i16);
            }
        }
        for (j, &f) in F_CALLEE.iter().enumerate() {
            if used_f & (1 << f) != 0 {
                let off = (F_SLOTS + 8 * j as i32) as i16;
                encode::lwc1(&mut a.buf, f, r::SP, off);
                encode::lwc1(&mut a.buf, f + 1, r::SP, off + 4);
            }
        }
        encode::addiu(&mut a.buf, r::SP, r::SP, frame as i16);
        encode::jr(&mut a.buf, r::RA);
        encode::nop(&mut a.buf); // branch delay
        Ok(())
    }

    #[inline]
    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        if fixup.kind == FIX_BASE {
            return Self::patch_base(a, fixup, dest);
        }
        // Branch displacement is in words, relative to the delay slot.
        let disp = (dest as i64 - (fixup.at as i64 + 4)) / 4;
        if i16::try_from(disp).is_err() {
            a.record_err(Error::BranchOutOfRange { at: fixup.at, dest });
            return;
        }
        let old = a.buf.read_u32(fixup.at);
        a.buf
            .patch_u32(fixup.at, (old & 0xffff_0000) | (disp as u16 as u32));
    }

    #[inline(always)]
    fn emit_binop(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        if is_flt(ty) {
            let funct = match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
                _ => {
                    a.record_err(Error::BadOperands("float binop"));
                    return;
                }
            };
            encode::fp_arith(
                &mut a.buf,
                Self::fmt(ty),
                funct,
                rd.num(),
                rs1.num(),
                rs2.num(),
            );
            return;
        }
        let (rd, rs1, rs2) = (rd.num(), rs1.num(), rs2.num());
        let signed = ty.is_signed();
        match op {
            BinOp::Add => encode::addu(&mut a.buf, rd, rs1, rs2),
            BinOp::Sub => encode::subu(&mut a.buf, rd, rs1, rs2),
            BinOp::And => encode::and(&mut a.buf, rd, rs1, rs2),
            BinOp::Or => encode::or(&mut a.buf, rd, rs1, rs2),
            BinOp::Xor => encode::xor(&mut a.buf, rd, rs1, rs2),
            BinOp::Mul => {
                if signed {
                    encode::mult(&mut a.buf, rs1, rs2);
                } else {
                    encode::multu(&mut a.buf, rs1, rs2);
                }
                encode::mflo(&mut a.buf, rd);
            }
            BinOp::Div | BinOp::Mod => {
                if signed {
                    encode::div(&mut a.buf, rs1, rs2);
                } else {
                    encode::divu(&mut a.buf, rs1, rs2);
                }
                if op == BinOp::Div {
                    encode::mflo(&mut a.buf, rd);
                } else {
                    encode::mfhi(&mut a.buf, rd);
                }
            }
            BinOp::Lsh => encode::sllv(&mut a.buf, rd, rs1, rs2),
            BinOp::Rsh if signed => encode::srav(&mut a.buf, rd, rs1, rs2),
            BinOp::Rsh => encode::srlv(&mut a.buf, rd, rs1, rs2),
        }
    }

    #[inline(always)]
    fn emit_binop_imm(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        let imm32 = imm as i32;
        match op {
            BinOp::Add if i16::try_from(imm32).is_ok() => {
                encode::addiu(&mut a.buf, rd.num(), rs.num(), imm32 as i16);
                return;
            }
            BinOp::Sub if i16::try_from(-(imm32 as i64)).is_ok() => {
                encode::addiu(&mut a.buf, rd.num(), rs.num(), -imm32 as i16);
                return;
            }
            BinOp::And
                if u16::try_from(imm32 as u32)
                    .map(|_| imm32 >= 0)
                    .unwrap_or(false) =>
            {
                encode::andi(&mut a.buf, rd.num(), rs.num(), imm32 as u16);
                return;
            }
            BinOp::Or
                if u16::try_from(imm32 as u32)
                    .map(|_| imm32 >= 0)
                    .unwrap_or(false) =>
            {
                encode::ori(&mut a.buf, rd.num(), rs.num(), imm32 as u16);
                return;
            }
            BinOp::Xor
                if u16::try_from(imm32 as u32)
                    .map(|_| imm32 >= 0)
                    .unwrap_or(false) =>
            {
                encode::xori(&mut a.buf, rd.num(), rs.num(), imm32 as u16);
                return;
            }
            BinOp::Lsh => {
                encode::sll(&mut a.buf, rd.num(), rs.num(), imm32 as u8 & 31);
                return;
            }
            BinOp::Rsh if ty.is_signed() => {
                encode::sra(&mut a.buf, rd.num(), rs.num(), imm32 as u8 & 31);
                return;
            }
            BinOp::Rsh => {
                encode::srl(&mut a.buf, rd.num(), rs.num(), imm32 as u8 & 31);
                return;
            }
            _ => {}
        }
        binop_imm_slow(a, op, ty, rd, rs, imm32);
    }

    #[inline]
    fn emit_unop(a: &mut Asm<'_>, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
        match (op, is_flt(ty)) {
            (UnOp::Mov, true) => {
                if rd != rs {
                    encode::fp_mov(&mut a.buf, Self::fmt(ty), rd.num(), rs.num());
                }
            }
            (UnOp::Mov, false) => {
                if rd != rs {
                    encode::or(&mut a.buf, rd.num(), rs.num(), r::ZERO);
                }
            }
            (UnOp::Neg, true) => encode::fp_neg(&mut a.buf, Self::fmt(ty), rd.num(), rs.num()),
            (UnOp::Neg, false) => encode::subu(&mut a.buf, rd.num(), r::ZERO, rs.num()),
            (UnOp::Com, _) => encode::nor(&mut a.buf, rd.num(), rs.num(), r::ZERO),
            (UnOp::Not, _) => encode::sltiu(&mut a.buf, rd.num(), rs.num(), 1),
        }
    }

    #[inline]
    fn emit_set(a: &mut Asm<'_>, ty: Ty, rd: Reg, imm: Imm) {
        match imm {
            Imm::Int(v) => encode::li(&mut a.buf, rd.num(), v as u32),
            // No PC-relative addressing on MIPS-I: float constants are
            // synthesized inline through `$at`/`mtc1` rather than loaded
            // from a pool (see DESIGN.md).
            Imm::F32(v) => Self::load_fp_bits(a, rd.num(), v.to_bits()),
            Imm::F64(v) => {
                let bits = v.to_bits();
                // Little-endian pair: even register holds the low word.
                Self::load_fp_bits(a, rd.num(), bits as u32);
                Self::load_fp_bits(a, rd.num() + 1, (bits >> 32) as u32);
            }
        }
        let _ = ty;
    }

    #[inline]
    fn emit_cvt(a: &mut Asm<'_>, from: Ty, to: Ty, rd: Reg, rs: Reg) {
        match (from.is_float(), to.is_float()) {
            // On a 32-bit machine the integer family is one register
            // class: conversions are moves (paper Table 1: "some of these
            // types may not be distinct").
            (false, false) => {
                if rd != rs {
                    encode::or(&mut a.buf, rd.num(), rs.num(), r::ZERO);
                }
            }
            (false, true) => {
                encode::mtc1(&mut a.buf, rs.num(), rd.num());
                if to == Ty::D {
                    encode::cvt_d(&mut a.buf, FMT_W, rd.num(), rd.num());
                } else {
                    encode::cvt_s(&mut a.buf, FMT_W, rd.num(), rd.num());
                }
                if from == Ty::U || from == Ty::Ul {
                    // Unsigned source: the value was converted as signed;
                    // add 2^32 when the sign bit was set.
                    let skip = a.labels.fresh();
                    a.fixup_here(FixupTarget::Label(skip), FIX_BR16);
                    encode::bgez(&mut a.buf, rs.num(), 0);
                    encode::nop(&mut a.buf);
                    // 2^32 as a double: high word 0x41F00000, low 0.
                    Self::load_fp_bits(a, F_SCRATCH, 0);
                    Self::load_fp_bits(a, F_SCRATCH + 1, 0x41f0_0000);
                    encode::fp_arith(&mut a.buf, FMT_D, 0, rd.num(), rd.num(), F_SCRATCH);
                    let here = a.buf.len();
                    a.labels.bind(skip, here);
                }
            }
            (true, false) => {
                encode::trunc_w(&mut a.buf, Self::fmt(from), F_SCRATCH, rs.num());
                encode::mfc1(&mut a.buf, rd.num(), F_SCRATCH);
                Self::load_delay(a);
            }
            (true, true) => {
                if from == Ty::F && to == Ty::D {
                    encode::cvt_d(&mut a.buf, FMT_S, rd.num(), rs.num());
                } else if from == Ty::D && to == Ty::F {
                    encode::cvt_s(&mut a.buf, FMT_D, rd.num(), rs.num());
                } else if rd != rs {
                    encode::fp_mov(&mut a.buf, Self::fmt(from), rd.num(), rs.num());
                }
            }
        }
    }

    #[inline]
    fn emit_ld(a: &mut Asm<'_>, ty: Ty, rd: Reg, base: Reg, off: Off) {
        let (b, o) = Self::mem(a, base, off);
        match ty {
            Ty::C => encode::lb(&mut a.buf, rd.num(), b, o),
            Ty::Uc => encode::lbu(&mut a.buf, rd.num(), b, o),
            Ty::S => encode::lh(&mut a.buf, rd.num(), b, o),
            Ty::Us => encode::lhu(&mut a.buf, rd.num(), b, o),
            Ty::I | Ty::U | Ty::L | Ty::Ul | Ty::P => encode::lw(&mut a.buf, rd.num(), b, o),
            Ty::F => encode::lwc1(&mut a.buf, rd.num(), b, o),
            Ty::D => {
                encode::lwc1(&mut a.buf, rd.num(), b, o);
                encode::lwc1(&mut a.buf, rd.num() + 1, b, o + 4);
            }
            Ty::V => {
                a.record_err(Error::BadOperands("load of void"));
                return;
            }
        }
        Self::load_delay(a);
    }

    #[inline]
    fn emit_st(a: &mut Asm<'_>, ty: Ty, src: Reg, base: Reg, off: Off) {
        let (b, o) = Self::mem(a, base, off);
        match ty {
            Ty::C | Ty::Uc => encode::sb(&mut a.buf, src.num(), b, o),
            Ty::S | Ty::Us => encode::sh(&mut a.buf, src.num(), b, o),
            Ty::I | Ty::U | Ty::L | Ty::Ul | Ty::P => encode::sw(&mut a.buf, src.num(), b, o),
            Ty::F => encode::swc1(&mut a.buf, src.num(), b, o),
            Ty::D => {
                encode::swc1(&mut a.buf, src.num(), b, o);
                encode::swc1(&mut a.buf, src.num() + 1, b, o + 4);
            }
            Ty::V => a.record_err(Error::BadOperands("store of void")),
        }
    }

    #[inline]
    fn emit_branch(a: &mut Asm<'_>, cond: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        if is_flt(ty) {
            let BrOperand::R(rs2) = rs2 else {
                a.record_err(Error::BadOperands("float branch immediate"));
                return;
            };
            let fmt = Self::fmt(ty);
            let (code, x, y, on_true) = match cond {
                Cond::Lt => (fcmp::LT, rs1.num(), rs2.num(), true),
                Cond::Le => (fcmp::LE, rs1.num(), rs2.num(), true),
                Cond::Gt => (fcmp::LT, rs2.num(), rs1.num(), true),
                Cond::Ge => (fcmp::LE, rs2.num(), rs1.num(), true),
                Cond::Eq => (fcmp::EQ, rs1.num(), rs2.num(), true),
                Cond::Ne => (fcmp::EQ, rs1.num(), rs2.num(), false),
            };
            encode::fp_cmp(&mut a.buf, fmt, code, x, y);
            // MIPS-I: one instruction between c.cond and bc1.
            encode::nop(&mut a.buf);
            Self::branch(a, l, |a| encode::bc1(&mut a.buf, on_true, 0));
            return;
        }
        let signed = ty.is_signed();
        let r1 = rs1.num();
        // Compare-against-zero special cases use the native one-instruction
        // branches.
        if let BrOperand::I(0) = rs2 {
            match (cond, signed) {
                (Cond::Eq, _) => {
                    return Self::branch(a, l, |a| encode::beq(&mut a.buf, r1, r::ZERO, 0))
                }
                (Cond::Ne, _) => {
                    return Self::branch(a, l, |a| encode::bne(&mut a.buf, r1, r::ZERO, 0))
                }
                (Cond::Lt, true) => return Self::branch(a, l, |a| encode::bltz(&mut a.buf, r1, 0)),
                (Cond::Ge, true) => return Self::branch(a, l, |a| encode::bgez(&mut a.buf, r1, 0)),
                (Cond::Le, true) => return Self::branch(a, l, |a| encode::blez(&mut a.buf, r1, 0)),
                (Cond::Gt, true) => return Self::branch(a, l, |a| encode::bgtz(&mut a.buf, r1, 0)),
                _ => {}
            }
        }
        // General case: materialize the second operand if immediate, then
        // slt/sltu + beq/bne against zero (or beq/bne directly).
        let r2 = match rs2 {
            BrOperand::R(r2) => r2.num(),
            BrOperand::I(imm) => {
                // slti covers lt/ge with a fitting immediate.
                if matches!(cond, Cond::Lt | Cond::Ge) {
                    if let Ok(i16v) = i16::try_from(imm) {
                        if signed {
                            encode::slti(&mut a.buf, AT, r1, i16v);
                        } else {
                            encode::sltiu(&mut a.buf, AT, r1, i16v);
                        }
                        let on_ne = cond == Cond::Lt;
                        return Self::branch(a, l, |a| {
                            if on_ne {
                                encode::bne(&mut a.buf, AT, r::ZERO, 0);
                            } else {
                                encode::beq(&mut a.buf, AT, r::ZERO, 0);
                            }
                        });
                    }
                }
                encode::li(&mut a.buf, V1, imm as u32);
                V1
            }
        };
        match cond {
            Cond::Eq => Self::branch(a, l, |a| encode::beq(&mut a.buf, r1, r2, 0)),
            Cond::Ne => Self::branch(a, l, |a| encode::bne(&mut a.buf, r1, r2, 0)),
            Cond::Lt | Cond::Le | Cond::Gt | Cond::Ge => {
                let (x, y, on_ne) = match cond {
                    Cond::Lt => (r1, r2, true),
                    Cond::Ge => (r1, r2, false),
                    Cond::Gt => (r2, r1, true),
                    _ => (r2, r1, false), // Le
                };
                if signed {
                    encode::slt(&mut a.buf, AT, x, y);
                } else {
                    encode::sltu(&mut a.buf, AT, x, y);
                }
                Self::branch(a, l, |a| {
                    if on_ne {
                        encode::bne(&mut a.buf, AT, r::ZERO, 0);
                    } else {
                        encode::beq(&mut a.buf, AT, r::ZERO, 0);
                    }
                });
            }
        }
    }

    #[inline]
    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => Self::goto(a, l),
            JumpTarget::Reg(rs) => {
                encode::jr(&mut a.buf, rs.num());
                if !a.manual_delay {
                    encode::nop(&mut a.buf);
                }
            }
            JumpTarget::Abs(addr) => {
                encode::li(&mut a.buf, AT, addr as u32);
                encode::jr(&mut a.buf, AT);
                encode::nop(&mut a.buf);
            }
        }
    }

    #[inline]
    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                Self::branch(a, l, |a| encode::bal(&mut a.buf, 0));
            }
            JumpTarget::Reg(rs) => {
                encode::jalr(&mut a.buf, r::RA, rs.num());
                encode::nop(&mut a.buf);
            }
            JumpTarget::Abs(addr) => {
                encode::li(&mut a.buf, AT, addr as u32);
                encode::jalr(&mut a.buf, r::RA, AT);
                encode::nop(&mut a.buf);
            }
        }
    }

    #[inline]
    fn emit_nop(a: &mut Asm<'_>) {
        encode::nop(&mut a.buf);
    }

    /// `bal .+8; nop; addiu rd, $ra, disp`: three instructions, the base
    /// within 32 KiB of the `addiu`, whose address `bal` leaves in `$ra`.
    /// A leaf returns through `$ra` without saving it, so there it
    /// latches [`Error::CallInLeaf`].
    fn emit_image_base(a: &mut Asm<'_>, rd: Reg) {
        if a.leaf == Leaf::Yes {
            a.record_err(Error::CallInLeaf);
            return;
        }
        encode::bal(&mut a.buf, 1);
        encode::nop(&mut a.buf);
        a.fixup_here(FixupTarget::Base, FIX_BASE);
        encode::addiu(&mut a.buf, rd.num(), r::RA, 0);
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
    /// clients must not access locals between `call_arg` and `call_end`
    /// (evaluate arguments into registers first, as the experimental
    /// clients do).
    fn call_arg(a: &mut Asm<'_>, cf: &mut CallFrame, idx: usize, ty: Ty, src: Reg) {
        let _ = idx;
        // Stage on the stack (order-independent shuffle; see the x86-64
        // backend for the rationale).
        encode::addiu(&mut a.buf, r::SP, r::SP, -8);
        if is_flt(ty) {
            cf.next_flt += 1;
            if cf.next_flt > 2 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_flt as usize,
                    max: 2,
                });
                return;
            }
            encode::swc1(&mut a.buf, src.num(), r::SP, 0);
            if ty == Ty::D {
                encode::swc1(&mut a.buf, src.num() + 1, r::SP, 4);
            }
        } else {
            cf.next_int += 1;
            if cf.next_int > 4 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_int as usize,
                    max: 4,
                });
                return;
            }
            encode::sw(&mut a.buf, src.num(), r::SP, 0);
        }
        cf.stack_bytes += 8;
    }

    fn call_end(a: &mut Asm<'_>, cf: CallFrame, target: JumpTarget, ret: Option<(Ty, Reg)>) {
        // Secure a register target before the pops clobber argument
        // registers.
        let target = match target {
            JumpTarget::Reg(rs) => {
                encode::or(&mut a.buf, T9, rs.num(), r::ZERO);
                JumpTarget::Reg(Reg::int(T9))
            }
            t => t,
        };
        let mut int_slot = 0u8;
        let mut flt_slot = 0u8;
        let placements: Vec<(Ty, u8)> = cf
            .sig
            .args()
            .iter()
            .map(|&ty| {
                if is_flt(ty) {
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
            if is_flt(ty) {
                let f = 12 + slot * 2;
                encode::lwc1(&mut a.buf, f, r::SP, 0);
                if ty == Ty::D {
                    encode::lwc1(&mut a.buf, f + 1, r::SP, 4);
                }
            } else {
                encode::lw(&mut a.buf, 4 + slot, r::SP, 0);
            }
            encode::addiu(&mut a.buf, r::SP, r::SP, 8);
        }
        match target {
            JumpTarget::Label(l) => Self::branch(a, l, |a| encode::bal(&mut a.buf, 0)),
            JumpTarget::Reg(rs) => {
                encode::jalr(&mut a.buf, r::RA, rs.num());
                encode::nop(&mut a.buf);
            }
            JumpTarget::Abs(addr) => {
                encode::li(&mut a.buf, AT, addr as u32);
                encode::jalr(&mut a.buf, r::RA, AT);
                encode::nop(&mut a.buf);
            }
        }
        if let Some((ty, rd)) = ret {
            match ty {
                Ty::F => encode::fp_mov(&mut a.buf, FMT_S, rd.num(), 0),
                Ty::D => encode::fp_mov(&mut a.buf, FMT_D, rd.num(), 0),
                _ => encode::or(&mut a.buf, rd.num(), r::V0, r::ZERO),
            }
        }
    }

    #[inline]
    fn emit_ext_unop(a: &mut Asm<'_>, op: vcode::ext::ExtUnOp, ty: Ty, rd: Reg, rs: Reg) -> bool {
        // MIPS-I has a hardware square root on some implementations; we
        // expose abs.fmt (funct 5) as the one native extension.
        if op == vcode::ext::ExtUnOp::Abs && is_flt(ty) {
            a.buf
                .put_u32(encode::cop1(Self::fmt(ty), 0, rs.num(), rd.num(), 5));
            return true;
        }
        false
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
    fn plus1_generates_figure_1_shape() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        assert_eq!(x, Reg::int(4), "first int arg in $a0");
        a.addii(x, x, 1);
        a.reti(x);
        let fin = a.end().unwrap();
        let w = words(&mem, fin.len / 4);
        // Word 0: addiu sp, sp, -frame (88 rounded).
        assert_eq!(w[0] >> 16, 0x27bd, "addiu sp, sp");
        assert_eq!((w[0] & 0xffff) as i16, -88);
        // After the 21 reserved words: addiu a0, a0, 1.
        assert_eq!(w[22], 0x2484_0001);
        // Then move to v0 and branch to the epilogue.
        assert_eq!(w[23], encode::rtype(4, 0, 2, 0, 0x25), "or v0, a0, zero");
        // Epilogue tail: jr ra; nop.
        assert_eq!(w[w.len() - 2], 0x03e0_0008);
        assert_eq!(w[w.len() - 1], 0);
    }

    #[test]
    fn leaf_prologue_skips_unused_save_area() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        a.retv();
        let _ = a.end().unwrap();
        let w = words(&mem, 22);
        // A leaf with no saves branches over the whole reserved area
        // (21 words): beq $0,$0,+19 lands on word 22, and the delay slot
        // (word 2) is a nop.
        assert_eq!(
            w[1],
            encode::itype(0x04, r::ZERO, r::ZERO, 19),
            "skip branch"
        );
        assert_eq!(w[2], 0, "delay slot is a nop");
    }

    #[test]
    fn non_leaf_saves_ra() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "", Leaf::No).unwrap();
        a.retv();
        let _ = a.end().unwrap();
        let w = words(&mem, 2);
        assert_eq!(w[1], encode::itype(0x2b, r::SP, r::RA, 0), "sw ra, 0(sp)");
    }

    #[test]
    fn branch_displacement_links() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        let l = a.genlabel();
        a.beqii(x, 0, l); // beq a0, $0 + delay nop
        a.addii(x, x, 1);
        a.label(l);
        a.reti(x);
        a.end().unwrap();
        let w = words(&mem, 32);
        // Word 22 is the beq; target is word 25; disp = 25 - 23 = 2.
        assert_eq!(w[22] >> 16, (0x04 << 10) | (4 << 5), "beq a0, zero");
        assert_eq!(w[22] & 0xffff, 2);
        assert_eq!(w[23], 0, "delay slot nop");
    }

    #[test]
    fn schedule_delay_fills_branch_slot() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        let l = a.genlabel();
        a.label(l);
        a.schedule_delay(|a| a.bneii(x, 0, l), |a| a.subii(x, x, 1));
        a.reti(x);
        a.end().unwrap();
        let w = words(&mem, 32);
        // bne followed immediately by the scheduled subii, not a nop.
        assert_eq!(w[22] >> 26, 0x05, "bne");
        assert_eq!(w[23], 0x2484_ffff, "addiu a0, a0, -1 in the delay slot");
    }

    #[test]
    fn loads_are_padded_unless_raw() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%p", Leaf::Yes).unwrap();
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.ldii(t, p, 0);
        let n_padded = a.code_len();
        a.raw_load(|a| a.ldii(t, p, 4), 1);
        let n_raw = a.code_len();
        assert_eq!(n_padded - 88, 8, "lw + nop after the 88-byte prologue");
        assert_eq!(n_raw - n_padded, 4, "raw load is just the lw");
        a.reti(t);
        a.end().unwrap();
    }

    #[test]
    fn big_immediates_synthesized_via_at() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        let before = a.code_len();
        a.addii(x, x, 0x12345678);
        // lui + ori + addu = 3 instructions.
        assert_eq!(a.code_len() - before, 12);
        a.reti(x);
        a.end().unwrap();
    }

    #[test]
    fn double_set_loads_both_halves() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        let f = a.getreg_f(RegClass::Temp).unwrap();
        assert_eq!(f.num() % 2, 0, "doubles use even registers");
        a.setd(f, 1.0);
        a.retd(f);
        a.end().unwrap();
        // 1.0f64 = 0x3FF0000000000000: low word 0 (mtc1 zero), high word
        // 0x3FF00000 (lui + mtc1).
        let w = words(&mem, 30);
        assert_eq!(
            w[22],
            encode::cop1(4, r::ZERO, f.num(), 0, 0),
            "mtc1 zero, low"
        );
    }

    #[test]
    fn branch_out_of_range_is_detected() {
        let mut mem = vec![0u8; 1 << 20];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        let l = a.genlabel();
        a.beqii(x, 0, l);
        for _ in 0..40_000 {
            a.nop();
        }
        a.label(l);
        a.reti(x);
        match a.end() {
            Err(Error::BranchOutOfRange { .. }) => {}
            other => panic!("expected BranchOutOfRange, got {other:?}"),
        }
    }
}
