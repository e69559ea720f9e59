//! # vcode-sparc — SPARC V8 backend for vcode
//!
//! The second of the paper's three platforms. The interesting ports of
//! call here:
//!
//! - **register windows** — the prologue is a single `save` that shifts
//!   the window, so callee-saved integer state costs nothing: `%l0`–`%l7`
//!   serve as persistent registers with no save/restore code, and the
//!   epilogue is `ret` with `restore` in its delay slot;
//! - **branch delay slots** — as on MIPS, filled with `nop` unless the
//!   client schedules them;
//! - **the Y register** — 32-bit division reads `Y:rs1`, so signed
//!   divides cost a `sra`/`wr %y` setup, and `mod` is synthesized as
//!   `x - (x / y) * y`;
//! - **no GPR↔FPR moves** — transfers bounce through a scratch slot in
//!   the activation record, as V8 compilers really did.
//!
//! Like the MIPS port, generated code executes on the `vcode-sim`
//! simulator (a little-endian variant; see DESIGN.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encode;

use encode::{cond, fcond, mem, op3, opf, r};
use vcode::asm::Asm;
use vcode::label::{Fixup, FixupTarget, Label};
use vcode::op::{BinOp, Cond, Imm, UnOp};
use vcode::reg::{Reg, RegDesc, RegFile};
use vcode::target::{BrOperand, CallFrame, JumpTarget, Leaf, Off, StackSlot, Target};
use vcode::ty::{Sig, Ty};
use vcode::Error;

/// The SPARC V8 target.
#[derive(Debug, Clone, Copy)]
pub enum Sparc {}

/// Primary scratch (`%g1`).
const G1: u8 = r::G1;
/// Secondary scratch (`%g2`).
const G2: u8 = r::G2;
/// FP scratch pair (`%f28`/`%f29`) and single (`%f30`).
const FS: u8 = 28;

/// ABI window+hidden-param area at the bottom of every frame.
const ABI_AREA: i32 = 92;
/// Outgoing-argument staging area (8 slots).
const STAGE_AREA: i32 = 64;
/// Scratch bytes at the top of the frame for GPR↔FPR transfers.
const SCRATCH_AREA: i32 = 16;
/// Minimum frame size.
const MIN_FRAME: i32 = ABI_AREA + STAGE_AREA + SCRATCH_AREA;

/// Fixup kinds.
const FIX_B22: u8 = 0;
const FIX_CALL30: u8 = 1;

// %o registers: clobbered by calls (the callee's window aliases them),
// so they are the temporaries. %l registers are window-local, preserved
// across calls for free; %i registers carry the incoming arguments.
static INT_REGS: [RegDesc; 24] = vcode::regdescs![int:
    8, CallerSaved, "o0";
    9, CallerSaved, "o1";
    10, CallerSaved, "o2";
    11, CallerSaved, "o3";
    12, CallerSaved, "o4";
    13, CallerSaved, "o5";
    3, CallerSaved, "g3";
    4, CallerSaved, "g4";
    16, CalleeSaved, "l0";
    17, CalleeSaved, "l1";
    18, CalleeSaved, "l2";
    19, CalleeSaved, "l3";
    20, CalleeSaved, "l4";
    21, CalleeSaved, "l5";
    22, CalleeSaved, "l6";
    23, CalleeSaved, "l7";
    29, Arg(5), "i5";
    28, Arg(4), "i4";
    27, Arg(3), "i3";
    26, Arg(2), "i2";
    25, Arg(1), "i1";
    24, Arg(0), "i0";
    1, Reserved, "g1";
    2, Reserved, "g2";
];

static FLT_REGS: [RegDesc; 15] = vcode::regdescs![flt:
    6, CallerSaved, "f6";
    8, CallerSaved, "f8";
    10, CallerSaved, "f10";
    12, CallerSaved, "f12";
    14, CallerSaved, "f14";
    16, CallerSaved, "f16";
    18, CallerSaved, "f18";
    20, CallerSaved, "f20";
    22, CallerSaved, "f22";
    24, CallerSaved, "f24";
    26, CallerSaved, "f26";
    4, Arg(1), "f4";
    2, Arg(0), "f2";
    0, Reserved, "f0";
    28, Reserved, "f28";
];

static REGFILE: RegFile = RegFile {
    int: &INT_REGS,
    flt: &FLT_REGS,
    hard_temps: &[Reg::int(8), Reg::int(9), Reg::int(10), Reg::int(11)],
    hard_saved: &[Reg::int(16), Reg::int(17), Reg::int(18), Reg::int(19)],
    sp: Reg::int(r::SP),
    fp: Reg::int(r::FP),
    zero: Some(Reg::int(r::G0)),
};

impl Sparc {
    fn branch(a: &mut Asm<'_>, l: Label, emit: impl FnOnce(&mut Asm<'_>)) {
        a.fixup_here(FixupTarget::Label(l), FIX_B22);
        emit(a);
        if !a.manual_delay {
            encode::nop(&mut a.buf);
        }
    }

    /// Resolves a memory operand into `(base, Option<imm13>, Option<idx>)`
    /// using `%g1` when needed.
    #[inline]
    fn mem_op(a: &mut Asm<'_>, base: Reg, off: Off) -> (u8, Result<i16, u8>) {
        match off {
            Off::I(d) if (-4096..4096).contains(&d) => (base.num(), Ok(d as i16)),
            Off::I(d) => {
                encode::set32(&mut a.buf, G1, d as u32);
                (base.num(), Err(G1))
            }
            Off::R(idx) => (base.num(), Err(idx.num())),
        }
    }

    #[inline]
    fn load(a: &mut Asm<'_>, op3v: u8, rd: u8, base: Reg, off: Off) {
        let (b, o) = Self::mem_op(a, base, off);
        match o {
            Ok(imm) => encode::mem_ri(&mut a.buf, op3v, rd, b, imm),
            Err(idx) => encode::mem_rr(&mut a.buf, op3v, rd, b, idx),
        }
    }

    /// `cmp rs1, operand` (subcc into %g0), materializing immediates.
    fn cmp(a: &mut Asm<'_>, rs1: u8, rhs: BrOperand) {
        match rhs {
            BrOperand::R(r2) => encode::f3_rr(&mut a.buf, op3::SUBCC, r::G0, rs1, r2.num()),
            BrOperand::I(i) if (-4096..4096).contains(&i) => {
                encode::f3_ri(&mut a.buf, op3::SUBCC, r::G0, rs1, i as i16);
            }
            BrOperand::I(i) => {
                encode::set32(&mut a.buf, G1, i as u32);
                encode::f3_rr(&mut a.buf, op3::SUBCC, r::G0, rs1, G1);
            }
        }
    }

    fn int_cond(c: Cond, signed: bool) -> u8 {
        match (c, signed) {
            (Cond::Eq, _) => cond::E,
            (Cond::Ne, _) => cond::NE,
            (Cond::Lt, true) => cond::L,
            (Cond::Le, true) => cond::LE,
            (Cond::Gt, true) => cond::G,
            (Cond::Ge, true) => cond::GE,
            (Cond::Lt, false) => cond::CS,
            (Cond::Le, false) => cond::LEU,
            (Cond::Gt, false) => cond::GU,
            (Cond::Ge, false) => cond::CC,
        }
    }

    /// Moves an integer register's bits into an FP register through the
    /// frame scratch slot (V8 has no direct path).
    fn gpr_to_fpr(a: &mut Asm<'_>, fd: u8, rs: u8) {
        encode::mem_ri(&mut a.buf, mem::ST, rs, r::FP, -8);
        encode::mem_ri(&mut a.buf, mem::LDF, fd, r::FP, -8);
    }

    fn fpr_to_gpr(a: &mut Asm<'_>, rd: u8, fs: u8) {
        encode::mem_ri(&mut a.buf, mem::STF, fs, r::FP, -8);
        encode::mem_ri(&mut a.buf, mem::LD, rd, r::FP, -8);
    }

    /// Loads a raw 32-bit pattern into an FP register.
    fn fp_bits(a: &mut Asm<'_>, fd: u8, bits: u32) {
        if bits == 0 {
            encode::mem_ri(&mut a.buf, mem::ST, r::G0, r::FP, -8);
        } else {
            encode::set32(&mut a.buf, G1, bits);
            encode::mem_ri(&mut a.buf, mem::ST, G1, r::FP, -8);
        }
        encode::mem_ri(&mut a.buf, mem::LDF, fd, r::FP, -8);
    }

    fn fmovd(a: &mut Asm<'_>, rd: u8, rs: u8) {
        encode::fpop1(&mut a.buf, opf::FMOVS, rd, 0, rs);
        encode::fpop1(&mut a.buf, opf::FMOVS, rd + 1, 0, rs + 1);
    }
}

/// Immediate-form fallback: materialize the constant in %g1. Out of line
/// so the hot arms of `emit_binop_imm` fold into each call site.
#[inline(never)]
fn binop_imm_slow(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm32: i32) {
    encode::set32(&mut a.buf, G1, imm32 as u32);
    Sparc::emit_binop(a, op, ty, rd, rs, Reg::int(G1));
}

impl Target for Sparc {
    const NAME: &'static str = "sparc";
    const WORD_BITS: u32 = 32;
    const BRANCH_DELAY_SLOTS: u32 = 1;
    // Register windows save integer state; only the 3-word save sequence
    // is reserved (patched with the final frame size).
    const MAX_SAVE_BYTES: usize = 0;
    const CHECKS: vcode::TargetChecks = vcode::TargetChecks {
        word_bits: Self::WORD_BITS,
        insn_align: 4,
        branch_delay_slots: Self::BRANCH_DELAY_SLOTS,
        load_delay_cycles: Self::LOAD_DELAY_CYCLES,
        // %g1/%g2: instruction-synthesis scratch.
        reserved_int: &[1, 2],
        // %f0 (return) and %f28 (synthesis scratch).
        reserved_flt: &[0, 28],
    };

    fn regfile() -> &'static RegFile {
        &REGFILE
    }

    fn begin(a: &mut Asm<'_>, sig: &Sig, _leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error> {
        // sethi %hi(-frame), %g1; or %g1, %lo(-frame), %g1;
        // save %sp, %g1, %sp — imm fields patched at `end`.
        a.ts.frame_fix = a.buf.len();
        encode::sethi(&mut a.buf, G1, 0);
        encode::f3_ri(&mut a.buf, op3::OR, G1, G1, 0);
        encode::f3_rr(&mut a.buf, op3::SAVE, r::SP, r::SP, G1);
        let (mut ni, mut nf) = (0u8, 0u8);
        for &ty in sig.args() {
            if ty.is_float() {
                if nf >= 2 {
                    return Err(Error::TooManyArgs {
                        requested: sig.args().len(),
                        max: 2,
                    });
                }
                let reg = Reg::flt(2 + nf * 2);
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
                let reg = Reg::int(r::I0 + ni);
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
            base: Reg::int(r::FP),
            off: -(SCRATCH_AREA + (start + size) as i32),
            ty,
        }
    }

    #[inline]
    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>) {
        match val {
            Some((Ty::F, v)) if v.num() != 0 => {
                encode::fpop1(&mut a.buf, opf::FMOVS, 0, 0, v.num());
            }
            Some((Ty::D, v)) if v.num() != 0 => {
                Self::fmovd(a, 0, v.num());
            }
            Some((_, v)) => encode::f3_rr(&mut a.buf, op3::OR, r::I0, v.num(), r::G0),
            None => {}
        }
        let l = a.epilogue;
        Self::branch(a, l, |a| encode::bicc(&mut a.buf, cond::A, 0));
    }

    fn end(a: &mut Asm<'_>) -> Result<(), Error> {
        let frame = (MIN_FRAME as usize + a.locals_bytes).div_ceil(8) as i32 * 8;
        let neg = (-frame) as u32;
        // Patch the save sequence.
        let at = a.ts.frame_fix;
        let sethi_w = a.buf.read_u32(at);
        a.buf.patch_u32(at, (sethi_w & 0xffc0_0000) | (neg >> 10));
        let or_w = a.buf.read_u32(at + 4);
        a.buf
            .patch_u32(at + 4, (or_w & 0xffff_e000) | (neg & 0x3ff));
        // Deferred epilogue: ret; restore (the window undoes everything).
        let here = a.buf.len();
        a.labels.bind(a.epilogue, here);
        encode::f3_ri(&mut a.buf, op3::JMPL, r::G0, r::I7, 8);
        encode::f3_rr(&mut a.buf, op3::RESTORE, r::G0, r::G0, r::G0);
        Ok(())
    }

    #[inline]
    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        let disp = (dest as i64 - fixup.at as i64) / 4;
        let old = a.buf.read_u32(fixup.at);
        match fixup.kind {
            FIX_B22 => {
                if !(-(1 << 21)..(1 << 21)).contains(&disp) {
                    a.record_err(Error::BranchOutOfRange { at: fixup.at, dest });
                    return;
                }
                a.buf
                    .patch_u32(fixup.at, (old & 0xffc0_0000) | (disp as u32 & 0x3f_ffff));
            }
            _ => {
                a.buf
                    .patch_u32(fixup.at, (old & 0xc000_0000) | (disp as u32 & 0x3fff_ffff));
            }
        }
    }

    #[inline(always)]
    fn emit_binop(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        if ty.is_float() {
            let code = match (op, ty) {
                (BinOp::Add, Ty::F) => opf::FADDS,
                (BinOp::Add, _) => opf::FADDD,
                (BinOp::Sub, Ty::F) => opf::FSUBS,
                (BinOp::Sub, _) => opf::FSUBD,
                (BinOp::Mul, Ty::F) => opf::FMULS,
                (BinOp::Mul, _) => opf::FMULD,
                (BinOp::Div, Ty::F) => opf::FDIVS,
                (BinOp::Div, _) => opf::FDIVD,
                _ => {
                    a.record_err(Error::BadOperands("float binop"));
                    return;
                }
            };
            encode::fpop1(&mut a.buf, code, rd.num(), rs1.num(), rs2.num());
            return;
        }
        let (rd, rs1, rs2) = (rd.num(), rs1.num(), rs2.num());
        let signed = ty.is_signed();
        match op {
            BinOp::Add => encode::f3_rr(&mut a.buf, op3::ADD, rd, rs1, rs2),
            BinOp::Sub => encode::f3_rr(&mut a.buf, op3::SUB, rd, rs1, rs2),
            BinOp::And => encode::f3_rr(&mut a.buf, op3::AND, rd, rs1, rs2),
            BinOp::Or => encode::f3_rr(&mut a.buf, op3::OR, rd, rs1, rs2),
            BinOp::Xor => encode::f3_rr(&mut a.buf, op3::XOR, rd, rs1, rs2),
            BinOp::Mul => {
                let m = if signed { op3::SMUL } else { op3::UMUL };
                encode::f3_rr(&mut a.buf, m, rd, rs1, rs2);
            }
            BinOp::Div | BinOp::Mod => {
                // V8 division consumes Y:rs1. The Y setup must not use
                // %g1 — immediate divisors are materialized there.
                if signed {
                    encode::f3_ri(&mut a.buf, op3::SRA, G2, rs1, 31);
                    encode::f3_rr(&mut a.buf, op3::WRY, 0, G2, r::G0);
                } else {
                    encode::f3_rr(&mut a.buf, op3::WRY, 0, r::G0, r::G0);
                }
                let dv = if signed { op3::SDIV } else { op3::UDIV };
                if op == BinOp::Div {
                    encode::f3_rr(&mut a.buf, dv, rd, rs1, rs2);
                } else {
                    // rem = rs1 - (rs1 / rs2) * rs2
                    encode::f3_rr(&mut a.buf, dv, G2, rs1, rs2);
                    encode::f3_rr(&mut a.buf, op3::SMUL, G2, G2, rs2);
                    encode::f3_rr(&mut a.buf, op3::SUB, rd, rs1, G2);
                }
            }
            BinOp::Lsh => encode::f3_rr(&mut a.buf, op3::SLL, rd, rs1, rs2),
            BinOp::Rsh if signed => encode::f3_rr(&mut a.buf, op3::SRA, rd, rs1, rs2),
            BinOp::Rsh => encode::f3_rr(&mut a.buf, op3::SRL, rd, rs1, rs2),
        }
    }

    #[inline(always)]
    fn emit_binop_imm(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        let imm32 = imm as i32;
        let fits = (-4096..4096).contains(&imm32);
        let o = match op {
            BinOp::Add => Some(op3::ADD),
            BinOp::Sub => Some(op3::SUB),
            BinOp::And => Some(op3::AND),
            BinOp::Or => Some(op3::OR),
            BinOp::Xor => Some(op3::XOR),
            BinOp::Lsh => Some(op3::SLL),
            BinOp::Rsh if ty.is_signed() => Some(op3::SRA),
            BinOp::Rsh => Some(op3::SRL),
            _ => None,
        };
        match o {
            Some(op3v) if fits => {
                let v = if matches!(op, BinOp::Lsh | BinOp::Rsh) {
                    imm32 & 31
                } else {
                    imm32
                };
                encode::f3_ri(&mut a.buf, op3v, rd.num(), rs.num(), v as i16);
            }
            _ => binop_imm_slow(a, op, ty, rd, rs, imm32),
        }
    }

    #[inline]
    fn emit_unop(a: &mut Asm<'_>, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
        match (op, ty) {
            (UnOp::Mov, Ty::F) => {
                if rd != rs {
                    encode::fpop1(&mut a.buf, opf::FMOVS, rd.num(), 0, rs.num());
                }
            }
            (UnOp::Mov, Ty::D) => {
                if rd != rs {
                    Self::fmovd(a, rd.num(), rs.num());
                }
            }
            (UnOp::Mov, _) => {
                if rd != rs {
                    encode::f3_rr(&mut a.buf, op3::OR, rd.num(), rs.num(), r::G0);
                }
            }
            (UnOp::Neg, Ty::F) => encode::fpop1(&mut a.buf, opf::FNEGS, rd.num(), 0, rs.num()),
            (UnOp::Neg, Ty::D) => {
                // Little-endian pairing: the sign lives in the odd (high)
                // register.
                if rd != rs {
                    encode::fpop1(&mut a.buf, opf::FMOVS, rd.num(), 0, rs.num());
                }
                encode::fpop1(&mut a.buf, opf::FNEGS, rd.num() + 1, 0, rs.num() + 1);
            }
            (UnOp::Neg, _) => encode::f3_rr(&mut a.buf, op3::SUB, rd.num(), r::G0, rs.num()),
            (UnOp::Com, _) => encode::f3_rr(&mut a.buf, op3::XNOR, rd.num(), rs.num(), r::G0),
            (UnOp::Not, _) => {
                // rd = (rs == 0): 0 - rs borrows iff rs != 0; addx picks
                // the carry up, xor flips it.
                encode::f3_rr(&mut a.buf, op3::SUBCC, r::G0, r::G0, rs.num());
                encode::f3_rr(&mut a.buf, op3::ADDX, rd.num(), r::G0, r::G0);
                encode::f3_ri(&mut a.buf, op3::XOR, rd.num(), rd.num(), 1);
            }
        }
    }

    #[inline]
    fn emit_set(a: &mut Asm<'_>, ty: Ty, rd: Reg, imm: Imm) {
        match imm {
            Imm::Int(v) => encode::set32(&mut a.buf, rd.num(), v as u32),
            Imm::F32(v) => Self::fp_bits(a, rd.num(), v.to_bits()),
            Imm::F64(v) => {
                let bits = v.to_bits();
                Self::fp_bits(a, rd.num(), bits as u32);
                Self::fp_bits(a, rd.num() + 1, (bits >> 32) as u32);
            }
        }
        let _ = ty;
    }

    #[inline]
    fn emit_cvt(a: &mut Asm<'_>, from: Ty, to: Ty, rd: Reg, rs: Reg) {
        match (from.is_float(), to.is_float()) {
            (false, false) => {
                if rd != rs {
                    encode::f3_rr(&mut a.buf, op3::OR, rd.num(), rs.num(), r::G0);
                }
            }
            (false, true) => {
                Self::gpr_to_fpr(a, rd.num(), rs.num());
                if to == Ty::D {
                    encode::fpop1(&mut a.buf, opf::FITOD, rd.num(), 0, rd.num());
                } else {
                    encode::fpop1(&mut a.buf, opf::FITOS, rd.num(), 0, rd.num());
                }
                if from == Ty::U || from == Ty::Ul {
                    // Unsigned adjust: add 2^32 when the sign bit was set.
                    let skip = a.labels.fresh();
                    Self::cmp(a, rs.num(), BrOperand::I(0));
                    a.fixup_here(FixupTarget::Label(skip), FIX_B22);
                    encode::bicc(&mut a.buf, cond::GE, 0);
                    encode::nop(&mut a.buf);
                    Self::fp_bits(a, FS, 0);
                    Self::fp_bits(a, FS + 1, 0x41f0_0000);
                    encode::fpop1(&mut a.buf, opf::FADDD, rd.num(), rd.num(), FS);
                    let here = a.buf.len();
                    a.labels.bind(skip, here);
                }
            }
            (true, false) => {
                let code = if from == Ty::D {
                    opf::FDTOI
                } else {
                    opf::FSTOI
                };
                encode::fpop1(&mut a.buf, code, FS, 0, rs.num());
                Self::fpr_to_gpr(a, rd.num(), FS);
            }
            (true, true) => match (from, to) {
                (Ty::F, Ty::D) => encode::fpop1(&mut a.buf, opf::FSTOD, rd.num(), 0, rs.num()),
                (Ty::D, Ty::F) => encode::fpop1(&mut a.buf, opf::FDTOS, rd.num(), 0, rs.num()),
                _ => {
                    if rd != rs {
                        if from == Ty::D {
                            Self::fmovd(a, rd.num(), rs.num());
                        } else {
                            encode::fpop1(&mut a.buf, opf::FMOVS, rd.num(), 0, rs.num());
                        }
                    }
                }
            },
        }
    }

    #[inline]
    fn emit_ld(a: &mut Asm<'_>, ty: Ty, rd: Reg, base: Reg, off: Off) {
        match ty {
            Ty::C => Self::load(a, mem::LDSB, rd.num(), base, off),
            Ty::Uc => Self::load(a, mem::LDUB, rd.num(), base, off),
            Ty::S => Self::load(a, mem::LDSH, rd.num(), base, off),
            Ty::Us => Self::load(a, mem::LDUH, rd.num(), base, off),
            Ty::I | Ty::U | Ty::L | Ty::Ul | Ty::P => Self::load(a, mem::LD, rd.num(), base, off),
            Ty::F => Self::load(a, mem::LDF, rd.num(), base, off),
            Ty::D => {
                Self::load(a, mem::LDF, rd.num(), base, off);
                let off2 = match off {
                    Off::I(d) => Off::I(d + 4),
                    Off::R(idx) => {
                        // base+idx+4 via %g2.
                        encode::f3_ri(&mut a.buf, op3::ADD, G2, idx.num(), 4);
                        Off::R(Reg::int(G2))
                    }
                };
                Self::load(a, mem::LDF, rd.num() + 1, base, off2);
            }
            Ty::V => a.record_err(Error::BadOperands("load of void")),
        }
    }

    #[inline]
    fn emit_st(a: &mut Asm<'_>, ty: Ty, src: Reg, base: Reg, off: Off) {
        match ty {
            Ty::C | Ty::Uc => Self::load(a, mem::STB, src.num(), base, off),
            Ty::S | Ty::Us => Self::load(a, mem::STH, src.num(), base, off),
            Ty::I | Ty::U | Ty::L | Ty::Ul | Ty::P => Self::load(a, mem::ST, src.num(), base, off),
            Ty::F => Self::load(a, mem::STF, src.num(), base, off),
            Ty::D => {
                Self::load(a, mem::STF, src.num(), base, off);
                let off2 = match off {
                    Off::I(d) => Off::I(d + 4),
                    Off::R(idx) => {
                        encode::f3_ri(&mut a.buf, op3::ADD, G2, idx.num(), 4);
                        Off::R(Reg::int(G2))
                    }
                };
                Self::load(a, mem::STF, src.num() + 1, base, off2);
            }
            Ty::V => a.record_err(Error::BadOperands("store of void")),
        }
    }

    #[inline]
    fn emit_branch(a: &mut Asm<'_>, c: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        if ty.is_float() {
            let BrOperand::R(rs2) = rs2 else {
                a.record_err(Error::BadOperands("float branch immediate"));
                return;
            };
            let code = if ty == Ty::D { opf::FCMPD } else { opf::FCMPS };
            encode::fpop2(&mut a.buf, code, rs1.num(), rs2.num());
            // V8 requires one instruction between fcmp and fbfcc.
            encode::nop(&mut a.buf);
            let fc = match c {
                Cond::Lt => fcond::L,
                Cond::Le => fcond::LE,
                Cond::Gt => fcond::G,
                Cond::Ge => fcond::GE,
                Cond::Eq => fcond::E,
                Cond::Ne => fcond::NE,
            };
            Self::branch(a, l, |a| encode::fbfcc(&mut a.buf, fc, 0));
            return;
        }
        Self::cmp(a, rs1.num(), rs2);
        let cc = Self::int_cond(c, ty.is_signed());
        Self::branch(a, l, |a| encode::bicc(&mut a.buf, cc, 0));
    }

    #[inline]
    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                Self::branch(a, l, |a| encode::bicc(&mut a.buf, cond::A, 0));
            }
            JumpTarget::Reg(rs) => {
                encode::f3_ri(&mut a.buf, op3::JMPL, r::G0, rs.num(), 0);
                if !a.manual_delay {
                    encode::nop(&mut a.buf);
                }
            }
            JumpTarget::Abs(addr) => {
                encode::set32(&mut a.buf, G1, addr as u32);
                encode::f3_ri(&mut a.buf, op3::JMPL, r::G0, G1, 0);
                encode::nop(&mut a.buf);
            }
        }
    }

    #[inline]
    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                a.fixup_here(FixupTarget::Label(l), FIX_CALL30);
                encode::call(&mut a.buf, 0);
                encode::nop(&mut a.buf);
            }
            JumpTarget::Reg(rs) => {
                encode::f3_ri(&mut a.buf, op3::JMPL, r::O7, rs.num(), 0);
                encode::nop(&mut a.buf);
            }
            JumpTarget::Abs(addr) => {
                encode::set32(&mut a.buf, G1, addr as u32);
                encode::f3_ri(&mut a.buf, op3::JMPL, r::O7, G1, 0);
                encode::nop(&mut a.buf);
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

    fn call_arg(a: &mut Asm<'_>, cf: &mut CallFrame, idx: usize, ty: Ty, src: Reg) {
        // Stage into this frame's outgoing-argument area (the ABI zone at
        // [%sp + 92], which is exactly what it exists for).
        let off = (ABI_AREA + 8 * idx as i32) as i16;
        if ty.is_float() {
            cf.next_flt += 1;
            if cf.next_flt > 2 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_flt as usize,
                    max: 2,
                });
                return;
            }
            encode::mem_ri(&mut a.buf, mem::STF, src.num(), r::SP, off);
            if ty == Ty::D {
                encode::mem_ri(&mut a.buf, mem::STF, src.num() + 1, r::SP, off + 4);
            }
        } else {
            cf.next_int += 1;
            if cf.next_int > 6 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_int as usize,
                    max: 6,
                });
                return;
            }
            encode::mem_ri(&mut a.buf, mem::ST, src.num(), r::SP, off);
        }
        cf.stack_bytes += 8;
    }

    fn call_end(a: &mut Asm<'_>, cf: CallFrame, target: JumpTarget, ret: Option<(Ty, Reg)>) {
        // Unstage into the outgoing registers (sources are memory, so no
        // shuffle hazards).
        let (mut int_slot, mut flt_slot) = (0u8, 0u8);
        for (i, &ty) in cf.sig.args().iter().enumerate() {
            let off = (ABI_AREA + 8 * i as i32) as i16;
            if ty.is_float() {
                let f = 2 + flt_slot * 2;
                flt_slot += 1;
                encode::mem_ri(&mut a.buf, mem::LDF, f, r::SP, off);
                if ty == Ty::D {
                    encode::mem_ri(&mut a.buf, mem::LDF, f + 1, r::SP, off + 4);
                }
            } else {
                encode::mem_ri(&mut a.buf, mem::LD, r::O0 + int_slot, r::SP, off);
                int_slot += 1;
            }
        }
        Self::emit_jal(a, target);
        if let Some((ty, rd)) = ret {
            match ty {
                Ty::F => encode::fpop1(&mut a.buf, opf::FMOVS, rd.num(), 0, 0),
                Ty::D => Self::fmovd(a, rd.num(), 0),
                _ => encode::f3_rr(&mut a.buf, op3::OR, rd.num(), r::O0, r::G0),
            }
        }
    }

    #[inline]
    fn emit_ext_unop(a: &mut Asm<'_>, op: vcode::ext::ExtUnOp, ty: Ty, rd: Reg, rs: Reg) -> bool {
        match (op, ty) {
            (vcode::ext::ExtUnOp::Sqrt, Ty::F) => {
                encode::fpop1(&mut a.buf, opf::FSQRTS, rd.num(), 0, rs.num());
                true
            }
            (vcode::ext::ExtUnOp::Sqrt, Ty::D) => {
                encode::fpop1(&mut a.buf, opf::FSQRTD, rd.num(), 0, rs.num());
                true
            }
            (vcode::ext::ExtUnOp::Abs, Ty::F) => {
                encode::fpop1(&mut a.buf, opf::FABSS, rd.num(), 0, rs.num());
                true
            }
            _ => false,
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
    fn plus1_uses_save_restore() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Sparc>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        assert_eq!(x, Reg::int(r::I0), "first int arg in %i0");
        a.addii(x, x, 1);
        a.reti(x);
        let fin = a.end().unwrap();
        let w = words(&mem, fin.len / 4);
        // Prologue: sethi/or with -frame, then save.
        let frame = -((MIN_FRAME + 7) / 8 * 8);
        let neg = frame as u32;
        assert_eq!(w[0] & 0x3f_ffff, neg >> 10, "sethi hi(-frame)");
        assert_eq!(w[1] & 0x3ff, neg & 0x3ff, "or lo(-frame)");
        assert_eq!((w[2] >> 19) & 0x3f, 0x3c, "save");
        // add %i0, 1, %i0.
        let expect = (2u32 << 30) | (24 << 25) | (24 << 14) | (1 << 13) | 1;
        assert_eq!(w[3], expect, "addii maps to add-immediate");
        // Epilogue: jmpl %i7+8, %g0; restore.
        assert_eq!((w[w.len() - 2] >> 19) & 0x3f, 0x38, "ret is jmpl");
        assert_eq!((w[w.len() - 1] >> 19) & 0x3f, 0x3d, "restore in delay slot");
    }

    #[test]
    fn window_persistent_registers_need_no_saves() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Sparc>::lambda(&mut mem, "", Leaf::No).unwrap();
        let s = a.getreg(RegClass::Persistent).unwrap();
        assert_eq!(s, Reg::int(16), "%l0 is the first persistent register");
        a.seti(s, 7);
        a.retv();
        let fin = a.end().unwrap();
        // Prologue (3) + set (1) + ret branch (2) + epilogue (2) = 8
        // words — no save/restore instructions for %l0.
        assert_eq!(fin.len, 8 * 4);
    }

    #[test]
    fn branch_displacement_is_relative_to_branch() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Sparc>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        let l = a.genlabel();
        a.beqii(x, 0, l); // subcc + be + nop
        a.addii(x, x, 1);
        a.label(l);
        a.reti(x);
        a.end().unwrap();
        let w = words(&mem, 16);
        // w3 = subcc, w4 = be, w5 = delay nop, w6 = addii, label at w7.
        assert_eq!((w[3] >> 19) & 0x3f, 0x14, "subcc");
        assert_eq!((w[4] >> 22) & 7, 2, "Bicc");
        assert_eq!(w[4] & 0x3f_ffff, 3, "disp22 = (w7 - w4) words");
    }

    #[test]
    fn division_sets_up_y() {
        let mut mem = vec![0u8; 512];
        let mut a = Assembler::<Sparc>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
        let (x, y) = (a.arg(0), a.arg(1));
        a.divi(x, x, y);
        a.reti(x);
        a.end().unwrap();
        let w = words(&mem, 8);
        assert_eq!((w[3] >> 19) & 0x3f, 0x27, "sra for sign extension");
        assert_eq!((w[4] >> 19) & 0x3f, 0x30, "wr %y");
        assert_eq!((w[5] >> 19) & 0x3f, 0x0f, "sdiv");
    }
}
