//! # vcode-x64 — native x86-64 backend for vcode
//!
//! The paper observes that "there is no real conflict between VCODE's
//! interface and that of the most widely used CISC on the market, the x86"
//! (§3.3). This crate is that port, for the 64-bit SysV ABI: it implements
//! [`vcode::Target`] for [`X64`] and provides [`ExecMem`] so generated
//! code runs natively — the zero→aha path of dynamic code generation.
//!
//! The example below is the paper's Figure 1: a client emitting into
//! storage it obtained itself. The workspace's own clients (the engine,
//! DPF, ASH, tcc) call [`emit_native`] instead, which installs a
//! right-sized copy, so only this crate maps executable memory.
//!
//! ```
//! use vcode::{Assembler, Leaf};
//! use vcode_x64::{ExecMem, X64};
//!
//! // Figure 1 of the paper: int plus1(int x) { return x + 1; }
//! let mut mem = ExecMem::new(4096)?;
//! let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%i", Leaf::Yes)?;
//! let x = a.arg(0);
//! a.addii(x, x, 1);
//! a.reti(x);
//! a.end()?;
//! let code = mem.finalize()?;
//! let plus1: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
//! assert_eq!(plus1(41), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Register conventions
//!
//! `rax`, `rcx`, `rdx` and `r11` are reserved for instruction synthesis
//! (division uses `rax:rdx`, shifts use `cl`, `r11` is the universal
//! scratch), and `rsp`/`rbp` for the stack. Everything else is an
//! allocation candidate: `r10` plus the six SysV argument registers as
//! temporaries, `rbx`/`r12`–`r15` as persistent. Incoming arguments homed
//! in `rdx`/`rcx` are evacuated to allocatable registers by `lambda`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod declen;
pub mod encode;
pub mod exec;
pub mod guard;

pub use exec::{drain_pool, pool_stats, ExecCode, ExecMem, PoolStats, GUARD_BYTES, MAX_POOL_PAGES};
pub use guard::{exec_stats, guarded_call_count, GuardedCall, NativeTrap};

use encode::{cc, r, sse, Alu, Mem, Op2};
use vcode::asm::Asm;
use vcode::ext::ExtUnOp;
use vcode::label::{Fixup, FixupTarget, Label};
use vcode::op::{BinOp, Cond, Imm, UnOp};
use vcode::reg::{Reg, RegDesc, RegFile};
use vcode::target::{BrOperand, CallFrame, JumpTarget, Leaf, Off, StackSlot, Target};
use vcode::ty::{Sig, Ty};
use vcode::Error;

/// The x86-64 SysV target.
#[derive(Debug, Clone, Copy)]
pub enum X64 {}

/// Universal synthesis scratch register.
const SCRATCH: u8 = r::R11;
/// Floating-point synthesis scratch.
const FSCRATCH: u8 = 15;

/// SysV integer argument slots.
const INT_ARG_SLOTS: [u8; 6] = [r::RDI, r::RSI, r::RDX, r::RCX, r::R8, r::R9];

static INT_REGS: [RegDesc; 11] = vcode::regdescs![int:
    r::R10, CallerSaved, "r10";
    r::R9, Arg(5), "r9";
    r::R8, Arg(4), "r8";
    r::RSI, Arg(1), "rsi";
    r::RDI, Arg(0), "rdi";
    r::RBX, CalleeSaved, "rbx";
    r::R12, CalleeSaved, "r12";
    r::R13, CalleeSaved, "r13";
    r::R14, CalleeSaved, "r14";
    r::R15, CalleeSaved, "r15";
    r::R11, Reserved, "r11";
];

static FLT_REGS: [RegDesc; 16] = vcode::regdescs![flt:
    8, CallerSaved, "xmm8";
    9, CallerSaved, "xmm9";
    10, CallerSaved, "xmm10";
    11, CallerSaved, "xmm11";
    12, CallerSaved, "xmm12";
    13, CallerSaved, "xmm13";
    14, CallerSaved, "xmm14";
    7, Arg(7), "xmm7";
    6, Arg(6), "xmm6";
    5, Arg(5), "xmm5";
    4, Arg(4), "xmm4";
    3, Arg(3), "xmm3";
    2, Arg(2), "xmm2";
    1, Arg(1), "xmm1";
    0, Arg(0), "xmm0";
    15, Reserved, "xmm15";
];

static REGFILE: RegFile = RegFile {
    int: &INT_REGS,
    flt: &FLT_REGS,
    hard_temps: &[
        Reg::int(r::RDI),
        Reg::int(r::RSI),
        Reg::int(r::R8),
        Reg::int(r::R9),
        Reg::int(r::R10),
    ],
    hard_saved: &[
        Reg::int(r::RBX),
        Reg::int(r::R12),
        Reg::int(r::R13),
        Reg::int(r::R14),
    ],
    sp: Reg::int(r::RSP),
    fp: Reg::int(r::RBP),
    zero: None,
};

/// Registers with fixed prologue save slots, in slot order. The first
/// five are callee-saved under the standard convention; the rest exist
/// so clients may *reclassify* caller-saved registers as callee-saved
/// per generated function (paper §5.3's interrupt-handler case) and
/// still get correct save/restore code.
const CALLEE_SAVED: [u8; 10] = [
    r::RBX,
    r::R12,
    r::R13,
    r::R14,
    r::R15,
    r::R10,
    r::RDI,
    r::RSI,
    r::R8,
    r::R9,
];
/// Bytes of the fixed callee-save area below `rbp`.
const SAVE_AREA: usize = CALLEE_SAVED.len() * 8;
/// Bytes of one reserved prologue save instruction
/// (`mov [rbp-disp8], r64` = REX + opcode + modrm + disp8; the deepest
/// slot is `rbp-80`, still within disp8 range).
const SAVE_INSN: usize = 4;
/// `push rbp; mov rbp, rsp; sub rsp, imm32`.
const FRAME_INSNS: [u8; 7] = [0x55, 0x48, 0x89, 0xe5, 0x48, 0x81, 0xec];
/// Bytes `begin` reserves for the prologue: the frame set-up, its imm32
/// and a save of every register in [`CALLEE_SAVED`].
const PROLOGUE_MAX: usize = FRAME_INSNS.len() + 4 + CALLEE_SAVED.len() * SAVE_INSN;
/// [`Fixup::kind`] of a `jmp rel32`'s displacement (every other fixup
/// is 0).
const JMP: u8 = 1;
/// [`vcode::target::TargetScratch::flags`] bit: the epilogue is a bare
/// `ret`.
const BARE_RET: u32 = 1;
/// What `patch` writes over a `jmp rel32` to a bare `ret`.
const RET_FOR_JMP: [u8; 5] = [0xc3, 0x90, 0x90, 0x90, 0x90];

#[inline]
fn is64(ty: Ty) -> bool {
    matches!(ty, Ty::L | Ty::Ul | Ty::P)
}

// The tables below are indexed by an operation's discriminant, so an
// emitter handed its operation as a *value* (`Assembler::binop` and its
// siblings: the engine's lowering loop, DCG) selects among the
// instructions that differ only in a constant without branching on it;
// handed a constant (`a.addi(..)`), the lookup folds away.

/// Condition-code nibble for an integer comparison: `[signed][cond]`.
const INT_CC: [[u8; 6]; 2] = [
    [cc::B, cc::BE, cc::A, cc::AE, cc::E, cc::NE],
    [cc::L, cc::LE, cc::G, cc::GE, cc::E, cc::NE],
];

/// Signed/unsigned condition-code nibble for an integer comparison.
#[inline(always)]
fn int_cc(cond: Cond, signed: bool) -> u8 {
    INT_CC[signed as usize][cond as usize]
}

/// The ALU instruction that computes a `BinOp`, for the five that are
/// one (`Add Sub Mul Div Mod And Or Xor Lsh Rsh`).
const ALU: [Option<Alu>; 10] = [
    Some(Alu::Add),
    Some(Alu::Sub),
    None,
    None,
    None,
    Some(Alu::And),
    Some(Alu::Or),
    Some(Alu::Xor),
    None,
    None,
];

/// `/ext` of the shift group (`C1`/`D3`): `shl`, or `sar`/`shr` by
/// signedness.
#[inline(always)]
fn shift_ext(op: BinOp, ty: Ty) -> u8 {
    debug_assert!(matches!(op, BinOp::Lsh | BinOp::Rsh));
    [4, 5, 4, 7][(op == BinOp::Rsh) as usize | (ty.is_signed() as usize) << 1]
}

impl X64 {
    /// `rd = rs1 op rs2` on a two-address machine: `[mov rd, rs1]`
    /// `op rd, rs2` as one fused emission (operands exchanged when `rd`
    /// is `rs2` and the operation commutes), so which of the cases an
    /// instruction is costs no branch. Only `rd = rs1 - rd` — nothing
    /// to exchange, and the `mov` would clobber `rs2` — keeps a branch:
    /// Sub is the one operation here that does not commute, and it is
    /// `neg rd; add rd, rs1`.
    #[inline(always)]
    fn op3(a: &mut Asm<'_>, op: Op2, w: bool, commutes: bool, rd: u8, rs1: u8, rs2: u8) {
        if !commutes && rd == rs2 && rd != rs1 {
            encode::mov_unary(&mut a.buf, 3, w, rd, rd);
            encode::mov_op_rr(&mut a.buf, Op2::alu(Alu::Add), w, rd, rd, rs1);
            return;
        }
        let (from, src) = if rd == rs2 { (rd, rs1) } else { (rs1, rs2) };
        encode::mov_op_rr(&mut a.buf, op, w, rd, from, src);
    }

    #[inline]
    fn div_mod(a: &mut Asm<'_>, ty: Ty, want_mod: bool, rd: u8, rs1: u8, rs2: u8) {
        debug_assert!(
            rs2 != r::RAX && rs2 != r::RDX,
            "divisor in a reserved register"
        );
        let w = is64(ty);
        let signed = ty.is_signed();
        encode::mov_rr(&mut a.buf, w, r::RAX, rs1);
        if signed {
            if w {
                encode::cqo(&mut a.buf);
            } else {
                encode::cdq(&mut a.buf);
            }
        } else {
            encode::alu_rr(&mut a.buf, Alu::Xor, false, r::RDX, r::RDX);
        }
        encode::unary_rm(&mut a.buf, if signed { 7 } else { 6 }, w, rs2);
        let res = if want_mod { r::RDX } else { r::RAX };
        encode::mov_rr(&mut a.buf, w, rd, res);
    }

    #[inline]
    fn shift(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: u8, rs1: u8, rs2: u8) {
        let w = is64(ty);
        encode::mov_rr(&mut a.buf, false, r::RCX, rs2);
        encode::mov_rr_distinct(&mut a.buf, w, rd, rs1);
        encode::shift_cl(&mut a.buf, shift_ext(op, ty), w, rd);
    }

    #[inline]
    fn sse3(a: &mut Asm<'_>, prefix: u8, opc: u8, commutes: bool, rd: u8, rs1: u8, rs2: u8) {
        if rd == rs1 {
            encode::sse_rr(&mut a.buf, Some(prefix), opc, rd, rs2);
        } else if rd == rs2 && commutes {
            encode::sse_rr(&mut a.buf, Some(prefix), opc, rd, rs1);
        } else if rd == rs2 {
            encode::sse_rr(&mut a.buf, Some(prefix), 0x10, FSCRATCH, rs1);
            encode::sse_rr(&mut a.buf, Some(prefix), opc, FSCRATCH, rs2);
            encode::sse_rr(&mut a.buf, Some(prefix), 0x10, rd, FSCRATCH);
        } else {
            encode::sse_rr(&mut a.buf, Some(prefix), 0x10, rd, rs1);
            encode::sse_rr(&mut a.buf, Some(prefix), opc, rd, rs2);
        }
    }

    #[inline]
    fn load_lit(a: &mut Asm<'_>, prefix: u8, rd: u8, id: vcode::label::LitId) {
        let at = encode::sse_load_rip(&mut a.buf, prefix, rd);
        a.fixup_at(at, FixupTarget::Lit(id), 0);
    }

    /// Immediate-form fallback: the constant doesn't fit the immediate
    /// field (paper §1: "boundary conditions") or the op has no
    /// immediate form, so it goes through the scratch register. Kept out
    /// of line so the small hot arms of `emit_binop_imm` inline cleanly
    /// at every `*ii` call site.
    #[inline(never)]
    fn binop_imm_slow(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        encode::mov_ri(&mut a.buf, SCRATCH, imm);
        Self::emit_binop(a, op, ty, rd, rs, Reg::int(SCRATCH));
    }

    /// The deferred prologue — frame set-up with the activation-record
    /// size (rsp kept 16-aligned), then the saves of `used` — patched in
    /// so that it ends where the reservation does; its length. (After a
    /// buffer overflow the reservation may be truncated; a patch past the
    /// cursor is dropped and `end` reports the latched overflow.)
    fn patch_prologue(a: &mut Asm<'_>, used: u64) -> usize {
        let frame = (SAVE_AREA + a.locals_bytes).div_ceil(16) * 16;
        let mut prologue = [0u8; PROLOGUE_MAX];
        let mut len = FRAME_INSNS.len() + 4;
        prologue[..FRAME_INSNS.len()].copy_from_slice(&FRAME_INSNS);
        prologue[FRAME_INSNS.len()..len].copy_from_slice(&(frame as u32).to_le_bytes());
        for (slot, &reg) in CALLEE_SAVED.iter().enumerate() {
            if used & (1 << reg) != 0 {
                // mov [rbp - 8*(slot+1)], reg
                let rexb = if reg >= 8 { 0x4c } else { 0x48 };
                let disp = (-8 * (slot as i32 + 1)) as u8;
                prologue[len..len + SAVE_INSN].copy_from_slice(&[
                    rexb,
                    0x89,
                    0x45 | (reg & 7) << 3,
                    disp,
                ]);
                len += SAVE_INSN;
            }
        }
        a.buf.patch_slice(PROLOGUE_MAX - len, &prologue[..len]);
        len
    }
}

impl Target for X64 {
    const NAME: &'static str = "x86-64";
    const WORD_BITS: u32 = 64;
    const MAX_SAVE_BYTES: usize = CALLEE_SAVED.len() * SAVE_INSN;
    const CHECKS: vcode::TargetChecks = vcode::TargetChecks {
        word_bits: Self::WORD_BITS,
        insn_align: 1,
        branch_delay_slots: Self::BRANCH_DELAY_SLOTS,
        load_delay_cycles: Self::LOAD_DELAY_CYCLES,
        // r11: instruction-synthesis scratch.
        reserved_int: &[11],
        // xmm15: synthesis scratch.
        reserved_flt: &[15],
    };

    fn regfile() -> &'static RegFile {
        &REGFILE
    }

    fn begin(a: &mut Asm<'_>, sig: &Sig, _leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error> {
        // Worst-case prologue in the instruction stream (paper §5.2):
        // `end` knows the frame size and which registers to save, and
        // writes the real one against the end of this reservation. The
        // filler is `nop`, so the part `end` leaves unused still decodes.
        a.buf.reserve(PROLOGUE_MAX, 0x90);
        // Home the arguments. SysV puts ints 2 and 3 in rdx/rcx, which we
        // reserve for synthesis, so those are evacuated to allocatable
        // registers. Claim every argument-slot register up front so the
        // evacuation targets can never alias a later argument.
        let n_int = sig.args().iter().filter(|t| !t.is_float()).count();
        let n_flt = sig.args().len() - n_int;
        if n_int > 6 {
            return Err(Error::TooManyArgs {
                requested: sig.args().len(),
                max: 6,
            });
        }
        if n_flt > 8 {
            return Err(Error::TooManyArgs {
                requested: sig.args().len(),
                max: 8,
            });
        }
        for &slot in INT_ARG_SLOTS.iter().take(n_int) {
            a.ra.take(Reg::int(slot));
        }
        for i in 0..n_flt {
            a.ra.take(Reg::flt(i as u8));
        }
        let (mut ni, mut nf) = (0usize, 0usize);
        for &ty in sig.args() {
            if ty.is_float() {
                args.push(Reg::flt(nf as u8));
                nf += 1;
            } else {
                let slot = INT_ARG_SLOTS[ni];
                if slot == r::RDX || slot == r::RCX {
                    let dest = a.ra.getreg(vcode::Bank::Int, vcode::RegClass::Temp).ok_or(
                        Error::TooManyArgs {
                            requested: sig.args().len(),
                            max: 6,
                        },
                    )?;
                    encode::mov_rr(&mut a.buf, true, dest.num(), slot);
                    args.push(dest);
                } else {
                    args.push(Reg::int(slot));
                }
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
            base: Reg::int(r::RBP),
            off: -((SAVE_AREA + start + size) as i32),
            ty,
        }
    }

    #[inline]
    #[allow(clippy::collapsible_match)] // the guard form obscures the ABI cases
    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>) {
        match val {
            Some((Ty::I, v)) => encode::movsxd(&mut a.buf, r::RAX, v.num()),
            Some((Ty::U, v)) => {
                if v.num() != r::RAX {
                    encode::mov_rr(&mut a.buf, false, r::RAX, v.num());
                }
            }
            Some((Ty::F, v)) => encode::sse_rr(&mut a.buf, Some(sse::SS), 0x10, 0, v.num()),
            Some((Ty::D, v)) => encode::sse_rr(&mut a.buf, Some(sse::SD), 0x10, 0, v.num()),
            Some((_, v)) => {
                if v.num() != r::RAX {
                    encode::mov_rr(&mut a.buf, true, r::RAX, v.num());
                }
            }
            None => {}
        }
        Self::emit_jump(a, JumpTarget::Label(a.epilogue));
    }

    fn end(a: &mut Asm<'_>) -> Result<(), Error> {
        // A leaf that saves no register and keeps no local needs no
        // frame (paper §5.2): it starts at the end of the reservation,
        // and its epilogue is a bare `ret`, which `patch` copies into
        // every jump to it.
        let used = a.ra.callee_used(vcode::Bank::Int);
        let frameless = a.leaf == Leaf::Yes && used == 0 && a.locals_bytes == 0;
        let len = if frameless {
            0
        } else {
            Self::patch_prologue(a, used)
        };
        // The function starts at `entry`, and whoever can enters there
        // (`Finished::entry`). Offset 0 stays an entry for clients that
        // call the first byte of what they emitted into: one short jump
        // over the unused filler.
        let entry = PROLOGUE_MAX - len;
        a.ts.entry = entry;
        if entry >= 2 {
            a.buf.patch_slice(0, &[0xeb, (entry - 2) as u8]);
        }
        // Deferred epilogue: restore, leave, ret. A final `ret`'s jump
        // here is taken back rather than left jumping to the next byte.
        let here = a.bind_site(a.epilogue);
        a.labels.bind(a.epilogue, here);
        if frameless {
            a.ts.flags |= BARE_RET;
        } else {
            for (slot, &reg) in CALLEE_SAVED.iter().enumerate() {
                if used & (1 << reg) != 0 {
                    encode::load(
                        &mut a.buf,
                        true,
                        reg,
                        Mem::bd(r::RBP, -8 * (slot as i32 + 1)),
                    );
                }
            }
            encode::leave(&mut a.buf);
        }
        encode::ret(&mut a.buf);
        Ok(())
    }

    #[inline]
    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        // A `jmp` to a bare-`ret` epilogue becomes that `ret`, padded
        // to the jump's length with `nop`s, so nothing else moves.
        if fixup.kind == JMP
            && a.ts.flags & BARE_RET != 0
            && a.labels.offset(a.epilogue) == Some(dest)
        {
            a.buf.patch_slice(fixup.at - 1, &RET_FOR_JMP);
            return;
        }
        // Every other x86-64 fixup is a rel32 displacement field:
        // disp = dest - (field_end).
        let disp = dest as i64 - (fixup.at as i64 + 4);
        a.buf.patch_u32(fixup.at, disp as i32 as u32);
    }

    #[inline(always)]
    fn emit_binop(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        if ty.is_float() {
            let prefix = if ty == Ty::F { sse::SS } else { sse::SD };
            let (opc, comm) = match op {
                BinOp::Add => (0x58, true),
                BinOp::Mul => (0x59, true),
                BinOp::Sub => (0x5c, false),
                BinOp::Div => (0x5e, false),
                _ => {
                    a.record_err(Error::BadOperands("float binop"));
                    return;
                }
            };
            Self::sse3(a, prefix, opc, comm, rd.num(), rs1.num(), rs2.num());
            return;
        }
        let w = is64(ty);
        let (rd, rs1, rs2) = (rd.num(), rs1.num(), rs2.num());
        match (ALU[op as usize], op) {
            (Some(alu), _) => Self::op3(a, Op2::alu(alu), w, op.commutes(), rd, rs1, rs2),
            (_, BinOp::Mul) => Self::op3(a, Op2::IMUL, w, true, rd, rs1, rs2),
            (_, BinOp::Div | BinOp::Mod) => Self::div_mod(a, ty, op == BinOp::Mod, rd, rs1, rs2),
            _ => Self::shift(a, op, ty, rd, rs1, rs2),
        }
    }

    #[inline(always)]
    fn emit_binop_imm(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        let w = is64(ty);
        match (ALU[op as usize], op, i32::try_from(imm)) {
            (Some(alu), _, Ok(imm)) => {
                encode::mov_alu_imm(&mut a.buf, alu, w, rd.num(), rs.num(), imm)
            }
            (_, BinOp::Mul, Ok(imm)) => {
                encode::imul_rri(&mut a.buf, w, rd.num(), rs.num(), imm);
            }
            (_, BinOp::Lsh | BinOp::Rsh, _) => {
                let count = imm as u8 & if w { 63 } else { 31 };
                let ext = shift_ext(op, ty);
                encode::mov_shift_imm(&mut a.buf, ext, w, rd.num(), rs.num(), count);
            }
            _ => Self::binop_imm_slow(a, op, ty, rd, rs, imm),
        }
    }

    #[inline]
    fn emit_unop(a: &mut Asm<'_>, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
        let w = is64(ty);
        match (op, ty) {
            (UnOp::Mov, Ty::F) => {
                if rd != rs {
                    encode::sse_rr(&mut a.buf, Some(sse::SS), 0x10, rd.num(), rs.num());
                }
            }
            (UnOp::Mov, Ty::D) => {
                if rd != rs {
                    encode::sse_rr(&mut a.buf, Some(sse::SD), 0x10, rd.num(), rs.num());
                }
            }
            (UnOp::Mov, _) => encode::mov_rr_distinct(&mut a.buf, w, rd.num(), rs.num()),
            (UnOp::Neg, Ty::F | Ty::D) => {
                let (prefix, id) = if ty == Ty::F {
                    (sse::SS, a.lits.intern(0x8000_0000, 4))
                } else {
                    (sse::SD, a.lits.intern(0x8000_0000_0000_0000, 8))
                };
                Self::load_lit(a, prefix, FSCRATCH, id);
                if rd != rs {
                    encode::sse_rr(&mut a.buf, Some(prefix), 0x10, rd.num(), rs.num());
                }
                encode::xorps(&mut a.buf, rd.num(), FSCRATCH);
            }
            (UnOp::Neg | UnOp::Com, _) => {
                // Group 3: `not` is /2, `neg` /3.
                let ext = 2 + (op == UnOp::Neg) as u8;
                encode::mov_unary(&mut a.buf, ext, w, rd.num(), rs.num());
            }
            (UnOp::Not, _) => {
                encode::alu_imm(&mut a.buf, Alu::Cmp, w, rs.num(), 0);
                encode::mov_ri32(&mut a.buf, rd.num(), 0);
                encode::setcc(&mut a.buf, cc::E, rd.num());
            }
        }
    }

    #[inline]
    fn emit_set(a: &mut Asm<'_>, ty: Ty, rd: Reg, imm: Imm) {
        match imm {
            Imm::Int(v) => match ty {
                Ty::I | Ty::U => encode::mov_ri32(&mut a.buf, rd.num(), v as u32),
                _ => encode::mov_ri(&mut a.buf, rd.num(), v),
            },
            Imm::F32(v) => {
                let id = a.lits.intern_f32(v);
                Self::load_lit(a, sse::SS, rd.num(), id);
            }
            Imm::F64(v) => {
                let id = a.lits.intern_f64(v);
                Self::load_lit(a, sse::SD, rd.num(), id);
            }
        }
    }

    #[inline]
    fn emit_cvt(a: &mut Asm<'_>, from: Ty, to: Ty, rd: Reg, rs: Reg) {
        match (from, to) {
            // Within the 32-bit family: normalize the low word.
            (Ty::I, Ty::U) | (Ty::U, Ty::I) => {
                if rd != rs {
                    encode::mov_rr(&mut a.buf, false, rd.num(), rs.num());
                }
            }
            // Widening.
            (Ty::I, Ty::L | Ty::Ul) => encode::movsxd(&mut a.buf, rd.num(), rs.num()),
            (Ty::U, Ty::L | Ty::Ul) => encode::mov_rr(&mut a.buf, false, rd.num(), rs.num()),
            // Narrowing.
            (Ty::L | Ty::Ul, Ty::I | Ty::U) => {
                encode::mov_rr(&mut a.buf, false, rd.num(), rs.num())
            }
            // Word-sized renames.
            (Ty::L, Ty::Ul) | (Ty::Ul, Ty::L) | (Ty::Ul, Ty::P) | (Ty::P, Ty::Ul) => {
                if rd != rs {
                    encode::mov_rr(&mut a.buf, true, rd.num(), rs.num());
                }
            }
            // Int → float.
            (Ty::I, Ty::F) => encode::cvtsi2(&mut a.buf, sse::SS, false, rd.num(), rs.num()),
            (Ty::I, Ty::D) => encode::cvtsi2(&mut a.buf, sse::SD, false, rd.num(), rs.num()),
            (Ty::L, Ty::F) => encode::cvtsi2(&mut a.buf, sse::SS, true, rd.num(), rs.num()),
            (Ty::L, Ty::D) => encode::cvtsi2(&mut a.buf, sse::SD, true, rd.num(), rs.num()),
            (Ty::U, Ty::D) => {
                // Zero-extend, then convert the exact 64-bit value.
                encode::mov_rr(&mut a.buf, false, SCRATCH, rs.num());
                encode::cvtsi2(&mut a.buf, sse::SD, true, rd.num(), SCRATCH);
            }
            // Float → int (C truncation semantics).
            (Ty::F, Ty::I) => encode::cvtt2si(&mut a.buf, sse::SS, false, rd.num(), rs.num()),
            (Ty::D, Ty::I) => encode::cvtt2si(&mut a.buf, sse::SD, false, rd.num(), rs.num()),
            (Ty::F, Ty::L) => encode::cvtt2si(&mut a.buf, sse::SS, true, rd.num(), rs.num()),
            (Ty::D, Ty::L) => encode::cvtt2si(&mut a.buf, sse::SD, true, rd.num(), rs.num()),
            // Float ↔ float.
            (Ty::F, Ty::D) => encode::sse_rr(&mut a.buf, Some(sse::SS), 0x5a, rd.num(), rs.num()),
            (Ty::D, Ty::F) => encode::sse_rr(&mut a.buf, Some(sse::SD), 0x5a, rd.num(), rs.num()),
            _ => a.record_err(Error::BadOperands("unsupported conversion")),
        }
    }

    #[inline]
    fn emit_ld(a: &mut Asm<'_>, ty: Ty, rd: Reg, base: Reg, off: Off) {
        let m = match off {
            Off::I(d) => Mem::bd(base.num(), d),
            Off::R(i) => Mem::bi(base.num(), i.num()),
        };
        match ty {
            Ty::C => encode::load8_sx(&mut a.buf, rd.num(), m),
            Ty::Uc => encode::load8_zx(&mut a.buf, rd.num(), m),
            Ty::S => encode::load16_sx(&mut a.buf, rd.num(), m),
            Ty::Us => encode::load16_zx(&mut a.buf, rd.num(), m),
            Ty::I | Ty::U => encode::load(&mut a.buf, false, rd.num(), m),
            Ty::L | Ty::Ul | Ty::P => encode::load(&mut a.buf, true, rd.num(), m),
            Ty::F => encode::sse_mem(&mut a.buf, Some(sse::SS), 0x10, rd.num(), m),
            Ty::D => encode::sse_mem(&mut a.buf, Some(sse::SD), 0x10, rd.num(), m),
            Ty::V => a.record_err(Error::BadOperands("load of void")),
        }
    }

    #[inline]
    fn emit_st(a: &mut Asm<'_>, ty: Ty, src: Reg, base: Reg, off: Off) {
        let m = match off {
            Off::I(d) => Mem::bd(base.num(), d),
            Off::R(i) => Mem::bi(base.num(), i.num()),
        };
        match ty {
            Ty::C | Ty::Uc => encode::store8(&mut a.buf, src.num(), m),
            Ty::S | Ty::Us => encode::store16(&mut a.buf, src.num(), m),
            Ty::I | Ty::U => encode::store(&mut a.buf, false, src.num(), m),
            Ty::L | Ty::Ul | Ty::P => encode::store(&mut a.buf, true, src.num(), m),
            Ty::F => encode::sse_mem(&mut a.buf, Some(sse::SS), 0x11, src.num(), m),
            Ty::D => encode::sse_mem(&mut a.buf, Some(sse::SD), 0x11, src.num(), m),
            Ty::V => a.record_err(Error::BadOperands("store of void")),
        }
    }

    #[inline]
    fn emit_branch(a: &mut Asm<'_>, cond: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        let at = if ty.is_float() {
            let BrOperand::R(rs2) = rs2 else {
                a.record_err(Error::BadOperands("float branch immediate"));
                return;
            };
            encode::ucomis(&mut a.buf, ty == Ty::D, rs1.num(), rs2.num());
            encode::jcc(&mut a.buf, int_cc(cond, false))
        } else {
            let (w, code) = (is64(ty), int_cc(cond, ty.is_signed()));
            match rs2 {
                BrOperand::R(r2) => encode::cmp_rr_jcc(&mut a.buf, w, rs1.num(), r2.num(), code),
                BrOperand::I(imm) => match i32::try_from(imm) {
                    Ok(i) => encode::cmp_imm_jcc(&mut a.buf, w, rs1.num(), i, code),
                    Err(_) => {
                        encode::mov_ri(&mut a.buf, SCRATCH, imm);
                        encode::cmp_rr_jcc(&mut a.buf, w, rs1.num(), SCRATCH, code)
                    }
                },
            }
        };
        a.fixup_at(at, FixupTarget::Label(l), 0);
    }

    #[inline]
    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                let at = encode::jmp_rel(&mut a.buf);
                a.fixup_at(at, FixupTarget::Label(l), JMP);
                // One opcode byte and the rel32: `Asm::bind_site` takes
                // it back if `l` is bound right behind it.
                a.jump = (at - 1, at + 4);
            }
            JumpTarget::Reg(r) => encode::jmp_rm(&mut a.buf, r.num()),
            JumpTarget::Abs(addr) => {
                encode::mov_ri(&mut a.buf, SCRATCH, addr as i64);
                encode::jmp_rm(&mut a.buf, SCRATCH);
            }
        }
    }

    #[inline]
    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                let at = encode::call_rel(&mut a.buf);
                a.fixup_at(at, FixupTarget::Label(l), 0);
            }
            JumpTarget::Reg(r) => encode::call_rm(&mut a.buf, r.num()),
            JumpTarget::Abs(addr) => {
                encode::mov_ri(&mut a.buf, SCRATCH, addr as i64);
                encode::call_rm(&mut a.buf, SCRATCH);
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
        debug_assert_eq!(
            cf.sig.args().get(idx).copied(),
            Some(ty),
            "argument type mismatch"
        );
        // Stage every argument on the stack; the pops at call_end move
        // them to their convention registers. Staging makes argument
        // shuffles order-independent (an argument source may itself live
        // in an argument register).
        if ty.is_float() {
            cf.next_flt += 1;
            if cf.next_flt > 8 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_flt as usize,
                    max: 8,
                });
                return;
            }
            encode::alu_imm(&mut a.buf, Alu::Sub, true, r::RSP, 8);
            let p = if ty == Ty::F { sse::SS } else { sse::SD };
            encode::sse_mem(&mut a.buf, Some(p), 0x11, src.num(), Mem::bd(r::RSP, 0));
        } else {
            cf.next_int += 1;
            if cf.next_int > 6 {
                a.record_err(Error::TooManyArgs {
                    requested: cf.next_int as usize,
                    max: 6,
                });
                return;
            }
            encode::push(&mut a.buf, src.num());
        }
        cf.stack_bytes += 8;
    }

    fn call_end(a: &mut Asm<'_>, cf: CallFrame, target: JumpTarget, ret: Option<(Ty, Reg)>) {
        // Secure the target before the pops clobber argument registers.
        let target = match target {
            JumpTarget::Reg(r) => {
                encode::mov_rr(&mut a.buf, true, SCRATCH, r.num());
                JumpTarget::Reg(Reg::int(SCRATCH))
            }
            t => t,
        };
        // Unstage in reverse order.
        let mut int_slot = 0usize;
        let mut flt_slot = 0usize;
        let placements: Vec<(bool, usize)> = cf
            .sig
            .args()
            .iter()
            .map(|ty| {
                if ty.is_float() {
                    let s = flt_slot;
                    flt_slot += 1;
                    (true, s)
                } else {
                    let s = int_slot;
                    int_slot += 1;
                    (false, s)
                }
            })
            .collect();
        for (i, &(is_f, slot)) in placements.iter().enumerate().rev() {
            let ty = cf.sig.args()[i];
            if is_f {
                let p = if ty == Ty::F { sse::SS } else { sse::SD };
                encode::sse_mem(&mut a.buf, Some(p), 0x10, slot as u8, Mem::bd(r::RSP, 0));
                encode::alu_imm(&mut a.buf, Alu::Add, true, r::RSP, 8);
            } else {
                encode::pop(&mut a.buf, INT_ARG_SLOTS[slot]);
            }
        }
        match target {
            JumpTarget::Label(l) => {
                let at = encode::call_rel(&mut a.buf);
                a.fixup_at(at, FixupTarget::Label(l), 0);
            }
            JumpTarget::Reg(r) => encode::call_rm(&mut a.buf, r.num()),
            JumpTarget::Abs(addr) => {
                encode::mov_ri(&mut a.buf, SCRATCH, addr as i64);
                encode::call_rm(&mut a.buf, SCRATCH);
            }
        }
        if let Some((ty, rd)) = ret {
            match ty {
                Ty::I => encode::movsxd(&mut a.buf, rd.num(), r::RAX),
                Ty::U => encode::mov_rr(&mut a.buf, false, rd.num(), r::RAX),
                Ty::F => encode::sse_rr(&mut a.buf, Some(sse::SS), 0x10, rd.num(), 0),
                Ty::D => encode::sse_rr(&mut a.buf, Some(sse::SD), 0x10, rd.num(), 0),
                _ => encode::mov_rr(&mut a.buf, true, rd.num(), r::RAX),
            }
        }
    }

    /// `lea rd, [rip+disp32]`: 7 bytes, one instruction, through the
    /// rip-relative fixup the literal loads use.
    fn emit_image_base(a: &mut Asm<'_>, rd: Reg) {
        let at = encode::lea_rip(&mut a.buf, rd.num());
        a.fixup_at(at, FixupTarget::Base, 0);
    }

    #[inline]
    fn emit_ext_unop(a: &mut Asm<'_>, op: ExtUnOp, ty: Ty, rd: Reg, rs: Reg) -> bool {
        match (op, ty) {
            (ExtUnOp::Sqrt, Ty::F) => {
                encode::sse_rr(&mut a.buf, Some(sse::SS), 0x51, rd.num(), rs.num());
                true
            }
            (ExtUnOp::Sqrt, Ty::D) => {
                encode::sse_rr(&mut a.buf, Some(sse::SD), 0x51, rd.num(), rs.num());
                true
            }
            (ExtUnOp::Bswap, Ty::U) => {
                if rd != rs {
                    encode::mov_rr(&mut a.buf, false, rd.num(), rs.num());
                }
                encode::bswap(&mut a.buf, false, rd.num());
                true
            }
            (ExtUnOp::Bswap, Ty::Ul) => {
                if rd != rs {
                    encode::mov_rr(&mut a.buf, true, rd.num(), rs.num());
                }
                encode::bswap(&mut a.buf, true, rd.num());
                true
            }
            (ExtUnOp::Bswap, Ty::Us) => {
                if rd != rs {
                    encode::mov_rr(&mut a.buf, false, rd.num(), rs.num());
                }
                encode::ror16_imm(&mut a.buf, rd.num(), 8);
                encode::movzx16_rr(&mut a.buf, rd.num(), rd.num());
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine adapter: native execution
// ---------------------------------------------------------------------------

use vcode::engine::{Backend, EngineError, Lambda, Program, TargetId};
use vcode::target::Finished;

/// Finished native code held for the engine: the live [`ExecCode`]
/// mapping plus the arity recorded at compile time.
///
/// Holding the `ExecCode` (rather than a raw function pointer) is what
/// makes cached lambdas immune to [`drain_pool`]: a mapping only enters
/// the pool when its `ExecCode` drops, so code owned by a cache entry is
/// never parked and never released out from under a caller.
pub struct NativeLambda {
    code: ExecCode,
    args: usize,
    len: usize,
    insns: u64,
}

impl std::fmt::Debug for NativeLambda {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeLambda")
            .field("args", &self.args)
            .field("len", &self.len)
            .field("insns", &self.insns)
            .finish_non_exhaustive()
    }
}

impl Lambda for NativeLambda {
    fn target(&self) -> TargetId {
        TargetId::X64
    }

    fn code_len(&self) -> usize {
        self.len
    }

    fn insns(&self) -> u64 {
        self.insns
    }

    fn call(&self, args: &[i32]) -> Result<i64, EngineError> {
        if args.len() != self.args {
            return Err(EngineError::BadArgs {
                expected: self.args,
                got: args.len(),
            });
        }
        // SysV: i32 args travel zero-extended in the low dword of each
        // argument register (the replayed program only reads 32 bits);
        // the upper bits of rax are undefined for an i32 return, so keep
        // only the low dword and sign-extend.
        let a = |i: usize| args[i] as u32 as u64;
        // SAFETY: `self.code` was emitted by the verifier-gated replay
        // for exactly `self.args` integer parameters (checked above),
        // so calling through the matching-arity thunk is sound.
        let raw = unsafe {
            match self.args {
                0 => self.code.call0(),
                1 => self.code.call1(a(0)),
                2 => self.code.call2(a(0), a(1)),
                3 => self.code.call3(a(0), a(1), a(2)),
                _ => self.code.call4(a(0), a(1), a(2), a(3)),
            }
        };
        Ok(i64::from(raw as u32 as i32))
    }

    fn persist_image(&self) -> Option<(usize, Vec<u8>)> {
        // The mapping is rounded up to a page class; only the emitted
        // prefix is the program.
        Some((self.args, self.code.bytes()[..self.len].to_vec()))
    }
}

/// Places finished, position-independent code — with any data it
/// carries after it, as a DPF classifier carries its tables — in a
/// pooled mapping sized by `code.len()` (which is also all parking
/// scrubs): the install half of [`emit_native`], and all of an L2 load
/// ([`Backend::adopt`]). Every client's code is position-independent.
fn place(code: &[u8]) -> std::io::Result<ExecCode> {
    ExecMem::adopt_bytes(code)?.finalize_written(code.len())
}

/// The engine's handle on installed code: `len` bytes from the mapping's
/// start, callable with `args` integer arguments.
fn lambda(code: ExecCode, args: usize, len: usize, insns: u64) -> std::sync::Arc<dyn Lambda> {
    std::sync::Arc::new(NativeLambda {
        code,
        args,
        len,
        insns,
    })
}

/// The one way to native code, for the engine ([`X64Backend`]), DPF,
/// ASH and tcc alike: `emit` writes into the thread's lowering scratch
/// ([`vcode::engine::lower_in_scratch`], which grows it until the code
/// fits), and the finished bytes are installed in a pooled mapping
/// sized by their length. The code starts at [`Finished::entry`], so
/// `as_fn` calls it; scratch offset `off` runs at
/// `code.addr() + off - entry`.
///
/// # Errors
///
/// `emit`'s error, or the allocation or mapping failure as `E`.
pub fn emit_native<E: vcode::engine::LowerError>(
    emit: impl FnMut(&mut [u8]) -> Result<Finished, E>,
) -> Result<(ExecCode, Finished), E> {
    vcode::engine::lower_in_scratch(emit, |code, fin| {
        Ok((place(code).map_err(E::no_memory)?, fin))
    })
}

// The engine keeps a scratch up to the pool's largest class: code that
// fits a kept scratch also fits the pool.
const _: () = assert!(vcode::engine::SCRATCH_MAX == MAX_POOL_PAGES * 4096);

/// Runtime-selectable engine adapter for the native x86-64 target:
/// replays a recorded [`Program`] through `Assembler<X64>` into the
/// thread's lowering scratch, then installs the finished bytes in a
/// right-sized executable mapping ([`emit_native`]) and returns a
/// [`NativeLambda`] over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct X64Backend;

impl Backend for X64Backend {
    fn id(&self) -> TargetId {
        TargetId::X64
    }

    fn word_bits(&self) -> u32 {
        X64::WORD_BITS
    }

    fn compile(&self, prog: &Program) -> Result<std::sync::Arc<dyn Lambda>, EngineError> {
        let replay = |buf: &mut [u8]| vcode::engine::replay::<X64>(prog, buf);
        let (code, fin) = emit_native(replay)?;
        Ok(lambda(code, prog.args(), fin.len - fin.entry, fin.insns))
    }

    fn adopt(
        &self,
        artifact: &vcode::ArtifactView<'_>,
    ) -> Result<std::sync::Arc<dyn Lambda>, vcode::PersistError> {
        // Differential re-decode *before* anything lands in executable
        // memory: every instruction must decode, the walk must end on
        // the buffer boundary, every branch target must be a boundary.
        vcode::persist::redecode(artifact.code, &declen::Decoder)?;
        // Failing to obtain executable memory says nothing about the
        // artifact: the `io::Error` converts to `PersistError::Io`,
        // which the disk tier does not evict on.
        let (args, len) = (artifact.args as usize, artifact.code.len());
        Ok(lambda(place(artifact.code)?, args, len, artifact.insns))
    }
}
