//! A tiny synthetic target used by the core crate's own tests and
//! doctests.
//!
//! `FakeTarget` is an "idealized RISC" in the most literal sense: every
//! VCODE instruction encodes to exactly one 32-bit word of an invented
//! encoding. It exists so the target-independent machinery (labels,
//! fixups, the register allocator, prologue reservation, literal pool)
//! can be exercised without pulling in a real backend. Real code runs on
//! the `vcode-mips`, `vcode-sparc`, `vcode-alpha` and `vcode-x64` crates.

use crate::asm::Asm;
use crate::error::Error;
use crate::label::{Fixup, FixupTarget, Label};
use crate::op::{BinOp, Cond, Imm, UnOp};
use crate::reg::{Bank, Reg, RegDesc, RegFile, RegKind};
use crate::target::{BrOperand, CallFrame, JumpTarget, Leaf, Off, StackSlot, Target};
use crate::ty::{Sig, Ty};

/// The synthetic test target. One VCODE instruction = one 32-bit word.
#[derive(Debug, Clone, Copy)]
pub enum FakeTarget {}

/// Opcodes of the fake encoding (public so tests can decode).
pub mod opcodes {
    /// Binary register op.
    pub const BINOP: u8 = 0x01;
    /// Binary immediate op.
    pub const BINOPI: u8 = 0x02;
    /// Unary op.
    pub const UNOP: u8 = 0x03;
    /// Set constant.
    pub const SET: u8 = 0x04;
    /// Conversion.
    pub const CVT: u8 = 0x05;
    /// Load.
    pub const LD: u8 = 0x06;
    /// Store.
    pub const ST: u8 = 0x07;
    /// Conditional branch (fixup kind 0 patches the high 16 bits with the
    /// word index of the destination).
    pub const BRANCH: u8 = 0x08;
    /// Unconditional jump.
    pub const JUMP: u8 = 0x09;
    /// Jump and link.
    pub const JAL: u8 = 0x0a;
    /// No-op.
    pub const NOP: u8 = 0x0b;
    /// Return (transfer to epilogue).
    pub const RET: u8 = 0x0c;
    /// Frame allocation (prologue; low 16 bits patched with frame size).
    pub const FRAME: u8 = 0x0d;
    /// Register save/restore marker (patched prologue save area).
    pub const SAVE: u8 = 0x0e;
    /// Epilogue marker.
    pub const EPILOGUE: u8 = 0x0f;
    /// Call-marshaling word.
    pub const CALL: u8 = 0x10;
}

fn word(op: u8, a: u8, b: u8, c: u8) -> u32 {
    u32::from_le_bytes([op, a, b, c])
}

static INT_REGS: [RegDesc; 16] = {
    const fn d(n: u8, kind: RegKind, name: &'static str) -> RegDesc {
        RegDesc {
            reg: Reg::int(n),
            kind,
            name,
        }
    }
    [
        d(8, RegKind::CallerSaved, "t0"),
        d(9, RegKind::CallerSaved, "t1"),
        d(10, RegKind::CallerSaved, "t2"),
        d(11, RegKind::CallerSaved, "t3"),
        d(4, RegKind::Arg(0), "a0"),
        d(5, RegKind::Arg(1), "a1"),
        d(6, RegKind::Arg(2), "a2"),
        d(7, RegKind::Arg(3), "a3"),
        d(16, RegKind::CalleeSaved, "s0"),
        d(17, RegKind::CalleeSaved, "s1"),
        d(18, RegKind::CalleeSaved, "s2"),
        d(19, RegKind::CalleeSaved, "s3"),
        d(20, RegKind::CalleeSaved, "s4"),
        d(21, RegKind::CalleeSaved, "s5"),
        d(1, RegKind::Reserved, "at"),
        d(2, RegKind::Reserved, "v0"),
    ]
};

static FLT_REGS: [RegDesc; 8] = {
    const fn d(n: u8, kind: RegKind, name: &'static str) -> RegDesc {
        RegDesc {
            reg: Reg::flt(n),
            kind,
            name,
        }
    }
    [
        d(4, RegKind::CallerSaved, "f4"),
        d(5, RegKind::CallerSaved, "f5"),
        d(12, RegKind::Arg(0), "f12"),
        d(14, RegKind::Arg(1), "f14"),
        d(20, RegKind::CalleeSaved, "f20"),
        d(22, RegKind::CalleeSaved, "f22"),
        d(0, RegKind::Reserved, "f0"),
        d(2, RegKind::Reserved, "f2"),
    ]
};

static REGFILE: RegFile = RegFile {
    int: &INT_REGS,
    flt: &FLT_REGS,
    hard_temps: &[Reg::int(8), Reg::int(9), Reg::int(10), Reg::int(11)],
    hard_saved: &[Reg::int(16), Reg::int(17), Reg::int(18), Reg::int(19)],
    sp: Reg::int(29),
    fp: Reg::int(30),
    zero: Some(Reg::int(0)),
};

impl Target for FakeTarget {
    const NAME: &'static str = "fake";
    const WORD_BITS: u32 = 32;
    const MAX_SAVE_BYTES: usize = 6 * 4;

    fn regfile() -> &'static RegFile {
        &REGFILE
    }

    fn begin(a: &mut Asm<'_>, sig: &Sig, _leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error> {
        // Frame-allocation word, patched in `end` with the final size.
        a.ts.frame_fix = a.buf.len();
        a.buf.put_u32(word(opcodes::FRAME, 0, 0, 0));
        // Worst-case register-save area (paper §5.2): one word per
        // callee-saved register, filled with SAVE markers at `end`.
        let start = a.buf.len();
        a.buf.reserve(Self::MAX_SAVE_BYTES, 0);
        a.ts.save_area = (start, a.buf.len());
        // Argument homing: ints in a0..a3, floats in f12/f14.
        let (mut ni, mut nf) = (0u8, 0u8);
        for &ty in sig.args() {
            let reg = if ty.is_float() {
                let r = [Reg::flt(12), Reg::flt(14)].get(nf as usize).copied();
                nf += 1;
                r
            } else {
                let r = [Reg::int(4), Reg::int(5), Reg::int(6), Reg::int(7)]
                    .get(ni as usize)
                    .copied();
                ni += 1;
                r
            };
            let reg = reg.ok_or(Error::TooManyArgs {
                requested: sig.args().len(),
                max: 4,
            })?;
            a.ra.take(reg);
            args.push(reg);
        }
        Ok(())
    }

    fn local(a: &mut Asm<'_>, ty: Ty) -> StackSlot {
        let size = ty.size_bytes(Self::WORD_BITS).max(4);
        a.locals_bytes = a.locals_bytes.div_ceil(size) * size + size;
        StackSlot {
            base: REGFILE.fp,
            off: -(a.locals_bytes as i32),
            ty,
        }
    }

    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>) {
        let r = val.map(|(_, r)| r.num()).unwrap_or(0);
        a.fixup_here(FixupTarget::Label(a.epilogue), 0);
        a.buf.put_u32(word(opcodes::RET, r, 0, 0));
    }

    fn end(a: &mut Asm<'_>) -> Result<(), Error> {
        // Fill the reserved prologue save area with SAVE markers for the
        // callee-saved registers actually used.
        let used = a.ra.callee_used(Bank::Int);
        let (start, end) = a.ts.save_area;
        let mut at = start;
        for n in 0..64u8 {
            if used & (1 << n) != 0 && at + 4 <= end {
                a.buf.patch_u32(at, word(opcodes::SAVE, n, 0, 0));
                at += 4;
            }
        }
        while at < end {
            a.buf.patch_u32(at, word(opcodes::NOP, 0, 0, 0));
            at += 4;
        }
        // Backpatch the activation-record size.
        let frame = (Self::MAX_SAVE_BYTES + a.locals_bytes) as u32;
        let old = a.buf.read_u32(a.ts.frame_fix);
        a.buf
            .patch_u32(a.ts.frame_fix, old | (frame & 0xffff) << 16);
        // Deferred epilogue.
        let here = a.buf.len();
        a.labels.bind(a.epilogue, here);
        a.buf.put_u32(word(opcodes::EPILOGUE, 0, 0, 0));
        Ok(())
    }

    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize) {
        // Kind 0: high 16 bits = destination word index.
        let old = a.buf.read_u32(fixup.at);
        let widx = (dest / 4) as u32;
        a.buf
            .patch_u32(fixup.at, (old & 0x0000_ffff) | (widx & 0xffff) << 16);
    }

    fn emit_binop(a: &mut Asm<'_>, op: BinOp, _ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        a.buf
            .put_u32(word(opcodes::BINOP, rd.num(), rs1.num(), rs2.num()) | (op as u32) << 28);
    }

    fn emit_binop_imm(a: &mut Asm<'_>, _op: BinOp, _ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        a.buf
            .put_u32(word(opcodes::BINOPI, rd.num(), rs.num(), imm as u8));
    }

    fn emit_unop(a: &mut Asm<'_>, op: UnOp, _ty: Ty, rd: Reg, rs: Reg) {
        a.buf
            .put_u32(word(opcodes::UNOP, rd.num(), rs.num(), op as u8));
    }

    fn emit_set(a: &mut Asm<'_>, _ty: Ty, rd: Reg, imm: Imm) {
        match imm {
            Imm::Int(v) => a.buf.put_u32(word(opcodes::SET, rd.num(), v as u8, 0)),
            Imm::F32(v) => {
                let id = a.lits.intern_f32(v);
                a.fixup_here(FixupTarget::Lit(id), 0);
                a.buf.put_u32(word(opcodes::SET, rd.num(), 0, 1));
            }
            Imm::F64(v) => {
                let id = a.lits.intern_f64(v);
                a.fixup_here(FixupTarget::Lit(id), 0);
                a.buf.put_u32(word(opcodes::SET, rd.num(), 0, 2));
            }
        }
    }

    fn emit_cvt(a: &mut Asm<'_>, _from: Ty, _to: Ty, rd: Reg, rs: Reg) {
        a.buf.put_u32(word(opcodes::CVT, rd.num(), rs.num(), 0));
    }

    fn emit_ld(a: &mut Asm<'_>, _ty: Ty, rd: Reg, base: Reg, off: Off) {
        let o = match off {
            Off::I(i) => i as u8,
            Off::R(r) => r.num(),
        };
        a.buf.put_u32(word(opcodes::LD, rd.num(), base.num(), o));
    }

    fn emit_st(a: &mut Asm<'_>, _ty: Ty, src: Reg, base: Reg, off: Off) {
        let o = match off {
            Off::I(i) => i as u8,
            Off::R(r) => r.num(),
        };
        a.buf.put_u32(word(opcodes::ST, src.num(), base.num(), o));
    }

    fn emit_branch(a: &mut Asm<'_>, cond: Cond, _ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        // The fake encoding drops rs2/cond details: bytes 2-3 hold the
        // (patched) destination word index.
        let _ = (cond, rs2);
        a.fixup_here(FixupTarget::Label(l), 0);
        a.buf.put_u32(word(opcodes::BRANCH, rs1.num(), 0, 0));
    }

    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                a.fixup_here(FixupTarget::Label(l), 0);
                a.buf.put_u32(word(opcodes::JUMP, 0, 0, 0));
            }
            JumpTarget::Reg(r) => a.buf.put_u32(word(opcodes::JUMP, r.num(), 0, 1)),
            JumpTarget::Abs(_) => a.buf.put_u32(word(opcodes::JUMP, 0, 0, 2)),
        }
    }

    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget) {
        match t {
            JumpTarget::Label(l) => {
                a.fixup_here(FixupTarget::Label(l), 0);
                a.buf.put_u32(word(opcodes::JAL, 0, 0, 0));
            }
            JumpTarget::Reg(r) => a.buf.put_u32(word(opcodes::JAL, r.num(), 0, 1)),
            JumpTarget::Abs(_) => a.buf.put_u32(word(opcodes::JAL, 0, 0, 2)),
        }
    }

    fn emit_nop(a: &mut Asm<'_>) {
        a.buf.put_u32(word(opcodes::NOP, 0, 0, 0));
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

    fn call_arg(a: &mut Asm<'_>, cf: &mut CallFrame, _idx: usize, _ty: Ty, src: Reg) {
        cf.next_int += 1;
        a.buf
            .put_u32(word(opcodes::CALL, src.num(), cf.next_int, 0));
    }

    fn call_end(a: &mut Asm<'_>, _cf: CallFrame, _target: JumpTarget, _ret: Option<(Ty, Reg)>) {
        a.buf.put_u32(word(opcodes::CALL, 0, 0, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::reg::RegClass;

    fn decode(buf: &[u8], widx: usize) -> [u8; 4] {
        let mut w = [0u8; 4];
        w.copy_from_slice(&buf[widx * 4..widx * 4 + 4]);
        w
    }

    #[test]
    fn plus1_layout_matches_figure_1() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let arg = a.arg(0);
        assert_eq!(arg, Reg::int(4), "first int argument homed in a0");
        a.addii(arg, arg, 1);
        a.reti(arg);
        let fin = a.end().unwrap();
        // frame word + 6 save words + addii + ret + epilogue = 10 words.
        assert_eq!(fin.len, 10 * 4);
        let frame = decode(&mem, 0);
        assert_eq!(frame[0], opcodes::FRAME);
        // Frame size = save area only (no locals) = 24.
        assert_eq!(u16::from_le_bytes([frame[2], frame[3]]), 24);
        assert_eq!(decode(&mem, 7)[0], opcodes::BINOPI);
        let ret = decode(&mem, 8);
        assert_eq!(ret[0], opcodes::RET);
        // Unused prologue save slots become nops.
        assert_eq!(decode(&mem, 1)[0], opcodes::NOP);
        assert_eq!(decode(&mem, 9)[0], opcodes::EPILOGUE);
    }

    #[test]
    fn branch_backpatching_links_forward_jumps() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let arg = a.arg(0);
        let done = a.genlabel();
        a.bltii(arg, 10, done);
        a.addii(arg, arg, 1);
        a.label(done);
        a.reti(arg);
        a.end().unwrap();
        let br = decode(&mem, 7);
        assert_eq!(br[0], opcodes::BRANCH);
        // Destination is word 9 (the ret after the addii at word 8).
        let w = u32::from_le_bytes(br);
        assert_eq!(w >> 16, 9, "branch links to the label's word index");
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        let l = a.genlabel();
        a.jmp(l);
        a.retv();
        match a.end() {
            Err(crate::Error::UnboundLabel(_)) => {}
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    fn overflow_is_reported_at_end() {
        let mut mem = vec![0u8; 8]; // far too small for the prologue
        let a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        match a.end() {
            Err(crate::Error::Overflow { capacity: 8 }) => {}
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn callee_saved_use_patches_save_area() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::No).unwrap();
        let s = a.getreg(RegClass::Persistent).unwrap();
        assert_eq!(s, Reg::int(16));
        a.setl(s, 7);
        a.retv();
        a.end().unwrap();
        let save = decode(&mem, 1);
        assert_eq!(save[0], opcodes::SAVE);
        assert_eq!(save[1], 16);
        assert_eq!(decode(&mem, 2)[0], opcodes::NOP);
    }

    #[test]
    fn float_constants_go_to_the_literal_pool() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        let f = a.getreg_f(RegClass::Temp).unwrap();
        a.setd(f, 2.5);
        a.retd(f);
        let fin = a.end().unwrap();
        // The pool holds the 8 bytes of 2.5 at the (aligned) end.
        let pool_off = (fin.len - 8) / 8 * 8;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&mem[pool_off..pool_off + 8]);
        assert_eq!(f64::from_le_bytes(bits), 2.5);
        // The SET word was patched to point at the pool entry.
        let set_w = u32::from_le_bytes(decode(&mem, 7));
        assert_eq!(set_w >> 16, (pool_off / 4) as u32);
    }

    #[test]
    fn call_in_leaf_is_an_error() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        let sig = crate::Sig::parse("%i").unwrap();
        let cf = a.call_begin(&sig);
        a.call_end(cf, JumpTarget::Abs(0x1000), None);
        a.retv();
        assert_eq!(a.end(), Err(crate::Error::CallInLeaf));
    }

    #[test]
    fn too_many_args_rejected() {
        let mut mem = vec![0u8; 256];
        let r = Assembler::<FakeTarget>::lambda(&mut mem, "%i%i%i%i%i", Leaf::Yes);
        assert!(matches!(r, Err(crate::Error::TooManyArgs { .. })));
    }

    #[test]
    fn schedule_delay_places_slot_before_branch_without_delay_slots() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let arg = a.arg(0);
        let l = a.genlabel();
        a.label(l);
        // FakeTarget has no delay slots: the slot instruction must be
        // emitted *before* the branch.
        a.schedule_delay(|a| a.bneii(arg, 0, l), |a| a.addii(arg, arg, 1));
        a.retv();
        a.end().unwrap();
        assert_eq!(decode(&mem, 7)[0], opcodes::BINOPI);
        assert_eq!(decode(&mem, 8)[0], opcodes::BRANCH);
    }

    #[test]
    fn locals_have_distinct_offsets_and_frame_grows() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "", Leaf::Yes).unwrap();
        let s1 = a.local(Ty::I);
        let s2 = a.local(Ty::D);
        assert_ne!(s1.off, s2.off);
        assert_eq!(s2.off % 8, 0, "double slot is 8-aligned");
        a.retv();
        a.end().unwrap();
        let frame = decode(&mem, 0);
        assert!(u16::from_le_bytes([frame[2], frame[3]]) >= 24 + 12);
    }

    #[test]
    fn insn_count_tracks_specified_instructions() {
        let mut mem = vec![0u8; 256];
        let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let arg = a.arg(0);
        a.addii(arg, arg, 1);
        a.subii(arg, arg, 1);
        a.reti(arg);
        assert_eq!(a.insn_count(), 3);
    }
}
