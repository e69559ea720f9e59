//! x86-64 instruction encoders.
//!
//! These are the machine-instruction emitters a retarget constructs first
//! (paper §3.3 step 1): small functions that append one encoded
//! instruction to the in-place [`CodeBuffer`]. The VCODE-to-machine
//! mapping in [`crate::X64`] is built on top of them.
//!
//! Register operands are raw hardware numbers (`rax`=0 ... `r15`=15,
//! `xmm0`=0 ... `xmm15`=15).
//!
//! Every emitter pays exactly one capacity check: it reserves a
//! [`MAX_INSN`]-byte window ([`CodeBuffer::window`]) and then batches the
//! prefix/REX/opcode/modrm/SIB/immediate bytes as unchecked stores. The
//! longest instruction emitted here is `movabs` (10 bytes) or a
//! prefix+REX+2-byte-opcode+modrm+SIB+disp32 memory form (10 bytes), so a
//! 16-byte reservation is conservatively safe.

use vcode::buf::{CodeBuffer, Win};

/// Conservative upper bound on the byte length of a single instruction
/// emitted by this module (hardware max is 15; our longest form is 10).
/// The extra slack also satisfies [`Win::word`]'s 8-byte store.
pub const MAX_INSN: usize = 16;

/// A packed little-endian instruction head (prefix/REX/opcode/modrm/SIB,
/// at most 8 bytes) assembled in a register and committed with a single
/// [`Win::word`] store. Optional bytes (REX, SIB, disp8) stay
/// branch-free: a suppressed byte ORs in as zero and adds nothing to the
/// length.
#[derive(Clone, Copy)]
struct InsnWord {
    word: u64,
    n: usize,
}

impl InsnWord {
    /// Builds a head whose REX byte sits at byte 0 and whose remaining
    /// bytes (`tail`, `tail_len` of them, little-endian) occupy
    /// compile-time-constant positions, then drops the REX with a single
    /// conditional shift when it encodes nothing. This keeps the hot
    /// register-register emitters free of data-dependent shift chains:
    /// every byte lands at a constant position and exactly one shift
    /// depends on whether the REX survives.
    #[inline(always)]
    fn headed(rex: u8, force: bool, tail: u64, tail_len: usize) -> InsnWord {
        let keep = (rex != 0x40 || force) as u32;
        InsnWord {
            word: (tail << 8 | rex as u64) >> (8 * (1 - keep)),
            n: tail_len + keep as usize,
        }
    }

    /// Prepends a mandatory prefix byte (0x66 / SSE scalar prefixes) in
    /// front of the head built so far.
    #[inline(always)]
    fn prepend(&mut self, b: u8) {
        self.word = self.word << 8 | b as u64;
        self.n += 1;
    }

    /// Flushes the packed word: one capacity check, one 8-byte store.
    #[inline(always)]
    fn commit(self, buf: &mut CodeBuffer<'_>) {
        buf.put_word(self.word, self.n);
    }

    /// Flushes into an already-reserved window (emitters that append a
    /// trailer or take a fixup offset after the head).
    #[inline(always)]
    fn commit_win(self, w: &mut Win<'_, '_>) {
        w.word(self.word, self.n);
    }
}

/// Hardware register numbers, for readability at call sites.
pub mod r {
    #![allow(missing_docs)]
    pub const RAX: u8 = 0;
    pub const RCX: u8 = 1;
    pub const RDX: u8 = 2;
    pub const RBX: u8 = 3;
    pub const RSP: u8 = 4;
    pub const RBP: u8 = 5;
    pub const RSI: u8 = 6;
    pub const RDI: u8 = 7;
    pub const R8: u8 = 8;
    pub const R9: u8 = 9;
    pub const R10: u8 = 10;
    pub const R11: u8 = 11;
    pub const R12: u8 = 12;
    pub const R13: u8 = 13;
    pub const R14: u8 = 14;
    pub const R15: u8 = 15;
}

/// Condition-code nibbles for `jcc`/`setcc`.
pub mod cc {
    #![allow(missing_docs)]
    pub const B: u8 = 0x2; // below (unsigned <, also ucomis <)
    pub const AE: u8 = 0x3;
    pub const E: u8 = 0x4;
    pub const NE: u8 = 0x5;
    pub const BE: u8 = 0x6;
    pub const A: u8 = 0x7;
    pub const L: u8 = 0xc;
    pub const GE: u8 = 0xd;
    pub const LE: u8 = 0xe;
    pub const G: u8 = 0xf;
}

/// A memory operand: `[base + index + disp]` (index unscaled; VCODE's
/// register offsets are byte offsets).
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    /// Base register.
    pub base: u8,
    /// Optional (unscaled) index register. Must not be `rsp`.
    pub index: Option<u8>,
    /// Displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base + disp]`.
    pub fn bd(base: u8, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    /// `[base + index]`.
    pub fn bi(base: u8, index: u8) -> Mem {
        debug_assert_ne!(index, r::RSP, "rsp cannot be an index register");
        Mem {
            base,
            index: Some(index),
            disp: 0,
        }
    }
}

/// The REX byte for the given operand extensions (0x40 when empty).
#[inline(always)]
fn rex_byte(wide: bool, reg: u8, x: u8, b: u8) -> u8 {
    0x40 | (wide as u8) << 3 | (reg >> 3) << 2 | (x >> 3) << 1 | (b >> 3)
}

/// The modrm byte.
#[inline(always)]
fn modrm_byte(md: u8, reg: u8, rm: u8) -> u8 {
    md << 6 | (reg & 7) << 3 | (rm & 7)
}

/// Emits `[prefix] [REX] opcode modrm(reg, rm)` for a register-register
/// form — one reservation, one packed store.
#[inline(always)]
fn op_rr(
    buf: &mut CodeBuffer<'_>,
    prefix: Option<u8>,
    opc: &[u8],
    wide: bool,
    reg: u8,
    rm: u8,
    force_rex: bool,
) {
    let mut tail = 0u64;
    let mut sh = 0;
    for &b in opc {
        tail |= (b as u64) << sh;
        sh += 8;
    }
    tail |= (modrm_byte(0b11, reg, rm) as u64) << sh;
    let mut iw = InsnWord::headed(rex_byte(wide, reg, 0, rm), force_rex, tail, opc.len() + 1);
    if let Some(p) = prefix {
        iw.prepend(p);
    }
    iw.commit(buf);
}

/// Emits `[prefix] [REX] opcode modrm/sib/disp` for a memory form, packed
/// like [`op_rr`]: only the SIB byte and a disp8, which an operand may
/// or may not need, take a shift of their own.
#[inline(always)]
fn op_mem(
    buf: &mut CodeBuffer<'_>,
    prefix: Option<u8>,
    opc: &[u8],
    wide: bool,
    reg: u8,
    m: Mem,
    force_rex: bool,
) {
    // Pick the shortest displacement encoding. `rbp`/`r13` as base with
    // mod=00 means rip-relative/absolute, so they always need a disp.
    let need_disp = m.disp != 0 || m.base & 7 == 5;
    let md = if !need_disp {
        0b00
    } else if i8::try_from(m.disp).is_ok() {
        0b01
    } else {
        0b10
    };
    // An index, or `rsp`/`r12` as base, takes a SIB byte (scale 1;
    // index 100 is "none").
    let (has_sib, sib) = match m.index {
        Some(idx) => {
            debug_assert_ne!(idx & 0xf, r::RSP);
            (true, (idx & 7) << 3 | (m.base & 7))
        }
        None => (m.base & 7 == 4, 0b10_0100 | (m.base & 7)),
    };
    let mut tail = 0u64;
    let mut n = 0;
    for &b in opc {
        tail |= (b as u64) << (8 * n);
        n += 1;
    }
    tail |= (modrm_byte(md, reg, if has_sib { 0b100 } else { m.base }) as u64) << (8 * n);
    tail |= (sib as u64 * has_sib as u64) << (8 * (n + 1));
    n += 1 + has_sib as usize;
    // disp8 rides in the packed head; disp32 is its own checked store.
    tail |= (m.disp as u8 as u64 * (md == 0b01) as u64) << (8 * n);
    n += (md == 0b01) as usize;
    let rex = rex_byte(wide, reg, m.index.unwrap_or(0), m.base);
    let mut iw = InsnWord::headed(rex, force_rex, tail, n);
    if let Some(p) = prefix {
        iw.prepend(p);
    }
    iw.commit(buf);
    if md == 0b10 {
        buf.put_u32(m.disp as u32);
    }
}

// ---- integer ALU ----

/// Two-operand ALU opcodes in `op r/m, reg` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    /// Addition.
    Add = 0x01,
    /// Bitwise or.
    Or = 0x09,
    /// Bitwise and.
    And = 0x21,
    /// Subtraction.
    Sub = 0x29,
    /// Bitwise xor.
    Xor = 0x31,
    /// Comparison (sets flags only).
    Cmp = 0x39,
}

impl Alu {
    /// The `/ext` digit of the immediate form (`81 /ext`): x86 numbers
    /// the eight ALU operations once, in bits 3–5 of the opcode and in
    /// the digit alike.
    pub const fn imm_ext(self) -> u8 {
        self as u8 >> 3
    }
}

/// `op rm, reg` (e.g. `add rdi, rsi`).
#[inline(always)]
pub fn alu_rr(buf: &mut CodeBuffer<'_>, op: Alu, w: bool, rm: u8, reg: u8) {
    op_rr(buf, None, &[op as u8], w, reg, rm, false);
}

/// `op rm, imm` as a packed word: the sign-extended-imm8 form (`83`)
/// when the immediate fits, the imm32 form (`81`) otherwise — chosen by
/// arithmetic on the opcode and the length, not by a branch: the imm32
/// is packed either way and the imm8 form's length cuts it after its
/// low byte.
#[inline(always)]
fn alu_imm_word(op: Alu, wide: bool, rm: u8, imm: i32) -> InsnWord {
    let fits8 = i8::try_from(imm).is_ok();
    let modrm = modrm_byte(0b11, op.imm_ext(), rm) as u64;
    let tail = (0x81 | (fits8 as u64) << 1) | modrm << 8 | (imm as u32 as u64) << 16;
    InsnWord::headed(
        rex_byte(wide, 0, 0, rm),
        false,
        tail,
        6 - 3 * fits8 as usize,
    )
}

/// `op rm, imm` — uses the sign-extended-imm8 form when it fits.
#[inline(always)]
pub fn alu_imm(buf: &mut CodeBuffer<'_>, op: Alu, wide: bool, rm: u8, imm: i32) {
    alu_imm_word(op, wide, rm, imm).commit(buf);
}

/// `mov rm, reg` as a packed word.
#[inline(always)]
fn mov_rr_word(w: bool, rm: u8, reg: u8) -> InsnWord {
    let tail = 0x89 | (modrm_byte(0b11, reg, rm) as u64) << 8;
    InsnWord::headed(rex_byte(w, reg, 0, rm), false, tail, 2)
}

/// `mov rm, reg`.
#[inline(always)]
pub fn mov_rr(buf: &mut CodeBuffer<'_>, w: bool, rm: u8, reg: u8) {
    mov_rr_word(w, rm, reg).commit(buf);
}

/// `mov dst, from` unless they are one register — the length carries
/// the case, so no branch.
#[inline(always)]
pub fn mov_rr_distinct(buf: &mut CodeBuffer<'_>, w: bool, dst: u8, from: u8) {
    let mov = mov_rr_word(w, dst, from);
    buf.put_word(mov.word, mov.n * (dst != from) as usize);
}

// ---- fused two-address forms ----
//
// VCODE is three-address, x86-64 two-address: `rd = rs op x` is `mov rd,
// rs` then `op rd, x`, and just `op rd, x` when `rd` already is `rs`.
// The emitters below build both instructions every time and commit them
// through one reservation, the `mov`'s *length* zero when it is not
// wanted — so which case an instruction is costs no branch, where a
// stream of random operands mispredicts one in three.

/// Commits `mov dst, from` (unless they are one register) then `insn`.
#[inline(always)]
fn commit_after_mov(buf: &mut CodeBuffer<'_>, w: bool, dst: u8, from: u8, insn: InsnWord) {
    let mov = mov_rr_word(w, dst, from);
    let mut win = buf.window(MAX_INSN);
    win.word(mov.word, mov.n * (dst != from) as usize);
    insn.commit_win(&mut win);
}

/// A register-form two-operand integer instruction `op dst, src`: its
/// opcode bytes and which modrm field names the destination.
#[derive(Debug, Clone, Copy)]
pub struct Op2 {
    opc: u64,
    opc_len: usize,
    dst_in_reg: bool,
}

impl Op2 {
    /// `imul reg, r/m` (`0F AF`).
    pub const IMUL: Op2 = Op2 {
        opc: 0xaf0f,
        opc_len: 2,
        dst_in_reg: true,
    };

    /// `op r/m, reg` of an ALU operation.
    pub const fn alu(op: Alu) -> Op2 {
        Op2 {
            opc: op as u64,
            opc_len: 1,
            dst_in_reg: false,
        }
    }
}

/// `[mov dst, from]` `op dst, src`.
#[inline(always)]
pub fn mov_op_rr(buf: &mut CodeBuffer<'_>, op: Op2, w: bool, dst: u8, from: u8, src: u8) {
    let (reg, rm) = if op.dst_in_reg {
        (dst, src)
    } else {
        (src, dst)
    };
    let tail = op.opc | (modrm_byte(0b11, reg, rm) as u64) << (8 * op.opc_len);
    let insn = InsnWord::headed(rex_byte(w, reg, 0, rm), false, tail, op.opc_len + 1);
    commit_after_mov(buf, w, dst, from, insn);
}

/// `[mov dst, from]` `op dst, imm`, imm8 or imm32 form as
/// [`alu_imm`] chooses.
#[inline(always)]
pub fn mov_alu_imm(buf: &mut CodeBuffer<'_>, op: Alu, w: bool, dst: u8, from: u8, imm: i32) {
    commit_after_mov(buf, w, dst, from, alu_imm_word(op, w, dst, imm));
}

/// `[mov dst, from]` then the shift `C1 /ext ib` of `dst`.
#[inline(always)]
pub fn mov_shift_imm(buf: &mut CodeBuffer<'_>, ext: u8, w: bool, dst: u8, from: u8, imm: u8) {
    let tail = 0xc1 | (modrm_byte(0b11, ext, dst) as u64) << 8 | (imm as u64) << 16;
    let insn = InsnWord::headed(rex_byte(w, 0, 0, dst), false, tail, 3);
    commit_after_mov(buf, w, dst, from, insn);
}

/// `[mov dst, from]` then the group-3 unary `F7 /ext` of `dst`
/// (`not`=2, `neg`=3).
#[inline(always)]
pub fn mov_unary(buf: &mut CodeBuffer<'_>, ext: u8, w: bool, dst: u8, from: u8) {
    let tail = 0xf7 | (modrm_byte(0b11, ext, dst) as u64) << 8;
    let insn = InsnWord::headed(rex_byte(w, 0, 0, dst), false, tail, 2);
    commit_after_mov(buf, w, dst, from, insn);
}

/// Commits the compare `cmp` then `jcc rel32`, returning the offset of
/// the rel32 field: a conditional branch in one reservation.
#[inline(always)]
fn commit_cmp_jcc(buf: &mut CodeBuffer<'_>, cmp: InsnWord, cond: u8) -> usize {
    let mut w = buf.window(MAX_INSN);
    cmp.commit_win(&mut w);
    w.array([0x0f, 0x80 + cond]);
    let at = w.len();
    w.u32(0);
    at
}

/// `cmp rm, reg` `jcc rel32`, returning the offset of the rel32 field.
#[inline(always)]
pub fn cmp_rr_jcc(buf: &mut CodeBuffer<'_>, w: bool, rm: u8, reg: u8, cond: u8) -> usize {
    let tail = Alu::Cmp as u64 | (modrm_byte(0b11, reg, rm) as u64) << 8;
    let cmp = InsnWord::headed(rex_byte(w, reg, 0, rm), false, tail, 2);
    commit_cmp_jcc(buf, cmp, cond)
}

/// `cmp rm, imm` `jcc rel32`, returning the offset of the rel32 field.
#[inline(always)]
pub fn cmp_imm_jcc(buf: &mut CodeBuffer<'_>, w: bool, rm: u8, imm: i32, cond: u8) -> usize {
    commit_cmp_jcc(buf, alu_imm_word(Alu::Cmp, w, rm, imm), cond)
}

/// Loads a 64-bit immediate with the shortest encoding (`mov r32, imm32`
/// zero-extends; `mov r/m64, imm32` sign-extends; otherwise `movabs`).
#[inline]
pub fn mov_ri(buf: &mut CodeBuffer<'_>, rd: u8, imm: i64) {
    if imm >= 0 && imm <= u32::MAX as i64 {
        let tail = (0xb8 + (rd & 7)) as u64 | (imm as u32 as u64) << 8;
        InsnWord::headed(rex_byte(false, 0, 0, rd), false, tail, 5).commit(buf);
    } else if i32::try_from(imm).is_ok() {
        let modrm = modrm_byte(0b11, 0, rd) as u64;
        let tail = 0xc7 | modrm << 8 | (imm as u32 as u64) << 16;
        InsnWord::headed(rex_byte(true, 0, 0, rd), false, tail, 6).commit(buf);
    } else {
        let mut w = buf.window(MAX_INSN);
        let tail = (0xb8 + (rd & 7)) as u64;
        InsnWord::headed(rex_byte(true, 0, 0, rd), false, tail, 1).commit_win(&mut w);
        w.u64(imm as u64);
    }
}

/// `mov r32, imm32` (zero-extends into the 64-bit register).
#[inline(always)]
pub fn mov_ri32(buf: &mut CodeBuffer<'_>, rd: u8, imm: u32) {
    let tail = (0xb8 + (rd & 7)) as u64 | (imm as u64) << 8;
    InsnWord::headed(rex_byte(false, 0, 0, rd), false, tail, 5).commit(buf);
}

/// `imul reg, rm` (two-operand signed multiply; low bits are also the
/// unsigned product).
#[inline(always)]
pub fn imul_rr(buf: &mut CodeBuffer<'_>, w: bool, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x0f, 0xaf], w, reg, rm, false);
}

/// `imul reg, rm, imm32`.
#[inline(always)]
pub fn imul_rri(buf: &mut CodeBuffer<'_>, wide: bool, reg: u8, rm: u8, imm: i32) {
    let modrm = modrm_byte(0b11, reg, rm) as u64;
    let tail = 0x69 | modrm << 8 | (imm as u32 as u64) << 16;
    InsnWord::headed(rex_byte(wide, reg, 0, rm), false, tail, 6).commit(buf);
}

/// Group-3 unary ops: `F7 /ext` — `not`=2, `neg`=3, `mul`=4, `imul`=5,
/// `div`=6, `idiv`=7.
#[inline]
pub fn unary_rm(buf: &mut CodeBuffer<'_>, ext: u8, wide: bool, rm: u8) {
    let tail = 0xf7 | (modrm_byte(0b11, ext, rm) as u64) << 8;
    InsnWord::headed(rex_byte(wide, 0, 0, rm), false, tail, 2).commit(buf);
}

/// Shift by `cl`: `D3 /ext` — `shl`=4, `shr`=5, `sar`=7.
#[inline(always)]
pub fn shift_cl(buf: &mut CodeBuffer<'_>, ext: u8, wide: bool, rm: u8) {
    let tail = 0xd3 | (modrm_byte(0b11, ext, rm) as u64) << 8;
    InsnWord::headed(rex_byte(wide, 0, 0, rm), false, tail, 2).commit(buf);
}

/// Shift by immediate: `C1 /ext ib`.
#[inline(always)]
pub fn shift_imm(buf: &mut CodeBuffer<'_>, ext: u8, wide: bool, rm: u8, imm: u8) {
    let tail = 0xc1 | (modrm_byte(0b11, ext, rm) as u64) << 8 | (imm as u64) << 16;
    InsnWord::headed(rex_byte(wide, 0, 0, rm), false, tail, 3).commit(buf);
}

/// `cdq` (sign-extend `eax` into `edx`).
#[inline]
pub fn cdq(buf: &mut CodeBuffer<'_>) {
    buf.put_u8(0x99);
}

/// `cqo` (sign-extend `rax` into `rdx`).
#[inline]
pub fn cqo(buf: &mut CodeBuffer<'_>) {
    buf.put_array([0x48, 0x99]);
}

/// `movsxd reg64, rm32`.
#[inline]
pub fn movsxd(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x63], true, reg, rm, false);
}

/// `movsx reg32, rm8`.
#[inline]
pub fn movsx8_rr(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    // sil/dil/bpl/spl need a REX prefix to mean the low byte.
    op_rr(buf, None, &[0x0f, 0xbe], false, reg, rm, rm >= 4);
}

/// `movzx reg32, rm8`.
#[inline]
pub fn movzx8_rr(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x0f, 0xb6], false, reg, rm, rm >= 4);
}

/// `movsx reg32, rm16`.
#[inline]
pub fn movsx16_rr(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x0f, 0xbf], false, reg, rm, false);
}

/// `movzx reg32, rm16`.
#[inline]
pub fn movzx16_rr(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x0f, 0xb7], false, reg, rm, false);
}

// ---- loads/stores ----

/// `mov reg, [mem]` (32- or 64-bit).
#[inline]
pub fn load(buf: &mut CodeBuffer<'_>, w: bool, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x8b], w, reg, m, false);
}

/// `movzx reg32, byte [mem]`.
#[inline]
pub fn load8_zx(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x0f, 0xb6], false, reg, m, false);
}

/// `movsx reg32, byte [mem]`.
#[inline]
pub fn load8_sx(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x0f, 0xbe], false, reg, m, false);
}

/// `movzx reg32, word [mem]`.
#[inline]
pub fn load16_zx(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x0f, 0xb7], false, reg, m, false);
}

/// `movsx reg32, word [mem]`.
#[inline]
pub fn load16_sx(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x0f, 0xbf], false, reg, m, false);
}

/// `mov [mem], reg` (32- or 64-bit).
#[inline]
pub fn store(buf: &mut CodeBuffer<'_>, w: bool, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x89], w, reg, m, false);
}

/// `mov [mem], reg16`.
#[inline]
pub fn store16(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, Some(0x66), &[0x89], false, reg, m, false);
}

/// `mov [mem], reg8`.
#[inline]
pub fn store8(buf: &mut CodeBuffer<'_>, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x88], false, reg, m, reg >= 4);
}

/// `lea reg, [mem]`.
#[inline]
pub fn lea(buf: &mut CodeBuffer<'_>, w: bool, reg: u8, m: Mem) {
    op_mem(buf, None, &[0x8d], w, reg, m, false);
}

/// RIP-relative load `mov reg, [rip+disp32]` (w), returning the buffer
/// offset of the disp32 field for fixup. Disp is `dest - (field + 4)`.
#[inline]
pub fn load_rip(buf: &mut CodeBuffer<'_>, wide: bool, reg: u8) -> usize {
    let mut w = buf.window(MAX_INSN);
    let tail = 0x8b | (modrm_byte(0b00, reg, 0b101) as u64) << 8;
    InsnWord::headed(rex_byte(wide, reg, 0, 0), false, tail, 2).commit_win(&mut w);
    let at = w.len();
    w.u32(0);
    at
}

/// RIP-relative SSE load (`movss`/`movsd xmm, [rip+disp32]`), returning
/// the disp32 fixup offset.
#[inline]
pub fn sse_load_rip(buf: &mut CodeBuffer<'_>, prefix: u8, reg: u8) -> usize {
    let mut w = buf.window(MAX_INSN);
    let tail = 0x0f | 0x10 << 8 | (modrm_byte(0b00, reg, 0b101) as u64) << 16;
    let mut iw = InsnWord::headed(rex_byte(false, reg, 0, 0), false, tail, 3);
    iw.prepend(prefix);
    iw.commit_win(&mut w);
    let at = w.len();
    w.u32(0);
    at
}

// ---- control flow ----

/// `jcc rel32`, returning the offset of the rel32 field.
#[inline]
pub fn jcc(buf: &mut CodeBuffer<'_>, cond: u8) -> usize {
    let mut w = buf.window(MAX_INSN);
    w.array([0x0f, 0x80 + cond]);
    let at = w.len();
    w.u32(0);
    at
}

/// `jmp rel32`, returning the offset of the rel32 field.
#[inline]
pub fn jmp_rel(buf: &mut CodeBuffer<'_>) -> usize {
    let mut w = buf.window(MAX_INSN);
    w.u8(0xe9);
    let at = w.len();
    w.u32(0);
    at
}

/// `call rel32`, returning the offset of the rel32 field.
#[inline]
pub fn call_rel(buf: &mut CodeBuffer<'_>) -> usize {
    let mut w = buf.window(MAX_INSN);
    w.u8(0xe8);
    let at = w.len();
    w.u32(0);
    at
}

/// `jmp reg`.
#[inline]
pub fn jmp_rm(buf: &mut CodeBuffer<'_>, rm: u8) {
    let tail = 0xff | (modrm_byte(0b11, 4, rm) as u64) << 8;
    InsnWord::headed(rex_byte(false, 0, 0, rm), false, tail, 2).commit(buf);
}

/// `call reg`.
#[inline]
pub fn call_rm(buf: &mut CodeBuffer<'_>, rm: u8) {
    let tail = 0xff | (modrm_byte(0b11, 2, rm) as u64) << 8;
    InsnWord::headed(rex_byte(false, 0, 0, rm), false, tail, 2).commit(buf);
}

/// `ret`.
#[inline]
pub fn ret(buf: &mut CodeBuffer<'_>) {
    buf.put_u8(0xc3);
}

/// `push reg64`.
#[inline]
pub fn push(buf: &mut CodeBuffer<'_>, reg: u8) {
    let tail = (0x50 + (reg & 7)) as u64;
    InsnWord::headed(rex_byte(false, 0, 0, reg), false, tail, 1).commit(buf);
}

/// `pop reg64`.
#[inline]
pub fn pop(buf: &mut CodeBuffer<'_>, reg: u8) {
    let tail = (0x58 + (reg & 7)) as u64;
    InsnWord::headed(rex_byte(false, 0, 0, reg), false, tail, 1).commit(buf);
}

/// `leave`.
#[inline]
pub fn leave(buf: &mut CodeBuffer<'_>) {
    buf.put_u8(0xc9);
}

/// `nop`.
#[inline]
pub fn nop(buf: &mut CodeBuffer<'_>) {
    buf.put_u8(0x90);
}

/// `setcc rm8` (the register must be zeroed separately).
#[inline]
pub fn setcc(buf: &mut CodeBuffer<'_>, cond: u8, rm: u8) {
    let tail = 0x0f | ((0x90 + cond) as u64) << 8 | (modrm_byte(0b11, 0, rm) as u64) << 16;
    InsnWord::headed(rex_byte(false, 0, 0, rm), rm >= 4, tail, 3).commit(buf);
}

/// `bswap reg` (32- or 64-bit).
#[inline]
pub fn bswap(buf: &mut CodeBuffer<'_>, wide: bool, reg: u8) {
    let tail = 0x0f | ((0xc8 + (reg & 7)) as u64) << 8;
    InsnWord::headed(rex_byte(wide, 0, 0, reg), false, tail, 2).commit(buf);
}

/// `ror reg16, imm8`.
#[inline]
pub fn ror16_imm(buf: &mut CodeBuffer<'_>, rm: u8, imm: u8) {
    let tail = 0xc1 | (modrm_byte(0b11, 1, rm) as u64) << 8 | (imm as u64) << 16;
    let mut iw = InsnWord::headed(rex_byte(false, 0, 0, rm), false, tail, 3);
    iw.prepend(0x66);
    iw.commit(buf);
}

// ---- SSE scalar float ----

/// Mandatory-prefix values for the scalar SSE forms.
pub mod sse {
    #![allow(missing_docs)]
    pub const SS: u8 = 0xf3; // single
    pub const SD: u8 = 0xf2; // double
}

/// `[prefix] 0F op xmm_reg, xmm_rm` (addss/mulsd/sqrtss/movss...).
#[inline]
pub fn sse_rr(buf: &mut CodeBuffer<'_>, prefix: Option<u8>, op: u8, reg: u8, rm: u8) {
    op_rr(buf, prefix, &[0x0f, op], false, reg, rm, false);
}

/// `[prefix] 0F op xmm_reg, [mem]`.
#[inline]
pub fn sse_mem(buf: &mut CodeBuffer<'_>, prefix: Option<u8>, op: u8, reg: u8, m: Mem) {
    op_mem(buf, prefix, &[0x0f, op], false, reg, m, false);
}

/// `cvtsi2ss/sd xmm, reg` (`w` selects the 64-bit integer source).
#[inline]
pub fn cvtsi2(buf: &mut CodeBuffer<'_>, prefix: u8, wide: bool, xmm: u8, gpr: u8) {
    let tail = 0x0f | 0x2a << 8 | (modrm_byte(0b11, xmm, gpr) as u64) << 16;
    let mut iw = InsnWord::headed(rex_byte(wide, xmm, 0, gpr), false, tail, 3);
    iw.prepend(prefix);
    iw.commit(buf);
}

/// `cvttss/sd2si reg, xmm` (truncating; `w` selects 64-bit destination).
#[inline]
pub fn cvtt2si(buf: &mut CodeBuffer<'_>, prefix: u8, wide: bool, gpr: u8, xmm: u8) {
    let tail = 0x0f | 0x2c << 8 | (modrm_byte(0b11, gpr, xmm) as u64) << 16;
    let mut iw = InsnWord::headed(rex_byte(wide, gpr, 0, xmm), false, tail, 3);
    iw.prepend(prefix);
    iw.commit(buf);
}

/// `ucomiss xmm, xmm` (`double`: pass `prefix66 = true`).
#[inline]
pub fn ucomis(buf: &mut CodeBuffer<'_>, prefix66: bool, reg: u8, rm: u8) {
    let p = if prefix66 { Some(0x66) } else { None };
    op_rr(buf, p, &[0x0f, 0x2e], false, reg, rm, false);
}

/// `xorps xmm, xmm` (used for float negation via sign-mask).
#[inline]
pub fn xorps(buf: &mut CodeBuffer<'_>, reg: u8, rm: u8) {
    op_rr(buf, None, &[0x0f, 0x57], false, reg, rm, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(f: impl FnOnce(&mut CodeBuffer<'_>)) -> Vec<u8> {
        let mut mem = [0u8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        f(&mut buf);
        buf.as_slice().to_vec()
    }

    #[test]
    fn alu_encodings_match_reference() {
        // add rax, rbx
        assert_eq!(
            emit(|b| alu_rr(b, Alu::Add, true, r::RAX, r::RBX)),
            [0x48, 0x01, 0xd8]
        );
        // sub edi, esi
        assert_eq!(
            emit(|b| alu_rr(b, Alu::Sub, false, r::RDI, r::RSI)),
            [0x29, 0xf7]
        );
        // xor r8, r9
        assert_eq!(
            emit(|b| alu_rr(b, Alu::Xor, true, r::R8, r::R9)),
            [0x4d, 0x31, 0xc8]
        );
        // cmp rdi, 10 (imm8 form)
        assert_eq!(
            emit(|b| alu_imm(b, Alu::Cmp, true, r::RDI, 10)),
            [0x48, 0x83, 0xff, 0x0a]
        );
        // add esi, 0x1000 (imm32 form)
        assert_eq!(
            emit(|b| alu_imm(b, Alu::Add, false, r::RSI, 0x1000)),
            [0x81, 0xc6, 0x00, 0x10, 0x00, 0x00]
        );
    }

    #[test]
    fn mov_encodings() {
        // mov rdi, rsi
        assert_eq!(
            emit(|b| mov_rr(b, true, r::RDI, r::RSI)),
            [0x48, 0x89, 0xf7]
        );
        // mov eax, 42
        assert_eq!(emit(|b| mov_ri(b, r::RAX, 42)), [0xb8, 42, 0, 0, 0]);
        // mov rax, -1 → REX.W C7 sign-extended imm32
        assert_eq!(
            emit(|b| mov_ri(b, r::RAX, -1)),
            [0x48, 0xc7, 0xc0, 0xff, 0xff, 0xff, 0xff]
        );
        // movabs r10, 0x1_0000_0000
        assert_eq!(
            emit(|b| mov_ri(b, r::R10, 0x1_0000_0000)),
            [0x49, 0xba, 0, 0, 0, 0, 1, 0, 0, 0]
        );
    }

    #[test]
    fn mul_div_shift_encodings() {
        // imul rax, rbx
        assert_eq!(
            emit(|b| imul_rr(b, true, r::RAX, r::RBX)),
            [0x48, 0x0f, 0xaf, 0xc3]
        );
        // idiv rdi
        assert_eq!(emit(|b| unary_rm(b, 7, true, r::RDI)), [0x48, 0xf7, 0xff]);
        // shl rsi, cl
        assert_eq!(emit(|b| shift_cl(b, 4, true, r::RSI)), [0x48, 0xd3, 0xe6]);
        // sar edi, 31
        assert_eq!(
            emit(|b| shift_imm(b, 7, false, r::RDI, 31)),
            [0xc1, 0xff, 31]
        );
    }

    #[test]
    fn widening_moves() {
        // movsxd rax, edi
        assert_eq!(emit(|b| movsxd(b, r::RAX, r::RDI)), [0x48, 0x63, 0xc7]);
        // movzx eax, sil — needs REX for sil
        assert_eq!(
            emit(|b| movzx8_rr(b, r::RAX, r::RSI)),
            [0x40, 0x0f, 0xb6, 0xc6]
        );
        // movzx eax, r9w
        assert_eq!(
            emit(|b| movzx16_rr(b, r::RAX, r::R9)),
            [0x41, 0x0f, 0xb7, 0xc1]
        );
    }

    #[test]
    fn memory_operands() {
        // mov rax, [rdi+16]
        assert_eq!(
            emit(|b| load(b, true, r::RAX, Mem::bd(r::RDI, 16))),
            [0x48, 0x8b, 0x47, 0x10]
        );
        // mov eax, [rbp] — rbp base forces a disp8 of 0
        assert_eq!(
            emit(|b| load(b, false, r::RAX, Mem::bd(r::RBP, 0))),
            [0x8b, 0x45, 0x00]
        );
        // mov rax, [rsp+8] — rsp base forces SIB
        assert_eq!(
            emit(|b| load(b, true, r::RAX, Mem::bd(r::RSP, 8))),
            [0x48, 0x8b, 0x44, 0x24, 0x08]
        );
        // mov rax, [r13] — r13 behaves like rbp
        assert_eq!(
            emit(|b| load(b, true, r::RAX, Mem::bd(r::R13, 0))),
            [0x49, 0x8b, 0x45, 0x00]
        );
        // mov rax, [rdi+rsi]
        assert_eq!(
            emit(|b| load(b, true, r::RAX, Mem::bi(r::RDI, r::RSI))),
            [0x48, 0x8b, 0x04, 0x37]
        );
        // mov [rdi+0x200], rax — disp32
        assert_eq!(
            emit(|b| store(b, true, r::RAX, Mem::bd(r::RDI, 0x200))),
            [0x48, 0x89, 0x87, 0x00, 0x02, 0x00, 0x00]
        );
        // mov [rdi], sil — byte store of sil needs bare REX
        assert_eq!(
            emit(|b| store8(b, r::RSI, Mem::bd(r::RDI, 0))),
            [0x40, 0x88, 0x37]
        );
        // mov [rdi], word si
        assert_eq!(
            emit(|b| store16(b, r::RSI, Mem::bd(r::RDI, 0))),
            [0x66, 0x89, 0x37]
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            emit(|b| {
                jmp_rel(b);
            }),
            [0xe9, 0, 0, 0, 0]
        );
        assert_eq!(
            emit(|b| {
                jcc(b, cc::NE);
            }),
            [0x0f, 0x85, 0, 0, 0, 0]
        );
        assert_eq!(emit(|b| call_rm(b, r::R11)), [0x41, 0xff, 0xd3]);
        assert_eq!(emit(|b| jmp_rm(b, r::RAX)), [0xff, 0xe0]);
        assert_eq!(emit(|b| push(b, r::RBP)), [0x55]);
        assert_eq!(emit(|b| push(b, r::R12)), [0x41, 0x54]);
        assert_eq!(emit(|b| pop(b, r::RBP)), [0x5d]);
        assert_eq!(
            emit(|b| {
                leave(b);
                ret(b)
            }),
            [0xc9, 0xc3]
        );
    }

    #[test]
    fn sse_encodings() {
        // addsd xmm0, xmm1
        assert_eq!(
            emit(|b| sse_rr(b, Some(sse::SD), 0x58, 0, 1)),
            [0xf2, 0x0f, 0x58, 0xc1]
        );
        // movss xmm8, xmm1
        assert_eq!(
            emit(|b| sse_rr(b, Some(sse::SS), 0x10, 8, 1)),
            [0xf3, 0x44, 0x0f, 0x10, 0xc1]
        );
        // cvtsi2sd xmm0, rdi
        assert_eq!(
            emit(|b| cvtsi2(b, sse::SD, true, 0, r::RDI)),
            [0xf2, 0x48, 0x0f, 0x2a, 0xc7]
        );
        // cvttsd2si eax, xmm0
        assert_eq!(
            emit(|b| cvtt2si(b, sse::SD, false, r::RAX, 0)),
            [0xf2, 0x0f, 0x2c, 0xc0]
        );
        // ucomisd xmm0, xmm1
        assert_eq!(emit(|b| ucomis(b, true, 0, 1)), [0x66, 0x0f, 0x2e, 0xc1]);
        // xorps xmm0, xmm15
        assert_eq!(emit(|b| xorps(b, 0, 15)), [0x41, 0x0f, 0x57, 0xc7]);
    }

    #[test]
    fn rip_relative_returns_fixup_offset() {
        let mut mem = [0u8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        nop(&mut buf);
        let at = load_rip(&mut buf, true, r::RAX);
        assert_eq!(at, 1 + 3); // nop + REX/op/modrm
        assert_eq!(buf.len(), at + 4);
        let at2 = sse_load_rip(&mut buf, sse::SD, 2);
        assert_eq!(buf.len(), at2 + 4);
    }

    #[test]
    fn misc_ops() {
        assert_eq!(emit(|b| bswap(b, false, r::RAX)), [0x0f, 0xc8]);
        assert_eq!(emit(|b| bswap(b, true, r::R9)), [0x49, 0x0f, 0xc9]);
        assert_eq!(emit(|b| setcc(b, cc::E, r::RAX)), [0x0f, 0x94, 0xc0]);
        assert_eq!(emit(|b| setcc(b, cc::E, r::RSI)), [0x40, 0x0f, 0x94, 0xc6]);
        assert_eq!(emit(cdq), [0x99]);
        assert_eq!(emit(cqo), [0x48, 0x99]);
        assert_eq!(emit(|b| ror16_imm(b, r::RAX, 8)), [0x66, 0xc1, 0xc8, 0x08]);
        // lea rax, [rdi+rsi]
        assert_eq!(
            emit(|b| lea(b, true, r::RAX, Mem::bi(r::RDI, r::RSI))),
            [0x48, 0x8d, 0x04, 0x37]
        );
    }

    #[test]
    fn emitters_near_exact_capacity_latch_cleanly() {
        // A 3-byte instruction into a 3-byte buffer: fits exactly even
        // though the 16-byte reservation degrades to the checked path.
        let mut mem = [0u8; 3];
        let mut buf = CodeBuffer::new(&mut mem);
        mov_rr(&mut buf, true, r::RDI, r::RSI);
        assert_eq!(buf.as_slice(), [0x48, 0x89, 0xf7]);
        assert!(!buf.overflowed());
        // One more instruction latches overflow, never panics.
        mov_rr(&mut buf, true, r::RDI, r::RSI);
        assert!(buf.overflowed());
    }
}
