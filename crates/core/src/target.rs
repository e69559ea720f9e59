//! The retargeting interface.
//!
//! Retargeting VCODE involves (1) constructing emitters for each machine
//! instruction, (2) mapping the core VCODE instruction set onto them, and
//! (3) implementing the machine's calling conventions and activation-record
//! management (paper §3.3). In this reproduction all three are gathered in
//! one [`Target`] implementation per architecture; a RISC retarget is a
//! single file of a few hundred lines, matching the paper's "one to four
//! days" claim in spirit.
//!
//! `Target` implementations are stateless types: every method is an
//! associated function receiving the assembler state
//! [`Asm`]. Because [`Assembler<T>`] is
//! monomorphized over the target, each VCODE instruction compiles down to a
//! direct, inlinable encoding sequence — the Rust equivalent of the paper's
//! C macros expanding in place (Figure 2).
//!
//! [`Assembler<T>`]: crate::Assembler

use crate::asm::Asm;
use crate::error::Error;
use crate::label::{Fixup, Label};
use crate::op::{BinOp, Cond, Imm, UnOp};
use crate::reg::{Reg, RegFile};
use crate::ty::{Sig, Ty};

/// Whether the function being generated is a leaf procedure.
///
/// Leaf procedures can be profitably optimized (no return-address save, no
/// frame in many cases), but VCODE cannot discover leaf-ness on its own
/// while generating code in place, so the client declares it (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// The function will not generate any calls.
    Yes,
    /// The function may call other functions.
    No,
}

/// A memory-operand offset: VCODE loads and stores address `base + off`
/// where `off` is an immediate or an index register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Off {
    /// Immediate byte offset.
    I(i32),
    /// Register index.
    R(Reg),
}

/// Second operand of a branch: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BrOperand {
    /// Register operand.
    R(Reg),
    /// Immediate operand (integer branches only).
    I(i64),
}

/// Destination of a jump or call: VCODE jumps go "to immediate, register,
/// or label" (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JumpTarget {
    /// A label inside the function being generated.
    Label(Label),
    /// A register holding an absolute address.
    Reg(Reg),
    /// An absolute address known at generation time (e.g. a function
    /// pointer of previously generated or statically compiled code).
    Abs(u64),
}

/// A stack slot created by [`Assembler::local`](crate::Assembler::local).
///
/// The slot is addressed as `base + off`; both are fixed at allocation time
/// because VCODE pre-reserves a worst-case register-save area so local
/// offsets are computable before the final activation-record size is known
/// (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackSlot {
    /// Base register (frame or stack pointer, per target).
    pub base: Reg,
    /// Byte offset from `base`.
    pub off: i32,
    /// The type the slot was allocated for.
    pub ty: Ty,
}

/// Marshaling state for a dynamically constructed call, threaded through
/// [`Target::call_begin`] → [`Target::call_arg`] → [`Target::call_end`].
///
/// Fields are generic scratch the backend uses as it sees fit; clients
/// treat the value as opaque.
#[derive(Debug)]
pub struct CallFrame {
    /// The callee's signature.
    pub sig: Sig,
    /// Bytes of outgoing stack-argument space.
    pub stack_bytes: usize,
    /// Next integer argument register index.
    pub next_int: u8,
    /// Next floating-point argument register index.
    pub next_flt: u8,
    /// Backend scratch.
    pub misc: u64,
}

/// Result of finishing a function: where it starts and how long it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Finished {
    /// Byte offset of the function's first instruction within the client
    /// buffer. Offset 0 is always a valid entry too; on x86-64 it holds a
    /// short jump here over the unused part of the prologue reservation,
    /// so a client that runs or keeps `entry..len` saves that jump per
    /// call and those bytes (the code is position-independent). 0 on the
    /// RISC targets.
    pub entry: usize,
    /// Where the code ends and the literal pool's zero pad begins.
    pub code_end: usize,
    /// The literal pool's base, a multiple of 8 bytes past `entry`
    /// (`code_end` when the pool is empty).
    pub data_at: usize,
    /// Total bytes emitted, including prologue, epilogue and literal pool.
    pub len: usize,
    /// Resolved byte offset of every label, indexed by
    /// [`Label::index`](crate::Label::index), for checks after generation
    /// (the verifier's branch targets). A dispatch table of code
    /// distances is built in the literal pool instead
    /// ([`LiteralPool::set_label`](crate::label::LiteralPool::set_label)).
    pub label_offsets: Vec<Option<usize>>,
    /// The streaming-verifier report, when the verifier was enabled for
    /// this generation session (`None` on the fast path — see
    /// [`crate::verify`]).
    pub verify: Option<Box<crate::verify::VerifyReport>>,
    /// VCODE instructions emitted into this function (the assembler's
    /// session counter at `end`). The engine layer reports this per
    /// cached lambda: a warm cache hit reuses the finished code without
    /// re-emitting any of them.
    pub insns: u64,
}

impl Finished {
    /// The resolved byte offset of `l`, if it was bound.
    pub fn label_offset(&self, l: crate::label::Label) -> Option<usize> {
        self.label_offsets
            .get(l.index() as usize)
            .copied()
            .flatten()
    }
}

/// Scratch fields backends stash per-function state in (patch sites for
/// the frame-allocation instruction, the reserved prologue save area, ...).
/// The core never interprets these.
#[derive(Debug, Default, Clone)]
pub struct TargetScratch {
    /// Offset of the instruction that allocates the activation record,
    /// backpatched when the final size is known (paper §5.2).
    pub frame_fix: usize,
    /// Reserved byte range in the instruction stream for prologue register
    /// saves, filled in at `end` (paper §5.2).
    pub save_area: (usize, usize),
    /// Offset of the function's first instruction, for a backend that
    /// decides at `end` where in its reservation the prologue starts
    /// (reported as [`Finished::entry`]).
    pub entry: usize,
    /// Generic scratch slots.
    pub misc: [usize; 6],
    /// Generic flag bits.
    pub flags: u32,
}

/// A machine backend.
///
/// This trait is the unit of retargeting. Implementations are `enum`-less
/// zero-sized types; all state lives in [`Asm`]. See the `vcode-mips`,
/// `vcode-sparc`, `vcode-alpha` and `vcode-x64` crates.
pub trait Target: Sized {
    /// Human-readable architecture name.
    const NAME: &'static str;
    /// Machine word width: 32 or 64.
    const WORD_BITS: u32;
    /// Number of branch delay slots (paper §5.3 scheduling interface).
    const BRANCH_DELAY_SLOTS: u32 = 0;
    /// Cycles before a loaded value may be used (MIPS-I load delay).
    const LOAD_DELAY_CYCLES: u32 = 0;
    /// Maximum register-save area the prologue reserves, in bytes
    /// (paper §5.2: "the space needed to save all machine registers").
    const MAX_SAVE_BYTES: usize;
    /// Static table the streaming verifier and differential checker
    /// consult (reserved registers, instruction alignment, delay slots).
    /// The default is derived from the other consts; backends override
    /// it to list their reserved registers and alignment.
    const CHECKS: crate::verify::TargetChecks = crate::verify::TargetChecks {
        word_bits: Self::WORD_BITS,
        insn_align: 1,
        branch_delay_slots: Self::BRANCH_DELAY_SLOTS,
        load_delay_cycles: Self::LOAD_DELAY_CYCLES,
        reserved_int: &[],
        reserved_flt: &[],
    };

    /// The target's register files and allocation ordering.
    fn regfile() -> &'static RegFile;

    // ---- function plumbing ----

    /// Begins a function: computes where incoming parameters are from the
    /// signature and the machine calling convention (copying stack
    /// arguments to registers by default), reserves prologue space, and
    /// pushes the registers now holding the parameters onto `args`
    /// (paper §3.2 step 2) — the session's own, empty, table, which a
    /// recycled session brings with its storage
    /// ([`SessionTables`](crate::asm::SessionTables)).
    ///
    /// # Errors
    ///
    /// [`Error::TooManyArgs`] if the convention support cannot place all
    /// parameters.
    fn begin(a: &mut Asm<'_>, sig: &Sig, leaf: Leaf, args: &mut Vec<Reg>) -> Result<(), Error>;

    /// Allocates a local variable slot in the activation record.
    fn local(a: &mut Asm<'_>, ty: Ty) -> StackSlot;

    /// Emits a return: move `val` to the return register and transfer to
    /// the (not yet emitted) epilogue.
    fn emit_ret(a: &mut Asm<'_>, val: Option<(Ty, Reg)>);

    /// Finishes the function: emits the epilogue, inserts the deferred
    /// prologue register saves, and backpatches the activation-record
    /// size (paper §5.2). Called by `Assembler::end` *before* literal-pool
    /// emission and fixup resolution.
    fn end(a: &mut Asm<'_>) -> Result<(), Error>;

    /// Resolves one recorded fixup whose destination is byte offset
    /// `dest` within the buffer.
    fn patch(a: &mut Asm<'_>, fixup: Fixup, dest: usize);

    // ---- the core instruction set (paper Table 2) ----

    /// Binary operation `rd = rs1 op rs2`.
    fn emit_binop(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg);

    /// Binary operation with immediate `rd = rs op imm`.
    fn emit_binop_imm(a: &mut Asm<'_>, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64);

    /// Unary operation `rd = op rs`.
    fn emit_unop(a: &mut Asm<'_>, op: UnOp, ty: Ty, rd: Reg, rs: Reg);

    /// Load constant: `rd = imm`.
    fn emit_set(a: &mut Asm<'_>, ty: Ty, rd: Reg, imm: Imm);

    /// Type conversion `rd = (to) rs`.
    fn emit_cvt(a: &mut Asm<'_>, from: Ty, to: Ty, rd: Reg, rs: Reg);

    /// Load `rd = *(ty*)(base + off)`.
    fn emit_ld(a: &mut Asm<'_>, ty: Ty, rd: Reg, base: Reg, off: Off);

    /// Store `*(ty*)(base + off) = src`.
    fn emit_st(a: &mut Asm<'_>, ty: Ty, src: Reg, base: Reg, off: Off);

    /// Conditional branch to `l`.
    fn emit_branch(a: &mut Asm<'_>, cond: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label);

    /// Unconditional jump.
    fn emit_jump(a: &mut Asm<'_>, t: JumpTarget);

    /// Jump-and-link (raw call primitive; most clients use the
    /// marshaling interface instead).
    fn emit_jal(a: &mut Asm<'_>, t: JumpTarget);

    /// No-operation.
    fn emit_nop(a: &mut Asm<'_>);

    // ---- dynamically constructed calls (paper §2: clients "generate
    //      function calls that take an arbitrary number and type of
    //      arguments") ----

    /// Starts marshaling a call with the given callee signature.
    fn call_begin(a: &mut Asm<'_>, sig: &Sig) -> CallFrame;

    /// Supplies the `idx`-th argument from `src`.
    fn call_arg(a: &mut Asm<'_>, cf: &mut CallFrame, idx: usize, ty: Ty, src: Reg);

    /// Emits the call and moves the return value (if any) to `ret`.
    fn call_end(a: &mut Asm<'_>, cf: CallFrame, target: JumpTarget, ret: Option<(Ty, Reg)>);

    // ---- extension layers (paper §3.1, §5.4) ----

    /// Hook for hardware implementations of extension operations.
    ///
    /// Returns `true` when the target emitted the operation natively;
    /// `false` makes the extension layer fall back to its portable
    /// definition in terms of the core ("this duality of implementation
    /// allows extensions to be implemented in a portable manner without
    /// affecting ease of retargeting").
    fn emit_ext_unop(a: &mut Asm<'_>, op: crate::ext::ExtUnOp, ty: Ty, rd: Reg, rs: Reg) -> bool {
        let _ = (a, op, ty, rd, rs);
        false
    }

    /// [`Assembler::image_base`](crate::Assembler::image_base), through a
    /// [`FixupTarget::Base`](crate::label::FixupTarget::Base) fixup. It
    /// has no portable form; a form that cannot reach the base, or would
    /// clobber a link register a leaf returns through, latches an error.
    fn emit_image_base(a: &mut Asm<'_>, rd: Reg) {
        let _ = rd;
        a.record_err(Error::BadOperands("image_base on this target"));
    }
}
