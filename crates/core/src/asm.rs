//! The assembler: VCODE's client interface.
//!
//! [`Assembler<T>`] is the Rust analogue of the paper's `v_*` macro family:
//! a monomorphized, `#[inline]`-heavy instruction surface that encodes each
//! VCODE instruction directly into client storage the moment it is
//! specified — *zero passes*, no intermediate representation (paper §3).
//!
//! A generation session mirrors Figure 1 of the paper:
//!
//! ```
//! use vcode::{Assembler, Leaf, RegClass};
//! use vcode::fake::FakeTarget; // a do-nothing target used in doctests
//!
//! let mut mem = vec![0u8; 1024];
//! // v_lambda: "%i" = one int argument.
//! let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes)?;
//! let arg = a.arg(0);
//! a.addii(arg, arg, 1); // ADD Integer Immediate
//! a.reti(arg);          // RETurn Integer
//! let f = a.end()?;     // v_end: link + cleanup
//! assert!(f.len > 0);
//! # Ok::<(), vcode::Error>(())
//! ```

use crate::buf::{CodeBuffer, EmitPath, Mark};
use crate::error::Error;
use crate::label::{Fixup, FixupTarget, Label, LabelMap, LiteralPool};
use crate::op::{BinOp, Cond, Imm, UnOp};
use crate::reg::{Bank, Reg, RegClass, RegFile, RegKind};
use crate::regalloc::RegAlloc;
use crate::target::{
    BrOperand, CallFrame, Finished, JumpTarget, Leaf, Off, StackSlot, Target, TargetScratch,
};
use crate::ty::{Sig, Ty};
use crate::verify::{MarkKind, Rule, Severity, VInsn, VerifierState, VerifyReport};
use std::marker::PhantomData;

/// Target-independent assembler state, shared with [`Target`]
/// implementations.
///
/// All fields are public within the retargeting interface: a backend is a
/// trusted extension of the core, exactly as a machine-specification file
/// was in the original system.
#[derive(Debug)]
pub struct Asm<'m> {
    /// The in-place code buffer (client storage + instruction pointer).
    pub buf: CodeBuffer<'m>,
    /// Label offset table.
    pub labels: LabelMap,
    /// Unresolved jump/branch/literal references.
    pub fixups: Vec<Fixup>,
    /// The data section: literals and tables (paper §5.2).
    pub lits: LiteralPool,
    /// The register allocator.
    pub ra: RegAlloc,
    /// The function's signature.
    pub sig: Sig,
    /// Leaf declaration.
    pub leaf: Leaf,
    /// Label of the (deferred) epilogue; `ret` jumps here.
    pub epilogue: Label,
    /// Bytes of local-variable space allocated so far.
    pub locals_bytes: usize,
    /// Backend scratch (prologue patch sites etc.).
    pub ts: TargetScratch,
    /// First latched error, reported at `end`.
    pub err: Option<Error>,
    /// When set, branch emitters must leave their delay slot open
    /// (manual scheduling via `schedule_delay`, paper §5.3).
    pub manual_delay: bool,
    /// When set, load emitters must not pad the load delay
    /// (`raw_load`, paper §5.3).
    pub raw_load: bool,
    /// VCODE instructions specified so far (`Finished::insns`), plus
    /// [`VERIFYING`](Self::VERIFYING) while a verifier is installed.
    insns: u64,
    /// Span `start..end` of the latest jump a backend emitted that can
    /// be taken back: an unconditional jump to a label, its fixup the
    /// last one recorded, nothing of it shared with another instruction
    /// (x86-64 `jmp rel32`, in `emit_jump` and `emit_ret`; the RISC
    /// targets' jumps own a delay slot and are never recorded). Binding
    /// that label at `end` retracts the jump instead of leaving a jump to
    /// the next byte ([`bind_site`](Self::bind_site)); binding any other
    /// label there forgets it. `end` is [`NO_JUMP`](Self::NO_JUMP) when
    /// there is none.
    pub jump: (usize, usize),
    /// Streaming-verifier state (see [`crate::verify`]); `None` on the
    /// fast path, where emission tests the sign of [`insns`](Self::insns)
    /// instead: one branch, no load.
    pub verifier: Option<Box<VerifierState>>,
}

impl<'m> Asm<'m> {
    /// [`jump`](Self::jump) when no jump can be taken back: no cursor
    /// reaches its `end`.
    pub const NO_JUMP: (usize, usize) = (0, usize::MAX);

    /// Added to [`insns`](Self::insns) while a verifier is installed.
    const VERIFYING: u64 = 1 << 63;

    /// Counts one VCODE instruction; `true` when the verifier must see
    /// it. One read-modify-write, and a branch on the result's sign.
    #[inline(always)]
    fn count_insn(&mut self) -> bool {
        self.insns += 1;
        self.insns >= Self::VERIFYING
    }

    /// The offset a label bound now is bound to: the cursor — moved back
    /// first over a recorded [`jump`](Self::jump) that ends here and
    /// targets `l`, which would otherwise jump to the next byte. Every
    /// bind goes through here (`Assembler::label`, a backend's epilogue
    /// label), and pays one compare unless a jump ends at the cursor.
    #[inline]
    pub fn bind_site(&mut self, l: Label) -> usize {
        let here = self.buf.len();
        if self.jump.1 == here {
            self.retract_jump(l)
        } else {
            here
        }
    }

    /// The slow half of [`bind_site`](Self::bind_site): a label is being
    /// bound right behind the recorded jump. Either way the record goes:
    /// the jump is retracted, or a label now sits at its end, and moving
    /// the cursor back would leave that label pointing into whatever is
    /// emitted next.
    #[cold]
    fn retract_jump(&mut self, l: Label) -> usize {
        let (start, end) = std::mem::replace(&mut self.jump, Self::NO_JUMP);
        let ours = |f: &Fixup| f.target == FixupTarget::Label(l) && (start..end).contains(&f.at);
        if !self.fixups.last().is_some_and(ours) || self.labels.offset(l).is_some() {
            return end;
        }
        self.fixups.pop();
        self.buf.retract(start);
        if let Some(vs) = self.verifier.as_mut() {
            vs.retract(start);
        }
        start
    }

    /// Latches the first error (later ones are dropped; by then the code
    /// is unusable anyway).
    pub fn record_err(&mut self, e: Error) {
        if self.err.is_none() {
            self.err = Some(e);
        }
    }

    /// Records an unresolved reference at the current cursor.
    pub fn fixup_here(&mut self, target: FixupTarget, kind: u8) {
        self.fixups.push(Fixup {
            at: self.buf.len(),
            target,
            kind,
        });
    }

    /// Records an unresolved reference at an explicit offset.
    ///
    /// An `at` past the buffer write cursor would patch bytes that were
    /// never emitted; it latches [`Error::FixupOutOfRange`] (and a
    /// verifier diagnostic) instead of recording a silent bad patch.
    ///
    /// Once the buffer has overflowed the cursor is frozen while the
    /// backends' offsets keep advancing, so *every* later fixup lands
    /// past it: that is the overflow's doing, not a client bug, and it
    /// latches [`Error::Overflow`] — the error `end()` would report, and
    /// the one [`lower_in_scratch`](crate::engine::lower_in_scratch)
    /// grows its scratch on.
    pub fn fixup_at(&mut self, at: usize, target: FixupTarget, kind: u8) {
        if at > self.buf.len() {
            if self.buf.overflowed() {
                let capacity = self.buf.capacity();
                self.record_err(Error::Overflow { capacity });
                return;
            }
            let len = self.buf.len();
            self.record_err(Error::FixupOutOfRange { at, len });
            if let Some(vs) = self.verifier.as_mut() {
                vs.diag(
                    Rule::FixupPastCursor,
                    Severity::Error,
                    at,
                    format!("fixup recorded at {at:#x}, past the write cursor {len:#x}"),
                );
            }
            return;
        }
        self.fixups.push(Fixup { at, target, kind });
    }

    /// Bytes of bookkeeping VCODE holds besides the code itself: labels
    /// and unresolved jumps (paper §3: "at a cost of a few words per
    /// label"). Used by the space-behaviour experiment.
    pub fn aux_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<usize>()
            + self.fixups.capacity() * std::mem::size_of::<Fixup>()
            + self.lits.len() * 9
    }
}

/// The growable tables of one generation session — label offsets,
/// unresolved fixups, argument registers and the signature's type
/// list — as storage: a finished session hands them back
/// ([`Assembler::end_into`]) and the next one starts on them
/// ([`Assembler::lambda_on`]), so a thread that compiles in a loop
/// allocates them once, not per lambda. Nothing of a session survives
/// in them but capacity.
#[derive(Debug, Default)]
pub struct SessionTables {
    labels: LabelMap,
    fixups: Vec<Fixup>,
    args: Vec<Reg>,
    sig_args: Vec<Ty>,
}

impl SessionTables {
    /// Empty tables (no storage yet).
    pub const fn new() -> SessionTables {
        SessionTables {
            labels: LabelMap::new(),
            fixups: Vec::new(),
            args: Vec::new(),
            sig_args: Vec::new(),
        }
    }
}

/// The VCODE assembler for target `T`.
///
/// Construct with [`Assembler::lambda`], specify instructions with the
/// typed methods (`addi`, `ldii`, `bltii`, ... — the paper's `v_addi`
/// family without the prefix), and finish with [`Assembler::end`].
#[derive(Debug)]
pub struct Assembler<'m, T: Target> {
    a: Asm<'m>,
    args: Vec<Reg>,
    _t: PhantomData<T>,
}

/// Emits one VCODE instruction, counts it, and hands it to the
/// streaming verifier when one is installed: the verifier-off cost is
/// the counter and a branch on its sign ([`Asm::count_insn`]). The
/// record is built in the outlined cold call from a `move` closure; one
/// that borrowed the operands would store them to the stack on every
/// emission, verifier on or off (Figure 2, counted).
macro_rules! vrfy {
    ($self:ident, $emit:expr, $vi:expr) => {
        let vrfy_start = $self.a.buf.mark();
        $emit;
        if $self.a.count_insn() {
            Self::vrfy_record(&mut $self.a, vrfy_start, move || $vi);
        }
    };
}

/// Generates the register and immediate forms of a typed binary operation.
macro_rules! binops {
    ($($name:ident, $imm:ident => $op:ident, $ty:ident);* $(;)?) => { $(
        #[doc = concat!("`rd = rs1 ", stringify!($op), " rs2` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rd.is_flt() == Ty::$ty.is_float()
                        && rs1.is_flt() == Ty::$ty.is_float()
                        && rs2.is_flt() == Ty::$ty.is_float()),
                concat!("register bank mismatch in ", stringify!($name))
            );
            vrfy!(
                self,
                T::emit_binop(&mut self.a, BinOp::$op, Ty::$ty, rd, rs1, rs2),
                VInsn::new(stringify!($name))
                    .r(rs1, Ty::$ty.is_float())
                    .r(rs2, Ty::$ty.is_float())
                    .w(rd, Ty::$ty.is_float())
            );
        }
        #[doc = concat!("`rd = rs ", stringify!($op), " imm` (type `", stringify!($ty), "`, immediate).")]
        #[inline]
        pub fn $imm(&mut self, rd: Reg, rs: Reg, imm: i64) {
            debug_assert!(
                self.a.verifier.is_some() || (!rd.is_flt() && !rs.is_flt()),
                concat!("register bank mismatch in ", stringify!($imm))
            );
            vrfy!(
                self,
                T::emit_binop_imm(&mut self.a, BinOp::$op, Ty::$ty, rd, rs, imm),
                VInsn::new(stringify!($imm)).r(rs, false).w(rd, false).i(imm)
            );
        }
    )* }
}

/// Generates register-only binary operations (float/double: Table 2
/// footnote — immediates are not allowed for `f`/`d`).
macro_rules! binops_regonly {
    ($($name:ident => $op:ident, $ty:ident);* $(;)?) => { $(
        #[doc = concat!("`rd = rs1 ", stringify!($op), " rs2` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rd.is_flt() == Ty::$ty.is_float()
                        && rs1.is_flt() == Ty::$ty.is_float()
                        && rs2.is_flt() == Ty::$ty.is_float()),
                concat!("register bank mismatch in ", stringify!($name))
            );
            vrfy!(
                self,
                T::emit_binop(&mut self.a, BinOp::$op, Ty::$ty, rd, rs1, rs2),
                VInsn::new(stringify!($name))
                    .r(rs1, Ty::$ty.is_float())
                    .r(rs2, Ty::$ty.is_float())
                    .w(rd, Ty::$ty.is_float())
            );
        }
    )* }
}

macro_rules! unops {
    ($($name:ident => $op:ident, $ty:ident);* $(;)?) => { $(
        #[doc = concat!("`rd = ", stringify!($op), " rs` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rd: Reg, rs: Reg) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rd.is_flt() == Ty::$ty.is_float() && rs.is_flt() == Ty::$ty.is_float()),
                concat!("register bank mismatch in ", stringify!($name))
            );
            vrfy!(
                self,
                T::emit_unop(&mut self.a, UnOp::$op, Ty::$ty, rd, rs),
                VInsn::new(stringify!($name))
                    .r(rs, Ty::$ty.is_float())
                    .w(rd, Ty::$ty.is_float())
            );
        }
    )* }
}

macro_rules! cvts {
    ($($name:ident => $from:ident, $to:ident);* $(;)?) => { $(
        #[doc = concat!("Convert `", stringify!($from), "` to `", stringify!($to), "`: `rd = (", stringify!($to), ") rs`.")]
        #[inline]
        pub fn $name(&mut self, rd: Reg, rs: Reg) {
            vrfy!(
                self,
                T::emit_cvt(&mut self.a, Ty::$from, Ty::$to, rd, rs),
                VInsn::new(stringify!($name))
                    .r(rs, Ty::$from.is_float())
                    .w(rd, Ty::$to.is_float())
            );
        }
    )* }
}

macro_rules! mems {
    ($($ld:ident, $ldi:ident, $st:ident, $sti:ident => $ty:ident);* $(;)?) => { $(
        #[doc = concat!("Load `", stringify!($ty), "`: `rd = *(base + idx)`.")]
        #[inline]
        pub fn $ld(&mut self, rd: Reg, base: Reg, idx: Reg) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rd.is_flt() == Ty::$ty.is_float() && base.is_int() && idx.is_int()),
                concat!("register bank mismatch in ", stringify!($ld))
            );
            vrfy!(
                self,
                T::emit_ld(&mut self.a, Ty::$ty, rd, base, Off::R(idx)),
                VInsn::new(stringify!($ld))
                    .k(MarkKind::Load)
                    .r(base, false)
                    .r(idx, false)
                    .w(rd, Ty::$ty.is_float())
            );
        }
        #[doc = concat!("Load `", stringify!($ty), "` with immediate offset: `rd = *(base + off)`.")]
        #[inline]
        pub fn $ldi(&mut self, rd: Reg, base: Reg, off: i32) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rd.is_flt() == Ty::$ty.is_float() && base.is_int()),
                concat!("register bank mismatch in ", stringify!($ldi))
            );
            vrfy!(
                self,
                T::emit_ld(&mut self.a, Ty::$ty, rd, base, Off::I(off)),
                VInsn::new(stringify!($ldi))
                    .k(MarkKind::Load)
                    .r(base, false)
                    .w(rd, Ty::$ty.is_float())
            );
        }
        #[doc = concat!("Store `", stringify!($ty), "`: `*(base + idx) = src`.")]
        #[inline]
        pub fn $st(&mut self, src: Reg, base: Reg, idx: Reg) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (src.is_flt() == Ty::$ty.is_float() && base.is_int() && idx.is_int()),
                concat!("register bank mismatch in ", stringify!($st))
            );
            vrfy!(
                self,
                T::emit_st(&mut self.a, Ty::$ty, src, base, Off::R(idx)),
                VInsn::new(stringify!($st))
                    .k(MarkKind::Store)
                    .r(src, Ty::$ty.is_float())
                    .r(base, false)
                    .r(idx, false)
            );
        }
        #[doc = concat!("Store `", stringify!($ty), "` with immediate offset: `*(base + off) = src`.")]
        #[inline]
        pub fn $sti(&mut self, src: Reg, base: Reg, off: i32) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (src.is_flt() == Ty::$ty.is_float() && base.is_int()),
                concat!("register bank mismatch in ", stringify!($sti))
            );
            vrfy!(
                self,
                T::emit_st(&mut self.a, Ty::$ty, src, base, Off::I(off)),
                VInsn::new(stringify!($sti))
                    .k(MarkKind::Store)
                    .r(src, Ty::$ty.is_float())
                    .r(base, false)
            );
        }
    )* }
}

macro_rules! branches {
    ($($name:ident, $imm:ident => $cond:ident, $ty:ident);* $(;)?) => { $(
        #[doc = concat!("Branch to `l` if `rs1 ", stringify!($cond), " rs2` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rs1: Reg, rs2: Reg, l: Label) {
            debug_assert!(
                self.a.verifier.is_some()
                    || (rs1.is_flt() == Ty::$ty.is_float() && rs2.is_flt() == Ty::$ty.is_float()),
                concat!("register bank mismatch in ", stringify!($name))
            );
            vrfy!(
                self,
                T::emit_branch(&mut self.a, Cond::$cond, Ty::$ty, rs1, BrOperand::R(rs2), l),
                VInsn::new(stringify!($name))
                    .k(MarkKind::Branch(l))
                    .r(rs1, Ty::$ty.is_float())
                    .r(rs2, Ty::$ty.is_float())
            );
        }
        #[doc = concat!("Branch to `l` if `rs ", stringify!($cond), " imm` (type `", stringify!($ty), "`, immediate).")]
        #[inline]
        pub fn $imm(&mut self, rs: Reg, imm: i64, l: Label) {
            vrfy!(
                self,
                T::emit_branch(&mut self.a, Cond::$cond, Ty::$ty, rs, BrOperand::I(imm), l),
                VInsn::new(stringify!($imm))
                    .k(MarkKind::Branch(l))
                    .r(rs, false)
                    .i(imm)
            );
        }
    )* }
}

macro_rules! branches_regonly {
    ($($name:ident => $cond:ident, $ty:ident);* $(;)?) => { $(
        #[doc = concat!("Branch to `l` if `rs1 ", stringify!($cond), " rs2` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rs1: Reg, rs2: Reg, l: Label) {
            vrfy!(
                self,
                T::emit_branch(&mut self.a, Cond::$cond, Ty::$ty, rs1, BrOperand::R(rs2), l),
                VInsn::new(stringify!($name))
                    .k(MarkKind::Branch(l))
                    .r(rs1, Ty::$ty.is_float())
                    .r(rs2, Ty::$ty.is_float())
            );
        }
    )* }
}

macro_rules! rets {
    ($($name:ident => $ty:ident);* $(;)?) => { $(
        #[doc = concat!("Return the value in `rs` (type `", stringify!($ty), "`).")]
        #[inline]
        pub fn $name(&mut self, rs: Reg) {
            debug_assert!(
                self.a.verifier.is_some() || rs.is_flt() == Ty::$ty.is_float(),
                concat!("register bank mismatch in ", stringify!($name))
            );
            vrfy!(
                self,
                T::emit_ret(&mut self.a, Some((Ty::$ty, rs))),
                VInsn::new(stringify!($name))
                    .k(MarkKind::Ret)
                    .r(rs, Ty::$ty.is_float())
            );
        }
    )* }
}

impl<'m, T: Target> Assembler<'m, T> {
    /// Begins dynamic code generation of a new function (the paper's
    /// `v_lambda`). `type_str` lists the incoming parameter types
    /// (`"%i%p"` for `(int, void *)`); `mem` is the client storage the
    /// code is generated into.
    ///
    /// The registers holding the incoming parameters are available via
    /// [`arg`](Self::arg) / [`args`](Self::args).
    ///
    /// # Errors
    ///
    /// [`Error::BadSignature`] for a malformed type string and
    /// [`Error::TooManyArgs`] when the calling-convention support cannot
    /// place all parameters.
    pub fn lambda(mem: &'m mut [u8], type_str: &str, leaf: Leaf) -> Result<Self, Error> {
        let sig = Sig::parse(type_str)?;
        Self::lambda_sig(mem, sig, leaf)
    }

    /// [`lambda`](Self::lambda) with a pre-built [`Sig`] — useful when the
    /// argument list itself is computed at runtime (argument-marshaling
    /// generators, paper §2).
    pub fn lambda_sig(mem: &'m mut [u8], sig: Sig, leaf: Leaf) -> Result<Self, Error> {
        Self::lambda_sig_path(mem, sig, leaf, EmitPath::Fast)
    }

    /// [`lambda_sig`](Self::lambda_sig) with an explicit [`EmitPath`].
    /// `EmitPath::Bytewise` forces every append through the per-byte
    /// checked reference path; the differential test proves it emits the
    /// same machine code as the production fast path.
    pub fn lambda_sig_path(
        mem: &'m mut [u8],
        sig: Sig,
        leaf: Leaf,
        path: EmitPath,
    ) -> Result<Self, Error> {
        Self::begin(mem, sig, leaf, path, SessionTables::new())
    }

    /// [`lambda_sig`](Self::lambda_sig) for `(args) -> ret` on the
    /// storage an earlier session gave back through
    /// [`end_into`](Self::end_into): the session takes `tables` (leaving
    /// them empty) and allocates only what they cannot hold. A session
    /// that fails, or ends any other way, just drops them.
    pub fn lambda_on(
        mem: &'m mut [u8],
        tables: &mut SessionTables,
        args: &[Ty],
        ret: Ty,
        leaf: Leaf,
    ) -> Result<Self, Error> {
        let mut tables = std::mem::take(tables);
        let mut sig_args = std::mem::take(&mut tables.sig_args);
        sig_args.clear();
        sig_args.extend_from_slice(args);
        Self::begin(mem, Sig::new(sig_args, ret), leaf, EmitPath::Fast, tables)
    }

    fn begin(
        mem: &'m mut [u8],
        sig: Sig,
        leaf: Leaf,
        path: EmitPath,
        tables: SessionTables,
    ) -> Result<Self, Error> {
        let SessionTables {
            mut labels,
            mut fixups,
            mut args,
            sig_args: _,
        } = tables;
        labels.clear();
        fixups.clear();
        args.clear();
        let epilogue = labels.fresh();
        let mut a = Asm {
            buf: CodeBuffer::with_path(mem, path),
            labels,
            fixups,
            lits: LiteralPool::new(),
            ra: RegAlloc::new(T::regfile(), matches!(leaf, Leaf::Yes)),
            // Placeholder; the real signature moves in (alloc-free) once
            // `begin` no longer needs to read it alongside `&mut a`.
            sig: Sig::default(),
            leaf,
            epilogue,
            locals_bytes: 0,
            ts: TargetScratch::default(),
            err: None,
            manual_delay: false,
            raw_load: false,
            insns: 0,
            jump: Asm::NO_JUMP,
            verifier: None,
        };
        T::begin(&mut a, &sig, leaf, &mut args)?;
        a.sig = sig;
        crate::obs::emit_event(|| crate::obs::CodegenEvent::LambdaBegin {
            args: args.len(),
            leaf: matches!(leaf, Leaf::Yes),
        });
        Ok(Assembler {
            a,
            args,
            _t: PhantomData,
        })
    }

    /// The verifier-on half of `vrfy!`: records the emitted byte span
    /// and streams the (lazily built) instruction record through the
    /// rule set. Outlined and cold so the emission fast path carries
    /// only the branch on the counter's sign.
    #[cold]
    #[inline(never)]
    fn vrfy_record(a: &mut Asm<'m>, start: Mark, mk: impl FnOnce() -> VInsn) {
        let (start, end) = (a.buf.since(start), a.buf.len());
        let vi = mk();
        if let Some(vs) = a.verifier.as_mut() {
            vs.insn(start, end, &vi);
        }
    }

    fn install_verifier(a: &mut Asm<'m>, args: &[Reg]) {
        let mut vs = Box::new(VerifierState::new(T::regfile(), T::CHECKS));
        vs.note_args(args);
        a.verifier = Some(vs);
        a.insns |= Asm::VERIFYING;
    }

    /// Enables the streaming verifier for this session (it is off by
    /// default). Idempotent; instructions emitted before the call are
    /// not retroactively checked.
    pub fn enable_verifier(&mut self) {
        if self.a.verifier.is_none() {
            Self::install_verifier(&mut self.a, &self.args);
        }
    }

    /// Diagnostics the verifier has collected so far (empty when the
    /// verifier is off). The full report comes back through
    /// [`Finished::verify`] at [`end`](Self::end).
    pub fn verify_diags(&self) -> &[crate::verify::Diag] {
        self.a.verifier.as_deref().map_or(&[], |vs| vs.diags())
    }

    /// Ends code generation (the paper's `v_end`): emits the deferred
    /// epilogue and prologue register saves, backpatches the activation
    /// record size, lays out the literal pool, and links all recorded jumps.
    ///
    /// # Errors
    ///
    /// Any error latched during generation ([`Error::Overflow`],
    /// [`Error::CallInLeaf`], ...), or [`Error::UnboundLabel`] if a
    /// referenced label was never placed.
    pub fn end(self) -> Result<Finished, Error> {
        self.end_into(&mut SessionTables::new())
    }

    /// [`end`](Self::end), handing the session's tables back in `tables`
    /// for the next [`lambda_on`](Self::lambda_on).
    pub fn end_into(self, tables: &mut SessionTables) -> Result<Finished, Error> {
        let (r, report) = self.finish(tables);
        r.map(|mut f| {
            f.verify = report;
            f
        })
    }

    /// Like [`end`](Self::end), but hands back the verifier report even
    /// when generation failed — a latched [`Error`] and the collected
    /// diagnostics usually describe the same client bug, and the bad-client
    /// test corpus asserts on the diagnostics.
    pub fn end_report(self) -> (Result<Finished, Error>, Option<Box<VerifyReport>>) {
        self.finish(&mut SessionTables::new())
    }

    fn finish(
        mut self,
        tables: &mut SessionTables,
    ) -> (Result<Finished, Error>, Option<Box<VerifyReport>>) {
        let r = self.end_inner();
        let report = self
            .a
            .verifier
            .take()
            .map(|mut vs| Box::new(vs.take_report()));
        crate::obs::emit_event(|| crate::obs::CodegenEvent::LambdaEnd {
            insns: self.a.insns & !Asm::VERIFYING,
            bytes: self.a.buf.len() as u64,
            overflowed: self.a.buf.overflowed(),
            spills: self.a.ra.spill_count(),
        });
        *tables = SessionTables {
            labels: self.a.labels,
            fixups: self.a.fixups,
            args: self.args,
            sig_args: self.a.sig.into_args(),
        };
        (r, report)
    }

    fn end_inner(&mut self) -> Result<Finished, Error> {
        let ended = T::end(&mut self.a);
        {
            // The end-of-session sweep (dangling fixups, leaked leases,
            // unbalanced calls) must see the fixup list before resolution
            // consumes it below.
            let a = &mut self.a;
            if let Some(vs) = a.verifier.as_mut() {
                vs.finish(&a.labels, &a.fixups, a.buf.len());
            }
        }
        ended?;
        let code_end = self.a.buf.len();
        let data_at = match self.a.lits.is_empty() {
            true => code_end,
            false => (self.a.lits).emit(&mut self.a.buf, self.a.ts.entry, &self.a.labels)?,
        };
        // Out of `a` while `patch` borrows it, then back: the list's
        // storage outlives the session (`SessionTables`).
        let fixups = std::mem::take(&mut self.a.fixups);
        let linked: Result<(), Error> = fixups.iter().try_for_each(|&f| {
            let dest = match f.target {
                FixupTarget::Label(l) => self.a.labels.offset(l).ok_or(Error::UnboundLabel(l))?,
                FixupTarget::Lit(id) => data_at + self.a.lits.offset(id),
                FixupTarget::Base => data_at,
            };
            T::patch(&mut self.a, f, dest);
            Ok(())
        });
        self.a.fixups = fixups;
        linked?;
        if self.a.buf.overflowed() {
            self.a.record_err(Error::Overflow {
                capacity: self.a.buf.capacity(),
            });
        }
        match self.a.err.take() {
            Some(e) => Err(e),
            None => Ok(Finished {
                entry: self.a.ts.entry,
                code_end,
                data_at,
                len: self.a.buf.len(),
                label_offsets: (0..self.a.labels.len() as u32)
                    .map(|i| self.a.labels.offset(Label(i)))
                    .collect(),
                verify: None,
                insns: self.a.insns & !Asm::VERIFYING,
            }),
        }
    }

    // ---- registers ----

    /// The register holding the `i`-th incoming parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the declared signature.
    pub fn arg(&self, i: usize) -> Reg {
        self.args[i]
    }

    /// All incoming parameter registers.
    pub fn args(&self) -> &[Reg] {
        &self.args
    }

    /// Allocates an integer register of the given class (the paper's
    /// `v_getreg`), or `None` when the machine's registers are exhausted —
    /// clients then keep the variable on the stack via
    /// [`local`](Self::local).
    pub fn getreg(&mut self, class: RegClass) -> Option<Reg> {
        let r = self.a.ra.getreg(Bank::Int, class);
        if let (Some(reg), Some(vs)) = (r, self.a.verifier.as_mut()) {
            vs.note_getreg(reg);
        }
        r
    }

    /// Allocates a floating-point register of the given class.
    pub fn getreg_f(&mut self, class: RegClass) -> Option<Reg> {
        let r = self.a.ra.getreg(Bank::Flt, class);
        if let (Some(reg), Some(vs)) = (r, self.a.verifier.as_mut()) {
            vs.note_getreg(reg);
        }
        r
    }

    /// Returns a register to the allocator (the paper's `v_putreg`).
    pub fn putreg(&mut self, reg: Reg) {
        if self.a.verifier.is_some() {
            // The verifier owns misuse reporting (double frees become a
            // collected diagnostic instead of the allocator's debug
            // panic).
            self.a.ra.try_putreg(reg);
            let pc = self.a.buf.len();
            if let Some(vs) = self.a.verifier.as_mut() {
                vs.note_putreg(reg, pc);
            }
        } else {
            self.a.ra.putreg(reg);
        }
    }

    /// Releases the `i`-th incoming argument register back to the
    /// allocator once the argument value is dead.
    pub fn release_arg(&mut self, i: usize) {
        let reg = self.args[i];
        self.putreg(reg);
    }

    /// Dynamically reclassifies a physical register for this function
    /// (paper §5.3 — e.g. an interrupt handler marks every register
    /// callee-saved).
    ///
    /// A register outside the target's register file latches
    /// [`Error::UnknownRegister`] (and a verifier diagnostic) and leaves
    /// the allocator untouched.
    pub fn set_register_class(&mut self, reg: Reg, kind: RegKind) {
        if !self.a.ra.contains(reg) {
            self.a.record_err(Error::UnknownRegister(reg));
            let pc = self.a.buf.len();
            if let Some(vs) = self.a.verifier.as_mut() {
                vs.diag(
                    Rule::UnknownRegister,
                    Severity::Error,
                    pc,
                    format!("set_register_class: {reg} is not in the target register file"),
                );
            }
            return;
        }
        self.a.ra.set_kind(reg, kind);
    }

    /// Overrides the allocation priority ordering (paper §3.2).
    ///
    /// Registers outside the target's register file latch
    /// [`Error::UnknownRegister`] (and a verifier diagnostic); the known
    /// registers in `order` still take effect.
    pub fn set_register_priority(&mut self, bank: Bank, order: &[Reg]) {
        for &reg in order {
            if !self.a.ra.contains(reg) {
                self.a.record_err(Error::UnknownRegister(reg));
                let pc = self.a.buf.len();
                if let Some(vs) = self.a.verifier.as_mut() {
                    vs.diag(
                        Rule::UnknownRegister,
                        Severity::Error,
                        pc,
                        format!("set_register_priority: {reg} is not in the target register file"),
                    );
                }
            }
        }
        self.a.ra.set_priority(bank, order);
    }

    /// The `i`-th architecture-independent hard-coded temporary register
    /// (`T0`, `T1`, ... — paper §5.3). Using hard names skips the
    /// allocator and roughly halves generation cost.
    ///
    /// Requesting more temporaries than the target provides — the
    /// paper's "register assertion" — latches [`Error::BadOperands`]
    /// (reported by [`end`](Self::end)) and returns the target's first
    /// temporary so generation can continue to the error report.
    pub fn hard_temp(&mut self, i: usize) -> Reg {
        let temps = T::regfile().hard_temps;
        match temps.get(i) {
            Some(&r) => {
                if let Some(vs) = self.a.verifier.as_mut() {
                    vs.note_owned(r);
                }
                r
            }
            None => {
                self.a
                    .record_err(Error::BadOperands("hard temporary index out of range"));
                let pc = self.a.buf.len();
                if let Some(vs) = self.a.verifier.as_mut() {
                    vs.diag(
                        Rule::BadOperand,
                        Severity::Error,
                        pc,
                        format!(
                            "hard_temp: index {i} out of range ({} provided)",
                            temps.len()
                        ),
                    );
                }
                temps.first().copied().unwrap_or(Reg::int(0))
            }
        }
    }

    /// The `i`-th architecture-independent hard-coded persistent register
    /// (`S0`, `S1`, ...).
    ///
    /// Out-of-range requests latch [`Error::BadOperands`] exactly like
    /// [`hard_temp`](Self::hard_temp).
    pub fn hard_saved(&mut self, i: usize) -> Reg {
        let saved = T::regfile().hard_saved;
        match saved.get(i) {
            Some(&r) => {
                if let Some(vs) = self.a.verifier.as_mut() {
                    vs.note_owned(r);
                }
                r
            }
            None => {
                self.a.record_err(Error::BadOperands(
                    "hard persistent register index out of range",
                ));
                let pc = self.a.buf.len();
                if let Some(vs) = self.a.verifier.as_mut() {
                    vs.diag(
                        Rule::BadOperand,
                        Severity::Error,
                        pc,
                        format!(
                            "hard_saved: index {i} out of range ({} provided)",
                            saved.len()
                        ),
                    );
                }
                saved.first().copied().unwrap_or(Reg::int(0))
            }
        }
    }

    /// The target's register-file description.
    pub fn regfile(&self) -> &'static RegFile {
        T::regfile()
    }

    // ---- locals and labels ----

    /// Allocates a local variable in the activation record (the paper's
    /// `v_local`). Offsets are known immediately because the prologue
    /// reserves a worst-case save area (paper §5.2).
    ///
    /// `Ty::V` has no size; requesting a void local latches
    /// [`Error::BadOperands`] (reported by [`end`](Self::end)) and
    /// returns a dummy zero-offset slot.
    pub fn local(&mut self, ty: Ty) -> StackSlot {
        let Some(size) = ty.try_size_bytes(T::WORD_BITS) else {
            self.a
                .record_err(Error::BadOperands("void local requested"));
            let pc = self.a.buf.len();
            if let Some(vs) = self.a.verifier.as_mut() {
                vs.diag(
                    Rule::BadOperand,
                    Severity::Error,
                    pc,
                    "local: void local requested".to_owned(),
                );
            }
            return StackSlot {
                base: T::regfile().fp,
                off: 0,
                ty,
            };
        };
        let slot = T::local(&mut self.a, ty);
        if let Some(vs) = self.a.verifier.as_mut() {
            vs.note_local(slot, size as u32);
        }
        slot
    }

    /// Allocates `n` contiguous locals of type `ty`, returning the slot
    /// with the lowest offset: element `k` lives at
    /// `base + off + k * size` regardless of which direction the
    /// target's locals grow.
    ///
    /// A zero `n` or a `Ty::V` element type latches
    /// [`Error::BadOperands`] and returns a dummy slot, like
    /// [`local`](Self::local).
    pub fn local_array(&mut self, ty: Ty, n: usize) -> StackSlot {
        let size = ty.try_size_bytes(T::WORD_BITS);
        let (Some(size), true) = (size, n > 0) else {
            self.a
                .record_err(Error::BadOperands("empty or void local array requested"));
            let pc = self.a.buf.len();
            if let Some(vs) = self.a.verifier.as_mut() {
                vs.diag(
                    Rule::BadOperand,
                    Severity::Error,
                    pc,
                    "local_array: empty or void local array requested".to_owned(),
                );
            }
            return StackSlot {
                base: T::regfile().fp,
                off: 0,
                ty,
            };
        };
        let mut first = T::local(&mut self.a, ty);
        for _ in 1..n {
            let s = T::local(&mut self.a, ty);
            if s.off < first.off {
                first = s;
            }
        }
        if let Some(vs) = self.a.verifier.as_mut() {
            vs.note_local(first, (size * n) as u32);
        }
        first
    }

    /// Creates a fresh, unplaced label (the paper's `v_genlabel`).
    pub fn genlabel(&mut self) -> Label {
        self.a.labels.fresh()
    }

    /// Places `l` at the current position in the instruction stream —
    /// after taking back a `jmp l` that ends right here, on targets whose
    /// jumps can be ([`Asm::bind_site`]).
    ///
    /// # Panics
    ///
    /// Panics if `l` was already placed — unless the verifier is
    /// enabled, in which case rebinding is collected as a
    /// [`Rule::LabelRebound`] diagnostic and the first binding stands.
    pub fn label(&mut self, l: Label) {
        let here = self.a.bind_site(l);
        if let Some(vs) = self.a.verifier.as_mut() {
            if !self.a.labels.try_bind(l, here) {
                vs.diag(
                    Rule::LabelRebound,
                    Severity::Error,
                    here,
                    format!("label {} bound twice", l.index()),
                );
            }
        } else {
            self.a.labels.bind(l, here);
        }
    }

    // ---- loads/stores of stack slots ----

    /// Loads a local variable: `rd = *slot`.
    #[inline]
    pub fn ld_slot(&mut self, rd: Reg, slot: StackSlot) {
        vrfy!(
            self,
            T::emit_ld(&mut self.a, slot.ty, rd, slot.base, Off::I(slot.off)),
            VInsn::new("ld_slot")
                .k(MarkKind::Load)
                .w(rd, slot.ty.is_float())
                .s(slot)
        );
    }

    /// Stores to a local variable: `*slot = src`.
    #[inline]
    pub fn st_slot(&mut self, slot: StackSlot, src: Reg) {
        vrfy!(
            self,
            T::emit_st(&mut self.a, slot.ty, src, slot.base, Off::I(slot.off)),
            VInsn::new("st_slot")
                .k(MarkKind::Store)
                .r(src, slot.ty.is_float())
                .s(slot)
        );
    }

    // ---- runtime-op entry points ----
    //
    // One emission site per instruction *shape*, taking the operation
    // as a value: what a client that holds its instructions as data (the
    // engine's lowering loop, DCG's tree walker, tcc's expression
    // lowering, which maps each C operator once) calls, in place of a
    // `match` over the per-op methods below that would cost a second
    // unpredictable branch per instruction. They count and verify an
    // instruction exactly as those methods do (the verifier reads the
    // base name off the operation); what differs is that `T::emit_*`
    // sees a value where the per-op methods hand it a constant to fold.

    /// `rd = rs1 op rs2` on type `ty`, the operation chosen at runtime.
    #[inline]
    pub fn binop(&mut self, op: BinOp, ty: Ty, rd: Reg, rs1: Reg, rs2: Reg) {
        debug_assert!(
            self.a.verifier.is_some()
                || (rd.is_flt() == ty.is_float()
                    && rs1.is_flt() == ty.is_float()
                    && rs2.is_flt() == ty.is_float()),
            "register bank mismatch in {op}"
        );
        vrfy!(
            self,
            T::emit_binop(&mut self.a, op, ty, rd, rs1, rs2),
            VInsn::new(op.name())
                .r(rs1, ty.is_float())
                .r(rs2, ty.is_float())
                .w(rd, ty.is_float())
        );
    }

    /// `rd = rs op imm` on integer type `ty`, the operation chosen at
    /// runtime.
    #[inline]
    pub fn binop_imm(&mut self, op: BinOp, ty: Ty, rd: Reg, rs: Reg, imm: i64) {
        debug_assert!(
            self.a.verifier.is_some() || (!rd.is_flt() && !rs.is_flt()),
            "register bank mismatch in {op} (immediate)"
        );
        vrfy!(
            self,
            T::emit_binop_imm(&mut self.a, op, ty, rd, rs, imm),
            VInsn::new(op.name()).r(rs, false).w(rd, false).i(imm)
        );
    }

    /// `rd = op rs` on type `ty`, the operation chosen at runtime.
    #[inline]
    pub fn unop(&mut self, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
        debug_assert!(
            self.a.verifier.is_some()
                || (rd.is_flt() == ty.is_float() && rs.is_flt() == ty.is_float()),
            "register bank mismatch in {op}"
        );
        vrfy!(
            self,
            T::emit_unop(&mut self.a, op, ty, rd, rs),
            VInsn::new(op.name())
                .r(rs, ty.is_float())
                .w(rd, ty.is_float())
        );
    }

    /// Branch to `l` if `rs1 cond rs2` on type `ty`, the condition (and
    /// whether `rs2` is a register or an immediate) chosen at runtime.
    #[inline]
    pub fn branch(&mut self, cond: Cond, ty: Ty, rs1: Reg, rs2: BrOperand, l: Label) {
        debug_assert!(
            self.a.verifier.is_some()
                || match rs2 {
                    BrOperand::R(r2) =>
                        rs1.is_flt() == ty.is_float() && r2.is_flt() == ty.is_float(),
                    BrOperand::I(_) => !rs1.is_flt(),
                },
            "register bank mismatch in {cond}"
        );
        vrfy!(self, T::emit_branch(&mut self.a, cond, ty, rs1, rs2, l), {
            let vi = VInsn::new(cond.name())
                .k(MarkKind::Branch(l))
                .r(rs1, ty.is_float());
            match rs2 {
                BrOperand::R(r2) => vi.r(r2, ty.is_float()),
                BrOperand::I(imm) => vi.i(imm),
            }
        });
    }

    // ---- generated instruction surface ----

    binops! {
        addi, addii => Add, I;  addu, addui => Add, U;
        addl, addli => Add, L;  addul, adduli => Add, Ul;
        addp, addpi => Add, P;
        subi, subii => Sub, I;  subu, subui => Sub, U;
        subl, subli => Sub, L;  subul, subuli => Sub, Ul;
        subp, subpi => Sub, P;
        muli, mulii => Mul, I;  mulu, mului => Mul, U;
        mull, mulli => Mul, L;  mulul, mululi => Mul, Ul;
        divi, divii => Div, I;  divu, divui => Div, U;
        divl, divli => Div, L;  divul, divuli => Div, Ul;
        modi, modii => Mod, I;  modu, modui => Mod, U;
        modl, modli => Mod, L;  modul, moduli => Mod, Ul;
        andi, andii => And, I;  andu, andui => And, U;
        andl, andli => And, L;  andul, anduli => And, Ul;
        ori, orii => Or, I;     oru, orui => Or, U;
        orl, orli => Or, L;     orul, oruli => Or, Ul;
        xori, xorii => Xor, I;  xoru, xorui => Xor, U;
        xorl, xorli => Xor, L;  xorul, xoruli => Xor, Ul;
        lshi, lshii => Lsh, I;  lshu, lshui => Lsh, U;
        lshl, lshli => Lsh, L;  lshul, lshuli => Lsh, Ul;
        rshi, rshii => Rsh, I;  rshu, rshui => Rsh, U;
        rshl, rshli => Rsh, L;  rshul, rshuli => Rsh, Ul;
    }

    binops_regonly! {
        addf => Add, F;  addd => Add, D;
        subf => Sub, F;  subd => Sub, D;
        mulf => Mul, F;  muld => Mul, D;
        divf => Div, F;  divd => Div, D;
    }

    unops! {
        comi => Com, I;  comu => Com, U;  coml => Com, L;  comul => Com, Ul;
        noti => Not, I;  notu => Not, U;  notl => Not, L;  notul => Not, Ul;
        movi => Mov, I;  movu => Mov, U;  movl => Mov, L;  movul => Mov, Ul;
        movp => Mov, P;  movf => Mov, F;  movd => Mov, D;
        negi => Neg, I;  negu => Neg, U;  negl => Neg, L;  negul => Neg, Ul;
        negf => Neg, F;  negd => Neg, D;
    }

    /// Load constant into an integer register: `rd = imm` (type `i`).
    #[inline]
    pub fn seti(&mut self, rd: Reg, imm: i32) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::I, rd, Imm::Int(imm as i64)),
            VInsn::new("seti").w(rd, false)
        );
    }

    /// Load constant (type `u`).
    #[inline]
    pub fn setu(&mut self, rd: Reg, imm: u32) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::U, rd, Imm::Int(imm as i64)),
            VInsn::new("setu").w(rd, false)
        );
    }

    /// Load constant (type `l`).
    #[inline]
    pub fn setl(&mut self, rd: Reg, imm: i64) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::L, rd, Imm::Int(imm)),
            VInsn::new("setl").w(rd, false).i(imm)
        );
    }

    /// Load constant (type `ul`).
    #[inline]
    pub fn setul(&mut self, rd: Reg, imm: u64) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::Ul, rd, Imm::Int(imm as i64)),
            VInsn::new("setul").w(rd, false).i(imm as i64)
        );
    }

    /// Load a pointer constant: `rd = addr`.
    #[inline]
    pub fn setp(&mut self, rd: Reg, addr: u64) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::P, rd, Imm::Int(addr as i64)),
            VInsn::new("setp").w(rd, false).i(addr as i64)
        );
    }

    /// `rd` = the run-time address of the literal pool's base
    /// ([`Finished::data_at`]), from where the code runs
    /// ([`Target::emit_image_base`]).
    #[inline]
    pub fn image_base(&mut self, rd: Reg) {
        self.a.lits.place_base();
        vrfy!(
            self,
            T::emit_image_base(&mut self.a, rd),
            VInsn::new("image_base").w(rd, false)
        );
    }

    /// The function's literal pool, laid out after the code by `end`.
    pub fn pool(&mut self) -> &mut LiteralPool {
        &mut self.a.lits
    }

    /// Load a single-precision constant (goes to the literal pool at the
    /// end of the instruction stream, paper §5.2).
    #[inline]
    pub fn setf(&mut self, rd: Reg, imm: f32) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::F, rd, Imm::F32(imm)),
            VInsn::new("setf").w(rd, true)
        );
    }

    /// Load a double-precision constant (literal pool).
    #[inline]
    pub fn setd(&mut self, rd: Reg, imm: f64) {
        vrfy!(
            self,
            T::emit_set(&mut self.a, Ty::D, rd, Imm::F64(imm)),
            VInsn::new("setd").w(rd, true)
        );
    }

    cvts! {
        cvi2u => I, U;   cvi2l => I, L;   cvi2ul => I, Ul;
        cvi2f => I, F;   cvi2d => I, D;
        cvu2i => U, I;   cvu2l => U, L;   cvu2ul => U, Ul;  cvu2d => U, D;
        cvl2i => L, I;   cvl2u => L, U;   cvl2ul => L, Ul;
        cvl2f => L, F;   cvl2d => L, D;
        cvul2i => Ul, I; cvul2u => Ul, U; cvul2l => Ul, L;  cvul2p => Ul, P;
        cvp2ul => P, Ul;
        cvf2i => F, I;   cvf2l => F, L;   cvf2d => F, D;
        cvd2i => D, I;   cvd2l => D, L;   cvd2f => D, F;
    }

    mems! {
        ldc, ldci, stc, stci => C;
        lduc, lduci, stuc, stuci => Uc;
        lds, ldsi, sts, stsi => S;
        ldus, ldusi, stus, stusi => Us;
        ldi, ldii, sti, stii => I;
        ldu, ldui, stu, stui => U;
        ldl, ldli, stl, stli => L;
        ldul, lduli, stul, stuli => Ul;
        ldp, ldpi, stp, stpi => P;
        ldf, ldfi, stf, stfi => F;
        ldd, lddi, std, stdi => D;
    }

    branches! {
        blti, bltii => Lt, I;   bltu, bltui => Lt, U;
        bltl, bltli => Lt, L;   bltul, bltuli => Lt, Ul;
        bltp, bltpi => Lt, P;
        blei, bleii => Le, I;   bleu, bleui => Le, U;
        blel, bleli => Le, L;   bleul, bleuli => Le, Ul;
        blep, blepi => Le, P;
        bgti, bgtii => Gt, I;   bgtu, bgtui => Gt, U;
        bgtl, bgtli => Gt, L;   bgtul, bgtuli => Gt, Ul;
        bgtp, bgtpi => Gt, P;
        bgei, bgeii => Ge, I;   bgeu, bgeui => Ge, U;
        bgel, bgeli => Ge, L;   bgeul, bgeuli => Ge, Ul;
        bgep, bgepi => Ge, P;
        beqi, beqii => Eq, I;   bequ, bequi => Eq, U;
        beql, beqli => Eq, L;   bequl, bequli => Eq, Ul;
        beqp, beqpi => Eq, P;
        bnei, bneii => Ne, I;   bneu, bneui => Ne, U;
        bnel, bneli => Ne, L;   bneul, bneuli => Ne, Ul;
        bnep, bnepi => Ne, P;
    }

    branches_regonly! {
        bltf => Lt, F;  bltd => Lt, D;
        blef => Le, F;  bled => Le, D;
        bgtf => Gt, F;  bgtd => Gt, D;
        bgef => Ge, F;  bged => Ge, D;
        beqf => Eq, F;  beqd => Eq, D;
        bnef => Ne, F;  bned => Ne, D;
    }

    rets! {
        reti => I; retu => U; retl => L; retul => Ul;
        retp => P; retf => F; retd => D;
    }

    /// Return with no value (`ret v`).
    #[inline]
    pub fn retv(&mut self) {
        vrfy!(
            self,
            T::emit_ret(&mut self.a, None),
            VInsn::new("retv").k(MarkKind::Ret)
        );
    }

    /// Unconditional jump to a label.
    #[inline]
    pub fn jmp(&mut self, l: Label) {
        vrfy!(
            self,
            T::emit_jump(&mut self.a, JumpTarget::Label(l)),
            VInsn::new("jmp").k(MarkKind::Branch(l))
        );
    }

    /// Jump to the address in a register (computed goto / indirect jump).
    #[inline]
    pub fn jmp_reg(&mut self, r: Reg) {
        vrfy!(
            self,
            T::emit_jump(&mut self.a, JumpTarget::Reg(r)),
            VInsn::new("jmp_reg").k(MarkKind::Jump).r(r, false)
        );
    }

    /// Jump to an absolute address known at generation time.
    #[inline]
    pub fn jmp_abs(&mut self, addr: u64) {
        vrfy!(
            self,
            T::emit_jump(&mut self.a, JumpTarget::Abs(addr)),
            VInsn::new("jmp_abs").k(MarkKind::Jump)
        );
    }

    /// Jump-and-link to a label (raw call primitive).
    #[inline]
    pub fn jal(&mut self, l: Label) {
        vrfy!(
            self,
            T::emit_jal(&mut self.a, JumpTarget::Label(l)),
            VInsn::new("jal").k(MarkKind::Branch(l))
        );
    }

    /// Jump-and-link to the address in a register.
    #[inline]
    pub fn jal_reg(&mut self, r: Reg) {
        vrfy!(
            self,
            T::emit_jal(&mut self.a, JumpTarget::Reg(r)),
            VInsn::new("jal_reg").k(MarkKind::Jump).r(r, false)
        );
    }

    /// Jump-and-link to an absolute address.
    #[inline]
    pub fn jal_abs(&mut self, addr: u64) {
        vrfy!(
            self,
            T::emit_jal(&mut self.a, JumpTarget::Abs(addr)),
            VInsn::new("jal_abs").k(MarkKind::Jump)
        );
    }

    /// No-operation.
    #[inline]
    pub fn nop(&mut self) {
        vrfy!(self, T::emit_nop(&mut self.a), VInsn::new("nop"));
    }

    // ---- dynamically constructed calls ----

    /// Starts marshaling a call to a function with the given signature
    /// (paper §2: argument number and types may be computed at runtime).
    ///
    /// In a leaf procedure this latches [`Error::CallInLeaf`].
    pub fn call_begin(&mut self, sig: &Sig) -> CallFrame {
        if matches!(self.a.leaf, Leaf::Yes) {
            self.a.record_err(Error::CallInLeaf);
            let pc = self.a.buf.len();
            if let Some(vs) = self.a.verifier.as_mut() {
                vs.diag(
                    Rule::CallInLeaf,
                    Severity::Error,
                    pc,
                    "call_begin inside a procedure declared leaf".to_owned(),
                );
            }
        }
        let pc = self.a.buf.len();
        if let Some(vs) = self.a.verifier.as_mut() {
            vs.note_call_begin(pc);
        }
        T::call_begin(&mut self.a, sig)
    }

    /// Supplies the `idx`-th argument of the call from `src`.
    pub fn call_arg(&mut self, cf: &mut CallFrame, idx: usize, ty: Ty, src: Reg) {
        vrfy!(
            self,
            T::call_arg(&mut self.a, cf, idx, ty, src),
            VInsn::new("call_arg").r(src, ty.is_float())
        );
    }

    /// Emits the call; the return value (if the signature has one) is
    /// moved to `ret`.
    pub fn call_end(&mut self, cf: CallFrame, target: JumpTarget, ret: Option<Reg>) {
        let ret = match (cf.sig.ret(), ret) {
            (Ty::V, _) | (_, None) => None,
            (ty, Some(r)) => Some((ty, r)),
        };
        let pc = self.a.buf.len();
        if let Some(vs) = self.a.verifier.as_mut() {
            vs.note_call_end(pc);
        }
        vrfy!(self, T::call_end(&mut self.a, cf, target, ret), {
            let mut vi = VInsn::new("call_end").k(MarkKind::Jump);
            if let JumpTarget::Reg(r) = target {
                vi = vi.r(r, false);
            }
            if let Some((ty, r)) = ret {
                vi = vi.w(r, ty.is_float());
            }
            vi
        });
    }

    // ---- instruction scheduling (paper §5.3) ----

    /// Schedules `slot` into the delay slot of the branch emitted by
    /// `branch` (the paper's `v_schedule_delay`). On targets without
    /// delay slots, `slot` is simply placed before the branch.
    pub fn schedule_delay(&mut self, branch: impl FnOnce(&mut Self), slot: impl FnOnce(&mut Self)) {
        if T::BRANCH_DELAY_SLOTS > 0 {
            self.a.manual_delay = true;
            branch(self);
            self.a.manual_delay = false;
            slot(self);
        } else {
            slot(self);
            branch(self);
        }
    }

    /// Emits the load produced by `load` without safety padding,
    /// promising that at least `insns_before_use` instructions separate
    /// it from the first use of the result (the paper's `v_raw_load`).
    /// Any shortfall is made up with `nop`s.
    pub fn raw_load(&mut self, load: impl FnOnce(&mut Self), insns_before_use: u32) {
        self.a.raw_load = true;
        load(self);
        self.a.raw_load = false;
        for _ in insns_before_use..T::LOAD_DELAY_CYCLES {
            self.nop();
        }
    }

    // ---- introspection ----

    /// VCODE instructions specified so far (for the code-generation cost
    /// experiments).
    pub fn insn_count(&self) -> u64 {
        self.a.insns & !Asm::VERIFYING
    }

    /// Bytes of machine code emitted so far.
    pub fn code_len(&self) -> usize {
        self.a.buf.len()
    }

    /// Bookkeeping bytes held besides the code (space experiment).
    pub fn aux_bytes(&self) -> usize {
        self.a.aux_bytes()
    }

    /// Direct access to the shared assembler state, for extension layers
    /// that emit target instructions themselves (paper §5.4).
    pub fn raw(&mut self) -> &mut Asm<'m> {
        &mut self.a
    }

    /// Read-only access to the shared assembler state.
    pub fn state(&self) -> &Asm<'m> {
        &self.a
    }
}
