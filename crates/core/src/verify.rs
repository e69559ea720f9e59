//! Streaming vcode verifier and differential machine-code checker.
//!
//! The paper concedes that because VCODE transliterates instructions in
//! place with no intermediate representation, "error checking" is hard to
//! bolt on (§6). This module closes that gap without abandoning the
//! zero-pass emission discipline:
//!
//! - A **streaming verifier** ([`VerifierState`]) rides the
//!   [`Assembler`](crate::Assembler) emit path and checks each vcode
//!   instruction the moment it is specified: def-before-use register
//!   tracking per bank, register-class/`Ty` misuse, leaked `getreg` /
//!   double `putreg`, labels bound twice, stack-slot out-of-bounds
//!   `ld_slot`/`st_slot`, callee-saved clobbers, dangling fixups at
//!   `end`, and unbalanced `lambda`/`end` or `call_begin`/`call_end`.
//! - A **differential machine-code checker** ([`cross_check`]) re-decodes
//!   the emitted bytes through an [`InsnDecoder`] (the sim disassemblers
//!   for mips/sparc/alpha, a length-decoder for x86-64) and cross-checks
//!   instruction boundaries, branch targets, and delay-slot hazards
//!   against the recorded vcode stream.
//!
//! Diagnostics are typed ([`Diag`]), *collected not panicked*, and
//! come back with the resolved label table in a [`VerifyReport`] from
//! [`Assembler::end_report`](crate::Assembler::end_report), whether or
//! not `end` itself fails. The whole pass is skipped when disabled: emission sites
//! pay one branch, on the sign of the instruction counter they update
//! anyway, and the emitted bytes are identical either way (guarded by the differential test and the
//! codegen-cost bench gate).
//!
//! Enable per session with
//! [`Assembler::enable_verifier`](crate::Assembler::enable_verifier).

use crate::label::{Fixup, FixupTarget, Label, LabelMap};
use crate::reg::{Bank, Reg, RegFile, RegKind};
use crate::target::StackSlot;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How bad a [`Diag`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (e.g. a register still leased at `end`, which `end`
    /// reclaims anyway). Does not affect [`VerifyReport::is_clean`].
    Note,
    /// Almost certainly a client bug, but the generated code may still
    /// run (e.g. reading a register before writing it).
    Warning,
    /// The generated code is wrong or unusable.
    Error,
}

/// Which lint rule produced a [`Diag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A register was read before any instruction wrote it.
    UseBeforeDef,
    /// A register bank disagreed with the instruction's `Ty` (float op
    /// on an integer register or vice versa).
    BankMismatch,
    /// An instruction named a register the target reserves for
    /// instruction synthesis or the ABI.
    ReservedRegister,
    /// A register outside the target's register file was named.
    UnknownRegister,
    /// An immediate cannot be represented in the target's word.
    ImmOutOfRange,
    /// A register obtained from `getreg` was never returned with
    /// `putreg` before `end` (a [`Severity::Note`]: `end` reclaims
    /// everything).
    LeakedReg,
    /// `putreg` of a register that was not allocated (double free).
    DoubleFree,
    /// A latched `BadOperands` condition (hard register index out of
    /// range, void local, ...), diagnosed with the source operation.
    BadOperand,
    /// A call was marshaled inside a procedure declared leaf.
    CallInLeaf,
    /// A label was bound twice.
    LabelRebound,
    /// A fixup at `end` referenced a label that was never bound.
    LabelUnbound,
    /// A fixup was recorded past the buffer write cursor.
    FixupPastCursor,
    /// `ld_slot`/`st_slot` accessed a stack slot outside every
    /// allocated local.
    SlotOutOfBounds,
    /// A callee-saved register was written without being obtained from
    /// the allocator (the prologue will not save it).
    CalleeSavedClobber,
    /// `call_begin`/`call_end` did not balance.
    UnbalancedCall,
    /// A recorded instruction count disagreed with the mark stream
    /// (differential checker self-test).
    InsnCountMismatch,
    /// The differential checker could not decode emitted bytes.
    DecodeError,
    /// Decoded instruction lengths did not land on a recorded vcode
    /// instruction boundary.
    BoundaryMismatch,
    /// A branch target does not land on an instruction boundary.
    BranchTargetMisaligned,
    /// A control transfer sits in the delay slot of another control
    /// transfer.
    DelaySlotHazard,
}

/// One verifier diagnostic: typed, collected, never panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// The lint rule that fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Byte offset in the code buffer the diagnostic anchors to.
    pub pc: usize,
    /// Human-readable context: source operation and operand.
    pub detail: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}({:?}) at {:#x}: {}",
            self.rule, self.severity, self.pc, self.detail
        )
    }
}

// ---------------------------------------------------------------------------
// The recorded vcode stream
// ---------------------------------------------------------------------------

/// Control-flow class of a recorded vcode instruction, for the
/// differential checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// Straight-line computation.
    Other,
    /// Conditional branch to a label.
    Branch(Label),
    /// Unconditional jump, jump-and-link, or call.
    Jump,
    /// Memory load (including `ld_slot`).
    Load,
    /// Memory store (including `st_slot`).
    Store,
    /// Return.
    Ret,
}

/// The byte span one vcode instruction occupied in the code buffer.
///
/// Spans may be empty (a jump to the label bound right behind it is
/// taken back, on x86-64); the differential checker decodes each
/// non-empty span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsnMark {
    /// First byte of the machine code this vcode instruction produced.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
    /// Control-flow class.
    pub kind: MarkKind,
}

/// What one vcode instruction reads, writes and constrains — built
/// lazily by the `Assembler` only when the verifier is enabled.
#[derive(Debug, Clone, Copy)]
pub struct VInsn {
    /// Source operation name (`"addi"`, `"ld_slot"`, ...).
    pub name: &'static str,
    /// Control-flow class for the mark stream.
    pub kind: MarkKind,
    /// Registers read, each with the bank it must come from
    /// (`true` = floating-point).
    pub reads: [Option<(Reg, bool)>; 3],
    /// Register written, with its required bank.
    pub write: Option<(Reg, bool)>,
    /// Immediate operand, for representability checks.
    pub imm: Option<i64>,
    /// Stack slot accessed, for bounds checks.
    pub slot: Option<StackSlot>,
}

impl VInsn {
    /// A new record for `name` with no operands.
    pub fn new(name: &'static str) -> VInsn {
        VInsn {
            name,
            kind: MarkKind::Other,
            reads: [None; 3],
            write: None,
            imm: None,
            slot: None,
        }
    }

    /// Adds a read of `reg` from the float (`true`) or int bank.
    #[must_use]
    pub fn r(mut self, reg: Reg, flt: bool) -> VInsn {
        if let Some(s) = self.reads.iter_mut().find(|s| s.is_none()) {
            *s = Some((reg, flt));
        }
        self
    }

    /// Sets the written register and its required bank.
    #[must_use]
    pub fn w(mut self, reg: Reg, flt: bool) -> VInsn {
        self.write = Some((reg, flt));
        self
    }

    /// Sets the immediate operand.
    #[must_use]
    pub fn i(mut self, imm: i64) -> VInsn {
        self.imm = Some(imm);
        self
    }

    /// Sets the control-flow class.
    #[must_use]
    pub fn k(mut self, kind: MarkKind) -> VInsn {
        self.kind = kind;
        self
    }

    /// Sets the accessed stack slot.
    #[must_use]
    pub fn s(mut self, slot: StackSlot) -> VInsn {
        self.slot = Some(slot);
        self
    }
}

// ---------------------------------------------------------------------------
// Per-target check tables
// ---------------------------------------------------------------------------

/// Static per-target verification table
/// ([`Target::CHECKS`](crate::Target::CHECKS)).
///
/// Backends override the default (derived from the `Target` consts) with
/// their reserved-register lists and instruction alignment.
#[derive(Debug, Clone, Copy)]
pub struct TargetChecks {
    /// Machine word width, for immediate representability.
    pub word_bits: u32,
    /// Instruction alignment in bytes (4 on the RISC targets, 1 on
    /// x86-64).
    pub insn_align: usize,
    /// Branch delay slots, for the hazard checks.
    pub branch_delay_slots: u32,
    /// Load delay cycles (MIPS-I).
    pub load_delay_cycles: u32,
    /// Integer registers (by number) the backend reserves for
    /// instruction synthesis; clients must never name them.
    pub reserved_int: &'static [u8],
    /// Reserved floating-point registers, by number.
    pub reserved_flt: &'static [u8],
}

// ---------------------------------------------------------------------------
// Orphaned sessions
// ---------------------------------------------------------------------------

static ORPHANS: AtomicU64 = AtomicU64::new(0);

/// Number of verified generation sessions dropped without `end` — the
/// unbalanced-`lambda` detector. Monotonic over the process lifetime.
pub fn orphaned_sessions() -> u64 {
    ORPHANS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// The verify report
// ---------------------------------------------------------------------------

/// Everything the verifier collected over one generation session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All diagnostics, in emission order.
    pub diags: Vec<Diag>,
    /// The recorded vcode stream: one byte span per instruction.
    pub marks: Vec<InsnMark>,
    /// vcode instructions the verifier observed (should equal
    /// `marks.len()`).
    pub vcode_insns: u64,
    /// Buffer cursor when the session finished.
    pub code_len: usize,
    /// Resolved byte offset of every label at `end`, indexed by
    /// [`Label::index`] (the branch targets [`cross_check`] checks).
    pub labels: Vec<Option<usize>>,
}

impl VerifyReport {
    /// `true` when no diagnostic of [`Severity::Warning`] or above was
    /// collected.
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.severity < Severity::Warning)
    }

    /// Number of diagnostics produced by `rule`.
    pub fn count(&self, rule: Rule) -> usize {
        self.diags.iter().filter(|d| d.rule == rule).count()
    }

    /// Whether any diagnostic with `rule` fired.
    pub fn has(&self, rule: Rule) -> bool {
        self.count(rule) > 0
    }

    /// The byte offset `l` was bound to at `end`, if it was bound.
    pub fn label_offset(&self, l: Label) -> Option<usize> {
        self.labels.get(l.index() as usize).copied().flatten()
    }

    /// Diagnostics at or above `min`.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(move |d| d.severity >= min)
    }
}

// ---------------------------------------------------------------------------
// Streaming verifier state
// ---------------------------------------------------------------------------

/// Live state of the streaming verifier, owned by
/// [`Asm`](crate::Asm) while a verified session is open.
#[derive(Debug)]
pub struct VerifierState {
    rf: &'static RegFile,
    checks: TargetChecks,
    /// Bit `n` set: register `n` of the bank holds a defined value.
    defined: [u64; 2],
    /// Bit set: register is owned (argument, `getreg`, hard name).
    owned: [u64; 2],
    /// Bit set: register is on lease from `getreg` (leak tracking).
    leased: [u64; 2],
    /// Allocated stack slots: `(base, off, bytes)`.
    slots: Vec<(Reg, i32, u32)>,
    open_calls: u32,
    report: VerifyReport,
    ended: bool,
}

fn bank_ix(bank: Bank) -> usize {
    match bank {
        Bank::Int => 0,
        Bank::Flt => 1,
    }
}

fn bit(reg: Reg) -> u64 {
    if reg.num() < 64 {
        1u64 << reg.num()
    } else {
        0
    }
}

impl VerifierState {
    /// Fresh state for one generation session.
    pub fn new(rf: &'static RegFile, checks: TargetChecks) -> VerifierState {
        VerifierState {
            rf,
            checks,
            defined: [0; 2],
            owned: [0; 2],
            leased: [0; 2],
            slots: Vec::new(),
            open_calls: 0,
            report: VerifyReport::default(),
            ended: false,
        }
    }

    /// Marks the incoming argument registers owned and defined.
    pub fn note_args(&mut self, args: &[Reg]) {
        for &r in args {
            self.owned[bank_ix(r.bank())] |= bit(r);
            self.defined[bank_ix(r.bank())] |= bit(r);
        }
    }

    /// Records a diagnostic.
    pub fn diag(&mut self, rule: Rule, severity: Severity, pc: usize, detail: String) {
        self.report.diags.push(Diag {
            rule,
            severity,
            pc,
            detail,
        });
    }

    /// Diagnostics collected so far.
    pub fn diags(&self) -> &[Diag] {
        &self.report.diags
    }

    fn anchored(&self, reg: Reg) -> bool {
        reg == self.rf.sp || reg == self.rf.fp || Some(reg) == self.rf.zero
    }

    fn reserved(&self, reg: Reg) -> bool {
        let listed = match reg.bank() {
            Bank::Int => self.checks.reserved_int.contains(&reg.num()),
            Bank::Flt => self.checks.reserved_flt.contains(&reg.num()),
        };
        listed
            || self
                .rf
                .desc(reg)
                .is_some_and(|d| matches!(d.kind, RegKind::Reserved))
    }

    fn check_operand(&mut self, name: &'static str, pc: usize, reg: Reg, flt: bool) -> bool {
        if reg.is_flt() != flt {
            let want = if flt { "float" } else { "integer" };
            self.diag(
                Rule::BankMismatch,
                Severity::Error,
                pc,
                format!("{name}: {reg} is not a {want} register"),
            );
            return false;
        }
        if self.anchored(reg) {
            return false;
        }
        if self.reserved(reg) {
            self.diag(
                Rule::ReservedRegister,
                Severity::Warning,
                pc,
                format!("{name}: {reg} is reserved by the target"),
            );
        } else if self.rf.desc(reg).is_none() {
            self.diag(
                Rule::UnknownRegister,
                Severity::Warning,
                pc,
                format!("{name}: {reg} is not in the target register file"),
            );
        }
        true
    }

    /// Streams one emitted vcode instruction through the rule set.
    pub fn insn(&mut self, start: usize, end: usize, vi: &VInsn) {
        self.report.vcode_insns += 1;
        self.report.marks.push(InsnMark {
            start,
            end,
            kind: vi.kind,
        });
        for &(reg, flt) in vi.reads.iter().flatten() {
            if self.check_operand(vi.name, start, reg, flt) {
                let (b, m) = (bank_ix(reg.bank()), bit(reg));
                if self.defined[b] & m == 0 {
                    self.diag(
                        Rule::UseBeforeDef,
                        Severity::Warning,
                        start,
                        format!("{}: {reg} read before any write", vi.name),
                    );
                    self.defined[b] |= m; // report each register once
                }
            }
        }
        if let Some(imm) = vi.imm {
            if self.checks.word_bits == 32
                && (imm > i64::from(u32::MAX) || imm < i64::from(i32::MIN))
            {
                self.diag(
                    Rule::ImmOutOfRange,
                    Severity::Warning,
                    start,
                    format!(
                        "{}: immediate {imm:#x} is not representable in a 32-bit word",
                        vi.name
                    ),
                );
            }
        }
        if let Some(slot) = vi.slot {
            self.check_slot(vi.name, start, slot);
        }
        if let Some((reg, flt)) = vi.write {
            if self.check_operand(vi.name, start, reg, flt) {
                let (b, m) = (bank_ix(reg.bank()), bit(reg));
                let callee_saved = self
                    .rf
                    .desc(reg)
                    .is_some_and(|d| matches!(d.kind, RegKind::CalleeSaved));
                if callee_saved && self.owned[b] & m == 0 {
                    self.diag(
                        Rule::CalleeSavedClobber,
                        Severity::Warning,
                        start,
                        format!(
                            "{}: {reg} is callee-saved but was never allocated; \
                             the prologue will not save it",
                            vi.name
                        ),
                    );
                    self.owned[b] |= m; // report once
                }
                self.defined[b] |= m;
            }
        }
    }

    /// The cursor moved back to `to`, over the tail of the instruction
    /// recorded last ([`Asm::bind_site`](crate::Asm::bind_site)): its
    /// span shrinks with it.
    pub fn retract(&mut self, to: usize) {
        if let Some(m) = self.report.marks.last_mut() {
            m.end = m.end.min(to);
        }
    }

    fn check_slot(&mut self, name: &'static str, pc: usize, slot: StackSlot) {
        let Some(size) = slot.ty.try_size_bytes(self.checks.word_bits) else {
            return;
        };
        let size = size as u32;
        let ok = self.slots.iter().any(|&(base, off, bytes)| {
            base == slot.base
                && slot.off >= off
                && i64::from(slot.off) + i64::from(size) <= i64::from(off) + i64::from(bytes)
        });
        if !ok {
            self.diag(
                Rule::SlotOutOfBounds,
                Severity::Warning,
                pc,
                format!(
                    "{name}: slot {}{:+} ({size} bytes) is outside every allocated local",
                    slot.base, slot.off
                ),
            );
        }
    }

    /// Records a `local`/`local_array` element allocation.
    pub fn note_local(&mut self, slot: StackSlot, bytes: u32) {
        self.slots.push((slot.base, slot.off, bytes));
    }

    /// Records a successful `getreg`.
    pub fn note_getreg(&mut self, reg: Reg) {
        let (b, m) = (bank_ix(reg.bank()), bit(reg));
        self.owned[b] |= m;
        self.leased[b] |= m;
    }

    /// Records ownership of a register acquired outside `getreg`
    /// (hard names, `take`).
    pub fn note_owned(&mut self, reg: Reg) {
        self.owned[bank_ix(reg.bank())] |= bit(reg);
    }

    /// Records a `putreg`; diagnoses double frees.
    pub fn note_putreg(&mut self, reg: Reg, pc: usize) {
        let (b, m) = (bank_ix(reg.bank()), bit(reg));
        if self.owned[b] & m == 0 {
            self.diag(
                Rule::DoubleFree,
                Severity::Warning,
                pc,
                format!("putreg: {reg} is not allocated (double free?)"),
            );
        }
        self.owned[b] &= !m;
        self.leased[b] &= !m;
    }

    /// Records a `call_begin`.
    pub fn note_call_begin(&mut self, pc: usize) {
        if self.open_calls > 0 {
            self.diag(
                Rule::UnbalancedCall,
                Severity::Warning,
                pc,
                "call_begin while another call is being marshaled".to_owned(),
            );
        }
        self.open_calls += 1;
    }

    /// Records a `call_end`.
    pub fn note_call_end(&mut self, pc: usize) {
        if self.open_calls == 0 {
            self.diag(
                Rule::UnbalancedCall,
                Severity::Warning,
                pc,
                "call_end without a matching call_begin".to_owned(),
            );
        } else {
            self.open_calls -= 1;
        }
    }

    /// Runs the end-of-session checks: dangling fixups, leaked leases,
    /// unbalanced call marshaling.
    pub fn finish(&mut self, labels: &LabelMap, fixups: &[Fixup], code_len: usize) {
        self.ended = true;
        self.report.code_len = code_len;
        self.report.labels = (0..labels.len() as u32)
            .map(|i| labels.offset(Label(i)))
            .collect();
        for f in fixups {
            if let FixupTarget::Label(l) = f.target {
                if labels.offset(l).is_none() {
                    self.diag(
                        Rule::LabelUnbound,
                        Severity::Error,
                        f.at,
                        format!("label {} referenced here but never bound", l.index()),
                    );
                }
            }
        }
        for bank in [Bank::Int, Bank::Flt] {
            let mut left = self.leased[bank_ix(bank)];
            while left != 0 {
                let n = left.trailing_zeros() as u8;
                left &= left - 1;
                let reg = match bank {
                    Bank::Int => Reg::int(n),
                    Bank::Flt => Reg::flt(n),
                };
                self.diag(
                    Rule::LeakedReg,
                    Severity::Note,
                    code_len,
                    format!("{reg} from getreg was never returned with putreg"),
                );
            }
        }
        if self.open_calls > 0 {
            self.diag(
                Rule::UnbalancedCall,
                Severity::Warning,
                code_len,
                format!("{} call_begin without call_end at end", self.open_calls),
            );
        }
    }

    /// Extracts the finished report, leaving the state empty.
    pub fn take_report(&mut self) -> VerifyReport {
        self.ended = true;
        std::mem::take(&mut self.report)
    }
}

impl Drop for VerifierState {
    fn drop(&mut self) {
        if !self.ended {
            ORPHANS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential machine-code checker
// ---------------------------------------------------------------------------

/// One machine instruction recovered by an [`InsnDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInsn {
    /// Encoded length in bytes (nonzero).
    pub len: usize,
    /// Whether this is a control transfer (branch/jump/call/return).
    pub control: bool,
    /// Resolved branch target as a byte offset from the start of the
    /// code buffer, when the encoding is pc-relative.
    pub target: Option<i64>,
}

/// A machine-code decoder the differential checker walks the emitted
/// bytes with. The sim crates implement this over their disassemblers;
/// the x86-64 backend provides a length decoder for its encoding subset.
pub trait InsnDecoder {
    /// Decodes the instruction at byte offset `at`, or `None` when the
    /// bytes are not a recognizable encoding.
    fn decode(&self, code: &[u8], at: usize) -> Option<DecodedInsn>;
}

/// Re-decodes the emitted machine code and cross-checks it against the
/// recorded vcode stream: every recorded instruction span must decode
/// cleanly and end on a boundary, branch targets must land on
/// instruction boundaries, and no control transfer may occupy another's
/// delay slot. Returns the (possibly empty) list of differential
/// diagnostics.
pub fn cross_check(
    code: &[u8],
    report: &VerifyReport,
    dec: &dyn InsnDecoder,
    checks: &TargetChecks,
) -> Vec<Diag> {
    let mut diags = Vec::new();
    let mut push = |rule, severity, pc, detail: String| {
        diags.push(Diag {
            rule,
            severity,
            pc,
            detail,
        })
    };
    if report.marks.len() as u64 != report.vcode_insns {
        push(
            Rule::InsnCountMismatch,
            Severity::Error,
            0,
            format!(
                "{} vcode instructions recorded but {} marks",
                report.vcode_insns,
                report.marks.len()
            ),
        );
    }
    // Walk every recorded span, collecting machine-instruction
    // boundaries.
    let mut boundaries = std::collections::BTreeSet::new();
    let mut decoded: Vec<(usize, DecodedInsn)> = Vec::new();
    for m in &report.marks {
        let mut at = m.start;
        boundaries.insert(at);
        while at < m.end {
            match dec.decode(code, at) {
                None => {
                    push(
                        Rule::DecodeError,
                        Severity::Error,
                        at,
                        format!(
                            "undecodable bytes inside a recorded instruction span ({:?})",
                            m
                        ),
                    );
                    break;
                }
                Some(d) if d.len == 0 || at + d.len > m.end => {
                    push(
                        Rule::BoundaryMismatch,
                        Severity::Error,
                        at,
                        format!(
                            "decoded length {} overruns the recorded span {}..{}",
                            d.len, m.start, m.end
                        ),
                    );
                    break;
                }
                Some(d) => {
                    decoded.push((at, d));
                    at += d.len;
                    boundaries.insert(at);
                }
            }
        }
    }
    let in_marks = |t: usize| report.marks.iter().any(|m| m.start <= t && t < m.end);
    // Branch targets recovered from the machine encodings.
    for &(at, d) in &decoded {
        if let Some(t) = d.target {
            if t.rem_euclid(checks.insn_align as i64) != 0 {
                push(
                    Rule::BranchTargetMisaligned,
                    Severity::Error,
                    at,
                    format!(
                        "decoded branch target {t:#x} is not {}-byte aligned",
                        checks.insn_align
                    ),
                );
            } else if t >= 0 && (t as usize) < code.len() {
                let t = t as usize;
                if in_marks(t) && !boundaries.contains(&t) {
                    push(
                        Rule::BranchTargetMisaligned,
                        Severity::Error,
                        at,
                        format!("decoded branch target {t:#x} is inside an instruction"),
                    );
                }
            }
        }
    }
    // Branch targets from the resolved label table.
    for m in &report.marks {
        if let MarkKind::Branch(l) = m.kind {
            if let Some(off) = report.label_offset(l) {
                if off % checks.insn_align != 0 || (in_marks(off) && !boundaries.contains(&off)) {
                    push(
                        Rule::BranchTargetMisaligned,
                        Severity::Error,
                        m.start,
                        format!(
                            "label {} resolves to {off:#x}, not an instruction boundary",
                            l.index()
                        ),
                    );
                }
            }
        }
    }
    // Delay-slot hazards: consecutive decoded control transfers.
    if checks.branch_delay_slots > 0 {
        for w in decoded.windows(2) {
            let ((a_at, a), (b_at, b)) = (w[0], w[1]);
            if a_at + a.len == b_at && a.control && b.control {
                push(
                    Rule::DelaySlotHazard,
                    Severity::Error,
                    b_at,
                    "control transfer in the delay slot of another control transfer".to_owned(),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegDesc;

    fn rf() -> &'static RegFile {
        static INT: [RegDesc; 4] = [
            RegDesc {
                reg: Reg::int(8),
                kind: RegKind::CallerSaved,
                name: "t0",
            },
            RegDesc {
                reg: Reg::int(9),
                kind: RegKind::CallerSaved,
                name: "t1",
            },
            RegDesc {
                reg: Reg::int(16),
                kind: RegKind::CalleeSaved,
                name: "s0",
            },
            RegDesc {
                reg: Reg::int(1),
                kind: RegKind::Reserved,
                name: "at",
            },
        ];
        static RF: RegFile = RegFile {
            int: &INT,
            flt: &[],
            hard_temps: &[],
            hard_saved: &[],
            sp: Reg::int(29),
            fp: Reg::int(30),
            zero: Some(Reg::int(0)),
        };
        &RF
    }

    const CHECKS: TargetChecks = TargetChecks {
        word_bits: 32,
        insn_align: 4,
        branch_delay_slots: 0,
        load_delay_cycles: 0,
        reserved_int: &[1],
        reserved_flt: &[],
    };

    #[test]
    fn use_before_def_and_write_defines() {
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.insn(
            0,
            4,
            &VInsn::new("movi")
                .w(Reg::int(8), false)
                .r(Reg::int(9), false),
        );
        assert_eq!(vs.diags()[0].rule, Rule::UseBeforeDef);
        // r8 now defined; reading it is clean, and r9 reported once.
        vs.insn(
            4,
            8,
            &VInsn::new("addi")
                .w(Reg::int(9), false)
                .r(Reg::int(8), false),
        );
        assert_eq!(vs.take_report().count(Rule::UseBeforeDef), 1);
    }

    #[test]
    fn bank_mismatch_and_reserved() {
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.insn(0, 4, &VInsn::new("addf").w(Reg::int(8), true));
        vs.insn(4, 8, &VInsn::new("movi").w(Reg::int(1), false));
        let r = vs.take_report();
        assert!(r.has(Rule::BankMismatch));
        assert!(r.has(Rule::ReservedRegister));
        assert!(!r.is_clean());
    }

    #[test]
    fn callee_clobber_unless_owned() {
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.insn(0, 4, &VInsn::new("seti").w(Reg::int(16), false));
        assert_eq!(vs.diags()[0].rule, Rule::CalleeSavedClobber);
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.note_getreg(Reg::int(16));
        vs.insn(0, 4, &VInsn::new("seti").w(Reg::int(16), false));
        assert!(vs.diags().is_empty());
    }

    #[test]
    fn leak_is_a_note_double_free_warns() {
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.note_getreg(Reg::int(8));
        vs.note_putreg(Reg::int(9), 0);
        vs.finish(&LabelMap::new(), &[], 0);
        let r = vs.take_report();
        assert!(r.has(Rule::DoubleFree));
        assert!(r.has(Rule::LeakedReg));
        // Leak alone is a Note; the double free is the only Warning.
        assert_eq!(r.at_least(Severity::Warning).count(), 1);
    }

    #[test]
    fn orphaned_sessions_counted() {
        let before = orphaned_sessions();
        drop(VerifierState::new(rf(), CHECKS));
        assert_eq!(orphaned_sessions(), before + 1);
        let mut vs = VerifierState::new(rf(), CHECKS);
        vs.take_report();
        drop(vs);
        assert_eq!(orphaned_sessions(), before + 1);
    }

    #[test]
    fn slot_bounds() {
        let mut vs = VerifierState::new(rf(), CHECKS);
        let base = Reg::int(30);
        let slot = StackSlot {
            base,
            off: -8,
            ty: crate::ty::Ty::I,
        };
        vs.note_local(slot, 4);
        vs.insn(0, 4, &VInsn::new("ld_slot").s(slot));
        assert!(vs.diags().is_empty());
        let bad = StackSlot {
            base,
            off: 64,
            ty: crate::ty::Ty::I,
        };
        vs.insn(4, 8, &VInsn::new("ld_slot").s(bad));
        assert_eq!(vs.take_report().count(Rule::SlotOutOfBounds), 1);
    }

    struct Words;
    impl InsnDecoder for Words {
        fn decode(&self, code: &[u8], at: usize) -> Option<DecodedInsn> {
            let w = u32::from_le_bytes(code.get(at..at + 4)?.try_into().ok()?);
            if w == 0xdead_beef {
                return None;
            }
            Some(DecodedInsn {
                len: 4,
                control: w & 1 == 1,
                target: None,
            })
        }
    }

    #[test]
    fn cross_check_flags_bad_spans_and_hazards() {
        let mut code = Vec::new();
        code.extend_from_slice(&2u32.to_le_bytes());
        code.extend_from_slice(&1u32.to_le_bytes()); // control
        code.extend_from_slice(&3u32.to_le_bytes()); // control in delay slot
        code.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        let report = VerifyReport {
            marks: vec![
                InsnMark {
                    start: 0,
                    end: 4,
                    kind: MarkKind::Other,
                },
                InsnMark {
                    start: 4,
                    end: 12,
                    kind: MarkKind::Jump,
                },
                InsnMark {
                    start: 12,
                    end: 16,
                    kind: MarkKind::Other,
                },
            ],
            vcode_insns: 3,
            code_len: 16,
            diags: Vec::new(),
            labels: Vec::new(),
        };
        let checks = TargetChecks {
            branch_delay_slots: 1,
            ..CHECKS
        };
        let diags = cross_check(&code, &report, &Words, &checks);
        assert!(diags.iter().any(|d| d.rule == Rule::DelaySlotHazard));
        assert!(diags.iter().any(|d| d.rule == Rule::DecodeError));
    }
}
