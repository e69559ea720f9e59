//! Runtime-retargetable engine layer: record → compile → execute.
//!
//! The paper's clients pick a target at *compile* time by monomorphizing
//! [`Assembler<T>`](crate::Assembler) — the fastest path, and still the
//! primary one. This module adds the complementary *runtime* surface a
//! serving system needs (ROADMAP north star: one binary, backends picked
//! per request):
//!
//! - [`Program`] — a small recorded VCODE stream over virtual registers.
//!   Recording is the one deviation from the paper's "no IR" rule, and it
//!   is deliberate: a program recorded once can be compiled onto *any*
//!   registered backend, hashed for the [`LambdaCache`](crate::cache::
//!   LambdaCache), and replayed through the ordinary zero-check emission
//!   path ([`replay`]) at full speed.
//! - [`Backend`] — an object-safe adapter wrapping one monomorphized
//!   `Assembler<T>` path behind a uniform `compile(&Program)` surface.
//!   `vcode_x64::X64Backend` is the native one; the simulated ISAs'
//!   (`vcode_sim::engine::MipsBackend`, ...) live beside their
//!   simulators.
//! - [`Lambda`] — finished, executable code behind a uniform `call`
//!   surface: native code calls straight in; simulated-ISA code runs on
//!   the simulator its backend owns.
//! - [`Engine`] — a registry of backends selectable by [`TargetId`] or
//!   name at runtime, fronted by a sharded, content-addressed
//!   [`LambdaCache`](crate::cache::LambdaCache) so repeated compiles of
//!   the same stream cost one hash + one shard lookup.
//!
//! ```
//! use vcode::engine::{Program, replay};
//! use vcode::fake::FakeTarget;
//!
//! let mut p = Program::new(1)?;            // fn(i32) -> i32
//! p.bin_imm(vcode::BinOp::Add, 0, 0, 1);   // v0 = v0 + 1
//! p.ret(0);
//! let mut mem = vec![0u8; 4096];
//! let fin = replay::<FakeTarget>(&p, &mut mem)?;   // ordinary emission
//! assert!(fin.len > 0);
//! # Ok::<(), vcode::engine::EngineError>(())
//! ```

use crate::asm::SessionTables;
use crate::cache::{CacheError, CacheKey, CacheStats, LambdaCache};
use crate::op::{BinOp, Cond, UnOp};
use crate::persist::{ArtifactView, DiskTier, PersistError};
use crate::stack::CodeStack;
use crate::target::{BrOperand, Finished, Leaf, Target};
use crate::ty::Ty;
use crate::vsync::{Arc, OnceLock};
use crate::{Assembler, Error, Label, Reg, RegClass};
use std::fmt;
use std::time::Duration;

/// The largest argument count a [`Program`] may declare: the smallest
/// per-target integer-argument limit in the workspace (MIPS `$a0`–`$a3`).
pub const MAX_PROGRAM_ARGS: usize = 4;

/// A backend selectable at runtime.
///
/// The discriminants are stable: they index backend slots and salt
/// cache keys, so code compiled for one target can never alias another's
/// cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetId {
    /// MIPS-I (the paper's primary platform), executed on `vcode-sim`.
    Mips,
    /// SPARC V8, executed on `vcode-sim`.
    Sparc,
    /// Alpha, executed on `vcode-sim`.
    Alpha,
    /// x86-64, executed natively.
    X64,
}

impl TargetId {
    /// All targets, in stable index order.
    pub const ALL: [TargetId; 4] = [
        TargetId::Mips,
        TargetId::Sparc,
        TargetId::Alpha,
        TargetId::X64,
    ];

    /// Stable small index (cache-key salt, backend-slot index).
    pub fn index(self) -> usize {
        match self {
            TargetId::Mips => 0,
            TargetId::Sparc => 1,
            TargetId::Alpha => 2,
            TargetId::X64 => 3,
        }
    }

    /// The backend's registry name (matches `Target::NAME`).
    pub fn name(self) -> &'static str {
        match self {
            TargetId::Mips => "mips",
            TargetId::Sparc => "sparc",
            TargetId::Alpha => "alpha",
            TargetId::X64 => "x64",
        }
    }

    /// Parses a registry name (`"mips"`, `"sparc"`, `"alpha"`, `"x64"`).
    pub fn from_name(name: &str) -> Option<TargetId> {
        TargetId::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl fmt::Display for TargetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from the engine layer. Every failure mode is typed — the cache
/// and registry never panic on client mistakes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum EngineError {
    /// No backend registered under this id.
    UnregisteredBackend(TargetId),
    /// No backend known under this name.
    UnknownBackend(String),
    /// Code generation failed (typed vcode error).
    Codegen(Error),
    /// The program asked for more virtual registers than the target's
    /// allocator could provide.
    TooManyTemps {
        /// The virtual register that could not be mapped.
        vreg: u8,
    },
    /// The program binds one label at two positions
    /// (`p.label(l); ...; p.label(l)`): neither [`replay`] nor
    /// [`Program::interpret`] gives it a meaning.
    LabelBoundTwice {
        /// The label index bound a second time.
        label: u16,
    },
    /// The program declared more arguments than [`MAX_PROGRAM_ARGS`].
    TooManyArgs {
        /// Declared argument count.
        requested: usize,
    },
    /// `call` was given the wrong number of arguments.
    BadArgs {
        /// Arguments the lambda was compiled for.
        expected: usize,
        /// Arguments the caller supplied.
        got: usize,
    },
    /// Executable memory or simulator execution failed.
    Exec(String),
    /// A racing build held the key's `Building` slot past the cache's
    /// stall timeout without publishing — the builder thread most
    /// likely died without unwinding. The slot has been vacated; an
    /// immediate retry will claim the key and compile.
    BuildStalled {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnregisteredBackend(t) => write!(f, "backend {t} is not registered"),
            EngineError::UnknownBackend(n) => write!(f, "unknown backend name {n:?}"),
            EngineError::Codegen(e) => write!(f, "code generation failed: {e}"),
            EngineError::TooManyTemps { vreg } => {
                write!(f, "virtual register v{vreg} exhausted the allocator")
            }
            EngineError::LabelBoundTwice { label } => {
                write!(f, "label L{label} is bound twice")
            }
            EngineError::TooManyArgs { requested } => {
                write!(f, "{requested} arguments exceed the portable limit")
            }
            EngineError::BadArgs { expected, got } => {
                write!(f, "lambda takes {expected} arguments, got {got}")
            }
            EngineError::Exec(m) => write!(f, "execution failed: {m}"),
            EngineError::BuildStalled { waited } => {
                write!(
                    f,
                    "in-flight build stalled (waited {waited:?}); slot vacated"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<Error> for EngineError {
    fn from(e: Error) -> EngineError {
        EngineError::Codegen(e)
    }
}

// ---------------------------------------------------------------------------
// The recorded program
// ---------------------------------------------------------------------------

/// One recorded VCODE instruction over virtual registers (see
/// [`Program`]). All operands are `i`-typed — the word-portable subset
/// every backend implements identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum POp {
    /// `v[dst] = imm`.
    Set {
        /// Destination virtual register.
        dst: u8,
        /// Constant.
        imm: i32,
    },
    /// `v[dst] = v[a] op v[b]`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination virtual register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
    },
    /// `v[dst] = v[a] op imm`.
    BinImm {
        /// Operation.
        op: BinOp,
        /// Destination virtual register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Immediate right operand.
        imm: i32,
    },
    /// `v[dst] = op v[a]`.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination virtual register.
        dst: u8,
        /// Operand.
        a: u8,
    },
    /// Binds label `l` here.
    Label {
        /// Label index (from [`Program::genlabel`]).
        l: u16,
    },
    /// `if v[a] cond v[b] goto l`.
    Br {
        /// Comparison.
        cond: Cond,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
        /// Branch target.
        l: u16,
    },
    /// `if v[a] cond imm goto l`.
    BrImm {
        /// Comparison.
        cond: Cond,
        /// Left operand.
        a: u8,
        /// Immediate right operand.
        imm: i32,
        /// Branch target.
        l: u16,
    },
    /// `goto l`.
    Jmp {
        /// Jump target.
        l: u16,
    },
    /// `return v[src]`.
    Ret {
        /// Returned virtual register.
        src: u8,
    },
}

/// Op tags of the serialized stream, one per [`POp`] variant. The
/// sub-tag bytes are the `BinOp` / `UnOp` / `Cond` discriminants.
mod tag {
    pub(super) const SET: u8 = 0;
    pub(super) const BIN: u8 = 1;
    pub(super) const BIN_IMM: u8 = 2;
    pub(super) const UN: u8 = 3;
    pub(super) const LABEL: u8 = 4;
    pub(super) const BR: u8 = 5;
    pub(super) const BR_IMM: u8 = 6;
    pub(super) const JMP: u8 = 7;
    pub(super) const RET: u8 = 8;
}

/// Per op tag: encoded length, tag included, and the largest value the
/// byte after the tag may take — a sub-tag's last variant, or 255 where
/// a plain operand follows.
const SHAPE: [(usize, u8); 9] = [
    (6, 255), // Set    dst imm32
    (5, 9),   // Bin    BinOp dst a b
    (8, 9),   // BinImm BinOp dst a imm32
    (4, 3),   // Un     UnOp dst a
    (3, 255), // Label  l16
    (6, 5),   // Br     Cond a b l16
    (9, 5),   // BrImm  Cond a imm32 l16
    (3, 255), // Jmp    l16
    (2, 255), // Ret    src
];

/// Stream header: argument count, then the label count (little-endian).
const HEADER: usize = 3;

const BIN_OPS: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Lsh,
    BinOp::Rsh,
];
const UN_OPS: [UnOp; 4] = [UnOp::Com, UnOp::Not, UnOp::Mov, UnOp::Neg];
const CONDS: [Cond; 6] = [Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge, Cond::Eq, Cond::Ne];

/// Decodes the op at the head of `code` and returns it with the rest of
/// the stream: one bounds check per op (`split_first_chunk`), the
/// operands read out of the fixed-size chunk it proves. `None` at the
/// end of the stream — and on a byte [`Program::check_encoded`] would
/// refuse, which a `Program`'s own stream never holds.
#[inline(always)]
fn decode_op(code: &[u8]) -> Option<(POp, &[u8])> {
    Some(match *code.first()? {
        tag::SET => {
            let (&[_, dst, i0, i1, i2, i3], rest) = code.split_first_chunk()?;
            let imm = i32::from_le_bytes([i0, i1, i2, i3]);
            (POp::Set { dst, imm }, rest)
        }
        tag::BIN => {
            let (&[_, op, dst, a, b], rest) = code.split_first_chunk()?;
            let op = BIN_OPS.get(usize::from(op)).copied()?;
            (POp::Bin { op, dst, a, b }, rest)
        }
        tag::BIN_IMM => {
            let (&[_, op, dst, a, i0, i1, i2, i3], rest) = code.split_first_chunk()?;
            let op = BIN_OPS.get(usize::from(op)).copied()?;
            let imm = i32::from_le_bytes([i0, i1, i2, i3]);
            (POp::BinImm { op, dst, a, imm }, rest)
        }
        tag::UN => {
            let (&[_, op, dst, a], rest) = code.split_first_chunk()?;
            let op = UN_OPS.get(usize::from(op)).copied()?;
            (POp::Un { op, dst, a }, rest)
        }
        tag::LABEL => {
            let (&[_, l0, l1], rest) = code.split_first_chunk()?;
            let l = u16::from_le_bytes([l0, l1]);
            (POp::Label { l }, rest)
        }
        tag::BR => {
            let (&[_, cond, a, b, l0, l1], rest) = code.split_first_chunk()?;
            let cond = CONDS.get(usize::from(cond)).copied()?;
            let l = u16::from_le_bytes([l0, l1]);
            (POp::Br { cond, a, b, l }, rest)
        }
        tag::BR_IMM => {
            let (&[_, cond, a, i0, i1, i2, i3, l0, l1], rest) = code.split_first_chunk()?;
            let cond = CONDS.get(usize::from(cond)).copied()?;
            let imm = i32::from_le_bytes([i0, i1, i2, i3]);
            let l = u16::from_le_bytes([l0, l1]);
            (POp::BrImm { cond, a, imm, l }, rest)
        }
        tag::JMP => {
            let (&[_, l0, l1], rest) = code.split_first_chunk()?;
            let l = u16::from_le_bytes([l0, l1]);
            (POp::Jmp { l }, rest)
        }
        tag::RET => {
            let (&[_, src], rest) = code.split_first_chunk()?;
            (POp::Ret { src }, rest)
        }
        _ => return None,
    })
}

impl POp {
    /// The highest virtual register the op names (0 when none).
    fn max_vreg(self) -> u8 {
        match self {
            POp::Set { dst, .. } => dst,
            POp::Bin { dst, a, b, .. } => dst.max(a).max(b),
            POp::BinImm { dst, a, .. } | POp::Un { dst, a, .. } => dst.max(a),
            POp::Br { a, b, .. } => a.max(b),
            POp::BrImm { a, .. } => a,
            POp::Ret { src } => src,
            POp::Label { .. } | POp::Jmp { .. } => 0,
        }
    }
}

/// The ops of a [`Program`], decoded from its stream in order
/// ([`Program::ops`]).
#[derive(Debug, Clone)]
pub struct Ops<'a> {
    rest: &'a [u8],
}

impl Iterator for Ops<'_> {
    type Item = POp;

    #[inline(always)]
    fn next(&mut self) -> Option<POp> {
        let (op, rest) = decode_op(self.rest)?;
        self.rest = rest;
        Some(op)
    }
}

/// A recorded `fn(i32, ...) -> i32` VCODE stream over virtual registers.
///
/// Virtual registers `0..args` are the incoming arguments; higher
/// indices are temporaries allocated from the target's register file at
/// replay time. The program *is* its serialized form
/// ([`encode`](Self::encode)): every recording method appends the op's
/// bytes, and lowering, the interpreter and [`ops`](Self::ops) decode
/// them. That form is the program's content-addressed identity: it (with
/// the target id) keys the lambda cache.
pub struct Program {
    /// The [`encode`](Self::encode) stream: [`HEADER`], then one
    /// [`SHAPE`]-long run per op. Only the recording methods write it,
    /// so it is always well formed.
    bytes: Vec<u8>,
    /// Ops recorded (the stream is variable-width).
    len: usize,
    /// Memoized (shared copy of the stream, routing hash): computing the
    /// cache key must not cost O(program) on every warm lookup.
    /// Invalidated by every mutator; excluded from equality and cloning.
    encoded: OnceLock<(Arc<[u8]>, u64)>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("args", &self.args())
            .field("labels", &self.labels())
            .field("ops", &self.ops().collect::<Vec<_>>())
            .finish()
    }
}

impl Clone for Program {
    fn clone(&self) -> Program {
        Program {
            bytes: self.bytes.clone(),
            len: self.len,
            encoded: OnceLock::new(),
        }
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Program {}

impl Program {
    /// Starts an empty program taking `args` `i32` arguments.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooManyArgs`] above [`MAX_PROGRAM_ARGS`].
    pub fn new(args: usize) -> Result<Program, EngineError> {
        if args > MAX_PROGRAM_ARGS {
            return Err(EngineError::TooManyArgs { requested: args });
        }
        Ok(Program {
            bytes: vec![args as u8, 0, 0],
            len: 0,
            encoded: OnceLock::new(),
        })
    }

    /// Declared argument count.
    pub fn args(&self) -> usize {
        usize::from(self.bytes[0])
    }

    /// Recorded instruction count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded stream, decoded op by op.
    pub fn ops(&self) -> Ops<'_> {
        Ops {
            rest: &self.bytes[HEADER..],
        }
    }

    /// Number of labels allocated so far (label indices are dense:
    /// `0..labels()`).
    pub fn labels(&self) -> u16 {
        u16::from_le_bytes([self.bytes[1], self.bytes[2]])
    }

    /// Allocates a fresh label index.
    pub fn genlabel(&mut self) -> u16 {
        self.encoded.take();
        let l = self.labels();
        self.bytes[1..HEADER].copy_from_slice(&(l + 1).to_le_bytes());
        l
    }

    /// Appends one op's bytes — the caller knows its variant, so there
    /// is nothing to dispatch on — invalidating the memoized copy.
    fn push<const N: usize>(&mut self, op: [u8; N]) {
        self.encoded.take();
        self.bytes.extend_from_slice(&op);
        self.len += 1;
    }

    /// Records `v[dst] = imm`.
    pub fn set(&mut self, dst: u8, imm: i32) {
        let [i0, i1, i2, i3] = imm.to_le_bytes();
        self.push([tag::SET, dst, i0, i1, i2, i3]);
    }

    /// Records `v[dst] = v[a] op v[b]`.
    pub fn bin(&mut self, op: BinOp, dst: u8, a: u8, b: u8) {
        self.push([tag::BIN, op as u8, dst, a, b]);
    }

    /// Records `v[dst] = v[a] op imm`.
    pub fn bin_imm(&mut self, op: BinOp, dst: u8, a: u8, imm: i32) {
        let [i0, i1, i2, i3] = imm.to_le_bytes();
        self.push([tag::BIN_IMM, op as u8, dst, a, i0, i1, i2, i3]);
    }

    /// Records `v[dst] = op v[a]`.
    pub fn un(&mut self, op: UnOp, dst: u8, a: u8) {
        self.push([tag::UN, op as u8, dst, a]);
    }

    /// Binds label `l` at the current position. A label may be bound
    /// once: a program that binds one twice records, but neither lowers
    /// nor interprets ([`EngineError::LabelBoundTwice`]).
    pub fn label(&mut self, l: u16) {
        let [l0, l1] = l.to_le_bytes();
        self.push([tag::LABEL, l0, l1]);
    }

    /// Records `if v[a] cond v[b] goto l`.
    pub fn br(&mut self, cond: Cond, a: u8, b: u8, l: u16) {
        let [l0, l1] = l.to_le_bytes();
        self.push([tag::BR, cond as u8, a, b, l0, l1]);
    }

    /// Records `if v[a] cond imm goto l`.
    pub fn br_imm(&mut self, cond: Cond, a: u8, imm: i32, l: u16) {
        let [i0, i1, i2, i3] = imm.to_le_bytes();
        let [l0, l1] = l.to_le_bytes();
        self.push([tag::BR_IMM, cond as u8, a, i0, i1, i2, i3, l0, l1]);
    }

    /// Records `goto l`.
    pub fn jmp(&mut self, l: u16) {
        let [l0, l1] = l.to_le_bytes();
        self.push([tag::JMP, l0, l1]);
    }

    /// Records `return v[src]`.
    pub fn ret(&mut self, src: u8) {
        self.push([tag::RET, src]);
    }

    /// The stream in its deterministic byte form — the program's
    /// content-addressed identity (a copy: the program is these bytes).
    pub fn encode(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Walks `bytes` as an [`encode`](Self::encode) stream: its declared
    /// argument count and its op count, or why it is not one.
    fn scan(bytes: &[u8]) -> Result<(usize, usize), EngineError> {
        let malformed = |what: &str, at: usize| {
            EngineError::Exec(format!("program check: {what} at offset {at}"))
        };
        let args = usize::from(
            *bytes
                .first()
                .ok_or_else(|| malformed("missing arg count", 0))?,
        );
        if args > MAX_PROGRAM_ARGS {
            return Err(EngineError::TooManyArgs { requested: args });
        }
        if bytes.len() < HEADER {
            return Err(malformed("missing label count", 1));
        }
        let (mut at, mut ops) = (HEADER, 0);
        while at < bytes.len() {
            let &(len, second_max) = SHAPE
                .get(usize::from(bytes[at]))
                .ok_or_else(|| malformed("unknown op tag", at))?;
            let op = bytes
                .get(at..at + len)
                .ok_or_else(|| malformed("truncated op", at))?;
            if op[1] > second_max {
                return Err(malformed("bad sub-tag", at));
            }
            at += len;
            ops += 1;
        }
        Ok((args, ops))
    }

    /// Checks that `bytes` is a well-formed [`encode`](Self::encode)
    /// stream and returns its declared argument count — the persistent
    /// cache's IR check on an artifact's embedded key, in one pass over a
    /// 9-row table and without building anything.
    ///
    /// The stream is fixed-width per tag and every non-tag byte is a
    /// plain operand, so a stream that checks is a program: its bytes,
    /// copied, are one whose `encode()` gives them back.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooManyArgs`] when the declared arity exceeds
    /// [`MAX_PROGRAM_ARGS`]; [`EngineError::Exec`] naming the first
    /// malformed offset (unknown tag, truncated operand, bad sub-tag).
    pub fn check_encoded(bytes: &[u8]) -> Result<usize, EngineError> {
        Self::scan(bytes).map(|(args, _)| args)
    }

    /// The memoized shared copy of the stream and its content hash,
    /// ready for [`CacheKey::from_encoded`]. First call copies and
    /// hashes (a word at a time); subsequent calls (until the next
    /// mutation) are O(1) — this is what keeps warm cache lookups free
    /// of emission-scale work.
    ///
    /// The hash is [`digest64`](crate::persist::digest64) of the bytes:
    /// the cache routes by it (shard, bucket), and the persistent tier
    /// computes the same function itself, from the key's bytes, for
    /// artifact names and checksums — it trusts no caller's hash.
    pub fn encoded(&self) -> &(Arc<[u8]>, u64) {
        self.encoded.get_or_init(|| {
            let bytes: Arc<[u8]> = self.bytes.as_slice().into();
            let hash = crate::persist::digest64(&bytes);
            (bytes, hash)
        })
    }

    /// A generous code-buffer size for replaying this program on any
    /// workspace target (worst case: every instruction synthesizes a
    /// large immediate, plus prologue/epilogue save areas).
    pub fn code_capacity(&self) -> usize {
        (self.len * 32 + 512).max(4096)
    }

    /// Directly evaluates the recorded stream — the oracle every
    /// backend is checked against. Its arithmetic is bit-for-bit the
    /// word-portable `i32` semantics every backend emits (wrapping two's
    /// complement, shift counts masked to 5 bits, arithmetic right
    /// shift), so an interpreted answer equals the native one.
    ///
    /// `fuel` bounds executed instructions: a looping program returns a
    /// typed error instead of wedging the request thread.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadArgs`] on arity mismatch;
    /// [`EngineError::LabelBoundTwice`] for a program [`replay`] refuses
    /// the same way; [`EngineError::Exec`] on division by zero, jumps to
    /// unbound labels, running off the end of the stream, and fuel
    /// exhaustion.
    pub fn interpret(&self, args: &[i32], fuel: u64) -> Result<i64, EngineError> {
        if args.len() != self.args() {
            return Err(EngineError::BadArgs {
                expected: self.args(),
                got: args.len(),
            });
        }
        let code = &self.bytes[HEADER..];
        // One pass up front: size the register file, and bind every
        // label to its op's offset (branches may jump backward).
        let mut max_vreg = 0;
        let mut bound: Vec<Option<usize>> = vec![None; usize::from(self.labels())];
        let mut ops = self.ops();
        loop {
            let at = code.len() - ops.rest.len();
            let Some(op) = ops.next() else { break };
            max_vreg = max_vreg.max(op.max_vreg());
            if let POp::Label { l } = op {
                let idx = usize::from(l);
                if bound.len() <= idx {
                    bound.resize(idx + 1, None);
                }
                if bound[idx].replace(at).is_some() {
                    return Err(EngineError::LabelBoundTwice { label: l });
                }
            }
        }
        let mut regs = vec![0i32; args.len().max(usize::from(max_vreg) + 1)];
        regs[..args.len()].copy_from_slice(args);
        let jump = |l: u16| -> Result<usize, EngineError> {
            bound
                .get(usize::from(l))
                .copied()
                .flatten()
                .ok_or_else(|| EngineError::Exec(format!("jump to unbound label L{l}")))
        };
        let bin = |op: BinOp, a: i32, b: i32| -> Result<i32, EngineError> {
            Ok(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div if b == 0 => {
                    return Err(EngineError::Exec("division by zero".to_string()))
                }
                BinOp::Div => a.wrapping_div(b),
                BinOp::Mod if b == 0 => {
                    return Err(EngineError::Exec("remainder by zero".to_string()))
                }
                BinOp::Mod => a.wrapping_rem(b),
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Lsh => a.wrapping_shl(b as u32),
                BinOp::Rsh => a.wrapping_shr(b as u32),
            })
        };
        let cmp = |c: Cond, a: i32, b: i32| -> bool {
            match c {
                Cond::Lt => a < b,
                Cond::Le => a <= b,
                Cond::Gt => a > b,
                Cond::Ge => a >= b,
                Cond::Eq => a == b,
                Cond::Ne => a != b,
            }
        };
        // `pc` is a byte offset into `code`: an op boundary, always.
        let mut pc = 0usize;
        for _ in 0..fuel {
            // Decode straight into the match: one dispatch per op.
            let Some((op, rest)) = decode_op(&code[pc..]) else {
                return Err(EngineError::Exec(
                    "program ran off the end without ret".to_string(),
                ));
            };
            match op {
                POp::Set { dst, imm } => regs[usize::from(dst)] = imm,
                POp::Bin { op, dst, a, b } => {
                    regs[usize::from(dst)] = bin(op, regs[usize::from(a)], regs[usize::from(b)])?;
                }
                POp::BinImm { op, dst, a, imm } => {
                    regs[usize::from(dst)] = bin(op, regs[usize::from(a)], imm)?;
                }
                POp::Un { op, dst, a } => {
                    let x = regs[usize::from(a)];
                    regs[usize::from(dst)] = match op {
                        UnOp::Com => !x,
                        UnOp::Not => i32::from(x == 0),
                        UnOp::Mov => x,
                        UnOp::Neg => x.wrapping_neg(),
                    };
                }
                POp::Label { .. } => {}
                POp::Br { cond, a, b, l } => {
                    if cmp(cond, regs[usize::from(a)], regs[usize::from(b)]) {
                        pc = jump(l)?;
                        continue;
                    }
                }
                POp::BrImm { cond, a, imm, l } => {
                    if cmp(cond, regs[usize::from(a)], imm) {
                        pc = jump(l)?;
                        continue;
                    }
                }
                POp::Jmp { l } => {
                    pc = jump(l)?;
                    continue;
                }
                POp::Ret { src } => return Ok(i64::from(regs[usize::from(src)])),
            }
            pc = code.len() - rest.len();
        }
        Err(EngineError::Exec(if pc == code.len() {
            "program ran off the end without ret".to_string()
        } else {
            "interpreter fuel exhausted".to_string()
        }))
    }
}

/// FNV-1a 64-bit hash (no external dependencies; stable across runs).
/// The hash artifact format v1 was named and sealed with; nothing in the
/// product calls it since v2 ([`crate::persist::digest64`]). It stays
/// for callers outside the workspace that key their own caches with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Replays a recorded [`Program`] through the ordinary (zero-check)
/// emission path of `Assembler<T>` into `mem`.
///
/// This is the monomorphized half of every [`Backend`] adapter: the
/// object-safe surface dispatches here once per compile, and from then
/// on emission is the same code the direct clients use — the cached
/// path adds nothing to the per-instruction cost. The adapter's fixed
/// cost per compile is [`lower_in_scratch`]: this lowering into a
/// per-thread scratch plus one right-sized copy of the finished bytes.
///
/// # Errors
///
/// Typed [`EngineError`]: codegen failures ([`Error`]) and virtual
/// registers the target's allocator cannot supply.
pub fn replay<T: Target>(prog: &Program, mem: &mut [u8]) -> Result<Finished, EngineError> {
    lower::<T, FirstTouch>(prog, mem)
}

/// How the lowering loop finds the register that holds a virtual
/// register — the one thing [`replay`] and
/// [`tier2::replay_opt`](crate::tier2::replay_opt) do differently. The
/// policy is a type parameter of [`lower`], so each caller gets its own
/// copy of the loop with its policy inlined.
pub(crate) trait VregMap: Sized {
    /// Starts a lambda of `prog` whose arguments arrived in `args`.
    fn new(prog: &Program, args: &[Reg]) -> Self;

    /// The register holding `v`, taken from `a`'s allocator on first
    /// need.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooManyTemps`] when the allocator has none left.
    fn reg<T: Target>(&mut self, a: &mut Assembler<'_, T>, v: u8) -> Result<Reg, EngineError>;

    /// The op at stream position `pos` has been emitted: registers whose
    /// vreg is dead from here on may go back to `a`'s allocator.
    fn retire<T: Target>(&mut self, a: &mut Assembler<'_, T>, pos: usize);
}

/// [`replay`]'s policy: a vreg takes the first free temporary when it
/// (or any higher-numbered vreg) is first touched and keeps it for the
/// whole lambda, so a program with more vregs than the target has
/// temporaries dies at `TooManyTemps` however short their lives.
///
/// Which is also why the map lives inline: it never holds more than the
/// arguments plus one allocation per integer candidate.
struct FirstTouch {
    regs: [Reg; MAX_PROGRAM_ARGS + crate::regalloc::MAX_CANDS],
    len: usize,
}

impl VregMap for FirstTouch {
    fn new(_prog: &Program, args: &[Reg]) -> FirstTouch {
        let mut regs = [Reg::int(0); MAX_PROGRAM_ARGS + crate::regalloc::MAX_CANDS];
        regs[..args.len()].copy_from_slice(args);
        FirstTouch {
            regs,
            len: args.len(),
        }
    }

    #[inline]
    fn reg<T: Target>(&mut self, a: &mut Assembler<'_, T>, v: u8) -> Result<Reg, EngineError> {
        while self.len <= usize::from(v) {
            match (a.getreg(RegClass::Temp), self.regs.get_mut(self.len)) {
                (Some(r), Some(slot)) => *slot = r,
                _ => return Err(EngineError::TooManyTemps { vreg: v }),
            }
            self.len += 1;
        }
        Ok(self.regs[usize::from(v)])
    }

    fn retire<T: Target>(&mut self, _a: &mut Assembler<'_, T>, _pos: usize) {}
}

thread_local! {
    /// The tables the last lowering on this thread ended with: the next
    /// one starts on their storage, so [`lower`] allocates only the
    /// label offsets [`Finished`] carries out. Taken out of the cell
    /// while in use (a re-entrant lowering starts on empty ones); a
    /// lowering that fails drops them.
    static TABLES: std::cell::Cell<SessionTables> =
        const { std::cell::Cell::new(SessionTables::new()) };
}

/// The one lowering from a [`Program`]'s stream to `Assembler<T>`
/// emitter calls, over the vreg policy `M`: one dispatch per
/// instruction, on the op's tag — the operation inside it reaches the
/// emitter as a value ([`Assembler::binop`] and its siblings).
pub(crate) fn lower<T: Target, M: VregMap>(
    prog: &Program,
    mem: &mut [u8],
) -> Result<Finished, EngineError> {
    let mut tables = TABLES.take();
    let args = &[Ty::I; MAX_PROGRAM_ARGS][..prog.args()];
    let mut a = Assembler::<T>::lambda_on(mem, &mut tables, args, Ty::I, Leaf::Yes)?;
    let mut map = M::new(prog, a.args());
    // Program label `l` is the assembler's `first + l`: the declared
    // ones are allocated here, in order, and one a hand-built program
    // references beyond them extends the same run.
    let first = a.state().labels.len() as u32;
    let lab = |a: &mut Assembler<'_, T>, l: u16| -> Label {
        let l = Label(first + u32::from(l));
        while a.state().labels.len() as u32 <= l.0 {
            a.genlabel();
        }
        l
    };
    if let Some(last) = prog.labels().checked_sub(1) {
        lab(&mut a, last);
    }
    for (pos, op) in prog.ops().enumerate() {
        match op {
            POp::Set { dst, imm } => {
                let d = map.reg(&mut a, dst)?;
                a.seti(d, imm);
            }
            POp::Bin { op, dst, a: x, b } => {
                let (rx, rb) = (map.reg(&mut a, x)?, map.reg(&mut a, b)?);
                let d = map.reg(&mut a, dst)?;
                a.binop(op, Ty::I, d, rx, rb);
            }
            POp::BinImm { op, dst, a: x, imm } => {
                let rx = map.reg(&mut a, x)?;
                let d = map.reg(&mut a, dst)?;
                a.binop_imm(op, Ty::I, d, rx, i64::from(imm));
            }
            POp::Un { op, dst, a: x } => {
                let rx = map.reg(&mut a, x)?;
                let d = map.reg(&mut a, dst)?;
                a.unop(op, Ty::I, d, rx);
            }
            POp::Label { l } => {
                let lbl = lab(&mut a, l);
                if a.state().labels.offset(lbl).is_some() {
                    return Err(EngineError::LabelBoundTwice { label: l });
                }
                a.label(lbl);
            }
            POp::Br { cond, a: x, b, l } => {
                let (rx, rb) = (map.reg(&mut a, x)?, map.reg(&mut a, b)?);
                let lbl = lab(&mut a, l);
                a.branch(cond, Ty::I, rx, BrOperand::R(rb), lbl);
            }
            POp::BrImm { cond, a: x, imm, l } => {
                let rx = map.reg(&mut a, x)?;
                let lbl = lab(&mut a, l);
                a.branch(cond, Ty::I, rx, BrOperand::I(i64::from(imm)), lbl);
            }
            POp::Jmp { l } => {
                let lbl = lab(&mut a, l);
                a.jmp(lbl);
            }
            POp::Ret { src } => {
                let r = map.reg(&mut a, src)?;
                a.reti(r);
            }
        }
        map.retire(&mut a, pos);
    }
    let fin = a.end_into(&mut tables)?;
    TABLES.set(tables);
    Ok(fin)
}

// ---------------------------------------------------------------------------
// Lambdas and backends
// ---------------------------------------------------------------------------

/// Finished, executable code behind a uniform call surface. Lambdas are
/// shared (`Arc`) between the cache and all callers; the code they own
/// stays alive — and out of the executable-memory pool — for exactly as
/// long as any clone exists.
pub trait Lambda: Send + Sync + fmt::Debug {
    /// The backend that produced this code.
    fn target(&self) -> TargetId;
    /// Machine-code bytes.
    fn code_len(&self) -> usize;
    /// VCODE instructions replayed to produce the code.
    fn insns(&self) -> u64;
    /// Runs the code. The result is the program's `i32` return value,
    /// sign-extended.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadArgs`] on arity mismatch; simulated targets
    /// also surface runtime traps.
    fn call(&self, args: &[i32]) -> Result<i64, EngineError>;

    /// The `(args, code bytes)` image the persistent cache serializes,
    /// or `None` when this lambda cannot leave the process
    /// (position-dependent code). The bytes must be exactly what
    /// [`Backend::adopt`] re-materializes from.
    fn persist_image(&self) -> Option<(usize, Vec<u8>)> {
        None
    }
}

/// An object-safe adapter over one monomorphized `Assembler<T>` path:
/// the record → compile half of the engine's record → compile → execute
/// surface.
pub trait Backend: Send + Sync + fmt::Debug {
    /// The target this backend compiles for.
    fn id(&self) -> TargetId;
    /// Registry name (defaults to the target id's name).
    fn name(&self) -> &'static str {
        self.id().name()
    }
    /// Word width of the target.
    fn word_bits(&self) -> u32;
    /// Compiles a recorded program to an executable [`Lambda`].
    ///
    /// # Errors
    ///
    /// Typed [`EngineError`] — codegen failure, executable-memory
    /// exhaustion, register exhaustion.
    fn compile(&self, prog: &Program) -> Result<Arc<dyn Lambda>, EngineError>;
    /// Re-materializes a lambda from a persisted artifact's code bytes,
    /// revalidating them (differential re-decode) before anything is
    /// mapped or run. The default refuses: a backend must opt in to
    /// adoption by proving it can revalidate.
    ///
    /// # Errors
    ///
    /// Typed by what failed — the tier evicts an artifact only when its
    /// *bytes* were refused: [`PersistError::Revalidation`] when they
    /// fail the re-decode, [`PersistError::NoDecoder`] when this backend
    /// has no adoption path for them,
    /// [`PersistError::Io`] when executable memory cannot be obtained.
    fn adopt(&self, artifact: &ArtifactView<'_>) -> Result<Arc<dyn Lambda>, PersistError> {
        Err(PersistError::NoDecoder(artifact.target))
    }
}

/// The largest lowering scratch a thread keeps between compiles: the
/// executable-memory pool's own largest class (`vcode_x64::MAX_POOL_PAGES`
/// pages; `vcode-x64` asserts the two agree). A lowering asked for more
/// (a [`code_capacity`](Program::code_capacity), or a retry, past it)
/// ends in a buffer that is freed afterwards, so one huge program does
/// not pin megabytes on every thread that ever compiled one.
pub const SCRATCH_MAX: usize = 128 * 4096;

thread_local! {
    /// This thread's lowering scratch, grown on demand up to
    /// [`SCRATCH_MAX`]. Taken out of the cell while in use, so a
    /// re-entrant compile gets a buffer of its own instead of a borrow
    /// panic.
    static SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// What [`lower_in_scratch`] and a native install ask of an error type:
/// whether it is an [`Error::Overflow`] (the one failure retried), and
/// how to report finished code no executable memory could be had for.
pub trait LowerError {
    /// Whether this is a storage overflow.
    fn overflowed(&self) -> bool;
    /// The error for a failed mapping.
    fn no_memory(e: std::io::Error) -> Self;
}

impl LowerError for EngineError {
    fn overflowed(&self) -> bool {
        matches!(self, EngineError::Codegen(Error::Overflow { .. }))
    }
    fn no_memory(e: std::io::Error) -> EngineError {
        EngineError::Exec(format!("exec install: {e}"))
    }
}

/// The one way generated code is written: `emit` writes a function (or
/// a unit of them) into a reusable per-thread heap scratch of `capacity`
/// bytes — once more into twice that if it overflows — and the finished
/// bytes, from [`Finished::entry`] on, go with the report to `install`,
/// which copies them to where they will live: a right-sized `Vec` for a
/// simulated target, a right-sized pooled mapping for native code
/// (`vcode_x64::emit_native`). So a capacity bound sizes only the
/// scratch, never what a cached lambda keeps; emission stores go to
/// cache-hot memory; and the assembler's over-store slack
/// ([`MAX_OVERSTORE`](crate::buf::MAX_OVERSTORE)) stays behind.
///
/// The scratch is not cleared between compiles: every append stores
/// exactly the bytes it advances over (see [`crate::buf`]), so a
/// finished function never shows what the buffer held before; bytes a
/// client skips between functions are its own to write.
///
/// `emit` must write position-independent code, as everything reachable
/// from [`POp`] is (x86-64 lowering is rel32-only; the same bytes
/// already run relocated after every L2 load): scratch offset `off`
/// runs at `base + off - entry`.
///
/// # Errors
///
/// `emit`'s error (the retry's after an overflow), `install`'s, or
/// [`LowerError::no_memory`] when no scratch that large can be reserved.
pub fn lower_in_scratch<L, E: LowerError>(
    capacity: usize,
    mut emit: impl FnMut(&mut [u8]) -> Result<Finished, E>,
    install: impl FnOnce(&[u8], Finished) -> Result<L, E>,
) -> Result<L, E> {
    let keep = capacity <= SCRATCH_MAX;
    let mut buf = if keep { SCRATCH.take() } else { Vec::new() };
    let mut lower = |cap: usize| {
        // An oversized capacity is a typed error, not an allocation abort.
        if let Err(e) = buf.try_reserve_exact(cap.saturating_sub(buf.len())) {
            return Err(E::no_memory(e.into()));
        }
        buf.resize(buf.len().max(cap), 0);
        emit(&mut buf[..cap])
    };
    let fin = match lower(capacity) {
        Err(e) if e.overflowed() => lower(capacity.max(1).saturating_mul(2)),
        fin => fin,
    };
    let result = fin.and_then(|fin| install(&buf[fin.entry..fin.len], fin));
    if keep && buf.len() <= SCRATCH_MAX {
        SCRATCH.set(buf);
    }
    result
}

// ---------------------------------------------------------------------------
// The engine: registry + cache
// ---------------------------------------------------------------------------

/// The engine's [`ArtifactCodec`](crate::persist::ArtifactCodec):
/// serializes any lambda exposing a [`Lambda::persist_image`] and
/// re-materializes artifacts through [`Backend::adopt`], with an IR
/// check on the embedded key bytes (they must be a well-formed
/// [`Program`] stream of the recorded arity) before any native byte is
/// trusted.
struct LambdaCodec {
    backends: [Option<Arc<dyn Backend>>; 4],
}

impl crate::persist::ArtifactCodec<dyn Lambda> for LambdaCodec {
    fn to_artifact(
        &self,
        key: &CacheKey,
        val: &Arc<dyn Lambda>,
    ) -> Result<crate::persist::Artifact, crate::persist::PersistError> {
        let (args, code) =
            val.persist_image()
                .ok_or(crate::persist::PersistError::NotPersistable(
                    "lambda exposes no persistable image",
                ))?;
        Ok(crate::persist::Artifact {
            target: val.target(),
            args: args as u8,
            insns: val.insns(),
            key: key.content().to_vec(),
            meta: Vec::new(),
            code,
        })
    }

    fn from_artifact(
        &self,
        artifact: &crate::persist::ArtifactView<'_>,
    ) -> Result<Arc<dyn Lambda>, crate::persist::PersistError> {
        // IR check: the artifact's identity bytes must be a well-formed
        // Program stream naming the recorded arity.
        let args = Program::check_encoded(artifact.key)
            .map_err(|e| crate::persist::PersistError::Revalidation(format!("embedded IR: {e}")))?;
        if args != usize::from(artifact.args) {
            return Err(crate::persist::PersistError::Revalidation(
                "artifact arity disagrees with its embedded IR".into(),
            ));
        }
        // The backend types its own refusals (these bytes, or this
        // process), so its error passes through unclassified.
        self.backends[artifact.target.index()]
            .as_ref()
            .ok_or(crate::persist::PersistError::NoDecoder(artifact.target))?
            .adopt(artifact)
    }
}

/// A registry of runtime-selectable backends fronted by a sharded
/// compiled-lambda cache.
///
/// ```no_run
/// use vcode::engine::{Engine, Program, TargetId};
/// # fn backends() -> Vec<std::sync::Arc<dyn vcode::engine::Backend>> { vec![] }
/// let mut engine = Engine::new(256);
/// for b in backends() {
///     engine.register(b);
/// }
/// let mut p = Program::new(1).unwrap();
/// p.bin_imm(vcode::BinOp::Add, 0, 0, 1);
/// p.ret(0);
/// // Runtime selection by name; the second compile is a cache hit.
/// let id = TargetId::from_name("x64").unwrap();
/// let f = engine.compile_cached(id, &p).unwrap();
/// assert_eq!(f.call(&[41]).unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct Engine {
    backends: [Option<Arc<dyn Backend>>; 4],
    /// L1 cache and optional persistent tier (see [`crate::stack`]).
    stack: CodeStack<dyn Lambda>,
}

impl Engine {
    /// Creates an engine whose lambda cache retains at most `capacity`
    /// compiled programs (LRU beyond that).
    pub fn new(capacity: usize) -> Engine {
        Engine {
            backends: [const { None }; 4],
            stack: CodeStack::new(capacity),
        }
    }

    /// Registers (or replaces) a backend under its [`TargetId`].
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        let idx = backend.id().index();
        self.backends[idx] = Some(backend);
    }

    /// The backend registered for `id`.
    pub fn backend(&self, id: TargetId) -> Option<&Arc<dyn Backend>> {
        self.backends[id.index()].as_ref()
    }

    /// Runtime backend selection by registry name.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownBackend`] for names no target uses,
    /// [`EngineError::UnregisteredBackend`] for known-but-absent ones.
    pub fn backend_by_name(&self, name: &str) -> Result<&Arc<dyn Backend>, EngineError> {
        let id = TargetId::from_name(name)
            .ok_or_else(|| EngineError::UnknownBackend(name.to_string()))?;
        self.backend(id).ok_or(EngineError::UnregisteredBackend(id))
    }

    /// Registered backends, in stable id order.
    pub fn backends(&self) -> impl Iterator<Item = &Arc<dyn Backend>> {
        self.backends.iter().flatten()
    }

    /// Compiles `prog` on `id` *without* touching the cache — the
    /// single-shot path, identical in cost to calling the backend
    /// directly: a lowering into the thread's scratch plus one
    /// right-sized copy of the finished bytes ([`lower_in_scratch`]).
    ///
    /// # Errors
    ///
    /// See [`Backend::compile`]; plus [`EngineError::UnregisteredBackend`].
    pub fn compile(&self, id: TargetId, prog: &Program) -> Result<Arc<dyn Lambda>, EngineError> {
        self.backends[id.index()]
            .as_ref()
            .ok_or(EngineError::UnregisteredBackend(id))?
            .compile(prog)
    }

    /// Compiles `prog` on `id` through the lambda cache: a warm hit
    /// returns the shared finished code with zero emission work; a miss
    /// compiles exactly once no matter how many threads race on the key.
    ///
    /// # Errors
    ///
    /// See [`compile`](Self::compile). A failed compile is returned to
    /// every racing caller and never poisons the cache.
    pub fn compile_cached(
        &self,
        id: TargetId,
        prog: &Program,
    ) -> Result<Arc<dyn Lambda>, EngineError> {
        let backend = self.backends[id.index()]
            .as_ref()
            .ok_or(EngineError::UnregisteredBackend(id))?;
        let (bytes, hash) = prog.encoded();
        let key = CacheKey::from_encoded(id, Arc::clone(bytes), *hash);
        self.stack
            .get_or_build(&key, |l2| l2.or_build(|| backend.compile(prog)))
            .map_err(|e| match e {
                CacheError::Build(e) => e,
                CacheError::Stalled { waited } => EngineError::BuildStalled { waited },
            })
    }

    /// Attaches a persistent L2 tier under `dir`: subsequent
    /// [`compile_cached`](Self::compile_cached) misses probe the disk
    /// tier before compiling and store through after. First call wins
    /// (`false` afterwards).
    ///
    /// Register every backend *before* enabling persistence — the tier
    /// captures the backend set it revalidates and adopts with.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn enable_persist(&self, dir: impl Into<std::path::PathBuf>) -> Result<bool, PersistError> {
        let codec = LambdaCodec {
            backends: self.backends.clone(),
        };
        self.stack.enable_persist(dir, Box::new(codec))
    }

    /// The persistent L2 tier, if [`enable_persist`](Self::enable_persist)
    /// was called.
    pub fn persist_tier(&self) -> Option<&Arc<DiskTier<dyn Lambda>>> {
        self.stack.persist_tier()
    }

    /// The engine's lambda cache (for direct keying, invalidation and
    /// inspection).
    pub fn cache(&self) -> &LambdaCache<dyn Lambda> {
        self.stack.cache()
    }

    /// Hit/miss/eviction/insert counters of the engine's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.stack.cache().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake::FakeTarget;

    fn sample() -> Program {
        let mut p = Program::new(2).unwrap();
        p.bin(BinOp::Add, 4, 0, 1);
        p.bin_imm(BinOp::Mul, 4, 4, 3);
        let skip = p.genlabel();
        p.br_imm(Cond::Ge, 4, 0, skip);
        p.un(UnOp::Neg, 4, 4);
        p.label(skip);
        p.ret(4);
        p
    }

    #[test]
    fn encode_is_deterministic_and_hash_content_addressed() {
        let p = sample();
        assert_eq!(p.encode(), p.encode());
        assert_eq!(p.encoded().1, p.clone().encoded().1);
        let mut q = sample();
        q.bin_imm(BinOp::Add, 4, 4, 0); // different stream
        assert_ne!(p.encoded().1, q.encoded().1);
    }

    /// A program of `ops` random instructions over every op, every
    /// sub-tag and arbitrary operands (well-formed as a stream; not
    /// meant to run), with the ops as they were handed to the recording
    /// methods.
    fn generated(rng: &mut crate::regress::XorShift, ops: usize) -> (Program, Vec<POp>) {
        let mut p = Program::new(rng.below(MAX_PROGRAM_ARGS as u64 + 1) as usize).unwrap();
        for _ in 0..rng.below(4) {
            p.genlabel();
        }
        let mut recorded = Vec::new();
        for _ in 0..ops {
            let (dst, a, b) = (
                rng.next_u64() as u8,
                rng.next_u64() as u8,
                rng.next_u64() as u8,
            );
            let (imm, l) = (rng.next_u64() as i32, rng.next_u64() as u16);
            let (op, un, cond) = (
                BIN_OPS[rng.below(10) as usize],
                UN_OPS[rng.below(4) as usize],
                CONDS[rng.below(6) as usize],
            );
            recorded.push(match rng.below(9) {
                0 => {
                    p.set(dst, imm);
                    POp::Set { dst, imm }
                }
                1 => {
                    p.bin(op, dst, a, b);
                    POp::Bin { op, dst, a, b }
                }
                2 => {
                    p.bin_imm(op, dst, a, imm);
                    POp::BinImm { op, dst, a, imm }
                }
                3 => {
                    p.un(un, dst, a);
                    POp::Un { op: un, dst, a }
                }
                4 => {
                    p.label(l);
                    POp::Label { l }
                }
                5 => {
                    p.br(cond, a, b, l);
                    POp::Br { cond, a, b, l }
                }
                6 => {
                    p.br_imm(cond, a, imm, l);
                    POp::BrImm { cond, a, imm, l }
                }
                7 => {
                    p.jmp(l);
                    POp::Jmp { l }
                }
                _ => {
                    p.ret(dst);
                    POp::Ret { src: dst }
                }
            });
        }
        (p, recorded)
    }

    /// The stream one field at a time, from the ops: the reference
    /// writer.
    fn encode_by_field(args: usize, labels: u16, ops: &[POp]) -> Vec<u8> {
        let mut out = vec![args as u8];
        out.extend_from_slice(&labels.to_le_bytes());
        for op in ops {
            match *op {
                POp::Set { dst, imm } => {
                    out.extend_from_slice(&[0, dst]);
                    out.extend_from_slice(&imm.to_le_bytes());
                }
                POp::Bin { op, dst, a, b } => out.extend_from_slice(&[1, op as u8, dst, a, b]),
                POp::BinImm { op, dst, a, imm } => {
                    out.extend_from_slice(&[2, op as u8, dst, a]);
                    out.extend_from_slice(&imm.to_le_bytes());
                }
                POp::Un { op, dst, a } => out.extend_from_slice(&[3, op as u8, dst, a]),
                POp::Label { l } => {
                    out.push(4);
                    out.extend_from_slice(&l.to_le_bytes());
                }
                POp::Br { cond, a, b, l } => {
                    out.extend_from_slice(&[5, cond as u8, a, b]);
                    out.extend_from_slice(&l.to_le_bytes());
                }
                POp::BrImm { cond, a, imm, l } => {
                    out.extend_from_slice(&[6, cond as u8, a]);
                    out.extend_from_slice(&imm.to_le_bytes());
                    out.extend_from_slice(&l.to_le_bytes());
                }
                POp::Jmp { l } => {
                    out.push(7);
                    out.extend_from_slice(&l.to_le_bytes());
                }
                POp::Ret { src } => out.extend_from_slice(&[8, src]),
            }
        }
        out
    }

    /// The stream one field at a time, into ops: the reference reader
    /// (`Program::decode` as it was while a program held its ops).
    fn decode_by_field(bytes: &[u8]) -> Result<(usize, u16, Vec<POp>), EngineError> {
        let malformed = |what: &str, at: usize| {
            EngineError::Exec(format!("program decode: {what} at offset {at}"))
        };
        struct Rd<'a> {
            b: &'a [u8],
            at: usize,
        }
        impl Rd<'_> {
            fn u8(&mut self) -> Option<u8> {
                let v = *self.b.get(self.at)?;
                self.at += 1;
                Some(v)
            }
            fn u16(&mut self) -> Option<u16> {
                Some(u16::from_le_bytes([self.u8()?, self.u8()?]))
            }
            fn i32(&mut self) -> Option<i32> {
                Some(i32::from_le_bytes([
                    self.u8()?,
                    self.u8()?,
                    self.u8()?,
                    self.u8()?,
                ]))
            }
        }
        fn read_op(r: &mut Rd<'_>) -> Option<POp> {
            let bin = |r: &mut Rd<'_>| BIN_OPS.get(usize::from(r.u8()?)).copied();
            let cond = |r: &mut Rd<'_>| CONDS.get(usize::from(r.u8()?)).copied();
            Some(match r.u8()? {
                0 => POp::Set {
                    dst: r.u8()?,
                    imm: r.i32()?,
                },
                1 => POp::Bin {
                    op: bin(r)?,
                    dst: r.u8()?,
                    a: r.u8()?,
                    b: r.u8()?,
                },
                2 => POp::BinImm {
                    op: bin(r)?,
                    dst: r.u8()?,
                    a: r.u8()?,
                    imm: r.i32()?,
                },
                3 => POp::Un {
                    op: UN_OPS.get(usize::from(r.u8()?)).copied()?,
                    dst: r.u8()?,
                    a: r.u8()?,
                },
                4 => POp::Label { l: r.u16()? },
                5 => POp::Br {
                    cond: cond(r)?,
                    a: r.u8()?,
                    b: r.u8()?,
                    l: r.u16()?,
                },
                6 => POp::BrImm {
                    cond: cond(r)?,
                    a: r.u8()?,
                    imm: r.i32()?,
                    l: r.u16()?,
                },
                7 => POp::Jmp { l: r.u16()? },
                8 => POp::Ret { src: r.u8()? },
                _ => return None,
            })
        }
        let mut r = Rd { b: bytes, at: 0 };
        let args = r.u8().ok_or_else(|| malformed("missing arg count", 0))? as usize;
        if args > MAX_PROGRAM_ARGS {
            return Err(EngineError::TooManyArgs { requested: args });
        }
        let labels = r.u16().ok_or_else(|| malformed("missing label count", 1))?;
        let mut ops = Vec::new();
        while r.at < bytes.len() {
            let at = r.at;
            ops.push(read_op(&mut r).ok_or_else(|| malformed("bad op", at))?);
        }
        Ok((args, labels, ops))
    }

    /// A program from its `encode()` stream: the check, then a copy.
    fn decoded(bytes: &[u8]) -> Result<Program, EngineError> {
        let (_, len) = Program::scan(bytes)?;
        Ok(Program {
            bytes: bytes.to_vec(),
            len,
            encoded: OnceLock::new(),
        })
    }

    #[test]
    fn encode_is_the_field_by_field_stream_and_decodes_back() {
        let mut rng = crate::regress::XorShift::new(0xe4c0de);
        for n in 0..512 {
            let (p, recorded) = generated(&mut rng, n % 97);
            let bytes = p.encode();
            assert_eq!(
                bytes,
                encode_by_field(p.args(), p.labels(), &recorded),
                "program {n}"
            );
            assert_eq!(p.ops().collect::<Vec<_>>(), recorded, "program {n}");
            assert_eq!(p.len(), recorded.len());
            assert_eq!(p.encoded().0[..], bytes[..]);
            let q = decoded(&bytes).expect("decodes");
            assert_eq!((&q, q.len()), (&p, p.len()), "program {n}");
            assert_eq!(Program::check_encoded(&bytes).expect("checks"), p.args());
        }
    }

    #[test]
    fn every_mutator_invalidates_the_memoized_stream() {
        let mut p = sample();
        let before = p.encoded().clone();
        p.ret(4);
        assert_eq!(p.encoded().0[..], p.encode()[..]);
        assert_ne!(p.encoded().1, before.1);
        let before = p.encoded().clone();
        p.genlabel();
        assert_eq!(p.encoded().0[..], p.encode()[..]);
        assert_ne!(p.encoded().1, before.1);
    }

    /// `check_encoded` (and a program copied from what it accepts)
    /// accepts exactly the streams the field-by-field reader does, with
    /// the same arity, the same ops and the same error class; a stream
    /// that decodes re-encodes to itself.
    #[track_caller]
    fn check_agrees_with_reference(bytes: &[u8]) {
        match (
            Program::check_encoded(bytes),
            decoded(bytes),
            decode_by_field(bytes),
        ) {
            (Ok(args), Ok(p), Ok((ref_args, ref_labels, ref_ops))) => {
                assert_eq!(
                    (args, p.args(), p.labels()),
                    (ref_args, ref_args, ref_labels)
                );
                assert_eq!(p.ops().collect::<Vec<_>>(), ref_ops, "{bytes:02x?}");
                assert_eq!(p.len(), ref_ops.len());
                assert_eq!(p.encode(), bytes, "decoded stream must re-encode to itself");
            }
            (
                Err(EngineError::TooManyArgs { requested: c }),
                Err(EngineError::TooManyArgs { requested: d }),
                Err(EngineError::TooManyArgs { requested: r }),
            ) => {
                assert_eq!((c, d), (r, r));
            }
            (Err(EngineError::Exec(_)), Err(EngineError::Exec(_)), Err(EngineError::Exec(_))) => {}
            (c, d, r) => panic!("check {c:?}, decode {d:?}, reference {r:?} on {bytes:02x?}"),
        }
    }

    /// Exhaustive over 64 generated programs: every truncation, and
    /// every value of every byte.
    #[test]
    fn check_encoded_agrees_with_decode_on_every_mutation() {
        let mut rng = crate::regress::XorShift::new(0xc4ec4ed);
        for n in 0..64 {
            let mut bytes = generated(&mut rng, 4 + n % 20).0.encode();
            for cut in 0..=bytes.len() {
                check_agrees_with_reference(&bytes[..cut]);
            }
            for at in 0..bytes.len() {
                let pristine = bytes[at];
                for v in 0..=255u8 {
                    bytes[at] = v;
                    check_agrees_with_reference(&bytes);
                }
                bytes[at] = pristine;
            }
        }
    }

    #[test]
    fn replay_emits_through_the_ordinary_path() {
        let p = sample();
        let mut mem = vec![0u8; p.code_capacity()];
        let fin = replay::<FakeTarget>(&p, &mut mem).unwrap();
        assert!(fin.len > 0);
        assert_eq!(fin.insns, p.len() as u64 - 1); // `label` emits nothing
    }

    #[test]
    fn scratch_lowering_installs_the_bytes_a_fresh_buffer_gets() {
        let p = sample();
        let cap = p.code_capacity();
        let lower = |buf: &mut [u8]| replay::<FakeTarget>(&p, buf);
        let mut fresh = vec![0u8; cap];
        let fin = replay::<FakeTarget>(&p, &mut fresh).unwrap();
        // Whatever the scratch held before: nothing of it shows.
        SCRATCH.set(vec![0xa5; cap / 2]);
        for _ in 0..2 {
            let (code, insns) =
                lower_in_scratch(cap, lower, |code, fin| Ok((code.to_vec(), fin.insns))).unwrap();
            assert_eq!(code, fresh[..fin.len]);
            assert_eq!(insns, fin.insns);
        }
        // The scratch grew to the capacity asked of it and is kept; a
        // failed lowering or install keeps it too.
        let kept = |want: usize| {
            let buf = SCRATCH.take();
            assert_eq!(buf.len(), want);
            SCRATCH.set(buf);
        };
        kept(cap);
        let refused = |_: &mut [u8]| Err(EngineError::TooManyTemps { vreg: 9 });
        assert!(lower_in_scratch(cap, refused, |_, _| Ok(())).is_err());
        let full = |_: &[u8], _| Err::<(), _>(EngineError::Exec("no memory".into()));
        assert!(lower_in_scratch(cap, lower, full).is_err());
        kept(cap);
        // An overflow is retried once, in twice the room; a second one
        // is the answer.
        let mut tried = Vec::new();
        let short = |buf: &mut [u8]| {
            tried.push(buf.len());
            replay::<FakeTarget>(&p, buf)
        };
        let r = lower_in_scratch(fin.len / 3, short, |code, _| Ok(code.len()));
        assert_eq!(tried, [fin.len / 3, fin.len / 3 * 2]);
        assert!(r.is_err_and(|e| e.overflowed()));
        let len = lower_in_scratch(fin.len - 1, lower, |code, _| Ok(code.len()));
        assert_eq!(len.unwrap(), fin.len - fin.entry);
        kept(cap);
        // Past the bound: a buffer of its own, freed; the scratch is
        // neither grown nor replaced.
        let mut huge = Program::new(1).unwrap();
        for _ in 0..SCRATCH_MAX / 32 {
            huge.bin_imm(BinOp::Add, 0, 0, 1);
        }
        huge.ret(0);
        assert!(huge.code_capacity() > SCRATCH_MAX);
        let mut fresh = vec![0u8; huge.code_capacity()];
        let fin = replay::<FakeTarget>(&huge, &mut fresh).unwrap();
        let lower = |buf: &mut [u8]| replay::<FakeTarget>(&huge, buf);
        let len = lower_in_scratch(huge.code_capacity(), lower, |code, _| {
            assert_eq!(code, &fresh[..fin.len]);
            Ok(code.len())
        });
        assert_eq!(len.unwrap(), fin.len);
        kept(cap);
        // An absurd capacity is a typed error, not an allocation abort.
        let lower = |buf: &mut [u8]| replay::<FakeTarget>(&p, buf);
        let r = lower_in_scratch(usize::MAX, lower, |code, _| Ok(code.len()));
        assert!(matches!(r, Err(EngineError::Exec(_))), "{r:?}");
        kept(cap);
    }

    #[test]
    fn interpret_matches_recorded_semantics() {
        // sample() computes v = (x + y) * 3 and negates when negative.
        let p = sample();
        for (x, y) in [(3i32, 4), (-10, 2), (0, 0), (1000, -2000)] {
            let v = x.wrapping_add(y).wrapping_mul(3);
            let want = i64::from(if v < 0 { v.wrapping_neg() } else { v });
            assert_eq!(p.interpret(&[x, y], 1_000).unwrap(), want, "f({x},{y})");
        }
    }

    #[test]
    fn interpret_covers_every_op_bit_for_bit() {
        // One program per binop, checked against native i32 semantics.
        let cases: [(BinOp, i32, i32, i32); 8] = [
            (BinOp::Add, i32::MAX, 1, i32::MAX.wrapping_add(1)),
            (BinOp::Sub, i32::MIN, 1, i32::MIN.wrapping_sub(1)),
            (BinOp::Mul, 123_456, 789, 123_456i32.wrapping_mul(789)),
            (BinOp::Div, -7, 2, -3),
            (BinOp::Mod, -7, 2, -1),
            (BinOp::Xor, 0x5a5a, 0xa5a5, 0xffff),
            (BinOp::Lsh, 1, 33, 2),  // count masked to 5 bits
            (BinOp::Rsh, -8, 1, -4), // arithmetic shift
        ];
        for (op, a, b, want) in cases {
            let mut p = Program::new(2).unwrap();
            p.bin(op, 2, 0, 1);
            p.ret(2);
            assert_eq!(
                p.interpret(&[a, b], 100).unwrap(),
                i64::from(want),
                "{op:?}"
            );
        }
        let mut p = Program::new(1).unwrap();
        p.un(UnOp::Com, 1, 0);
        p.ret(1);
        assert_eq!(p.interpret(&[0x0f0f], 100).unwrap(), i64::from(!0x0f0f));
        let mut p = Program::new(1).unwrap();
        p.un(UnOp::Not, 1, 0);
        p.ret(1);
        assert_eq!(p.interpret(&[0], 100).unwrap(), 1);
        assert_eq!(p.interpret(&[7], 100).unwrap(), 0);
    }

    #[test]
    fn interpret_faults_are_typed() {
        // Division by zero.
        let mut p = Program::new(2).unwrap();
        p.bin(BinOp::Div, 2, 0, 1);
        p.ret(2);
        assert!(matches!(
            p.interpret(&[1, 0], 100),
            Err(EngineError::Exec(m)) if m.contains("zero")
        ));
        // Arity mismatch.
        assert!(matches!(
            p.interpret(&[1], 100),
            Err(EngineError::BadArgs {
                expected: 2,
                got: 1
            })
        ));
        // Fuel bounds an infinite loop.
        let mut p = Program::new(0).unwrap();
        let top = p.genlabel();
        p.label(top);
        p.jmp(top);
        assert!(matches!(
            p.interpret(&[], 10_000),
            Err(EngineError::Exec(m)) if m.contains("fuel")
        ));
        // Running off the end without ret.
        let mut p = Program::new(1).unwrap();
        p.bin_imm(BinOp::Add, 0, 0, 1);
        assert!(matches!(
            p.interpret(&[1], 100),
            Err(EngineError::Exec(m)) if m.contains("ret")
        ));
        // Jump to a label that is never bound.
        let mut p = Program::new(0).unwrap();
        let nowhere = p.genlabel();
        p.jmp(nowhere);
        assert!(matches!(
            p.interpret(&[], 100),
            Err(EngineError::Exec(m)) if m.contains("unbound")
        ));
    }

    #[test]
    fn too_many_args_is_typed() {
        assert!(matches!(
            Program::new(MAX_PROGRAM_ARGS + 1),
            Err(EngineError::TooManyArgs { requested: 5 })
        ));
    }

    #[test]
    fn target_id_names_round_trip() {
        for t in TargetId::ALL {
            assert_eq!(TargetId::from_name(t.name()), Some(t));
        }
        assert_eq!(TargetId::from_name("vax"), None);
    }

    #[test]
    fn unregistered_backend_is_typed() {
        let engine = Engine::new(8);
        let p = sample();
        assert!(matches!(
            engine.compile(TargetId::Mips, &p),
            Err(EngineError::UnregisteredBackend(TargetId::Mips))
        ));
        assert!(matches!(
            engine.backend_by_name("vax"),
            Err(EngineError::UnknownBackend(_))
        ));
        assert!(matches!(
            engine.backend_by_name("mips"),
            Err(EngineError::UnregisteredBackend(TargetId::Mips))
        ));
    }
}
