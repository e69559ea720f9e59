//! # vcode — retargetable, extensible, very fast dynamic code generation
//!
//! A Rust reproduction of **VCODE** (Dawson R. Engler, *"VCODE: a
//! Retargetable, Extensible, Very Fast Dynamic Code Generation System"*,
//! PLDI 1996). Dynamic code generation is the creation of executable code
//! at runtime; VCODE lets clients portably and efficiently specify that
//! code through the instruction set of an idealized load–store RISC
//! architecture, and *transliterates* each instruction to machine code
//! **in place** — no intermediate representation is built or consumed at
//! runtime. The result is code generation at a cost of a handful of host
//! instructions per generated instruction.
//!
//! ## Structure
//!
//! - This crate is the machine-independent core: the instruction set
//!   ([`Ty`], [`BinOp`], ... — paper Tables 1 and 2), the in-place
//!   [`buf::CodeBuffer`], [`label`]s and jump backpatching, the
//!   [`regalloc`] register allocator, and the client surface
//!   [`Assembler`].
//! - Backends implement [`Target`] (the retargeting interface): see the
//!   `vcode-mips`, `vcode-sparc`, `vcode-alpha` and `vcode-x64` crates.
//! - [`ext`] holds extension layers built on the core (paper §5.4), and
//!   [`spec`] the concise instruction-specification language the paper's
//!   preprocessor consumed (§3.3).
//!
//! ## Quick start
//!
//! Generating `int plus1(int x) { return x + 1; }` at runtime (Figure 1
//! of the paper; here against the synthetic test target — substitute
//! `vcode_x64::X64` to run the result natively):
//!
//! ```
//! use vcode::{Assembler, Leaf};
//! use vcode::fake::FakeTarget;
//!
//! let mut mem = vec![0u8; 1024];                       // client storage
//! let mut a = Assembler::<FakeTarget>::lambda(&mut mem, "%i", Leaf::Yes)?;
//! let x = a.arg(0);
//! a.addii(x, x, 1);                                    // v_addii
//! a.reti(x);                                           // v_reti
//! let func = a.end()?;                                 // v_end: link + cleanup
//! assert!(func.len > 0);
//! # Ok::<(), vcode::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod buf;
pub mod cache;
pub mod engine;
pub mod error;
pub mod ext;
pub mod fake;
pub mod label;
#[macro_use]
pub mod macros;
pub mod obs;
pub mod op;
pub mod persist;
pub mod rcu;
pub mod reg;
pub mod regalloc;
pub mod regress;
pub mod service;
pub mod spec;
pub mod stack;
pub mod target;
pub mod tier2;
pub mod trap;
pub mod ty;
pub mod verify;
pub mod vsync;

pub use asm::{Asm, Assembler};
pub use buf::EmitPath;
pub use cache::{CacheError, CacheKey, CacheStats, LambdaCache};
pub use engine::{Backend, Engine, EngineError, Lambda, Program, TargetId};
pub use error::Error;
pub use label::Label;
pub use obs::{CodegenEvent, ExecStats, TraceRecord, TrapCounts};
pub use op::{BinOp, Cond, Imm, UnOp};
pub use persist::{
    Artifact, ArtifactCodec, ArtifactView, CacheTier, DiskTier, PersistError, PersistStats,
};
pub use reg::{Bank, Reg, RegClass, RegDesc, RegFile, RegKind};
pub use service::{CompileService, QuarantineInfo, ServiceConfig, ServiceStats, Submit};
pub use stack::{CodeStack, L2};
pub use target::{
    BrOperand, CallFrame, Finished, JumpTarget, Leaf, Off, StackSlot, Target, TargetScratch,
};
pub use tier2::OptStats;
pub use trap::{ExecError, Fuel, Trap, TrapKind};
pub use ty::{Sig, SigParseError, Ty};
pub use verify::{
    cross_check, DecodedInsn, Diag, InsnDecoder, Rule, Severity, TargetChecks, VerifyReport,
};
