//! The engine's backends for the simulated ISAs: one [`SimBackend`]
//! over an [`Isa`], which lowers a recorded [`Program`] through the
//! ISA's own `Assembler<T>` path and runs the finished bytes on
//! [`Machine<I>`](Machine).
//!
//! A backend owns everything its code needs — the emitter (the backend
//! crate's target), the machine that executes the code and the decoder
//! that revalidates it on an L2 load — and every one is a concrete type,
//! so lowering, execution and the re-decode are monomorphized as they
//! are for x86-64. Registering the backend with an [`Engine`] is the
//! whole setup: there is no process-wide state to fill first.
//!
//! ```
//! use std::sync::Arc;
//! use vcode::engine::{Engine, Program, TargetId};
//! use vcode_sim::engine::MipsBackend;
//!
//! let mut engine = Engine::new(16);
//! engine.register(Arc::new(MipsBackend::default()));
//! let mut p = Program::new(1)?;
//! p.bin_imm(vcode::BinOp::Add, 0, 0, 1);
//! p.ret(0);
//! let plus1 = engine.compile_cached(TargetId::Mips, &p)?;
//! assert_eq!(plus1.call(&[41])?, 42);
//! # Ok::<(), vcode::EngineError>(())
//! ```
//!
//! [`Engine`]: vcode::Engine

use crate::{alpha, mips, sparc, Isa, Machine};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use vcode::engine::{lower_in_scratch, replay, Backend, EngineError, Lambda, Program, TargetId};
use vcode::{ArtifactView, InsnDecoder, PersistError, Target};

/// Guest memory given to each one-shot machine (2 MiB: code + stack).
const MEM_SIZE: usize = 1 << 21;

/// Simulator fuel for one [`Lambda::call`].
const SIM_FUEL: u64 = 50_000_000;

/// An [`Isa`] the engine compiles for: the target whose emitter writes
/// its code, the decoder an L2 load revalidates that code with, and the
/// engine's id for it.
pub trait EngineIsa: Isa + fmt::Debug + 'static {
    /// The backend crate's target.
    type Target: Target;
    /// The ISA's differential decoder.
    type Decoder: InsnDecoder + Default;
    /// The engine's id for the target.
    const ID: TargetId;
}

impl EngineIsa for mips::Cpu {
    type Target = vcode_mips::Mips;
    type Decoder = mips::Decoder;
    const ID: TargetId = TargetId::Mips;
}

impl EngineIsa for sparc::Cpu {
    type Target = vcode_sparc::Sparc;
    type Decoder = sparc::Decoder;
    const ID: TargetId = TargetId::Sparc;
}

impl EngineIsa for alpha::Cpu {
    type Target = vcode_alpha::Alpha;
    type Decoder = alpha::Decoder;
    const ID: TargetId = TargetId::Alpha;
}

/// Runtime-selectable engine adapter for a simulated ISA: replays a
/// recorded [`Program`] through `Assembler<I::Target>` into the thread's
/// lowering scratch and keeps a right-sized copy of the finished bytes,
/// which each call runs on a fresh [`Machine<I>`](Machine).
#[derive(Debug, Default)]
pub struct SimBackend<I>(PhantomData<fn() -> I>);

/// The MIPS-I engine backend.
pub type MipsBackend = SimBackend<mips::Cpu>;
/// The SPARC V8 engine backend.
pub type SparcBackend = SimBackend<sparc::Cpu>;
/// The Alpha engine backend.
pub type AlphaBackend = SimBackend<alpha::Cpu>;

impl<I: EngineIsa> Backend for SimBackend<I> {
    fn id(&self) -> TargetId {
        I::ID
    }

    fn word_bits(&self) -> u32 {
        I::Target::WORD_BITS
    }

    fn compile(&self, prog: &Program) -> Result<Arc<dyn Lambda>, EngineError> {
        let args = prog.args();
        lower_in_scratch(
            |buf| replay::<I::Target>(prog, buf),
            |code, fin| Ok(CodeImage::<I>::lambda(args, code.to_vec(), fin.insns)),
        )
    }

    fn adopt(&self, artifact: &ArtifactView<'_>) -> Result<Arc<dyn Lambda>, PersistError> {
        vcode::persist::redecode(artifact.code, &I::Decoder::default())?;
        Ok(CodeImage::<I>::lambda(
            usize::from(artifact.args),
            artifact.code.to_vec(),
            artifact.insns,
        ))
    }
}

/// Finished code for a simulated ISA: the bytes, and what a call needs
/// to run them on a fresh [`Machine<I>`](Machine).
#[derive(Debug)]
struct CodeImage<I> {
    args: usize,
    bytes: Vec<u8>,
    insns: u64,
    isa: PhantomData<fn() -> I>,
}

impl<I: EngineIsa> CodeImage<I> {
    fn lambda(args: usize, bytes: Vec<u8>, insns: u64) -> Arc<dyn Lambda> {
        Arc::new(CodeImage::<I> {
            args,
            bytes,
            insns,
            isa: PhantomData,
        })
    }
}

impl<I: EngineIsa> Lambda for CodeImage<I> {
    fn target(&self) -> TargetId {
        I::ID
    }

    fn code_len(&self) -> usize {
        self.bytes.len()
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
        // A fresh machine per call: executions are isolated, and the
        // lambda stays immutable (and trivially `Send + Sync`).
        let mut m = Machine::<I>::new(MEM_SIZE);
        let entry = m
            .load_code(&self.bytes)
            .map_err(|e| EngineError::Exec(format!("{} load: {e}", I::NAME)))?;
        m.call_i32(entry, args, SIM_FUEL)
            .map_err(|t| EngineError::Exec(t.to_string()))
    }

    fn persist_image(&self) -> Option<(usize, Vec<u8>)> {
        Some((self.args, self.bytes.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_call_with_the_wrong_arity_is_typed() {
        let mut p = Program::new(0).unwrap();
        p.set(0, 7);
        p.ret(0);
        let f = SparcBackend::default().compile(&p).unwrap();
        assert_eq!((f.target(), f.call(&[]).unwrap()), (TargetId::Sparc, 7));
        assert!(matches!(
            f.call(&[1]),
            Err(EngineError::BadArgs {
                expected: 0,
                got: 1
            })
        ));
    }
}
