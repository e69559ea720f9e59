//! Engine glue: a process-wide [`SimExecutor`] that runs the byte images
//! produced by the RISC backend adapters on the matching simulator.
//!
//! The core `vcode::engine` layer is deliberately ignorant of the
//! simulators (backend crates must not depend on `vcode-sim`, and this
//! crate must not depend on the backends). [`install`] closes the loop at
//! runtime: it registers one [`SimRunner`] for each simulated ISA — and
//! each ISA's differential decoder with the persistent cache, so stored
//! artifacts for simulated targets can be revalidated on load — after
//! which `Lambda::call` on a MIPS/SPARC/Alpha [`CodeImage`] loads the
//! code into a fresh machine and executes it.

use crate::{alpha, mips, sparc, Isa, Machine};
use vcode::engine::{self, EngineError, SimExecutor, TargetId};

/// Guest memory given to each one-shot machine (2 MiB: code + stack).
const MEM_SIZE: usize = 1 << 21;

/// Runs engine code images on the `vcode-sim` machines.
///
/// Each call builds a fresh machine, so executions are isolated and the
/// runner itself is stateless (and trivially `Send + Sync`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRunner;

impl SimExecutor for SimRunner {
    fn run(
        &self,
        target: TargetId,
        code: &[u8],
        args: &[i32],
        fuel: u64,
    ) -> Result<i64, EngineError> {
        match target {
            TargetId::Mips => run_on::<mips::Cpu>(code, args, fuel),
            TargetId::Sparc => run_on::<sparc::Cpu>(code, args, fuel),
            TargetId::Alpha => run_on::<alpha::Cpu>(code, args, fuel),
            TargetId::X64 => Err(EngineError::Exec(
                "x64 executes natively, not on a simulator".into(),
            )),
        }
    }
}

/// Loads `code` into a fresh machine and calls it under the engine's
/// `i32` convention.
fn run_on<I: Isa>(code: &[u8], args: &[i32], fuel: u64) -> Result<i64, EngineError> {
    let mut m = Machine::<I>::new(MEM_SIZE);
    let entry = m
        .load_code(code)
        .map_err(|e| EngineError::Exec(format!("{} load: {e}", I::NAME)))?;
    m.call_i32(entry, args, fuel)
        .map_err(|t| EngineError::Exec(t.to_string()))
}

/// Installs a [`SimRunner`] as the executor for all three simulated ISAs
/// and registers each ISA's differential decoder with the persistent
/// cache (artifact revalidation needs an independent decode path).
/// Idempotent; call once near startup (or from each test that executes
/// simulated lambdas).
pub fn install() {
    let runner = std::sync::Arc::new(SimRunner);
    engine::set_executor(TargetId::Mips, runner.clone());
    engine::set_executor(TargetId::Sparc, runner.clone());
    engine::set_executor(TargetId::Alpha, runner);
    vcode::persist::set_decoder(TargetId::Mips, std::sync::Arc::new(mips::Decoder));
    vcode::persist::set_decoder(TargetId::Sparc, std::sync::Arc::new(sparc::Decoder));
    vcode::persist::set_decoder(TargetId::Alpha, std::sync::Arc::new(alpha::Decoder));
}
