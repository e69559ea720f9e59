//! Unified execution-trap taxonomy and fuel limits.
//!
//! The paper's contract is that misuse "signals an error" rather than
//! corrupting state (§5.2). Generation-time misuse surfaces as
//! [`Error`](crate::Error); this module extends the contract to *run*
//! time. Every way a generated function can stop abnormally — on the
//! MIPS/SPARC/Alpha instruction-set simulators or natively on x86-64
//! under a guarded call — is folded into one [`Trap`] value with a
//! machine-independent [`TrapKind`], so clients handle "the generated
//! code faulted" uniformly across backends, and differential tests can
//! assert that all backends classify the same fault the same way.
//!
//! Runaway execution is a fault like any other: [`Fuel`] makes step and
//! wall-clock limits first-class, and exhausting either surfaces as
//! [`TrapKind::FuelExhausted`] instead of a hang.

use std::fmt;
use std::time::Duration;

/// Machine-independent classification of an execution trap.
///
/// The simulators (`vcode_sim::Machine`) raise [`Trap`]s of this kind
/// directly; native traps (`vcode_x64::NativeTrap`) convert into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrapKind {
    /// A load or store touched memory outside the legal region
    /// (simulator bounds, native SIGSEGV/SIGBUS).
    BadAccess,
    /// A load or store was misaligned for its width.
    Unaligned,
    /// Control flow left the code region (simulator PC check); native
    /// executions report such escapes as [`TrapKind::BadAccess`] or
    /// [`TrapKind::IllegalInsn`] depending on where the PC lands.
    BadPc,
    /// The processor could not decode or execute an instruction
    /// (simulator decode failure, native SIGILL).
    IllegalInsn,
    /// An arithmetic fault such as integer division by zero (native
    /// SIGFPE; the simulators' divide helpers report the same way).
    ArithFault,
    /// The step or wall-clock budget in [`Fuel`] ran out — a runaway
    /// loop, converted into a typed error instead of a hang.
    FuelExhausted,
    /// A target-specific scheduling hazard (e.g. a MIPS load-delay
    /// violation, a SPARC register-window overflow) that strict
    /// simulation reports.
    ScheduleHazard,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrapKind::BadAccess => "bad memory access",
            TrapKind::Unaligned => "unaligned access",
            TrapKind::BadPc => "pc outside code",
            TrapKind::IllegalInsn => "illegal instruction",
            TrapKind::ArithFault => "arithmetic fault",
            TrapKind::FuelExhausted => "fuel exhausted",
            TrapKind::ScheduleHazard => "scheduling hazard",
        };
        f.write_str(s)
    }
}

/// A typed execution trap: what went wrong, where, and on which backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    /// The machine-independent classification.
    pub kind: TrapKind,
    /// The faulting address (data address for access faults, PC for
    /// control-flow faults) when the backend can report one.
    pub addr: Option<u64>,
    /// The reporting backend (`"mips"`, `"sparc"`, `"alpha"`,
    /// `"x86-64"`), for diagnostics in differential tests.
    pub backend: &'static str,
}

impl Trap {
    /// Creates a trap with no address information.
    pub fn new(kind: TrapKind, backend: &'static str) -> Trap {
        Trap {
            kind,
            addr: None,
            backend,
        }
    }

    /// Creates a trap with a faulting address.
    pub fn at(kind: TrapKind, addr: u64, backend: &'static str) -> Trap {
        Trap {
            kind,
            addr: Some(addr),
            backend,
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} trap: {}", self.backend, self.kind)?;
        if let Some(a) = self.addr {
            write!(f, " at {a:#x}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Trap {}

/// Any way producing *or* running a generated function can fail.
///
/// Clients that compile and execute (DPF, ASH, the fault-injection
/// harness) report through this one type: generation errors, executable-
/// memory errors, and runtime traps, so a caller can implement a
/// degradation ladder (retry with more storage on
/// [`Error::Overflow`](crate::Error::Overflow), fall back to an
/// interpreter on anything else) against a single taxonomy.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// Code generation failed (latched by `Assembler::end`).
    Codegen(crate::Error),
    /// Executable memory could not be obtained or protected.
    Mem(std::io::Error),
    /// The generated code ran and trapped.
    Trap(Trap),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Codegen(e) => write!(f, "code generation: {e}"),
            ExecError::Mem(e) => write!(f, "executable memory: {e}"),
            ExecError::Trap(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Codegen(e) => Some(e),
            ExecError::Mem(e) => Some(e),
            ExecError::Trap(t) => Some(t),
        }
    }
}

impl From<crate::Error> for ExecError {
    fn from(e: crate::Error) -> ExecError {
        ExecError::Codegen(e)
    }
}

impl From<Trap> for ExecError {
    fn from(t: Trap) -> ExecError {
        ExecError::Trap(t)
    }
}

/// First-class execution budget for generated code.
///
/// Simulated backends charge `steps`; the native backend arms a
/// wall-clock watchdog from `time`. Exhausting either raises
/// [`TrapKind::FuelExhausted`] — a runaway loop in generated code
/// degrades into a typed error, never a hang.
///
/// # Examples
///
/// ```
/// use vcode::trap::Fuel;
/// let f = Fuel::DEFAULT;
/// assert!(f.steps > 0 && !f.time.is_zero());
/// let tight = Fuel::steps(10_000);
/// assert_eq!(tight.steps, 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    /// Maximum simulated instructions (simulator backends).
    pub steps: u64,
    /// Maximum wall-clock time (native backend watchdog).
    pub time: Duration,
}

impl Fuel {
    /// A budget generous enough for any test workload while still
    /// bounding runaway loops (1M steps / 2 s).
    pub const DEFAULT: Fuel = Fuel {
        steps: 1_000_000,
        time: Duration::from_secs(2),
    };

    /// A budget limited by step count, with the default time allowance.
    pub fn steps(steps: u64) -> Fuel {
        Fuel {
            steps,
            ..Fuel::DEFAULT
        }
    }

    /// A budget limited by wall-clock time, with the default step count.
    pub fn time(time: Duration) -> Fuel {
        Fuel {
            time,
            ..Fuel::DEFAULT
        }
    }
}

impl Default for Fuel {
    fn default() -> Fuel {
        Fuel::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_backend_and_address() {
        let t = Trap::at(TrapKind::BadAccess, 0xdead, "mips");
        assert_eq!(t.to_string(), "mips trap: bad memory access at 0xdead");
        let t = Trap::new(TrapKind::FuelExhausted, "x86-64");
        assert_eq!(t.to_string(), "x86-64 trap: fuel exhausted");
    }

    #[test]
    fn exec_error_wraps_all_layers() {
        let e: ExecError = crate::Error::Overflow { capacity: 16 }.into();
        assert!(matches!(e, ExecError::Codegen(_)));
        assert!(e.to_string().contains("code generation"));
        let e: ExecError = Trap::new(TrapKind::IllegalInsn, "alpha").into();
        assert!(matches!(e, ExecError::Trap(_)));
        let e = ExecError::Mem(std::io::Error::from_raw_os_error(12));
        assert!(e.to_string().contains("executable memory"));
    }

    #[test]
    fn fuel_constructors() {
        assert_eq!(Fuel::default(), Fuel::DEFAULT);
        assert_eq!(Fuel::steps(5).steps, 5);
        assert_eq!(Fuel::steps(5).time, Fuel::DEFAULT.time);
        assert_eq!(
            Fuel::time(Duration::from_millis(7)).time,
            Duration::from_millis(7)
        );
    }
}
