//! The paper's automatically generated regression tests for instruction
//! mappings (§3.3, §6.1), written once for the three simulated ISAs: each
//! case of `vcode::regress` is emitted through a backend's `Target`
//! hooks, run on that ISA's simulator, and compared with the core's
//! reference semantics.

use vcode::regress;
use vcode::target::{Leaf, Target};
use vcode::{Assembler, BrOperand, Reg, RegClass, Ty};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sim::{alpha, mips, sparc, Isa, Machine, Word};
use vcode_sparc::Sparc;

const STEPS: u64 = 1_000_000;

/// A backend, the simulator that runs it, and how its suite samples
/// the case tables.
trait Suite: Target {
    type Isa: Isa;
    /// Register width the cases are generated for.
    const BITS: u32;
    /// Seed of `binop_cases(BITS, 2, _)`.
    const BINOP_SEED: u64;
    /// Seed of `binop_cases(BITS, 1, _)` and the step it is sampled by.
    const IMM: (u64, usize);
    /// The step `branch_cases` is sampled by.
    const BRANCH_STEP: usize;
    /// Whether a register binop writes its first source (`x = x op y`)
    /// rather than a fresh temporary.
    const BINOP_INTO_FIRST_ARG: bool = false;
    fn machine() -> Machine<Self::Isa>;
}

impl Suite for Mips {
    type Isa = mips::Cpu;
    const BITS: u32 = 32;
    const BINOP_SEED: u64 = 0xfeed;
    const IMM: (u64, usize) = (3, 3);
    const BRANCH_STEP: usize = 5;
    const BINOP_INTO_FIRST_ARG: bool = true;
    fn machine() -> mips::Machine {
        let mut m = mips::Machine::new(1 << 22);
        m.cpu.strict_load_delay = true;
        m
    }
}

impl Suite for Sparc {
    type Isa = sparc::Cpu;
    const BITS: u32 = 32;
    const BINOP_SEED: u64 = 0xace;
    const IMM: (u64, usize) = (5, 4);
    const BRANCH_STEP: usize = 7;
    fn machine() -> sparc::Machine {
        sparc::Machine::new(1 << 22)
    }
}

impl Suite for Alpha {
    type Isa = alpha::Cpu;
    const BITS: u32 = 64;
    const BINOP_SEED: u64 = 0xa1fa;
    const IMM: (u64, usize) = (0x77, 5);
    const BRANCH_STEP: usize = 7;
    fn machine() -> alpha::Machine {
        alpha::Machine::new(1 << 23)
    }
}

fn ret_typed<T: Target>(a: &mut Assembler<'_, T>, ty: Ty, r: Reg) {
    match ty {
        Ty::I => a.reti(r),
        Ty::U => a.retu(r),
        Ty::L => a.retl(r),
        Ty::Ul => a.retul(r),
        Ty::P => a.retp(r),
        _ => panic!("int type expected"),
    }
}

/// Emits `body` over word-sized arguments — on a 64-bit target the
/// 32-bit types are sign-extended first, as they arrive canonical — then
/// loads it on `m` and calls it with `args`: `(result, code)`.
fn run<S: Suite>(
    m: &mut Machine<S::Isa>,
    ty: Ty,
    args: &[u64],
    body: impl FnOnce(&mut Assembler<'_, S>, &[Reg]),
) -> (u64, Vec<u8>) {
    let sig = if S::BITS == 64 { "%l" } else { "%i" }.repeat(args.len());
    let mut code = vec![0u8; 16 * 1024];
    let mut a = Assembler::<S>::lambda(&mut code, &sig, Leaf::Yes).unwrap();
    let xs: Vec<Reg> = (0..args.len()).map(|i| a.arg(i)).collect();
    if S::BITS == 64 && matches!(ty, Ty::I | Ty::U) {
        for &x in &xs {
            S::emit_cvt(a.raw(), Ty::L, Ty::I, x, x);
        }
    }
    body(&mut a, &xs);
    let len = a.end().unwrap().len;
    code.truncate(len);
    let entry = m.load_code(&code).unwrap();
    let args: Vec<_> = args.iter().map(|&v| Word::wrap(v)).collect();
    let got = m.call(entry, &args, STEPS).unwrap();
    (got.into(), code)
}

fn canon<S: Suite>(ty: Ty, v: u64) -> u64 {
    regress::canon(ty, v, S::BITS)
}

fn binops<S: Suite>() -> usize {
    let cases = regress::binop_cases(S::BITS, 2, S::BINOP_SEED);
    let mut m = S::machine();
    for c in &cases {
        let (got, _) = run::<S>(&mut m, c.ty, &[c.a, c.b], |a, x| {
            let d = if S::BINOP_INTO_FIRST_ARG {
                x[0]
            } else {
                a.getreg(RegClass::Temp).unwrap()
            };
            S::emit_binop(a.raw(), c.op, c.ty, d, x[0], x[1]);
            ret_typed(a, c.ty, d);
        });
        assert_eq!(
            canon::<S>(c.ty, got),
            canon::<S>(c.ty, c.expect),
            "{}: {:?}.{:?}({:#x}, {:#x}) got {got:#x}",
            S::Isa::NAME,
            c.op,
            c.ty,
            c.a,
            c.b
        );
    }
    cases.len()
}

fn binop_immediates<S: Suite>() -> usize {
    let (seed, step) = S::IMM;
    let cases: Vec<_> = regress::binop_cases(S::BITS, 1, seed)
        .into_iter()
        .step_by(step)
        .collect();
    let mut m = S::machine();
    for c in &cases {
        // A 32-bit target takes the immediate as the 32-bit value it is.
        let imm = if S::BITS == 32 {
            i64::from(c.b as i32)
        } else {
            c.b as i64
        };
        let (got, code) = run::<S>(&mut m, c.ty, &[c.a], |a, x| {
            let d = a.getreg(RegClass::Temp).unwrap();
            S::emit_binop_imm(a.raw(), c.op, c.ty, d, x[0], imm);
            ret_typed(a, c.ty, d);
        });
        assert_eq!(
            canon::<S>(c.ty, got),
            canon::<S>(c.ty, c.expect),
            "{}: {:?}.{:?}({:#x}, imm {:#x}) got {got:#x}\n{}",
            S::Isa::NAME,
            c.op,
            c.ty,
            c.a,
            c.b,
            Machine::<S::Isa>::disasm_all(&code)
        );
    }
    cases.len()
}

fn unops<S: Suite>() -> usize {
    let cases = regress::unop_cases(S::BITS);
    let mut m = S::machine();
    for c in &cases {
        let (got, _) = run::<S>(&mut m, c.ty, &[c.a], |a, x| {
            let d = a.getreg(RegClass::Temp).unwrap();
            S::emit_unop(a.raw(), c.op, c.ty, d, x[0]);
            ret_typed(a, c.ty, d);
        });
        assert_eq!(
            canon::<S>(c.ty, got),
            canon::<S>(c.ty, c.expect),
            "{}: {:?}.{:?}({:#x})",
            S::Isa::NAME,
            c.op,
            c.ty,
            c.a
        );
    }
    cases.len()
}

fn branches<S: Suite>() -> usize {
    let cases: Vec<_> = regress::branch_cases(S::BITS)
        .into_iter()
        .step_by(S::BRANCH_STEP)
        .collect();
    let mut m = S::machine();
    for c in &cases {
        let (got, code) = run::<S>(&mut m, c.ty, &[c.a, c.b], |a, x| {
            let taken = a.genlabel();
            let r = a.getreg(RegClass::Temp).unwrap();
            S::emit_branch(a.raw(), c.cond, c.ty, x[0], BrOperand::R(x[1]), taken);
            a.seti(r, 0);
            a.reti(r);
            a.label(taken);
            a.seti(r, 1);
            a.reti(r);
        });
        assert_eq!(
            got != 0,
            c.taken,
            "{}: {:?}.{:?}({:#x}, {:#x})\n{}",
            S::Isa::NAME,
            c.cond,
            c.ty,
            c.a,
            c.b,
            Machine::<S::Isa>::disasm_all(&code)
        );
    }
    cases.len()
}

/// Runs one suite on every ISA and prints its per-target case counts.
macro_rules! on_every_isa {
    ($suite:ident) => {
        println!(
            "{}: mips {} sparc {} alpha {}",
            stringify!($suite),
            $suite::<Mips>(),
            $suite::<Sparc>(),
            $suite::<Alpha>()
        )
    };
}

#[test]
fn regression_binops() {
    on_every_isa!(binops);
}

#[test]
fn regression_binop_immediates() {
    on_every_isa!(binop_immediates);
}

#[test]
fn regression_unops() {
    on_every_isa!(unops);
}

#[test]
fn regression_branches() {
    on_every_isa!(branches);
}
