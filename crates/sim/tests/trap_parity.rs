//! Cross-simulator trap parity: the same client-level misuse —
//! out-of-bounds access, misaligned access, runaway loop, a jump out of
//! the code, an undecodable word — must raise the same [`vcode::Trap`]
//! kind at the same address on MIPS, SPARC and Alpha.

use vcode::target::Leaf;
use vcode::{Assembler, RegClass, Target, Trap, TrapKind};
use vcode_sim::{alpha, mips, sparc, Isa, Machine};

/// The faulting programs, expressed target-independently.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Load from a 4 KiB-aligned address far outside simulated memory.
    OutOfBounds,
    /// Load a word from address 2 (in bounds, misaligned).
    Misaligned,
    /// Branch-to-self, run under a small step budget.
    RunawayLoop,
    /// Jump through a register to [`OUTSIDE`], past the loaded code.
    JumpOutOfCode,
    /// A lone [`ILLEGAL`] word in place of a function.
    IllegalWord,
}

/// An address well past the code and inside no simulated memory.
const OUTSIDE: u64 = 0x0100_0000;

/// A word no simulator decodes: primary opcode 0x3c on MIPS and Alpha,
/// a memory op with `op3 = 0x3f` on SPARC.
const ILLEGAL: u32 = 0xf1f8_0000;

fn emit<T: Target>(a: &mut Assembler<'_, T>, fault: Fault) {
    let r = a.getreg(RegClass::Temp).expect("reg");
    match fault {
        Fault::OutOfBounds => {
            a.seti(r, OUTSIDE as i32);
            a.ldii(r, r, 0);
        }
        Fault::Misaligned => {
            a.seti(r, 2);
            a.ldii(r, r, 0);
        }
        Fault::RunawayLoop => {
            let top = a.genlabel();
            a.label(top);
            a.jmp(top);
        }
        Fault::JumpOutOfCode => {
            a.seti(r, OUTSIDE as i32);
            a.jmp_reg(r);
        }
        Fault::IllegalWord => unreachable!("not generated"),
    }
    a.reti(r);
}

/// Runs the faulting program on `I`'s simulator: the trap and the entry.
fn run<T: Target, I: Isa>(fault: Fault) -> (Trap, u64) {
    let code = match fault {
        Fault::IllegalWord => ILLEGAL.to_le_bytes().to_vec(),
        _ => {
            let mut mem = vec![0u8; 8192];
            let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).expect("lambda");
            emit(&mut a, fault);
            let len = a.end().expect("end").len;
            mem.truncate(len);
            mem
        }
    };
    let steps = match fault {
        Fault::RunawayLoop => 10_000,
        _ => 1_000_000,
    };
    let mut m = Machine::<I>::new(1 << 21);
    let entry = m.load_code(&code).unwrap();
    let t = m.call_i32(entry, &[0], steps).expect_err(I::NAME);
    (t, entry.into())
}

/// The faulting program on all three simulators.
fn run_all(fault: Fault) -> [(Trap, u64); 3] {
    [
        run::<vcode_mips::Mips, mips::Cpu>(fault),
        run::<vcode_sparc::Sparc, sparc::Cpu>(fault),
        run::<vcode_alpha::Alpha, alpha::Cpu>(fault),
    ]
}

#[test]
fn out_of_bounds_access_is_bad_access_everywhere() {
    for (t, _) in run_all(Fault::OutOfBounds) {
        assert_eq!(t.kind, TrapKind::BadAccess, "{t}");
        assert_eq!(t.addr, Some(OUTSIDE), "{t}");
    }
}

#[test]
fn misaligned_access_is_unaligned_everywhere() {
    for (t, _) in run_all(Fault::Misaligned) {
        assert_eq!(t.kind, TrapKind::Unaligned, "{t}");
        assert_eq!(t.addr, Some(2), "{t}");
    }
}

#[test]
fn runaway_loop_is_fuel_exhausted_everywhere() {
    for (t, _) in run_all(Fault::RunawayLoop) {
        assert_eq!(t.kind, TrapKind::FuelExhausted, "{t}");
    }
}

#[test]
fn jump_out_of_code_is_bad_pc_everywhere() {
    for (t, _) in run_all(Fault::JumpOutOfCode) {
        assert_eq!(t.kind, TrapKind::BadPc, "{t}");
        assert_eq!(t.addr, Some(OUTSIDE), "{t}");
    }
}

#[test]
fn undecodable_word_is_illegal_insn_everywhere() {
    for (t, entry) in run_all(Fault::IllegalWord) {
        assert_eq!(t.kind, TrapKind::IllegalInsn, "{t}");
        assert_eq!(t.addr, Some(entry), "{t}");
    }
}

#[test]
fn backend_names_distinguish_reporters() {
    let names = run_all(Fault::OutOfBounds).map(|(t, _)| t.backend);
    assert_eq!(names, ["mips", "sparc", "alpha"]);
}
