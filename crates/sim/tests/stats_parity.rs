//! Cross-simulator stats parity: for a straight-line program every
//! emitted word executes exactly once, so the dynamic
//! `stats().insns_retired` must equal the static decoded count from
//! `disasm_all` — on every simulator, for the same target-independent
//! source. Divergence means a simulator is over- or under-counting
//! retirement (or the disassembler dropped a word), exactly the class
//! of drift a shared [`vcode::ExecStats`] surface exists to catch.
//!
//! The trap half mirrors the PR 1 trap-parity fixtures: the same
//! client-level misuse must not only *classify* identically (that suite)
//! but also be *tallied* identically in `stats().traps`.

use vcode::target::Leaf;
use vcode::{Assembler, RegClass, Target, TrapKind};

/// Straight-line corpus: no control flow except the return, so
/// executed count == emitted count on a delay-slot machine too (the
/// slot instruction is emitted and executed like any other).
#[derive(Debug, Clone, Copy)]
enum Program {
    /// Register-only arithmetic chain.
    Arith,
    /// Word stores then loads through the pointer argument.
    Memory,
}

fn emit<T: Target>(a: &mut Assembler<'_, T>, p: Program) {
    match p {
        Program::Arith => {
            let (x, y) = (a.arg(0), a.arg(1));
            let t = a.getreg(RegClass::Temp).expect("reg");
            a.addi(t, x, y);
            a.subii(t, t, 3);
            a.xori(t, t, x);
            a.andii(t, t, 0xff);
            a.reti(t);
        }
        Program::Memory => {
            let p = a.arg(0);
            let t = a.getreg(RegClass::Temp).expect("reg");
            a.seti(t, 0x1234);
            a.stii(t, p, 0);
            a.ldii(t, p, 0);
            a.stii(t, p, 4);
            a.ldii(t, p, 4);
            a.reti(t);
        }
    }
}

fn gen<T: Target>(p: Program) -> Vec<u8> {
    let sig = match p {
        Program::Arith => "%i%i",
        Program::Memory => "%p",
    };
    let mut mem = vec![0u8; 8192];
    let mut a = Assembler::<T>::lambda(&mut mem, sig, Leaf::Yes).expect("lambda");
    emit(&mut a, p);
    let len = a.end().expect("end").len;
    mem.truncate(len);
    mem
}

fn words(ws: &[u32]) -> Vec<u8> {
    ws.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Hand-built straight-line `add two args and return` per ISA: no
/// branch skips anything, so `stats().insns_retired` must equal both
/// `code.len() / 4` and the `disasm_all` line count exactly.
#[test]
fn retired_count_matches_decoded_count_on_every_simulator() {
    // addiu $4,$4,1; move $2,$4; jr $31; nop
    let mips = words(&[0x2484_0001, 0x0080_1025, 0x03e0_0008, 0]);
    // save %sp,-96,%sp; add %i0,%i1,%i0; ret; restore
    let sparc = words(&[
        (2u32 << 30)
            | (14 << 25)
            | (0x3c << 19)
            | (14 << 14)
            | (1 << 13)
            | ((-96i32 as u32) & 0x1fff),
        (2 << 30) | (24 << 25) | (24 << 14) | 25,
        (2 << 30) | (0x38 << 19) | (31 << 14) | (1 << 13) | 8,
        (2 << 30) | (0x3d << 19),
    ]);
    // addq a0,a1,v0; ret
    let alpha = words(&[
        (0x10u32 << 26) | (16 << 21) | (17 << 16) | (0x20 << 5),
        (0x1a << 26) | (31 << 21) | (26 << 16) | (2 << 14),
    ]);

    macro_rules! check {
        ($simmod:ident, $code:expr, $args:expr, $want:expr) => {{
            let code = $code;
            let decoded = vcode_sim::$simmod::Machine::disasm_all(&code)
                .lines()
                .count() as u64;
            assert_eq!(
                decoded,
                (code.len() / 4) as u64,
                "{}: disassembler must decode every word",
                stringify!($simmod)
            );
            let mut m = vcode_sim::$simmod::Machine::new(1 << 20);
            let entry = m.load_code(&code).unwrap();
            assert_eq!(m.call(entry, &$args, 1_000).unwrap(), $want);
            let s = m.stats();
            assert_eq!(
                s.insns_retired,
                decoded,
                "{}: dynamic retirement must equal static decoded count",
                stringify!($simmod)
            );
            assert_eq!(s.traps.total(), 0, stringify!($simmod));
            // No cache attached: cycles are pure retirement.
            assert_eq!(s.cycles, s.insns_retired, stringify!($simmod));
        }};
    }
    check!(mips, mips, [41u32], 42);
    check!(sparc, sparc, [40u32, 2], 42);
    check!(alpha, alpha, [40u64, 2], 42);
}

/// The same target-independent corpus compiled by the real `Assembler`
/// for each ISA: the prologue's spill area is branched over, so the
/// static count is an upper bound — here the parity claim is between
/// the retirement counter and the per-instruction *trace* stream, with
/// every traced word cross-checked against the static disassembly.
#[test]
fn trace_stream_agrees_with_retirement_and_disassembly() {
    use std::sync::{Arc, Mutex};

    macro_rules! check {
        ($simmod:ident, $target:ty, $prog:expr) => {{
            let prog = $prog;
            let code = gen::<$target>(prog);
            let listing = vcode_sim::$simmod::Machine::disasm_all(&code);
            assert_eq!(
                listing.lines().count(),
                code.len() / 4,
                "{} {prog:?}: disassembler must decode every word",
                stringify!($simmod)
            );
            let mut m = vcode_sim::$simmod::Machine::new(1 << 20);
            let entry = m.load_code(&code).unwrap();
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            m.set_trace(move |r: &vcode::TraceRecord| {
                sink.lock().unwrap().push(r.clone());
            });
            let args = match prog {
                Program::Arith => [40, 2],
                Program::Memory => {
                    let p = m.alloc(64, 8).unwrap();
                    [p, 0]
                }
            };
            m.call(entry, &args, 10_000).unwrap();
            let s = m.stats();
            let log = log.lock().unwrap();
            assert_eq!(
                s.insns_retired,
                log.len() as u64,
                "{} {prog:?}: every retired insn produces one trace record",
                stringify!($simmod)
            );
            for r in log.iter() {
                assert!(
                    listing.contains(r.disasm.as_str()),
                    "{} {prog:?}: traced `{}` missing from static disassembly",
                    stringify!($simmod),
                    r.disasm
                );
            }
            assert_eq!(s.traps.total(), 0, "{} {prog:?}", stringify!($simmod));
            if matches!(prog, Program::Memory) {
                assert_eq!(s.loads, 2, "{}: two word loads", stringify!($simmod));
                assert_eq!(s.stores, 2, "{}: two word stores", stringify!($simmod));
            }
        }};
    }
    for prog in [Program::Arith, Program::Memory] {
        check!(mips, vcode_mips::Mips, prog);
        check!(sparc, vcode_sparc::Sparc, prog);
        check!(alpha, vcode_alpha::Alpha, prog);
    }
}

/// The trap-parity fixtures, re-checked at the counter level: one
/// faulting run tallies exactly one trap of the unified kind, on every
/// simulator.
#[test]
fn trap_tallies_agree_with_trap_parity_fixtures() {
    // Out-of-bounds load => one BadAccess everywhere.
    fn oob<T: Target>() -> Vec<u8> {
        let mut mem = vec![0u8; 8192];
        let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).expect("lambda");
        let r = a.getreg(RegClass::Temp).expect("reg");
        a.seti(r, 0x0100_0000);
        a.ldii(r, r, 0);
        a.reti(r);
        let len = a.end().expect("end").len;
        mem.truncate(len);
        mem
    }
    // Branch-to-self under a small budget => one FuelExhausted.
    fn runaway<T: Target>() -> Vec<u8> {
        let mut mem = vec![0u8; 8192];
        let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).expect("lambda");
        let top = a.genlabel();
        a.label(top);
        a.jmp(top);
        a.retv();
        let len = a.end().expect("end").len;
        mem.truncate(len);
        mem
    }

    macro_rules! check {
        ($simmod:ident, $target:ty) => {{
            let mut m = vcode_sim::$simmod::Machine::new(1 << 20);
            let e = m.load_code(&oob::<$target>()).unwrap();
            m.call(e, &[0], 10_000).expect_err("must trap");
            let s = m.stats();
            assert_eq!(
                s.traps.count(TrapKind::BadAccess),
                1,
                "{}: one BadAccess tallied",
                stringify!($simmod)
            );
            assert_eq!(s.traps.total(), 1, stringify!($simmod));

            let mut m = vcode_sim::$simmod::Machine::new(1 << 20);
            let e = m.load_code(&runaway::<$target>()).unwrap();
            m.call(e, &[0], 5_000).expect_err("must exhaust");
            let s = m.stats();
            assert_eq!(
                s.traps.count(TrapKind::FuelExhausted),
                1,
                "{}: one FuelExhausted tallied",
                stringify!($simmod)
            );
            assert_eq!(s.traps.total(), 1, stringify!($simmod));
            assert!(
                s.insns_retired >= 4_000,
                "{}: loop ran",
                stringify!($simmod)
            );
        }};
    }
    check!(mips, vcode_mips::Mips);
    check!(sparc, vcode_sparc::Sparc);
    check!(alpha, vcode_alpha::Alpha);
}
