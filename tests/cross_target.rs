//! Workspace integration: the retargetability property. Randomly
//! generated straight-line VCODE programs must compute the same result
//! on all four targets — x86-64 executed natively, MIPS/SPARC/Alpha on
//! their instruction-set simulators.

use vcode::regress::XorShift;
use vcode::target::Leaf;
use vcode::{Assembler, Reg, RegClass, Target};
use vcode_sim::{alpha, mips, sparc, Isa, Machine};
use vcode_x64::ExecMem;

/// One step of a random straight-line program over three int registers.
#[derive(Debug, Clone)]
enum Step {
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    AddI(u8, u8, i32),
    Xor(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    ShlI(u8, u8, u8),
    ShrI(u8, u8, u8),
    Neg(u8, u8),
    Com(u8, u8),
    Set(u8, i32),
    // A compare-and-skip: if r[a] < r[b] skip the next setting of r[c].
    CmovLt(u8, u8, u8),
}

fn random_step(rng: &mut XorShift) -> Step {
    let r = |rng: &mut XorShift| rng.below(3) as u8;
    match rng.below(13) {
        0 => Step::Add(r(rng), r(rng), r(rng)),
        1 => Step::Sub(r(rng), r(rng), r(rng)),
        2 => Step::Mul(r(rng), r(rng), r(rng)),
        3 => Step::AddI(r(rng), r(rng), rng.range(0, 2000) as i32 - 1000),
        4 => Step::Xor(r(rng), r(rng), r(rng)),
        5 => Step::And(r(rng), r(rng), r(rng)),
        6 => Step::Or(r(rng), r(rng), r(rng)),
        7 => Step::ShlI(r(rng), r(rng), rng.below(31) as u8),
        8 => Step::ShrI(r(rng), r(rng), rng.below(31) as u8),
        9 => Step::Neg(r(rng), r(rng)),
        10 => Step::Com(r(rng), r(rng)),
        11 => Step::Set(r(rng), rng.next_u64() as i32),
        _ => Step::CmovLt(r(rng), r(rng), r(rng)),
    }
}

/// Emits the program for any target.
fn emit<T: Target>(a: &mut Assembler<'_, T>, steps: &[Step]) {
    let (x, y) = (a.arg(0), a.arg(1));
    let r: Vec<Reg> = (0..3)
        .map(|_| a.getreg(RegClass::Temp).expect("reg"))
        .collect();
    a.movi(r[0], x);
    a.movi(r[1], y);
    a.xori(r[2], x, y);
    for s in steps {
        match *s {
            Step::Add(d, p, q) => a.addi(r[d as usize], r[p as usize], r[q as usize]),
            Step::Sub(d, p, q) => a.subi(r[d as usize], r[p as usize], r[q as usize]),
            Step::Mul(d, p, q) => a.muli(r[d as usize], r[p as usize], r[q as usize]),
            Step::AddI(d, p, k) => a.addii(r[d as usize], r[p as usize], i64::from(k)),
            Step::Xor(d, p, q) => a.xori(r[d as usize], r[p as usize], r[q as usize]),
            Step::And(d, p, q) => a.andi(r[d as usize], r[p as usize], r[q as usize]),
            Step::Or(d, p, q) => a.ori(r[d as usize], r[p as usize], r[q as usize]),
            Step::ShlI(d, p, k) => a.lshii(r[d as usize], r[p as usize], i64::from(k)),
            Step::ShrI(d, p, k) => a.rshii(r[d as usize], r[p as usize], i64::from(k)),
            Step::Neg(d, p) => a.negi(r[d as usize], r[p as usize]),
            Step::Com(d, p) => a.comi(r[d as usize], r[p as usize]),
            Step::Set(d, k) => a.seti(r[d as usize], k),
            Step::CmovLt(p, q, d) => {
                let skip = a.genlabel();
                a.blti(r[p as usize], r[q as usize], skip);
                a.seti(r[d as usize], 0x5a5a);
                a.label(skip);
            }
        }
    }
    // Mix all three into the result.
    a.xori(r[0], r[0], r[1]);
    a.addi(r[0], r[0], r[2]);
    a.reti(r[0]);
}

fn run_all(steps: &[Step], x: i32, y: i32) -> (i32, i32, i32, i32) {
    // Native.
    let mut mem = ExecMem::new(64 * 1024).expect("mmap");
    let mut a =
        Assembler::<vcode_x64::X64>::lambda(mem.as_mut_slice(), "%i%i", Leaf::Yes).expect("x64");
    emit(&mut a, steps);
    a.end().expect("end");
    let code = mem.finalize().expect("mprotect");
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let f: extern "C" fn(i32, i32) -> i32 = unsafe { code.as_fn() };
    let native = f(x, y);
    (
        native,
        on_sim::<vcode_mips::Mips, mips::Cpu>(steps, x, y),
        on_sim::<vcode_sparc::Sparc, sparc::Cpu>(steps, x, y),
        on_sim::<vcode_alpha::Alpha, alpha::Cpu>(steps, x, y),
    )
}

/// Emits the program for `T` and runs it on `I`'s simulator.
fn on_sim<T: Target, I: Isa>(steps: &[Step], x: i32, y: i32) -> i32 {
    let mut mem = vec![0u8; 64 * 1024];
    let mut a = Assembler::<T>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
    emit(&mut a, steps);
    let len = a.end().unwrap().len;
    let mut m = Machine::<I>::new(1 << 21);
    let e = m.load_code(&mem[..len]).unwrap();
    m.call_i32(e, &[x, y], 1_000_000).expect(I::NAME) as i32
}

#[test]
fn all_targets_agree() {
    let mut rng = XorShift::new(0xc805);
    for case in 0..48 {
        let n = rng.range(1, 24) as usize;
        let steps: Vec<Step> = (0..n).map(|_| random_step(&mut rng)).collect();
        let x = rng.next_u64() as i32;
        let y = rng.next_u64() as i32;
        let (native, mips, sparc, alpha) = run_all(&steps, x, y);
        assert_eq!(native, mips, "case {case}: x64 vs mips on {steps:?}");
        assert_eq!(native, sparc, "case {case}: x64 vs sparc on {steps:?}");
        assert_eq!(native, alpha, "case {case}: x64 vs alpha on {steps:?}");
    }
}

#[test]
fn fixed_seed_smoke() {
    let steps = vec![
        Step::Add(0, 0, 1),
        Step::Mul(2, 0, 2),
        Step::CmovLt(0, 1, 2),
        Step::ShrI(1, 2, 7),
        Step::Com(0, 1),
    ];
    let (n, m, s, a) = run_all(&steps, 1234, -99);
    assert_eq!(n, m);
    assert_eq!(n, s);
    assert_eq!(n, a);
}
