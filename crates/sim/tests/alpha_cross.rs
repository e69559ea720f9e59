//! Cross tests: vcode-alpha generated code executed on the Alpha
//! simulator, checked against the core's reference semantics — including
//! the paper's synthesized byte operations and software division.

use vcode::target::{JumpTarget, Leaf};
use vcode::{Assembler, Reg, RegClass, Sig, Ty};
use vcode_alpha::Alpha;
use vcode_sim::alpha::Machine;

const STEPS: u64 = 1_000_000;

fn generate(sig: &str, leaf: Leaf, f: impl FnOnce(&mut Assembler<'_, Alpha>)) -> Vec<u8> {
    let mut mem = vec![0u8; 16 * 1024];
    let mut a = Assembler::<Alpha>::lambda(&mut mem, sig, leaf).unwrap();
    f(&mut a);
    let fin = a.end().unwrap();
    mem.truncate(fin.len);
    mem
}

#[test]
fn figure1_plus1() {
    let code = generate("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.addii(x, x, 1);
        a.reti(x);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[41], STEPS).unwrap(), 42);
    assert_eq!(
        m.call(entry, &[i64::from(i32::MAX) as u64], STEPS).unwrap() as i64,
        i64::from(i32::MIN),
        "32-bit wraparound stays canonical (sign-extended)"
    );
}

#[test]
fn synthesized_byte_and_halfword_memory() {
    // The paper's §6.2 case: every sub-word width, read and write, at
    // every alignment within a quadword.
    let code = generate("%p%p", Leaf::Yes, |a| {
        let (src, dst) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        for off in 0..8 {
            a.lduci(t, src, off);
            a.stuci(t, dst, off);
        }
        a.ldci(t, src, 3);
        a.stii(t, dst, 8); // sign-extended byte as a word
        a.ldsi(t, src, 2);
        a.stii(t, dst, 12);
        a.ldusi(t, src, 4);
        a.stusi(t, dst, 16);
        a.retv();
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    let src = m.alloc(16, 8).unwrap();
    let dst = m.alloc(24, 8).unwrap();
    m.write(src, &[0x11, 0x92, 0x83, 0xf4, 0xbe, 0xef, 0x77, 0x08])
        .unwrap();
    m.call(entry, &[src, dst], STEPS).unwrap();
    assert_eq!(m.read(dst, 8).unwrap(), m.read(src, 8).unwrap());
    let w = i32::from_le_bytes(m.read(dst + 8, 4).unwrap().try_into().unwrap());
    assert_eq!(w, 0xf4u8 as i8 as i32, "signed byte");
    let h = i32::from_le_bytes(m.read(dst + 12, 4).unwrap().try_into().unwrap());
    assert_eq!(h, 0xf483u16 as i16 as i32, "signed halfword");
    let uh = u32::from_le_bytes(m.read(dst + 16, 4).unwrap().try_into().unwrap());
    assert_eq!(uh, 0xefbe, "unsigned halfword");
}

#[test]
fn division_through_runtime_support() {
    let mut m = Machine::new(1 << 20);
    for (x, y) in [(100i64, 7i64), (-100, 7), (100, -7), (1, 1), (0, 5)] {
        let code = generate("%l%l", Leaf::Yes, |a| {
            let (a0, a1) = (a.arg(0), a.arg(1));
            let q = a.getreg(RegClass::Temp).unwrap();
            let r = a.getreg(RegClass::Temp).unwrap();
            a.divl(q, a0, a1);
            a.modl(r, a0, a1);
            // pack: q * 1000 + r (small cases only)
            a.mulli(q, q, 1000);
            a.addl(q, q, r);
            a.retl(q);
        });
        let entry = m.load_code(&code).unwrap();
        let got = m.call(entry, &[x as u64, y as u64], STEPS).unwrap() as i64;
        assert_eq!(got, (x / y) * 1000 + x % y, "{x} / {y}");
    }
    assert!(m.cpu.div_calls >= 10);
}

#[test]
fn leaf_functions_stay_leaves_despite_division() {
    // Paper §5.2: emulation routines preserve caller-saved registers, so
    // a leaf function may divide without ceasing to be a leaf.
    let code = generate("%i%i%i", Leaf::Yes, |a| {
        let (x, y, z) = (a.arg(0), a.arg(1), a.arg(2));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.movi(t, z); // live across the division
        a.divi(x, x, y);
        a.addi(x, x, t);
        a.reti(x);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[100, 5, 7], STEPS).unwrap(), 27);
}

#[test]
fn doubles_and_conversions() {
    let code = generate("%d%d", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.muld(t, x, y);
        a.addd(t, t, x);
        a.retd(t);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call_f64(entry, &[3.0, 4.0], STEPS).unwrap(), 15.0);

    let code = generate("%l", Leaf::Yes, |a| {
        let x = a.arg(0);
        let f = a.getreg_f(RegClass::Temp).unwrap();
        let h = a.getreg_f(RegClass::Temp).unwrap();
        a.cvl2d(f, x);
        a.setd(h, 0.5);
        a.muld(f, f, h);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.cvd2l(r, f);
        a.retl(r);
    });
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[10], STEPS).unwrap(), 5);
    assert_eq!(m.call(entry, &[(-9i64) as u64], STEPS).unwrap() as i64, -4);
}

#[test]
fn float_branches() {
    let code = generate("%d%d", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let yes = a.genlabel();
        let r = a.getreg(RegClass::Temp).unwrap();
        a.bltd(x, y, yes);
        a.seti(r, 0);
        a.reti(r);
        a.label(yes);
        a.seti(r, 1);
        a.reti(r);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    m.cpu.fregs[16] = 1.0f64.to_bits();
    m.cpu.fregs[17] = 2.0f64.to_bits();
    m.run(entry, STEPS).unwrap();
    assert_eq!(m.cpu.regs[0], 1);
    m.cpu.fregs[16] = 2.0f64.to_bits();
    m.cpu.fregs[17] = 1.0f64.to_bits();
    m.run(entry, STEPS).unwrap();
    assert_eq!(m.cpu.regs[0], 0);
}

#[test]
fn calls_and_persistence() {
    let mut m = Machine::new(1 << 20);
    let clobber = generate("", Leaf::Yes, |a| {
        for t in 1u8..9 {
            a.setl(Reg::int(t), -1);
        }
        a.retv();
    });
    let clobber_entry = m.load_code(&clobber).unwrap();
    let caller = generate("%l", Leaf::No, |a| {
        let x = a.arg(0);
        let keep = a.getreg(RegClass::Persistent).unwrap();
        a.movl(keep, x);
        let sig = Sig::parse("").unwrap();
        let cf = a.call_begin(&sig);
        a.call_end(cf, JumpTarget::Abs(clobber_entry), None);
        a.retl(keep);
    });
    let entry = m.load_code(&caller).unwrap();
    assert_eq!(
        m.call(entry, &[0xfeed_beef_cafe], STEPS).unwrap(),
        0xfeed_beef_cafe
    );
}

#[test]
fn marshaled_call_with_mixed_args() {
    let mut m = Machine::new(1 << 20);
    let callee = generate("%l%d%l", Leaf::Yes, |a| {
        let (x, d, y) = (a.arg(0), a.arg(1), a.arg(2));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.cvd2l(t, d);
        a.addl(t, t, x);
        a.addl(t, t, y);
        a.retl(t);
    });
    let callee_entry = m.load_code(&callee).unwrap();
    let caller = generate("%l", Leaf::No, |a| {
        let x = a.arg(0);
        let d = a.getreg_f(RegClass::Temp).unwrap();
        a.setd(d, 10.0);
        let hundred = a.getreg(RegClass::Temp).unwrap();
        a.setl(hundred, 100);
        let sig = Sig::parse("%l%d%l:%l").unwrap();
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::L, x);
        a.call_arg(&mut cf, 1, Ty::D, d);
        a.call_arg(&mut cf, 2, Ty::L, hundred);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.call_end(cf, JumpTarget::Abs(callee_entry), Some(r));
        a.retl(r);
    });
    let entry = m.load_code(&caller).unwrap();
    assert_eq!(m.call(entry, &[5], STEPS).unwrap(), 115);
}

#[test]
fn loops_and_large_immediates() {
    let code = generate("%l", Leaf::Yes, |a| {
        let n = a.arg(0);
        let sum = a.getreg(RegClass::Temp).unwrap();
        let i = a.getreg(RegClass::Temp).unwrap();
        a.setl(sum, 0);
        a.setl(i, 0);
        let top = a.genlabel();
        let done = a.genlabel();
        a.label(top);
        a.bgel(i, n, done);
        a.addl(sum, sum, i);
        a.addli(i, i, 1);
        a.jmp(top);
        a.label(done);
        // Add a constant that needs the full 64-bit materialization.
        a.addli(sum, sum, 0x1234_5678_9abc_def0);
        a.retl(sum);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(
        m.call(entry, &[100], STEPS).unwrap(),
        4950u64.wrapping_add(0x1234_5678_9abc_def0)
    );
}

#[test]
fn float_constants_and_single_precision() {
    let code = generate("%f%f", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.mulf(t, x, y);
        let half = a.getreg_f(RegClass::Temp).unwrap();
        a.setf(half, 0.5);
        a.addf(t, t, half);
        a.retf(t);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    m.cpu.fregs[16] = f64::from(3.0f32).to_bits();
    m.cpu.fregs[17] = f64::from(4.0f32).to_bits();
    m.run(entry, STEPS).unwrap();
    assert_eq!(f64::from_bits(m.cpu.fregs[0]), 12.5);
}

#[test]
fn disassembler_names_generated_instructions() {
    let code = generate("%p%i", Leaf::Yes, |a| {
        let (p, v) = (a.arg(0), a.arg(1));
        a.stuci(v, p, 3);
        a.addii(v, v, 1);
        a.reti(v);
    });
    let text = Machine::disasm_all(&code);
    for needle in [
        "lda", "ldq_u", "insbl", "mskbl", "bis", "stq_u", "addl", "ret",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}
