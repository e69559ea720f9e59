//! Cross tests: vcode-sparc generated code executed on the SPARC
//! simulator, checked against the core's reference semantics.

use vcode::target::{JumpTarget, Leaf};
use vcode::{Assembler, Reg, RegClass, Sig, Ty};
use vcode_sim::sparc::Machine;
use vcode_sparc::Sparc;

const STEPS: u64 = 1_000_000;

fn generate(sig: &str, leaf: Leaf, f: impl FnOnce(&mut Assembler<'_, Sparc>)) -> Vec<u8> {
    let mut mem = vec![0u8; 16 * 1024];
    let mut a = Assembler::<Sparc>::lambda(&mut mem, sig, leaf).unwrap();
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
}

#[test]
fn memory_and_loop() {
    // Sum n ints from an array.
    let code = generate("%p%i", Leaf::Yes, |a| {
        let (p, n) = (a.arg(0), a.arg(1));
        let sum = a.getreg(RegClass::Temp).unwrap();
        let i = a.getreg(RegClass::Temp).unwrap();
        let t = a.getreg(RegClass::Temp).unwrap();
        a.seti(sum, 0);
        a.seti(i, 0);
        let top = a.genlabel();
        let done = a.genlabel();
        a.label(top);
        a.bgei(i, n, done);
        a.lshii(t, i, 2);
        a.ldi(t, p, t);
        a.addi(sum, sum, t);
        a.addii(i, i, 1);
        a.jmp(top);
        a.label(done);
        a.reti(sum);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    let addr = m.alloc(64, 8).unwrap();
    for k in 0..10u32 {
        m.write(addr + 4 * k, &(k * 3).to_le_bytes()).unwrap();
    }
    assert_eq!(m.call(entry, &[addr, 10], STEPS).unwrap(), 135);
}

#[test]
fn subword_memory() {
    let code = generate("%p%p", Leaf::Yes, |a| {
        let (src, dst) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.ldci(t, src, 0);
        a.stci(t, dst, 0);
        a.lduci(t, src, 1);
        a.stuci(t, dst, 1);
        a.ldsi(t, src, 2);
        a.stsi(t, dst, 2);
        a.ldusi(t, src, 4);
        a.stusi(t, dst, 4);
        a.retv();
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    let src = m.alloc(8, 8).unwrap();
    let dst = m.alloc(8, 8).unwrap();
    m.write(src, &[0x80, 0xff, 0x12, 0x92, 0xbe, 0xef, 0, 0])
        .unwrap();
    m.call(entry, &[src, dst], STEPS).unwrap();
    assert_eq!(m.read(dst, 6).unwrap(), m.read(src, 6).unwrap());
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

    let code = generate("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let f = a.getreg_f(RegClass::Temp).unwrap();
        let h = a.getreg_f(RegClass::Temp).unwrap();
        a.cvi2d(f, x);
        a.setd(h, 0.5);
        a.muld(f, f, h);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.cvd2i(r, f);
        a.reti(r);
    });
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[10], STEPS).unwrap(), 5);
    assert_eq!(m.call(entry, &[(-9i32) as u32], STEPS).unwrap() as i32, -4);
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
    m.call_f64(entry, &[1.0, 2.0], STEPS).unwrap();
    // %i0 of the halted frame holds the int result.
    m.call(entry, &[], STEPS).unwrap(); // smoke: runs to completion
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    let b = v(&mut m, entry, 1.0, 2.0);
    assert_eq!(b, 1);
    let b = v(&mut m, entry, 2.0, 1.0);
    assert_eq!(b, 0);
    fn v(m: &mut Machine, entry: u32, x: f64, y: f64) -> u32 {
        let bx = x.to_bits();
        let by = y.to_bits();
        m.cpu.fregs[2] = bx as u32;
        m.cpu.fregs[3] = (bx >> 32) as u32;
        m.cpu.fregs[4] = by as u32;
        m.cpu.fregs[5] = (by >> 32) as u32;
        m.call(entry, &[], STEPS).unwrap()
    }
}

#[test]
fn generated_calls_and_window_persistence() {
    let mut m = Machine::new(1 << 20);
    // Callee trashes every %o temp.
    let clobber = generate("", Leaf::Yes, |a| {
        for t in 8u8..14 {
            a.seti(Reg::int(t), -1);
        }
        a.retv();
    });
    let clobber_entry = m.load_code(&clobber).unwrap();
    let caller = generate("%i", Leaf::No, |a| {
        let x = a.arg(0);
        // Window-local register: preserved with zero save cost.
        let keep = a.getreg(RegClass::Persistent).unwrap();
        assert_eq!(keep.num(), 16, "%l0");
        a.movi(keep, x);
        let sig = Sig::parse("").unwrap();
        let cf = a.call_begin(&sig);
        a.call_end(cf, JumpTarget::Abs(u64::from(clobber_entry)), None);
        a.reti(keep);
    });
    let entry = m.load_code(&caller).unwrap();
    assert_eq!(m.call(entry, &[777], STEPS).unwrap(), 777);
}

#[test]
fn marshaled_call_with_args() {
    let mut m = Machine::new(1 << 20);
    let callee = generate("%i%i", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        a.muli(x, x, y);
        a.reti(x);
    });
    let callee_entry = m.load_code(&callee).unwrap();
    let caller = generate("%i", Leaf::No, |a| {
        let x = a.arg(0);
        let sig = Sig::parse("%i%i:%i").unwrap();
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::I, x);
        let seven = a.getreg(RegClass::Temp).unwrap();
        a.seti(seven, 7);
        a.call_arg(&mut cf, 1, Ty::I, seven);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.call_end(cf, JumpTarget::Abs(u64::from(callee_entry)), Some(r));
        a.addii(r, r, 1);
        a.reti(r);
    });
    let entry = m.load_code(&caller).unwrap();
    assert_eq!(m.call(entry, &[6], STEPS).unwrap(), 43);
}

#[test]
fn recursion_through_windows() {
    // fact(n) via self-call: windows nest and unwind.
    let mut mem = vec![0u8; 16 * 1024];
    let mut m = Machine::new(1 << 20);
    // Two-pass: generate once at a dummy base to learn nothing — instead
    // generate the self-call against the known load address: load_code
    // appends at a deterministic offset.
    let entry_guess = {
        let probe = generate("%l", Leaf::Yes, |a| a.retv());
        let mut mprobe = Machine::new(1 << 20);
        mprobe.load_code(&probe).unwrap()
    };
    let mut a = Assembler::<Sparc>::lambda(&mut mem, "%i", Leaf::No).unwrap();
    let n = a.arg(0);
    let base = a.genlabel();
    let keep = a.getreg(RegClass::Persistent).unwrap();
    a.movi(keep, n);
    a.bleii(n, 1, base);
    let t = a.getreg(RegClass::Temp).unwrap();
    a.subii(t, n, 1);
    let sig = Sig::parse("%i:%i").unwrap();
    let mut cf = a.call_begin(&sig);
    a.call_arg(&mut cf, 0, Ty::I, t);
    let res = a.getreg(RegClass::Temp).unwrap();
    a.call_end(cf, JumpTarget::Abs(u64::from(entry_guess)), Some(res));
    a.muli(keep, keep, res);
    a.reti(keep);
    a.label(base);
    let one = a.getreg(RegClass::Temp).unwrap();
    a.seti(one, 1);
    a.reti(one);
    let fin = a.end().unwrap();
    mem.truncate(fin.len);
    let entry = m.load_code(&mem).unwrap();
    assert_eq!(entry, entry_guess, "deterministic load address");
    assert_eq!(m.call(entry, &[6], STEPS).unwrap(), 720);
    assert_eq!(m.call(entry, &[12], STEPS).unwrap(), 479001600);
}

#[test]
fn sqrt_extension_native() {
    let code = generate("%d", Leaf::Yes, |a| {
        let x = a.arg(0);
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.sqrtd(x, x, t);
        a.retd(x);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call_f64(entry, &[9.0], STEPS).unwrap(), 3.0);
}

#[test]
fn disassembler_names_generated_instructions() {
    let code = generate("%i%i", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        a.addi(x, x, y);
        a.divi(x, x, y);
        a.reti(x);
    });
    let text = Machine::disasm_all(&code);
    for needle in ["save", "add", "wr", "sdiv", "jmpl", "restore"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}
