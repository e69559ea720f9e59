//! Cross tests: generate MIPS code with the `vcode-mips` backend, run it
//! on the simulator, compare against the core's reference semantics —
//! the paper's automatically generated regression tests for instruction
//! mappings and calling conventions (§3.3, §6.1).

use vcode::regress;
use vcode::target::{JumpTarget, Leaf, Target};
use vcode::{Assembler, Reg, RegClass, Sig, Ty};
use vcode_mips::Mips;
use vcode_sim::mips::Machine;

const STEPS: u64 = 1_000_000;

fn generate(sig: &str, leaf: Leaf, f: impl FnOnce(&mut Assembler<'_, Mips>)) -> Vec<u8> {
    let mut mem = vec![0u8; 16 * 1024];
    let mut a = Assembler::<Mips>::lambda(&mut mem, sig, leaf).unwrap();
    f(&mut a);
    let fin = a.end().unwrap();
    mem.truncate(fin.len);
    mem
}

#[test]
fn figure1_plus1_runs_in_simulation() {
    let code = generate("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.addii(x, x, 1);
        a.reti(x);
    });
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[41], STEPS).unwrap(), 42);
    assert_eq!(m.call(entry, &[u32::MAX], STEPS).unwrap(), 0);
}

#[test]
fn regression_branch_immediates_including_zero_specials() {
    let mut m = Machine::new(1 << 22);
    m.cpu.strict_load_delay = true;
    for cond in [
        vcode::Cond::Lt,
        vcode::Cond::Le,
        vcode::Cond::Gt,
        vcode::Cond::Ge,
        vcode::Cond::Eq,
        vcode::Cond::Ne,
    ] {
        for ty in [Ty::I, Ty::U] {
            for imm in [0i64, 1, -1, 10, 0x7fff, 0x8000, 0x12345678] {
                for aval in [0u32, 1, 9, 10, 11, 0x8000_0000, 0xffff_ffff] {
                    let code = generate("%i", Leaf::Yes, |a| {
                        let x = a.arg(0);
                        let taken = a.genlabel();
                        let r = a.getreg(RegClass::Temp).unwrap();
                        Mips::emit_branch(a.raw(), cond, ty, x, vcode::BrOperand::I(imm), taken);
                        a.seti(r, 0);
                        a.reti(r);
                        a.label(taken);
                        a.seti(r, 1);
                        a.reti(r);
                    });
                    let entry = m.load_code(&code).unwrap();
                    let got = m.call(entry, &[aval], STEPS).unwrap();
                    let expect = regress::eval_cond(
                        cond,
                        ty,
                        aval as u64,
                        regress::canon(ty, imm as u64, 32),
                        32,
                    );
                    assert_eq!(
                        got != 0,
                        expect,
                        "{cond:?}.{ty:?}({aval:#x}, imm {imm:#x})\n{}",
                        Machine::disasm_all(&code)
                    );
                }
            }
        }
    }
}

#[test]
fn memory_all_widths_in_simulation() {
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
        a.ldii(t, src, 8);
        a.stii(t, dst, 8);
        a.retv();
    });
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    let src = m.alloc(16, 8).unwrap();
    let dst = m.alloc(16, 8).unwrap();
    let data: Vec<u8> = (0..16).map(|i| 0xf0u8.wrapping_add(i)).collect();
    m.write(src, &data).unwrap();
    m.call(entry, &[src, dst], STEPS).unwrap();
    assert_eq!(m.read(dst, 6).unwrap(), m.read(src, 6).unwrap());
    assert_eq!(
        m.read(dst, 12).unwrap()[8..12],
        m.read(src, 12).unwrap()[8..12]
    );
}

#[test]
fn sum_loop_and_counts() {
    let code = generate("%i", Leaf::Yes, |a| {
        let n = a.arg(0);
        let sum = a.getreg(RegClass::Temp).unwrap();
        let i = a.getreg(RegClass::Temp).unwrap();
        a.seti(sum, 0);
        a.seti(i, 0);
        let top = a.genlabel();
        let done = a.genlabel();
        a.label(top);
        a.bgei(i, n, done);
        a.addi(sum, sum, i);
        a.addii(i, i, 1);
        a.jmp(top);
        a.label(done);
        a.reti(sum);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[100], STEPS).unwrap(), 4950);
    assert!(
        m.stats().insns_retired > 600,
        "loop body executed 100 times"
    );
    assert!(m.stats().branches >= 200);
}

#[test]
fn scheduled_delay_slots_run_correctly() {
    // Count down from n to 0 with the decrement in the delay slot.
    let code = generate("%i", Leaf::Yes, |a| {
        let n = a.arg(0);
        let top = a.genlabel();
        a.label(top);
        a.schedule_delay(|a| a.bgtii(n, 0, top), |a| a.subii(n, n, 1));
        a.reti(n);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    // The delay-slot decrement executes even on the final, not-taken
    // iteration, so the loop exits with n == -1... unless the branch is
    // checked before the decrement. Semantics: bgt tests n, the slot
    // decrements; loop exits when n-before-decrement <= 0, i.e. final
    // n == n_exit - 1 == -1.
    assert_eq!(m.call(entry, &[5], STEPS).unwrap() as i32, -1);
}

#[test]
fn double_precision_arithmetic_in_simulation() {
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
    assert_eq!(m.call_f64(entry, &[-1.5, 2.0], STEPS).unwrap(), -4.5);
}

#[test]
fn double_constants_and_conversions() {
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
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[10], STEPS).unwrap(), 5);
    assert_eq!(m.call(entry, &[(-9i32) as u32], STEPS).unwrap() as i32, -4);
}

#[test]
fn unsigned_to_double_adjusts_high_bit() {
    let code = generate("%u", Leaf::Yes, |a| {
        let x = a.arg(0);
        let f = a.getreg_f(RegClass::Temp).unwrap();
        a.cvu2d(f, x);
        a.retd(f);
    });
    let mut m = Machine::new(1 << 20);
    let entry = m.load_code(&code).unwrap();
    m.cpu.regs[4] = 0xffff_ffff;
    m.run(entry, STEPS).unwrap();
    let got = f64::from_bits((m.cpu.fregs[0] as u64) | ((m.cpu.fregs[1] as u64) << 32));
    assert_eq!(got, 4294967295.0);
    m.cpu.regs[4] = 7;
    m.run(entry, STEPS).unwrap();
    let got = f64::from_bits((m.cpu.fregs[0] as u64) | ((m.cpu.fregs[1] as u64) << 32));
    assert_eq!(got, 7.0);
}

#[test]
fn float_branches_in_simulation() {
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
    m.cpu.fregs[12] = 0;
    m.cpu.fregs[13] = 0x3ff0_0000; // 1.0
    m.cpu.fregs[14] = 0;
    m.cpu.fregs[15] = 0x4000_0000; // 2.0
    m.run(entry, STEPS).unwrap();
    assert_eq!(m.cpu.regs[2], 1, "1.0 < 2.0");
}

#[test]
fn generated_function_calls_another_generated_function() {
    let mut m = Machine::new(1 << 20);
    // Callee: double(x) = x + x.
    let callee = generate("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.addi(x, x, x);
        a.reti(x);
    });
    let callee_entry = m.load_code(&callee).unwrap();
    // Caller: calls callee twice via the marshaling interface.
    let caller = generate("%i", Leaf::No, |a| {
        let x = a.arg(0);
        let sig = Sig::parse("%i:%i").unwrap();
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::I, x);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.call_end(cf, JumpTarget::Abs(callee_entry as u64), Some(r));
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::I, r);
        a.call_end(cf, JumpTarget::Abs(callee_entry as u64), Some(r));
        a.reti(r);
    });
    let caller_entry = m.load_code(&caller).unwrap();
    assert_eq!(m.call(caller_entry, &[5], STEPS).unwrap(), 20);
}

#[test]
fn persistent_registers_across_simulated_calls() {
    let mut m = Machine::new(1 << 20);
    // A callee that deliberately trashes every temporary register.
    let clobber = generate("", Leaf::Yes, |a| {
        for t in 8u8..16 {
            a.seti(Reg::int(t), -1);
        }
        a.retv();
    });
    let clobber_entry = m.load_code(&clobber).unwrap();
    let caller = generate("%i", Leaf::No, |a| {
        let x = a.arg(0);
        let keep = a.getreg(RegClass::Persistent).unwrap();
        a.movi(keep, x);
        let sig = Sig::parse("").unwrap();
        let cf = a.call_begin(&sig);
        a.call_end(cf, JumpTarget::Abs(clobber_entry as u64), None);
        a.reti(keep);
    });
    let entry = m.load_code(&caller).unwrap();
    assert_eq!(m.call(entry, &[1234], STEPS).unwrap(), 1234);
}

#[test]
fn strict_mode_accepts_all_generated_loads() {
    // The backend's conservative load padding must satisfy the
    // simulator's strict MIPS-I hazard checking.
    let code = generate("%p", Leaf::Yes, |a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.ldii(t, p, 0);
        a.addii(t, t, 1); // immediately uses the loaded value
        a.reti(t);
    });
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    let addr = m.alloc(8, 8).unwrap();
    m.write(addr, &41u32.to_le_bytes()).unwrap();
    assert_eq!(m.call(entry, &[addr], STEPS).unwrap(), 42);
}

#[test]
fn raw_load_with_too_small_distance_gets_nops() {
    let code = generate("%p", Leaf::Yes, |a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        // Claim zero distance: core inserts the required nop itself.
        a.raw_load(|a| a.ldii(t, p, 0), 0);
        a.addii(t, t, 1);
        a.reti(t);
    });
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    let addr = m.alloc(8, 8).unwrap();
    m.write(addr, &9u32.to_le_bytes()).unwrap();
    assert_eq!(m.call(entry, &[addr], STEPS).unwrap(), 10);
}

#[test]
fn locals_and_frame_in_simulation() {
    let code = generate("%i%i", Leaf::Yes, |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let sx = a.local(Ty::I);
        let sy = a.local(Ty::I);
        a.st_slot(sx, x);
        a.st_slot(sy, y);
        let t = a.getreg(RegClass::Temp).unwrap();
        let u = a.getreg(RegClass::Temp).unwrap();
        a.ld_slot(t, sx);
        a.ld_slot(u, sy);
        a.muli(t, t, u);
        a.reti(t);
    });
    let mut m = Machine::new(1 << 20);
    m.cpu.strict_load_delay = true;
    let entry = m.load_code(&code).unwrap();
    assert_eq!(m.call(entry, &[6, 7], STEPS).unwrap(), 42);
}

#[test]
fn trap_when_branch_misses_delay_handling() {
    // Sanity: the Machine really executes what the backend produced —
    // disassemble and ensure delay slots are present after branches.
    let code = generate("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let l = a.genlabel();
        a.beqii(x, 0, l);
        a.addii(x, x, 10);
        a.label(l);
        a.reti(x);
    });
    let text = Machine::disasm_all(&code);
    let lines: Vec<&str> = text.lines().collect();
    let beq_idx = lines.iter().position(|l| l.contains("beq")).unwrap();
    assert!(
        lines[beq_idx + 1].contains("nop"),
        "delay slot after beq:\n{text}"
    );
}
