//! End-to-end tests: generate code with the x86-64 backend and execute it
//! natively. This is the paper's auto-generated regression suite (§3.3,
//! §6.1) applied to the x86-64 port.

use vcode::regress::{self, BinCase, BranchCase, UnCase};
use vcode::target::{JumpTarget, Leaf, Target};
use vcode::{Assembler, BinOp, Cond, Reg, RegClass, Sig, Ty, UnOp};
use vcode_x64::{ExecCode, ExecMem, X64};

/// Builds one function into a fresh mapping and finalizes it.
fn build(sig: &str, f: impl FnOnce(&mut Assembler<'_, X64>)) -> ExecCode {
    let mut mem = ExecMem::new(4096).unwrap();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), sig, Leaf::Yes).unwrap();
    f(&mut a);
    a.end().unwrap();
    mem.finalize().unwrap()
}

fn build_nonleaf(sig: &str, f: impl FnOnce(&mut Assembler<'_, X64>)) -> ExecCode {
    let mut mem = ExecMem::new(4096).unwrap();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), sig, Leaf::No).unwrap();
    f(&mut a);
    a.end().unwrap();
    mem.finalize().unwrap()
}

fn ret_typed(a: &mut Assembler<'_, X64>, ty: Ty, r: Reg) {
    match ty {
        Ty::I => a.reti(r),
        Ty::U => a.retu(r),
        Ty::L => a.retl(r),
        Ty::Ul => a.retul(r),
        Ty::P => a.retp(r),
        _ => panic!("int type expected"),
    }
}

/// Generates many small functions into one mapping, returning their entry
/// offsets (one page per function would be wasteful for thousands of
/// regression cases).
struct Farm {
    mem: Option<ExecMem>,
    code: Option<ExecCode>,
    off: usize,
    chunk: usize,
}

impl Farm {
    fn new(count: usize, chunk: usize) -> Farm {
        Farm {
            mem: Some(ExecMem::new(count * chunk).unwrap()),
            code: None,
            off: 0,
            chunk,
        }
    }

    fn add(&mut self, sig: &str, f: impl FnOnce(&mut Assembler<'_, X64>)) -> usize {
        let mem = self.mem.as_mut().unwrap();
        let off = self.off;
        let slice = &mut mem.as_mut_slice()[off..off + self.chunk];
        let mut a = Assembler::<X64>::lambda(slice, sig, Leaf::Yes).unwrap();
        f(&mut a);
        let fin = a.end().unwrap();
        assert!(fin.len <= self.chunk);
        self.off += self.chunk;
        off
    }

    fn finalize(&mut self) {
        self.code = Some(self.mem.take().unwrap().finalize().unwrap());
    }

    /// # Safety
    /// `off` must be an offset returned by [`Farm::emit`] for a
    /// two-argument lambda, after [`Farm::finalize`].
    unsafe fn call2(&self, off: usize, a: u64, b: u64) -> u64 {
        let f: extern "C" fn(u64, u64) -> u64 =
            // SAFETY: per the contract above, `off` is the entry of a
            // finalized two-argument function in this farm's mapping.
            unsafe { std::mem::transmute(self.code.as_ref().unwrap().addr() + off as u64) };
        f(a, b)
    }

    /// # Safety
    /// `off` must be an offset returned by [`Farm::emit`] for a
    /// one-argument lambda, after [`Farm::finalize`].
    unsafe fn call1(&self, off: usize, a: u64) -> u64 {
        let f: extern "C" fn(u64) -> u64 =
            // SAFETY: per the contract above, `off` is the entry of a
            // finalized one-argument function in this farm's mapping.
            unsafe { std::mem::transmute(self.code.as_ref().unwrap().addr() + off as u64) };
        f(a)
    }
}

#[test]
fn figure1_plus1() {
    let code = build("%i", |a| {
        let x = a.arg(0);
        a.addii(x, x, 1);
        a.reti(x);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let plus1: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(plus1(41), 42);
    assert_eq!(plus1(-1), 0);
    assert_eq!(plus1(i32::MAX), i32::MIN);
}

#[test]
fn regression_binops_register_forms() {
    let cases = regress::binop_cases(64, 2, 0xdead_beef);
    let mut farm = Farm::new(cases.len(), 96);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l%l", |a| {
                let (x, y) = (a.arg(0), a.arg(1));
                X64::emit_binop(a.raw(), c.op, c.ty, x, x, y);
                ret_typed(a, c.ty, x);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call2(off, c.a, c.b) };
        assert_eq!(
            got, c.expect,
            "{:?}.{:?}({:#x}, {:#x})",
            c.op, c.ty, c.a, c.b
        );
    }
}

#[test]
fn regression_binops_immediate_forms() {
    let cases: Vec<BinCase> = regress::binop_cases(64, 0, 1)
        .into_iter()
        .step_by(3)
        .collect();
    let mut farm = Farm::new(cases.len(), 96);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l", |a| {
                let x = a.arg(0);
                X64::emit_binop_imm(a.raw(), c.op, c.ty, x, x, c.b as i64);
                ret_typed(a, c.ty, x);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call1(off, c.a) };
        assert_eq!(
            got, c.expect,
            "{:?}.{:?}({:#x}, imm {:#x})",
            c.op, c.ty, c.a, c.b
        );
    }
}

#[test]
fn regression_binops_distinct_destination() {
    // rd != rs1 != rs2 exercises the three-operand resolution paths.
    let cases: Vec<BinCase> = regress::binop_cases(64, 1, 7)
        .into_iter()
        .step_by(5)
        .collect();
    let mut farm = Farm::new(cases.len(), 96);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l%l", |a| {
                let (x, y) = (a.arg(0), a.arg(1));
                let d = a.getreg(RegClass::Temp).unwrap();
                X64::emit_binop(a.raw(), c.op, c.ty, d, x, y);
                ret_typed(a, c.ty, d);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call2(off, c.a, c.b) };
        assert_eq!(
            got, c.expect,
            "{:?}.{:?}({:#x}, {:#x}) rd!=rs",
            c.op, c.ty, c.a, c.b
        );
    }
}

#[test]
fn regression_binops_rd_equals_rs2() {
    let cases: Vec<BinCase> = regress::binop_cases(64, 1, 9)
        .into_iter()
        .step_by(7)
        .collect();
    let mut farm = Farm::new(cases.len(), 96);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l%l", |a| {
                let (x, y) = (a.arg(0), a.arg(1));
                X64::emit_binop(a.raw(), c.op, c.ty, y, x, y);
                ret_typed(a, c.ty, y);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call2(off, c.a, c.b) };
        assert_eq!(
            got, c.expect,
            "{:?}.{:?}({:#x}, {:#x}) rd==rs2",
            c.op, c.ty, c.a, c.b
        );
    }
}

/// `rd = rs1 - rd` has nothing to exchange, and Sub does not commute:
/// it is `neg rd; add rd, rs1`, two instructions and no scratch register,
/// at both widths and with registers that need a REX prefix. The result
/// agrees with the interpreter (32-bit) and the reference semantics.
#[test]
fn sub_into_the_subtrahend_is_neg_then_add() {
    use vcode_x64::encode::r;
    let cases: [(Ty, u8, u8, &[u8]); 4] = [
        (Ty::I, r::RSI, r::RDI, &[0xf7, 0xde, 0x01, 0xfe]),
        (Ty::L, r::RSI, r::RDI, &[0x48, 0xf7, 0xde, 0x48, 0x01, 0xfe]),
        (Ty::I, r::R8, r::R9, &[0x41, 0xf7, 0xd8, 0x45, 0x01, 0xc8]),
        (Ty::L, r::R8, r::R9, &[0x49, 0xf7, 0xd8, 0x4d, 0x01, 0xc8]),
    ];
    let values = [
        (0, 0),
        (7, 3),
        (3, 7),
        (u64::MAX, 1),
        (1 << 31, 1),
        (1 << 63, 1),
        (0x1234_5678_9abc_def0, 0xfedc_ba98_7654_3210),
    ];
    let mut sub = vcode::Program::new(2).unwrap();
    sub.bin(BinOp::Sub, 1, 0, 1);
    sub.ret(1);
    for (ty, rd, rs1, want) in cases {
        let mut emitted = Vec::new();
        let code = build("%l%l", |a| {
            let (x, y) = (a.arg(0), a.arg(1));
            let (rd, rs1) = (Reg::int(rd), Reg::int(rs1));
            X64::emit_unop(a.raw(), UnOp::Mov, Ty::L, rs1, x);
            X64::emit_unop(a.raw(), UnOp::Mov, Ty::L, rd, y);
            let start = a.state().buf.len();
            X64::emit_binop(a.raw(), BinOp::Sub, ty, rd, rs1, rd);
            emitted = a.state().buf.as_slice()[start..].to_vec();
            ret_typed(a, ty, rd);
        });
        assert_eq!(emitted, want, "{ty:?} r{rd} = r{rs1} - r{rd}");
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let f: extern "C" fn(u64, u64) -> u64 = unsafe { code.as_fn() };
        for (a, b) in values {
            let got = regress::canon(ty, f(a, b), 64);
            let expect = regress::eval_binop(BinOp::Sub, ty, a, b, 64).unwrap();
            assert_eq!(got, expect, "{ty:?} {a:#x} - {b:#x}");
            if ty == Ty::I {
                let args = [a as i32, b as i32];
                let interpreted = sub.interpret(&args, 16).unwrap();
                assert_eq!(got as i32, interpreted as i32, "{a:#x} - {b:#x}");
            }
        }
    }
}

#[test]
fn regression_unops() {
    let cases: Vec<UnCase> = regress::unop_cases(64);
    let mut farm = Farm::new(cases.len(), 96);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l", |a| {
                let x = a.arg(0);
                let d = a.getreg(RegClass::Temp).unwrap();
                X64::emit_unop(a.raw(), c.op, c.ty, d, x);
                ret_typed(a, c.ty, d);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call1(off, c.a) };
        let got = regress::canon(c.ty, got, 64);
        assert_eq!(got, c.expect, "{:?}.{:?}({:#x})", c.op, c.ty, c.a);
    }
}

#[test]
fn regression_branches() {
    let cases: Vec<BranchCase> = regress::branch_cases(64).into_iter().step_by(3).collect();
    let mut farm = Farm::new(cases.len(), 128);
    let offs: Vec<usize> = cases
        .iter()
        .map(|c| {
            farm.add("%l%l", |a| {
                let (x, y) = (a.arg(0), a.arg(1));
                let taken = a.genlabel();
                let r = a.getreg(RegClass::Temp).unwrap();
                X64::emit_branch(a.raw(), c.cond, c.ty, x, vcode::BrOperand::R(y), taken);
                a.seti(r, 0);
                a.reti(r);
                a.label(taken);
                a.seti(r, 1);
                a.reti(r);
            })
        })
        .collect();
    farm.finalize();
    for (c, off) in cases.iter().zip(offs) {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        let got = unsafe { farm.call2(off, c.a, c.b) };
        assert_eq!(
            got != 0,
            c.taken,
            "{:?}.{:?}({:#x}, {:#x})",
            c.cond,
            c.ty,
            c.a,
            c.b
        );
    }
}

type DoubleBinCase = (BinOp, fn(f64, f64) -> f64);
type DoubleCondCase = (Cond, fn(f64, f64) -> bool);

#[test]
fn float_arithmetic_double() {
    let ops: [DoubleBinCase; 4] = [
        (BinOp::Add, |x, y| x + y),
        (BinOp::Sub, |x, y| x - y),
        (BinOp::Mul, |x, y| x * y),
        (BinOp::Div, |x, y| x / y),
    ];
    for (op, f) in ops {
        let code = build("%d%d", |a| {
            let (x, y) = (a.arg(0), a.arg(1));
            X64::emit_binop(a.raw(), op, Ty::D, x, x, y);
            a.retd(x);
        });
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let g: extern "C" fn(f64, f64) -> f64 = unsafe { code.as_fn() };
        for (x, y) in [(1.5, 2.25), (-3.0, 0.5), (1e100, 1e-100), (0.0, 7.0)] {
            assert_eq!(g(x, y), f(x, y), "{op:?}({x}, {y})");
        }
    }
}

#[test]
fn float_arithmetic_single() {
    let code = build("%f%f", |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.mulf(t, x, y);
        a.addf(t, t, x);
        a.retf(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(f32, f32) -> f32 = unsafe { code.as_fn() };
    assert_eq!(g(3.0, 4.0), 15.0);
    assert_eq!(g(-1.5, 2.0), -4.5);
}

#[test]
fn float_negation_and_mov() {
    let code = build("%d", |a| {
        let x = a.arg(0);
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.negd(t, x);
        a.retd(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(f64) -> f64 = unsafe { code.as_fn() };
    assert_eq!(g(2.5), -2.5);
    assert_eq!(g(-0.0), 0.0);
    assert_eq!(g(f64::INFINITY), f64::NEG_INFINITY);
}

#[test]
fn float_constants_from_literal_pool() {
    let code = build("", |a| {
        let t = a.getreg_f(RegClass::Temp).unwrap();
        let u = a.getreg_f(RegClass::Temp).unwrap();
        a.setd(t, 1.25);
        a.setd(u, 2.5);
        a.addd(t, t, u);
        a.retd(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn() -> f64 = unsafe { code.as_fn() };
    assert_eq!(g(), 3.75);
}

/// A literal is 8-byte aligned where it runs: the pool is aligned from
/// the function's entry, which is where `emit_native` installs from — a
/// frameless leaf (entry 51), a frame (entry 40) and a frame saving one
/// register (entry 36) alike.
#[test]
fn pool_entries_are_aligned_at_their_installed_address() {
    const V: f64 = 1234.5678;
    for (saved, entry) in [(None, 51), (Some(0), 40), (Some(1), 36)] {
        let emit = |buf: &mut [u8]| {
            let mut a = Assembler::<X64>::lambda(buf, "", Leaf::Yes)?;
            let t = a.getreg_f(RegClass::Temp).unwrap();
            match saved {
                Some(0) => drop(a.local(Ty::D)),
                Some(_) => drop(a.getreg(RegClass::Persistent)),
                None => {}
            }
            a.setd(t, V);
            a.retd(t);
            Ok::<_, vcode::engine::EngineError>(a.end()?)
        };
        let (code, fin) = vcode_x64::emit_native(emit).unwrap();
        assert_eq!(fin.entry, entry, "{saved:?}");
        let at = code.bytes().windows(8).position(|w| w == V.to_le_bytes());
        let addr = code.addr() + at.expect("the literal is installed") as u64;
        assert_eq!(addr % 8, 0, "{saved:?}: entry {}", fin.entry);
        // SAFETY: the code is a complete `() -> f64` function.
        let f: extern "C" fn() -> f64 = unsafe { code.as_fn() };
        assert_eq!(f(), V);
    }
}

#[test]
fn float_branches() {
    let conds: [DoubleCondCase; 6] = [
        (Cond::Lt, |x, y| x < y),
        (Cond::Le, |x, y| x <= y),
        (Cond::Gt, |x, y| x > y),
        (Cond::Ge, |x, y| x >= y),
        (Cond::Eq, |x, y| x == y),
        (Cond::Ne, |x, y| x != y),
    ];
    for (cond, expect) in conds {
        let code = build("%d%d", |a| {
            let (x, y) = (a.arg(0), a.arg(1));
            let taken = a.genlabel();
            let r = a.getreg(RegClass::Temp).unwrap();
            X64::emit_branch(a.raw(), cond, Ty::D, x, vcode::BrOperand::R(y), taken);
            a.seti(r, 0);
            a.reti(r);
            a.label(taken);
            a.seti(r, 1);
            a.reti(r);
        });
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let g: extern "C" fn(f64, f64) -> i32 = unsafe { code.as_fn() };
        for (x, y) in [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (-1.0, 1.0)] {
            assert_eq!(g(x, y) != 0, expect(x, y), "{cond:?}({x}, {y})");
        }
    }
}

#[test]
fn conversions() {
    let code = build("%i", |a| {
        let x = a.arg(0);
        let f = a.getreg_f(RegClass::Temp).unwrap();
        a.cvi2d(f, x);
        let half = a.getreg_f(RegClass::Temp).unwrap();
        a.setd(half, 0.5);
        a.muld(f, f, half);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.cvd2i(r, f);
        a.reti(r);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(10), 5);
    assert_eq!(g(-9), -4, "C truncation toward zero");
    assert_eq!(g(7), 3);
}

#[test]
fn conversion_widths() {
    // i -> l sign-extends; u -> ul zero-extends.
    let code = build("%i", |a| {
        let x = a.arg(0);
        let l = a.getreg(RegClass::Temp).unwrap();
        a.cvi2l(l, x);
        a.retl(l);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32) -> i64 = unsafe { code.as_fn() };
    assert_eq!(g(-5), -5i64);
    let code = build("%u", |a| {
        let x = a.arg(0);
        let l = a.getreg(RegClass::Temp).unwrap();
        a.cvu2ul(l, x);
        a.retul(l);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(u32) -> u64 = unsafe { code.as_fn() };
    assert_eq!(g(0xffff_ffff), 0xffff_ffffu64);
}

#[test]
fn memory_loads_and_stores_all_widths() {
    // Copies a record field-by-field with typed loads/stores:
    // struct { i8, u8, i16, u16, i32, u32, i64, f32, f64 } at fixed offsets.
    let code = build("%p%p", |a| {
        let (src, dst) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        let f = a.getreg_f(RegClass::Temp).unwrap();
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
        a.ldui(t, src, 12);
        a.stui(t, dst, 12);
        a.ldli(t, src, 16);
        a.stli(t, dst, 16);
        a.ldfi(f, src, 24);
        a.stfi(f, dst, 24);
        a.lddi(f, src, 32);
        a.stdi(f, dst, 32);
        a.retv();
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(*const u8, *mut u8) = unsafe { code.as_fn() };
    let mut src = [0u8; 40];
    src[0] = 0x80;
    src[1] = 0xff;
    src[2..4].copy_from_slice(&(-2i16).to_le_bytes());
    src[4..6].copy_from_slice(&0xbeefu16.to_le_bytes());
    src[8..12].copy_from_slice(&(-100i32).to_le_bytes());
    src[12..16].copy_from_slice(&0xdead_beefu32.to_le_bytes());
    src[16..24].copy_from_slice(&(-1i64).to_le_bytes());
    src[24..28].copy_from_slice(&1.5f32.to_le_bytes());
    src[32..40].copy_from_slice(&(-2.5f64).to_le_bytes());
    let mut dst = [0u8; 40];
    g(src.as_ptr(), dst.as_mut_ptr());
    assert_eq!(src[..6], dst[..6]);
    assert_eq!(src[8..], dst[8..]);
}

#[test]
fn sign_extension_of_sub_word_loads() {
    let code = build("%p", |a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.ldci(t, p, 0); // signed char
        a.reti(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(*const u8) -> i32 = unsafe { code.as_fn() };
    let v = [0x80u8];
    assert_eq!(g(v.as_ptr()), -128);
    let code = build("%p", |a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.lduci(t, p, 0); // unsigned char
        a.reti(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(*const u8) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(v.as_ptr()), 128);
}

#[test]
fn register_indexed_addressing() {
    let code = build("%p%l", |a| {
        let (p, i) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.lduc(t, p, i);
        a.reti(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(*const u8, i64) -> i32 = unsafe { code.as_fn() };
    let v = [10u8, 20, 30, 40];
    assert_eq!(g(v.as_ptr(), 0), 10);
    assert_eq!(g(v.as_ptr(), 3), 40);
}

#[test]
fn locals_round_trip() {
    let code = build("%i%i", |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let sx = a.local(Ty::I);
        let sy = a.local(Ty::I);
        a.st_slot(sx, x);
        a.st_slot(sy, y);
        let t = a.getreg(RegClass::Temp).unwrap();
        let u = a.getreg(RegClass::Temp).unwrap();
        a.ld_slot(t, sx);
        a.ld_slot(u, sy);
        a.subi(t, t, u);
        a.reti(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32, i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(10, 3), 7);
}

#[test]
fn loops_with_backward_branches() {
    // sum 0..n
    let code = build("%i", |a| {
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
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(10), 45);
    assert_eq!(g(0), 0);
    assert_eq!(g(1000), 499500);
}

extern "C" fn mixed_callee(a: i64, b: f64, c: i64) -> i64 {
    a + (b * 10.0) as i64 + c * 100
}

#[test]
fn dynamically_constructed_call_with_mixed_args() {
    // The paper's marshaling scenario: build a call whose argument list
    // is data at generation time.
    let code = build_nonleaf("%l%d%l", |a| {
        let (x, f, y) = (a.arg(0), a.arg(1), a.arg(2));
        let sig = Sig::parse("%l%d%l:%l").unwrap();
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::L, x);
        a.call_arg(&mut cf, 1, Ty::D, f);
        a.call_arg(&mut cf, 2, Ty::L, y);
        let r = a.getreg(RegClass::Temp).unwrap();
        a.call_end(
            cf,
            JumpTarget::Abs(mixed_callee as extern "C" fn(i64, f64, i64) -> i64 as usize as u64),
            Some(r),
        );
        a.retl(r);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i64, f64, i64) -> i64 = unsafe { code.as_fn() };
    assert_eq!(g(1, 2.5, 3), mixed_callee(1, 2.5, 3));
    assert_eq!(g(7, 0.0, 0), 7);
}

extern "C" fn six_args(a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
    a + 2 * b + 3 * c + 4 * d + 5 * e + 6 * f
}

#[test]
fn call_with_six_integer_args() {
    let code = build_nonleaf("%l%l", |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let sig = Sig::parse("%l%l%l%l%l%l:%l").unwrap();
        let mut cf = a.call_begin(&sig);
        for i in 0..6 {
            a.call_arg(&mut cf, i, Ty::L, if i % 2 == 0 { x } else { y });
        }
        let r = a.getreg(RegClass::Temp).unwrap();
        a.call_end(
            cf,
            JumpTarget::Abs(
                six_args as extern "C" fn(i64, i64, i64, i64, i64, i64) -> i64 as usize as u64,
            ),
            Some(r),
        );
        a.retl(r);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i64, i64) -> i64 = unsafe { code.as_fn() };
    assert_eq!(g(1, 10), six_args(1, 10, 1, 10, 1, 10));
}

#[test]
fn recursive_call_to_own_entry() {
    // fact(n) = n <= 1 ? 1 : n * fact(n - 1), calling the function's own
    // absolute entry address (known because the client owns the storage).
    let mut mem = ExecMem::new(4096).unwrap();
    let entry = mem.addr();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%l", Leaf::No).unwrap();
    let n = a.arg(0);
    let base = a.genlabel();
    let r = a.getreg(RegClass::Persistent).unwrap();
    a.movl(r, n);
    a.bleli(n, 1, base);
    let t = a.getreg(RegClass::Temp).unwrap();
    a.subli(t, n, 1);
    let sig = Sig::parse("%l:%l").unwrap();
    let mut cf = a.call_begin(&sig);
    a.call_arg(&mut cf, 0, Ty::L, t);
    let res = a.getreg(RegClass::Temp).unwrap();
    a.call_end(cf, JumpTarget::Abs(entry), Some(res));
    a.mull(r, r, res);
    a.retl(r);
    a.label(base);
    let one = a.getreg(RegClass::Temp).unwrap();
    a.setl(one, 1);
    a.retl(one);
    a.end().unwrap();
    let code = mem.finalize().unwrap();
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let fact: extern "C" fn(i64) -> i64 = unsafe { code.as_fn() };
    assert_eq!(fact(1), 1);
    assert_eq!(fact(5), 120);
    assert_eq!(fact(12), 479001600);
}

#[test]
fn persistent_register_survives_call() {
    extern "C" fn clobberer() -> i64 {
        // Touches plenty of caller-saved registers.
        std::hint::black_box((0..32).map(|i| i * 3).sum())
    }
    let code = build_nonleaf("%l", |a| {
        let x = a.arg(0);
        let keep = a.getreg(RegClass::Persistent).unwrap();
        a.movl(keep, x);
        let sig = Sig::parse(":%l").unwrap();
        let cf = a.call_begin(&sig);
        let junk = a.getreg(RegClass::Temp).unwrap();
        a.call_end(
            cf,
            JumpTarget::Abs(clobberer as extern "C" fn() -> i64 as usize as u64),
            Some(junk),
        );
        a.retl(keep);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i64) -> i64 = unsafe { code.as_fn() };
    assert_eq!(g(0x1234_5678_9abc), 0x1234_5678_9abc);
}

#[test]
fn hard_coded_register_names() {
    // Paper §5.3: clients trade allocation flexibility for ~2x faster
    // generation by using hard-coded names.
    let code = build("%i", |a| {
        let x = a.arg(0);
        let t0 = a.hard_temp(2); // r8 — arg regs 0/1 hold live args
        let t1 = a.hard_temp(3); // r9
        a.movi(t0, x);
        a.addii(t1, t0, 5);
        a.muli(t0, t0, t1);
        a.reti(t0);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(3), 24);
}

#[test]
fn extension_sqrt_native_and_bswap() {
    let code = build("%d", |a| {
        let x = a.arg(0);
        let t = a.getreg_f(RegClass::Temp).unwrap();
        a.sqrtd(x, x, t);
        a.retd(x);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(f64) -> f64 = unsafe { code.as_fn() };
    assert_eq!(g(9.0), 3.0);
    assert_eq!(g(2.0), 2.0f64.sqrt());

    let code = build("%u", |a| {
        let x = a.arg(0);
        let d = a.getreg(RegClass::Temp).unwrap();
        let (t1, t2) = (a.hard_temp(2), a.hard_temp(3));
        a.bswapu(d, x, t1, t2);
        a.retu(d);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(u32) -> u32 = unsafe { code.as_fn() };
    assert_eq!(g(0x1234_5678), 0x7856_3412);
    assert_eq!(g(0xdead_beef), 0xefbe_adde);

    let code = build("%u", |a| {
        let x = a.arg(0);
        let d = a.getreg(RegClass::Temp).unwrap();
        let t = a.hard_temp(2);
        a.bswapus(d, x, t);
        a.retu(d);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(u32) -> u32 = unsafe { code.as_fn() };
    assert_eq!(g(0x0000_1234), 0x0000_3412);
}

#[test]
fn strength_reduced_multiply_matches_plain() {
    for c in [
        -17, -8, -1, 0, 1, 2, 3, 5, 7, 8, 10, 12, 15, 16, 24, 63, 97, 255,
    ] {
        let code = build("%i", |a| {
            let x = a.arg(0);
            let d = a.getreg(RegClass::Temp).unwrap();
            let t = a.getreg(RegClass::Temp).unwrap();
            a.muli_const(d, x, c, t);
            a.reti(d);
        });
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let g: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
        for x in [-100, -1, 0, 1, 3, 1000, 123456] {
            assert_eq!(g(x), x.wrapping_mul(c), "{x} * {c}");
        }
    }
}

#[test]
fn strength_reduced_divide_matches_plain() {
    for c in [-16, -4, -2, -1, 1, 2, 4, 8, 32, 3, 10] {
        let code = build("%i", |a| {
            let x = a.arg(0);
            let d = a.getreg(RegClass::Temp).unwrap();
            let t = a.getreg(RegClass::Temp).unwrap();
            a.divi_const(d, x, c, t);
            a.reti(d);
        });
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let g: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
        for x in [-100, -17, -1, 0, 1, 17, 100, 12345] {
            assert_eq!(g(x), x / c, "{x} / {c}");
        }
    }
}

#[test]
fn indirect_jump_through_register() {
    // A computed goto, the backbone of DPF's indirect dispatch: the
    // argument is the absolute address of the block to run.
    let mut mem = ExecMem::new(4096).unwrap();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%p", Leaf::Yes).unwrap();
    let target = a.arg(0);
    // `rsi` (hard temp 1) holds the result so the block offset below is
    // a fixed, REX-free `mov esi, imm32` we can locate byte-exactly.
    let r = a.hard_temp(1);
    a.jmp_reg(target);
    a.seti(r, 100);
    a.reti(r);
    a.seti(r, 200);
    a.reti(r);
    a.end().unwrap();
    let image: Vec<u8> = mem.as_mut_slice().to_vec();
    let needle = {
        let mut v = vec![0xbeu8]; // mov esi, 200
        v.extend_from_slice(&200u32.to_le_bytes());
        v
    };
    let pos = image
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("found the seti 200 block");
    let code = mem.finalize().unwrap();
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(u64) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(code.addr() + pos as u64), 200);
}

#[test]
fn release_arg_recycles_register() {
    let code = build("%i%i", |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.addi(t, x, y);
        a.release_arg(0);
        let z = a.getreg(RegClass::Temp).unwrap();
        a.seti(z, 2);
        a.muli(t, t, z);
        a.reti(t);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i32, i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(g(3, 4), 14);
}

#[test]
fn void_return() {
    let code = build("%p", |a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.seti(t, 99);
        a.stii(t, p, 0);
        a.retv();
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(*mut i32) = unsafe { code.as_fn() };
    let mut out = 0i32;
    g(&mut out);
    assert_eq!(out, 99);
}

#[test]
fn many_functions_in_one_buffer() {
    let mut farm = Farm::new(64, 96);
    let offs: Vec<usize> = (0..64)
        .map(|k| {
            farm.add("%l", |a| {
                let x = a.arg(0);
                a.addli(x, x, k as i64);
                a.retl(x);
            })
        })
        .collect();
    farm.finalize();
    for (k, off) in offs.iter().enumerate() {
        // SAFETY: the farm offset points at a complete emitted function of this arity.
        assert_eq!(unsafe { farm.call1(*off, 1000) }, 1000 + k as u64);
    }
}

#[test]
fn interrupt_handler_reclassification() {
    // Paper §5.3: "in an interrupt handler all registers are live.
    // Therefore, for correctness, VCODE must treat all registers as
    // callee-saved." A function that reclassifies the caller-saved
    // temporaries and then clobbers them must preserve them for its
    // caller.
    use vcode::RegKind;
    let mut mem = ExecMem::new(4096).unwrap();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "", Leaf::Yes).unwrap();
    for n in [10u8, 8, 9] {
        a.set_register_class(Reg::int(n), RegKind::CalleeSaved);
    }
    // Allocate and trash what are normally scratch temporaries.
    for _ in 0..3 {
        let t = a.getreg(RegClass::Temp).unwrap();
        a.setl(t, -1);
    }
    a.retv();
    a.end().unwrap();
    let handler = mem.finalize().unwrap();

    // The caller keeps live values in those same registers across the
    // call (legal only because the handler now saves them).
    let code = build_nonleaf("%l", |a| {
        let x = a.arg(0);
        let (t0, t1, t2) = (Reg::int(10), Reg::int(8), Reg::int(9));
        a.movl(t0, x);
        a.addli(t1, x, 1);
        a.addli(t2, x, 2);
        let sig = Sig::parse("").unwrap();
        let cf = a.call_begin(&sig);
        a.call_end(cf, JumpTarget::Abs(handler.addr()), None);
        a.addl(t0, t0, t1);
        a.addl(t0, t0, t2);
        a.retl(t0);
    });
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let g: extern "C" fn(i64) -> i64 = unsafe { code.as_fn() };
    assert_eq!(g(100), 100 + 101 + 102);
}

/// One function emitted three ways — plain, with the streaming verifier
/// on, and through the bytewise reference path — which must agree byte
/// for byte; the finished record and the bytes of the first, and where
/// the verified run's report resolved each label `f` returns.
fn emit3(
    sig: &str,
    leaf: Leaf,
    f: impl Fn(&mut Assembler<'_, X64>) -> Vec<vcode::Label>,
) -> (vcode::target::Finished, Vec<u8>, Vec<Option<usize>>) {
    let emit = |verify: bool, path: vcode::EmitPath| {
        let mut mem = vec![0u8; 512];
        let mut a =
            Assembler::<X64>::lambda_sig_path(&mut mem, Sig::parse(sig).unwrap(), leaf, path)
                .unwrap();
        if verify {
            a.enable_verifier();
        }
        let labels = f(&mut a);
        let (fin, report) = a.end_report();
        let fin = fin.unwrap();
        let offsets = report.map(|report| {
            assert!(report.is_clean(), "{:?}", report.diags);
            let diags = vcode::verify::cross_check(
                &mem[..fin.len],
                &report,
                &vcode_x64::declen::Decoder,
                &X64::CHECKS,
            );
            assert!(diags.is_empty(), "{diags:?}");
            labels.iter().map(|&l| report.label_offset(l)).collect()
        });
        mem.truncate(fin.len);
        (fin, mem, offsets)
    };
    let (fin, plain, _) = emit(false, vcode::EmitPath::Fast);
    let (_, verified, offsets) = emit(true, vcode::EmitPath::Fast);
    assert_eq!(verified, plain, "verifier on");
    assert_eq!(emit(false, vcode::EmitPath::Bytewise).1, plain, "bytewise");
    (fin, plain, offsets.expect("the verifier was on"))
}

/// Runs finished bytes from a fresh mapping, entered at `entry`.
fn run1(code: &[u8], entry: usize, x: u64) -> u64 {
    let code = ExecMem::adopt_bytes(&code[entry..])
        .unwrap()
        .finalize()
        .unwrap();
    // SAFETY: the callers pass one-argument integer functions and the
    // `Finished::entry` (or 0) of the bytes.
    let f: extern "C" fn(u64) -> u64 = unsafe { code.as_fn() };
    f(x)
}

/// `jmp L; L:` emits no jump — the cursor goes back over it when `L` is
/// bound — but a label bound between the two pins the jump in place:
/// retracting it would leave that label pointing into whatever comes
/// next. The instruction count is the client's either way.
#[test]
fn a_jump_to_the_next_byte_is_retracted_unless_a_label_sits_behind_it() {
    // f(0) = 1, f(x) = 2; `via_x` makes the early exit go through a
    // label of its own, bound right behind the jump.
    let body = |via_x: bool| {
        move |a: &mut Assembler<'_, X64>| {
            let (x, l) = (a.genlabel(), a.genlabel());
            let (arg, r) = (a.arg(0), a.getreg(RegClass::Temp).unwrap());
            a.seti(r, 1);
            a.beqli(arg, 0, if via_x { x } else { l });
            a.seti(r, 2);
            a.jmp(l);
            if via_x {
                a.label(x);
            }
            a.label(l);
            a.reti(r);
            vec![x, l]
        }
    };
    let (gone, gone_code, gone_at) = emit3("%l", Leaf::Yes, body(false));
    let (kept, kept_code, kept_at) = emit3("%l", Leaf::Yes, body(true));
    assert_eq!(gone.insns, kept.insns);
    assert_eq!(kept.len, gone.len + 5, "one `jmp rel32`");
    assert_eq!(kept_at[0], kept_at[1], "x and l");
    assert_eq!(kept_at[1].unwrap(), gone_at[1].unwrap() + 5);
    for (fin, code) in [(&gone, &gone_code), (&kept, &kept_code)] {
        for entry in [0, fin.entry] {
            assert_eq!(run1(code, entry, 0), 1);
            assert_eq!(run1(code, entry, 9), 2);
        }
    }
}

/// `f(x) = x + 1`, returned by a final `ret` with `x` bound in front of
/// it, or behind it when `label_behind`, so that the `ret`'s jump to the
/// epilogue stays (`x` is only ever reached with the argument in hand).
fn final_ret(label_behind: bool) -> impl Fn(&mut Assembler<'_, X64>) -> Vec<vcode::Label> {
    move |a| {
        let x = a.genlabel();
        let arg = a.arg(0);
        a.beqli(arg, 7, x);
        a.addli(arg, arg, 1);
        if label_behind {
            a.retl(arg);
            a.label(x);
        } else {
            a.label(x);
            a.retl(arg);
        }
        vec![x]
    }
}

/// The last `ret`'s jump to the epilogue is retracted at `end` like any
/// other jump to the next byte — unless a label was bound behind it,
/// which then resolves to the epilogue's first byte. Not a leaf, the
/// function keeps its frame, and the epilogue is `leave; ret`.
#[test]
fn a_final_ret_falls_into_the_epilogue_unless_a_label_sits_behind_it() {
    let (gone, gone_code, _) = emit3("%l", Leaf::No, final_ret(false));
    let (kept, kept_code, kept_at) = emit3("%l", Leaf::No, final_ret(true));
    assert_eq!(kept.len, gone.len + 5, "one `jmp rel32`");
    // jmp +0; leave; ret
    assert_eq!(kept_code[kept.len - 7..], [0xe9, 0, 0, 0, 0, 0xc9, 0xc3]);
    assert_eq!(kept_at[0], Some(kept.len - 2));
    assert_eq!(run1(&gone_code, gone.entry, 7), 7);
    assert_eq!(run1(&gone_code, gone.entry, 1), 2);
    assert_eq!(run1(&kept_code, kept.entry, 1), 2);
    // Through `x`: straight to the epilogue, rax as the caller left it.
    run1(&kept_code, kept.entry, 7);
}

/// A leaf without a frame ends in a bare `ret`, and a jump to it that
/// stays (a label sits behind it) becomes that `ret`, padded with `nop`s
/// to the jump's length so no label moves.
#[test]
fn a_jump_to_a_bare_ret_becomes_that_ret() {
    let (gone, gone_code, _) = emit3("%l", Leaf::Yes, final_ret(false));
    let (kept, kept_code, kept_at) = emit3("%l", Leaf::Yes, final_ret(true));
    assert_eq!(kept.len, gone.len + 5, "the jump's five bytes");
    assert_eq!(gone_code[gone.len - 1], 0xc3);
    assert_eq!(
        kept_code[kept.len - 6..],
        [0xc3, 0x90, 0x90, 0x90, 0x90, 0xc3]
    );
    assert_eq!(kept_at[0], Some(kept.len - 1));
    for (fin, code) in [(&gone, &gone_code), (&kept, &kept_code)] {
        for entry in [0, fin.entry] {
            assert_eq!(run1(code, entry, 1), 2);
        }
    }
    assert_eq!(run1(&gone_code, gone.entry, 7), 7);
    run1(&kept_code, kept.entry, 7);
}

/// `end` drops the frame of a leaf that saves no register and keeps no
/// local, and of nothing else: a leaf that uses `rbx` or a local, and a
/// function that is not a leaf, keep `push rbp; mov rbp, rsp; sub rsp,
/// N`, their saves and `leave; ret` byte for byte. Every one computes
/// `x + 1` from offset 0 and from its entry, and its image from the
/// entry passes the L2 loader's re-decode.
#[test]
fn only_a_leaf_that_saves_nothing_drops_its_frame() {
    const FRAME: [u8; 7] = [0x55, 0x48, 0x89, 0xe5, 0x48, 0x81, 0xec];
    #[derive(Clone, Copy)]
    enum Via {
        Temp,
        Rbx,
        Local,
    }
    let body = |via: Via| {
        move |a: &mut Assembler<'_, X64>| {
            let x = a.arg(0);
            let class = match via {
                Via::Rbx => RegClass::Persistent,
                _ => RegClass::Temp,
            };
            let r = a.getreg(class).unwrap();
            a.addli(r, x, 1);
            if let Via::Local = via {
                let slot = a.local(Ty::L);
                a.st_slot(slot, r);
                a.ld_slot(r, slot);
            }
            a.retl(r);
            vec![]
        }
    };
    /// The prologue's frame size and saves; `None`: no frame.
    type Frame = Option<(u32, &'static [u8])>;
    let cases: [(Leaf, Via, Frame); 4] = [
        (Leaf::Yes, Via::Temp, None),
        (Leaf::Yes, Via::Rbx, Some((0x50, &[0x48, 0x89, 0x5d, 0xf8]))),
        (Leaf::Yes, Via::Local, Some((0x60, &[]))),
        (Leaf::No, Via::Temp, Some((0x50, &[]))),
    ];
    for (leaf, via, frame) in cases {
        let (fin, code, _) = emit3("%l", leaf, body(via));
        // The reservation is 51 bytes; a prologue ends where it does.
        match frame {
            None => {
                assert_eq!(fin.entry, 51, "no prologue");
                assert_eq!(code[fin.len - 1], 0xc3, "a bare `ret`");
                assert_ne!(code[fin.len - 2], 0xc9, "no `leave`");
            }
            Some((size, saves)) => {
                let mut prologue = FRAME.to_vec();
                prologue.extend_from_slice(&size.to_le_bytes());
                prologue.extend_from_slice(saves);
                assert_eq!(fin.entry + prologue.len(), 51);
                assert_eq!(code[fin.entry..51], prologue[..]);
                assert_eq!(code[fin.len - 2..], [0xc9, 0xc3]);
            }
        }
        assert_eq!(code[..2], [0xeb, fin.entry as u8 - 2]);
        vcode::persist::redecode(&code[fin.entry..fin.len], &vcode_x64::declen::Decoder)
            .unwrap_or_else(|e| panic!("{e}"));
        for entry in [0, fin.entry] {
            assert_eq!(run1(&code, entry, 41), 42);
        }
    }
}
