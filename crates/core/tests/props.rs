//! Property-style tests on the core data structures and invariants,
//! driven by the in-repo deterministic [`XorShift`] generator (no
//! external property-testing dependency, so tier-1 runs offline).

use vcode::buf::CodeBuffer;
use vcode::label::{LabelMap, LiteralPool};
use vcode::reg::{Reg, RegClass, RegDesc, RegFile, RegKind};
use vcode::regalloc::RegAlloc;
use vcode::regress::{canon, eval_binop, eval_cond, eval_unop, XorShift};
use vcode::spec::Spec;
use vcode::{BinOp, Cond, Sig, Ty, UnOp};

const ARITH: [Ty; 7] = [Ty::I, Ty::U, Ty::L, Ty::Ul, Ty::P, Ty::F, Ty::D];

fn arith_ty(rng: &mut XorShift) -> Ty {
    ARITH[rng.below(ARITH.len() as u64) as usize]
}

/// Any signature built from valid types prints back to a string that
/// parses to the same signature.
#[test]
fn sig_roundtrip() {
    let mut rng = XorShift::new(0x51c);
    for _ in 0..256 {
        let n = rng.below(8) as usize;
        let args: Vec<Ty> = (0..n).map(|_| arith_ty(&mut rng)).collect();
        let ret = arith_ty(&mut rng);
        let mut s = String::new();
        for t in &args {
            s.push('%');
            s.push_str(t.suffix());
        }
        s.push(':');
        s.push_str(ret.suffix());
        let sig = Sig::parse(&s).expect("round-trip parses");
        assert_eq!(sig.args(), &args[..]);
        assert_eq!(sig.ret(), ret);
    }
}

/// The code buffer's cursor only moves forward, never past capacity,
/// and reads observe the most recent write.
#[test]
fn buffer_is_monotonic() {
    let mut rng = XorShift::new(0xb0f);
    for _ in 0..64 {
        let cap = rng.below(512) as usize;
        let n_ops = rng.below(200) as usize;
        let mut mem = vec![0u8; cap];
        let mut b = CodeBuffer::new(&mut mem);
        let mut prev = 0;
        for i in 0..n_ops {
            let v = rng.next_u64() as u32;
            b.put_u32(v);
            assert!(b.len() >= prev);
            assert!(b.len() <= cap);
            prev = b.len();
            if (i + 1) * 4 <= cap {
                assert_eq!(b.read_u32(i * 4), v);
            } else {
                assert!(b.overflowed());
            }
        }
    }
}

/// The literal pool deduplicates by bit pattern and, once emitted,
/// every entry's offset points to its exact bytes.
#[test]
fn literal_pool_offsets_are_faithful() {
    let mut rng = XorShift::new(0x9001);
    for _ in 0..64 {
        let n = rng.range(1, 32) as usize;
        // Bias toward collisions so dedup is actually exercised.
        let vals: Vec<f64> = (0..n)
            .map(|_| {
                if rng.next_bool() {
                    f64::from_bits(rng.next_u64())
                } else {
                    rng.below(4) as f64
                }
            })
            .collect();
        let mut pool = LiteralPool::new();
        let ids: Vec<_> = vals.iter().map(|&v| pool.intern_f64(v)).collect();
        assert!(pool.len() <= vals.len());
        let mut mem = vec![0u8; 16 + vals.len() * 8];
        let mut buf = CodeBuffer::new(&mut mem);
        buf.put_u32(0); // misalign a little
        let base = pool.emit(&mut buf, 0, &LabelMap::new()).unwrap();
        for (id, v) in ids.iter().zip(&vals) {
            let off = base + pool.offset(*id);
            assert_eq!(off % 8, 0, "doubles are 8-aligned");
            let got = f64::from_bits(
                u64::from(buf.read_u32(off)) | (u64::from(buf.read_u32(off + 4)) << 32),
            );
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }
}

/// The register allocator never hands out the same register twice
/// without an intervening putreg, and never hands out reserved
/// registers.
#[test]
fn regalloc_never_double_allocates() {
    static INT: [RegDesc; 6] = [
        RegDesc {
            reg: Reg::int(8),
            kind: RegKind::CallerSaved,
            name: "t0",
        },
        RegDesc {
            reg: Reg::int(9),
            kind: RegKind::CallerSaved,
            name: "t1",
        },
        RegDesc {
            reg: Reg::int(4),
            kind: RegKind::Arg(0),
            name: "a0",
        },
        RegDesc {
            reg: Reg::int(16),
            kind: RegKind::CalleeSaved,
            name: "s0",
        },
        RegDesc {
            reg: Reg::int(17),
            kind: RegKind::CalleeSaved,
            name: "s1",
        },
        RegDesc {
            reg: Reg::int(1),
            kind: RegKind::Reserved,
            name: "at",
        },
    ];
    static RF: RegFile = RegFile {
        int: &INT,
        flt: &[],
        hard_temps: &[],
        hard_saved: &[],
        sp: Reg::int(29),
        fp: Reg::int(30),
        zero: None,
    };
    let mut rng = XorShift::new(0xa110c);
    for _ in 0..128 {
        let steps = rng.range(1, 64);
        let mut ra = RegAlloc::new(&RF, false);
        let mut live: Vec<Reg> = Vec::new();
        for _ in 0..steps {
            if rng.next_bool() || live.is_empty() {
                if let Some(r) = ra.getreg(vcode::Bank::Int, RegClass::Temp) {
                    assert!(!live.contains(&r), "double allocation of {r}");
                    assert_ne!(r, Reg::int(1), "reserved register escaped");
                    live.push(r);
                } else {
                    assert_eq!(live.len(), 5, "exhaustion only when all are live");
                }
            } else {
                let r = live.pop().expect("non-empty");
                ra.putreg(r);
            }
        }
    }
}

/// Reference-semantics sanity: algebraic identities hold for the
/// regression oracle itself.
#[test]
fn reference_semantics_identities() {
    const TYS: [Ty; 4] = [Ty::I, Ty::U, Ty::L, Ty::Ul];
    let mut rng = XorShift::new(0x1de7);
    let bits = 64;
    for _ in 0..512 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let ty = TYS[rng.below(4) as usize];
        // x + y == y + x
        assert_eq!(
            eval_binop(BinOp::Add, ty, a, b, bits),
            eval_binop(BinOp::Add, ty, b, a, bits)
        );
        // x - x == 0
        assert_eq!(eval_binop(BinOp::Sub, ty, a, a, bits), Some(0));
        // x ^ x == 0
        assert_eq!(eval_binop(BinOp::Xor, ty, a, a, bits), Some(0));
        // neg(neg x) == canon(x)
        let n = eval_unop(UnOp::Neg, ty, a, bits).unwrap();
        assert_eq!(
            eval_unop(UnOp::Neg, ty, n, bits).unwrap(),
            canon(ty, a, bits)
        );
        // exactly one of <, ==, > holds
        let lt = eval_cond(Cond::Lt, ty, a, b, bits);
        let eq = eval_cond(Cond::Eq, ty, a, b, bits);
        let gt = eval_cond(Cond::Gt, ty, a, b, bits);
        assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
        // <= is < or ==
        assert_eq!(eval_cond(Cond::Le, ty, a, b, bits), lt || eq);
    }
}

/// The spec preprocessor: generated instruction names are the base
/// name composed with each type suffix (plus `i` for immediate forms),
/// in clause order.
#[test]
fn spec_composition() {
    let mut rng = XorShift::new(0x5bec);
    for _ in 0..64 {
        let len = rng.range(1, 9) as usize;
        let base: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let n_types = rng.range(1, 5) as usize;
        let types = [Ty::I, Ty::U, Ty::L, Ty::Ul][..n_types].to_vec();
        let tlist: Vec<&str> = types.iter().map(|t| t.suffix()).collect();
        let text = format!("({base} (rd, rs) ({} mach machi))", tlist.join(" "));
        let spec = Spec::parse(&text).expect("valid spec");
        let defs = spec.instructions();
        assert_eq!(defs.len(), types.len() * 2);
        for (k, ty) in types.iter().enumerate() {
            assert_eq!(&defs[2 * k].name, &format!("{base}{}", ty.suffix()));
            assert_eq!(&defs[2 * k + 1].name, &format!("{base}{}i", ty.suffix()));
            assert!(defs[2 * k + 1].imm);
        }
    }
}
