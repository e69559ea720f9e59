//! Streaming-verifier tests: the regress corpus must come out clean on
//! every backend, a corpus of deliberately bad clients must each be
//! caught with the exact expected rule, and the differential
//! machine-code checker must pass the re-decode on real emitted code.

use vcode::target::{Finished, JumpTarget, Leaf, Target};
use vcode::verify::{self, MarkKind, Rule, Severity};
use vcode::{
    regress, Assembler, BinOp, Cond, Error, InsnDecoder, Reg, RegClass, RegKind, Sig, StackSlot,
    Ty, UnOp, VerifyReport,
};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sparc::Sparc;
use vcode_x64::X64;

const MEM: usize = 64 * 1024;

/// Runs one verified generation session and returns the latched result
/// plus the verifier report (present even when generation failed).
fn session<T: Target>(
    sig: &str,
    leaf: Leaf,
    f: impl FnOnce(&mut Assembler<'_, T>),
) -> (Result<Finished, Error>, VerifyReport) {
    let mut mem = vec![0u8; MEM];
    let mut a = Assembler::<T>::lambda(&mut mem, sig, leaf).unwrap();
    a.enable_verifier();
    f(&mut a);
    let (r, report) = a.end_report();
    (r, *report.expect("verifier was enabled"))
}

/// A session that must both generate successfully and verify clean.
fn clean<T: Target>(sig: &str, f: impl FnOnce(&mut Assembler<'_, T>)) -> VerifyReport {
    let (r, report) = session::<T>(sig, Leaf::Yes, f);
    r.expect("clean program generates");
    assert!(
        report.is_clean(),
        "expected a clean report, got: {:#?}",
        report.diags
    );
    report
}

fn dispatch_binop<T: Target>(
    a: &mut Assembler<'_, T>,
    op: BinOp,
    ty: Ty,
    rd: Reg,
    r1: Reg,
    r2: Reg,
) {
    match (op, ty) {
        (BinOp::Add, Ty::I) => a.addi(rd, r1, r2),
        (BinOp::Add, Ty::U) => a.addu(rd, r1, r2),
        (BinOp::Add, Ty::L) => a.addl(rd, r1, r2),
        (BinOp::Add, Ty::Ul) => a.addul(rd, r1, r2),
        (BinOp::Sub, Ty::I) => a.subi(rd, r1, r2),
        (BinOp::Sub, Ty::U) => a.subu(rd, r1, r2),
        (BinOp::Sub, Ty::L) => a.subl(rd, r1, r2),
        (BinOp::Sub, Ty::Ul) => a.subul(rd, r1, r2),
        (BinOp::Mul, Ty::I) => a.muli(rd, r1, r2),
        (BinOp::Mul, Ty::U) => a.mulu(rd, r1, r2),
        (BinOp::Mul, Ty::L) => a.mull(rd, r1, r2),
        (BinOp::Mul, Ty::Ul) => a.mulul(rd, r1, r2),
        (BinOp::Div, Ty::I) => a.divi(rd, r1, r2),
        (BinOp::Div, Ty::U) => a.divu(rd, r1, r2),
        (BinOp::Div, Ty::L) => a.divl(rd, r1, r2),
        (BinOp::Div, Ty::Ul) => a.divul(rd, r1, r2),
        (BinOp::Mod, Ty::I) => a.modi(rd, r1, r2),
        (BinOp::Mod, Ty::U) => a.modu(rd, r1, r2),
        (BinOp::Mod, Ty::L) => a.modl(rd, r1, r2),
        (BinOp::Mod, Ty::Ul) => a.modul(rd, r1, r2),
        (BinOp::And, Ty::I) => a.andi(rd, r1, r2),
        (BinOp::And, Ty::U) => a.andu(rd, r1, r2),
        (BinOp::And, Ty::L) => a.andl(rd, r1, r2),
        (BinOp::And, Ty::Ul) => a.andul(rd, r1, r2),
        (BinOp::Or, Ty::I) => a.ori(rd, r1, r2),
        (BinOp::Or, Ty::U) => a.oru(rd, r1, r2),
        (BinOp::Or, Ty::L) => a.orl(rd, r1, r2),
        (BinOp::Or, Ty::Ul) => a.orul(rd, r1, r2),
        (BinOp::Xor, Ty::I) => a.xori(rd, r1, r2),
        (BinOp::Xor, Ty::U) => a.xoru(rd, r1, r2),
        (BinOp::Xor, Ty::L) => a.xorl(rd, r1, r2),
        (BinOp::Xor, Ty::Ul) => a.xorul(rd, r1, r2),
        (BinOp::Lsh, Ty::I) => a.lshi(rd, r1, r2),
        (BinOp::Lsh, Ty::U) => a.lshu(rd, r1, r2),
        (BinOp::Lsh, Ty::L) => a.lshl(rd, r1, r2),
        (BinOp::Lsh, Ty::Ul) => a.lshul(rd, r1, r2),
        (BinOp::Rsh, Ty::I) => a.rshi(rd, r1, r2),
        (BinOp::Rsh, Ty::U) => a.rshu(rd, r1, r2),
        (BinOp::Rsh, Ty::L) => a.rshl(rd, r1, r2),
        (BinOp::Rsh, Ty::Ul) => a.rshul(rd, r1, r2),
        (op, ty) => panic!("corpus produced {op:?}.{ty:?}"),
    }
}

fn dispatch_binop_imm<T: Target>(
    a: &mut Assembler<'_, T>,
    op: BinOp,
    ty: Ty,
    rd: Reg,
    rs: Reg,
    imm: i64,
) {
    match (op, ty) {
        (BinOp::Add, Ty::I) => a.addii(rd, rs, imm),
        (BinOp::Add, Ty::U) => a.addui(rd, rs, imm),
        (BinOp::Add, Ty::L) => a.addli(rd, rs, imm),
        (BinOp::Add, Ty::Ul) => a.adduli(rd, rs, imm),
        (BinOp::Sub, Ty::I) => a.subii(rd, rs, imm),
        (BinOp::Sub, Ty::U) => a.subui(rd, rs, imm),
        (BinOp::Sub, Ty::L) => a.subli(rd, rs, imm),
        (BinOp::Sub, Ty::Ul) => a.subuli(rd, rs, imm),
        (BinOp::Mul, Ty::I) => a.mulii(rd, rs, imm),
        (BinOp::Mul, Ty::U) => a.mului(rd, rs, imm),
        (BinOp::Mul, Ty::L) => a.mulli(rd, rs, imm),
        (BinOp::Mul, Ty::Ul) => a.mululi(rd, rs, imm),
        (BinOp::Div, Ty::I) => a.divii(rd, rs, imm),
        (BinOp::Div, Ty::U) => a.divui(rd, rs, imm),
        (BinOp::Div, Ty::L) => a.divli(rd, rs, imm),
        (BinOp::Div, Ty::Ul) => a.divuli(rd, rs, imm),
        (BinOp::Mod, Ty::I) => a.modii(rd, rs, imm),
        (BinOp::Mod, Ty::U) => a.modui(rd, rs, imm),
        (BinOp::Mod, Ty::L) => a.modli(rd, rs, imm),
        (BinOp::Mod, Ty::Ul) => a.moduli(rd, rs, imm),
        (BinOp::And, Ty::I) => a.andii(rd, rs, imm),
        (BinOp::And, Ty::U) => a.andui(rd, rs, imm),
        (BinOp::And, Ty::L) => a.andli(rd, rs, imm),
        (BinOp::And, Ty::Ul) => a.anduli(rd, rs, imm),
        (BinOp::Or, Ty::I) => a.orii(rd, rs, imm),
        (BinOp::Or, Ty::U) => a.orui(rd, rs, imm),
        (BinOp::Or, Ty::L) => a.orli(rd, rs, imm),
        (BinOp::Or, Ty::Ul) => a.oruli(rd, rs, imm),
        (BinOp::Xor, Ty::I) => a.xorii(rd, rs, imm),
        (BinOp::Xor, Ty::U) => a.xorui(rd, rs, imm),
        (BinOp::Xor, Ty::L) => a.xorli(rd, rs, imm),
        (BinOp::Xor, Ty::Ul) => a.xoruli(rd, rs, imm),
        (BinOp::Lsh, Ty::I) => a.lshii(rd, rs, imm),
        (BinOp::Lsh, Ty::U) => a.lshui(rd, rs, imm),
        (BinOp::Lsh, Ty::L) => a.lshli(rd, rs, imm),
        (BinOp::Lsh, Ty::Ul) => a.lshuli(rd, rs, imm),
        (BinOp::Rsh, Ty::I) => a.rshii(rd, rs, imm),
        (BinOp::Rsh, Ty::U) => a.rshui(rd, rs, imm),
        (BinOp::Rsh, Ty::L) => a.rshli(rd, rs, imm),
        (BinOp::Rsh, Ty::Ul) => a.rshuli(rd, rs, imm),
        (op, ty) => panic!("corpus produced {op:?}.{ty:?} imm"),
    }
}

fn dispatch_unop<T: Target>(a: &mut Assembler<'_, T>, op: UnOp, ty: Ty, rd: Reg, rs: Reg) {
    match (op, ty) {
        (UnOp::Com, Ty::I) => a.comi(rd, rs),
        (UnOp::Com, Ty::U) => a.comu(rd, rs),
        (UnOp::Com, Ty::L) => a.coml(rd, rs),
        (UnOp::Com, Ty::Ul) => a.comul(rd, rs),
        (UnOp::Not, Ty::I) => a.noti(rd, rs),
        (UnOp::Not, Ty::U) => a.notu(rd, rs),
        (UnOp::Not, Ty::L) => a.notl(rd, rs),
        (UnOp::Not, Ty::Ul) => a.notul(rd, rs),
        (UnOp::Mov, Ty::I) => a.movi(rd, rs),
        (UnOp::Mov, Ty::U) => a.movu(rd, rs),
        (UnOp::Mov, Ty::L) => a.movl(rd, rs),
        (UnOp::Mov, Ty::Ul) => a.movul(rd, rs),
        (UnOp::Neg, Ty::I) => a.negi(rd, rs),
        (UnOp::Neg, Ty::U) => a.negu(rd, rs),
        (UnOp::Neg, Ty::L) => a.negl(rd, rs),
        (UnOp::Neg, Ty::Ul) => a.negul(rd, rs),
        (op, ty) => panic!("corpus produced {op:?}.{ty:?}"),
    }
}

fn dispatch_branch<T: Target>(
    a: &mut Assembler<'_, T>,
    cond: Cond,
    ty: Ty,
    r1: Reg,
    r2: Reg,
    l: vcode::Label,
) {
    match (cond, ty) {
        (Cond::Lt, Ty::I) => a.blti(r1, r2, l),
        (Cond::Lt, Ty::U) => a.bltu(r1, r2, l),
        (Cond::Lt, Ty::L) => a.bltl(r1, r2, l),
        (Cond::Lt, Ty::Ul) => a.bltul(r1, r2, l),
        (Cond::Le, Ty::I) => a.blei(r1, r2, l),
        (Cond::Le, Ty::U) => a.bleu(r1, r2, l),
        (Cond::Le, Ty::L) => a.blel(r1, r2, l),
        (Cond::Le, Ty::Ul) => a.bleul(r1, r2, l),
        (Cond::Gt, Ty::I) => a.bgti(r1, r2, l),
        (Cond::Gt, Ty::U) => a.bgtu(r1, r2, l),
        (Cond::Gt, Ty::L) => a.bgtl(r1, r2, l),
        (Cond::Gt, Ty::Ul) => a.bgtul(r1, r2, l),
        (Cond::Ge, Ty::I) => a.bgei(r1, r2, l),
        (Cond::Ge, Ty::U) => a.bgeu(r1, r2, l),
        (Cond::Ge, Ty::L) => a.bgel(r1, r2, l),
        (Cond::Ge, Ty::Ul) => a.bgeul(r1, r2, l),
        (Cond::Eq, Ty::I) => a.beqi(r1, r2, l),
        (Cond::Eq, Ty::U) => a.bequ(r1, r2, l),
        (Cond::Eq, Ty::L) => a.beql(r1, r2, l),
        (Cond::Eq, Ty::Ul) => a.bequl(r1, r2, l),
        (Cond::Ne, Ty::I) => a.bnei(r1, r2, l),
        (Cond::Ne, Ty::U) => a.bneu(r1, r2, l),
        (Cond::Ne, Ty::L) => a.bnel(r1, r2, l),
        (Cond::Ne, Ty::Ul) => a.bneul(r1, r2, l),
        (cond, ty) => panic!("corpus produced {cond:?}.{ty:?}"),
    }
}

// ---------------------------------------------------------------------------
// Property: the regress corpus verifies clean on every backend
// ---------------------------------------------------------------------------

/// Streams the whole regress corpus (binops, immediate binops, unops,
/// branches) through the verified public assembler surface in chunks and
/// requires a clean report for every chunk.
fn corpus_is_clean<T: Target>() {
    let bits = T::WORD_BITS;
    let bins = regress::binop_cases(bits, 1, 0x5eed);
    for chunk in bins.chunks(24) {
        clean::<T>("%i%i", |a| {
            let (x, y) = (a.arg(0), a.arg(1));
            for c in chunk {
                let rd = a.getreg(RegClass::Temp).unwrap();
                dispatch_binop(a, c.op, c.ty, rd, x, y);
                a.putreg(rd);
            }
            a.reti(x);
        });
    }
    for chunk in bins.chunks(24) {
        clean::<T>("%i", |a| {
            let x = a.arg(0);
            for c in chunk {
                let rd = a.getreg(RegClass::Temp).unwrap();
                let imm = if bits == 32 {
                    c.b as i32 as i64
                } else {
                    c.b as i64
                };
                dispatch_binop_imm(a, c.op, c.ty, rd, x, imm);
                a.putreg(rd);
            }
            a.reti(x);
        });
    }
    for chunk in regress::unop_cases(bits).chunks(24) {
        clean::<T>("%i", |a| {
            let x = a.arg(0);
            for c in chunk {
                let rd = a.getreg(RegClass::Temp).unwrap();
                dispatch_unop(a, c.op, c.ty, rd, x);
                a.putreg(rd);
            }
            a.reti(x);
        });
    }
    for chunk in regress::branch_cases(bits).chunks(24) {
        clean::<T>("%i%i", |a| {
            let (x, y) = (a.arg(0), a.arg(1));
            for c in chunk {
                let l = a.genlabel();
                dispatch_branch(a, c.cond, c.ty, x, y, l);
                a.label(l);
            }
            a.reti(x);
        });
    }
}

#[test]
fn corpus_clean_mips() {
    corpus_is_clean::<Mips>();
}

#[test]
fn corpus_clean_sparc() {
    corpus_is_clean::<Sparc>();
}

#[test]
fn corpus_clean_alpha() {
    corpus_is_clean::<Alpha>();
}

#[test]
fn corpus_clean_x64() {
    corpus_is_clean::<X64>();
}

/// Floats, conversions, locals and constant pools verify clean too.
fn kitchen_sink_is_clean<T: Target>() {
    clean::<T>("%d%d", |a| {
        let (x, y) = (a.arg(0), a.arg(1));
        let f = a.getreg_f(RegClass::Temp).unwrap();
        a.addd(f, x, y);
        a.subd(f, f, y);
        a.muld(f, f, x);
        a.divd(f, f, y);
        a.negd(f, f);
        a.setd(f, 2.5);
        let i = a.getreg(RegClass::Temp).unwrap();
        a.cvd2i(i, f);
        a.cvi2d(f, i);
        let slot = a.local(Ty::D);
        a.st_slot(slot, f);
        a.ld_slot(f, slot);
        let islot = a.local(Ty::I);
        a.st_slot(islot, i);
        a.ld_slot(i, islot);
        a.putreg(i);
        a.putreg(f);
        a.retd(x);
    });
}

#[test]
fn kitchen_sink_clean_mips() {
    kitchen_sink_is_clean::<Mips>();
}

#[test]
fn kitchen_sink_clean_sparc() {
    kitchen_sink_is_clean::<Sparc>();
}

#[test]
fn kitchen_sink_clean_alpha() {
    kitchen_sink_is_clean::<Alpha>();
}

#[test]
fn kitchen_sink_clean_x64() {
    kitchen_sink_is_clean::<X64>();
}

// ---------------------------------------------------------------------------
// Bad-client corpus: every misuse is caught with the exact rule
// ---------------------------------------------------------------------------

/// Finds an integer register that is in no way nameable: not described
/// in the register file, not reserved, not an anchor.
fn undescribed_int<T: Target>() -> Reg {
    let rf = T::regfile();
    (0u8..64)
        .map(Reg::int)
        .find(|&r| {
            rf.desc(r).is_none()
                && !T::CHECKS.reserved_int.contains(&r.num())
                && r != rf.sp
                && r != rf.fp
                && Some(r) != rf.zero
        })
        .expect("every target leaves some integer register undescribed")
}

fn callee_saved_int<T: Target>() -> Option<Reg> {
    T::regfile()
        .int
        .iter()
        .find(|d| matches!(d.kind, RegKind::CalleeSaved))
        .map(|d| d.reg)
}

/// The target-independent misuse corpus, instantiated per backend. Each
/// case asserts the exact rule (and where interesting, the severity).
fn bad_clients<T: Target>() {
    // 1. Read of a register that was never written.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.addi(x, t, x); // t is uninitialized
        a.putreg(t);
        a.reti(x);
    });
    assert_eq!(rep.count(Rule::UseBeforeDef), 1, "{:#?}", rep.diags);

    // 2. ...reported once per register, not per use.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.addi(x, t, x);
        a.addi(x, t, x);
        a.putreg(t);
        a.reti(x);
    });
    assert_eq!(rep.count(Rule::UseBeforeDef), 1);

    // 3. Float register fed to an integer op.
    let (_, rep) = session::<T>("%i%d", Leaf::Yes, |a| {
        let (x, d) = (a.arg(0), a.arg(1));
        a.addi(x, d, x);
        a.reti(x);
    });
    assert!(rep.has(Rule::BankMismatch), "{:#?}", rep.diags);
    assert!(rep
        .at_least(Severity::Error)
        .any(|d| d.rule == Rule::BankMismatch));

    // 4. Integer register returned through the float path.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.retd(x);
    });
    assert!(rep.has(Rule::BankMismatch));

    // 5. Bank mismatch in a branch operand.
    let (_, rep) = session::<T>("%i%d", Leaf::Yes, |a| {
        let (x, d) = (a.arg(0), a.arg(1));
        let l = a.genlabel();
        a.blti(x, d, l);
        a.label(l);
        a.reti(x);
    });
    assert!(rep.has(Rule::BankMismatch));

    // 6. Naming a register the target reserves for synthesis.
    if let Some(&n) = T::CHECKS.reserved_int.first() {
        let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
            let x = a.arg(0);
            a.addi(x, Reg::int(n), x);
            a.reti(x);
        });
        assert!(rep.has(Rule::ReservedRegister), "{:#?}", rep.diags);
    }

    // 7. Naming a register that is not in the register file at all.
    let ghost = undescribed_int::<T>();
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.movi(x, ghost);
        a.reti(x);
    });
    assert!(rep.has(Rule::UnknownRegister), "{:#?}", rep.diags);

    // 8. A leaked getreg lease is a note, not a warning: the report
    //    stays clean but records the leak.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.movi(t, x);
        a.reti(x);
    });
    assert!(rep.has(Rule::LeakedReg));
    assert!(rep.is_clean(), "a leak alone must not dirty the report");

    // 9. Returning the same register twice.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let t = a.getreg(RegClass::Temp).unwrap();
        a.putreg(t);
        a.putreg(t);
        a.reti(x);
    });
    assert_eq!(rep.count(Rule::DoubleFree), 1, "{:#?}", rep.diags);

    // 10. Out-of-range hard register index: typed error plus lint.
    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let _ = a.hard_temp(usize::MAX);
        a.reti(x);
    });
    assert!(rep.has(Rule::BadOperand), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::BadOperands(_))));

    // 11. Calling out of a declared leaf.
    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let sig = Sig::parse("%i:%i").unwrap();
        let mut cf = a.call_begin(&sig);
        a.call_arg(&mut cf, 0, Ty::I, x);
        a.call_end(cf, JumpTarget::Abs(0x1000), None);
        a.reti(x);
    });
    assert!(rep.has(Rule::CallInLeaf), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::CallInLeaf)));

    // 12. Binding the same label twice is diagnosed, not a panic, when
    //     the verifier is on.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let l = a.genlabel();
        a.label(l);
        a.label(l);
        a.reti(x);
    });
    assert_eq!(rep.count(Rule::LabelRebound), 1, "{:#?}", rep.diags);

    // 13. Branching to a label that is never placed.
    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let l = a.genlabel();
        a.jmp(l);
        a.reti(x);
    });
    assert!(rep.has(Rule::LabelUnbound), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::UnboundLabel(_))));

    // 14. A fixup past the write cursor: typed error plus lint.
    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let l = a.genlabel();
        a.label(l);
        a.raw()
            .fixup_at(0xffff, vcode::label::FixupTarget::Label(l), 0);
        a.reti(x);
    });
    assert!(rep.has(Rule::FixupPastCursor), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::FixupOutOfRange { .. })));

    // 15. A stack-slot access outside every allocated local.
    let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        let slot = a.local(Ty::I);
        let oob = StackSlot {
            base: slot.base,
            off: slot.off + 512,
            ty: slot.ty,
        };
        a.st_slot(oob, x);
        a.reti(x);
    });
    assert_eq!(rep.count(Rule::SlotOutOfBounds), 1, "{:#?}", rep.diags);

    // 16. Writing a callee-saved register that was never allocated, so
    //     the prologue will not preserve it for the caller.
    if let Some(s) = callee_saved_int::<T>() {
        let (_, rep) = session::<T>("%i", Leaf::Yes, |a| {
            let x = a.arg(0);
            a.movi(s, x);
            a.reti(x);
        });
        assert!(rep.has(Rule::CalleeSavedClobber), "{:#?}", rep.diags);
    }

    // 17. call_begin that is never completed.
    let (_, rep) = session::<T>("%i", Leaf::No, |a| {
        let x = a.arg(0);
        let sig = Sig::parse(":%i").unwrap();
        let _cf = a.call_begin(&sig);
        a.reti(x);
    });
    assert!(rep.has(Rule::UnbalancedCall), "{:#?}", rep.diags);

    // 18. Registers out of the register file fed to the tuning API:
    //     typed error, diagnosed, never a panic.
    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.set_register_class(ghost, RegKind::CallerSaved);
        a.reti(x);
    });
    assert!(rep.has(Rule::UnknownRegister), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::UnknownRegister(_))));

    let (r, rep) = session::<T>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.set_register_priority(vcode::Bank::Int, &[ghost]);
        a.reti(x);
    });
    assert!(rep.has(Rule::UnknownRegister), "{:#?}", rep.diags);
    assert!(matches!(r, Err(Error::UnknownRegister(_))));
}

#[test]
fn bad_clients_mips() {
    bad_clients::<Mips>();
}

#[test]
fn bad_clients_sparc() {
    bad_clients::<Sparc>();
}

#[test]
fn bad_clients_alpha() {
    bad_clients::<Alpha>();
}

#[test]
fn bad_clients_x64() {
    bad_clients::<X64>();
}

/// 32-bit targets diagnose immediates that cannot live in a machine
/// word.
#[test]
fn imm_out_of_range_is_32_bit_only() {
    let (_, rep) = session::<Mips>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.setl(x, 0x1_0000_0000);
        a.reti(x);
    });
    assert!(rep.has(Rule::ImmOutOfRange), "{:#?}", rep.diags);

    let (_, rep) = session::<Alpha>("%i", Leaf::Yes, |a| {
        let x = a.arg(0);
        a.setl(x, 0x1_0000_0000);
        a.reti(x);
    });
    assert!(!rep.has(Rule::ImmOutOfRange), "{:#?}", rep.diags);
}

/// Dropping a verified session without `end` bumps the process-wide
/// orphan counter (the unbalanced-lambda detector).
#[test]
fn dropped_session_counts_as_orphan() {
    let before = verify::orphaned_sessions();
    {
        let mut mem = vec![0u8; 4096];
        let mut a = Assembler::<Mips>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        a.enable_verifier();
        let x = a.arg(0);
        a.reti(x);
        // dropped without end()
    }
    assert!(verify::orphaned_sessions() > before);
}

// ---------------------------------------------------------------------------
// Zero-cost-off: the verifier must not change emitted bytes
// ---------------------------------------------------------------------------

fn bytes_identical_off_and_on<T: Target>() {
    let build = |verified: bool| -> (Vec<u8>, bool) {
        let mut mem = vec![0u8; MEM];
        let mut a = Assembler::<T>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
        if verified {
            a.enable_verifier();
        }
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        a.addi(t, x, y);
        a.mulii(t, t, 7);
        let l = a.genlabel();
        a.bnei(t, y, l);
        a.seti(t, 0);
        a.label(l);
        let slot = a.local(Ty::I);
        a.st_slot(slot, t);
        a.ld_slot(t, slot);
        a.putreg(t);
        a.reti(t);
        let (fin, report) = a.end_report();
        mem.truncate(fin.unwrap().len);
        (mem, report.is_some())
    };
    let (off, off_report) = build(false);
    let (on, on_report) = build(true);
    assert_eq!(off, on, "verifier-on emission must be byte-identical");
    assert!(!off_report);
    assert!(on_report);
}

#[test]
fn bytes_identical_mips() {
    bytes_identical_off_and_on::<Mips>();
}

#[test]
fn bytes_identical_sparc() {
    bytes_identical_off_and_on::<Sparc>();
}

#[test]
fn bytes_identical_alpha() {
    bytes_identical_off_and_on::<Alpha>();
}

#[test]
fn bytes_identical_x64() {
    bytes_identical_off_and_on::<X64>();
}

// ---------------------------------------------------------------------------
// Differential machine-code checker on real emitted code
// ---------------------------------------------------------------------------

/// Builds a representative program (arith, immediates, a loop, locals,
/// floats) and returns its code and report.
fn representative<T: Target>() -> (Vec<u8>, VerifyReport) {
    let mut mem = vec![0u8; MEM];
    let mut a = Assembler::<T>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
    a.enable_verifier();
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    let acc = a.getreg(RegClass::Temp).unwrap();
    a.seti(acc, 0);
    a.movi(t, x);
    let top = a.genlabel();
    let done = a.genlabel();
    a.label(top);
    a.blei(t, y, done);
    a.addi(acc, acc, t);
    a.subii(t, t, 1);
    a.jmp(top);
    a.label(done);
    let slot = a.local(Ty::I);
    a.st_slot(slot, acc);
    a.ld_slot(acc, slot);
    let f = a.getreg_f(RegClass::Temp).unwrap();
    a.setd(f, 1.5);
    a.addd(f, f, f);
    a.putreg(f);
    a.putreg(t);
    a.reti(acc);
    let (fin, report) = a.end_report();
    mem.truncate(fin.unwrap().len);
    (mem, *report.expect("verifier was enabled"))
}

fn cross_checks_green<T: Target>(dec: &dyn InsnDecoder) {
    let (code, report) = representative::<T>();
    let diags = vcode::cross_check(&code, &report, dec, &T::CHECKS);
    assert!(diags.is_empty(), "differential check found: {diags:#?}");
    assert_eq!(report.marks.len() as u64, report.vcode_insns);
}

#[test]
fn cross_check_green_mips() {
    cross_checks_green::<Mips>(&vcode_sim::mips::Decoder);
}

#[test]
fn cross_check_green_sparc() {
    cross_checks_green::<Sparc>(&vcode_sim::sparc::Decoder);
}

#[test]
fn cross_check_green_alpha() {
    cross_checks_green::<Alpha>(&vcode_sim::alpha::Decoder);
}

#[test]
fn cross_check_green_x64() {
    cross_checks_green::<X64>(&vcode_x64::declen::Decoder);
}

/// Corrupting bytes inside a recorded span is caught by the re-decode.
#[test]
fn cross_check_catches_corruption() {
    let (mut code, report) = representative::<Mips>();
    let m = report.marks[report.marks.len() / 2];
    code[m.start..m.start + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
    let diags = vcode::cross_check(&code, &report, &vcode_sim::mips::Decoder, &Mips::CHECKS);
    assert!(
        diags.iter().any(|d| d.rule == Rule::DecodeError),
        "{diags:#?}"
    );
}

/// A doctored mark that splits a machine instruction is a boundary
/// mismatch.
#[test]
fn cross_check_catches_split_spans() {
    let (code, mut report) = representative::<Mips>();
    let k = report.marks.len() / 2;
    report.marks[k].end -= 2; // cut into the middle of a word
    let diags = vcode::cross_check(&code, &report, &vcode_sim::mips::Decoder, &Mips::CHECKS);
    assert!(
        diags
            .iter()
            .any(|d| matches!(d.rule, Rule::BoundaryMismatch | Rule::DecodeError)),
        "{diags:#?}"
    );
}

/// Losing a mark makes the instruction accounting disagree.
#[test]
fn cross_check_catches_count_mismatch() {
    let (code, mut report) = representative::<Mips>();
    report.marks.pop();
    let diags = vcode::cross_check(&code, &report, &vcode_sim::mips::Decoder, &Mips::CHECKS);
    assert!(
        diags.iter().any(|d| d.rule == Rule::InsnCountMismatch),
        "{diags:#?}"
    );
}

/// A branch whose label the resolved table puts inside a word is caught
/// from the table, whatever the machine encoding says.
#[test]
fn cross_check_catches_a_label_inside_an_instruction() {
    let (code, mut report) = representative::<Mips>();
    let check = |report: &VerifyReport| {
        vcode::cross_check(&code, report, &vcode_sim::mips::Decoder, &Mips::CHECKS)
    };
    assert!(check(&report).is_empty());
    let (at, l) = report
        .marks
        .iter()
        .find_map(|m| match m.kind {
            MarkKind::Branch(l) => Some((m.start, l)),
            _ => None,
        })
        .expect("the loop branches");
    let off = report.label_offset(l).expect("bound");
    report.labels[l.index() as usize] = Some(off + 2);
    let diags = check(&report);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(
        (diags[0].rule, diags[0].pc),
        (Rule::BranchTargetMisaligned, at)
    );
}
