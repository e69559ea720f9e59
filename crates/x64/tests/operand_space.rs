//! Exhaustive operand-space differential for the fused two-address
//! emitters.
//!
//! `X64::emit_binop` / `emit_binop_imm` / `emit_unop` / `emit_branch`
//! select among instructions that differ only in a constant from tables
//! and commit `[mov rd, rs1]` `op rd, src` as one emission whose length
//! carries the case. Here every operand combination they can be handed —
//! all 16 integer registers in every position, both widths, both
//! [`EmitPath`]s — is compared byte for byte with what the
//! single-instruction encoders (`encode::mov_rr`, `alu_rr`, `alu_imm`,
//! `imul_rr`, `shift_imm`, `unary_rm`, `jcc`) produce when composed by
//! the three-address → two-address case analysis the backend used before
//! the fusion (2fb0710), with `rd = rs1 - rd` as `neg rd; add rd, rs1`
//! where that analysis went through a scratch register. Those encoders
//! are themselves pinned, over their whole operand space, to a plain
//! byte-pushing encoder written from the instruction-set manual's
//! tables.

use vcode::asm::Asm;
use vcode::buf::{CodeBuffer, EmitPath};
use vcode::target::{BrOperand, Leaf, Target};
use vcode::{Assembler, BinOp, Cond, Label, Reg, Sig, Ty, UnOp};
use vcode_x64::encode::{self, cc, Alu};
use vcode_x64::X64;

const PATHS: [EmitPath; 2] = [EmitPath::Fast, EmitPath::Bytewise];
const ALU_OPS: [(BinOp, Alu); 5] = [
    (BinOp::Add, Alu::Add),
    (BinOp::Sub, Alu::Sub),
    (BinOp::And, Alu::And),
    (BinOp::Or, Alu::Or),
    (BinOp::Xor, Alu::Xor),
];
const IMMS: [i32; 9] = [0, 1, -1, 127, 128, -128, -129, i32::MAX, i32::MIN];
const CONDS: [Cond; 6] = [Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge, Cond::Eq, Cond::Ne];

/// The operand type of width `wide` and signedness `signed`.
fn ty(wide: bool, signed: bool) -> Ty {
    match (wide, signed) {
        (false, true) => Ty::I,
        (false, false) => Ty::U,
        (true, true) => Ty::L,
        (true, false) => Ty::Ul,
    }
}

/// What `reference` appends to an empty buffer.
fn bytes_of(reference: impl FnOnce(&mut CodeBuffer<'_>)) -> Vec<u8> {
    let mut mem = [0u8; 64];
    let mut buf = CodeBuffer::new(&mut mem);
    reference(&mut buf);
    assert!(!buf.overflowed());
    buf.as_slice().to_vec()
}

/// One open x86-64 session per [`EmitPath`]; each case appends to both
/// and must add exactly the reference bytes to each.
struct Sweep<'m> {
    /// Each with a label of its own that is never bound, so a branch's
    /// rel32 field stays as emitted (zero).
    sessions: Vec<(Assembler<'m, X64>, Label)>,
    cases: usize,
}

impl<'m> Sweep<'m> {
    fn new(mems: &'m mut [Vec<u8>; 2]) -> Sweep<'m> {
        let sessions = mems
            .iter_mut()
            .zip(PATHS)
            .map(|(mem, path)| {
                let sig = Sig::new(Vec::new(), Ty::V);
                let mut a = Assembler::lambda_sig_path(mem, sig, Leaf::Yes, path).expect("session");
                let l = a.genlabel();
                (a, l)
            })
            .collect();
        Sweep { sessions, cases: 0 }
    }

    #[track_caller]
    fn case(
        &mut self,
        what: impl Fn() -> String,
        emit: impl Fn(&mut Asm<'m>, Label),
        reference: impl FnOnce(&mut CodeBuffer<'_>),
    ) {
        let want = bytes_of(reference);
        for ((a, l), path) in self.sessions.iter_mut().zip(PATHS) {
            let start = a.state().buf.len();
            emit(a.raw(), *l);
            let buf = &a.state().buf;
            assert!(!buf.overflowed(), "sweep buffer too small");
            assert_eq!(buf.as_slice()[start..], want[..], "{} on {path:?}", what());
        }
        self.cases += 1;
    }
}

fn mems(bytes: usize) -> [Vec<u8>; 2] {
    [vec![0u8; bytes], vec![0u8; bytes]]
}

/// `rd = rs1 op rs2` as 2fb0710 resolved it onto a two-address machine.
fn three_address(
    b: &mut CodeBuffer<'_>,
    w: bool,
    commutes: bool,
    (rd, rs1, rs2): (u8, u8, u8),
    op: impl Fn(&mut CodeBuffer<'_>, u8, u8),
) {
    if rd == rs1 {
        op(b, rd, rs2);
    } else if rd == rs2 && commutes {
        op(b, rd, rs1);
    } else if rd == rs2 {
        // `rd = rs1 - rd`, the one operation here that does not commute.
        encode::unary_rm(b, 3, w, rd);
        encode::alu_rr(b, Alu::Add, w, rd, rs1);
    } else {
        encode::mov_rr(b, w, rd, rs1);
        op(b, rd, rs2);
    }
}

#[test]
fn register_forms_over_every_operand_triple() {
    let mut mems = mems(2 << 20);
    let mut s = Sweep::new(&mut mems);
    for w in [false, true] {
        for (rd, rs1, rs2) in triples() {
            let regs = (Reg::int(rd), Reg::int(rs1), Reg::int(rs2));
            for (op, alu) in ALU_OPS {
                s.case(
                    || format!("{op} w={w} r{rd}, r{rs1}, r{rs2}"),
                    |a, _| X64::emit_binop(a, op, ty(w, true), regs.0, regs.1, regs.2),
                    |b| {
                        three_address(b, w, op.commutes(), (rd, rs1, rs2), |b, d, x| {
                            encode::alu_rr(b, alu, w, d, x)
                        })
                    },
                );
            }
            s.case(
                || format!("mul w={w} r{rd}, r{rs1}, r{rs2}"),
                |a, _| X64::emit_binop(a, BinOp::Mul, ty(w, true), regs.0, regs.1, regs.2),
                |b| {
                    three_address(b, w, true, (rd, rs1, rs2), |b, d, x| {
                        encode::imul_rr(b, w, d, x)
                    })
                },
            );
        }
    }
    assert_eq!(s.cases, 2 * 16 * 16 * 16 * 6);
}

fn triples() -> impl Iterator<Item = (u8, u8, u8)> {
    (0..16u8).flat_map(|rd| (0..16u8).flat_map(move |a| (0..16u8).map(move |b| (rd, a, b))))
}

fn pairs() -> impl Iterator<Item = (u8, u8)> {
    (0..16u8).flat_map(|rd| (0..16u8).map(move |rs| (rd, rs)))
}

#[test]
fn immediate_forms_and_shifts_over_every_operand_pair() {
    let mut mems = mems(1 << 20);
    let mut s = Sweep::new(&mut mems);
    for w in [false, true] {
        for (rd, rs) in pairs() {
            let regs = (Reg::int(rd), Reg::int(rs));
            for imm in IMMS {
                for (op, alu) in ALU_OPS {
                    s.case(
                        || format!("{op} w={w} r{rd}, r{rs}, {imm}"),
                        |a, _| {
                            let imm = i64::from(imm);
                            X64::emit_binop_imm(a, op, ty(w, true), regs.0, regs.1, imm)
                        },
                        |b| {
                            if rd != rs {
                                encode::mov_rr(b, w, rd, rs);
                            }
                            encode::alu_imm(b, alu, w, rd, imm);
                        },
                    );
                }
                // Shift counts are masked to the operand width; the
                // right shift is arithmetic on a signed type.
                for (op, signed, ext) in [
                    (BinOp::Lsh, true, 4),
                    (BinOp::Lsh, false, 4),
                    (BinOp::Rsh, true, 7),
                    (BinOp::Rsh, false, 5),
                ] {
                    s.case(
                        || format!("{op} w={w} signed={signed} r{rd}, r{rs}, {imm}"),
                        |a, _| {
                            let imm = i64::from(imm);
                            X64::emit_binop_imm(a, op, ty(w, signed), regs.0, regs.1, imm)
                        },
                        |b| {
                            if rd != rs {
                                encode::mov_rr(b, w, rd, rs);
                            }
                            let mask = if w { 63 } else { 31 };
                            encode::shift_imm(b, ext, w, rd, imm as u8 & mask);
                        },
                    );
                }
            }
        }
    }
    assert_eq!(s.cases, 2 * 16 * 16 * IMMS.len() * (5 + 4));
}

#[test]
fn unary_forms_over_every_operand_pair() {
    let mut mems = mems(1 << 16);
    let mut s = Sweep::new(&mut mems);
    for w in [false, true] {
        for (rd, rs) in pairs() {
            let regs = (Reg::int(rd), Reg::int(rs));
            for (op, ext) in [
                (UnOp::Com, Some(2)),
                (UnOp::Neg, Some(3)),
                (UnOp::Mov, None),
            ] {
                s.case(
                    || format!("{op} w={w} r{rd}, r{rs}"),
                    |a, _| X64::emit_unop(a, op, ty(w, true), regs.0, regs.1),
                    |b| {
                        if rd != rs {
                            encode::mov_rr(b, w, rd, rs);
                        }
                        if let Some(ext) = ext {
                            encode::unary_rm(b, ext, w, rd);
                        }
                    },
                );
            }
        }
    }
    assert_eq!(s.cases, 2 * 16 * 16 * 3);
}

/// The condition-code nibble of `cond` on a type of signedness `signed`.
fn int_cc(cond: Cond, signed: bool) -> u8 {
    match (cond, signed) {
        (Cond::Lt, true) => cc::L,
        (Cond::Le, true) => cc::LE,
        (Cond::Gt, true) => cc::G,
        (Cond::Ge, true) => cc::GE,
        (Cond::Lt, false) => cc::B,
        (Cond::Le, false) => cc::BE,
        (Cond::Gt, false) => cc::A,
        (Cond::Ge, false) => cc::AE,
        (Cond::Eq, _) => cc::E,
        (Cond::Ne, _) => cc::NE,
    }
}

#[test]
fn compare_and_branch_over_every_operand_pair() {
    let mut mems = mems(1 << 20);
    let mut s = Sweep::new(&mut mems);
    for w in [false, true] {
        for signed in [false, true] {
            for cond in CONDS {
                let code = int_cc(cond, signed);
                for (rs1, rs2) in pairs() {
                    s.case(
                        || format!("{cond} w={w} signed={signed} r{rs1}, r{rs2}"),
                        |a, l| {
                            let (x, y) = (Reg::int(rs1), BrOperand::R(Reg::int(rs2)));
                            X64::emit_branch(a, cond, ty(w, signed), x, y, l)
                        },
                        |b| {
                            encode::alu_rr(b, Alu::Cmp, w, rs1, rs2);
                            encode::jcc(b, code);
                        },
                    );
                }
                for rs1 in 0..16u8 {
                    for imm in IMMS {
                        s.case(
                            || format!("{cond} w={w} signed={signed} r{rs1}, {imm}"),
                            |a, l| {
                                let (x, y) = (Reg::int(rs1), BrOperand::I(i64::from(imm)));
                                X64::emit_branch(a, cond, ty(w, signed), x, y, l)
                            },
                            |b| {
                                encode::alu_imm(b, Alu::Cmp, w, rs1, imm);
                                encode::jcc(b, code);
                            },
                        );
                    }
                }
            }
        }
    }
    assert_eq!(s.cases, 2 * 2 * 6 * (16 * 16 + 16 * IMMS.len()));
}

// ---- the reference's own reference ----

/// `[REX] opcode... modrm(11, reg, rm)`, one byte at a time.
fn plain_rr(opcode: &[u8], w: bool, reg: u8, rm: u8) -> Vec<u8> {
    let rex = 0x40 | (w as u8) << 3 | (reg >> 3) << 2 | (rm >> 3);
    let mut out = Vec::new();
    if rex != 0x40 {
        out.push(rex);
    }
    out.extend_from_slice(opcode);
    out.push(0b1100_0000 | (reg & 7) << 3 | (rm & 7));
    out
}

/// The single-instruction encoders the sweeps above compose, against the
/// manual's encoding tables over all registers, widths and immediates.
#[test]
fn single_instruction_encoders_match_the_manual() {
    // `op r/m, reg` opcodes and `/digit`s of the immediate group.
    let alu = [
        (Alu::Add, 0x01, 0),
        (Alu::Or, 0x09, 1),
        (Alu::And, 0x21, 4),
        (Alu::Sub, 0x29, 5),
        (Alu::Xor, 0x31, 6),
        (Alu::Cmp, 0x39, 7),
    ];
    for w in [false, true] {
        for (x, y) in pairs() {
            assert_eq!(
                bytes_of(|b| encode::mov_rr(b, w, x, y)),
                plain_rr(&[0x89], w, y, x)
            );
            assert_eq!(
                bytes_of(|b| encode::imul_rr(b, w, x, y)),
                plain_rr(&[0x0f, 0xaf], w, x, y)
            );
            for (op, opcode, _) in alu {
                assert_eq!(
                    bytes_of(|b| encode::alu_rr(b, op, w, x, y)),
                    plain_rr(&[opcode], w, y, x)
                );
            }
        }
        for rm in 0..16u8 {
            for imm in IMMS {
                for (op, _, digit) in alu {
                    let want = match i8::try_from(imm) {
                        Ok(imm8) => [plain_rr(&[0x83], w, digit, rm), vec![imm8 as u8]].concat(),
                        Err(_) => {
                            [plain_rr(&[0x81], w, digit, rm), imm.to_le_bytes().to_vec()].concat()
                        }
                    };
                    assert_eq!(bytes_of(|b| encode::alu_imm(b, op, w, rm, imm)), want);
                }
            }
            for ext in [4, 5, 7] {
                for count in [0u8, 1, 31, 63] {
                    assert_eq!(
                        bytes_of(|b| encode::shift_imm(b, ext, w, rm, count)),
                        [plain_rr(&[0xc1], w, ext, rm), vec![count]].concat()
                    );
                }
            }
            for ext in [2, 3] {
                assert_eq!(
                    bytes_of(|b| encode::unary_rm(b, ext, w, rm)),
                    plain_rr(&[0xf7], w, ext, rm)
                );
            }
        }
    }
    for code in 0..16u8 {
        assert_eq!(
            bytes_of(|b| {
                encode::jcc(b, code);
            }),
            [0x0f, 0x80 + code, 0, 0, 0, 0]
        );
    }
}
