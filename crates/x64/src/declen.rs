//! Length decoder for the x86-64 encoding subset of [`crate::encode`].
//!
//! The differential machine-code checker (`vcode::verify::cross_check`)
//! needs to re-walk the emitted bytes and confirm that every recorded
//! vcode instruction span is a whole number of machine instructions and
//! that branch targets land on instruction boundaries. The RISC targets
//! reuse their simulator disassemblers for this; x86-64 has no simulator,
//! so this module decodes exactly the instruction forms the backend can
//! emit — prefixes, REX, opcode, modrm/SIB/displacement, immediate — and
//! rejects everything else. Rejecting unknown encodings is a feature: a
//! byte stream this decoder cannot parse is a byte stream the backend
//! should never have produced.

use vcode::{DecodedInsn, InsnDecoder};

/// [`InsnDecoder`] over the backend's emitted instruction subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

/// Bytes consumed by a modrm byte plus its SIB/displacement, starting at
/// `bytes[0]` = the modrm byte itself. `None` for truncated input or the
/// (never emitted) SIB-with-no-base form.
fn modrm_len(bytes: &[u8]) -> Option<usize> {
    let modrm = *bytes.first()?;
    let md = modrm >> 6;
    let rm = modrm & 7;
    let mut n = 1;
    if md != 0b11 && rm == 0b100 {
        let sib = *bytes.get(1)?;
        n += 1;
        if md == 0b00 && sib & 7 == 0b101 {
            return None; // SIB base=101 with mod=00: not emitted
        }
    }
    n += match (md, rm) {
        (0b00, 0b101) => 4, // rip-relative disp32
        (0b00, _) => 0,
        (0b01, _) => 1,
        (0b10, _) => 4,
        _ => 0, // register direct
    };
    if bytes.len() < n {
        return None;
    }
    Some(n)
}

fn rel32_target(code: &[u8], field: usize, next: usize) -> Option<i64> {
    let rel = i32::from_le_bytes(code.get(field..field + 4)?.try_into().ok()?);
    Some(next as i64 + i64::from(rel))
}

/// What follows an opcode byte, for every form the backend emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Not an opcode the backend emits.
    Invalid,
    /// Nothing follows.
    Plain,
    /// A modrm byte (with its SIB/displacement), then `imm` immediate
    /// bytes.
    Modrm { imm: u8 },
    /// A rel32 branch: control transfer with a decodable target.
    Rel32,
    /// A rel8 branch: control transfer with a decodable target.
    Rel8,
    /// `mov r, imm32`, or `movabs r, imm64` under REX.W.
    MovImm,
    /// Group 5: `jmp`/`call r/m` (only /4 and /2 are emitted).
    Group5,
    /// `ret` or `int3`: control leaves, to no decodable target.
    Ret,
    /// The two-byte escape: the next byte indexes [`TWO_BYTE`].
    Escape,
}

const fn classes(forms: &[(&[u8], Class)]) -> [Class; 256] {
    let mut table = [Class::Invalid; 256];
    let mut f = 0;
    while f < forms.len() {
        let (ops, class) = forms[f];
        let mut i = 0;
        while i < ops.len() {
            table[ops[i] as usize] = class;
            i += 1;
        }
        f += 1;
    }
    table
}

/// One-byte opcodes.
const ONE_BYTE: [Class; 256] = classes(&[
    (&[0x0f], Class::Escape),
    // ALU r/m, reg; movsxd; mov/lea and byte/word stores; shift by cl;
    // group-3 unary.
    (
        &[
            0x01, 0x09, 0x21, 0x29, 0x31, 0x39, 0x63, 0x88, 0x89, 0x8b, 0x8d, 0xd3, 0xf7,
        ],
        Class::Modrm { imm: 0 },
    ),
    // ALU r/m, imm8; shift r/m, imm8.
    (&[0x83, 0xc1], Class::Modrm { imm: 1 }),
    // imul reg, r/m, imm32; ALU r/m, imm32; mov r/m, imm32.
    (&[0x69, 0x81, 0xc7], Class::Modrm { imm: 4 }),
    (
        &[0xb8, 0xb9, 0xba, 0xbb, 0xbc, 0xbd, 0xbe, 0xbf],
        Class::MovImm,
    ),
    // call/jmp rel32.
    (&[0xe8, 0xe9], Class::Rel32),
    // jmp rel8 (the epilogue patcher's short hop over the unused run of
    // reserved prologue-save nops).
    (&[0xeb], Class::Rel8),
    (&[0xff], Class::Group5),
    // ret; int3, the padding a client writes between the functions of
    // one unit (tcc), where nothing falls through either.
    (&[0xc3, 0xcc], Class::Ret),
    // push/pop r; nop; cdq/cqo (cqo is REX.W + 99); leave.
    (
        &[
            0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d,
            0x5e, 0x5f, 0x90, 0x99, 0xc9,
        ],
        Class::Plain,
    ),
]);

/// Opcodes after the `0f` escape.
const TWO_BYTE: [Class; 256] = classes(&[
    // SSE scalar moves/arithmetic (10/11/2A/2C/2E/2F/51/54/57/58/59/
    // 5A/5C/5E), setcc (90-9F), imul (AF), widening moves (B6/B7/BE/BF).
    (
        &[
            0x10, 0x11, 0x2a, 0x2c, 0x2e, 0x2f, 0x51, 0x54, 0x57, 0x58, 0x59, 0x5a, 0x5c, 0x5e,
            0x90, 0x91, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0x9b, 0x9c, 0x9d,
            0x9e, 0x9f, 0xaf, 0xb6, 0xb7, 0xbe, 0xbf,
        ],
        Class::Modrm { imm: 0 },
    ),
    // jcc rel32.
    (
        &[
            0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d,
            0x8e, 0x8f,
        ],
        Class::Rel32,
    ),
    // bswap r.
    (
        &[0xc8, 0xc9, 0xca, 0xcb, 0xcc, 0xcd, 0xce, 0xcf],
        Class::Plain,
    ),
]);

impl InsnDecoder for Decoder {
    #[inline]
    fn decode(&self, code: &[u8], at: usize) -> Option<DecodedInsn> {
        let bytes = code.get(at..)?;
        // Mandatory prefixes (0x66 operand-size, 0xF2/0xF3 SSE scalar):
        // at most three.
        let mut i = 0;
        while let Some(0x66 | 0xf2 | 0xf3) = bytes.get(i) {
            i += 1;
            if i > 3 {
                return None;
            }
        }
        // Optional REX.
        let b = *bytes.get(i)?;
        let rex = b & 0xf0 == 0x40;
        let rex_w = rex && b & 0x08 != 0;
        i += usize::from(rex);
        let mut class = ONE_BYTE[usize::from(*bytes.get(i)?)];
        i += 1;
        if class == Class::Escape {
            class = TWO_BYTE[usize::from(*bytes.get(i)?)];
            i += 1;
        }
        let (len, control, target) = match class {
            Class::Invalid | Class::Escape => return None,
            Class::Plain => (i, false, None),
            Class::Modrm { imm } => (i + modrm_len(&bytes[i..])? + usize::from(imm), false, None),
            Class::MovImm => (i + if rex_w { 8 } else { 4 }, false, None),
            Class::Rel32 => (i + 4, true, rel32_target(code, at + i, at + i + 4)),
            Class::Rel8 => {
                let rel = *bytes.get(i)? as i8;
                (i + 1, true, Some((at + i + 1) as i64 + i64::from(rel)))
            }
            Class::Group5 => {
                let ext = (*bytes.get(i)? >> 3) & 7;
                if ext != 2 && ext != 4 {
                    return None;
                }
                (i + modrm_len(&bytes[i..])?, true, None)
            }
            Class::Ret => (i, true, None),
        };
        Some(DecodedInsn {
            len,
            control,
            target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{self, cc, r, sse, Mem};
    use crate::X64;
    use vcode::buf::CodeBuffer;
    use vcode::regress;
    use vcode::target::{Leaf, Target};
    use vcode::{Assembler, BrOperand, RegClass};

    /// The decoder this module shipped before the class tables: one
    /// `match` over the opcode. Kept as the reference the table-driven
    /// [`Decoder`] is compared against, byte pattern by byte pattern.
    #[derive(Debug, Clone, Copy)]
    struct Reference;

    impl InsnDecoder for Reference {
        fn decode(&self, code: &[u8], at: usize) -> Option<DecodedInsn> {
            let bytes = code.get(at..)?;
            let mut i = 0;
            // Mandatory prefixes (0x66 operand-size, 0xF2/0xF3 SSE scalar).
            let mut prefix66 = false;
            while let Some(&b) = bytes.get(i) {
                match b {
                    0x66 => {
                        prefix66 = true;
                        i += 1;
                    }
                    0xf2 | 0xf3 => i += 1,
                    _ => break,
                }
                if i > 3 {
                    return None;
                }
            }
            // Optional REX.
            let mut rex_w = false;
            if let Some(&b) = bytes.get(i) {
                if (0x40..=0x4f).contains(&b) {
                    rex_w = b & 0x08 != 0;
                    i += 1;
                }
            }
            let op = *bytes.get(i)?;
            i += 1;
            let done = |len: usize| {
                Some(DecodedInsn {
                    len,
                    control: false,
                    target: None,
                })
            };
            match op {
                // Two-byte opcodes.
                0x0f => {
                    let op2 = *bytes.get(i)?;
                    i += 1;
                    match op2 {
                        // jcc rel32
                        0x80..=0x8f => Some(DecodedInsn {
                            len: i + 4,
                            control: true,
                            target: rel32_target(code, at + i, at + i + 4),
                        }),
                        // bswap r
                        0xc8..=0xcf => done(i),
                        // modrm-following forms the backend emits: SSE scalar
                        // moves/arithmetic (10/11/2A/2C/2E/2F/51/54/57/58/59/
                        // 5A/5C/5E), imul (AF), widening moves (B6/B7/BE/BF),
                        // setcc (90-9F).
                        0x10
                        | 0x11
                        | 0x2a
                        | 0x2c
                        | 0x2e
                        | 0x2f
                        | 0x51
                        | 0x54
                        | 0x57
                        | 0x58
                        | 0x59
                        | 0x5a
                        | 0x5c
                        | 0x5e
                        | 0xaf
                        | 0xb6
                        | 0xb7
                        | 0xbe
                        | 0xbf
                        | 0x90..=0x9f => done(i + modrm_len(&bytes[i..])?),
                        _ => None,
                    }
                }
                // ALU r/m, reg.
                0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 => done(i + modrm_len(&bytes[i..])?),
                // ALU r/m, imm8 / imm32; shift imm8 shares C1.
                0x83 => done(i + modrm_len(&bytes[i..])? + 1),
                0x81 => done(i + modrm_len(&bytes[i..])? + 4),
                0xc1 => done(i + modrm_len(&bytes[i..])? + 1),
                // imul reg, rm, imm32.
                0x69 => done(i + modrm_len(&bytes[i..])? + 4),
                // mov/lea/movsxd and byte/word stores.
                0x88 | 0x89 | 0x8b | 0x8d | 0x63 => done(i + modrm_len(&bytes[i..])?),
                // mov r, imm32 / movabs r, imm64.
                0xb8..=0xbf => done(i + if rex_w { 8 } else { 4 }),
                // mov r/m, imm32.
                0xc7 => done(i + modrm_len(&bytes[i..])? + 4),
                // group-3 unary / shift-by-cl.
                0xf7 | 0xd3 => done(i + modrm_len(&bytes[i..])?),
                // cdq/cqo (cqo is REX.W + 99).
                0x99 => done(i),
                // jmp/call rel32.
                0xe9 | 0xe8 => Some(DecodedInsn {
                    len: i + 4,
                    control: true,
                    target: rel32_target(code, at + i, at + i + 4),
                }),
                // jmp rel8 (the epilogue patcher's short hop over the
                // unused run of reserved prologue-save nops).
                0xeb => {
                    let rel = *bytes.get(i)? as i8;
                    Some(DecodedInsn {
                        len: i + 1,
                        control: true,
                        target: Some((at + i + 1) as i64 + i64::from(rel)),
                    })
                }
                // group-5: jmp/call r/m (only /2 and /4 are emitted).
                0xff => {
                    let ext = (*bytes.get(i)? >> 3) & 7;
                    if ext != 2 && ext != 4 {
                        return None;
                    }
                    Some(DecodedInsn {
                        len: i + modrm_len(&bytes[i..])?,
                        control: true,
                        target: None,
                    })
                }
                // ret; int3 (the padding between a unit's functions).
                0xc3 | 0xcc => Some(DecodedInsn {
                    len: i,
                    control: true,
                    target: None,
                }),
                // leave / nop / push / pop.
                0xc9 | 0x90 | 0x50..=0x5f => {
                    let _ = prefix66;
                    done(i)
                }
                _ => None,
            }
        }
    }

    /// Both decoders on `code` at `at`: the whole `Option<DecodedInsn>`
    /// must agree.
    #[track_caller]
    fn agree(code: &[u8], at: usize) {
        assert_eq!(
            Decoder.decode(code, at),
            Reference.decode(code, at),
            "at {at} in {code:02x?}"
        );
    }

    /// modrm bytes covering every (mod, rm ∈ {plain, SIB, disp32/rbp})
    /// class; read as a SIB byte they cover a base of 101 and others.
    const MODRM_GRID: [u8; 12] = [
        0x00, 0x04, 0x05, 0x40, 0x44, 0x45, 0x80, 0x84, 0x85, 0xc0, 0xc4, 0xc5,
    ];
    /// SIB bytes: base 101 (refused under mod 00) and another.
    const SIB_GRID: [u8; 2] = [0x00, 0x05];
    const PREFIXES: [&[u8]; 4] = [&[], &[0x66], &[0xf2], &[0xf3]];
    /// What follows the four bytes under test: displacement, immediate
    /// and rel fields read from here, so they are distinct and signed
    /// both ways.
    const PAD: [u8; 10] = [0x11, 0xf2, 0x83, 0x04, 0xe5, 0x76, 0x07, 0x98, 0x29, 0xba];

    /// Exhaustive, under one prefix, over {none, every REX} × every
    /// opcode byte × every second byte (the modrm of a one-byte opcode,
    /// the opcode after the `0f` escape), with every third byte of the
    /// modrm grid (the SIB of the former, the modrm of the latter) and,
    /// where that third byte calls for a SIB, both SIB classes. One test
    /// per prefix, so each stays a few seconds in a debug build.
    fn every_pattern_under(prefix: &[u8]) {
        let mut compared = 0u64;
        for rex in std::iter::once(None).chain((0x40..=0x4fu8).map(Some)) {
            let mut code = prefix.to_vec();
            code.extend(rex);
            let op_at = code.len();
            code.extend_from_slice(&[0; 4]);
            code.extend_from_slice(&PAD);
            for op in 0..=255u8 {
                code[op_at] = op;
                for second in 0..=255u8 {
                    code[op_at + 1] = second;
                    for third in MODRM_GRID {
                        code[op_at + 2] = third;
                        let wants_sib = third & 7 == 4 && third >> 6 != 3;
                        for &sib in &SIB_GRID[..if wants_sib { 2 } else { 1 }] {
                            code[op_at + 3] = sib;
                            agree(&code, 0);
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 17 * 256 * 256 * (12 + 3));
    }

    #[test]
    fn table_decoder_matches_on_every_pattern_unprefixed() {
        every_pattern_under(PREFIXES[0]);
    }

    #[test]
    fn table_decoder_matches_on_every_pattern_under_66() {
        every_pattern_under(PREFIXES[1]);
    }

    #[test]
    fn table_decoder_matches_on_every_pattern_under_f2() {
        every_pattern_under(PREFIXES[2]);
    }

    #[test]
    fn table_decoder_matches_on_every_pattern_under_f3() {
        every_pattern_under(PREFIXES[3]);
    }

    /// Every truncation of every pattern (one representative REX of each
    /// kind), decoded at a nonzero offset: the two agree on where a
    /// missing byte is an error and where it is an overrun left to the
    /// caller, and on targets that count from `at`.
    #[test]
    fn table_decoder_matches_on_every_truncation() {
        for prefix in PREFIXES {
            for rex in [None, Some(0x41u8), Some(0x48)] {
                let mut code = vec![0x90, 0x90, 0x90];
                code.extend_from_slice(prefix);
                code.extend(rex);
                let op_at = code.len();
                code.extend_from_slice(&[0, 0, 0x25, 0x05]);
                code.extend_from_slice(&PAD);
                for op in 0..=255u8 {
                    code[op_at] = op;
                    for second in 0..=255u8 {
                        code[op_at + 1] = second;
                        for cut in 3..=code.len() {
                            agree(&code[..cut], 3);
                        }
                    }
                }
            }
        }
    }

    /// Prefix runs: every sequence of up to five prefix bytes (the limit
    /// is three), before a REX and not, before each opcode class.
    #[test]
    fn table_decoder_matches_on_prefix_runs() {
        let ops: [&[u8]; 8] = [
            &[0x90],
            &[0x89, 0xc3],
            &[0x0f, 0x58, 0xc1],
            &[0xb8, 1, 2, 3, 4, 5, 6, 7, 8],
            &[0xe9, 1, 0, 0, 0],
            &[0xeb, 0xfe],
            &[0xff, 0xd0],
            &[0x06],
        ];
        for n in 0..=5u32 {
            for pick in 0..3usize.pow(n) {
                let run: Vec<u8> = (0..n)
                    .map(|k| [0x66, 0xf2, 0xf3][pick / 3usize.pow(k) % 3])
                    .collect();
                for rex in [None, Some(0x48u8)] {
                    for op in ops {
                        let mut code = run.clone();
                        code.extend(rex);
                        code.extend_from_slice(op);
                        agree(&code, 0);
                    }
                }
            }
        }
    }

    /// Every instruction the backend emits for the regression corpus
    /// (`vcode::regress`: register, immediate and distinct-destination
    /// binops, unops, branches, each inside a whole function), walked
    /// by both decoders.
    #[test]
    fn table_decoder_matches_on_the_regress_corpus() {
        let mut insns = 0u64;
        let mut walk = |sig: &str, f: &dyn Fn(&mut Assembler<'_, X64>)| {
            let mut mem = vec![0u8; 512];
            let mut a = Assembler::<X64>::lambda(&mut mem, sig, Leaf::Yes).unwrap();
            f(&mut a);
            let len = a.end().unwrap().len;
            let code = &mem[..len];
            let mut at = 0;
            while at < len {
                agree(code, at);
                at += Decoder.decode(code, at).expect("emitted code decodes").len;
                insns += 1;
            }
            assert_eq!(at, len, "the walk ends on the function's last byte");
        };
        for c in regress::binop_cases(64, 2, 0xdead_beef) {
            walk("%l%l", &|a| {
                let (x, y) = (a.arg(0), a.arg(1));
                X64::emit_binop(a.raw(), c.op, c.ty, x, x, y);
                a.retl(x);
            });
            walk("%l%l", &|a| {
                let (x, y) = (a.arg(0), a.arg(1));
                let d = a.getreg(RegClass::Temp).unwrap();
                X64::emit_binop(a.raw(), c.op, c.ty, d, x, y);
                a.retl(d);
            });
            walk("%l", &|a| {
                let x = a.arg(0);
                X64::emit_binop_imm(a.raw(), c.op, c.ty, x, x, c.b as i64);
                a.retl(x);
            });
        }
        for c in regress::unop_cases(64) {
            walk("%l", &|a| {
                let x = a.arg(0);
                let d = a.getreg(RegClass::Temp).unwrap();
                X64::emit_unop(a.raw(), c.op, c.ty, d, x);
                a.retl(d);
            });
        }
        for c in regress::branch_cases(64) {
            walk("%l%l", &|a| {
                let (x, y) = (a.arg(0), a.arg(1));
                let taken = a.genlabel();
                let r = a.getreg(RegClass::Temp).unwrap();
                X64::emit_branch(a.raw(), c.cond, c.ty, x, BrOperand::R(y), taken);
                a.seti(r, 0);
                a.reti(r);
                a.label(taken);
                a.seti(r, 1);
                a.reti(r);
            });
        }
        assert!(insns > 10_000, "only {insns} instructions walked");
    }

    fn lens(f: impl FnOnce(&mut CodeBuffer<'_>)) -> (Vec<u8>, Vec<usize>) {
        let mut mem = [0u8; 256];
        let mut buf = CodeBuffer::new(&mut mem);
        f(&mut buf);
        let code = buf.as_slice().to_vec();
        let mut at = 0;
        let mut out = Vec::new();
        while at < code.len() {
            let d = Decoder
                .decode(&code, at)
                .unwrap_or_else(|| panic!("undecodable at {at}: {:02x?}", &code[at..]));
            out.push(d.len);
            at += d.len;
        }
        (code, out)
    }

    #[test]
    fn walks_representative_stream() {
        let (_, l) = lens(|b| {
            encode::alu_rr(b, encode::Alu::Add, true, r::RAX, r::RBX); // 3
            encode::alu_imm(b, encode::Alu::Sub, true, r::RDI, 10); // 4
            encode::mov_ri(b, r::R10, 0x1_0000_0000); // 10
            encode::load(b, true, r::RAX, Mem::bd(r::RSP, 8)); // 5
            encode::store8(b, r::RSI, Mem::bd(r::RDI, 0)); // 3
            encode::sse_rr(b, Some(sse::SD), 0x58, 0, 1); // 4
            encode::cvtsi2(b, sse::SD, true, 0, r::RDI); // 5
            encode::setcc(b, cc::E, r::RSI); // 4
            encode::nop(b); // 1
            encode::ret(b); // 1
        });
        assert_eq!(l, vec![3, 4, 10, 5, 3, 4, 5, 4, 1, 1]);
    }

    #[test]
    fn rel32_targets_resolve() {
        let mut mem = [0u8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        let field = encode::jmp_rel(&mut buf);
        let end = buf.len();
        // Patch the rel32 to jump back to offset 0.
        let rel = 0i64 - end as i64;
        buf.patch_u32(field, rel as i32 as u32);
        let code = buf.as_slice().to_vec();
        let d = Decoder.decode(&code, 0).unwrap();
        assert!(d.control);
        assert_eq!(d.len, end);
        assert_eq!(d.target, Some(0));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Decoder.decode(&[0x06, 0x00], 0).is_none()); // invalid in 64-bit
        assert!(Decoder.decode(&[0x0f, 0x05], 0).is_none()); // syscall: never emitted
        assert!(Decoder.decode(&[0x48], 0).is_none()); // bare REX
    }
}
