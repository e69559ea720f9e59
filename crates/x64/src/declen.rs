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

impl InsnDecoder for Decoder {
    #[inline]
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
            // ret.
            0xc3 => Some(DecodedInsn {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{self, cc, r, sse, Mem};
    use vcode::buf::CodeBuffer;

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
