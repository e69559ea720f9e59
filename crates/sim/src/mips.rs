//! A MIPS-I instruction-set simulator.
//!
//! Executes the binary code emitted by the `vcode-mips` backend, standing
//! in for the paper's DECstation hardware (see DESIGN.md's substitution
//! table). The simulator is deliberately strict: unknown encodings,
//! out-of-range memory accesses and (optionally) MIPS-I load-delay
//! violations are hard errors, so it doubles as the checker for the
//! auto-generated instruction-mapping regression tests (paper §3.3, §6.1).
//!
//! Delay-slot semantics are modeled exactly: a taken branch executes the
//! following instruction before transferring control, and `jal`/`bal`
//! link to the instruction after the delay slot.

use crate::{Isa, HALT};
use vcode::{Trap, TrapKind};

/// The simulated MIPS-I machine.
pub type Machine = crate::Machine<Cpu>;

/// The MIPS-I register file.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// General-purpose registers (`$0` is forced to zero).
    pub regs: [u32; 32],
    /// Floating-point registers (raw bits; doubles are even/odd pairs,
    /// even = low word, little-endian pairing).
    pub fregs: [u32; 32],
    hi: u32,
    lo: u32,
    fcc: bool,
    /// Raise a [`TrapKind::ScheduleHazard`] trap when generated code
    /// uses a loaded value in the load shadow (validates `raw_load`
    /// clients).
    pub strict_load_delay: bool,
    load_shadow: Option<u8>,
}

impl Isa for Cpu {
    type Word = u32;
    const NAME: &'static str = "mips";
    const CODE_BASE: u64 = 0x1000;
    const CODE_ALIGN: usize = 8;
    const MIN_MEM: usize = 64 * 1024;
    const STACK_GAP: usize = 64;
    const DELAY_SLOT_NOP: Option<u32> = Some(0);

    #[inline]
    fn step(m: &mut Machine, pc: u64, word: u32, npc: u64) -> Result<u64, Trap> {
        let npc = npc as u32;
        let mut nnext = npc.wrapping_add(4);
        m.step(pc as u32, word, npc, &mut nnext)?;
        Ok(u64::from(nnext))
    }

    fn enter(&mut self, sp: u64) {
        self.regs[31] = HALT as u32;
        self.regs[29] = sp as u32;
        self.load_shadow = None;
    }

    /// `$a0`–`$a3`.
    fn int_args(&mut self) -> &mut [u32] {
        &mut self.regs[4..8]
    }

    /// `$v0`.
    fn int_result(&self) -> u32 {
        self.regs[2]
    }

    /// `$f12` and `$f14`.
    fn f64_args(&mut self, args: &[f64]) {
        assert!(args.len() <= 2);
        for (i, &v) in args.iter().enumerate() {
            self.set_fd(12 + 2 * i as u8, v);
        }
    }

    /// `$f0`/`$f1`.
    fn f64_result(&self) -> f64 {
        self.fd(0)
    }

    fn reg_view(&self) -> [u64; 32] {
        self.regs.map(u64::from)
    }

    fn disasm(word: u32) -> String {
        disasm(word)
    }
}

impl Cpu {
    fn fd(&self, f: u8) -> f64 {
        let fr = &self.fregs;
        f64::from_bits(u64::from(fr[f as usize]) | (u64::from(fr[f as usize + 1]) << 32))
    }

    fn set_fd(&mut self, f: u8, v: f64) {
        let bits = v.to_bits();
        self.fregs[f as usize] = bits as u32;
        self.fregs[f as usize + 1] = (bits >> 32) as u32;
    }

    fn fs(&self, f: u8) -> f32 {
        f32::from_bits(self.fregs[f as usize])
    }

    fn set_fs(&mut self, f: u8, v: f32) {
        self.fregs[f as usize] = v.to_bits();
    }
}

impl Machine {
    #[inline]
    fn set(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.cpu.regs[r as usize] = v;
        }
    }

    #[inline]
    fn get(&mut self, pc: u32, r: u8) -> Result<u32, Trap> {
        if self.cpu.strict_load_delay && r != 0 && self.cpu.load_shadow == Some(r) {
            return Err(Self::trap(TrapKind::ScheduleHazard, pc.into()));
        }
        Ok(self.cpu.regs[r as usize])
    }

    #[inline]
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: u32, word: u32, npc: u32, nnext: &mut u32) -> Result<(), Trap> {
        self.stats.insns_retired += 1;
        let op = (word >> 26) as u8;
        let rs = ((word >> 21) & 31) as u8;
        let rt = ((word >> 16) & 31) as u8;
        let rd = ((word >> 11) & 31) as u8;
        let shamt = ((word >> 6) & 31) as u8;
        let funct = (word & 63) as u8;
        let imm = word as u16;
        let simm = imm as i16 as i32;
        let bad = || Self::trap(TrapKind::IllegalInsn, pc.into());
        // The load shadow only covers the very next instruction.
        let mut new_shadow: Option<u8> = None;
        match op {
            0x00 => {
                // SPECIAL
                let a = self.get(pc, rs)?;
                let b = self.get(pc, rt)?;
                match funct {
                    0x00 => self.set(rd, b << shamt),
                    0x02 => self.set(rd, b >> shamt),
                    0x03 => self.set(rd, ((b as i32) >> shamt) as u32),
                    0x04 => self.set(rd, b.wrapping_shl(a & 31)),
                    0x06 => self.set(rd, b.wrapping_shr(a & 31)),
                    0x07 => self.set(rd, ((b as i32).wrapping_shr(a & 31)) as u32),
                    0x08 => {
                        self.stats.branches += 1;
                        *nnext = a;
                    }
                    0x09 => {
                        self.stats.branches += 1;
                        self.set(rd, npc.wrapping_add(4));
                        *nnext = a;
                    }
                    0x10 => self.set(rd, self.cpu.hi),
                    0x12 => self.set(rd, self.cpu.lo),
                    0x18 => {
                        let p = (a as i32 as i64) * (b as i32 as i64);
                        self.cpu.lo = p as u32;
                        self.cpu.hi = (p >> 32) as u32;
                    }
                    0x19 => {
                        let p = (a as u64) * (b as u64);
                        self.cpu.lo = p as u32;
                        self.cpu.hi = (p >> 32) as u32;
                    }
                    0x1a => {
                        let (x, y) = (a as i32, b as i32);
                        if y == 0 || (x == i32::MIN && y == -1) {
                            self.cpu.lo = 0;
                            self.cpu.hi = x as u32;
                        } else {
                            self.cpu.lo = x.wrapping_div(y) as u32;
                            self.cpu.hi = x.wrapping_rem(y) as u32;
                        }
                    }
                    0x1b => {
                        self.cpu.lo = a.checked_div(b).unwrap_or(0);
                        self.cpu.hi = a.checked_rem(b).unwrap_or(a);
                    }
                    0x21 => self.set(rd, a.wrapping_add(b)),
                    0x23 => self.set(rd, a.wrapping_sub(b)),
                    0x24 => self.set(rd, a & b),
                    0x25 => self.set(rd, a | b),
                    0x26 => self.set(rd, a ^ b),
                    0x27 => self.set(rd, !(a | b)),
                    0x2a => self.set(rd, ((a as i32) < (b as i32)) as u32),
                    0x2b => self.set(rd, (a < b) as u32),
                    _ => return Err(bad()),
                }
            }
            0x01 => {
                // REGIMM: bltz/bgez/bal
                let a = self.get(pc, rs)? as i32;
                self.stats.branches += 1;
                let taken = match rt {
                    0x00 => a < 0,
                    0x01 => a >= 0,
                    0x11 => {
                        // bgezal (bal when rs = $0)
                        self.set(31, npc.wrapping_add(4));
                        a >= 0
                    }
                    _ => return Err(bad()),
                };
                if taken {
                    *nnext = npc.wrapping_add((simm << 2) as u32);
                }
            }
            0x04..=0x07 => {
                let a = self.get(pc, rs)?;
                let b = self.get(pc, rt)?;
                self.stats.branches += 1;
                let taken = match op {
                    0x04 => a == b,
                    0x05 => a != b,
                    0x06 => (a as i32) <= 0,
                    _ => (a as i32) > 0,
                };
                if taken {
                    *nnext = npc.wrapping_add((simm << 2) as u32);
                }
            }
            0x09 => {
                let a = self.get(pc, rs)?;
                self.set(rt, a.wrapping_add(simm as u32));
            }
            0x0a => {
                let a = self.get(pc, rs)?;
                self.set(rt, ((a as i32) < simm) as u32);
            }
            0x0b => {
                let a = self.get(pc, rs)?;
                self.set(rt, (a < simm as u32) as u32);
            }
            0x0c => {
                let a = self.get(pc, rs)?;
                self.set(rt, a & u32::from(imm));
            }
            0x0d => {
                let a = self.get(pc, rs)?;
                self.set(rt, a | u32::from(imm));
            }
            0x0e => {
                let a = self.get(pc, rs)?;
                self.set(rt, a ^ u32::from(imm));
            }
            0x0f => self.set(rt, u32::from(imm) << 16),
            0x20 | 0x21 | 0x23 | 0x24 | 0x25 => {
                // Loads.
                let base = self.get(pc, rs)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.loads += 1;
                self.touch(
                    addr,
                    match op {
                        0x20 | 0x24 => 1,
                        0x21 | 0x25 => 2,
                        _ => 4,
                    },
                );
                let v = match op {
                    0x20 => self.load::<1>(addr)?[0] as i8 as i32 as u32,
                    0x24 => u32::from(self.load::<1>(addr)?[0]),
                    0x21 => u16::from_le_bytes(self.load(addr)?) as i16 as i32 as u32,
                    0x25 => u32::from(u16::from_le_bytes(self.load(addr)?)),
                    _ => u32::from_le_bytes(self.load(addr)?),
                };
                self.set(rt, v);
                new_shadow = Some(rt);
            }
            0x28 => {
                let base = self.get(pc, rs)?;
                let v = self.get(pc, rt)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.stores += 1;
                self.touch(addr, 1);
                self.store(addr, [v as u8])?;
            }
            0x29 => {
                let base = self.get(pc, rs)?;
                let v = self.get(pc, rt)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.stores += 1;
                self.touch(addr, 2);
                self.store(addr, (v as u16).to_le_bytes())?;
            }
            0x2b => {
                let base = self.get(pc, rs)?;
                let v = self.get(pc, rt)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.stores += 1;
                self.touch(addr, 4);
                self.store(addr, v.to_le_bytes())?;
            }
            0x31 => {
                // lwc1
                let base = self.get(pc, rs)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.loads += 1;
                self.touch(addr, 4);
                self.cpu.fregs[rt as usize] = u32::from_le_bytes(self.load(addr)?);
            }
            0x39 => {
                // swc1
                let base = self.get(pc, rs)?;
                let addr = base.wrapping_add(simm as u32);
                self.stats.stores += 1;
                self.touch(addr, 4);
                self.store(addr, self.cpu.fregs[rt as usize].to_le_bytes())?;
            }
            0x11 => {
                // COP1
                match rs {
                    0x00 => {
                        // mfc1 rt, fs
                        self.set(rt, self.cpu.fregs[rd as usize]);
                        new_shadow = Some(rt);
                    }
                    0x04 => {
                        // mtc1 rt, fs
                        let v = self.get(pc, rt)?;
                        self.cpu.fregs[rd as usize] = v;
                    }
                    0x08 => {
                        // bc1f/bc1t
                        self.stats.branches += 1;
                        let want = rt & 1 == 1;
                        if self.cpu.fcc == want {
                            *nnext = npc.wrapping_add((simm << 2) as u32);
                        }
                    }
                    16 | 17 => {
                        let dfmt = rs == 17;
                        let (fs, ft, fdr) = (rd, rt, shamt);
                        match funct {
                            0..=3 => {
                                if dfmt {
                                    let (x, y) = (self.cpu.fd(fs), self.cpu.fd(ft));
                                    let r = match funct {
                                        0 => x + y,
                                        1 => x - y,
                                        2 => x * y,
                                        _ => x / y,
                                    };
                                    self.cpu.set_fd(fdr, r);
                                } else {
                                    let (x, y) = (self.cpu.fs(fs), self.cpu.fs(ft));
                                    let r = match funct {
                                        0 => x + y,
                                        1 => x - y,
                                        2 => x * y,
                                        _ => x / y,
                                    };
                                    self.cpu.set_fs(fdr, r);
                                }
                            }
                            5 => {
                                if dfmt {
                                    let v = self.cpu.fd(fs).abs();
                                    self.cpu.set_fd(fdr, v);
                                } else {
                                    let v = self.cpu.fs(fs).abs();
                                    self.cpu.set_fs(fdr, v);
                                }
                            }
                            6 => {
                                if dfmt {
                                    let v = self.cpu.fd(fs);
                                    self.cpu.set_fd(fdr, v);
                                } else {
                                    self.cpu.fregs[fdr as usize] = self.cpu.fregs[fs as usize];
                                }
                            }
                            7 => {
                                if dfmt {
                                    let v = -self.cpu.fd(fs);
                                    self.cpu.set_fd(fdr, v);
                                } else {
                                    let v = -self.cpu.fs(fs);
                                    self.cpu.set_fs(fdr, v);
                                }
                            }
                            13 => {
                                // trunc.w.fmt
                                let v = if dfmt {
                                    self.cpu.fd(fs) as i32
                                } else {
                                    self.cpu.fs(fs) as i32
                                };
                                self.cpu.fregs[fdr as usize] = v as u32;
                            }
                            32 => {
                                // cvt.s.fmt
                                let v = if dfmt {
                                    self.cpu.fd(fs) as f32
                                } else {
                                    return Err(bad());
                                };
                                self.cpu.set_fs(fdr, v);
                            }
                            33 => {
                                // cvt.d.s
                                if dfmt {
                                    return Err(bad());
                                }
                                let v = f64::from(self.cpu.fs(fs));
                                self.cpu.set_fd(fdr, v);
                            }
                            0x32 | 0x3c | 0x3e => {
                                let (x, y) = if dfmt {
                                    (self.cpu.fd(fs), self.cpu.fd(ft))
                                } else {
                                    (f64::from(self.cpu.fs(fs)), f64::from(self.cpu.fs(ft)))
                                };
                                self.cpu.fcc = match funct {
                                    0x32 => x == y,
                                    0x3c => x < y,
                                    _ => x <= y,
                                };
                            }
                            _ => return Err(bad()),
                        }
                    }
                    20 => {
                        // fmt = W: cvt.s.w / cvt.d.w
                        let (fs, fdr) = (rd, shamt);
                        let v = self.cpu.fregs[fs as usize] as i32;
                        match funct {
                            32 => self.cpu.set_fs(fdr, v as f32),
                            33 => self.cpu.set_fd(fdr, f64::from(v)),
                            _ => return Err(bad()),
                        }
                    }
                    _ => return Err(bad()),
                }
            }
            _ => return Err(bad()),
        }
        self.cpu.load_shadow = new_shadow;
        Ok(())
    }
}

/// Disassembles one instruction word (debugging aid; the paper lists the
/// lack of a symbolic debugger as VCODE's most critical drawback, §6.2 —
/// the simulator's decoder gives us one nearly for free).
pub fn disasm(word: u32) -> String {
    let op = (word >> 26) as u8;
    let rs = (word >> 21) & 31;
    let rt = (word >> 16) & 31;
    let rd = (word >> 11) & 31;
    let shamt = (word >> 6) & 31;
    let funct = (word & 63) as u8;
    let simm = word as u16 as i16;
    match op {
        0x00 => match funct {
            0x00 if word == 0 => "nop".to_owned(),
            0x00 => format!("sll ${rd}, ${rt}, {shamt}"),
            0x02 => format!("srl ${rd}, ${rt}, {shamt}"),
            0x03 => format!("sra ${rd}, ${rt}, {shamt}"),
            0x04 => format!("sllv ${rd}, ${rt}, ${rs}"),
            0x06 => format!("srlv ${rd}, ${rt}, ${rs}"),
            0x07 => format!("srav ${rd}, ${rt}, ${rs}"),
            0x08 => format!("jr ${rs}"),
            0x09 => format!("jalr ${rd}, ${rs}"),
            0x10 => format!("mfhi ${rd}"),
            0x12 => format!("mflo ${rd}"),
            0x18 => format!("mult ${rs}, ${rt}"),
            0x19 => format!("multu ${rs}, ${rt}"),
            0x1a => format!("div ${rs}, ${rt}"),
            0x1b => format!("divu ${rs}, ${rt}"),
            0x21 => format!("addu ${rd}, ${rs}, ${rt}"),
            0x23 => format!("subu ${rd}, ${rs}, ${rt}"),
            0x24 => format!("and ${rd}, ${rs}, ${rt}"),
            0x25 => format!("or ${rd}, ${rs}, ${rt}"),
            0x26 => format!("xor ${rd}, ${rs}, ${rt}"),
            0x27 => format!("nor ${rd}, ${rs}, ${rt}"),
            0x2a => format!("slt ${rd}, ${rs}, ${rt}"),
            0x2b => format!("sltu ${rd}, ${rs}, ${rt}"),
            _ => format!(".word {word:#010x}"),
        },
        0x01 => match rt {
            0 => format!("bltz ${rs}, {simm}"),
            1 => format!("bgez ${rs}, {simm}"),
            0x11 => format!("bal {simm}"),
            _ => format!(".word {word:#010x}"),
        },
        0x04 => format!("beq ${rs}, ${rt}, {simm}"),
        0x05 => format!("bne ${rs}, ${rt}, {simm}"),
        0x06 => format!("blez ${rs}, {simm}"),
        0x07 => format!("bgtz ${rs}, {simm}"),
        0x09 => format!("addiu ${rt}, ${rs}, {simm}"),
        0x0a => format!("slti ${rt}, ${rs}, {simm}"),
        0x0b => format!("sltiu ${rt}, ${rs}, {simm}"),
        0x0c => format!("andi ${rt}, ${rs}, {:#x}", word & 0xffff),
        0x0d => format!("ori ${rt}, ${rs}, {:#x}", word & 0xffff),
        0x0e => format!("xori ${rt}, ${rs}, {:#x}", word & 0xffff),
        0x0f => format!("lui ${rt}, {:#x}", word & 0xffff),
        0x20 => format!("lb ${rt}, {simm}(${rs})"),
        0x21 => format!("lh ${rt}, {simm}(${rs})"),
        0x23 => format!("lw ${rt}, {simm}(${rs})"),
        0x24 => format!("lbu ${rt}, {simm}(${rs})"),
        0x25 => format!("lhu ${rt}, {simm}(${rs})"),
        0x28 => format!("sb ${rt}, {simm}(${rs})"),
        0x29 => format!("sh ${rt}, {simm}(${rs})"),
        0x2b => format!("sw ${rt}, {simm}(${rs})"),
        0x31 => format!("lwc1 $f{rt}, {simm}(${rs})"),
        0x39 => format!("swc1 $f{rt}, {simm}(${rs})"),
        0x11 => format!("cop1 {word:#010x}"),
        _ => format!(".word {word:#010x}"),
    }
}

/// [`vcode::InsnDecoder`] over the simulator's MIPS-I decode tables, for
/// the differential machine-code checker (`vcode::cross_check`).
///
/// A word is decodable exactly when [`disasm`] recognizes it; control
/// transfers are the conditional branches (pc-relative, reported with
/// their resolved target), `bc1t`/`bc1f`, and `jr`/`jalr` (register
/// targets, no static destination).
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl vcode::InsnDecoder for Decoder {
    fn decode(&self, code: &[u8], at: usize) -> Option<vcode::DecodedInsn> {
        let word = u32::from_le_bytes(code.get(at..at + 4)?.try_into().ok()?);
        if disasm(word).starts_with(".word") {
            return None;
        }
        let op = (word >> 26) as u8;
        let rs = (word >> 21) & 31;
        let rt = (word >> 16) & 31;
        let funct = (word & 63) as u8;
        let branch_target = || {
            let disp = i64::from(word as u16 as i16) << 2;
            Some(at as i64 + 4 + disp)
        };
        let (control, target) = match op {
            0x01 if matches!(rt, 0 | 1 | 0x11) => (true, branch_target()),
            0x04..=0x07 => (true, branch_target()),
            0x11 if rs == 8 => (true, branch_target()),
            0x00 if matches!(funct, 0x08 | 0x09) => (true, None),
            _ => (false, None),
        };
        Some(vcode::DecodedInsn {
            len: 4,
            control,
            target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;
    use vcode::TraceRecord;

    /// Hand-assembled: addiu a0, a0, 1; or v0, a0, $0; jr ra; nop.
    const PLUS1: [u32; 4] = [0x2484_0001, 0x0080_1025, 0x03e0_0008, 0x0000_0000];

    fn code_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn runs_hand_assembled_plus1() {
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&PLUS1)).unwrap();
        assert_eq!(m.call(entry, &[41], 100).unwrap(), 42);
        assert_eq!(m.stats().insns_retired, 4, "jr's delay slot nop executes");
    }

    #[test]
    fn delay_slot_executes_before_branch_target() {
        // beq $0,$0,+2 (to the jr); addiu v0,$0,7 (delay slot: executes!);
        // addiu v0,v0,100 (skipped); jr ra; nop
        let code = [
            0x1000_0002u32, // beq $0, $0, +2
            0x2402_0007,    // addiu v0, $0, 7
            0x2442_0064,    // addiu v0, v0, 100 (skipped)
            0x03e0_0008,    // jr ra
            0x0000_0000,
        ];
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        assert_eq!(m.call(entry, &[], 100).unwrap(), 7);
    }

    #[test]
    fn bal_links_past_delay_slot() {
        // bal +2; nop; jr ra (return to HALT); [target] addiu v0,$0,9; jr ra; nop
        let code = [
            0x0411_0002u32, // bal +2
            0x0000_0000,    // delay
            0x03e0_0008,    // jr ra  -- after call returns here? No: ra was
            0x2402_0009,    // addiu v0, $0, 9   <- bal target
            0x03e0_0008,    // jr ra (ra = insn after bal's delay = insn 2)
            0x0000_0000,
        ];
        // Call sequence: bal sets ra to insn 2 (jr ra with original HALT
        // clobbered? No: bal overwrites $ra). Insn 2 jr $ra jumps to
        // ra=insn2... careful: bal set ra=insn2, so insn4's jr ra returns
        // to insn2, and insn2's jr ra jumps to ra=insn2 — infinite loop.
        // Instead check the link register value directly.
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        let _ = m.run(entry, 20);
        assert_eq!(
            m.cpu.regs[31],
            entry + 8,
            "bal links to after its delay slot"
        );
        assert_eq!(m.cpu.regs[2], 9, "fell through to the target block");
    }

    #[test]
    fn memory_and_traps() {
        // lw v0, 0(a0); nop; jr ra; nop
        let code = [0x8c82_0000u32, 0, 0x03e0_0008, 0];
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        let addr = m.alloc(8, 8).unwrap();
        m.write(addr, &0xdead_beefu32.to_le_bytes()).unwrap();
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 0xdead_beef);
        // Unaligned.
        assert_eq!(
            m.call(entry, &[addr + 1], 100),
            Err(Trap::at(TrapKind::Unaligned, u64::from(addr) + 1, "mips"))
        );
        // Out of range.
        let t = m.call(entry, &[0xfff_fff0], 100).unwrap_err();
        assert_eq!(t.kind, TrapKind::BadAccess);
    }

    #[test]
    fn strict_load_delay_catches_violations() {
        // lw v0, 0(a0); addu v0, v0, v0 (uses v0 in the shadow!)
        let code = [0x8c82_0000u32, 0x0042_1021, 0x03e0_0008, 0];
        let mut m = Machine::new(1 << 20);
        m.cpu.strict_load_delay = true;
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        let addr = m.alloc(8, 8).unwrap();
        let t = m.call(entry, &[addr], 100).unwrap_err();
        assert_eq!(
            t,
            Trap::at(TrapKind::ScheduleHazard, u64::from(entry) + 4, "mips")
        );
        // With a nop between, fine.
        let code = [0x8c82_0000u32, 0, 0x0042_1021, 0x03e0_0008, 0];
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 0);
    }

    #[test]
    fn step_limit_stops_runaway() {
        // beq $0,$0,-1: infinite loop.
        let code = [0x1000_ffffu32, 0];
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        assert_eq!(
            m.call(entry, &[], 1000),
            Err(Trap::new(TrapKind::FuelExhausted, "mips"))
        );
    }

    #[test]
    fn bad_instruction_traps() {
        let code = [0xffff_ffffu32];
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        let t = m.call(entry, &[], 10).unwrap_err();
        assert_eq!(
            (t.kind, t.addr),
            (TrapKind::IllegalInsn, Some(u64::from(entry)))
        );
    }

    #[test]
    fn disasm_smoke() {
        assert_eq!(disasm(0x2484_0001), "addiu $4, $4, 1");
        assert_eq!(disasm(0x03e0_0008), "jr $31");
        assert_eq!(disasm(0), "nop");
        assert!(Machine::disasm_all(&code_bytes(&PLUS1)).contains("addiu"));
    }

    #[test]
    fn dcache_counts_and_flush() {
        let code = [0x8c82_0000u32, 0, 0x03e0_0008, 0];
        let mut m = Machine::new(1 << 20);
        m.dcache = Some(Cache::new(1024, 16, 10));
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        let addr = m.alloc(8, 16).unwrap();
        m.call(entry, &[addr], 100).unwrap();
        assert_eq!(m.dcache.as_ref().unwrap().misses, 1);
        m.call(entry, &[addr], 100).unwrap();
        assert_eq!(m.dcache.as_ref().unwrap().hits, 1);
        let base = m.stats().insns_retired;
        assert_eq!(m.cycles(), base + 10);
        let s = m.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.cycles, m.cycles());
        assert_eq!(s.cache_stall_cycles, 10);
    }

    #[test]
    fn traps_are_tallied_in_stats() {
        let code = [0x8c82_0000u32, 0, 0x03e0_0008, 0]; // lw v0, 0(a0)
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        assert!(m.call(entry, &[0xfff_fff0], 100).is_err());
        assert!(m.call(entry, &[1], 100).is_err()); // unaligned
        let s = m.stats();
        assert_eq!(s.traps.count(vcode::TrapKind::BadAccess), 1);
        assert_eq!(s.traps.count(vcode::TrapKind::Unaligned), 1);
        assert_eq!(s.traps.total(), 2);
    }

    #[test]
    fn trace_streams_disasm_and_register_deltas() {
        use std::sync::{Arc, Mutex};
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&PLUS1)).unwrap();
        let log: Arc<Mutex<Vec<TraceRecord>>> = Arc::default();
        let log2 = Arc::clone(&log);
        m.set_trace(move |r| log2.lock().unwrap().push(r.clone()));
        assert_eq!(m.call(entry, &[41], 100).unwrap(), 42);
        m.clear_trace();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4, "one record per executed instruction");
        assert_eq!(log[0].pc, u64::from(entry));
        assert!(log[0].disasm.starts_with("addiu"));
        // addiu $a0, $a0, 1 with a0 = 41: delta is (reg 4, 41 -> 42).
        assert_eq!(log[0].delta, Some((4, 41, 42)));
        assert!(log[3].disasm.contains("nop"));
        assert_eq!(log[3].delta, None);
    }

    #[test]
    fn taken_branch_slots_count_as_fills_when_useful() {
        // beq $0,$0,+2 with a useful delay slot, then a jr with a nop
        // slot: exactly one filled slot.
        let code = [
            0x1000_0002u32, // beq $0, $0, +2 (taken)
            0x2402_0007,    // addiu v0, $0, 7 (useful fill)
            0x2442_0064,    // skipped
            0x03e0_0008,    // jr ra
            0x0000_0000,    // nop slot: not a fill
        ];
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code_bytes(&code)).unwrap();
        assert_eq!(m.call(entry, &[], 100).unwrap(), 7);
        assert_eq!(m.stats().delay_slot_fills, 1);
    }
}
