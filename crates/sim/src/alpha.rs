//! An Alpha (21064-era) instruction-set simulator.
//!
//! Executes code from the `vcode-alpha` backend. Besides the base ISA
//! (no byte/word memory ops — `ldq_u` and the ext/ins/msk byte zappers
//! instead), it provides the *division support routines* at magic
//! addresses: the backend emits `jsr t9, (at)` to them because the
//! hardware has no integer divide (paper §5.2), and they follow the
//! special convention of preserving every caller-saved register.

use crate::{Isa, HALT};
use vcode::{Trap, TrapKind};

/// The simulated Alpha machine.
pub type Machine = crate::Machine<Cpu>;

/// Division support routines live at `0xd000 + 8k` (below the code).
pub const DIV_BASE: u64 = 0xd000;

/// Cycles charged per division-routine call (a software divide loop of
/// the era ran on the order of dozens of instructions).
pub const DIV_COST: u64 = 40;

/// The Alpha register file.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// Integer registers (`$31` reads as zero).
    pub regs: [u64; 32],
    /// FP registers as raw T-format (f64) bits; `$f31` reads as zero.
    pub fregs: [u64; 32],
    /// Division-routine invocations over the machine's lifetime
    /// (`reset_stats` leaves it alone; each call is charged into the
    /// stats as [`DIV_COST`] retired instructions).
    pub div_calls: u64,
}

impl Isa for Cpu {
    type Word = u64;
    const NAME: &'static str = "alpha";
    const CODE_BASE: u64 = 0x1_0000;
    const CODE_ALIGN: usize = 16;
    const MIN_MEM: usize = 256 * 1024;
    const STACK_GAP: usize = 256;
    const DELAY_SLOT_NOP: Option<u32> = None;

    #[inline]
    fn step(m: &mut Machine, pc: u64, word: u32, _npc: u64) -> Result<u64, Trap> {
        m.step(pc, word)
    }

    /// The division support routines (paper §5.2): arguments in
    /// `t10`/`t11`, result in `t12`/`pv`, return through `t9`; every
    /// other register is preserved.
    fn runtime_call(m: &mut Machine, pc: u64) -> Option<u64> {
        if !(DIV_BASE..DIV_BASE + 0x40).contains(&pc) {
            return None;
        }
        m.cpu.div_calls += 1;
        m.stats.insns_retired += DIV_COST;
        let r = &mut m.cpu.regs;
        r[27] = div_routine((pc - DIV_BASE) / 8, r[24], r[25]);
        Some(r[23])
    }

    fn enter(&mut self, sp: u64) {
        self.regs[26] = HALT;
        self.regs[30] = sp;
    }

    /// `$a0`–`$a5`.
    fn int_args(&mut self) -> &mut [u64] {
        &mut self.regs[16..22]
    }

    /// `$v0`.
    fn int_result(&self) -> u64 {
        self.regs[0]
    }

    /// `$f16`–`$f19`.
    fn f64_args(&mut self, args: &[f64]) {
        assert!(args.len() <= 4);
        for (i, &v) in args.iter().enumerate() {
            self.fregs[16 + i] = v.to_bits();
        }
    }

    /// `$f0`.
    fn f64_result(&self) -> f64 {
        f64::from_bits(self.fregs[0])
    }

    fn reg_view(&self) -> [u64; 32] {
        self.regs
    }

    fn disasm(word: u32) -> String {
        disasm(word)
    }
}

impl Machine {
    #[inline]
    fn get(&self, r: u8) -> u64 {
        if r == 31 {
            0
        } else {
            self.cpu.regs[r as usize]
        }
    }

    #[inline]
    fn set(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.cpu.regs[r as usize] = v;
        }
    }

    fn fget(&self, r: u8) -> u64 {
        if r == 31 {
            0
        } else {
            self.cpu.fregs[r as usize]
        }
    }

    fn fset(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.cpu.fregs[r as usize] = v;
        }
    }

    #[inline]
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: u64, word: u32) -> Result<u64, Trap> {
        self.stats.insns_retired += 1;
        let opcode = (word >> 26) as u8;
        let ra = ((word >> 21) & 31) as u8;
        let rb = ((word >> 16) & 31) as u8;
        let disp16 = word as u16 as i16;
        let bad = || Self::trap(TrapKind::IllegalInsn, pc);
        let mut next = pc + 4;
        match opcode {
            0x08 => {
                // lda
                let v = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.set(ra, v);
            }
            0x09 => {
                let v = self.get(rb).wrapping_add(((disp16 as i64) << 16) as u64);
                self.set(ra, v);
            }
            0x0b => {
                // ldq_u
                self.stats.loads += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64) & !7;
                self.touch(addr, 8);
                let v = u64::from_le_bytes(self.load(addr)?);
                self.set(ra, v);
            }
            0x0f => {
                // stq_u
                self.stats.stores += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64) & !7;
                self.touch(addr, 8);
                let v = self.get(ra);
                self.store(addr, v.to_le_bytes())?;
            }
            0x28 => {
                self.stats.loads += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 4);
                let v = u32::from_le_bytes(self.load(addr)?) as i32 as i64 as u64;
                self.set(ra, v);
            }
            0x29 => {
                self.stats.loads += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 8);
                let v = u64::from_le_bytes(self.load(addr)?);
                self.set(ra, v);
            }
            0x2c => {
                self.stats.stores += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 4);
                let v = self.get(ra);
                self.store(addr, (v as u32).to_le_bytes())?;
            }
            0x2d => {
                self.stats.stores += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 8);
                let v = self.get(ra);
                self.store(addr, v.to_le_bytes())?;
            }
            0x22 => {
                // lds: load S-format (f32), widen to T-format bits.
                self.stats.loads += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 4);
                let s = f32::from_bits(u32::from_le_bytes(self.load(addr)?));
                self.fset(ra, f64::from(s).to_bits());
            }
            0x26 => {
                // sts
                self.stats.stores += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 4);
                let s = f64::from_bits(self.fget(ra)) as f32;
                self.store(addr, s.to_bits().to_le_bytes())?;
            }
            0x23 => {
                self.stats.loads += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 8);
                let v = u64::from_le_bytes(self.load(addr)?);
                self.fset(ra, v);
            }
            0x27 => {
                self.stats.stores += 1;
                let addr = self.get(rb).wrapping_add(disp16 as i64 as u64);
                self.touch(addr, 8);
                let v = self.fget(ra);
                self.store(addr, v.to_le_bytes())?;
            }
            0x10..=0x13 => {
                let func = ((word >> 5) & 0x7f) as u8;
                let a = self.get(ra);
                let b = if word & (1 << 12) != 0 {
                    u64::from((word >> 13) & 0xff)
                } else {
                    self.get(rb)
                };
                let rc = (word & 31) as u8;
                let v = match (opcode, func) {
                    (0x10, 0x00) => (a as i32).wrapping_add(b as i32) as i64 as u64,
                    (0x10, 0x09) => (a as i32).wrapping_sub(b as i32) as i64 as u64,
                    (0x10, 0x20) => a.wrapping_add(b),
                    (0x10, 0x29) => a.wrapping_sub(b),
                    (0x10, 0x1d) => u64::from(a < b),
                    (0x10, 0x2d) => u64::from(a == b),
                    (0x10, 0x3d) => u64::from(a <= b),
                    (0x10, 0x4d) => u64::from((a as i64) < (b as i64)),
                    (0x10, 0x6d) => u64::from((a as i64) <= (b as i64)),
                    (0x11, 0x00) => a & b,
                    (0x11, 0x08) => a & !b,
                    (0x11, 0x20) => a | b,
                    (0x11, 0x28) => a | !b,
                    (0x11, 0x40) => a ^ b,
                    (0x11, 0x48) => !(a ^ b),
                    (0x12, 0x39) => a.wrapping_shl(b as u32 & 63),
                    (0x12, 0x34) => a.wrapping_shr(b as u32 & 63),
                    (0x12, 0x3c) => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                    (0x12, 0x31) => {
                        // zapnot: keep bytes whose mask bit is set.
                        let mut mask = 0u64;
                        for k in 0..8 {
                            if b & (1 << k) != 0 {
                                mask |= 0xffu64 << (k * 8);
                            }
                        }
                        a & mask
                    }
                    (0x12, 0x06) => (a >> ((b & 7) * 8)) & 0xff,
                    (0x12, 0x16) => (a >> ((b & 7) * 8)) & 0xffff,
                    (0x12, 0x0b) => (a & 0xff) << ((b & 7) * 8),
                    (0x12, 0x1b) => (a & 0xffff) << ((b & 7) * 8),
                    (0x12, 0x02) => a & !(0xffu64 << ((b & 7) * 8)),
                    (0x12, 0x12) => a & !(0xffffu64 << ((b & 7) * 8)),
                    (0x13, 0x00) => (a as i32).wrapping_mul(b as i32) as i64 as u64,
                    (0x13, 0x20) => a.wrapping_mul(b),
                    _ => return Err(bad()),
                };
                self.set(rc, v);
            }
            0x16 => {
                let func = ((word >> 5) & 0x7ff) as u16;
                let fa = f64::from_bits(self.fget(ra));
                let fb = f64::from_bits(self.fget(rb));
                let rc = (word & 31) as u8;
                let v: u64 = match func {
                    0x080 => f64::from((fa as f32) + (fb as f32)).to_bits(),
                    0x081 => f64::from((fa as f32) - (fb as f32)).to_bits(),
                    0x082 => f64::from((fa as f32) * (fb as f32)).to_bits(),
                    0x083 => f64::from((fa as f32) / (fb as f32)).to_bits(),
                    0x0a0 => (fa + fb).to_bits(),
                    0x0a1 => (fa - fb).to_bits(),
                    0x0a2 => (fa * fb).to_bits(),
                    0x0a3 => (fa / fb).to_bits(),
                    0x0a5 => {
                        if fa == fb {
                            2.0f64.to_bits()
                        } else {
                            0
                        }
                    }
                    0x0a6 => {
                        if fa < fb {
                            2.0f64.to_bits()
                        } else {
                            0
                        }
                    }
                    0x0a7 => {
                        if fa <= fb {
                            2.0f64.to_bits()
                        } else {
                            0
                        }
                    }
                    0x02f => (fb as i64) as u64, // cvttq/c (truncate)
                    0x0bc => f64::from(self.fget(rb) as i64 as f64 as f32).to_bits(),
                    0x0be => (self.fget(rb) as i64 as f64).to_bits(),
                    0x2ac => f64::from(fb as f32).to_bits(),
                    _ => return Err(bad()),
                };
                self.fset(rc, v);
            }
            0x17 => {
                let func = ((word >> 5) & 0x7ff) as u16;
                let rc = (word & 31) as u8;
                let fa = self.fget(ra);
                let fb = self.fget(rb);
                let v = match func {
                    0x020 => (fa & (1 << 63)) | (fb & !(1 << 63)),
                    0x021 => (!fa & (1 << 63)) | (fb & !(1 << 63)),
                    0x022 => (fa & 0xfff0_0000_0000_0000) | (fb & 0x000f_ffff_ffff_ffff),
                    _ => return Err(bad()),
                };
                self.fset(rc, v);
            }
            0x1a => {
                self.stats.branches += 1;
                let target = self.get(rb) & !3;
                self.set(ra, pc + 4);
                next = target;
            }
            0x30 | 0x34 => {
                self.stats.branches += 1;
                let disp = ((word & 0x1f_ffff) as i32) << 11 >> 11;
                self.set(ra, pc + 4);
                next = pc
                    .wrapping_add(4)
                    .wrapping_add((i64::from(disp) * 4) as u64);
            }
            0x39 | 0x3d | 0x3a | 0x3b | 0x3e | 0x3f => {
                self.stats.branches += 1;
                let v = self.get(ra) as i64;
                let taken = match opcode {
                    0x39 => v == 0,
                    0x3d => v != 0,
                    0x3a => v < 0,
                    0x3b => v <= 0,
                    0x3e => v >= 0,
                    _ => v > 0,
                };
                if taken {
                    let disp = ((word & 0x1f_ffff) as i32) << 11 >> 11;
                    next = pc
                        .wrapping_add(4)
                        .wrapping_add((i64::from(disp) * 4) as u64);
                }
            }
            0x31 | 0x35 | 0x32 | 0x33 | 0x36 | 0x37 => {
                self.stats.branches += 1;
                let v = f64::from_bits(self.fget(ra));
                let taken = match opcode {
                    0x31 => v == 0.0,
                    0x35 => v != 0.0,
                    0x32 => v < 0.0,
                    0x33 => v <= 0.0,
                    0x36 => v >= 0.0,
                    _ => v > 0.0,
                };
                if taken {
                    let disp = ((word & 0x1f_ffff) as i32) << 11 >> 11;
                    next = pc
                        .wrapping_add(4)
                        .wrapping_add((i64::from(disp) * 4) as u64);
                }
            }
            _ => return Err(bad()),
        }
        Ok(next)
    }
}

fn div_routine(idx: u64, a: u64, b: u64) -> u64 {
    match idx {
        0 => {
            // divl
            let (x, y) = (a as i32, b as i32);
            if y == 0 || (x == i32::MIN && y == -1) {
                0
            } else {
                x.wrapping_div(y) as i64 as u64
            }
        }
        1 => {
            let (x, y) = (a as u32, b as u32);
            x.checked_div(y).map_or(0, |q| i64::from(q as i32) as u64)
        }
        2 => {
            let (x, y) = (a as i32, b as i32);
            if y == 0 || (x == i32::MIN && y == -1) {
                0
            } else {
                x.wrapping_rem(y) as i64 as u64
            }
        }
        3 => {
            let (x, y) = (a as u32, b as u32);
            if y == 0 {
                0
            } else {
                i64::from((x % y) as i32) as u64
            }
        }
        4 => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 || (x == i64::MIN && y == -1) {
                0
            } else {
                x.wrapping_div(y) as u64
            }
        }
        5 => a.checked_div(b).unwrap_or(0),
        6 => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 || (x == i64::MIN && y == -1) {
                0
            } else {
                x.wrapping_rem(y) as u64
            }
        }
        _ => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
    }
}

/// Disassembles one instruction word (debugging aid, §6.2).
pub fn disasm(word: u32) -> String {
    let opcode = (word >> 26) as u8;
    let ra = (word >> 21) & 31;
    let rb = (word >> 16) & 31;
    let disp16 = word as u16 as i16;
    let mem_name = |n: &str| format!("{n} ${ra}, {disp16}(${rb})");
    match opcode {
        0x08 => mem_name("lda"),
        0x09 => mem_name("ldah"),
        0x0b => mem_name("ldq_u"),
        0x0f => mem_name("stq_u"),
        0x22 => mem_name("lds"),
        0x23 => mem_name("ldt"),
        0x26 => mem_name("sts"),
        0x27 => mem_name("stt"),
        0x28 => mem_name("ldl"),
        0x29 => mem_name("ldq"),
        0x2c => mem_name("stl"),
        0x2d => mem_name("stq"),
        0x10..=0x13 => {
            let func = (word >> 5) & 0x7f;
            let rc = word & 31;
            let name = match (opcode, func) {
                (0x10, 0x00) => "addl",
                (0x10, 0x09) => "subl",
                (0x10, 0x20) => "addq",
                (0x10, 0x29) => "subq",
                (0x10, 0x1d) => "cmpult",
                (0x10, 0x2d) => "cmpeq",
                (0x10, 0x3d) => "cmpule",
                (0x10, 0x4d) => "cmplt",
                (0x10, 0x6d) => "cmple",
                (0x11, 0x00) => "and",
                (0x11, 0x20) => "bis",
                (0x11, 0x28) => "ornot",
                (0x11, 0x40) => "xor",
                (0x12, 0x39) => "sll",
                (0x12, 0x34) => "srl",
                (0x12, 0x3c) => "sra",
                (0x12, 0x31) => "zapnot",
                (0x12, 0x06) => "extbl",
                (0x12, 0x16) => "extwl",
                (0x12, 0x0b) => "insbl",
                (0x12, 0x1b) => "inswl",
                (0x12, 0x02) => "mskbl",
                (0x12, 0x12) => "mskwl",
                (0x13, 0x00) => "mull",
                (0x13, 0x20) => "mulq",
                _ => return format!(".word {word:#010x}"),
            };
            if word == (0x11 << 26) | (31 << 21) | (31 << 16) | (0x20 << 5) | 31 {
                return "nop".to_owned();
            }
            if word & (1 << 12) != 0 {
                format!("{name} ${ra}, {}, ${rc}", (word >> 13) & 0xff)
            } else {
                format!("{name} ${ra}, ${rb}, ${rc}")
            }
        }
        0x16 => format!(
            "fpop.{:#x} $f{ra}, $f{rb}, $f{}",
            (word >> 5) & 0x7ff,
            word & 31
        ),
        0x17 => format!(
            "cpys.{:#x} $f{ra}, $f{rb}, $f{}",
            (word >> 5) & 0x7ff,
            word & 31
        ),
        0x1a => {
            let kind = match (word >> 14) & 3 {
                0 => "jmp",
                1 => "jsr",
                2 => "ret",
                _ => "jsr_co",
            };
            format!("{kind} ${ra}, (${rb})")
        }
        0x30 => format!("br ${ra}, {}", ((word & 0x1f_ffff) as i32) << 11 >> 11),
        0x34 => format!("bsr ${ra}, {}", ((word & 0x1f_ffff) as i32) << 11 >> 11),
        0x39 | 0x3d | 0x3a | 0x3b | 0x3e | 0x3f | 0x31 | 0x35 | 0x32 | 0x33 | 0x36 | 0x37 => {
            let name = match opcode {
                0x39 => "beq",
                0x3d => "bne",
                0x3a => "blt",
                0x3b => "ble",
                0x3e => "bge",
                0x3f => "bgt",
                0x31 => "fbeq",
                0x35 => "fbne",
                0x32 => "fblt",
                0x33 => "fble",
                0x36 => "fbge",
                _ => "fbgt",
            };
            format!("{name} ${ra}, {}", ((word & 0x1f_ffff) as i32) << 11 >> 11)
        }
        _ => format!(".word {word:#010x}"),
    }
}

/// [`vcode::InsnDecoder`] over the simulator's Alpha decode tables, for
/// the differential machine-code checker (`vcode::cross_check`).
///
/// Control transfers are the conditional branch family and `br`/`bsr`
/// (pc-relative disp21) plus the opcode-0x1a jump group (`jmp`/`jsr`/
/// `ret`, register targets with no static destination).
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl vcode::InsnDecoder for Decoder {
    fn decode(&self, code: &[u8], at: usize) -> Option<vcode::DecodedInsn> {
        let word = u32::from_le_bytes(code.get(at..at + 4)?.try_into().ok()?);
        if disasm(word).starts_with(".word") {
            return None;
        }
        let opcode = (word >> 26) as u8;
        let (control, target) = match opcode {
            0x1a => (true, None),
            0x30..=0x37 | 0x39..=0x3b | 0x3d..=0x3f => {
                let disp = i64::from(((word & 0x1f_ffff) as i32) << 11 >> 11) << 2;
                (true, Some(at as i64 + 4 + disp))
            }
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

    // addl a0, 1, v0 (literal); ret (ra)
    fn plus1_code() -> Vec<u8> {
        let words = [
            ((0x10u32 << 26) | (16 << 21) | (1 << 13) | (1 << 12)),
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
        ];
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn runs_plus1() {
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&plus1_code()).unwrap();
        assert_eq!(m.call(entry, &[41], 100).unwrap(), 42);
        assert_eq!(m.call(entry, &[u64::from(u32::MAX)], 100).unwrap(), 0);
    }

    #[test]
    fn ldq_u_and_extbl() {
        // a0 = addr: ldq_u t0, 0(a0); extbl v0, t0?? extbl ra=t0 rb=a0
        // rc=v0; ret.
        let words = [
            (0x0bu32 << 26) | (1 << 21) | (16 << 16),
            ((0x12u32 << 26) | (1 << 21) | (16 << 16) | (0x06 << 5)),
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        let addr = m.alloc(16, 8).unwrap();
        m.write(addr, &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88])
            .unwrap();
        assert_eq!(m.call(entry, &[addr + 3], 100).unwrap(), 0x44);
        assert_eq!(m.call(entry, &[addr + 6], 100).unwrap(), 0x77);
    }

    #[test]
    fn division_magic_addresses() {
        // Call divl directly: t10 = -20, t11 = 3, jsr t9, (a0).
        let words = [
            (0x1au32 << 26) | (23 << 21) | (16 << 16) | (1 << 14), // jsr t9,(a0)
            // return here: mov pv → v0; ret
            ((0x11u32 << 26) | (31 << 21) | (27 << 16) | (0x20 << 5)),
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        m.cpu.regs[24] = (-20i64) as u64;
        m.cpu.regs[25] = 3;
        let r = m.call(entry, &[DIV_BASE], 100).unwrap();
        assert_eq!(r as i64, -6);
        assert_eq!(m.cpu.div_calls, 1);
        assert!(m.stats().insns_retired >= DIV_COST);
    }

    #[test]
    fn branches_and_literals() {
        // beq a0, +1; lda v0, 1($31); ret; [target] lda v0, 2($31); ret
        let words = [
            (0x39u32 << 26) | (16 << 21) | 2,
            (0x08u32 << 26) | (31 << 16) | 1,
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
            (0x08u32 << 26) | (31 << 16) | 2,
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        assert_eq!(m.call(entry, &[0], 100).unwrap(), 2);
        assert_eq!(m.call(entry, &[5], 100).unwrap(), 1);
    }

    #[test]
    fn bad_instruction_and_step_limit() {
        let words = [0x0000_0000u32]; // call_pal halt — undecoded
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        let t = m.call(entry, &[], 10).unwrap_err();
        assert_eq!((t.kind, t.addr), (TrapKind::IllegalInsn, Some(entry)));
        // br self = infinite loop.
        let words = [(0x30u32 << 26) | (31 << 21) | ((-1i32 as u32) & 0x1f_ffff)];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let entry = m.load_code(&code).unwrap();
        assert_eq!(
            m.call(entry, &[], 100),
            Err(Trap::new(TrapKind::FuelExhausted, "alpha"))
        );
        // Both failures landed in the unified trap tally.
        let s = m.stats();
        assert_eq!(s.traps.count(vcode::TrapKind::IllegalInsn), 1);
        assert_eq!(s.traps.count(vcode::TrapKind::FuelExhausted), 1);
    }

    #[test]
    fn trace_and_dcache_stats() {
        use std::sync::{Arc, Mutex};
        // ldq v0, 0(a0); ret
        let words = [
            (0x29u32 << 26) | (16 << 16),
            (0x1au32 << 26) | (31 << 21) | (26 << 16) | (2 << 14),
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        m.dcache = Some(Cache::new(1024, 16, 10));
        let entry = m.load_code(&code).unwrap();
        let addr = m.alloc(16, 8).unwrap();
        m.write(addr, &7u64.to_le_bytes()).unwrap();
        let log: Arc<Mutex<Vec<TraceRecord>>> = Arc::default();
        let log2 = Arc::clone(&log);
        m.set_trace(move |r| log2.lock().unwrap().push(r.clone()));
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 7);
        m.clear_trace();
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 7);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2, "only the traced call streams records");
        assert!(log[0].disasm.starts_with("ldq"));
        assert_eq!(log[0].delta, Some((0, 0, 7)), "$v0: 0 -> 7");
        let s = m.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.cycles, s.insns_retired + 10);
        assert_eq!(s.delay_slot_fills, 0, "alpha has no delay slots");
    }
}
