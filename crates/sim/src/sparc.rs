//! A SPARC V8 instruction-set simulator (little-endian variant).
//!
//! Models the features the `vcode-sparc` backend relies on: register
//! windows (`save`/`restore`), integer condition codes, the `Y` register
//! feeding 64/32 division, the FP condition flag with its
//! one-instruction separation, and branch delay slots.

use crate::{Isa, HALT};
use vcode::{Trap, TrapKind};

/// The simulated SPARC V8 machine.
pub type Machine = crate::Machine<Cpu>;

/// The SPARC `nop` encoding (`sethi 0, %g0`) — a delay slot holding
/// anything else counts as filled.
const NOP: u32 = 0x0100_0000;

const WINDOWS: usize = 512;

/// The SPARC V8 register file.
#[derive(Debug, Clone)]
pub struct Cpu {
    globals: [u32; 8],
    /// Per-window out registers; window `p`'s `%i` are window `p+1`'s
    /// outs.
    outs: Vec<[u32; 8]>,
    locals: Vec<[u32; 8]>,
    p: usize,
    /// FP registers (raw bits; doubles are even/odd with even = low
    /// word — the simulator's little-endian convention).
    pub fregs: [u32; 32],
    y: u32,
    // icc flags.
    n: bool,
    z: bool,
    v: bool,
    c: bool,
    /// FP compare result: 0 =, 1 <, 2 >, 3 unordered.
    fcc: u8,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu {
            globals: [0; 8],
            outs: vec![[0; 8]; WINDOWS],
            locals: vec![[0; 8]; WINDOWS],
            p: WINDOWS / 2,
            fregs: [0; 32],
            y: 0,
            n: false,
            z: false,
            v: false,
            c: false,
            fcc: 0,
        }
    }
}

impl Isa for Cpu {
    type Word = u32;
    const NAME: &'static str = "sparc";
    const CODE_BASE: u64 = 0x1000;
    const CODE_ALIGN: usize = 8;
    const MIN_MEM: usize = 64 * 1024;
    const STACK_GAP: usize = 256;
    const DELAY_SLOT_NOP: Option<u32> = Some(NOP);

    #[inline]
    fn step(m: &mut Machine, pc: u64, word: u32, npc: u64) -> Result<u64, Trap> {
        let npc = npc as u32;
        let mut nnext = npc.wrapping_add(4);
        m.step(pc as u32, word, npc, &mut nnext)?;
        Ok(u64::from(nnext))
    }

    /// `%o7 = HALT - 8`, so the callee's `ret` (`jmpl %i7+8`) lands on
    /// [`HALT`].
    fn enter(&mut self, sp: u64) {
        self.outs[self.p][7] = (HALT as u32).wrapping_sub(8);
        self.outs[self.p][6] = sp as u32;
    }

    /// `%o0`–`%o5`, the callee's `%i` after its `save`.
    fn int_args(&mut self) -> &mut [u32] {
        &mut self.outs[self.p][..6]
    }

    /// `%o0`.
    fn int_result(&self) -> u32 {
        self.outs[self.p][0]
    }

    /// `%f2`/`%f3` and `%f4`/`%f5`.
    fn f64_args(&mut self, args: &[f64]) {
        assert!(args.len() <= 2);
        for (i, &v) in args.iter().enumerate() {
            self.set_fd(2 + 2 * i as u8, v);
        }
    }

    /// `%f0`/`%f1`.
    fn f64_result(&self) -> f64 {
        self.fd(0)
    }

    /// The current window's `%g`, `%o`, `%l` and `%i`.
    fn reg_view(&self) -> [u64; 32] {
        std::array::from_fn(|i| u64::from(self.get(i as u8)))
    }

    fn disasm(word: u32) -> String {
        disasm(word)
    }
}

impl Cpu {
    fn get(&self, r: u8) -> u32 {
        match r {
            0 => 0,
            1..=7 => self.globals[r as usize],
            8..=15 => self.outs[self.p][r as usize - 8],
            16..=23 => self.locals[self.p][r as usize - 16],
            _ => self.outs[self.p + 1][r as usize - 24],
        }
    }

    fn set(&mut self, r: u8, v: u32) {
        match r {
            0 => {}
            1..=7 => self.globals[r as usize] = v,
            8..=15 => self.outs[self.p][r as usize - 8] = v,
            16..=23 => self.locals[self.p][r as usize - 16] = v,
            _ => self.outs[self.p + 1][r as usize - 24] = v,
        }
    }

    fn fd(&self, f: u8) -> f64 {
        f64::from_bits(
            u64::from(self.fregs[f as usize]) | (u64::from(self.fregs[f as usize + 1]) << 32),
        )
    }

    fn set_fd(&mut self, f: u8, v: f64) {
        let b = v.to_bits();
        self.fregs[f as usize] = b as u32;
        self.fregs[f as usize + 1] = (b >> 32) as u32;
    }

    fn fs(&self, f: u8) -> f32 {
        f32::from_bits(self.fregs[f as usize])
    }

    fn mem_addr(&self, rs1: u8, word: u32) -> u32 {
        let base = self.get(rs1);
        if word & (1 << 13) != 0 {
            let simm = ((word & 0x1fff) as i32) << 19 >> 19;
            base.wrapping_add(simm as u32)
        } else {
            base.wrapping_add(self.get((word & 31) as u8))
        }
    }

    fn icc_taken(&self, cond: u8) -> bool {
        let (n, z, v, c) = (self.n, self.z, self.v, self.c);
        match cond & 0xf {
            8 => true,
            0 => false,
            1 => z,
            9 => !z,
            3 => n ^ v,
            11 => !(n ^ v),
            2 => z || (n ^ v),
            10 => !(z || (n ^ v)),
            5 => c,
            13 => !c,
            4 => c || z,
            12 => !(c || z),
            6 => n,   // bneg
            14 => !n, // bpos
            7 => v,   // bvs
            _ => !v,  // bvc
        }
    }

    fn fcc_taken(&self, cond: u8) -> bool {
        let f = self.fcc;
        match cond & 0xf {
            8 => true,
            0 => false,
            1 => f != 0,            // fbne (incl. unordered)
            9 => f == 0,            // fbe
            4 => f == 1,            // fbl
            6 => f == 2,            // fbg
            11 => f == 0 || f == 2, // fbge
            13 => f == 0 || f == 1, // fble
            _ => false,
        }
    }

    fn fpop1(&mut self, opf: u16, rd: u8, fs1: u8, fs2: u8) -> Option<()> {
        // Binary ops take fs1/fs2; unary ones use fs2 only.
        match opf {
            0x001 => self.fregs[rd as usize] = self.fregs[fs2 as usize],
            0x005 => self.fregs[rd as usize] = self.fregs[fs2 as usize] ^ 0x8000_0000,
            0x009 => self.fregs[rd as usize] = self.fregs[fs2 as usize] & 0x7fff_ffff,
            0x029 => {
                let v = self.fs(fs2).sqrt();
                self.fregs[rd as usize] = v.to_bits();
            }
            0x02a => {
                let v = self.fd(fs2).sqrt();
                self.set_fd(rd, v);
            }
            0x041 | 0x045 | 0x049 | 0x04d => {
                let (x, y) = (self.fs(fs1), self.fs(fs2));
                let r = match opf {
                    0x041 => x + y,
                    0x045 => x - y,
                    0x049 => x * y,
                    _ => x / y,
                };
                self.fregs[rd as usize] = r.to_bits();
            }
            0x042 | 0x046 | 0x04a | 0x04e => {
                let (x, y) = (self.fd(fs1), self.fd(fs2));
                let r = match opf {
                    0x042 => x + y,
                    0x046 => x - y,
                    0x04a => x * y,
                    _ => x / y,
                };
                self.set_fd(rd, r);
            }
            0x0c4 => {
                let v = self.fregs[fs2 as usize] as i32;
                self.fregs[rd as usize] = (v as f32).to_bits();
            }
            0x0c8 => {
                let v = self.fregs[fs2 as usize] as i32;
                self.set_fd(rd, f64::from(v));
            }
            0x0c9 => {
                let v = f64::from(self.fs(fs2));
                self.set_fd(rd, v);
            }
            0x0c6 => {
                let v = self.fd(fs2) as f32;
                self.fregs[rd as usize] = v.to_bits();
            }
            0x0d1 => {
                let v = self.fs(fs2) as i32;
                self.fregs[rd as usize] = v as u32;
            }
            0x0d2 => {
                let v = self.fd(fs2) as i32;
                self.fregs[rd as usize] = v as u32;
            }
            _ => return None,
        }
        Some(())
    }
}

impl Machine {
    #[inline]
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: u32, word: u32, npc: u32, nnext: &mut u32) -> Result<(), Trap> {
        self.stats.insns_retired += 1;
        let op = word >> 30;
        let rd = ((word >> 25) & 31) as u8;
        let bad = || Self::trap(TrapKind::IllegalInsn, pc.into());
        match op {
            0 => {
                // Branches / sethi.
                let op2 = (word >> 22) & 7;
                match op2 {
                    4 => self.cpu.set(rd, (word & 0x3f_ffff) << 10),
                    2 | 6 => {
                        self.stats.branches += 1;
                        let cond = ((word >> 25) & 0xf) as u8;
                        let taken = if op2 == 2 {
                            self.cpu.icc_taken(cond)
                        } else {
                            self.cpu.fcc_taken(cond)
                        };
                        if taken {
                            let disp = ((word & 0x3f_ffff) as i32) << 10 >> 10;
                            *nnext = pc.wrapping_add((disp << 2) as u32);
                        }
                    }
                    _ => return Err(bad()),
                }
            }
            1 => {
                // call disp30.
                self.stats.branches += 1;
                self.cpu.set(15, pc); // %o7
                let disp = (word as i32) << 2 >> 2;
                *nnext = pc.wrapping_add((disp << 2) as u32);
            }
            2 => {
                let op3 = ((word >> 19) & 0x3f) as u8;
                let rs1 = ((word >> 14) & 31) as u8;
                let operand2 = if word & (1 << 13) != 0 {
                    (((word & 0x1fff) as i32) << 19 >> 19) as u32
                } else {
                    self.cpu.get((word & 31) as u8)
                };
                let a = self.cpu.get(rs1);
                match op3 {
                    0x00 => self.cpu.set(rd, a.wrapping_add(operand2)),
                    0x01 => self.cpu.set(rd, a & operand2),
                    0x02 => self.cpu.set(rd, a | operand2),
                    0x03 => self.cpu.set(rd, a ^ operand2),
                    0x04 => self.cpu.set(rd, a.wrapping_sub(operand2)),
                    0x07 => self.cpu.set(rd, !(a ^ operand2)),
                    0x08 => self
                        .cpu
                        .set(rd, a.wrapping_add(operand2).wrapping_add(self.cpu.c as u32)),
                    0x0a => {
                        let p = u64::from(a) * u64::from(operand2);
                        self.cpu.y = (p >> 32) as u32;
                        self.cpu.set(rd, p as u32);
                    }
                    0x0b => {
                        let p = i64::from(a as i32) * i64::from(operand2 as i32);
                        self.cpu.y = (p >> 32) as u32;
                        self.cpu.set(rd, p as u32);
                    }
                    0x0e => {
                        let dividend = (u64::from(self.cpu.y) << 32) | u64::from(a);
                        let q = if operand2 == 0 {
                            0
                        } else {
                            dividend / u64::from(operand2)
                        };
                        self.cpu.set(rd, q as u32);
                    }
                    0x0f => {
                        let dividend = ((u64::from(self.cpu.y) << 32) | u64::from(a)) as i64;
                        let d = operand2 as i32;
                        let q = if d == 0 {
                            0
                        } else {
                            dividend.wrapping_div(i64::from(d))
                        };
                        self.cpu.set(rd, q as u32);
                    }
                    0x14 => {
                        // subcc
                        let r = a.wrapping_sub(operand2);
                        self.cpu.n = (r as i32) < 0;
                        self.cpu.z = r == 0;
                        self.cpu.c = a < operand2;
                        self.cpu.v = ((a ^ operand2) & (a ^ r)) >> 31 != 0;
                        self.cpu.set(rd, r);
                    }
                    0x25 => self.cpu.set(rd, a.wrapping_shl(operand2 & 31)),
                    0x26 => self.cpu.set(rd, a.wrapping_shr(operand2 & 31)),
                    0x27 => self
                        .cpu
                        .set(rd, ((a as i32).wrapping_shr(operand2 & 31)) as u32),
                    0x28 => self.cpu.set(rd, self.cpu.y),
                    0x30 => self.cpu.y = a ^ operand2,
                    0x34 => {
                        // FPop1.
                        let opf = ((word >> 5) & 0x1ff) as u16;
                        let fs1 = rs1;
                        let fs2 = (word & 31) as u8;
                        self.cpu.fpop1(opf, rd, fs1, fs2).ok_or_else(bad)?;
                    }
                    0x35 => {
                        let opf = ((word >> 5) & 0x1ff) as u16;
                        let fs2 = (word & 31) as u8;
                        match opf {
                            0x051 => {
                                let (x, y) =
                                    (f64::from(self.cpu.fs(rs1)), f64::from(self.cpu.fs(fs2)));
                                self.cpu.fcc = cmp_fcc(x, y);
                            }
                            0x052 => {
                                let (x, y) = (self.cpu.fd(rs1), self.cpu.fd(fs2));
                                self.cpu.fcc = cmp_fcc(x, y);
                            }
                            _ => return Err(bad()),
                        }
                    }
                    0x38 => {
                        // jmpl: rd = pc, jump to rs1 + operand2.
                        self.stats.branches += 1;
                        let target = a.wrapping_add(operand2);
                        self.cpu.set(rd, pc);
                        *nnext = target;
                    }
                    0x3c => {
                        // save: compute in the old window, then shift.
                        let nsp = a.wrapping_add(operand2);
                        if self.cpu.p == 0 {
                            return Err(Trap::new(TrapKind::ScheduleHazard, Cpu::NAME));
                        }
                        self.cpu.p -= 1;
                        self.cpu.set(rd, nsp);
                    }
                    0x3d => {
                        // restore.
                        let val = a.wrapping_add(operand2);
                        if self.cpu.p + 2 >= WINDOWS {
                            return Err(Trap::new(TrapKind::ScheduleHazard, Cpu::NAME));
                        }
                        self.cpu.p += 1;
                        self.cpu.set(rd, val);
                    }
                    _ => return Err(bad()),
                }
                let _ = npc;
            }
            _ => {
                // Memory.
                let op3 = ((word >> 19) & 0x3f) as u8;
                let rs1 = ((word >> 14) & 31) as u8;
                let addr = self.cpu.mem_addr(rs1, word);
                match op3 {
                    0x00 => {
                        self.stats.loads += 1;
                        self.touch(addr, 4);
                        let v = u32::from_le_bytes(self.load(addr)?);
                        self.cpu.set(rd, v);
                    }
                    0x01 | 0x09 => {
                        self.stats.loads += 1;
                        self.touch(addr, 1);
                        let [b] = self.load(addr)?;
                        let v = if op3 == 0x09 {
                            b as i8 as i32 as u32
                        } else {
                            u32::from(b)
                        };
                        self.cpu.set(rd, v);
                    }
                    0x02 | 0x0a => {
                        self.stats.loads += 1;
                        self.touch(addr, 2);
                        let h = u16::from_le_bytes(self.load(addr)?);
                        let v = if op3 == 0x0a {
                            h as i16 as i32 as u32
                        } else {
                            u32::from(h)
                        };
                        self.cpu.set(rd, v);
                    }
                    0x04 => {
                        self.stats.stores += 1;
                        self.touch(addr, 4);
                        let v = self.cpu.get(rd);
                        self.store(addr, v.to_le_bytes())?;
                    }
                    0x05 => {
                        self.stats.stores += 1;
                        self.touch(addr, 1);
                        let v = self.cpu.get(rd);
                        self.store(addr, [v as u8])?;
                    }
                    0x06 => {
                        self.stats.stores += 1;
                        self.touch(addr, 2);
                        let v = self.cpu.get(rd);
                        self.store(addr, (v as u16).to_le_bytes())?;
                    }
                    0x20 => {
                        self.stats.loads += 1;
                        self.touch(addr, 4);
                        self.cpu.fregs[rd as usize] = u32::from_le_bytes(self.load(addr)?);
                    }
                    0x24 => {
                        self.stats.stores += 1;
                        self.touch(addr, 4);
                        let v = self.cpu.fregs[rd as usize];
                        self.store(addr, v.to_le_bytes())?;
                    }
                    _ => return Err(bad()),
                }
            }
        }
        Ok(())
    }
}

fn cmp_fcc(x: f64, y: f64) -> u8 {
    if x.is_nan() || y.is_nan() {
        3
    } else if x == y {
        0
    } else if x < y {
        1
    } else {
        2
    }
}

/// Disassembles one instruction word (debugging aid — the paper calls
/// the missing symbolic debugger VCODE's most critical drawback, §6.2).
pub fn disasm(word: u32) -> String {
    let op = word >> 30;
    let rd = (word >> 25) & 31;
    let rs1 = (word >> 14) & 31;
    let imm = word & (1 << 13) != 0;
    let simm = ((word & 0x1fff) as i32) << 19 >> 19;
    let rs2 = word & 31;
    let operand = if imm {
        format!("{simm}")
    } else {
        format!("%r{rs2}")
    };
    match op {
        0 => {
            let op2 = (word >> 22) & 7;
            let disp = ((word & 0x3f_ffff) as i32) << 10 >> 10;
            match op2 {
                4 if word == 0x0100_0000 => "nop".to_owned(),
                4 => format!("sethi %hi({:#x}), %r{rd}", (word & 0x3f_ffff) << 10),
                2 => format!("b{} {disp}", icc_name(((word >> 25) & 0xf) as u8)),
                6 => format!("fb<{}> {disp}", (word >> 25) & 0xf),
                _ => format!(".word {word:#010x}"),
            }
        }
        1 => format!("call {}", (word as i32) << 2 >> 2),
        2 => {
            let op3 = (word >> 19) & 0x3f;
            match op3 {
                0x00 => format!("add %r{rs1}, {operand}, %r{rd}"),
                0x01 => format!("and %r{rs1}, {operand}, %r{rd}"),
                0x02 => format!("or %r{rs1}, {operand}, %r{rd}"),
                0x03 => format!("xor %r{rs1}, {operand}, %r{rd}"),
                0x04 => format!("sub %r{rs1}, {operand}, %r{rd}"),
                0x07 => format!("xnor %r{rs1}, {operand}, %r{rd}"),
                0x08 => format!("addx %r{rs1}, {operand}, %r{rd}"),
                0x0a => format!("umul %r{rs1}, {operand}, %r{rd}"),
                0x0b => format!("smul %r{rs1}, {operand}, %r{rd}"),
                0x0e => format!("udiv %r{rs1}, {operand}, %r{rd}"),
                0x0f => format!("sdiv %r{rs1}, {operand}, %r{rd}"),
                0x14 => format!("subcc %r{rs1}, {operand}, %r{rd}"),
                0x25 => format!("sll %r{rs1}, {operand}, %r{rd}"),
                0x26 => format!("srl %r{rs1}, {operand}, %r{rd}"),
                0x27 => format!("sra %r{rs1}, {operand}, %r{rd}"),
                0x28 => format!("rd %y, %r{rd}"),
                0x30 => format!("wr %r{rs1}, {operand}, %y"),
                0x34 => format!("fpop1.{:#x} %f{rs1}, %f{rs2}, %f{rd}", (word >> 5) & 0x1ff),
                0x35 => format!("fcmp.{:#x} %f{rs1}, %f{rs2}", (word >> 5) & 0x1ff),
                0x38 => format!("jmpl %r{rs1}+{operand}, %r{rd}"),
                0x3c => format!("save %r{rs1}, {operand}, %r{rd}"),
                0x3d => format!("restore %r{rs1}, {operand}, %r{rd}"),
                _ => format!(".word {word:#010x}"),
            }
        }
        _ => {
            let op3 = (word >> 19) & 0x3f;
            let name = match op3 {
                0x00 => "ld",
                0x01 => "ldub",
                0x02 => "lduh",
                0x09 => "ldsb",
                0x0a => "ldsh",
                0x04 => "st",
                0x05 => "stb",
                0x06 => "sth",
                0x20 => "ldf",
                0x24 => "stf",
                _ => return format!(".word {word:#010x}"),
            };
            format!("{name} [%r{rs1}+{operand}], %r{rd}")
        }
    }
}

fn icc_name(c: u8) -> &'static str {
    match c {
        8 => "a",
        0 => "n",
        1 => "e",
        9 => "ne",
        3 => "l",
        11 => "ge",
        2 => "le",
        10 => "g",
        5 => "cs",
        13 => "cc",
        4 => "leu",
        12 => "gu",
        _ => "?",
    }
}

/// [`vcode::InsnDecoder`] over the simulator's SPARC V8 decode tables,
/// for the differential machine-code checker (`vcode::cross_check`).
///
/// Control transfers are `bicc`/`fbcc` (pc-relative disp22), `call`
/// (pc-relative disp30) and `jmpl` (register target, no static
/// destination).
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl vcode::InsnDecoder for Decoder {
    fn decode(&self, code: &[u8], at: usize) -> Option<vcode::DecodedInsn> {
        let word = u32::from_le_bytes(code.get(at..at + 4)?.try_into().ok()?);
        if disasm(word).starts_with(".word") {
            return None;
        }
        let op = word >> 30;
        let op2 = (word >> 22) & 7;
        let op3 = (word >> 19) & 0x3f;
        let (control, target) = match op {
            0 if matches!(op2, 2 | 6) => {
                let disp = i64::from(((word & 0x3f_ffff) as i32) << 10 >> 10) << 2;
                (true, Some(at as i64 + disp))
            }
            1 => {
                let disp = i64::from((word as i32) << 2 >> 2) << 2;
                (true, Some(at as i64 + disp))
            }
            2 if op3 == 0x38 => (true, None),
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

    // Hand-assembled: save %sp,-168,%sp; add %i0,1,%i0; jmpl %i7+8,%g0;
    // restore.
    fn plus1_code() -> Vec<u8> {
        let words = [
            (2u32 << 30)
                | (14 << 25)
                | (0x3c << 19)
                | (14 << 14)
                | (1 << 13)
                | ((-168i32 as u32) & 0x1fff),
            (2 << 30) | (24 << 25) | (24 << 14) | (1 << 13) | 1,
            (2 << 30) | (0x38 << 19) | (31 << 14) | (1 << 13) | 8,
            (2 << 30) | (0x3d << 19),
        ];
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn windows_and_return() {
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&plus1_code()).unwrap();
        assert_eq!(m.call(entry, &[41], 100).unwrap(), 42);
        assert_eq!(m.stats().insns_retired, 4);
    }

    #[test]
    fn stats_trace_and_delay_slot_fills() {
        use std::sync::{Arc, Mutex};
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&plus1_code()).unwrap();
        let log: Arc<Mutex<Vec<TraceRecord>>> = Arc::default();
        let log2 = Arc::clone(&log);
        m.set_trace(move |r| log2.lock().unwrap().push(r.clone()));
        assert_eq!(m.call(entry, &[41], 100).unwrap(), 42);
        m.clear_trace();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].pc, u64::from(entry));
        assert!(log[0].disasm.starts_with("save"));
        assert!(log[1].disasm.starts_with("add"));
        // add %i0, 1, %i0 with %i0 = 41: register 24, 41 -> 42.
        assert_eq!(log[1].delta, Some((24, 41, 42)));
        // The `restore` in jmpl's delay slot is a useful fill.
        assert_eq!(m.stats().delay_slot_fills, 1);
        // Trap tallies: run from a PC outside the code.
        assert!(m.run(0, 10).is_err());
        assert_eq!(m.stats().traps.count(vcode::TrapKind::BadPc), 1);
    }

    #[test]
    fn dcache_folds_into_stats() {
        // ld [%i0+0], %i0 ; ret ; restore  (load arg, return it)
        let words = [
            (2u32 << 30)
                | (14 << 25)
                | (0x3c << 19)
                | (14 << 14)
                | (1 << 13)
                | ((-96i32 as u32) & 0x1fff),
            (3 << 30) | (24 << 25) | (24 << 14) | (1 << 13), // ld [%i0+0],%i0
            (2 << 30) | (0x38 << 19) | (31 << 14) | (1 << 13) | 8,
            (2 << 30) | (0x3d << 19),
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        m.dcache = Some(Cache::new(1024, 16, 10));
        let entry = m.load_code(&code).unwrap();
        let addr = m.alloc(8, 8).unwrap();
        m.write(addr, &7u32.to_le_bytes()).unwrap();
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 7);
        assert_eq!(m.call(entry, &[addr], 100).unwrap(), 7);
        let s = m.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.cycles, s.insns_retired + 10);
        assert_eq!(s.loads, 2);
    }

    #[test]
    fn subcc_flags_and_branches() {
        // subcc %i0, %i1, %g0; bl +3; nop; or %g0,0,%i0; ret; restore
        //                                [taken: or %g0,1,%i0; ret; restore]
        let words = [
            (2u32 << 30)
                | (14 << 25)
                | (0x3c << 19)
                | (14 << 14)
                | (1 << 13)
                | ((-96i32 as u32) & 0x1fff),
            (2 << 30) | (0x14 << 19) | (24 << 14) | 25, // subcc %i0,%i1,%g0
            (2 << 22) | (3 << 25) | 4,                  // bl +4
            0x0100_0000,                                // nop (sethi 0,%g0)
            (2 << 30) | (24 << 25) | (2 << 19) | (1 << 13), // or %g0,0,%i0
            (2 << 30) | (0x38 << 19) | (31 << 14) | (1 << 13) | 8,
            (2 << 30) | (0x3d << 19),
            // taken target (word 6? adjust): or %g0,1,%i0
            (2 << 30) | (24 << 25) | (2 << 19) | (1 << 13) | 1,
            (2 << 30) | (0x38 << 19) | (31 << 14) | (1 << 13) | 8,
            (2 << 30) | (0x3d << 19),
        ];
        // Branch at word 2, disp 4 → word 6? word2 + 4 = word 6... the
        // taken block starts at word 7; fix disp to 5.
        let mut words = words;
        words[2] = (2 << 22) | (3 << 25) | 5;
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        assert_eq!(m.call(entry, &[1, 2], 100).unwrap(), 1, "1 < 2");
        assert_eq!(m.call(entry, &[2, 1], 100).unwrap(), 0, "2 >= 1");
        assert_eq!(
            m.call(entry, &[0x8000_0000, 1], 100).unwrap(),
            1,
            "signed compare"
        );
    }

    #[test]
    fn window_overflow_detected() {
        // Infinite save loop.
        let words = [
            (2u32 << 30)
                | (14 << 25)
                | (0x3c << 19)
                | (14 << 14)
                | (1 << 13)
                | ((-96i32 as u32) & 0x1fff),
            (1 << 30) | ((-1i32 as u32) & 0x3fff_ffff), // call self-4? loop via branch:
        ];
        // Simpler: two saves then branch back to the first save.
        let words = [
            words[0],
            (8 << 25) | (2 << 22) | ((-1i32 as u32) & 0x3f_ffff), // ba -1
            0x0100_0000,
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut m = Machine::new(1 << 20);
        let entry = m.load_code(&code).unwrap();
        assert_eq!(
            m.run(entry, 100_000),
            Err(Trap::new(TrapKind::ScheduleHazard, "sparc"))
        );
    }
}
