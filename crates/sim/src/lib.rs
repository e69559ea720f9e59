//! # vcode-sim — instruction-set simulators for vcode targets
//!
//! The paper evaluated VCODE on MIPS (DECstation), SPARC and Alpha
//! hardware. This crate supplies the substitute substrate (see
//! DESIGN.md): ISA-level simulators that execute the exact binary code
//! the `vcode-mips`, `vcode-sparc` and `vcode-alpha` backends emit,
//! with instruction counting, an optional data-cache model, and strict
//! checking (alignment, delay-slot hazards, unknown encodings) so the
//! simulators double as verifiers for the instruction-mapping
//! regression tests (paper §3.3, §6.1).
//!
//! One shell, three ISAs: [`Machine<I>`](Machine) is the memory image,
//! the host-facing memory API, the counters and cache, the trace hook
//! and the fetch–step–trace loop, written once. An [`Isa`] is a register
//! file plus its `step` and its calling convention; `mips::Machine`,
//! `sparc::Machine` and `alpha::Machine` name the three instances. Every
//! trap is a [`vcode::Trap`] from the start, tagged with the ISA's name.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alpha;
pub mod cache;
pub mod engine;
pub mod mips;
pub mod sparc;

pub use cache::Cache;

use std::fmt;
use std::ops::Range;
use vcode::obs::{ExecStats, TraceRecord};
use vcode::{Trap, TrapKind};

/// Return-address sentinel: a run ends when control reaches it.
pub const HALT: u64 = 0xffff_fff0;

/// Bytes below the top of memory that the heap never hands out.
const STACK_RESERVE: usize = 64 * 1024;

/// A typed failure from the host-facing machine-memory APIs
/// (`load_code` / `alloc` / `write` / `read`).
///
/// Guest accesses already trap in a typed way (`TrapKind::BadAccess`);
/// these errors give the *host* side the same discipline — out-of-range
/// or oversized requests return an error instead of panicking, mirroring
/// the typed-ENOMEM convention of the native executable-memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The `[addr, addr + len)` range does not fit below `size`.
    OutOfRange {
        /// Start of the requested range.
        addr: u64,
        /// Length of the requested range in bytes.
        len: usize,
        /// End of the region the range must fit in: the heap base for a
        /// code image, the size of simulated memory otherwise.
        size: usize,
    },
    /// An allocation request exhausted (or arithmetically overflowed)
    /// the simulated heap.
    OutOfMemory {
        /// Requested size in bytes.
        requested: usize,
        /// Requested alignment in bytes.
        align: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len, size } => write!(
                f,
                "address range {addr:#x}..{:#x} does not fit below {size:#x}",
                addr.saturating_add(*len as u64)
            ),
            MemError::OutOfMemory { requested, align } => write!(
                f,
                "sim heap exhausted: cannot allocate {requested} bytes (align {align})"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// The per-instruction trace callback installed via
/// [`Machine::set_trace`].
pub type TraceSink = Box<dyn FnMut(&TraceRecord) + Send>;

/// A machine word: the width of an ISA's registers and addresses.
pub trait Word: Copy + fmt::LowerHex + Into<u64> {
    /// The low bits of `v`.
    fn wrap(v: u64) -> Self;
}

impl Word for u32 {
    fn wrap(v: u64) -> u32 {
        v as u32
    }
}

impl Word for u64 {
    fn wrap(v: u64) -> u64 {
        v
    }
}

/// What one ISA adds to the shared [`Machine`]: the implementing type is
/// its register file; `step` is its instruction semantics; the argument
/// and result registers are its calling convention.
pub trait Isa: Default + Sized {
    /// Register and address width.
    type Word: Word;
    /// Backend name carried by every trap the machine raises.
    const NAME: &'static str;
    /// Address the first code image is loaded at.
    const CODE_BASE: u64;
    /// Alignment of every loaded code image.
    const CODE_ALIGN: usize;
    /// Smallest memory a machine may be created with.
    const MIN_MEM: usize;
    /// Distance from the top of memory to the initial stack pointer.
    const STACK_GAP: usize;
    /// The `nop` of a branch delay slot, or `None` for an ISA without
    /// delay slots. A taken transfer whose slot holds anything else
    /// counts as a filled slot.
    const DELAY_SLOT_NOP: Option<u32>;

    /// Executes `word` at `pc`, where `npc` is the address that executes
    /// next (the delay slot, or `pc + 4`). Returns the address that
    /// executes after `npc` on a delay-slot ISA, after `pc` otherwise.
    ///
    /// # Errors
    ///
    /// Any trap the instruction raises.
    fn step(m: &mut Machine<Self>, pc: u64, word: u32, npc: u64) -> Result<u64, Trap>;

    /// Runs the runtime routine the ISA keeps at `pc` outside the loaded
    /// code, returning the address it returns to; `None` (a `BadPc`
    /// trap) if there is none.
    fn runtime_call(_m: &mut Machine<Self>, _pc: u64) -> Option<u64> {
        None
    }

    /// Points the return address at [`HALT`] and the stack pointer at
    /// `sp`, before a run.
    fn enter(&mut self, sp: u64);

    /// The integer argument registers, in order.
    fn int_args(&mut self) -> &mut [Self::Word];

    /// The integer result register.
    fn int_result(&self) -> Self::Word;

    /// Places double arguments in their registers.
    ///
    /// # Panics
    ///
    /// If `args` outnumber the double argument registers.
    fn f64_args(&mut self, args: &[f64]);

    /// The double result register.
    fn f64_result(&self) -> f64;

    /// The 32 integer registers as the executing instruction names them
    /// (trace deltas compare two of these).
    fn reg_view(&self) -> [u64; 32];

    /// Disassembles one instruction word.
    fn disasm(word: u32) -> String;
}

/// A simulated machine: one ISA's registers inside the shared memory
/// image, counters, cache and trace.
///
/// Layout: code images append from [`Isa::CODE_BASE`] up to half of
/// memory, where the heap ([`alloc`](Self::alloc)) begins; the heap
/// stops 64 KiB short of the top, where the stack grows down from
/// [`Isa::STACK_GAP`] below the end.
pub struct Machine<I: Isa> {
    /// The ISA's registers.
    pub cpu: I,
    /// Optional data-cache model: every guest load and store runs
    /// through it, and its totals fold into [`stats`](Self::stats).
    pub dcache: Option<Cache>,
    mem: Vec<u8>,
    code_end: u64,
    data_brk: u64,
    /// Live counters; cache and cycle fields are merged in by `stats`.
    stats: ExecStats,
    trace: Option<TraceSink>,
}

impl<I: Isa> fmt::Debug for Machine<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("isa", &I::NAME)
            .field("mem_bytes", &self.mem.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<I: Isa> Machine<I> {
    /// Creates a machine with `mem_size` bytes of memory (a power of two
    /// is recommended).
    ///
    /// # Panics
    ///
    /// If `mem_size` is below [`Isa::MIN_MEM`] or past the ISA's address
    /// space.
    pub fn new(mem_size: usize) -> Self {
        let top = (mem_size as u64).saturating_sub(1);
        assert!(mem_size >= I::MIN_MEM && I::Word::wrap(top).into() == top);
        Machine {
            cpu: I::default(),
            dcache: None,
            mem: vec![0; mem_size],
            code_end: I::CODE_BASE,
            data_brk: (mem_size / 2) as u64,
            stats: ExecStats::default(),
            trace: None,
        }
    }

    /// Loads machine code, returning its entry address. Loads append,
    /// so generated functions can call one another by absolute address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] when the image would reach the heap at
    /// half of memory.
    pub fn load_code(&mut self, code: &[u8]) -> Result<I::Word, MemError> {
        let at = (self.code_end as usize).next_multiple_of(I::CODE_ALIGN);
        let heap = self.mem.len() / 2;
        let end =
            at.checked_add(code.len())
                .filter(|&e| e <= heap)
                .ok_or(MemError::OutOfRange {
                    addr: at as u64,
                    len: code.len(),
                    size: heap,
                })?;
        self.mem[at..end].copy_from_slice(code);
        self.code_end = end as u64;
        Ok(I::Word::wrap(at as u64))
    }

    /// Allocates `size` bytes of simulated data memory.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the request exhausts (or
    /// arithmetically overflows) the simulated heap; 64 KiB are always
    /// kept in reserve for the stack.
    pub fn alloc(&mut self, size: usize, align: usize) -> Result<I::Word, MemError> {
        let align = align.max(1);
        let enomem = MemError::OutOfMemory {
            requested: size,
            align,
        };
        let at = (self.data_brk as usize)
            .checked_next_multiple_of(align)
            .ok_or(enomem)?;
        let brk = at
            .checked_add(size)
            .filter(|&b| b < self.mem.len().saturating_sub(STACK_RESERVE))
            .ok_or(enomem)?;
        self.data_brk = brk as u64;
        Ok(I::Word::wrap(at as u64))
    }

    /// Copies bytes into simulated memory.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] when the range falls outside memory.
    pub fn write(&mut self, addr: I::Word, data: &[u8]) -> Result<(), MemError> {
        let r = self.host_range(addr.into(), data.len())?;
        self.mem[r].copy_from_slice(data);
        Ok(())
    }

    /// Reads bytes back out of simulated memory.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] when the range falls outside memory.
    pub fn read(&self, addr: I::Word, len: usize) -> Result<&[u8], MemError> {
        Ok(&self.mem[self.host_range(addr.into(), len)?])
    }

    fn host_range(&self, addr: u64, len: usize) -> Result<Range<usize>, MemError> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| Some(a..a.checked_add(len)?))
            .filter(|r| r.end <= self.mem.len())
            .ok_or(MemError::OutOfRange {
                addr,
                len,
                size: self.mem.len(),
            })
    }

    /// The execution counters: live instruction/branch/trap tallies
    /// merged with the attached data cache's hit/miss/stall totals;
    /// `cycles` = instructions retired + cache stalls.
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats;
        if let Some(c) = &self.dcache {
            s.cache_hits = c.hits;
            s.cache_misses = c.misses;
            s.cache_stall_cycles = c.stall_cycles();
        }
        s.cycles = s.insns_retired + s.cache_stall_cycles;
        s
    }

    /// Total cycles under the simple model: one per instruction retired
    /// plus data-cache stalls.
    pub fn cycles(&self) -> u64 {
        self.stats().cycles
    }

    /// Resets every execution counter (and the cache counters, keeping
    /// cache contents) — for measuring a region rather than a lifetime.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        if let Some(c) = &mut self.dcache {
            c.hits = 0;
            c.misses = 0;
        }
    }

    /// Installs a per-instruction trace callback (the opt-in §6.2
    /// debugger stand-in): each executed instruction is streamed as its
    /// disassembly plus the first register delta it caused. Costs
    /// nothing when unset.
    pub fn set_trace(&mut self, f: impl FnMut(&TraceRecord) + Send + 'static) {
        self.trace = Some(Box::new(f));
    }

    /// Removes the trace callback.
    pub fn clear_trace(&mut self) {
        self.trace = None;
    }

    /// Calls the function at `entry` with integer arguments in the ISA's
    /// argument registers, returning its integer result.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    ///
    /// # Panics
    ///
    /// If `args` outnumber the argument registers.
    pub fn call(
        &mut self,
        entry: I::Word,
        args: &[I::Word],
        max_steps: u64,
    ) -> Result<I::Word, Trap> {
        let regs = self.cpu.int_args();
        assert!(args.len() <= regs.len(), "too many arguments");
        regs[..args.len()].copy_from_slice(args);
        self.run(entry, max_steps)?;
        Ok(self.cpu.int_result())
    }

    /// [`call`](Self::call) under the `i32` convention of the engine's
    /// `Ty::I` operations: arguments travel sign-extended to the word,
    /// and the result is its low 32 bits, sign-extended.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub fn call_i32(&mut self, entry: I::Word, args: &[i32], max_steps: u64) -> Result<i64, Trap> {
        let args: Vec<I::Word> = args
            .iter()
            .map(|&v| I::Word::wrap(i64::from(v) as u64))
            .collect();
        let r = self.call(entry, &args, max_steps)?;
        Ok(i64::from(r.into() as u32 as i32))
    }

    /// Calls with double arguments in the ISA's float argument
    /// registers, returning the double result.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub fn call_f64(&mut self, entry: I::Word, args: &[f64], max_steps: u64) -> Result<f64, Trap> {
        self.cpu.f64_args(args);
        self.run(entry, max_steps)?;
        Ok(self.cpu.f64_result())
    }

    /// Runs from `entry` until control returns to [`HALT`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution (also tallied in
    /// [`stats`](Self::stats)).
    pub fn run(&mut self, entry: I::Word, max_steps: u64) -> Result<(), Trap> {
        let mut tracer = self.trace.take();
        let r = self.run_loop(entry.into(), max_steps, tracer.as_mut());
        self.trace = tracer;
        if let Err(t) = &r {
            self.stats.traps.record(t.kind);
        }
        r
    }

    fn run_loop(
        &mut self,
        entry: u64,
        max_steps: u64,
        mut tracer: Option<&mut TraceSink>,
    ) -> Result<(), Trap> {
        self.cpu.enter((self.mem.len() - I::STACK_GAP) as u64);
        let mut pc = entry;
        let mut npc = entry.wrapping_add(4);
        let mut steps = 0u64;
        let mut in_taken_slot = false;
        while pc != HALT {
            if steps >= max_steps {
                return Err(Trap::new(TrapKind::FuelExhausted, I::NAME));
            }
            steps += 1;
            if pc < I::CODE_BASE || pc >= self.code_end || pc & 3 != 0 {
                let ret =
                    I::runtime_call(self, pc).ok_or_else(|| Self::trap(TrapKind::BadPc, pc))?;
                pc = ret;
                npc = ret.wrapping_add(4);
                continue;
            }
            let word =
                u32::from_le_bytes(self.mem[pc as usize..pc as usize + 4].try_into().unwrap());
            // A non-nop executing in the slot of a taken transfer is a
            // filled delay slot (the §5.3 scheduling payoff).
            if in_taken_slot && I::DELAY_SLOT_NOP != Some(word) {
                self.stats.delay_slot_fills += 1;
            }
            let before = tracer.as_ref().map(|_| self.cpu.reg_view());
            let next = I::step(self, pc, word, npc)?;
            if let (Some(t), Some(before)) = (tracer.as_mut(), before) {
                let delta = before
                    .into_iter()
                    .zip(self.cpu.reg_view())
                    .enumerate()
                    .find(|(_, (o, n))| o != n)
                    .map(|(i, (o, n))| (i as u8, o, n));
                t(&TraceRecord {
                    pc,
                    disasm: I::disasm(word),
                    delta,
                });
            }
            if I::DELAY_SLOT_NOP.is_some() {
                in_taken_slot = next != npc.wrapping_add(4);
                pc = npc;
                npc = next;
            } else {
                pc = next;
                npc = next.wrapping_add(4);
            }
        }
        Ok(())
    }

    /// Disassembles a code buffer, one line per word.
    pub fn disasm_all(code: &[u8]) -> String {
        code.chunks_exact(4)
            .enumerate()
            .map(|(i, w)| {
                let word = u32::from_le_bytes(w.try_into().unwrap());
                format!("{:4x}:  {}\n", i * 4, I::disasm(word))
            })
            .collect()
    }

    /// A trap of `kind` at `addr`, raised by this ISA.
    #[cold]
    fn trap(kind: TrapKind, addr: u64) -> Trap {
        Trap::at(kind, addr, I::NAME)
    }

    /// Runs a guest access of `len` bytes at `addr` through the data
    /// cache, when one is attached.
    fn touch(&mut self, addr: I::Word, len: u64) {
        if let Some(c) = &mut self.dcache {
            c.access_span(addr.into(), len);
        }
    }

    /// An aligned little-endian guest load of `N` bytes.
    fn load<const N: usize>(&self, addr: I::Word) -> Result<[u8; N], Trap> {
        let addr = addr.into();
        if addr & (N as u64 - 1) != 0 {
            return Err(Self::trap(TrapKind::Unaligned, addr));
        }
        self.guest_range(addr, N)
            .map(|r| self.mem[r].try_into().unwrap())
            .ok_or_else(|| Self::trap(TrapKind::BadAccess, addr))
    }

    /// An aligned little-endian guest store of `N` bytes.
    fn store<const N: usize>(&mut self, addr: I::Word, bytes: [u8; N]) -> Result<(), Trap> {
        let addr = addr.into();
        if addr & (N as u64 - 1) != 0 {
            return Err(Self::trap(TrapKind::Unaligned, addr));
        }
        let r = self
            .guest_range(addr, N)
            .ok_or_else(|| Self::trap(TrapKind::BadAccess, addr))?;
        self.mem[r].copy_from_slice(&bytes);
        Ok(())
    }

    fn guest_range(&self, addr: u64, len: usize) -> Option<Range<usize>> {
        let a = usize::try_from(addr).ok()?;
        Some(a..a.checked_add(len)?).filter(|r| r.end <= self.mem.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_fills_up_to_the_heap_and_no_further() {
        let mut m = mips::Machine::new(1 << 20);
        let room = (1 << 19) - 0x1000;
        assert_eq!(
            m.load_code(&vec![0u8; room + 1]),
            Err(MemError::OutOfRange {
                addr: 0x1000,
                len: room + 1,
                size: 1 << 19
            })
        );
        assert_eq!(m.load_code(&vec![0u8; room]), Ok(0x1000));
        assert_eq!(
            m.alloc(8, 8),
            Ok(1 << 19),
            "the heap starts where code ends"
        );
    }

    #[test]
    fn the_smallest_machine_still_holds_code() {
        fn check<I: Isa>() {
            let mut m = Machine::<I>::new(I::MIN_MEM);
            assert_eq!(m.load_code(&[0; 4]).map(Into::into), Ok(I::CODE_BASE));
        }
        check::<mips::Cpu>();
        check::<sparc::Cpu>();
        check::<alpha::Cpu>();
    }

    #[test]
    fn guest_accesses_trap_on_alignment_then_bounds() {
        let m = alpha::Machine::new(1 << 20);
        let t = m.load::<8>(4).unwrap_err();
        assert_eq!(
            (t.kind, t.addr, t.backend),
            (TrapKind::Unaligned, Some(4), "alpha")
        );
        let t = m.load::<8>(u64::MAX - 7).unwrap_err();
        assert_eq!((t.kind, t.addr), (TrapKind::BadAccess, Some(u64::MAX - 7)));
        assert_eq!(m.load::<1>((1 << 20) - 1), Ok([0]));
    }
}
