//! # harden — deterministic fault-injection machinery
//!
//! Dynamic code generation fails in ugly ways: a bitflip in emitted
//! code executes garbage, storage exhaustion truncates an instruction
//! mid-encoding, a malformed packet walks a classifier off the end of
//! the message. The harness in `tests/faults.rs` injects exactly those
//! faults — deterministically, from seeded PRNG streams — and requires
//! every one to surface as a *typed* outcome ([`vcode::Trap`],
//! [`vcode::Error`], or an engine's own error enum): never a panic, a
//! hang, or a silently wrong answer on an unfaulted path.
//!
//! This library holds the reusable machinery (bit flips, capacity
//! series, outcome tallies, refused executable memory) so other crates'
//! tests can inject the same faults.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use vcode::regress::XorShift;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine programs over the regression corpus' operand values
/// ([`vcode::regress`]): every binary op in register and immediate
/// form, every unary op, and every condition as a register branch and an
/// immediate branch inside a counted loop — the images an engine stores
/// through to its L2, for tests that need real code on all four
/// backends.
pub fn regress_programs() -> Vec<vcode::engine::Program> {
    use vcode::engine::Program;
    use vcode::{regress, BinOp, Cond, Ty, UnOp};
    let mut out = Vec::new();
    let new = |args| Program::new(args).expect("at most four arguments");
    let cases = regress::binop_cases(32, 1, 0x7ed0);
    for c in cases.iter().filter(|c| c.ty == Ty::I) {
        let mut p = new(2);
        p.bin(c.op, 2, 0, 1);
        if !matches!(c.op, BinOp::Div | BinOp::Mod) || c.b as i32 != 0 {
            p.bin_imm(c.op, 2, 2, c.b as i32);
        }
        p.ret(2);
        out.push(p);
    }
    for c in regress::unop_cases(32).iter().filter(|c| c.ty == Ty::I) {
        let mut p = new(1);
        p.un(c.op, 1, 0);
        p.un(UnOp::Mov, 2, 1);
        p.ret(2);
        out.push(p);
    }
    for c in regress::branch_cases(32).iter().filter(|c| c.ty == Ty::I) {
        let mut p = new(2);
        let (top, taken, join) = (p.genlabel(), p.genlabel(), p.genlabel());
        p.set(2, 3);
        p.label(top);
        p.br(c.cond, 0, 1, taken);
        p.br_imm(c.cond, 0, c.b as i32, taken);
        p.bin_imm(BinOp::Sub, 2, 2, 1);
        p.br_imm(Cond::Gt, 2, 0, top);
        p.jmp(join);
        p.label(taken);
        p.set(2, 1);
        p.label(join);
        p.ret(2);
        out.push(p);
    }
    out
}

/// A terminating two-argument engine program of 16 to 256 instructions
/// in the shape of the benchmark's generator (`benchmark/src/gen.rs`,
/// which stays independent of the product and draws from its own PRNG):
/// constants, the six ALU ops in register and small/large-immediate
/// form, immediate divisions and shifts, every unary op, forward
/// branches on every condition and counted loops. The interpreter and
/// all four backends agree on every instruction (divisors are
/// immediates >= 2, shift counts below 32, only written registers are
/// read). `serial` is planted in the first instruction, so no two
/// programs of one stream share a cache key.
pub fn seeded_program(rng: &mut XorShift, serial: u32) -> vcode::engine::Program {
    use vcode::{BinOp, Cond, UnOp};
    /// v0/v1 are the arguments, v2..=v6 temporaries, v7 the loop
    /// counter, which ordinary instructions never touch.
    const TEMPS: u64 = 7;
    const COUNTER: u8 = 7;
    const ALU: [BinOp; 6] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    const UN: [UnOp; 4] = [UnOp::Com, UnOp::Not, UnOp::Mov, UnOp::Neg];
    const CONDS: [Cond; 6] = [Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge, Cond::Eq, Cond::Ne];
    struct Body<'a> {
        p: vcode::engine::Program,
        rng: &'a mut XorShift,
        /// Registers already written: the only ones read.
        init: Vec<u8>,
    }
    impl Body<'_> {
        fn src(&mut self) -> u8 {
            self.init[self.rng.below(self.init.len() as u64) as usize]
        }
        /// A destination; inside a skipped region or a loop (`fresh`
        /// false) only an already-defined one, so every path leaves the
        /// same set defined.
        fn dst(&mut self, fresh: bool) -> u8 {
            if !fresh {
                return self.src();
            }
            let d = self.rng.below(TEMPS) as u8;
            if !self.init.contains(&d) {
                self.init.push(d);
            }
            d
        }
        fn simple(&mut self, fresh: bool) {
            let kind = self.rng.below(40);
            if kind <= 3 {
                let d = self.dst(fresh);
                let imm = self.rng.next_u64() as i32;
                return self.p.set(d, imm);
            }
            if kind <= 15 {
                let op = ALU[self.rng.below(6) as usize];
                let (a, b) = (self.src(), self.src());
                let d = self.dst(fresh);
                return self.p.bin(op, d, a, b);
            }
            if kind >= 34 {
                let op = UN[self.rng.below(4) as usize];
                let a = self.src();
                let d = self.dst(fresh);
                return self.p.un(op, d, a);
            }
            let (op, imm) = match kind {
                // Half small immediates, half ones that need the
                // backends' large-constant synthesis.
                16..=26 => {
                    let op = ALU[self.rng.below(6) as usize];
                    if self.rng.next_bool() {
                        (op, self.rng.below(2001) as i32 - 1000)
                    } else {
                        (op, self.rng.next_u64() as i32)
                    }
                }
                27 if self.rng.next_bool() => (BinOp::Div, self.rng.range(2, 501) as i32),
                27 => (BinOp::Mod, self.rng.range(2, 501) as i32),
                _ if self.rng.next_bool() => (BinOp::Lsh, self.rng.below(32) as i32),
                _ => (BinOp::Rsh, self.rng.below(32) as i32),
            };
            let a = self.src();
            let d = self.dst(fresh);
            self.p.bin_imm(op, d, a, imm);
        }
    }
    let mut b = Body {
        p: vcode::engine::Program::new(2).expect("two arguments"),
        rng,
        init: vec![0, 1, 2],
    };
    b.p.set(2, serial as i32);
    let target = b.rng.range(16, 257) as usize;
    // Leave room for the longest construct (a loop: 10) and the `ret`.
    while b.p.len() + 11 < target {
        match b.rng.below(12) {
            // A counted loop: two to eight trips over two to six
            // instructions.
            0 => {
                let top = b.p.genlabel();
                let trips = b.rng.range(2, 9) as i32;
                b.p.set(COUNTER, trips);
                b.p.label(top);
                for _ in 0..b.rng.range(2, 7) {
                    b.simple(false);
                }
                b.p.bin_imm(BinOp::Sub, COUNTER, COUNTER, 1);
                b.p.br_imm(Cond::Gt, COUNTER, 0, top);
            }
            // A forward branch over one to three instructions.
            1 | 2 => {
                let over = b.p.genlabel();
                let cond = CONDS[b.rng.below(6) as usize];
                let a = b.src();
                if b.rng.next_bool() {
                    let other = b.src();
                    b.p.br(cond, a, other, over);
                } else {
                    let imm = b.rng.below(201) as i32 - 100;
                    b.p.br_imm(cond, a, imm, over);
                }
                for _ in 0..b.rng.range(1, 4) {
                    b.simple(false);
                }
                b.p.label(over);
            }
            _ => b.simple(true),
        }
    }
    while b.p.len() + 1 < target {
        b.simple(true);
    }
    let r = b.src();
    b.p.ret(r);
    b.p
}

/// One injected behavior for a background build attempt (the compile
/// service's fault corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildFault {
    /// The build succeeds normally.
    Succeed,
    /// The builder returns a typed error (drives quarantine).
    Fail,
    /// The builder panics; the service must catch it, vacate the slot
    /// and quarantine the key.
    Panic,
    /// The builder sleeps this many milliseconds before succeeding
    /// (drives deadline overruns when it exceeds the service deadline).
    SleepMs(u64),
}

/// A deterministic per-attempt fault schedule for background builders.
///
/// Attempt `k` executes `plan[k]`; attempts past the end repeat the last
/// entry (so `[Fail, Fail, Succeed]` means "recover on the third try").
/// The attempt counter is shared, letting tests assert exactly how often
/// the service ran the builder — quarantine backoff is precisely the
/// claim that it runs *less* often than it is asked.
#[derive(Debug)]
pub struct FaultPlan {
    plan: Vec<BuildFault>,
    attempts: AtomicUsize,
}

impl FaultPlan {
    /// A shared schedule; empty plans behave as `[Succeed]`.
    pub fn new(plan: Vec<BuildFault>) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            plan,
            attempts: AtomicUsize::new(0),
        })
    }

    /// Builder attempts executed so far.
    pub fn attempts(&self) -> usize {
        self.attempts.load(Ordering::SeqCst)
    }

    /// Executes the next scheduled attempt, producing `value` on
    /// success. Intended to be the body of a service builder closure.
    ///
    /// # Errors
    ///
    /// An injected error message on [`BuildFault::Fail`] attempts.
    ///
    /// # Panics
    ///
    /// Panics (by design) on [`BuildFault::Panic`] attempts.
    pub fn run(&self, value: u64) -> Result<Arc<u64>, String> {
        let k = self.attempts.fetch_add(1, Ordering::SeqCst);
        let fault = self
            .plan
            .get(k)
            .or(self.plan.last())
            .copied()
            .unwrap_or(BuildFault::Succeed);
        match fault {
            BuildFault::Succeed => Ok(Arc::new(value)),
            BuildFault::Fail => Err(format!("injected failure on attempt {k}")),
            BuildFault::Panic => panic!("injected panic on attempt {k}"),
            BuildFault::SleepMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Arc::new(value))
            }
        }
    }
}

/// Flips one bit of `code` (bit index taken modulo the buffer's bit
/// count).
///
/// # Panics
///
/// Panics if `code` is empty.
pub fn flip_bit(code: &mut [u8], bit: usize) {
    assert!(!code.is_empty(), "cannot flip bits of empty code");
    let bit = bit % (code.len() * 8);
    code[bit / 8] ^= 1 << (bit % 8);
}

/// Draws `count` deterministic bit positions below `nbits` from `rng`.
/// Positions may repeat across draws but the sequence is fixed by the
/// seed, so every run injects the identical fault set.
pub fn bit_positions(rng: &mut XorShift, nbits: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|_| rng.below(nbits as u64) as usize)
        .collect()
}

/// The standard storage-exhaustion series: code-buffer capacities from
/// hopeless (0 bytes) through cramped to comfortable. Every generator
/// must produce a typed result at each point — the small end of this
/// series is what exposed the overflow-path panics this crate exists to
/// prevent.
pub fn capacity_series() -> Vec<usize> {
    vec![
        0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048,
        4096,
    ]
}

// The two libc calls `with_no_new_exec_memory` needs (std links libc;
// the workspace has no `libc` crate to name them through).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}
const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Runs `f` with the process unable to grow any file — which is how
/// executable memory is obtained (`memfd_create` + `ftruncate`), so
/// every fresh `ExecMem` request inside `f` fails with `EFBIG` while
/// reads, the heap and already-mapped code are untouched. The pool is
/// drained first (parked regions would satisfy a request without a
/// syscall), and the limit is restored when `f` returns or unwinds.
///
/// The limit is process-wide, and refuses every write that grows a file
/// — a test harness's output too, when it goes to one: call this from
/// the only test of its binary.
///
/// # Panics
///
/// Panics if the limit cannot be read or set.
pub fn with_no_new_exec_memory<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(RLimit);
    impl Drop for Restore {
        fn drop(&mut self) {
            // SAFETY: restores the limits read below. Raising the soft
            // limit back to its old value, under the unchanged hard
            // one, cannot fail.
            unsafe { setrlimit(RLIMIT_FSIZE, &self.0) };
        }
    }
    let mut old = RLimit { cur: 0, max: 0 };
    // SAFETY: `old` is a valid, writable `struct rlimit` (two 64-bit
    // words on x86-64 Linux); ignoring SIGXFSZ — sent on the refused
    // `ftruncate` — installs no handler code at all.
    unsafe {
        signal(SIGXFSZ, SIG_IGN);
        assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0);
    }
    let none = RLimit {
        cur: 0,
        max: old.max,
    };
    // SAFETY: `none` is a valid `struct rlimit`; only the soft limit is
    // lowered, so it can be raised back.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &none) }, 0);
    let _restore = Restore(old);
    vcode_x64::drain_pool();
    f()
}

/// Counts fault-case outcomes. Every recorded case by construction
/// neither panicked nor hung; the tally splits them into "ran to
/// completion" and "surfaced a typed error".
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Cases that ran to completion (the fault was benign).
    pub completed: usize,
    /// Cases that surfaced a typed error.
    pub trapped: usize,
}

impl Tally {
    /// A fresh tally.
    pub fn new() -> Tally {
        Tally::default()
    }

    /// Records one case outcome: `Ok` completed, `Err` trapped.
    pub fn record<T, E>(&mut self, outcome: &Result<T, E>) {
        match outcome {
            Ok(_) => self.completed += 1,
            Err(_) => self.trapped += 1,
        }
    }

    /// Total cases recorded.
    pub fn total(&self) -> usize {
        self.completed + self.trapped
    }

    /// Asserts the tally covered at least `min` cases and that at least
    /// one fault actually bit (a harness whose faults are all benign is
    /// not injecting anything).
    ///
    /// # Panics
    ///
    /// Panics when either condition fails.
    pub fn assert_covered(&self, min: usize) {
        assert!(
            self.total() >= min,
            "only {} fault cases ran, wanted at least {min}",
            self.total()
        );
        assert!(self.trapped > 0, "no injected fault surfaced an error");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_bit_round_trips() {
        let mut b = vec![0u8; 4];
        flip_bit(&mut b, 9);
        assert_eq!(b, [0, 2, 0, 0]);
        flip_bit(&mut b, 9);
        assert_eq!(b, [0; 4]);
        flip_bit(&mut b, 32); // wraps to bit 0
        assert_eq!(b, [1, 0, 0, 0]);
    }

    #[test]
    fn bit_positions_are_deterministic() {
        let a = bit_positions(&mut XorShift::new(7), 640, 16);
        let b = bit_positions(&mut XorShift::new(7), 640, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p < 640));
    }

    #[test]
    fn tally_counts_and_asserts() {
        let mut t = Tally::new();
        t.record::<u32, ()>(&Ok(1));
        t.record::<u32, ()>(&Err(()));
        t.record::<u32, ()>(&Err(()));
        assert_eq!(t.total(), 3);
        assert_eq!(t.completed, 1);
        assert_eq!(t.trapped, 2);
        t.assert_covered(3);
    }

    #[test]
    #[should_panic(expected = "no injected fault")]
    fn tally_rejects_all_benign() {
        let mut t = Tally::new();
        t.record::<u32, ()>(&Ok(1));
        t.assert_covered(1);
    }
}
