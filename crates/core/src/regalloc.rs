//! The VCODE register allocator (paper §3.2, §5.3).
//!
//! VCODE includes a mechanism for clients to perform register allocation in
//! a machine-independent way: register candidates carry an allocation
//! priority ordering and a class (*temporary* or *persistent* across
//! procedure calls). Allocation walks the ordering; once the machine's
//! registers are exhausted the allocator returns `None` and clients keep
//! variables on the stack.
//!
//! Although its scope is limited, the allocator "does its job well": it
//! makes unused argument registers available, is intelligent about leaf
//! procedures (caller-saved registers can hold persistent values when no
//! call can clobber them), and lets callee-saved registers stand in for
//! caller-saved ones and vice versa. Clients may also dynamically
//! reclassify any physical register per generated function — e.g. an
//! interrupt handler treats every register as callee-saved (paper §5.3).

use crate::reg::{Bank, Reg, RegClass, RegDesc, RegFile, RegKind};

#[derive(Debug, Clone, Copy)]
struct Candidate {
    reg: Reg,
    kind: RegKind,
    free: bool,
}

/// Upper bound on register candidates per bank. No target lists more
/// than 25 allocatable registers per bank; the ceiling lets the
/// candidate lists live inline in the allocator (and therefore in every
/// `Asm`), so building one per generated function allocates nothing.
const MAX_CANDS: usize = 32;

/// A fixed-capacity, inline candidate priority list.
#[derive(Debug, Clone, Copy)]
struct CandList {
    cands: [Candidate; MAX_CANDS],
    len: usize,
}

impl CandList {
    fn new(descs: &[RegDesc]) -> CandList {
        debug_assert!(
            descs.len() <= MAX_CANDS,
            "register file bank exceeds {MAX_CANDS} candidates"
        );
        let mut list = CandList {
            cands: [Candidate {
                reg: Reg::int(0),
                kind: RegKind::Reserved,
                free: false,
            }; MAX_CANDS],
            len: descs.len().min(MAX_CANDS),
        };
        for (c, d) in list.cands.iter_mut().zip(descs) {
            *c = Candidate {
                reg: d.reg,
                kind: d.kind,
                free: !matches!(d.kind, RegKind::Reserved),
            };
        }
        list
    }

    fn as_slice(&self) -> &[Candidate] {
        &self.cands[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [Candidate] {
        &mut self.cands[..self.len]
    }
}

/// Per-function register allocation state.
#[derive(Debug)]
pub struct RegAlloc {
    int: CandList,
    flt: CandList,
    leaf: bool,
    callee_used_int: u64,
    callee_used_flt: u64,
    spills: u64,
}

impl RegAlloc {
    /// Builds allocation state from a target's register file. The
    /// backend's `begin` marks the registers holding incoming arguments
    /// with [`take`](Self::take); the rest — including unused argument
    /// registers (paper §3.2) — start out free.
    pub fn new(rf: &RegFile, leaf: bool) -> RegAlloc {
        RegAlloc {
            int: CandList::new(rf.int),
            flt: CandList::new(rf.flt),
            leaf,
            callee_used_int: 0,
            callee_used_flt: 0,
            spills: 0,
        }
    }

    fn bank_mut(&mut self, bank: Bank) -> &mut [Candidate] {
        match bank {
            Bank::Int => self.int.as_mut_slice(),
            Bank::Flt => self.flt.as_mut_slice(),
        }
    }

    fn bank(&self, bank: Bank) -> &[Candidate] {
        match bank {
            Bank::Int => self.int.as_slice(),
            Bank::Flt => self.flt.as_slice(),
        }
    }

    /// Allocates a register of the requested class from `bank`, or `None`
    /// when candidates are exhausted (the paper's error return; clients
    /// then fall back to stack slots).
    ///
    /// For [`RegClass::Temp`], caller-saved and unused-argument registers
    /// are preferred and callee-saved registers stand in when those run
    /// out. For [`RegClass::Persistent`], callee-saved registers are used;
    /// in leaf procedures caller-saved registers stand in (nothing can
    /// clobber them).
    pub fn getreg(&mut self, bank: Bank, class: RegClass) -> Option<Reg> {
        // Two passes: preferred kinds first, then stand-ins (paper: the
        // allocator "generates code to allow caller-saved registers to
        // stand in for callee-saved registers and vice-versa").
        for stand_in in [false, true] {
            let leaf = self.leaf;
            let found = self
                .bank_mut(bank)
                .iter_mut()
                .find(|c| c.free && kind_matches(c.kind, class, stand_in, leaf));
            if let Some(c) = found {
                c.free = false;
                let reg = c.reg;
                if matches!(c.kind, RegKind::CalleeSaved) {
                    self.note_callee_used(reg);
                }
                return Some(reg);
            }
        }
        self.spills += 1;
        None
    }

    /// Returns `reg` to the free pool.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the register was not allocated (double
    /// free), a client bug.
    pub fn putreg(&mut self, reg: Reg) {
        if let Some(c) = self.bank_mut(reg.bank()).iter_mut().find(|c| c.reg == reg) {
            debug_assert!(!c.free, "putreg of free register {reg}");
            c.free = true;
        }
    }

    /// Returns `reg` to the free pool without the debug double-free
    /// assertion of [`putreg`](Self::putreg), reporting whether the
    /// register was actually allocated. The streaming verifier uses this
    /// so a double free becomes a collected diagnostic.
    pub fn try_putreg(&mut self, reg: Reg) -> bool {
        if let Some(c) = self.bank_mut(reg.bank()).iter_mut().find(|c| c.reg == reg) {
            if c.free {
                return false;
            }
            c.free = true;
            return true;
        }
        false
    }

    /// Marks `reg` in use without allocating (used by `lambda` for
    /// incoming argument registers, and by clients that target specific
    /// registers directly).
    pub fn take(&mut self, reg: Reg) {
        if let Some(c) = self.bank_mut(reg.bank()).iter_mut().find(|c| c.reg == reg) {
            c.free = false;
            if matches!(c.kind, RegKind::CalleeSaved) {
                self.note_callee_used(reg);
            }
        }
    }

    /// Dynamically reclassifies a physical register for this function
    /// (paper §5.3). `RegKind::Reserved` removes it from allocation
    /// entirely.
    pub fn set_kind(&mut self, reg: Reg, kind: RegKind) {
        if let Some(c) = self.bank_mut(reg.bank()).iter_mut().find(|c| c.reg == reg) {
            c.kind = kind;
            if matches!(kind, RegKind::Reserved) {
                c.free = false;
            }
        }
    }

    /// Reorders the allocation priority of `bank` so that the given
    /// registers are considered first, in the given order (paper §3.2:
    /// "the client declares an allocation priority ordering").
    pub fn set_priority(&mut self, bank: Bank, order: &[Reg]) {
        let cands = self.bank_mut(bank);
        // Stable in-place reorder: rotate each named register to the front
        // of the not-yet-placed region, preserving the relative order of
        // everything else.
        let mut front = 0;
        for &r in order {
            if let Some(i) = cands[front..].iter().position(|c| c.reg == r) {
                cands[front..=front + i].rotate_right(1);
                front += 1;
            }
        }
    }

    fn note_callee_used(&mut self, reg: Reg) {
        let bit = 1u64 << reg.num();
        match reg.bank() {
            Bank::Int => self.callee_used_int |= bit,
            Bank::Flt => self.callee_used_flt |= bit,
        }
    }

    /// Bitmask (by register number) of callee-saved registers handed out,
    /// which the backend must save in the patched prologue (paper §5.2).
    pub fn callee_used(&self, bank: Bank) -> u64 {
        match bank {
            Bank::Int => self.callee_used_int,
            Bank::Flt => self.callee_used_flt,
        }
    }

    /// Whether `reg` is one of this function's register candidates.
    /// Reclassification APIs use this to reject registers outside the
    /// target register file with a typed error.
    pub fn contains(&self, reg: Reg) -> bool {
        self.bank(reg.bank()).iter().any(|c| c.reg == reg)
    }

    /// Number of currently free candidates in `bank` (diagnostics).
    pub fn free_count(&self, bank: Bank) -> usize {
        self.bank(bank).iter().filter(|c| c.free).count()
    }

    /// Whether this allocation state belongs to a leaf procedure.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of exhausted allocations (`getreg` returning `None`): each
    /// is a client fallback to stack storage — the paper's spill. Reported
    /// through [`CodegenEvent::LambdaEnd`](crate::obs::CodegenEvent).
    pub fn spill_count(&self) -> u64 {
        self.spills
    }
}

fn kind_matches(kind: RegKind, class: RegClass, stand_in: bool, leaf: bool) -> bool {
    match (class, kind) {
        (_, RegKind::Reserved) => false,
        (RegClass::Temp, RegKind::CallerSaved | RegKind::Arg(_)) => !stand_in,
        (RegClass::Temp, RegKind::CalleeSaved) => stand_in,
        (RegClass::Persistent, RegKind::CalleeSaved) => !stand_in,
        // In a leaf procedure nothing clobbers caller-saved registers, so
        // they may hold persistent values (paper: "intelligent about leaf
        // procedures").
        (RegClass::Persistent, RegKind::CallerSaved | RegKind::Arg(_)) => stand_in && leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_file() -> RegFile {
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
                reg: Reg::int(5),
                kind: RegKind::Arg(1),
                name: "a1",
            },
            RegDesc {
                reg: Reg::int(16),
                kind: RegKind::CalleeSaved,
                name: "s0",
            },
            RegDesc {
                reg: Reg::int(1),
                kind: RegKind::Reserved,
                name: "at",
            },
        ];
        RegFile {
            int: &INT,
            flt: &[],
            hard_temps: &[],
            hard_saved: &[],
            sp: Reg::int(29),
            fp: Reg::int(30),
            zero: Some(Reg::int(0)),
        }
    }

    #[test]
    fn temp_allocation_prefers_caller_saved_then_args_then_callee() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(8)));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(9)));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(4)));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(5)));
        // Callee-saved stands in, and is recorded for the prologue.
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(16)));
        assert_eq!(ra.callee_used(Bank::Int), 1 << 16);
        // Reserved registers are never handed out.
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), None);
    }

    #[test]
    fn in_use_arg_regs_are_not_allocatable() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        ra.take(Reg::int(4));
        ra.take(Reg::int(5));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(8)));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(9)));
        // a0/a1 hold live arguments; next is the callee-saved stand-in.
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(16)));
        // Releasing an argument makes its register available again.
        ra.putreg(Reg::int(4));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(4)));
    }

    #[test]
    fn persistent_uses_callee_saved_and_caller_saved_only_in_leaves() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        assert_eq!(
            ra.getreg(Bank::Int, RegClass::Persistent),
            Some(Reg::int(16))
        );
        // Non-leaf: no more persistent registers.
        assert_eq!(ra.getreg(Bank::Int, RegClass::Persistent), None);

        let mut ra = RegAlloc::new(&rf, true);
        assert_eq!(
            ra.getreg(Bank::Int, RegClass::Persistent),
            Some(Reg::int(16))
        );
        // Leaf: caller-saved registers persist trivially.
        assert_eq!(
            ra.getreg(Bank::Int, RegClass::Persistent),
            Some(Reg::int(8))
        );
    }

    #[test]
    fn putreg_recycles() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        let r = ra.getreg(Bank::Int, RegClass::Temp).unwrap();
        ra.putreg(r);
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(r));
    }

    #[test]
    fn reclassification_changes_behaviour() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        // Interrupt-handler style: all registers must be callee-saved.
        ra.set_kind(Reg::int(8), RegKind::CalleeSaved);
        ra.set_kind(Reg::int(9), RegKind::CalleeSaved);
        let r = ra.getreg(Bank::Int, RegClass::Persistent).unwrap();
        assert_eq!(r, Reg::int(8));
        assert!(ra.callee_used(Bank::Int) & (1 << 8) != 0);
        // Reserving removes a register entirely.
        ra.set_kind(Reg::int(9), RegKind::Reserved);
        assert_eq!(
            ra.getreg(Bank::Int, RegClass::Persistent),
            Some(Reg::int(16))
        );
    }

    #[test]
    fn priority_override() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        ra.set_priority(Bank::Int, &[Reg::int(9), Reg::int(8)]);
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(9)));
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), Some(Reg::int(8)));
    }

    #[test]
    fn spill_count_tracks_exhaustion() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        while ra.getreg(Bank::Int, RegClass::Temp).is_some() {}
        assert_eq!(ra.spill_count(), 1);
        assert_eq!(ra.getreg(Bank::Int, RegClass::Temp), None);
        assert_eq!(ra.getreg(Bank::Flt, RegClass::Temp), None);
        assert_eq!(ra.spill_count(), 3);
    }

    #[test]
    fn take_marks_in_use_and_records_callee_saved() {
        let rf = test_file();
        let mut ra = RegAlloc::new(&rf, false);
        ra.take(Reg::int(16));
        assert_eq!(ra.callee_used(Bank::Int), 1 << 16);
        assert_eq!(ra.getreg(Bank::Int, RegClass::Persistent), None);
    }
}
