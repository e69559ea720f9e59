//! Execution observability.
//!
//! The paper's own evaluation is counter-driven: instructions per
//! generated instruction in Figure 2, cycle and cache ratios in
//! Tables 3–4 — and §6.2 names the missing symbolic debugger VCODE's
//! "most critical drawback". This module is the uniform metrics surface
//! those experiments (and the gap) need:
//!
//! - [`ExecStats`] — a shared per-execution counter block every engine
//!   exposes via a `stats()` accessor: the three ISA simulators fill it
//!   from their retired-instruction/cache models, while the native
//!   x86-64 path maps executable-memory pool behaviour and guarded-call
//!   trap tallies onto the same shape.
//! - [`TraceRecord`] — the record streamed by the simulators'
//!   per-instruction trace mode (`disasm()` text plus register deltas),
//!   the §6.2 debugger stand-in.
//!
//! What is *not* here: event counts. A count lives on the instance that
//! produces it (`LambdaCache::stats`, `CompileService::stats`,
//! `DiskTier::stats`, `DpfService::stats`) and nowhere else, so two
//! engines in one process can be told apart; a generation session's own
//! figures (instructions and bytes emitted) are its
//! [`Finished`](crate::Finished), and its spills its allocator's
//! ([`RegAlloc::spill_count`](crate::regalloc::RegAlloc::spill_count)).
//! `scripts/ci.sh` keeps this module free of statics.

use crate::trap::TrapKind;

/// Number of distinct [`TrapKind`] variants tracked by [`TrapCounts`].
pub const TRAP_KINDS: usize = 7;

/// Maps a [`TrapKind`] to its stable index in a [`TrapCounts`] table.
///
/// The enum is `#[non_exhaustive]` for downstream crates; this function
/// is the one place that enumerates it, so out-of-crate counter tables
/// (e.g. the native backend's atomic tallies) can stay fixed-size.
pub fn trap_kind_index(kind: TrapKind) -> usize {
    match kind {
        TrapKind::BadAccess => 0,
        TrapKind::Unaligned => 1,
        TrapKind::BadPc => 2,
        TrapKind::IllegalInsn => 3,
        TrapKind::ArithFault => 4,
        TrapKind::FuelExhausted => 5,
        TrapKind::ScheduleHazard => 6,
    }
}

/// All trap kinds, in [`trap_kind_index`] order (for iteration/labels).
pub const TRAP_KIND_TABLE: [TrapKind; TRAP_KINDS] = [
    TrapKind::BadAccess,
    TrapKind::Unaligned,
    TrapKind::BadPc,
    TrapKind::IllegalInsn,
    TrapKind::ArithFault,
    TrapKind::FuelExhausted,
    TrapKind::ScheduleHazard,
];

/// Trap occurrences bucketed by [`TrapKind`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrapCounts {
    counts: [u64; TRAP_KINDS],
}

impl TrapCounts {
    /// Records one occurrence of `kind`.
    pub fn record(&mut self, kind: TrapKind) {
        self.counts[trap_kind_index(kind)] += 1;
    }

    /// Occurrences of `kind`.
    pub fn count(&self, kind: TrapKind) -> u64 {
        self.counts[trap_kind_index(kind)]
    }

    /// Sets the count for `kind` (used by engines that keep their own
    /// live tally, e.g. atomics on the native path).
    pub fn set(&mut self, kind: TrapKind, n: u64) {
        self.counts[trap_kind_index(kind)] = n;
    }

    /// Total traps across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(kind, count)` pairs in stable index order.
    pub fn iter(&self) -> impl Iterator<Item = (TrapKind, u64)> + '_ {
        TRAP_KIND_TABLE.iter().map(|&k| (k, self.count(k)))
    }
}

/// Per-execution counters, shared by every engine in the workspace.
///
/// Semantics per engine:
///
/// - **ISA simulators** (mips/sparc/alpha): every field is a simulated
///   ground truth — `cycles = insns_retired + cache_stall_cycles`, the
///   cache fields mirror the configured data cache (zero when no cache
///   is attached), and `traps` tallies every trap the run loop raised.
/// - **Native x86-64**: `cache_hits`/`cache_misses` report executable-
///   memory *pool* behaviour (a code-cache, not a data cache), `traps`
///   tallies guarded-call faults, and the retired/cycle fields stay
///   zero — hardware counters are out of scope.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired (simulators: executed; native: unavailable).
    pub insns_retired: u64,
    /// Total cycles: retired instructions plus memory stalls.
    pub cycles: u64,
    /// Guest load instructions executed.
    pub loads: u64,
    /// Guest store instructions executed.
    pub stores: u64,
    /// Branch (conditional or unconditional control-transfer)
    /// instructions executed.
    pub branches: u64,
    /// Delay-slot instructions that did useful work (non-nop) after a
    /// taken control transfer — the §5.3 scheduling payoff, observable.
    pub delay_slot_fills: u64,
    /// Cache hits (simulators: data cache; native: exec-mem pool).
    pub cache_hits: u64,
    /// Cache misses (simulators: data cache; native: exec-mem pool).
    pub cache_misses: u64,
    /// Stall cycles charged for cache misses.
    pub cache_stall_cycles: u64,
    /// Traps raised during execution, by kind.
    pub traps: TrapCounts,
}

impl ExecStats {
    /// Cache hit ratio in `[0, 1]`, or `None` when no accesses were
    /// recorded (no cache attached, or nothing ran).
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }

    /// Cycles per retired instruction, or `None` when nothing retired.
    pub fn cycles_per_insn(&self) -> Option<f64> {
        if self.insns_retired == 0 {
            None
        } else {
            Some(self.cycles as f64 / self.insns_retired as f64)
        }
    }
}

/// One per-instruction trace record (the opt-in §6.2 debugger stand-in):
/// the simulators stream these through a client callback when tracing
/// is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the traced instruction.
    pub pc: u64,
    /// Disassembly text of the executed instruction.
    pub disasm: String,
    /// First register whose value changed, if any: `(index, old, new)`.
    /// 32-bit machines zero-extend into the `u64`s.
    pub delta: Option<(u8, u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_counts_record_and_total() {
        let mut t = TrapCounts::default();
        t.record(TrapKind::BadAccess);
        t.record(TrapKind::BadAccess);
        t.record(TrapKind::FuelExhausted);
        assert_eq!(t.count(TrapKind::BadAccess), 2);
        assert_eq!(t.count(TrapKind::FuelExhausted), 1);
        assert_eq!(t.count(TrapKind::Unaligned), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.iter().map(|(_, n)| n).sum::<u64>(), 3);
    }

    #[test]
    fn kind_index_is_a_bijection() {
        for (i, &k) in TRAP_KIND_TABLE.iter().enumerate() {
            assert_eq!(trap_kind_index(k), i);
        }
    }

    #[test]
    fn ratios_handle_empty_stats() {
        let s = ExecStats::default();
        assert_eq!(s.cache_hit_ratio(), None);
        assert_eq!(s.cycles_per_insn(), None);
        let s = ExecStats {
            insns_retired: 10,
            cycles: 25,
            cache_hits: 3,
            cache_misses: 1,
            ..ExecStats::default()
        };
        assert_eq!(s.cache_hit_ratio(), Some(0.75));
        assert_eq!(s.cycles_per_insn(), Some(2.5));
    }
}
