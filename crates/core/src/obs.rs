//! Execution and code-generation observability.
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
//! - [`CodegenEvent`] + the process-wide hook ([`set_hook`] /
//!   [`clear_hook`]) — a zero-cost-when-disabled event stream the
//!   [`Assembler`](crate::Assembler) fires at `lambda`/`end`, carrying
//!   instructions emitted, bytes emitted, overflow-latch trips, and
//!   register-allocator spills.
//! - [`TraceRecord`] — the record streamed by the simulators'
//!   per-instruction trace mode (`disasm()` text plus register deltas),
//!   the §6.2 debugger stand-in.

use crate::trap::TrapKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// A code-generation event fired by [`Assembler`](crate::Assembler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenEvent {
    /// `lambda` opened a generation session.
    LambdaBegin {
        /// Number of declared arguments.
        args: usize,
        /// Whether the function was declared a leaf.
        leaf: bool,
    },
    /// `end` closed a generation session (fired whether or not it
    /// succeeded — `overflowed` reports the storage-overflow latch).
    LambdaEnd {
        /// VCODE instructions specified during the session.
        insns: u64,
        /// Machine-code bytes emitted (buffer cursor at `end`).
        bytes: u64,
        /// Whether the storage-overflow latch tripped (paper §3's
        /// client-storage discipline).
        overflowed: bool,
        /// Register-allocator exhaustions (`getreg` returning `None` —
        /// the client fell back to stack slots, the paper's "spill").
        spills: u64,
    },
}

static HOOK_ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::type_complexity)]
static HOOK: Mutex<Option<Box<dyn Fn(&CodegenEvent) + Send>>> = Mutex::new(None);

/// Installs the process-wide codegen event hook, replacing any previous
/// one. The hook runs inline in `lambda`/`end`; keep it cheap.
pub fn set_hook(f: impl Fn(&CodegenEvent) + Send + 'static) {
    *HOOK.lock().unwrap() = Some(Box::new(f));
    HOOK_ENABLED.store(true, Ordering::Release);
}

/// Removes the codegen event hook; emission returns to a single
/// relaxed atomic load per event site.
pub fn clear_hook() {
    HOOK_ENABLED.store(false, Ordering::Release);
    *HOOK.lock().unwrap() = None;
}

/// Whether a codegen hook is installed.
#[inline]
pub fn hook_enabled() -> bool {
    HOOK_ENABLED.load(Ordering::Relaxed)
}

/// Fires `ev` at the installed hook. The event is built lazily so a
/// disabled hook costs one relaxed load and no construction work —
/// the zero-cost-when-disabled contract emission sites rely on.
#[inline]
pub fn emit_event(ev: impl FnOnce() -> CodegenEvent) {
    if hook_enabled() {
        emit_event_slow(&ev());
    }
}

#[cold]
fn emit_event_slow(ev: &CodegenEvent) {
    if let Some(hook) = HOOK.lock().unwrap().as_ref() {
        hook(ev);
    }
}

// ---- lambda-cache counters -------------------------------------------------
//
// Process-wide totals across every `LambdaCache` (the engine's, DPF's,
// ASH's). Per-cache figures live on the cache itself
// (`LambdaCache::stats`); these aggregates answer "how much codegen did
// caching save this process" without plumbing cache handles around.

static LC_HITS: AtomicU64 = AtomicU64::new(0);
static LC_MISSES: AtomicU64 = AtomicU64::new(0);
static LC_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static LC_INSERTS: AtomicU64 = AtomicU64::new(0);
static LC_STALLS: AtomicU64 = AtomicU64::new(0);
static LC_BYPASSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide lambda-cache counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LambdaCacheCounters {
    /// Cache lookups served from finished code (zero emission work).
    pub hits: u64,
    /// Lookups that required (or waited on) a compile.
    pub misses: u64,
    /// Entries dropped by LRU capacity enforcement.
    pub evictions: u64,
    /// Successful compiles inserted into a cache.
    pub inserts: u64,
    /// Bounded condvar waits that expired and vacated a stuck build.
    pub stalls: u64,
    /// Compiles run uncached because a shard hit its build cap.
    pub bypasses: u64,
}

/// Records a lambda-cache hit (called by `LambdaCache`).
#[inline]
pub fn note_lambda_cache_hit() {
    LC_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records a lambda-cache miss (called by `LambdaCache`).
#[inline]
pub fn note_lambda_cache_miss() {
    LC_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records a lambda-cache eviction (called by `LambdaCache`).
#[inline]
pub fn note_lambda_cache_eviction() {
    LC_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Records a lambda-cache insert (called by `LambdaCache`).
#[inline]
pub fn note_lambda_cache_insert() {
    LC_INSERTS.fetch_add(1, Ordering::Relaxed);
}

/// Records a stalled (and vacated) in-flight build (called by
/// `LambdaCache` when a bounded wait expires).
#[inline]
pub fn note_lambda_cache_stall() {
    LC_STALLS.fetch_add(1, Ordering::Relaxed);
}

/// Records an uncached bypass compile (called by `LambdaCache` when a
/// shard is at its simultaneous-build cap).
#[inline]
pub fn note_lambda_cache_bypass() {
    LC_BYPASSES.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-wide lambda-cache counters.
pub fn lambda_cache_counters() -> LambdaCacheCounters {
    LambdaCacheCounters {
        hits: LC_HITS.load(Ordering::Relaxed),
        misses: LC_MISSES.load(Ordering::Relaxed),
        evictions: LC_EVICTIONS.load(Ordering::Relaxed),
        inserts: LC_INSERTS.load(Ordering::Relaxed),
        stalls: LC_STALLS.load(Ordering::Relaxed),
        bypasses: LC_BYPASSES.load(Ordering::Relaxed),
    }
}

// ---- compile-service counters ----------------------------------------------
//
// Process-wide totals across every `CompileService` (the engine's,
// DPF's, ASH's): how much compilation left the request path, how often
// the service degraded, shed, or quarantined, and how deep the build
// queue ran. Per-service figures live on the service itself
// (`CompileService::stats`).

static SV_ENQUEUED: AtomicU64 = AtomicU64::new(0);
static SV_COMPLETED: AtomicU64 = AtomicU64::new(0);
static SV_FAILED: AtomicU64 = AtomicU64::new(0);
static SV_PANICKED: AtomicU64 = AtomicU64::new(0);
static SV_SHED: AtomicU64 = AtomicU64::new(0);
static SV_QUARANTINED: AtomicU64 = AtomicU64::new(0);
static SV_DEADLINE_EXPIRED: AtomicU64 = AtomicU64::new(0);
static SV_DEGRADED_CALLS: AtomicU64 = AtomicU64::new(0);
static SV_BUILD_NS: AtomicU64 = AtomicU64::new(0);
static SV_QUEUE_DEPTH_PEAK: AtomicU64 = AtomicU64::new(0);

/// Process-wide compile-service counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Builds accepted onto a service queue.
    pub enqueued: u64,
    /// Builds that finished and published into a cache.
    pub completed: u64,
    /// Builds that ran and returned a typed error.
    pub failed: u64,
    /// Builds whose builder panicked (caught; slot vacated).
    pub panicked: u64,
    /// Requests shed because the queue was at its configured depth.
    pub shed: u64,
    /// Quarantine entries created or extended after a failure.
    pub quarantined: u64,
    /// Builds dropped for exceeding their deadline (in queue or in
    /// build; the slot was vacated either way).
    pub deadline_expired: u64,
    /// Calls served by a degraded (fallback) path while native code was
    /// building, shed, or quarantined.
    pub degraded_calls: u64,
    /// Nanoseconds spent inside completed builds (for mean latency:
    /// divide by [`completed`](Self::completed)).
    pub build_ns: u64,
    /// High-water mark of any service queue's depth.
    pub queue_depth_peak: u64,
}

/// Records a build accepted onto a service queue, with the depth after
/// the enqueue (maintains the process-wide high-water mark).
#[inline]
pub fn note_service_enqueued(depth_after: u64) {
    SV_ENQUEUED.fetch_add(1, Ordering::Relaxed);
    SV_QUEUE_DEPTH_PEAK.fetch_max(depth_after, Ordering::Relaxed);
}

/// Records a completed background build and its wall-clock cost.
#[inline]
pub fn note_service_completed(build_ns: u64) {
    SV_COMPLETED.fetch_add(1, Ordering::Relaxed);
    SV_BUILD_NS.fetch_add(build_ns, Ordering::Relaxed);
}

/// Records a background build that returned a typed error.
#[inline]
pub fn note_service_failed() {
    SV_FAILED.fetch_add(1, Ordering::Relaxed);
}

/// Records a background build whose builder panicked.
#[inline]
pub fn note_service_panicked() {
    SV_PANICKED.fetch_add(1, Ordering::Relaxed);
}

/// Records a shed request (queue at depth; fallback served instead).
#[inline]
pub fn note_service_shed() {
    SV_SHED.fetch_add(1, Ordering::Relaxed);
}

/// Records a quarantine entry created or extended.
#[inline]
pub fn note_service_quarantined() {
    SV_QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

/// Records a build dropped for exceeding its deadline.
#[inline]
pub fn note_service_deadline_expired() {
    SV_DEADLINE_EXPIRED.fetch_add(1, Ordering::Relaxed);
}

/// Records one call served by a degraded (fallback) path.
#[inline]
pub fn note_degraded_call() {
    SV_DEGRADED_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-wide compile-service counters.
pub fn service_counters() -> ServiceCounters {
    ServiceCounters {
        enqueued: SV_ENQUEUED.load(Ordering::Relaxed),
        completed: SV_COMPLETED.load(Ordering::Relaxed),
        failed: SV_FAILED.load(Ordering::Relaxed),
        panicked: SV_PANICKED.load(Ordering::Relaxed),
        shed: SV_SHED.load(Ordering::Relaxed),
        quarantined: SV_QUARANTINED.load(Ordering::Relaxed),
        deadline_expired: SV_DEADLINE_EXPIRED.load(Ordering::Relaxed),
        degraded_calls: SV_DEGRADED_CALLS.load(Ordering::Relaxed),
        build_ns: SV_BUILD_NS.load(Ordering::Relaxed),
        queue_depth_peak: SV_QUEUE_DEPTH_PEAK.load(Ordering::Relaxed),
    }
}

// ---- generation-swap counters ----------------------------------------------
//
// Process-wide totals for RCU-style hot-swap publication (the DPF
// live-update service and anything else that republishes compiled code
// under traffic): generations published (split native vs
// interpreter-degraded delta windows), in-place interpreter→native
// upgrades, and retired generations reclaimed after their last reader
// epoch passed.

static GEN_PUBLISHED: AtomicU64 = AtomicU64::new(0);
static GEN_NATIVE: AtomicU64 = AtomicU64::new(0);
static GEN_DEGRADED: AtomicU64 = AtomicU64::new(0);
static GEN_UPGRADED: AtomicU64 = AtomicU64::new(0);
static GEN_RETIRED: AtomicU64 = AtomicU64::new(0);

/// Process-wide generation-swap counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapCounters {
    /// Generations published (every hot swap, native or degraded).
    pub published: u64,
    /// Generations published already serving native code.
    pub native: u64,
    /// Generations published serving an interpreter (delta windows).
    pub degraded: u64,
    /// In-place interpreter→native upgrades of a live generation.
    pub upgraded: u64,
    /// Retired generations reclaimed after their last reader left.
    pub retired: u64,
}

/// Records one generation publication; `native` says whether it serves
/// compiled code or an interpreter delta window.
#[inline]
pub fn note_generation_published(native: bool) {
    GEN_PUBLISHED.fetch_add(1, Ordering::Relaxed);
    if native {
        GEN_NATIVE.fetch_add(1, Ordering::Relaxed);
    } else {
        GEN_DEGRADED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records an in-place interpreter→native upgrade of a live generation.
#[inline]
pub fn note_generation_upgraded() {
    GEN_UPGRADED.fetch_add(1, Ordering::Relaxed);
}

/// Records retired generations reclaimed (their code pins released).
#[inline]
pub fn note_generations_retired(n: u64) {
    GEN_RETIRED.fetch_add(n, Ordering::Relaxed);
}

/// Snapshot of the process-wide generation-swap counters.
pub fn swap_counters() -> SwapCounters {
    SwapCounters {
        published: GEN_PUBLISHED.load(Ordering::Relaxed),
        native: GEN_NATIVE.load(Ordering::Relaxed),
        degraded: GEN_DEGRADED.load(Ordering::Relaxed),
        upgraded: GEN_UPGRADED.load(Ordering::Relaxed),
        retired: GEN_RETIRED.load(Ordering::Relaxed),
    }
}

// Persistent-cache (L2) counters: warm-start observability for the
// tiered store. A hit is an artifact loaded, revalidated, and adopted;
// a miss is a clean absence; a reject is an artifact that existed but
// failed any validation stage (envelope, checksum, re-decode, codec) —
// each reject corresponds to one silent fallback to a fresh compile.

static PERSIST_HITS: AtomicU64 = AtomicU64::new(0);
static PERSIST_MISSES: AtomicU64 = AtomicU64::new(0);
static PERSIST_STORES: AtomicU64 = AtomicU64::new(0);
static PERSIST_REJECTS: AtomicU64 = AtomicU64::new(0);
static PERSIST_SWEPT: AtomicU64 = AtomicU64::new(0);

/// Process-wide persistent-cache counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounters {
    /// Artifacts loaded, revalidated, and adopted.
    pub hits: u64,
    /// Clean misses (no artifact on disk).
    pub misses: u64,
    /// Artifacts written (store-through publications).
    pub stores: u64,
    /// Artifacts refused by validation (each one a silent fallback to
    /// a fresh compile).
    pub rejects: u64,
    /// Artifact files of superseded formats removed when a tier opened
    /// its directory.
    pub swept: u64,
}

/// Records one adopted artifact load.
#[inline]
pub fn note_persist_hit() {
    PERSIST_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records one clean persistent-cache miss.
#[inline]
pub fn note_persist_miss() {
    PERSIST_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records one artifact publication.
#[inline]
pub fn note_persist_store() {
    PERSIST_STORES.fetch_add(1, Ordering::Relaxed);
}

/// Records one artifact refused by validation.
#[inline]
pub fn note_persist_reject() {
    PERSIST_REJECTS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` superseded-format artifact files removed.
#[inline]
pub fn note_persist_swept(n: u64) {
    PERSIST_SWEPT.fetch_add(n, Ordering::Relaxed);
}

/// Snapshot of the process-wide persistent-cache counters.
pub fn persist_counters() -> PersistCounters {
    PersistCounters {
        hits: PERSIST_HITS.load(Ordering::Relaxed),
        misses: PERSIST_MISSES.load(Ordering::Relaxed),
        stores: PERSIST_STORES.load(Ordering::Relaxed),
        rejects: PERSIST_REJECTS.load(Ordering::Relaxed),
        swept: PERSIST_SWEPT.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

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

    #[test]
    fn hook_fires_only_while_installed() {
        // Sentinel value: other tests in this crate run assemblers (and
        // so fire real events) concurrently; count only our own.
        const MARK: u64 = 0x00c0_ffee;
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        set_hook(move |ev| {
            if matches!(ev, CodegenEvent::LambdaEnd { insns: MARK, .. }) {
                n2.fetch_add(1, Ordering::SeqCst);
            }
        });
        emit_event(|| CodegenEvent::LambdaEnd {
            insns: MARK,
            bytes: 4,
            overflowed: false,
            spills: 0,
        });
        clear_hook();
        emit_event(|| CodegenEvent::LambdaEnd {
            insns: MARK,
            bytes: 4,
            overflowed: false,
            spills: 0,
        });
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }
}
