//! Executable memory for natively running generated code.
//!
//! The paper lists "programmer maintenance of cache coherence between
//! instruction and data caches" among the chip-specific chores a dynamic
//! code generation system must hide (§1, `v_end` step 4). On x86-64 the
//! instruction cache snoops stores, so coherence is free; what remains is
//! obtaining memory that may be executed at all. [`ExecMem`] provides it
//! with a **dual mapping**: the same `memfd` pages mapped twice — a
//! read+write *emission view* the assembler writes through, and a
//! read+execute *execution view* (bracketed by guard pages) that
//! [`addr`](ExecMem::addr) and [`ExecMem::finalize`] hand out. No
//! virtual address is ever writable and executable at once (W^X), and no
//! protection ever changes after setup: finalizing is free.
//!
//! The `memfd_create`/`mmap`/`munmap` calls are made directly via the
//! `syscall` instruction so the crate needs no FFI dependency; see
//! DESIGN.md for the rationale.
//!
//! # Pooling
//!
//! Mapping costs microseconds — two orders of magnitude more than
//! generating a small function (the paper's core claim is ~10
//! cycles/instruction). To keep the per-lambda overhead at VCODE scale,
//! dropped mappings are *parked* in a process-wide pool instead of
//! unmapped: the region is **zeroed** through the emission view (so
//! stale code can never run — it is gone — and adopted storage looks
//! exactly like fresh storage) and pushed onto a size-classed free
//! list. [`ExecMem::new`] adopts a parked mapping with *no syscalls at
//! all*, and only maps fresh memory on a pool miss.
//!
//! The invariant is **a parked mapping is all zero**. Storage is handed
//! out zeroed, so restoring it means zeroing what was stored since: the
//! whole region, unless the owner can bound its writes. A caller that
//! emitted through an assembler can ([`ExecMem::finalize_written`]: the
//! finished length plus [`vcode::buf::MAX_OVERSTORE`]) and parks by
//! scrubbing that dirty prefix alone — a 1 KB lambda in an 8 KB mapping
//! never touches the second page. Everyone else ([`ExecMem::finalize`],
//! an `ExecMem` dropped unfinished) keeps the full scrub.
//!
//! The pool is quiet only for a population that stays in **one size
//! class**. A stationary set of live mappings spread over *k* classes
//! (say 256 cached lambdas, each replaced by a random newcomer) gives
//! each class's free list a random walk — a release pushes, an
//! allocation of that class pops — between two walls: empty, where the
//! next allocation maps fresh memory, and the retention cap, where the
//! next release unmaps. The walk hits both regularly, however the
//! classes are weighted; with one class, every release is followed by an
//! allocation of the same class and the list never holds more than one
//! entry. So a caller that can bound the bytes it will keep should ask
//! for that size, not for a worst case it will mostly leave unused: the
//! engine adapter lowers into heap scratch and installs the finished
//! bytes ([`ExecMem::adopt_bytes`]) for exactly this reason (DESIGN.md
//! "Executable memory"; EXPERIMENTS.md "Cold miss: where the pool went"
//! has the counts).
//!
//! The dual mapping is what makes the whole steady-state lifecycle
//! (adopt → emit → finalize → execute → park) syscall-free, and that is
//! a multi-core scaling fact, not just a latency one: the classic
//! single-mapping W^X lifecycle `mprotect`s every lambda twice, and
//! every `mprotect` takes the kernel's *process-wide* `mmap_lock` —
//! with parallel generators, that lock (not any lock of ours) is the
//! shared state everything serializes on. Free lists are sharded across
//! a small set of mutexes so concurrent code generators (one assembler
//! per thread) do not serialize on a single lock. Mappings larger than
//! [`MAX_POOL_PAGES`] pages bypass the pool entirely.
//!
//! The hardening trade-offs of dual mapping: a writable alias of live
//! code exists at a second, unpublished address, and parked pages stay
//! fetchable at the execution view (every JIT that dual maps accepts
//! the former; the latter is covered by scrubbing — parking zeroes the
//! region, so stale *code* is gone and a dangling function pointer
//! decodes zeros until it faults, at the first `add [rax], al` store or
//! at the guard page that ends the run). The guard pages themselves are
//! permanent, and live code is never writable at its published address.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const SYS_CLOSE: i64 = 3;
const SYS_MMAP: i64 = 9;
const SYS_MUNMAP: i64 = 11;
const SYS_FTRUNCATE: i64 = 77;
const SYS_MEMFD_CREATE: i64 = 319;

const PROT_NONE: i64 = 0;
const PROT_READ: i64 = 1;
const PROT_WRITE: i64 = 2;
const PROT_EXEC: i64 = 4;
const MAP_SHARED: i64 = 0x01;
const MAP_PRIVATE: i64 = 0x02;
const MAP_FIXED: i64 = 0x10;
const MAP_ANONYMOUS: i64 = 0x20;
const MFD_CLOEXEC: i64 = 0x01;

const PAGE: usize = 4096;

/// Largest pooled mapping, in code pages. Requests up to this size are
/// rounded to a power-of-two page count and recycled through the pool;
/// larger ones are mapped and unmapped directly.
pub const MAX_POOL_PAGES: usize = 128;

/// Size classes: 1, 2, 4, ... [`MAX_POOL_PAGES`] pages.
const NUM_CLASSES: usize = MAX_POOL_PAGES.trailing_zeros() as usize + 1;

/// Parked mappings retained per class per shard; beyond this, released
/// mappings are unmapped (the retention cap bounds idle memory).
const RETAIN_PER_CLASS: usize = 8;

/// Free-list shards. Threads are spread across shards round-robin so
/// parallel code generators rarely contend on the same mutex. Sixteen
/// shards keep the expected collision rate low even at 8 generator
/// threads (4 shards measurably flattened the `par_codegen` scaling
/// curve past 2 threads); a shard is one `Mutex` + `NUM_CLASSES`
/// pointers, so the idle cost of the extra shards is negligible.
const SHARDS: usize = 16;

/// Bytes of inaccessible (`PROT_NONE`) padding on each side of the code
/// region. A generated function that runs off either end of its storage
/// — a straight-line escape past `len` or a wild negative branch — hits
/// a guard page and raises SIGSEGV immediately, which
/// [`GuardedCall`](crate::GuardedCall) converts into a typed
/// [`NativeTrap`](crate::NativeTrap) instead of letting the escape
/// corrupt adjacent heap mappings.
pub const GUARD_BYTES: usize = PAGE;

/// Raw Linux syscall (x86-64). Returns the kernel's value; values in
/// `-4095..0` are negated errnos.
///
/// # Safety
///
/// The caller must uphold the contract of the specific syscall.
unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
    let ret: i64;
    // SAFETY: forwarded caller obligation (the syscall's own contract).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

fn check(ret: i64) -> io::Result<i64> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}

/// Unmaps a whole mapping (guards included); errors are ignorable.
///
/// # Safety
///
/// `map`/`total` must describe an entire mapping the caller owns, with
/// no live references into it.
unsafe fn munmap(map: *mut u8, total: usize) {
    // SAFETY: forwarded caller obligation.
    unsafe {
        syscall6(SYS_MUNMAP, map as i64, total as i64, 0, 0, 0, 0);
    }
}

/// Builds one dual-mapped code region of `len` bytes: the same `memfd`
/// pages mapped read+execute inside a `PROT_NONE` scaffold (so the
/// guard pages bracket the execution view) and read+write at an
/// unrelated kernel-chosen address. The fd is closed before returning —
/// the two mappings keep the pages alive — so a region holds no file
/// descriptor for its lifetime, only address space.
///
/// Returns `(map, ptr, rw)`: scaffold start (low guard page), execution
/// entry (`map + GUARD_BYTES`), and the write alias.
fn map_dual(len: usize) -> io::Result<(*mut u8, *mut u8, *mut u8)> {
    let total = len + 2 * GUARD_BYTES;
    // SAFETY: memfd_create reads the NUL-terminated name and touches no
    // other memory. The name is debugging metadata (/proc/…/fd).
    let fd = check(unsafe {
        syscall6(
            SYS_MEMFD_CREATE,
            c"vcode-exec".as_ptr() as i64,
            MFD_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })?;
    // Everything from here must close the fd on failure.
    let built = (|| {
        // SAFETY: sizing the memfd we just created; memfd pages are
        // zero-filled on first touch.
        check(unsafe { syscall6(SYS_FTRUNCATE, fd, len as i64, 0, 0, 0, 0) })?;
        // SAFETY: fresh anonymous PROT_NONE reservation; the kernel
        // picks the placement. This is the scaffold whose first and
        // last pages stay PROT_NONE forever (the guards).
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                total as i64,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        let map = check(ret)? as *mut u8;
        // SAFETY: in-bounds offset of the scaffold.
        let ptr = unsafe { map.add(GUARD_BYTES) };
        // SAFETY: MAP_FIXED inside the scaffold we own replaces its
        // interior with the file-backed execution view; the guards on
        // either side are untouched.
        let exec = unsafe {
            syscall6(
                SYS_MMAP,
                ptr as i64,
                len as i64,
                PROT_READ | PROT_EXEC,
                MAP_SHARED | MAP_FIXED,
                fd,
                0,
            )
        };
        if let Err(e) = check(exec) {
            // SAFETY: unmapping the scaffold we just created.
            unsafe { munmap(map, total) };
            return Err(e);
        }
        // SAFETY: second view of the same pages, kernel-chosen address.
        let rw = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            )
        };
        match check(rw) {
            Ok(rw) => Ok((map, ptr, rw as *mut u8)),
            Err(e) => {
                // SAFETY: unmapping the scaffold (execution view
                // included) we just created.
                unsafe { munmap(map, total) };
                Err(e)
            }
        }
    })();
    // SAFETY: closing the fd we created; the mappings (if any) keep the
    // pages alive.
    unsafe { syscall6(SYS_CLOSE, fd, 0, 0, 0, 0, 0) };
    built
}

/// Unmaps both views of a dual-mapped region: the scaffold (guards and
/// execution view, `len + 2 * GUARD_BYTES` bytes at `map`) and the
/// write alias (`len` bytes at `rw`).
///
/// # Safety
///
/// `map`/`rw`/`len` must describe a region from [`map_dual`] owned by
/// the caller, with no live references into either view.
unsafe fn unmap_dual(map: *mut u8, rw: *mut u8, len: usize) {
    // SAFETY: forwarded caller obligation.
    unsafe {
        munmap(map, len + 2 * GUARD_BYTES);
        munmap(rw, len);
    }
}

/// A region parked in the pool: both views mapped, the code zeroed
/// (through `rw`), nothing referencing it. `len` is the code-region
/// length (guards excluded).
struct Parked {
    map: *mut u8,
    rw: *mut u8,
    len: usize,
}

// SAFETY: a parked mapping is inert memory owned solely by the pool.
unsafe impl Send for Parked {}

struct Shard {
    classes: [Vec<Parked>; NUM_CLASSES],
}

static POOL: [Mutex<Shard>; SHARDS] = [const {
    Mutex::new(Shard {
        classes: [const { Vec::new() }; NUM_CLASSES],
    })
}; SHARDS];

static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static POOL_PARKED: AtomicU64 = AtomicU64::new(0);
static POOL_EVICTED: AtomicU64 = AtomicU64::new(0);

/// Round-robin shard assignment, one shard per thread for its lifetime.
fn my_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Class index for a pooled page count (1 → 0, 2 → 1, 4 → 2, ...).
fn class_of(pages: usize) -> usize {
    debug_assert!(pages.is_power_of_two() && pages <= MAX_POOL_PAGES);
    pages.trailing_zeros() as usize
}

/// Whether a code region of `len` bytes travels through the pool.
fn pooled(len: usize) -> bool {
    let pages = len / PAGE;
    pages.is_power_of_two() && pages <= MAX_POOL_PAGES
}

/// Tries to adopt a parked region of `len` code bytes from this
/// thread's shard. Parked regions are zeroed with both views live, so a
/// hit costs no syscall: the pop *is* the allocation.
fn pool_take(len: usize) -> Option<(*mut u8, *mut u8, *mut u8)> {
    let class = class_of(len / PAGE);
    let parked = {
        let mut shard = POOL[my_shard()].lock().unwrap_or_else(|e| e.into_inner());
        shard.classes[class].pop()
    }?;
    debug_assert_eq!(parked.len, len);
    // SAFETY: in-bounds offset of a mapping the pool owns.
    let ptr = unsafe { parked.map.add(GUARD_BYTES) };
    Some((parked.map, ptr, parked.rw))
}

/// Parks a region back into the pool, or unmaps it when the class is at
/// its retention cap (or pooling does not apply). Parking zeroes the
/// code through the write alias — the stale code is *gone*, from both
/// views, so a dangling function pointer into the region decodes zeros
/// (`add [rax], al`) and faults rather than running old code — and
/// costs no syscall. Never fails.
///
/// `dirty` bounds what was stored into the region since it was handed
/// out zeroed: bytes at or past it are still zero, so zeroing
/// `..dirty` leaves the whole region zero (`len` when the owner cannot
/// say; debug builds check the claim).
///
/// # Safety
///
/// `map`/`rw`/`len` must describe a region from [`map_dual`] owned by
/// the caller, with no live references into either view.
unsafe fn pool_put(map: *mut u8, rw: *mut u8, len: usize, dirty: usize) {
    if pooled(len) {
        let dirty = dirty.min(len);
        // SAFETY: the caller owns the region; the write alias is always
        // read+write and `dirty <= len`. Scrub the stale code now so
        // adoption can hand the region out as-is.
        unsafe { rw.write_bytes(0, dirty) };
        debug_assert!(
            // SAFETY: same region, read through the alias we just wrote.
            unsafe { std::slice::from_raw_parts(rw, len) }
                .iter()
                .all(|&b| b == 0),
            "a parked mapping must be all zero: writes went past the claimed {dirty} bytes"
        );
        let mut shard = POOL[my_shard()].lock().unwrap_or_else(|e| e.into_inner());
        let class = &mut shard.classes[class_of(len / PAGE)];
        if class.len() < RETAIN_PER_CLASS {
            class.push(Parked { map, rw, len });
            POOL_PARKED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        drop(shard);
        POOL_EVICTED.fetch_add(1, Ordering::Relaxed);
    }
    // SAFETY: forwarded caller obligation.
    unsafe { unmap_dual(map, rw, len) };
}

/// Unmaps every parked mapping in every shard, returning how many were
/// released. Useful for tests and for trimming idle memory; safe to call
/// concurrently with allocation (late arrivals simply repopulate).
pub fn drain_pool() -> usize {
    let mut drained = 0;
    for shard in &POOL {
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        for class in &mut shard.classes {
            for parked in class.drain(..) {
                // SAFETY: the pool owns parked regions exclusively.
                unsafe { unmap_dual(parked.map, parked.rw, parked.len) };
                drained += 1;
            }
        }
    }
    drained
}

/// Cumulative pool counters (process-wide, monotonically increasing
/// except `currently_parked`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served by adopting a parked mapping.
    pub hits: u64,
    /// Allocations that had to `mmap` fresh memory.
    pub misses: u64,
    /// Releases that parked their mapping.
    pub parked: u64,
    /// Releases unmapped because the class was at its retention cap.
    pub evicted: u64,
    /// Mappings sitting in the pool right now.
    pub currently_parked: usize,
}

/// Reads the pool counters.
pub fn pool_stats() -> PoolStats {
    let currently_parked = POOL
        .iter()
        .map(|s| {
            let shard = s.lock().unwrap_or_else(|e| e.into_inner());
            shard.classes.iter().map(Vec::len).sum::<usize>()
        })
        .sum();
    PoolStats {
        hits: POOL_HITS.load(Ordering::Relaxed),
        misses: POOL_MISSES.load(Ordering::Relaxed),
        parked: POOL_PARKED.load(Ordering::Relaxed),
        evicted: POOL_EVICTED.load(Ordering::Relaxed),
        currently_parked,
    }
}

/// A dual-mapped code region that generated code is emitted into:
/// writable through [`as_mut_slice`](Self::as_mut_slice), executable at
/// [`addr`](Self::addr) (two views of the same pages — see the module
/// docs).
///
/// # Examples
///
/// ```
/// use vcode_x64::ExecMem;
/// let mut mem = ExecMem::new(4096)?;
/// mem.as_mut_slice()[0] = 0xb8; // mov eax, 41
/// mem.as_mut_slice()[1..5].copy_from_slice(&41i32.to_le_bytes());
/// mem.as_mut_slice()[5] = 0xc3; // ret
/// let code = mem.finalize()?;
/// let f: extern "C" fn() -> i32 = unsafe { code.as_fn() };
/// assert_eq!(f(), 41);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ExecMem {
    /// Start of the scaffold mapping (low guard page).
    map: *mut u8,
    /// Execution view of the code region (`map + GUARD_BYTES`).
    ptr: *mut u8,
    /// Write alias of the same pages (kernel-chosen address).
    rw: *mut u8,
    /// Length of the code region (guards excluded).
    len: usize,
}

impl fmt::Debug for ExecMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecMem")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .finish()
    }
}

impl ExecMem {
    /// Obtains `len` bytes of dual-mapped storage: writable through
    /// [`as_mut_slice`](Self::as_mut_slice), executable at
    /// [`addr`](Self::addr), the execution view bracketed by one
    /// `PROT_NONE` guard page on each side (see [`GUARD_BYTES`]).
    /// [`len`](Self::len) and [`addr`](Self::addr) describe the usable
    /// code region only.
    ///
    /// Requests up to [`MAX_POOL_PAGES`] pages are rounded to a
    /// power-of-two page count and served from the pool when a parked
    /// region of that class is available (see the module docs); larger
    /// requests are rounded to the page size and mapped directly. Either
    /// way the returned storage is zeroed.
    ///
    /// # Errors
    ///
    /// Propagates the `memfd_create`/`ftruncate`/`mmap` failure
    /// (`ENOMEM`, resource limits, ...); a request too large to
    /// represent reports `ENOMEM` without panicking.
    pub fn new(len: usize) -> io::Result<ExecMem> {
        let pages = len.max(1).div_ceil(PAGE);
        let len = if pages <= MAX_POOL_PAGES {
            let len = pages.next_power_of_two() * PAGE;
            if let Some((map, ptr, rw)) = pool_take(len) {
                POOL_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(ExecMem { map, ptr, rw, len });
            }
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            len
        } else {
            pages
                .checked_mul(PAGE)
                .filter(|l| l.checked_add(2 * GUARD_BYTES).is_some())
                .ok_or_else(|| io::Error::from_raw_os_error(12 /* ENOMEM */))?
        };
        let (map, ptr, rw) = map_dual(len)?;
        Ok(ExecMem { map, ptr, rw, len })
    }

    /// Obtains dual-mapped storage pre-filled with `bytes` — the
    /// adoption path for revalidated persistent-cache artifacts, so
    /// deserialized code lands in the same pooled, guarded memory as
    /// freshly emitted code. The caller must have revalidated
    /// `bytes` (differential re-decode) before adoption; this function
    /// only places them.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn adopt_bytes(bytes: &[u8]) -> io::Result<ExecMem> {
        let mut mem = ExecMem::new(bytes.len())?;
        mem.as_mut_slice()[..bytes.len()].copy_from_slice(bytes);
        Ok(mem)
    }

    /// The writable storage, handed to
    /// [`Assembler::lambda`](vcode::Assembler::lambda) as the client code
    /// pointer. This is the write *alias*: bytes stored here become
    /// visible (and executable) at [`addr`](Self::addr), which is where
    /// all position-dependent references must point.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: we own the region; the write alias is
        // PROT_READ|PROT_WRITE and `len` bytes long.
        unsafe { std::slice::from_raw_parts_mut(self.rw, self.len) }
    }

    /// The code-region length in bytes (guard pages excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the code region holds zero bytes. Mappings are made at
    /// least one page, so this is false for every constructible value —
    /// computed from `len` rather than hard-coded so the two can never
    /// disagree.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The address generated code will execute at (needed when emitting
    /// absolute-address references to the code itself).
    pub fn addr(&self) -> u64 {
        self.ptr as u64
    }

    /// Returns the executable handle (the paper's `v_end` returning "a
    /// pointer to the generated code", cast to the appropriate function
    /// pointer type by the client). The execution view has been
    /// read+execute since setup — finalizing changes no protections and
    /// makes no syscalls; it only retires the write access. The x86-64
    /// instruction cache snoops stores by physical address, so the bytes
    /// written through the alias are fetchable at [`addr`](Self::addr)
    /// with no explicit flush.
    ///
    /// The caller may have written anywhere in the region, so the code
    /// parks with a scrub of all of it; see
    /// [`finalize_written`](Self::finalize_written).
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` is kept so a future target (or a
    /// hardening mode that seals the alias) can fail here without an API
    /// break.
    pub fn finalize(self) -> io::Result<ExecCode> {
        let len = self.len;
        self.finalize_written(len)
    }

    /// [`finalize`](Self::finalize) for a caller that can bound its
    /// writes: nothing was stored through
    /// [`as_mut_slice`](Self::as_mut_slice) at or past offset `written`
    /// since this storage was obtained. When the code is dropped, parking
    /// scrubs only that dirty prefix (see the module docs). For code
    /// emitted by an assembler the bound is the finished length plus
    /// [`vcode::buf::MAX_OVERSTORE`]; after
    /// [`adopt_bytes`](Self::adopt_bytes) it is the image length. A
    /// bound that is too low leaves stale bytes in a parked mapping (a
    /// debug build panics at the drop that would have parked them); one
    /// that is too high only costs scrub time.
    ///
    /// # Errors
    ///
    /// As [`finalize`](Self::finalize).
    pub fn finalize_written(self, written: usize) -> io::Result<ExecCode> {
        let code = ExecCode {
            map: self.map,
            ptr: self.ptr,
            rw: self.rw,
            len: self.len,
            dirty: written,
        };
        std::mem::forget(self);
        Ok(code)
    }
}

impl Drop for ExecMem {
    fn drop(&mut self) {
        // SAFETY: releasing a region we own (both views) with no
        // outstanding references; errors are ignorable here
        // (C-DTOR-FAIL) — `pool_put` degrades to unmapping. Whoever held
        // `as_mut_slice` may have written anywhere: scrub it all.
        unsafe { pool_put(self.map, self.rw, self.len, self.len) };
    }
}

// SAFETY: the mapping is plain memory; access is through &mut self.
unsafe impl Send for ExecMem {}

/// Finalized, executable code, still bracketed by its `PROT_NONE` guard
/// pages.
///
/// # Drop hazard
///
/// Dropping releases the code (parks its region scrubbed, or unmaps
/// it). The borrow checker cannot see through the `unsafe` cast in
/// [`as_fn`](Self::as_fn): the returned function pointer does **not**
/// borrow `self`, so it is possible to drop the `ExecCode` and then
/// call the pointer. That call runs into zeroed or unmapped memory and
/// faults — under [`GuardedCall`](crate::GuardedCall) it surfaces as a
/// [`NativeTrap`](crate::NativeTrap); on a bare call it is a crash.
/// Keep the `ExecCode` alive for as long as any pointer obtained from it
/// may be invoked (see the `drop_unmaps_code` test): code shared between
/// owners is shared by `Arc`, and the last owner's drop releases it.
///
/// # Pooling and liveness
///
/// Live code is never *in* the pool: [`pool_put`] only runs from `Drop`,
/// so [`drain_pool`] can only ever release parked, unreferenced mappings
/// — a cached lambda holding its `ExecCode` survives any number of
/// drains.
pub struct ExecCode {
    /// Start of the scaffold mapping (low guard page).
    map: *mut u8,
    /// Entry of the executable region (`map + GUARD_BYTES`).
    ptr: *mut u8,
    /// Write alias of the same pages, never exposed while finalized;
    /// kept mapped so parking stays syscall-free (see the module docs).
    rw: *mut u8,
    /// Length of the executable region (guards excluded).
    len: usize,
    /// Nothing at or past this offset was written since the region was
    /// handed out zeroed: what parking has to scrub.
    dirty: usize,
}

impl fmt::Debug for ExecCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecCode")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .finish()
    }
}

impl ExecCode {
    /// Entry address of the code.
    pub fn addr(&self) -> u64 {
        self.ptr as u64
    }

    /// Length of the executable region (guard pages excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the executable region holds zero bytes; false for every
    /// constructible value, computed honestly from `len`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The finalized code bytes, read through the execution view (it is
    /// `PROT_READ|PROT_EXEC`, so plain loads are fine). This is what the
    /// persistent cache serializes: adoption of these exact bytes
    /// reproduces the lambda.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is the start of our own mapped execution view,
        // readable for `len` bytes, and no writes go through the alias
        // after finalization — the region is effectively immutable for
        // the lifetime of this `ExecCode`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Reinterprets the entry point as a function pointer.
    ///
    /// # Safety
    ///
    /// `F` must be a `fn` pointer type whose ABI matches the generated
    /// code (the signature passed to `lambda`, `extern "C"`), and the
    /// code must stay alive while `F` is callable.
    ///
    /// # Panics
    ///
    /// Panics when `F` is not pointer-sized.
    pub unsafe fn as_fn<F: Copy>(&self) -> F {
        assert_eq!(
            std::mem::size_of::<F>(),
            std::mem::size_of::<usize>(),
            "as_fn requires a fn-pointer type"
        );
        // SAFETY: size checked above; validity of the ABI is the
        // caller's obligation.
        unsafe { std::mem::transmute_copy(&self.ptr) }
    }

    /// Calls the code as `extern "C" fn() -> u64`.
    ///
    /// # Safety
    ///
    /// The generated function must take no arguments and return an
    /// integer (or nothing).
    pub unsafe fn call0(&self) -> u64 {
        let f: extern "C" fn() -> u64 = unsafe { self.as_fn() };
        f()
    }

    /// Calls the code as `extern "C" fn(u64) -> u64`.
    ///
    /// # Safety
    ///
    /// The generated function must take one integer argument.
    pub unsafe fn call1(&self, a: u64) -> u64 {
        let f: extern "C" fn(u64) -> u64 = unsafe { self.as_fn() };
        f(a)
    }

    /// Calls the code as `extern "C" fn(u64, u64) -> u64`.
    ///
    /// # Safety
    ///
    /// The generated function must take two integer arguments.
    pub unsafe fn call2(&self, a: u64, b: u64) -> u64 {
        let f: extern "C" fn(u64, u64) -> u64 = unsafe { self.as_fn() };
        f(a, b)
    }

    /// Calls the code as `extern "C" fn(u64, u64, u64) -> u64`.
    ///
    /// # Safety
    ///
    /// The generated function must take three integer arguments.
    pub unsafe fn call3(&self, a: u64, b: u64, c: u64) -> u64 {
        let f: extern "C" fn(u64, u64, u64) -> u64 = unsafe { self.as_fn() };
        f(a, b, c)
    }

    /// Calls the code as `extern "C" fn(u64, u64, u64, u64) -> u64`.
    ///
    /// # Safety
    ///
    /// The generated function must take four integer arguments.
    pub unsafe fn call4(&self, a: u64, b: u64, c: u64, d: u64) -> u64 {
        let f: extern "C" fn(u64, u64, u64, u64) -> u64 = unsafe { self.as_fn() };
        f(a, b, c, d)
    }
}

impl Drop for ExecCode {
    fn drop(&mut self) {
        // SAFETY: releasing a region we own (both views). The caller
        // upholds the drop hazard documented on the type: no generated
        // function may be executing or called after this. Parking zeroes
        // the region through the write alias, so a use-after-drop call
        // runs into zeros and faults (see `pool_put`) rather than
        // executing stale code.
        unsafe { pool_put(self.map, self.rw, self.len, self.dirty) };
    }
}

// SAFETY: immutable machine code; callable from any thread.
unsafe impl Send for ExecCode {}
// SAFETY: no interior mutability.
unsafe impl Sync for ExecCode {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_tiny_function() {
        let mut mem = ExecMem::new(64).unwrap();
        assert_eq!(mem.len() % 4096, 0);
        // mov rax, rdi; add rax, 1; ret
        let code = [0x48, 0x89, 0xf8, 0x48, 0x83, 0xc0, 0x01, 0xc3];
        mem.as_mut_slice()[..code.len()].copy_from_slice(&code);
        let code = mem.finalize().unwrap();
        // SAFETY: the buffer holds a complete emitted function of this arity.
        assert_eq!(unsafe { code.call1(41) }, 42);
        // SAFETY: the buffer holds a complete emitted function of this arity.
        assert_eq!(unsafe { code.call1(u64::MAX) }, 0);
    }

    #[test]
    fn len_rounds_to_pages() {
        let mem = ExecMem::new(1).unwrap();
        assert_eq!(mem.len(), 4096);
        let mem = ExecMem::new(4097).unwrap();
        assert_eq!(mem.len(), 8192);
    }

    #[test]
    #[should_panic(expected = "fn-pointer type")]
    fn as_fn_rejects_wrong_size() {
        let mut mem = ExecMem::new(16).unwrap();
        mem.as_mut_slice()[0] = 0xc3;
        let code = mem.finalize().unwrap();
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let _: [u64; 2] = unsafe { code.as_fn() };
    }

    #[test]
    #[allow(clippy::len_zero)] // the agreement IS what's under test
    fn is_empty_agrees_with_len() {
        let mut mem = ExecMem::new(1).unwrap();
        assert_eq!(mem.is_empty(), mem.len() == 0);
        assert!(!mem.is_empty());
        mem.as_mut_slice()[0] = 0xc3;
        let code = mem.finalize().unwrap();
        assert_eq!(code.is_empty(), code.len() == 0);
        assert!(!code.is_empty());
    }

    #[test]
    fn guard_pages_bracket_the_region() {
        let mem = ExecMem::new(PAGE).unwrap();
        // The usable region excludes the guards: addr is one page into
        // the mapping and len covers only the requested storage.
        assert_eq!(mem.addr() % PAGE as u64, 0);
        assert_eq!(mem.len(), PAGE);
        assert_eq!(mem.addr(), mem.map as u64 + GUARD_BYTES as u64);
    }

    /// Serializes tests that touch the ≥2-page pool classes: the pool is
    /// process-wide and these tests reason about park/adopt ordering.
    /// (The 1-page class is left to the other tests and never asserted
    /// on.)
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn pool_recycles_and_zeroes() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Use a class (4 pages) no unserialized test allocates, so the
        // park → adopt round trip below is deterministic.
        let before = pool_stats();
        let mut mem = ExecMem::new(4 * PAGE).unwrap();
        let first_addr = mem.addr();
        mem.as_mut_slice().fill(0xcc);
        drop(mem); // parks (the class cannot be at cap: we only ever hold one)
        let mut mem = ExecMem::new(4 * PAGE).unwrap();
        let after = pool_stats();
        // Same thread, same shard, nothing else uses this class: the
        // parked mapping must come back, scrubbed.
        assert_eq!(mem.addr(), first_addr);
        assert!(after.hits > before.hits);
        assert!(after.parked > before.parked);
        assert!(mem.as_mut_slice().iter().all(|&b| b == 0));
        // Finalized code parks the same way whatever it says it wrote:
        // a bounded claim scrubs that prefix, no claim scrubs it all,
        // and either way the whole mapping comes back zero.
        for written in [0, 1, 100, PAGE - 1, PAGE, PAGE + 1, 4 * PAGE, usize::MAX] {
            let dirtied = written.min(4 * PAGE);
            mem.as_mut_slice()[..dirtied].fill(0xcc);
            drop(mem.finalize_written(written).unwrap());
            mem = ExecMem::new(4 * PAGE).unwrap();
            assert_eq!(mem.addr(), first_addr);
            assert!(
                mem.as_mut_slice().iter().all(|&b| b == 0),
                "stale bytes survived parking after finalize_written({written})"
            );
        }
        mem.as_mut_slice().fill(0xcc);
        drop(mem.finalize().unwrap());
        let mut mem = ExecMem::new(4 * PAGE).unwrap();
        assert_eq!(mem.addr(), first_addr);
        assert!(mem.as_mut_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn pool_class_rounding_is_power_of_two() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mem = ExecMem::new(3 * PAGE).unwrap();
        assert_eq!(mem.len(), 4 * PAGE);
        let mem = ExecMem::new(5 * PAGE).unwrap();
        assert_eq!(mem.len(), 8 * PAGE);
    }

    #[test]
    fn pool_retention_cap_evicts() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Fill one class (8 pages) past its retention cap; the extras
        // must be unmapped, not hoarded.
        let before = pool_stats();
        let held: Vec<ExecMem> = (0..RETAIN_PER_CLASS + 3)
            .map(|_| ExecMem::new(8 * PAGE).unwrap())
            .collect();
        drop(held);
        let after = pool_stats();
        assert!(after.evicted > before.evicted);
        assert!(after.currently_parked <= SHARDS * NUM_CLASSES * RETAIN_PER_CLASS);
    }

    #[test]
    fn drain_pool_releases_parked_mappings() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        drop(ExecMem::new(16 * PAGE).unwrap());
        assert!(pool_stats().currently_parked > 0);
        // At minimum our 16-page mapping is released. (Unserialized
        // tests may repark 1-page mappings immediately after, so the
        // pool emptying is asserted via the return value, not a second
        // stats read.)
        assert!(drain_pool() >= 1);
    }

    #[test]
    fn oversized_request_reports_enomem_without_panicking() {
        let err = ExecMem::new(usize::MAX).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(12)); // ENOMEM
        let err = ExecMem::new(usize::MAX - PAGE).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(12));
    }

    #[test]
    fn huge_requests_bypass_the_pool() {
        let mem = ExecMem::new((MAX_POOL_PAGES + 1) * PAGE).unwrap();
        // Unpooled requests round to the page, not a power of two — and
        // a non-power-of-two page count is exactly what `pooled()`
        // rejects, so the drop below unmaps rather than parks.
        assert_eq!(mem.len(), (MAX_POOL_PAGES + 1) * PAGE);
        drop(mem);
    }

    #[test]
    fn finalized_code_parks_on_drop_and_is_reusable() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut mem = ExecMem::new(2 * PAGE).unwrap();
        mem.as_mut_slice()[0] = 0xc3; // ret
        let code = mem.finalize().unwrap();
        // A bare `ret` returns whatever is in rax; the call itself is
        // the assertion (the mapping must be executable).
        // SAFETY: the buffer holds a complete emitted function of this arity.
        let _ = unsafe { code.call0() };
        let before = pool_stats();
        drop(code);
        let after = pool_stats();
        assert!(after.parked > before.parked || after.evicted > before.evicted);
        // A fresh allocation of the class must be writable and zeroed
        // even though the parked mapping held executable code.
        let mut mem = ExecMem::new(2 * PAGE).unwrap();
        assert!(mem.as_mut_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn drop_unmaps_code() {
        // The documented drop hazard: as_fn's pointer outlives the
        // borrow. This test exercises the *safe* ordering — pointer use
        // strictly before drop — and then confirms the mapping is gone
        // by remapping fresh memory (the kernel may reuse the range;
        // either way nothing dangles if the ordering is respected).
        let mut mem = ExecMem::new(64).unwrap();
        let code_bytes = [0x48, 0x89, 0xf8, 0xc3]; // mov rax, rdi; ret
        mem.as_mut_slice()[..code_bytes.len()].copy_from_slice(&code_bytes);
        let code = mem.finalize().unwrap();
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let f: extern "C" fn(u64) -> u64 = unsafe { code.as_fn() };
        assert_eq!(f(7), 7);
        drop(code); // `f` must not be called past this point
        let _fresh = ExecMem::new(64).unwrap();
    }
}
