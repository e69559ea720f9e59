//! The in-place code buffer.
//!
//! VCODE generates machine code *in place*: each instruction is encoded and
//! stored directly at the instruction pointer, into storage the client
//! provided (paper §3, §5.1). [`CodeBuffer`] is that instruction pointer: a
//! borrowed byte region plus a cursor. Other than the emitted instructions
//! themselves, VCODE only ever stores label offsets and unresolved jumps —
//! never a representation proportional to the number of instructions.
//!
//! Emission never panics on exhaustion; the buffer latches an overflow flag
//! that [`Assembler::end`](crate::Assembler::end) reports as an error.
//!
//! # The zero-check fast path
//!
//! The paper's headline claim is raw emission speed (~6–10 host
//! instructions per generated instruction, §1/§5.1), which is won or lost
//! in the innermost store. Two mechanisms keep that store check-free:
//!
//! - **Fixed-width appends** ([`put_u16`](CodeBuffer::put_u16) /
//!   [`put_u32`](CodeBuffer::put_u32) / [`put_u64`](CodeBuffer::put_u64))
//!   perform one capacity compare and then a single unaligned word store —
//!   a RISC backend emits each instruction as exactly one `u32` store, the
//!   paper's Figure 2 `_addu` discipline.
//! - **Reservation windows** ([`window`](CodeBuffer::window)) pay one
//!   capacity check for a whole variable-length instruction (x86-64:
//!   prefix/REX/opcode/modrm/SIB/immediate) and hand back a [`Win`] whose
//!   writes are *branch-free* raw-pointer stores: when the reservation
//!   does not fit (or the buffer is in [`EmitPath::Bytewise`] mode) the
//!   window points at an internal spill scratch instead, and the bytes
//!   are replayed through the per-byte checked path when the window
//!   drops — so near-capacity emission behaves exactly like the seed
//!   per-byte implementation, without a mode test on any write.
//!
//! Both funnel through one generic checked/unchecked pair
//! (`put_array` / `Win::array`), so byte order is decided in a single
//! place. The hot paths branch on a single precomputed `cap` field —
//! `EmitPath::Bytewise` simply sets `cap = 0`, routing every multi-byte
//! append through the same per-byte reference code the seed used, with
//! zero extra tests on the production path. All `unsafe` in the emission
//! hot path is confined to this module, and every unchecked write is
//! dominated by the window's capacity check (re-asserted in debug
//! builds).
//!
//! For differential testing, [`EmitPath::Bytewise`] forces every append —
//! including window writes — through the per-byte checked reference path;
//! `tests/differential.rs` proves both paths produce identical machine
//! code over the full regression corpus on all four backends.

/// Which write path a [`CodeBuffer`] uses.
///
/// `Fast` is the production path: one capacity check per instruction (or
/// per fixed-width word), then unchecked stores. `Bytewise` is the
/// reference path — every byte individually bounds-checked, exactly the
/// seed implementation — kept so the fast path can be differentially
/// tested against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitPath {
    /// Single-check windows and word stores (production).
    #[default]
    Fast,
    /// Per-byte checked appends (differential-testing reference).
    Bytewise,
}

/// Upper bound on a [`CodeBuffer::window`] reservation, sized by the
/// spill scratch that backs reservations which don't fit in the
/// remaining storage. The largest reservation in the tree is the x86-64
/// encoder's 16-byte instruction bound.
pub const WIN_MAX: usize = 32;

/// The most a [`CodeBuffer`] can have stored *past* its final cursor.
/// [`put_word`](CodeBuffer::put_word) stores 8 bytes and advances by
/// fewer; a direct [`window`](CodeBuffer::window) stores only inside its
/// reservation, at most [`WIN_MAX`] bytes from where the cursor stood;
/// every other append stores exactly what it advances by, and patches
/// land below the cursor. So an append that began with the cursor at `c`
/// stores below `c + WIN_MAX` — and the cursor is never below `c` again:
/// a later append begins where an earlier one ended, and the one way back,
/// [`retract`](CodeBuffer::retract), only gives up bytes of the latest
/// append. So when emission ends at `len`, every byte at or past
/// `len + MAX_OVERSTORE` is as the client handed it over — which is what
/// lets pooled executable memory scrub a finished lambda's dirty prefix
/// instead of its whole mapping.
pub const MAX_OVERSTORE: usize = WIN_MAX;

/// A byte buffer with a cursor, backing in-place code emission.
///
/// The buffer borrows client storage, exactly like the paper's
/// `v_lambda(..., ip)` taking "a pointer to memory where the code will be
/// stored" — for native execution the storage is an executable mapping, for
/// simulated targets an ordinary `Vec<u8>`.
#[derive(Debug)]
pub struct CodeBuffer<'m> {
    mem: &'m mut [u8],
    len: usize,
    /// Capacity as seen by the single-check fast paths: `mem.len()`
    /// normally, 0 in [`EmitPath::Bytewise`] mode so every multi-byte
    /// append falls through to the per-byte reference path. Encoding the
    /// mode in the bound keeps the hot path to exactly one compare.
    cap: usize,
    overflow: bool,
    /// Scratch backing for reservations that don't fit (see [`Win`]).
    spill: [u8; WIN_MAX],
}

/// Generates the little-endian fixed-width appends for both the checked
/// ([`CodeBuffer`]) and unchecked ([`Win`]) paths from one definition, so
/// the endianness decision exists in exactly one place per width.
macro_rules! le_appends {
    ($($width:literal, $put:ident, $win:ident: $t:ty;)*) => {
        impl<'m> CodeBuffer<'m> {
            $(
                #[doc = concat!("Appends a little-endian ", $width,
                    "-bit value: one capacity check, one store.")]
                #[inline]
                pub fn $put(&mut self, v: $t) {
                    self.put_array(v.to_le_bytes());
                }
            )*
        }
        impl<'b, 'm> Win<'b, 'm> {
            $(
                #[doc = concat!("Writes a little-endian ", $width,
                    "-bit value (unchecked; covered by the reservation).")]
                #[inline]
                pub fn $win(&mut self, v: $t) {
                    self.array(v.to_le_bytes());
                }
            )*
        }
    };
}

le_appends! {
    "16", put_u16, u16: u16;
    "32", put_u32, u32: u32;
    "64", put_u64, u64: u64;
}

impl<'m> CodeBuffer<'m> {
    /// Wraps client-provided storage (fast path).
    pub fn new(mem: &'m mut [u8]) -> CodeBuffer<'m> {
        Self::with_path(mem, EmitPath::Fast)
    }

    /// Wraps client-provided storage with an explicit write path.
    pub fn with_path(mem: &'m mut [u8], path: EmitPath) -> CodeBuffer<'m> {
        let cap = match path {
            EmitPath::Fast => mem.len(),
            EmitPath::Bytewise => 0,
        };
        CodeBuffer {
            mem,
            len: 0,
            cap,
            overflow: false,
            spill: [0; WIN_MAX],
        }
    }

    /// Bytes emitted so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing has been emitted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total capacity of the client storage.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mem.len()
    }

    /// `true` once any write has been dropped for lack of space.
    #[inline]
    pub fn overflowed(&self) -> bool {
        self.overflow
    }

    /// The emitted code.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.mem[..self.len]
    }

    /// Appends one byte. This *is* the per-byte reference path: one
    /// compare against the true capacity, identical in both emit modes.
    #[inline(always)]
    pub fn put_u8(&mut self, b: u8) {
        if self.len < self.mem.len() {
            // SAFETY: `len < mem.len()` was just checked.
            unsafe {
                *self.mem.get_unchecked_mut(self.len) = b;
            }
            self.len += 1;
        } else {
            self.overflow = true;
        }
    }

    /// Slow path of [`put_array`](Self::put_array) /
    /// [`put_slice`](Self::put_slice) / spilled-window replay: bytewise
    /// reference mode, a spill replay near capacity, or a true overflow.
    /// Outlined so the append fast paths stay a compare plus a store.
    #[cold]
    #[inline(never)]
    fn put_bytes_cold(&mut self, bytes: &[u8], whole_or_nothing: bool) {
        if self.len + bytes.len() <= self.mem.len() {
            // Fits in the real storage (bytewise mode, or a spilled
            // window whose content turned out to fit).
            self.mem[self.len..self.len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len();
        } else if whole_or_nothing {
            // Fast-path overflow: drop the whole run (a partial
            // instruction word is never emitted) and latch.
            self.overflow = true;
        } else {
            // Per-byte reference semantics: land what fits, then latch.
            for &b in bytes {
                self.put_u8(b);
            }
        }
    }

    /// Appends `N` bytes with one capacity check and one fixed-width
    /// store — the generic *checked* append every `put_u16/u32/u64`
    /// routes through ([`Win::array`] is its unchecked twin). On
    /// overflow the whole array is dropped in fast mode (a partial
    /// instruction is never emitted) and the latch is set; bytewise mode
    /// keeps the per-byte reference semantics.
    #[inline(always)]
    pub fn put_array<const N: usize>(&mut self, bytes: [u8; N]) {
        if self.len + N <= self.cap {
            // SAFETY: `cap <= mem.len()`, so `len + N <= mem.len()`; the
            // store is unaligned-safe (`*mut [u8; N]` has alignment 1).
            unsafe {
                self.mem
                    .as_mut_ptr()
                    .add(self.len)
                    .cast::<[u8; N]>()
                    .write_unaligned(bytes);
            }
            self.len += N;
        } else {
            self.put_bytes_cold(&bytes, self.cap != 0);
        }
    }

    /// Appends the low `n` bytes of a little-endian packed instruction
    /// word with **one** capacity check and **one** 8-byte store — the
    /// degenerate single-store form of [`window`](Self::window) for
    /// instructions whose entire encoding fits in a `u64`. The store
    /// always writes 8 bytes (the bytes past `n` are scratch that the
    /// next append overwrites), so the check conservatively requires 8
    /// bytes of headroom; shorter tails fall back to the checked
    /// per-byte path, preserving the seed near-capacity semantics.
    #[inline(always)]
    pub fn put_word(&mut self, word: u64, n: usize) {
        debug_assert!(n <= 8, "packed word longer than 8 bytes");
        if self.len + 8 <= self.cap {
            // SAFETY: `cap <= mem.len()`, so the full 8-byte scratch
            // store is in-bounds; `*mut u64` unaligned store is fine.
            unsafe {
                self.mem
                    .as_mut_ptr()
                    .add(self.len)
                    .cast::<u64>()
                    .write_unaligned(word.to_le());
            }
            self.len += n;
        } else {
            let bytes = word.to_le_bytes();
            self.put_bytes_cold(&bytes[..n], false);
        }
    }

    /// Appends raw bytes (runtime length). Whole-slice semantics like
    /// [`put_array`](Self::put_array): on overflow nothing is written
    /// (fast mode).
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end <= self.cap {
            self.mem[self.len..end].copy_from_slice(bytes);
            self.len = end;
        } else {
            self.put_bytes_cold(bytes, self.cap != 0);
        }
    }

    /// Reserves a write window of at most `n` bytes (`n <=` [`WIN_MAX`]):
    /// one capacity check covering every write made through the returned
    /// [`Win`]. When the reservation fits, window writes are branch-free
    /// raw stores into the buffer; otherwise (including `Bytewise` mode)
    /// they land in an internal spill scratch that is replayed through
    /// the checked path when the window drops — so near-capacity
    /// emission behaves exactly like the seed per-byte implementation
    /// (partial bytes may land, the overflow latch is set when storage
    /// runs out, and [`Assembler::end`](crate::Assembler::end) reports
    /// the error).
    ///
    /// A reservation is a *bound*, not a commitment: the cursor advances
    /// only by what is actually written.
    #[inline]
    pub fn window(&mut self, n: usize) -> Win<'_, 'm> {
        debug_assert!(n <= WIN_MAX, "reservation exceeds WIN_MAX");
        let spilled = self.len + n > self.cap;
        let base = if spilled {
            self.spill.as_mut_ptr()
        } else {
            // SAFETY: `len + n <= cap <= mem.len()`, so `base + len` is
            // in-bounds.
            unsafe { self.mem.as_mut_ptr().add(self.len) }
        };
        Win {
            ptr: base,
            base,
            bias: self.len,
            spilled,
            end: n,
            buf: self,
        }
    }

    /// Moves the cursor back to `to`, giving up the tail of the latest
    /// append — the only way the cursor ever moves back. The assembler
    /// uses it to take back a jump whose target turned out to be the
    /// byte after it. `to` must not be below where the latest append
    /// began ([`MAX_OVERSTORE`] rests on that), and whoever calls this
    /// owns every record of an offset in `to..len`: labels, fixups,
    /// verifier marks. The given-up bytes stay as stored until the next
    /// append overwrites them.
    #[inline]
    pub fn retract(&mut self, to: usize) {
        debug_assert!(to <= self.len, "retract moves the cursor back");
        debug_assert!(
            self.len - to <= WIN_MAX,
            "retract gives up more than one append"
        );
        self.len = to;
    }

    /// Reserves `n` bytes (filled with `fill`) and returns the offset of
    /// the reserved region. Used to hold space for prologue code whose
    /// contents are only known when generation finishes (paper §5.2).
    pub fn reserve(&mut self, n: usize, fill: u8) -> usize {
        let at = self.len;
        if self.len + n <= self.cap {
            self.mem[self.len..self.len + n].fill(fill);
            self.len += n;
        } else {
            for _ in 0..n {
                self.put_u8(fill);
            }
        }
        at
    }

    /// Pads with `fill` until the cursor is `align`-aligned (power of two).
    pub fn align_to(&mut self, align: usize, fill: u8) {
        debug_assert!(align.is_power_of_two());
        while !self.len.is_multiple_of(align) {
            if self.len == self.mem.len() {
                // Full and still unaligned: latch instead of spinning on
                // a put that can no longer advance the cursor.
                self.overflow = true;
                return;
            }
            self.put_u8(fill);
        }
    }

    /// Overwrites one byte at `at` (must be below the cursor, unless the
    /// buffer has already overflowed — then the cursor froze while
    /// offsets kept advancing, the patch target was never emitted, and
    /// the write is dropped; `end()` reports the overflow).
    #[inline]
    pub fn patch_u8(&mut self, at: usize, b: u8) {
        debug_assert!(at < self.len || self.overflow, "patch past cursor");
        if at < self.len {
            self.mem[at] = b;
        }
    }

    /// Overwrites a little-endian 32-bit value at `at`.
    #[inline]
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.patch_slice(at, &v.to_le_bytes());
    }

    /// Overwrites raw bytes at `at` (same overflow tolerance as
    /// [`patch_u8`](Self::patch_u8)).
    pub fn patch_slice(&mut self, at: usize, bytes: &[u8]) {
        let end = at + bytes.len();
        debug_assert!(end <= self.len || self.overflow, "patch past cursor");
        if end <= self.len {
            self.mem[at..end].copy_from_slice(bytes);
        }
    }

    /// Reads back a little-endian 32-bit value (for read-modify-write
    /// patches of already-emitted instructions). After an overflow the
    /// requested word may never have been emitted; reads of such
    /// offsets return 0 rather than panicking (the overflow is latched
    /// and reported by `end()`).
    pub fn read_u32(&self, at: usize) -> u32 {
        match self.mem.get(at..at + 4) {
            Some(s) => {
                let mut b = [0u8; 4];
                b.copy_from_slice(s);
                u32::from_le_bytes(b)
            }
            None => {
                debug_assert!(self.overflow, "read past capacity");
                0
            }
        }
    }

    /// Reads back one byte (same overflow tolerance as
    /// [`read_u32`](Self::read_u32)).
    pub fn read_u8(&self, at: usize) -> u8 {
        match self.mem.get(at) {
            Some(&b) => b,
            None => {
                debug_assert!(self.overflow, "read past capacity");
                0
            }
        }
    }
}

/// A reserved write window over a [`CodeBuffer`] (see
/// [`CodeBuffer::window`]): the capacity check was paid once up front, so
/// every write is a branch-free raw-pointer store advancing a cursor
/// register — no length-field traffic and no mode tests until the window
/// drops and commits. Reservations that didn't fit write into a spill
/// scratch and are replayed through the checked path on drop, which both
/// preserves the seed's exact near-capacity behavior and implements the
/// [`EmitPath::Bytewise`] differential reference mode.
///
/// Dropping a window mid-instruction keeps whatever was written, exactly
/// like the per-byte path.
#[derive(Debug)]
pub struct Win<'b, 'm> {
    buf: &'b mut CodeBuffer<'m>,
    /// Write cursor. Every write is `*ptr = ...; ptr += width`.
    ptr: *mut u8,
    /// Where this window's writes started (buffer cursor or spill start).
    base: *mut u8,
    /// Logical buffer offset at `base`, so [`len`](Self::len) is uniform
    /// across direct and spilled windows.
    bias: usize,
    /// Whether writes land in the spill scratch (replayed on drop).
    spilled: bool,
    /// Reservation size, asserted against in debug builds; the release
    /// fast path's safety argument is the `window()` capacity check plus
    /// the documented `n <= WIN_MAX` bound.
    end: usize,
}

impl<'b, 'm> Win<'b, 'm> {
    /// Bytes written through this window so far.
    #[inline]
    fn written(&self) -> usize {
        // SAFETY: `ptr` is derived from `base` and stays within the same
        // allocation (buffer or spill scratch).
        unsafe { self.ptr.offset_from(self.base) as usize }
    }

    /// Current *logical* buffer offset (for recording fixup positions):
    /// what [`CodeBuffer::len`] will report here once the window commits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bias + self.written()
    }

    /// `true` if the logical cursor is still at offset zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, b: u8) {
        debug_assert!(self.written() < self.end, "write past reservation");
        // SAFETY: the reservation check in `window()` guarantees every
        // cursor position below the reservation bound is in-bounds (in
        // the buffer or the spill scratch).
        unsafe {
            *self.ptr = b;
            self.ptr = self.ptr.add(1);
        }
    }

    /// Writes `N` bytes as one store — the generic *unchecked* twin of
    /// [`CodeBuffer::put_array`].
    #[inline]
    pub fn array<const N: usize>(&mut self, bytes: [u8; N]) {
        debug_assert!(self.written() + N <= self.end, "write past reservation");
        // SAFETY: covered by the reservation (see `u8`); `*mut [u8; N]`
        // has alignment 1 so the unaligned store is fine.
        unsafe {
            self.ptr.cast::<[u8; N]>().write_unaligned(bytes);
            self.ptr = self.ptr.add(N);
        }
    }

    /// Writes the low `n` bytes of a little-endian packed word (byte `k`
    /// of the instruction in bits `8k..8k+8`) as a single 8-byte store,
    /// advancing the cursor by `n`. The full 8 bytes are stored — the
    /// tail past `n` is scratch the next write overwrites — so the
    /// reservation must leave 8 bytes of slack after the cursor. This is
    /// how a variable-length encoder (x86-64) commits a whole
    /// prefix/REX/opcode/modrm head with one store and zero branches.
    #[inline]
    pub fn word(&mut self, word: u64, n: usize) {
        debug_assert!(n <= 8, "packed word is at most 8 bytes");
        debug_assert!(
            self.written() + 8 <= self.end,
            "word needs 8 bytes of slack"
        );
        // SAFETY: the reservation covers 8 bytes from the cursor (debug
        // asserted; callers reserve a full instruction bound).
        unsafe {
            self.ptr
                .cast::<[u8; 8]>()
                .write_unaligned(word.to_le_bytes());
            self.ptr = self.ptr.add(n);
        }
    }
}

impl<'b, 'm> Drop for Win<'b, 'm> {
    /// Commits the window: direct windows just store the new cursor;
    /// spilled windows replay their bytes through the checked per-byte
    /// path (landing what fits, latching overflow past capacity).
    #[inline]
    fn drop(&mut self) {
        let n = self.written();
        if !self.spilled {
            self.buf.len = self.bias + n;
        } else {
            let run: [u8; WIN_MAX] = self.buf.spill;
            self.buf.put_bytes_cold(&run[..n], false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_read_back() {
        let mut mem = [0u8; 16];
        let mut b = CodeBuffer::new(&mut mem);
        assert!(b.is_empty());
        b.put_u32(0xdead_beef);
        b.put_u8(0x90);
        assert_eq!(b.len(), 5);
        assert_eq!(b.read_u32(0), 0xdead_beef);
        assert_eq!(b.as_slice()[4], 0x90);
        assert!(!b.overflowed());
    }

    #[test]
    fn overflow_latches_instead_of_panicking() {
        let mut mem = [0u8; 6];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(1);
        b.put_u32(2); // does not fit
        assert!(b.overflowed());
        assert_eq!(b.len(), 4, "partial instruction is dropped whole-slice");
        b.put_u8(7); // still room for a byte? no: slice write already failed
        assert!(b.overflowed());
    }

    #[test]
    fn reserve_and_patch() {
        let mut mem = [0u8; 32];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(0x1111_1111);
        let hole = b.reserve(8, 0);
        b.put_u32(0x2222_2222);
        b.patch_u32(hole, 0xaaaa_aaaa);
        b.patch_u32(hole + 4, 0xbbbb_bbbb);
        assert_eq!(b.read_u32(hole), 0xaaaa_aaaa);
        assert_eq!(b.read_u32(hole + 4), 0xbbbb_bbbb);
        assert_eq!(b.read_u32(hole + 8), 0x2222_2222);
    }

    #[test]
    fn align_pads() {
        let mut mem = [0u8; 32];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u8(1);
        b.align_to(8, 0x90);
        assert_eq!(b.len(), 8);
        assert_eq!(b.as_slice()[1..8], [0x90; 7]);
        b.align_to(8, 0x90); // already aligned: no-op
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn endianness_is_little() {
        let mut mem = [0u8; 8];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(0x0102_0304);
        assert_eq!(b.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn window_writes_match_checked_path() {
        let mut fast_mem = [0u8; 32];
        let mut slow_mem = [0u8; 32];
        let mut fast = CodeBuffer::new(&mut fast_mem);
        let mut slow = CodeBuffer::with_path(&mut slow_mem, EmitPath::Bytewise);
        for b in [&mut fast, &mut slow] {
            let mut w = b.window(18);
            w.u8(0x48);
            w.u16(0x1234);
            w.u32(0xdead_beef);
            w.u64(0x0102_0304_0506_0708);
            w.array([9, 10, 11]);
            assert_eq!(w.len(), 18);
            drop(w);
        }
        assert_eq!(fast.as_slice(), slow.as_slice());
        assert_eq!(fast.len(), 18);
        assert!(!fast.overflowed() && !slow.overflowed());
    }

    #[test]
    fn window_reservation_is_a_bound_not_a_commitment() {
        let mut mem = [0u8; 32];
        let mut b = CodeBuffer::new(&mut mem);
        {
            let mut w = b.window(16);
            w.u8(0xc3); // only one byte actually written
        }
        assert_eq!(b.len(), 1);
        assert!(!b.overflowed());
    }

    #[test]
    fn window_beyond_capacity_degrades_to_checked_path() {
        let mut mem = [0u8; 6];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(0x1111_1111);
        // Reservation larger than what's left: the window still works,
        // spilling and replaying checked bytes until storage runs out,
        // then latching.
        let mut w = b.window(16);
        w.u8(1);
        w.u8(2);
        w.u8(3); // one more than fits
        assert_eq!(w.len(), 7, "logical offset keeps advancing");
        drop(w);
        assert_eq!(b.len(), 6, "what fit was committed byte-by-byte");
        assert_eq!(b.as_slice()[4..6], [1, 2]);
        assert!(b.overflowed());
    }

    #[test]
    fn window_at_exact_capacity_stays_full_without_overflow() {
        let mut mem = [0u8; 8];
        let mut b = CodeBuffer::new(&mut mem);
        let mut w = b.window(8);
        w.u64(0x0807_0605_0403_0201);
        drop(w);
        assert_eq!(b.len(), 8);
        assert!(!b.overflowed());
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        // The buffer is now exactly full; the next reservation spills
        // and its replay latches the overflow — typed error at `end()`,
        // never a panic.
        let mut w = b.window(1);
        w.u8(9);
        drop(w);
        assert!(b.overflowed());
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn put_word_without_scratch_headroom_lands_per_byte() {
        // 10-byte buffer with 6 bytes used: a 4-byte word fits, but the
        // 8-byte scratch store does not — the append must degrade to the
        // checked per-byte path and land every byte without latching.
        let mut mem = [0u8; 10];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(0);
        b.put_u16(0);
        b.put_word(0x0403_0201, 4);
        assert_eq!(b.len(), 10);
        assert!(!b.overflowed(), "the word fit exactly; no overflow");
        assert_eq!(b.as_slice()[6..], [1, 2, 3, 4]);
    }

    #[test]
    fn put_word_past_capacity_latches_cleanly() {
        let mut mem = [0u8; 6];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_u32(0xaaaa_aaaa);
        b.put_word(0x0403_0201, 4); // two bytes short
        assert!(b.overflowed());
        assert_eq!(b.len(), 6, "per-byte semantics: what fit was kept");
        assert_eq!(b.as_slice()[4..6], [1, 2]);
        // Appends after the latch stay inert — typed error at `end()`,
        // never a panic.
        b.put_word(0xffff_ffff, 4);
        assert!(b.overflowed());
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn put_word_matches_bytewise_path() {
        let mut fast_mem = [0u8; 32];
        let mut slow_mem = [0u8; 32];
        let mut fast = CodeBuffer::new(&mut fast_mem);
        let mut slow = CodeBuffer::with_path(&mut slow_mem, EmitPath::Bytewise);
        for b in [&mut fast, &mut slow] {
            b.put_word(0x90, 1);
            b.put_word(0x0000_1234, 3);
            b.put_word(0x0102_0304_0506_0708, 8);
        }
        assert_eq!(fast.as_slice(), slow.as_slice());
        assert_eq!(fast.len(), 12);
    }

    #[test]
    fn reserve_at_and_past_capacity_keeps_latch_semantics() {
        let mut mem = [0u8; 8];
        let mut b = CodeBuffer::new(&mut mem);
        // Exactly at capacity: bulk fill, no overflow.
        let at = b.reserve(8, 0x90);
        assert_eq!((at, b.len()), (0, 8));
        assert!(!b.overflowed());
        assert_eq!(b.as_slice(), &[0x90; 8]);
        // Past capacity: latches, never panics.
        b.reserve(1, 0);
        assert!(b.overflowed());
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn align_on_full_buffer_latches_instead_of_spinning() {
        let mut mem = [0u8; 6];
        let mut b = CodeBuffer::new(&mut mem);
        b.put_slice(&[1, 2, 3, 4, 5, 6]);
        assert!(!b.overflowed());
        // Full at an unaligned cursor: the pad can never land, so the
        // request must latch and return rather than loop on a dropped put.
        b.align_to(4, 0x90);
        assert!(b.overflowed());
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn bytewise_path_produces_identical_bytes() {
        let mut fast_mem = [0u8; 64];
        let mut slow_mem = [0u8; 64];
        let mut fast = CodeBuffer::new(&mut fast_mem);
        let mut slow = CodeBuffer::with_path(&mut slow_mem, EmitPath::Bytewise);
        for b in [&mut fast, &mut slow] {
            b.put_u8(0x90);
            b.put_u16(0xbeef);
            b.put_u32(0x0102_0304);
            b.put_u64(0x1122_3344_5566_7788);
            b.put_slice(&[1, 2, 3, 4, 5]);
            b.align_to(4, 0x90);
        }
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn bytewise_overflow_is_per_byte() {
        // The reference path writes bytes until full — the seed per-byte
        // behavior — unlike the fast path's whole-array drop.
        let mut mem = [0u8; 6];
        let mut b = CodeBuffer::with_path(&mut mem, EmitPath::Bytewise);
        b.put_u32(0x0403_0201);
        b.put_u32(0x0807_0605);
        assert!(b.overflowed());
        assert_eq!(b.len(), 6, "bytewise mode keeps the bytes that fit");
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5, 6]);
    }
    /// `MAX_OVERSTORE` is what pooled executable memory scrubs past a
    /// finished lambda: after any mix of appends and retractions of the
    /// latest append, stopped anywhere — mid-buffer, near capacity,
    /// overflowed, right after a retraction — no byte at or past
    /// `len + MAX_OVERSTORE` may have been stored to. (And the bound is
    /// not vacuous: packed-word stores do reach past the cursor.)
    #[test]
    fn nothing_is_stored_past_len_plus_max_overstore() {
        let mut rng = crate::regress::XorShift::new(0x0e57_07e5);
        let mut overstored = false;
        let mut retracted = 0;
        for cap in [40usize, 64, 257, 1024] {
            for _ in 0..200 {
                let mut mem = vec![0u8; cap];
                let mut b = CodeBuffer::new(&mut mem);
                for _ in 0..rng.below(2 * cap as u64 / 3) {
                    let n = rng.range(1, 8) as usize;
                    let began = b.len();
                    match rng.below(6) {
                        0 => b.put_u8(0xff),
                        1 => b.put_u32(u32::MAX),
                        2 => b.put_word(u64::MAX, n),
                        3 => {
                            let mut w = b.window(16);
                            w.word(u64::MAX, n);
                            w.u32(u32::MAX);
                        }
                        4 => {
                            let mut w = b.window(WIN_MAX);
                            for _ in 0..rng.below(3) {
                                w.word(u64::MAX, n);
                            }
                        }
                        _ => {
                            let at = b.reserve(n, 0xff);
                            b.patch_u8(at, 0xfe);
                        }
                    }
                    if rng.below(4) == 0 {
                        b.retract(rng.range(began as u64, b.len() as u64 + 1) as usize);
                        retracted += 1;
                    }
                }
                let len = b.len();
                let dirty_end = mem.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1);
                assert!(
                    dirty_end <= len + MAX_OVERSTORE,
                    "cap {cap}: stored up to {dirty_end}, cursor at {len}"
                );
                overstored |= dirty_end > len;
            }
        }
        assert!(
            overstored && retracted > 1000,
            "no append over-stored, or few were retracted: the corpus lost its point"
        );
    }
}
