//! Labels and unresolved-jump records.
//!
//! Complete code generation includes jump resolution: VCODE marks where
//! jump and branch instructions occur in the instruction stream and, when
//! the client indicates code generation is finished, backpatches unresolved
//! jumps (paper §3.2). At a cost of a few words per label this is the only
//! bookkeeping VCODE keeps besides the emitted code itself.

/// A code label, created with
/// [`Assembler::genlabel`](crate::Assembler::genlabel) and bound with
/// [`Assembler::label`](crate::Assembler::label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// The label's index (diagnostic use).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Offset table for labels; `UNBOUND` until `bind` is called.
#[derive(Debug, Default)]
pub struct LabelMap {
    offsets: Vec<usize>,
}

const UNBOUND: usize = usize::MAX;

impl LabelMap {
    /// Creates an empty map.
    pub const fn new() -> LabelMap {
        LabelMap {
            offsets: Vec::new(),
        }
    }

    /// Forgets every label, keeping the table's storage for the next
    /// session ([`SessionTables`](crate::asm::SessionTables)).
    pub(crate) fn clear(&mut self) {
        self.offsets.clear();
    }

    /// Allocates a fresh, unbound label.
    pub fn fresh(&mut self) -> Label {
        let l = Label(self.offsets.len() as u32);
        self.offsets.push(UNBOUND);
        l
    }

    /// Binds `label` to byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (a client bug the paper's C
    /// implementation would silently miscompile).
    pub fn bind(&mut self, label: Label, off: usize) {
        let slot = &mut self.offsets[label.0 as usize];
        assert_eq!(*slot, UNBOUND, "label {label:?} bound twice");
        *slot = off;
    }

    /// Binds `label` to byte offset `off` unless it was already bound,
    /// returning whether the binding took place. The verifier uses this
    /// to turn the rebinding panic of [`bind`](Self::bind) into a
    /// collected diagnostic.
    pub fn try_bind(&mut self, label: Label, off: usize) -> bool {
        let slot = &mut self.offsets[label.0 as usize];
        if *slot != UNBOUND {
            return false;
        }
        *slot = off;
        true
    }

    /// The offset `label` is bound to, if any.
    pub fn offset(&self, label: Label) -> Option<usize> {
        match self.offsets.get(label.0 as usize) {
            Some(&UNBOUND) | None => None,
            Some(&off) => Some(off),
        }
    }

    /// Number of labels allocated.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` when no labels exist.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Iterates over unbound labels (for error reporting at `end`).
    pub fn unbound(&self) -> impl Iterator<Item = Label> + '_ {
        self.offsets
            .iter()
            .enumerate()
            .filter(|(_, &o)| o == UNBOUND)
            .map(|(i, _)| Label(i as u32))
    }
}

/// What an unresolved instruction refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixupTarget {
    /// A client label.
    Label(Label),
    /// An entry in the function's floating-point literal pool
    /// (paper §5.2: constants are placed at the end of the instruction
    /// stream so their space is reclaimed with the function).
    Lit(LitId),
}

/// A recorded unresolved reference, resolved by the backend's
/// [`Target::patch`](crate::target::Target::patch) when generation ends.
///
/// `kind` is backend-defined (branch vs. jump vs. pc-relative load have
/// different encodings); the core treats it as opaque.
#[derive(Debug, Clone, Copy)]
pub struct Fixup {
    /// Byte offset of the instruction to patch.
    pub at: usize,
    /// What it refers to.
    pub target: FixupTarget,
    /// Backend-defined patch kind.
    pub kind: u8,
}

/// Identifier of a literal-pool entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LitId(pub(crate) u32);

/// The per-function constant pool for values that cannot be encoded as
/// instruction immediates — chiefly floating-point constants (paper §5.2),
/// but backends may also use it for far pointers.
///
/// Entries are deduplicated by bit pattern.
#[derive(Debug, Default)]
pub struct LiteralPool {
    entries: Vec<(u64, u8)>, // (bits, size in bytes)
    /// Byte offset of each entry once the pool has been emitted.
    offsets: Vec<usize>,
}

impl LiteralPool {
    /// Creates an empty pool.
    pub fn new() -> LiteralPool {
        LiteralPool::default()
    }

    /// Interns a value with the given size (4 or 8 bytes), returning its id.
    pub fn intern(&mut self, bits: u64, size: u8) -> LitId {
        debug_assert!(size == 4 || size == 8);
        if let Some(i) = self.entries.iter().position(|&e| e == (bits, size)) {
            return LitId(i as u32);
        }
        self.entries.push((bits, size));
        LitId(self.entries.len() as u32 - 1)
    }

    /// Interns an `f32` constant.
    pub fn intern_f32(&mut self, v: f32) -> LitId {
        self.intern(v.to_bits() as u64, 4)
    }

    /// Interns an `f64` constant.
    pub fn intern_f64(&mut self, v: f64) -> LitId {
        self.intern(v.to_bits(), 8)
    }

    /// `true` when nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pool entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Emits the pool at the end of the instruction stream and records
    /// entry offsets. 8-byte entries are laid out first so that a single
    /// 8-byte alignment suffices.
    pub fn emit(&mut self, buf: &mut crate::buf::CodeBuffer<'_>) {
        if self.entries.is_empty() {
            return;
        }
        buf.align_to(8, 0);
        self.offsets = vec![0; self.entries.len()];
        for size in [8u8, 4u8] {
            for (i, &(bits, sz)) in self.entries.iter().enumerate() {
                if sz != size {
                    continue;
                }
                self.offsets[i] = buf.len();
                if sz == 8 {
                    buf.put_u64(bits);
                } else {
                    buf.put_u32(bits as u32);
                }
            }
        }
    }

    /// Byte offset of `id` after [`emit`](Self::emit) has run.
    pub fn offset(&self, id: LitId) -> usize {
        self.offsets[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::CodeBuffer;

    #[test]
    fn fresh_bind_offset() {
        let mut m = LabelMap::new();
        let a = m.fresh();
        let b = m.fresh();
        assert_ne!(a, b);
        assert_eq!(m.offset(a), None);
        m.bind(a, 12);
        assert_eq!(m.offset(a), Some(12));
        assert_eq!(m.unbound().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut m = LabelMap::new();
        let a = m.fresh();
        m.bind(a, 0);
        m.bind(a, 4);
    }

    #[test]
    fn pool_dedups() {
        let mut p = LiteralPool::new();
        let a = p.intern_f64(1.5);
        let b = p.intern_f64(1.5);
        let c = p.intern_f32(1.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pool_emits_aligned_doubles_first() {
        let mut p = LiteralPool::new();
        let f = p.intern_f32(2.0);
        let d = p.intern_f64(3.0);
        let mut mem = [0u8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        buf.put_u8(0x90); // force misalignment
        p.emit(&mut buf);
        assert_eq!(p.offset(d) % 8, 0);
        assert_eq!(p.offset(d), 8);
        assert_eq!(p.offset(f), 16);
        assert_eq!(buf.read_u32(p.offset(f)), 2.0f32.to_bits());
    }

    #[test]
    fn empty_pool_emits_nothing() {
        let mut p = LiteralPool::new();
        let mut mem = [0u8; 8];
        let mut buf = CodeBuffer::new(&mut mem);
        p.emit(&mut buf);
        assert_eq!(buf.len(), 0);
    }
}
