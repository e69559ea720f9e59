//! Labels and unresolved-jump records.
//!
//! Complete code generation includes jump resolution: VCODE marks where
//! jump and branch instructions occur in the instruction stream and, when
//! the client indicates code generation is finished, backpatches unresolved
//! jumps (paper §3.2). At a cost of a few words per label this is the only
//! bookkeeping VCODE keeps besides the emitted code itself.

use crate::error::Error;

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
    /// The pool's base, which `image_base` loads.
    Base,
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

/// Identifier of a literal-pool entry: the index of its first word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LitId(pub(crate) u32);

/// The per-function data section, laid out after the code and reclaimed
/// with it (paper §5.2): words from a base 8-byte aligned from the
/// function's entry, so aligned wherever code installed from there runs.
/// They hold constants that are no instruction's immediate, interned
/// once by bit pattern, and client tables (DPF's dispatch tables, tcc's
/// callee distances), each at a displacement known when it is made.
#[derive(Debug, Default)]
pub struct LiteralPool {
    words: Vec<u32>,
    /// What is known of the words besides their values. (Two vectors and
    /// nothing else: every session moves its assembler state, and a
    /// larger one made the host's copy of it cost more.)
    marks: Vec<Mark>,
}

/// A fact about a [`LiteralPool`]'s words.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// A constant's bits, size in bytes and first word.
    Lit(u64, u8, usize),
    /// A word set to a label's distance back from the base.
    Label(usize, Label),
    /// The base is placed even if the pool holds nothing.
    Base,
}

impl LiteralPool {
    /// Creates an empty pool.
    pub fn new() -> LiteralPool {
        LiteralPool::default()
    }

    /// Interns a value with the given size (4 or 8 bytes), returning its id.
    pub fn intern(&mut self, bits: u64, size: u8) -> LitId {
        debug_assert!(size == 4 || size == 8);
        let old = self.marks.iter().find_map(|&m| match m {
            Mark::Lit(b, s, word) if (b, s) == (bits, size) => Some(word),
            _ => None,
        });
        let word = old.unwrap_or_else(|| {
            let word = match size {
                8 => self.table(1, [bits as u32, (bits >> 32) as u32]),
                _ => self.table(1, [bits as u32]),
            };
            self.marks.push(Mark::Lit(bits, size, word));
            word
        });
        LitId(word as u32)
    }

    /// Interns an `f32` constant.
    pub fn intern_f32(&mut self, v: f32) -> LitId {
        self.intern(v.to_bits() as u64, 4)
    }

    /// Interns an `f64` constant.
    pub fn intern_f64(&mut self, v: f64) -> LitId {
        self.intern(v.to_bits(), 8)
    }

    /// Appends a table of `len` entries of `W` words, each `fill` to
    /// start with, 8-byte aligned so that an entry of two words is one
    /// load: the index of its first word (its displacement from the base
    /// is four times that).
    pub fn table<const W: usize>(&mut self, len: usize, fill: [u32; W]) -> usize {
        if self.words.len() % 2 == 1 {
            self.words.push(0);
        }
        let first = self.words.len();
        self.words.extend(std::iter::repeat_n(fill, len).flatten());
        first
    }

    /// Sets word `word` to `value`.
    pub fn set(&mut self, word: usize, value: u32) {
        self.words[word] = value;
    }

    /// Sets word `word` to `l`'s distance back from the base once
    /// [`emit`](Self::emit) has placed both.
    pub fn set_label(&mut self, word: usize, l: Label) {
        self.marks.push(Mark::Label(word, l));
    }

    /// Places the base even while the pool holds nothing: for
    /// `image_base`, or a function handed the base (a DPF classifier).
    pub fn place_base(&mut self) {
        self.marks.push(Mark::Base);
    }

    /// `true` when nothing was interned, tabled or based.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.marks.is_empty()
    }

    /// Number of interned constants.
    pub fn len(&self) -> usize {
        self.marks
            .iter()
            .filter(|m| matches!(m, Mark::Lit(..)))
            .count()
    }

    /// Lays the pool out after the code — zero pad to a multiple of 8
    /// bytes from `entry`, then the words — and returns the base's offset
    /// (the cursor, for an empty pool).
    ///
    /// # Errors
    ///
    /// [`Error::UnboundLabel`] for a word set to a label never placed,
    /// [`Error::BranchOutOfRange`] for a pool past `i32::MAX` bytes.
    pub fn emit(
        &mut self,
        buf: &mut crate::buf::CodeBuffer<'_>,
        entry: usize,
        labels: &LabelMap,
    ) -> Result<usize, Error> {
        if self.is_empty() {
            return Ok(buf.len());
        }
        for _ in 0..entry.wrapping_sub(buf.len()) % 8 {
            buf.put_u8(0);
        }
        let base = buf.len();
        for &m in &self.marks {
            if let Mark::Label(word, l) = m {
                let off = labels.offset(l).ok_or(Error::UnboundLabel(l))?;
                // Code precedes its pool: the distance back is positive.
                self.words[word] = (base - off) as u32;
            }
        }
        for &word in &self.words {
            buf.put_u32(word);
        }
        if buf.len().saturating_sub(entry) > i32::MAX as usize {
            let dest = buf.len();
            return Err(Error::BranchOutOfRange { at: base, dest });
        }
        Ok(base)
    }

    /// Where `id` sits, in bytes from the base.
    pub fn offset(&self, id: LitId) -> usize {
        4 * id.0 as usize
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
    fn pool_aligns_doubles_from_the_entry() {
        let mut p = LiteralPool::new();
        let f = p.intern_f32(2.0);
        let d = p.intern_f64(3.0);
        let mut mem = [0u8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        buf.put_u8(0x90); // force misalignment
        assert_eq!(p.emit(&mut buf, 0, &LabelMap::new()), Ok(8));
        assert_eq!((p.offset(f), p.offset(d)), (0, 8));
        assert_eq!(buf.read_u32(8 + p.offset(f)), 2.0f32.to_bits());
        assert_eq!(
            buf.read_u32(12 + p.offset(d)),
            (3.0f64.to_bits() >> 32) as u32
        );
    }

    #[test]
    fn empty_pool_emits_nothing() {
        let mut p = LiteralPool::new();
        let mut mem = [0u8; 8];
        let mut buf = CodeBuffer::new(&mut mem);
        buf.put_u8(0x90);
        assert_eq!(p.emit(&mut buf, 0, &LabelMap::new()), Ok(1));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn pool_tables_sit_at_their_displacements() {
        let mut p = LiteralPool::new();
        let mut labels = LabelMap::new();
        let l = labels.fresh();
        labels.bind(l, 5);
        let one = p.table(1, [7]);
        let pairs = p.table(2, [1, 2]);
        p.set(pairs + 2, 9);
        p.set_label(pairs + 3, l);
        let d = p.intern_f64(3.0);
        assert_eq!((one, pairs), (0, 2));
        let mut mem = [0xaau8; 64];
        let mut buf = CodeBuffer::new(&mut mem);
        for _ in 0..6 {
            buf.put_u8(0x90);
        }
        // Entry 3: the base is 8 bytes on from it, at 11.
        let base = p.emit(&mut buf, 3, &labels).unwrap();
        assert_eq!(base, 11);
        let words: Vec<u32> = (0..6).map(|i| buf.read_u32(base + 4 * i)).collect();
        assert_eq!(words, [7, 0, 1, 2, 9, 11 - 5]);
        assert_eq!((p.offset(d), buf.len()), (24, base + 32));
        assert_eq!(&buf.as_slice()[6..11], [0; 5]);
    }

    #[test]
    fn a_placed_base_pads_an_empty_pool() {
        let mut p = LiteralPool::new();
        p.place_base();
        let mut mem = [0u8; 16];
        let mut buf = CodeBuffer::new(&mut mem);
        buf.put_u8(0x90);
        assert_eq!(p.emit(&mut buf, 0, &LabelMap::new()), Ok(8));
    }
}
