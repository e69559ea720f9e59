//! Dynamic compilation of the merged filter trie.
//!
//! This is where DPF "exploits dynamic code generation in two ways: (1)
//! eliminating interpretation overhead by compiling packet filters to
//! executable code when they are installed into the kernel and (2) using
//! filter constants to aggressively optimize this executable code"
//! (paper §4.2). Concretely:
//!
//! - **switch lowering by runtime constants** — a multiway dispatch over
//!   the values concurrently-active filters expect is lowered the way
//!   optimizing compilers treat C `switch` statements: a small set is
//!   searched directly, sparse values by binary search, dense ranges by
//!   indexing a table;
//! - **hash-function selection** — for large sparse sets DPF picks a
//!   multiplier that hashes the *known* keys perfectly, "and then encodes
//!   the chosen function directly in the instruction stream";
//! - **collision-check elision** — because the keys are known at
//!   code-generation time and the chosen hash is collision-free among
//!   them, no chain walking is ever emitted (one compare remains to
//!   reject values that are not keys at all);
//! - **one table, two tails** — the dense index or the hash selects one
//!   table entry. When every arm just accepts a filter, the entry is its
//!   id and is returned, so which filter a packet matches is never a
//!   branch for the predictor to miss; otherwise it is the distance of
//!   the arm's code back from the tables, and the dispatch jumps there;
//! - **bounds-check elision** — a field load's length check is dropped
//!   when a check already performed on the path dominates it.
//!
//! Backtracking invariant: trying an alternative trie node must observe
//! the same dynamic base offset as its siblings, so `Shift` nodes spill
//! the running base and the fail path restores it.
//!
//! [`emit`] writes the classifier into any buffer as one image that
//! names no host address: the code, then its literal pool, the tables
//! it reads at fixed offsets from a data-base argument. [`compile`]
//! emits it into the thread's lowering scratch and installs it
//! right-sized ([`vcode_x64::emit_native`]); nothing is written after
//! that.

use crate::lang::FieldSize;
use crate::trie::{Arm, Key, Level, Node};
use std::fmt;
use vcode::regress::XorShift;
use vcode::target::Leaf;
use vcode::{Assembler, Finished, Label, Reg, RegClass};
use vcode_x64::{ExecCode, X64};

/// How many arms at most are dispatched by a linear compare chain.
const LINEAR_MAX: usize = 4;
/// Above this arm count a sparse set uses hashing instead of a branch
/// tree.
const HASH_MIN: usize = 16;
/// Multipliers [`Cg::gen_hash`] draws per table size. It starts at four
/// slots a key, where tens of draws find a perfect multiplier for the
/// few dozen keys a node usually has, and doubles the table rather than
/// search on.
const LOOKUP_TRIES: u32 = 64;
/// Most slots of a [`Cg::gen_hash`] table. One multiplier hashes `n`
/// keys perfectly only into about n²/8 slots, so the table, and the time
/// to fill it, grow with the square of the set. At 8 bytes a slot the
/// largest table is half the largest lowering scratch, which is also the
/// executable-memory pool's largest class: the table and its code are
/// emitted and installed without a mapping outside either (DESIGN.md
/// "Classification by data" has the sweep). Larger sets dispatch through
/// the branch tree.
const LOOKUP_MAX_SLOTS: usize = vcode::engine::SCRATCH_MAX / 16;

/// Dispatch-strategy usage counts (for tests and the ablation bench).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Strategies {
    /// Single-value nodes (plain compare-and-branch).
    pub single: u32,
    /// Linear compare chains.
    pub linear: u32,
    /// Binary-search branch trees.
    pub bst: u32,
    /// Dense-range table dispatches.
    pub table: u32,
    /// Perfect-hash dispatches.
    pub hash: u32,
}

/// Controls which dispatch strategies the compiler may use (the
/// ablation knobs; defaults enable everything).
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Allow table dispatch for dense value sets.
    pub use_jump_tables: bool,
    /// Allow perfect-hash dispatch for large sparse sets.
    pub use_hashing: bool,
    /// Elide dominated bounds checks.
    pub elide_bounds_checks: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            use_jump_tables: true,
            use_hashing: true,
            elide_bounds_checks: true,
        }
    }
}

/// Error from compiling a filter set.
#[derive(Debug)]
pub enum CompileError {
    /// Code generation failed.
    Codegen(vcode::Error),
    /// Could not obtain executable memory.
    Exec(std::io::Error),
    /// The classifier generator exhausted the target's temp register
    /// file (the `TooManyTemps` discipline: surface it, never panic).
    TooManyTemps,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Codegen(e) => write!(f, "{e}"),
            CompileError::Exec(e) => write!(f, "executable memory: {e}"),
            CompileError::TooManyTemps => {
                write!(f, "classifier generation exhausted the temp register file")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<vcode::Error> for CompileError {
    fn from(e: vcode::Error) -> CompileError {
        CompileError::Codegen(e)
    }
}

impl vcode::engine::LowerError for CompileError {
    fn overflowed(&self) -> bool {
        matches!(self, CompileError::Codegen(vcode::Error::Overflow { .. }))
    }
    fn no_memory(e: std::io::Error) -> CompileError {
        CompileError::Exec(e)
    }
}

/// A compiled classifier.
///
/// Safety of the generated code rests on the filter language's bounds
/// discipline: every field load is dominated by a check that
/// `offset + size <= len`, so the code never reads outside
/// `msg[..len]`.
pub struct CompiledSet {
    /// The installed image: the code, then its tables.
    code: ExecCode,
    entry: extern "C" fn(*const u8, u64, u64) -> i64,
    /// Where in `code` the tables start: the classifier's third argument.
    data: u64,
    /// Strategy usage.
    pub strategies: Strategies,
    /// Bytes of generated machine code.
    pub code_len: usize,
    /// VCODE instructions specified during generation.
    pub vcode_insns: u64,
}

impl fmt::Debug for CompiledSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSet")
            .field("code_len", &self.code_len)
            .field("strategies", &self.strategies)
            .finish()
    }
}

impl CompiledSet {
    /// Classifies a message; the id of the accepted filter.
    #[inline]
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        // The id is the low word of the result: one returned as an
        // immediate comes back sign-extended.
        let id = (self.entry)(msg.as_ptr(), msg.len() as u64, self.data) as u32;
        (id != NO_ID).then_some(id)
    }

    /// The emitted machine-code bytes (diagnostics: the classifier from
    /// its entry, `code_len` bytes, without the tables after them).
    pub fn code_bytes(&self) -> &[u8] {
        &self.code.bytes()[..self.code_len]
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PathState {
    /// Message length proven ≥ this many bytes on this path.
    checked: u32,
    /// A `Shift` executed: offsets are dynamic, loads go through the
    /// recomputed base pointer.
    shifted: bool,
}

struct Cg<'m> {
    a: Assembler<'m, X64>,
    msg: Reg,
    len: Reg,
    /// The data base: where the tables start.
    data: Reg,
    field: Reg,
    ptr: Reg,
    base: Reg,
    tmp: Reg,
    opts: Options,
    strategies: Strategies,
    rng: XorShift,
}

/// What a table dispatch selects for a key.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The id of the filter that every arm of the node just accepts:
    /// the entry is returned.
    Id(u32),
    /// The arm's code: the entry is its distance back from the data base,
    /// which the pool writes once the label is placed.
    Code(Label),
}

fn swap_val(v: u32, size: FieldSize) -> u32 {
    match size {
        FieldSize::U8 => v,
        FieldSize::U16 => u32::from((v as u16).swap_bytes()),
        FieldSize::U32 => v.swap_bytes(),
    }
}

impl<'m> Cg<'m> {
    /// Emits the length check dominating `node`'s field access, unless
    /// elided. Where one is due on a static path it checks the length
    /// the node's whole subtree needs ([`need`]), so the checks below it
    /// are elided too.
    fn bounds(&mut self, node: &Node, st: &mut PathState, fail: Label) {
        let field_end = field_end(node.key);
        if st.shifted {
            // Dynamic base: check base + field_end <= len at runtime.
            self.a.adduli(self.tmp, self.base, i64::from(field_end));
            self.a.bgtul(self.tmp, self.len, fail);
        } else if !self.opts.elide_bounds_checks {
            self.a.bltuli(self.len, i64::from(field_end), fail);
        } else if field_end > st.checked {
            st.checked = need(node);
            self.a.bltuli(self.len, i64::from(st.checked), fail);
        }
    }

    /// Loads a field (little-endian raw bits) into `self.field`.
    fn load_field(&mut self, offset: u32, size: FieldSize, st: PathState) {
        let bp = if st.shifted { self.ptr } else { self.msg };
        match size {
            FieldSize::U8 => self.a.lduci(self.field, bp, offset as i32),
            FieldSize::U16 => self.a.ldusi(self.field, bp, offset as i32),
            FieldSize::U32 => self.a.ldui(self.field, bp, offset as i32),
        }
    }

    /// Converts `self.field` from raw little-endian load to the
    /// big-endian value domain (needed by the dense table, which relies
    /// on the density of the real values, and by a `Shift`'s arithmetic).
    fn emit_value_domain(&mut self, size: FieldSize) {
        match size {
            FieldSize::U8 => {}
            FieldSize::U16 => {
                let (f, t) = (self.field, self.tmp);
                self.a.bswapus(f, f, t);
            }
            FieldSize::U32 => {
                // Native bswap on x86-64; a synthesized one never has its
                // two scratch registers live at once.
                let (f, t) = (self.field, self.tmp);
                self.a.bswapu(f, f, t, t);
            }
        }
    }

    fn ret_id(&mut self, id: u32) {
        self.a.seti(self.tmp, id as i32);
        self.a.reti(self.tmp);
    }

    fn gen_level(&mut self, level: &Level, fail: Label, st: PathState) {
        for node in &level.nodes {
            let node_fail = self.a.genlabel();
            // A Shift node mutates the running base; if its subtree fails
            // and we backtrack to a sibling, the base must be restored,
            // so it is spilled around the alternative.
            let saved = if matches!(node.key, Key::Shift { .. }) {
                let slot = self.a.local(vcode::Ty::Ul);
                self.a.st_slot(slot, self.base);
                Some(slot)
            } else {
                None
            };
            self.gen_node(node, node_fail, st);
            self.a.label(node_fail);
            if let Some(slot) = saved {
                self.a.ld_slot(self.base, slot);
                self.a.addp(self.ptr, self.msg, self.base);
            }
        }
        match level.accept {
            Some(id) => self.ret_id(id),
            None => self.a.jmp(fail),
        }
    }

    fn gen_node(&mut self, node: &Node, node_fail: Label, mut st: PathState) {
        match node.key {
            Key::Cmp { offset, size, mask } => {
                self.bounds(node, &mut st, node_fail);
                self.load_field(offset, size, st);
                if mask != size.full_mask() {
                    // Mask in the load domain: byte-swapping commutes
                    // with AND.
                    self.a
                        .andui(self.field, self.field, i64::from(swap_val(mask, size)));
                }
                self.dispatch(node, size, node_fail, st);
            }
            Key::Shift {
                offset,
                size,
                mask,
                shift,
            } => {
                self.bounds(node, &mut st, node_fail);
                self.load_field(offset, size, st);
                self.emit_value_domain(size);
                self.a.andui(self.field, self.field, i64::from(mask));
                if shift > 0 {
                    self.a.lshuli(self.field, self.field, i64::from(shift));
                }
                self.a.addul(self.base, self.base, self.field);
                self.a.addp(self.ptr, self.msg, self.base);
                st.shifted = true;
                if let Some(next) = &node.next {
                    self.gen_level(next, node_fail, st);
                } else {
                    self.a.jmp(node_fail);
                }
            }
        }
    }

    /// Emits the multiway dispatch over a node's arms, and the arms. The
    /// strategy is chosen from the runtime-known key set (paper §4.2's
    /// `switch` treatment).
    fn dispatch(&mut self, node: &Node, size: FieldSize, fail: Label, st: PathState) {
        let n = node.arms.len();
        // Density test in the true value domain.
        let values = || node.arms.iter().map(|a| a.value);
        let min = values().min().unwrap_or(0);
        let span = (values().max().unwrap_or(0) - min) as usize + 1;
        let table =
            n > LINEAR_MAX && self.opts.use_jump_tables && span <= (4 * n).max(16) && span <= 4096;
        let hash = !table && self.opts.use_hashing && n >= HASH_MIN;
        let arm_labels: Vec<Label> = node.arms.iter().map(|_| self.a.genlabel()).collect();
        let vals: Vec<(u32, Label)> = values().zip(arm_labels.iter().copied()).collect();
        // Every arm a leaf: a table's entries are the ids, not code.
        let leaves = node
            .arms
            .iter()
            .all(|a| a.next.nodes.is_empty() && a.next.accept.is_some());
        let entries = || -> Vec<(u32, Entry)> {
            let entry = |(a, &l): (&Arm, _)| match a.next.accept {
                Some(id) if leaves => (a.value, Entry::Id(id)),
                _ => (a.value, Entry::Code(l)),
            };
            node.arms.iter().zip(&arm_labels).map(entry).collect()
        };
        let by_table = if table {
            self.strategies.table += 1;
            self.gen_table(size, &entries(), min, span, fail);
            true
        } else if hash && self.gen_hash(size, &entries(), fail) {
            self.strategies.hash += 1;
            true
        } else {
            self.gen_branches(size, &vals, fail);
            false
        };
        if by_table && leaves {
            // The arms are the table: there is no code to emit for them.
            return;
        }
        for (arm, &l) in node.arms.iter().zip(&arm_labels) {
            self.a.label(l);
            self.gen_level(&arm.next, fail, st);
        }
    }

    /// The branch strategies: one compare, a linear chain of them, or a
    /// balanced tree, over the keys as loaded.
    fn gen_branches(&mut self, size: FieldSize, vals: &[(u32, Label)], fail: Label) {
        if let [(v, _)] = *vals {
            self.strategies.single += 1;
            self.a.bneui(self.field, i64::from(swap_val(v, size)), fail);
            // Fall through into the single arm body (its label binds
            // immediately after).
        } else if vals.len() <= LINEAR_MAX {
            self.strategies.linear += 1;
            for &(v, l) in vals {
                self.a.bequi(self.field, i64::from(swap_val(v, size)), l);
            }
            self.a.jmp(fail);
        } else {
            self.strategies.bst += 1;
            self.gen_bst_swapped(size, vals, fail);
        }
    }

    /// Sets pool word `word` to `entry`.
    fn put(&mut self, word: usize, entry: Entry) {
        match entry {
            Entry::Id(id) => self.a.pool().set(word, id),
            Entry::Code(l) => self.a.pool().set_label(word, l),
        }
    }

    /// Ends a table dispatch with the selected entry in `tmp`: an id is
    /// returned; a code entry is the distance of the arm back from the
    /// data base, so the jump goes to `data - entry` (computed in `field`,
    /// dead by now, so that no operand is also the result).
    fn tail(&mut self, ids: bool) {
        if ids {
            self.a.reti(self.tmp);
        } else {
            self.a.subp(self.field, self.data, self.tmp);
            self.a.jmp_reg(self.field);
        }
    }

    /// Dense range: the field, in the true value domain and rebased to
    /// the range's minimum, indexes a table of one 32-bit entry a value;
    /// values outside the range go to `fail`. A value no arm has holds
    /// `fail`'s code, or among ids one no filter has, which one compare,
    /// emitted only if the range has holes, sends to `fail`.
    fn gen_table(
        &mut self,
        size: FieldSize,
        entries: &[(u32, Entry)],
        min: u32,
        span: usize,
        fail: Label,
    ) {
        self.emit_value_domain(size);
        if min != 0 {
            self.a.subui(self.field, self.field, i64::from(min));
        }
        self.a.bgtui(self.field, i64::from(span as u32 - 1), fail);
        let ids = matches!(entries[0].1, Entry::Id(_));
        let hole = if ids {
            Entry::Id(NO_ID)
        } else {
            Entry::Code(fail)
        };
        let mut slots = vec![hole; span];
        for &(v, entry) in entries {
            slots[(v - min) as usize] = entry;
        }
        let first = self.a.pool().table(span, [NO_ID]);
        for (i, entry) in slots.into_iter().enumerate() {
            self.put(first + i, entry);
        }
        self.a.lshuli(self.field, self.field, 2);
        self.a.addp(self.field, self.field, self.data);
        self.a.ldui(self.tmp, self.field, 4 * first as i32);
        if ids && span > entries.len() {
            self.a.bequi(self.tmp, i64::from(NO_ID), fail);
        }
        self.tail(ids);
    }

    /// Draws up to [`LOOKUP_TRIES`] multipliers for one that scatters
    /// `keys` over `1 << bits` slots without a collision.
    fn perfect_multiplier(&mut self, keys: &[u32], bits: u32) -> Option<u32> {
        let mut seen = vec![false; 1 << bits];
        (0..LOOKUP_TRIES).find_map(|_| {
            let m = (self.rng.next_u64() as u32) | 1;
            seen.fill(false);
            keys.iter()
                .all(|&k| !std::mem::replace(&mut seen[hash_slot(k, m, bits)], true))
                .then_some(m)
        })
    }

    /// Loads into `tmp` the `[key, value]` pair that the perfect hash of
    /// `field` selects from the table at `at`, as one 64-bit word, and
    /// goes to `fail` unless its key is the field (one compare — no
    /// collision chains, paper §4.2). The value is its high half.
    fn probe(&mut self, mult: u32, bits: u32, at: i32, fail: Label) {
        // tmp = slot = (field * M) >> (32 - bits). The low word of the
        // product is the same for M read as signed, and that fits the
        // multiply's immediate.
        self.a.mului(self.tmp, self.field, i64::from(mult as i32));
        self.a.rshuli(self.tmp, self.tmp, i64::from(32 - bits));
        self.a.lshuli(self.tmp, self.tmp, 3);
        self.a.addp(self.tmp, self.tmp, self.data);
        self.a.lduli(self.tmp, self.tmp, at);
        self.a.bneu(self.tmp, self.field, fail);
    }

    /// Sparse large set: selects a multiplicative hash that is perfect
    /// over the known keys and encodes it directly in the instruction
    /// stream. It is taken of the field as loaded (the keys are stored
    /// byte-swapped instead) and selects a `[key, entry]` pair of one
    /// table; one compare rejects what is not a key. `false`, with
    /// nothing emitted, when no table of up to [`LOOKUP_MAX_SLOTS`] has a
    /// perfect multiplier.
    fn gen_hash(&mut self, size: FieldSize, entries: &[(u32, Entry)], fail: Label) -> bool {
        let keys: Vec<u32> = entries.iter().map(|&(v, _)| swap_val(v, size)).collect();
        let found = search_sizes(keys.len())
            .find_map(|bits| Some((self.perfect_multiplier(&keys, bits)?, bits)));
        let Some((mult, bits)) = found else {
            return false;
        };
        // A packet's field reaches a slot only by hashing to it, so an
        // empty slot is safe behind the key compare exactly when its key
        // hashes to some other slot: zero hashes to slot 0, and
        // 1 << (32 - bits) to the low bits of the (odd) multiplier. Its
        // entry is never read.
        let first = self.a.pool().table(1 << bits, [0, NO_ID]);
        self.a.pool().set(first, 1 << (32 - bits));
        for (&key, &(_, entry)) in keys.iter().zip(entries) {
            let word = first + 2 * hash_slot(key, mult, bits);
            self.a.pool().set(word, key);
            self.put(word + 1, entry);
        }
        self.probe(mult, bits, 4 * first as i32, fail);
        self.a.rshuli(self.tmp, self.tmp, 32);
        self.tail(matches!(entries[0].1, Entry::Id(_)));
        true
    }

    /// [`gen_bst`](Self::gen_bst) over the keys as loaded: the search
    /// only needs a consistent order, not a meaningful one.
    fn gen_bst_swapped(&mut self, size: FieldSize, vals: &[(u32, Label)], fail: Label) {
        let mut sw: Vec<(u32, Label)> = vals.iter().map(|&(v, l)| (swap_val(v, size), l)).collect();
        sw.sort_by_key(|&(v, _)| v);
        self.gen_bst(&sw, fail);
    }

    /// Sparse set: balanced tree of compares.
    fn gen_bst(&mut self, vals: &[(u32, Label)], fail: Label) {
        let mid = vals.len() / 2;
        let (v, l) = vals[mid];
        self.a.bequi(self.field, i64::from(v), l);
        let left = &vals[..mid];
        let right = &vals[mid + 1..];
        match (left.is_empty(), right.is_empty()) {
            (true, true) => self.a.jmp(fail),
            (true, false) => self.gen_bst(right, fail),
            (false, true) => self.gen_bst(left, fail),
            (false, false) => {
                let go_right = self.a.genlabel();
                self.a.bgtui(self.field, i64::from(v), go_right);
                self.gen_bst(left, fail);
                self.a.label(go_right);
                self.gen_bst(right, fail);
            }
        }
    }
}

/// The least message length with which `node` can accept: below it,
/// every outcome of the node is its failure. A node needs its own field
/// and the least any of its arms needs; a level that accepts needs
/// nothing, and one that does not, the least of its nodes. A `Shift`
/// node has no arms, so it is charged only its own field: what follows
/// it is checked against the shifted base.
fn need(node: &Node) -> u32 {
    let arms = node.arms.iter().map(|arm| level_need(&arm.next)).min();
    arms.unwrap_or(0).max(field_end(node.key))
}

/// Where the field a node loads ends, from the current base.
fn field_end(key: Key) -> u32 {
    let (Key::Cmp { offset, size, .. } | Key::Shift { offset, size, .. }) = key;
    offset + size.bytes()
}

/// [`need`] of a level.
fn level_need(level: &Level) -> u32 {
    match level.accept {
        Some(_) => 0,
        None => level.nodes.iter().map(need).min().unwrap_or(0),
    }
}

/// Whether any node of the trie shifts the base.
fn has_shift(level: &Level) -> bool {
    level.nodes.iter().any(|n| {
        matches!(n.key, Key::Shift { .. }) || n.arms.iter().any(|arm| has_shift(&arm.next))
    })
}

/// The id in a data-dispatch table entry that no key owns, and the low
/// word the classifier returns for no match ([`CompiledSet::classify`]).
/// Not a filter id: a service never hands it out.
pub(crate) const NO_ID: u32 = u32::MAX;

/// The multiplicative hash the perfect-hash dispatches emit: the top
/// `bits` bits of the low word of `key * mult`.
fn hash_slot(key: u32, mult: u32, bits: u32) -> usize {
    (key.wrapping_mul(mult) >> (32 - bits)) as usize
}

/// The table sizes, as bits of slot index, at which the perfect-hash
/// search over `n` keys draws, in order: from four slots a key, doubling
/// up to [`LOOKUP_MAX_SLOTS`], skipping each size where not one of the
/// [`LOOKUP_TRIES`] draws is expected to succeed. A random multiplier
/// scatters `n` keys over `slots` cells without a collision with
/// probability about exp(-n²/(2·slots)) (the birthday bound): e⁻² at 32
/// keys in 256 slots, e⁻⁸ at 64 keys in 256.
fn search_sizes(n: usize) -> impl Iterator<Item = u32> {
    let first = usize::BITS - (4 * n - 1).leading_zeros();
    let hopeless =
        move |bits: u32| (n * n) as f64 / (2usize << bits) as f64 > f64::from(LOOKUP_TRIES).ln();
    (first..=LOOKUP_MAX_SLOTS.ilog2()).filter(move |&bits| !hopeless(bits))
}

/// A classifier written into a caller's buffer by [`emit`]: one image,
/// the code and then the tables it reads.
#[derive(Debug)]
pub struct Emitted {
    /// The finished function within the buffer. Its tables are its
    /// literal pool: the classifier's third argument is the address of
    /// [`Finished::data_at`] wherever the image runs.
    pub fin: Finished,
    /// Strategy usage.
    pub strategies: Strategies,
}

/// Writes the classifier for a merged trie into `buf` as a function
/// `(msg: %p, len: %ul, data: %p) -> %l` starting at [`Finished::entry`],
/// and the tables it reads after it (see [`Emitted`]); `data` is the
/// address of the tables. The low word of the result is the accepting
/// filter's id, or `u32::MAX` for none. The image is
/// position-independent: no byte of it depends on where it will run.
/// Deterministic: the same trie and options write the same image,
/// whatever `buf` held.
///
/// # Errors
///
/// [`CompileError::Codegen`] (an [`Overflow`](vcode::Error::Overflow)
/// when `buf` is too small, a
/// [`BranchOutOfRange`](vcode::Error::BranchOutOfRange) for an image
/// past `i32::MAX` bytes) or [`CompileError::TooManyTemps`].
pub fn emit(root: &Level, opts: Options, buf: &mut [u8]) -> Result<Emitted, CompileError> {
    let mut a = Assembler::<X64>::lambda(buf, "%p%ul%p", Leaf::Yes)?;
    // `data` is the pool's base, placed even for a classifier without
    // tables.
    a.pool().place_base();
    let (msg, len, data) = (a.arg(0), a.arg(1), a.arg(2));
    let mut temp = || a.getreg(RegClass::Temp).ok_or(CompileError::TooManyTemps);
    let field = temp()?;
    // The running base and the pointer it makes exist only for a trie
    // that shifts; without them the classifier needs no callee-saved
    // register, so it is a frameless leaf. (Unshifted code never reads
    // them, so they stand as `msg` there.)
    let (ptr, base) = if has_shift(root) {
        (temp()?, temp()?)
    } else {
        (msg, msg)
    };
    let tmp = temp()?;
    let fail = a.genlabel();
    if base != msg {
        a.setul(base, 0);
        a.movp(ptr, msg);
    }
    let mut cg = Cg {
        a,
        msg,
        len,
        data,
        field,
        ptr,
        base,
        tmp,
        opts,
        strategies: Strategies::default(),
        rng: XorShift::new(0x5eed_cafe),
    };
    cg.gen_level(root, fail, PathState::default());
    cg.a.label(fail);
    cg.ret_id(NO_ID);
    let strategies = cg.strategies;
    Ok(Emitted {
        fin: cg.a.end()?,
        strategies,
    })
}

/// Compiles a merged trie into native code: [`emit`] through
/// [`vcode_x64::emit_native`], which installs the whole image.
///
/// # Errors
///
/// [`CompileError`] on code-generation or mapping failure.
pub fn compile(root: &Level, opts: Options) -> Result<CompiledSet, CompileError> {
    let mut strategies = Strategies::default();
    let (code, fin) = vcode_x64::emit_native::<CompileError>(|buf| {
        let e = emit(root, opts, buf)?;
        strategies = e.strategies;
        Ok(e.fin)
    })?;
    // SAFETY: the generated function has the declared C ABI
    // (ptr, len, data) -> i64, only dereferences `msg` below `len`, and
    // reads its tables from `data`, which `CompiledSet` passes as where
    // they sit in the same mapping.
    let entry: extern "C" fn(*const u8, u64, u64) -> i64 = unsafe { code.as_fn() };
    Ok(CompiledSet {
        // Scratch offset `off` sits at `addr + off - entry`.
        data: code.addr() + (fin.data_at - fin.entry) as u64,
        code,
        entry,
        strategies,
        code_len: fin.code_end - fin.entry,
        vcode_insns: fin.insns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size of four slots a key, where every search starts.
    fn first_size(n: usize) -> u32 {
        usize::BITS - (4 * n - 1).leading_zeros()
    }

    #[test]
    fn hash_search_is_skipped_only_where_it_cannot_succeed() {
        // Every key count the 33-filter workloads (and anything up to 40
        // keys) can present draws at its first size: their code must not
        // change.
        for n in HASH_MIN..=40 {
            assert_eq!(search_sizes(n).next(), Some(first_size(n)), "n = {n}");
        }
        // 64 keys in 256 slots: e⁻⁸ per draw, 64 draws; 512 slots are
        // searched.
        assert_eq!(search_sizes(64).next(), Some(first_size(64) + 1));
        // The cap: n²/2¹⁶ stays under ln 64 up to 522 keys, so 512 draw
        // at 2¹⁵ slots only (e⁻⁴ a draw) and 523 take the branch tree
        // without a draw.
        assert_eq!(LOOKUP_MAX_SLOTS, 1 << 15);
        assert_eq!(search_sizes(512).collect::<Vec<_>>(), [15]);
        assert_eq!(search_sizes(522).count(), 1);
        assert_eq!(search_sizes(523).count(), 0);
        assert_eq!(search_sizes(1024).count(), 0);
    }
}
