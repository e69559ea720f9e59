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
//!   an indirect jump through a table;
//! - **hash-function selection** — for large sparse sets DPF picks a
//!   multiplier that hashes the *known* keys perfectly, "and then encodes
//!   the chosen function directly in the instruction stream";
//! - **collision-check elision** — because the keys are known at
//!   code-generation time and the chosen hash is collision-free among
//!   them, no chain walking is ever emitted (one compare remains to
//!   reject values that are not keys at all);
//! - **classification by data** — when every value such a dispatch
//!   selects among just accepts a filter, there is nothing to jump to:
//!   the hash (or the dense index) selects a table entry, the one compare
//!   checks its key, and the id is loaded and returned, so which filter a
//!   packet matches is never a branch for the predictor to miss;
//! - **bounds-check elision** — a field load's length check is dropped
//!   when a check already performed on the path dominates it.
//!
//! Backtracking invariant: trying an alternative trie node must observe
//! the same dynamic base offset as its siblings, so `Shift` nodes spill
//! the running base and the fail path restores it.
//!
//! The classifier is emitted into the thread's lowering scratch and
//! installed right-sized ([`vcode_x64::emit_native`]); the jump tables
//! that hold its code addresses are filled after install.

use crate::lang::FieldSize;
use crate::trie::{Key, Level, Node};
use std::fmt;
use vcode::regress::XorShift;
use vcode::target::Leaf;
use vcode::{Assembler, Label, Reg, RegClass};
use vcode_x64::{ExecCode, X64};

/// How many arms at most are dispatched by a linear compare chain.
const LINEAR_MAX: usize = 4;
/// Above this arm count a sparse set uses hashing instead of a branch
/// tree.
const HASH_MIN: usize = 16;
/// Multipliers [`Cg::gen_hash`] draws before giving up on a perfect hash.
const HASH_TRIES: u32 = 10_000;
/// Multipliers [`Cg::gen_hash_lookup`] draws per table size. It starts at
/// four slots a key, where tens of draws find a perfect multiplier for
/// the few dozen keys a node usually has, and doubles the table rather
/// than search on.
const LOOKUP_TRIES: u32 = 64;
/// Most slots (8 bytes each) of a [`Cg::gen_hash_lookup`] table. One
/// multiplier hashes `n` keys perfectly only into about n²/8 slots, so
/// the table, and the time to fill it, grow with the square of the set:
/// the cap is where a compile starts to cost more in table than in code
/// (DESIGN.md "Classification by data" has the sweep). Larger sets
/// dispatch through code as before.
const LOOKUP_MAX_SLOTS: usize = 1 << 16;

/// Dispatch-strategy usage counts (for tests and the ablation bench).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Strategies {
    /// Single-value nodes (plain compare-and-branch).
    pub single: u32,
    /// Linear compare chains.
    pub linear: u32,
    /// Binary-search branch trees.
    pub bst: u32,
    /// Indirect jump tables.
    pub table: u32,
    /// Perfect-hash dispatches.
    pub hash: u32,
}

/// Controls which dispatch strategies the compiler may use (the
/// ablation knobs; defaults enable everything).
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Allow indirect jump tables for dense value sets.
    pub use_jump_tables: bool,
    /// Allow perfect-hash dispatch for large sparse sets.
    pub use_hashing: bool,
    /// Elide dominated bounds checks.
    pub elide_bounds_checks: bool,
    /// Bytes the first emission attempt may use (the retry doubles
    /// them); `None` estimates them from the trie. A too-small value
    /// drives a [`DpfService`](crate::DpfService) install down its
    /// overflow → retry → interpreter ladder, as the fault-injection
    /// harness does on demand.
    pub code_capacity: Option<usize>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            use_jump_tables: true,
            use_hashing: true,
            elide_bounds_checks: true,
            code_capacity: None,
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

impl From<CompileError> for vcode::ExecError {
    fn from(e: CompileError) -> vcode::ExecError {
        match e {
            CompileError::Codegen(e) => vcode::ExecError::Codegen(e),
            CompileError::Exec(e) => vcode::ExecError::Mem(e),
            CompileError::TooManyTemps => vcode::ExecError::Codegen(vcode::Error::BadOperands(
                "classifier generation exhausted the temp register file",
            )),
        }
    }
}

/// A compiled classifier.
///
/// Safety of the generated code rests on the filter language's bounds
/// discipline: every field load is dominated by a check that
/// `offset + size <= len`, so the code never reads outside
/// `msg[..len]`.
pub struct CompiledSet {
    code: ExecCode,
    entry: extern "C" fn(*const u8, u64) -> i64,
    // Dispatch tables referenced by absolute address from the generated
    // code; kept alive (and unmoved — Box contents are stable) here:
    // code addresses it jumps through, and keys and filter ids it loads.
    _addr_tables: Vec<Box<[u64]>>,
    _data_tables: Vec<Box<[u32]>>,
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
        let r = (self.entry)(msg.as_ptr(), msg.len() as u64);
        u32::try_from(r).ok()
    }

    /// The emitted machine-code bytes (diagnostics: the classifier from
    /// its entry, `code_len` bytes).
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
    field: Reg,
    ptr: Reg,
    base: Reg,
    tmp: Reg,
    tmp2: Reg,
    opts: Options,
    strategies: Strategies,
    // Tables of code addresses, each with the label every entry resolves
    // to once `end` has placed them.
    addr_tables: Vec<(Box<[u64]>, Vec<Label>)>,
    data_tables: Vec<Box<[u32]>>,
    rng: XorShift,
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
    /// big-endian value domain (needed by table/hash dispatch, which
    /// relies on numeric ordering/density of the real values).
    fn emit_value_domain(&mut self, size: FieldSize) {
        match size {
            FieldSize::U8 => {}
            FieldSize::U16 => {
                let (f, t) = (self.field, self.tmp);
                self.a.bswapus(f, f, t);
            }
            FieldSize::U32 => {
                let (f, t, u) = (self.field, self.tmp, self.tmp2);
                self.a.bswapu(f, f, t, u); // native bswap on x86-64
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
        let table = self.opts.use_jump_tables && span <= (4 * n).max(16) && span <= 4096;
        let hash = !table && self.opts.use_hashing && n >= HASH_MIN;
        if n > LINEAR_MAX && (table || hash) {
            // Every arm a leaf: the arms are data, not code.
            let ids: Option<Vec<(u32, u32)>> = node
                .arms
                .iter()
                .map(|a| Some((a.value, a.next.accept.filter(|_| a.next.nodes.is_empty())?)))
                .collect();
            if let Some(ids) = ids {
                if table {
                    self.strategies.table += 1;
                    self.gen_id_table(size, &ids, min, span, fail);
                    return;
                }
                if self.gen_hash_lookup(size, &ids, fail) {
                    self.strategies.hash += 1;
                    return;
                }
            }
        }
        let arm_labels: Vec<Label> = node.arms.iter().map(|_| self.a.genlabel()).collect();
        let vals: Vec<(u32, Label)> = values().zip(arm_labels.iter().copied()).collect();
        if n == 1 {
            self.strategies.single += 1;
            let v = swap_val(node.arms[0].value, size);
            self.a.bneui(self.field, i64::from(v), fail);
            // Fall through into the single arm body (its label binds
            // immediately after).
        } else if n <= LINEAR_MAX {
            self.strategies.linear += 1;
            for &(v, l) in &vals {
                self.a.bequi(self.field, i64::from(swap_val(v, size)), l);
            }
            self.a.jmp(fail);
        } else if table {
            self.strategies.table += 1;
            self.gen_jump_table(size, &vals, min, span, fail);
        } else if hash {
            self.strategies.hash += 1;
            self.gen_hash(size, &vals, fail);
        } else {
            self.strategies.bst += 1;
            self.gen_bst_swapped(size, &vals, fail);
        }
        for (arm, &l) in node.arms.iter().zip(&arm_labels) {
            self.a.label(l);
            self.gen_level(&arm.next, fail, st);
        }
    }

    /// A table of code addresses for an indirect jump, every entry the
    /// address of its label once `end` has placed them; the table's own
    /// address.
    fn addr_table(&mut self, labels: Vec<Label>) -> u64 {
        let table = vec![0u64; labels.len()].into_boxed_slice();
        let addr = table.as_ptr() as u64;
        self.addr_tables.push((table, labels));
        addr
    }

    /// A table of keys or filter ids the generated code loads from; the
    /// table's own address.
    fn data_table(&mut self, table: Vec<u32>) -> u64 {
        let table = table.into_boxed_slice();
        let addr = table.as_ptr() as u64;
        self.data_tables.push(table);
        addr
    }

    /// Dense range, first half: the field to the true value domain,
    /// rebased to the range's minimum, values outside the range to `fail`.
    fn emit_table_index(&mut self, size: FieldSize, min: u32, span: usize, fail: Label) {
        self.emit_value_domain(size);
        if min != 0 {
            self.a.subui(self.field, self.field, i64::from(min));
        }
        self.a.bgtui(self.field, i64::from(span as u32 - 1), fail);
    }

    /// Dense range: subtract the base, bound-check, and jump indirect
    /// through a table of label addresses (filled in after linking).
    fn gen_jump_table(
        &mut self,
        size: FieldSize,
        vals: &[(u32, Label)],
        min: u32,
        span: usize,
        fail: Label,
    ) {
        self.emit_table_index(size, min, span, fail);
        let mut labels = vec![fail; span];
        for &(v, l) in vals {
            labels[(v - min) as usize] = l;
        }
        let taddr = self.addr_table(labels);
        self.a.lshuli(self.field, self.field, 3);
        self.a.setp(self.tmp, taddr);
        self.a.ldul(self.tmp, self.tmp, self.field);
        self.a.jmp_reg(self.tmp);
    }

    /// Dense range of leaves: subtract the base, bound-check, and return
    /// the filter id the table holds for the value; a hole in the range
    /// holds an id no filter has and goes to `fail`.
    fn gen_id_table(
        &mut self,
        size: FieldSize,
        ids: &[(u32, u32)],
        min: u32,
        span: usize,
        fail: Label,
    ) {
        self.emit_table_index(size, min, span, fail);
        let mut table = vec![NO_ID; span];
        for &(v, id) in ids {
            table[(v - min) as usize] = id;
        }
        let holes = table.contains(&NO_ID);
        let taddr = self.data_table(table);
        self.a.lshuli(self.field, self.field, 2);
        self.a.setp(self.tmp, taddr);
        self.a.ldu(self.tmp, self.tmp, self.field);
        if holes {
            self.a.bequi(self.tmp, i64::from(NO_ID), fail);
        }
        self.a.reti(self.tmp);
    }

    /// Draws up to `tries` multipliers for one that scatters `keys` over
    /// `1 << bits` slots without a collision — none when not one of the
    /// draws is expected to ([`perfect_hash_is_hopeless`]).
    fn perfect_multiplier(&mut self, keys: &[u32], bits: u32, tries: u32) -> Option<u32> {
        let slots = 1usize << bits;
        if perfect_hash_is_hopeless(keys.len(), slots, tries) {
            return None;
        }
        let mut seen = vec![false; slots];
        (0..tries).find_map(|_| {
            let m = (self.rng.next_u64() as u32) | 1;
            seen.fill(false);
            keys.iter()
                .all(|&k| !std::mem::replace(&mut seen[hash_slot(k, m, bits)], true))
                .then_some(m)
        })
    }

    /// Sparse large set: select a perfect multiplicative hash over the
    /// known keys and encode it directly in the instruction stream.
    fn gen_hash(&mut self, size: FieldSize, vals: &[(u32, Label)], fail: Label) {
        let n = vals.len();
        let bits = usize::BITS - (2 * n - 1).leading_zeros();
        let slots = 1usize << bits;
        let values: Vec<u32> = vals.iter().map(|&(v, _)| v).collect();
        let Some(mult) = self.perfect_multiplier(&values, bits, HASH_TRIES) else {
            // No perfect multiplier (none looked for, or an unlucky
            // search near the bound): dispatch through the branch tree.
            self.strategies.hash -= 1;
            self.strategies.bst += 1;
            self.gen_bst_swapped(size, vals, fail);
            return;
        };
        // Unused slots jump to fail (their keys never match, but keep the
        // table total).
        let mut keys = vec![u32::MAX; slots];
        let mut labels = vec![fail; slots];
        for &(v, l) in vals {
            let slot = hash_slot(v, mult, bits);
            keys[slot] = v;
            labels[slot] = l;
        }
        let kaddr = self.data_table(keys);
        let aaddr = self.addr_table(labels);

        self.emit_value_domain(size);
        // tmp = slot = (field * M) >> (32 - bits)
        self.a.mului(self.tmp, self.field, i64::from(mult));
        self.a.rshuli(self.tmp, self.tmp, i64::from(32 - bits));
        // Verify the key (one compare — no collision chains, paper §4.2).
        self.a.lshuli(self.tmp2, self.tmp, 2);
        self.a.setp(self.tmp, kaddr);
        self.a.ldu(self.tmp, self.tmp, self.tmp2);
        self.a.bneu(self.tmp, self.field, fail);
        self.a.lshuli(self.tmp2, self.tmp2, 1);
        self.a.setp(self.tmp, aaddr);
        self.a.ldul(self.tmp, self.tmp, self.tmp2);
        self.a.jmp_reg(self.tmp);
    }

    /// Sparse large set of leaves: the perfect hash of
    /// [`gen_hash`](Self::gen_hash), taken of the field as loaded (keys
    /// are stored byte-swapped instead), selects a `[key, id]` pair of
    /// one table; one compare rejects what is not a key, and the id is
    /// returned. `false`, with nothing emitted, when no table of up to
    /// [`LOOKUP_MAX_SLOTS`] has a perfect multiplier.
    fn gen_hash_lookup(&mut self, size: FieldSize, ids: &[(u32, u32)], fail: Label) -> bool {
        let keys: Vec<u32> = ids.iter().map(|&(v, _)| swap_val(v, size)).collect();
        let first = usize::BITS - (4 * keys.len() - 1).leading_zeros();
        let found = (first..=LOOKUP_MAX_SLOTS.ilog2())
            .find_map(|bits| Some((self.perfect_multiplier(&keys, bits, LOOKUP_TRIES)?, bits)));
        let Some((mult, bits)) = found else {
            return false;
        };
        // A packet's field reaches a slot only by hashing to it, so an
        // empty slot is safe behind the key compare exactly when its key
        // hashes to some other slot: zero hashes to slot 0, and
        // 1 << (32 - bits) to the low bits of the (odd) multiplier.
        let mut table = [0, NO_ID].repeat(1 << bits);
        table[0] = 1 << (32 - bits);
        for (&key, &(_, id)) in keys.iter().zip(ids) {
            let at = 2 * hash_slot(key, mult, bits);
            table[at] = key;
            table[at + 1] = id;
        }
        let taddr = self.data_table(table);
        // tmp2 = &table[slot], slot = (field * M) >> (32 - bits). The
        // low word of the product is the same for M read as signed, and
        // that fits the multiply's immediate.
        self.a.mului(self.tmp, self.field, i64::from(mult as i32));
        self.a.rshuli(self.tmp, self.tmp, i64::from(32 - bits));
        self.a.lshuli(self.tmp, self.tmp, 3);
        self.a.setp(self.tmp2, taddr);
        self.a.addp(self.tmp2, self.tmp2, self.tmp);
        // Verify the key (one compare — no collision chains, paper §4.2).
        self.a.ldui(self.tmp, self.tmp2, 0);
        self.a.bneu(self.tmp, self.field, fail);
        self.a.ldui(self.tmp, self.tmp2, 4);
        self.a.reti(self.tmp);
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

/// The id in a data-dispatch table entry that no key owns. Not a filter
/// id: the classifier returns ids as `i64`, negative meaning no match
/// ([`CompiledSet::classify`]), so an id above `i32::MAX` never was one.
const NO_ID: u32 = u32::MAX;

/// The multiplicative hash the perfect-hash dispatches emit: the top
/// `bits` bits of the low word of `key * mult`.
fn hash_slot(key: u32, mult: u32, bits: u32) -> usize {
    (key.wrapping_mul(mult) >> (32 - bits)) as usize
}

/// Whether a search for a perfect multiplier should not even start. A
/// random multiplier scatters `n` keys over `slots` cells without a
/// collision with probability about exp(-n²/(2·slots)) (the birthday
/// bound): ~2 % at 16 keys in 32 slots, e⁻¹⁶ at 64 keys in 128. When not
/// even one of `tries` draws is expected to succeed, the search is
/// skipped instead of run to exhaustion.
fn perfect_hash_is_hopeless(n: usize, slots: usize, tries: u32) -> bool {
    (n * n) as f64 / (2 * slots) as f64 > f64::from(tries).ln()
}

/// Compiles a merged trie into native code ([`vcode_x64::emit_native`])
/// and fills its jump tables from where it was installed.
///
/// # Errors
///
/// [`CompileError`] on code-generation or mapping failure.
pub fn compile(root: &Level, opts: Options) -> Result<CompiledSet, CompileError> {
    // Size the scratch generously: a node's field load and bounds check
    // cost tens of bytes, and so does each arm (a dispatch compare plus
    // its leaf: 35-40 bytes through the branch tree, measured up to 4096
    // arms). Counting arms matters: a 1024-port set is five nodes.
    // An explicit code_capacity overrides the estimate (harness knob).
    let capacity = opts
        .code_capacity
        .unwrap_or(4096 + root.node_count() * 512 + root.arm_count() * 64);
    let mut emitted = None;
    let (code, fin) = vcode_x64::emit_native::<CompileError>(capacity, |buf| {
        let mut a = Assembler::<X64>::lambda(buf, "%p%ul", Leaf::Yes)?;
        let (msg, len) = (a.arg(0), a.arg(1));
        let mut temp = || a.getreg(RegClass::Temp).ok_or(CompileError::TooManyTemps);
        let field = temp()?;
        // The running base and the pointer it makes exist only for a
        // trie that shifts; without them the classifier needs no
        // callee-saved register, so it is a frameless leaf. (Unshifted
        // code never reads them, so they stand as `msg` there.)
        let (ptr, base) = if has_shift(root) {
            (temp()?, temp()?)
        } else {
            (msg, msg)
        };
        let (tmp, tmp2) = (temp()?, temp()?);
        let fail = a.genlabel();
        if base != msg {
            a.setul(base, 0);
            a.movp(ptr, msg);
        }
        let mut cg = Cg {
            a,
            msg,
            len,
            field,
            ptr,
            base,
            tmp,
            tmp2,
            opts,
            strategies: Strategies::default(),
            addr_tables: Vec::new(),
            data_tables: Vec::new(),
            rng: XorShift::new(0x5eed_cafe),
        };
        cg.gen_level(root, fail, PathState::default());
        cg.a.label(fail);
        cg.ret_id(NO_ID);
        let fin = cg.a.end()?;
        emitted = Some((cg.strategies, cg.addr_tables, cg.data_tables));
        Ok(fin)
    })?;
    let (strategies, addr_tables, data_tables) = emitted.expect("an installed emission finished");
    // Resolve dispatch-table entries now that the code has an address:
    // a label at scratch offset `off` runs at `addr + off - entry`.
    let mut tables = Vec::with_capacity(addr_tables.len());
    for (mut table, labels) in addr_tables {
        for (entry, label) in table.iter_mut().zip(labels) {
            let off = fin
                .label_offset(label)
                .ok_or(CompileError::Codegen(vcode::Error::UnboundLabel(label)))?;
            *entry = code.addr() + (off - fin.entry) as u64;
        }
        tables.push(table);
    }
    // SAFETY: the generated function has the declared C ABI
    // (ptr, len) -> i64 and only dereferences `msg` below `len`.
    let entry: extern "C" fn(*const u8, u64) -> i64 = unsafe { code.as_fn() };
    Ok(CompiledSet {
        code,
        entry,
        _addr_tables: tables,
        _data_tables: data_tables,
        strategies,
        code_len: fin.len - fin.entry,
        vcode_insns: fin.insns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots_for(n: usize) -> usize {
        1 << (usize::BITS - (2 * n - 1).leading_zeros())
    }

    #[test]
    fn hash_search_is_skipped_only_where_it_cannot_succeed() {
        // Every key count the 33-filter workloads (and anything up to 40
        // keys) can present keeps its search: their code must not change.
        for n in HASH_MIN..=40 {
            assert!(
                !perfect_hash_is_hopeless(n, slots_for(n), HASH_TRIES),
                "n = {n}"
            );
        }
        // 64 keys in 128 slots: e⁻¹⁶ per draw, 10 000 draws.
        assert!(perfect_hash_is_hopeless(64, slots_for(64), HASH_TRIES));
        // Right above a power of two the table doubles and the search
        // is worth running again.
        assert!(!perfect_hash_is_hopeless(65, slots_for(65), HASH_TRIES));
        assert!(perfect_hash_is_hopeless(1024, slots_for(1024), HASH_TRIES));
    }
}
