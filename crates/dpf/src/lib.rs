//! # dpf — Dynamic Packet Filters (paper §4.2, Table 3)
//!
//! Message demultiplexing is the process of determining which application
//! an incoming message should be delivered to; packet filters — predicates
//! in a small safe language — make it extensible. Traditionally filters
//! are *interpreted*, which costs so much that high-performance stacks
//! avoided them. DPF removes the interpretation tax with dynamic code
//! generation: filters are compiled to native code when installed, and the
//! compiler exploits runtime knowledge (the exact set of resident
//! filters and their constants) for optimizations static systems cannot
//! perform. In the paper's Table 3, DPF classifies TCP/IP headers ~20×
//! faster than the MPF interpreter and ~10× faster than PATHFINDER.
//!
//! This crate contains all three engines:
//!
//! - [`Dpf`] — the dynamically compiled engine (via `vcode` + the x86-64
//!   backend);
//! - [`Mpf`](mpf::Mpf) — a BPF-style bytecode interpreter run per filter;
//! - [`Pathfinder`] — a pattern-trie interpreter with hashed cells.
//!
//! ```
//! use dpf::packet::{self, PacketSpec};
//! use dpf::Dpf;
//!
//! let mut dpf = Dpf::new();
//! let ids: Vec<u32> = packet::port_filter_set(10, 1000)
//!     .iter()
//!     .map(|f| dpf.insert(f.clone()))
//!     .collect();
//! dpf.compile()?;
//! let msg = packet::build(&PacketSpec { dst_port: 1004, ..PacketSpec::default() });
//! assert_eq!(dpf.classify(&msg), Some(ids[4]));
//! # Ok::<(), dpf::compile::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
pub mod hotloop;
pub mod lang;
pub mod mpf;
pub mod packet;
pub mod service;
pub mod trie;

pub use compile::{CompileError, CompiledSet, Options, Strategies};
pub use lang::{Atom, FieldSize, Filter, FilterBuilder, FilterError};
pub use service::{BuildFailure, DpfReader, DpfService, ServiceSnapshot};

use mpf::Mpf;
use std::sync::{Arc, OnceLock};
use trie::Level;
use vcode::{CacheKey, CacheStats, CodeStack, TargetId, L2};

/// The process-wide [`CodeStack`] of compiled classifiers, keyed by the
/// exact resident filter set (ids included — generated code returns
/// them) and the dispatch-strategy options. Re-installing the same
/// filters — the common case when identical flows come and go — reuses
/// the finished code instead of re-running codegen.
pub(crate) fn stack() -> &'static CodeStack<CompiledSet> {
    static STACK: OnceLock<CodeStack<CompiledSet>> = OnceLock::new();
    STACK.get_or_init(|| CodeStack::new(64))
}

/// Counters for the process-wide classifier cache.
pub fn cache_stats() -> CacheStats {
    stack().cache().stats()
}

/// Drops every cached classifier (callers holding compiled sets keep
/// them). Benchmarks use this to measure cold compiles.
pub fn clear_cache() {
    stack().cache().clear();
}

/// The [`ArtifactCodec`](vcode::ArtifactCodec) for compiled classifier
/// sets: code bytes plus the dispatch-strategy counters in the meta
/// blob. Only [position-independent](CompiledSet::position_independent)
/// sets persist — jump-table and perfect-hash dispatch embed absolute
/// side-table addresses that cannot survive a reload — and every load
/// re-decodes the bytes with the x86-64 length decoder before they
/// touch executable memory.
#[derive(Debug)]
struct SetCodec;

impl vcode::ArtifactCodec<CompiledSet> for SetCodec {
    fn to_artifact(
        &self,
        key: &CacheKey,
        val: &Arc<CompiledSet>,
    ) -> Result<vcode::Artifact, vcode::PersistError> {
        if !val.position_independent() {
            return Err(vcode::PersistError::NotPersistable(
                "classifier uses absolute-address dispatch tables",
            ));
        }
        Ok(vcode::Artifact {
            target: TargetId::X64,
            args: 0,
            insns: val.vcode_insns,
            key: key.content().to_vec(),
            meta: val.meta_blob(),
            code: val.code_bytes().to_vec(),
        })
    }

    fn from_artifact(
        &self,
        artifact: &vcode::ArtifactView<'_>,
    ) -> Result<Arc<CompiledSet>, vcode::PersistError> {
        vcode::persist::redecode(artifact.code, &vcode_x64::declen::Decoder)?;
        let strategies = CompiledSet::meta_parse(artifact.meta).ok_or(
            vcode::PersistError::Malformed("classifier strategy meta blob"),
        )?;
        // Adoption fails only for want of executable memory: an
        // `io::Error`, so `PersistError::Io` — the artifact is kept.
        let set = CompiledSet::adopt(artifact.code, strategies, artifact.insns)?;
        Ok(Arc::new(set))
    }
}

/// Attaches a persistent L2 tier for compiled classifiers under `dir`:
/// every cache miss — a [`Dpf::compile`] or a [`DpfService`] install,
/// each on the calling thread — probes the disk tier before compiling
/// and stores through after. First call wins (`false` afterwards).
///
/// # Errors
///
/// [`vcode::PersistError::Io`] when the directory cannot be created.
pub fn enable_persist(dir: impl Into<std::path::PathBuf>) -> Result<bool, vcode::PersistError> {
    stack().enable_persist(dir, Box::new(SetCodec))
}

/// The classifier persistent tier, if [`enable_persist`] was called.
pub fn persist_tier() -> Option<&'static Arc<vcode::DiskTier<CompiledSet>>> {
    stack().persist_tier()
}

/// The one miss function every classifier build ([`Dpf::compile`], a
/// [`DpfService`] install) hands the stack: a valid persisted artifact
/// skips trie construction and codegen entirely; otherwise build, and
/// store the result through.
pub(crate) fn set_miss(
    filters: &[(u32, Filter)],
    opts: Options,
) -> impl FnOnce(L2<'_, CompiledSet>) -> Result<Arc<CompiledSet>, CompileError> + '_ {
    move |l2| l2.or_build(|| build_set(filters, opts))
}

/// The one classifier build: merge `filters` into a trie, compile it
/// (with the overflow retry), share the result.
fn build_set(filters: &[(u32, Filter)], opts: Options) -> Result<Arc<CompiledSet>, CompileError> {
    compile_with_retry(&trie::build(filters), opts).map(Arc::new)
}

/// Which engine a [`Dpf`] is classifying with after
/// [`compile`](Dpf::compile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Dynamically generated native code (the fast path).
    Native,
    /// The MPF bytecode interpreter, engaged because code generation
    /// failed (graceful degradation).
    Interpreter,
}

/// Why [`Dpf::try_classify`] has no engine matching the resident
/// filter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClassifyError {
    /// No compile has been attempted since construction.
    NeverCompiled,
    /// Filters changed since the last compile: the compiled code would
    /// classify against the *old* set (stale positives/negatives).
    Stale {
        /// Filters inserted since the last compile.
        inserts: u32,
        /// Filters removed since the last compile.
        removes: u32,
    },
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::NeverCompiled => write!(f, "classifier never compiled"),
            ClassifyError::Stale { inserts, removes } => write!(
                f,
                "classifier stale: {inserts} insert(s) and {removes} remove(s) since last compile"
            ),
        }
    }
}

impl std::error::Error for ClassifyError {}

/// The dynamically compiled demultiplexer.
///
/// Filters are inserted and removed at runtime; [`Dpf::compile`] merges
/// the resident set into a trie and generates a native classifier.
/// Insertion/removal invalidates the compiled code until the next
/// `compile` (the paper's system recompiled on installation into the
/// kernel) — but classification never panics and never serves a stale
/// set: between a filter change and the next compile,
/// [`classify`](Dpf::classify) runs the resident [`Mpf`] interpreter, kept
/// in sync on every insert/remove. [`try_classify`](Dpf::try_classify)
/// is the strict variant that reports staleness as a typed error
/// instead of degrading. For filter updates under live traffic, where
/// each install compiles and publishes before it returns, use
/// [`service::DpfService`].
#[derive(Debug, Default)]
pub struct Dpf {
    filters: Vec<(u32, Filter)>,
    next_id: u32,
    opts: Options,
    compiled: Option<Arc<CompiledSet>>,
    /// Resident interpreter, kept in sync with `filters` on every
    /// insert/remove (ids match the compiled engine's): classification
    /// always has a correct engine to run on.
    resident: Mpf,
    /// The last compile degraded to the interpreter (codegen failed).
    degraded: bool,
    /// Filters inserted/removed since the last compile attempt; nonzero
    /// means `compiled`/`degraded` no longer describe `filters`.
    stale_inserts: u32,
    /// See `stale_inserts`.
    stale_removes: u32,
    /// A compile has been attempted at least once.
    ever_compiled: bool,
}

impl Dpf {
    /// Creates an empty engine with default compilation options.
    pub fn new() -> Dpf {
        Dpf::default()
    }

    /// Creates an engine with explicit dispatch-strategy options (the
    /// ablation knobs).
    pub fn with_options(opts: Options) -> Dpf {
        Dpf {
            opts,
            ..Dpf::default()
        }
    }

    /// Installs a filter, returning its id. Invalidates compiled code;
    /// until the next compile, classification runs the resident
    /// interpreter over the *new* set (the freshly inserted filter
    /// matches immediately).
    pub fn insert(&mut self, f: Filter) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.resident.insert_as(id, &f);
        self.filters.push((id, f));
        self.compiled = None;
        self.degraded = false;
        self.stale_inserts += 1;
        id
    }

    /// Removes a filter by id; returns whether it existed. Invalidates
    /// compiled code; until the next compile, classification runs the
    /// resident interpreter over the *new* set — the removed id is
    /// never returned again (no stale positives).
    pub fn remove(&mut self, id: u32) -> bool {
        let n = self.filters.len();
        self.filters.retain(|(i, _)| *i != id);
        let removed = self.filters.len() != n;
        if removed {
            self.resident.remove(id);
            self.compiled = None;
            self.degraded = false;
            self.stale_removes += 1;
        }
        removed
    }

    /// Number of resident filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Merges the resident filters and generates the native classifier,
    /// degrading gracefully when generation fails.
    ///
    /// The ladder: on a storage [`Overflow`](vcode::Error::Overflow)
    /// the compile is retried once with a doubled buffer; if generation
    /// still fails (or executable memory cannot be obtained at all),
    /// the engine falls back to the MPF bytecode interpreter over the
    /// same filter set — classification keeps working, only slower.
    /// [`engine`](Self::engine) reports which path is active.
    ///
    /// Note one semantic caveat of degraded mode: the compiled trie
    /// resolves overlapping filters by longest match, the interpreter
    /// by first match. Disjoint filter sets (the common demultiplexing
    /// case) classify identically on both.
    ///
    /// # Errors
    ///
    /// [`CompileError`] only if even the interpreter cannot be built —
    /// which cannot currently happen, so callers may treat `Ok` as
    /// "classification is available".
    pub fn compile(&mut self) -> Result<(), CompileError> {
        // An explicit code_capacity is a harness knob (fault injection /
        // overflow drills): those compiles are bespoke, never cached.
        // The cached path waits boundedly on a racing build: a stalled
        // `Building` slot (builder died without unwinding) degrades to
        // the interpreter like any other generation failure instead of
        // blocking the caller forever.
        let compiled = if self.opts.code_capacity.is_some() {
            build_set(&self.filters, self.opts).ok()
        } else {
            stack()
                .get_or_build(&self.cache_key(), set_miss(&self.filters, self.opts))
                .ok()
        };
        self.adopt(compiled);
        Ok(())
    }

    /// Compiles the resident filters bypassing the process-wide cache
    /// (always a cold compile, and the result is not shared). Same
    /// degradation ladder as [`compile`](Self::compile); benchmarks use
    /// this for the cold side of the amortization table.
    ///
    /// # Errors
    ///
    /// [`CompileError`] only if even the interpreter cannot be built —
    /// which cannot currently happen (see [`compile`](Self::compile)).
    pub fn compile_uncached(&mut self) -> Result<(), CompileError> {
        self.adopt(build_set(&self.filters, self.opts).ok());
        Ok(())
    }

    /// Records the outcome of a compile attempt over the current
    /// filters: staleness resets, and `None` (generation failed)
    /// degrades to the resident interpreter, which already holds the
    /// same filters under the same ids.
    fn adopt(&mut self, compiled: Option<Arc<CompiledSet>>) {
        self.ever_compiled = true;
        self.stale_inserts = 0;
        self.stale_removes = 0;
        self.degraded = compiled.is_none();
        self.compiled = compiled;
    }

    /// Content key of the resident configuration (see [`cache_key`]).
    fn cache_key(&self) -> CacheKey {
        cache_key(&self.filters, self.opts)
    }

    /// Classifies a message: compiled engine when current, otherwise
    /// the resident [`Mpf`] interpreter (which is kept in sync on every
    /// insert/remove). Never panics and never consults a stale compiled
    /// set — after a `remove` without recompile, the removed id is not
    /// returned. Use [`try_classify`](Self::try_classify) to observe
    /// staleness as a typed error instead of degrading.
    #[inline]
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        if let Some(set) = self.compiled.as_ref() {
            return set.classify(msg);
        }
        self.resident.classify(msg)
    }

    /// Strict classification: `Err` when no engine matches the resident
    /// filter set (never compiled, or filters changed since the last
    /// compile), instead of silently running the interpreter.
    ///
    /// # Errors
    ///
    /// [`ClassifyError::NeverCompiled`] before the first compile
    /// attempt; [`ClassifyError::Stale`] when filters changed since the
    /// last one.
    #[inline]
    pub fn try_classify(&self, msg: &[u8]) -> Result<Option<u32>, ClassifyError> {
        if let Some(set) = self.compiled.as_ref() {
            return Ok(set.classify(msg));
        }
        if self.degraded {
            return Ok(self.resident.classify(msg));
        }
        if self.ever_compiled {
            Err(ClassifyError::Stale {
                inserts: self.stale_inserts,
                removes: self.stale_removes,
            })
        } else {
            Err(ClassifyError::NeverCompiled)
        }
    }

    /// Classifies a batch of messages, amortizing the engine dispatch
    /// over the whole slice. Same engine choice as
    /// [`classify`](Self::classify).
    pub fn classify_batch(&self, msgs: &[&[u8]]) -> Vec<Option<u32>> {
        let mut out = Vec::with_capacity(msgs.len());
        match self.compiled.as_ref() {
            Some(set) => out.extend(msgs.iter().map(|m| set.classify(m))),
            None => out.extend(msgs.iter().map(|m| self.resident.classify(m))),
        }
        out
    }

    /// `true` when filters changed since the last compile attempt (the
    /// compiled engine, if any, no longer describes the resident set).
    pub fn is_stale(&self) -> bool {
        self.stale_inserts != 0 || self.stale_removes != 0
    }

    /// The compiled classifier, if current.
    pub fn compiled(&self) -> Option<&CompiledSet> {
        self.compiled.as_deref()
    }

    /// Which engine classification runs on: `None` before
    /// [`compile`](Self::compile) (or after a filter change), otherwise
    /// native or degraded-interpreter.
    pub fn engine(&self) -> Option<EngineKind> {
        if self.compiled.is_some() {
            Some(EngineKind::Native)
        } else if self.degraded {
            Some(EngineKind::Interpreter)
        } else {
            None
        }
    }
}

/// Content key of a filter configuration: the exact (id, filter) list
/// plus the ablation knobs. Ids are part of the content — the generated
/// code returns them — so two sets with the same patterns but different
/// ids never alias; an explicit `code_capacity` is likewise encoded so
/// capacity-limited builds (the fault-injection knob) never alias
/// default-sized ones. The encoding is length-prefixed and tagged
/// (injective), and deliberately cheap: building this key is the whole
/// cost of a warm `compile()` hit.
pub(crate) fn cache_key(filters: &[(u32, Filter)], opts: Options) -> CacheKey {
    let mut bytes = Vec::with_capacity(16 + filters.len() * 64);
    bytes.push(u8::from(opts.use_jump_tables));
    bytes.push(u8::from(opts.use_hashing));
    bytes.push(u8::from(opts.elide_bounds_checks));
    match opts.code_capacity {
        None => bytes.push(0),
        Some(cap) => {
            bytes.push(1);
            bytes.extend_from_slice(&(cap as u64).to_le_bytes());
        }
    }
    for (id, f) in filters {
        bytes.extend_from_slice(&id.to_le_bytes());
        let atoms = f.atoms();
        bytes.extend_from_slice(&(atoms.len() as u32).to_le_bytes());
        for a in atoms {
            let (tag, offset, size, mask, last) = match *a {
                Atom::Cmp {
                    offset,
                    size,
                    mask,
                    value,
                } => (0u8, offset, size, mask, value),
                Atom::Shift {
                    offset,
                    size,
                    mask,
                    shift,
                } => (1u8, offset, size, mask, shift),
            };
            bytes.push(tag);
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.push(size.bytes() as u8);
            bytes.extend_from_slice(&mask.to_le_bytes());
            bytes.extend_from_slice(&last.to_le_bytes());
        }
    }
    CacheKey::new(TargetId::X64, bytes)
}

/// Compiles a trie with the storage-overflow retry ladder: on a
/// [`vcode::Error::Overflow`] the compile is retried once with a doubled
/// buffer.
fn compile_with_retry(root: &Level, opts: Options) -> Result<CompiledSet, CompileError> {
    match compile::compile(root, opts) {
        Ok(set) => Ok(set),
        Err(CompileError::Codegen(vcode::Error::Overflow { capacity })) => {
            let retry = Options {
                code_capacity: Some(capacity.max(1) * 2),
                ..opts
            };
            compile::compile(root, retry)
        }
        Err(e) => Err(e),
    }
}

/// The PATHFINDER-style baseline: the same merged trie, *interpreted* —
/// each node examined by hashing into its cell index at runtime.
#[derive(Debug, Default)]
pub struct Pathfinder {
    filters: Vec<(u32, Filter)>,
    next_id: u32,
    trie: Level,
}

impl Pathfinder {
    /// Creates an empty engine.
    pub fn new() -> Pathfinder {
        Pathfinder::default()
    }

    /// Installs a filter, returning its id.
    pub fn insert(&mut self, f: Filter) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.filters.push((id, f));
        self.trie = trie::build(&self.filters);
        id
    }

    /// Removes a filter by id; returns whether it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        let n = self.filters.len();
        self.filters.retain(|(i, _)| *i != id);
        let removed = self.filters.len() != n;
        if removed {
            self.trie = trie::build(&self.filters);
        }
        removed
    }

    /// Classifies a message by interpreting the trie.
    #[inline]
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        self.trie.classify(msg, 0)
    }
}
