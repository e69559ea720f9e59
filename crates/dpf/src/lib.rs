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
//! - [`DpfService`] — the dynamically compiled engine (via `vcode` + the
//!   x86-64 backend), served live: an install compiles the new set and
//!   publishes it to lock-free readers before it returns (compiled sets
//!   are cached in memory per exact filter set, never persisted);
//! - [`Mpf`](mpf::Mpf) — a BPF-style bytecode interpreter run per filter;
//! - [`Pathfinder`] — a pattern-trie interpreter with hashed cells.
//!
//! ```
//! use dpf::packet::{self, PacketSpec};
//! use dpf::DpfService;
//!
//! let svc = DpfService::new();
//! // Ten filters, one build, one published generation.
//! let ids = svc.insert_all(packet::port_filter_set(10, 1000));
//! assert!(svc.is_native());
//! let msg = packet::build(&PacketSpec { dst_port: 1004, ..PacketSpec::default() });
//! assert_eq!(svc.reader().classify(&msg), Some(ids[4]));
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

use std::sync::{Arc, OnceLock};
use trie::Level;
use vcode::{CacheError, CacheKey, CacheStats, LambdaCache, TargetId};

/// The process-wide cache of compiled classifiers, keyed by the exact
/// resident filter set (ids included — generated code returns them) and
/// the dispatch-strategy options. Re-installing the same filters — the
/// common case when identical flows come and go — reuses the finished
/// code instead of re-running codegen. It has no disk tier: a build is
/// cheaper than the store every first-seen set would pay for a load
/// only an identical restart reads (EXPERIMENTS.md "Persistence,
/// measured (PR 26)").
fn cache() -> &'static LambdaCache<CompiledSet> {
    static CACHE: OnceLock<LambdaCache<CompiledSet>> = OnceLock::new();
    CACHE.get_or_init(|| LambdaCache::new(64))
}

/// Counters for the process-wide classifier cache.
pub fn cache_stats() -> CacheStats {
    cache().stats()
}

/// Drops every cached classifier (callers holding compiled sets keep
/// them). Benchmarks use this to measure cold compiles.
pub fn clear_cache() {
    cache().clear();
}

/// The one classifier build, on the calling thread: an L1 hit when the
/// same set compiled before, else merge `filters` into a trie and
/// compile it (with the overflow retry). Racers on one set wait for that
/// build, bounded by the cache's stall timeout, and share it.
pub(crate) fn build_set(
    filters: &[(u32, Filter)],
    opts: Options,
) -> Result<Arc<CompiledSet>, CacheError<CompileError>> {
    let cache = cache();
    cache.get_or_build(
        cache_key(filters, opts),
        || compile::compile(&trie::build(filters), opts).map(Arc::new),
        cache.stall_timeout(),
    )
}

/// Content key of a filter configuration: the exact (id, filter) list
/// plus the ablation knobs. Ids are part of the content — the generated
/// code returns them — so two sets with the same patterns but different
/// ids never alias; an explicit `code_capacity` is likewise encoded so
/// capacity-limited builds (the fault-injection knob) never alias
/// default-sized ones. The encoding is length-prefixed and tagged
/// (injective), and deliberately cheap: building this key is most of
/// the cost of an install whose set is already in the L1.
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
