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
//!   publishes it to lock-free readers before it returns (each published
//!   generation owns its compiled set, one image of code and the tables
//!   it reads: nothing is cached, persisted or patched after install);
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

use trie::Level;

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
