//! Persistent (L2) code cache: verified on-disk artifacts behind the
//! [`CacheTier`] seam.
//!
//! The in-memory `LambdaCache` is fast but process-local: every cold
//! start pays full compile cost for every lambda, which is exactly
//! where the paper's "dynamic compilation must be cheap" argument bites
//! hardest. This module adds a second tier — one artifact file per
//! cache key under a cache directory — so a warm process boots straight
//! to executable code:
//!
//! ```text
//!   compile_cached ── L1 (LambdaCache) ── L2 (DiskTier) ── Backend::compile
//!                      hit: Arc clone      hit: load +        miss: compile,
//!                                          revalidate +       store-through
//!                                          adopt              to L2
//! ```
//!
//! **Artifact format** (all fields little-endian; layout constants
//! exported below so corruption tests can patch fields surgically):
//!
//! ```text
//!   off  0  magic      b"VCAR"
//!   off  4  format     u16   bumped on any layout change
//!   off  6  target     u8    TargetId::index()
//!   off  7  args       u8    client arity metadata
//!   off  8  abi        u64   abi_fingerprint(): crate version,
//!                            pointer width, endianness, format
//!   off 16  insns      u64   vcode insn count (client metadata)
//!   off 24  key_len    u32
//!   off 28  meta_len   u32
//!   off 32  code_len   u32
//!   off 36  key_hash   u64   FNV-1a of the key bytes
//!   off 44  key bytes ‖ meta bytes ‖ code bytes
//!   tail    checksum   u64   FNV-1a of everything before it
//! ```
//!
//! **Revalidation before mapping.** A loaded artifact is hostile input:
//! the header/length/checksum checks above run first, then the client
//! codec re-decodes the native bytes with the verifier's differential
//! decoder ([`redecode`], the PR 4 `cross_check` machinery pointed at a
//! whole buffer instead of an emission report) before any byte lands in
//! executable memory. A truncated, bit-flipped, cross-version, or
//! wrong-target artifact is a typed [`PersistError`] — never a crash,
//! never mapped — and the load path silently falls back to a fresh
//! compile.
//!
//! **Publication.** Writers stage the encoded artifact in a unique temp
//! file and `rename(2)` it into place: readers observe either no file
//! or a complete one, never a torn prefix. Within a process,
//! [`StoreSlots`] reuses the cache's `Building`-slot machinery so
//! threads racing to persist one key write exactly one artifact (the
//! claim protocol is model-checked in `crates/mcheck`; see
//! `persist_single_writer`).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::RwLock;

use crate::cache::{Build, CacheKey};
use crate::engine::{fnv1a, TargetId};
use crate::obs;
use crate::verify::InsnDecoder;
use crate::vsync::{self, Arc, Mutex};

/// Artifact file magic: the first four bytes of every vcode artifact.
pub const MAGIC: [u8; 4] = *b"VCAR";
/// On-disk format version; bumped on any layout change so stale
/// artifacts classify as [`PersistError::WrongFormat`], not garbage.
pub const FORMAT_VERSION: u16 = 1;
/// Byte offset of the `format` field (u16 LE) in an encoded artifact.
pub const OFF_FORMAT: usize = 4;
/// Byte offset of the `target` field (u8) in an encoded artifact.
pub const OFF_TARGET: usize = 6;
/// Byte offset of the `abi` fingerprint (u64 LE) in an encoded artifact.
pub const OFF_ABI: usize = 8;
/// Fixed header length; payload (key ‖ meta ‖ code) follows.
pub const HEADER_LEN: usize = 44;
/// Trailing checksum length (u64 LE FNV-1a over everything before it).
pub const FOOTER_LEN: usize = 8;

/// Fingerprint of everything that must match for native bytes to be
/// safely adopted by this build: crate version, on-disk format,
/// pointer width, and endianness. Two builds that disagree on any of
/// these refuse each other's artifacts ([`PersistError::WrongAbi`])
/// rather than mapping code compiled under different assumptions.
pub fn abi_fingerprint() -> u64 {
    let mut id = Vec::with_capacity(32);
    id.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
    id.push(0);
    id.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    id.push(size_of::<usize>() as u8);
    id.push(if cfg!(target_endian = "little") { 1 } else { 2 });
    fnv1a(&id)
}

/// Typed failure of a persistent-cache operation. Every corrupt,
/// truncated, cross-version, or wrong-target artifact surfaces as one
/// of these — the load path then falls back to a fresh compile, so a
/// bad cache directory can cost time but never correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// Filesystem failure (permissions, disk full, unreadable file) or,
    /// on a load, no executable memory to adopt the code into: nothing
    /// about the artifact's bytes, so the load keeps its file.
    Io(String),
    /// The file is shorter than its own bookkeeping claims.
    Truncated {
        /// Bytes the header or envelope requires.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The file does not start with [`MAGIC`] — not a vcode artifact.
    BadMagic,
    /// Artifact written by a different on-disk format version.
    WrongFormat {
        /// The version recorded in the file.
        found: u16,
    },
    /// Artifact written under a different ABI fingerprint (crate
    /// version, pointer width, or endianness mismatch).
    WrongAbi {
        /// The fingerprint recorded in the file.
        found: u64,
    },
    /// Artifact names a different backend than the key it was loaded
    /// for.
    WrongTarget {
        /// The target recorded in the file.
        found: TargetId,
        /// The target the cache key requires.
        expected: TargetId,
    },
    /// The trailing FNV-1a checksum does not cover the bytes present —
    /// bit rot, torn write, or tampering.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file contents.
        computed: u64,
    },
    /// The artifact's embedded key bytes differ from the cache key that
    /// named it (hash-collision or misfiled artifact).
    KeyMismatch,
    /// Structurally invalid envelope (bad target index, internal hash
    /// mismatch, trailing garbage).
    Malformed(&'static str),
    /// The native bytes failed revalidation: the differential re-decode
    /// or the client codec rejected them before mapping.
    Revalidation(String),
    /// No differential decoder (or backend) is registered in this
    /// process for the artifact's target, so its bytes cannot be
    /// revalidated and are refused; the file is kept for one that has.
    NoDecoder(TargetId),
    /// The value cannot be serialized (e.g. position-dependent code
    /// holding absolute jump-table addresses). Store paths treat this
    /// as a benign skip, not a failure.
    NotPersistable(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "artifact i/o: {e}"),
            PersistError::Truncated { need, got } => {
                write!(f, "artifact truncated: need {need} bytes, got {got}")
            }
            PersistError::BadMagic => write!(f, "not a vcode artifact (bad magic)"),
            PersistError::WrongFormat { found } => {
                write!(
                    f,
                    "artifact format v{found}, this build reads v{FORMAT_VERSION}"
                )
            }
            PersistError::WrongAbi { found } => {
                write!(
                    f,
                    "artifact abi fingerprint {found:#018x} does not match this build"
                )
            }
            PersistError::WrongTarget { found, expected } => {
                write!(
                    f,
                    "artifact targets {}, key requires {}",
                    found.name(),
                    expected.name()
                )
            }
            PersistError::Checksum { stored, computed } => {
                write!(
                    f,
                    "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            PersistError::KeyMismatch => {
                write!(f, "artifact embeds a different cache key than requested")
            }
            PersistError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            PersistError::Revalidation(why) => {
                write!(f, "artifact failed revalidation: {why}")
            }
            PersistError::NoDecoder(t) => {
                write!(f, "no differential decoder registered for {}", t.name())
            }
            PersistError::NotPersistable(why) => {
                write!(f, "value not persistable: {why}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e.to_string())
    }
}

fn target_from_index(i: u8) -> Option<TargetId> {
    TargetId::ALL.get(i as usize).copied()
}

/// One decoded on-disk artifact: the serialized cache identity, the
/// native code bytes, and the client metadata needed to re-adopt them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Backend the code bytes were compiled for.
    pub target: TargetId,
    /// Client arity metadata (argument count for engine lambdas; 0 for
    /// clients with fixed signatures).
    pub args: u8,
    /// vcode instruction count of the original emission (observability
    /// metadata, not trusted for anything load-bearing).
    pub insns: u64,
    /// The cache key's content bytes (e.g. a `Program::encode()`
    /// stream) — embedded verbatim so a misfiled artifact is caught by
    /// byte comparison, not just by hash.
    pub key: Vec<u8>,
    /// Client metadata blob (e.g. DPF dispatch strategies).
    pub meta: Vec<u8>,
    /// The native code bytes. Never mapped before revalidation.
    pub code: Vec<u8>,
}

impl Artifact {
    /// Serializes the artifact into the versioned envelope documented
    /// in the module header, trailing checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_LEN + self.key.len() + self.meta.len() + self.code.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.target.index() as u8);
        out.push(self.args);
        out.extend_from_slice(&abi_fingerprint().to_le_bytes());
        out.extend_from_slice(&self.insns.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.key).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&self.code);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and validates an encoded artifact: length envelope, magic,
    /// format version, checksum, ABI fingerprint, target index, and
    /// embedded key hash, in that order — so each corruption class maps
    /// to its own [`PersistError`] variant.
    ///
    /// # Errors
    ///
    /// Every validation failure is a typed [`PersistError`]; no partial
    /// artifact is ever returned.
    pub fn decode(bytes: &[u8]) -> Result<Artifact, PersistError> {
        let floor = HEADER_LEN + FOOTER_LEN;
        if bytes.len() < floor {
            return Err(PersistError::Truncated {
                need: floor,
                got: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let u16le = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        let u32le = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let u64le = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let format = u16le(OFF_FORMAT);
        if format != FORMAT_VERSION {
            return Err(PersistError::WrongFormat { found: format });
        }
        let key_len = u32le(24) as usize;
        let meta_len = u32le(28) as usize;
        let code_len = u32le(32) as usize;
        let need = HEADER_LEN + key_len + meta_len + code_len + FOOTER_LEN;
        match bytes.len().cmp(&need) {
            std::cmp::Ordering::Less => {
                return Err(PersistError::Truncated {
                    need,
                    got: bytes.len(),
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(PersistError::Malformed("trailing bytes after checksum"))
            }
            std::cmp::Ordering::Equal => {}
        }
        let stored = u64le(bytes.len() - FOOTER_LEN);
        let computed = fnv1a(&bytes[..bytes.len() - FOOTER_LEN]);
        if stored != computed {
            return Err(PersistError::Checksum { stored, computed });
        }
        let abi = u64le(OFF_ABI);
        if abi != abi_fingerprint() {
            return Err(PersistError::WrongAbi { found: abi });
        }
        let target = target_from_index(bytes[OFF_TARGET])
            .ok_or(PersistError::Malformed("target index out of range"))?;
        let key = bytes[HEADER_LEN..HEADER_LEN + key_len].to_vec();
        if u64le(36) != fnv1a(&key) {
            return Err(PersistError::Malformed("embedded key hash mismatch"));
        }
        let meta_at = HEADER_LEN + key_len;
        let code_at = meta_at + meta_len;
        Ok(Artifact {
            target,
            args: bytes[7],
            insns: u64le(16),
            key,
            meta: bytes[meta_at..code_at].to_vec(),
            code: bytes[code_at..code_at + code_len].to_vec(),
        })
    }

    /// Checks that this artifact is the one `key` names: same target,
    /// byte-identical embedded key.
    ///
    /// # Errors
    ///
    /// [`PersistError::WrongTarget`] or [`PersistError::KeyMismatch`].
    pub fn matches(&self, key: &CacheKey) -> Result<(), PersistError> {
        if self.target != key.target() {
            return Err(PersistError::WrongTarget {
                found: self.target,
                expected: key.target(),
            });
        }
        if self.key != key.content() {
            return Err(PersistError::KeyMismatch);
        }
        Ok(())
    }
}

/// Whole-buffer differential re-decode: the artifact-load analogue of
/// the verifier's `cross_check`. Walks `code` from offset 0 with the
/// target's independent instruction decoder and requires that every
/// instruction decodes with a nonzero length, the walk lands exactly on
/// the buffer end, and every pc-relative branch target is an
/// instruction boundary (the one-past-the-end offset counts — the
/// emitters use it for fallthrough-shaped epilogue jumps). Returns the
/// instruction count.
///
/// This is most of an L2 load, so the walk keeps its bookkeeping
/// proportional to the work: boundaries are one bit per code offset
/// (offsets are dense and bounded by `code.len()`), and the decoder is a
/// type parameter, so a caller holding a concrete decoder gets it
/// inlined into the loop (`&dyn InsnDecoder` still works: `D` is then
/// the trait object).
///
/// # Errors
///
/// [`PersistError::Revalidation`] describing the first offset at which
/// the bytes stop looking like code this build's emitters produce.
pub fn redecode<D: InsnDecoder + ?Sized>(code: &[u8], dec: &D) -> Result<u64, PersistError> {
    if code.is_empty() {
        return Err(PersistError::Revalidation("empty code buffer".into()));
    }
    // Bit `o` set: offset `o` starts an instruction (or is the buffer end).
    let mut boundaries = vec![0u64; code.len() / 64 + 1];
    let mut targets: Vec<(usize, i64)> = Vec::new();
    let mut at = 0usize;
    let mut n = 0u64;
    while at < code.len() {
        let d = dec.decode(code, at).ok_or_else(|| {
            PersistError::Revalidation(format!("undecodable instruction at offset {at}"))
        })?;
        if d.len == 0 {
            return Err(PersistError::Revalidation(format!(
                "zero-length decode at offset {at}"
            )));
        }
        boundaries[at / 64] |= 1 << (at % 64);
        if d.control {
            if let Some(t) = d.target {
                targets.push((at, t));
            }
        }
        at += d.len;
        if at > code.len() {
            return Err(PersistError::Revalidation(format!(
                "instruction at offset {} overruns the buffer",
                at - d.len
            )));
        }
        n += 1;
    }
    boundaries[code.len() / 64] |= 1 << (code.len() % 64);
    for (from, t) in targets {
        let on_boundary = usize::try_from(t).is_ok_and(|t| {
            boundaries
                .get(t / 64)
                .is_some_and(|w| w >> (t % 64) & 1 == 1)
        });
        if !on_boundary {
            return Err(PersistError::Revalidation(format!(
                "branch at offset {from} targets non-boundary offset {t}"
            )));
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------
// Differential-decoder registry
// ---------------------------------------------------------------------

/// Decoder registry slots, one per [`TargetId`]. Mirrors the engine's
/// executor registry: a const-initialized `std` lock (init-once
/// registration, no protocol to model — the vsync facade is for
/// modeled modules).
static DECODERS: RwLock<[Option<Arc<dyn InsnDecoder + Send + Sync>>; 4]> =
    RwLock::new([const { None }; 4]);

/// Registers the differential decoder for `target`, replacing any
/// previous registration. `vcode_sim::engine::install()` registers the
/// three simulator decoders; the x86-64 backend supplies its own
/// length decoder directly.
pub fn set_decoder(target: TargetId, dec: Arc<dyn InsnDecoder + Send + Sync>) {
    let mut slots = DECODERS.write().unwrap_or_else(|e| e.into_inner());
    slots[target.index()] = Some(dec);
}

/// The registered differential decoder for `target`, if any.
pub fn decoder(target: TargetId) -> Option<Arc<dyn InsnDecoder + Send + Sync>> {
    let slots = DECODERS.read().unwrap_or_else(|e| e.into_inner());
    slots[target.index()].clone()
}

// ---------------------------------------------------------------------
// Tier seam
// ---------------------------------------------------------------------

/// One tier of the lambda store below the in-memory cache; [`DiskTier`]
/// is the implementation, [`crate::stack`] the caller.
/// `load` answers `Ok(None)` on a clean miss; `store` answers
/// `Ok(false)` when the value was already present (or is not
/// persistable) — both are expected outcomes, not failures.
pub trait CacheTier<V: ?Sized>: Send + Sync + fmt::Debug {
    /// Looks `key` up in this tier.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the tier holds something for `key` but it
    /// failed validation; callers treat this as a miss plus a counter.
    fn load(&self, key: &CacheKey) -> Result<Option<Arc<V>>, PersistError>;

    /// Publishes `val` under `key`; `Ok(true)` when this call stored
    /// it, `Ok(false)` when it was already present, being stored by a
    /// racing thread, or not persistable.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on an I/O or serialization failure.
    fn store(&self, key: &CacheKey, val: &Arc<V>) -> Result<bool, PersistError>;
}

/// Translates between a cached value and its on-disk [`Artifact`].
/// Each client supplies one: the engine's codec round-trips
/// `dyn Lambda` via `Backend::adopt`, DPF's round-trips compiled
/// classifier sets (dispatch strategies in the meta blob), ASH's
/// round-trips kernel pipelines. `from_artifact` owns revalidation —
/// it must re-decode the code bytes before mapping them.
pub trait ArtifactCodec<V: ?Sized>: Send + Sync {
    /// Serializes `val` into an artifact.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotPersistable`] when `val` cannot leave the
    /// process (store paths treat this as a benign skip).
    fn to_artifact(&self, key: &CacheKey, val: &Arc<V>) -> Result<Artifact, PersistError>;

    /// Revalidates and re-materializes a value from a decoded,
    /// envelope-checked artifact.
    ///
    /// # Errors
    ///
    /// [`PersistError::Revalidation`] when the bytes fail the re-decode
    /// or client-level checks (the artifact is then evicted);
    /// `NoDecoder` or `Io` when this process cannot adopt them (it is not).
    ///
    /// (`from_*` with `&self` is deliberate: the codec is a translator
    /// object, not the value's own constructor.)
    #[allow(clippy::wrong_self_convention)]
    fn from_artifact(&self, artifact: &Artifact) -> Result<Arc<V>, PersistError>;
}

// ---------------------------------------------------------------------
// Single-writer store slots
// ---------------------------------------------------------------------

/// Within-process single-writer arbitration for artifact publication,
/// reusing the cache's `Building`-slot machinery: the first thread to
/// [`try_claim`](StoreSlots::try_claim) a fingerprint holds the write
/// slot; racers get `None` and skip the store (the winner's rename will
/// publish for everyone). Claims release on drop — panic-safe — and
/// wake any watcher via the underlying `Build` condvar protocol.
#[derive(Debug, Default)]
pub struct StoreSlots {
    inner: Mutex<HashMap<u64, Arc<Build>>>,
}

/// An exclusive claim on one artifact fingerprint; releasing (drop)
/// vacates the slot and notifies watchers.
pub struct StoreTicket<'s> {
    slots: &'s StoreSlots,
    fp: u64,
    build: Arc<Build>,
}

impl fmt::Debug for StoreTicket<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreTicket").field("fp", &self.fp).finish()
    }
}

impl StoreSlots {
    /// Creates an empty slot table.
    pub fn new() -> StoreSlots {
        StoreSlots::default()
    }

    /// Attempts to claim the write slot for `fp`. `None` means another
    /// thread already holds it — the caller should skip its store and
    /// rely on the winner's publication.
    pub fn try_claim(&self, fp: u64) -> Option<StoreTicket<'_>> {
        let mut slots = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if slots.contains_key(&fp) {
            return None;
        }
        let build = Arc::new(Build::default());
        if !vsync::injected(vsync::Injection::PersistClaimRace) {
            slots.insert(fp, Arc::clone(&build));
        }
        // Mutation under test (model checker only): the claim is handed
        // out but never recorded, so a racing thread claims the same
        // fingerprint and both write — the single-writer model program
        // observes the double publication and fails.
        Some(StoreTicket {
            slots: self,
            fp,
            build,
        })
    }

    /// Number of claims currently outstanding (test observability).
    pub fn outstanding(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for StoreTicket<'_> {
    fn drop(&mut self) {
        let mut slots = self.slots.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cur) = slots.get(&self.fp) {
            if Arc::ptr_eq(cur, &self.build) {
                slots.remove(&self.fp);
            }
        }
        drop(slots);
        self.build.wake();
    }
}

// ---------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------

/// Counter for unique temp-file names within one process (the pid
/// disambiguates across processes). Deliberately a plain std atomic:
/// temp-name uniqueness is not a scheduling property, so the model
/// checker has nothing to explore here.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The on-disk L2 tier: one artifact file per key under `dir`, named by
/// a stable versioned fingerprint, published by atomic write-rename,
/// revalidated on every load by the client [`ArtifactCodec`].
pub struct DiskTier<V: ?Sized> {
    dir: PathBuf,
    codec: Box<dyn ArtifactCodec<V>>,
    slots: StoreSlots,
}

impl<V: ?Sized> fmt::Debug for DiskTier<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskTier")
            .field("dir", &self.dir)
            .field("outstanding", &self.slots.outstanding())
            .finish()
    }
}

impl<V: ?Sized> DiskTier<V> {
    /// Opens (creating if needed) an artifact directory with the given
    /// value codec.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn new(
        dir: impl Into<PathBuf>,
        codec: Box<dyn ArtifactCodec<V>>,
    ) -> Result<DiskTier<V>, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskTier {
            dir,
            codec,
            slots: StoreSlots::new(),
        })
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stable content-addressed fingerprint of a key: FNV-1a over the
    /// key's content bytes (process-independent, unlike the key's
    /// in-memory routing hash).
    pub fn fingerprint(key: &CacheKey) -> u64 {
        fnv1a(key.content())
    }

    /// The artifact file name for `key`: format version, target,
    /// ABI fingerprint, and content fingerprint — every component that
    /// must match for the bytes to be adoptable, so incompatible builds
    /// sharing one cache directory simply never collide.
    pub fn file_name(key: &CacheKey) -> String {
        format!(
            "v{}-{}-{:016x}-{:016x}.vcar",
            FORMAT_VERSION,
            key.target().name(),
            abi_fingerprint(),
            Self::fingerprint(key),
        )
    }

    /// Full artifact path for `key` under this tier's directory.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(Self::file_name(key))
    }

    /// Reads and envelope-validates the artifact for `key` without
    /// invoking the codec (no adoption, nothing mapped). `Ok(None)` on
    /// a clean miss.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] from the envelope checks or [`Artifact::matches`].
    pub fn load_artifact(&self, key: &CacheKey) -> Result<Option<Artifact>, PersistError> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let artifact = Artifact::decode(&bytes)?;
        artifact.matches(key)?;
        Ok(Some(artifact))
    }

    /// Stages `bytes` in a unique temp file in the artifact directory
    /// and renames it over `path` — readers observe no file or a whole
    /// file, never a prefix.
    fn publish(&self, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            seq,
            path.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("artifact"),
        ));
        let result = (|| -> Result<(), PersistError> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

impl<V: ?Sized> DiskTier<V> {
    /// Removes a rejected artifact so the miss path's store-through can
    /// heal it — otherwise a corrupt file would cost a recompile on
    /// every process start forever (the store's exists-check would keep
    /// skipping it).
    ///
    /// Deleting is sound because the file *name* already carries the
    /// format, target, ABI and content fingerprints: any build that
    /// would compute this path would reject these same bytes, so the
    /// file has no other legitimate reader. (The one exception is a
    /// full 64-bit content-fingerprint collision between two different
    /// programs, where the colliding keys thrash one path — correct
    /// either way, since each loser recompiles.)
    ///
    /// Rejections that describe *this process*, not the bytes, are
    /// exempt: `Io` (a transient read failure, or no executable memory
    /// for the codec) and `NoDecoder` (no decoder or backend registered
    /// here). A better-equipped load still gets the file.
    fn evict_rejected(&self, key: &CacheKey, err: &PersistError) {
        if !matches!(err, PersistError::Io(_) | PersistError::NoDecoder(_)) {
            let _ = fs::remove_file(self.path_for(key));
        }
    }
}

impl<V: ?Sized + Send + Sync> CacheTier<V> for DiskTier<V> {
    fn load(&self, key: &CacheKey) -> Result<Option<Arc<V>>, PersistError> {
        // Envelope checks, then the codec's revalidation: a refusal
        // from either is counted and classified the same way.
        let loaded = self
            .load_artifact(key)
            .and_then(|a| a.map(|a| self.codec.from_artifact(&a)).transpose());
        match &loaded {
            Ok(Some(_)) => obs::note_persist_hit(),
            Ok(None) => obs::note_persist_miss(),
            Err(e) => {
                obs::note_persist_reject();
                self.evict_rejected(key, e);
            }
        }
        loaded
    }

    fn store(&self, key: &CacheKey, val: &Arc<V>) -> Result<bool, PersistError> {
        let path = self.path_for(key);
        if path.exists() {
            return Ok(false);
        }
        let artifact = match self.codec.to_artifact(key, val) {
            Ok(a) => a,
            Err(PersistError::NotPersistable(_)) => return Ok(false),
            Err(e) => return Err(e),
        };
        // Claim the within-process write slot *before* encoding work so
        // racing threads skip early; cross-process races are harmless
        // (both writers publish identical bytes by construction, and
        // rename keeps each publication atomic).
        let Some(_ticket) = self.slots.try_claim(Self::fingerprint(key)) else {
            return Ok(false);
        };
        if path.exists() {
            return Ok(false);
        }
        self.publish(&path, &artifact.encode())?;
        obs::note_persist_store();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vcode-persist-test-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Artifact {
        Artifact {
            target: TargetId::X64,
            args: 2,
            insns: 7,
            key: vec![1, 2, 3, 4],
            meta: vec![9, 9],
            code: vec![0xc3; 16],
        }
    }

    #[test]
    fn envelope_round_trips() {
        let a = sample();
        let bytes = a.encode();
        assert_eq!(Artifact::decode(&bytes).expect("round trip"), a);
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Artifact::decode(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Checksum { .. }
                        | PersistError::BadMagic
                        | PersistError::WrongFormat { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_bitflip_is_typed() {
        let bytes = sample().encode();
        for at in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut c = bytes.clone();
                c[at] ^= 1 << bit;
                assert!(
                    Artifact::decode(&c).is_err(),
                    "flip at byte {at} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn cross_version_and_cross_abi_are_refused() {
        let mut bytes = sample().encode();
        bytes[OFF_FORMAT] = 0x7f;
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - FOOTER_LEN]);
        bytes[n - FOOTER_LEN..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Artifact::decode(&bytes),
            Err(PersistError::WrongFormat { found: 0x7f })
        ));

        let mut bytes = sample().encode();
        bytes[OFF_ABI] ^= 0xff;
        let sum = fnv1a(&bytes[..n - FOOTER_LEN]);
        bytes[n - FOOTER_LEN..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Artifact::decode(&bytes),
            Err(PersistError::WrongAbi { .. })
        ));
    }

    #[test]
    fn wrong_target_caught_by_match() {
        let a = sample();
        let other = CacheKey::new(TargetId::Mips, a.key.clone());
        assert!(matches!(
            a.matches(&other),
            Err(PersistError::WrongTarget { .. })
        ));
        let wrong_bytes = CacheKey::new(TargetId::X64, vec![5, 5]);
        assert!(matches!(
            a.matches(&wrong_bytes),
            Err(PersistError::KeyMismatch)
        ));
    }

    #[test]
    fn store_slots_single_writer() {
        let slots = StoreSlots::new();
        let t = slots.try_claim(42).expect("first claim wins");
        assert!(slots.try_claim(42).is_none(), "second claim must lose");
        assert!(slots.try_claim(43).is_some(), "other keys unaffected");
        drop(t);
        assert!(slots.try_claim(42).is_some(), "released slot reclaimable");
    }

    #[derive(Debug)]
    struct BlobCodec;
    impl ArtifactCodec<Vec<u8>> for BlobCodec {
        fn to_artifact(
            &self,
            key: &CacheKey,
            val: &Arc<Vec<u8>>,
        ) -> Result<Artifact, PersistError> {
            Ok(Artifact {
                target: key.target(),
                args: 0,
                insns: 0,
                key: key.content().to_vec(),
                meta: Vec::new(),
                code: val.as_ref().clone(),
            })
        }
        fn from_artifact(&self, artifact: &Artifact) -> Result<Arc<Vec<u8>>, PersistError> {
            Ok(Arc::new(artifact.code.clone()))
        }
    }

    #[test]
    fn disk_tier_round_trips_and_misses_clean() {
        let dir = scratch_dir("roundtrip");
        let tier: DiskTier<Vec<u8>> = DiskTier::new(&dir, Box::new(BlobCodec)).expect("open");
        let key = CacheKey::new(TargetId::Mips, vec![1, 2, 3]);
        assert!(tier.load(&key).expect("clean miss").is_none());
        let val = Arc::new(vec![0xAAu8; 32]);
        assert!(tier.store(&key, &val).expect("store"));
        assert!(
            !tier.store(&key, &val).expect("idempotent"),
            "restore must skip"
        );
        let back = tier.load(&key).expect("load").expect("hit");
        assert_eq!(*back, *val);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_typed_not_fatal() {
        let dir = scratch_dir("corrupt");
        let tier: DiskTier<Vec<u8>> = DiskTier::new(&dir, Box::new(BlobCodec)).expect("open");
        let key = CacheKey::new(TargetId::Alpha, vec![7; 8]);
        let val = Arc::new(vec![0x55u8; 16]);
        tier.store(&key, &val).expect("store");
        let path = tier.path_for(&key);
        fs::write(&path, b"garbage").expect("clobber");
        assert!(tier.load(&key).is_err(), "garbage must be a typed error");
        fs::write(&path, b"").expect("zero");
        assert!(matches!(
            tier.load(&key),
            Err(PersistError::Truncated { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_artifact_is_evicted_and_heals() {
        let dir = scratch_dir("heal");
        let tier: DiskTier<Vec<u8>> = DiskTier::new(&dir, Box::new(BlobCodec)).expect("open");
        let key = CacheKey::new(TargetId::Sparc, vec![3; 4]);
        let val = Arc::new(vec![0x11u8; 24]);
        tier.store(&key, &val).expect("store");
        let path = tier.path_for(&key);
        fs::write(&path, b"rotten").expect("clobber");
        assert!(tier.load(&key).is_err(), "rot must be a typed error");
        assert!(
            !path.exists(),
            "rejected artifact must be evicted so store-through can heal it"
        );
        assert!(
            tier.store(&key, &val).expect("heal"),
            "store after eviction must publish, not skip"
        );
        let back = tier.load(&key).expect("healed load").expect("hit");
        assert_eq!(*back, *val);
        let _ = fs::remove_dir_all(&dir);
    }
}
