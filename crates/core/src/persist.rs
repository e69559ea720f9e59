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
//! **Artifact format v2** (all fields little-endian; every offset is an
//! exported `OFF_*` constant so corruption tests can patch fields
//! surgically):
//!
//! ```text
//!   off  0  magic      b"VCAR"
//!   off  4  format     u16   OFF_FORMAT    bumped on any layout or digest change
//!   off  6  target     u8    OFF_TARGET    TargetId::index()
//!   off  7  args       u8    OFF_ARGS      client arity metadata
//!   off  8  abi        u64   OFF_ABI       abi_fingerprint(): crate version,
//!                                          pointer width, endianness, format
//!   off 16  insns      u64   OFF_INSNS     vcode insn count (client metadata)
//!   off 24  key_len    u32   OFF_KEY_LEN
//!   off 28  meta_len   u32   OFF_META_LEN
//!   off 32  code_len   u32   OFF_CODE_LEN
//!   off 36  key_hash   u64   OFF_KEY_HASH  digest64 of the key bytes
//!   off 44  key bytes ‖ meta bytes ‖ code bytes
//!   tail    checksum   u64   digest64 of everything before it
//! ```
//!
//! One digest, [`digest64`], names the file, fills `key_hash` and seals
//! the checksum. It is a word-at-a-time multiply-rotate hash, not a
//! cryptographic one, and 64 bits of it are enough only because it
//! guards against *accident* (bit rot, torn writes, misfiled or
//! colliding names): the trust boundary is the re-decode below, which
//! every code byte passes before it is mapped, checksum or no checksum.
//! A load hashes the key once (file name, and the header comparison
//! after the embedded key has compared byte-equal) and the file once.
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
//! [`StoreSlots`] — a locked set of claimed fingerprints — makes threads
//! racing to persist one key write exactly one artifact (the claim
//! protocol is model-checked in `crates/mcheck`; see
//! `persist_single_writer`).

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::cache::CacheKey;
use crate::engine::TargetId;
use crate::verify::InsnDecoder;
use crate::vsync::{self, Arc, Mutex};

/// Artifact file magic: the first four bytes of every vcode artifact.
pub const MAGIC: [u8; 4] = *b"VCAR";
/// On-disk format version; bumped on any layout or digest change so
/// stale artifacts classify as [`PersistError::WrongFormat`], not
/// garbage. It also leads every artifact file name, so a build never
/// opens another format's files; [`DiskTier::new`] removes older ones.
pub const FORMAT_VERSION: u16 = 2;
/// Byte offset of the `format` field (u16 LE) in an encoded artifact.
pub const OFF_FORMAT: usize = 4;
/// Byte offset of the `target` field (u8) in an encoded artifact.
pub const OFF_TARGET: usize = 6;
/// Byte offset of the `args` field (u8) in an encoded artifact.
pub const OFF_ARGS: usize = 7;
/// Byte offset of the `abi` fingerprint (u64 LE) in an encoded artifact.
pub const OFF_ABI: usize = 8;
/// Byte offset of the `insns` field (u64 LE) in an encoded artifact.
pub const OFF_INSNS: usize = 16;
/// Byte offset of the `key_len` field (u32 LE) in an encoded artifact.
pub const OFF_KEY_LEN: usize = 24;
/// Byte offset of the `meta_len` field (u32 LE) in an encoded artifact.
pub const OFF_META_LEN: usize = 28;
/// Byte offset of the `code_len` field (u32 LE) in an encoded artifact.
pub const OFF_CODE_LEN: usize = 32;
/// Byte offset of the `key_hash` field (u64 LE [`digest64`] of the key
/// bytes) in an encoded artifact.
pub const OFF_KEY_HASH: usize = 36;
/// Fixed header length; payload (key ‖ meta ‖ code) follows.
pub const HEADER_LEN: usize = 44;
/// Trailing checksum length (u64 LE [`digest64`] of everything before it).
pub const FOOTER_LEN: usize = 8;
/// Largest artifact file the tier reads or writes. The three `u32`
/// length fields could describe 12 GiB; no lambda, classifier or kernel
/// comes near this, so a bigger file under an artifact's name is refused
/// from its metadata, before a byte of it is read.
pub const MAX_ARTIFACT_LEN: usize = 64 << 20;

/// The tier's one content digest: artifact file names, the header's
/// `key_hash`, the trailing checksum, and (through
/// [`CacheKey`]) the in-memory cache's routing hash.
/// Two multiply-rotate lanes over little-endian words, length-seeded,
/// zero-padded tail, high half folded down (the cache takes its shard
/// index from the low bits). Every step is a bijection of its lane, so
/// a change confined to one 8-byte word always changes the result — in
/// particular every single-bit flip does.
///
/// On-disk stable: the value is written into files and file names, so
/// changing this function bumps [`FORMAT_VERSION`] (the pinned test
/// vectors fail first). Not cryptographic — see the module header for
/// why that is enough.
pub fn digest64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let (mut a, mut b) = (bytes.len() as u64, K);
    let mut pairs = bytes.chunks_exact(16);
    for c in &mut pairs {
        a = mix(a, word(&c[..8]));
        b = mix(b, word(&c[8..]));
    }
    let mut tail = [0u8; 16];
    tail[..pairs.remainder().len()].copy_from_slice(pairs.remainder());
    a = mix(a, word(&tail[..8]));
    b = mix(b, word(&tail[8..]));
    let h = mix(a, b);
    h ^ (h >> 32)
}

/// Fingerprint of everything that must match for native bytes to be
/// safely adopted by this build: crate version, on-disk format,
/// pointer width, and endianness. Two builds that disagree on any of
/// these refuse each other's artifacts ([`PersistError::WrongAbi`])
/// rather than mapping code compiled under different assumptions.
/// Computed once per process.
pub fn abi_fingerprint() -> u64 {
    static ABI: OnceLock<u64> = OnceLock::new();
    *ABI.get_or_init(|| {
        let mut id = Vec::with_capacity(32);
        id.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
        id.push(0);
        id.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        id.push(size_of::<usize>() as u8);
        id.push(if cfg!(target_endian = "little") { 1 } else { 2 });
        digest64(&id)
    })
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
    /// The trailing [`digest64`] checksum does not cover the bytes present —
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
    /// No backend for the artifact's target is registered with the
    /// engine (or the one registered cannot adopt), so its bytes cannot
    /// be revalidated and are refused; the file is kept for an engine
    /// that has one.
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
                write!(f, "no backend registered to revalidate {}", t.name())
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

/// One decoded on-disk artifact, owned: the serialized cache identity,
/// the native code bytes, and the client metadata needed to re-adopt
/// them. What a codec builds to store; a load works on the borrowed
/// [`ArtifactView`] instead.
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
    /// Client metadata blob (the engine's lambdas leave it empty).
    pub meta: Vec<u8>,
    /// The native code bytes. Never mapped before revalidation.
    pub code: Vec<u8>,
}

/// An envelope-checked artifact borrowed from the buffer it was read
/// into: the same fields as [`Artifact`] with the three byte runs left
/// in place. This is what a load hands the codec, so the only copy of
/// the code bytes a load makes is the one into executable memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactView<'a> {
    /// Backend the code bytes were compiled for.
    pub target: TargetId,
    /// Client arity metadata.
    pub args: u8,
    /// vcode instruction count of the original emission.
    pub insns: u64,
    /// The embedded cache-key content bytes.
    pub key: &'a [u8],
    /// Client metadata blob.
    pub meta: &'a [u8],
    /// The native code bytes. Never mapped before revalidation.
    pub code: &'a [u8],
}

/// The header's `key_hash` is not the digest of the key it sits beside.
const KEY_HASH_MISMATCH: PersistError = PersistError::Malformed("embedded key hash mismatch");

/// The `N` bytes at `at`; callers have checked `at + N <= b.len()`.
fn le_bytes<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    b[at..at + N].try_into().expect("length checked by caller")
}

impl<'a> ArtifactView<'a> {
    /// Parses and validates an encoded artifact: length envelope, magic,
    /// format version, exact length (overflow-checked, no trailing
    /// bytes), checksum, ABI fingerprint and target index, in that order
    /// — so each corruption class maps to its own [`PersistError`].
    ///
    /// Also returns the header's `key_hash`, which the caller must hold
    /// against the digest of the key: [`Artifact::decode`] against
    /// `digest64(view.key)`, the tier — once [`matches`](Self::matches)
    /// has proven the embedded key byte-identical to the one requested —
    /// against the digest it already computed to name the file.
    fn parse(bytes: &'a [u8]) -> Result<(ArtifactView<'a>, u64), PersistError> {
        let truncated = |need: usize| PersistError::Truncated {
            need,
            got: bytes.len(),
        };
        let floor = HEADER_LEN + FOOTER_LEN;
        if bytes.len() < floor {
            return Err(truncated(floor));
        }
        if bytes[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let format = u16::from_le_bytes(le_bytes(bytes, OFF_FORMAT));
        if format != FORMAT_VERSION {
            return Err(PersistError::WrongFormat { found: format });
        }
        let len_at = |at: usize| u32::from_le_bytes(le_bytes(bytes, at)) as usize;
        let (key_len, meta_len, code_len) = (
            len_at(OFF_KEY_LEN),
            len_at(OFF_META_LEN),
            len_at(OFF_CODE_LEN),
        );
        // Lengths a 32-bit `usize` cannot sum describe a file no such
        // host could hold: short of them by any measure.
        let need = [key_len, meta_len, code_len, FOOTER_LEN]
            .iter()
            .try_fold(HEADER_LEN, |sum, &n| sum.checked_add(n))
            .ok_or(truncated(usize::MAX))?;
        match bytes.len().cmp(&need) {
            std::cmp::Ordering::Less => return Err(truncated(need)),
            std::cmp::Ordering::Greater => {
                return Err(PersistError::Malformed("trailing bytes after checksum"))
            }
            std::cmp::Ordering::Equal => {}
        }
        let body = need - FOOTER_LEN;
        let stored = u64::from_le_bytes(le_bytes(bytes, body));
        let computed = digest64(&bytes[..body]);
        if stored != computed {
            return Err(PersistError::Checksum { stored, computed });
        }
        let abi = u64::from_le_bytes(le_bytes(bytes, OFF_ABI));
        if abi != abi_fingerprint() {
            return Err(PersistError::WrongAbi { found: abi });
        }
        let target = TargetId::ALL
            .get(usize::from(bytes[OFF_TARGET]))
            .copied()
            .ok_or(PersistError::Malformed("target index out of range"))?;
        let meta_at = HEADER_LEN + key_len;
        let code_at = meta_at + meta_len;
        let view = ArtifactView {
            target,
            args: bytes[OFF_ARGS],
            insns: u64::from_le_bytes(le_bytes(bytes, OFF_INSNS)),
            key: &bytes[HEADER_LEN..meta_at],
            meta: &bytes[meta_at..code_at],
            code: &bytes[code_at..body],
        };
        Ok((view, u64::from_le_bytes(le_bytes(bytes, OFF_KEY_HASH))))
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

    /// Copies the three byte runs out of the buffer.
    pub fn to_owned(&self) -> Artifact {
        Artifact {
            target: self.target,
            args: self.args,
            insns: self.insns,
            key: self.key.to_vec(),
            meta: self.meta.to_vec(),
            code: self.code.to_vec(),
        }
    }
}

impl Artifact {
    /// This artifact, borrowed.
    pub fn view(&self) -> ArtifactView<'_> {
        ArtifactView {
            target: self.target,
            args: self.args,
            insns: self.insns,
            key: &self.key,
            meta: &self.meta,
            code: &self.code,
        }
    }

    /// Length of [`encode`](Self::encode)'s output.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.key.len() + self.meta.len() + self.code.len() + FOOTER_LEN
    }

    /// Serializes the artifact into the versioned envelope documented
    /// in the module header, trailing checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.target.index() as u8);
        out.push(self.args);
        out.extend_from_slice(&abi_fingerprint().to_le_bytes());
        out.extend_from_slice(&self.insns.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        out.extend_from_slice(&digest64(&self.key).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&self.code);
        let sum = digest64(&out);
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
        let (view, key_hash) = ArtifactView::parse(bytes)?;
        if key_hash != digest64(view.key) {
            return Err(KEY_HASH_MISMATCH);
        }
        Ok(view.to_owned())
    }

    /// Checks that this artifact is the one `key` names: same target,
    /// byte-identical embedded key.
    ///
    /// # Errors
    ///
    /// [`PersistError::WrongTarget`] or [`PersistError::KeyMismatch`].
    pub fn matches(&self, key: &CacheKey) -> Result<(), PersistError> {
        self.view().matches(key)
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
    // Sized for a branch every 32 bytes, denser than the emitters write
    // them: the list is allocated once, not regrown as the walk goes.
    let mut targets: Vec<(usize, i64)> = Vec::with_capacity(code.len() / 32 + 1);
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
/// The product has one: the engine's codec round-trips `dyn Lambda` via
/// `Backend::adopt` (DPF and ASH keep no disk tier; DESIGN.md "Code
/// stack"). `from_artifact` owns revalidation — it must re-decode the
/// code bytes before mapping them.
pub trait ArtifactCodec<V: ?Sized>: Send + Sync {
    /// Serializes `val` into an artifact.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotPersistable`] when `val` cannot leave the
    /// process (store paths treat this as a benign skip).
    fn to_artifact(&self, key: &CacheKey, val: &Arc<V>) -> Result<Artifact, PersistError>;

    /// Revalidates and re-materializes a value from an envelope-checked
    /// artifact, borrowed from the buffer the file was read into.
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
    fn from_artifact(&self, artifact: &ArtifactView<'_>) -> Result<Arc<V>, PersistError>;
}

// ---------------------------------------------------------------------
// Single-writer store slots
// ---------------------------------------------------------------------

/// Within-process single-writer arbitration for artifact publication:
/// the first thread to [`try_claim`](StoreSlots::try_claim) a
/// fingerprint holds the write slot; racers get `None` and skip the
/// store (the winner's rename will publish for everyone). Nobody waits
/// on a claim, so the table is a set. Claims release on drop —
/// panic-safe.
#[derive(Debug, Default)]
pub struct StoreSlots {
    inner: Mutex<HashSet<u64>>,
}

/// An exclusive claim on one artifact fingerprint; releasing (drop)
/// vacates the slot.
pub struct StoreTicket<'s> {
    slots: &'s StoreSlots,
    fp: u64,
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
        if slots.contains(&fp) {
            return None;
        }
        // Mutation under test (model checker only): the claim is handed
        // out but never recorded, so a racing thread claims the same
        // fingerprint and both write — the single-writer model program
        // observes the double publication and fails.
        if !vsync::injected(vsync::Injection::PersistClaimRace) {
            slots.insert(fp);
        }
        Some(StoreTicket { slots: self, fp })
    }

    /// Number of claims currently outstanding (test observability).
    pub fn outstanding(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for StoreTicket<'_> {
    fn drop(&mut self) {
        let mut slots = self.slots.inner.lock().unwrap_or_else(|e| e.into_inner());
        slots.remove(&self.fp);
    }
}

// ---------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------

/// Counter for unique temp-file names within one process (the pid
/// disambiguates across processes). Deliberately a plain std atomic:
/// temp-name uniqueness is not a scheduling property, so the model
/// checker has nothing to explore here.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Directory entries [`DiskTier::new`] looks at for superseded-format
/// files: opening a tier stays bounded over a directory of any size.
const SWEEP_SCAN_MAX: usize = 1 << 16;

/// The format version an artifact file name leads with
/// (`v{N}-….vcar`), or `None` for any other name — temp files of a
/// live writer (`.tmp-…`) and strangers' files among them.
fn name_format_version(name: &str) -> Option<u16> {
    let (version, _) = name
        .strip_suffix(".vcar")?
        .strip_prefix('v')?
        .split_once('-')?;
    version.parse().ok()
}

/// Reads the file at `path` whole: one open, the length from its
/// metadata, one read of that many bytes and a last one that finds the
/// end (a file that grew meanwhile comes back longer than its header
/// says and is refused as such). `Ok(None)` when there is no file.
///
/// The buffer is the caller's own, so concurrent loads share nothing.
fn read_bounded(path: &Path) -> Result<Option<Vec<u8>>, PersistError> {
    const TOO_BIG: PersistError = PersistError::Malformed("artifact larger than the format allows");
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    if len > MAX_ARTIFACT_LEN as u64 {
        return Err(TOO_BIG);
    }
    // One spare byte: the read that fills `len` leaves room, so the
    // read that confirms the end needs no regrowth.
    let mut buf = Vec::with_capacity(len as usize + 1);
    file.take(MAX_ARTIFACT_LEN as u64 + 1)
        .read_to_end(&mut buf)?;
    if buf.len() > MAX_ARTIFACT_LEN {
        return Err(TOO_BIG);
    }
    Ok(Some(buf))
}

/// One tier's counter snapshot ([`DiskTier::stats`]). A hit is an
/// artifact loaded, revalidated and adopted; a miss is a clean absence;
/// a reject is an artifact that existed but failed a validation stage
/// (envelope, checksum, re-decode, codec) — each one a silent fallback
/// to a fresh compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Artifacts loaded, revalidated, and adopted.
    pub hits: u64,
    /// Clean misses (no artifact on disk).
    pub misses: u64,
    /// Artifacts written (store-through publications).
    pub stores: u64,
    /// Artifacts refused by validation.
    pub rejects: u64,
    /// Artifact files of superseded formats removed when the tier
    /// opened its directory.
    pub swept: u64,
}

/// Plain `std` atomics, like [`TMP_SEQ`]: a count is not a scheduling
/// property, so the model checker has nothing to explore here.
#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    rejects: AtomicU64,
    /// Fixed when the tier opens: the sweep runs once, in `new`.
    swept: u64,
}

/// The on-disk L2 tier: one artifact file per key under `dir`, named by
/// a stable versioned fingerprint, published by atomic write-rename,
/// revalidated on every load by the client [`ArtifactCodec`].
pub struct DiskTier<V: ?Sized> {
    dir: PathBuf,
    codec: Box<dyn ArtifactCodec<V>>,
    slots: StoreSlots,
    stats: StatCells,
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
    /// value codec, and removes from it the artifacts of superseded
    /// formats (`v{N}-….vcar`, `N <` [`FORMAT_VERSION`]): no build from
    /// this one on will name them again. Files of a newer format, temp
    /// files and anything that is not an artifact name are left alone.
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
        // Best effort: a directory that cannot be listed, or a file
        // that cannot be removed, costs disk space, not correctness.
        let superseded = fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .take(SWEEP_SCAN_MAX)
            .flatten()
            .filter(|entry| {
                entry
                    .file_name()
                    .to_str()
                    .and_then(name_format_version)
                    .is_some_and(|v| v < FORMAT_VERSION)
            })
            .filter(|entry| fs::remove_file(entry.path()).is_ok())
            .count();
        Ok(DiskTier {
            dir,
            codec,
            slots: StoreSlots::new(),
            stats: StatCells {
                swept: superseded as u64,
                ..StatCells::default()
            },
        })
    }

    /// Snapshot of this tier's counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            stores: self.stats.stores.load(Ordering::Relaxed),
            rejects: self.stats.rejects.load(Ordering::Relaxed),
            swept: self.stats.swept,
        }
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stable content-addressed fingerprint of a key: [`digest64`] over
    /// the key's content bytes (a function of the bytes alone, whatever
    /// routing hash the key was built with).
    pub fn fingerprint(key: &CacheKey) -> u64 {
        digest64(key.content())
    }

    /// The artifact file name for `key`: format version, target,
    /// ABI fingerprint, and content fingerprint — every component that
    /// must match for the bytes to be adoptable, so incompatible builds
    /// sharing one cache directory simply never collide.
    pub fn file_name(key: &CacheKey) -> String {
        Self::file_name_of(key.target(), Self::fingerprint(key))
    }

    fn file_name_of(target: TargetId, fingerprint: u64) -> String {
        format!(
            "v{}-{}-{:016x}-{:016x}.vcar",
            FORMAT_VERSION,
            target.name(),
            abi_fingerprint(),
            fingerprint,
        )
    }

    /// Full artifact path for `key` under this tier's directory.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.locate(key).1
    }

    /// `key`'s fingerprint and the path it names: the one scan of the
    /// key bytes an operation makes.
    fn locate(&self, key: &CacheKey) -> (u64, PathBuf) {
        let fingerprint = Self::fingerprint(key);
        let name = Self::file_name_of(key.target(), fingerprint);
        (fingerprint, self.dir.join(name))
    }

    /// Reads and envelope-validates the artifact for `key` without
    /// invoking the codec (no adoption, nothing mapped). `Ok(None)` on
    /// a clean miss.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] from the envelope checks or [`Artifact::matches`].
    pub fn load_artifact(&self, key: &CacheKey) -> Result<Option<Artifact>, PersistError> {
        let (fingerprint, path) = self.locate(key);
        Self::load_with(&path, key, fingerprint, |view| Ok(view.to_owned()))
    }

    /// The one load path: reads the file at `path` into a buffer of
    /// this call's own, runs every envelope check on it in place
    /// ([`ArtifactView::parse`], [`ArtifactView::matches`], then the
    /// header's `key_hash` against `fingerprint` — the digest of the
    /// key the embedded bytes were just proven equal to), and hands the
    /// borrowed view to `then`. `Ok(None)` when there is no file.
    fn load_with<R>(
        path: &Path,
        key: &CacheKey,
        fingerprint: u64,
        then: impl FnOnce(&ArtifactView<'_>) -> Result<R, PersistError>,
    ) -> Result<Option<R>, PersistError> {
        let Some(bytes) = read_bounded(path)? else {
            return Ok(None);
        };
        let (view, key_hash) = ArtifactView::parse(&bytes)?;
        view.matches(key)?;
        if key_hash != fingerprint {
            return Err(KEY_HASH_MISMATCH);
        }
        then(&view).map(Some)
    }

    /// Stages `bytes` in a unique temp file in the artifact directory
    /// and renames it over `path` — readers observe no file or a whole
    /// file, never a prefix.
    fn publish(&self, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
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
/// for the codec) and `NoDecoder` (no backend registered for the
/// target). A better-equipped load still gets the file.
fn evict_rejected(path: &Path, err: &PersistError) {
    if !matches!(err, PersistError::Io(_) | PersistError::NoDecoder(_)) {
        let _ = fs::remove_file(path);
    }
}

impl<V: ?Sized + Send + Sync> CacheTier<V> for DiskTier<V> {
    fn load(&self, key: &CacheKey) -> Result<Option<Arc<V>>, PersistError> {
        // The key is hashed here, once, for the name and the header.
        let (fingerprint, path) = self.locate(key);
        // Envelope checks, then the codec's revalidation: a refusal
        // from either is counted and classified the same way.
        let loaded = Self::load_with(&path, key, fingerprint, |view| {
            self.codec.from_artifact(view)
        });
        let cell = match &loaded {
            Ok(Some(_)) => &self.stats.hits,
            Ok(None) => &self.stats.misses,
            Err(e) => {
                evict_rejected(&path, e);
                &self.stats.rejects
            }
        };
        cell.fetch_add(1, Ordering::Relaxed);
        loaded
    }

    fn store(&self, key: &CacheKey, val: &Arc<V>) -> Result<bool, PersistError> {
        let (fingerprint, path) = self.locate(key);
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
        let Some(_ticket) = self.slots.try_claim(fingerprint) else {
            return Ok(false);
        };
        if path.exists() {
            return Ok(false);
        }
        // What could not be read back is not written.
        if artifact.encoded_len() > MAX_ARTIFACT_LEN {
            return Ok(false);
        }
        self.publish(&path, &artifact.encode())?;
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
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

    /// Recomputes the trailing checksum, so the damage under test is
    /// the field patched, not the seal.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - FOOTER_LEN;
        let sum = digest64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// The digest is on disk (file names, `key_hash`, checksums): these
    /// values — worked out by hand from the definition, not by this
    /// code — may change only together with [`FORMAT_VERSION`].
    #[test]
    fn digest64_is_pinned() {
        let counter: Vec<u8> = (0..4096u32).map(|i| (i * 7 + (i >> 8)) as u8).collect();
        let vectors: [(&[u8], u64); 7] = [
            (&[], 0x9b5a_f60b_9067_5850),
            (&[0x61], 0xb3bf_405c_e99f_d68e),
            (&counter[..15], 0xe6f7_7c3d_8775_a809),
            (&counter[..16], 0xd394_b813_c3a5_0ac6),
            (&counter[..17], 0xca31_4821_a262_cc2d),
            (&counter[..4095], 0x4783_f10e_3162_1761),
            (&counter, 0x8d29_9336_0cdb_26b2),
        ];
        for (bytes, want) in vectors {
            assert_eq!(
                digest64(bytes),
                want,
                "digest64 of {} bytes moved: {:#018x}",
                bytes.len(),
                digest64(bytes)
            );
        }
        // A function of the bytes, not of where they sit in memory.
        let mut shifted = vec![0u8; 9];
        shifted.extend_from_slice(&counter);
        for skew in 1..9 {
            assert_eq!(
                digest64(&shifted[skew..][9 - skew..]),
                digest64(&counter),
                "skew {skew}"
            );
        }
        // Zero padding of the tail is told apart by the length seed.
        assert_ne!(digest64(&[0]), digest64(&[]));
        assert_ne!(digest64(&[1, 0]), digest64(&[1]));
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
    fn cross_version_and_cross_abi_are_refused() {
        let mut bytes = sample().encode();
        bytes[OFF_FORMAT] = 0x7f;
        reseal(&mut bytes);
        assert!(matches!(
            Artifact::decode(&bytes),
            Err(PersistError::WrongFormat { found: 0x7f })
        ));

        let mut bytes = sample().encode();
        bytes[OFF_ABI] ^= 0xff;
        reseal(&mut bytes);
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
        fn from_artifact(&self, artifact: &ArtifactView<'_>) -> Result<Arc<Vec<u8>>, PersistError> {
            Ok(Arc::new(artifact.code.to_vec()))
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

    /// A stored artifact for `key`, as (tier, path, pristine bytes).
    fn stored(tag: &str, key: &CacheKey) -> (DiskTier<Vec<u8>>, PathBuf, Vec<u8>) {
        let tier = DiskTier::new(scratch_dir(tag), Box::new(BlobCodec)).expect("open");
        let val = Arc::new((0..200u8).collect::<Vec<u8>>());
        assert!(tier.store(key, &val).expect("store"));
        let path = tier.path_for(key);
        let bytes = fs::read(&path).expect("stored artifact");
        (tier, path, bytes)
    }

    /// Every bit of a whole encoded artifact — header, key, meta, code,
    /// footer — flipped alone: a typed error from the envelope decoder
    /// and from the tier, which evicts the file; none loads.
    #[test]
    fn every_single_bit_flip_is_typed_and_none_loads() {
        let key = CacheKey::new(TargetId::X64, (0..37u8).collect());
        let (tier, path, bytes) = stored("bitflips", &key);
        assert_eq!(
            Artifact::decode(&bytes).expect("pristine").key,
            key.content()
        );
        for bit in 0..bytes.len() * 8 {
            let mut c = bytes.clone();
            c[bit / 8] ^= 1 << (bit % 8);
            assert!(Artifact::decode(&c).is_err(), "bit {bit}: decoded");
            fs::write(&path, &c).expect("plant");
            assert!(tier.load(&key).is_err(), "bit {bit}: loaded");
            assert!(tier.load_artifact(&key).expect("evicted").is_none());
        }
        let _ = fs::remove_dir_all(tier.dir());
    }

    /// Damage a writer resealed is caught by the check that owns the
    /// field: the embedded key by the byte comparison, `key_hash` by the
    /// comparison with the digest that named the file.
    #[test]
    fn resealed_key_and_key_hash_damage_is_caught() {
        let key = CacheKey::new(TargetId::X64, (0..37u8).collect());
        let (tier, path, bytes) = stored("resealed", &key);

        let mut c = bytes.clone();
        c[HEADER_LEN + 5] ^= 0x10;
        reseal(&mut c);
        fs::write(&path, &c).expect("plant");
        assert_eq!(tier.load(&key).unwrap_err(), PersistError::KeyMismatch);

        let mut c = bytes.clone();
        c[OFF_KEY_HASH] ^= 0x01;
        reseal(&mut c);
        assert_eq!(
            Artifact::decode(&c).unwrap_err(),
            PersistError::Malformed("embedded key hash mismatch")
        );
        fs::write(&path, &c).expect("plant");
        assert_eq!(
            tier.load(&key).unwrap_err(),
            PersistError::Malformed("embedded key hash mismatch")
        );
        let _ = fs::remove_dir_all(tier.dir());
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let key = CacheKey::new(TargetId::Mips, vec![4; 9]);
        let (tier, path, mut bytes) = stored("trailing", &key);
        bytes.push(0);
        let trailing = PersistError::Malformed("trailing bytes after checksum");
        assert_eq!(Artifact::decode(&bytes).unwrap_err(), trailing);
        fs::write(&path, &bytes).expect("plant");
        assert_eq!(tier.load(&key).unwrap_err(), trailing);
        assert!(!path.exists(), "refused bytes are evicted");
        let _ = fs::remove_dir_all(tier.dir());
    }

    /// A file larger than any artifact is refused from its metadata,
    /// one byte over the cap or 64 GiB over it: sparse files, so planting
    /// them costs nothing, and reading the second would take minutes.
    #[test]
    fn oversized_file_is_refused_unread() {
        let key = CacheKey::new(TargetId::Alpha, vec![6; 5]);
        let (tier, path, _) = stored("oversize", &key);
        let plant = |len: u64| {
            let f = fs::File::create(&path).expect("clobber");
            f.set_len(len)
        };
        for len in [MAX_ARTIFACT_LEN as u64 + 1, 64 << 30] {
            if plant(len).is_err() {
                continue; // a filesystem that cannot hold the sparse file
            }
            let t0 = std::time::Instant::now();
            assert_eq!(
                tier.load(&key).unwrap_err(),
                PersistError::Malformed("artifact larger than the format allows"),
                "{len} bytes"
            );
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(2),
                "refusing {len} bytes took {:?}: the file was read",
                t0.elapsed()
            );
            assert!(!path.exists(), "evicted like any bad bytes");
        }
        // At the cap the file is read, and judged by its content.
        plant(MAX_ARTIFACT_LEN as u64).expect("sparse");
        assert_eq!(tier.load(&key).unwrap_err(), PersistError::BadMagic);
        let _ = fs::remove_dir_all(tier.dir());
    }

    /// Header lengths no file could honour — the largest three `u32`s,
    /// whose sum a 32-bit `usize` cannot hold — are a short file, not
    /// an arithmetic panic.
    #[test]
    fn huge_header_lengths_are_truncation() {
        let mut bytes = sample().encode();
        for off in [OFF_KEY_LEN, OFF_META_LEN, OFF_CODE_LEN] {
            bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        reseal(&mut bytes);
        let got = bytes.len();
        match Artifact::decode(&bytes) {
            Err(PersistError::Truncated { need, got: g }) => {
                assert!(need > got && g == got, "need {need}, got {g}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn only_artifact_names_carry_a_format_version() {
        assert_eq!(name_format_version("v1-x64-00ab-00cd.vcar"), Some(1));
        assert_eq!(name_format_version("v65535-mips-0-0.vcar"), Some(65535));
        for stranger in [
            ".tmp-12-0-v1-x64-00ab-00cd.vcar",
            "v1-x64-00ab-00cd.vcar.bak",
            "v65536-x64-0-0.vcar",
            "v-x64.vcar",
            "v1.vcar",
            "vx-1.vcar",
            "notes.txt",
            "",
        ] {
            assert_eq!(name_format_version(stranger), None, "{stranger:?}");
        }
    }

    /// Opening a tier removes the artifacts of superseded formats and
    /// nothing else: not this format's, not a newer one's, not a live
    /// writer's temp file, not a stranger's file.
    #[test]
    fn opening_a_tier_sweeps_superseded_formats_only() {
        let key = CacheKey::new(TargetId::Sparc, vec![8; 12]);
        let (tier, current, _) = stored("sweep", &key);
        let dir = tier.dir().to_path_buf();
        drop(tier);
        let plant = |name: &str| {
            fs::write(dir.join(name), b"x").expect("plant");
            dir.join(name)
        };
        let old = [
            plant("v1-x64-0123456789abcdef-0123456789abcdef.vcar"),
            plant("v0-mips-0-0.vcar"),
        ];
        let kept = [
            current,
            plant(&format!("v{}-x64-0-0.vcar", FORMAT_VERSION + 1)),
            plant(".tmp-1-0-v1-x64-0123456789abcdef-0123456789abcdef.vcar"),
            plant("notes.txt"),
        ];
        let tier: DiskTier<Vec<u8>> = DiskTier::new(&dir, Box::new(BlobCodec)).expect("reopen");
        assert_eq!(tier.stats().swept, old.len() as u64);
        for path in &old {
            assert!(!path.exists(), "{} should be swept", path.display());
        }
        for path in &kept {
            assert!(path.exists(), "{} should be kept", path.display());
        }
        assert!(tier.load(&key).expect("load").is_some(), "still a hit");
        let _ = fs::remove_dir_all(&dir);
    }
}
