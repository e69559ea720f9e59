//! Artifact-corruption corpus for the persistent (L2) code cache.
//!
//! A cache directory is hostile input: anything — truncation, bit rot,
//! a foreign build's artifacts, a concurrent rewriter — may be behind
//! that `.vcar` file. Every corruption here must surface as a typed
//! [`PersistError`] from the tier, the engine must silently fall back
//! to a fresh compile with correct results, and nothing may panic or
//! map unverified bytes.

use harden::XorShift;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::persist::{digest64, FOOTER_LEN, HEADER_LEN, OFF_ABI, OFF_FORMAT, OFF_TARGET};
use vcode::{BinOp, CacheKey, CacheTier, PersistError};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vcode-harden-persist-{}-{}",
        std::process::id(),
        tag
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(dir: &Path) -> Engine {
    vcode_sim::engine::install();
    let mut e = Engine::new(32);
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(vcode_mips::MipsBackend),
        Arc::new(vcode_sparc::SparcBackend),
        Arc::new(vcode_alpha::AlphaBackend),
        Arc::new(vcode_x64::X64Backend),
    ];
    for b in backends {
        e.register(b);
    }
    e.enable_persist(dir).expect("tier attaches");
    e
}

fn key_for(p: &Program, target: TargetId) -> CacheKey {
    let (bytes, hash) = p.encoded();
    CacheKey::from_encoded(target, Arc::clone(bytes), *hash)
}

fn sample() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    p.bin_imm(BinOp::Mul, 2, 2, 7);
    p.ret(2);
    p
}

/// Compiles the sample on `target` into a fresh dir and returns the
/// single artifact written, as (dir, path, bytes).
fn seeded_artifact(tag: &str, target: TargetId) -> (PathBuf, PathBuf, Vec<u8>) {
    let dir = scratch_dir(tag);
    let e = engine(&dir);
    let f = e.compile_cached(target, &sample()).expect("compiles");
    assert_eq!(f.call(&[5, 1]).unwrap(), 42);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("dir exists")
        .map(|d| d.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one artifact for one key");
    let path = files.pop().unwrap();
    let bytes = std::fs::read(&path).expect("readable");
    (dir, path, bytes)
}

/// Loads whatever is at `path` through a fresh engine's tier, returning
/// the typed error, and proves the engine still compiles correctly
/// (silent fallback: the corrupt artifact costs time, never answers).
fn load_err_and_fallback(dir: &Path, target: TargetId) -> PersistError {
    let e = engine(dir);
    let p = sample();
    let key = key_for(&p, target);
    let tier = e.persist_tier().expect("tier attached");
    let err = CacheTier::load(&**tier, &key).expect_err("corrupt artifact must be a typed error");
    let f = e
        .compile_cached(target, &p)
        .expect("fallback compile must succeed");
    assert_eq!(
        f.call(&[5, 1]).unwrap(),
        42,
        "fallback result must be correct"
    );
    err
}

/// Patches `bytes[off..off+N]` and recomputes the trailing checksum, so
/// the corruption under test is the *field*, not the checksum.
fn patch_and_reseal(bytes: &[u8], off: usize, field: &[u8]) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[off..off + field.len()].copy_from_slice(field);
    let body = b.len() - FOOTER_LEN;
    let sum = digest64(&b[..body]);
    b[body..].copy_from_slice(&sum.to_le_bytes());
    b
}

#[test]
fn truncation_at_every_region_is_typed() {
    let (dir, path, bytes) = seeded_artifact("trunc", TargetId::X64);
    let cuts = [
        0,
        1,
        3,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + (bytes.len() - HEADER_LEN) / 2,
        bytes.len() - FOOTER_LEN,
        bytes.len() - 1,
    ];
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = load_err_and_fallback(&dir, TargetId::X64);
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. } | PersistError::Checksum { .. }
            ),
            "cut at {cut}: got {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_file_is_typed() {
    let (dir, path, _) = seeded_artifact("zero", TargetId::X64);
    std::fs::write(&path, []).unwrap();
    let err = load_err_and_fallback(&dir, TargetId::X64);
    assert!(
        matches!(err, PersistError::Truncated { got: 0, .. }),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_file_is_typed() {
    let (dir, path, bytes) = seeded_artifact("garbage", TargetId::X64);
    let mut rng = XorShift::new(0x6761_7262);
    let junk: Vec<u8> = (0..bytes.len()).map(|_| rng.next_u64() as u8).collect();
    std::fs::write(&path, &junk).unwrap();
    let err = load_err_and_fallback(&dir, TargetId::X64);
    assert!(matches!(err, PersistError::BadMagic), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-bit flips across the whole envelope: header, payload, and
/// checksum bits alike must classify as *some* typed error — the exact
/// class depends on which field the bit lands in, but a flip may never
/// load, panic, or fall through to unverified native bytes.
#[test]
fn sampled_bitflips_are_typed() {
    let (dir, path, bytes) = seeded_artifact("bitflip", TargetId::X64);
    let nbits = bytes.len() * 8;
    let mut rng = XorShift::new(0xb17f_11b5);
    // Every header bit, plus a deterministic sample of the rest.
    let mut positions: Vec<usize> = (0..HEADER_LEN * 8).collect();
    positions.extend((0..96).map(|_| rng.below(nbits as u64) as usize));
    for bit in positions {
        let mut b = bytes.clone();
        b[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &b).unwrap();
        let _typed: PersistError = load_err_and_fallback(&dir, TargetId::X64);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_target_is_refused() {
    let (dir, path, bytes) = seeded_artifact("target", TargetId::X64);
    // Claim the bytes are MIPS code (index 0): the envelope is intact
    // and the checksum resealed, so only the target check can refuse it.
    let patched = patch_and_reseal(&bytes, OFF_TARGET, &[0u8]);
    std::fs::write(&path, &patched).unwrap();
    let err = load_err_and_fallback(&dir, TargetId::X64);
    assert!(
        matches!(
            err,
            PersistError::WrongTarget {
                found: TargetId::Mips,
                expected: TargetId::X64,
            }
        ),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_format_version_is_refused() {
    let (dir, path, bytes) = seeded_artifact("format", TargetId::X64);
    let next = (vcode::persist::FORMAT_VERSION + 1).to_le_bytes();
    let patched = patch_and_reseal(&bytes, OFF_FORMAT, &next);
    std::fs::write(&path, &patched).unwrap();
    let err = load_err_and_fallback(&dir, TargetId::X64);
    assert!(matches!(err, PersistError::WrongFormat { .. }), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_abi_fingerprint_is_refused() {
    let (dir, path, bytes) = seeded_artifact("abi", TargetId::X64);
    let foreign = (vcode::persist::abi_fingerprint() ^ 0xdead_beef).to_le_bytes();
    let patched = patch_and_reseal(&bytes, OFF_ABI, &foreign);
    std::fs::write(&path, &patched).unwrap();
    let err = load_err_and_fallback(&dir, TargetId::X64);
    assert!(matches!(err, PersistError::WrongAbi { .. }), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt simulated-target artifacts take the same typed path: a
/// payload flip the checksum still covers classifies as
/// [`PersistError::Checksum`] and the compile falls back correctly,
/// on all three simulated ISAs.
#[test]
fn sim_target_payload_damage_is_typed() {
    for (tag, target) in [
        ("mips", TargetId::Mips),
        ("sparc", TargetId::Sparc),
        ("alpha", TargetId::Alpha),
    ] {
        let (dir, path, bytes) = seeded_artifact(tag, target);
        let mut b = bytes.clone();
        let code_mid = HEADER_LEN + (b.len() - HEADER_LEN - FOOTER_LEN) / 2;
        b[code_mid] ^= 0x40;
        std::fs::write(&path, &b).unwrap();
        let err = load_err_and_fallback(&dir, target);
        assert!(
            matches!(err, PersistError::Checksum { .. }),
            "{target}: got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A *resealed* payload flip (damage plus a recomputed checksum — i.e.
/// a writer consistent enough to fix its own footer) is beyond what
/// structural revalidation can attribute: the re-decode refuses it when
/// the flip breaks an encoding, and otherwise the bytes are a
/// different-but-well-formed program. The hardening guarantee is that
/// *neither* case can panic, map undecodable bytes, or crash the
/// process — the artifact directory is trusted against accident, not
/// against an adversary who can recompute checksums.
#[test]
fn resealed_payload_damage_never_crashes() {
    for (tag, target) in [
        ("mips-resealed", TargetId::Mips),
        ("sparc-resealed", TargetId::Sparc),
        ("alpha-resealed", TargetId::Alpha),
    ] {
        let (dir, path, bytes) = seeded_artifact(tag, target);
        let mut rng = XorShift::new(0x5ea1);
        for _ in 0..16 {
            let mut b = bytes.clone();
            let payload = b.len() - HEADER_LEN - FOOTER_LEN;
            let bit = HEADER_LEN * 8 + rng.below(payload as u64 * 8) as usize;
            b[bit / 8] ^= 1 << (bit % 8);
            let body = b.len() - FOOTER_LEN;
            let sum = digest64(&b[..body]);
            b[body..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &b).unwrap();
            let e = engine(&dir);
            let p = sample();
            let key = key_for(&p, target);
            let tier = e.persist_tier().expect("tier attached");
            match CacheTier::load(&**tier, &key) {
                // Structurally valid bytes load; running them may
                // return anything or trap (typed), but never crash.
                Ok(Some(f)) => {
                    let _ = f.call(&[5, 1]);
                }
                Ok(None) => panic!("{target}: artifact file vanished"),
                // The flip broke an encoding or an embedded hash:
                // typed refusal, and the fresh compile still answers.
                Err(_) => {
                    let f = e.compile_cached(target, &p).expect("fallback compiles");
                    assert_eq!(f.call(&[5, 1]).unwrap(), 42, "{target}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A writer non-atomically rewriting the artifact (alternating between
/// torn prefixes, garbage, and the pristine image) while readers hammer
/// the tier: loads are Ok(Some) or typed errors, compiles always answer
/// correctly, and nothing panics. This is the failure mode the atomic
/// write-rename publication protects *well-behaved* writers from; a
/// hostile in-place rewriter must still never crash a reader.
#[test]
fn concurrent_rewriter_never_crashes_readers() {
    let (dir, path, pristine) = seeded_artifact("rewrite", TargetId::X64);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let path = path.clone();
        let pristine = pristine.clone();
        std::thread::spawn(move || {
            let mut rng = XorShift::new(0x7ea2);
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match i % 3 {
                    0 => {
                        let cut = rng.below(pristine.len() as u64) as usize;
                        let _ = std::fs::write(&path, &pristine[..cut]);
                    }
                    1 => {
                        let mut b = pristine.clone();
                        let bit = rng.below(b.len() as u64 * 8) as usize;
                        b[bit / 8] ^= 1 << (bit % 8);
                        let _ = std::fs::write(&path, &b);
                    }
                    _ => {
                        let _ = std::fs::write(&path, &pristine);
                    }
                }
                i += 1;
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let p = sample();
                let key = key_for(&p, TargetId::X64);
                for _ in 0..40 {
                    let e = engine(&dir);
                    let tier = e.persist_tier().expect("tier attached");
                    if let Ok(Some(f)) = CacheTier::load(&**tier, &key) {
                        assert_eq!(f.call(&[5, 1]).unwrap(), 42);
                    }
                    let f = e
                        .compile_cached(TargetId::X64, &p)
                        .expect("always compiles");
                    assert_eq!(f.call(&[5, 1]).unwrap(), 42);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader must not panic");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer must not panic");
    let _ = std::fs::remove_dir_all(&dir);
}
