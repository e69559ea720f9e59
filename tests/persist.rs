//! Workspace integration: the persistent (L2) code cache.
//!
//! The headline property from the roadmap: a program compiled and
//! persisted by one engine, reloaded by a *fresh* engine from the same
//! artifact directory, must survive revalidation and produce
//! bit-for-bit identical code and identical results on every backend
//! (x86-64 natively, MIPS/SPARC/Alpha on their simulators).
//!
//! Every count asserted here is read from the tier of the engine that
//! produced it (`engine.persist_tier().stats()`), so the tests share
//! nothing and run in parallel.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcode::engine::{fnv1a, Backend, Engine, Program, TargetId};
use vcode::persist::{FOOTER_LEN, FORMAT_VERSION, MAGIC, OFF_FORMAT};
use vcode::{BinOp, Cond, PersistStats, UnOp};

fn all_backends() -> Vec<Arc<dyn Backend>> {
    vec![
        Arc::new(vcode_mips::MipsBackend),
        Arc::new(vcode_sparc::SparcBackend),
        Arc::new(vcode_alpha::AlphaBackend),
        Arc::new(vcode_x64::X64Backend),
    ]
}

fn engine(capacity: usize) -> Engine {
    vcode_sim::engine::install();
    let mut e = Engine::new(capacity);
    for b in all_backends() {
        e.register(b);
    }
    e
}

/// An engine with a persistent tier of its own opened over `dir`.
fn engine_over(dir: &Path, capacity: usize) -> Engine {
    let e = engine(capacity);
    assert!(e.enable_persist(dir).expect("tier attaches"));
    e
}

fn tier_stats(e: &Engine) -> PersistStats {
    e.persist_tier().expect("tier attached").stats()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcode-persist-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small corpus spanning arithmetic, immediates, branches, unary ops
/// and temporaries, so each backend's full replay path round-trips.
fn corpus() -> Vec<Program> {
    let mut abs3 = Program::new(2).unwrap();
    abs3.bin(BinOp::Add, 2, 0, 1);
    let skip = abs3.genlabel();
    abs3.br_imm(Cond::Ge, 2, 0, skip);
    abs3.un(UnOp::Neg, 2, 2);
    abs3.label(skip);
    abs3.bin_imm(BinOp::Mul, 2, 2, 3);
    abs3.ret(2);

    let mut mix = Program::new(2).unwrap();
    mix.bin(BinOp::Xor, 2, 0, 1);
    mix.bin_imm(BinOp::And, 2, 2, 0xFF);
    mix.bin(BinOp::Sub, 3, 0, 2);
    mix.ret(3);

    let mut inc = Program::new(1).unwrap();
    inc.bin_imm(BinOp::Add, 0, 0, 1);
    inc.ret(0);

    vec![abs3, mix, inc]
}

const ARG_GRID: [(i32, i32); 5] = [(3, 4), (-10, 2), (0, 0), (1000, -2000), (123_456, -654_321)];

/// Persist → reload → revalidate → identical output, on all four
/// backends: engine A compiles and stores through; a fresh engine B
/// over the same directory must serve every program from disk with
/// bit-identical code images. Each engine's tier accounts for exactly
/// its own traffic: A's is all clean misses and stores, B's all hits.
#[test]
fn round_trips_on_all_four_backends() {
    let dir = scratch_dir("roundtrip");
    let corpus = corpus();
    let pairs = (corpus.len() * TargetId::ALL.len()) as u64;

    // Engine A: compile everything, recording results + code images.
    let a = engine_over(&dir, 64);
    let mut expect = Vec::new();
    for (pi, p) in corpus.iter().enumerate() {
        for id in TargetId::ALL {
            let f = a.compile_cached(id, p).unwrap();
            let image = f
                .persist_image()
                .expect("fresh compile must be persistable");
            let args = p.args();
            for &(x, y) in &ARG_GRID {
                let call: Vec<i32> = [x, y][..args].to_vec();
                expect.push((pi, id, call.clone(), f.call(&call).unwrap(), image.clone()));
            }
        }
    }
    assert_eq!(
        tier_stats(&a),
        PersistStats {
            misses: pairs,
            stores: pairs,
            ..PersistStats::default()
        },
        "every (program, target) pair is one clean miss and one store"
    );
    drop(a);

    // Engine B: fresh caches, same artifact directory. Every compile
    // must be served from disk, not rebuilt.
    let b = engine_over(&dir, 64);
    for (pi, id, call, want, image) in &expect {
        let f = b.compile_cached(*id, &corpus[*pi]).unwrap();
        let got_image = f.persist_image().expect("reloaded lambda must re-persist");
        assert_eq!(
            &got_image, image,
            "{id} program {pi}: code image must be bit-identical"
        );
        assert_eq!(
            f.call(call).unwrap(),
            *want,
            "{id} program {pi} f({call:?})"
        );
    }
    assert_eq!(
        tier_stats(&b),
        PersistStats {
            hits: pairs,
            ..PersistStats::default()
        },
        "every (program, target) pair loads from the persistent tier, once"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The persistent tier is strictly additive: with it disabled nothing
/// touches disk, and enabling it twice keeps the first directory.
#[test]
fn enable_is_first_call_wins() {
    let dir1 = scratch_dir("first");
    let dir2 = scratch_dir("second");
    let e = engine_over(&dir1, 8);
    assert!(!e.enable_persist(&dir2).unwrap());
    let mut p = Program::new(1).unwrap();
    p.bin_imm(BinOp::Add, 0, 0, 7);
    p.ret(0);
    let f = e.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f.call(&[35]).unwrap(), 42);
    assert!(
        std::fs::read_dir(&dir1).unwrap().next().is_some(),
        "store-through must write into the first directory"
    );
    assert!(
        !dir2.exists(),
        "the losing call must not create its directory"
    );
    let _ = std::fs::remove_dir_all(&dir1);
}

const V1_NAME: &str = "v1-x64-be372c09bee5e54e-7d54aa2cdeca9060.vcar";
const V1_BYTES: &[u8] = include_bytes!("fixtures/v1-x64-be372c09bee5e54e-7d54aa2cdeca9060.vcar");

fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("artifact directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A cache directory written by the previous on-disk format (v1: FNV-1a
/// names, key hashes and checksums) under a build that reads v2.
///
/// The fixture is a real v1 artifact — the file the last v1 build's
/// engine stored for the first program of [`corpus`] on x86-64, under
/// the name it gave it. No build from v2 on names that file, so it can never be rejected
/// and evicted in a loop; it is dead weight, and opening the tier
/// removes it. The first process then misses cleanly and stores through
/// as v2, and the second is served from disk.
#[test]
fn a_v1_directory_is_swept_then_misses_once_then_hits() {
    let sample = &corpus()[0];
    // The fixture is what it claims: a sealed v1 artifact of `sample`.
    let body = V1_BYTES.len() - FOOTER_LEN;
    assert_eq!(V1_BYTES[..4], MAGIC);
    assert_eq!(V1_BYTES[OFF_FORMAT..OFF_FORMAT + 2], 1u16.to_le_bytes());
    assert_eq!(V1_BYTES[body..], fnv1a(&V1_BYTES[..body]).to_le_bytes());
    let key = sample.encode();
    assert!(V1_BYTES[..body].windows(key.len()).any(|w| w == key));
    assert!(V1_NAME.ends_with(&format!("{:016x}.vcar", fnv1a(&key))));
    assert_eq!(FORMAT_VERSION, 2, "a new format needs a new fixture");

    let dir = scratch_dir("upgrade");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(V1_NAME), V1_BYTES).unwrap();

    // First process after the upgrade: the v1 file is removed on open,
    // the request is a clean miss — not a reject — and stores through.
    let first = engine_over(&dir, 8);
    let swept = PersistStats {
        swept: 1,
        ..PersistStats::default()
    };
    assert_eq!(tier_stats(&first), swept, "opened: v1 file swept");
    let f = first.compile_cached(TargetId::X64, sample).unwrap();
    assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
    assert_eq!(
        tier_stats(&first),
        PersistStats {
            misses: 1,
            stores: 1,
            ..swept
        },
        "clean miss, store-through"
    );
    let after_first = names(&dir);
    assert_eq!(after_first.len(), 1, "{after_first:?}");
    assert!(after_first[0].starts_with("v2-x64-"), "{after_first:?}");
    drop((f, first));

    // Second process: served from disk; nothing rejected, evicted,
    // swept or rewritten.
    let second = engine_over(&dir, 8);
    let f = second.compile_cached(TargetId::X64, sample).unwrap();
    assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
    assert_eq!(
        tier_stats(&second),
        PersistStats {
            hits: 1,
            ..PersistStats::default()
        },
        "a hit"
    );
    assert_eq!(names(&dir), after_first);
    let _ = std::fs::remove_dir_all(&dir);
}
