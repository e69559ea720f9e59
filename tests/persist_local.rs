//! A load that fails for a reason local to *this process* must not
//! delete a valid artifact.
//!
//! Own process, one test: the second half lowers a process-wide
//! resource limit for the span of each load.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcode::engine::{Backend, Engine, Program, TargetId};
use vcode::{BinOp, CacheKey, CacheTier, PersistError, PersistStats};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcode-local-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(dir: &Path, backends: &[Arc<dyn Backend>]) -> Engine {
    let mut e = Engine::new(8);
    for b in backends {
        e.register(Arc::clone(b));
    }
    assert!(e.enable_persist(dir).expect("tier attaches"));
    e
}

fn sample() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    p.bin_imm(BinOp::Mul, 2, 2, 7);
    p.ret(2);
    p
}

fn key_for(p: &Program, target: TargetId) -> CacheKey {
    let (bytes, hash) = p.encoded();
    CacheKey::from_encoded(target, Arc::clone(bytes), *hash)
}

#[test]
fn process_local_load_failures_keep_the_artifact() {
    // ---- (a) no backend registered for the artifact's target ----
    let dir = scratch_dir("nodecoder");
    let p = sample();
    let all: [Arc<dyn Backend>; 2] = [
        Arc::new(vcode_sim::engine::MipsBackend::default()),
        Arc::new(vcode_x64::X64Backend),
    ];
    let key = key_for(&p, TargetId::Mips);
    let writer = engine(&dir, &all);
    writer.compile_cached(TargetId::Mips, &p).unwrap();
    let path = writer.persist_tier().unwrap().path_for(&key);
    assert!(path.exists(), "store-through wrote the artifact");
    drop(writer);

    // An engine that registered MIPS only after (or never before)
    // `enable_persist` has no backend to revalidate and adopt with.
    let x64_only = engine(&dir, &all[1..]);
    let unequipped = x64_only.persist_tier().unwrap();
    let err = unequipped.load(&key).expect_err("no backend");
    assert_eq!(err, PersistError::NoDecoder(TargetId::Mips));
    assert!(path.exists(), "NoDecoder must not evict a valid artifact");

    // An engine that registers the MIPS backend loads the very same file.
    let equipped = engine(&dir, &all);
    let f = equipped.compile_cached(TargetId::Mips, &p).unwrap();
    assert_eq!(f.call(&[5, 1]).unwrap(), 42);
    // Counts are per tier: one refusal there, then the kept artifact
    // serves the equipped load here; nothing is rewritten.
    assert_eq!(
        unequipped.stats(),
        PersistStats {
            rejects: 1,
            ..PersistStats::default()
        }
    );
    assert_eq!(
        equipped.persist_tier().unwrap().stats(),
        PersistStats {
            hits: 1,
            ..PersistStats::default()
        }
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- (b) executable memory cannot be obtained (dyn Lambda, x86-64) ----
    let dir = scratch_dir("enomem-engine");
    let key = key_for(&p, TargetId::X64);
    let e = engine(&dir, &all);
    e.compile_cached(TargetId::X64, &p).unwrap();
    let tier = Arc::clone(e.persist_tier().unwrap());
    let path = tier.path_for(&key);
    let err = harden::with_no_new_exec_memory(|| tier.load(&key)).expect_err("no exec memory");
    assert!(matches!(err, PersistError::Io(_)), "engine codec: {err}");
    assert!(path.exists(), "engine: exec-memory failure must not evict");
    assert!(
        tier.load(&key).unwrap().is_some(),
        "engine: loads once memory is back"
    );
    assert_eq!(
        tier.stats(),
        PersistStats {
            hits: 1,
            misses: 1,
            stores: 1,
            rejects: 1,
            swept: 0,
        },
        "engine: the cold build's miss and store, the refused load, the load that served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
