//! A load that fails for a reason local to *this process* must not
//! delete a valid artifact.
//!
//! Own process, one test: the first half needs a process in which
//! `vcode_sim::engine::install()` has not run yet (the decoder registry
//! is process-wide and has no "unregister"), and the second half lowers
//! a process-wide resource limit for the span of each load.

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

// The two libc calls the second half needs (std links libc; the
// workspace has no `libc` crate to name them through).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}
const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Runs `f` with the process unable to grow any file — which is how
/// executable memory is obtained (`memfd_create` + `ftruncate`), so
/// every fresh `ExecMem` request inside `f` fails with `EFBIG` while
/// reads, the heap and already-mapped code are untouched.
fn with_no_new_exec_memory<T>(f: impl FnOnce() -> T) -> T {
    let mut old = RLimit { cur: 0, max: 0 };
    // SAFETY: `old` is a valid, writable `struct rlimit` (two 64-bit
    // words on x86-64 Linux); ignoring SIGXFSZ — sent on the refused
    // `ftruncate` — installs no handler code at all.
    unsafe {
        signal(SIGXFSZ, SIG_IGN);
        assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0);
    }
    let none = RLimit {
        cur: 0,
        max: old.max,
    };
    // SAFETY: `none` is a valid `struct rlimit`; only the soft limit is
    // lowered, so it can be raised back below.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &none) }, 0);
    // Parked regions would satisfy the request without a syscall.
    vcode_x64::drain_pool();
    let out = f();
    // SAFETY: restores the limits read above.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &old) }, 0);
    out
}

#[test]
fn process_local_load_failures_keep_the_artifact() {
    // ---- (a) no decoder / no backend registered in this process ----
    let dir = scratch_dir("nodecoder");
    let p = sample();
    let all: [Arc<dyn Backend>; 2] = [
        Arc::new(vcode_mips::MipsBackend),
        Arc::new(vcode_x64::X64Backend),
    ];
    let key = key_for(&p, TargetId::Mips);
    // Compiling for a simulated target needs no simulator; the store
    // goes through.
    let writer = engine(&dir, &all);
    writer.compile_cached(TargetId::Mips, &p).unwrap();
    let path = writer.persist_tier().unwrap().path_for(&key);
    assert!(path.exists(), "store-through wrote the artifact");
    drop(writer);

    // A process that never installed the simulators has no MIPS
    // decoder to revalidate with...
    let unequipped = engine(&dir, &all);
    let tier = unequipped.persist_tier().unwrap();
    let err = tier.load(&key).expect_err("no decoder registered yet");
    assert_eq!(err, PersistError::NoDecoder(TargetId::Mips));
    assert!(path.exists(), "NoDecoder must not evict a valid artifact");
    // ...and an engine that registered MIPS only after (or never
    // before) `enable_persist` has no backend to adopt with.
    let x64_only = engine(&dir, &all[1..]);
    let err = x64_only
        .persist_tier()
        .unwrap()
        .load(&key)
        .expect_err("no backend");
    assert_eq!(err, PersistError::NoDecoder(TargetId::Mips));
    assert!(path.exists(), "a missing backend must not evict either");

    // Properly equipped, the very same file loads.
    vcode_sim::engine::install();
    let f = unequipped.compile_cached(TargetId::Mips, &p).unwrap();
    assert_eq!(f.call(&[5, 1]).unwrap(), 42);
    assert_eq!(
        tier.stats(),
        PersistStats {
            hits: 1,
            rejects: 1,
            ..PersistStats::default()
        },
        "one refusal, then the kept artifact serves the equipped load; nothing is rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- (b) executable memory cannot be obtained (dyn Lambda, x86-64) ----
    let dir = scratch_dir("enomem-engine");
    let key = key_for(&p, TargetId::X64);
    let e = engine(&dir, &all);
    e.compile_cached(TargetId::X64, &p).unwrap();
    let tier = Arc::clone(e.persist_tier().unwrap());
    let path = tier.path_for(&key);
    let err = with_no_new_exec_memory(|| tier.load(&key)).expect_err("no exec memory");
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
