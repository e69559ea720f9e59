//! Workspace integration: a cache directory written by the previous
//! on-disk format (v1: FNV-1a names, key hashes and checksums) under a
//! build that reads v2.
//!
//! The fixture is a real v1 artifact — the file the parent commit's
//! engine stored for [`sample`] on x86-64, under the name it gave it.
//! No build from v2 on names that file, so it can never be rejected and
//! evicted in a loop; it is dead weight, and opening the tier removes
//! it. The first process then misses cleanly and stores through as v2,
//! and the second is served from disk.
//!
//! Own process on purpose: the assertions read the process-wide
//! `obs::persist_counters`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcode::engine::{fnv1a, Backend, Engine, Program, TargetId};
use vcode::obs::{self, PersistCounters};
use vcode::persist::{FOOTER_LEN, FORMAT_VERSION, MAGIC, OFF_FORMAT};
use vcode::{BinOp, Cond, UnOp};

const V1_NAME: &str = "v1-x64-be372c09bee5e54e-7d54aa2cdeca9060.vcar";
const V1_BYTES: &[u8] = include_bytes!("fixtures/v1-x64-be372c09bee5e54e-7d54aa2cdeca9060.vcar");

/// The program the fixture was compiled from.
fn sample() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    let skip = p.genlabel();
    p.br_imm(Cond::Ge, 2, 0, skip);
    p.un(UnOp::Neg, 2, 2);
    p.label(skip);
    p.bin_imm(BinOp::Mul, 2, 2, 3);
    p.ret(2);
    p
}

fn engine(dir: &Path) -> Engine {
    let mut e = Engine::new(8);
    e.register(Arc::new(vcode_x64::X64Backend) as Arc<dyn Backend>);
    assert!(e.enable_persist(dir).expect("tier attaches"));
    e
}

/// (hits, misses, stores, rejects, swept) gained since `before`.
fn gained(before: PersistCounters) -> (u64, u64, u64, u64, u64) {
    let now = obs::persist_counters();
    (
        now.hits - before.hits,
        now.misses - before.misses,
        now.stores - before.stores,
        now.rejects - before.rejects,
        now.swept - before.swept,
    )
}

fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("artifact directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_v1_directory_is_swept_then_misses_once_then_hits() {
    // The fixture is what it claims: a sealed v1 artifact of `sample`.
    let body = V1_BYTES.len() - FOOTER_LEN;
    assert_eq!(V1_BYTES[..4], MAGIC);
    assert_eq!(V1_BYTES[OFF_FORMAT..OFF_FORMAT + 2], 1u16.to_le_bytes());
    assert_eq!(V1_BYTES[body..], fnv1a(&V1_BYTES[..body]).to_le_bytes());
    let key = sample().encode();
    assert!(V1_BYTES[..body].windows(key.len()).any(|w| w == key));
    assert!(V1_NAME.ends_with(&format!("{:016x}.vcar", fnv1a(&key))));
    assert_eq!(FORMAT_VERSION, 2, "a new format needs a new fixture");

    let dir: PathBuf =
        std::env::temp_dir().join(format!("vcode-persist-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(V1_NAME), V1_BYTES).unwrap();

    // First process after the upgrade: the v1 file is removed on open,
    // the request is a clean miss — not a reject — and stores through.
    let before = obs::persist_counters();
    let first = engine(&dir);
    assert_eq!(gained(before), (0, 0, 0, 0, 1), "opened: v1 file swept");
    let f = first.compile_cached(TargetId::X64, &sample()).unwrap();
    assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
    assert_eq!(gained(before), (0, 1, 1, 0, 1), "clean miss, store-through");
    let after_first = names(&dir);
    assert_eq!(after_first.len(), 1, "{after_first:?}");
    assert!(after_first[0].starts_with("v2-x64-"), "{after_first:?}");
    drop((f, first));

    // Second process: served from disk; nothing rejected, evicted,
    // swept or rewritten.
    let before = obs::persist_counters();
    let second = engine(&dir);
    let f = second.compile_cached(TargetId::X64, &sample()).unwrap();
    assert_eq!(f.call(&[-10, 2]).unwrap(), 24);
    assert_eq!(gained(before), (1, 0, 0, 0, 0), "a hit");
    assert_eq!(names(&dir), after_first);
    let _ = std::fs::remove_dir_all(&dir);
}
