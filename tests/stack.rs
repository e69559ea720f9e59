//! Workspace integration: the three clients of `vcode::CodeStack` —
//! the engine's lambdas, DPF's classifier sets, ASH's fused kernels —
//! through one L1 → L2 → build → store-through pipeline.
//!
//! Own process on purpose: DPF's and ASH's persistent tiers are
//! process-wide (first `enable_persist` wins), and the assertions read
//! the process-wide `obs::persist_counters`, so the tests below also
//! take one lock — a concurrent test's artifact traffic would break the
//! exact counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vcode::engine::{Backend, Engine, Program, ServeMode, TargetId};
use vcode::obs::{self, CodegenEvent, PersistCounters};
use vcode::{BinOp, CacheKey, Cond, UnOp};

static SERIAL: Mutex<()> = Mutex::new(());

fn engine(dir: &std::path::Path) -> Engine {
    vcode_sim::engine::install();
    let mut e = Engine::new(16);
    let backends: [Arc<dyn Backend>; 4] = [
        Arc::new(vcode_mips::MipsBackend),
        Arc::new(vcode_sparc::SparcBackend),
        Arc::new(vcode_alpha::AlphaBackend),
        Arc::new(vcode_x64::X64Backend),
    ];
    for b in backends {
        e.register(b);
    }
    assert!(e.enable_persist(dir).expect("tier attaches"));
    e
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcode-stack-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `fn f(x, y) = |x + y| * 3`: arithmetic, an immediate form, a branch
/// and a temporary.
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

fn key_for(p: &Program, target: TargetId) -> CacheKey {
    let (bytes, hash) = p.encoded();
    CacheKey::from_encoded(target, Arc::clone(bytes), *hash)
}

fn wait_native(e: &Engine, handle: &vcode::AsyncCompile) {
    let t0 = Instant::now();
    while !handle.native_ready() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "background build never published"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(e.service().wait_idle(Duration::from_secs(30)));
}

/// (hits, misses, stores, rejects) gained since `before`.
fn gained(before: PersistCounters) -> (u64, u64, u64, u64) {
    let now = obs::persist_counters();
    (
        now.hits - before.hits,
        now.misses - before.misses,
        now.stores - before.stores,
        now.rejects - before.rejects,
    )
}

/// The async path reaches the persistent tier, on the worker thread: a
/// cold `compile_async` leaves an artifact behind, and a fresh engine
/// over that directory serves `compile_async` from disk — one persist
/// hit, and not one instruction generated.
#[test]
fn async_builds_probe_and_store_through_the_l2() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("async");
    let p = sample();
    for target in [TargetId::X64, TargetId::Mips] {
        let cold = engine(&dir);
        let before = obs::persist_counters();
        let handle = cold.compile_async(target, &p).unwrap();
        assert_eq!(handle.mode(), ServeMode::Building, "{target}: cold key");
        wait_native(&cold, &handle);
        assert_eq!(handle.call(&[-10, 2]).unwrap(), 24);
        assert_eq!(gained(before), (0, 1, 1, 0), "{target}: probe miss, store");
        let tier = cold.persist_tier().expect("tier attached");
        assert!(
            tier.path_for(&key_for(&p, target)).exists(),
            "{target}: a cold async build must leave an artifact"
        );
        drop(cold);

        let warm = engine(&dir);
        let generated = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&generated);
        obs::set_hook(move |ev| {
            if matches!(ev, CodegenEvent::LambdaEnd { .. }) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        let before = obs::persist_counters();
        let handle = warm.compile_async(target, &p).unwrap();
        wait_native(&warm, &handle);
        obs::clear_hook();
        assert_eq!(gained(before), (1, 0, 0, 0), "{target}: served from disk");
        assert_eq!(
            generated.load(Ordering::SeqCst),
            0,
            "{target}: a warm directory must not generate code"
        );
        assert_eq!(handle.call(&[-10, 2]).unwrap(), 24);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One client of the stack, reduced to what the round trip needs:
/// build through the stack and describe the result byte-for-byte, and
/// forget everything the process holds in memory.
struct Client {
    name: String,
    dir: PathBuf,
    /// Builds (or reloads) and returns the observable output: code
    /// image or size, and results over a fixed input grid.
    build: Box<dyn Fn() -> Vec<u8>>,
    /// Drops the L1 (the artifact directory stays).
    forget: Box<dyn Fn()>,
}

fn engine_client(target: TargetId) -> Client {
    let dir = scratch_dir(&format!("rt-{target}"));
    let slot = Arc::new(Mutex::new(engine(&dir)));
    let (build_slot, forget_dir) = (Arc::clone(&slot), dir.clone());
    Client {
        name: format!("engine/{target}"),
        dir: dir.clone(),
        build: Box::new(move || {
            let e = build_slot.lock().unwrap();
            let f = e.compile_cached(target, &sample()).unwrap();
            let (_, mut out) = f.persist_image().expect("persistable");
            for (x, y) in [(3, 4), (-10, 2), (0, 0), (123_456, -654_321)] {
                out.extend_from_slice(&f.call(&[x, y]).unwrap().to_le_bytes());
            }
            out
        }),
        // A fresh engine over the same directory: nothing in memory.
        forget: Box::new(move || *slot.lock().unwrap() = engine(&forget_dir)),
    }
}

fn dpf_client() -> Client {
    let dir = scratch_dir("rt-dpf");
    assert!(dpf::enable_persist(&dir).unwrap());
    Client {
        name: "dpf/CompiledSet".into(),
        dir,
        build: Box::new(|| {
            // Linear dispatch only: position-independent, so it persists.
            let mut d = dpf::Dpf::with_options(dpf::Options {
                use_jump_tables: false,
                use_hashing: false,
                ..dpf::Options::default()
            });
            for f in dpf::packet::port_filter_set(6, 4000) {
                d.insert(f);
            }
            d.compile().unwrap();
            let set = d.compiled().expect("native classifier");
            let mut out = set.code_bytes().to_vec();
            for port in 3998..4008 {
                let msg = dpf::packet::build(&dpf::packet::PacketSpec {
                    dst_port: port,
                    ..Default::default()
                });
                out.extend_from_slice(&d.classify(&msg).map_or(-1, i64::from).to_le_bytes());
            }
            out
        }),
        forget: Box::new(dpf::clear_cache),
    }
}

fn ash_client() -> Client {
    let dir = scratch_dir("rt-ash");
    assert!(ash::enable_persist(&dir).unwrap());
    Client {
        name: "ash/NativeCode".into(),
        dir,
        build: Box::new(|| {
            let p = ash::Pipeline::compile(&[ash::Step::Checksum, ash::Step::Swap]).unwrap();
            assert_eq!(p.engine_kind(), ash::EngineKind::Native);
            let src: Vec<u8> = (0..200u8).collect();
            let mut dst = vec![0u8; src.len()];
            let sum = p.run(&src, &mut dst);
            let mut out = (p.code_len as u64).to_le_bytes().to_vec();
            out.extend_from_slice(&p.vcode_insns.to_le_bytes());
            out.extend_from_slice(&sum.to_le_bytes());
            out.extend_from_slice(&dst);
            out
        }),
        forget: Box::new(ash::clear_cache),
    }
}

/// Build → store-through → drop L1 → reload, for every codec in the
/// workspace: the engine's `dyn Lambda` on all four backends, DPF's
/// `CompiledSet`, ASH's `NativeCode`. The first build is exactly one
/// L2 probe miss and one store; the rebuild after forgetting is exactly
/// one L2 hit; a third build is an L1 hit that never reaches the tier;
/// and all three are bit-identical.
#[test]
fn every_codec_round_trips_through_the_stack() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clients: Vec<Client> = TargetId::ALL
        .into_iter()
        .map(engine_client)
        .chain([dpf_client(), ash_client()])
        .collect();
    for c in &clients {
        let before = obs::persist_counters();
        let fresh = (c.build)();
        assert_eq!(gained(before), (0, 1, 1, 0), "{}: cold build", c.name);

        (c.forget)();
        let before = obs::persist_counters();
        let reloaded = (c.build)();
        assert_eq!(gained(before), (1, 0, 0, 0), "{}: reload", c.name);
        assert_eq!(reloaded, fresh, "{}: reload must be bit-identical", c.name);

        let before = obs::persist_counters();
        assert_eq!((c.build)(), fresh, "{}: L1 hit", c.name);
        assert_eq!(gained(before), (0, 0, 0, 0), "{}: L1 hit", c.name);
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}
