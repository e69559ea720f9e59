//! Emitted bytes, pinned across commits.
//!
//! An artifact the persistent cache wrote under one build is "what this
//! build would have emitted" only while the lowering from `Program` to
//! machine code emits the same bytes. Nothing else in the tree compares
//! bytes *between* commits (`crates/bench/tests/differential.rs` holds
//! the fast path to the bytewise path within one build), so the digests
//! below are literals from earlier commits.
//!
//! The `optimize` + `replay_opt` digests: the RISC ones were computed at
//! 393b495, before `engine::replay` and `tier2::replay_opt` were folded
//! onto one lowering loop. The x86-64 ones moved twice since: once when
//! the prologue moved to the end of its reservation behind a short jump
//! from offset 0 and a jump to the next byte came to be retracted, and
//! once when a leaf that saves no register and keeps no local lost its
//! frame (its epilogue is a bare `ret`, which replaces every `jmp` to
//! it). The seeded x86-64 digests, both tiers, moved once more when
//! `rd = rs1 - rd` came to be `neg rd; add rd, rs1` instead of three
//! instructions through the scratch register; no program of the first
//! corpus emits that case. The seeded set — 1024 programs in the shape of the benchmark's
//! generator — and the `Program` stream pins were computed at 2fb0710,
//! while `Program` still held a `Vec<POp>` and lowering dispatched per
//! op.
//!
//! The `replay` digests are what `replay_opt` emitted for the same,
//! unoptimized, programs at 1588d22, the last commit with two vreg
//! policies: since then `replay` gives a register back after its vreg's
//! last use, as `replay_opt`'s linear scan did, and no longer keeps one
//! per vreg for the whole lambda. None of these moves came with a
//! `persist::FORMAT_VERSION` bump, and none needs one: an artifact an
//! older build stored is a whole function entered at its first byte,
//! re-decoded before it is mapped, that computes what its embedded
//! program computes; it loads and runs as before, and differs from a
//! new build's only in which registers it uses and how long it is.

use vcode::engine::{replay, EngineError, Program};
use vcode::persist::digest64;
use vcode::target::{Finished, Target};
use vcode::tier2::{optimize, replay_opt};
use vcode::BinOp;
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sparc::Sparc;
use vcode_x64::X64;

type Replay = fn(&Program, &mut [u8]) -> Result<Finished, EngineError>;

/// The regression programs plus the DPF and ASH hot loops.
fn corpus() -> Vec<Program> {
    let hot = dpf::hotloop::corpus()
        .into_iter()
        .chain(ash::hotloop::corpus())
        .map(|(_, p, _)| p);
    harden::regress_programs().into_iter().chain(hot).collect()
}

/// `digest64` of every program's finished code, concatenated in corpus
/// order.
fn digest_of(corpus: &[Program], lower: Replay) -> u64 {
    let mut all = Vec::new();
    for (i, p) in corpus.iter().enumerate() {
        let mut mem = vec![0u8; p.code_capacity()];
        let fin = lower(p, &mut mem).unwrap_or_else(|e| panic!("program {i}: {e}"));
        all.extend_from_slice(&mem[..fin.len]);
    }
    digest64(&all)
}

/// 1024 programs from [`harden::seeded_program`], one fixed seed.
fn seeded() -> Vec<Program> {
    let mut rng = harden::XorShift::new(0x5eed_ed60_1de2_b17e);
    (0..1024)
        .map(|serial| harden::seeded_program(&mut rng, serial))
        .collect()
}

/// `tier1` pins `replay` on the programs, `tier2` pins `optimize` +
/// `replay_opt`; `tier2_at` names the commit the second is from.
fn pinned<T: Target>(corpus: &[Program], tier2_at: &str, tier1: u64, tier2: u64) {
    assert_eq!(
        digest_of(corpus, replay::<T>),
        tier1,
        "{}: replay emits different bytes than its pin",
        T::NAME
    );
    let optimized: Vec<Program> = corpus.iter().map(|p| optimize(p).0).collect();
    assert_eq!(
        digest_of(&optimized, replay_opt::<T>),
        tier2,
        "{}: optimize + replay_opt emit different bytes than {tier2_at} did",
        T::NAME
    );
}

/// The `replay` literals are what `replay_opt` emitted at 1588d22; the
/// `optimize` + `replay_opt` ones, what 393b495 emitted (x86-64: after
/// leaves lost their frame).
#[test]
fn emitted_bytes_match_the_parent_commit_on_every_target() {
    let c = corpus();
    pinned::<Mips>(&c, "393b495", 0xe013_3980_78a4_f7fc, 0xdd9f_f6ed_e536_ba58);
    pinned::<Sparc>(&c, "393b495", 0xb902_a540_e27d_0eb9, 0xbf0c_d593_4b57_3c04);
    pinned::<Alpha>(&c, "393b495", 0x266e_ab04_6db6_b995, 0xf91a_9e10_ec5e_2ea5);
    pinned::<X64>(
        &c,
        "the frameless-leaf backend",
        0x9678_0bff_5e4e_a5fe,
        0x5956_e547_30cf_94f7,
    );
}

/// The `replay` literals are what `replay_opt` emitted at 1588d22; the
/// `optimize` + `replay_opt` ones, what 2fb0710 emitted (x86-64: both
/// after `rd = rs1 - rd` became `neg; add`).
#[test]
fn seeded_programs_emit_the_bytes_2fb0710_did_on_every_target() {
    let s = seeded();
    pinned::<Mips>(&s, "2fb0710", 0xc288_f360_4a8a_8de4, 0xeb96_08ed_d643_7fea);
    pinned::<Sparc>(&s, "2fb0710", 0x7f97_8cce_5927_1a0b, 0x2596_90cc_b616_d400);
    pinned::<Alpha>(&s, "2fb0710", 0xad79_40ae_b1d7_5412, 0xca5a_b43e_431c_559d);
    pinned::<X64>(
        &s,
        "the `neg; add` backend",
        0x37dd_fd8e_4542_59cf,
        0xb155_b492_f8d0_2fc4,
    );
}

/// A finished x86-64 function has two entries, and 1024 seeded programs
/// answer as the interpreter does from both: offset 0, which a client
/// that emitted in place calls (`ExecMem::finalize` + `call2`; it jumps
/// over what `end` left unused of the prologue reservation), and
/// [`Finished::entry`], from which the bytes are cut that the engine
/// installs and the L2 stores — run here from a mapping of their own,
/// after the re-decode an L2 load would give them.
#[test]
fn seeded_programs_run_alike_from_entry_and_from_offset_zero() {
    use vcode_x64::ExecMem;
    let mut cut = 0;
    for (i, p) in seeded().iter().enumerate() {
        let mut mem = ExecMem::new(p.code_capacity()).unwrap();
        let fin = replay::<X64>(p, mem.as_mut_slice()).unwrap();
        let whole = mem.finalize().unwrap();
        let image = &whole.bytes()[fin.entry..fin.len];
        vcode::persist::redecode(image, &vcode_x64::declen::Decoder)
            .unwrap_or_else(|e| panic!("program {i}: {e}"));
        let moved = ExecMem::adopt_bytes(image).unwrap().finalize().unwrap();
        cut += fin.entry;
        let args = [i as i32 * 7919 - 4_000_000, !(i as i32) << 9];
        let want = p.interpret(&args, 10_000_000).unwrap();
        let (a, b) = (args[0] as u32 as u64, args[1] as u32 as u64);
        for code in [&whole, &moved] {
            // SAFETY: `replay` emitted a two-argument integer function,
            // whole at offset 0 and position-independent from `entry`.
            let got = unsafe { code.call2(a, b) };
            assert_eq!(i64::from(got as u32 as i32), want, "program {i}");
        }
    }
    assert!(cut >= 1024 * 20, "the engine's lambdas lose their padding");
}

/// The serialized stream is the cache key and the artifact's embedded
/// IR, and `ops()` is what the optimizer reads: both as 2fb0710 — where
/// `ops()` was the recorded `Vec<POp>` itself — produced them, over the
/// corpus and the seeded set; every stream checks with its program's
/// arity, and a mutation shows in the memoized form.
#[test]
fn program_streams_and_ops_are_what_2fb0710_recorded() {
    let (mut streams, mut ops) = (Vec::new(), String::new());
    for p in corpus().into_iter().chain(seeded()) {
        let bytes = p.encode();
        assert_eq!(Program::check_encoded(&bytes).expect("checks"), p.args());
        assert_eq!(p.ops().count(), p.len());
        let (memo, hash) = p.encoded().clone();
        assert_eq!((&memo[..], hash), (&bytes[..], digest64(&bytes)));
        streams.extend_from_slice(&bytes);
        ops.push_str(&format!("{:?}", p.ops().collect::<Vec<_>>()));

        let mut q = p.clone();
        assert_eq!(q.encoded().1, hash);
        q.ret(0);
        assert_eq!(q.encoded().0[..], q.encode()[..], "memo survived `ret`");
        assert_eq!(q.encoded().0[..bytes.len()], bytes[..]);
        assert_ne!(q, p);
        let l = q.genlabel();
        assert_eq!(
            q.encoded().0[..],
            q.encode()[..],
            "memo survived `genlabel`"
        );
        assert_eq!(q.labels(), l + 1);
    }
    assert_eq!(
        digest64(&streams),
        0x12fc_299e_ebd0_a352,
        "encode() streams moved"
    );
    assert_eq!(
        digest64(ops.as_bytes()),
        0x16e6_29a0_19b9_d6ff,
        "ops() moved"
    );
}

/// Forty temporaries, each dead one instruction after it is written.
fn forty_short_lived_temps() -> Program {
    let mut p = Program::new(1).unwrap();
    p.set(1, 0);
    for k in 0..40u8 {
        p.bin_imm(BinOp::Add, 2 + k, 0, i32::from(k));
        p.bin(BinOp::Xor, 1, 1, 2 + k);
    }
    p.ret(1);
    p
}

/// Forty short-lived temporaries compile on every target, and the code
/// answers what the interpreter does: natively on x86-64, on the
/// simulators for the other three. (Until 1588d22 `replay` kept a
/// register per vreg and gave up at v20 on MIPS and Alpha, v22 on
/// SPARC and v10 on x86-64.)
#[test]
fn forty_short_lived_temps_compile_and_agree_on_every_target() {
    use vcode::engine::{Backend, TargetId};
    use vcode_sim::engine::{AlphaBackend, MipsBackend, SparcBackend};
    let p = forty_short_lived_temps();
    let backends: [Box<dyn Backend>; 4] = [
        Box::new(MipsBackend::default()),
        Box::new(SparcBackend::default()),
        Box::new(AlphaBackend::default()),
        Box::new(vcode_x64::X64Backend),
    ];
    for (backend, id) in backends.iter().zip(TargetId::ALL) {
        assert_eq!(backend.id(), id);
        let lambda = backend
            .compile(&p)
            .unwrap_or_else(|e| panic!("{id}: the forty temps must fit: {e}"));
        for x in [0, 1, -7, 12345, i32::MIN, i32::MAX] {
            assert_eq!(
                lambda.call(&[x]).unwrap(),
                p.interpret(&[x], 1_000).unwrap(),
                "{id} on {x}"
            );
        }
    }
}
