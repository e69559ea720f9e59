//! Emitted bytes, pinned across commits.
//!
//! An artifact the persistent cache wrote under one build is "what this
//! build would have emitted" only while the lowering from `Program` to
//! machine code emits the same bytes. Nothing else in the tree compares
//! bytes *between* commits (`crates/bench/tests/differential.rs` holds
//! the fast path to the bytewise path within one build), so the digests
//! below were computed at 393b495, before `engine::replay` and
//! `tier2::replay_opt` were folded onto one lowering loop, and must not
//! move without a `persist::FORMAT_VERSION` bump.

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

fn pinned<T: Target>(tier1: u64, tier2: u64) {
    let corpus = corpus();
    assert_eq!(
        digest_of(&corpus, replay::<T>),
        tier1,
        "{}: replay emits different bytes than 393b495 did",
        T::NAME
    );
    let optimized: Vec<Program> = corpus.iter().map(|p| optimize(p).0).collect();
    assert_eq!(
        digest_of(&optimized, replay_opt::<T>),
        tier2,
        "{}: optimize + replay_opt emit different bytes than 393b495 did",
        T::NAME
    );
}

/// The literals are what 393b495 emitted.
#[test]
fn emitted_bytes_match_the_parent_commit_on_every_target() {
    pinned::<Mips>(0xef99_8af7_c851_9014, 0xdd9f_f6ed_e536_ba58);
    pinned::<Sparc>(0x0c8d_49d7_264a_91a7, 0xbf0c_d593_4b57_3c04);
    pinned::<Alpha>(0xf1d1_7a02_0ce3_15cd, 0xf91a_9e10_ec5e_2ea5);
    pinned::<X64>(0xb18c_aafc_14af_92ab, 0xe0d5_091b_86a5_b53e);
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

/// First touch keeps a register per vreg for the whole lambda and gives
/// up at the vreg that finds the file empty; linear scan hands registers
/// back at last use and never holds more than three here.
fn pressure<T: Target>(exhausted_at: u8) {
    let p = forty_short_lived_temps();
    let mut mem = vec![0u8; p.code_capacity()];
    match replay::<T>(&p, &mut mem) {
        Err(EngineError::TooManyTemps { vreg }) => {
            assert_eq!(vreg, exhausted_at, "{}", T::NAME);
        }
        other => panic!("{}: first touch must exhaust, got {other:?}", T::NAME),
    }
    let fin = replay_opt::<T>(&p, &mut mem)
        .unwrap_or_else(|e| panic!("{}: linear scan must fit: {e}", T::NAME));
    assert!(fin.len > 0);
}

/// The literals are where `replay` gave up at 393b495.
#[test]
fn first_touch_exhausts_where_it_did_and_linear_scan_still_fits() {
    pressure::<Mips>(20);
    pressure::<Sparc>(22);
    pressure::<Alpha>(20);
    pressure::<X64>(10);
}
