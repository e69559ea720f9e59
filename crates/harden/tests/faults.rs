//! The fault-injection harness (ISSUE: hardened execution).
//!
//! Injects deterministic faults — bitflips in emitted code, storage
//! exhaustion at byte N, truncated and misaligned packets, curated
//! native crashes — across all four backends (MIPS, SPARC and Alpha
//! simulators plus guarded x86-64). Every fault must surface as a typed
//! outcome: never a panic, never a hang, never a silently wrong answer
//! on an unfaulted path. The case counts here are what the acceptance
//! criteria mean by "≥100 deterministic fault cases".

use ash::{generic, reference, Step};
use harden::{bit_positions, capacity_series, flip_bit, Tally, XorShift};
use vcode::target::{Leaf, Target};
use vcode::{Assembler, RegClass, Trap, TrapKind};
use vcode_sim::{alpha, mips, sparc, Isa, Machine, MemError, Word};

/// The injected program: the fused checksum+swap pipeline
/// `fn(dst: %p, src: %p, nbytes: %ul) -> %ul`, generated through the
/// portable surface so the identical client program exists on every
/// backend.
const STEPS: [Step; 2] = [Step::Checksum, Step::Swap];
const UNROLL: i32 = 8;

fn gen<T: Target>() -> Vec<u8> {
    let mut mem = vec![0u8; 8192];
    let fin = generic::compile_fused::<T>(&mut mem, &STEPS, UNROLL).expect("pipeline generates");
    mem.truncate(fin.len);
    mem
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

/// Runs `code` on `I`'s simulator; returns (sum, dst bytes).
fn run<I: Isa>(code: &[u8], data: &[u8], steps: u64) -> Result<(u64, Vec<u8>), Trap> {
    let mut m = Machine::<I>::new(1 << 21);
    let entry = m.load_code(code).expect("code fits");
    let dst = m.alloc(data.len().max(4), 8).expect("heap fits");
    let src = m.alloc(data.len().max(4), 8).expect("heap fits");
    m.write(src, data).expect("in range");
    let n = Word::wrap(data.len() as u64);
    let sum = m.call(entry, &[dst, src, n], steps)?;
    Ok((
        sum.into(),
        m.read(dst, data.len()).expect("in range").to_vec(),
    ))
}

type SimRunner = fn(&[u8], &[u8], u64) -> Result<(u64, Vec<u8>), Trap>;

/// ~120 single-bit corruptions of emitted code, 40 per simulator. Each
/// mutant either runs to completion (the flip was benign) or raises a
/// typed [`Trap`] within the step budget — the harness itself is the
/// assertion that nothing panics or hangs.
#[test]
fn bitflipped_code_traps_or_completes_on_every_simulator() {
    let data = pattern(40);
    let want_sum = reference::checksum(&data);
    let want_dst = reference::swapped(&data);

    let backends: [(&str, Vec<u8>, SimRunner); 3] = [
        ("mips", gen::<vcode_mips::Mips>(), run::<mips::Cpu>),
        ("sparc", gen::<vcode_sparc::Sparc>(), run::<sparc::Cpu>),
        ("alpha", gen::<vcode_alpha::Alpha>(), run::<alpha::Cpu>),
    ];

    let mut tally = Tally::new();
    let mut rng = XorShift::new(0xb17_f11b);
    for (name, code, run) in &backends {
        // Unfaulted baseline first: the differential ground truth. A
        // harness that cannot tell right from wrong would also accept
        // silently wrong answers from benign-looking flips.
        let (sum, dst) = run(code, &data, 500_000).expect("pristine code runs");
        assert_eq!(reference::fold_le_words(sum), want_sum, "{name}");
        assert_eq!(dst, want_dst, "{name}");

        for pos in bit_positions(&mut rng, code.len() * 8, 40) {
            let mut bad = code.clone();
            flip_bit(&mut bad, pos);
            let out = run(&bad, &data, 200_000);
            tally.record(&out);
        }
    }
    tally.assert_covered(100);
    println!(
        "bitflips: {} cases, {} completed, {} trapped",
        tally.total(),
        tally.completed,
        tally.trapped
    );
}

/// Storage exhaustion at byte N for the standard capacity series, on
/// all four code generators plus the DPF and ASH degradation ladders —
/// 144 cases. Generation into a too-small buffer must latch
/// [`vcode::Error::Overflow`]; the engine ladders must keep producing
/// *correct* answers by degrading, never a panic (this exact series is
/// what exposed the backpatch-past-cursor and save-area-underflow
/// panics fixed in this PR).
#[test]
fn storage_exhaustion_is_typed_at_every_byte_budget() {
    let mut tally = Tally::new();

    // Raw generation into N-byte client storage, all four targets.
    for &cap in &capacity_series() {
        let mut buf = vec![0u8; cap];
        tally.record(&generic::compile_fused::<vcode_x64::X64>(
            &mut buf, &STEPS, UNROLL,
        ));
        let mut buf = vec![0u8; cap];
        tally.record(&generic::compile_fused::<vcode_mips::Mips>(
            &mut buf, &STEPS, UNROLL,
        ));
        let mut buf = vec![0u8; cap];
        tally.record(&generic::compile_fused::<vcode_sparc::Sparc>(
            &mut buf, &STEPS, UNROLL,
        ));
        let mut buf = vec![0u8; cap];
        tally.record(&generic::compile_fused::<vcode_alpha::Alpha>(
            &mut buf, &STEPS, UNROLL,
        ));
    }
    assert!(tally.completed > 0, "large capacities must generate");
    assert!(tally.trapped > 0, "small capacities must overflow");

    // The DPF ladder: classification stays correct at every capacity,
    // on whichever engine the ladder lands on.
    use dpf::packet::{self, PacketSpec};
    let filters = packet::port_filter_set(5, 3000);
    let hit = packet::build(&PacketSpec {
        dst_port: 3003,
        ..PacketSpec::default()
    });
    let miss = packet::build(&PacketSpec {
        dst_port: 9,
        ..PacketSpec::default()
    });
    let mut engines_seen = (false, false);
    for &cap in &capacity_series() {
        let d = dpf::DpfService::with_options(dpf::Options {
            code_capacity: Some(cap),
            ..dpf::Options::default()
        });
        let ids = d.insert_all(filters.iter().cloned());
        // The ladder always yields a runnable generation.
        tally.record::<(), ()>(&Ok(()));
        if d.is_native() {
            engines_seen.0 = true;
        } else {
            engines_seen.1 = true;
        }
        assert_eq!(d.classify(&hit), Some(ids[3]), "capacity {cap}");
        assert_eq!(d.classify(&miss), None, "capacity {cap}");
    }
    assert!(engines_seen.0, "comfortable capacities must compile native");
    assert!(engines_seen.1, "hopeless capacities must degrade");

    // The ASH ladder, same contract.
    let src = pattern(256);
    let mut engines_seen = (false, false);
    for &cap in &capacity_series() {
        let p = ash::Pipeline::compile_with_options(
            &STEPS,
            ash::PipelineOptions {
                code_capacity: Some(cap),
                ..ash::PipelineOptions::default()
            },
        )
        .expect("the ladder always yields a runnable pipeline");
        match p.engine_kind() {
            ash::EngineKind::Native => engines_seen.0 = true,
            ash::EngineKind::Interpreter => engines_seen.1 = true,
        }
        let mut dst = vec![0u8; src.len()];
        let ck = p.run(&src, &mut dst);
        assert_eq!(ck, reference::checksum(&src), "capacity {cap}");
        assert_eq!(dst, reference::swapped(&src), "capacity {cap}");
        tally.record::<(), ()>(&Ok(()));
    }
    assert!(engines_seen.0, "comfortable capacities must compile native");
    assert!(engines_seen.1, "hopeless capacities must degrade");

    tally.assert_covered(140);
    println!(
        "exhaustion: {} cases, {} completed, {} typed overflows",
        tally.total(),
        tally.completed,
        tally.trapped
    );
}

/// Truncated, misaligned and garbage packets against three
/// independently implemented classifiers — compiled DPF, the MPF
/// bytecode interpreter and the PATHFINDER trie interpreter. The
/// filters are disjoint, so on *any* input all three must agree; ~100
/// comparisons, none may panic.
#[test]
fn malformed_packets_classify_identically_on_every_engine() {
    use dpf::packet::{self, PacketSpec};
    let filters = packet::port_filter_set(6, 4000);

    let svc = dpf::DpfService::new();
    let mut m = dpf::mpf::Mpf::new();
    let mut p = dpf::Pathfinder::new();
    let ids = svc.insert_all(filters.iter().cloned());
    for (f, a) in filters.iter().zip(ids) {
        let b = m.insert(f);
        let c = p.insert(f.clone());
        assert_eq!((a, b), (c, c), "id assignment must agree");
    }
    assert!(svc.is_native());
    let d = svc.reader();

    let pkt = packet::build(&PacketSpec {
        dst_port: 4003,
        ..PacketSpec::default()
    });
    let full = d.classify(&pkt);
    assert!(full.is_some(), "the intact packet must match");

    let mut cases = 0usize;
    let mut rejected = 0usize;
    let agree = |msg: &[u8], what: &str| {
        let (a, b, c) = (d.classify(msg), m.classify(msg), p.classify(msg));
        assert_eq!(a, b, "{what}: dpf vs mpf");
        assert_eq!(a, c, "{what}: dpf vs pathfinder");
        a
    };

    // Every truncation point, 0..=len.
    for cut in 0..=pkt.len() {
        let got = agree(&pkt[..cut], &format!("truncated to {cut}"));
        cases += 1;
        if got.is_none() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "short prefixes must be rejected, not matched");

    // Misaligned views of the same packet.
    for off in 1..4 {
        agree(&pkt[off..], &format!("offset by {off}"));
        cases += 1;
    }

    // Deterministic garbage of assorted lengths.
    let mut rng = XorShift::new(0xdecaf);
    for _ in 0..40 {
        let mut msg = vec![0u8; rng.below(81) as usize];
        rng.fill(&mut msg);
        agree(&msg, "garbage");
        cases += 1;
    }

    assert!(cases >= 90, "only {cases} packet cases ran");
    println!("packets: {cases} cases, {rejected} truncations rejected");
}

/// The zero-check emission fast path under storage faults: a fixed
/// emission script exercising every append tier (per-byte, fixed
/// arrays, packed words, a reserved window, prologue reserve,
/// alignment) is swept across every capacity from zero to past its
/// full length, in both the fast path and the `Bytewise` reference
/// mode. At every capacity the two paths must agree on the overflow
/// latch, nothing may panic or spin, and at-or-above the exact length
/// the output must be byte-identical to the unfaulted reference —
/// "reservation exactly at capacity" is the interesting boundary the
/// sweep passes through. On top of the sweep, each backend's fused
/// pipeline is generated into storage of exactly the finished length
/// (must succeed) and one byte less (must latch a typed overflow).
#[test]
fn reservation_faults_are_typed_at_every_capacity() {
    use vcode::buf::{CodeBuffer, EmitPath};

    fn script(b: &mut CodeBuffer<'_>) {
        b.put_u8(0x90);
        b.put_array([0x11, 0x22, 0x33, 0x44]);
        b.put_word(0x8899_aabb_ccdd_eeff, 4);
        b.put_u32(0x5566_7788);
        {
            let mut w = b.window(12);
            w.u8(0xaa);
            w.array([0xbb, 0xcc]);
            w.word(0x1122_3344, 4);
        }
        b.reserve(5, 0xee);
        b.align_to(8, 0);
        b.put_slice(&[0xde, 0xad, 0xbe, 0xef]);
    }

    // Unfaulted reference: the full output and its exact length.
    let mut ref_mem = vec![0u8; 64];
    let mut r = CodeBuffer::new(&mut ref_mem);
    script(&mut r);
    assert!(!r.overflowed());
    let full = r.as_slice().to_vec();

    let mut cases = 0usize;
    let mut latched = 0usize;
    for cap in 0..=full.len() + 8 {
        let mut fast_mem = vec![0u8; cap];
        let mut byte_mem = vec![0u8; cap];
        let mut fast = CodeBuffer::new(&mut fast_mem);
        let mut slow = CodeBuffer::with_path(&mut byte_mem, EmitPath::Bytewise);
        script(&mut fast);
        script(&mut slow);
        // Both paths must latch at exactly the same capacities (the
        // fast path drops whole runs where the reference lands partial
        // bytes, so cursors may differ below the boundary — but the
        // typed outcome may not).
        assert_eq!(fast.overflowed(), slow.overflowed(), "cap {cap}: latch");
        assert_eq!(fast.overflowed(), cap < full.len(), "cap {cap}: boundary");
        assert!(fast.len() <= cap, "cap {cap}: cursor past storage");
        if cap >= full.len() {
            assert_eq!(fast.as_slice(), &full[..], "cap {cap}: bytes");
            assert_eq!(slow.as_slice(), &full[..], "cap {cap}: bytes (ref)");
        } else {
            latched += 1;
        }
        // Reservations *after* the latch must stay typed: more window
        // writes land in the spill, replay, and re-latch — no panic, no
        // cursor escape.
        let mut w = fast.window(8);
        w.u8(0x01);
        w.u16(0x0203);
        drop(w);
        assert_eq!(
            fast.overflowed(),
            cap < full.len() + 3,
            "cap {cap}: relatch"
        );
        assert!(fast.len() <= cap, "cap {cap}: cursor after relatch");
        cases += 1;
    }
    assert!(latched > 0, "the sweep must cross the overflow boundary");

    // Exactly-sized storage at the generator level, all four targets:
    // the finished length must generate cleanly, one byte less must be
    // a typed overflow from `end()`, never a panic.
    fn exact<T: Target>(name: &str, tally: &mut Tally, cases: &mut usize) {
        let fin_len = {
            let mut mem = vec![0u8; 8192];
            generic::compile_fused::<T>(&mut mem, &STEPS, UNROLL)
                .expect("pipeline generates")
                .len
        };
        let mut mem = vec![0u8; fin_len];
        let ok = generic::compile_fused::<T>(&mut mem, &STEPS, UNROLL);
        assert!(ok.is_ok(), "{name}: exact capacity must generate");
        tally.record(&ok);
        let mut mem = vec![0u8; fin_len - 1];
        let err = generic::compile_fused::<T>(&mut mem, &STEPS, UNROLL);
        assert!(err.is_err(), "{name}: one byte short must overflow");
        tally.record(&err);
        *cases += 2;
    }
    let mut tally = Tally::new();
    exact::<vcode_x64::X64>("x64", &mut tally, &mut cases);
    exact::<vcode_mips::Mips>("mips", &mut tally, &mut cases);
    exact::<vcode_sparc::Sparc>("sparc", &mut tally, &mut cases);
    exact::<vcode_alpha::Alpha>("alpha", &mut tally, &mut cases);
    assert_eq!((tally.completed, tally.trapped), (4, 4));
    println!("reservation: {cases} cases, {latched} capacities latched");
}

/// The same sweep one level up, through the Assembler:
/// `codegen_cost`'s four-op mix emitted on every target into storage of
/// every capacity from zero to eight past its full length, through the
/// fast path and the `Bytewise` reference, each with the streaming
/// verifier off and on. The four runs at a capacity must agree on the
/// overflow latch and on `end()`'s typed result; every capacity below
/// the first that fits (at most five past the full length) must be a
/// typed overflow, and every one from it on write the unfaulted bytes.
/// This is where the emitters' cold halves run: the by-value slow path of a fixed-width append, a
/// spilled window, a packed word without headroom, the verifier's
/// outlined record call.
#[test]
fn assembler_faults_are_typed_at_every_capacity() {
    use vcode::{EmitPath, Error, Sig};

    const N: usize = 64;

    /// Emits the mix into `mem`: the latch before `end()`, then what
    /// `end()` returned.
    fn mix<T: Target>(
        mem: &mut [u8],
        path: EmitPath,
        verify: bool,
    ) -> (bool, Result<usize, Error>) {
        let sig = Sig::parse("%i%i").unwrap();
        let mut a = Assembler::<T>::lambda_sig_path(mem, sig, Leaf::Yes, path).unwrap();
        if verify {
            a.enable_verifier();
        }
        let (x, y) = (a.arg(0), a.arg(1));
        let t = a.getreg(RegClass::Temp).unwrap();
        for i in 0..N {
            match i % 4 {
                0 => a.addi(t, x, y),
                1 => a.subii(t, t, 3),
                2 => a.xori(t, t, x),
                _ => a.muli(t, t, y),
            }
        }
        a.reti(t);
        let latched = a.state().buf.overflowed();
        (latched, a.end().map(|f| f.len))
    }

    fn sweep<T: Target>(name: &str) -> usize {
        let mut full = vec![0u8; 4096];
        let len = mix::<T>(&mut full, EmitPath::Fast, false).1.unwrap();
        full.truncate(len);
        let runs = [false, true].map(|v| [(EmitPath::Fast, v), (EmitPath::Bytewise, v)]);
        // The cursor may peak past the finished length: x86-64 emits
        // the final `ret`'s jump to the epilogue and takes it back when
        // the epilogue is bound right behind it.
        let mut need = None;
        for cap in 0..=len + 8 {
            let mut seen = None;
            for (path, verify) in runs.iter().flatten().copied() {
                let mut mem = vec![0u8; cap];
                let got = mix::<T>(&mut mem, path, verify);
                let case = format!("{name}, cap {cap}, {path:?}, verifier {verify}");
                assert_eq!(
                    *seen.get_or_insert(got.clone()),
                    got,
                    "{case}: runs disagree"
                );
                if got.1.is_ok() {
                    need.get_or_insert(cap);
                }
                if need.is_some() {
                    assert_eq!(got, (false, Ok(len)), "{case}: unfaulted past {need:?}");
                    assert_eq!(&mem[..len], &full[..], "{case}: bytes");
                } else {
                    // Latched during the body, or only by `end()`'s
                    // epilogue: either way a typed overflow.
                    let overflow = Err(Error::Overflow { capacity: cap });
                    assert_eq!(got.1, overflow, "{case}: typed overflow");
                }
            }
        }
        let need = need.expect("the sweep reaches a capacity that fits");
        assert!(
            (len..=len + 5).contains(&need),
            "{name}: needs {need} for {len}"
        );
        len + 9
    }

    let caps = sweep::<vcode_x64::X64>("x64")
        + sweep::<vcode_mips::Mips>("mips")
        + sweep::<vcode_sparc::Sparc>("sparc")
        + sweep::<vcode_alpha::Alpha>("alpha");
    println!("assembler sweep: {caps} capacities x 4 runs");
}

/// Pooled executable memory under exhaustion: impossible sizes must
/// come back as typed [`std::io::Error`]s (`ENOMEM`), and the pool must
/// remain fully usable afterwards — a failed request may not poison a
/// shard or leak a parked mapping.
#[test]
fn pooled_execmem_exhaustion_is_typed() {
    use vcode_x64::{ExecMem, MAX_POOL_PAGES};

    // Size so large the page-count arithmetic itself would overflow.
    let err = ExecMem::new(usize::MAX).expect_err("absurd size must fail");
    assert_eq!(err.raw_os_error(), Some(12), "ENOMEM, not a panic");
    // Large enough to defeat any real allocation, small enough that all
    // the checked arithmetic succeeds: the typed error must come from
    // the mapping layer instead.
    assert!(ExecMem::new(usize::MAX / 4).is_err());

    // The pool is not poisoned: both a pooled-class and an oversized
    // (pool-bypassing) allocation still work after the failures.
    let small = ExecMem::new(4096).expect("pooled class survives");
    drop(small);
    let big = ExecMem::new((MAX_POOL_PAGES + 1) * 4096).expect("bypass class survives");
    drop(big);
}

/// Curated native crash programs under [`vcode_x64::GuardedCall`]:
/// each historically-fatal fault (null deref, wild store, illegal
/// opcode, runaway loop, straight-line runoff, a wild load in a
/// frameless leaf) becomes a typed
/// [`vcode_x64::NativeTrap`] carrying the faulting address.
#[test]
fn curated_native_faults_trap_under_guard() {
    use std::time::Duration;
    use vcode_x64::{ExecMem, GuardedCall, X64};

    fn emit(f: impl FnOnce(&mut Assembler<'_, X64>)) -> vcode_x64::ExecCode {
        let mut mem = ExecMem::new(4096).expect("map");
        let mut a =
            Assembler::<X64>::lambda(mem.as_mut_slice(), "%p:%i", Leaf::Yes).expect("lambda");
        f(&mut a);
        a.end().expect("end");
        mem.finalize().expect("finalize")
    }

    let guard = GuardedCall::new();
    let mut tally = Tally::new();

    // Load through a null pointer.
    let code = emit(|a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).expect("reg");
        a.ldii(t, p, 0);
        a.reti(t);
    });
    let out = guard.call1(&code, 0);
    tally.record(&out);
    let t = out.expect_err("null deref must trap");
    assert_eq!(Trap::from(t).kind, TrapKind::BadAccess);

    // Store through a wild pointer.
    let code = emit(|a| {
        let p = a.arg(0);
        let t = a.getreg(RegClass::Temp).expect("reg");
        a.seti(t, 7);
        a.stii(t, p, 0);
        a.reti(t);
    });
    let out = guard.call1(&code, 0xdead_b000);
    tally.record(&out);
    let t = Trap::from(out.expect_err("wild store must trap"));
    assert_eq!(t.kind, TrapKind::BadAccess);
    assert_eq!(t.addr, Some(0xdead_b000));

    // Illegal opcode (raw ud2 — no assembler surface emits it).
    let mut mem = ExecMem::new(4096).expect("map");
    mem.as_mut_slice()[..2].copy_from_slice(&[0x0f, 0x0b]);
    let code = mem.finalize().expect("finalize");
    let out = guard.call0(&code);
    tally.record(&out);
    assert_eq!(
        Trap::from(out.expect_err("ud2 must trap")).kind,
        TrapKind::IllegalInsn
    );

    // Runaway loop under the watchdog.
    let code = emit(|a| {
        let top = a.genlabel();
        a.label(top);
        a.jmp(top);
        a.retv();
    });
    let watchdog = GuardedCall::with_fuel(vcode::Fuel::time(Duration::from_millis(40)));
    let out = watchdog.call1(&code, 0);
    tally.record(&out);
    assert_eq!(
        Trap::from(out.expect_err("loop must exhaust fuel")).kind,
        TrapKind::FuelExhausted
    );

    // Straight-line runoff into the trailing guard page.
    let mut mem = ExecMem::new(4096).expect("map");
    let len = mem.len();
    for b in mem.as_mut_slice().iter_mut() {
        *b = 0x90; // nop sled, no ret: execution escapes off the end
    }
    let code = mem.finalize().expect("finalize");
    let out = guard.call0(&code);
    tally.record(&out);
    let t = Trap::from(out.expect_err("runoff must hit the guard page"));
    assert_eq!(t.kind, TrapKind::BadAccess);
    assert_eq!(t.addr, Some(code.addr() + len as u64));

    // A wild load inside a frameless leaf: no prologue (the whole
    // reservation is filler) and a bare `ret`, so the trap unwinds no
    // frame of its own. Trapped entered at offset 0 and at its entry,
    // and the same code then runs to completion from both.
    let mut mem = ExecMem::new(4096).expect("map");
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%p:%i", Leaf::Yes).expect("lambda");
    let p = a.arg(0);
    let t = a.getreg(RegClass::Temp).expect("reg");
    a.ldii(t, p, 8);
    a.reti(t);
    let fin = a.end().expect("end");
    let code = mem.finalize().expect("finalize");
    assert!(code.bytes()[2..fin.entry].iter().all(|&b| b == 0x90));
    assert_eq!(code.bytes()[fin.len - 1], 0xc3);
    let words = [0i32, 0, 42, 0];
    for entry in [0, fin.entry] {
        let at = code.addr() + entry as u64;
        let out = guard.call_entry(at, [0xdead_b000, 0, 0, 0]);
        tally.record(&out);
        let t = Trap::from(out.expect_err("wild load must trap"));
        assert_eq!((t.kind, t.addr), (TrapKind::BadAccess, Some(0xdead_b008)));
        let ok = guard.call_entry(at, [words.as_ptr() as u64, 0, 0, 0]);
        assert_eq!(ok.expect("a good pointer runs") as u32, 42);
    }

    assert_eq!(tally.total(), 7);
    assert_eq!(tally.trapped, 7);
}

/// Host-facing simulator memory APIs (`load_code` / `alloc` / `write` /
/// `read`) under a misuse corpus: out-of-range addresses, oversized
/// images and images that would reach the heap (an `alloc` used to hand
/// out addresses inside them), overflowing and exhausting allocations.
/// Every case must come back as a typed [`MemError`] — these paths used to panic
/// (slice out of bounds, `at + size` overflow, bare asserts) — and the
/// machine must stay fully usable afterwards.
#[test]
fn sim_memory_api_misuse_is_typed_on_every_simulator() {
    const MEM: usize = 1 << 20;

    // (addr, len) misuse corpus shared by write/read; u32::MAX-based
    // cases also exercise the 32-bit machines' widest addresses.
    const RANGES: [(u64, usize); 6] = [
        (MEM as u64, 1),                  // one past the end
        (MEM as u64 - 1, 2),              // straddles the end
        (u32::MAX as u64, 1),             // widest 32-bit address
        (u32::MAX as u64 - 3, 8),         // end wraps past u32
        (0, MEM + 1),                     // len alone too large
        (MEM as u64 / 2, usize::MAX / 2), // addr + len overflows
    ];
    // (size, align) alloc misuse corpus.
    const ALLOCS: [(usize, usize); 4] = [
        (MEM, 8),            // exhausts the heap
        (usize::MAX - 4, 8), // at + size overflows
        (usize::MAX, 1),     // size alone overflows
        (8, usize::MAX),     // align rounds past usize
    ];

    /// The corpus on `I`'s simulator, which must then still run the real
    /// pipeline; returns the number of cases.
    fn corpus<T: Target, I: Isa>() -> usize {
        let name = I::NAME;
        let mut m = Machine::<I>::new(MEM);
        let mut cases = 0;
        for (addr, len) in RANGES {
            let addr = I::Word::wrap(addr);
            let end = addr.into() + len as u64;
            assert!(
                matches!(m.read(addr, len), Err(MemError::OutOfRange { .. })) || end <= MEM as u64,
                "{name}: read({addr:#x}, {len})"
            );
            // Rebuild the out-of-range property for the clamped write
            // length before asserting.
            let data = vec![0u8; len.min(16)];
            if addr.into() + data.len() as u64 > MEM as u64 {
                assert!(
                    matches!(m.write(addr, &data), Err(MemError::OutOfRange { .. })),
                    "{name}: write({addr:#x}, {})",
                    data.len()
                );
            }
            cases += 2;
        }
        let huge = vec![0u8; MEM + 1];
        assert!(
            matches!(m.load_code(&huge), Err(MemError::OutOfRange { .. })),
            "{name}: oversized load_code"
        );
        // Code may not reach the heap, which starts at half of memory.
        assert!(
            matches!(
                m.load_code(&huge[..MEM / 2]),
                Err(MemError::OutOfRange { .. })
            ),
            "{name}: load_code reaching the heap"
        );
        for (size, align) in ALLOCS {
            assert!(
                matches!(m.alloc(size, align), Err(MemError::OutOfMemory { .. })),
                "{name}: alloc({size:#x}, {align:#x})"
            );
            cases += 1;
        }
        cases += 2;
        // The machine survives the misuse: generate and run the real
        // pipeline on it.
        let code = gen::<T>();
        let entry = m.load_code(&code).expect("fits");
        let dst = m.alloc(64, 8).expect("fits");
        let src = m.alloc(64, 8).expect("fits");
        m.write(src, &pattern(40)).expect("in range");
        m.call(entry, &[dst, src, Word::wrap(40)], 500_000)
            .expect("runs");
        cases
    }

    let cases = corpus::<vcode_mips::Mips, mips::Cpu>()
        + corpus::<vcode_sparc::Sparc, sparc::Cpu>()
        + corpus::<vcode_alpha::Alpha, alpha::Cpu>();
    assert!(cases >= 50, "only {cases} misuse cases ran");
    println!("memory-api misuse: {cases} cases, all typed");
}

/// Register-tuning APIs (`set_register_class` / `set_register_priority`)
/// fed registers outside the target's register file, on every backend.
/// Each case must latch a typed [`vcode::Error::UnknownRegister`] —
/// never a panic, never a silent acceptance — and the backend must stay
/// fully usable for a subsequent clean generation.
#[test]
fn register_api_misuse_is_typed_on_every_backend() {
    use vcode::{Bank, Error, Reg, RegKind};

    /// An integer register the target does not describe, reserve or
    /// anchor — no legitimate path can ever hand it out.
    fn ghost_int<T: Target>() -> Reg {
        let rf = T::regfile();
        (0u8..64)
            .map(Reg::int)
            .find(|&r| {
                rf.desc(r).is_none()
                    && !T::CHECKS.reserved_int.contains(&r.num())
                    && r != rf.sp
                    && r != rf.fp
                    && Some(r) != rf.zero
            })
            .expect("every target leaves some integer register undescribed")
    }

    fn corpus<T: Target>(cases: &mut usize) {
        let ghost = ghost_int::<T>();
        // Far outside any bank on any target, in both banks.
        let wild = [ghost, Reg::int(63), Reg::flt(63)];

        for &bad in &wild {
            for kind in [RegKind::CallerSaved, RegKind::CalleeSaved] {
                let mut mem = vec![0u8; 1024];
                let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
                let x = a.arg(0);
                a.set_register_class(bad, kind);
                a.reti(x);
                assert!(
                    matches!(a.end(), Err(Error::UnknownRegister(_))),
                    "set_register_class({bad:?}) must latch UnknownRegister"
                );
                *cases += 1;
            }
            for bank in [Bank::Int, Bank::Flt] {
                let mut mem = vec![0u8; 1024];
                let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
                let x = a.arg(0);
                a.set_register_priority(bank, &[bad]);
                a.reti(x);
                assert!(
                    matches!(a.end(), Err(Error::UnknownRegister(_))),
                    "set_register_priority({bank:?}, [{bad:?}]) must latch UnknownRegister"
                );
                *cases += 1;
            }
        }

        // A ghost hidden among valid registers is still caught.
        let valid = T::regfile().int.first().expect("nonempty file").reg;
        let mut mem = vec![0u8; 1024];
        let mut a = Assembler::<T>::lambda(&mut mem, "%i", Leaf::Yes).unwrap();
        let x = a.arg(0);
        a.set_register_priority(Bank::Int, &[valid, ghost]);
        a.reti(x);
        assert!(matches!(a.end(), Err(Error::UnknownRegister(_))));
        *cases += 1;

        // The backend survives the misuse: the real pipeline still
        // generates cleanly afterwards.
        let code = gen::<T>();
        assert!(!code.is_empty());
        *cases += 1;
    }

    let mut cases = 0usize;
    corpus::<vcode_mips::Mips>(&mut cases);
    corpus::<vcode_sparc::Sparc>(&mut cases);
    corpus::<vcode_alpha::Alpha>(&mut cases);
    corpus::<vcode_x64::X64>(&mut cases);

    assert!(cases >= 40, "only {cases} register-API misuse cases ran");
    println!("register-api misuse: {cases} cases, all typed");
}
