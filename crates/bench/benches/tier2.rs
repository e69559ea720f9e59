//! Tier-2, the record of a measured experiment: what optimizing the
//! recorded IR costs and what it buys, over the DPF/ASH hot-loop corpus
//! (the recorded-IR kernels a demux/transfer server actually runs hot).
//! Nothing serves from this path — the engine hands out tier-1 code only
//! (DESIGN.md "Tier-2: a measured experiment") — so what is *gated* here
//! is what is exact, and wall-clock readings are recorded beside it.
//!
//! Exact, gated (CI runs this binary; either failure exits 1):
//!
//! - every kernel agrees across interpreter / tier-1 / tier-2, on the
//!   MIPS simulator and natively on x86-64;
//! - `tier2/sim_cycle_reduction_pct`: executed-cycle reduction tier-1 vs
//!   tier-2 on the MIPS simulator (a deterministic machine model, so the
//!   number is a count, not a timing) stays at or above 10 % in
//!   aggregate, and no kernel executes more cycles optimized.
//!
//! Recorded, not fenced:
//!
//! - `tier2/insns_eliminated_pct`: executable instructions removed from
//!   the recorded IR by peephole + layout (exact, but not a goal);
//! - `tier2/compile_ns_per_insn` / `tier2/tier1_compile_ns_per_insn`:
//!   optimize + linear-scan replay, and plain replay, per source
//!   instruction;
//! - `tier2/x64_speedup`: native wall clock, tier-1 over tier-2 — the
//!   number that decided the experiment (under the 1.2× bar).

use std::time::Instant;
use vcode::engine::{replay, Backend, Program};
use vcode::tier2;
use vcode_bench::snapshot;
use vcode_mips::Mips;
use vcode_x64::{X64Backend, X64};

/// Simulator step budget per corpus run (largest kernel: ~256
/// iterations of a ~40-instruction body).
const FUEL: u64 = 50_000_000;

/// Tier-1 MIPS image: straight transliteration of the recorded IR.
fn mips_tier1(p: &Program) -> Vec<u8> {
    let mut mem = vec![0u8; p.code_capacity()];
    let fin = replay::<Mips>(p, &mut mem).expect("tier-1 replay");
    mem.truncate(fin.len);
    mem
}

/// Tier-2 MIPS image: peephole + layout + linear-scan replay.
fn mips_tier2(p: &Program) -> Vec<u8> {
    let (opt, _) = tier2::optimize(p);
    let mut mem = vec![0u8; opt.code_capacity()];
    let fin = tier2::replay_opt::<Mips>(&opt, &mut mem).expect("tier-2 replay");
    mem.truncate(fin.len);
    mem
}

/// Runs a MIPS image on a fresh simulator; returns (result, cycles).
fn sim_run(code: &[u8], input: &[i32]) -> (i64, u64) {
    let mut m = vcode_sim::mips::Machine::new(1 << 21);
    let entry = m.load_code(code).expect("load");
    let r = m.call_i32(entry, input, FUEL).expect("sim run");
    (r, m.stats().cycles)
}

/// Best-of-rounds wall time per call of `f`, in nanoseconds.
fn best_ns(mut f: impl FnMut(), iters: u32, rounds: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

fn main() {
    let (iters, rounds) = if snapshot::smoke() {
        (64, 4)
    } else {
        (256, 12)
    };
    let corpus: Vec<(&str, Program, Vec<i32>)> = dpf::hotloop::corpus()
        .into_iter()
        .chain(ash::hotloop::corpus())
        .collect();

    println!("=== Tier-2 over the DPF/ASH hot-loop corpus ===");
    println!(
        "{:14} {:>8} {:>8} {:>7} {:>10} {:>10} {:>7} {:>12} {:>12} {:>10} {:>10}",
        "kernel",
        "insns",
        "t2 insns",
        "elim%",
        "t1 cycles",
        "t2 cycles",
        "cyc-%",
        "t1 comp ns",
        "t2 comp ns",
        "t1 x64 ns",
        "t2 x64 ns"
    );

    let x64 = X64Backend;
    let mut failures: Vec<String> = Vec::new();
    let (mut insns_in, mut insns_out) = (0u64, 0u64);
    let (mut t1_cycles, mut t2_cycles) = (0u64, 0u64);
    let (mut t1_comp_ns, mut t2_comp_ns) = (0.0f64, 0.0f64);
    let (mut x1_call_ns, mut x2_call_ns) = (0.0f64, 0.0f64);

    for (name, prog, input) in &corpus {
        let (_, stats) = tier2::optimize(prog);
        let want = prog
            .interpret(input, FUEL)
            .unwrap_or_else(|e| panic!("{name}: interpreter: {e}"));

        // Differential gate first: both tiers must agree with the
        // interpreter on the representative hot input.
        let code1 = mips_tier1(prog);
        let code2 = mips_tier2(prog);
        let (r1, c1) = sim_run(&code1, input);
        let (r2, c2) = sim_run(&code2, input);
        if r1 != want || r2 != want {
            failures.push(format!(
                "{name}: tiers diverge (interp {want}, tier-1 {r1}, tier-2 {r2})"
            ));
        }
        if c2 > c1 {
            failures.push(format!(
                "{name}: tier-2 executes MORE cycles than tier-1 ({c2} > {c1})"
            ));
        }

        // Compile cost, both tiers, best-of windows.
        let mut buf = vec![0u8; prog.code_capacity()];
        let n1 = best_ns(
            || {
                std::hint::black_box(replay::<Mips>(prog, &mut buf).expect("t1"));
            },
            iters,
            rounds,
        );
        let n2 = best_ns(
            || {
                let (o, _) = tier2::optimize(prog);
                let mut m = vec![0u8; o.code_capacity()];
                std::hint::black_box(tier2::replay_opt::<Mips>(&o, &mut m).expect("t2"));
            },
            iters,
            rounds,
        );

        // Native x86-64 wall clock for the same kernels (recorded, not
        // gated; see module docs).
        let l1 = x64.compile(prog).expect("x64 tier-1");
        let l2 = x64
            .compile_with(&tier2::optimize(prog).0, tier2::replay_opt::<X64>)
            .expect("x64 tier-2");
        for (l, tier) in [(&l1, 1), (&l2, 2)] {
            let got = l.call(input).unwrap_or_else(|e| panic!("{name}: x64: {e}"));
            if got != want {
                failures.push(format!(
                    "{name}: x64 tier-{tier} returned {got}, want {want}"
                ));
            }
        }
        let w1 = best_ns(
            || {
                std::hint::black_box(l1.call(input).unwrap());
            },
            iters,
            rounds,
        );
        let w2 = best_ns(
            || {
                std::hint::black_box(l2.call(input).unwrap());
            },
            iters,
            rounds,
        );

        println!(
            "{:14} {:>8} {:>8} {:>6.1}% {:>10} {:>10} {:>6.1}% {:>12.0} {:>12.0} {:>10.0} {:>10.0}",
            name,
            stats.insns_in,
            stats.insns_out,
            stats.eliminated_pct(),
            c1,
            c2,
            (1.0 - c2 as f64 / c1 as f64) * 100.0,
            n1,
            n2,
            w1,
            w2,
        );

        insns_in += stats.insns_in as u64;
        insns_out += stats.insns_out as u64;
        t1_cycles += c1;
        t2_cycles += c2;
        t1_comp_ns += n1;
        t2_comp_ns += n2;
        x1_call_ns += w1;
        x2_call_ns += w2;
    }

    let elim_pct = (1.0 - insns_out as f64 / insns_in as f64) * 100.0;
    let cycle_pct = (1.0 - t2_cycles as f64 / t1_cycles as f64) * 100.0;
    let t1_per_insn = t1_comp_ns / insns_in as f64;
    let t2_per_insn = t2_comp_ns / insns_in as f64;
    let x64_speedup = x1_call_ns / x2_call_ns;
    println!(
        "aggregate: {elim_pct:.1}% insns eliminated, {cycle_pct:.1}% fewer sim cycles, \
         compile {t1_per_insn:.1} -> {t2_per_insn:.1} ns/insn, x64 calls {x64_speedup:.2}x"
    );

    // Record + gate. Cycle counts are deterministic; the 10% floor is
    // a hard invariant, not a noise fence.
    for (name, value) in [
        ("tier2/compile_ns_per_insn", t2_per_insn),
        ("tier2/tier1_compile_ns_per_insn", t1_per_insn),
        ("tier2/insns_eliminated_pct", elim_pct),
        ("tier2/sim_cycle_reduction_pct", cycle_pct),
        ("tier2/x64_speedup", x64_speedup),
    ] {
        snapshot::record(name, value);
    }
    if cycle_pct < 10.0 {
        failures.push(format!(
            "tier2: aggregate sim cycle reduction {cycle_pct:.1}% is below the 10% floor \
             ({t1_cycles} -> {t2_cycles} cycles)"
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
    println!("tier-2 gate: all kernels agree across tiers; cycle floor held");
}
