//! Cost of the streaming verifier (DESIGN.md "Static checking").
//!
//! A reporter, not a gate: both numbers are wall-clock on this host.
//! - verifier **off** is the production fast path: the `codegen_cost`
//!   emission loop, where the verifier hook costs one branch per
//!   instruction, on the sign of the instruction counter the emitter
//!   updates anyway (the `fig2` binary counts it exactly); what holds
//!   the wall-clock is the `codegen_sim` workload of `benchmark/`;
//! - verifier **on** is reported so the check cost stays visible —
//!   diagnostics formatting and mark collection are allowed to cost
//!   what they cost.

use std::hint::black_box;
use std::time::Instant;
use vcode::target::Leaf;
use vcode::{Assembler, RegClass};
use vcode_bench::BODY_INSNS;
use vcode_bench::{criterion_group, criterion_main, snapshot, Criterion, Throughput};
use vcode_x64::X64;

fn emit(mem: &mut [u8], n: usize, verified: bool) -> usize {
    let mut a = Assembler::<X64>::lambda(mem, "%i%i", Leaf::Yes).unwrap();
    if verified {
        a.enable_verifier();
    }
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    for i in 0..n {
        match i % 4 {
            0 => a.addi(t, x, y),
            1 => a.subii(t, t, 3),
            2 => a.xori(t, t, x),
            _ => a.muli(t, t, y),
        }
    }
    a.putreg(t);
    a.reti(t);
    a.end().unwrap().len
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_overhead");
    group.throughput(Throughput::Elements(BODY_INSNS as u64));
    let mut mem = vec![0u8; 64 * 1024];
    group.bench_function("off", |b| {
        b.iter(|| black_box(emit(&mut mem, BODY_INSNS, false)))
    });
    group.bench_function("on", |b| {
        b.iter(|| black_box(emit(&mut mem, BODY_INSNS, true)))
    });
    group.finish();

    // Same best-of-windows floor estimate as codegen_cost.
    let reps: u32 = if snapshot::smoke() { 100 } else { 500 };
    let mut measure = |verified: bool| {
        for _ in 0..reps {
            black_box(emit(&mut mem, BODY_INSNS, verified));
        }
        let mut best = f64::INFINITY;
        for _ in 0..10 {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(emit(&mut mem, BODY_INSNS, verified));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / f64::from(reps) / BODY_INSNS as f64
    };
    let ns_off = measure(false);
    let ns_on = measure(true);
    println!("\n=== Streaming verifier overhead (ns per vcode instruction) ===");
    println!("  verifier off   {ns_off:8.2} ns/insn  (production fast path)");
    println!(
        "  verifier on    {ns_on:8.2} ns/insn  ({:.2}x; checks + mark stream)",
        ns_on / ns_off
    );

    snapshot::record("verify_overhead/off_ns_per_insn", ns_off);
    snapshot::record("verify_overhead/on_ns_per_insn", ns_on);
}

criterion_group!(benches, bench);
criterion_main!(benches);
