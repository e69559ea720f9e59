//! Ablations of the design choices DESIGN.md calls out:
//!
//! - DPF dispatch strategies (jump tables / hashing / bounds-check
//!   elision toggled off);
//! - ASH loop unrolling;
//! - per-target emission speed (retargetability: the emitters stay in
//!   the same cost class across ISAs);
//! - the Alpha byte-operation synthesis cost (paper §6.2) measured in
//!   simulated instructions;
//! - tcc end-to-end compile throughput.

use dpf::packet::{self, PacketSpec};
use dpf::{trie, DpfService, Filter, Options};
use std::hint::black_box;
use std::time::Instant;
use vcode::target::{Leaf, Target};
use vcode::{Assembler, RegClass};
use vcode_bench::BODY_INSNS;
use vcode_bench::{criterion_group, criterion_main, Criterion};

fn emit_body<T: Target>(mem: &mut [u8]) -> usize {
    let mut a = Assembler::<T>::lambda(mem, "%i%i", Leaf::Yes).unwrap();
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    for i in 0..BODY_INSNS {
        match i % 4 {
            0 => a.addi(t, x, y),
            1 => a.subii(t, t, 3),
            2 => a.xori(t, t, x),
            _ => a.andii(t, t, 0xff),
        }
    }
    a.reti(t);
    a.end().unwrap().len
}

fn bench(c: &mut Criterion) {
    // --- Retargetability: emission cost per target. ---
    let mut mem = vec![0u8; 64 * 1024];
    let mut group = c.benchmark_group("emit_per_target");
    group.bench_function("x64", |b| {
        b.iter(|| black_box(emit_body::<vcode_x64::X64>(&mut mem)))
    });
    group.bench_function("mips", |b| {
        b.iter(|| black_box(emit_body::<vcode_mips::Mips>(&mut mem)))
    });
    group.bench_function("sparc", |b| {
        b.iter(|| black_box(emit_body::<vcode_sparc::Sparc>(&mut mem)))
    });
    group.bench_function("alpha", |b| {
        b.iter(|| black_box(emit_body::<vcode_alpha::Alpha>(&mut mem)))
    });
    group.finish();

    // --- DPF dispatch-strategy ablation. ---
    let filters = packet::port_filter_set(10, 1000);
    let set: Vec<(u32, Filter)> = (0..).zip(filters.iter().cloned()).collect();
    // Read in batches of 64, the way the service is read: its reader
    // enters the generation once a batch.
    let packets: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            packet::build(&PacketSpec {
                dst_port: 1000 + i % 10,
                ..PacketSpec::default()
            })
        })
        .collect();
    let batch: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
    let variants: [(&str, Options); 3] = [
        ("full", Options::default()),
        (
            "no_jump_tables",
            Options {
                use_jump_tables: false,
                ..Options::default()
            },
        ),
        (
            "no_elision_no_tables",
            Options {
                use_jump_tables: false,
                use_hashing: false,
                elide_bounds_checks: false,
            },
        ),
    ];
    println!("\n=== DPF dispatch ablation (ns/classification) ===");
    for (name, opts) in variants {
        let svc = DpfService::with_options(opts);
        svc.insert_all(filters.iter().cloned());
        assert!(svc.is_native());
        let d = svc.reader();
        const BATCHES: usize = 3_000;
        let t = Instant::now();
        for _ in 0..BATCHES {
            black_box(d.classify_batch(&batch));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / (BATCHES * batch.len()) as f64;
        let c = dpf::compile::compile(&trie::build(&set), opts).unwrap();
        println!(
            "  {name:24} {ns:7.2} ns  ({} bytes, {:?})",
            c.code_len, c.strategies
        );
    }

    // --- ASH unroll ablation. ---
    println!("\n=== ASH unroll ablation (16 KiB copy+cksum+swap, warm) ===");
    let src: Vec<u8> = (0..16 * 1024).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; src.len()];
    for unroll in [1, 2, 4, 8, 16] {
        let p = ash::Pipeline::compile_with_unroll(&[ash::Step::Checksum, ash::Step::Swap], unroll)
            .unwrap();
        const REPS: u32 = 2000;
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(p.run(&src, &mut dst));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(REPS);
        println!("  unroll {unroll:2}: {ns:8.0} ns/message");
    }

    // --- Alpha byte-op synthesis (paper §6.2), in simulated insns. ---
    println!("\n=== Alpha sub-word synthesis (simulated instructions per op) ===");
    for (name, gen) in [
        (
            "store byte",
            Box::new(|a: &mut Assembler<'_, vcode_alpha::Alpha>| {
                let (p, v) = (a.arg(0), a.arg(1));
                a.stuci(v, p, 1);
                a.retv();
            }) as Box<dyn Fn(&mut Assembler<'_, vcode_alpha::Alpha>)>,
        ),
        (
            "load signed byte",
            Box::new(|a: &mut Assembler<'_, vcode_alpha::Alpha>| {
                let p = a.arg(0);
                let t = a.getreg(RegClass::Temp).unwrap();
                a.ldci(t, p, 1);
                a.reti(t);
            }),
        ),
        (
            "store word (native)",
            Box::new(|a: &mut Assembler<'_, vcode_alpha::Alpha>| {
                let (p, v) = (a.arg(0), a.arg(1));
                a.stii(v, p, 0);
                a.retv();
            }),
        ),
    ] {
        let mut buf = vec![0u8; 4096];
        let mut a = Assembler::<vcode_alpha::Alpha>::lambda(&mut buf, "%p%i", Leaf::Yes).unwrap();
        let before = a.code_len();
        gen(&mut a);
        let body = a.code_len() - before;
        let fin = a.end().unwrap();
        buf.truncate(fin.len);
        let mut m = vcode_sim::alpha::Machine::new(1 << 20);
        let entry = m.load_code(&buf).unwrap();
        let addr = m.alloc(16, 8).unwrap();
        m.call(entry, &[addr, 0x5a], 10_000).unwrap();
        println!(
            "  {name:22} {:2} emitted insns (body), {:3} executed incl. prologue",
            body / 4,
            m.stats().insns_retired
        );
    }

    // --- tcc compile throughput. ---
    let source = r"
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += i * i % 7;
            return s;
        }
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    ";
    let mut group = c.benchmark_group("tcc");
    group.bench_function("compile_two_functions", |b| {
        b.iter(|| black_box(tcc::Program::compile(source).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
