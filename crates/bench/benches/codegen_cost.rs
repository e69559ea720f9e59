//! Code-generation cost (paper §1, §5.1, Figure 2, §7).
//!
//! Claims reproduced:
//! - VCODE generates code at ~6–10 host instructions per generated
//!   instruction (reported here as ns/instruction — a handful of
//!   instructions on a ~GHz-scale machine is single-digit nanoseconds);
//! - hard-coded register names roughly halve generation cost (§5.3);
//! - VCODE is ~35× faster than DCG, which builds and consumes IR trees
//!   at runtime (§2);
//! - VCODE's bookkeeping space is labels + unresolved jumps only, while
//!   DCG's IR grows with the program (§3).

use dcg::Fun;
use std::hint::black_box;
use std::time::Instant;
use vcode::target::Leaf;
use vcode::{Assembler, BinOp, Reg, RegClass, Ty};
use vcode_bench::BODY_INSNS;
use vcode_bench::{criterion_group, criterion_main, snapshot, BatchSize, Criterion, Throughput};
use vcode_x64::X64;

/// What one [`BODY_INSNS`]-instruction emission must produce, exactly:
/// VCODE instructions specified, x86-64 bytes written and spills on the
/// allocator-register path, then the bytes of the hard-register and the
/// DCG paths. (Five bytes fewer each once the final `ret` fell into the
/// epilogue instead of jumping to it, and one more once a leaf that
/// saves nothing lost its frame: the epilogue is `ret`, not `leave; ret`.)
const PINNED: (u64, u64, u64, usize, usize) = (257, 1143, 0, 1143, 1017);

/// Emits `n` VCODE instructions using allocator-assigned registers.
fn emit_vcode(mem: &mut [u8], n: usize) -> usize {
    let mut a = Assembler::<X64>::lambda(mem, "%i%i", Leaf::Yes).unwrap();
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
    a.reti(t);
    a.end().unwrap().len
}

/// The same body with hard-coded register names (paper §5.3): constant
/// registers let the compiler fold the encoding work.
fn emit_vcode_hard(mem: &mut [u8], n: usize) -> usize {
    let mut a = Assembler::<X64>::lambda(mem, "%i%i", Leaf::Yes).unwrap();
    // Fixed physical names, resolved at (Rust) compile time.
    const T: Reg = Reg::int(10); // r10
    const X: Reg = Reg::int(7); // rdi
    const Y: Reg = Reg::int(6); // rsi
    for i in 0..n {
        match i % 4 {
            0 => a.addi(T, X, Y),
            1 => a.subii(T, T, 3),
            2 => a.xori(T, T, X),
            _ => a.muli(T, T, Y),
        }
    }
    a.reti(T);
    a.end().unwrap().len
}

/// The same computation through DCG: IR trees built, then consumed.
fn emit_dcg(mem: &mut [u8], n: usize) -> usize {
    let mut f = Fun::new("%i%i").unwrap();
    let x = f.arg(0);
    let y = f.arg(1);
    let mut t = f.binop(BinOp::Add, Ty::I, x, y);
    for i in 1..n {
        t = match i % 4 {
            1 => {
                let c = f.constl(Ty::I, 3);
                f.binop(BinOp::Sub, Ty::I, t, c)
            }
            2 => f.binop(BinOp::Xor, Ty::I, t, x),
            _ => f.binop(BinOp::Mul, Ty::I, t, y),
        };
    }
    f.ret(Ty::I, t);
    f.compile::<X64>(mem, Leaf::Yes).unwrap().len
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("codegen_cost");
    group.throughput(Throughput::Elements(BODY_INSNS as u64));
    let mut mem = vec![0u8; 64 * 1024];

    group.bench_function("vcode", |b| {
        b.iter(|| black_box(emit_vcode(&mut mem, BODY_INSNS)))
    });
    group.bench_function("vcode_hard_regs", |b| {
        b.iter(|| black_box(emit_vcode_hard(&mut mem, BODY_INSNS)))
    });
    group.bench_function("dcg", |b| {
        b.iter_batched(
            || (),
            |()| black_box(emit_dcg(&mut mem, BODY_INSNS)),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // The paper-style summary table (ns per generated VCODE instruction).
    // Best of several short windows, like the harness: the minimum is
    // the honest cost estimate on a shared machine. Reported and kept,
    // not gated: what holds emission speed is `benchmark/`'s
    // `codegen_sim` workload, parent against change on one host.
    let reps: u32 = if snapshot::smoke() { 100 } else { 500 };
    let mut measure = |f: &dyn Fn(&mut [u8], usize) -> usize| {
        for _ in 0..reps {
            black_box(f(&mut mem, BODY_INSNS)); // warmup
        }
        let mut best = f64::INFINITY;
        for _ in 0..10 {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f(&mut mem, BODY_INSNS));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / f64::from(reps) / BODY_INSNS as f64
    };
    let ns_vcode = measure(&|m, n| emit_vcode(m, n));
    let ns_hard = measure(&|m, n| emit_vcode_hard(m, n));
    let ns_dcg = measure(&|m, n| emit_dcg(m, n));
    println!("\n=== Codegen cost (ns per generated VCODE instruction) ===");
    println!("  vcode                    {ns_vcode:8.2} ns/insn");
    println!(
        "  vcode, hard-coded regs   {ns_hard:8.2} ns/insn  ({:.2}x cheaper; paper: ~2x)",
        ns_vcode / ns_hard
    );
    println!(
        "  dcg (IR trees)           {ns_dcg:8.2} ns/insn  ({:.1}x slower than vcode; paper: ~35x)",
        ns_dcg / ns_vcode
    );

    // Codegen event stream (the obs hook): the LambdaEnd metrics of one
    // emission. These are deterministic counters — instructions
    // specified, bytes emitted, allocator spills — so they are the gate:
    // a change to what the emitters write moves them, and nothing about
    // the host does.
    let agg = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&agg);
    vcode::obs::set_hook(move |ev| {
        if let vcode::CodegenEvent::LambdaEnd {
            insns,
            bytes,
            spills,
            ..
        } = *ev
        {
            sink.lock().unwrap().push((insns, bytes, spills));
        }
    });
    let len_vcode = emit_vcode(&mut mem, BODY_INSNS);
    vcode::obs::clear_hook();
    let events = agg.lock().unwrap();
    assert_eq!(events.len(), 1, "one lambda/end session observed");
    let (insns, bytes, spills) = events[0];
    let len_hard = emit_vcode_hard(&mut mem, BODY_INSNS);
    let len_dcg = emit_dcg(&mut mem, BODY_INSNS);
    println!("\n=== Codegen events (one {BODY_INSNS}-insn emission, obs hook) ===");
    println!(
        "  vcode insns {insns}, bytes {bytes}, spills {spills} \
         ({:.2} machine bytes per vcode insn); hard regs {len_hard} bytes, dcg {len_dcg} bytes",
        bytes as f64 / insns as f64
    );
    assert_eq!(len_vcode as u64, bytes, "the hook reports what was written");
    assert_eq!(
        (insns, bytes, spills, len_hard, len_dcg),
        PINNED,
        "emitted code changed: (insns, bytes, spills, hard-regs bytes, dcg bytes); \
         re-pin beside the golden digests if the change is meant"
    );

    for (name, value) in [
        ("codegen_cost/vcode_ns_per_insn", ns_vcode),
        ("codegen_cost/vcode_hard_regs_ns_per_insn", ns_hard),
        ("codegen_cost/dcg_ns_per_insn", ns_dcg),
        (
            "codegen_cost/bytes_per_vcode_insn",
            bytes as f64 / insns as f64,
        ),
    ] {
        snapshot::record(name, value);
    }

    // Space behaviour (paper §3): VCODE keeps labels + unresolved jumps;
    // DCG's intermediate representation is proportional to program size.
    let mut a = Assembler::<X64>::lambda(&mut mem, "%i%i", Leaf::Yes).unwrap();
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    for _ in 0..BODY_INSNS {
        a.addi(t, x, y);
    }
    a.reti(t);
    let vcode_aux = a.aux_bytes();
    drop(a.end());
    let mut f = Fun::new("%i%i").unwrap();
    let x = f.arg(0);
    let y = f.arg(1);
    let mut t = f.binop(BinOp::Add, Ty::I, x, y);
    for _ in 1..BODY_INSNS {
        t = f.binop(BinOp::Add, Ty::I, t, y);
    }
    f.ret(Ty::I, t);
    let dcg_ir = f.ir_bytes();
    println!("\n=== Space for a {BODY_INSNS}-instruction function ===");
    println!("  vcode bookkeeping  {vcode_aux:8} bytes (labels + unresolved jumps)");
    println!(
        "  dcg IR             {dcg_ir:8} bytes ({:.0}x; grows with program size)",
        dcg_ir as f64 / vcode_aux.max(1) as f64
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
