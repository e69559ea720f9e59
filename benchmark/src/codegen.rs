//! `codegen_sim`: the paper's own evaluation — what emitting an
//! instruction costs and how good the emitted code is — on all four
//! backends, with no cache, service or disk in the way.
//!
//! Generated-code quality is counted, not timed: the corpus is replayed
//! for the three RISC targets and run on their simulators, whose cycle
//! counts repeat exactly. The counts named `sim_cycles` and
//! `code_bytes` cover the fixed hot-loop corpus only, so they are the
//! same for every seed; the 32 seeded programs are checked for
//! correctness and timed.

use crate::gen;
use crate::metrics::{Outcome, Rounds};
use crate::trace::Tracer;
use crate::util::{self, geomean, lowest, per_call_ns, Rng, Samples};
use crate::{Config, TRACE_SPANS};
use dcg::Fun;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::engine::{replay, Engine, Program, TargetId};
use vcode::target::{Finished, Leaf};
use vcode::{tier2, Assembler, BinOp, RegClass, Target, Ty};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sparc::Sparc;
use vcode_x64::{ExecMem, X64Backend, X64};

/// Instructions in the straight-line emission body (the unit of the
/// paper's cost-per-generated-instruction figure).
const BODY_INSNS: usize = 256;
const SEEDED_PROGRAMS: usize = 32;
/// Simulator step budget: the largest kernel runs 256 trips of a
/// 40-instruction body.
const SIM_FUEL: u64 = 50_000_000;
const SIM_MEM: usize = 1 << 21;
const TARGETS: [&str; 4] = ["x64", "mips", "sparc", "alpha"];

/// One corpus entry: a program, the input it runs on, and the answer
/// `Program::interpret` gives.
struct Entry {
    name: String,
    prog: Program,
    args: Vec<i32>,
    want: Option<i64>,
}

/// The fixed hot-loop kernels first, then the seeded programs.
fn corpus(seed: u64) -> (Vec<Entry>, usize) {
    let mut entries: Vec<Entry> = dpf::hotloop::corpus()
        .into_iter()
        .chain(ash::hotloop::corpus())
        .map(|(name, prog, args)| Entry {
            name: name.to_string(),
            want: prog.interpret(&args, SIM_FUEL).ok(),
            prog,
            args,
        })
        .collect();
    let fixed = entries.len();
    let mut rng = Rng::stream(seed, 0xc0de_0000);
    for i in 0..SEEDED_PROGRAMS {
        let c = gen::case(&mut rng, i as u32);
        entries.push(Entry {
            name: format!("seeded/{i}"),
            prog: c.prog,
            args: c.args.to_vec(),
            want: c.want,
        });
    }
    (entries, fixed)
}

/// Runs finished code on the matching simulator: `(result, cycles,
/// instructions retired)`.
type SimRun = fn(&[u8], &[i32]) -> Result<(i64, u64, u64), String>;

macro_rules! sim_run {
    ($name:ident, $machine:path, $word:ty, $widen:expr, $narrow:expr) => {
        fn $name(code: &[u8], args: &[i32]) -> Result<(i64, u64, u64), String> {
            let mut m = <$machine>::new(SIM_MEM);
            let entry = m.load_code(code).map_err(|e| format!("load: {e}"))?;
            let args: Vec<$word> = args.iter().map($widen).collect();
            let r = m
                .call(entry, &args, SIM_FUEL)
                .map_err(|t| format!("trap: {t}"))?;
            let s = m.stats();
            Ok(($narrow(r), s.cycles, s.insns_retired))
        }
    };
}
sim_run!(
    run_mips,
    vcode_sim::mips::Machine,
    u32,
    |&v| v as u32,
    |r: u32| i64::from(r as i32)
);
sim_run!(
    run_sparc,
    vcode_sim::sparc::Machine,
    u32,
    |&v| v as u32,
    |r: u32| i64::from(r as i32)
);
// Alpha is 64-bit: `i` arguments travel sign-extended.
sim_run!(
    run_alpha,
    vcode_sim::alpha::Machine,
    u64,
    |&v| i64::from(v) as u64,
    |r: u64| i64::from(r as u32 as i32)
);

type Replay = fn(&Program, &mut [u8]) -> Result<Finished, vcode::EngineError>;

/// Tier-2's two steps as one `Replay`.
fn replay_tier2<T: Target>(p: &Program, mem: &mut [u8]) -> Result<Finished, vcode::EngineError> {
    tier2::replay_opt::<T>(&tier2::optimize(p).0, mem)
}

const TIER1: [(Replay, Option<SimRun>); 4] = [
    (replay::<X64>, None),
    (replay::<Mips>, Some(run_mips)),
    (replay::<Sparc>, Some(run_sparc)),
    (replay::<Alpha>, Some(run_alpha)),
];
const TIER2: [(Replay, Option<SimRun>); 4] = [
    (replay_tier2::<X64>, None),
    (replay_tier2::<Mips>, Some(run_mips)),
    (replay_tier2::<Sparc>, Some(run_sparc)),
    (replay_tier2::<Alpha>, Some(run_alpha)),
];

/// The counted half of the workload. Everything here must repeat
/// exactly, which `run` checks by computing it more than once.
#[derive(Debug, Default, Clone, PartialEq)]
struct Exact {
    /// Per target, over the fixed corpus.
    code_bytes: [u64; 4],
    vcode_insns: [u64; 4],
    cycles: [u64; 4],
    sim_insns: [u64; 4],
    checks: u64,
    mismatches: Vec<String>,
}

/// Replays every program for every target, runs the RISC code on its
/// simulator and compares the result with the interpreter's.
fn exact(entries: &[Entry], fixed: usize, tiers: &[(Replay, Option<SimRun>); 4]) -> Exact {
    let mut x = Exact::default();
    for (i, e) in entries.iter().enumerate() {
        let mut mem = vec![0u8; e.prog.code_capacity()];
        for (t, (replay, sim)) in tiers.iter().enumerate() {
            x.checks += 1;
            let fin = match replay(&e.prog, &mut mem) {
                Ok(f) => f,
                Err(err) => {
                    x.mismatches
                        .push(format!("{} on {}: {err}", e.name, TARGETS[t]));
                    continue;
                }
            };
            if i < fixed {
                x.code_bytes[t] += fin.len as u64;
                x.vcode_insns[t] += fin.insns;
            }
            let Some(sim) = sim else { continue };
            match sim(&mem[..fin.len], &e.args) {
                Ok((got, cycles, insns)) if Some(got) == e.want => {
                    if i < fixed {
                        x.cycles[t] += cycles;
                        x.sim_insns[t] += insns;
                    }
                }
                other => x.mismatches.push(format!(
                    "{} on {}: {other:?}, interpreter {:?}",
                    e.name, TARGETS[t], e.want
                )),
            }
        }
    }
    x
}

/// The 256-instruction body of the cost experiment on target `T`;
/// `None` when the session failed.
fn emit_body<T: Target>(mem: &mut [u8]) -> Option<usize> {
    let mut a = Assembler::<T>::lambda(mem, "%i%i", Leaf::Yes).ok()?;
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp)?;
    for i in 0..BODY_INSNS {
        match i % 4 {
            0 => a.addi(t, x, y),
            1 => a.subii(t, t, 3),
            2 => a.xori(t, t, x),
            _ => a.muli(t, t, y),
        }
    }
    a.reti(t);
    a.end().ok().map(|f| f.len)
}

type Emit = fn(&mut [u8]) -> Option<usize>;
const EMIT: [Emit; 4] = [
    emit_body::<X64>,
    emit_body::<Mips>,
    emit_body::<Sparc>,
    emit_body::<Alpha>,
];

/// The same computation through DCG's build-then-consume IR trees: the
/// baseline of the paper's 35x claim.
fn emit_dcg(mem: &mut [u8]) -> Option<usize> {
    let mut f = Fun::new("%i%i").ok()?;
    let (x, y) = (f.arg(0), f.arg(1));
    let mut t = f.binop(BinOp::Add, Ty::I, x, y);
    for i in 1..BODY_INSNS {
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
    f.compile::<X64>(mem, Leaf::Yes).ok().map(|f| f.len)
}

/// What one timed round measured.
struct Round {
    emit_ns_per_insn: [f64; 4],
    compile_ns_per_insn: f64,
    ops: u64,
    failed: u64,
}

/// Alternates emission of the 256-instruction body on the four targets
/// with `Engine::compile(X64)` over the corpus until `dur` has passed.
/// The first `fixed` entries are the hot-loop kernels.
fn timed_round(
    traced: bool,
    engine: &Engine,
    entries: &[Entry],
    fixed: usize,
    dur: Duration,
    compiles: &mut Samples,
    tr: &mut Tracer,
) -> Round {
    const EMITS_PER_PASS: u32 = 8;
    let mut mem = vec![0u8; 64 * 1024];
    let mut emit_ns = [0u64; 4];
    let (mut passes, mut compile_ns, mut compiled_insns, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < dur {
        for (t, emit) in EMIT.iter().enumerate() {
            let at = Instant::now();
            let open = traced.then(|| tr.enter("asm.emit", passes));
            for _ in 0..EMITS_PER_PASS {
                failed += u64::from(black_box(emit(&mut mem)).is_none());
            }
            if let Some(open) = open {
                tr.exit(open);
            }
            emit_ns[t] += at.elapsed().as_nanos() as u64;
        }
        for (i, e) in entries.iter().enumerate() {
            let at = Instant::now();
            let open = traced.then(|| tr.enter("engine.compile", passes));
            let lambda = engine.compile(TargetId::X64, &e.prog);
            if let Some(open) = open {
                tr.exit(open);
            }
            let took = at.elapsed();
            // Latency quantiles come from the fixed kernels only: how
            // long a compile takes depends on the program, and the
            // seeded ones differ from seed to seed.
            if i < fixed {
                compiles.push(took);
            }
            compile_ns += took.as_nanos() as u64;
            match lambda {
                Ok(l) => compiled_insns += l.insns(),
                Err(_) => failed += 1,
            }
        }
        passes += 1;
    }
    let emitted = (passes * u64::from(EMITS_PER_PASS) * BODY_INSNS as u64).max(1);
    Round {
        emit_ns_per_insn: emit_ns.map(|ns| ns as f64 / emitted as f64),
        compile_ns_per_insn: compile_ns as f64 / compiled_insns.max(1) as f64,
        ops: passes * (4 * u64::from(EMITS_PER_PASS) + entries.len() as u64),
        failed,
    }
}

/// Steps `Program::interpret` executes on `args`: the smallest fuel it
/// succeeds with, found by bisection.
fn interpreter_steps(p: &Program, args: &[i32]) -> u64 {
    let (mut lo, mut hi) = (0, SIM_FUEL);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if p.interpret(args, mid).is_ok() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Nanoseconds per native call of tier-1 or tier-2 x64 code, summed
/// over the fixed corpus on its hot input.
fn native_call_ns(budget: Duration, fixed: &[Entry], replay: Replay, out: &mut Outcome) -> f64 {
    let mut total = 0.0;
    for e in fixed {
        let code = ExecMem::new(e.prog.code_capacity())
            .ok()
            .and_then(|mut mem| replay(&e.prog, mem.as_mut_slice()).ok().map(|_| mem))
            .and_then(|mem| mem.finalize().ok());
        let Some(code) = code else {
            out.fail(format!("{}: no native code", e.name));
            continue;
        };
        let a = |i: usize| e.args[i] as u32 as u64;
        // SAFETY: `code` holds what `replay` emitted for a program of
        // exactly `e.args.len()` (one or two) `i` parameters, which the
        // SysV ABI passes zero-extended in the first integer registers,
        // and `code` outlives the call.
        let call = || unsafe {
            match e.args.len() {
                1 => code.call1(a(0)),
                _ => code.call2(a(0), a(1)),
            }
        };
        out.attempted += 1;
        if Some(i64::from(call() as u32 as i32)) != e.want {
            out.fail(format!(
                "{}: native result differs from the interpreter",
                e.name
            ));
        }
        total += per_call_ns(budget / fixed.len() as u32, || {
            black_box(call());
        });
    }
    total
}

const TCC_SOURCE: &str = r"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int gcd(int a, int b) {
    while (b != 0) { int t = a % b; a = b; b = t; }
    return a;
}
int count_primes(int limit) {
    int k = 0;
    for (int i = 2; i < limit; i++) {
        int prime = 1;
        for (int d = 2; d * d <= i; d++)
            if (i % d == 0) { prime = 0; break; }
        k += prime;
    }
    return k;
}
";

/// The per-layer probes of a traced run.
fn probes(cfg: &Config, entries: &[Entry], fixed: usize, x: &Exact, out: &mut Outcome) {
    let budget = cfg.probe();
    let fixed_entries = &entries[..fixed];
    let mut mem = vec![0u8; 64 * 1024];

    for (t, name) in [
        "code_bytes.x64",
        "code_bytes.mips",
        "code_bytes.sparc",
        "code_bytes.alpha",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, x.code_bytes[t] as f64, fixed as u64);
    }
    out.set(
        "code_bytes",
        x.code_bytes.iter().sum::<u64>() as f64,
        4 * fixed as u64,
    );
    for (t, cycles, insns) in [
        (1, "sim.mips_cycles", "sim.mips_insns"),
        (2, "sim.sparc_cycles", "sim.sparc_insns"),
        (3, "sim.alpha_cycles", "sim.alpha_insns"),
    ] {
        out.set(cycles, x.cycles[t] as f64, fixed as u64);
        out.set(insns, x.sim_insns[t] as f64, fixed as u64);
    }
    out.set(
        "sim_cycles",
        x.cycles.iter().sum::<u64>() as f64,
        3 * fixed as u64,
    );

    // Tier-2 on the same corpus: counted twice, like tier-1.
    let t2 = exact(fixed_entries, fixed, &TIER2);
    out.attempted += t2.checks;
    if t2 != exact(fixed_entries, fixed, &TIER2) {
        out.fail("tier-2 counts did not repeat".to_string());
    }
    for m in &t2.mismatches {
        out.fail(format!("tier-2: {m}"));
    }
    out.set(
        "tier2.sim_cycles",
        t2.cycles.iter().sum::<u64>() as f64,
        3 * fixed as u64,
    );
    let eliminated = || -> usize {
        fixed_entries
            .iter()
            .map(|e| tier2::optimize(&e.prog).1.eliminated())
            .sum()
    };
    let gone = eliminated();
    if gone != eliminated() {
        out.fail("tier2.insns_eliminated did not repeat".to_string());
    }
    out.set("tier2.insns_eliminated", gone as f64, fixed as u64);

    let source_insns: usize = fixed_entries.iter().map(|e| e.prog.len()).sum();
    out.probe(
        "tier2.optimize_ns_per_insn",
        per_call_ns(budget, || {
            for e in fixed_entries {
                black_box(tier2::optimize(&e.prog));
            }
        }) / source_insns as f64,
    );
    let optimized: Vec<Program> = fixed_entries
        .iter()
        .map(|e| tier2::optimize(&e.prog).0)
        .collect();
    out.probe(
        "tier2.replay_ns_per_insn",
        per_call_ns(budget, || {
            for p in &optimized {
                let _ = black_box(tier2::replay_opt::<X64>(p, &mut mem));
            }
        }) / source_insns as f64,
    );
    let ns = native_call_ns(budget, fixed_entries, TIER1[0].0, out);
    out.probe("tier1.x64_call_ns", ns);
    let ns = native_call_ns(budget, fixed_entries, TIER2[0].0, out);
    out.probe("tier2.x64_call_ns", ns);

    let all_insns: u64 = entries
        .iter()
        .filter_map(|e| replay::<Mips>(&e.prog, &mut mem).ok())
        .map(|f| f.insns)
        .sum();
    for (t, name) in [
        (1, "engine.replay_ns_per_insn.mips"),
        (2, "engine.replay_ns_per_insn.sparc"),
        (3, "engine.replay_ns_per_insn.alpha"),
    ] {
        let replay = TIER1[t].0;
        out.probe(
            name,
            per_call_ns(budget, || {
                for e in entries {
                    let _ = black_box(replay(&e.prog, &mut mem));
                }
            }) / all_insns.max(1) as f64,
        );
    }

    match Assembler::<X64>::lambda(&mut mem, "%i%i", Leaf::Yes) {
        Ok(mut a) => out.probe(
            "regalloc.getreg_ns",
            per_call_ns(budget, || {
                if let Some(r) = black_box(a.getreg(RegClass::Temp)) {
                    a.putreg(r);
                }
            }),
        ),
        Err(e) => out.fail(format!("regalloc probe: {e}")),
    }

    // Host cost of simulating: the fixed corpus on the MIPS machine,
    // machine construction and code load included.
    let images: Vec<(Vec<u8>, &[i32])> = fixed_entries
        .iter()
        .filter_map(|e| {
            let mut code = vec![0u8; e.prog.code_capacity()];
            let fin = replay::<Mips>(&e.prog, &mut code).ok()?;
            code.truncate(fin.len);
            Some((code, e.args.as_slice()))
        })
        .collect();
    out.probe(
        "sim.host_ns_per_sim_insn",
        per_call_ns(budget, || {
            for (code, args) in &images {
                let _ = black_box(run_mips(code, args));
            }
        }) / x.sim_insns[1].max(1) as f64,
    );
    let steps: u64 = fixed_entries
        .iter()
        .map(|e| interpreter_steps(&e.prog, &e.args))
        .sum();
    out.probe(
        "interp.ns_per_insn",
        per_call_ns(budget, || {
            for e in fixed_entries {
                let _ = black_box(e.prog.interpret(&e.args, SIM_FUEL));
            }
        }) / steps.max(1) as f64,
    );

    out.attempted += 2;
    match tcc::Program::compile(TCC_SOURCE) {
        Ok(p) => {
            if p.call_int("gcd", &[1071, 462]).ok() != Some(21) {
                out.fail("tcc: gcd(1071, 462) is not 21".to_string());
            }
            out.probe(
                "tcc.compile_us",
                per_call_ns(budget, || {
                    let _ = black_box(tcc::Program::compile(TCC_SOURCE));
                }) / 1e3,
            );
        }
        Err(e) => out.fail(format!("tcc: {e}")),
    }
    if emit_dcg(&mut mem).is_none() {
        out.fail("dcg: the baseline body did not compile".to_string());
    }
    out.probe(
        "dcg.ns_per_insn",
        per_call_ns(budget, || {
            black_box(emit_dcg(&mut mem));
        }) / BODY_INSNS as f64,
    );
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: generate the corpus, compute the interpreter's answers,
    // and do the counted half of the workload. Each repetition
    // counts again, which is the determinism self-check.
    let mut counts: Vec<Exact> = Vec::new();
    let ((entries, fixed), setup_s) = util::timed_setups(|_| {
        let (entries, fixed) = corpus(cfg.seed);
        counts.push(exact(&entries, fixed, &TIER1));
        (entries, fixed)
    });
    let x = counts[0].clone();
    out.attempted += x.checks;
    for m in &x.mismatches {
        out.fail(m.clone());
    }
    if counts.iter().any(|c| *c != x) {
        out.fail("sim_cycles / code_bytes did not repeat across set-up repetitions".to_string());
    }
    for e in entries.iter().filter(|e| e.want.is_none()) {
        out.fail(format!("{}: the interpreter refused the program", e.name));
    }

    let mut engine = Engine::new(0);
    engine.register(Arc::new(X64Backend));
    let mut compiles = Samples::with_capacity(1 << 18);
    let mut tr = Tracer::new(if cfg.trace { TRACE_SPANS } else { 0 });
    let mut rounds = Rounds::default();
    // Of the untraced rounds: ns per instruction, per target and compiled.
    let mut emit: [Vec<f64>; 4] = Default::default();
    let mut compile = Vec::new();
    for round in 0..cfg.rounds() {
        let traced = cfg.trace && round % 2 == 1 && tr.has_room();
        let r = timed_round(
            traced,
            &engine,
            &entries,
            fixed,
            cfg.round(),
            &mut compiles,
            &mut tr,
        );
        out.attempted += r.ops;
        out.failed += r.failed;
        if !traced {
            for (t, v) in emit.iter_mut().enumerate() {
                v.push(r.emit_ns_per_insn[t]);
            }
            compile.push(r.compile_ns_per_insn);
        }
        // The round's throughput: instructions emitted per second,
        // geometric mean of the four targets.
        rounds.push(traced, 1e9 / geomean(&r.emit_ns_per_insn), &mut compiles);
    }
    let n = rounds.untraced();
    if !cfg.trace {
        rounds.end_to_end(&mut out, setup_s);
        let insns = x.vcode_insns.iter().sum::<u64>();
        out.set(
            "code_bytes_per_insn",
            x.code_bytes.iter().sum::<u64>() as f64 / insns.max(1) as f64,
            insns,
        );
        return out;
    }

    out.set("emit_ns_per_insn", 1e9 / rounds.ops_per_s(), n);
    out.set("compile_ns_per_insn", lowest(&compile), n);
    for (t, name) in [
        "asm.emit_ns_per_insn.x64",
        "asm.emit_ns_per_insn.mips",
        "asm.emit_ns_per_insn.sparc",
        "asm.emit_ns_per_insn.alpha",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, lowest(&emit[t]), n);
    }
    rounds.latency(&mut out);
    rounds.trace_overhead(&mut out);
    probes(cfg, &entries, fixed, &x, &mut out);
    crate::write_trace(cfg, &[("main", Some(&tr))], &mut out);
    out
}
