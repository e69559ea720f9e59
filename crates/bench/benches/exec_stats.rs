//! Unified observability smoke: every backend — the three ISA
//! simulators and the native x86-64 path — must expose the shared
//! [`vcode::ExecStats`] schema with nonzero, internally consistent
//! counters after a real workload. CI runs this binary as a gate: a
//! backend whose counters go dark (all-zero stats, missing trap
//! tallies, disengaged cache model) fails the run with exit 1.
//!
//! The simulator counters are fully deterministic (same code, same
//! machine model), so they are pinned here as exact values: a count
//! that moves means the executed instruction stream or the cache model
//! changed.

use ash::{generic, reference, PipelineOptions, Step};
use vcode::target::Leaf;
use vcode::{Assembler, ExecStats, RegClass, TrapKind};
use vcode_bench::snapshot;
use vcode_sim::Cache;
use vcode_x64::{ExecMem, GuardedCall, X64};

const N: usize = 4 * 1024;
const STEPS: u64 = 50_000_000;

/// `(name, instructions retired, cycles)` of the fused checksum+swap
/// pipeline over [`N`] bytes, per simulator. Re-pin beside the golden
/// digests when a change to the emitters or the cache model is meant.
const PINNED: [(&str, u64, u64); 3] = [
    ("mips", 10_777, 18_457),
    ("sparc", 10_775, 18_455),
    ("alpha", 5_400, 13_080),
];

fn gen_code(f: &dyn Fn(&mut [u8]) -> vcode::Finished) -> Vec<u8> {
    let mut mem = vec![0u8; 8192];
    let fin = f(&mut mem);
    mem.truncate(fin.len);
    mem
}

/// Asserts the invariants every simulator's stats block must satisfy
/// after the fused checksum+swap pipeline ran cleanly.
fn check_sim(name: &str, s: &ExecStats) {
    assert!(s.insns_retired > 0, "{name}: insns_retired must be nonzero");
    assert!(s.cycles >= s.insns_retired, "{name}: cycles include stalls");
    assert_eq!(
        s.cycles,
        s.insns_retired + s.cache_stall_cycles,
        "{name}: cycle identity"
    );
    assert!(
        s.loads > 0 && s.stores > 0,
        "{name}: memory traffic counted"
    );
    assert!(s.branches > 0, "{name}: loop branches counted");
    assert!(
        s.cache_hits + s.cache_misses > 0,
        "{name}: cache model engaged"
    );
    assert_eq!(s.traps.total(), 0, "{name}: clean run tallies no traps");
}

fn main() {
    let data: Vec<u8> = (0..N).map(|i| (i * 31 + 7) as u8).collect();
    let want = reference::checksum(&data);
    let steps: [Step; 2] = [Step::Checksum, Step::Swap];
    let unroll = PipelineOptions::default().unroll;

    println!("=== ExecStats schema smoke: all four backends ===");
    println!(
        "{:8} {:>10} {:>10} {:>8} {:>8} {:>9} {:>7}",
        "backend", "insns", "cycles", "loads", "stores", "hit%", "traps"
    );
    let row = |name: &str, s: &ExecStats| {
        println!(
            "{:8} {:>10} {:>10} {:>8} {:>8} {:>8.1}% {:>7}",
            name,
            s.insns_retired,
            s.cycles,
            s.loads,
            s.stores,
            s.cache_hit_ratio().unwrap_or(0.0) * 100.0,
            s.traps.total(),
        );
    };

    macro_rules! sim_stats {
        ($simmod:ident, $target:ty, $addr:ty) => {{
            let code = gen_code(&|m| generic::compile_fused::<$target>(m, &steps, unroll).unwrap());
            let mut m = vcode_sim::$simmod::Machine::new(1 << 22);
            m.dcache = Some(Cache::dec5000());
            let entry = m.load_code(&code).unwrap();
            let dst = m.alloc(N, 16).unwrap();
            let src = m.alloc(N, 16).unwrap();
            m.write(src, &data).unwrap();
            let sum = m.call(entry, &[dst, src, N as $addr], STEPS).unwrap();
            assert_eq!(
                reference::fold_le_words(sum.into()),
                want,
                concat!(stringify!($simmod), " checksum")
            );
            m.stats()
        }};
    }

    let mips = sim_stats!(mips, vcode_mips::Mips, u32);
    let sparc = sim_stats!(sparc, vcode_sparc::Sparc, u32);
    let alpha = sim_stats!(alpha, vcode_alpha::Alpha, u64);
    for ((name, insns, cycles), s) in PINNED.into_iter().zip([&mips, &sparc, &alpha]) {
        row(name, s);
        check_sim(name, s);
        assert_eq!(
            (s.insns_retired, s.cycles),
            (insns, cycles),
            "{name}: pinned (insns, cycles) moved"
        );
        snapshot::record(&format!("exec_stats/{name}_insns"), s.insns_retired as f64);
        snapshot::record(&format!("exec_stats/{name}_cycles"), s.cycles as f64);
    }

    // Native x86-64: run a generated function cleanly, then trip one
    // deliberate illegal-instruction trap, and check the pool-backed
    // cache fields plus the guarded-call trap tally.
    let before = vcode_x64::exec_stats();
    let mut mem = ExecMem::new(4096).unwrap();
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%i%i", Leaf::Yes).unwrap();
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    a.addi(t, x, y);
    a.reti(t);
    a.end().unwrap();
    let code = mem.finalize().unwrap();
    let g = GuardedCall::new();
    assert_eq!(g.call2(&code, 40, 2), Ok(42), "x64 clean call");
    let mut ud2 = ExecMem::new(16).unwrap();
    ud2.as_mut_slice()[..2].copy_from_slice(&[0x0f, 0x0b]);
    let ud2 = ud2.finalize().unwrap();
    g.call0(&ud2).unwrap_err();
    let xs = vcode_x64::exec_stats();
    row("x64", &xs);
    assert!(
        xs.cache_hits + xs.cache_misses > before.cache_hits + before.cache_misses,
        "x64: exec-mem pool counters engaged"
    );
    assert!(
        xs.traps.count(TrapKind::IllegalInsn) > before.traps.count(TrapKind::IllegalInsn),
        "x64: guarded trap tallied"
    );
    assert_eq!(xs.insns_retired, 0, "x64: no fabricated retirement");
    assert!(
        vcode_x64::guarded_call_count() >= 2,
        "x64: guarded calls counted"
    );

    println!("all four backends expose nonzero schema-stable ExecStats");
}
