//! Table 4 replayed on the *simulated* paper machine: the fused and
//! separate pipelines generated for MIPS, executed by the instruction-set
//! simulator with the DECstation 3100 / 5000 cache models, reported in
//! deterministic cycles. This removes the modern-SIMD confound of the
//! native Table 4 run (see EXPERIMENTS.md): both competitors execute
//! scalar MIPS code, as on the paper's hardware.

use ash::generic::{self, fold_le_halfwords};
use ash::{reference, Step};
use vcode::Target;
use vcode_mips::Mips;
use vcode_sim::{alpha, mips, sparc, Cache, Isa, Machine, Word};

const MSG: usize = 16 * 1024;
const STEPS: u64 = 50_000_000;

struct SimSetup {
    m: mips::Machine,
    fused_ck: u32,
    fused_both: u32,
    copy: u32,
    cksum: u32,
    swap: u32,
    src: u32,
    dst: u32,
}

fn gen(f: &dyn Fn(&mut [u8]) -> vcode::Finished) -> Vec<u8> {
    let mut mem = vec![0u8; 8192];
    let fin = f(&mut mem);
    mem.truncate(fin.len);
    mem
}

fn setup(cache: Option<Cache>) -> SimSetup {
    let fused_ck = gen(&|m| generic::compile_fused::<Mips>(m, &[Step::Checksum]).unwrap());
    let fused_both =
        gen(&|m| generic::compile_fused::<Mips>(m, &[Step::Checksum, Step::Swap]).unwrap());
    let copy = gen(&|m| generic::compile_copy::<Mips>(m).unwrap());
    let cksum = gen(&|m| generic::compile_cksum::<Mips>(m).unwrap());
    let swap = gen(&|m| generic::compile_swap::<Mips>(m).unwrap());
    let mut m = mips::Machine::new(1 << 22);
    m.cpu.strict_load_delay = true;
    m.dcache = cache;
    let fused_ck = m.load_code(&fused_ck).unwrap();
    let fused_both = m.load_code(&fused_both).unwrap();
    let copy = m.load_code(&copy).unwrap();
    let cksum = m.load_code(&cksum).unwrap();
    let swap = m.load_code(&swap).unwrap();
    let src = m.alloc(MSG, 16).unwrap();
    let dst = m.alloc(MSG, 16).unwrap();
    let data: Vec<u8> = (0..MSG).map(|i| (i * 31 + 7) as u8).collect();
    m.write(src, &data).unwrap();
    SimSetup {
        m,
        fused_ck,
        fused_both,
        copy,
        cksum,
        swap,
        src,
        dst,
    }
}

impl SimSetup {
    fn flush(&mut self) {
        if let Some(c) = &mut self.m.dcache {
            c.flush();
        }
    }

    fn cycles(&mut self, f: impl FnOnce(&mut mips::Machine)) -> u64 {
        let before = self.m.cycles();
        f(&mut self.m);
        self.m.cycles() - before
    }

    fn run_fused(&mut self, both: bool) -> (u64, u16) {
        let entry = if both { self.fused_both } else { self.fused_ck };
        let (src, dst) = (self.src, self.dst);
        let mut sum = 0;
        let cyc = self.cycles(|m| {
            sum = m.call(entry, &[dst, src, (MSG / 4) as u32], STEPS).unwrap();
        });
        (cyc, fold_le_halfwords(sum))
    }

    fn run_separate(&mut self, both: bool) -> (u64, u16) {
        let (src, dst, copy, cksum, swap) = (self.src, self.dst, self.copy, self.cksum, self.swap);
        let mut sum = 0;
        let cyc = self.cycles(|m| {
            m.call(copy, &[dst, src, (MSG / 4) as u32], STEPS).unwrap();
            sum = m.call(cksum, &[dst, (MSG / 4) as u32], STEPS).unwrap();
            if both {
                m.call(swap, &[dst, (MSG / 4) as u32], STEPS).unwrap();
            }
        });
        (cyc, fold_le_halfwords(sum))
    }
}

/// The fused pipeline replayed on *every* simulated backend with the
/// DEC5000 cache model: one row per ISA from the unified
/// [`vcode::ExecStats`] surface — retired instructions, cycles, cache
/// hit ratio, delay-slot fills and division-routine calls.
fn cross_backend_stats() {
    use vcode::ExecStats;

    const N: usize = 4 * 1024;
    let data: Vec<u8> = (0..N).map(|i| (i * 31 + 7) as u8).collect();
    let want = reference::checksum(&data);

    /// The fused checksum+swap pipeline for `T`, run on `I`'s simulator.
    fn fused<T: Target, I: Isa>(data: &[u8], want: u16) -> Machine<I> {
        let steps = [Step::Checksum, Step::Swap];
        let code = gen(&|m| generic::compile_fused::<T>(m, &steps).unwrap());
        let mut m = Machine::<I>::new(1 << 22);
        m.dcache = Some(Cache::dec5000());
        let entry = m.load_code(&code).unwrap();
        let dst = m.alloc(data.len(), 16).unwrap();
        let src = m.alloc(data.len(), 16).unwrap();
        m.write(src, data).unwrap();
        let n = Word::wrap((data.len() / 4) as u64);
        let sum = m.call(entry, &[dst, src, n], STEPS).unwrap();
        assert_eq!(
            fold_le_halfwords(sum.into() as u32),
            want,
            "{} checksum",
            I::NAME
        );
        m
    }
    let mips = fused::<Mips, mips::Cpu>(&data, want);
    let sparc = fused::<vcode_sparc::Sparc, sparc::Cpu>(&data, want);
    let alpha = fused::<vcode_alpha::Alpha, alpha::Cpu>(&data, want);
    let (mips_stats, sparc_stats, alpha_stats) = (mips.stats(), sparc.stats(), alpha.stats());
    let alpha_divs = alpha.cpu.div_calls;

    println!("\n=== Fused pipeline, every simulated backend (DEC5000 dcache, 4 KiB msg) ===");
    println!(
        "{:8} {:>10} {:>10} {:>7} {:>9} {:>10} {:>9}",
        "backend", "insns", "cycles", "cpi", "hit%", "slotfills", "divcalls"
    );
    let row = |name: &str, s: &ExecStats, divs: u64| {
        println!(
            "{:8} {:>10} {:>10} {:>7.3} {:>8.1}% {:>10} {:>9}",
            name,
            s.insns_retired,
            s.cycles,
            s.cycles_per_insn().unwrap_or(0.0),
            s.cache_hit_ratio().unwrap_or(0.0) * 100.0,
            s.delay_slot_fills,
            divs,
        );
    };
    row("mips", &mips_stats, 0);
    row("sparc", &sparc_stats, 0);
    row("alpha", &alpha_stats, alpha_divs);
    for (name, s) in [
        ("mips", &mips_stats),
        ("sparc", &sparc_stats),
        ("alpha", &alpha_stats),
    ] {
        assert!(s.insns_retired > 0 && s.cycles >= s.insns_retired, "{name}");
        assert!(s.loads > 0 && s.stores > 0, "{name} load/store counters");
        assert!(
            s.cache_hits + s.cache_misses > 0,
            "{name} cache model engaged"
        );
    }
}

fn main() {
    println!("=== Table 4 on the simulated machines (cycles / 16 KiB message) ===");
    let expect: Vec<u8> = (0..MSG).map(|i| (i * 31 + 7) as u8).collect();
    let want = reference::checksum(&expect);
    for (machine, cache) in [
        ("DEC3100-like", Cache::dec3100()),
        ("DEC5000-like", Cache::dec5000()),
    ] {
        println!("\n{machine} (64 KiB direct-mapped dcache):");
        println!(
            "{:22} {:>12} {:>16}",
            "method", "copy+cksum", "copy+cksum+swap"
        );
        let mut rows: Vec<(&str, Vec<u64>)> = vec![
            ("separate, uncached", vec![]),
            ("separate, cached", vec![]),
            ("ASH, uncached", vec![]),
            ("ASH, cached", vec![]),
        ];
        for both in [false, true] {
            let mut s = setup(Some(cache.clone()));
            // Uncached: first touch after a flush.
            s.flush();
            let (cyc, ck) = s.run_separate(both);
            assert_eq!(ck, want, "separate checksum correct");
            rows[0].1.push(cyc);
            // Cached: run again warm.
            let (cyc, _) = s.run_separate(both);
            rows[1].1.push(cyc);
            s.flush();
            let (cyc, ck) = s.run_fused(both);
            assert_eq!(ck, want, "fused checksum correct");
            rows[2].1.push(cyc);
            let (cyc, _) = s.run_fused(both);
            rows[3].1.push(cyc);
        }
        for (name, v) in &rows {
            println!("{name:22} {:>12} {:>16}", v[0], v[1]);
        }
        println!(
            "fused-vs-separate: cached {:.2}x / {:.2}x, uncached {:.2}x / {:.2}x \
             (paper: 1.2-1.5x cached, ~2x flushed)",
            rows[1].1[0] as f64 / rows[3].1[0] as f64,
            rows[1].1[1] as f64 / rows[3].1[1] as f64,
            rows[0].1[0] as f64 / rows[2].1[0] as f64,
            rows[0].1[1] as f64 / rows[2].1[1] as f64,
        );
    }
    cross_backend_stats();
}
