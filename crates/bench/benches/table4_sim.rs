//! Table 4 replayed on the *simulated* paper machines, in deterministic
//! cycles. This removes the modern-SIMD confound of the native Table 4
//! run (see EXPERIMENTS.md): every competitor executes scalar code, as
//! on the paper's hardware.
//!
//! The first table is the paper's: the fused and separate pipelines on
//! MIPS with the DECstation 3100 / 5000 cache models. Both come from the
//! one ASH loop generator (`ash::generic`), the loop `Pipeline` runs
//! natively. The second splits that loop by layer on MIPS, SPARC and
//! Alpha: the loop overhead is the copy (`[]`), the checksum is
//! `[Checksum]` − `[]` and the swap `[Checksum, Swap]` − `[Checksum]`.

use ash::{generic, reference, separate, PipelineOptions, Step};
use vcode::{Error, Finished, Target};
use vcode_bench::snapshot;
use vcode_mips::Mips;
use vcode_sim::{alpha, mips, sparc, Cache, Isa, Machine, Word};

const MSG: usize = 16 * 1024;
const STEPS: u64 = 50_000_000;

fn gen(f: impl FnOnce(&mut [u8]) -> Result<Finished, Error>) -> Vec<u8> {
    let mut mem = vec![0u8; 8192];
    let fin = f(&mut mem).expect("the pipeline generates");
    mem.truncate(fin.len);
    mem
}

fn message() -> Vec<u8> {
    (0..MSG).map(|i| (i * 31 + 7) as u8).collect()
}

/// Cycles `f` takes on `m`, after flushing the data cache when `cold`.
fn cycles<I: Isa>(m: &mut Machine<I>, cold: bool, f: impl FnOnce(&mut Machine<I>)) -> u64 {
    if cold {
        if let Some(c) = &mut m.dcache {
            c.flush();
        }
    }
    let before = m.cycles();
    f(m);
    m.cycles() - before
}

/// The paper's Table 4 on MIPS: separate passes (copy, then checksum,
/// then an in-place swap) against the fused loop, cold and warm.
fn table4(cache: Cache) -> Vec<(&'static str, [u64; 2])> {
    let unroll = PipelineOptions::default().unroll;
    let mut m = mips::Machine::new(1 << 22);
    m.cpu.strict_load_delay = true;
    m.dcache = Some(cache);
    let mut load = |code: Vec<u8>| m.load_code(&code).unwrap();
    let fused_ck = load(gen(|b| {
        generic::compile_fused::<Mips>(b, &[Step::Checksum], unroll)
    }));
    let fused_both = load(gen(|b| {
        generic::compile_fused::<Mips>(b, &[Step::Checksum, Step::Swap], unroll)
    }));
    let copy = load(gen(|b| generic::compile_fused::<Mips>(b, &[], unroll)));
    let cksum = load(gen(|b| generic::compile_cksum::<Mips>(b, unroll)));
    let swap = load(gen(|b| {
        generic::compile_fused::<Mips>(b, &[Step::Swap], unroll)
    }));
    let src = m.alloc(MSG, 16).unwrap();
    let dst = m.alloc(MSG, 16).unwrap();
    let data = message();
    m.write(src, &data).unwrap();
    let want = reference::checksum(&data);
    let n = MSG as u32;

    let mut rows = vec![
        ("separate, uncached", [0; 2]),
        ("separate, cached", [0; 2]),
        ("ASH, uncached", [0; 2]),
        ("ASH, cached", [0; 2]),
    ];
    for (col, both) in [false, true].into_iter().enumerate() {
        for (row, cold) in [(0, true), (1, false)] {
            let mut sum = 0;
            rows[row].1[col] = cycles(&mut m, cold, |m| {
                m.call(copy, &[dst, src, n], STEPS).unwrap();
                sum = m.call(cksum, &[dst, n], STEPS).unwrap();
                if both {
                    m.call(swap, &[dst, dst, n], STEPS).unwrap();
                }
            });
            assert_eq!(reference::fold_le_words(sum.into()), want, "separate");
        }
        let entry = if both { fused_both } else { fused_ck };
        for (row, cold) in [(2, true), (3, false)] {
            let mut sum = 0;
            rows[row].1[col] = cycles(&mut m, cold, |m| {
                sum = m.call(entry, &[dst, src, n], STEPS).unwrap();
            });
            assert_eq!(reference::fold_le_words(sum.into()), want, "fused");
        }
    }
    rows
}

/// Cycles of the fused loop for `[]`, `[Checksum]` and
/// `[Checksum, Swap]` on `I`'s simulator, cold and warm, each run
/// checked against `ash::separate`.
fn layers<T: Target, I: Isa>(cache: Cache) -> [[u64; 2]; 3] {
    let unroll = PipelineOptions::default().unroll;
    let data = message();
    let sets: [&[Step]; 3] = [&[], &[Step::Checksum], &[Step::Checksum, Step::Swap]];
    sets.map(|steps| {
        let code = gen(|b| generic::compile_fused::<T>(b, steps, unroll));
        let mut m = Machine::<I>::new(1 << 22);
        m.dcache = Some(cache.clone());
        let entry = m.load_code(&code).unwrap();
        let src = m.alloc(MSG, 16).unwrap();
        let dst = m.alloc(MSG, 16).unwrap();
        m.write(src, &data).unwrap();
        let mut want = vec![0u8; MSG];
        let want_ck = separate(steps, &data, &mut want);
        [true, false].map(|cold| {
            let mut sum = I::Word::wrap(0);
            let cyc = cycles(&mut m, cold, |m| {
                sum = m
                    .call(entry, &[dst, src, Word::wrap(MSG as u64)], STEPS)
                    .unwrap();
            });
            let ck = if steps.contains(&Step::Checksum) {
                reference::fold_le_words(sum.into())
            } else {
                0
            };
            assert_eq!(ck, want_ck, "{} {steps:?} checksum", I::NAME);
            assert!(
                m.read(dst, MSG).unwrap() == want,
                "{} {steps:?} bytes",
                I::NAME
            );
            cyc
        })
    })
}

fn main() {
    println!("=== Table 4 on the simulated MIPS (cycles / 16 KiB message) ===");
    for (machine, cache) in [
        ("DEC3100-like", Cache::dec3100()),
        ("DEC5000-like", Cache::dec5000()),
    ] {
        println!("\n{machine} (64 KiB direct-mapped dcache):");
        println!(
            "{:22} {:>12} {:>16}",
            "method", "copy+cksum", "copy+cksum+swap"
        );
        let rows = table4(cache);
        for (name, v) in &rows {
            println!("{name:22} {:>12} {:>16}", v[0], v[1]);
        }
        let ratio =
            |sep: usize, ash: usize, col: usize| rows[sep].1[col] as f64 / rows[ash].1[col] as f64;
        println!(
            "fused-vs-separate: cached {:.2}x / {:.2}x, uncached {:.2}x / {:.2}x \
             (paper: 1.2-1.5x cached, ~2x flushed)",
            ratio(1, 3, 0),
            ratio(1, 3, 1),
            ratio(0, 2, 0),
            ratio(0, 2, 1),
        );
    }

    println!("\n=== The ASH loop by layer (exact cycles, 16 KiB message) ===");
    println!(
        "{:6} {:8} {:>9} {:>9} {:>9} {:>13} {:>13} {:>13} {:>13}",
        "isa",
        "cache",
        "loop/w",
        "cksum/w",
        "swap/w",
        "[C] cold",
        "[C] warm",
        "[C,S] cold",
        "[C,S] warm"
    );
    let words = (MSG / 4) as f64;
    for (model, cache) in [("dec3100", Cache::dec3100()), ("dec5000", Cache::dec5000())] {
        for (isa, l) in [
            ("mips", layers::<Mips, mips::Cpu>(cache.clone())),
            (
                "sparc",
                layers::<vcode_sparc::Sparc, sparc::Cpu>(cache.clone()),
            ),
            (
                "alpha",
                layers::<vcode_alpha::Alpha, alpha::Cpu>(cache.clone()),
            ),
        ] {
            let [copy, ck, both] = l.map(|[_, warm]| warm as f64);
            let per_word = [copy / words, (ck - copy) / words, (both - ck) / words];
            println!(
                "{isa:6} {model:8} {:>9.3} {:>9.3} {:>9.3} {:>13} {:>13} {:>13} {:>13}",
                per_word[0], per_word[1], per_word[2], l[1][0], l[1][1], l[2][0], l[2][1]
            );
            for (layer, v) in ["loop", "cksum", "swap"].iter().zip(per_word) {
                snapshot::record(
                    &format!("table4_sim/{isa}_{model}_{layer}_cycles_per_word"),
                    v,
                );
            }
            for (set, [cold, warm]) in ["cksum", "cksum_swap"].iter().zip([l[1], l[2]]) {
                snapshot::record(
                    &format!("table4_sim/{isa}_{model}_{set}_cold_cycles"),
                    cold as f64,
                );
                snapshot::record(
                    &format!("table4_sim/{isa}_{model}_{set}_warm_cycles"),
                    warm as f64,
                );
            }
        }
    }
    println!("(per word: per 32-bit word, warm; Alpha's loop reads two at a time)");
}
