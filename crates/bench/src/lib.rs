//! Shared helpers for the benchmark harness. See the `benches/` targets:
//!
//! - `codegen_cost` — §1/§5.1/Figure 2: instructions-per-generated-
//!   instruction, VCODE vs hard-coded registers vs the DCG baseline,
//!   plus the space comparison.
//! - `table3_dpf` — Table 3: packet classification, DPF vs MPF vs
//!   PATHFINDER.
//! - `table4_ash` — Table 4: integrated vs non-integrated memory
//!   operations.
//! - `ablation` — design-choice ablations from DESIGN.md (dispatch
//!   strategies, bounds-check elision, unrolling, per-target emission
//!   speed, Alpha byte-op synthesis).

/// A standard straight-line workload: `n` arithmetic/memory VCODE
/// instructions, the unit of the codegen-cost experiments.
pub const BODY_INSNS: usize = 256;

// ---------------------------------------------------------------------------
// Minimal benchmark runner with a criterion-compatible surface.
//
// The workspace builds fully offline, so the external `criterion` crate is
// not available; the `benches/` targets instead import this drop-in subset
// (`Criterion`, `benchmark_group`, `Bencher::iter`/`iter_batched`,
// `Throughput`, and the `criterion_group!`/`criterion_main!` macros). It
// calibrates an iteration count for a ~50 ms measurement window, takes the
// best of three runs, and prints ns/iter plus derived throughput.
// ---------------------------------------------------------------------------

use std::time::{Duration, Instant};

/// How measured quantities scale with one iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Each iteration processes this many logical elements.
    Elements(u64),
    /// Each iteration processes this many bytes.
    Bytes(u64),
}

/// Batch sizing hint for `iter_batched`; accepted for source compatibility
/// (every batch re-runs setup outside the timed region regardless).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Setup output is cheap to hold; batches can be large.
    SmallInput,
    /// Setup output is expensive to hold; batches stay small.
    LargeInput,
}

/// Times one benchmark body: accumulates the wall-clock cost of running
/// the closure `iters` times.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the calibrated iteration count.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let t = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed += t.elapsed();
    }

    /// Times `f` over the calibrated iteration count, running `setup`
    /// outside the timed region before each call.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut f: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..self.iters {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(f(input));
            self.elapsed += t.elapsed();
        }
    }
}

/// Entry point handed to each `criterion_group!` target function.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
        }
    }
}

/// A named collection of measurements sharing a throughput setting.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Declares how much work one iteration represents.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Calibrates, measures, and reports one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        // Calibrate: one iteration to estimate per-iter cost.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per = b.elapsed.as_nanos().max(1) as f64;
        // Smoke mode (CI) trades precision for a ~10x shorter run.
        let (window, rounds) = if snapshot::smoke() {
            (1.5e6, 4)
        } else {
            (1.5e7, 10)
        };
        let iters = ((window / per).ceil() as u64).clamp(1, 1_000_000);
        // Warm up with a quarter window, then keep the best window. Many
        // short windows resist scheduler noise on shared machines far
        // better than a few long ones: a burst of neighbour activity
        // poisons one 15 ms window, not the whole measurement.
        let mut b = Bencher {
            iters: (iters / 4).max(1),
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            best = best.min(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        snapshot::record(&format!("{}/{id}_ns_per_iter", self.name), best);
        let mut line = format!("{}/{id:<28} {:>12.1} ns/iter", self.name, best);
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                line += &format!("  {:>10.1} Melem/s", n as f64 / best * 1e3);
            }
            Some(Throughput::Bytes(n)) => {
                line += &format!("  {:>10.1} MiB/s", n as f64 / best * 1e9 / (1 << 20) as f64);
            }
            None => {}
        }
        println!("{line}");
        self
    }

    /// Ends the group (criterion API compatibility; nothing to flush).
    pub fn finish(self) {}
}

// ---------------------------------------------------------------------------
// What a bench may gate on (DESIGN.md "What CI gates"): an exact count,
// or a ratio of two sides measured in alternating windows of this one
// process and judged per pair. Wall-clock numbers are reported and kept
// in the history; none is compared with a number from another run.
// ---------------------------------------------------------------------------

/// One timed window: ns per call of `f` over `reps` calls.
pub fn window_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// The median of `xs` (the upper one of an even count).
///
/// # Panics
///
/// Panics on an empty sequence or a NaN.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measurement"));
    v[v.len() / 2]
}

/// A ratio gate's measurement: `pairs` adjacent windows of the two
/// sides, alternating which side goes first; returns each pair's
/// `(a, b)`. A host that slows down for seconds at a time slows both
/// windows of the pairs it covers, so the per-pair ratios hold where
/// two separately timed totals would not; judge the gate on their
/// [`median`].
pub fn paired_windows(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Vec<(f64, f64)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// Run mode and the kept record of what the benches print.
///
/// `VCODE_SMOKE=1` shortens measurement windows (~10x) so the gates are
/// cheap enough for CI. When `VCODE_BENCH_JSON` names a file,
/// [`record`](snapshot::record) appends one JSON line per metric to it;
/// `scripts/bench_history.sh` stamps those with commit, date and host
/// and appends them to `BENCH_history.jsonl`. Nothing reads a recorded
/// value back.
pub mod snapshot {
    use std::io::Write as _;

    /// Whether smoke mode (short windows, CI-grade precision) is on.
    pub fn smoke() -> bool {
        std::env::var_os("VCODE_SMOKE").is_some_and(|v| v != "0")
    }

    /// Appends `{"metric": name, "value": value}` as one line to the
    /// file named by `VCODE_BENCH_JSON` (no-op without it).
    pub fn record(name: &str, value: f64) {
        let Some(path) = std::env::var_os("VCODE_BENCH_JSON") else {
            return;
        };
        let line = format!("{{\"metric\": \"{name}\", \"value\": {value:.2}}}\n");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("record: cannot append to {}: {e}", path.to_string_lossy());
        }
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
