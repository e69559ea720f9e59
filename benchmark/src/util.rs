//! Seeded randomness, order statistics and the timing loops every
//! workload shares. Nothing here calls into the code under test.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always generates the same inputs. Deliberately not
/// `vcode::regress::XorShift` — inputs and oracles stay independent of
/// the product crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for a named sub-stream of `seed`, so adding draws to
    /// one input never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation; sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// The best round of a run: the highest throughput, or the lowest time.
///
/// Every round reports its own throughput and latency quantiles, and a
/// run reports its best round rather than the median one: on a shared
/// host, slow phases that last seconds come and go (throughput of one
/// untouched binary wanders by a third), and the fastest round is the
/// one the neighbours disturbed least.
pub fn highest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn lowest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// A latency sample buffer of fixed, pre-touched capacity, so the
/// process's peak RSS does not depend on how fast the run went. Samples
/// past the capacity are dropped: throughput still counts them.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<f64>,
    len: usize,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            ns: vec![0.0; cap],
            len: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, d: Duration) {
        if self.len < self.ns.len() {
            self.ns[self.len] = d.as_nanos() as f64;
            self.len += 1;
        }
    }

    /// Quantile of the recorded samples in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        quantile(&mut self.ns[..self.len], q) / 1e3
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// Timed windows per [`per_call_ns`] measurement.
pub const WINDOWS: u32 = 11;

/// Nanoseconds per call of `f` in the fastest of [`WINDOWS`] timed
/// windows that together last about `budget` (see [`highest`] for why
/// the fastest). The iteration count per window is calibrated once, so
/// every window does the same work.
pub fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let window = budget / WINDOWS;
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el >= window / 4 || iters >= 1 << 24 {
            let per = el.as_nanos().max(1) as f64 / iters as f64;
            iters = ((window.as_nanos() as f64 / per) as u64).clamp(1, 1 << 26);
            break;
        }
        iters *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: u32 = 7;

/// Runs `setup` [`SETUPS`] times and returns the last product with the
/// median wall time in seconds — the contract's `setup_s`.
pub fn timed_setups<T>(mut setup: impl FnMut(u32) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one setup repetition ran"),
        median(times),
    )
}

/// Waits until `deadline`: sleeps while it is far, then yields, so the
/// waiting thread gives its core to whoever is runnable (a compile
/// worker) instead of sleeping through the scheduler's timer slack.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}
