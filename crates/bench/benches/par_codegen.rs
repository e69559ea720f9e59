//! Multi-core code generation scaling.
//!
//! VCODE's design goal — generating code at a handful of instructions
//! per generated instruction — makes the generator itself cheap enough
//! that shared-state contention would dominate if any existed. This
//! bench demonstrates there is none: N independent assemblers on N
//! threads, each emitting complete functions into pooled executable
//! memory ([`vcode_x64::ExecMem`]), scale with the hardware. Every
//! per-function structure (code buffer, register allocator, label map)
//! is thread-local by construction; the only shared state is the
//! executable-memory pool, which is sharded precisely so this workload
//! does not serialize on it.
//!
//! Reported per thread count: aggregate generated instructions per
//! second, speedup vs one thread, and parallel efficiency normalised by
//! the host's available cores (on a 1-CPU host, perfect scaling is a
//! flat aggregate rate, not a rising one).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vcode::target::Leaf;
use vcode::{Assembler, RegClass};
use vcode_bench::{snapshot, BODY_INSNS};
use vcode_x64::{pool_stats, ExecMem, X64};

/// Emits one complete 256-instruction function into pooled executable
/// memory and finalizes it, returning its length (kept live past the
/// measurement via the byte returned).
fn one_lambda() -> usize {
    let mut mem = ExecMem::new(4096).expect("ExecMem");
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%i%i", Leaf::Yes).unwrap();
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
    let len = a.end().unwrap().len;
    let code = mem.finalize().expect("finalize");
    len + code.len() % 2
}

/// A persistent pool of `threads` generator threads that runs
/// barrier-delimited measurement windows on demand.
///
/// Keeping the workers alive across windows matters for the scaling
/// curve's fairness: thread spawn (stack/TLS page faulting) and thread
/// teardown (8 MiB stack unmap, join wakeup) both scale with the thread
/// count, and a harness that spawns fresh threads per window puts that
/// inside the timed region — charging higher thread counts a fixed tax
/// that reads as false contention. Idle pools park on a futex and cost
/// nothing, so every pool in the sweep can exist at once.
struct Pool {
    threads: usize,
    start: Arc<Barrier>,
    end: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    counts: Arc<Vec<AtomicU64>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(threads: usize) -> Pool {
        let start = Arc::new(Barrier::new(threads + 1));
        let end = Arc::new(Barrier::new(threads + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let handles = (0..threads)
            .map(|i| {
                let (start, end) = (Arc::clone(&start), Arc::clone(&end));
                let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
                let counts = Arc::clone(&counts);
                std::thread::spawn(move || loop {
                    start.wait();
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut lambdas = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // A small batch per stop-flag check keeps the
                        // flag out of the hot loop.
                        for _ in 0..8 {
                            std::hint::black_box(one_lambda());
                        }
                        lambdas += 8;
                    }
                    counts[i].store(lambdas, Ordering::SeqCst);
                    end.wait();
                })
            })
            .collect();
        Pool {
            threads,
            start,
            end,
            stop,
            done,
            counts,
            handles,
        }
    }

    /// One timed window: returns (total lambdas generated, wall seconds).
    /// The clock stops when the stop flag is raised; each worker then
    /// finishes its in-flight batch (a few tens of microseconds) before
    /// publishing its count and parking at the end barrier.
    fn window(&self, secs: f64) -> (u64, f64) {
        self.stop.store(false, Ordering::SeqCst);
        self.start.wait();
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        let elapsed = t.elapsed().as_secs_f64();
        self.stop.store(true, Ordering::SeqCst);
        self.end.wait();
        let total = self.counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        (total, elapsed)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.start.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Best aggregate rate (generated instructions per second) per pool,
/// over several short windows with the thread counts *interleaved*:
/// round 1 measures 1t, 2t, 4t, 8t, then round 2 repeats. Like the rest
/// of the harness, many short windows resist scheduler noise better
/// than one long one — and interleaving the configurations keeps slow
/// host drift (frequency scaling, neighbour load ramping) from
/// systematically biasing whichever thread count happens to run last,
/// which a sequential sweep bakes into the scaling curve.
fn best_rates(pools: &[Pool], secs: f64, rounds: u32) -> Vec<f64> {
    let mut best = vec![0.0f64; pools.len()];
    for _ in 0..rounds {
        for (slot, pool) in best.iter_mut().zip(pools) {
            let (lambdas, elapsed) = pool.window(secs);
            *slot = slot.max(lambdas as f64 * BODY_INSNS as f64 / elapsed);
        }
    }
    best
}

fn main() {
    // Best-of needs enough rounds for every thread count to touch its
    // ceiling: the scaling signal on a small host (a few percent) is
    // comparable to per-window scheduler noise, and an unlucky config
    // that never got a clean window reads as a false scaling inversion.
    let (secs, rounds) = if snapshot::smoke() {
        (0.05, 2)
    } else {
        (0.15, 16)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== Parallel code generation (pooled ExecMem, {cores} core(s) available) ===");

    // One persistent pool per *requested* thread count, with the actual
    // worker count clamped to the cores present. Oversubscribing (8
    // workers on fewer cores) measures the kernel's context-switch tax,
    // not the generator's scaling — on small hosts it read as a false
    // scaling inversion at 8t. The recorded rows keep the
    // requested-count labels (so the metric names are stable across
    // hosts) beside `par_codegen/cores`, which says which points were
    // clamped to identical configurations: a scaling claim read off a
    // row with `cores: 1` is not a claim. Reported, not gated. Spawning all pools up front
    // also walks the round-robin shard assignment, so the warm-up
    // window below populates every free-list shard the sweep touches.
    let requested: [usize; 4] = [1, 2, 4, 8];
    let pools: Vec<Pool> = requested
        .iter()
        .map(|&req| Pool::new(req.min(cores)))
        .collect();
    pools.last().unwrap().window(secs); // warm the pool and the code paths

    let before = pool_stats();
    let rates = best_rates(&pools, secs, rounds);
    let after = pool_stats();
    let base_rate = rates[0];
    snapshot::record("par_codegen/cores", cores as f64);
    for ((&req, pool), &rate) in requested.iter().zip(&pools).zip(&rates) {
        let threads = pool.threads;
        let speedup = rate / base_rate;
        let clamp = if threads < req {
            format!(" (clamped from {req})")
        } else {
            String::new()
        };
        println!(
            "  {threads} thread(s){clamp}: {:>7.1} Minsn/s aggregate  \
             {speedup:>5.2}x vs 1t (ideal {threads:.0}x)",
            rate / 1e6,
        );
        snapshot::record(&format!("par_codegen/minsn_per_s_{req}t"), rate / 1e6);
    }
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_pct = if lookups == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64 * 100.0
    };
    println!("  pool hits over the sweep: {hit_pct:.1}%");
}
