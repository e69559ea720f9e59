//! Sustained classification throughput of the live DPF service
//! (`dpf::DpfService`): Mpackets/s vs filter count, update rate, and
//! thread count, plus the batch-dispatch amortization.
//!
//! The headline gate (ISSUE 8): classification throughput while filters
//! are installed/removed at a sustained rate must stay within 20% of
//! the same readers' throughput while their service's filter set is
//! left alone — the RCU hot swap may not stall the data path. Both
//! sides are measured here, in short alternating windows, and judged on
//! the median of the per-pair ratios.
//!
//! The baseline side is not an idle host. It has a control: the same
//! writer, at the same rate, updates a *bystander* service nobody
//! reads, so the CPU the writer's inline builds take from the readers
//! is spent on both sides, and the ratio is what swapping *this*
//! service's generations costs its readers. What the gate therefore
//! does not see is the CPU the update path itself burns; against an
//! idle baseline one window of each, seconds apart, read 47-95% on one
//! unchanged tree, which was the scheduler. On a host with every core
//! taken by something else the per-pair ratios spread 30-190% and the
//! median of them still moves by several points (EXPERIMENTS.md, PR 21).
//!
//! Beside it, exact: every update published exactly one generation, and
//! no window on either side served a packet from the interpreter (an
//! install builds, then publishes native, once). The absolute numbers
//! are reported and kept, not gated.

use dpf::packet::{self, PacketSpec};
use dpf::DpfService;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vcode_bench::{median, paired_windows, snapshot};

const DST_IP: u32 = 0x0a00_0002;
const BATCH: usize = 64;
/// Alternating updating/bystander window pairs behind the gated ratio.
const PAIRS: usize = 21;

fn port_msg(port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        dst_port: port,
        ..PacketSpec::default()
    })
}

/// A cyclic packet mix over `nf` resident filters plus 4 miss ports.
fn traffic(nf: u16, base: u16) -> Vec<Vec<u8>> {
    let span = nf + 4;
    (0..256u16).map(|i| port_msg(base + (i % span))).collect()
}

struct RunResult {
    mpps: f64,
    updates: u64,
    degraded_calls: u64,
    published: u64,
}

/// Runs `threads` batch-classifying readers of `svc` for `dur`; when
/// `update` is set, a writer concurrently cycles one filter in/out of
/// the service it names (two updates per period) — `svc` itself, or a
/// bystander nobody reads. Returns aggregate throughput and `svc`'s
/// counter deltas.
fn run(
    svc: &Arc<DpfService>,
    threads: usize,
    dur: Duration,
    update: Option<(Duration, &Arc<DpfService>)>,
    msgs: &[Vec<u8>],
    churn_port: u16,
) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let packets = Arc::new(AtomicU64::new(0));
    let parties = threads + 1 + usize::from(update.is_some());
    let barrier = Arc::new(Barrier::new(parties));
    let before = svc.stats();

    let readers: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(svc);
            let stop = Arc::clone(&stop);
            let packets = Arc::clone(&packets);
            let barrier = Arc::clone(&barrier);
            let msgs = msgs.to_vec();
            std::thread::spawn(move || {
                let reader = svc.reader();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let mut local = 0u64;
                let mut off = (t * 37) % refs.len();
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let end = (off + BATCH).min(refs.len());
                    let out = reader.classify_batch(&refs[off..end]);
                    local += std::hint::black_box(&out).len() as u64;
                    off = if end == refs.len() { 0 } else { end };
                }
                packets.fetch_add(local, Ordering::SeqCst);
            })
        })
        .collect();

    let writer = update.map(|(p, svc)| {
        let svc = Arc::clone(svc);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut updates = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let id = svc.insert(packet::tcp_port_filter(DST_IP, churn_port).unwrap());
                updates += 1;
                std::thread::sleep(p / 2);
                svc.remove(id);
                updates += 1;
                std::thread::sleep(p / 2);
            }
            updates
        })
    });

    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(dur);
    stop.store(true, Ordering::SeqCst);
    let elapsed = t0.elapsed();
    for r in readers {
        r.join().expect("reader panicked");
    }
    let updates = writer.map_or(0, |w| w.join().expect("writer panicked"));
    let after = svc.stats();
    RunResult {
        mpps: packets.load(Ordering::SeqCst) as f64 / elapsed.as_secs_f64() / 1e6,
        updates,
        degraded_calls: after.degraded_calls - before.degraded_calls,
        published: after.published - before.published,
    }
}

/// Builds a service over `nf` port filters.
fn service(nf: u16, base: u16, failures: &mut Vec<String>) -> Arc<DpfService> {
    let svc = Arc::new(DpfService::new());
    for f in packet::port_filter_set(nf, base) {
        svc.insert(f);
    }
    if !svc.is_native() {
        failures.push(format!("dpf_service: {nf}-filter set is not native"));
    }
    svc
}

fn main() {
    let smoke = snapshot::smoke();
    let dur = Duration::from_millis(if smoke { 120 } else { 400 });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t_hi = 4.min(cores);
    let mut failures = Vec::new();

    println!("=== DPF live service: Mpackets/s (batch {BATCH}, cores {cores}) ===");

    // --- Filter-count sweep, static, one reader. -----------------------
    for nf in [4u16, 16, 64] {
        let svc = service(nf, 1000, &mut failures);
        let msgs = traffic(nf, 1000);
        let r = run(&svc, 1, dur, None, &msgs, 0);
        println!(
            "  static  {nf:>3} filters, 1 thread       {:>8.2} Mpkt/s",
            r.mpps
        );
        snapshot::record(&format!("dpf_service/static_f{nf}_1t_mpps"), r.mpps);
        if r.degraded_calls > 0 {
            failures.push(format!(
                "dpf_service: static {nf}-filter run served {} degraded calls",
                r.degraded_calls
            ));
        }
    }

    // --- Update-under-traffic: the gated configuration, at one reader
    // and at up to four (clamped to cores, as in par_codegen:
    // oversubscription measures the scheduler). ~1000 updates/s (insert
    // + remove per 2 ms cycle): every insert is a cold build (fresh id
    // -> fresh key) on the writer's thread, every remove an L1 hit.
    // Windows alternate between the writer updating the service being
    // read and the same writer updating the bystander; the 80% floor on
    // the median of the per-pair ratios is the tentpole acceptance
    // criterion.
    let svc16 = service(16, 1000, &mut failures);
    let bystander = service(16, 1000, &mut failures);
    let msgs16 = traffic(16, 1000);
    let period = Duration::from_millis(2);
    let window = dur / 3;
    for (threads, label) in [(1usize, "1t"), (t_hi, "4t")] {
        // Packets the interpreter served, in any window of either side.
        let degraded = std::cell::Cell::new(0u64);
        let window_while_updating = |updated: &Arc<DpfService>, churn_port| {
            let r = run(
                &svc16,
                threads,
                window,
                Some((period, updated)),
                &msgs16,
                churn_port,
            );
            degraded.set(degraded.get() + r.degraded_calls);
            r
        };
        let (mut updates, mut published) = (0u64, 0u64);
        let windows = paired_windows(
            PAIRS,
            || {
                let r = window_while_updating(&svc16, 9000);
                updates += r.updates;
                published += r.published;
                r.mpps
            },
            // Another port: the bystander's keys are as cold as svc16's.
            || window_while_updating(&bystander, 9001).mpps,
        );
        let degraded = degraded.get();
        let updating = median(windows.iter().map(|w| w.0));
        let baseline = median(windows.iter().map(|w| w.1));
        let ratios = windows.iter().map(|w| w.0 / w.1);
        let ratio = median(ratios.clone());
        println!(
            "  updating 16 filters, {threads} thread(s)     {updating:>8.2} Mpkt/s \
             vs {baseline:.2} bystander-updated ({:.0}% median of {PAIRS} pairs, {:.0}-{:.0}%; \
             {updates} updates, {published} generations)",
            100.0 * ratio,
            100.0 * ratios.clone().fold(f64::INFINITY, f64::min),
            100.0 * ratios.fold(0.0, f64::max)
        );
        snapshot::record(&format!("dpf_service/update1k_f16_{label}_mpps"), updating);
        snapshot::record(&format!("dpf_service/bystander_f16_{label}_mpps"), baseline);
        snapshot::record(&format!("dpf_service/update1k_over_static_{label}"), ratio);
        if updates == 0 {
            failures.push(format!("dpf_service: {label}: writer made no updates"));
        }
        if published != updates {
            failures.push(format!(
                "dpf_service: {label}: {updates} updates published {published} generations \
                 (need exactly one each)"
            ));
        }
        if degraded > 0 {
            failures.push(format!(
                "dpf_service: {label}: {degraded} packets were served by the interpreter"
            ));
        }
        if ratio < 0.80 {
            failures.push(format!(
                "dpf_service: {label}: update-under-traffic throughput {updating:.2} Mpkt/s is \
                 {:.0}% of the {baseline:.2} Mpkt/s bystander-updated baseline (median of {PAIRS} \
                 alternating pairs; need >=80%)",
                100.0 * ratio
            ));
        }
    }
    snapshot::record("dpf_service/cores", cores as f64);

    // --- Update-storm stress (~10k updates/s): recorded, not gated — at
    // this rate the writer's builds take a core of their own. -----------
    let storm = run(
        &svc16,
        1,
        dur,
        Some((Duration::from_micros(200), &svc16)),
        &msgs16,
        9000,
    );
    println!(
        "  storm    16 filters, 1 thread       {:>8.2} Mpkt/s \
         ({} updates, {} degraded calls)",
        storm.mpps, storm.updates, storm.degraded_calls
    );
    snapshot::record("dpf_service/update10k_f16_1t_mpps", storm.mpps);

    // --- Batch amortization: per-packet ns, batch vs single. -----------
    let reader = svc16.reader();
    let refs: Vec<&[u8]> = msgs16.iter().map(|m| m.as_slice()).collect();
    let reps: u32 = if smoke { 200 } else { 2000 };
    let single_ns = {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..reps {
                for m in refs.iter().take(BATCH) {
                    std::hint::black_box(reader.classify(std::hint::black_box(m)));
                }
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / f64::from(reps) / BATCH as f64
    };
    let batch_ns = {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(reader.classify_batch(&refs[..BATCH]));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / f64::from(reps) / BATCH as f64
    };
    println!("  single classify                     {single_ns:>8.1} ns/pkt");
    println!(
        "  batch classify ({BATCH}/call)           {batch_ns:>8.1} ns/pkt   ({:.2}x)",
        single_ns / batch_ns
    );
    snapshot::record("dpf_service/single_ns_per_pkt", single_ns);
    snapshot::record("dpf_service/batch_ns_per_pkt", batch_ns);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
