//! Table 3: average time to classify TCP/IP headers destined for one of
//! ten resident filters — DPF (dynamically compiled) vs the MPF- and
//! PATHFINDER-style interpreters.
//!
//! Paper numbers (DEC5000/200, µs): DPF 1.5, PATHFINDER ~15, MPF ~30 —
//! i.e. DPF ≈10× PATHFINDER-interpretation and ≈20× MPF. The absolute
//! scale here is a modern CPU's; the ratios are the reproduced shape.

use dpf::mpf::Mpf;
use dpf::packet::{self, PacketSpec};
use dpf::{trie, DpfReader, DpfService, Filter, Options, Pathfinder};
use std::hint::black_box;
use std::time::Instant;
use vcode_bench::{criterion_group, criterion_main, snapshot, Criterion, Throughput};

/// Packets a batch: every engine classifies a batch at a time, and the
/// service's reader enters its generation once a batch.
const BATCH: usize = 64;

/// One engine classifying a batch.
type Classify<'a> = &'a dyn Fn(&[&[u8]]) -> Vec<Option<u32>>;

struct Setup {
    dpf: DpfReader,
    mpf: Mpf,
    pf: Pathfinder,
    packets: Vec<Vec<u8>>,
}

fn setup() -> Setup {
    let filters = packet::port_filter_set(10, 1000);
    let dpf = DpfService::new();
    let mut mpf = Mpf::new();
    let mut pf = Pathfinder::new();
    dpf.insert_all(filters.iter().cloned());
    for f in &filters {
        mpf.insert(f);
        pf.insert(f.clone());
    }
    assert!(dpf.is_native());
    let dpf = dpf.reader();
    // The experiment's stream: packets for each resident filter (the
    // paper classifies messages destined for one of the ten filters),
    // in the batches the service's reader is read in.
    let packets: Vec<Vec<u8>> = (0..BATCH as u16)
        .map(|i| {
            packet::build(&PacketSpec {
                dst_port: 1000 + i % 10,
                ..PacketSpec::default()
            })
        })
        .collect();
    Setup {
        dpf,
        mpf,
        pf,
        packets,
    }
}

fn bench(c: &mut Criterion) {
    let s = setup();
    let batch: Vec<&[u8]> = s.packets.iter().map(Vec::as_slice).collect();
    let engines: [(&str, Classify<'_>); 3] = [
        ("dpf_compiled", &|b| s.dpf.classify_batch(b)),
        ("pathfinder_interpreted", &|b| {
            b.iter().map(|m| s.pf.classify(m)).collect()
        }),
        ("mpf_interpreted", &|b| {
            b.iter().map(|m| s.mpf.classify(m)).collect()
        }),
    ];
    let mut group = c.benchmark_group("table3_classify");
    group.throughput(Throughput::Elements(BATCH as u64));
    for (name, f) in engines {
        group.bench_function(name, |b| b.iter(|| black_box(f(&batch))));
    }
    group.finish();

    // Paper-style row: the average of 100 000 trials.
    const TRIALS: usize = 100_000 / BATCH * BATCH;
    let avg = |f: Classify<'_>| {
        let t = Instant::now();
        for _ in 0..TRIALS / BATCH {
            black_box(f(&batch));
        }
        t.elapsed().as_secs_f64() * 1e9 / TRIALS as f64
    };
    let [ns_dpf, ns_pf, ns_mpf] = engines.map(|(_, f)| avg(f));
    println!("\n=== Table 3 analog: classify one of ten TCP/IP filters ===");
    println!("  engine       ns/msg      vs DPF   (paper: PF ~10x, MPF ~20x)");
    println!("  MPF        {ns_mpf:8.1}    {:8.1}x", ns_mpf / ns_dpf);
    println!("  PATHFINDER {ns_pf:8.1}    {:8.1}x", ns_pf / ns_dpf);
    println!("  DPF        {ns_dpf:8.1}         1x");
    let filters: Vec<(u32, Filter)> = (0..).zip(packet::port_filter_set(10, 1000)).collect();
    let c = dpf::compile::compile(&trie::build(&filters), Options::default()).expect("compiles");
    println!(
        "  (DPF: {} bytes of code from {} vcode insns, dispatch {:?})",
        c.code_len, c.vcode_insns, c.strategies
    );
    let xs = vcode_x64::exec_stats();
    println!(
        "  native ExecStats: exec-mem pool {} hits / {} misses \
         ({:.0}% reuse), {} guarded-call traps",
        xs.cache_hits,
        xs.cache_misses,
        xs.cache_hit_ratio().unwrap_or(0.0) * 100.0,
        xs.traps.total()
    );

    // Per-flow install row: a fresh service installing the resident set
    // merges the trie, compiles it on this thread and publishes it. What
    // a flow pays to start; nothing is cached between installs.
    const INSTALLS: usize = 200;
    let install_ns = {
        let t = Instant::now();
        for _ in 0..INSTALLS {
            let svc = DpfService::new();
            svc.insert_all(filters.iter().map(|(_, f)| f.clone()));
            assert!(svc.is_native());
            black_box(svc);
        }
        t.elapsed().as_secs_f64() * 1e9 / INSTALLS as f64
    };
    println!("  per-flow install (fresh service, one build of the set): {install_ns:.0} ns");
    snapshot::record("table3_dpf/install_ns", install_ns);
}

criterion_group!(benches, bench);
criterion_main!(benches);
