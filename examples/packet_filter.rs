//! Dynamic packet filters (paper §4.2): install ten TCP/IP filters,
//! compile them to native code, and classify a packet stream — against
//! the MPF- and PATHFINDER-style interpreted baselines.
//!
//! ```sh
//! cargo run --release --example packet_filter
//! ```

use dpf::mpf::Mpf;
use dpf::packet::{self, PacketSpec};
use dpf::{trie, DpfService, Options, Pathfinder};
use std::time::Instant;

/// One engine classifying a batch.
type Classify<'a> = &'a dyn Fn(&[&[u8]]) -> Vec<Option<u32>>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let filters = packet::port_filter_set(10, 1000);

    let mut mpf = Mpf::new();
    let mut pf = Pathfinder::new();
    for f in &filters {
        mpf.insert(f);
        pf.insert(f.clone());
    }
    // Installing compiles: one build and one published generation for
    // the whole batch.
    let svc = DpfService::new();
    let t0 = Instant::now();
    let ids = svc.insert_all(filters.iter().cloned());
    let install_time = t0.elapsed();
    assert!(svc.is_native());
    // The same set compiled on its own, to look at the code.
    let set: Vec<(u32, dpf::Filter)> = ids.into_iter().zip(filters).collect();
    let c = dpf::compile::compile(&trie::build(&set), Options::default())?;
    println!(
        "DPF installed 10 filters in {:.1} µs: {} bytes of machine code from \
         {} vcode instructions (dispatch: {:?})",
        install_time.as_secs_f64() * 1e6,
        c.code_len,
        c.vcode_insns,
        c.strategies
    );
    let dpf = svc.reader();

    // A packet for filter 4, plus misses.
    let hit = packet::build(&PacketSpec {
        dst_port: 1004,
        ..PacketSpec::default()
    });
    let miss = packet::build(&PacketSpec {
        dst_port: 7777,
        ..PacketSpec::default()
    });
    println!("\nclassify(port 1004) = {:?}", dpf.classify(&hit));
    println!("classify(port 7777) = {:?}", dpf.classify(&miss));
    assert_eq!(dpf.classify(&hit), mpf.classify(&hit));
    assert_eq!(dpf.classify(&hit), pf.classify(&hit));

    // The paper's measurement: average time to classify a message
    // destined for one of the ten filters, 100 000 trials (Table 3).
    // Every engine takes the stream a batch at a time, the way the
    // service is read: its reader enters the generation once a batch.
    const TRIALS: usize = 100_000;
    const BATCH: usize = 64;
    let stream: Vec<&[u8]> = (0..TRIALS)
        .map(|i| if i % 4 == 3 { &miss[..] } else { &hit[..] })
        .collect();
    let time = |f: Classify<'_>| {
        let t = Instant::now();
        let mut sink = 0u64;
        for batch in stream.chunks(BATCH) {
            for got in f(batch) {
                sink = sink.wrapping_add(u64::from(got.unwrap_or(u32::MAX)));
            }
        }
        std::hint::black_box(sink);
        t.elapsed().as_secs_f64() * 1e9 / TRIALS as f64
    };
    let ns_dpf = time(&|b| dpf.classify_batch(b));
    let ns_pf = time(&|b| b.iter().map(|m| pf.classify(m)).collect());
    let ns_mpf = time(&|b| b.iter().map(|m| mpf.classify(m)).collect());
    println!("\nTable 3 analog (avg ns/classification, {TRIALS} trials):");
    println!(
        "  MPF (interpreted, per-filter)  {ns_mpf:8.1} ns   ({:>4.1}x DPF)",
        ns_mpf / ns_dpf
    );
    println!(
        "  PATHFINDER (interpreted trie)  {ns_pf:8.1} ns   ({:>4.1}x DPF)",
        ns_pf / ns_dpf
    );
    println!("  DPF (dynamically compiled)     {ns_dpf:8.1} ns");
    Ok(())
}
