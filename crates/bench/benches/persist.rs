//! Cold-start vs warm-start cost of the persistent (L2) code cache:
//! time from "decide to build a classifier" to "first packet
//! classified by native code", with and without a populated artifact
//! directory.
//!
//! This is the tentpole number for the persistent-cache PR: the paper's
//! cost model says dynamic codegen pays for itself through reuse, and
//! the L2 tier extends reuse across process restarts. Cold start
//! compiles every filter set from scratch (and stores through); warm
//! start finds verified artifacts on disk and must reach first
//! classified packet **at least 2×** faster. Each cold pass (fresh
//! filter sets, so fresh keys) is followed at once by its warm pass
//! over the same sets, and the bench hard-fails when the median of the
//! per-pair ratios is under 2× — or when the tier's own counts say a
//! cold pass did not store every set or a warm pass did not load every
//! set from disk.
//!
//! Classifiers are compiled with jump tables and perfect-hash dispatch
//! disabled: those embed absolute side-table addresses and are
//! (correctly) refused by the codec, which would make the warm path
//! vacuous. Linear dispatch is position-independent and persists.

use dpf::packet::{self, PacketSpec};
use dpf::{DpfService, Options};
use std::time::Instant;
use vcode_bench::{median, snapshot};

/// Position-independent codegen: persistable on every set.
fn pic_options() -> Options {
    Options {
        use_jump_tables: false,
        use_hashing: false,
        ..Options::default()
    }
}

fn port_msg(port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        dst_port: port,
        ..PacketSpec::default()
    })
}

/// Builds, compiles, and first-classifies every filter set; returns
/// total elapsed seconds. `clear_cache` first forces L1 misses, so the
/// builds hit either the compiler (cold dir) or the disk tier (warm).
fn first_packet_pass(sets: &[(u16, u16)]) -> f64 {
    dpf::clear_cache();
    let t0 = Instant::now();
    for &(nf, base) in sets {
        let d = DpfService::with_options(pic_options());
        d.insert_all(packet::port_filter_set(nf, base));
        assert!(
            d.is_native(),
            "bench set must run native, not the interpreter"
        );
        let msg = port_msg(base);
        assert!(
            std::hint::black_box(d.classify(&msg)).is_some(),
            "first packet must classify"
        );
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let smoke = snapshot::smoke();
    let nsets: u16 = if smoke { 3 } else { 8 };
    let nf: u16 = if smoke { 16 } else { 32 };
    let pairs: u16 = if smoke { 3 } else { 5 };
    let mut failures = Vec::new();

    let dir = std::env::temp_dir().join(format!("vcode-persist-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        dpf::enable_persist(&dir).expect("artifact dir is writable"),
        "persistent tier must attach"
    );
    let tier = dpf::persist_tier().expect("attached above");

    println!("=== Persistent code cache: cold vs warm first-classified-packet ===");
    println!("    ({pairs} pairs of {nsets} filter sets x {nf} filters, linear dispatch)");

    let mut passes = Vec::new();
    for pair in 0..pairs {
        // Port bases no earlier pair used: every set is a new key.
        let sets: Vec<(u16, u16)> = (0..nsets)
            .map(|i| (nf, 1000 + (pair * nsets + i) * 100))
            .collect();
        // --- Cold: no artifact for these keys. Compiles everything,
        // stores through.
        let before = tier.stats();
        let cold_s = first_packet_pass(&sets);
        let stored = tier.stats().stores - before.stores;
        if stored < u64::from(nsets) {
            failures.push(format!(
                "persist: cold pass stored {stored} artifacts, expected {nsets} \
                 (store-through is broken; warm numbers would be fiction)"
            ));
        }
        // --- Warm: same process, same dir, L1 cleared — every build
        // must come from a verified on-disk artifact.
        let before = tier.stats();
        let warm_s = first_packet_pass(&sets);
        let loaded = tier.stats().hits - before.hits;
        if loaded < u64::from(nsets) {
            failures.push(format!(
                "persist: warm pass loaded {loaded} artifacts from disk, expected {nsets}"
            ));
        }
        passes.push((cold_s * 1e6, warm_s * 1e6));
    }
    let cold_us = median(passes.iter().map(|p| p.0));
    let warm_us = median(passes.iter().map(|p| p.1));
    let speedup = median(passes.iter().map(|p| p.0 / p.1));
    println!("  cold start (compile + store-through)  {cold_us:>10.0} us");
    println!("  warm start (load + revalidate)        {warm_us:>10.0} us   ({speedup:.1}x)");

    snapshot::record("persist/cold_first_packet_us", cold_us);
    snapshot::record("persist/warm_first_packet_us", warm_us);
    snapshot::record("persist/warm_speedup", speedup);

    // The acceptance gate: warm start must be at least 2x faster.
    if speedup < 2.0 {
        failures.push(format!(
            "persist: warm start ({warm_us:.0} us) is not >=2x faster than cold start \
             ({cold_us:.0} us); median speedup of {pairs} pairs {speedup:.2}x"
        ));
    }

    let _ = std::fs::remove_dir_all(&dir);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
