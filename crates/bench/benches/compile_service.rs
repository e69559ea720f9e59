//! The bare compile service under a submit flood.
//!
//! No product code queues a build any more — a miss is built by the
//! thread that asked (DESIGN.md "Compile service") — but `vcode::service`
//! stays while the frozen `benchmark/` times its queue-and-wake, so its
//! one load-bearing promise is still gated here: a flood of submits
//! against a small queue comes back typed (`Shed`), never blocked, and
//! the service publishes everything it accepted. Both gates are counts.

use std::sync::Arc;
use std::time::Duration;
use vcode::{CacheKey, CompileService, LambdaCache, ServiceConfig, Submit, TargetId};
use vcode_bench::snapshot;

fn main() {
    let mut failures = Vec::new();
    println!("=== Compile service (bare, no engine) ===");

    // Slow builders, one worker, a 4-deep queue: most of a 64-key flood
    // must shed, every outcome must be typed, and the service must still
    // resolve everything it accepted.
    let sv: CompileService<u64> = CompileService::new(
        Arc::new(LambdaCache::new(256)),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    );
    let flood = 64u64;
    let (mut queued, mut shed) = (0u64, 0u64);
    for n in 0..flood {
        match sv.submit(CacheKey::from_client_hash(TargetId::X64, n), move || {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Arc::new(n))
        }) {
            Submit::Queued => queued += 1,
            Submit::Shed => shed += 1,
            Submit::InFlight | Submit::Ready(_) | Submit::Quarantined { .. } => {}
        }
    }
    if !sv.wait_idle(Duration::from_secs(30)) {
        failures.push("compile_service: flood never drained".into());
    }
    let st = sv.stats();
    println!(
        "  flood of {flood}: {queued} queued, {shed} shed \
         (queue depth 4, peak {})",
        st.queue_depth_peak
    );
    if shed == 0 {
        failures.push("compile_service: flood past queue depth must shed".into());
    }
    if st.enqueued != st.completed + st.failed + st.panicked + st.deadline_expired {
        failures.push(format!(
            "compile_service: accepted builds not all resolved: {st:?}"
        ));
    }

    snapshot::record("compile_service/flood_queued", queued as f64);
    snapshot::record("compile_service/flood_shed", shed as f64);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
