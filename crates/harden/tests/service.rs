//! Fault-injected builders against the background compile service.
//!
//! The contract under fault (ISSUE 6 acceptance): with builders that
//! panic, overrun their deadline, or fail persistently, the corpus shows
//! **zero panics and zero unbounded waits** — every request returns
//! Ready, a degraded/typed outcome (Queued, InFlight, Shed,
//! Quarantined), or a typed error, and every wait in the suite is
//! bounded by an explicit timeout.

use harden::{BuildFault, FaultPlan, XorShift};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::{CacheKey, CompileService, LambdaCache, ServiceConfig, Submit, TargetId};

fn key(n: u64) -> CacheKey {
    CacheKey::from_client_hash(TargetId::X64, n)
}

fn service(cfg: ServiceConfig) -> CompileService<u64> {
    CompileService::new(Arc::new(LambdaCache::new(64)), cfg)
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_depth: 16,
        deadline: Duration::from_millis(250),
        quarantine_base: Duration::from_millis(20),
        quarantine_cap: Duration::from_millis(200),
    }
}

/// Bounded wait for an idle service — the suite-wide "no unbounded
/// waits" guard.
fn drain(sv: &CompileService<u64>) {
    assert!(
        sv.wait_idle(Duration::from_secs(30)),
        "service failed to go idle within bound"
    );
}

#[test]
fn panicking_builders_never_escape_and_quarantine() {
    let sv = service(cfg());
    for n in 0..8 {
        let plan = FaultPlan::new(vec![BuildFault::Panic]);
        match sv.submit(key(n), move || plan.run(n)) {
            Submit::Queued => {}
            other => panic!("expected Queued, got {other:?}"),
        }
    }
    drain(&sv);
    let st = sv.stats();
    assert_eq!(st.panicked, 8, "every panic caught and counted");
    assert_eq!(st.quarantined_keys, 8, "every poisoned key quarantined");
    for n in 0..8 {
        assert!(sv.cache().peek(&key(n)).is_none(), "no garbage published");
        let q = sv.quarantine(&key(n)).expect("quarantine entry");
        assert!(q.last_error.contains("injected panic"), "{}", q.last_error);
    }
}

#[test]
fn deadline_overrun_vacates_slot_for_sync_claim() {
    let cache = LambdaCache::new(64).with_stall_timeout(Duration::from_secs(5));
    let sv = CompileService::new(
        Arc::new(cache),
        ServiceConfig {
            workers: 1,
            deadline: Duration::from_millis(20),
            ..cfg()
        },
    );
    let plan = FaultPlan::new(vec![BuildFault::SleepMs(80)]);
    let p = Arc::clone(&plan);
    assert!(matches!(
        sv.submit(key(100), move || p.run(1)),
        Submit::Queued
    ));
    drain(&sv);
    assert_eq!(plan.attempts(), 1);
    assert_eq!(sv.stats().deadline_expired, 1);
    assert!(
        sv.cache().peek(&key(100)).is_none(),
        "overrun result must be discarded"
    );
    // The slot is vacated, not wedged: a bounded sync build on the same
    // key claims it immediately (after the quarantine backoff expires).
    let t0 = Instant::now();
    loop {
        match sv.quarantine(&key(100)) {
            Some(q) if q.retry_in > Duration::ZERO => std::thread::sleep(q.retry_in),
            _ => break,
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "backoff never expired"
        );
    }
    let v = sv
        .cache()
        .get_or_build::<String>(key(100), || Ok(Arc::new(7)))
        .expect("sync claim after vacate");
    assert_eq!(*v, 7);
}

#[test]
fn persistent_failure_backs_off_exponentially() {
    let sv = service(ServiceConfig {
        workers: 1,
        quarantine_base: Duration::from_millis(40),
        quarantine_cap: Duration::from_secs(5),
        ..cfg()
    });
    let plan = FaultPlan::new(vec![BuildFault::Fail]);
    // Hammer the key far more often than the backoff admits probes.
    let t0 = Instant::now();
    let mut quarantined_seen = 0u32;
    while t0.elapsed() < Duration::from_millis(300) {
        let p = Arc::clone(&plan);
        match sv.submit(key(200), move || p.run(1)) {
            Submit::Queued | Submit::InFlight | Submit::Shed => {}
            Submit::Quarantined { failures, .. } => {
                quarantined_seen = quarantined_seen.max(failures);
            }
            Submit::Ready(_) => panic!("a failing key can never be Ready"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    drain(&sv);
    // ~150 submits; with 40ms-base exponential backoff the builder may
    // run only a handful of times. The poison key cannot hot-loop.
    assert!(
        plan.attempts() <= 4,
        "backoff must throttle rebuilds, ran {}",
        plan.attempts()
    );
    assert!(quarantined_seen >= 1, "typed quarantine outcomes observed");
    assert!(sv.quarantine(&key(200)).unwrap().failures >= 1);
}

#[test]
fn failing_key_recovers_once_builder_heals() {
    let sv = service(ServiceConfig {
        workers: 1,
        quarantine_base: Duration::from_millis(15),
        ..cfg()
    });
    let plan = FaultPlan::new(vec![
        BuildFault::Fail,
        BuildFault::Fail,
        BuildFault::Succeed,
    ]);
    let t0 = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "healed builder never published"
        );
        let p = Arc::clone(&plan);
        match sv.submit(key(300), move || p.run(42)) {
            Submit::Ready(v) => {
                assert_eq!(*v, 42);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert_eq!(plan.attempts(), 3, "two failures, then the recovery probe");
    assert!(
        sv.quarantine(&key(300)).is_none(),
        "success clears quarantine"
    );
}

#[test]
fn mixed_fault_corpus_every_request_served_or_typed() {
    // A seeded storm of submits across keys whose builders draw
    // deterministic faults. The assertions are the acceptance criteria
    // themselves: no panic escapes, no wait is unbounded, and the
    // service keeps serving afterwards.
    let sv = service(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        deadline: Duration::from_millis(60),
        quarantine_base: Duration::from_millis(10),
        quarantine_cap: Duration::from_millis(100),
    });
    let mut rng = XorShift::new(0x5eed);
    let plans: Vec<Arc<FaultPlan>> = (0..24)
        .map(|_| {
            let fault = match rng.below(4) {
                0 => BuildFault::Succeed,
                1 => BuildFault::Fail,
                2 => BuildFault::Panic,
                _ => BuildFault::SleepMs(100), // overruns the deadline
            };
            // Whatever the fault, the builder eventually heals.
            FaultPlan::new(vec![fault, BuildFault::Succeed])
        })
        .collect();
    let mut outcomes = harden::Tally::new();
    for i in 0..400u64 {
        let k = rng.below(plans.len() as u64);
        let plan = Arc::clone(&plans[k as usize]);
        let outcome: Result<(), ()> = match sv.submit(key(k), move || plan.run(k)) {
            Submit::Ready(v) => {
                assert_eq!(*v, k, "published value must be the key's own");
                Ok(())
            }
            // Degraded-but-served outcomes: typed, never a wait.
            Submit::Queued | Submit::InFlight | Submit::Shed => Err(()),
            Submit::Quarantined { .. } => Err(()),
        };
        outcomes.record(&outcome);
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    outcomes.assert_covered(400);
    drain(&sv);
    let st = sv.stats();
    assert_eq!(
        st.enqueued,
        st.completed + st.failed + st.panicked + st.deadline_expired,
        "every accepted build resolved exactly once: {st:?}"
    );
    // The service survived the storm: a fresh key still compiles.
    assert!(matches!(
        sv.submit(key(999), || Ok(Arc::new(999))),
        Submit::Queued
    ));
    drain(&sv);
    assert_eq!(sv.cache().peek(&key(999)).as_deref(), Some(&999));
}
