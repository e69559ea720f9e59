//! Update-storm fault corpus for the live DPF service (ISSUE 8).
//!
//! The contract: filters installed and removed *under traffic*, with
//! native builds failing at every capacity on the storage-exhaustion
//! ladder, produce **zero panics** — every classification returns a
//! correct typed result from whichever engine is published (native, or
//! the interpreter for a set whose build failed), builder failure
//! mid-swap leaves the previous serving path intact with a typed
//! failure record, and the service heals to native as soon as a
//! buildable set returns.

use dpf::packet::{self, PacketSpec};
use dpf::{DpfService, Filter, Options};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DST_IP: u32 = 0x0a00_0002;

fn port_msg(port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        dst_port: port,
        ..PacketSpec::default()
    })
}

fn capped(cap: usize) -> Options {
    Options {
        code_capacity: Some(cap),
        ..Options::default()
    }
}

/// Storm of insert/remove across the whole storage-exhaustion ladder,
/// with a reader classifying throughout. At small capacities every
/// native build fails (typed, on record); at large ones every install
/// returns native. Both must classify correctly at every step — the
/// zero-panic acceptance gate for this corpus.
#[test]
fn update_storm_across_capacity_ladder() {
    // Every third rung: the full series re-covers the same failure mode
    // (overflow → typed error → failure record) at CI-hostile cost.
    for cap in harden::capacity_series().into_iter().step_by(3) {
        let svc = Arc::new(DpfService::with_options(capped(cap)));
        let base_ids: Vec<u32> = packet::port_filter_set(4, 2000)
            .into_iter()
            .map(|f| svc.insert(f))
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let traffic = {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            let base_ids = base_ids.clone();
            std::thread::spawn(move || {
                let reader = svc.reader();
                let msgs: Vec<Vec<u8>> = (0..4).map(|i| port_msg(2000 + i)).collect();
                let mut k = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let m = k % 4;
                    assert_eq!(
                        reader.classify(&msgs[m]),
                        Some(base_ids[m]),
                        "base filter lost during storm (capacity {cap})"
                    );
                    k += 1;
                }
            })
        };
        for round in 0..6u16 {
            let id = svc.insert(packet::tcp_port_filter(DST_IP, 3000 + round).unwrap());
            assert_eq!(
                svc.classify(&port_msg(3000 + round)),
                Some(id),
                "inserted filter not live (capacity {cap})"
            );
            svc.poll_upgrade();
            assert!(svc.remove(id));
            assert_eq!(
                svc.classify(&port_msg(3000 + round)),
                None,
                "stale positive after remove (capacity {cap})"
            );
        }
        done.store(true, Ordering::SeqCst);
        traffic.join().expect("reader panicked");
        // Hopeless capacities stay interpreter-pinned with a typed
        // failure on record, larger ones are native; nothing in between.
        match svc.build_failure() {
            Some(failure) => {
                assert!(!svc.is_native());
                assert!(failure.failures >= 1);
                assert!(
                    !failure.last_error.is_empty(),
                    "the record carries the error"
                );
            }
            None => assert!(
                svc.is_native(),
                "no failure, yet interpreted (capacity {cap})"
            ),
        }
        let st = svc.stats();
        assert_eq!(st.seq, 4 + 12, "every mutation published a generation");
        assert_eq!(st.published, st.seq, "and only one");
    }
}

/// Builder failure mid-swap: a service whose capacity fits one filter
/// but not a large set keeps serving — the native generation before the
/// failing mutation, the interpreter for the new set after it — with a
/// typed failure record, and heals on the mutation that shrinks the set
/// back.
#[test]
fn builder_failure_mid_swap_keeps_serving() {
    // Measure a one-filter classifier, then cap just above it.
    let f0 = packet::tcp_port_filter(DST_IP, 80).unwrap();
    let probe = {
        let one: [(u32, Filter); 1] = [(0, f0.clone())];
        let set = dpf::compile::compile(&dpf::trie::build(&one), Options::default());
        set.expect("probe compile").code_len
    };
    // Hashing off: 65 leaves behind a hash are a table lookup no longer
    // than one filter's compares, and would fit any cap that one does.
    let svc = DpfService::with_options(Options {
        use_hashing: false,
        ..capped(probe + 64)
    });
    let reader = svc.reader();
    let a = svc.insert(f0);
    assert!(svc.is_native(), "one filter fits the cap by construction");
    assert_eq!(reader.classify(&port_msg(80)), Some(a));

    // Mid-swap failure: the branch tree over 64 more filters cannot fit
    // even after the overflow retry doubles the buffer. The native build fails, so the
    // new set is published on the interpreter, with the failure typed.
    let storm_ids: Vec<u32> = packet::port_filter_set(64, 9000)
        .into_iter()
        .map(|f| svc.insert(f))
        .collect();
    assert_eq!(
        reader.classify(&port_msg(9005)),
        Some(storm_ids[5]),
        "new set live despite failing build"
    );
    assert!(!svc.poll_upgrade(), "build must fail");
    assert_eq!(reader.classify(&port_msg(80)), Some(a), "old filter kept");
    let failure = svc
        .build_failure()
        .expect("typed failure after mid-swap failure");
    assert_eq!(failure.failures, 1, "a new set is a new record");
    assert!(
        failure.retry_in > Duration::ZERO,
        "retried inside its backoff"
    );

    // Shrink back: the mutation that makes the set buildable again
    // supersedes the record and publishes native.
    for id in storm_ids {
        assert!(svc.remove(id));
    }
    assert!(svc.is_native(), "healed set goes native");
    assert_eq!(svc.build_failure(), None);
    assert_eq!(reader.classify(&port_msg(80)), Some(a));
    assert_eq!(reader.classify(&port_msg(9005)), None, "storm set gone");
    let st = svc.stats();
    assert!(
        st.degraded_calls >= 1,
        "the unbuildable sets were served by the interpreter"
    );
    assert!(
        st.native_publishes >= 2,
        "native before and after the storm"
    );
}
