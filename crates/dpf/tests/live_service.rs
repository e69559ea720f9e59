//! Concurrent install/remove-under-traffic stress tests for
//! [`dpf::DpfService`]: readers must observe only complete generations
//! (never a torn swap that drops a stable filter), a removed id must
//! never be returned by a classification that started after `remove`
//! returned, and batches must be served by a single generation.

use dpf::packet::{self, PacketSpec};
use dpf::{ClassifyError, Dpf, DpfService};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn port_msg(port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        dst_port: port,
        ..PacketSpec::default()
    })
}

const DST_IP: u32 = 0x0a00_0002;

/// The headline interleaving test: a writer storms insert/remove on one
/// "churn" port while readers hammer classification on a stable filter
/// set and the churn port, batched and unbatched, checking three
/// invariants on every observation:
///
/// 1. **No torn swap** — every stable port classifies to its exact id
///    in every generation.
/// 2. **No stale positive** — a churn id whose `remove` returned before
///    the read began is never returned.
/// 3. **Untorn batches** — a batch mixing stable ports is answered by
///    one generation, and the observed generation sequence never goes
///    backwards on a single reader.
#[test]
fn install_remove_under_traffic() {
    const STABLE: u16 = 8;
    const ROUNDS: u64 = 40;
    const READERS: usize = 3;
    const CHURN_PORT: u16 = 6000;

    let svc = Arc::new(DpfService::new());
    let stable_ids: Vec<u32> = packet::port_filter_set(STABLE, 5000)
        .into_iter()
        .map(|f| svc.insert(f))
        .collect();

    // Highest churn id whose removal has been published (plus one; 0 =
    // none yet). Any classification started after the store must not
    // return an id <= this floor (ids are never reused).
    let removed_floor = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let svc = Arc::clone(&svc);
        let removed_floor = Arc::clone(&removed_floor);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let id = svc.insert(packet::tcp_port_filter(DST_IP, CHURN_PORT).unwrap());
                // Let traffic see the new filter before tearing it
                // back down.
                std::thread::sleep(Duration::from_micros(300));
                assert!(svc.remove(id));
                // `remove` has returned: the id is gone from the
                // published generation.
                removed_floor.store(u64::from(id) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(100));
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let removed_floor = Arc::clone(&removed_floor);
            let done = Arc::clone(&done);
            let stable_ids = stable_ids.clone();
            std::thread::spawn(move || {
                let reader = svc.reader();
                let stable_msgs: Vec<Vec<u8>> = (0..STABLE).map(|i| port_msg(5000 + i)).collect();
                let churn_msg = port_msg(CHURN_PORT);
                let mut last_seq = 0u64;
                let mut i = r; // desynchronize readers
                while !done.load(Ordering::SeqCst) {
                    // Invariant 1: stable filters always classify.
                    let k = i % stable_msgs.len();
                    assert_eq!(
                        reader.classify(&stable_msgs[k]),
                        Some(stable_ids[k]),
                        "torn generation: stable filter missing"
                    );
                    // Invariant 2: no stale positives on the churn port.
                    let floor = removed_floor.load(Ordering::SeqCst);
                    if let Some(id) = reader.classify(&churn_msg) {
                        assert!(
                            u64::from(id) + 1 > floor,
                            "removed id {id} returned after its removal \
                             published (floor {floor})"
                        );
                    }
                    // Invariant 3: untorn, monotone batches.
                    if i % 7 == 0 {
                        let refs: Vec<&[u8]> = stable_msgs.iter().map(|m| m.as_slice()).collect();
                        let (seq, out) = reader.classify_batch_seq(&refs);
                        assert!(seq >= last_seq, "generation sequence went backwards");
                        last_seq = seq;
                        for (k, got) in out.iter().enumerate() {
                            assert_eq!(*got, Some(stable_ids[k]), "torn batch");
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for r in readers {
        r.join().expect("reader panicked");
    }

    // Quiesce: the final set is just the stable filters; the churn id
    // stays gone and the service is on native code.
    assert!(svc.is_native());
    let reader = svc.reader();
    assert_eq!(reader.classify(&port_msg(CHURN_PORT)), None);
    assert_eq!(reader.classify(&port_msg(5003)), Some(stable_ids[3]));
    let st = svc.stats();
    assert_eq!(st.seq, u64::from(STABLE) + 2 * ROUNDS);
    assert_eq!(st.published, st.seq, "every mutation published, once");
    // Retired generations drain once readers are quiescent.
    svc.poll_upgrade();
    assert_eq!(svc.stats().retired_backlog, 0, "reclaim stuck");
}

/// Readers registered while generations churn never block reclamation
/// forever, and dropping readers mid-storm is safe.
#[test]
fn reader_churn_during_updates() {
    let svc = Arc::new(DpfService::new());
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..30 {
                let id = svc.insert(packet::tcp_port_filter(DST_IP, 4000).unwrap());
                svc.remove(id);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let spawners: Vec<_> = (0..2)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let msg = port_msg(4000);
                while !done.load(Ordering::SeqCst) {
                    // Fresh reader every iteration: registration,
                    // classification, deregistration all race the swaps.
                    let reader = svc.reader();
                    let _ = reader.classify(&msg);
                    let second = reader.clone();
                    let _ = second.classify_batch(&[msg.as_slice()]);
                }
            })
        })
        .collect();
    writer.join().expect("writer panicked");
    for s in spawners {
        s.join().expect("reader panicked");
    }
    svc.poll_upgrade();
    let st = svc.stats();
    assert_eq!(st.readers, 0);
    assert_eq!(st.retired_backlog, 0);
}

/// Satellite regression: the non-service `Dpf` no longer panics on a
/// stale or never-compiled set, and `remove` without recompile is not
/// a stale positive — the resident interpreter serves the new set.
#[test]
fn plain_dpf_stale_set_degrades_not_panics() {
    // Never compiled: classify is live (interpreter), try_classify is
    // a typed error.
    let mut d = Dpf::new();
    assert_eq!(d.classify(&port_msg(80)), None);
    assert_eq!(
        d.try_classify(&port_msg(80)),
        Err(ClassifyError::NeverCompiled)
    );
    let a = d.insert(packet::tcp_port_filter(DST_IP, 80).unwrap());
    let b = d.insert(packet::tcp_port_filter(DST_IP, 81).unwrap());
    assert_eq!(d.classify(&port_msg(80)), Some(a), "live before compile");
    assert_eq!(d.engine(), None, "no compile attempted yet");

    d.compile().expect("compiles");
    assert_eq!(d.classify(&port_msg(80)), Some(a));
    assert!(!d.is_stale());

    // The headline stale-positive bug: remove then classify without
    // recompile must not match the removed filter.
    assert!(d.remove(a));
    assert!(d.is_stale());
    assert!(d.compiled().is_none(), "stale compiled set dropped");
    assert_eq!(d.classify(&port_msg(80)), None, "stale positive");
    assert_eq!(d.classify(&port_msg(81)), Some(b), "survivor still matches");
    assert_eq!(
        d.try_classify(&port_msg(80)),
        Err(ClassifyError::Stale {
            inserts: 0,
            removes: 1,
        })
    );

    // Insert is just as live, and the stale counters accumulate.
    let c = d.insert(packet::tcp_port_filter(DST_IP, 82).unwrap());
    assert_eq!(d.classify(&port_msg(82)), Some(c));
    assert_eq!(
        d.try_classify(&port_msg(82)),
        Err(ClassifyError::Stale {
            inserts: 1,
            removes: 1,
        })
    );

    // Recompile restores the strict path.
    d.compile().expect("compiles");
    assert!(!d.is_stale());
    assert_eq!(d.try_classify(&port_msg(82)), Ok(Some(c)));
    assert_eq!(d.try_classify(&port_msg(80)), Ok(None));

    // Batch parity with single classification.
    let msgs = [port_msg(80), port_msg(81), port_msg(82)];
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    assert_eq!(
        d.classify_batch(&refs),
        vec![None, Some(b), Some(c)],
        "batch parity"
    );
}
