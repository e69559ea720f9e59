//! Concurrent install/remove-under-traffic stress tests for
//! [`dpf::DpfService`]: readers must observe only complete generations
//! (never a torn swap that drops a stable filter), a removed id must
//! never be returned by a classification that started after `remove`
//! returned, and batches must be served by a single generation.

use dpf::packet::{self, PacketSpec};
use dpf::{DpfService, Filter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vcode::regress::XorShift;

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

/// `insert_all`: a whole batch is one build and one generation, under
/// ids consecutive from the next free one, and answers as the
/// `Filter::matches` scan on a generated trace, and an empty batch
/// publishes nothing. (A batch whose build fails is one interpreter
/// generation: `harden/tests/no_exec_memory.rs`.)
#[test]
fn insert_all_is_one_build_and_one_generation() {
    let mut rng = XorShift::new(0x1a5e_b07c);
    let mut ports: Vec<u16> = Vec::new();
    while ports.len() < 33 {
        let p = rng.range(1024, 65_000) as u16;
        if !ports.contains(&p) {
            ports.push(p);
        }
    }
    let batch: Vec<Filter> = ports
        .iter()
        .map(|&p| packet::tcp_port_filter(DST_IP, p).unwrap())
        .collect();

    let svc = DpfService::new();
    let f80 = packet::tcp_port_filter(DST_IP, 80).unwrap();
    let first = svc.insert(f80.clone());
    let before = (svc.generation(), svc.stats().published);
    let ids = svc.insert_all(batch.clone());
    assert_eq!(ids, (first + 1..first + 34).collect::<Vec<u32>>());
    let after = (svc.generation(), svc.stats().published);
    assert_eq!(after, (before.0 + 1, before.1 + 1), "one generation");
    assert!(svc.is_native());

    let resident: Vec<(u32, Filter)> = std::iter::once((first, f80))
        .chain(ids.iter().copied().zip(batch.iter().cloned()))
        .collect();
    let reader = svc.reader();
    for k in 0..2000 {
        let msg = packet::build(&PacketSpec {
            dst_port: match rng.below(3) {
                0 => ports[rng.below(33) as usize],
                1 => 80,
                _ => rng.next_u64() as u16,
            },
            dst_ip: if rng.below(8) == 0 {
                DST_IP + 1
            } else {
                DST_IP
            },
            proto: if rng.below(8) == 0 {
                packet::IPPROTO_UDP
            } else {
                packet::IPPROTO_TCP
            },
            ..PacketSpec::default()
        });
        let want = resident
            .iter()
            .find(|(_, f)| f.matches(&msg))
            .map(|(id, _)| *id);
        assert_eq!(reader.classify(&msg), want, "packet {k}");
    }

    assert_eq!(svc.insert_all(Vec::new()), Vec::<u32>::new());
    assert_eq!(
        (svc.generation(), svc.stats().published),
        after,
        "empty batch"
    );
    assert_eq!(svc.insert_all(batch[..1].to_vec()), vec![first + 34]);
}
