//! Degradation under a real failure: executable memory refused.
//!
//! Code sizes itself (the lowering scratch grows until the code fits),
//! so the failure left for a native build is the one the system cannot
//! talk its way out of: no executable memory. Each scenario refuses it with
//! [`harden::with_no_new_exec_memory`] around single mutations and
//! compiles, and requires every client to keep answering correctly on
//! its interpreter, with the failure typed, and to heal once memory is
//! back.
//!
//! One test, in a process of its own: the limit is process-wide, and it
//! also refuses any write that grows a file, which is what the test
//! harness's own output is when it goes to one. A second test would
//! print its result while this one holds the limit.

use ash::{EngineKind, Pipeline, Step};
use dpf::packet::{self, PacketSpec};
use dpf::{DpfService, FilterBuilder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vcode::engine::{Engine, EngineError, Program, TargetId};
use vcode::BinOp;

const DST_IP: u32 = 0x0a00_0002;

#[test]
fn every_client_degrades_without_exec_memory_and_heals_with_it() {
    a_dpf_install_degrades_then_heals_once_memory_is_back();
    a_degraded_generation_answers_as_native_code_does();
    update_storm_alternating_refused_and_allowed_rounds();
    builder_failure_mid_swap_keeps_serving();
    an_ash_pipeline_falls_back_to_the_interpreter();
    an_engine_compile_is_a_typed_error();
}

/// Runs `f` with no new executable memory, so every native build inside
/// it fails: nothing caches a classifier or kernel to fall back on.
fn refused<T>(f: impl FnOnce() -> T) -> T {
    harden::with_no_new_exec_memory(f)
}

/// `f`, [`refused`] when `refuse` is set.
fn refused_if<T>(refuse: bool, f: impl FnOnce() -> T) -> T {
    if refuse {
        refused(f)
    } else {
        f()
    }
}

fn port_msg(port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        dst_port: port,
        ..PacketSpec::default()
    })
}

/// An install that cannot map its classifier publishes an interpreter
/// generation with a typed failure on record, which classifies hits,
/// misses and truncated packets as native code would; retries wait out
/// a doubling backoff; and once memory is back the next due retry heals
/// the service to native.
fn a_dpf_install_degrades_then_heals_once_memory_is_back() {
    let svc = DpfService::new();
    let reader = svc.reader();
    let ids = refused(|| svc.insert_all(packet::port_filter_set(6, 3000)));
    assert_eq!(ids, (0..6).collect::<Vec<u32>>());
    assert!(!svc.is_native());
    let st = svc.stats();
    assert_eq!(
        (st.published, st.degraded_publishes, st.native_publishes),
        (1, 1, 0),
        "one build, one generation"
    );
    let first = svc.build_failure().expect("the failed build is on record");
    assert_eq!(first.failures, 1);
    assert!(
        first.last_error.contains("executable memory"),
        "{}",
        first.last_error
    );
    let check = || {
        for (i, id) in ids.iter().enumerate() {
            let port = 3000 + i as u16;
            assert_eq!(reader.classify(&port_msg(port)), Some(*id), "port {port}");
        }
        let miss = port_msg(9999);
        assert_eq!(reader.classify(&miss), None);
        assert_eq!(reader.classify(&miss[..11]), None);
        assert_eq!(reader.classify(&[]), None);
    };
    check();

    // Inside the backoff `poll_upgrade` does not rebuild; once it has
    // run out it does, and a second failure doubles the wait.
    assert!(!refused(|| svc.poll_upgrade()));
    assert_eq!(svc.build_failure().unwrap().failures, 1, "retried early");
    std::thread::sleep(first.retry_in);
    assert!(!refused(|| svc.flush(Duration::ZERO)));
    let second = svc.build_failure().unwrap();
    assert_eq!(second.failures, 2);
    assert!(second.retry_in > first.retry_in, "backoff did not double");
    check();
    // Each interpreted classification is counted once: `check` makes
    // nine, twice.
    let st = svc.stats();
    assert_eq!(st.degraded_calls, 2 * 9);
    assert_eq!(
        (st.published, st.degraded_publishes),
        (1, 1),
        "a failed retry republishes nothing"
    );

    // Memory is back: the next due retry goes native.
    assert!(!svc.poll_upgrade(), "retried inside its backoff");
    std::thread::sleep(second.retry_in);
    assert!(svc.poll_upgrade(), "{:?}", svc.build_failure());
    assert!(svc.is_native());
    assert_eq!(svc.build_failure(), None);
    check();
    let st = svc.stats();
    assert_eq!(
        (st.published, st.degraded_publishes, st.native_publishes),
        (2, 1, 1)
    );
    assert_eq!(st.degraded_calls, 2 * 9, "native code counted as degraded");
}

/// A generation whose native build failed answers as native code does:
/// with the IP-only filter a prefix of the port filter, both pick the
/// port filter for port 80 and the prefix for port 99.
fn a_degraded_generation_answers_as_native_code_does() {
    let filters = [
        FilterBuilder::new().eq_u16(12, 0x0800).build().unwrap(),
        packet::tcp_port_filter(DST_IP, 80).unwrap(),
    ];
    let degraded = DpfService::new();
    refused(|| degraded.insert_all(filters.clone()));
    let native = DpfService::new();
    native.insert_all(filters);
    assert!(native.is_native());
    assert!(!degraded.is_native());
    for port in [80, 99] {
        assert_eq!(
            degraded.classify(&port_msg(port)),
            native.classify(&port_msg(port)),
            "port {port}"
        );
    }
}

/// Insert/remove storm with a reader classifying throughout, rounds
/// alternating between refused and allowed executable memory: a refused
/// mutation publishes the interpreter with a typed failure, an allowed
/// one publishes native, and every classification is right either way.
fn update_storm_alternating_refused_and_allowed_rounds() {
    let svc = Arc::new(DpfService::new());
    let base_ids = svc.insert_all(packet::port_filter_set(4, 2000));
    assert!(svc.is_native());
    let done = Arc::new(AtomicBool::new(false));
    let traffic = {
        let (svc, done, base_ids) = (Arc::clone(&svc), Arc::clone(&done), base_ids.clone());
        std::thread::spawn(move || {
            let reader = svc.reader();
            let msgs: Vec<Vec<u8>> = (0..4).map(|i| port_msg(2000 + i)).collect();
            let mut k = 0usize;
            while !done.load(Ordering::SeqCst) {
                let m = k % 4;
                assert_eq!(reader.classify(&msgs[m]), Some(base_ids[m]), "base lost");
                k += 1;
            }
        })
    };
    for round in 0..6u16 {
        let refuse = round % 2 == 0;
        let served = |what: &str| {
            assert_eq!(svc.is_native(), !refuse, "round {round}, {what}");
            let failed = svc.build_failure().is_some();
            assert_eq!(failed, refuse, "round {round}, {what}");
        };
        let port = 3000 + round;
        let f = packet::tcp_port_filter(DST_IP, port).unwrap();
        let id = refused_if(refuse, || svc.insert(f));
        served("insert");
        assert_eq!(svc.classify(&port_msg(port)), Some(id), "round {round}");
        refused_if(refuse, || svc.poll_upgrade());
        served("poll");
        assert!(refused_if(refuse, || svc.remove(id)));
        served("remove");
        assert_eq!(svc.classify(&port_msg(port)), None, "round {round}");
    }
    done.store(true, Ordering::SeqCst);
    traffic.join().expect("reader panicked");
    let st = svc.stats();
    assert_eq!(st.seq, 1 + 6 * 2, "every mutation published");
    assert_eq!(st.published, st.seq, "and only once");
    assert_eq!(
        st.degraded_publishes,
        3 * 2,
        "the refused rounds' mutations"
    );
}

/// Builder failure mid-swap: a native service whose next sets cannot be
/// mapped keeps serving — the interpreter for each new set, the old
/// filter in it — with a typed failure record, and the first mutation
/// with memory back goes native again.
fn builder_failure_mid_swap_keeps_serving() {
    let svc = DpfService::new();
    let reader = svc.reader();
    let a = svc.insert(packet::tcp_port_filter(DST_IP, 80).unwrap());
    assert!(svc.is_native());
    let storm_ids: Vec<u32> = packet::port_filter_set(64, 9000)
        .into_iter()
        .map(|f| refused(|| svc.insert(f)))
        .collect();
    assert_eq!(reader.classify(&port_msg(9005)), Some(storm_ids[5]));
    assert_eq!(reader.classify(&port_msg(80)), Some(a), "old filter kept");
    assert!(!svc.is_native());
    let failure = svc.build_failure().expect("typed failure");
    assert_eq!(failure.failures, 1, "a new set is a new record");
    assert!(
        failure.retry_in > Duration::ZERO,
        "retried inside its backoff"
    );

    for id in storm_ids {
        assert!(svc.remove(id));
        assert!(svc.is_native(), "a mutation with memory back goes native");
    }
    assert_eq!(svc.build_failure(), None);
    assert_eq!(reader.classify(&port_msg(80)), Some(a));
    assert_eq!(reader.classify(&port_msg(9005)), None, "storm set gone");
    let st = svc.stats();
    assert!(st.degraded_calls >= 1, "the unmapped sets were interpreted");
    assert_eq!(st.native_publishes, 1 + 64);
}

/// An ASH pipeline whose kernel cannot be mapped runs on the
/// interpreter and computes what the separate passes do.
fn an_ash_pipeline_falls_back_to_the_interpreter() {
    for steps in [
        vec![],
        vec![Step::Checksum],
        vec![Step::Swap],
        vec![Step::Checksum, Step::Swap],
    ] {
        let p = refused(|| Pipeline::compile(&steps)).expect("the interpreter always builds");
        assert_eq!(p.engine_kind(), EngineKind::Interpreter, "{steps:?}");
        assert_eq!((p.code_len, p.entry_addr()), (0, None));
        for n in [0usize, 4, 16, 100, 1024] {
            let src: Vec<u8> = (0..n).map(|i| (i * 131 + 7) as u8).collect();
            let (mut got, mut want) = (vec![0u8; n], vec![0u8; n]);
            let ck = p.run(&src, &mut got);
            assert_eq!(
                ck,
                ash::separate(&steps, &src, &mut want),
                "{steps:?} n={n}"
            );
            assert_eq!(got, want, "{steps:?} n={n}");
        }
        let p = Pipeline::compile(&steps).unwrap();
        assert_eq!(p.engine_kind(), EngineKind::Native, "{steps:?}");
    }
}

/// An engine compile that cannot map its code is a typed error, and the
/// same program compiles once memory is back.
fn an_engine_compile_is_a_typed_error() {
    let mut engine = Engine::new(8);
    engine.register(Arc::new(vcode_x64::X64Backend));
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    p.ret(2);
    let r = refused(|| engine.compile(TargetId::X64, &p));
    assert!(matches!(r, Err(EngineError::Exec(_))), "{:?}", r.err());
    let r = refused(|| engine.compile_cached(TargetId::X64, &p));
    assert!(r.is_err(), "a refused miss is an error, not a hang");
    let f = engine.compile_cached(TargetId::X64, &p).unwrap();
    assert_eq!(f.call(&[40, 2]).unwrap(), 42);
}
