//! Cross-engine agreement tests: DPF (compiled), MPF (bytecode) and
//! PATHFINDER (interpreted trie) must classify identically — and all
//! must agree with the filter language's reference semantics.

use dpf::mpf::Mpf;
use dpf::packet::{self, PacketSpec};
use dpf::{CompiledSet, DpfService, FieldSize, Filter, FilterBuilder, Options, Pathfinder};
use vcode::regress::XorShift;

/// The compiled classifier of `filters` under ids 0, 1, ..., built the
/// way the frozen benchmark builds one: `compile` itself, no cache
/// behind it.
fn compiled(filters: &[Filter], opts: Options) -> CompiledSet {
    let set: Vec<(u32, Filter)> = (0..).zip(filters.iter().cloned()).collect();
    dpf::compile::compile(&dpf::trie::build(&set), opts).expect("compiles")
}

/// Runs all engines over a message set and asserts agreement with the
/// reference semantics (first-match for MPF; trie engines use
/// longest-match, so agreement is asserted only for disjoint sets).
fn check_all(filters: &[Filter], messages: &[Vec<u8>]) {
    let dpf = DpfService::new();
    let mut mpf = Mpf::new();
    let mut pf = Pathfinder::new();
    dpf.insert_all(filters.iter().cloned());
    for f in filters {
        mpf.insert(f);
        pf.insert(f.clone());
    }
    assert!(dpf.is_native(), "{:?}", dpf.build_failure());
    let dpf = dpf.reader();
    for (k, msg) in messages.iter().enumerate() {
        let reference = filters
            .iter()
            .position(|f| f.matches(msg))
            .map(|i| i as u32);
        assert_eq!(mpf.classify(msg), reference, "mpf msg {k}");
        assert_eq!(pf.classify(msg), reference, "pathfinder msg {k}");
        assert_eq!(dpf.classify(msg), reference, "dpf msg {k}");
    }
}

#[test]
fn ten_tcp_filters_table3_setup() {
    let filters = packet::port_filter_set(10, 1000);
    let mut msgs = Vec::new();
    for port in 990..1020 {
        msgs.push(packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        }));
    }
    // Non-TCP, non-IP, wrong dst.
    msgs.push(packet::build(&PacketSpec {
        proto: packet::IPPROTO_UDP,
        dst_port: 1005,
        ..PacketSpec::default()
    }));
    msgs.push(packet::build(&PacketSpec {
        dst_ip: 0x0a00_0003,
        dst_port: 1005,
        ..PacketSpec::default()
    }));
    let mut arp = msgs[0].clone();
    arp[12] = 0x08;
    arp[13] = 0x06;
    msgs.push(arp);
    check_all(&filters, &msgs);
}

#[test]
fn truncated_messages_never_match_or_crash() {
    let filters = packet::port_filter_set(4, 80);
    let full = packet::build(&PacketSpec {
        dst_port: 81,
        ..PacketSpec::default()
    });
    let mut msgs: Vec<Vec<u8>> = (0..full.len()).map(|n| full[..n].to_vec()).collect();
    msgs.push(full);
    check_all(&filters, &msgs);
}

#[test]
fn empty_message() {
    let filters = packet::port_filter_set(2, 7);
    check_all(&filters, &[vec![]]);
}

#[test]
fn two_filters_linear_dispatch() {
    let filters = packet::port_filter_set(2, 5000);
    let msgs: Vec<Vec<u8>> = (4998..5004)
        .map(|p| {
            packet::build(&PacketSpec {
                dst_port: p,
                ..PacketSpec::default()
            })
        })
        .collect();
    check_all(&filters, &msgs);
}

#[test]
fn sparse_ports_use_bst_dispatch() {
    let ports = [7u16, 113, 1999, 8080, 17000, 40000];
    let filters: Vec<Filter> = ports
        .iter()
        .map(|&p| packet::tcp_port_filter(0x0a00_0002, p).unwrap())
        .collect();
    assert!(compiled(&filters, Options::default()).strategies.bst >= 1);
    let mut msgs = Vec::new();
    for p in [7u16, 8, 113, 8080, 40000, 40001, 12345] {
        msgs.push(packet::build(&PacketSpec {
            dst_port: p,
            ..PacketSpec::default()
        }));
    }
    check_all(&filters, &msgs);
}

#[test]
fn dense_ports_use_jump_table() {
    let filters = packet::port_filter_set(10, 1000);
    let dpf = compiled(&filters, Options::default());
    let s = dpf.strategies;
    assert_eq!(s.table, 1, "dense 10-port set dispatches indirectly: {s:?}");
    // All ten still classify correctly through the table.
    for (i, _) in filters.iter().enumerate() {
        let msg = packet::build(&PacketSpec {
            dst_port: 1000 + i as u16,
            ..PacketSpec::default()
        });
        assert_eq!(dpf.classify(&msg), Some(i as u32));
    }
    // And a port inside the table's range with no filter fails.
    let msg = packet::build(&PacketSpec {
        dst_port: 1010,
        ..PacketSpec::default()
    });
    assert_eq!(dpf.classify(&msg), None);
}

#[test]
fn many_sparse_ports_use_perfect_hash() {
    let mut rng = XorShift::new(42);
    let mut ports: Vec<u16> = Vec::new();
    while ports.len() < 24 {
        let p = rng.range(1, 60000) as u16;
        // Keep the set sparse so the jump-table heuristic rejects it.
        if !ports.contains(&p) {
            ports.push(p);
        }
    }
    let filters: Vec<Filter> = ports
        .iter()
        .map(|&p| packet::tcp_port_filter(0x0a00_0002, p).unwrap())
        .collect();
    let dpf = compiled(&filters, Options::default());
    let s = dpf.strategies;
    assert_eq!(s.hash, 1, "24 sparse keys hash-dispatch: {s:?}");
    for (i, &p) in ports.iter().enumerate() {
        let msg = packet::build(&PacketSpec {
            dst_port: p,
            ..PacketSpec::default()
        });
        assert_eq!(dpf.classify(&msg), Some(i as u32), "port {p}");
    }
    // Random non-resident ports must miss.
    for _ in 0..200 {
        let p = rng.range(1, 60000) as u16;
        if ports.contains(&p) {
            continue;
        }
        let msg = packet::build(&PacketSpec {
            dst_port: p,
            ..PacketSpec::default()
        });
        assert_eq!(dpf.classify(&msg), None, "port {p}");
    }
}

#[test]
fn variable_length_headers_with_shift() {
    let filters = vec![
        packet::tcp_port_filter_var_ihl(80).unwrap(),
        packet::tcp_port_filter_var_ihl(443).unwrap(),
    ];
    let mut msgs = Vec::new();
    for port in [80u16, 443, 81] {
        let p = packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        });
        msgs.push(p.clone());
        // Stretched IP header (IHL = 6).
        let mut q = p;
        q[14] = 0x46;
        for _ in 0..4 {
            q.insert(34, 0);
        }
        msgs.push(q);
    }
    // Truncation around the shifted load.
    let base = msgs[0].clone();
    for cut in 30..base.len() {
        msgs.push(base[..cut].to_vec());
    }
    check_all(&filters, &msgs);
}

#[test]
fn masked_dispatch() {
    // Dispatch on the IP version nibble.
    let v4 = FilterBuilder::new()
        .masked(14, FieldSize::U8, 0xf0, 0x40)
        .build()
        .unwrap();
    let v6 = FilterBuilder::new()
        .masked(14, FieldSize::U8, 0xf0, 0x60)
        .build()
        .unwrap();
    let mut m4 = vec![0u8; 20];
    m4[14] = 0x45;
    let mut m6 = vec![0u8; 20];
    m6[14] = 0x60;
    let mut m0 = vec![0u8; 20];
    m0[14] = 0x20;
    check_all(&[v4, v6], &[m4, m6, m0]);
}

#[test]
fn ablation_options_disable_strategies() {
    let filters = packet::port_filter_set(10, 1000);
    let opts = Options {
        use_jump_tables: false,
        use_hashing: false,
        elide_bounds_checks: false,
    };
    let dpf = compiled(&filters, opts);
    let s = dpf.strategies;
    assert_eq!(s.table, 0);
    assert_eq!(s.hash, 0);
    assert!(s.bst >= 1, "falls back to binary search: {s:?}");
    for i in 0..10u16 {
        let msg = packet::build(&PacketSpec {
            dst_port: 1000 + i,
            ..PacketSpec::default()
        });
        assert_eq!(dpf.classify(&msg), Some(u32::from(i)));
    }
}

#[test]
fn prefix_filter_longest_match_in_trie_engines() {
    let ip_only = FilterBuilder::new().eq_u16(12, 0x0800).build().unwrap();
    let f80 = packet::tcp_port_filter(0x0a00_0002, 80).unwrap();
    let dpf = DpfService::new();
    let id_ip = dpf.insert(ip_only);
    let id_80 = dpf.insert(f80);
    let p80 = packet::build(&PacketSpec::default());
    let p99 = packet::build(&PacketSpec {
        dst_port: 99,
        ..PacketSpec::default()
    });
    assert_eq!(dpf.classify(&p80), Some(id_80), "specific filter wins");
    assert_eq!(dpf.classify(&p99), Some(id_ip), "prefix is the fallback");
}

#[test]
fn fuzz_random_filters_and_messages_agree() {
    let mut rng = XorShift::new(7);
    for round in 0..30 {
        // Random small filters over a 64-byte message space, all with the
        // same atom shape so tries merge (disjointness for first-match
        // consistency is guaranteed by distinct first-atom values).
        let n = rng.range(1, 8) as usize;
        let mut vals: Vec<u8> = Vec::new();
        while vals.len() < n {
            let v = rng.next_u64() as u8;
            if !vals.contains(&v) {
                vals.push(v);
            }
        }
        let filters: Vec<Filter> = vals
            .iter()
            .map(|&v| {
                FilterBuilder::new()
                    .eq_u8(3, v)
                    .eq_u16(10, u16::from(v) ^ 0x55aa)
                    .build()
                    .unwrap()
            })
            .collect();
        let msgs: Vec<Vec<u8>> = (0..100)
            .map(|_| {
                let len = rng.below(64) as usize;
                let mut m = vec![0u8; len];
                rng.fill(&mut m);
                if len > 12 && rng.next_bool() {
                    // Bias toward near-matches.
                    let v = vals[rng.below(vals.len() as u64) as usize];
                    m[3] = v;
                    let w = (u16::from(v) ^ 0x55aa).to_be_bytes();
                    m[10] = w[0];
                    m[11] = w[1];
                }
                m
            })
            .collect();
        check_all(&filters, &msgs);
        let _ = round;
    }
}

#[test]
fn empty_filter_set_compiles_and_rejects() {
    let msg = packet::build(&PacketSpec::default());
    let dpf = compiled(&[], Options::default());
    assert_eq!(dpf.classify(&msg), None);
    assert_eq!(dpf.classify(&[]), None);
    let svc = DpfService::new();
    assert!(svc.is_empty());
    assert_eq!(svc.classify(&msg), None);
}

#[test]
fn large_mixed_filter_set_uses_multiple_strategies() {
    let mut rng = XorShift::new(99);
    let mut filters: Vec<Filter> = Vec::new();
    let mut expected: Vec<(Vec<u8>, u32)> = Vec::new();
    let mut insert = |f: Filter| {
        filters.push(f);
        filters.len() as u32 - 1
    };
    // Dense port block → jump table.
    for i in 0..12u16 {
        let f = packet::tcp_port_filter(0x0a00_0002, 2000 + i).unwrap();
        let id = insert(f);
        let msg = packet::build(&PacketSpec {
            dst_port: 2000 + i,
            ..PacketSpec::default()
        });
        expected.push((msg, id));
    }
    // Sparse ports on a different dst IP → hash or bst under the same
    // shared prefix.
    let mut sparse: Vec<u16> = Vec::new();
    while sparse.len() < 20 {
        let p = rng.range(10_000, 60_000) as u16;
        if !sparse.contains(&p) {
            sparse.push(p);
        }
    }
    for &p in &sparse {
        let f = packet::tcp_port_filter(0x0a00_0003, p).unwrap();
        let id = insert(f);
        let msg = packet::build(&PacketSpec {
            dst_ip: 0x0a00_0003,
            dst_port: p,
            ..PacketSpec::default()
        });
        expected.push((msg, id));
    }
    // UDP filters, too.
    for i in 0..3u16 {
        let f = FilterBuilder::new()
            .eq_u16(12, 0x0800)
            .eq_u8(23, packet::IPPROTO_UDP)
            .eq_u16(36, 7000 + i)
            .build()
            .unwrap();
        let id = insert(f);
        let msg = packet::build(&PacketSpec {
            proto: packet::IPPROTO_UDP,
            dst_port: 7000 + i,
            ..PacketSpec::default()
        });
        expected.push((msg, id));
    }
    let dpf = compiled(&filters, Options::default());
    let s = dpf.strategies;
    assert!(s.table >= 1, "{s:?}");
    assert!(s.hash + s.bst >= 1, "{s:?}");
    for (msg, id) in &expected {
        assert_eq!(dpf.classify(msg), Some(*id));
    }
    // Random traffic classifies without crashing, matching the reference.
    for _ in 0..500 {
        let msg = packet::build(&PacketSpec {
            dst_ip: if rng.next_bool() {
                0x0a00_0002
            } else {
                0x0a00_0003
            },
            dst_port: rng.next_u64() as u16,
            proto: if rng.below(10) < 8 {
                packet::IPPROTO_TCP
            } else {
                packet::IPPROTO_UDP
            },
            ..PacketSpec::default()
        });
        let _ = dpf.classify(&msg);
    }
}

#[test]
fn sibling_shift_nodes_backtrack_with_clean_base() {
    // Two filters whose *first* atom is a Shift with different
    // parameters: the trie gets two shift siblings at the root. If the
    // first filter's deep compare fails, classification must backtrack
    // to the second with the base offset restored — a polluted base
    // would read the wrong byte.
    use dpf::Atom;
    // Filter 0: base += (msg[0] & 0x0f) << 2, then msg[base+0] == 0xAA.
    let f0 = dpf::Filter::new(vec![
        Atom::Shift {
            offset: 0,
            size: FieldSize::U8,
            mask: 0x0f,
            shift: 2,
        },
        Atom::Cmp {
            offset: 0,
            size: FieldSize::U8,
            mask: 0xff,
            value: 0xaa,
        },
    ])
    .unwrap();
    // Filter 1: base += (msg[1] & 0x07) << 1, then msg[base+0] == 0xBB.
    let f1 = dpf::Filter::new(vec![
        Atom::Shift {
            offset: 1,
            size: FieldSize::U8,
            mask: 0x07,
            shift: 1,
        },
        Atom::Cmp {
            offset: 0,
            size: FieldSize::U8,
            mask: 0xff,
            value: 0xbb,
        },
    ])
    .unwrap();
    // msg[0] = 2 → f0 base 8, msg[8] != 0xAA → f0 fails.
    // msg[1] = 3 → f1 base 6, msg[6] == 0xBB → f1 matches, but only if
    // the base was restored to 0 before f1's shift.
    let mut msg = vec![0u8; 16];
    msg[0] = 2;
    msg[1] = 3;
    msg[6] = 0xbb;
    msg[8] = 0x11;
    assert!(!f0.matches(&msg));
    assert!(f1.matches(&msg));
    check_all(&[f0, f1], &[msg]);
}

#[test]
fn a_writer_storm_is_served_natively_one_generation_per_update() {
    // Build-then-publish, exactly: while a writer installs and removes
    // buildable filter sets, every batch a reader sees is the answer of
    // the `Filter::matches` scan over the set its generation serves, no
    // packet is ever interpreted, and each mutation publishes one
    // generation. A port base no other test in this binary compiles, so
    // every set of the storm is a first-sight build.
    const STABLE: u16 = 10;
    const ROUNDS: u32 = 60;
    const DST_IP: u32 = 0x0a00_0002;
    let stable = packet::port_filter_set(STABLE, 27000);
    // Ids count up from 0 and are never reused, so the set behind a
    // sequence number is a function of it: past the stable installs,
    // odd steps hold round r's churn filter and even steps do not.
    let churn = |r: u32| packet::tcp_port_filter(DST_IP, 27100 + (r % 4) as u16).unwrap();
    let filters_at = |seq: u64| -> Vec<(u32, Filter)> {
        let mut set: Vec<(u32, Filter)> = (0..).zip(stable.iter().cloned()).collect();
        set.truncate(seq.min(u64::from(STABLE)) as usize);
        let step = seq.saturating_sub(u64::from(STABLE));
        if step % 2 == 1 {
            let r = (step / 2) as u32;
            set.push((u32::from(STABLE) + r, churn(r)));
        }
        set
    };
    let mut msgs: Vec<Vec<u8>> = (26995..27015)
        .chain(27098..27106)
        .map(|port| {
            packet::build(&PacketSpec {
                dst_port: port,
                ..PacketSpec::default()
            })
        })
        .collect();
    msgs.push(vec![0u8; 3]); // truncated: matches nothing
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();

    let svc = DpfService::new();
    for f in &stable {
        svc.insert(f.clone());
    }
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let reader = svc.reader();
                let mut batches = 0u32;
                while !done.load(std::sync::atomic::Ordering::SeqCst) || batches < 8 {
                    let (seq, got) = reader.classify_batch_seq(&refs);
                    let set = filters_at(seq);
                    for (k, (m, got)) in refs.iter().zip(got).enumerate() {
                        let want = set.iter().find(|(_, f)| f.matches(m)).map(|(id, _)| *id);
                        assert_eq!(got, want, "msg {k} under generation {seq}");
                    }
                    batches += 1;
                }
            });
        }
        for r in 0..ROUNDS {
            let id = svc.insert(churn(r));
            assert_eq!(id, u32::from(STABLE) + r);
            assert!(svc.remove(id));
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
    });

    let st = svc.stats();
    assert_eq!(svc.generation(), u64::from(STABLE) + 2 * u64::from(ROUNDS));
    assert_eq!(st.published, svc.generation(), "one generation per update");
    assert_eq!(st.native_publishes, st.published);
    assert_eq!(st.degraded_calls, 0, "a reader executed the interpreter");
}

/// Seeded sparse port sets of the sizes the benchmark sweeps, compiled
/// the way it compiles them: `compile` itself, default options.
fn sparse_port_set(n: usize) -> (Vec<u16>, Vec<(u32, Filter)>) {
    let mut rng = XorShift::new(0x5eeb_0000 + n as u64);
    let mut ports = std::collections::BTreeSet::new();
    while ports.len() < n {
        ports.insert(rng.range(1024, 65_000) as u16);
    }
    let ports: Vec<u16> = ports.into_iter().collect();
    let filters = ports
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u32, packet::tcp_port_filter(0x0a00_0002, p).unwrap()))
        .collect();
    (ports, filters)
}

/// Sets of 256 filters and more once never compiled natively: five trie
/// nodes sized a 6.5 KB buffer for 9-36 KB of code, and the overflow
/// then reported itself as `FixupOutOfRange`, which nothing grows a
/// buffer on. Nothing estimates now: the scratch grows until they fit.
#[test]
fn large_sparse_sets_compile_native() {
    for n in [256usize, 512, 1024] {
        let (ports, filters) = sparse_port_set(n);
        let set = dpf::compile::compile(&dpf::trie::build(&filters), dpf::Options::default())
            .unwrap_or_else(|e| panic!("f{n} must compile native: {e}"));
        for (i, &p) in ports.iter().enumerate() {
            let msg = packet::build(&PacketSpec {
                dst_port: p,
                ..PacketSpec::default()
            });
            assert_eq!(set.classify(&msg), Some(i as u32), "f{n} port {p}");
        }
    }
}

/// A buffer too small for the set must fail as `Overflow` (what the
/// install path grows its scratch on), whatever the assembler was doing
/// when it ran out — including recording a fixup past the frozen
/// cursor — or whether the code fit and its tables did not. Each
/// classifier is written by `emit` into half of a capacity below. 1024
/// sparse ports are past what a lookup table may hold and take the
/// 36 KB branch tree; 256 are a lookup of some 140 bytes of code, which
/// a 1 KB buffer holds, and its 64 KiB table, which it does not.
#[test]
fn undersized_buffer_reports_overflow_not_a_fixup_error() {
    let (_, filters) = sparse_port_set(1024);
    let root = dpf::trie::build(&filters);
    let (_, lookup) = sparse_port_set(256);
    let lookup = dpf::trie::build(&lookup);
    let tree_caps = [64usize, 1024, 4096, 6656].map(|cap| (&root, cap));
    let lookup_caps = [16usize, 64, 128, 200, 2048].map(|cap| (&lookup, cap));
    for (root, cap) in tree_caps.into_iter().chain(lookup_caps) {
        let mut buf = vec![0u8; cap / 2];
        match dpf::compile::emit(root, dpf::Options::default(), &mut buf) {
            Err(dpf::CompileError::Codegen(vcode::Error::Overflow { capacity })) => {
                assert_eq!(capacity, cap / 2);
            }
            other => panic!("capacity {cap}: expected Overflow, got {other:?}"),
        }
    }
}

/// On a fresh thread the lowering scratch is one page: the 1024-port
/// classifier (the 36 KB branch tree) grows it until the code fits, and
/// a second compile on the grown scratch writes the same bytes.
#[test]
fn a_classifier_past_one_page_compiles_on_a_fresh_thread() {
    let (ports, filters) = sparse_port_set(1024);
    std::thread::spawn(move || {
        let root = dpf::trie::build(&filters);
        let first = dpf::compile::compile(&root, Options::default()).unwrap();
        let second = dpf::compile::compile(&root, Options::default()).unwrap();
        assert!(first.code_len > 8 * 4096, "{} bytes", first.code_len);
        assert_eq!(first.code_bytes(), second.code_bytes());
        for (i, &p) in ports.iter().enumerate().step_by(97) {
            let msg = packet::build(&PacketSpec {
                dst_port: p,
                ..PacketSpec::default()
            });
            assert_eq!(second.classify(&msg), Some(i as u32), "port {p}");
        }
    })
    .join()
    .expect("compiles on a fresh thread");
}

/// The perfect-hash search is skipped only where it is hopeless, and it
/// looks in tables of four slots a key and up: 64 keys, which 128 slots
/// never held and which took the branch tree, hash like 16, 33 and 40 do
/// (the policy itself is unit-tested beside `gen_hash`).
#[test]
fn perfect_hash_search_runs_where_it_can_succeed() {
    for n in [16usize, 33, 40] {
        let (_, filters) = sparse_port_set(n);
        let set =
            dpf::compile::compile(&dpf::trie::build(&filters), dpf::Options::default()).unwrap();
        assert_eq!(set.strategies.hash, 1, "f{n}: {:?}", set.strategies);
    }
    let (ports, filters) = sparse_port_set(64);
    let root = dpf::trie::build(&filters);
    let set = dpf::compile::compile(&root, dpf::Options::default()).unwrap();
    assert_eq!((set.strategies.hash, set.strategies.bst), (1, 0));
    for (i, &p) in ports.iter().enumerate() {
        let msg = packet::build(&PacketSpec {
            dst_port: p,
            ..PacketSpec::default()
        });
        assert_eq!(set.classify(&msg), Some(i as u32), "port {p}");
    }
}

/// A node with one arm that is not a leaf hashes like a set of leaves:
/// the one search finds a multiplier for its 64 keys, and the table
/// holds each arm's distance back from the data base instead of an id.
/// (Code dispatch had a search of its own, over two slots a key, which
/// gave up on 64 keys and took the branch tree.) The classifier answers
/// like the `Filter::matches` scan, MPF, PATHFINDER and the trie on every
/// key, on the code arm's packet with its second field matching and not,
/// on random misses, and on the fields an empty slot may hold.
#[test]
fn a_sparse_node_with_one_code_arm_hashes() {
    let (ports, _) = sparse_port_set(64);
    let code_arm = ports[32];
    let filters: Vec<Filter> = ports
        .iter()
        .map(|&p| {
            let f = FilterBuilder::new()
                .eq_u16(packet::ETH_TYPE_OFF, packet::ETHERTYPE_IP)
                .eq_u8(packet::IP_PROTO_OFF, packet::IPPROTO_TCP)
                .eq_u16(packet::DST_PORT_OFF, p);
            let f = if p == code_arm {
                f.eq_u8(packet::DST_PORT_OFF + 10, 0x50)
            } else {
                f
            };
            f.build().unwrap()
        })
        .collect();
    let port_msg = |port: u16| {
        packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        })
    };
    let mut rng = XorShift::new(0xc0de_0a53);
    let mut msgs: Vec<Vec<u8>> = ports
        .iter()
        .copied()
        .chain((0..64u16).map(u16::swap_bytes))
        .chain([0xffff])
        .chain((0..200).map(|_| rng.next_u64() as u16))
        .map(port_msg)
        .collect();
    let mut long_header = port_msg(code_arm);
    long_header[packet::DST_PORT_OFF as usize + 10] = 0x60;
    msgs.push(long_header);
    check_all(&filters, &msgs);

    let set: Vec<(u32, Filter)> = (0..).zip(filters).collect();
    let root = dpf::trie::build(&set);
    let native = dpf::compile::compile(&root, Options::default()).unwrap();
    let s = native.strategies;
    assert_eq!((s.hash, s.bst), (1, 0), "{s:?}");
    for (k, m) in msgs.iter().enumerate() {
        assert_eq!(native.classify(m), root.classify(m, 0), "msg {k}");
    }
}

/// The decoded instructions of a compiled classifier, from its entry.
fn decoded(set: &CompiledSet) -> Vec<(Vec<u8>, vcode::verify::DecodedInsn)> {
    use vcode::verify::InsnDecoder;
    let code = set.code_bytes();
    let mut insns = Vec::new();
    let mut at = 0;
    while at < code.len() {
        let insn = vcode_x64::declen::Decoder
            .decode(code, at)
            .unwrap_or_else(|| panic!("undecodable at {at:#x}"));
        insns.push((code[at..at + insn.len].to_vec(), insn));
        at += insn.len;
    }
    assert_eq!(at, code.len());
    insns
}

/// How many of a classifier's instructions compare the message length
/// (`rsi`) with a constant: `cmp rsi, imm8` or `cmp rsi, imm32`.
fn length_checks(set: &CompiledSet) -> usize {
    decoded(set)
        .iter()
        .filter(|(b, _)| {
            b.len() >= 3 && b[0] == 0x48 && (b[1] == 0x83 || b[1] == 0x81) && b[2] == 0xfe
        })
        .count()
}

/// The packet-to-id path of a set of leaves is data: the 33 sparse ports
/// of the benchmark's resident set compile to one length check, the
/// shared header compares, one hash, one load of the `[key, id]` pair
/// from the data base, one key compare and the id shifted out — 26
/// VCODE instructions whatever the ports are, no indirect jump, no
/// per-port code, and no frame: the classifier is a leaf that saves
/// nothing, so it has no `push rbp` or `leave`, and each of its two
/// returns is a `ret` in place.
#[test]
fn a_set_of_leaves_is_dispatched_by_data() {
    let (ports, filters) = sparse_port_set(33);
    let set = dpf::compile::compile(&dpf::trie::build(&filters), dpf::Options::default()).unwrap();
    assert_eq!(set.vcode_insns, 26);
    assert!(set.code_len <= 150, "{} bytes", set.code_len);
    assert_eq!(set.code_bytes().len(), set.code_len);
    assert_eq!(set.strategies.hash, 1, "{:?}", set.strategies);
    assert_eq!(length_checks(&set), 1);
    // Decoded from its first instruction, the only control transfers
    // without an encoded target are the two `ret`s.
    let insns = decoded(&set);
    let indirect: Vec<&[u8]> = insns
        .iter()
        .filter(|(_, i)| i.control && i.target.is_none())
        .map(|(b, _)| &b[..])
        .collect();
    assert_eq!(indirect, [[0xc3], [0xc3]]);
    assert!(
        insns.iter().all(|(b, _)| b[0] != 0x55 && b[0] != 0xc9),
        "push rbp / leave"
    );
    for (i, &p) in ports.iter().enumerate() {
        let msg = packet::build(&PacketSpec {
            dst_port: p,
            ..PacketSpec::default()
        });
        assert_eq!(set.classify(&msg), Some(i as u32), "port {p}");
    }
}

/// One length check covers what a node's whole subtree needs, so it has
/// to fail exactly the packets the node could not accept. Every packet of
/// each set, cut at every length, classifies alike compiled, by the
/// `Filter::matches` scan, by MPF and by PATHFINDER — on sets where a
/// level accepts above deeper nodes (the shared header alone), where the
/// root dispatches IP beside ARP and has a sibling node, and where a
/// `Shift` makes the checks below it dynamic. Without elision the
/// classifier checks once per field instead, and answers the same.
#[test]
fn every_truncation_classifies_alike_with_one_check_per_subtree() {
    let port = |port: u16| {
        packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        })
    };
    let header = || {
        FilterBuilder::new()
            .eq_u16(packet::ETH_TYPE_OFF, packet::ETHERTYPE_IP)
            .eq_u8(packet::IP_PROTO_OFF, packet::IPPROTO_TCP)
    };
    let arp = |op: u8| {
        let mut m = port(80);
        m[13] = 0x06;
        m[21] = op;
        m
    };
    let mut stretched = port(443);
    stretched[14] = 0x46;
    stretched.splice(34..34, [0; 4]);
    // (filters, messages, length checks elided and not)
    let sets = vec![
        // Ports, then their shared header alone: the level after the
        // protocol accepts above the address node, so 24 bytes may
        // accept and 38 may match a port.
        (
            [80, 81, 443, 8080]
                .map(|p| packet::tcp_port_filter(0x0a00_0002, p).unwrap())
                .into_iter()
                .chain([FilterBuilder::new()
                    .eq_u16(packet::ETH_TYPE_OFF, packet::ETHERTYPE_IP)
                    .masked(packet::ETH_LEN, FieldSize::U8, 0xf0, 0x40)
                    .eq_u8(packet::IP_PROTO_OFF, packet::IPPROTO_TCP)
                    .build()
                    .unwrap()])
                .collect(),
            vec![port(80), port(8080), port(99)],
            2,
            5,
        ),
        // IP beside ARP at the root's one node, and a second root node
        // on the first byte of the destination MAC.
        (
            vec![
                packet::tcp_port_filter(0x0a00_0002, 80).unwrap(),
                FilterBuilder::new()
                    .eq_u16(packet::ETH_TYPE_OFF, 0x0806)
                    .eq_u8(21, 2)
                    .build()
                    .unwrap(),
                FilterBuilder::new().eq_u8(0, 0x33).build().unwrap(),
            ],
            vec![port(80), arp(1), arp(2), {
                let mut m = arp(3);
                m[0] = 0x33;
                m
            }],
            3,
            7,
        ),
        // Shifts, and the header alone.
        (
            [80, 443]
                .map(|p| packet::tcp_port_filter_var_ihl(p).unwrap())
                .into_iter()
                .chain([header().build().unwrap()])
                .collect(),
            vec![port(80), port(443), stretched, port(99)],
            1,
            3,
        ),
    ];
    for (k, (filters, full, elided, every)) in sets.into_iter().enumerate() {
        let msgs: Vec<Vec<u8>> = full
            .iter()
            .flat_map(|m| (0..=m.len()).map(|n| m[..n].to_vec()))
            .collect();
        check_all(&filters, &msgs);
        let set = compiled(&filters, Options::default());
        let unelided = compiled(
            &filters,
            Options {
                elide_bounds_checks: false,
                ..Options::default()
            },
        );
        assert_eq!(
            (length_checks(&set), length_checks(&unelided)),
            (elided, every),
            "set {k}"
        );
        for m in &msgs {
            assert_eq!(unelided.classify(m), set.classify(m), "set {k}: {m:?}");
        }
    }
}

/// Generated sets on each side of the data dispatch — every arm a leaf
/// behind a hash (16-bit, masked and 32-bit fields, and behind a
/// `Shift`), every arm a leaf in a dense range with holes, and one arm
/// that is not a leaf behind a hash and in a dense range (the table holds
/// the arms' code) — classify alike in all three engines and the
/// `Filter::matches` scan, on every key, on random misses, and on the
/// fields an empty table slot could hold: the lowest few values as
/// loaded, single high bits, and all ones, and on truncated packets.
/// (The scan takes the first match and the tries the longest, which
/// agree while the one filter that is a prefix of the others comes
/// last.)
#[test]
fn data_dispatch_agrees_with_every_engine_on_generated_sets() {
    let mut rng = XorShift::new(0xda7a_d15b);
    let port_msg = |port: u16| {
        packet::build(&PacketSpec {
            dst_port: port,
            ..PacketSpec::default()
        })
    };
    for round in 0..42 {
        let n = rng.range(17, 90) as usize;
        let mut keys: Vec<u16> = Vec::new();
        while keys.len() < n {
            let k = match round % 7 {
                // Dense with holes: two ports in three of a short range.
                1 | 6 => 2000 + rng.below(3 * n as u64 / 2) as u16,
                // Distinct under the mask 0x0ff0.
                4 => (rng.below(256) as u16) << 4,
                _ => rng.next_u64() as u16,
            };
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let header = || {
            FilterBuilder::new()
                .eq_u16(packet::ETH_TYPE_OFF, packet::ETHERTYPE_IP)
                .eq_u8(packet::IP_PROTO_OFF, packet::IPPROTO_TCP)
        };
        let mut filters: Vec<Filter> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| match round % 7 {
                // One arm goes on to the TCP data-offset byte.
                2 | 6 if i == n / 2 => header()
                    .eq_u16(packet::DST_PORT_OFF, k)
                    .eq_u8(packet::DST_PORT_OFF + 10, 0x50)
                    .build(),
                // A 32-bit key: the destination address, made of the
                // port twice so its bytes differ.
                3 => header()
                    .eq_u32(packet::IP_DST_OFF, u32::from(k) << 16 | u32::from(!k))
                    .build(),
                4 => header()
                    .masked(packet::DST_PORT_OFF, FieldSize::U16, 0x0ff0, u32::from(k))
                    .build(),
                5 => packet::tcp_port_filter_var_ihl(k),
                _ => header().eq_u16(packet::DST_PORT_OFF, k).build(),
            })
            .collect::<Result<_, _>>()
            .unwrap();
        // Half the sets end with a filter of the shared header alone: a
        // miss in the table has to come back for it, not return.
        if round >= 21 {
            filters.push(header().build().unwrap());
        }
        // What an empty slot may hold is a small value as loaded, i.e.
        // byte-swapped on the wire.
        let edge16 = (0..64u16).map(u16::swap_bytes).chain([0xffff]);
        let mut msgs: Vec<Vec<u8>> = if round % 7 == 3 {
            let ip_msg = |ip: u32| {
                packet::build(&PacketSpec {
                    dst_ip: ip,
                    ..PacketSpec::default()
                })
            };
            let edge32 = (0..64u32)
                .chain((16..32).map(|k| 1 << k))
                .map(u32::swap_bytes)
                .chain([u32::MAX]);
            keys.iter()
                .map(|&k| u32::from(k) << 16 | u32::from(!k))
                .chain(edge32)
                .chain((0..200).map(|_| rng.next_u64() as u32))
                .map(ip_msg)
                .collect()
        } else {
            keys.iter()
                .copied()
                .chain(edge16)
                .chain((0..200).map(|_| rng.next_u64() as u16))
                .map(port_msg)
                .collect()
        };
        // A stretched IP header for the `Shift` sets, and every cut of
        // it and of the first key's packet.
        let mut long = msgs[0].clone();
        long[14] = 0x46;
        long.splice(34..34, [0; 4]);
        let cuts: Vec<Vec<u8>> = [&msgs[0], &long]
            .iter()
            .flat_map(|m| (0..m.len()).map(|n| m[..n].to_vec()))
            .collect();
        msgs.push(long);
        msgs.extend(cuts);
        check_all(&filters, &msgs);

        let set = compiled(&filters, Options::default());
        let s = set.strategies;
        let want = if matches!(round % 7, 1 | 6) {
            (1, 0)
        } else {
            (0, 1)
        };
        assert_eq!(
            (s.table, s.hash, s.bst),
            (want.0, want.1, 0),
            "round {round}: {s:?}"
        );
        // Per-arm code is what tells the mixed node from the others.
        let mixed = matches!(round % 7, 2 | 6);
        assert_eq!(set.vcode_insns > 50, mixed, "round {round}");
    }
}

/// Which dispatch a compiled set must have used.
type Uses = fn(&dpf::Strategies) -> bool;

/// Native code returns a filter id in the low word of its result, so
/// every id a service hands out classifies natively: one from
/// `0x8000_0000` up to `0xffff_fffe` is returned alike by the compiled
/// set and by the trie interpreter, on the single-compare path (the id
/// an immediate), the id-table path and the lookup path (the id loaded
/// from a table).
#[test]
fn a_filter_id_above_i32_max_classifies_natively() {
    let (sparse, _) = sparse_port_set(33);
    let dense: Vec<u16> = (4000..4020).collect();
    let paths: [(&[u16], Uses); 3] = [
        (&dense[..1], |s| (s.table, s.hash) == (0, 0)),
        (&dense, |s| s.table == 1),
        (&sparse, |s| s.hash == 1),
    ];
    for (ports, path) in paths {
        let n = ports.len() as u32;
        for first in [0x8000_0000, 0xc000_0000, 0xffff_fffe - (n - 1)] {
            let set: Vec<(u32, Filter)> = (first..)
                .zip(ports)
                .map(|(id, &p)| (id, packet::tcp_port_filter(0x0a00_0002, p).unwrap()))
                .collect();
            let root = dpf::trie::build(&set);
            let native = dpf::compile::compile(&root, Options::default()).expect("compiles");
            assert!(path(&native.strategies), "{:?}", native.strategies);
            for (&(id, _), &p) in set.iter().zip(ports) {
                let msg = packet::build(&PacketSpec {
                    dst_port: p,
                    ..PacketSpec::default()
                });
                assert_eq!(native.classify(&msg), Some(id), "port {p}");
                assert_eq!(root.classify(&msg, 0), Some(id), "port {p}");
            }
            let miss = packet::build(&PacketSpec {
                dst_port: 1000,
                ..PacketSpec::default()
            });
            assert_eq!(
                (native.classify(&miss), root.classify(&miss, 0)),
                (None, None)
            );
        }
    }
}

/// A classifier is one image: the code, then the tables it reads from a
/// data base it is passed, so the same trie compiled twice is the same
/// code, whichever mapping each copy sits in. Both copies are kept
/// alive, and each classifies like the trie interpreter. The sets use
/// every table: a hash (33 sparse ports) and a dense table (20 dense
/// ports) that hold ids, and, with each port followed by a protocol
/// check, a dense table (12 dense ports) and hashes (20 and 64 sparse
/// ports) that hold the distances of the arms' code, to which the
/// dispatch jumps through an indirect `jmp`.
#[test]
fn a_classifier_is_one_relocatable_image() {
    let (sparse, _) = sparse_port_set(33);
    let leaves = |ports: &[u16]| -> Vec<Filter> {
        let leaf = |&p| packet::tcp_port_filter(0x0a00_0002, p).unwrap();
        ports.iter().map(leaf).collect()
    };
    let arms = |ports: &[u16]| -> Vec<Filter> {
        let then_proto = |p, proto| {
            let f = FilterBuilder::new().eq_u16(12, 0x0800).eq_u16(36, p);
            f.eq_u8(23, proto).build().unwrap()
        };
        let arm = |&p| [then_proto(p, 6), then_proto(p, 17)];
        ports.iter().flat_map(arm).collect()
    };
    let dense: Vec<u16> = (4000..4020).collect();
    let (dense12, sparse20) = (&dense[..12], &sparse[..20]);
    let (sparse64, _) = sparse_port_set(64);
    let sets: [(_, _, &[u16], Uses, _); 5] = [
        ("id hash", leaves(&sparse), &sparse, |s| s.hash == 1, 0),
        ("id table", leaves(&dense), &dense, |s| s.table == 1, 0),
        ("code table", arms(dense12), dense12, |s| s.table == 1, 1),
        ("code hash", arms(sparse20), sparse20, |s| s.hash == 1, 1),
        (
            "code hash, 64 keys",
            arms(&sparse64),
            &sparse64,
            |s| s.hash == 1,
            1,
        ),
    ];
    for (name, filters, ports, strategy, jumps) in sets {
        let set: Vec<(u32, Filter)> = (0..).zip(filters).collect();
        let root = dpf::trie::build(&set);
        let first = dpf::compile::compile(&root, Options::default()).unwrap();
        let second = dpf::compile::compile(&root, Options::default()).unwrap();
        assert!(
            strategy(&first.strategies),
            "{name}: {:?}",
            first.strategies
        );
        assert_eq!(first.code_bytes(), second.code_bytes(), "{name}");
        // Decoded, the only transfers without an encoded target are the
        // `ret`s and the dispatch's `jmp` through a table.
        let indirect = decoded(&first)
            .iter()
            .filter(|(b, i)| i.control && i.target.is_none() && b[..] != [0xc3])
            .count();
        assert_eq!(indirect, jumps, "{name}");
        let msgs = ports.iter().flat_map(|&p| {
            [6, 17].map(|proto| {
                packet::build(&PacketSpec {
                    dst_port: p,
                    proto,
                    ..PacketSpec::default()
                })
            })
        });
        for msg in msgs.chain([packet::build(&PacketSpec::default())]) {
            let want = root.classify(&msg, 0);
            assert_eq!(first.classify(&msg), want, "{name}");
            assert_eq!(second.classify(&msg), want, "{name}");
        }
    }
}
