//! Packet in, filter id out: `dpf_static` (one reader, idle compile
//! path) and `dpf_churn` (the same reader beside a writer that installs
//! and removes a filter every 4 ms).

use crate::gen::{self, Traffic};
use crate::metrics::{Outcome, Rounds};
use crate::trace::Tracer;
use crate::util::{self, highest, lowest, median, per_call_ns, quantile, Rng, Samples};
use crate::{Config, TRACE_SPANS};
use dpf::compile::{compile, Options};
use dpf::mpf::Mpf;
use dpf::{trie, DpfReader, DpfService, Filter};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::rcu::Rcu;
use vcode::{CacheKey, CompileService, LambdaCache, ServiceConfig, TargetId};

/// Packets per `classify_batch` call and batches per timed burst.
const BATCH: usize = 64;
const BURST_BATCHES: usize = 16;
const BURST_PACKETS: usize = BATCH * BURST_BATCHES;

/// The writer's open-loop schedule: insert at k * 4 ms, remove 2 ms
/// later — 250 install/remove cycles a second.
const CYCLE: Duration = Duration::from_millis(4);
const REMOVE_AFTER: Duration = Duration::from_millis(2);
const POLL_EVERY: Duration = Duration::from_micros(20);
/// An install that is not native by then is a failed operation. Far
/// beyond anything a loaded host produces: a late install is a latency
/// sample, not a failure.
const INSTALL_DEADLINE: Duration = Duration::from_secs(2);
/// Install latencies are summarised per window of this length.
const INSTALL_WINDOW: Duration = Duration::from_millis(500);
/// The traced writer replays the install pipeline on every Nth cycle.
const REPLAY_EVERY: u64 = 16;

/// A service with the resident set installed and native, plus what the
/// oracle says about every packet of the trace.
struct Installed {
    svc: DpfService,
    filters: Vec<(u32, Filter)>,
    traffic: Traffic,
    /// Rolling hash of the expected ids over one pass of the trace.
    want_hash: u64,
    setup_attempted: u64,
    setup_failed: u64,
    code_bytes_per_insn: f64,
}

#[inline]
fn fold(hash: u64, id: Option<u32>) -> u64 {
    hash.wrapping_mul(31)
        .wrapping_add(id.map_or(0, |i| u64::from(i) + 1))
}

/// Installs the resident set one filter at a time, each flushed native
/// before the next so no background build outlives set-up, then checks
/// every packet against the `Filter::matches` scan.
fn install(seed: u64, rep: u32) -> Installed {
    // A fresh port set per repetition: the classifier cache is
    // process-wide, and a repeated set would be a warm install.
    let mut rng = Rng::stream(seed, 0x0d9f_0000 + u64::from(rep));
    let traffic = gen::traffic(&mut rng, gen::RESIDENT_FILTERS);
    let svc = DpfService::new();
    let mut filters = Vec::with_capacity(traffic.resident.len());
    let mut setup_failed = 0;
    for &port in &traffic.resident {
        let f = gen::port_filter(port);
        let id = svc.insert(f.clone());
        filters.push((id, f));
        if !svc.flush(Duration::from_secs(5)) {
            setup_failed += 1;
        }
    }
    let reader = svc.reader();
    let mut want_hash = 0;
    for p in &traffic.packets {
        let want = gen::oracle_id(&filters, p);
        if reader.classify(p) != want {
            setup_failed += 1;
        }
        want_hash = fold(want_hash, want);
    }
    // The service does not expose its compiled set, so code size comes
    // from compiling the same set through the same two public stages.
    let code_bytes_per_insn = match compile(&trie::build(&filters), Options::default()) {
        Ok(set) => set.code_len as f64 / set.vcode_insns.max(1) as f64,
        Err(_) => {
            setup_failed += 1;
            0.0
        }
    };
    Installed {
        setup_attempted: (filters.len() + traffic.packets.len() + 1) as u64,
        svc,
        filters,
        traffic,
        want_hash,
        setup_failed,
        code_bytes_per_insn,
    }
}

/// What one reader round saw.
struct Round {
    packets: u64,
    failed: u64,
    secs: f64,
    backlog_max: u64,
}

/// The reading side of a run: the reader, the packet trace it walks and
/// what it records along the way.
struct Reading<'a> {
    inst: &'a Installed,
    reader: DpfReader,
    refs: Vec<&'a [u8]>,
    /// Latency of each burst of the current round.
    bursts: Samples,
    tr: Tracer,
    burst_no: u64,
}

impl Reading<'_> {
    /// Classifies bursts of 16 x `classify_batch(64)` over the trace
    /// until `dur` has passed, timing each burst and checking the id
    /// hash of each 4096-packet pass.
    fn round(&mut self, traced: bool, dur: Duration) -> Round {
        let Reading {
            inst,
            reader,
            refs,
            bursts,
            tr,
            burst_no,
        } = self;
        let mut r = Round {
            packets: 0,
            failed: 0,
            secs: 0.0,
            backlog_max: 0,
        };
        let (mut off, mut hash) = (0, 0);
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let open = traced.then(|| tr.enter("burst", *burst_no));
            for _ in 0..BURST_BATCHES {
                let batch = &refs[off..off + BATCH];
                let ids = if traced {
                    tr.call("dpf.service.classify_batch", *burst_no, || {
                        reader.classify_batch(batch)
                    })
                    .0
                } else {
                    reader.classify_batch(batch)
                };
                hash = ids.iter().fold(hash, |h, id| fold(h, *id));
                off += BATCH;
            }
            if let Some(open) = open {
                tr.exit(open);
            }
            let end = Instant::now();
            bursts.push(end - t);
            *burst_no += 1;
            r.packets += BURST_PACKETS as u64;
            if off == refs.len() {
                if hash != inst.want_hash {
                    r.failed += refs.len() as u64;
                }
                if traced {
                    r.backlog_max = r.backlog_max.max(inst.svc.stats().retired_backlog);
                }
                (off, hash) = (0, 0);
            }
            if end - start >= dur {
                r.secs = (end - start).as_secs_f64();
                return r;
            }
        }
    }
}

/// What the writer thread measured.
#[derive(Default)]
struct Writer {
    /// `(when it went native, microseconds since it was due)`.
    installs: Vec<(Instant, f64)>,
    insert_call_us: Vec<f64>,
    late_max_us: f64,
    failed: u64,
    // Traced runs only: the pipeline replayed stage by stage.
    queue_wake_us: Vec<f64>,
    trie_build_us: Vec<f64>,
    compile_us: Vec<f64>,
    code_bytes: Vec<f64>,
    coverage: Vec<f64>,
    unattributed_us: Vec<f64>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replays one install on the set it compiled: trie build and compile
/// by direct call, queue-and-wake on a bench-owned service whose
/// builder does nothing. Returns the time the three stages took.
fn replay_install(
    w: &mut Writer,
    tr: &mut Tracer,
    cycle: u64,
    set: &[(u32, Filter)],
    probe: &(Arc<LambdaCache<u64>>, CompileService<u64>),
) -> f64 {
    let (root, build_ns) = tr.call("dpf.trie.build", cycle, || trie::build(set));
    let (compiled, compile_ns) = tr.call("dpf.compile.compile", cycle, || {
        compile(&root, Options::default())
    });
    match compiled {
        Ok(c) => w.code_bytes.push(c.code_len as f64),
        Err(_) => w.failed += 1,
    }
    let key = CacheKey::new(TargetId::X64, cycle.to_le_bytes().to_vec());
    let (_, wake_ns) = tr.call("service.queue_wake", cycle, || {
        let _ = probe.1.submit(key.clone(), || Ok(Arc::new(0)));
        let give_up = Instant::now() + INSTALL_DEADLINE;
        while probe.0.peek(&key).is_none() && Instant::now() < give_up {
            std::thread::yield_now();
        }
    });
    w.trie_build_us.push(us(build_ns));
    w.compile_us.push(us(compile_ns));
    w.queue_wake_us.push(us(wake_ns));
    us(build_ns + compile_ns + wake_ns)
}

/// The writing side of a run: installs a churn filter, waits for its
/// generation to go native, removes it again.
struct Installer<'a> {
    inst: &'a Installed,
    /// Cycles done so far; also the position in the churn ring.
    cycle: u64,
    trace: bool,
    w: Writer,
    tr: Tracer,
    /// A service whose builder does nothing, for `service.queue_wake_us`.
    probe: (Arc<LambdaCache<u64>>, CompileService<u64>),
}

impl<'a> Installer<'a> {
    fn new(inst: &'a Installed, trace: bool, capacity: usize) -> Installer<'a> {
        let cache = Arc::new(LambdaCache::<u64>::new(64));
        let service = CompileService::new(
            Arc::clone(&cache),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        Installer {
            inst,
            cycle: 0,
            trace,
            w: Writer {
                installs: Vec::with_capacity(capacity),
                insert_call_us: Vec::with_capacity(capacity),
                ..Writer::default()
            },
            tr: Tracer::new(if trace { TRACE_SPANS } else { 0 }),
            probe: (cache, service),
        }
    }

    /// One cycle. Install latency runs from `due` — the time the insert
    /// was scheduled for, so a stall charges the installs queued behind
    /// it — and the filter is removed at `remove_at`. A traced run
    /// replays the pipeline after every 16th cycle.
    fn cycle(&mut self, due: Instant, remove_at: Instant) {
        let Installer {
            inst,
            cycle,
            trace,
            w,
            tr,
            probe,
        } = self;
        let k = *cycle;
        *cycle += 1;
        let svc = &inst.svc;
        let port = inst.traffic.churn[k as usize % inst.traffic.churn.len()];
        let filter = gen::port_filter(port);
        let open = trace.then(|| tr.enter("install", k));
        let t = Instant::now();
        let id = svc.insert(filter.clone());
        let insert_call = t.elapsed();
        let seq = svc.generation();
        let native = loop {
            if svc.poll_upgrade() && svc.generation() == seq {
                break true;
            }
            if Instant::now() > due + INSTALL_DEADLINE {
                break false;
            }
            util::wait_until(Instant::now() + POLL_EVERY);
        };
        let done = Instant::now();
        let install = done - due;
        if let Some(open) = open {
            tr.exit(open);
        }
        if native {
            w.installs.push((done, install.as_secs_f64() * 1e6));
            w.insert_call_us.push(insert_call.as_secs_f64() * 1e6);
        } else {
            w.failed += 1;
        }

        util::wait_until(remove_at);
        if !svc.remove(id) {
            w.failed += 1;
        }
        // Back on the resident set: a warm key, native at once.
        if !svc.poll_upgrade() {
            w.failed += 1;
        }

        if *trace && native && k.is_multiple_of(REPLAY_EVERY) {
            let mut set = inst.filters.clone();
            set.push((id, filter));
            let stages = replay_install(w, tr, k, &set, probe) + insert_call.as_secs_f64() * 1e6;
            let whole = install.as_secs_f64() * 1e6;
            w.coverage.push(stages / whole);
            w.unattributed_us.push(whole - stages);
        }
    }

    /// `dpf_churn`'s writer thread: a cycle every 4 ms until `stop`.
    fn open_loop(mut self, stop: &AtomicBool) -> Installer<'a> {
        let t0 = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            let due = t0 + CYCLE * self.cycle as u32;
            util::wait_until(due);
            let late = (Instant::now() - due).as_secs_f64() * 1e6;
            self.w.late_max_us = self.w.late_max_us.max(late);
            self.cycle(due, due + REMOVE_AFTER);
        }
        self
    }
}

/// Nanoseconds per packet of `classify` over the whole trace.
fn ns_per_packet(budget: Duration, refs: &[&[u8]], classify: impl Fn(&[u8]) -> Option<u32>) -> f64 {
    per_call_ns(budget, || {
        for m in refs {
            black_box(classify(m));
        }
    }) / refs.len() as f64
}

/// The per-layer probes of the read path, on structures the benchmark
/// owns: an `Rcu<u64>`, the resident set compiled by direct call, the
/// interpreter over the same filters.
fn read_path_probes(cfg: &Config, inst: &Installed, refs: &[&[u8]], out: &mut Outcome) {
    let budget = cfg.probe();
    let rcu = Rcu::new(0u64);
    let slot = rcu.register_slot();
    out.probe(
        "rcu.enter_ns",
        per_call_ns(budget, || {
            black_box(*rcu.enter(&slot));
        }),
    );
    let mut next = 0u64;
    out.probe(
        "rcu.publish_ns",
        per_call_ns(budget, || {
            next += 1;
            black_box(rcu.publish(next));
        }),
    );
    out.probe(
        "rcu.reclaim_ns",
        per_call_ns(budget, || {
            black_box(rcu.reclaim());
        }),
    );

    let mut mpf = Mpf::new();
    for (id, f) in &inst.filters {
        mpf.insert_as(*id, f);
    }
    out.probe(
        "dpf.mpf.interp_ns_per_pkt",
        ns_per_packet(budget, &refs[..512], |m| mpf.classify(m)),
    );

    let Ok(set) = compile(&trie::build(&inst.filters), Options::default()) else {
        out.fail("resident set did not compile by direct call".to_string());
        return;
    };
    let native = ns_per_packet(budget, refs, |m| set.classify(m));
    out.probe("dpf.compile.native_ns_per_pkt", native);
    let reader = inst.svc.reader();
    let mut off = 0;
    let batch_ns = per_call_ns(budget, || {
        black_box(reader.classify_batch(&refs[off..off + BATCH]));
        off = (off + BATCH) % refs.len();
    });
    out.probe(
        "dpf.service.batch_overhead_ns",
        batch_ns - native * BATCH as f64,
    );
}

/// Filter-count sweep: which set sizes compile at all, and what a
/// packet costs on those that do. A size that fails is recorded with
/// its error and reads 0; nothing here works around the failure.
fn sweep(cfg: &Config, out: &mut Outcome) {
    const SIZES: [(usize, &str, &str); 5] = [
        (
            16,
            "dpf.compile.native_ns_per_pkt_f16",
            "dpf.compile.compile_us_f16",
        ),
        (
            64,
            "dpf.compile.native_ns_per_pkt_f64",
            "dpf.compile.compile_us_f64",
        ),
        (
            256,
            "dpf.compile.native_ns_per_pkt_f256",
            "dpf.compile.compile_us_f256",
        ),
        (
            512,
            "dpf.compile.native_ns_per_pkt_f512",
            "dpf.compile.compile_us_f512",
        ),
        (
            1024,
            "dpf.compile.native_ns_per_pkt_f1024",
            "dpf.compile.compile_us_f1024",
        ),
    ];
    let mut native = 0;
    for (n, name, compile_name) in SIZES {
        let mut rng = Rng::stream(cfg.seed, 0x5eeb_0000 + n as u64);
        let traffic = gen::traffic(&mut rng, n);
        let filters: Vec<(u32, Filter)> = traffic
            .resident
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, gen::port_filter(p)))
            .collect();
        let refs: Vec<&[u8]> = traffic.packets.iter().map(Vec::as_slice).collect();
        out.attempted += 1;
        match compile(&trie::build(&filters), Options::default()) {
            Ok(set) => {
                let wrong = refs
                    .iter()
                    .filter(|m| set.classify(m) != gen::oracle_id(&filters, m))
                    .count();
                out.attempted += refs.len() as u64;
                if wrong > 0 {
                    out.failed += wrong as u64;
                    out.notes
                        .push(format!("f{n}: {wrong} packets misclassified"));
                }
                native += 1;
                out.probe(name, ns_per_packet(cfg.probe(), &refs, |m| set.classify(m)));
                let root = trie::build(&filters);
                out.probe(
                    compile_name,
                    per_call_ns(cfg.probe(), || {
                        let _ = black_box(compile(&root, Options::default()));
                    }) / 1e3,
                );
            }
            // Known at the seed commit for sizes >= 512: the service
            // quarantines the build and serves the interpreter forever.
            Err(e) => out.notes.push(format!(
                "f{n}: native compile fails, set stays on the interpreter: {e}"
            )),
        }
    }
    out.set(
        "dpf.compile.sweep_native_share",
        f64::from(native) / SIZES.len() as f64,
        SIZES.len() as u64,
    );
}

pub fn run(cfg: &Config, churn: bool) -> Outcome {
    let mut out = Outcome::default();
    let (inst, setup_s) = util::timed_setups(|rep| install(cfg.seed, rep));
    out.attempted += inst.setup_attempted;
    out.failed += inst.setup_failed;
    if inst.setup_failed > 0 {
        out.notes.push(format!(
            "set-up: {} installs or packets failed their check",
            inst.setup_failed
        ));
    }
    let mut reading = Reading {
        inst: &inst,
        reader: inst.svc.reader(),
        refs: inst.traffic.packets.iter().map(Vec::as_slice).collect(),
        bursts: Samples::with_capacity(1 << 18),
        tr: Tracer::new(if cfg.trace { TRACE_SPANS } else { 0 }),
        burst_no: 0,
    };
    let before = inst.svc.stats();
    let mut rounds = Rounds::default();
    let mut pkt_per_s = Vec::new();
    let (mut packets, mut backlog_max) = (0, 0);
    // The reader's rounds: alone on `dpf_static`, beside the writer
    // thread on `dpf_churn`.
    let mut read_rounds = |reading: &mut Reading, out: &mut Outcome| {
        for round in 0..cfg.rounds() {
            let traced = cfg.trace && round % 2 == 1 && reading.tr.has_room();
            let r = reading.round(traced, cfg.round());
            packets += r.packets;
            out.failed += r.failed;
            backlog_max = backlog_max.max(r.backlog_max);
            let rate = r.packets as f64 / r.secs;
            rounds.push(traced, rate, &mut reading.bursts);
            if !traced {
                pkt_per_s.push(rate);
            }
        }
    };
    let installer = churn.then(|| {
        let stop = AtomicBool::new(false);
        let cycles = (cfg.seconds / CYCLE.as_secs_f64()) as usize + 64;
        let writer = Installer::new(&inst, cfg.trace, cycles);
        std::thread::scope(|s| {
            let handle = s.spawn(|| writer.open_loop(&stop));
            read_rounds(&mut reading, &mut out);
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("the writer thread does not panic")
        })
    });
    if !churn {
        read_rounds(&mut reading, &mut out);
    }
    out.attempted += packets;
    let after = inst.svc.stats();
    let n = rounds.untraced();
    let [_, _, p999] = rounds.latency_us();

    let (w, writer_trace) = match installer {
        Some(i) => (i.w, Some(i.tr)),
        None => (Writer::default(), None),
    };
    out.attempted += (w.installs.len() as u64 + w.failed) * 2;
    out.failed += w.failed;
    let installs = w.installs.len() as u64;
    // Install latency per window, like every other timing; a window is
    // several rounds long so that it holds over a hundred installs.
    let mut install_quant: [Vec<f64>; 2] = Default::default();
    if let (Some(first), Some(last)) = (w.installs.first(), w.installs.last()) {
        let windows = ((last.0 - first.0).as_secs_f64() / INSTALL_WINDOW.as_secs_f64()) as u32;
        for k in 0..windows.max(1) {
            let began = first.0 + INSTALL_WINDOW * k;
            let mut us: Vec<f64> = w
                .installs
                .iter()
                .filter(|i| began <= i.0 && i.0 < began + INSTALL_WINDOW)
                .map(|i| i.1)
                .collect();
            if !us.is_empty() {
                install_quant[0].push(quantile(&mut us, 0.5));
                install_quant[1].push(quantile(&mut us, 0.99));
            }
        }
    }
    if churn && install_quant[0].is_empty() {
        out.fail("the writer completed no install".to_string());
    }

    if !cfg.trace {
        rounds.end_to_end(&mut out, setup_s);
        out.set("code_bytes_per_insn", inst.code_bytes_per_insn, 1);
        return out;
    }

    rounds.latency(&mut out);
    out.set("burst_p999_us", p999, n);
    out.set("pkt_per_s", highest(&pkt_per_s), n);
    out.set(
        "dpf.service.degraded_pkt_share",
        (after.degraded_calls - before.degraded_calls) as f64 / packets.max(1) as f64,
        packets,
    );
    out.set(
        "dpf.service.generations_published",
        (after.published - before.published) as f64,
        1,
    );
    out.set("dpf.service.retired_backlog_max", backlog_max as f64, 1);
    rounds.trace_overhead(&mut out);
    if churn {
        let [p50, p99] = install_quant.map(|v| lowest(&v));
        out.set("install_p50_us", p50, installs);
        out.set("install_p99_us", p99, installs);
        out.set("dpf_churn.writer_late_max_us", w.late_max_us, installs);
        for (name, v) in [
            ("dpf.service.insert_call_us", &w.insert_call_us),
            ("service.queue_wake_us", &w.queue_wake_us),
            ("dpf.trie.build_us", &w.trie_build_us),
            ("dpf.compile.compile_us", &w.compile_us),
            ("dpf.compile.code_bytes", &w.code_bytes),
        ] {
            out.set(name, median(v.clone()), v.len() as u64);
        }
        out.set_coverage(w.coverage, w.unattributed_us);
    }
    read_path_probes(cfg, &inst, &reading.refs, &mut out);
    if !churn {
        sweep(cfg, &mut out);
    }
    crate::write_trace(
        cfg,
        &[
            ("reader", Some(&reading.tr)),
            ("writer", writer_trace.as_ref()),
        ],
        &mut out,
    );
    out
}
