//! `Program` in, callable lambda out, through `Engine::compile_cached`:
//! `lambda_cold` (every request a program never seen before) and
//! `lambda_reuse` (a Zipf-ranked working set four times the L1 over a
//! populated L2, so requests are L1 hits or L2 loads and nothing is
//! ever emitted).
//!
//! No bounded timing includes an L2 store. `DiskTier::store` calls
//! `sync_all` on the caller's thread, and the scratch directory has to
//! live inside the checkout, on whatever disk that is: on the shared
//! block device this was written on, one store is 300 to 1200 us
//! depending on the minute, which swamps the 25 us of everything else
//! and made ten runs of one commit spread by 30 %. So `lambda_cold`'s
//! requests run on an engine without the tier, `lambda_reuse`'s L2 is
//! populated once as an untimed fixture, and the traced run measures
//! the store (and the miss probe) as layers of their own.

use crate::gen::{self, Case};
use crate::metrics::{Outcome, Rounds};
use crate::trace::Tracer;
use crate::util::{self, median, per_call_ns, Rng, Samples};
use crate::{Config, TRACE_SPANS};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::engine::{fnv1a, replay, Engine, Lambda, Program, TargetId};
use vcode::{CacheKey, CacheTier, DiskTier, LambdaCache};
use vcode_x64::declen::Decoder;
use vcode_x64::{ExecMem, X64Backend, X64};

/// L1 capacity: the engine's lambda cache keeps this many programs.
const L1: usize = 256;
/// `lambda_cold`: distinct programs requests cycle through. Sixteen
/// times the L1, so by the time a program comes round again the engine
/// has long evicted it and, with no L2 attached, holds no trace of it:
/// every request is a program the engine does not know.
const POOL: usize = 16 * L1;
const WARM_UP: usize = 128;
/// `lambda_reuse`: working set (4 x L1) and the length of the seeded
/// rank sequence requests cycle through.
const WORKING_SET: usize = 4 * L1;
const RANKS: usize = 1 << 16;
/// `lambda_reuse` times one request in eight, keeping the timer's own
/// cost off the 100 ns hit path.
const SAMPLE_EVERY: usize = 8;
/// Traced rounds replay the pipeline on every Nth eligible request.
const REPLAY_EVERY: u64 = 16;

/// An engine with the native backend and, given a directory, the L2
/// tier over it.
fn engine(l2: Option<&Path>) -> Result<Engine, String> {
    let mut e = Engine::new(L1);
    e.register(Arc::new(X64Backend));
    if let Some(dir) = l2 {
        e.enable_persist(dir)
            .map_err(|e| format!("cannot attach the L2 tier: {e}"))?;
    }
    Ok(e)
}

/// Removes every artifact, leaving the directory for the tier to reuse.
fn wipe(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let _ = std::fs::remove_file(entry.path());
    }
}

fn pool(seed: u64, stream: u64, first_serial: u32, n: usize) -> Vec<Case> {
    let mut rng = Rng::stream(seed, stream);
    (0..n)
        .map(|i| gen::case(&mut rng, first_serial + i as u32))
        .collect()
}

/// One request for `prog` (`case`'s program, or a copy of it): compile
/// through the cache, call once, compare with the interpreter's answer.
/// Returns the lambda for size accounting.
#[inline]
fn request(engine: &Engine, prog: &Program, case: &Case) -> Result<Arc<dyn Lambda>, String> {
    let lambda = engine
        .compile_cached(TargetId::X64, prog)
        .map_err(|e| format!("compile_cached: {e}"))?;
    let got = lambda.call(&case.args).map_err(|e| format!("call: {e}"))?;
    if Some(got) != case.want {
        return Err(format!(
            "result {got} but the interpreter says {:?}",
            case.want
        ));
    }
    Ok(lambda)
}

/// Medians of the stage times a traced run replayed by hand.
#[derive(Default)]
struct Stages {
    samples: Vec<(&'static str, Vec<f64>)>,
    coverage: Vec<f64>,
    unattributed_us: Vec<f64>,
}

impl Stages {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.samples.iter_mut().find(|s| s.0 == name) {
            Some(s) => s.1.push(v),
            None => self.samples.push((name, vec![v])),
        }
    }

    /// Records how much of a `whole_ns` request the `stage_ns` explain.
    fn cover(&mut self, stage_ns: u64, whole_ns: u64) {
        self.coverage.push(stage_ns as f64 / whole_ns.max(1) as f64);
        self.unattributed_us
            .push((whole_ns as f64 - stage_ns as f64) / 1e3);
    }

    fn report(self, out: &mut Outcome) {
        for (name, v) in self.samples {
            let n = v.len() as u64;
            out.set(name, median(v), n);
        }
        out.set_coverage(self.coverage, self.unattributed_us);
    }
}

/// A key no request ever stores under: probing it is a clean miss.
fn absent_key(case: &Case) -> CacheKey {
    let mut bytes = case.prog.encode();
    bytes.push(0xff);
    CacheKey::new(TargetId::X64, bytes)
}

/// `compile_cached`'s miss path, stage by stage, on a shadow L1.
/// Returns the nanoseconds the stages of the request took. The two L2
/// stages an engine with the tier attached would add are timed on
/// `tier` as well, but are no part of this workload's requests and so
/// not of the sum.
fn replay_cold(
    tr: &mut Tracer,
    st: &mut Stages,
    req: u64,
    case: &Case,
    lambda: &Arc<dyn Lambda>,
    shadow: &LambdaCache<dyn Lambda>,
    tier: &DiskTier<dyn Lambda>,
) -> Result<u64, String> {
    let mut total = 0;
    let mut stage = |st: &mut Stages, name: &'static str, scale: f64, ns: u64| {
        st.push(name, ns as f64 / scale);
        total += ns;
    };
    let (key, ns) = tr.call("engine.encode_hash", req, || {
        let bytes = case.prog.encode();
        let hash = fnv1a(&bytes);
        CacheKey::from_encoded(TargetId::X64, bytes.into(), hash)
    });
    stage(st, "engine.encode_hash_ns", 1.0, ns);
    let (_, ns) = tr.call("cache.miss_probe", req, || black_box(shadow.get(&key)));
    stage(st, "cache.miss_probe_ns", 1.0, ns);
    let (mem, ns) = tr.call("x64.exec.alloc", req, || {
        ExecMem::new(case.prog.code_capacity())
    });
    let mut mem = mem.map_err(|e| format!("exec alloc: {e}"))?;
    stage(st, "x64.exec.alloc_ns", 1.0, ns);
    let (fin, ns) = tr.call("engine.replay.x64", req, || {
        replay::<X64>(&case.prog, mem.as_mut_slice())
    });
    let fin = fin.map_err(|e| format!("replay: {e}"))?;
    stage(
        st,
        "engine.replay_ns_per_insn.x64",
        fin.insns.max(1) as f64,
        ns,
    );
    let (code, ns) = tr.call("x64.exec.seal", req, || mem.finalize());
    code.map_err(|e| format!("exec seal: {e}"))?;
    stage(st, "x64.exec.seal_ns", 1.0, ns);
    let (_, ns) = tr.call("cache.insert", req, || {
        shadow.get_or_insert_with(key, || Ok::<_, String>(Arc::clone(lambda)))
    });
    stage(st, "cache.insert_ns", 1.0, ns);

    let absent = absent_key(case);
    let (_, ns) = tr.call("persist.probe_miss", req, || black_box(tier.load(&absent)));
    st.push("persist.probe_miss_us", ns as f64 / 1e3);
    let (stored, ns) = tr.call("persist.store", req, || tier.store(&absent, lambda));
    stored.map_err(|e| format!("store: {e}"))?;
    st.push("persist.store_us", ns as f64 / 1e3);
    Ok(total)
}

/// What a traced run replays stages on, apart from the engine under
/// test: a shadow L1, and an engine whose only use is its L2 tier.
struct Side {
    shadow: LambdaCache<dyn Lambda>,
    l2: Engine,
}

impl Side {
    fn new(dir: &Path) -> Result<Side, String> {
        Ok(Side {
            shadow: LambdaCache::new(L1),
            l2: engine(Some(dir))?,
        })
    }

    fn tier(&self) -> &DiskTier<dyn Lambda> {
        self.l2.persist_tier().expect("Side::new attached the tier")
    }
}

/// What a round of requests did.
#[derive(Default)]
struct Round {
    done: u64,
    failed: u64,
    secs: f64,
    code_bytes: u64,
    insns: u64,
}

/// What a run records: request latencies of the current round, spans,
/// and the stage times of the replays.
struct Meters {
    lat: Samples,
    tr: Tracer,
    st: Stages,
}

impl Meters {
    fn new(cfg: &Config, latencies: usize) -> Meters {
        Meters {
            lat: Samples::with_capacity(latencies),
            tr: Tracer::new(if cfg.trace { TRACE_SPANS } else { 0 }),
            st: Stages::default(),
        }
    }
}

/// A request that came back right: the lambda and the time its call took.
struct Served {
    lambda: Arc<dyn Lambda>,
    call_ns: u64,
}

/// [`request`] under spans: what it served, and the time of the whole
/// request.
fn traced_request(
    tr: &mut Tracer,
    engine: &Engine,
    prog: &Program,
    case: &Case,
    req: u64,
) -> (Result<Served, String>, u64) {
    let open = tr.enter("request", req);
    let (lambda, _) = tr.call("engine.compile_cached", req, || {
        engine.compile_cached(TargetId::X64, prog)
    });
    let result = lambda
        .map_err(|e| format!("compile_cached: {e}"))
        .and_then(|l| {
            let (got, call_ns) = tr.call("lambda.call", req, || l.call(&case.args));
            match got {
                Ok(got) if Some(got) == case.want => Ok(Served { lambda: l, call_ns }),
                other => Err(format!(
                    "result {other:?} but the interpreter says {:?}",
                    case.want
                )),
            }
        });
    (result, tr.exit(open))
}

/// `lambda_cold`'s engine and the programs its requests cycle through.
struct Cold {
    engine: Engine,
    cases: Vec<Case>,
    cursor: usize,
}

impl Cold {
    /// Requests until `dur` has passed. A traced round replays the miss
    /// path after every 16th request; the time that takes is no part of
    /// the round.
    fn round(
        &mut self,
        traced: bool,
        dur: Duration,
        m: &mut Meters,
        side: Option<&Side>,
        out: &mut Outcome,
    ) -> Round {
        let Cold {
            engine,
            cases,
            cursor,
        } = self;
        let Meters { lat, tr, st } = m;
        let mut r = Round::default();
        let mut replaying = Duration::ZERO;
        let start = Instant::now();
        loop {
            let case = &cases[*cursor % cases.len()];
            let req = *cursor as u64;
            *cursor += 1;
            // A fresh copy per request: `Program` memoizes its encoding
            // and hash, and a first-sight request pays for both.
            let prog = case.prog.clone();
            let t = Instant::now();
            let result = if traced {
                let (result, whole_ns) = traced_request(tr, engine, &prog, case, req);
                result.and_then(|Served { lambda, call_ns }| {
                    if req.is_multiple_of(REPLAY_EVERY) {
                        let t = Instant::now();
                        st.push("x64.call_first_ns", call_ns as f64);
                        let side = side.expect("a traced run has the side structures");
                        let stages =
                            replay_cold(tr, st, req, case, &lambda, &side.shadow, side.tier())?;
                        st.cover(stages + call_ns, whole_ns);
                        replaying += t.elapsed();
                    }
                    Ok(lambda)
                })
            } else {
                request(engine, &prog, case)
            };
            let end = Instant::now();
            if !traced {
                lat.push(end - t);
            }
            r.done += 1;
            match result {
                Ok(l) => {
                    r.code_bytes += l.code_len() as u64;
                    r.insns += l.insns();
                }
                Err(e) => {
                    r.failed += 1;
                    out.fail(format!("request {req}: {e}"));
                }
            }
            if end - start >= dur + replaying {
                r.secs = (end - start - replaying).as_secs_f64();
                return r;
            }
        }
    }
}

pub fn run_cold(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.scratch.join("l2");
    // Set-up: the engine, the pool of programs with the interpreter's
    // answers, and a short warm-up, so the executable-memory pool and
    // the allocator are past their first-use cost before round one.
    let (made, setup_s) = util::timed_setups(|_| {
        let engine = engine(None)?;
        let cases = pool(cfg.seed, 0x10ad_0000, 0, POOL);
        let warm = cases[POOL - WARM_UP..]
            .iter()
            .filter(|c| request(&engine, &c.prog.clone(), c).is_err())
            .count();
        let cold = Cold {
            engine,
            cases,
            cursor: 0,
        };
        Ok::<_, String>((cold, warm as u64))
    });
    let side = cfg.trace.then(|| Side::new(&dir)).transpose();
    let (mut cold, warm_failed, side) = match (made, side) {
        (Ok((cold, warm_failed)), Ok(side)) => (cold, warm_failed, side),
        (Err(e), _) | (_, Err(e)) => {
            out.fail(e);
            return out;
        }
    };
    out.attempted += WARM_UP as u64;
    out.failed += warm_failed;

    let mut m = Meters::new(cfg, 1 << 16);
    let mut rounds = Rounds::default();
    let (mut code_bytes, mut insns) = (0, 0);
    let evictions_before = cold.engine.cache_stats().evictions;
    for round in 0..cfg.rounds() {
        // The traced replays store to the side L2: keep it small.
        if cfg.trace {
            wipe(&dir);
        }
        let traced = cfg.trace && round % 2 == 1 && m.tr.has_room();
        let r = cold.round(traced, cfg.round(), &mut m, side.as_ref(), &mut out);
        out.attempted += r.done;
        out.failed += r.failed;
        code_bytes += r.code_bytes;
        insns += r.insns;
        rounds.push(traced, r.done as f64 / r.secs, &mut m.lat);
    }
    if !cfg.trace {
        rounds.end_to_end(&mut out, setup_s);
        out.set(
            "code_bytes_per_insn",
            code_bytes as f64 / insns.max(1) as f64,
            insns,
        );
        return out;
    }
    out.set(
        "cache.evictions",
        (cold.engine.cache_stats().evictions - evictions_before) as f64,
        1,
    );
    m.st.report(&mut out);
    rounds.latency(&mut out);
    rounds.trace_overhead(&mut out);
    crate::write_trace(cfg, &[("main", Some(&m.tr))], &mut out);
    out
}

/// The L2 load path, stage by stage, for a request that missed the L1.
fn replay_load(
    tr: &mut Tracer,
    st: &mut Stages,
    req: u64,
    case: &Case,
    lambda: &Arc<dyn Lambda>,
    shadow: &LambdaCache<dyn Lambda>,
    tier: &DiskTier<dyn Lambda>,
) -> Result<u64, String> {
    let mut total = 0;
    let mut stage = |st: &mut Stages, name: &'static str, scale: f64, ns: u64| {
        st.push(name, ns as f64 / scale);
        total += ns;
    };
    let (bytes, hash) = case.prog.encoded();
    let key = CacheKey::from_encoded(TargetId::X64, Arc::clone(bytes), *hash);
    let absent = absent_key(case);
    let (_, ns) = tr.call("cache.miss_probe", req, || black_box(shadow.get(&absent)));
    stage(st, "cache.miss_probe_ns", 1.0, ns);
    let (artifact, ns) = tr.call("persist.read_decode", req, || tier.load_artifact(&key));
    let artifact = artifact
        .map_err(|e| format!("load_artifact: {e}"))?
        .ok_or("artifact missing from the L2 tier")?;
    stage(st, "persist.read_decode_us", 1e3, ns);
    let (decoded, ns) = tr.call("persist.redecode", req, || {
        vcode::persist::redecode(&artifact.code, &Decoder)
    });
    decoded.map_err(|e| format!("redecode: {e}"))?;
    stage(st, "persist.redecode_us", 1e3, ns);
    let (code, ns) = tr.call("x64.exec.adopt", req, || {
        ExecMem::adopt_bytes(&artifact.code).and_then(ExecMem::finalize)
    });
    code.map_err(|e| format!("adopt: {e}"))?;
    stage(st, "x64.exec.adopt_us", 1e3, ns);
    let (_, ns) = tr.call("cache.insert", req, || {
        shadow.get_or_insert_with(absent, || Ok::<_, String>(Arc::clone(lambda)))
    });
    stage(st, "cache.insert_ns", 1.0, ns);
    // The whole tier load, as `compile_cached` calls it: the three
    // stages above plus the embedded-IR check no public call isolates.
    let (loaded, ns) = tr.call("persist.load", req, || tier.load(&key));
    loaded.map_err(|e| format!("load: {e}"))?;
    st.push("persist.load_us", ns as f64 / 1e3);
    Ok(total)
}

/// The working set compiled once, and the rank sequence over it.
struct Reuse {
    engine: Engine,
    cases: Vec<Case>,
    ranks: Vec<u16>,
    /// Position in `ranks`, carried from round to round.
    cursor: usize,
    failed: u64,
    code_bytes_per_insn: f64,
}

impl Reuse {
    /// Requests until `dur` has passed, timing one in eight. A traced
    /// round replays the load path after every 16th timed request that
    /// missed the L1; the time that takes is no part of the round.
    fn round(
        &mut self,
        traced: bool,
        dur: Duration,
        m: &mut Meters,
        shadow: &LambdaCache<dyn Lambda>,
        out: &mut Outcome,
    ) -> Round {
        let Meters { lat, tr, st } = m;
        let engine = &self.engine;
        let tier = engine.persist_tier().expect("engine() attached the tier");
        let mut next = || {
            let case = &self.cases[usize::from(self.ranks[self.cursor % RANKS])];
            self.cursor += 1;
            (case, self.cursor as u64)
        };
        let mut r = Round::default();
        let mut replaying = Duration::ZERO;
        let mut misses_seen = 0u64;
        let start = Instant::now();
        loop {
            for _ in 1..SAMPLE_EVERY {
                let (case, _) = next();
                if let Err(e) = request(engine, &case.prog, case) {
                    r.failed += 1;
                    out.fail(e);
                }
            }
            let (case, req) = next();
            r.done += SAMPLE_EVERY as u64;
            let t = Instant::now();
            let result = if traced {
                let hits_before = engine.cache_stats().hits;
                let (result, whole_ns) = traced_request(tr, engine, &case.prog, case, req);
                let missed = engine.cache_stats().hits == hits_before;
                misses_seen += u64::from(missed);
                result.and_then(|Served { lambda, call_ns }| {
                    if missed && misses_seen.is_multiple_of(REPLAY_EVERY) {
                        let t = Instant::now();
                        let stages = replay_load(tr, st, req, case, &lambda, shadow, tier)?;
                        st.cover(stages + call_ns, whole_ns);
                        replaying += t.elapsed();
                    }
                    Ok(lambda)
                })
            } else {
                request(engine, &case.prog, case)
            };
            let end = Instant::now();
            if !traced {
                lat.push(end - t);
            }
            if let Err(e) = result {
                r.failed += 1;
                out.fail(e);
            }
            if end - start >= dur + replaying {
                r.secs = (end - start - replaying).as_secs_f64();
                return r;
            }
        }
    }
}

/// L1 hit share over the first half of the rank sequence on a fresh
/// engine over the populated L2: a count, so it must repeat exactly.
fn l1_hit_share(dir: &Path, w: &Reuse) -> Result<f64, String> {
    let fresh = engine(Some(dir))?;
    for &rank in &w.ranks[..RANKS / 2] {
        fresh
            .compile_cached(TargetId::X64, &w.cases[usize::from(rank)].prog)
            .map_err(|e| format!("compile_cached: {e}"))?;
    }
    let s = fresh.cache_stats();
    Ok(s.hits as f64 / (s.hits + s.misses).max(1) as f64)
}

pub fn run_reuse(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.scratch.join("l2");
    // Fixture, untimed: the L2 a previous process left behind — every
    // program of the working set compiled once and stored through.
    let t = Instant::now();
    let populated = engine(Some(&dir)).map(|e| {
        pool(cfg.seed, 0x2e05_0000, 0, WORKING_SET)
            .iter()
            .filter(|c| request(&e, &c.prog, c).is_err())
            .count() as u64
    });
    out.attempted += WORKING_SET as u64;
    match populated {
        Ok(failed) => out.failed += failed,
        Err(e) => {
            out.fail(e);
            return out;
        }
    }
    out.notes.push(format!(
        "fixture: {WORKING_SET} programs stored through to the L2 in {:.3} s (not part of setup_s)",
        t.elapsed().as_secs_f64()
    ));
    // Set-up, timed: a warm start over that L2 — generate the programs
    // and their answers, build the engine, request every program once.
    // Each is an L2 load; afterwards the L1 holds the last 256.
    let (made, setup_s) = util::timed_setups(|_| {
        let engine = engine(Some(&dir))?;
        let cases = pool(cfg.seed, 0x2e05_0000, 0, WORKING_SET);
        let (mut failed, mut code_bytes, mut insns) = (0, 0, 0);
        for c in &cases {
            match request(&engine, &c.prog, c) {
                Ok(l) => {
                    code_bytes += l.code_len();
                    insns += l.insns();
                }
                Err(_) => failed += 1,
            }
        }
        let ranks = gen::zipf_ranks(&mut Rng::stream(cfg.seed, 0x2e05_0001), WORKING_SET, RANKS);
        Ok::<_, String>(Reuse {
            engine,
            cases,
            ranks,
            cursor: 0,
            failed,
            code_bytes_per_insn: code_bytes as f64 / insns.max(1) as f64,
        })
    });
    let mut w = match made {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.attempted += WORKING_SET as u64;
    out.failed += w.failed;

    let shadow = LambdaCache::<dyn Lambda>::new(L1);
    let mut m = Meters::new(cfg, 1 << 18);
    let mut rounds = Rounds::default();
    for round in 0..cfg.rounds() {
        let traced = cfg.trace && round % 2 == 1 && m.tr.has_room();
        let r = w.round(traced, cfg.round(), &mut m, &shadow, &mut out);
        out.attempted += r.done;
        out.failed += r.failed;
        rounds.push(traced, r.done as f64 / r.secs, &mut m.lat);
    }
    if !cfg.trace {
        rounds.end_to_end(&mut out, setup_s);
        out.set("code_bytes_per_insn", w.code_bytes_per_insn, 1);
        return out;
    }

    // Determinism self-check: an exact metric measured twice.
    match (l1_hit_share(&dir, &w), l1_hit_share(&dir, &w)) {
        (Ok(a), Ok(b)) if a == b => out.set("cache.l1_hit_share", a, (RANKS / 2) as u64),
        (Ok(a), Ok(b)) => out.fail(format!("cache.l1_hit_share did not repeat: {a} then {b}")),
        (Err(e), _) | (_, Err(e)) => out.fail(e),
    }
    // The hit path, on a cache the benchmark owns, filled with what the
    // engine's L1 holds right now.
    let resident: Vec<(&Case, CacheKey, Arc<dyn Lambda>)> = w
        .cases
        .iter()
        .filter_map(|c| {
            let (bytes, hash) = c.prog.encoded();
            let key = CacheKey::from_encoded(TargetId::X64, Arc::clone(bytes), *hash);
            let lambda = w.engine.cache().peek(&key)?;
            Some((c, key, lambda))
        })
        .collect();
    if resident.is_empty() {
        out.fail("the L1 holds none of the working set".to_string());
    } else {
        let hot = LambdaCache::<dyn Lambda>::new(L1);
        for (_, key, l) in &resident {
            let _ = hot.get_or_insert_with(key.clone(), || Ok::<_, String>(Arc::clone(l)));
        }
        let mut i = 0;
        out.probe(
            "cache.hit_ns",
            per_call_ns(cfg.probe(), || {
                black_box(hot.get(&resident[i % resident.len()].1));
                i += 1;
            }),
        );
        out.probe(
            "x64.call_ns",
            per_call_ns(cfg.probe(), || {
                let (c, _, l) = &resident[i % resident.len()];
                let _ = black_box(l.call(&c.args));
                i += 1;
            }),
        );
    }
    m.st.report(&mut out);
    rounds.latency(&mut out);
    rounds.trace_overhead(&mut out);
    crate::write_trace(cfg, &[("main", Some(&m.tr))], &mut out);
    out
}
