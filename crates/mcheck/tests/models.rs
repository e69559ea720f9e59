//! Explorer runs over the model programs: quick seeded smoke, the
//! `CacheError::Stalled` virtual-clock regression, the mutation
//! (checker-teeth) tests, and the full exhaustive sweeps behind
//! `--ignored` (run by the dedicated `scripts/ci.sh` stage).

use mcheck::{programs, Explorer, Injection, Options};

/// The walk seed that reaches the Relaxed-announce violation (see
/// `mutation_relaxed_rcu_publication_is_caught`).
const RELAXED_SEED: u64 = 10;

fn injected(i: Injection) -> Explorer {
    Explorer::with_options(Options {
        injections: vec![i],
        ..Options::default()
    })
}

/// Every model program, a few hundred seeded random schedules each:
/// the fast always-on sanity pass (the 10k-schedule tier-1 smoke lives
/// in the workspace root's `tests/mcheck_smoke.rs`).
#[test]
fn seeded_random_sanity_all_programs() {
    for (i, (name, f)) in programs::all().iter().enumerate() {
        let report = Explorer::new().random(0x5EED ^ (i as u64), 200, f);
        if let Some(v) = report.violation {
            panic!("model program {name} violated under random schedules:\n{v}");
        }
    }
}

/// Satellite regression: the `LambdaCache` bounded Building-slot wait
/// runs on the facade's virtual clock, so the `CacheError::Stalled`
/// path is deterministic under the model scheduler — the program
/// asserts `Stalled` in *every* interleaving.
#[test]
fn cache_stalled_path_is_deterministic_on_virtual_clock() {
    let report = Explorer::new().exhaustive(50_000, programs::cache_stalled_path);
    assert!(report.executions > 0);
    report.assert_ok();
}

/// Checker teeth, mutation 1: weakening the RCU reader-announce
/// barrier from SeqCst to Relaxed must be caught (the writer's slot
/// scan misses the buffered announce and reclaims a generation a live
/// reader holds), and the reported schedule must replay to the same
/// violation. Seeded random walks find this one: the violating
/// interleaving flips an *early* schedule decision, which tail-first
/// DFS only reaches deep into the tree (the walks are deterministic,
/// so this test is too). The interleaving is rare — about one walk in
/// 10^5 — so the test names the seed that reaches it (walk 7 845 of
/// seed 10; any change to `Rcu`'s schedule points moves it).
#[test]
fn mutation_relaxed_rcu_publication_is_caught() {
    let explorer = injected(Injection::RcuRelaxedPublication);
    let report = explorer.random(RELAXED_SEED, 8_000, programs::rcu_no_use_after_retire);
    let v = report.expect_violation("RCU use-after-retire under a Relaxed announce");
    assert!(
        v.message.contains("use-after-retire"),
        "unexpected violation: {v}"
    );
    // The trace is replayable: the same schedule, same injection, same
    // program reproduces the same violation deterministically.
    let replay = explorer.replay(&v.schedule, programs::rcu_no_use_after_retire);
    let rv = replay.expect_violation("replay of the recorded schedule");
    assert_eq!(rv.message, v.message);
}

/// Checker teeth, mutation 2: dropping the cache's build-completion
/// notify must be caught (the losing racer only wakes via its stall
/// timeout, observed as a virtual-clock jump), with a replayable
/// schedule.
#[test]
fn mutation_dropped_cache_notify_is_caught() {
    let explorer = injected(Injection::DropCacheNotify);
    let report = explorer.exhaustive(100_000, programs::cache_notify_wakes_waiters);
    let v = report.expect_violation("lost wakeup under a dropped notify");
    assert!(
        v.message.contains("notify was lost"),
        "unexpected violation: {v}"
    );
    let replay = explorer.replay(&v.schedule, programs::cache_notify_wakes_waiters);
    let rv = replay.expect_violation("replay of the recorded schedule");
    assert_eq!(rv.message, v.message);
}

/// Sanity: on trunk (no injection) the two mutation targets are clean
/// under bounded DFS *and* under the exact random walks that catch the
/// mutations — the violations come from the weakenings, not the
/// programs.
#[test]
fn mutation_targets_are_clean_on_trunk() {
    Explorer::new()
        .exhaustive(30_000, programs::rcu_no_use_after_retire)
        .assert_ok();
    Explorer::new()
        .random(RELAXED_SEED, 8_000, programs::rcu_no_use_after_retire)
        .assert_ok();
    Explorer::new()
        .exhaustive(30_000, programs::cache_notify_wakes_waiters)
        .assert_ok();
}

/// A reclaim running beside a publish (every `DpfReader` batch runs one)
/// must not free a generation retired after its own slot scan: the scan
/// predates the reader that holds it. Before `Rcu::reclaim` bounded
/// itself to entries retired before the scan, walk 13 983 of seed 1
/// freed a generation under a live reader (the SIGSEGV
/// `dpf/tests/live_service.rs` hit about one run in twenty).
#[test]
fn concurrent_reclaimer_never_frees_under_a_reader() {
    Explorer::new()
        .random(
            1,
            15_000,
            programs::rcu_concurrent_reclaim_no_use_after_retire,
        )
        .assert_ok();
}

/// `Build::wake` notifies only when a waiter registered (under the
/// mutex `done` flips under). If that gate could lose a wakeup — a
/// waiter that checked `done`, was not yet counted, and then slept —
/// some interleaving here would park it until its stall timeout
/// (`cache_notify_wakes_waiters` turns that into a violation) or let a
/// second builder in (`cache_exactly_one_build`). The three cache
/// programs are small enough to explore *to completion*, so "no
/// violation" covers every interleaving, not a budget's worth.
#[test]
fn cache_models_explore_to_completion_with_waiter_gated_notify() {
    let cache_programs: [(&str, fn()); 3] = [
        ("cache_exactly_one_build", programs::cache_exactly_one_build),
        ("cache_stalled_path", programs::cache_stalled_path),
        (
            "cache_notify_wakes_waiters",
            programs::cache_notify_wakes_waiters,
        ),
    ];
    for (name, f) in cache_programs {
        let report = Explorer::new().exhaustive(50_000, f);
        assert!(
            report.complete,
            "{name}: {} interleavings and still not exhausted",
            report.executions
        );
        report.assert_ok();
    }
}

/// Checker teeth through the stack: with the build-completion notify
/// dropped, a `get_or_build` that lost the claim to the other racer only
/// wakes when the stall clock fires. Caught, and the schedule replays;
/// clean on trunk under the same exploration.
#[test]
fn mutation_dropped_notify_is_caught_through_the_stack() {
    Explorer::new()
        .exhaustive(100_000, programs::stack_two_racers_one_build)
        .assert_ok();
    let explorer = injected(Injection::DropCacheNotify);
    let report = explorer.exhaustive(100_000, programs::stack_two_racers_one_build);
    let v = report.expect_violation("racer stranded behind the other's build");
    assert!(
        v.message.contains("notify was lost"),
        "unexpected violation: {v}"
    );
    let replay = explorer.replay(&v.schedule, programs::stack_two_racers_one_build);
    let rv = replay.expect_violation("replay of the recorded schedule");
    assert_eq!(rv.message, v.message);
}

/// Checker teeth, mutation 3: handing out a persistence claim without
/// recording it ([`Injection::PersistClaimRace`]) lets both racing
/// writers win the single-writer slot and publish — the model must
/// catch the double publication, and the schedule must replay.
#[test]
fn mutation_persist_claim_race_is_caught() {
    let explorer = injected(Injection::PersistClaimRace);
    let report = explorer.exhaustive(100_000, programs::persist_single_writer);
    let v = report.expect_violation("double publication under an unrecorded claim");
    assert!(
        v.message.contains("exactly one artifact"),
        "unexpected violation: {v}"
    );
    let replay = explorer.replay(&v.schedule, programs::persist_single_writer);
    let rv = replay.expect_violation("replay of the recorded schedule");
    assert_eq!(rv.message, v.message);
}

/// The persistence protocol is clean on trunk under the same bounded
/// DFS that catches its mutation.
#[test]
fn persist_single_writer_is_clean_on_trunk() {
    Explorer::new()
        .exhaustive(100_000, programs::persist_single_writer)
        .assert_ok();
}

// -- full exhaustive sweeps (scripts/ci.sh runs these via --ignored) --

/// Explores `f` to completion and holds the exploration to `want`:
/// `(interleavings, schedule points taken)`. The explorer is
/// deterministic, so both are exact: they move when a model program or
/// the code under it gains or loses a scheduling point (a `notify`, a
/// lock, an atomic), and whoever moved them re-pins them here with the
/// reason.
fn sweep(name: &str, f: fn(), want: (u64, u64)) {
    let report = run(400_000, name, f);
    assert!(report.complete, "{name}: not exhausted within the budget");
    assert_eq!(
        (report.executions, report.steps),
        want,
        "{name}: (interleavings, steps) explored"
    );
}

/// Explores `f` depth-first for exactly `budget` interleavings: these
/// programs are too large to exhaust, so the interleaving count is the
/// bound and `steps` is what a change to the code under them moves.
fn sweep_to(budget: u64, name: &str, f: fn(), steps: u64) {
    let report = run(budget, name, f);
    assert!(
        !report.complete,
        "{name}: fits its budget now ({} interleavings); it belongs under `sweep`",
        report.executions
    );
    assert_eq!(
        (report.executions, report.steps),
        (budget, steps),
        "{name}: (interleavings, steps) explored"
    );
}

fn run(budget: u64, name: &str, f: fn()) -> mcheck::Report {
    let report = Explorer::new().exhaustive(budget, f);
    println!(
        "{name}: {} interleavings explored, {} steps, complete={}",
        report.executions, report.steps, report.complete
    );
    if let Some(v) = &report.violation {
        panic!("model program {name} violated:\n{v}");
    }
    report
}

#[test]
#[ignore = "full exhaustive sweep; run via scripts/ci.sh (cargo test -p mcheck -- --ignored)"]
fn exhaustive_rcu_models() {
    sweep(
        "rcu_no_use_after_retire",
        programs::rcu_no_use_after_retire,
        (84_364, 2_080_524),
    );
    sweep(
        "rcu_removed_id_unmatchable",
        programs::rcu_removed_id_unmatchable,
        (5_467, 147_334),
    );
    // Three threads: bounded (400k interleavings do not exhaust it and
    // take 12 minutes); the seeded walks above are what catch the bug.
    sweep_to(
        50_000,
        "rcu_concurrent_reclaim_no_use_after_retire",
        programs::rcu_concurrent_reclaim_no_use_after_retire,
        1_400_000,
    );
}

#[test]
#[ignore = "full exhaustive sweep; run via scripts/ci.sh (cargo test -p mcheck -- --ignored)"]
fn exhaustive_cache_models() {
    sweep(
        "cache_exactly_one_build",
        programs::cache_exactly_one_build,
        (218, 3_941),
    );
    sweep(
        "cache_stalled_path",
        programs::cache_stalled_path,
        (65, 1_465),
    );
    sweep(
        "cache_notify_wakes_waiters",
        programs::cache_notify_wakes_waiters,
        (218, 3_723),
    );
    sweep(
        "stack_two_racers_one_build",
        programs::stack_two_racers_one_build,
        (358, 6_921),
    );
}

#[test]
#[ignore = "full exhaustive sweep; run via scripts/ci.sh (cargo test -p mcheck -- --ignored)"]
fn exhaustive_quarantine_model() {
    sweep(
        "quarantine_single_probe",
        programs::quarantine_single_probe,
        (6_155, 83_702),
    );
}

#[test]
#[ignore = "full exhaustive sweep; run via scripts/ci.sh (cargo test -p mcheck -- --ignored)"]
fn exhaustive_persist_models() {
    sweep(
        "persist_single_writer",
        programs::persist_single_writer,
        (216_454, 4_238_682),
    );
}
