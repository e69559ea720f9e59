//! Tier-1 model-checker smoke: a seeded 10k-random-schedule run over
//! every concurrency model program (see `crates/mcheck`), wired into
//! plain `cargo test -q` so schedule-dependent regressions in the
//! RCU/cache/stack/quarantine protocols fail fast. The walks are
//! deterministic (seeded SplitMix64 over schedule decisions), so a
//! failure here reproduces exactly; the full exhaustive sweeps run in
//! the dedicated `scripts/ci.sh` stage (`cargo test -p mcheck -q --
//! --ignored`).

use mcheck::{programs, Explorer};

#[test]
fn seeded_10k_random_schedule_smoke() {
    let progs = programs::all();
    // 10_000 schedules spread evenly across the programs; the +1 seed
    // offset keeps every program on its own deterministic stream.
    let per = 10_000 / progs.len() as u64;
    for (i, (name, f)) in progs.iter().enumerate() {
        let report = Explorer::new().random(0x10C4_0000 + i as u64, per, f);
        assert_eq!(report.executions, per);
        if let Some(v) = report.violation {
            panic!(
                "model program {name} violated under seeded random schedules \
                 (replay with Explorer::replay or the printed seed):\n{v}"
            );
        }
    }
}
