//! A compile allocates what it hands out, and nothing to get there.
//!
//! A generation session's tables (label offsets, fixups, ret sites,
//! argument registers, the signature's type list) are storage a thread
//! keeps from one lowering to the next (`vcode::asm::SessionTables`,
//! beside the code scratch of `engine::lower_in_scratch`), and a
//! `Program` is its serialized bytes, so keying it is one copy. What is
//! left per call, counted here by a `#[global_allocator]` after a
//! 64-program warm-up over a seeded pool:
//!
//! | per call                                        | 2fb0710 | bound | reached |
//! |-------------------------------------------------|---------|-------|---------|
//! | `replay::<X64>`                                 | 14.3    | 0     | 0       |
//! | `clone` + first-sight `compile_cached` + `call` | 21.3    | <= 5  | 5       |
//!
//! `replay` hands back a `Finished`, the image's layout and nothing on
//! the heap. The five of a request are the caller's `Program::clone`,
//! the shared key stream (`Program::encoded`), the L1's claim on the
//! key, the lambda around the sealed code (an `Arc`, the only count that
//! keeps the code alive), and the victim list of the eviction the
//! insert causes. The assertions are on the numbers reached, so a change that
//! adds an allocation to either path fails here.
//!
//! One test, its own process: the allocator is the process's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vcode::engine::{replay, Engine, Program, TargetId};
use vcode_x64::{X64Backend, X64};

/// The system allocator, counting the calls the measuring thread makes
/// while it is armed.
struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: a thread allocating while its locals are torn down
    // is not the one measuring.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one asked of this impl; the counter is a
// const-initialized `Cell` thread-local, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller's contract says.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.set(Some(0));
    f();
    COUNT.replace(None).expect("armed above")
}

const WARM_UP: usize = 64;
const MEASURED: usize = 448;
/// Full after the warm-up, so every measured insert also evicts.
const L1: usize = 32;
const FUEL: u64 = 1_000_000;
/// Not per call: a kept table doubles when a program needs more of it
/// than any before did, a handful of times over any pool.
const GROWTH: u64 = 8;

#[test]
fn a_warm_thread_allocates_only_what_a_compile_hands_out() {
    let mut rng = harden::XorShift::new(0xa110_c5f2_ee01);
    let cases: Vec<(Program, [i32; 2], i64)> = (0..WARM_UP + MEASURED)
        .map(|serial| {
            let p = harden::seeded_program(&mut rng, serial as u32);
            let args = [rng.next_u64() as i32, rng.range(0, 4096) as i32 - 2048];
            let want = p.interpret(&args, FUEL).expect("terminates");
            (p, args, want)
        })
        .collect();
    let (warm_up, measured) = cases.split_at(WARM_UP);

    // Lowering alone, into the caller's buffer.
    let mut mem = vec![0u8; cases.iter().map(|c| c.0.code_capacity()).max().unwrap()];
    let mut lower = |(p, _, _): &(Program, [i32; 2], i64)| {
        let fin = replay::<X64>(p, &mut mem).expect("lowers");
        assert!(fin.len > 0);
    };
    warm_up.iter().for_each(&mut lower);
    let in_replay = allocations_in(|| measured.iter().for_each(&mut lower));

    // A first-sight request: a fresh copy (nothing memoized), a miss in
    // a full L1, the first call.
    let mut engine = Engine::new(L1);
    engine.register(Arc::new(X64Backend));
    let request = |(p, args, want): &(Program, [i32; 2], i64)| {
        let lambda = engine
            .compile_cached(TargetId::X64, &p.clone())
            .expect("compiles");
        assert_eq!(lambda.call(args).expect("runs"), *want);
    };
    warm_up.iter().for_each(request);
    let in_requests = allocations_in(|| measured.iter().for_each(request));
    assert_eq!(engine.cache_stats().hits, 0, "every request must compile");

    let per_call = |n: u64| n as f64 / MEASURED as f64;
    println!(
        "allocations per call over {MEASURED}: replay::<X64> {:.2}, first-sight request {:.2}",
        per_call(in_replay),
        per_call(in_requests)
    );
    assert!(
        in_replay <= GROWTH,
        "replay::<X64>: {:.2} per call, 0 reached",
        per_call(in_replay)
    );
    assert!(
        in_requests <= 5 * MEASURED as u64 + GROWTH,
        "first-sight request: {:.2} per call, 5 reached",
        per_call(in_requests)
    );
}
