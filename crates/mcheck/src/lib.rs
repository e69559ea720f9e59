//! Model programs for vcode's concurrency protocols.
//!
//! Each function in [`programs`] is a small, bounded concurrent program
//! written against the *production* types (`vcode::rcu::Rcu`,
//! `vcode::cache::LambdaCache`, `vcode::CodeStack`) or a faithful
//! protocol mirror (quarantine gate), with its core invariant
//! expressed as an in-program `assert!`. Running one under
//! [`Explorer::exhaustive`]/[`Explorer::random`] explores its
//! interleavings deterministically; any assertion failure, deadlock or
//! livelock comes back as a [`Violation`] carrying a replayable
//! schedule.
//!
//! The checker's teeth are proven mutation-style (see
//! `tests/models.rs`): weakening the RCU publication barrier
//! ([`Injection::RcuRelaxedPublication`]) and dropping the cache's
//! build-completion notify ([`Injection::DropCacheNotify`]) must each
//! be *caught* by the explorer, with a schedule that replays.

pub use vcode::vsync::model::{
    parse_schedule, render_schedule, Choice, Explorer, Options, Report, Violation,
};
pub use vcode::vsync::Injection;

/// The model programs. Every function is a complete, self-contained
/// concurrent program meant to run under the [`Explorer`]; invariants
/// are in-program assertions.
pub mod programs {
    use vcode::cache::{CacheError, CacheKey, LambdaCache};
    use vcode::rcu::Rcu;
    use vcode::vsync::{
        self, Arc, AtomicBool, AtomicU64, Condvar, Duration, Instant, Mutex, Ordering,
    };
    use vcode::TargetId;

    fn key(h: u64) -> CacheKey {
        CacheKey::from_client_hash(TargetId::Mips, h)
    }

    /// **No use-after-retire.** A reader enters a read-side critical
    /// section and holds the guard across another facade op (as
    /// `DpfReader::classify_batch` does) while the writer publishes a
    /// new generation and reclaims. The `ReadGuard` deref trips the
    /// freed-canary assertion if reclaim ever frees a generation a
    /// live reader still holds — which requires the SeqCst announce
    /// barrier ([`Injection::RcuRelaxedPublication`] breaks it).
    pub fn rcu_no_use_after_retire() {
        let rcu: Arc<Rcu<u64>> = Arc::new(Rcu::new(0));
        let slot = rcu.register_slot();
        let touch = Arc::new(AtomicU64::new(0));
        let reader = {
            let rcu = Arc::clone(&rcu);
            let touch = Arc::clone(&touch);
            vsync::thread::spawn(move || {
                let g = rcu.enter(&slot);
                // A facade op with the guard held: the read-side
                // critical section spans a schedule point, like the
                // real classifier's per-batch counter bump.
                touch.fetch_add(1, Ordering::Relaxed);
                *g
            })
        };
        rcu.publish(1);
        let v = reader.join().expect("reader panicked");
        assert!(v <= 1, "reader saw a value never published: {v}");
    }

    /// **No use-after-retire with a concurrent reclaimer.** In
    /// `DpfService` the thread that reclaims is often not the one that
    /// publishes: every reader's `classify_batch` runs a best-effort
    /// `reclaim`. Here a third thread reclaims while a reader enters and
    /// the writer publishes. A reclaim whose slot scan ran *before* the
    /// reader announced itself must not judge a generation retired
    /// *after* that scan — it proves nothing about that reader.
    pub fn rcu_concurrent_reclaim_no_use_after_retire() {
        let rcu: Arc<Rcu<u64>> = Arc::new(Rcu::new(0));
        let slot = rcu.register_slot();
        let touch = Arc::new(AtomicU64::new(0));
        let reader = {
            let rcu = Arc::clone(&rcu);
            vsync::thread::spawn(move || {
                let g = rcu.enter(&slot);
                // The critical section spans a schedule point, as in
                // `rcu_no_use_after_retire`.
                touch.fetch_add(1, Ordering::Relaxed);
                *g
            })
        };
        let reclaimer = {
            let rcu = Arc::clone(&rcu);
            vsync::thread::spawn(move || {
                rcu.reclaim();
            })
        };
        rcu.publish(1);
        let v = reader.join().expect("reader panicked");
        assert!(v <= 1, "reader saw a value never published: {v}");
        reclaimer.join().expect("reclaimer panicked");
    }

    /// **Removed ids are unmatchable after `remove` returns.** Models
    /// `DpfService::remove`: the writer publishes a generation without
    /// the filter (here: `false`), then sets a "remove returned" flag.
    /// Any reader that observes the flag and *then* enters must see the
    /// new generation.
    pub fn rcu_removed_id_unmatchable() {
        let rcu: Arc<Rcu<bool>> = Arc::new(Rcu::new(true));
        let slot = rcu.register_slot();
        let removed = Arc::new(AtomicBool::new(false));
        let reader = {
            let rcu = Arc::clone(&rcu);
            let removed = Arc::clone(&removed);
            vsync::thread::spawn(move || {
                if removed.load(Ordering::SeqCst) {
                    let g = rcu.enter(&slot);
                    assert!(!*g, "removed id still matchable after remove returned");
                }
            })
        };
        rcu.publish(false); // remove the filter
        removed.store(true, Ordering::SeqCst); // "remove() has returned"
        rcu.reclaim();
        reader.join().expect("reader panicked");
    }

    /// **Exactly one build per key.** Two threads race
    /// `get_or_insert_with` on the same key; the Building-slot protocol
    /// must elect exactly one builder and hand both callers the same
    /// value.
    pub fn cache_exactly_one_build() {
        let cache: Arc<LambdaCache<u64>> = Arc::new(LambdaCache::new(4));
        let built = Arc::new(AtomicU64::new(0));
        let racer = {
            let cache = Arc::clone(&cache);
            let built = Arc::clone(&built);
            vsync::thread::spawn(move || {
                *cache
                    .get_or_insert_with(key(0xBEEF), || {
                        built.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, ()>(Arc::new(7u64))
                    })
                    .expect("infallible builder")
            })
        };
        let a = *cache
            .get_or_insert_with(key(0xBEEF), || {
                built.fetch_add(1, Ordering::SeqCst);
                Ok::<_, ()>(Arc::new(7u64))
            })
            .expect("infallible builder");
        let b = racer.join().expect("racer panicked");
        assert_eq!((a, b), (7, 7), "waiter saw a value the builder never made");
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "the Building slot admitted more than one builder for one key"
        );
    }

    /// **`CacheError::Stalled` via the virtual clock.** One thread
    /// claims the build slot and hangs (a 50 ms model sleep); a second
    /// thread, gated to arrive only after the claim, waits with a
    /// 10 ms bound. The virtual clock fires the shorter deadline
    /// first, so the waiter must come back with `Stalled` — in every
    /// interleaving — while the hung builder still completes once its
    /// sleep expires.
    pub fn cache_stalled_path() {
        let cache: Arc<LambdaCache<u64>> =
            Arc::new(LambdaCache::new(4).with_stall_timeout(Duration::from_millis(10)));
        let claimed = Arc::new((Mutex::new(false), Condvar::new()));
        let builder = {
            let cache = Arc::clone(&cache);
            let claimed = Arc::clone(&claimed);
            vsync::thread::spawn(move || {
                cache
                    .get_or_insert_with(key(0xD00D), || {
                        // Announce the claim, then hang: the slot stays
                        // Building for 50 virtual ms.
                        let (m, cv) = &*claimed;
                        *m.lock().unwrap_or_else(|e| e.into_inner()) = true;
                        cv.notify_all();
                        vsync::thread::sleep(Duration::from_millis(50));
                        Ok::<_, ()>(Arc::new(1u64))
                    })
                    .expect("infallible builder")
            })
        };
        {
            let (m, cv) = &*claimed;
            let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
            while !*g {
                g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        let r = cache.get_or_build(key(0xD00D), || Ok::<_, ()>(Arc::new(2u64)));
        assert!(
            matches!(r, Err(CacheError::Stalled { .. })),
            "bounded waiter did not surface the stall: {r:?}"
        );
        assert_eq!(*builder.join().expect("builder panicked"), 1);
    }

    /// **Waiters wake by notify, not by timeout.** Two threads race one
    /// key; whichever loses waits on the Building slot's condvar. The
    /// builder never blocks, so the virtual clock must never advance:
    /// each caller asserts its wait took less than the stall window.
    /// Dropping the completion notify ([`Injection::DropCacheNotify`])
    /// leaves the loser parked until its timeout — a virtual-clock jump
    /// this assertion converts into a caught violation.
    pub fn cache_notify_wakes_waiters() {
        const STALL: Duration = Duration::from_millis(100);
        let cache: Arc<LambdaCache<u64>> = Arc::new(LambdaCache::new(4).with_stall_timeout(STALL));
        let step = Arc::new(AtomicU64::new(0));
        let call = |cache: &LambdaCache<u64>, step: &AtomicU64| {
            let before = Instant::now();
            let v = *cache
                .get_or_insert_with(key(0xF00D), || {
                    step.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, ()>(Arc::new(3u64))
                })
                .expect("infallible builder");
            assert!(
                before.elapsed() < STALL,
                "waiter only woke via the stall timeout: the build-completion notify was lost"
            );
            v
        };
        let racer = {
            let cache = Arc::clone(&cache);
            let step = Arc::clone(&step);
            vsync::thread::spawn(move || call(&cache, &step))
        };
        let a = call(&cache, &step);
        let b = racer.join().expect("racer panicked");
        assert_eq!((a, b), (3, 3));
    }

    /// **One build per key through the stack.** Two threads race
    /// `CodeStack::get_or_build` — the one entry point a miss has — on
    /// the same cold key. Whichever claims the `Building` slot runs the
    /// one miss function on its own thread; the other waits for it and
    /// ends on the same value. That wait must end by the
    /// build-completion notify, not the stall clock, so
    /// [`Injection::DropCacheNotify`] is caught on this path too.
    pub fn stack_two_racers_one_build() {
        use vcode::{CodeStack, L2};
        const STALL: Duration = Duration::from_secs(10);
        let stack: Arc<CodeStack<u64>> = Arc::new(CodeStack::new(4));
        let built = Arc::new(AtomicU64::new(0));
        let call = |stack: &CodeStack<u64>, built: &AtomicU64| {
            let before = Instant::now();
            let v = stack
                .get_or_build(&key(0xCAFE), |l2: L2<'_, u64>| {
                    l2.or_build(|| {
                        built.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, String>(Arc::new(7u64))
                    })
                })
                .expect("infallible miss");
            assert!(
                before.elapsed() < STALL,
                "racer only woke via the stall timeout: the build-completion notify was lost"
            );
            *v
        };
        let racer = {
            let stack = Arc::clone(&stack);
            let built = Arc::clone(&built);
            vsync::thread::spawn(move || call(&stack, &built))
        };
        let a = call(&stack, &built);
        let b = racer.join().expect("racer panicked");
        assert_eq!((a, b), (7, 7));
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "two racers both ran the miss for one key"
        );
    }

    /// **At most one post-quarantine probe.** Mirrors the
    /// `CompileService::submit` gate: a quarantine record checked under
    /// its mutex (probing flag, expiry), then a build-slot claim — the
    /// check-then-act gap between releasing the quarantine lock and
    /// claiming the slot is exactly where a second probe could sneak
    /// in, and the slot CAS is what must stop it.
    pub fn quarantine_single_probe() {
        struct Gate {
            /// (probe in flight, backoff expiry in virtual ms).
            q: Mutex<(bool, u64)>,
            /// The cache's Building-slot claim (`Probe::Claimed`).
            slot: AtomicBool,
            probes: AtomicU64,
        }
        let g = Arc::new(Gate {
            q: Mutex::new((false, 0)), // backoff already expired
            slot: AtomicBool::new(false),
            probes: AtomicU64::new(0),
        });
        let submit = |g: &Gate| {
            {
                let q = g.q.lock().unwrap_or_else(|e| e.into_inner());
                if q.0 {
                    return; // Submit::InFlight
                }
                if 0 < q.1 {
                    return; // Submit::Quarantined
                }
            }
            // Backoff expired: admit at most one probe via the slot CAS.
            if g.slot
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                g.q.lock().unwrap_or_else(|e| e.into_inner()).0 = true;
                g.probes.fetch_add(1, Ordering::SeqCst);
            }
        };
        let t1 = {
            let g = Arc::clone(&g);
            vsync::thread::spawn(move || submit(&g))
        };
        let t2 = {
            let g = Arc::clone(&g);
            vsync::thread::spawn(move || submit(&g))
        };
        submit(&g);
        t1.join().expect("submitter panicked");
        t2.join().expect("submitter panicked");
        assert_eq!(
            g.probes.load(Ordering::SeqCst),
            1,
            "quarantine gate admitted a second probe during one backoff window"
        );
    }

    /// **Persistent-cache single writer, never-torn reads.** Two
    /// threads race to persist the same artifact fingerprint through
    /// the production [`StoreSlots`](vcode::persist::StoreSlots)
    /// protocol (exists-check → claim → re-check → publish), with the
    /// filesystem modeled as one publication cell whose swap is atomic
    /// — exactly the guarantee `rename(2)` gives the real `DiskTier`.
    /// Invariants: racing persisters publish **exactly one** artifact,
    /// and a concurrent reader never observes a torn (incomplete or
    /// mixed-byte) file. [`Injection::PersistClaimRace`] hands the
    /// claim out without recording it, so both writers win the slot
    /// and the double publication is caught.
    pub fn persist_single_writer() {
        use vcode::persist::StoreSlots;
        let slots = Arc::new(StoreSlots::new());
        // The "artifact file": swapped whole, as rename publishes it.
        let file: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let publishes = Arc::new(AtomicU64::new(0));
        let persister = |payload: u8| {
            let slots = Arc::clone(&slots);
            let file = Arc::clone(&file);
            let publishes = Arc::clone(&publishes);
            move || {
                // DiskTier::store's protocol, in miniature.
                if file.lock().unwrap().is_some() {
                    return;
                }
                let Some(_ticket) = slots.try_claim(0xFEED) else {
                    return;
                };
                if file.lock().unwrap().is_some() {
                    return;
                }
                // Stage the full image privately (the temp file), then
                // publish in one atomic swap (the rename).
                let staged = vec![payload; 8];
                publishes.fetch_add(1, Ordering::SeqCst);
                *file.lock().unwrap() = Some(staged);
            }
        };
        let w1 = vsync::thread::spawn(persister(0xAA));
        let w2 = vsync::thread::spawn(persister(0xBB));
        let reader = {
            let file = Arc::clone(&file);
            vsync::thread::spawn(move || {
                for _ in 0..2 {
                    if let Some(b) = file.lock().unwrap().as_ref() {
                        assert_eq!(b.len(), 8, "reader observed a torn artifact");
                        assert!(
                            b.iter().all(|&x| x == b[0]),
                            "reader observed a mixed-writer artifact"
                        );
                    }
                }
            })
        };
        w1.join().expect("writer 1 panicked");
        w2.join().expect("writer 2 panicked");
        reader.join().expect("reader panicked");
        assert_eq!(
            publishes.load(Ordering::SeqCst),
            1,
            "racing persisters must publish exactly one artifact"
        );
        assert!(
            file.lock().unwrap().is_some(),
            "the winning claim must actually publish"
        );
    }

    /// All model programs, by name — the seeded smoke run, the
    /// exhaustive CI sweep and the bench interleaving counts iterate
    /// this table.
    pub fn all() -> &'static [(&'static str, fn())] {
        &[
            ("rcu_no_use_after_retire", rcu_no_use_after_retire),
            (
                "rcu_concurrent_reclaim_no_use_after_retire",
                rcu_concurrent_reclaim_no_use_after_retire,
            ),
            ("rcu_removed_id_unmatchable", rcu_removed_id_unmatchable),
            ("cache_exactly_one_build", cache_exactly_one_build),
            ("cache_stalled_path", cache_stalled_path),
            ("cache_notify_wakes_waiters", cache_notify_wakes_waiters),
            ("stack_two_racers_one_build", stack_two_racers_one_build),
            ("quarantine_single_probe", quarantine_single_probe),
            ("persist_single_writer", persist_single_writer),
        ]
    }
}
