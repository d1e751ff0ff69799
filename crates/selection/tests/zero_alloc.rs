//! Proves the scratch-arena claim of the kernel layer end to end: once an
//! objective's arena is warm, the incremental-session hot path (push, pop,
//! value) performs **zero** heap allocations, and reopening a session costs
//! at most the session box itself.
//!
//! The counting allocator lives here — not in `jury-jq`, which is
//! `#![forbid(unsafe_code)]` — and this file intentionally holds a single
//! `#[test]` so no concurrent test thread can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use jury_jq::SharedJqScratch;
use jury_model::{Worker, WorkerPool};
use jury_selection::{
    ArenaObjective, BvObjective, IncrementalSession, JspInstance, JuryObjective, MvObjective,
};

/// Forwards to the system allocator, counting every allocation entry point
/// (`alloc`, `alloc_zeroed`, `realloc`); frees are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One full session lifecycle on a freshly opened session: push/pop the
/// same worker sequence the warm-up used (so no buffer ever needs to grow),
/// read the value, drop (which recycles the engine buffers into the
/// objective's arena).
fn run_session_cycle(mut session: Box<dyn IncrementalSession + '_>, workers: &[Worker]) -> f64 {
    for worker in &workers[..8] {
        session.push(worker);
    }
    let mut value = session.value();
    for worker in &workers[..8] {
        assert!(session.pop(worker));
    }
    for worker in &workers[4..12] {
        session.push(worker);
    }
    value += session.value();
    for worker in &workers[4..12] {
        assert!(session.pop(worker));
    }
    value
}

#[test]
fn warm_incremental_sessions_do_not_allocate() {
    let qualities: Vec<f64> = (0..20).map(|i| 0.55 + 0.02 * (i % 10) as f64).collect();
    let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
    // 20 candidates exceed `BvObjective::new()`'s exact cutoff (12), so the
    // BV objective opens bucket sessions.
    let instance = JspInstance::with_uniform_prior(pool.clone(), 8.0).unwrap();
    // 12 candidates are within it: the BV objective opens exact sessions.
    let small_pool = WorkerPool::from_workers(pool.workers()[..12].to_vec()).unwrap();
    let small = JspInstance::with_uniform_prior(small_pool, 8.0).unwrap();

    let bv = BvObjective::new();
    let mv = MvObjective::new();
    let exact = BvObjective::new();
    for (name, objective, instance) in [
        ("JQ(BV)", &bv as &dyn JuryObjective, &instance),
        ("JQ(MV)", &mv as &dyn JuryObjective, &instance),
        ("exact JQ(BV)", &exact as &dyn JuryObjective, &small),
    ] {
        // Warm-up: the first cycle pays every allocation once and returns
        // the buffers to the objective's arena when the session drops.
        let warm = run_session_cycle(objective.incremental_session(instance), pool.workers());

        let before = allocations();
        let hot = run_session_cycle(objective.incremental_session(instance), pool.workers());
        let spent = allocations() - before;

        assert_eq!(
            warm, hot,
            "{name}: warm and hot cycles must compute identical values"
        );
        // The session itself is boxed (one allocation); everything the
        // engine touches — distributions, scratch buffers, member lists —
        // must come out of the warm arena.
        assert!(
            spent <= 1,
            "{name}: a warm session cycle performed {spent} allocations \
             (expected at most the session box)"
        );
    }

    // Parallel phase — the portfolio's lane setup. Each lane wraps the one
    // shared BV objective in an [`ArenaObjective`] over its **own** arena,
    // pays its warm-up once, and then a steady-state cycle running in every
    // lane *concurrently* costs at most the session box per lane: no lane
    // ever locks another lane's arena or the inner objective's shared
    // scratch from the hot loop.
    const LANES: usize = 4;
    let arenas: Vec<SharedJqScratch> = (0..LANES).map(|_| SharedJqScratch::new()).collect();
    let warmed = std::sync::Barrier::new(LANES + 1);
    let measured = std::sync::Barrier::new(LANES + 1);
    let mut spent_parallel = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = arenas
            .iter()
            .map(|arena| {
                let (bv, instance, workers) = (&bv, &instance, pool.workers());
                let (warmed, measured) = (&warmed, &measured);
                scope.spawn(move || {
                    let lane = ArenaObjective::new(bv, arena);
                    let warm = run_session_cycle(lane.incremental_session(instance), workers);
                    warmed.wait();
                    measured.wait();
                    let hot = run_session_cycle(lane.incremental_session(instance), workers);
                    assert_eq!(
                        warm, hot,
                        "a lane's warm and hot cycles must compute identical values"
                    );
                })
            })
            .collect();
        warmed.wait();
        let before = allocations();
        measured.wait();
        for handle in handles {
            handle.join().unwrap();
        }
        spent_parallel = allocations() - before;
    });
    assert!(
        spent_parallel <= LANES as u64,
        "steady-state cycles across {LANES} lanes performed {spent_parallel} \
         allocations (expected at most one session box per lane)"
    );
}
