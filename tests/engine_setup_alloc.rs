//! Bounds the heap allocations of building an engine.
//!
//! Every campaign job and every benchmark repetition builds its engines
//! afresh, so `Engine::new` is set-up cost paid per deployment. A counting
//! `#[global_allocator]` wraps the system allocator and counts every
//! allocation and reallocation while one engine is built, after a first
//! engine of the same scenario has been built and dropped. Building the
//! 2NC family with one ±1 correlation per admission test allocated two
//! vectors per test: 2,656 allocations for the 10-tag deployment below
//! and 797 for the paper's 4-tag one. The count is exact, so host speed
//! cannot hide a set-up path that allocates per code pair again.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the counting window of `count_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma::prelude::*;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with counting enabled; returns how many allocations and
/// reallocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// The 4-tag paper deployment: a 4-user 2NC family (16 chips).
fn paper4() -> Scenario {
    Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(7)
}

/// The paper's 10-tag maximum at `cbma_bench::balanced_positions(10)`:
/// a 10-user 2NC family (32 chips) and two SIC passes.
fn dense10() -> Scenario {
    let positions = vec![
        Point::new(0.15, 0.45),
        Point::new(-0.15, 0.45),
        Point::new(0.15, -0.45),
        Point::new(-0.15, -0.45),
        Point::new(0.35, 0.5),
        Point::new(-0.35, 0.5),
        Point::new(0.35, -0.5),
        Point::new(-0.35, -0.5),
        Point::new(0.0, 0.62),
        Point::new(0.0, -0.62),
    ];
    let mut scenario = Scenario::paper_default(positions).with_seed(7);
    scenario.rx_config.sic_passes = 2;
    scenario
}

#[test]
fn engine_set_up_allocations_are_bounded() {
    // Measured with the packed 2NC table, in debug and release builds
    // alike: 264 (dense10) and 126 (paper4) allocations. Each bound
    // leaves 25 % headroom for set-up that grows a little, and sits far
    // below the per-pair allocations of the old family build.
    for (name, scenario, bound) in [("dense10", dense10(), 330), ("paper4", paper4(), 158)] {
        drop(Engine::new(scenario.clone()).unwrap());
        let (allocations, engine) = count_allocs(|| Engine::new(scenario).unwrap());
        assert_eq!(engine.tags().len(), engine.scenario().n_tags(), "{name}");
        // Shown with `-- --nocapture`.
        eprintln!("{name}: Engine::new made {allocations} allocations (bound {bound})");
        assert!(
            allocations <= bound,
            "{name}: Engine::new made {allocations} allocations (bound {bound})"
        );
    }
}
