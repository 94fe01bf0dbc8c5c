//! Proves warm engine rounds make no large heap allocation.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! every allocation or reallocation of at least 64 KiB. A round's tag
//! envelopes, capture, mixer scratch and SIC residual are that large; the
//! engine and its receiver keep them from round to round (SIC cancels
//! from per-code code-word windows, so it rebuilds no envelope). So once
//! a few warm-up rounds have grown those buffers, a round must make no
//! such allocation at all: not the paper's 4-tag round, and not the
//! 10-tag round with two SIC passes. The count is exact, so host speed
//! cannot hide a buffer that is allocated per round again.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the counting window of `count_large_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma::prelude::*;
use cbma::tag::ImpedanceState;

/// The smallest allocation counted, in bytes.
const LARGE: usize = 64 * 1024;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE && COUNTING.load(Ordering::Relaxed) {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
/// reallocations of at least [`LARGE`] bytes it made.
fn count_large_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    LARGE_ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (LARGE_ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// The 4-tag paper deployment: seed-drawn boot impedances, SIC off.
fn paper4() -> Engine {
    let scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(7);
    Engine::new(scenario).unwrap()
}

/// The paper's 10-tag maximum at balanced positions (mirrored across
/// both axes, so all ten links sit within ~2 dB of each other), at full
/// power with two SIC passes.
fn dense10() -> Engine {
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
    let mut engine = Engine::new(scenario).unwrap();
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    engine
}

#[test]
fn warm_rounds_make_no_large_allocation() {
    // Round lengths differ by a few samples (each round draws its own
    // clock delays). A capture-length buffer is allocated to fit round 0
    // and doubles at the first longer round, after which no round
    // outgrows it. On dense10 at seed 7 that first longer round is round
    // 10 (three buffers of the capture's length double there), so the
    // warm-up runs past it.
    const WARM_UP: usize = 12;
    const MEASURED: usize = 6;

    for (name, mut engine) in [("paper4", paper4()), ("dense10", dense10())] {
        for _ in 0..WARM_UP {
            engine.run_round();
        }
        let mut delivered = 0;
        let mut sic_cancelled = false;
        for round in WARM_UP..WARM_UP + MEASURED {
            let (large, outcome) = count_large_allocs(|| engine.run_round());
            assert_eq!(
                large, 0,
                "{name} round {round}: {large} allocations of at least {LARGE} bytes"
            );
            delivered += outcome.delivered.len();
            sic_cancelled |= outcome.report.telemetry.sic_residual_energy > 0.0;
        }
        assert!(delivered > 0, "{name}: nothing delivered");
        assert_eq!(
            sic_cancelled,
            engine.scenario().rx_config.sic_passes > 0,
            "{name}: whether SIC cancelled a user"
        );
    }
}
