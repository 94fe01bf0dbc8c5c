//! Proves an engine's kept memory does not grow with the tag count.
//!
//! A counting `#[global_allocator]` wraps the system allocator and tracks
//! the live heap: bytes allocated minus bytes freed. The engine keeps a
//! round's large buffers from round to round (see `tests/round_alloc.rs`),
//! but mixes the tags a pair at a time, so it keeps two tag envelopes and
//! a block scratch whatever the number of tags. On the 10-tag, two-pass
//! SIC engine, warm rounds with all ten tags active must leave less than
//! 1 MB more heap behind than warm rounds with two: an engine that kept
//! one envelope per transmitting tag would keep 8 more envelopes of
//! 197 KB (24,576 samples of `f64` each), 1.57 MB. The count is exact, so
//! host speed cannot hide such a buffer.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! change the live heap between the two readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use cbma::prelude::*;
use cbma::tag::ImpedanceState;

/// Largest growth of the kept heap allowed between the two readings.
const BUDGET: i64 = 1 << 20;

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches only
// an atomic and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

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

/// Runs `rounds` rounds with `active` transmitting, dropping each
/// outcome, and returns the live heap afterwards: what the engine keeps.
fn kept_after(engine: &mut Engine, active: &[usize], rounds: usize) -> (i64, usize) {
    let mut delivered = 0;
    for _ in 0..rounds {
        delivered += engine.run_round_subset(active).delivered.len();
    }
    (LIVE_BYTES.load(Ordering::SeqCst), delivered)
}

#[test]
fn kept_heap_does_not_grow_with_the_tag_count() {
    // Round lengths differ by a few samples, so capture-length buffers
    // settle only after a few rounds (see `tests/round_alloc.rs`).
    const ROUNDS: usize = 12;
    let mut engine = dense10();
    let all: Vec<usize> = (0..10).collect();
    let (two, delivered_two) = kept_after(&mut engine, &[0, 1], ROUNDS);
    let (ten, delivered_ten) = kept_after(&mut engine, &all, ROUNDS);
    assert!(delivered_two > 0 && delivered_ten > 0, "nothing delivered");
    let growth = ten - two;
    assert!(
        growth < BUDGET,
        "the engine keeps {growth} more bytes after ten-tag rounds than after \
         two-tag rounds ({two} → {ten}); the budget is {BUDGET}"
    );
}
