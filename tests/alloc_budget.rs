//! Bounds the receive path's heap allocations on dense captures.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A
//! steady-state receiver decodes ten concurrent tags with two SIC passes,
//! and each capture may allocate at most two blocks per sync candidate
//! (one decode's bit buffer and its payload) plus a fixed allowance per
//! reported user (the report itself, probe decodes). SIC cancels each
//! user from code-word windows the receiver builds once, in its first SIC
//! pass (a warm-up capture here), and allocates nothing per user. A
//! decode that copies its bits or payload through extra buffers, or a
//! failure that formats a message, exceeds the budget.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the counting window of `count_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma::prelude::*;
use cbma::rx::Receiver;
use cbma::tag::ImpedanceState;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches only
// an atomic and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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

/// Runs `f` with allocation counting enabled; returns how many heap
/// allocations it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// The paper's 10-tag maximum at balanced positions: mirrored across
/// both axes, so all ten links sit within ~2 dB of each other.
fn balanced_ten() -> Vec<Point> {
    vec![
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
    ]
}

#[test]
fn dense_capture_allocations_are_bounded_by_candidates_and_users() {
    const WARM_UP: usize = 3;
    const MEASURED: usize = 5;

    // Ten tags at full power, two SIC passes: most sync candidates fail
    // their decode, and SIC re-runs the pipeline on the residual.
    let mut scenario = Scenario::paper_default(balanced_ten()).with_seed(7);
    scenario.rx_config.sic_passes = 2;
    let mut engine = Engine::new(scenario).unwrap();
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    engine.set_capture_iq(true);
    let captures: Vec<Vec<Iq>> = (0..WARM_UP + MEASURED)
        .map(|_| engine.run_round().iq.expect("capture_iq is on"))
        .collect();

    let scenario = engine.scenario();
    let codes = scenario
        .family
        .build()
        .and_then(|f| f.codes(scenario.n_tags()))
        .unwrap();
    let mut rx = Receiver::new(codes, scenario.phy, scenario.rx_config);
    for capture in &captures[..WARM_UP] {
        rx.receive(capture);
    }

    let mut users_decoded = 0;
    for (i, capture) in captures[WARM_UP..].iter().enumerate() {
        let (allocs, report) = count_allocs(|| rx.receive(capture));
        let t = &report.telemetry;
        assert!(
            t.candidates_evaluated > 4 * report.users.len(),
            "capture {i}: too few candidates ({}) to exercise failed decodes",
            t.candidates_evaluated
        );
        let budget = 2 * t.candidates_evaluated + 16 * (report.users.len() + 1);
        assert!(
            allocs as usize <= budget,
            "capture {i}: {allocs} allocations over the budget of {budget} \
             ({} candidates, {} users reported)",
            t.candidates_evaluated,
            report.users.len()
        );
        users_decoded += report.ack.len();
    }
    assert!(
        users_decoded >= 8 * MEASURED,
        "only {users_decoded} users decoded over {MEASURED} dense captures"
    );
}
