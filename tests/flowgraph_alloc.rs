//! Proves a warm flowgraph run copies no capture.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! every allocation or reallocation of at least 64 KiB. A paper-length
//! capture (about 12,600 samples, 200 KB) is far larger than that, while
//! everything else a run allocates (the capture queue, the report
//! channel, the reports) is far smaller. So once warm-up runs have grown
//! every worker's receiver scratch, a pool run that moves each capture
//! from its source to the worker that decides it makes no such
//! allocation, and a runtime that copies a capture, or chops it into
//! blocks and glues them back together, makes at least one per capture.
//! The count is exact, so host speed cannot hide a copy.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the counting window of `count_large_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma::prelude::*;
use cbma::rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
use cbma::rx::{Receiver, RxReport};

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

/// One source holding every capture as a stream of its own, as a
/// gateway serving many tags' streams would see them.
fn source(captures: &[Vec<Iq>]) -> CaptureSource {
    let mut source = CaptureSource::default();
    for (stream, capture) in captures.iter().enumerate() {
        source.push(stream, capture.clone());
    }
    source
}

#[test]
fn warm_flowgraph_run_copies_no_capture() {
    const CAPTURES: usize = 64;
    const WARM_UP: usize = 3;

    // 64 rounds of the paper's 4-tag deployment, SIC off.
    let scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(7);
    let mut engine = Engine::new(scenario).unwrap();
    engine.set_capture_iq(true);
    let mut captures: Vec<Vec<Iq>> = (0..CAPTURES)
        .map(|_| engine.run_round().iq.expect("capture_iq is on"))
        .collect();
    // Rounds differ by a few samples (each draws its own clock delays).
    // Padding every capture to the longest one's length lets a worker's
    // first capture grow its receiver's capture-length scratch for good,
    // whichever captures the pool hands that worker.
    let len = captures.iter().map(Vec::len).max().unwrap();
    assert!(len * std::mem::size_of::<Iq>() > 3 * LARGE, "{len} samples");
    for capture in &mut captures {
        capture.resize(len, Iq::ZERO);
    }

    let scenario = engine.scenario();
    let codes = scenario
        .family
        .build()
        .and_then(|family| family.codes(scenario.n_tags()))
        .unwrap();
    let (phy, config) = (scenario.phy, scenario.rx_config);
    let mut receiver = Receiver::new(codes.clone(), phy, config);
    let expected: Vec<RxReport> = captures.iter().map(|c| receiver.receive(c)).collect();

    let runtime = RuntimeConfig {
        scheduler: Scheduler::WorkStealing {
            workers: 2,
            pin: false,
        },
        ..RuntimeConfig::default()
    };
    let mut flow = RxFlowgraph::new(codes, phy, config, runtime);
    for _ in 0..WARM_UP {
        flow.run(source(&captures)).unwrap();
    }
    let source = source(&captures);
    let (large, output) = count_large_allocs(|| flow.run(source));
    assert_eq!(
        large, 0,
        "a warm run over {CAPTURES} captures of {len} samples made {large} allocations \
         of at least {LARGE} bytes"
    );
    let output = output.unwrap();
    assert_eq!(output.stats.captures, CAPTURES as u64);
    for result in &output.results {
        assert_eq!(
            result.report, expected[result.stream],
            "stream {}",
            result.stream
        );
    }
    assert!(
        expected.iter().any(|report| !report.ack.is_empty()),
        "no capture carried a decoded frame"
    );
}
