//! Proves the steady-state receive path is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up capture has grown every scratch arena to its high-water mark,
//! quiet captures (silence or sub-threshold noise) must perform **zero**
//! heap allocations end to end, and frame-bearing captures must settle to
//! a constant, output-proportional allocation count (the report the
//! caller keeps) — no per-capture arena churn.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the window between `start_counting` and `stop_counting`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma_codes::{CodeFamily, GoldFamily};
use cbma_rx::{Receiver, ReceiverConfig};
use cbma_tag::phy::PhyProfile;
use cbma_tag::Tag;
use cbma_types::geometry::Point;
use cbma_types::Iq;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

#[test]
fn steady_state_receive_is_allocation_free() {
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(4).unwrap();
    let mut tag = Tag::new(1, Point::ORIGIN, codes[1].clone());
    let envelope = tag.transmit(b"steady state".to_vec(), &phy).unwrap();

    // A frame capture, a silent capture and a deterministic sub-threshold
    // ripple (±5 %, far under the +3 dB comparator), all the same length
    // so the arenas reach one high-water mark.
    let mut frame_capture = vec![Iq::ZERO; 400];
    frame_capture.extend(envelope.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    frame_capture.extend(vec![Iq::ZERO; 64]);
    let n = frame_capture.len();
    let silence = vec![Iq::new(1e-6, 0.0); n];
    let ripple: Vec<Iq> = (0..n)
        .map(|i| Iq::new(1e-6 * (1.0 + 0.05 * (i as f64 * 0.37).sin()), 0.0))
        .collect();

    let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());

    // Warm-up: grow every arena (sync buffers, detect scratch, decode
    // lists, batch rows) to the sizes these captures need.
    assert!(rx.receive(&frame_capture).ack.acknowledges(1));
    assert!(!rx.receive(&silence).frame_detected);
    assert!(!rx.receive(&ripple).frame_detected);
    let warm_capacity = rx.scratch_capacity_bytes();
    assert!(warm_capacity > 0, "warm-up should have grown the arenas");

    // Steady state, quiet captures: strictly zero heap allocations.
    for (label, capture) in [("silence", &silence), ("ripple", &ripple)] {
        let (allocs, report) = count_allocs(|| rx.receive(capture));
        assert!(!report.frame_detected);
        assert_eq!(
            allocs, 0,
            "{label}: steady-state quiet capture allocated {allocs} times"
        );
    }

    // Steady state, frame captures: the only allocations left are the
    // report the caller keeps (users vector, decoded frame, bit buffer),
    // so the count must be identical on every subsequent capture — any
    // growth would mean the arenas are churning.
    let (first, report) = count_allocs(|| rx.receive(&frame_capture));
    assert!(report.ack.acknowledges(1));
    let (second, report) = count_allocs(|| rx.receive(&frame_capture));
    assert!(report.ack.acknowledges(1));
    assert_eq!(
        first, second,
        "frame-capture allocation count must be steady (output-only)"
    );
    assert!(
        first <= 64,
        "frame capture allocated {first} times; expected output-proportional only"
    );

    // The arenas did not grow past their warm high-water mark.
    assert_eq!(rx.scratch_capacity_bytes(), warm_capacity);

    // And quiet captures are still allocation-free afterwards.
    let (allocs, _) = count_allocs(|| rx.receive(&silence));
    assert_eq!(allocs, 0);
}
