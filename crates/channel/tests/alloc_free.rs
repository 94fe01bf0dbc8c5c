//! Proves `Mixer::combine` allocates nothing per tag.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Mixing
//! one, seven or eight tags of the same length into the same capture
//! length must make the same number of heap allocations: the capture and
//! one scratch for a pair of rotated envelopes, whatever the tag count.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the window between `start_counting` and `stop_counting`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbma_channel::mixer::{Mixer, TagSignal};
use cbma_channel::MultipathModel;
use cbma_types::units::Hertz;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
fn mixing_more_tags_allocates_nothing_more() {
    let mixer = Mixer::new(Hertz::from_mhz(8.0));
    let mut fading = StdRng::seed_from_u64(3);
    // Equal envelopes, echo taps and whole-sample delays, so every tag has
    // the same extent and the capture length does not depend on the count.
    let tags: Vec<TagSignal> = (0..8)
        .map(|i| {
            let mut sig =
                TagSignal::ideal((0..2000).map(|k| ((k / 8 + i) % 2) as f64).collect(), 1e-4);
            sig.taps = MultipathModel::indoor_default().realize(&mut fading);
            sig.delay_samples = 3.0;
            sig.phase = 0.4 * i as f64;
            sig
        })
        .collect();

    let (one, one_capture) =
        count_allocs(|| mixer.combine(&mut StdRng::seed_from_u64(1), &tags[..1]));
    // Seven tags: three pairs and an odd last tag rotated on its own.
    let (seven, seven_capture) =
        count_allocs(|| mixer.combine(&mut StdRng::seed_from_u64(1), &tags[..7]));
    let (eight, eight_capture) =
        count_allocs(|| mixer.combine(&mut StdRng::seed_from_u64(1), &tags));
    assert_eq!(one_capture.len(), eight_capture.len());
    assert_eq!(seven_capture.len(), eight_capture.len());
    assert_eq!(
        one, eight,
        "combine allocated {one} times for 1 tag but {eight} times for 8"
    );
    assert_eq!(
        seven, eight,
        "combine allocated {seven} times for 7 tags but {eight} times for 8"
    );
    // Under a tone and a clean channel: the capture and the envelope
    // scratch, nothing else.
    assert_eq!(eight, 2, "combine allocated {eight} times");
}
