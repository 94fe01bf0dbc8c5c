//! Proves `Mixer::combine_into` allocates nothing into warm buffers.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Mixing
//! one, seven or eight tags of the same length into a capture and a
//! scratch that an earlier call has grown must make no heap allocation
//! at all, whatever the tag count, and neither may adding them a pair at
//! a time to a capture opened by `Mixer::noise_into` and `Mixer::begin`;
//! the allocating `Mixer::combine` makes exactly two, the capture and one
//! scratch for a pair of block buffers.
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

    // One warm-up call grows both buffers; every later call fits.
    let (mut capture, mut scratch) = (Vec::new(), Vec::new());
    mixer.combine_into(
        &mut StdRng::seed_from_u64(1),
        &tags,
        &mut capture,
        &mut scratch,
    );
    // Seven tags: three pairs and an odd last tag rotated on its own.
    for n in [1, 7, 8] {
        let (allocs, ()) = count_allocs(|| {
            mixer.combine_into(
                &mut StdRng::seed_from_u64(1),
                &tags[..n],
                &mut capture,
                &mut scratch,
            )
        });
        assert_eq!(
            allocs, 0,
            "combine_into allocated {allocs} times for {n} tags"
        );
        assert_eq!(
            capture,
            mixer.combine(&mut StdRng::seed_from_u64(1), &tags[..n])
        );
    }

    // Pair by pair into an opened capture, as the engine mixes.
    let body = tags.iter().map(|t| t.extent_of(t.envelope.len())).max();
    let (allocs, ()) = count_allocs(|| {
        let mut rng = StdRng::seed_from_u64(1);
        mixer.noise_into(&mut rng, body.unwrap_or(0), &mut capture);
        let mut pass = mixer.begin(&mut rng, &mut capture);
        for pair in tags.chunks(2) {
            pass.add(pair, &mut scratch);
        }
    });
    assert_eq!(allocs, 0, "adding pairs allocated {allocs} times");
    assert_eq!(capture, mixer.combine(&mut StdRng::seed_from_u64(1), &tags));

    // The allocating form, under a tone and a clean channel: the capture
    // and the block scratch, nothing else, for any tag count.
    for n in [1, 7, 8] {
        let (allocs, fresh) =
            count_allocs(|| mixer.combine(&mut StdRng::seed_from_u64(1), &tags[..n]));
        assert_eq!(fresh.len(), capture.len());
        assert_eq!(allocs, 2, "combine allocated {allocs} times for {n} tags");
    }
}
