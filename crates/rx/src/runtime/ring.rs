//! Bounded single-producer single-consumer ring buffers.
//!
//! The work-stealing flowgraph feeds each stream's task through these
//! rings (captures in, reports out): a fixed-capacity circular buffer
//! behind a mutex, with non-blocking [`Producer::try_push`] /
//! [`Consumer::try_pop`] endpoints. The capacity bound is the
//! backpressure mechanism — a task whose report ring is full is not
//! runnable, and the stall propagates back to the sample source, so
//! total in-flight memory is bounded by the ring capacities no matter
//! how slow the sink is.
//!
//! Notification is edge-triggered: the optional [`RingWaker`] hooks fire
//! only on the empty→nonempty and full→nonfull transitions, not on every
//! push/pop. For an SPSC ring this loses no wakeups — the consumer only
//! ever waits after it observed `len == 0` (so the 0→1 push is the one
//! that must signal) and the producer only after it observed
//! `len == capacity` — while a deep ring under steady flow issues no
//! notifications at all. [`DepthProbe::notify_count`] counts the signals
//! actually issued.
//!
//! The waker hooks are how the work-stealing scheduler turns ring
//! transitions into task readiness: empty→nonempty (and finish) invokes
//! the consumer side's `data` waker, full→nonfull (and disconnect) the
//! producer side's `space` waker. Wakers run after the ring lock is
//! released, so they may take their own locks freely.
//!
//! Shutdown is first-class:
//!
//! * dropping (or [`Producer::finish`]ing) the producer ends the stream —
//!   the consumer drains what is buffered and then sees
//!   [`TryPop::Finished`];
//! * dropping the consumer disconnects the ring — the producer's next
//!   push fails with [`RingError::Disconnected`], which is how a
//!   producer learns its consumer died.
//!
//! The implementation is deliberately a model-checkable safe-Rust ring
//! (`Vec<Option<T>>` + head/len indices, no unsafe, no atomics beyond
//! the mutex) — `crates/rx/tests/ring_props.rs` property-tests it
//! against a `VecDeque` oracle and stress-tests the two-thread path.

use std::sync::{Arc, Mutex};

/// A callback fired (outside the ring lock) when a ring transition makes
/// new progress possible for one endpoint.
pub type RingWaker = Arc<dyn Fn() + Send + Sync>;

/// Why a ring operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The consumer was dropped: the stream can never make progress
    /// again (but was not abnormal).
    Disconnected,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Disconnected => write!(f, "ring disconnected"),
        }
    }
}

impl std::error::Error for RingError {}

/// Outcome of a non-blocking [`Producer::try_push`].
#[derive(Debug)]
pub enum TryPush<T> {
    /// The item was queued.
    Pushed,
    /// The ring is at capacity; the item comes back.
    Full(T),
    /// The ring can never accept the item; it comes back with the cause.
    Closed(T, RingError),
}

/// Outcome of a non-blocking [`Consumer::try_pop`].
#[derive(Debug)]
pub enum TryPop<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing buffered right now, but the producer is still live.
    Empty,
    /// The producer finished and the ring is drained.
    Finished,
}

struct RingState<T> {
    /// Fixed-capacity circular storage; `None` marks an empty slot.
    slots: Vec<Option<T>>,
    /// Index of the oldest item.
    head: usize,
    /// Items currently queued.
    len: usize,
    producer_done: bool,
    consumer_gone: bool,
    /// High-water mark of `len`, for backpressure diagnostics.
    max_depth: usize,
    /// Notifications issued over the ring's lifetime.
    notifies: u64,
    /// Fired when the consumer side gains something to observe
    /// (empty→nonempty, finish).
    data_waker: Option<RingWaker>,
    /// Fired when the producer side gains something to observe
    /// (full→nonfull, disconnect).
    space_waker: Option<RingWaker>,
}

impl<T> RingState<T> {
    /// Counts a consumer-side notification (data created or stream
    /// ended). Call with the lock held; the returned waker must be
    /// invoked after the lock is dropped.
    fn notify_data(&mut self) -> Option<RingWaker> {
        self.notifies += 1;
        self.data_waker.clone()
    }

    /// Counts a producer-side notification (space created or ring
    /// closed). Same locking discipline as [`RingState::notify_data`].
    fn notify_space(&mut self) -> Option<RingWaker> {
        self.notifies += 1;
        self.space_waker.clone()
    }
}

/// The ring state both endpoints (and any probes) share.
type Shared<T> = Arc<Mutex<RingState<T>>>;

/// Invokes a deferred waker (outside the ring lock).
fn fire(waker: Option<RingWaker>) {
    if let Some(waker) = waker {
        waker();
    }
}

/// Creates a bounded SPSC ring holding at most `capacity` items
/// (clamped to ≥ 1). Returns the two endpoints; each is `Send` and owns
/// its side of the protocol.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Mutex::new(RingState {
        slots: (0..capacity).map(|_| None).collect(),
        head: 0,
        len: 0,
        producer_done: false,
        consumer_gone: false,
        max_depth: 0,
        notifies: 0,
        data_waker: None,
        space_waker: None,
    }));
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

/// The sending endpoint of a [`ring`].
pub struct Producer<T> {
    shared: Shared<T>,
}

/// The receiving endpoint of a [`ring`].
pub struct Consumer<T> {
    shared: Shared<T>,
}

/// A passive observer of one ring's statistics; keeps the state alive
/// after both endpoints drop so post-run diagnostics can read the
/// high-water mark and the notification count.
pub struct DepthProbe<T> {
    shared: Shared<T>,
}

impl<T> DepthProbe<T> {
    /// The deepest the ring ever got.
    pub fn max_depth(&self) -> usize {
        self.shared.lock().expect("ring lock").max_depth
    }

    /// How many notifications the ring issued. With edge-triggered
    /// signalling this counts state *transitions* (plus shutdown
    /// signals), not operations.
    pub fn notify_count(&self) -> u64 {
        self.shared.lock().expect("ring lock").notifies
    }
}

impl<T> Producer<T> {
    /// Queues `item` unless the ring is full (the item comes back) or
    /// the consumer is gone.
    pub fn try_push(&self, item: T) -> TryPush<T> {
        let mut state = self.shared.lock().expect("ring lock");
        if state.consumer_gone {
            return TryPush::Closed(item, RingError::Disconnected);
        }
        if state.len == state.slots.len() {
            return TryPush::Full(item);
        }
        let cap = state.slots.len();
        let tail = (state.head + state.len) % cap;
        let was_empty = state.len == 0;
        state.slots[tail] = Some(item);
        state.len += 1;
        state.max_depth = state.max_depth.max(state.len);
        let waker = if was_empty { state.notify_data() } else { None };
        drop(state);
        fire(waker);
        TryPush::Pushed
    }

    /// Whether a `try_push` right now would be accepted for capacity.
    /// With a single producer the answer can only turn *more* true until
    /// that producer pushes, so a task may check space before popping
    /// the input it would process.
    pub fn has_capacity(&self) -> bool {
        let state = self.shared.lock().expect("ring lock");
        state.len < state.slots.len()
    }

    /// Ends the stream: the consumer drains the buffered items and then
    /// sees [`TryPop::Finished`]. Dropping the producer does the same.
    pub fn finish(&self) {
        let mut state = self.shared.lock().expect("ring lock");
        if state.producer_done {
            return;
        }
        state.producer_done = true;
        let waker = state.notify_data();
        drop(state);
        fire(waker);
    }

    /// Installs the waker fired when the ring gains space (or closes).
    /// The producer side owns this hook: it is the endpoint that waits
    /// for space.
    pub fn set_space_waker(&self, waker: RingWaker) {
        let mut state = self.shared.lock().expect("ring lock");
        state.space_waker = Some(waker);
    }

    /// A depth observer for this ring.
    pub fn probe(&self) -> DepthProbe<T> {
        DepthProbe {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl<T> Consumer<T> {
    /// The oldest queued item; [`TryPop::Empty`] while the ring is empty
    /// and the producer live, [`TryPop::Finished`] once the producer
    /// finished and the ring drained.
    pub fn try_pop(&self) -> Result<TryPop<T>, RingError> {
        let mut state = self.shared.lock().expect("ring lock");
        if state.len == 0 {
            return Ok(if state.producer_done {
                TryPop::Finished
            } else {
                TryPop::Empty
            });
        }
        let was_full = state.len == state.slots.len();
        let head = state.head;
        let item = state.slots[head].take().expect("len > 0");
        state.head = (head + 1) % state.slots.len();
        state.len -= 1;
        let waker = if was_full { state.notify_space() } else { None };
        drop(state);
        fire(waker);
        Ok(TryPop::Item(item))
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.shared.lock().expect("ring lock").len
    }

    /// Installs the waker fired when the ring gains data (or the
    /// producer finishes). The consumer side owns this hook:
    /// it is the endpoint that waits for data.
    pub fn set_data_waker(&self, waker: RingWaker) {
        let mut state = self.shared.lock().expect("ring lock");
        state.data_waker = Some(waker);
    }

    /// A depth observer for this ring.
    pub fn probe(&self) -> DepthProbe<T> {
        DepthProbe {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock().expect("ring lock");
        state.consumer_gone = true;
        let waker = state.notify_space();
        drop(state);
        fire(waker);
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(rx: &Consumer<u32>) -> Option<u32> {
        match rx.try_pop().expect("producer side never disconnects") {
            TryPop::Item(v) => Some(v),
            TryPop::Empty | TryPop::Finished => None,
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = ring::<u32>(3);
        assert!(matches!(tx.try_push(1), TryPush::Pushed));
        assert!(matches!(tx.try_push(2), TryPush::Pushed));
        assert_eq!(pop(&rx), Some(1));
        assert!(matches!(tx.try_push(3), TryPush::Pushed));
        assert!(matches!(tx.try_push(4), TryPush::Pushed));
        assert!(matches!(tx.try_push(5), TryPush::Full(5)));
        assert_eq!(pop(&rx), Some(2));
        assert_eq!(pop(&rx), Some(3));
        assert_eq!(pop(&rx), Some(4));
        assert!(matches!(rx.try_pop().unwrap(), TryPop::Empty));
        drop(tx);
        assert!(matches!(rx.try_pop().unwrap(), TryPop::Finished));
    }

    #[test]
    fn producer_drop_finishes_consumer_drop_disconnects() {
        let (tx, rx) = ring::<u32>(2);
        assert!(matches!(tx.try_push(9), TryPush::Pushed));
        drop(tx);
        assert_eq!(pop(&rx), Some(9));
        assert!(matches!(rx.try_pop().unwrap(), TryPop::Finished));

        let (tx, rx) = ring::<u32>(2);
        drop(rx);
        assert!(matches!(
            tx.try_push(1),
            TryPush::Closed(1, RingError::Disconnected)
        ));
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        let (tx, rx) = ring::<u32>(4);
        let probe = rx.probe();
        for v in 1..=3 {
            assert!(matches!(tx.try_push(v), TryPush::Pushed));
        }
        pop(&rx);
        pop(&rx);
        assert!(matches!(tx.try_push(4), TryPush::Pushed));
        assert_eq!(probe.max_depth(), 3);
        drop(tx);
        drop(rx);
        // The probe outlives both endpoints.
        assert_eq!(probe.max_depth(), 3);
    }

    #[test]
    fn has_capacity_tracks_fullness() {
        let (tx, rx) = ring::<u32>(2);
        assert!(tx.has_capacity());
        assert!(matches!(tx.try_push(1), TryPush::Pushed));
        assert!(tx.has_capacity());
        assert!(matches!(tx.try_push(2), TryPush::Pushed));
        assert!(!tx.has_capacity());
        pop(&rx);
        assert!(tx.has_capacity());
    }

    #[test]
    fn wakers_fire_on_transitions_only() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (tx, rx) = ring::<u32>(3);
        let data = Arc::new(AtomicUsize::new(0));
        let space = Arc::new(AtomicUsize::new(0));
        {
            let data = Arc::clone(&data);
            rx.set_data_waker(Arc::new(move || {
                data.fetch_add(1, Ordering::SeqCst);
            }));
        }
        {
            let space = Arc::clone(&space);
            tx.set_space_waker(Arc::new(move || {
                space.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let push = |v| assert!(matches!(tx.try_push(v), TryPush::Pushed));
        push(1); // 0→1: data fires
        push(2); // 1→2: silent
        push(3); // 2→3 (full): silent
        assert_eq!(data.load(Ordering::SeqCst), 1);
        pop(&rx); // full→nonfull: space fires
        pop(&rx); // silent
        assert_eq!(space.load(Ordering::SeqCst), 1);
        pop(&rx); // drains to empty: silent
        push(4); // 0→1 again: data fires
        assert_eq!(data.load(Ordering::SeqCst), 2);
        tx.finish(); // stream end: data fires so the consumer task runs
        assert_eq!(data.load(Ordering::SeqCst), 3);
        drop(rx); // disconnect: space fires
        assert_eq!(space.load(Ordering::SeqCst), 2);
    }
}
