//! Sample sources: where the streaming flowgraph's captures come from.
//!
//! A [`SampleSource`] hands over whole captures, each tagged with its
//! stream. The flowgraph numbers each stream's captures in the order
//! they arrive and moves every capture, uncopied, to the worker that
//! decides it.

use std::collections::VecDeque;

use cbma_types::Iq;

/// A producer of whole captures. Captures of one stream arrive in
/// capture order; captures of *different* streams may interleave
/// arbitrarily.
pub trait SampleSource {
    /// How many capture streams the source expects to produce. It only
    /// sizes the pool's in-flight bound (`ring_capacity × streams()`
    /// captures); a capture whose stream id is `>= streams()` is still
    /// decided as its own stream's capture.
    fn streams(&self) -> usize;

    /// The next capture and its stream, or `None` once the source is
    /// exhausted.
    fn next_capture(&mut self) -> Option<(usize, Vec<Iq>)>;
}

/// The standard source: queued whole captures, handed over as pushed.
/// Streams take turns capture by capture, so a multi-stream flowgraph
/// sees interleaved streams.
///
/// # Examples
///
/// ```
/// use cbma_rx::runtime::{CaptureSource, SampleSource};
/// use cbma_types::Iq;
///
/// let mut src = CaptureSource::default();
/// src.push(0, vec![Iq::ZERO; 10]);
/// src.push(0, vec![Iq::ZERO; 7]);
/// src.push(1, vec![Iq::ZERO; 4]);
/// let order: Vec<(usize, usize)> = std::iter::from_fn(|| src.next_capture())
///     .map(|(stream, capture)| (stream, capture.len()))
///     .collect();
/// assert_eq!(order, [(0, 10), (1, 4), (0, 7)]);
/// ```
#[derive(Default)]
pub struct CaptureSource {
    streams: Vec<VecDeque<Vec<Iq>>>,
    /// The stream whose turn is next.
    next: usize,
}

impl CaptureSource {
    /// An empty source, like [`CaptureSource::default`]. The block size
    /// is ignored: captures leave whole. The parameter stays while the
    /// benchmark package passes it; ROADMAP's benchmark-edit item
    /// deletes it.
    pub fn new(_block_size: usize) -> CaptureSource {
        CaptureSource::default()
    }

    /// Convenience: a single-stream source preloaded with `captures`.
    pub fn single_stream(captures: Vec<Vec<Iq>>) -> CaptureSource {
        CaptureSource {
            streams: vec![captures.into()],
            next: 0,
        }
    }

    /// Queues one capture on `stream` (streams grow on first use).
    pub fn push(&mut self, stream: usize, capture: Vec<Iq>) {
        if self.streams.len() <= stream {
            self.streams.resize_with(stream + 1, VecDeque::new);
        }
        self.streams[stream].push_back(capture);
    }
}

impl SampleSource for CaptureSource {
    fn streams(&self) -> usize {
        self.streams.len()
    }

    fn next_capture(&mut self) -> Option<(usize, Vec<Iq>)> {
        let n = self.streams.len();
        for _ in 0..n {
            let stream = self.next;
            self.next = (stream + 1) % n;
            if let Some(capture) = self.streams[stream].pop_front() {
                return Some((stream, capture));
            }
        }
        None
    }
}

impl std::fmt::Debug for CaptureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureSource")
            .field("streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}
