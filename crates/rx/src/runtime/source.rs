//! Sample sources: where the streaming flowgraph's IQ blocks come from.
//!
//! A [`SampleSource`] turns contiguous captures into a sequence of
//! [`SourceBlock`]s — the granularity the pipeline actually moves. Block
//! size is the *source's* choice and the receiver's decisions do not
//! depend on it: the flowgraph reassembles each capture before deciding
//! it, which the block-boundary equivalence suite
//! (`crates/rx/tests/streaming_equivalence.rs`) pins down.

use std::collections::VecDeque;

use cbma_types::Iq;

/// One block of IQ samples flowing into the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceBlock {
    /// The capture stream this block belongs to.
    pub stream: usize,
    /// Per-stream capture index (0-based): which capture of the stream
    /// the block continues.
    pub seq: u64,
    /// The samples. May be empty only on the final block of an empty
    /// capture.
    pub samples: Vec<Iq>,
    /// Marks the capture's final block: the receiver may decide once it
    /// has seen this.
    pub last: bool,
}

/// A producer of [`SourceBlock`]s. Blocks of one `(stream, seq)` capture
/// arrive in sample order and end with exactly one `last` block; captures
/// of one stream arrive in `seq` order. Blocks of *different* streams may
/// interleave arbitrarily.
pub trait SampleSource {
    /// How many capture streams the source expects to produce. It only
    /// sizes the work-stealing pool's in-flight bound
    /// (`ring_capacity × streams()` captures); reassembly grows per stream
    /// on first use, so a block whose stream id is `>= streams()` is still
    /// decided as its own stream's capture.
    fn streams(&self) -> usize;

    /// The next block, or `None` once the source is exhausted.
    fn next_block(&mut self) -> Option<SourceBlock>;
}

struct StreamQueue {
    captures: VecDeque<Vec<Iq>>,
    /// Seq of the capture at the queue front.
    seq: u64,
    /// Read offset into the front capture.
    offset: usize,
}

/// The standard source: whole captures, chopped into `block_size` sample
/// blocks. A capture's blocks leave back to back and streams take turns
/// capture by capture, so a multi-stream pipeline sees interleaved
/// streams and every capture is complete — and can be decided — as soon
/// as the source has emitted it.
///
/// # Examples
///
/// ```
/// use cbma_rx::runtime::{CaptureSource, SampleSource};
/// use cbma_types::Iq;
///
/// let mut src = CaptureSource::new(4);
/// src.push(0, vec![Iq::ZERO; 10]);
/// let mut blocks = 0;
/// while let Some(block) = src.next_block() {
///     assert_eq!(block.stream, 0);
///     blocks += 1;
///     if block.last {
///         break;
///     }
/// }
/// assert_eq!(blocks, 3); // 4 + 4 + 2 samples
/// ```
#[derive(Default)]
pub struct CaptureSource {
    block_size: usize,
    streams: Vec<StreamQueue>,
    /// The stream whose capture is being emitted; advances round-robin
    /// once that capture's last block is out.
    next: usize,
}

impl CaptureSource {
    /// A source that chops captures into `block_size`-sample blocks
    /// (clamped to ≥ 1).
    pub fn new(block_size: usize) -> CaptureSource {
        CaptureSource {
            block_size: block_size.max(1),
            streams: Vec::new(),
            next: 0,
        }
    }

    /// Convenience: a single-stream source preloaded with `captures`.
    pub fn single_stream(block_size: usize, captures: Vec<Vec<Iq>>) -> CaptureSource {
        let mut src = CaptureSource::new(block_size);
        for capture in captures {
            src.push(0, capture);
        }
        src
    }

    /// Queues one capture on `stream` (streams grow on first use).
    /// Returns the capture's per-stream seq.
    pub fn push(&mut self, stream: usize, capture: Vec<Iq>) -> u64 {
        while self.streams.len() <= stream {
            self.streams.push(StreamQueue {
                captures: VecDeque::new(),
                seq: 0,
                offset: 0,
            });
        }
        let q = &mut self.streams[stream];
        let seq = q.seq + q.captures.len() as u64;
        q.captures.push_back(capture);
        seq
    }
}

impl SampleSource for CaptureSource {
    fn streams(&self) -> usize {
        self.streams.len()
    }

    fn next_block(&mut self) -> Option<SourceBlock> {
        let n = self.streams.len();
        for _ in 0..n {
            let s = self.next;
            let q = &mut self.streams[s];
            let Some(front) = q.captures.front() else {
                self.next = (s + 1) % n;
                continue;
            };
            let end = (q.offset + self.block_size).min(front.len());
            let samples = front[q.offset..end].to_vec();
            let last = end == front.len();
            let block = SourceBlock {
                stream: s,
                seq: q.seq,
                samples,
                last,
            };
            if last {
                q.captures.pop_front();
                q.seq += 1;
                q.offset = 0;
                self.next = (s + 1) % n;
            } else {
                q.offset = end;
            }
            return Some(block);
        }
        None
    }
}

impl std::fmt::Debug for CaptureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureSource")
            .field("block_size", &self.block_size)
            .field("streams", &self.streams.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize, tag: f64) -> Vec<Iq> {
        (0..n).map(|i| Iq::new(tag, i as f64)).collect()
    }

    #[test]
    fn chops_and_reassembles_exactly() {
        let capture = samples(10, 1.0);
        let mut src = CaptureSource::single_stream(3, vec![capture.clone()]);
        let mut got = Vec::new();
        let mut lasts = 0;
        while let Some(block) = src.next_block() {
            assert_eq!((block.stream, block.seq), (0, 0));
            got.extend(block.samples);
            lasts += u32::from(block.last);
        }
        assert_eq!(got, capture);
        assert_eq!(lasts, 1);
    }

    #[test]
    fn empty_capture_yields_one_empty_last_block() {
        let mut src = CaptureSource::single_stream(8, vec![Vec::new()]);
        let block = src.next_block().unwrap();
        assert!(block.samples.is_empty());
        assert!(block.last);
        assert!(src.next_block().is_none());
    }

    #[test]
    fn streams_take_turns_capture_by_capture() {
        let mut src = CaptureSource::new(4);
        src.push(0, samples(6, 0.0));
        assert_eq!(src.push(0, samples(2, 0.5)), 1);
        src.push(1, samples(5, 1.0));
        let mut seen: Vec<(usize, u64, usize, bool)> = Vec::new();
        while let Some(b) = src.next_block() {
            seen.push((b.stream, b.seq, b.samples.len(), b.last));
        }
        // Each capture's blocks leave back to back, then the next stream
        // with a queued capture takes its turn.
        assert_eq!(
            seen,
            vec![
                (0, 0, 4, false),
                (0, 0, 2, true),
                (1, 0, 4, false),
                (1, 0, 1, true),
                (0, 1, 2, true),
            ]
        );
    }
}
