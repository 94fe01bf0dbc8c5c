//! Frame synchronization by energy detection (§III-B).
//!
//! Wraps the DSP-level [`EnergyDetector`] into the receiver's first stage:
//! scan the IQ stream, smooth the energy with a window-Wₙ moving average,
//! and report the sample indices where the instantaneous power rises
//! P_th = 3 dB above the smoothed floor — the candidate frame starts handed
//! to user detection.

use cbma_dsp::energy::{EnergyDetector, EnergyEdge};
use cbma_dsp::xcorr::RunningEnergy;
use cbma_types::units::Db;
use cbma_types::Iq;

/// Reusable state for [`FrameSync::best_edge_in`]: the energy detector
/// (whose moving-average buffers are reset, not reallocated, per
/// capture), the edge list, and the window prefix sums. Created by
/// [`FrameSync::scratch`]; one instance per receiver (or per sweep
/// worker) makes steady-state frame sync allocation-free.
#[derive(Debug, Clone)]
pub struct SyncScratch {
    detector: EnergyDetector,
    edges: Vec<EnergyEdge>,
    running: RunningEnergy,
}

impl SyncScratch {
    /// Total heap capacity held by the scratch, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<EnergyEdge>() + self.running.capacity_bytes()
    }

    /// Address of the prefix-sum storage, for arena-reuse regression
    /// tests.
    #[doc(hidden)]
    pub fn storage_ptr(&self) -> *const f64 {
        self.running.storage_ptr()
    }
}

/// The frame synchronizer.
#[derive(Debug, Clone)]
pub struct FrameSync {
    window: usize,
    threshold: Db,
}

impl FrameSync {
    /// Creates a synchronizer with moving-average window `window` and the
    /// given comparator threshold.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, threshold: Db) -> FrameSync {
        assert!(window > 0, "window must be non-zero");
        FrameSync { window, threshold }
    }

    /// The paper's configuration: +3 dB over the filtered power level.
    pub fn paper_default(window: usize) -> FrameSync {
        FrameSync::new(window, Db::new(3.0))
    }

    /// The moving-average window size Wₙ.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The comparator threshold P_th.
    #[inline]
    pub fn threshold(&self) -> Db {
        self.threshold
    }

    /// Creates the reusable scratch [`FrameSync::best_edge_in`] needs,
    /// with the detector configured for this synchronizer's window and
    /// threshold.
    pub fn scratch(&self) -> SyncScratch {
        SyncScratch {
            detector: EnergyDetector::new(self.window, self.threshold),
            edges: Vec::new(),
            running: RunningEnergy::default(),
        }
    }

    /// Scans a buffer and returns every candidate frame-start edge.
    pub fn detect(&self, samples: &[Iq]) -> Vec<EnergyEdge> {
        let mut det = EnergyDetector::new(self.window, self.threshold);
        det.detect(samples)
    }

    /// Returns the first candidate edge, if any.
    pub fn first_edge(&self, samples: &[Iq]) -> Option<EnergyEdge> {
        self.detect(samples).into_iter().next()
    }

    /// Returns the frame-start edge: the *earliest* edge whose post-edge
    /// power is at least 6 dB over its baseline and within 20 dB of the
    /// strongest edge in the buffer.
    ///
    /// The comparator fires the moment the smoothed statistic crosses
    /// +3 dB, so the rise recorded *at* an edge says little about how
    /// strong the burst behind it is. Significance is therefore judged by
    /// the mean power over the window *after* each edge: a real frame
    /// sustains tens of dB over the floor there, a noise fluke does not.
    /// OOK gaps re-arm the detector and spawn edges inside the frame; the
    /// earliest qualified edge is the frame start, and the 20 dB
    /// comparability window keeps a weak tag's frame start qualified when
    /// a stronger tag dominates later.
    pub fn best_edge(&self, samples: &[Iq]) -> Option<EnergyEdge> {
        self.best_edge_in(samples, &mut self.scratch())
    }

    /// Allocation-free variant of [`FrameSync::best_edge`]: the detector
    /// state, edge list and prefix sums come from `scratch` (created by
    /// [`FrameSync::scratch`]) and are reset — not reallocated — per
    /// capture.
    pub fn best_edge_in(&self, samples: &[Iq], scratch: &mut SyncScratch) -> Option<EnergyEdge> {
        scratch.detector.reset();
        scratch.detector.detect_into(samples, &mut scratch.edges);
        if scratch.edges.is_empty() {
            return None;
        }
        // Prefix sums make each edge's post-window mean power an O(1)
        // lookup; post_ratio is evaluated twice per edge below.
        let SyncScratch { edges, running, .. } = scratch;
        running.rebuild(samples);
        let post_ratio = |e: &EnergyEdge| -> f64 {
            let end = (e.index + self.window).min(samples.len());
            if end <= e.index {
                return 0.0;
            }
            let mean = running.power(e.index, end - e.index) / (end - e.index) as f64;
            if e.baseline <= 0.0 {
                // A rise over a perfectly silent floor is maximally
                // significant (synthetic noise-free captures).
                return if mean > 0.0 { f64::INFINITY } else { 0.0 };
            }
            mean / e.baseline
        };
        let max_ratio = edges.iter().map(post_ratio).fold(0.0f64, f64::max);
        let qualify = (max_ratio / 100.0).max(4.0);
        edges.iter().find(|e| post_ratio(e) >= qualify).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_buffer(noise_amp: f64, burst_amp: f64, lead: usize, len: usize) -> Vec<Iq> {
        let mut v = vec![Iq::new(noise_amp, 0.0); lead];
        v.extend(vec![Iq::new(burst_amp, 0.0); len]);
        v.extend(vec![Iq::new(noise_amp, 0.0); 32]);
        v
    }

    #[test]
    fn finds_frame_start() {
        let buf = burst_buffer(0.01, 0.1, 200, 100);
        let sync = FrameSync::paper_default(32);
        let edge = sync.first_edge(&buf).expect("edge expected");
        assert_eq!(edge.index, 200);
    }

    #[test]
    fn quiet_buffer_has_no_edges() {
        let buf = vec![Iq::new(0.01, 0.0); 500];
        assert!(FrameSync::paper_default(32).detect(&buf).is_empty());
    }

    #[test]
    fn accessors() {
        let sync = FrameSync::new(16, Db::new(4.5));
        assert_eq!(sync.window(), 16);
        assert_eq!(sync.threshold(), Db::new(4.5));
    }

    #[test]
    fn scratch_reuse_is_pointer_stable_and_equivalent() {
        let sync = FrameSync::paper_default(32);
        let buf = burst_buffer(0.01, 0.1, 200, 100);
        let mut scratch = sync.scratch();
        let first = sync.best_edge_in(&buf, &mut scratch);
        assert_eq!(first, sync.best_edge(&buf));
        let ptr = scratch.storage_ptr();
        // A second capture of the same length must reuse the arena
        // verbatim — same backing storage, same result.
        let second = sync.best_edge_in(&buf, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(ptr, scratch.storage_ptr(), "prefix sums reallocated");
    }

    #[test]
    fn two_bursts_two_edges() {
        let mut buf = burst_buffer(0.01, 0.1, 200, 50);
        buf.extend(burst_buffer(0.01, 0.1, 150, 50));
        let edges = FrameSync::paper_default(32).detect(&buf);
        assert_eq!(edges.len(), 2);
    }
}
