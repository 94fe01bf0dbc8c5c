//! Energy detection for frame synchronization.
//!
//! §III-B: *"The frame synchronization is achieved by energy detection with
//! a sliding window. Concretely, a moving average filter is first performed
//! on the received energy level with a window size Wₙ. The filtered
//! sequence is then passed through a comparator to determine whether a new
//! frame is received by comparing the current power level and the filtered
//! power level. We use a decision threshold P_th, which is configured as
//! 3 dB higher than that of filtered power level."*
//!
//! [`EnergyDetector`] implements exactly that comparator: it tracks the
//! smoothed noise floor and declares a rising edge when instantaneous
//! power exceeds `floor × 10^(threshold_db/10)`.

use cbma_types::units::Db;
use cbma_types::Iq;

use crate::mafilter::MovingAverage;

/// An energy rise event reported by [`EnergyDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEdge {
    /// Sample index at which the edge was declared.
    pub index: usize,
    /// Instantaneous power at the edge.
    pub power: f64,
    /// Smoothed baseline power immediately before the edge.
    pub baseline: f64,
}

/// Sliding-window energy detector with a decibel comparator threshold.
///
/// The decision statistic is a *short* moving average of the power (not
/// the raw sample): instantaneous complex-Gaussian noise power exceeds
/// twice its mean ≈ 13 % of the time, so a raw comparator would false-
/// trigger constantly. Smoothing over a few samples collapses that
/// fluctuation while delaying the reported edge by at most the smoothing
/// window.
#[derive(Debug, Clone)]
pub struct EnergyDetector {
    filter: MovingAverage,
    smoother: MovingAverage,
    threshold_ratio: f64,
    /// Samples to ingest before edges may fire (lets the floor estimate
    /// settle; a real receiver observes noise before any frame arrives).
    warmup: usize,
    seen: usize,
    armed: bool,
}

impl EnergyDetector {
    /// Creates a detector with floor-window `window`, a statistic smoother
    /// of `window / 4` samples (at least 4), and the given threshold above
    /// the smoothed baseline. The paper uses +3 dB.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, threshold: Db) -> EnergyDetector {
        EnergyDetector::with_smoothing(window, (window / 4).max(4), threshold)
    }

    /// Creates a detector with an explicit statistic-smoothing window.
    ///
    /// # Panics
    ///
    /// Panics if either window is zero.
    pub fn with_smoothing(window: usize, smooth: usize, threshold: Db) -> EnergyDetector {
        EnergyDetector {
            filter: MovingAverage::new(window),
            smoother: MovingAverage::new(smooth),
            threshold_ratio: threshold.to_ratio(),
            warmup: window,
            seen: 0,
            armed: true,
        }
    }

    /// The statistic-smoothing window length.
    pub fn smoothing_window(&self) -> usize {
        self.smoother.window_size()
    }

    /// The paper's configuration: +3 dB over the filtered power level.
    pub fn paper_default(window: usize) -> EnergyDetector {
        EnergyDetector::new(window, Db::new(3.0))
    }

    /// The linear comparator ratio (e.g. ≈2.0 for 3 dB).
    #[inline]
    pub fn threshold_ratio(&self) -> f64 {
        self.threshold_ratio
    }

    /// Processes one power sample; returns `Some` on a rising edge.
    ///
    /// After an edge fires, the detector disarms until power falls back
    /// under the threshold, so one frame produces one edge.
    pub fn push_power(&mut self, index: usize, power: f64) -> Option<EnergyEdge> {
        let statistic = self.smoother.push(power);
        let baseline = self.filter.current().unwrap_or(statistic);
        let mut edge = None;
        let over = statistic > baseline * self.threshold_ratio && self.seen >= self.warmup;
        if over {
            if self.armed {
                self.armed = false;
                edge = Some(EnergyEdge {
                    index,
                    power: statistic,
                    baseline,
                });
            }
            // Do not feed frame power into the noise-floor estimate; a
            // receiver freezes AGC/floor tracking during a burst.
        } else {
            self.armed = true;
            self.filter.push(statistic);
        }
        self.seen += 1;
        edge
    }

    /// Scans an IQ buffer and returns every detected rising edge.
    pub fn detect(&mut self, samples: &[Iq]) -> Vec<EnergyEdge> {
        let mut edges = Vec::new();
        self.detect_into(samples, &mut edges);
        edges
    }

    /// Allocation-free variant of [`EnergyDetector::detect`]: `out` is
    /// cleared and refilled, growing only past its high-water capacity.
    pub fn detect_into(&mut self, samples: &[Iq], out: &mut Vec<EnergyEdge>) {
        out.clear();
        out.extend(
            samples
                .iter()
                .enumerate()
                .filter_map(|(i, s)| self.push_power(i, s.power())),
        );
    }

    /// Resets all detector state, including the statistic smoother —
    /// required for a detector that is *reused* across captures (the
    /// receiver's scratch arena keeps one alive), where stale smoother
    /// contents would bleed the previous capture's power into the next
    /// decision statistic.
    pub fn reset(&mut self) {
        self.filter.reset();
        self.smoother.reset();
        self.seen = 0;
        self.armed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_then_burst(noise: f64, burst: f64, n_noise: usize, n_burst: usize) -> Vec<Iq> {
        let mut v = vec![Iq::new(noise.sqrt(), 0.0); n_noise];
        v.extend(vec![Iq::new(burst.sqrt(), 0.0); n_burst]);
        v
    }

    #[test]
    fn detects_a_3db_step() {
        // Burst power 4x the floor: well above the 2x (3 dB) threshold.
        let samples = noise_then_burst(1.0, 4.0, 64, 32);
        let mut det = EnergyDetector::paper_default(16);
        let edges = det.detect(&samples);
        assert_eq!(edges.len(), 1);
        // The smoothed statistic crosses the threshold within the
        // smoothing window of the true burst start.
        let smooth = det.smoothing_window();
        assert!(
            (64..=64 + smooth).contains(&edges[0].index),
            "index {}",
            edges[0].index
        );
        assert!((edges[0].baseline - 1.0).abs() < 0.2);
    }

    #[test]
    fn ignores_sub_threshold_rise() {
        // 1.5x power rise is under the 2x threshold — no edge.
        let samples = noise_then_burst(1.0, 1.5, 64, 32);
        let mut det = EnergyDetector::paper_default(16);
        assert!(det.detect(&samples).is_empty());
    }

    #[test]
    fn one_edge_per_burst() {
        let mut samples = noise_then_burst(1.0, 8.0, 64, 32);
        samples.extend(noise_then_burst(1.0, 8.0, 64, 32));
        let mut det = EnergyDetector::paper_default(16);
        let edges = det.detect(&samples);
        assert_eq!(edges.len(), 2);
        let smooth = det.smoothing_window();
        assert!((64..=64 + smooth).contains(&edges[0].index));
        let second = 64 + 32 + 64;
        assert!((second..=second + smooth).contains(&edges[1].index));
    }

    #[test]
    fn warmup_suppresses_initial_transient() {
        // A burst at the very start (before the floor estimate settles)
        // must not fire an edge.
        let samples = vec![Iq::new(10.0, 0.0); 8];
        let mut det = EnergyDetector::paper_default(16);
        assert!(det.detect(&samples).is_empty());
    }

    #[test]
    fn floor_freezes_during_burst() {
        // A long burst must not be absorbed into the baseline: the edge
        // baseline stays at the pre-burst floor even if we detect later.
        let samples = noise_then_burst(1.0, 4.0, 64, 512);
        let mut det = EnergyDetector::paper_default(16);
        let edges = det.detect(&samples);
        assert_eq!(edges.len(), 1);
        assert!(
            (edges[0].baseline - 1.0).abs() < 0.2,
            "baseline {}",
            edges[0].baseline
        );
    }

    #[test]
    fn custom_threshold_changes_sensitivity() {
        let samples = noise_then_burst(1.0, 1.5, 64, 32);
        // 1 dB threshold (~1.26x) now catches the 1.5x rise.
        let mut det = EnergyDetector::new(16, Db::new(1.0));
        assert_eq!(det.detect(&samples).len(), 1);
    }

    #[test]
    fn reset_makes_reuse_deterministic() {
        // A detector held in a scratch arena is reset between captures;
        // identical captures must then produce bit-identical edges. A
        // reset that forgets the statistic smoother leaks the previous
        // capture's burst power into the next run's decision statistic.
        let samples = noise_then_burst(1.0, 4.0, 96, 64);
        let mut det = EnergyDetector::with_smoothing(16, 128, Db::new(3.0));
        let first = det.detect(&samples);
        det.reset();
        let second = det.detect(&samples);
        assert_eq!(first, second);
    }

    #[test]
    fn reset_rearms_detector() {
        let samples = noise_then_burst(1.0, 4.0, 64, 8);
        let mut det = EnergyDetector::paper_default(16);
        assert_eq!(det.detect(&samples).len(), 1);
        det.reset();
        assert_eq!(det.detect(&samples).len(), 1);
    }
}
