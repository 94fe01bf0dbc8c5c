//! Moving-average filtering.
//!
//! Frame synchronization first smooths the received energy level with a
//! moving-average filter of window size Wₙ (§III-B) before comparing the
//! instantaneous power against the smoothed baseline. [`MovingAverage`] is
//! the streaming form used sample-by-sample; [`moving_average`] is the
//! batch form used by offline analysis.
//!
//! # Examples
//!
//! ```
//! use cbma_dsp::MovingAverage;
//!
//! let mut ma = MovingAverage::new(4);
//! let outputs: Vec<f64> = [4.0, 4.0, 4.0, 4.0].iter().map(|&x| ma.push(x)).collect();
//! assert_eq!(outputs.last().copied(), Some(4.0));
//! ```

/// A streaming moving-average filter over a fixed-size window.
///
/// Until the window fills, the average is taken over the samples seen so
/// far (warm-up behaviour), which matches how a real receiver boots its
/// noise-floor estimate.
///
/// The window is a fixed ring allocated once by [`MovingAverage::new`];
/// each push performs `sum -= oldest` (once the window is full),
/// `sum += sample` and `sum / len`, in that order.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    ring: Box<[f64]>,
    /// Index of the oldest sample in `ring`.
    head: usize,
    len: usize,
    sum: f64,
}

impl MovingAverage {
    /// Creates a filter with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> MovingAverage {
        assert!(window > 0, "moving-average window must be non-zero");
        MovingAverage {
            ring: vec![0.0; window].into_boxed_slice(),
            head: 0,
            len: 0,
            sum: 0.0,
        }
    }

    /// The configured window size Wₙ.
    #[inline]
    pub fn window_size(&self) -> usize {
        self.ring.len()
    }

    /// Number of samples currently inside the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples have been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a sample and returns the current average.
    #[inline]
    pub fn push(&mut self, sample: f64) -> f64 {
        let capacity = self.ring.len();
        if self.len == capacity {
            // Remove the oldest contribution before adding the new one;
            // the new sample takes its slot and the next one becomes the
            // oldest.
            self.sum -= self.ring[self.head];
            self.ring[self.head] = sample;
            self.head += 1;
            if self.head == capacity {
                self.head = 0;
            }
        } else {
            let mut slot = self.head + self.len;
            if slot >= capacity {
                slot -= capacity;
            }
            self.ring[slot] = sample;
            self.len += 1;
        }
        self.sum += sample;
        self.sum / self.len as f64
    }

    /// The current average without pushing, or `None` before any sample.
    #[inline]
    pub fn current(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum / self.len as f64)
        }
    }

    /// Clears all state, returning the filter to its initial condition.
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.sum = 0.0;
    }
}

/// Batch moving average: `output[i]` is the mean of the window ending at i
/// (warm-up averages over the prefix). Output length equals input length.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn moving_average(input: &[f64], window: usize) -> Vec<f64> {
    let mut ma = MovingAverage::new(window);
    input.iter().map(|&x| ma.push(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_input_yields_constant_output() {
        let out = moving_average(&[2.0; 10], 4);
        assert!(out.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn warm_up_averages_prefix() {
        let mut ma = MovingAverage::new(3);
        assert_eq!(ma.push(3.0), 3.0);
        assert_eq!(ma.push(5.0), 4.0);
        assert_eq!(ma.push(7.0), 5.0);
        // Window now full: oldest (3.0) falls out.
        assert_eq!(ma.push(9.0), 7.0);
    }

    #[test]
    fn window_slides_correctly() {
        let out = moving_average(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2);
        assert_eq!(out, vec![1.0, 1.5, 2.5, 3.5, 4.5, 5.5]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut ma = MovingAverage::new(2);
        ma.push(10.0);
        ma.reset();
        assert!(ma.is_empty());
        assert_eq!(ma.current(), None);
        assert_eq!(ma.push(4.0), 4.0);
    }

    #[test]
    fn step_response_lags_by_window() {
        // A power step from 0 to 1 should take `window` samples to fully
        // register — this is what creates the 3 dB detection margin.
        let mut input = vec![0.0; 8];
        input.extend(vec![1.0; 8]);
        let out = moving_average(&input, 4);
        assert!(out[8] < 1.0); // still averaging in zeros
        assert!((out[11] - 1.0).abs() < 1e-12); // fully transitioned
    }

    /// The `VecDeque` filter the ring replaced, kept as the oracle.
    struct DequeAverage {
        window: std::collections::VecDeque<f64>,
        capacity: usize,
        sum: f64,
    }

    impl DequeAverage {
        fn push(&mut self, sample: f64) -> f64 {
            if self.window.len() == self.capacity {
                if let Some(old) = self.window.pop_front() {
                    self.sum -= old;
                }
            }
            self.window.push_back(sample);
            self.sum += sample;
            self.sum / self.window.len() as f64
        }

        fn current(&self) -> Option<f64> {
            (!self.window.is_empty()).then(|| self.sum / self.window.len() as f64)
        }

        fn reset(&mut self) {
            self.window.clear();
            self.sum = 0.0;
        }
    }

    #[test]
    fn ring_matches_the_deque_filter_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let window = rng.gen_range(1..=80);
            let mut ring = MovingAverage::new(window);
            let mut oracle = DequeAverage {
                window: std::collections::VecDeque::new(),
                capacity: window,
                sum: 0.0,
            };
            for _ in 0..rng.gen_range(0..600) {
                if rng.gen_bool(0.01) {
                    ring.reset();
                    oracle.reset();
                } else {
                    // Powers spanning many magnitudes, so every rounding
                    // of the running sum shows.
                    let x = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..4));
                    assert_eq!(ring.push(x).to_bits(), oracle.push(x).to_bits());
                }
                let bits = |m: Option<f64>| m.map(f64::to_bits);
                assert_eq!(bits(ring.current()), bits(oracle.current()));
                assert_eq!(ring.len(), oracle.window.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        MovingAverage::new(0);
    }

    #[test]
    fn long_stream_has_no_drift() {
        // Accumulated floating-point error in the running sum must stay
        // negligible over long streams.
        let mut ma = MovingAverage::new(16);
        let mut last = 0.0;
        for i in 0..100_000 {
            last = ma.push((i % 7) as f64);
        }
        // Window holds the last 16 values of the 0..7 cycle.
        let expected: f64 = (99_984..100_000).map(|i| (i % 7) as f64).sum::<f64>() / 16.0;
        assert!((last - expected).abs() < 1e-9);
    }
}
