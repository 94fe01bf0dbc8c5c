//! Statistics: frame error rates, goodput, empirical CDFs.
//!
//! The paper's metrics, made precise (DESIGN.md "metric interpretation"):
//!
//! * **error rate / FER** — missing frames ÷ transmitted frames (§IV),
//! * **aggregate modulated bitrate** — delivered tags × chip rate, the
//!   quantity behind "a 10-tag bit rate of 8 Mbps",
//! * **goodput** — payload bits delivered per second of airtime,
//! * **CDF** — the Fig. 10 deployment distribution.

use cbma_tag::PhyProfile;
use cbma_types::units::Hertz;

use crate::engine::RoundOutcome;

/// Accumulated delivery statistics over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    sent: Vec<u64>,
    delivered: Vec<u64>,
    bit_errors: u64,
    bits_measured: u64,
    rounds: u64,
}

impl RunStats {
    /// Creates empty statistics for `n_tags` tags.
    pub fn new(n_tags: usize) -> RunStats {
        RunStats {
            sent: vec![0; n_tags],
            delivered: vec![0; n_tags],
            bit_errors: 0,
            bits_measured: 0,
            rounds: 0,
        }
    }

    /// Records one round.
    pub fn record(&mut self, outcome: &RoundOutcome) {
        self.rounds += 1;
        for &i in &outcome.active {
            self.sent[i] += 1;
        }
        for &i in &outcome.delivered {
            self.delivered[i] += 1;
        }
        for &(_, errs, total) in &outcome.bit_errors {
            self.bit_errors += errs as u64;
            self.bits_measured += total as u64;
        }
    }

    /// Rounds recorded.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total frames transmitted.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total frames delivered.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Frame error rate: missing ÷ transmitted (0 when nothing was sent).
    pub fn fer(&self) -> f64 {
        let sent = self.total_sent();
        if sent == 0 {
            return 0.0;
        }
        1.0 - self.total_delivered() as f64 / sent as f64
    }

    /// Per-tag frame error rate (`None` for tags that never transmitted).
    pub fn per_tag_fer(&self) -> Vec<Option<f64>> {
        self.sent
            .iter()
            .zip(&self.delivered)
            .map(|(&s, &d)| {
                if s == 0 {
                    None
                } else {
                    Some(1.0 - d as f64 / s as f64)
                }
            })
            .collect()
    }

    /// Per-tag ACK ratios with 0 for idle tags (Algorithm 1 input shape).
    pub fn ack_ratios(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.delivered)
            .map(|(&s, &d)| if s == 0 { 0.0 } else { d as f64 / s as f64 })
            .collect()
    }

    /// Aggregate modulated bit rate: mean delivered tags per round × chip
    /// rate — the paper's "multi-tag bit rate" (its tags signal at the
    /// chip/symbol rate, §III-A).
    pub fn aggregate_symbol_rate(&self, phy: &PhyProfile) -> Hertz {
        if self.rounds == 0 {
            return Hertz::new(0.0);
        }
        let mean_delivered = self.total_delivered() as f64 / self.rounds as f64;
        Hertz::new(mean_delivered * phy.chip_rate.get())
    }

    /// Aggregate information goodput: payload bits delivered per second of
    /// airtime, given the frame length in bits and the spreading factor.
    pub fn goodput(&self, phy: &PhyProfile, payload_len: usize, spreading_factor: usize) -> Hertz {
        if self.rounds == 0 {
            return Hertz::new(0.0);
        }
        let frame_bits = phy.preamble_bits + 8 + payload_len * 8 + 16;
        let airtime_per_round = frame_bits as f64 * spreading_factor as f64 / phy.chip_rate.get();
        let bits_delivered = self.total_delivered() as f64 * (payload_len * 8) as f64;
        Hertz::new(bits_delivered / (airtime_per_round * self.rounds as f64))
    }

    /// Bit error rate over the bits the receiver could measure (frames
    /// whose header decoded with the right length), or `None` when no
    /// bits were measured. Misaligned or undetected frames contribute no
    /// bits — combine with [`fer`](RunStats::fer) for the full picture.
    pub fn ber(&self) -> Option<f64> {
        if self.bits_measured == 0 {
            None
        } else {
            Some(self.bit_errors as f64 / self.bits_measured as f64)
        }
    }

    /// Total bits measured for the BER estimate.
    pub fn bits_measured(&self) -> u64 {
        self.bits_measured
    }

    /// Merges another run's statistics (same tag count).
    ///
    /// # Panics
    ///
    /// Panics if the tag counts differ.
    pub fn merge(&mut self, other: &RunStats) {
        assert_eq!(self.sent.len(), other.sent.len(), "tag counts differ");
        for i in 0..self.sent.len() {
            self.sent[i] += other.sent[i];
            self.delivered[i] += other.delivered[i];
        }
        self.bit_errors += other.bit_errors;
        self.bits_measured += other.bits_measured;
        self.rounds += other.rounds;
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("nans were filtered"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn probability_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (q in [0, 1]): the sample at the nearest rank.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty cdf");
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }

    /// The median: the middle sample of an odd count, and the mean of the
    /// two middle samples of an even count.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn median(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "median of an empty cdf");
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// `(x, P(X ≤ x))` points for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_rx::RxReport;

    fn outcome(active: Vec<usize>, delivered: Vec<usize>) -> RoundOutcome {
        RoundOutcome {
            active,
            delivered,
            report: RxReport::default(),
            bit_errors: Vec::new(),
            signal_meta: Vec::new(),
            iq: None,
        }
    }

    #[test]
    fn fer_accounting() {
        let mut s = RunStats::new(2);
        s.record(&outcome(vec![0, 1], vec![0, 1]));
        s.record(&outcome(vec![0, 1], vec![0]));
        assert_eq!(s.total_sent(), 4);
        assert_eq!(s.total_delivered(), 3);
        assert!((s.fer() - 0.25).abs() < 1e-12);
        assert_eq!(s.per_tag_fer(), vec![Some(0.0), Some(0.5)]);
        assert_eq!(s.ack_ratios(), vec![1.0, 0.5]);
    }

    #[test]
    fn idle_tags_have_no_fer() {
        let mut s = RunStats::new(2);
        s.record(&outcome(vec![0], vec![0]));
        assert_eq!(s.per_tag_fer()[1], None);
        assert_eq!(s.ack_ratios()[1], 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::new(3);
        assert_eq!(s.fer(), 0.0);
        assert_eq!(
            s.aggregate_symbol_rate(&PhyProfile::paper_default()).get(),
            0.0
        );
        assert_eq!(s.goodput(&PhyProfile::paper_default(), 8, 31).get(), 0.0);
    }

    #[test]
    fn zero_round_run_yields_finite_everything() {
        // A run that never recorded a round must not divide by zero
        // anywhere: every derived quantity is finite (or explicitly None).
        let s = RunStats::new(4);
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.total_sent(), 0);
        assert_eq!(s.total_delivered(), 0);
        assert!(s.fer().is_finite());
        assert_eq!(s.fer(), 0.0);
        assert_eq!(s.per_tag_fer(), vec![None; 4]);
        assert_eq!(s.ack_ratios(), vec![0.0; 4]);
        assert_eq!(s.ber(), None);
        assert_eq!(s.bits_measured(), 0);
        let phy = PhyProfile::paper_default();
        assert!(s.aggregate_symbol_rate(&phy).get().is_finite());
        assert!(s.goodput(&phy, 8, 31).get().is_finite());
    }

    #[test]
    fn never_transmitting_tag_does_not_nan_per_tag_fer() {
        // Tag 1 never transmits across many rounds: its FER slot stays
        // None (not NaN), the run FER ignores it, and merging preserves
        // the distinction.
        let mut s = RunStats::new(3);
        for _ in 0..5 {
            s.record(&outcome(vec![0, 2], vec![0]));
        }
        let per_tag = s.per_tag_fer();
        assert_eq!(per_tag[1], None);
        for fer in per_tag.iter().flatten() {
            assert!(fer.is_finite(), "per-tag FER must never be NaN");
        }
        assert!((per_tag[0].unwrap() - 0.0).abs() < 1e-12);
        assert!((per_tag[2].unwrap() - 1.0).abs() < 1e-12);
        assert!(s.fer().is_finite());
        // Merging two runs that both idled tag 1 keeps it idle.
        let mut other = RunStats::new(3);
        other.record(&outcome(vec![0], vec![0]));
        s.merge(&other);
        assert_eq!(s.per_tag_fer()[1], None);
        assert!(!s.ack_ratios().iter().any(|r| r.is_nan()));
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut a = RunStats::new(2);
        let mut b = RunStats::new(2);
        b.record(&outcome(vec![0, 1], vec![1]));
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_symbol_rate_scales_with_delivered_tags() {
        let phy = PhyProfile::paper_default();
        let mut s = RunStats::new(10);
        for _ in 0..4 {
            s.record(&outcome((0..10).collect(), (0..10).collect()));
        }
        // 10 delivered tags × 1 Mcps = 10 Mbps modulated aggregate.
        assert!((s.aggregate_symbol_rate(&phy).get() - 10e6).abs() < 1.0);
    }

    #[test]
    fn goodput_matches_hand_computation() {
        let phy = PhyProfile::paper_default();
        let mut s = RunStats::new(1);
        s.record(&outcome(vec![0], vec![0]));
        // Frame: 8+8+64+16 = 96 bits × 31 chips @1 Mcps = 2976 µs airtime;
        // 64 payload bits delivered → 64/2.976e-3 ≈ 21.5 kbps.
        let g = s.goodput(&phy, 8, 31).get();
        assert!((g - 64.0 / 2.976e-3).abs() / g < 1e-9, "g = {g}");
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = RunStats::new(1);
        a.record(&outcome(vec![0], vec![0]));
        let mut b = RunStats::new(1);
        b.record(&outcome(vec![0], vec![]));
        a.merge(&b);
        assert_eq!(a.rounds(), 2);
        assert!((a.fer() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_probability_and_quantiles() {
        let cdf = Cdf::from_samples([0.3, 0.1, 0.2, 0.4]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.probability_at(0.25) - 0.5).abs() < 1e-12);
        assert_eq!(cdf.probability_at(0.0), 0.0);
        assert_eq!(cdf.probability_at(1.0), 1.0);
        // An even count's median is the mean of its two middle samples.
        assert_eq!(cdf.median(), 0.25);
        assert_eq!(Cdf::from_samples([0.0, 0.02]).median(), 0.01);
        assert_eq!(Cdf::from_samples([0.3, 0.1, 0.2]).median(), 0.2);
        assert_eq!(cdf.quantile(0.0), 0.1);
        assert_eq!(cdf.quantile(1.0), 0.4);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_samples([5.0, 1.0, 3.0, 3.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_drops_nans() {
        let cdf = Cdf::from_samples([f64::NAN, 1.0]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn empty_cdf_probability_is_zero() {
        assert_eq!(Cdf::from_samples([]).probability_at(1.0), 0.0);
        assert!(Cdf::from_samples([]).is_empty());
    }
}
