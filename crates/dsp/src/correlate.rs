//! Cross-correlation.
//!
//! Correlation is the workhorse of CBMA's receiver: user detection
//! cross-correlates every known PN code against the received preamble, and
//! decoding cross-correlates each chip window against the detected user's
//! code (§III-B). The functions here work in the bipolar (±1) domain for
//! codes and on complex IQ for received samples; IQ correlation is
//! *noncoherent* (magnitude of the complex correlation) because the
//! backscatter channel applies an unknown phase rotation per tag.

use cbma_types::Iq;

use crate::simd;
use crate::xcorr::SlidingCorrelator;

/// Below this sequence length [`periodic_cross_correlation`] stays in the
/// time domain (with the ring unrolled so the inner loop has no modulo);
/// above it the overlap-save FFT engine wins. Re-tuned against the SIMD
/// direct kernel *and* the permutation-free raw-FFT pipeline by the
/// `periodic_xcorr` cases of the `bench_summary` runner in `cbma-bench`
/// (release build): the vectorized dot product pushes the break-even past
/// the old value of 96 — at n = 95 direct still wins (≈1.3 µs vs
/// ≈1.9 µs) — while the DIF/DIT engine pulls it back under 127, where
/// the FFT path is now ahead (≈1.9 µs vs ≈2.2 µs); interpolating the
/// n² vs n log n trends puts the crossing near 116.
pub const PERIODIC_FFT_CROSSOVER: usize = 120;

/// Raw (unnormalized) dot product of two equal-length real sequences.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    simd::dot(a, b)
}

/// Normalized correlation of two equal-length real sequences, in [−1, 1].
///
/// Returns 0.0 when either sequence has zero energy.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn normalized_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation requires equal lengths");
    let ea = simd::dot(a, a);
    let eb = simd::dot(b, b);
    if ea == 0.0 || eb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (ea.sqrt() * eb.sqrt())
}

/// Periodic (circular) cross-correlation of two equal-length ±1 sequences
/// at every lag; used to characterize PN-code families.
///
/// The ring access `b[(i + lag) % n]` is unrolled by doubling `b`, which
/// turns every lag into a plain linear dot product; long sequences (≥
/// [`PERIODIC_FFT_CROSSOVER`]) additionally go through the overlap-save
/// FFT engine, for O(n log n) total instead of O(n²). The pre-FFT
/// implementation survives as the `periodic_cross_correlation_naive`
/// oracle in this module's tests.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn periodic_cross_correlation(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(
        a.len(),
        b.len(),
        "periodic correlation requires equal lengths"
    );
    let n = a.len();
    if n == 0 {
        return Vec::new();
    }
    // c[lag] = Σ_i a[i]·b[(i+lag) mod n] = Σ_i a[i]·bb[lag+i] with bb = b‖b.
    let mut bb = Vec::with_capacity(2 * n);
    bb.extend_from_slice(b);
    bb.extend_from_slice(b);
    if n < PERIODIC_FFT_CROSSOVER {
        (0..n)
            .map(|lag| dot(a, &bb[lag..lag + n]))
            .collect()
    } else {
        let mut c = SlidingCorrelator::new(a).correlate_real(&bb);
        c.truncate(n);
        c
    }
}

/// Complex correlation of IQ samples against a real bipolar reference,
/// returning the complex accumulation. Callers usually take `.abs()` for a
/// noncoherent decision statistic.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn correlate_iq_bipolar(samples: &[Iq], reference: &[f64]) -> Iq {
    simd::dot_iq_real(samples, reference)
}

/// Noncoherent normalized correlation magnitude of IQ samples against a
/// bipolar reference, in [0, 1]. Zero-energy inputs yield 0.0.
pub fn normalized_iq_correlation(samples: &[Iq], reference: &[f64]) -> f64 {
    assert_eq!(
        samples.len(),
        reference.len(),
        "iq correlation requires equal lengths"
    );
    let es = simd::sum_power(samples);
    let er = simd::dot(reference, reference);
    if es == 0.0 || er == 0.0 {
        return 0.0;
    }
    correlate_iq_bipolar(samples, reference).abs() / (es.sqrt() * er.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bipolar(bits: &[u8]) -> Vec<f64> {
        bits.iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect()
    }

    /// The original O(n²) ring-indexed implementation, kept as the oracle
    /// for the unrolled/FFT production path.
    fn periodic_cross_correlation_naive(a: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(a.len(), b.len());
        let n = a.len();
        (0..n)
            .map(|lag| (0..n).map(|i| a[i] * b[(i + lag) % n]).sum())
            .collect()
    }

    #[test]
    fn periodic_correlation_matches_naive_oracle_both_paths() {
        // One length per side of PERIODIC_FFT_CROSSOVER, plus the
        // boundary itself.
        for n in [1usize, 7, 31, PERIODIC_FFT_CROSSOVER - 1, PERIODIC_FFT_CROSSOVER, 127, 255] {
            let a: Vec<f64> = (0..n).map(|i| if (i * 5) % 3 == 0 { 1.0 } else { -1.0 }).collect();
            let b: Vec<f64> = (0..n).map(|i| if (i * 11) % 7 < 3 { 1.0 } else { -1.0 }).collect();
            let fast = periodic_cross_correlation(&a, &b);
            let oracle = periodic_cross_correlation_naive(&a, &b);
            assert_eq!(fast.len(), oracle.len());
            for (lag, (x, y)) in fast.iter().zip(&oracle).enumerate() {
                assert!((x - y).abs() < 1e-9, "n={n} lag={lag}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn periodic_correlation_of_empty_is_empty() {
        assert!(periodic_cross_correlation(&[], &[]).is_empty());
    }

    #[test]
    fn auto_correlation_is_one() {
        let c = bipolar(&[1, 0, 1, 1, 0, 0, 1]);
        assert!((normalized_correlation(&c, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlation_is_minus_one() {
        let c = bipolar(&[1, 0, 1]);
        let neg: Vec<f64> = c.iter().map(|x| -x).collect();
        assert!((normalized_correlation(&c, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_energy_correlates_to_zero() {
        assert_eq!(normalized_correlation(&[0.0; 4], &[1.0; 4]), 0.0);
        assert_eq!(normalized_iq_correlation(&[Iq::ZERO; 4], &[1.0; 4]), 0.0);
    }

    #[test]
    fn iq_correlation_is_phase_invariant() {
        // The same code received with an arbitrary channel phase must give
        // the same noncoherent statistic — this is why the detector works
        // without carrier recovery.
        let code = bipolar(&[1, 0, 1, 1, 0, 1, 0]);
        let phase = 1.234;
        let rx: Vec<Iq> = code
            .iter()
            .map(|&c| Iq::from_polar(c.abs(), phase).scale(c.signum()))
            .collect();
        let rx0: Vec<Iq> = code.iter().map(|&c| Iq::new(c, 0.0)).collect();
        let m_rot = normalized_iq_correlation(&rx, &code);
        let m_0 = normalized_iq_correlation(&rx0, &code);
        assert!((m_rot - m_0).abs() < 1e-12);
        assert!((m_0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_correlation_of_shifted_self_peaks_at_shift() {
        let c = bipolar(&[1, 0, 0, 1, 0, 1, 1]);
        let shifted: Vec<f64> = (0..c.len()).map(|i| c[(i + 3) % c.len()]).collect();
        let prof = periodic_cross_correlation(&shifted, &c);
        let (offset, &value) = prof
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        // shifted[k] = c[k+3], so the profile peaks at the lag that
        // re-aligns `shifted` onto `c`.
        assert!((value - c.len() as f64).abs() < 1e-12);
        assert_eq!(offset, 3);
    }

    #[test]
    fn dot_is_linear() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert!((dot(&a, &b) - 32.0).abs() < 1e-12);
    }
}
