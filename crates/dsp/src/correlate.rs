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

#[cfg(test)]
mod tests {
    use super::*;

    fn bipolar(bits: &[u8]) -> Vec<f64> {
        bits.iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect()
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
    }

    #[test]
    fn dot_is_linear() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert!((dot(&a, &b) - 32.0).abs() < 1e-12);
    }
}
