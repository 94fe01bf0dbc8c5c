//! Cross-correlation.
//!
//! Correlation is the workhorse of CBMA's receiver: user detection
//! cross-correlates every known PN code against the received preamble, and
//! decoding cross-correlates each chip window against the detected user's
//! code (§III-B). The function here correlates complex IQ samples against
//! a bipolar (±1) code reference at one lag; the detector takes the
//! *noncoherent* magnitude of the result because the backscatter channel
//! applies an unknown phase rotation per tag. Sliding correlations over
//! many lags run on [`crate::xcorr::BatchCorrelator`].

use cbma_types::Iq;

use crate::simd;

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
