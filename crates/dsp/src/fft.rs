//! One-shot FFTs for spectrum inspection.
//!
//! The spectral integration tests and the dsp property tests use these to
//! measure signals. Power-of-two sizes only.
//!
//! These free functions build a throwaway [`crate::xcorr::FftPlan`] per
//! call, which runs merged radix-4 stages. Hot paths that transform the
//! same size repeatedly (the overlap-save correlators) hold a plan
//! instead: it precomputes the bit-reversal permutation and twiddle tables
//! once, so the butterfly loop performs no `sin`/`cos` work.

use cbma_types::{Iq, Result};

use crate::xcorr::FftPlan;

/// Forward FFT (no normalization), in place over a power-of-two buffer.
///
/// # Errors
///
/// Returns [`CbmaError::ShapeMismatch`](cbma_types::CbmaError::ShapeMismatch)
/// when the length is not a power of two (length zero is accepted as a
/// no-op).
pub fn fft_in_place(buf: &mut [Iq]) -> Result<()> {
    FftPlan::new(buf.len())?.forward(buf)
}

/// Inverse FFT with 1/N normalization, in place.
///
/// # Errors
///
/// Returns [`CbmaError::ShapeMismatch`](cbma_types::CbmaError::ShapeMismatch)
/// when the length is not a power of two.
pub fn ifft_in_place(buf: &mut [Iq]) -> Result<()> {
    FftPlan::new(buf.len())?.inverse(buf)
}

/// Forward FFT returning a new buffer.
///
/// # Errors
///
/// Returns [`CbmaError::ShapeMismatch`](cbma_types::CbmaError::ShapeMismatch)
/// when the length is not a power of two.
pub fn fft(input: &[Iq]) -> Result<Vec<Iq>> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

/// Inverse FFT returning a new buffer.
///
/// # Errors
///
/// Returns [`CbmaError::ShapeMismatch`](cbma_types::CbmaError::ShapeMismatch)
/// when the length is not a power of two.
pub fn ifft(input: &[Iq]) -> Result<Vec<Iq>> {
    let mut buf = input.to_vec();
    ifft_in_place(&mut buf)?;
    Ok(buf)
}

/// Power spectrum |FFT|²/N of a buffer.
///
/// # Errors
///
/// Returns [`CbmaError::ShapeMismatch`](cbma_types::CbmaError::ShapeMismatch)
/// when the length is not a power of two.
pub fn power_spectrum(input: &[Iq]) -> Result<Vec<f64>> {
    let n = input.len().max(1) as f64;
    Ok(fft(input)?.into_iter().map(|x| x.power() / n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Iq::ZERO; 8];
        buf[0] = Iq::ONE;
        fft_in_place(&mut buf).unwrap();
        for x in &buf {
            assert!((*x - Iq::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_is_impulse() {
        let mut buf = vec![Iq::ONE; 8];
        fft_in_place(&mut buf).unwrap();
        assert!((buf[0].re - 8.0).abs() < 1e-12);
        for x in &buf[1..] {
            assert!(x.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_locates_a_single_tone() {
        let n = 64;
        let k = 5;
        let buf: Vec<Iq> = (0..n)
            .map(|i| Iq::phasor(2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64))
            .collect();
        let spec = power_spectrum(&buf).unwrap();
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k);
        // All energy concentrates in that bin.
        assert!(spec[k] / spec.iter().sum::<f64>() > 0.999);
    }

    #[test]
    fn round_trip_identity() {
        let buf: Vec<Iq> = (0..32)
            .map(|i| Iq::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let back = ifft(&fft(&buf).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&buf) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let buf: Vec<Iq> = (0..16).map(|i| Iq::new(i as f64, -(i as f64))).collect();
        let time_energy: f64 = buf.iter().map(|x| x.power()).sum();
        let freq_energy: f64 = fft(&buf).unwrap().iter().map(|x| x.power()).sum::<f64>() / 16.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut buf = vec![Iq::ZERO; 12];
        assert!(matches!(
            fft_in_place(&mut buf),
            Err(cbma_types::CbmaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_buffer_is_noop() {
        let mut buf: Vec<Iq> = Vec::new();
        fft_in_place(&mut buf).unwrap();
        ifft_in_place(&mut buf).unwrap();
        assert!(buf.is_empty());
    }
}
