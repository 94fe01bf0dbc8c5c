//! Property-based tests for the DSP primitives.

use cbma_dsp::correlate::{normalized_correlation, normalized_iq_correlation};
use cbma_dsp::fft::{fft, ifft};
use cbma_dsp::goertzel::bin_power;
use cbma_dsp::mafilter::moving_average;
use cbma_dsp::resample::{downsample_mean, fractional_delay, upsample_repeat};
use cbma_types::Iq;
use proptest::prelude::*;

fn arb_iq_buffer(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Iq>> {
    proptest::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Iq::new(re, im)),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT then IFFT is the identity for any power-of-two buffer.
    #[test]
    fn fft_round_trip(buf in arb_iq_buffer(1..9).prop_map(|v| {
        let n = v.len().next_power_of_two();
        let mut v = v;
        v.resize(n, Iq::ZERO);
        v
    })) {
        let back = ifft(&fft(&buf).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Parseval: FFT preserves energy (within the 1/N convention).
    #[test]
    fn fft_preserves_energy(buf in arb_iq_buffer(4..5).prop_map(|v| {
        let mut v = v;
        v.resize(16, Iq::ZERO);
        v
    })) {
        let time: f64 = buf.iter().map(|x| x.power()).sum();
        let freq: f64 = fft(&buf).unwrap().iter().map(|x| x.power()).sum::<f64>() / 16.0;
        prop_assert!((time - freq).abs() < 1e-9 * (1.0 + time));
    }

    /// Upsample-then-downsample is the identity for any factor.
    #[test]
    fn resample_round_trip(
        buf in arb_iq_buffer(1..64),
        factor in 1usize..12,
    ) {
        let up = upsample_repeat(&buf, factor);
        prop_assert_eq!(up.len(), buf.len() * factor);
        let down = downsample_mean(&up, factor);
        for (a, b) in down.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// Two integer delays compose additively.
    #[test]
    fn integer_delays_compose(
        buf in arb_iq_buffer(8..48),
        d1 in 0usize..5,
        d2 in 0usize..5,
    ) {
        let a = fractional_delay(&fractional_delay(&buf, d1 as f64), d2 as f64);
        let b = fractional_delay(&buf, (d1 + d2) as f64);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((*x - *y).abs() < 1e-9);
        }
    }

    /// Normalized correlation is symmetric and bounded.
    #[test]
    fn correlation_bounds(
        a in proptest::collection::vec(-1.0f64..1.0, 4..64),
    ) {
        let b: Vec<f64> = a.iter().map(|x| -x * 0.5).collect();
        let c = normalized_correlation(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        let c_sym = normalized_correlation(&b, &a);
        prop_assert!((c - c_sym).abs() < 1e-12);
    }

    /// The noncoherent IQ correlation is invariant under a global phase.
    #[test]
    fn iq_correlation_phase_invariance(
        buf in arb_iq_buffer(8..32),
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let reference: Vec<f64> = (0..buf.len())
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let rotated: Vec<Iq> = buf.iter().map(|s| *s * Iq::phasor(phase)).collect();
        let m0 = normalized_iq_correlation(&buf, &reference);
        let m1 = normalized_iq_correlation(&rotated, &reference);
        prop_assert!((m0 - m1).abs() < 1e-9);
    }

    /// A moving average never exceeds the input's running extremes.
    #[test]
    fn moving_average_is_bounded(
        input in proptest::collection::vec(-10.0f64..10.0, 1..64),
        window in 1usize..16,
    ) {
        let out = moving_average(&input, window);
        let lo = input.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = input.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for y in out {
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    /// Goertzel bin power is non-negative and no larger than total energy.
    #[test]
    fn goertzel_power_bounds(
        buf in arb_iq_buffer(4..64),
        f in -0.49f64..0.49,
    ) {
        let p = bin_power(&buf, f);
        let energy: f64 = buf.iter().map(|s| s.power()).sum();
        prop_assert!(p >= 0.0);
        // |X(f)|² ≤ (Σ|x|)² ≤ N·Σ|x|² by Cauchy–Schwarz → p ≤ energy… ×1.
        prop_assert!(p <= energy + 1e-9);
    }
}
