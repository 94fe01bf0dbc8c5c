//! SIMD-vs-scalar and batched-vs-one-reference correlation equivalence.
//!
//! The explicit-SIMD kernels in `cbma_dsp::simd` and the shared-FFT
//! [`BatchCorrelator`] are pure optimizations: across random inputs —
//! including every lane-remainder length around the 4-wide AVX2 vector
//! width — each must agree with its scalar / one-reference counterpart to
//! floating-point rounding (1e-9 relative on unit-scale data).

use cbma_dsp::fft::{fft, ifft};
use cbma_dsp::simd;
use cbma_dsp::xcorr::{BatchCorrelator, BatchScratch, FftPlan};
use cbma_types::Iq;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn reals(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
}

fn iqs(rng: &mut StdRng, n: usize) -> Vec<Iq> {
    (0..n)
        .map(|_| Iq::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
        .collect()
}

/// O(n·m) sliding correlation oracle: out[lag] = Σ s[lag+i]·r[i].
fn direct_sliding(samples: &[Iq], reference: &[f64]) -> Vec<Iq> {
    if samples.len() < reference.len() || reference.is_empty() {
        return Vec::new();
    }
    (0..=samples.len() - reference.len())
        .map(|lag| simd::dot_iq_real_scalar(&samples[lag..lag + reference.len()], reference))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every SIMD kernel matches its scalar twin on lengths that sweep
    /// the lane remainders (0..=9 covers full vectors plus every tail).
    #[test]
    fn simd_kernels_match_scalar_across_lane_remainders(
        seed in 0u64..1 << 48,
        base in 0usize..48,
        tail in 0usize..=9,
    ) {
        let n = base * 4 + tail;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = reals(&mut rng, n);
        let s = iqs(&mut rng, n);

        prop_assert!(
            (simd::dot_iq_real(&s, &a) - simd::dot_iq_real_scalar(&s, &a)).abs() < 1e-9
        );

        // The batch correlator's spectrum product: every output written,
        // none of the NaN the destination starts with surviving.
        let src = iqs(&mut rng, n);
        let mut dst_v = vec![Iq::new(f64::NAN, f64::NAN); n];
        let mut dst_s = dst_v.clone();
        simd::spectrum_mul_to(&mut dst_v, &s, &src);
        simd::spectrum_mul_to_scalar(&mut dst_s, &s, &src);
        for (v, w) in dst_v.iter().zip(&dst_s) {
            prop_assert!((*v - *w).abs() < 1e-9);
        }

        let mut scl_v = s.clone();
        let mut scl_s = s.clone();
        simd::scale_iq(&mut scl_v, 0.7315);
        simd::scale_iq_scalar(&mut scl_s, 0.7315);
        for (v, w) in scl_v.iter().zip(&scl_s) {
            prop_assert!((*v - *w).abs() < 1e-12);
        }

        let gain = Iq::new(0.4, -1.2);
        let mut sub_v = s.clone();
        let mut sub_s = s.clone();
        simd::subtract_scaled_real(&mut sub_v, &a, gain);
        simd::subtract_scaled_real_scalar(&mut sub_s, &a, gain);
        for (v, w) in sub_v.iter().zip(&sub_s) {
            prop_assert!((*v - *w).abs() < 1e-12);
        }

        let mut mag_v = vec![0.0; n];
        let mut mag_s = vec![0.0; n];
        simd::magnitudes_into(&s, &mut mag_v);
        simd::magnitudes_into_scalar(&s, &mut mag_s);
        for (v, w) in mag_v.iter().zip(&mag_s) {
            prop_assert!((v - w).abs() < 1e-12);
        }
    }

    /// Each row of a K-reference batch is exactly the row a one-reference
    /// batch on that row's reference returns, and matches the O(n·m)
    /// direct oracle — for K = 1 and larger, references up to 256
    /// samples (the user detector's spread preambles at one and two
    /// samples per chip are 128 and 256), and windows from a single lag
    /// to non-power-of-two lengths spanning several overlap-save blocks.
    /// About 69 % of the drawn windows are longer than one block, which
    /// no receiver window is, so this is the engine's multi-block check.
    /// The detector has no other sliding correlation, so this is its
    /// equivalence proof against direct dot products. A masked batch
    /// (a random subset of rows skipped, as a SIC re-run skips decoded
    /// codes) leaves every kept row bit-identical and every skipped row
    /// zero.
    #[test]
    fn batch_rows_match_per_code_and_direct(
        seed in 0u64..1 << 48,
        num_codes in 1usize..=8,
        ref_len in 2usize..=256,
        extra in 0usize..700,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let references: Vec<Vec<f64>> = (0..num_codes)
            .map(|_| {
                (0..ref_len)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        let samples = iqs(&mut rng, ref_len + extra);

        let batch = BatchCorrelator::new(&references);
        let mut scratch = BatchScratch::new();
        batch.correlate_iq_into(&samples, &[], &mut scratch, None);
        prop_assert_eq!(scratch.num_codes(), num_codes);
        prop_assert_eq!(scratch.lags(), samples.len() - ref_len + 1);

        let skip: Vec<bool> = (0..num_codes).map(|_| rng.gen()).collect();
        let mut masked = BatchScratch::new();
        batch.correlate_iq_into(&samples, &skip, &mut masked, None);
        prop_assert_eq!(masked.lags(), scratch.lags());

        let mut single = BatchScratch::new();
        for (k, reference) in references.iter().enumerate() {
            BatchCorrelator::new(&[reference]).correlate_iq_into(&samples, &[], &mut single, None);
            let row = scratch.code(k);
            if skip[k] {
                prop_assert!(masked.code(k).iter().all(|c| *c == Iq::ZERO));
            } else {
                prop_assert_eq!(masked.code(k), row);
            }
            // Bit-identical to the one-reference batch: both use the same
            // block sizing and the same butterflies, and a row never
            // reads another code's spectrum.
            prop_assert_eq!(row, single.code(0));
            let oracle = direct_sliding(&samples, reference);
            prop_assert_eq!(row.len(), oracle.len());
            for (b, d) in row.iter().zip(&oracle) {
                prop_assert!(
                    (*b - *d).abs() < 1e-9 * (ref_len as f64),
                    "batch {} vs direct {}",
                    b,
                    d
                );
            }
        }
    }
}

/// O(n²) DFT oracle: X[k] = Σ x[j]·e^{-2πi·jk/n}.
fn direct_dft(input: &[Iq]) -> Vec<Iq> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Iq::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let angle = -std::f64::consts::TAU * (j * k % n) as f64 / n as f64;
                acc += x * Iq::from_polar(1.0, angle);
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan's two ladders, the ones the correlator runs, match the
    /// O(n²) DFT oracle at every power-of-two size through 512 — both the
    /// even-stage-count sizes (pure radix-4: 4, 16, 64, 256) and the odd
    /// ones that need the radix-2 tail stage (2, 8, 32, 128, 512):
    /// `forward_raw` leaves DFT bin k at the bit-reversed index of k, and
    /// `inverse_raw_unscaled` after `forward_raw` returns N·x. The
    /// natural-order one-shot `fft` matches the oracle in bin order, and
    /// `ifft` takes it back to the input.
    #[test]
    fn radix4_fft_matches_direct_dft(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        for log2n in 1u32..=9 {
            let n = 1usize << log2n;
            let input = iqs(&mut rng, n);
            let oracle = direct_dft(&input);
            let tol = 1e-9 * n as f64;
            let plan = FftPlan::new(n).unwrap();

            let mut raw = input.clone();
            plan.forward_raw(&mut raw).unwrap();
            for (k, o) in oracle.iter().enumerate() {
                let r = raw[k.reverse_bits() >> (usize::BITS - log2n)];
                prop_assert!((r - *o).abs() < tol, "n={} bin {}: {:?} vs dft {:?}", n, k, r, o);
            }

            plan.inverse_raw_unscaled(&mut raw).unwrap();
            for (r, x) in raw.iter().zip(&input) {
                prop_assert!((*r - x.scale(n as f64)).abs() < tol, "n={} round trip", n);
            }

            let natural = fft(&input).unwrap();
            for (f, o) in natural.iter().zip(&oracle) {
                prop_assert!((*f - *o).abs() < tol, "n={} fft {:?} vs dft {:?}", n, f, o);
            }
            for (b, x) in ifft(&natural).unwrap().iter().zip(&input) {
                prop_assert!((*b - *x).abs() < 1e-9, "n={} ifft", n);
            }
        }
    }
}

/// A window shorter than the reference produces zero lags; the scratch
/// must report empty rows, not stale data from a previous capture.
#[test]
fn short_window_yields_empty_rows() {
    let reference = vec![1.0; 32];
    let batch = BatchCorrelator::new(&[&reference[..], &reference[..]]);
    let mut scratch = BatchScratch::new();
    // Prime the scratch with a real pass first.
    let mut rng = StdRng::seed_from_u64(3);
    batch.correlate_iq_into(&iqs(&mut rng, 200), &[], &mut scratch, None);
    assert!(scratch.lags() > 0);
    batch.correlate_iq_into(&iqs(&mut rng, 31), &[], &mut scratch, None);
    assert_eq!(scratch.lags(), 0);
    assert!(scratch.code(0).is_empty());
    assert!(scratch.code(1).is_empty());
}

/// Steady state reuses the scratch arena: a second same-length capture
/// must not move the row storage.
#[test]
fn batch_scratch_reuse_is_pointer_stable() {
    let mut rng = StdRng::seed_from_u64(11);
    let references: Vec<Vec<f64>> = (0..4)
        .map(|_| {
            (0..31)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect()
        })
        .collect();
    let batch = BatchCorrelator::new(&references);
    let mut scratch = BatchScratch::new();
    let first = iqs(&mut rng, 400);
    batch.correlate_iq_into(&first, &[], &mut scratch, None);
    let ptr = scratch.storage_ptr();
    let second = iqs(&mut rng, 400);
    batch.correlate_iq_into(&second, &[], &mut scratch, None);
    assert_eq!(ptr, scratch.storage_ptr(), "row storage reallocated");
}

/// The decoder's windowed correlation returns, for every window, exactly
/// the bits of a separate `dot_iq_real` call on that window: window
/// lengths 1..=300 cover every lane remainder of the 4-sample loop, and
/// 0..=9 windows cover whole groups of four plus every leftover count.
#[test]
fn windowed_correlation_matches_per_window_calls_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(20);
    for w in 1..=300usize {
        let reference = reals(&mut rng, w);
        // One spare sample past the last window must never be read.
        let samples = iqs(&mut rng, 9 * w + 1);
        for windows in 0..=9usize {
            let mut fast = vec![Iq::new(f64::NAN, f64::NAN); windows];
            let mut slow = fast.clone();
            simd::dot_iq_real_windows(&samples, &reference, &mut fast);
            simd::dot_iq_real_windows_scalar(&samples, &reference, &mut slow);
            for k in 0..windows {
                let window = &samples[k * w..(k + 1) * w];
                let one = simd::dot_iq_real(window, &reference);
                assert_eq!(
                    (fast[k].re.to_bits(), fast[k].im.to_bits()),
                    (one.re.to_bits(), one.im.to_bits()),
                    "w={w} windows={windows} k={k}"
                );
                let one = simd::dot_iq_real_scalar(window, &reference);
                assert_eq!(
                    (slow[k].re.to_bits(), slow[k].im.to_bits()),
                    (one.re.to_bits(), one.im.to_bits()),
                    "scalar w={w} windows={windows} k={k}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "need more than")]
fn windowed_correlation_rejects_a_short_buffer() {
    let mut out = [Iq::ZERO; 3];
    simd::dot_iq_real_windows(&[Iq::ONE; 11], &[1.0; 4], &mut out);
}

fn bits(samples: &[Iq]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|s| (s.re.to_bits(), s.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The mixer's interior kernel equals its scalar twin bit for bit —
    /// every output sample and the returned carry — with and without an
    /// excitation mask, for 0–4 taps at delays 0–4 in any order, and
    /// interiors of every length through 41 (both lane parities).
    #[test]
    fn fade_delay_add_matches_scalar_bit_for_bit(
        seed in any::<u64>(),
        tap_count in 0usize..=4,
        len in 0usize..=41,
        masked in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let taps: Vec<(usize, Iq)> = (0..tap_count)
            .map(|_| {
                let g = Iq::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0);
                (rng.gen_range(0..=4usize), g)
            })
            .collect();
        let max_d = taps.iter().map(|&(d, _)| d).max().unwrap_or(0);
        let min_d = taps.iter().map(|&(d, _)| d).min().unwrap_or(0);
        let first = max_d + rng.gen_range(0..3usize);
        // Exactly long enough for the furthest read, plus some slack.
        let slack = rng.gen_range(0..3usize);
        let clean = iqs(&mut rng, first - min_d + len + slack);
        let frac = rng.gen::<f64>();
        let prev = Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
        let mask: Vec<f64> = (0..len)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { rng.gen::<f64>() })
            .collect();
        let mask = masked.then_some(&mask[..]);
        let out = iqs(&mut rng, len);

        let mut fast = out.clone();
        let mut slow = out;
        let carry_fast = simd::fade_delay_add(&clean, &taps, first, frac, prev, &mut fast, mask);
        let carry_slow =
            simd::fade_delay_add_scalar(&clean, &taps, first, frac, prev, &mut slow, mask);
        prop_assert_eq!(bits(&fast), bits(&slow));
        prop_assert_eq!(bits(&[carry_fast]), bits(&[carry_slow]));
    }
}

/// Runs the mixer kernel over 4 output samples from `first`.
fn fade_four(clean: &[Iq], taps: &[(usize, Iq)], first: usize) {
    let mut out = [Iq::ZERO; 4];
    simd::fade_delay_add(clean, taps, first, 0.5, Iq::ZERO, &mut out, None);
}

#[test]
#[should_panic(expected = "reads outside the envelope")]
fn fade_delay_add_rejects_a_tap_before_the_envelope() {
    fade_four(&[Iq::ONE; 16], &[(3, Iq::ONE)], 2);
}

#[test]
#[should_panic(expected = "reads outside the envelope")]
fn fade_delay_add_rejects_a_tap_past_the_envelope() {
    fade_four(&[Iq::ONE; 5], &[(0, Iq::ONE)], 2);
}
