//! SIMD-vs-scalar and batched-vs-per-code correlation equivalence.
//!
//! The explicit-SIMD kernels in `cbma_dsp::simd` and the shared-FFT
//! [`BatchCorrelator`] are pure optimizations: across random inputs —
//! including every lane-remainder length around the 4-wide AVX2 vector
//! width — each must agree with its scalar / per-code counterpart to
//! floating-point rounding (1e-9 relative on unit-scale data).

use cbma_dsp::simd;
use cbma_dsp::xcorr::{BatchCorrelator, BatchScratch, FftPlan, SlidingCorrelator};
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
        let b = reals(&mut rng, n);
        let s = iqs(&mut rng, n);

        prop_assert!((simd::dot(&a, &b) - simd::dot_scalar(&a, &b)).abs() < 1e-9);
        prop_assert!(
            (simd::dot_iq_real(&s, &a) - simd::dot_iq_real_scalar(&s, &a)).abs() < 1e-9
        );
        prop_assert!((simd::sum_power(&s) - simd::sum_power_scalar(&s)).abs() < 1e-9);

        let src = iqs(&mut rng, n);
        let mut dst_v = s.clone();
        let mut dst_s = s.clone();
        simd::spectrum_mul(&mut dst_v, &src);
        simd::spectrum_mul_scalar(&mut dst_s, &src);
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

    /// The shared-FFT batch engine returns exactly the rows the per-code
    /// sliding correlator returns, which in turn match the O(n·m) direct
    /// oracle — for K = 1 and larger, and windows of non-power-of-two
    /// lengths spanning several overlap-save blocks.
    #[test]
    fn batch_rows_match_per_code_and_direct(
        seed in 0u64..1 << 48,
        num_codes in 1usize..=8,
        ref_len in 2usize..=96,
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
        batch.correlate_iq_into(&samples, &mut scratch);
        prop_assert_eq!(scratch.num_codes(), num_codes);
        prop_assert_eq!(scratch.lags(), samples.len() - ref_len + 1);

        for (k, reference) in references.iter().enumerate() {
            let per_code = SlidingCorrelator::new(reference).correlate_iq(&samples);
            let row = scratch.code(k);
            // Bit-identical to the per-code engine: the batch pass uses
            // the same block sizing and the same butterflies, only the
            // forward transform of each block is shared.
            prop_assert_eq!(row, per_code.as_slice());
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

    /// The merged radix-4 / split-tail FFT ladder matches the O(n²) DFT
    /// oracle at every power-of-two size through 512 — both the
    /// even-stage-count sizes (pure radix-4: 4, 16, 64, 256) and the odd
    /// ones that need the radix-2 tail stage (2, 8, 32, 128, 512) — and
    /// the raw bit-reversed-order pipeline round-trips to the input.
    #[test]
    fn radix4_fft_matches_direct_dft(seed in 0u64..1 << 48, log2n in 1u32..=9) {
        let n = 1usize << log2n;
        let mut rng = StdRng::seed_from_u64(seed);
        let input = iqs(&mut rng, n);
        let plan = FftPlan::new(n).unwrap();

        let mut fwd = input.clone();
        plan.forward(&mut fwd).unwrap();
        let oracle = direct_dft(&input);
        for (f, o) in fwd.iter().zip(&oracle) {
            prop_assert!(
                (*f - *o).abs() < 1e-9 * n as f64,
                "n={} fft {:?} vs dft {:?}", n, f, o
            );
        }

        // forward → inverse is the identity to rounding.
        let mut back = fwd.clone();
        plan.inverse(&mut back).unwrap();
        for (b, x) in back.iter().zip(&input) {
            prop_assert!((*b - *x).abs() < 1e-9);
        }

        // The permutation-free raw pipeline round-trips too (DIF emits
        // bit-reversed order, DIT consumes it).
        let mut raw = input.clone();
        plan.forward_raw(&mut raw).unwrap();
        plan.inverse_raw(&mut raw).unwrap();
        for (r, x) in raw.iter().zip(&input) {
            prop_assert!((*r - *x).abs() < 1e-9);
        }
    }
}

/// K = 1 degenerates to a plain sliding correlation.
#[test]
fn single_code_batch_equals_sliding() {
    let mut rng = StdRng::seed_from_u64(7);
    let reference: Vec<f64> = (0..63).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
    let samples = iqs(&mut rng, 500);
    let batch = BatchCorrelator::new(&[&reference[..]]);
    let mut scratch = BatchScratch::new();
    batch.correlate_iq_into(&samples, &mut scratch);
    assert_eq!(scratch.num_codes(), 1);
    assert_eq!(
        scratch.code(0),
        SlidingCorrelator::new(&reference).correlate_iq(&samples).as_slice()
    );
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
    batch.correlate_iq_into(&iqs(&mut rng, 200), &mut scratch);
    assert!(scratch.lags() > 0);
    batch.correlate_iq_into(&iqs(&mut rng, 31), &mut scratch);
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
        .map(|_| (0..31).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect())
        .collect();
    let batch = BatchCorrelator::new(&references);
    let mut scratch = BatchScratch::new();
    let first = iqs(&mut rng, 400);
    batch.correlate_iq_into(&first, &mut scratch);
    let ptr = scratch.storage_ptr();
    let second = iqs(&mut rng, 400);
    batch.correlate_iq_into(&second, &mut scratch);
    assert_eq!(ptr, scratch.storage_ptr(), "row storage reallocated");
}
