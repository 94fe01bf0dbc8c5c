//! The user detector against a direct oracle at the receiver's shapes.
//!
//! Every detection window runs on the shared-FFT batch engine, whose rows
//! `cbma-dsp`'s `batch_rows_match_per_code_and_direct` pins against
//! direct sliding dot products. Here the detector as a whole is checked
//! at the shapes the Fig. 9(a) bitrate sweep gives it: 1, 2 and 8
//! samples per chip, the paper preamble and the receiver's search
//! window, which for that sweep's code set leaves 14, 27 and 105 lags. A
//! user placed at a random lag must be among its code's candidates, with
//! the normalized correlation a direct computation gives at that lag.
//! Silent and too-short windows report no candidate, and a code set whose
//! codes differ in length is rejected at construction.

use cbma_codes::{CodeFamily, GoldFamily, PnCode, TwoNcFamily};
use cbma_dsp::correlate::correlate_iq_bipolar;
use cbma_rx::decoder::DecoderKind;
use cbma_rx::user_detect::UserDetector;
use cbma_rx::ReceiverConfig;
use cbma_tag::encoder::spread;
use cbma_tag::frame::preamble_pattern;
use cbma_tag::modulator::ook_envelope;
use cbma_tag::phy::PhyProfile;
use cbma_types::units::Hertz;
use cbma_types::Iq;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A profile with `spc` samples per chip and the given preamble length.
fn phy(spc: usize, preamble_bits: usize) -> PhyProfile {
    PhyProfile {
        chip_rate: Hertz::from_mhz(1.0),
        sample_rate: Hertz::from_mhz(spc as f64),
        preamble_bits,
    }
}

/// The search window `Receiver` hands the detector: the spread preamble
/// plus the default back and ahead allowances, the back one widened by
/// the code set's longest leading run of `0` chips.
fn receiver_window_len(codes: &[PnCode], spc: usize, reference_len: usize) -> usize {
    let config = ReceiverConfig::default();
    let leading_silence = codes
        .iter()
        .map(|c| c.bits().iter().take_while(|&b| b == 0).count())
        .max()
        .unwrap_or(0);
    (config.search_back_chips + leading_silence + config.search_ahead_chips) * spc + reference_len
}

/// The detector's decision statistic at one lag, computed directly:
/// |Σ s·r| / √(Σ|s|² · Σr²) for the coherent receiver, and the same over
/// the mean-removed magnitudes |s| − mean for the envelope receiver.
fn direct_correlation(segment: &[Iq], reference: &[f64], kind: DecoderKind) -> f64 {
    let centered: Vec<Iq>;
    let input = match kind {
        DecoderKind::Coherent => segment,
        DecoderKind::Envelope => {
            let mean = segment.iter().map(|s| s.abs()).sum::<f64>() / segment.len() as f64;
            centered = segment
                .iter()
                .map(|s| Iq::new(s.abs() - mean, 0.0))
                .collect();
            &centered
        }
    };
    let energy: f64 = input.iter().map(|s| s.power()).sum();
    let ref_energy: f64 = reference.iter().map(|r| r * r).sum();
    correlate_iq_bipolar(input, reference).abs() / (energy * ref_energy).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One user at a random lag, phase and amplitude over a noise floor,
    /// in the receiver-sized window of the Fig. 9(a) code set at 1, 2
    /// and 8 samples per chip: its start is among its code's candidates,
    /// and its correlation is the direct one at that lag within 1e-9.
    #[test]
    fn user_in_a_receiver_window_has_the_direct_correlation(
        seed in 0u64..1 << 48,
        shape in 0usize..3,
        coherent in any::<bool>(),
    ) {
        let (spc, lags) = [(1, 14), (2, 27), (8, 105)][shape];
        let p = phy(spc, PhyProfile::paper_default().preamble_bits);
        let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
        let kind = if coherent { DecoderKind::Coherent } else { DecoderKind::Envelope };
        let threshold = ReceiverConfig::default().user_threshold;
        let det = UserDetector::with_kind(&codes, &p, threshold, kind);
        let reference_len = det.reference_len();
        let wlen = receiver_window_len(&codes, spc, reference_len);
        prop_assert_eq!(wlen - reference_len + 1, lags);

        let mut rng = StdRng::seed_from_u64(seed);
        let code = rng.gen_range(0..codes.len());
        let at = rng.gen_range(0..lags);
        let gain = Iq::from_polar(
            rng.gen_range(0.2..1.5),
            rng.gen_range(0.0..std::f64::consts::TAU),
        );
        let mut bits = preamble_pattern(p.preamble_bits);
        for _ in 0..4 {
            bits.push(rng.gen_range(0..2u8));
        }
        let envelope = ook_envelope(&spread(&bits, &codes[code]), spc);
        let mut window: Vec<Iq> = (0..wlen)
            .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.02))
            .collect();
        for (s, &e) in window[at..].iter_mut().zip(&envelope) {
            *s += gain.scale(e);
        }

        let origin = 13;
        let candidates = det.detect_candidates(&window, origin, 8);
        let user = candidates[code].iter().find(|u| u.start == origin + at);
        prop_assert!(user.is_some(), "start {} not among {:?}", origin + at, candidates[code]);

        let preamble = ook_envelope(&spread(&preamble_pattern(p.preamble_bits), &codes[code]), spc);
        let reference: Vec<f64> = preamble.iter().map(|&e| 2.0 * e - 1.0).collect();
        let direct = direct_correlation(&window[at..at + reference_len], &reference, kind);
        let found = user.unwrap().correlation;
        prop_assert!((found - direct).abs() < 1e-9, "detector {} vs direct {}", found, direct);
    }
}

/// Regression: an all-zero window has zero segment energy at every lag;
/// the denominator guard must yield a clean "no candidates" instead of
/// NaN correlations, for both decision statistics.
#[test]
fn all_zero_window_yields_no_candidates() {
    let p = phy(4, 2);
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
        let det = UserDetector::with_kind(&codes, &p, 0.2, kind);
        let window = vec![Iq::ZERO; det.reference_len() + 200];
        let out = det.detect_candidates(&window, 0, 4);
        assert_eq!(out.len(), 3);
        assert!(
            out.iter().all(Vec::is_empty),
            "{kind:?} produced candidates on silence"
        );
    }
}

/// Regression: a window shorter than the reference reports one empty
/// candidate list per code.
#[test]
fn window_shorter_than_reference_is_empty() {
    let p = phy(8, 4);
    let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
    let det = UserDetector::new(&codes, &p, 0.3);
    let window = vec![Iq::ONE; det.reference_len() - 1];
    let out = det.detect_candidates(&window, 0, 2);
    assert_eq!(out.len(), 2);
    assert!(out.iter().all(Vec::is_empty));
}

/// A 31-chip Gold(5) code and a 63-chip Gold(6) code have spread
/// preambles of different lengths, which one shared-FFT engine cannot
/// hold: the detector rejects the pair at construction.
#[test]
#[should_panic(expected = "share one length")]
fn codes_of_different_lengths_are_rejected() {
    let codes: Vec<PnCode> = [5, 6]
        .into_iter()
        .map(|degree| GoldFamily::new(degree).unwrap().codes(1).unwrap().remove(0))
        .collect();
    assert_eq!((codes[0].len(), codes[1].len()), (31, 63));
    UserDetector::new(&codes, &PhyProfile::paper_default(), 0.35);
}
