//! Equivalence of the detector's `Auto` path and its `Direct` oracle.
//!
//! The shared-FFT batch engine that `Auto` runs must be a pure
//! optimization: across random PHY profiles, code counts, window contents
//! and window lengths (including windows shorter than the reference),
//! `Auto` must report the same candidates as the O(lags × ref_len)
//! `Direct` path — identical code indices and start offsets, correlations
//! within 1e-9, channel gains within 1e-9. Mixed-length code sets (no
//! shared batch engine) are covered too, down to a full
//! `Receiver::receive` of one such pair.

use cbma_codes::{CodeFamily, GoldFamily, PnCode};
use cbma_rx::decoder::DecoderKind;
use cbma_rx::user_detect::{CorrelationPath, DetectedUser, UserDetector};
use cbma_rx::{Receiver, ReceiverConfig};
use cbma_tag::encoder::spread;
use cbma_tag::frame::preamble_pattern;
use cbma_tag::modulator::ook_envelope;
use cbma_tag::phy::PhyProfile;
use cbma_tag::Tag;
use cbma_types::geometry::Point;
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

/// The preamble-led transmit envelope of one code, scaled by a complex
/// gain — what the detector's reference is built to match.
fn user_signal(code: &PnCode, p: &PhyProfile, gain: Iq) -> Vec<Iq> {
    let bits = preamble_pattern(p.preamble_bits);
    let env = ook_envelope(&spread(&bits, code), p.samples_per_chip());
    env.iter().map(|&e| gain.scale(e)).collect()
}

/// Asserts the two nested candidate lists are the same detections.
fn assert_same(
    a: &[Vec<DetectedUser>],
    b: &[Vec<DetectedUser>],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: code-list lengths differ", label);
    for (ci, (ca, cb)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            ca.len(),
            cb.len(),
            "{}: code {} candidate counts {} vs {}",
            label,
            ci,
            ca.len(),
            cb.len()
        );
        for (ua, ub) in ca.iter().zip(cb) {
            prop_assert_eq!(ua.code_index, ub.code_index, "{}: code index", label);
            prop_assert_eq!(ua.start, ub.start, "{}: start offset (code {})", label, ci);
            prop_assert!(
                (ua.correlation - ub.correlation).abs() < 1e-9,
                "{}: code {} corr {} vs {}",
                label,
                ci,
                ua.correlation,
                ub.correlation
            );
            prop_assert!(
                (ua.channel_gain - ub.channel_gain).abs() < 1e-9,
                "{}: code {} gain {} vs {}",
                label,
                ci,
                ua.channel_gain,
                ub.channel_gain
            );
        }
    }
    Ok(())
}

/// A noise-floor window of length `wlen` with up to two users embedded at
/// random offsets, phases and amplitudes.
fn random_window(rng: &mut StdRng, codes: &[PnCode], p: &PhyProfile, wlen: usize) -> Vec<Iq> {
    // Noise floor breaks ties between near-equal sidelobe peaks so both
    // paths rank peaks identically despite ~1e-12 FFT rounding.
    let mut window: Vec<Iq> = (0..wlen)
        .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.02))
        .collect();
    for _ in 0..rng.gen_range(0usize..3) {
        let code = &codes[rng.gen_range(0..codes.len())];
        let gain = Iq::from_polar(
            rng.gen_range(0.2..1.5),
            rng.gen_range(0.0..std::f64::consts::TAU),
        );
        let sig = user_signal(code, p, gain);
        if wlen > 8 {
            let at = rng.gen_range(0..wlen - 8);
            for (i, s) in sig.into_iter().enumerate() {
                if at + i < wlen {
                    window[at + i] += s;
                }
            }
        }
    }
    window
}

/// Interleaved Gold(5) 31-chip and Gold(6) 63-chip codes: a code set
/// whose spread preambles do not share one length.
fn mixed_length_codes(per_family: usize) -> Vec<PnCode> {
    let short = GoldFamily::new(5).unwrap().codes(per_family).unwrap();
    let long = GoldFamily::new(6).unwrap().codes(per_family).unwrap();
    short
        .into_iter()
        .zip(long)
        .flat_map(|(s, l)| [s, l])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Direct and Auto agree on random mixtures of users and noise
    /// across random PHY profiles and window lengths — the window is
    /// sometimes shorter than the reference (every code must then report
    /// no candidates on both paths).
    #[test]
    fn auto_and_direct_paths_detect_identically(
        seed in 0u64..1 << 48,
        num_codes in 1usize..=6,
        spc in 1usize..=8,
        preamble_bits in 1usize..=4,
        coherent in 0u8..2,
        slack in 0isize..900,
    ) {
        let p = phy(spc, preamble_bits);
        let codes = GoldFamily::new(5).unwrap().codes(num_codes).unwrap();
        let kind = if coherent == 0 { DecoderKind::Coherent } else { DecoderKind::Envelope };
        let det = UserDetector::with_kind(&codes, &p, 0.2, kind);
        let ref_len = det.reference_len(0);

        let mut rng = StdRng::seed_from_u64(seed);
        // Window length from just below the reference (empty results) to
        // well past it (hundreds of candidate lags, exercising several
        // overlap-save blocks and the Auto crossover on both sides).
        let wlen = (ref_len as isize + slack - 40).max(1) as usize;
        let window = random_window(&mut rng, &codes, &p, wlen);

        let direct = det.detect_candidates_with(&window, 13, 4, CorrelationPath::Direct);
        let auto = det.detect_candidates_with(&window, 13, 4, CorrelationPath::Auto);
        assert_same(&direct, &auto, "direct vs auto")?;
        if wlen < ref_len {
            prop_assert!(direct.iter().all(Vec::is_empty));
        }
        // The default entry point is the Auto path.
        let default = det.detect_candidates(&window, 13, 4);
        assert_same(&auto, &default, "auto vs default")?;
    }

    /// Mixed-length code sets have no shared batch engine; `Auto` must
    /// still match the `Direct` oracle for every code, on both sides of
    /// the longest reference.
    #[test]
    fn mixed_length_code_sets_detect_identically(
        seed in 0u64..1 << 48,
        per_family in 1usize..=3,
        spc in 1usize..=4,
        preamble_bits in 1usize..=3,
        coherent in 0u8..2,
        slack in 0isize..600,
    ) {
        let p = phy(spc, preamble_bits);
        let codes = mixed_length_codes(per_family);
        let kind = if coherent == 0 { DecoderKind::Coherent } else { DecoderKind::Envelope };
        let det = UserDetector::with_kind(&codes, &p, 0.2, kind);
        let short_ref = det.reference_len(0);
        let long_ref = det.reference_len(1);
        prop_assert!(short_ref < long_ref);

        let mut rng = StdRng::seed_from_u64(seed);
        // From below the short reference to well past the long one.
        let wlen = (short_ref as isize + slack - 20).max(1) as usize;
        let window = random_window(&mut rng, &codes, &p, wlen);

        let direct = det.detect_candidates_with(&window, 13, 4, CorrelationPath::Direct);
        let auto = det.detect_candidates_with(&window, 13, 4, CorrelationPath::Auto);
        assert_same(&direct, &auto, "mixed: direct vs auto")?;
        for (code, candidates) in direct.iter().enumerate() {
            if det.reference_len(code) > wlen {
                prop_assert!(candidates.is_empty(), "code {} longer than the window", code);
            }
        }
    }
}

/// Regression: an all-zero window has zero segment energy at every lag;
/// the denominator guard must yield a clean "no candidates" on both
/// backends instead of NaN correlations.
#[test]
fn all_zero_window_yields_no_candidates_on_both_paths() {
    let p = phy(4, 2);
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
        let det = UserDetector::with_kind(&codes, &p, 0.2, kind);
        let window = vec![Iq::ZERO; det.reference_len(0) + 200];
        for path in [CorrelationPath::Direct, CorrelationPath::Auto] {
            let out = det.detect_candidates_with(&window, 0, 4, path);
            assert_eq!(out.len(), 3);
            assert!(
                out.iter().all(Vec::is_empty),
                "{kind:?}/{path:?} produced candidates on silence"
            );
        }
    }
}

/// Regression: a window shorter than the reference reports one empty
/// candidate list per code on every backend.
#[test]
fn window_shorter_than_reference_is_empty_on_both_paths() {
    let p = phy(8, 4);
    let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
    let det = UserDetector::new(&codes, &p, 0.3);
    let window = vec![Iq::ONE; det.reference_len(0) - 1];
    for path in [CorrelationPath::Direct, CorrelationPath::Auto] {
        let out = det.detect_candidates_with(&window, 0, 2, path);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(Vec::is_empty));
    }
}

/// A collision of a 31-chip and a 63-chip user: the receiver detects and
/// decodes both through the mixed-length (direct) detection path.
#[test]
fn receiver_decodes_both_users_of_a_mixed_length_pair() {
    let phy = PhyProfile::paper_default();
    let codes = mixed_length_codes(1);
    assert_eq!((codes[0].len(), codes[1].len()), (31, 63));
    let lead = 400;
    let mut capture: Vec<Iq> = Vec::new();
    for (i, (delay, phase)) in [(0usize, 0.4), (5, 1.9)].into_iter().enumerate() {
        let mut tag = Tag::new(i as u32, Point::ORIGIN, codes[i].clone());
        let env = tag
            .transmit(format!("mixed tag {i}").into_bytes(), &phy)
            .unwrap();
        let gain = Iq::from_polar(0.01, phase);
        let end = lead + delay + env.len() + 64;
        if capture.len() < end {
            capture.resize(end, Iq::ZERO);
        }
        for (k, &e) in env.iter().enumerate() {
            capture[lead + delay + k] += gain.scale(e);
        }
    }
    let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
    let report = rx.receive(&capture);
    assert!(report.frame_detected);
    for id in 0..2 {
        assert!(report.ack.acknowledges(id), "user {id} missing: {report:?}");
    }
    let mut payloads: Vec<(usize, Vec<u8>)> = report
        .frames()
        .into_iter()
        .map(|(id, frame)| (id, frame.payload().to_vec()))
        .collect();
    payloads.sort();
    assert_eq!(
        payloads,
        vec![(0, b"mixed tag 0".to_vec()), (1, b"mixed tag 1".to_vec())]
    );
}
