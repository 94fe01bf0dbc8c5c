//! Successive interference cancellation (SIC) — a reproduction extension.
//!
//! The paper resolves the near-far problem at the *transmitter* (tag
//! impedance power control, Algorithm 1). The classic receiver-side
//! complement is SIC: once a strong user's frame is decoded, its waveform
//! can be reconstructed and subtracted, after which previously-buried weak
//! users become detectable. This module implements one cancellation pass:
//!
//! 1. rebuild the decoded frame's OOK envelope from the code-word
//!    waveforms, as the tag's transmit path does,
//! 2. estimate the complex channel *per bit window* by least squares
//!    against the received samples (piecewise estimation tracks the
//!    inter-tag subcarrier beat that a single gain could not),
//! 3. subtract the reconstruction from the buffer.
//!
//! `ReceiverConfig::sic_passes` enables it; the `ablation_sic` bench
//! quantifies the benefit.

use cbma_codes::PnCode;
use cbma_dsp::simd;
use cbma_tag::frame::Frame;
use cbma_tag::modulator::spread_envelope_into;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

/// Reconstructs a decoded user's OOK envelope at the receiver sample
/// rate: frame → bits → one code word or its complement per bit, the
/// same [`spread_envelope_into`] the tag transmits.
pub fn reconstruct_envelope(frame: &Frame, code: &PnCode, phy: &PhyProfile) -> Vec<f64> {
    let mut envelope = Vec::new();
    reconstruct_envelope_into(frame, code, phy, &mut envelope);
    envelope
}

/// [`reconstruct_envelope`] into a caller-owned buffer, cleared and
/// refilled with its capacity kept: the receiver rebuilds every cancelled
/// user's envelope in one arena buffer.
pub fn reconstruct_envelope_into(
    frame: &Frame,
    code: &PnCode,
    phy: &PhyProfile,
    envelope: &mut Vec<f64>,
) {
    spread_envelope_into(
        &frame.to_bits(phy.preamble_bits),
        code,
        phy.samples_per_chip(),
        envelope,
    );
}

/// Subtracts a decoded user's contribution from `samples` in place.
///
/// The reconstruction is fit window-by-window (one code word per window)
/// by complex least squares: ĝ = ⟨s, e⟩ / ⟨e, e⟩ over the window, which
/// absorbs the per-window phase drift of the tag's subcarrier beat.
/// Windows where the envelope carries no energy (all-zero chips) are left
/// untouched. ⟨e, e⟩ is the window's own Σe², summed in four lanes: for
/// the 0/1 envelopes [`reconstruct_envelope`] builds that is the exact
/// count of on samples, and for any other envelope it is that direct sum,
/// rounded as its lanes add up.
///
/// Returns the mean cancelled power per affected sample (diagnostic).
pub fn cancel_user(samples: &mut [Iq], start: usize, envelope: &[f64], window: usize) -> f64 {
    assert!(window > 0, "window must be non-zero");
    let mut cancelled_power = 0.0;
    let mut affected = 0usize;
    let mut pos = 0usize;
    while pos < envelope.len() {
        let end = (pos + window).min(envelope.len());
        let s_lo = start + pos;
        if s_lo >= samples.len() {
            break;
        }
        let s_hi = (start + end).min(samples.len());
        let seg_env = &envelope[pos..pos + (s_hi - s_lo)];
        let seg = &mut samples[s_lo..s_hi];

        let energy = window_energy(seg_env);
        if energy > 0.0 {
            let gain = simd::dot_iq_real(seg, seg_env) / energy;
            // Σ|gain·e|² = |gain|²·Σe², so the cancelled power needs no
            // per-sample accumulation.
            cancelled_power += gain.power() * energy;
            simd::subtract_scaled_real(seg, seg_env, gain);
            affected += seg_env.len();
        }
        pos = end;
    }
    if affected == 0 {
        0.0
    } else {
        cancelled_power / affected as f64
    }
}

/// Σe² over one window, summed in four interleaved lanes so the adds do
/// not wait on each other.
fn window_energy(envelope: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut quads = envelope.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &e) in lanes.iter_mut().zip(quad) {
            *lane += e * e;
        }
    }
    let tail: f64 = quads.remainder().iter().map(|e| e * e).sum();
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, TwoNcFamily};
    use cbma_types::geometry::Point;

    fn phy() -> PhyProfile {
        PhyProfile::paper_default()
    }

    fn tx(frame: &Frame, code: &PnCode, gain: Iq, lead: usize) -> Vec<Iq> {
        let env = reconstruct_envelope(frame, code, &phy());
        let mut buf = vec![Iq::ZERO; lead];
        buf.extend(env.iter().map(|&e| gain.scale(e)));
        buf.extend(vec![Iq::ZERO; 32]);
        buf
    }

    #[test]
    fn reconstruction_matches_tag_transmit_path() {
        let code = TwoNcFamily::new(4).unwrap().code(1).unwrap();
        let frame = Frame::new(b"reconstruct me".to_vec()).unwrap();
        let mut tag = cbma_tag::Tag::new(1, Point::ORIGIN, code.clone());
        let via_tag = tag.transmit(b"reconstruct me".to_vec(), &phy()).unwrap();
        let via_sic = reconstruct_envelope(&frame, &code, &phy());
        assert_eq!(via_tag, via_sic);
    }

    #[test]
    fn cancelling_a_clean_user_leaves_near_silence() {
        let code = TwoNcFamily::new(4).unwrap().code(0).unwrap();
        let frame = Frame::new(vec![7; 6]).unwrap();
        let gain = Iq::from_polar(0.02, 1.2);
        let mut buf = tx(&frame, &code, gain, 40);
        let env = reconstruct_envelope(&frame, &code, &phy());
        let window = code.len() * phy().samples_per_chip();
        cancel_user(&mut buf, 40, &env, window);
        let residual: f64 = buf.iter().map(|s| s.power()).sum();
        assert!(
            residual < 1e-12,
            "residual power {residual:e} after perfect cancellation"
        );
    }

    #[test]
    fn cancellation_tracks_a_phase_ramp() {
        // A beating tag (phase rotating across the frame) must still
        // cancel well thanks to per-window least squares.
        let code = TwoNcFamily::new(4).unwrap().code(2).unwrap();
        let frame = Frame::new(vec![0xAB; 8]).unwrap();
        let env = reconstruct_envelope(&frame, &code, &phy());
        let beat = 2e-4; // rad/sample
        let mut buf: Vec<Iq> = env
            .iter()
            .enumerate()
            .map(|(k, &e)| Iq::from_polar(0.02 * e, 0.5 + beat * k as f64))
            .collect();
        let before: f64 = buf.iter().map(|s| s.power()).sum();
        let window = code.len() * phy().samples_per_chip();
        cancel_user(&mut buf, 0, &env, window);
        let after: f64 = buf.iter().map(|s| s.power()).sum();
        assert!(
            after < before * 0.02,
            "cancellation removed only {:.1} % of the power",
            (1.0 - after / before) * 100.0
        );
    }

    #[test]
    fn cancellation_reveals_a_buried_weak_user() {
        let family = TwoNcFamily::new(4).unwrap();
        let strong_code = family.code(0).unwrap();
        let weak_code = family.code(1).unwrap();
        let strong = Frame::new(vec![1; 8]).unwrap();
        let weak = Frame::new(vec![2; 8]).unwrap();
        let strong_env = reconstruct_envelope(&strong, &strong_code, &phy());
        let weak_env = reconstruct_envelope(&weak, &weak_code, &phy());
        let n = strong_env.len().max(weak_env.len()) + 64;
        let mut buf = vec![Iq::ZERO; n];
        for (i, &e) in strong_env.iter().enumerate() {
            buf[i] += Iq::from_polar(0.05 * e, 0.3);
        }
        for (i, &e) in weak_env.iter().enumerate() {
            buf[i] += Iq::from_polar(0.001 * e, 2.0); // 34 dB below
        }
        let window = strong_code.len() * phy().samples_per_chip();
        cancel_user(&mut buf, 0, &strong_env, window);
        // After cancellation, the weak user dominates the residual.
        let weak_power = 0.001f64 * 0.001;
        let residual: f64 = buf.iter().map(|s| s.power()).sum::<f64>() / weak_env.len() as f64;
        assert!(
            residual < weak_power * 10.0,
            "residual {residual:e} still dominated by the strong user"
        );
    }

    /// `cancel_user` as it was with a prefix sum of e² over the whole
    /// envelope, one difference of two prefix entries per window.
    fn cancel_user_by_prefix(
        samples: &mut [Iq],
        start: usize,
        envelope: &[f64],
        window: usize,
    ) -> f64 {
        let mut prefix = vec![0.0];
        let mut sq = 0.0;
        for &v in envelope {
            sq += v * v;
            prefix.push(sq);
        }
        let (mut cancelled_power, mut affected, mut pos) = (0.0, 0usize, 0usize);
        while pos < envelope.len() {
            let end = (pos + window).min(envelope.len());
            let s_lo = start + pos;
            if s_lo >= samples.len() {
                break;
            }
            let s_hi = (start + end).min(samples.len());
            let seg_env = &envelope[pos..pos + (s_hi - s_lo)];
            let seg = &mut samples[s_lo..s_hi];
            let energy = prefix[pos + seg_env.len()] - prefix[pos];
            if energy > 0.0 {
                let gain = simd::dot_iq_real(seg, seg_env) / energy;
                cancelled_power += gain.power() * energy;
                simd::subtract_scaled_real(seg, seg_env, gain);
                affected += seg_env.len();
            }
            pos = end;
        }
        if affected == 0 {
            0.0
        } else {
            cancelled_power / affected as f64
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On 0/1 envelopes every window energy is an exact integer, so
        /// summing each window directly leaves the residual of the prefix
        /// sums bit for bit, including windows cut short by the capture.
        #[test]
        fn window_sums_leave_the_prefix_sum_residual(
            chips in proptest::collection::vec(0u8..2, 1..600),
            window in 1usize..300,
            start in 0usize..64,
            extra in 0usize..700,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let envelope: Vec<f64> = chips.iter().map(|&c| f64::from(c)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let capture: Vec<Iq> = (0..start + extra)
                .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let mut direct = capture.clone();
            let mut prefix = capture;
            let a = cancel_user(&mut direct, start, &envelope, window);
            let b = cancel_user_by_prefix(&mut prefix, start, &envelope, window);
            proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            for (x, y) in direct.iter().zip(&prefix) {
                proptest::prop_assert_eq!((x.re.to_bits(), x.im.to_bits()), (y.re.to_bits(), y.im.to_bits()));
            }
        }
    }

    #[test]
    fn out_of_range_start_is_harmless() {
        let mut buf = vec![Iq::ONE; 8];
        let cancelled = cancel_user(&mut buf, 100, &[1.0; 16], 4);
        assert_eq!(cancelled, 0.0);
        assert!(buf.iter().all(|s| (*s - Iq::ONE).abs() < 1e-12));
    }
}
