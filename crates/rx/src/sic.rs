//! Successive interference cancellation (SIC) — a reproduction extension.
//!
//! The paper resolves the near-far problem at the *transmitter* (tag
//! impedance power control, Algorithm 1). The classic receiver-side
//! complement is SIC: once a strong user's frame is decoded, its waveform
//! can be reconstructed and subtracted, after which previously-buried weak
//! users become detectable. This module implements one cancellation pass,
//! one bit window at a time:
//!
//! 1. take the window's OOK envelope, the code word (bit 1) or its
//!    complement (bit 0) at the receiver sample rate, as the tag's
//!    transmit path radiates it; both are built once per code
//!    ([`CodeWords`]),
//! 2. estimate the complex channel over the window by least squares
//!    against the received samples (piecewise estimation tracks the
//!    inter-tag subcarrier beat that a single gain could not),
//! 3. subtract the scaled word from the buffer.
//!
//! `ReceiverConfig::sic_passes` enables it; the `ablation_sic` campaign
//! quantifies the benefit.

use cbma_codes::PnCode;
use cbma_dsp::simd;
use cbma_tag::modulator::code_words;
use cbma_types::{Bits, Iq};

/// One code's two OOK code-word windows at the receiver sample rate, the
/// word a 1 bit radiates and its complement for a 0 ([`code_words`]),
/// with each window's Σe². A frame's envelope is one of the two per bit,
/// so SIC cancels a decoded user from its bits without rebuilding the
/// envelope.
#[derive(Debug)]
pub struct CodeWords {
    /// The word for a 1 bit, then its complement, `window` samples each.
    words: Vec<f64>,
    /// Σe² of the word for a 1 bit, then of its complement.
    energy: [f64; 2],
}

impl CodeWords {
    /// Builds `code`'s two windows at `samples_per_chip` samples per chip.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_chip` is zero.
    pub fn new(code: &PnCode, samples_per_chip: usize) -> CodeWords {
        let words = code_words(code, samples_per_chip);
        let (one, zero) = words.split_at(words.len() / 2);
        let energy = [window_energy(one), window_energy(zero)];
        CodeWords { words, energy }
    }

    /// Samples per bit window.
    fn window(&self) -> usize {
        self.words.len() / 2
    }

    /// Subtracts a decoded user's contribution from `samples` in place:
    /// `bits` are its frame as sent (preamble first, one window each) and
    /// `start` is the sample its first window begins at.
    ///
    /// Each window is fit by complex least squares, ĝ = ⟨s, e⟩ / ⟨e, e⟩,
    /// which absorbs the per-window phase drift of the tag's subcarrier
    /// beat. A window whose word carries no energy (all-zero chips) is
    /// left untouched. A window the capture cuts short is fit over the
    /// samples it has, with ⟨e, e⟩ summed over them; a full window reads
    /// its word's precomputed Σe². Both sums are exact counts of on
    /// samples, so a window's fit does not depend on where ⟨e, e⟩ came
    /// from.
    ///
    /// Returns the mean cancelled power per affected sample (diagnostic).
    pub fn cancel(&self, samples: &mut [Iq], start: usize, bits: &Bits) -> f64 {
        let window = self.window();
        let (one, zero) = self.words.split_at(window);
        let mut cancelled_power = 0.0;
        let mut affected = 0usize;
        for (k, bit) in bits.iter().enumerate() {
            let lo = start + k * window;
            if lo >= samples.len() {
                break;
            }
            let hi = (lo + window).min(samples.len());
            let (word, word_energy) = if bit == 1 {
                (one, self.energy[0])
            } else {
                (zero, self.energy[1])
            };
            let env = &word[..hi - lo];
            let energy = if env.len() == window {
                word_energy
            } else {
                window_energy(env)
            };
            if energy > 0.0 {
                let seg = &mut samples[lo..hi];
                let gain = simd::dot_iq_real(seg, env) / energy;
                // Σ|gain·e|² = |gain|²·Σe², so the cancelled power needs no
                // per-sample accumulation.
                cancelled_power += gain.power() * energy;
                simd::subtract_scaled_real(seg, env, gain);
                affected += env.len();
            }
        }
        if affected == 0 {
            0.0
        } else {
            cancelled_power / affected as f64
        }
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
    use cbma_tag::frame::{Frame, MAX_PAYLOAD};
    use cbma_tag::modulator::spread_envelope_into;
    use cbma_tag::phy::PhyProfile;
    use cbma_types::geometry::Point;
    use proptest::prelude::{any, TestCaseResult};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn phy() -> PhyProfile {
        PhyProfile::paper_default()
    }

    /// The oracle's reconstruction: a decoded user's whole OOK envelope
    /// at the receiver sample rate (frame → bits → one code word or its
    /// complement per bit), as the tag transmits it.
    fn reconstruct_envelope(frame: &Frame, code: &PnCode, phy: &PhyProfile) -> Vec<f64> {
        let mut envelope = Vec::new();
        spread_envelope_into(
            &frame.to_bits(phy.preamble_bits),
            code,
            phy.samples_per_chip(),
            &mut envelope,
        );
        envelope
    }

    /// The oracle's cancellation: `envelope` fit and subtracted one
    /// `window` at a time from `start`, ⟨e, e⟩ summed per window. Returns
    /// the mean cancelled power per affected sample.
    fn cancel_user(samples: &mut [Iq], start: usize, envelope: &[f64], window: usize) -> f64 {
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
            let energy = window_energy(seg_env);
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

    /// Code `index` of the 2NC family with `chips`-chip codes: 16 chips
    /// serve up to 8 users, 32 chips up to 16.
    fn two_nc(chips: usize, index: usize) -> PnCode {
        let users = if chips == 16 { 4 } else { 10 };
        let code = TwoNcFamily::new(users).unwrap().code(index).unwrap();
        assert_eq!(code.len(), chips);
        code
    }

    fn words(code: &PnCode) -> CodeWords {
        CodeWords::new(code, phy().samples_per_chip())
    }

    fn cancel(frame: &Frame, code: &PnCode, samples: &mut [Iq], start: usize) -> f64 {
        words(code).cancel(samples, start, &frame.to_bits(phy().preamble_bits))
    }

    fn tx(frame: &Frame, code: &PnCode, gain: Iq, lead: usize) -> Vec<Iq> {
        let env = reconstruct_envelope(frame, code, &phy());
        let mut buf = vec![Iq::ZERO; lead];
        buf.extend(env.iter().map(|&e| gain.scale(e)));
        buf.extend(vec![Iq::ZERO; 32]);
        buf
    }

    fn random_capture(len: usize, seed: u64) -> Vec<Iq> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    /// Cancels `frame`, sent on `code` from `start`, out of `capture` with
    /// the oracle's rebuilt envelope and with the code words, and requires
    /// the same residual and cancelled power, bit for bit.
    fn cancel_both_ways(
        code: &PnCode,
        frame: &Frame,
        start: usize,
        capture: &[Iq],
    ) -> TestCaseResult {
        let window = code.len() * phy().samples_per_chip();
        let mut oracle = capture.to_vec();
        let envelope = reconstruct_envelope(frame, code, &phy());
        let expected = cancel_user(&mut oracle, start, &envelope, window);
        let mut by_word = capture.to_vec();
        let got = cancel(frame, code, &mut by_word, start);
        proptest::prop_assert_eq!(got.to_bits(), expected.to_bits());
        for (k, (x, y)) in by_word.iter().zip(&oracle).enumerate() {
            proptest::prop_assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits()),
                "sample {} of {}, start {}",
                k,
                capture.len(),
                start
            );
        }
        Ok(())
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Cancelling code word by code word leaves the oracle's residual
        /// and cancelled power bit for bit, on random residuals, for both
        /// code lengths the 2NC families use (16 and 32 chips) and payloads
        /// of 0 to 126 bytes, in captures that end anywhere from before the
        /// frame starts to past its end.
        #[test]
        fn code_words_cancel_as_the_rebuilt_envelope(
            long_code in 0usize..2,
            index in 0usize..4,
            payload in proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
            start in 0usize..3_000,
            kept in 0.0f64..1.2,
            seed in any::<u64>(),
        ) {
            let code = two_nc(if long_code == 1 { 32 } else { 16 }, index);
            let frame = Frame::new(payload).unwrap();
            let sent = start
                + frame.to_bits(phy().preamble_bits).len() * code.len() * phy().samples_per_chip();
            let capture = random_capture((sent as f64 * kept) as usize, seed);
            cancel_both_ways(&code, &frame, start, &capture)?;
        }
    }

    #[test]
    fn code_words_cancel_as_the_rebuilt_envelope_at_the_capture_edges() {
        let start = 700;
        for chips in [16, 32] {
            let code = two_nc(chips, 1);
            let window = chips * phy().samples_per_chip();
            for payload_len in [0, 1, 8, MAX_PAYLOAD] {
                let frame = Frame::new(vec![0x5A; payload_len]).unwrap();
                let sent = start + frame.to_bits(phy().preamble_bits).len() * window;
                // The whole frame and a tail; a capture that ends inside
                // the last window, one that ends on a window boundary, one
                // that ends at the start, and one that ends before it.
                for len in [
                    sent + 300,
                    sent - window / 3,
                    sent - window,
                    start,
                    start / 2,
                ] {
                    let capture = random_capture(len, (chips * 1000 + len) as u64);
                    cancel_both_ways(&code, &frame, start, &capture).unwrap();
                }
            }
        }
    }

    #[test]
    fn cancelling_a_clean_user_leaves_near_silence() {
        let code = TwoNcFamily::new(4).unwrap().code(0).unwrap();
        let frame = Frame::new(vec![7; 6]).unwrap();
        let gain = Iq::from_polar(0.02, 1.2);
        let mut buf = tx(&frame, &code, gain, 40);
        cancel(&frame, &code, &mut buf, 40);
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
        cancel(&frame, &code, &mut buf, 0);
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
        cancel(&strong, &strong_code, &mut buf, 0);
        // After cancellation, the weak user dominates the residual.
        let weak_power = 0.001f64 * 0.001;
        let residual: f64 = buf.iter().map(|s| s.power()).sum::<f64>() / weak_env.len() as f64;
        assert!(
            residual < weak_power * 10.0,
            "residual {residual:e} still dominated by the strong user"
        );
    }

    #[test]
    fn out_of_range_start_is_harmless() {
        let code = TwoNcFamily::new(4).unwrap().code(0).unwrap();
        let frame = Frame::new(vec![3; 2]).unwrap();
        let mut buf = vec![Iq::ONE; 8];
        assert_eq!(cancel(&frame, &code, &mut buf, 100), 0.0);
        assert!(buf.iter().all(|s| (*s - Iq::ONE).abs() < 1e-12));
    }
}
