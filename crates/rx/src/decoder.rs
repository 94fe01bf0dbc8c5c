//! Correlation decoding (§III-B).
//!
//! For each detected user the decoder walks the frame bit by bit. Every
//! bit occupies one code word of chips (`spreading factor × samples/chip`
//! samples); correlating the window against the user's bipolar code gives
//! a complex statistic whose sign — after derotating by the channel-gain
//! estimate ĝ from the preamble — separates the code word (bit 1) from
//! its complement (bit 0). This is the paper's rule "if the correlation
//! with the PN sequence representing '1' is higher than that with the PN
//! sequence representing '0', the chip is decoded to '1'": with complement
//! signalling those two correlations are negatives of each other, so the
//! comparison is exactly the sign test.
//!
//! The decoder first recovers the length byte, then decodes only the bits
//! the length field implies into the same buffer, and finally parses the
//! frame once, which checks the preamble and the CRC.

use cbma_codes::PnCode;
use cbma_dsp::resample::upsample_repeat;
use cbma_dsp::simd;
use cbma_tag::frame::{Frame, FrameError, MAX_PAYLOAD};
use cbma_tag::phy::PhyProfile;
use cbma_types::{Bits, Iq};

/// Which decision statistic the decoder (and user detector) run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecoderKind {
    /// The paper's receiver (§V-B, Algorithm 1 line 1): compute the
    /// envelope P(t) = √(I² + Q²) first, then correlate the mean-removed
    /// envelope against the code. Needs no channel estimate, but a weak
    /// tag's contribution to the aggregate envelope is scaled by the
    /// (drifting) phase difference to the dominant tag — the near-far
    /// fragility Table II documents. Used by the Table II bench and the
    /// receiver-ablation bench.
    Envelope,
    /// Coherent IQ decoding with a preamble-derived channel estimate and
    /// decision-directed phase tracking — the library's recommended
    /// receiver: flat near-far response and immunity to the inter-tag
    /// subcarrier beat, at the cost of per-user channel estimation.
    #[default]
    Coherent,
}

/// The result of decoding one user's frame.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeOutcome {
    /// Frame recovered and CRC verified.
    Frame(Frame),
    /// Bits were recovered but the frame failed validation.
    Invalid(FrameError),
    /// The buffer ended before the frame did.
    Truncated,
    /// A valid frame the receiver suppressed: its payload is accepted
    /// under a stronger user's code, so it is a cross-code alias.
    Alias,
}

impl DecodeOutcome {
    /// Whether decoding produced a valid frame.
    pub fn is_frame(&self) -> bool {
        matches!(self, DecodeOutcome::Frame(_))
    }

    /// The decoded frame, if any.
    pub fn frame(&self) -> Option<&Frame> {
        match self {
            DecodeOutcome::Frame(f) => Some(f),
            _ => None,
        }
    }
}

/// A per-user correlation decoder.
#[derive(Debug)]
pub struct Decoder {
    /// Bipolar one-word reference at sample rate.
    reference: Vec<f64>,
    /// Σ of `reference`, for the per-bit gain observation.
    ref_sum: f64,
    preamble_bits: usize,
    kind: DecoderKind,
}

impl Decoder {
    /// Creates the default (coherent, phase-tracking) decoder for one
    /// user's code.
    pub fn new(code: &PnCode, phy: &PhyProfile) -> Decoder {
        Decoder::with_kind(code, phy, DecoderKind::Coherent)
    }

    /// Creates a decoder with an explicit decision statistic.
    pub fn with_kind(code: &PnCode, phy: &PhyProfile, kind: DecoderKind) -> Decoder {
        let reference = upsample_repeat(code.bipolar_one(), phy.samples_per_chip());
        Decoder {
            ref_sum: reference.iter().sum(),
            reference,
            preamble_bits: phy.preamble_bits,
            kind,
        }
    }

    /// The decision statistic in use.
    #[inline]
    pub fn kind(&self) -> DecoderKind {
        self.kind
    }

    /// Samples per data bit.
    #[inline]
    pub fn samples_per_bit(&self) -> usize {
        self.reference.len()
    }

    /// Decodes `n_bits` starting at `start`, derotated by `gain`, and
    /// appends them to `bits`. Returns `false`, appending nothing, if the
    /// buffer ends first.
    pub fn decode_bits(
        &self,
        samples: &[Iq],
        start: usize,
        n_bits: usize,
        gain: Iq,
        bits: &mut Bits,
    ) -> bool {
        let w = self.reference.len();
        let needed = start + n_bits * w;
        if needed > samples.len() {
            return false;
        }
        match self.kind {
            DecoderKind::Coherent => {
                // The window correlations do not depend on the tracked
                // gain, so they are computed four windows per kernel call
                // (each bit-identical to its own `dot_iq_real`) before the
                // gain recurrence consumes them in order.
                let mut g = gain;
                let mut corrs = [Iq::ZERO; 4];
                for first in (0..n_bits).step_by(4) {
                    let corrs = &mut corrs[..(n_bits - first).min(4)];
                    let windows = &samples[start + first * w..needed];
                    simd::dot_iq_real_windows(windows, &self.reference, corrs);
                    for &corr in corrs.iter() {
                        let stat = self.track(corr, &mut g);
                        bits.push(u8::from(stat >= 0.0));
                    }
                }
            }
            DecoderKind::Envelope => {
                for k in 0..n_bits {
                    let window = &samples[start + k * w..start + (k + 1) * w];
                    // §V-B: P(t) = √(I² + Q²); correlate the mean-removed
                    // envelope against the bipolar code word.
                    let mean = window.iter().map(|s| s.abs()).sum::<f64>() / w as f64;
                    let statistic: f64 = window
                        .iter()
                        .zip(&self.reference)
                        .map(|(s, &r)| (s.abs() - mean) * r)
                        .sum();
                    bits.push(u8::from(statistic >= 0.0));
                }
            }
        }
        true
    }

    /// The coherent decision statistic of one bit window's correlation
    /// `corr`, derotated by the tracked gain `g`, which the decided bit
    /// then refreshes.
    ///
    /// Decision-directed channel tracking: the tag's residual subcarrier
    /// offset rotates the phase over the frame, so the preamble estimate
    /// alone would go stale; each decided bit refreshes it. α trades
    /// tracking speed against noise.
    fn track(&self, corr: Iq, g: &mut Iq) -> f64 {
        const ALPHA: f64 = 0.45;
        let n_ref = self.reference.len() as f64;
        let stat = (corr * g.conj()).re;
        // Per-bit gain observation: for bit b the expected correlation is
        // g·(±n + Σref)/2, so invert with the decided sign.
        let scale = if stat >= 0.0 {
            (n_ref + self.ref_sum) / 2.0
        } else {
            (self.ref_sum - n_ref) / 2.0
        };
        if scale.abs() > 1e-9 {
            let observed = corr / scale;
            *g = g.scale(1.0 - ALPHA) + observed.scale(ALPHA);
        }
        stat
    }

    /// Decodes a complete frame starting at `start` (the position user
    /// detection aligned to), using the channel estimate `gain`.
    ///
    /// Decodes the header first, reads the length byte, then decodes
    /// exactly the implied number of remaining bits into the same buffer.
    /// Also returns that raw bit stream (preamble + length + whatever body
    /// was recovered) whenever the header decoded — the hook bit-error-rate
    /// instrumentation uses, since a CRC-failed frame still carries
    /// measurable bits. The buffer has room for the longest frame; a
    /// caller that keeps it can shrink it.
    pub fn decode_frame(
        &self,
        samples: &[Iq],
        start: usize,
        gain: Iq,
    ) -> (DecodeOutcome, Option<Bits>) {
        // Header: preamble + 8-bit length field.
        let header_bits = self.preamble_bits + 8;
        let mut bits = Bits::with_capacity(header_bits + MAX_PAYLOAD * 8 + 16);
        if !self.decode_bits(samples, start, header_bits, gain, &mut bits) {
            return (DecodeOutcome::Truncated, None);
        }
        // The length field bounds the tail decode, so it is checked here,
        // before the parser sees the frame.
        let len_byte = bits.as_slice()[self.preamble_bits..]
            .iter()
            .fold(0usize, |acc, &bit| (acc << 1) | usize::from(bit));
        if len_byte > MAX_PAYLOAD {
            return (DecodeOutcome::Invalid(FrameError::LengthField), Some(bits));
        }
        let tail_start = start + header_bits * self.reference.len();
        if !self.decode_bits(samples, tail_start, len_byte * 8 + 16, gain, &mut bits) {
            return (DecodeOutcome::Truncated, Some(bits));
        }
        let outcome = match Frame::from_bits(&bits, self.preamble_bits) {
            Ok(frame) => DecodeOutcome::Frame(frame),
            Err(e) => DecodeOutcome::Invalid(e),
        };
        (outcome, Some(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily, TwoNcFamily};
    use cbma_tag::encoder::spread;
    use cbma_tag::modulator::ook_envelope;

    fn phy() -> PhyProfile {
        PhyProfile::paper_default()
    }

    /// The capture of `bits` spread by `code` at amplitude `gain`, after
    /// `lead` silent samples.
    fn tx_bits(code: &PnCode, bits: &Bits, gain: Iq, lead: usize) -> Vec<Iq> {
        let env = ook_envelope(&spread(bits, code), phy().samples_per_chip());
        let mut buf = vec![Iq::ZERO; lead];
        buf.extend(env.iter().map(|&e| gain.scale(e)));
        buf.extend(vec![Iq::ZERO; 32]);
        buf
    }

    fn tx(code: &PnCode, frame: &Frame, gain: Iq, lead: usize) -> Vec<Iq> {
        tx_bits(code, &frame.to_bits(phy().preamble_bits), gain, lead)
    }

    /// `frame`'s bits with bit `index` flipped.
    fn flipped(frame: &Frame, index: usize) -> Bits {
        let mut raw: Vec<u8> = frame.to_bits(phy().preamble_bits).iter().collect();
        raw[index] ^= 1;
        Bits::from_slice(&raw).unwrap()
    }

    #[test]
    fn clean_single_user_decode() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(b"hello cbma".to_vec()).unwrap();
        let gain = Iq::from_polar(0.01, 0.7);
        let buf = tx(&code, &frame, gain, 50);
        let dec = Decoder::new(&code, &phy());
        let (out, bits) = dec.decode_frame(&buf, 50, gain);
        assert_eq!(out.frame().unwrap(), &frame);
        assert_eq!(bits.unwrap(), frame.to_bits(phy().preamble_bits));
    }

    #[test]
    fn coherent_decode_requires_phase_reference() {
        // With a deliberately wrong (opposite) phase reference every bit
        // inverts: the length byte 1 reads 254, which the decoder rejects
        // before decoding the tail — demonstrating why the coherent
        // decoder needs the channel estimate.
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(b"x".to_vec()).unwrap();
        let gain = Iq::new(0.01, 0.0);
        let buf = tx(&code, &frame, gain, 10);
        let dec = Decoder::with_kind(&code, &phy(), DecoderKind::Coherent);
        let (out, bits) = dec.decode_frame(&buf, 10, -gain);
        assert_eq!(out, DecodeOutcome::Invalid(FrameError::LengthField));
        assert_eq!(bits.unwrap().len(), phy().preamble_bits + 8);
    }

    #[test]
    fn flipped_preamble_bit_is_a_preamble_failure() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(b"preamble".to_vec()).unwrap();
        let gain = Iq::from_polar(0.01, 0.4);
        let sent = flipped(&frame, 1);
        let buf = tx_bits(&code, &sent, gain, 10);
        let (out, bits) = Decoder::new(&code, &phy()).decode_frame(&buf, 10, gain);
        assert_eq!(out, DecodeOutcome::Invalid(FrameError::Preamble));
        assert_eq!(bits.unwrap(), sent);
    }

    #[test]
    fn flipped_payload_bit_is_a_crc_failure() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(b"payload".to_vec()).unwrap();
        let gain = Iq::from_polar(0.01, -0.9);
        let sent = flipped(&frame, phy().preamble_bits + 8 + 3);
        let buf = tx_bits(&code, &sent, gain, 10);
        let (out, bits) = Decoder::new(&code, &phy()).decode_frame(&buf, 10, gain);
        assert_eq!(out, DecodeOutcome::Invalid(FrameError::Crc));
        assert_eq!(bits.unwrap(), sent);
    }

    #[test]
    fn envelope_decode_ignores_phase() {
        // The envelope decoder needs no channel estimate at all: an
        // arbitrary (even wrong) gain argument leaves the decode intact.
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(b"x".to_vec()).unwrap();
        let gain = Iq::from_polar(0.01, 2.1);
        let buf = tx(&code, &frame, gain, 10);
        let dec = Decoder::with_kind(&code, &phy(), DecoderKind::Envelope);
        assert_eq!(dec.kind(), DecoderKind::Envelope);
        let (out, _) = dec.decode_frame(&buf, 10, -gain);
        assert_eq!(out.frame().unwrap(), &frame);
    }

    #[test]
    fn two_user_collision_decodes_both() {
        let family = TwoNcFamily::new(4).unwrap();
        let ca = family.code(0).unwrap();
        let cb = family.code(1).unwrap();
        let fa = Frame::new(b"tag a".to_vec()).unwrap();
        let fb = Frame::new(b"tag b data".to_vec()).unwrap();
        let ga = Iq::from_polar(0.01, 0.3);
        let gb = Iq::from_polar(0.012, -1.2);
        let a = tx(&ca, &fa, ga, 20);
        let b = tx(&cb, &fb, gb, 20);
        let n = a.len().max(b.len());
        let mut buf = vec![Iq::ZERO; n];
        for (i, s) in a.into_iter().enumerate() {
            buf[i] += s;
        }
        for (i, s) in b.into_iter().enumerate() {
            buf[i] += s;
        }
        let (pa, _) = Decoder::new(&ca, &phy()).decode_frame(&buf, 20, ga);
        let (pb, _) = Decoder::new(&cb, &phy()).decode_frame(&buf, 20, gb);
        assert_eq!(pa.frame().unwrap(), &fa, "tag a failed under collision");
        assert_eq!(pb.frame().unwrap(), &fb, "tag b failed under collision");
    }

    #[test]
    fn truncated_buffer_is_reported() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let frame = Frame::new(vec![0; 20]).unwrap();
        let gain = Iq::new(0.01, 0.0);
        let buf = tx(&code, &frame, gain, 0);
        let dec = Decoder::new(&code, &phy());
        // The tail runs past the capture: the header's bits are kept.
        let (out, bits) = dec.decode_frame(&buf[..buf.len() / 2], 0, gain);
        assert_eq!(out, DecodeOutcome::Truncated);
        assert_eq!(bits.unwrap().len(), phy().preamble_bits + 8);
        // The header runs past the capture: there are no bits.
        let (out, bits) = dec.decode_frame(&buf[..dec.samples_per_bit()], 0, gain);
        assert_eq!(out, DecodeOutcome::Truncated);
        assert_eq!(bits, None);
    }

    #[test]
    fn empty_payload_frame_decodes() {
        let code = GoldFamily::new(5).unwrap().code(1).unwrap();
        let frame = Frame::new(Vec::new()).unwrap();
        let gain = Iq::new(0.02, 0.0);
        let buf = tx(&code, &frame, gain, 5);
        let (out, _) = Decoder::new(&code, &phy()).decode_frame(&buf, 5, gain);
        assert_eq!(out.frame().unwrap().payload(), &[] as &[u8]);
    }

    #[test]
    fn samples_per_bit_matches_profile() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let dec = Decoder::new(&code, &phy());
        assert_eq!(dec.samples_per_bit(), 31 * 8);
    }

    #[test]
    fn decode_bits_out_of_range_appends_nothing() {
        let code = GoldFamily::new(5).unwrap().code(0).unwrap();
        let dec = Decoder::new(&code, &phy());
        let mut bits = Bits::from_slice(&[1, 0]).unwrap();
        assert!(!dec.decode_bits(&[Iq::ZERO; 100], 0, 5, Iq::ONE, &mut bits));
        assert_eq!(bits, Bits::from_slice(&[1, 0]).unwrap());
    }

    #[test]
    fn outcome_helpers() {
        for out in [
            DecodeOutcome::Truncated,
            DecodeOutcome::Alias,
            DecodeOutcome::Invalid(FrameError::Crc),
        ] {
            assert!(!out.is_frame());
            assert!(out.frame().is_none());
        }
    }
}
