//! The tag state machine.
//!
//! A [`Tag`] owns everything a physical CBMA tag owns: its identity, its
//! position in the room, its assigned PN code, its current impedance state
//! (the power-control actuator), and the ACK bookkeeping that drives
//! Algorithm 1. The full transmit path — frame → spread → OOK envelope —
//! is exposed as one call so the simulation engine and the examples stay
//! simple.

use cbma_codes::PnCode;
use cbma_types::geometry::Point;
use cbma_types::{Bits, Result};

use crate::encoder::spread;
use crate::frame::Frame;
use crate::impedance::ImpedanceState;
use crate::modulator::spread_envelope_into;
use crate::phy::PhyProfile;

/// One backscatter tag.
#[derive(Debug, Clone)]
pub struct Tag {
    id: u32,
    position: Point,
    code: PnCode,
    impedance: ImpedanceState,
    packets_sent: u64,
    acks_received: u64,
}

impl Tag {
    /// Creates a tag with the strongest impedance state selected (tags
    /// boot at full backscatter power; power control adapts from there).
    pub fn new(id: u32, position: Point, code: PnCode) -> Tag {
        Tag {
            id,
            position,
            code,
            impedance: ImpedanceState::Open,
            packets_sent: 0,
            acks_received: 0,
        }
    }

    /// The tag identifier (also indexes its PN code in scenario tables).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current position.
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Moves the tag (node selection relocates "bad" tags, §V-C).
    pub fn set_position(&mut self, position: Point) {
        self.position = position;
    }

    /// The assigned spreading code.
    #[inline]
    pub fn code(&self) -> &PnCode {
        &self.code
    }

    /// Current impedance state.
    #[inline]
    pub fn impedance(&self) -> ImpedanceState {
        self.impedance
    }

    /// Sets the impedance state directly.
    pub fn set_impedance(&mut self, state: ImpedanceState) {
        self.impedance = state;
    }

    /// Advances the impedance cyclically — Algorithm 1's
    /// `Z ← Z + 1 (wrapping at Z_max)` actuation.
    pub fn step_impedance(&mut self) {
        self.impedance = self.impedance.next_cyclic();
    }

    /// Builds the spread chip sequence for a frame.
    ///
    /// # Errors
    ///
    /// Propagates frame construction errors (oversized payload).
    pub fn encode(&self, payload: Vec<u8>, phy: &PhyProfile) -> Result<Bits> {
        let frame = Frame::new(payload)?;
        Ok(spread(&frame.to_bits(phy.preamble_bits), &self.code))
    }

    /// Full transmit path: frame → spread → OOK envelope at the receiver
    /// sample rate, the envelope of [`Tag::encode`]'s chips built straight
    /// from the code-word waveforms ([`spread_envelope_into`]). Also counts
    /// the packet as sent.
    ///
    /// # Errors
    ///
    /// Propagates frame construction errors.
    pub fn transmit(&mut self, payload: Vec<u8>, phy: &PhyProfile) -> Result<Vec<f64>> {
        let mut envelope = Vec::new();
        self.transmit_into(payload, phy, &mut envelope)?;
        Ok(envelope)
    }

    /// Samples in the envelope [`Tag::transmit`] builds for a payload of
    /// `payload_len` bytes: one code word per frame bit, at the PHY's
    /// samples per chip. Lets a caller size the capture before the
    /// envelope exists.
    pub fn envelope_len(&self, payload_len: usize, phy: &PhyProfile) -> usize {
        Frame::bit_len_for(payload_len, phy.preamble_bits)
            * self.code.len()
            * phy.samples_per_chip()
    }

    /// [`Tag::transmit`] into a caller-owned envelope buffer, which is
    /// cleared and refilled with its capacity kept
    /// ([`spread_envelope_into`]). On error `envelope` is left untouched
    /// and nothing is counted.
    ///
    /// # Errors
    ///
    /// Propagates frame construction errors.
    pub fn transmit_into(
        &mut self,
        payload: Vec<u8>,
        phy: &PhyProfile,
        envelope: &mut Vec<f64>,
    ) -> Result<()> {
        let frame = Frame::new(payload)?;
        self.packets_sent += 1;
        spread_envelope_into(
            &frame.to_bits(phy.preamble_bits),
            &self.code,
            phy.samples_per_chip(),
            envelope,
        );
        Ok(())
    }

    /// Records an ACK from the receiver for this tag.
    pub fn record_ack(&mut self) {
        self.acks_received += 1;
    }

    /// Packets transmitted since the last stats reset.
    #[inline]
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// ACKs received since the last stats reset.
    #[inline]
    pub fn acks_received(&self) -> u64 {
        self.acks_received
    }

    /// The ACK ratio Algorithm 1 thresholds (ACKᵢ / m). 0 when nothing has
    /// been sent.
    pub fn ack_ratio(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.acks_received as f64 / self.packets_sent as f64
        }
    }

    /// Clears the ACK statistics (start of a power-control round).
    pub fn reset_stats(&mut self) {
        self.packets_sent = 0;
        self.acks_received = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily};

    fn make_tag() -> Tag {
        let code = GoldFamily::new(5).unwrap().code(2).unwrap();
        Tag::new(2, Point::new(0.3, 0.7), code)
    }

    #[test]
    fn new_tag_boots_at_full_power() {
        let tag = make_tag();
        assert_eq!(tag.impedance(), ImpedanceState::Open);
        assert_eq!(tag.packets_sent(), 0);
        assert_eq!(tag.ack_ratio(), 0.0);
    }

    #[test]
    fn encode_length_matches_frame_and_code() {
        let tag = make_tag();
        let phy = PhyProfile::paper_default();
        let chips = tag.encode(vec![0xAB; 4], &phy).unwrap();
        // Frame bits: 8 preamble + 8 length + 32 payload + 16 crc = 64.
        assert_eq!(chips.len(), 64 * 31);
    }

    #[test]
    fn envelope_len_predicts_the_transmitted_length() {
        let mut tag = make_tag();
        for (payload_len, preamble_bits) in [(0, 8), (5, 4), (126, 64)] {
            let phy = PhyProfile::paper_default().with_preamble_bits(preamble_bits);
            let envelope = tag.transmit(vec![7; payload_len], &phy).unwrap();
            assert_eq!(envelope.len(), tag.envelope_len(payload_len, &phy));
        }
    }

    #[test]
    fn transmit_produces_envelope_and_counts() {
        let mut tag = make_tag();
        let phy = PhyProfile::paper_default();
        let env = tag.transmit(vec![1, 2], &phy).unwrap();
        assert_eq!(env.len(), (8 + 8 + 16 + 16) * 31 * 8);
        assert_eq!(tag.packets_sent(), 1);
        assert!(env.iter().all(|&s| s == 0.0 || s == 1.0));
    }

    #[test]
    fn transmit_is_the_envelope_of_the_encoded_chips() {
        let mut tag = make_tag();
        let phy = PhyProfile::paper_default();
        let chips = tag.encode(b"chip path".to_vec(), &phy).unwrap();
        let env = tag.transmit(b"chip path".to_vec(), &phy).unwrap();
        assert_eq!(
            env,
            crate::modulator::ook_envelope(&chips, phy.samples_per_chip())
        );
        // A reused buffer: longer than needed and full of NaN.
        let mut reused = vec![f64::NAN; env.len() + 100];
        tag.transmit_into(b"chip path".to_vec(), &phy, &mut reused)
            .unwrap();
        assert_eq!(reused, env);
    }

    #[test]
    fn ack_ratio_tracks_feedback() {
        let mut tag = make_tag();
        let phy = PhyProfile::paper_default();
        for _ in 0..4 {
            tag.transmit(vec![0], &phy).unwrap();
        }
        tag.record_ack();
        tag.record_ack();
        tag.record_ack();
        assert!((tag.ack_ratio() - 0.75).abs() < 1e-12);
        tag.reset_stats();
        assert_eq!(tag.ack_ratio(), 0.0);
        assert_eq!(tag.acks_received(), 0);
    }

    #[test]
    fn impedance_stepping_cycles() {
        let mut tag = make_tag();
        let start = tag.impedance();
        for _ in 0..4 {
            tag.step_impedance();
        }
        assert_eq!(tag.impedance(), start);
    }

    #[test]
    fn position_can_be_updated() {
        let mut tag = make_tag();
        tag.set_position(Point::new(-1.0, 2.0));
        assert_eq!(tag.position(), Point::new(-1.0, 2.0));
    }

    #[test]
    fn oversized_payload_propagates_error() {
        let mut tag = make_tag();
        let phy = PhyProfile::paper_default();
        assert!(tag.transmit(vec![0; 127], &phy).is_err());
        let mut envelope = vec![0.5; 3];
        assert!(tag
            .transmit_into(vec![0; 127], &phy, &mut envelope)
            .is_err());
        assert_eq!(envelope, [0.5; 3], "failed transmit must leave the buffer");
        assert_eq!(tag.packets_sent(), 0, "failed transmit must not count");
    }
}
