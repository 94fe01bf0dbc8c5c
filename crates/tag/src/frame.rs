//! The CBMA frame format (§III-A).
//!
//! > "The data of the tag being transmitted is first encapsulated to frames
//! > with the following fields: (1) one byte known preamble {10101010};
//! > (2) one byte data indicating the length of the frame; (3) up to 126
//! > bytes of payload data and (4) two bytes of cyclic redundancy check."
//!
//! The preamble length is configurable in bits (4–64) because Fig. 8(c)
//! sweeps it; the pattern is always alternating `10`, of which the default
//! 8 bits equal the `{10101010}` byte.

use serde::{Deserialize, Serialize};

use cbma_types::{Bits, CbmaError, Result};

use crate::crc::crc16;

/// Maximum payload size in bytes (§III-A).
pub const MAX_PAYLOAD: usize = 126;

/// Default preamble length: one byte.
pub const DEFAULT_PREAMBLE_BITS: usize = 8;

/// Returns the alternating `1010…` preamble pattern of `bits` bits.
pub fn preamble_pattern(bits: usize) -> Bits {
    (0..bits)
        .map(|i| if i % 2 == 0 { 1u8 } else { 0u8 })
        .collect()
}

/// A tag data frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame around `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::PayloadTooLarge`] for payloads above
    /// [`MAX_PAYLOAD`] bytes.
    pub fn new(payload: Vec<u8>) -> Result<Frame> {
        if payload.len() > MAX_PAYLOAD {
            return Err(CbmaError::PayloadTooLarge {
                actual: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        Ok(Frame { payload })
    }

    /// The payload bytes.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total over-the-air length in bits for a given preamble length:
    /// preamble + 8 (length byte) + payload + 16 (CRC).
    pub fn bit_len(&self, preamble_bits: usize) -> usize {
        Frame::bit_len_for(self.payload.len(), preamble_bits)
    }

    /// [`bit_len`](Frame::bit_len) of a frame whose payload is
    /// `payload_len` bytes long, without building it.
    pub fn bit_len_for(payload_len: usize, preamble_bits: usize) -> usize {
        preamble_bits + 8 + payload_len * 8 + 16
    }

    /// Serializes the frame to its bit-level representation.
    pub fn to_bits(&self, preamble_bits: usize) -> Bits {
        let mut bits = preamble_pattern(preamble_bits);
        let mut body = Vec::with_capacity(1 + self.payload.len() + 2);
        body.push(self.payload.len() as u8);
        body.extend_from_slice(&self.payload);
        let crc = crc16(&self.payload);
        body.push((crc >> 8) as u8);
        body.push((crc & 0xFF) as u8);
        bits.extend_bits(&Bits::from_bytes_msb(&body));
        bits
    }

    /// Parses a frame from bits in one pass, verifying its structure and
    /// CRC. Bits past the frame's end are ignored.
    ///
    /// # Errors
    ///
    /// The first failed check, in this order: [`FrameError::Short`] below
    /// an empty frame's length, [`FrameError::Preamble`],
    /// [`FrameError::LengthField`] above [`MAX_PAYLOAD`],
    /// [`FrameError::Short`] below the length the field implies, and
    /// [`FrameError::Crc`].
    pub fn from_bits(bits: &Bits, preamble_bits: usize) -> std::result::Result<Frame, FrameError> {
        let bits = bits.as_slice();
        if bits.len() < preamble_bits + 8 + 16 {
            return Err(FrameError::Short);
        }
        if (0..preamble_bits).any(|i| bits[i] != u8::from(i % 2 == 0)) {
            return Err(FrameError::Preamble);
        }
        let body = &bits[preamble_bits..];
        let len = usize::from(msb_value(&body[..8]));
        if len > MAX_PAYLOAD {
            return Err(FrameError::LengthField);
        }
        let Some(rest) = body[8..].get(..len * 8 + 16) else {
            return Err(FrameError::Short);
        };
        let (payload_bits, crc_bits) = rest.split_at(len * 8);
        let mut payload = [0u8; MAX_PAYLOAD];
        for (byte, chunk) in payload.iter_mut().zip(payload_bits.chunks_exact(8)) {
            *byte = msb_value(chunk) as u8;
        }
        let payload = &payload[..len];
        if crc16(payload) != msb_value(crc_bits) {
            return Err(FrameError::Crc);
        }
        Ok(Frame {
            payload: payload.to_vec(),
        })
    }
}

/// Why [`Frame::from_bits`] rejected a bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameError {
    /// The bits end before the frame does.
    Short,
    /// The preamble is not the alternating `10…` pattern.
    Preamble,
    /// The length field exceeds [`MAX_PAYLOAD`].
    LengthField,
    /// The CRC does not match the payload.
    Crc,
}

/// The value of at most 16 bits, most significant first.
fn msb_value(bits: &[u8]) -> u16 {
    bits.iter().fold(0, |acc, &bit| (acc << 1) | u16::from(bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_default_preamble() {
        let frame = Frame::new(b"sensor reading 42".to_vec()).unwrap();
        let bits = frame.to_bits(DEFAULT_PREAMBLE_BITS);
        assert_eq!(bits.len(), frame.bit_len(DEFAULT_PREAMBLE_BITS));
        let decoded = Frame::from_bits(&bits, DEFAULT_PREAMBLE_BITS).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn round_trip_all_preamble_lengths() {
        // Fig. 8(c): preamble lengths 4, 8, 16, 32, 64.
        let frame = Frame::new(vec![1, 2, 3]).unwrap();
        for preamble in [4usize, 8, 16, 32, 64] {
            let bits = frame.to_bits(preamble);
            let decoded = Frame::from_bits(&bits, preamble).unwrap();
            assert_eq!(decoded.payload(), frame.payload());
        }
    }

    #[test]
    fn empty_payload_round_trip() {
        let frame = Frame::new(Vec::new()).unwrap();
        let bits = frame.to_bits(8);
        assert_eq!(bits.len(), 8 + 8 + 16);
        assert_eq!(Frame::from_bits(&bits, 8).unwrap().payload(), &[] as &[u8]);
    }

    #[test]
    fn max_payload_round_trip() {
        let frame = Frame::new(vec![0x5A; MAX_PAYLOAD]).unwrap();
        let bits = frame.to_bits(8);
        assert_eq!(Frame::from_bits(&bits, 8).unwrap().payload().len(), 126);
    }

    #[test]
    fn oversized_payload_rejected() {
        assert!(matches!(
            Frame::new(vec![0; 127]),
            Err(CbmaError::PayloadTooLarge {
                actual: 127,
                max: 126
            })
        ));
    }

    #[test]
    fn preamble_byte_is_0xaa() {
        // The default 8-bit preamble must equal {10101010}.
        assert_eq!(preamble_pattern(8).to_string(), "10101010");
        let frame = Frame::new(vec![]).unwrap();
        let bits = frame.to_bits(8);
        let first_byte: Bits = (0..8).map(|i| bits[i]).collect();
        assert_eq!(first_byte.to_bytes_msb().unwrap(), vec![0xAA]);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let frame = Frame::new(b"data".to_vec()).unwrap();
        let bits = frame.to_bits(8);
        // Flip one payload bit (after preamble + length byte).
        let mut raw: Vec<u8> = bits.iter().collect();
        raw[8 + 8 + 3] ^= 1;
        let corrupted = Bits::from_slice(&raw).unwrap();
        assert_eq!(Frame::from_bits(&corrupted, 8), Err(FrameError::Crc));
    }

    #[test]
    fn corrupted_preamble_is_rejected() {
        let frame = Frame::new(b"x".to_vec()).unwrap();
        let bits = frame.to_bits(8);
        let mut raw: Vec<u8> = bits.iter().collect();
        raw[0] ^= 1;
        let corrupted = Bits::from_slice(&raw).unwrap();
        assert_eq!(Frame::from_bits(&corrupted, 8), Err(FrameError::Preamble));
    }

    #[test]
    fn truncated_frame_is_short() {
        let frame = Frame::new(b"abcdef".to_vec()).unwrap();
        let bits = frame.to_bits(8);
        let truncated: Bits = (0..bits.len() - 10).map(|i| bits[i]).collect();
        assert_eq!(Frame::from_bits(&truncated, 8), Err(FrameError::Short));
        let under_minimum: Bits = (0..8 + 8 + 15).map(|i| bits[i]).collect();
        assert_eq!(Frame::from_bits(&under_minimum, 8), Err(FrameError::Short));
    }

    #[test]
    fn inconsistent_length_field_is_short() {
        // Claim 126 bytes of payload but provide only a short body.
        let mut bits = preamble_pattern(8);
        bits.extend_bits(&Bits::from_bytes_msb(&[126, 0, 0, 0, 0]));
        assert_eq!(Frame::from_bits(&bits, 8), Err(FrameError::Short));
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut bits = preamble_pattern(8);
        bits.extend_bits(&Bits::from_bytes_msb(&[127, 0, 0]));
        assert_eq!(Frame::from_bits(&bits, 8), Err(FrameError::LengthField));
    }

    #[test]
    fn trailing_bits_are_ignored() {
        // A receiver hands the parser a window that may extend past the
        // frame; parsing must succeed using the length field.
        let frame = Frame::new(b"tail test".to_vec()).unwrap();
        let mut bits = frame.to_bits(8);
        bits.extend([1u8, 0, 1, 1, 0]);
        assert_eq!(Frame::from_bits(&bits, 8).unwrap(), frame);
    }
}
