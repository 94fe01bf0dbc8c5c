//! CRC-16 frame check sequence.
//!
//! The frame carries "two bytes of cyclic redundancy check to verify
//! whether error has occurred" (§III-A). We use CRC-16/CCITT-FALSE
//! (polynomial 0x1021, init 0xFFFF) — the ubiquitous 16-bit CRC in
//! low-power radio framing.

/// The CRC polynomial x¹⁶ + x¹² + x⁵ + 1.
pub const POLYNOMIAL: u16 = 0x1021;

/// The initial register value.
pub const INITIAL: u16 = 0xFFFF;

/// Computes the CRC-16/CCITT-FALSE of `data`.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = INITIAL;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ POLYNOMIAL;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The canonical CRC-16/CCITT-FALSE check: "123456789" → 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_is_initial_value() {
        assert_eq!(crc16(&[]), INITIAL);
    }

    #[test]
    fn detects_single_bit_flips() {
        // A CRC-16 detects all single-bit errors.
        let data = b"cbma frame payload".to_vec();
        let crc = crc16(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc16(&corrupted), crc, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_swapped_bytes() {
        let a = crc16(&[0x12, 0x34]);
        let b = crc16(&[0x34, 0x12]);
        assert_ne!(a, b);
    }

    #[test]
    fn crc_is_deterministic() {
        let data = vec![0xA5; 126];
        assert_eq!(crc16(&data), crc16(&data));
    }
}
