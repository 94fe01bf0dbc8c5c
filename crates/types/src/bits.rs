//! Unpacked bit vectors.
//!
//! Framing, spreading and despreading all manipulate individual bits — a
//! tag's encoder multiplies each data bit by a PN chip sequence (§II-B), so
//! the natural unit of work is the bit, not the byte. [`Bits`] stores one
//! bit per `u8` (0 or 1) which keeps indexing trivial and the XOR/AND chip
//! operations branch-free, at a memory cost that is irrelevant at frame
//! scale (≤ 130 bytes of payload).
//!
//! # Examples
//!
//! ```
//! use cbma_types::Bits;
//!
//! // The paper's example (§III-A): data "10" spread by PN code "01001"
//! // yields "0100110110".
//! let data = Bits::from_str("10").unwrap();
//! let code = Bits::from_str("01001").unwrap();
//! let mut spread = Bits::new();
//! for bit in data.iter() {
//!     for chip in code.iter() {
//!         spread.push(if bit == 1 { chip } else { chip ^ 1 });
//!     }
//! }
//! assert_eq!(spread.to_string(), "0100110110");
//! ```

use std::fmt;
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::error::{CbmaError, Result};

/// A growable sequence of bits, stored unpacked (one `u8` per bit).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Bits {
    bits: Vec<u8>,
}

impl Bits {
    /// Creates an empty bit vector.
    #[inline]
    pub fn new() -> Bits {
        Bits { bits: Vec::new() }
    }

    /// Creates an empty bit vector with space reserved for `n` bits.
    #[inline]
    pub fn with_capacity(n: usize) -> Bits {
        Bits {
            bits: Vec::with_capacity(n),
        }
    }

    /// Creates a bit vector of `n` zero bits.
    #[inline]
    pub fn zeros(n: usize) -> Bits {
        Bits { bits: vec![0; n] }
    }

    /// Builds from a slice of 0/1 values.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::InvalidBit`] if any element is neither 0 nor 1.
    pub fn from_slice(slice: &[u8]) -> Result<Bits> {
        if let Some(&bad) = slice.iter().find(|&&b| b > 1) {
            return Err(CbmaError::InvalidBit(bad));
        }
        Ok(Bits {
            bits: slice.to_vec(),
        })
    }

    /// Parses a string of `'0'`/`'1'` characters.
    ///
    /// Named like (and delegated to by) [`std::str::FromStr`], kept as an
    /// inherent method so callers don't need the trait in scope.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::InvalidBit`] on any other character.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Bits> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(0),
                '1' => bits.push(1),
                other => return Err(CbmaError::InvalidBit(other as u8)),
            }
        }
        Ok(Bits { bits })
    }

    /// Unpacks bytes MSB-first, the transmission order used by the frame
    /// format (the `0b1010_1010` preamble byte becomes `10101010`).
    pub fn from_bytes_msb(bytes: &[u8]) -> Bits {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &byte in bytes {
            for shift in (0..8).rev() {
                bits.push((byte >> shift) & 1);
            }
        }
        Bits { bits }
    }

    /// Packs back into bytes MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::BitLength`] if the length is not a multiple of
    /// eight.
    pub fn to_bytes_msb(&self) -> Result<Vec<u8>> {
        if !self.bits.len().is_multiple_of(8) {
            return Err(CbmaError::BitLength {
                expected_multiple: 8,
                actual: self.bits.len(),
            });
        }
        Ok(self
            .bits
            .chunks_exact(8)
            .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | b))
            .collect())
    }

    /// Appends one bit.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `bit` is not 0 or 1.
    #[inline]
    pub fn push(&mut self, bit: u8) {
        debug_assert!(bit <= 1, "bit must be 0 or 1, got {bit}");
        self.bits.push(bit & 1);
    }

    /// Releases capacity beyond the current length.
    #[inline]
    pub fn shrink_to_fit(&mut self) {
        self.bits.shrink_to_fit();
    }

    /// Appends all bits of `other`.
    #[inline]
    pub fn extend_bits(&mut self, other: &Bits) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<u8> {
        self.bits.get(index).copied()
    }

    /// Read-only view as a slice of 0/1 values.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bits
    }

    /// Iterates over the bit values.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().copied()
    }

    /// Element-wise XOR with another equal-length bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &Bits) -> Bits {
        assert_eq!(
            self.len(),
            other.len(),
            "xor requires equal lengths ({} vs {})",
            self.len(),
            other.len()
        );
        Bits {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a ^ b)
                .collect(),
        }
    }

    /// Bit-wise complement.
    pub fn complement(&self) -> Bits {
        Bits {
            bits: self.bits.iter().map(|b| b ^ 1).collect(),
        }
    }

    /// Number of 1 bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b == 1).count()
    }

    /// Hamming distance to an equal-length bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &Bits) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "hamming distance requires equal lengths"
        );
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Maps bits to the bipolar (±1) domain used by correlation math:
    /// 1 → +1.0, 0 → −1.0.
    pub fn to_bipolar(&self) -> Vec<f64> {
        self.bits
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Cyclic left rotation by `n` positions.
    pub fn rotate_left(&self, n: usize) -> Bits {
        if self.bits.is_empty() {
            return self.clone();
        }
        let n = n % self.bits.len();
        let mut bits = self.bits.clone();
        bits.rotate_left(n);
        Bits { bits }
    }
}

impl Index<usize> for Bits {
    type Output = u8;
    #[inline]
    fn index(&self, index: usize) -> &u8 {
        &self.bits[index]
    }
}

impl std::str::FromStr for Bits {
    type Err = CbmaError;

    fn from_str(s: &str) -> Result<Bits> {
        Bits::from_str(s)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<u8> for Bits {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bits {
        let mut bits = Bits::new();
        for b in iter {
            bits.push(b);
        }
        bits
    }
}

impl Extend<u8> for Bits {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a Bits {
    type Item = u8;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u8>>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_msb_first() {
        let bytes = [0xAA, 0x0F, 0x00, 0xFF, 0x5C];
        let bits = Bits::from_bytes_msb(&bytes);
        assert_eq!(bits.len(), 40);
        assert_eq!(bits.to_bytes_msb().unwrap(), bytes);
    }

    #[test]
    fn preamble_byte_unpacks_to_alternating() {
        let bits = Bits::from_bytes_msb(&[0b1010_1010]);
        assert_eq!(bits.to_string(), "10101010");
    }

    #[test]
    fn to_bytes_rejects_ragged_length() {
        let bits = Bits::from_str("101").unwrap();
        assert!(matches!(
            bits.to_bytes_msb(),
            Err(CbmaError::BitLength { actual: 3, .. })
        ));
    }

    #[test]
    fn from_str_rejects_non_binary() {
        assert!(Bits::from_str("10a1").is_err());
        assert!(Bits::from_slice(&[0, 1, 2]).is_err());
    }

    #[test]
    fn xor_and_complement() {
        let a = Bits::from_str("1100").unwrap();
        let b = Bits::from_str("1010").unwrap();
        assert_eq!(a.xor(&b).to_string(), "0110");
        assert_eq!(a.complement().to_string(), "0011");
    }

    #[test]
    fn hamming_distance_counts_disagreements() {
        let a = Bits::from_str("10110").unwrap();
        let b = Bits::from_str("11100").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn bipolar_mapping() {
        let b = Bits::from_str("101").unwrap();
        assert_eq!(b.to_bipolar(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    fn rotate_left_wraps() {
        let b = Bits::from_str("10010").unwrap();
        assert_eq!(b.rotate_left(2).to_string(), "01010");
        assert_eq!(b.rotate_left(5).to_string(), "10010");
        assert_eq!(b.rotate_left(7).to_string(), "01010");
    }

    #[test]
    fn paper_spreading_example() {
        // §III-A: data "10" with PN code "01001" encodes to "0100110110".
        let code = Bits::from_str("01001").unwrap();
        let mut spread = Bits::new();
        for bit in Bits::from_str("10").unwrap().iter() {
            let chips = if bit == 1 {
                code.clone()
            } else {
                code.complement()
            };
            spread.extend_bits(&chips);
        }
        assert_eq!(spread.to_string(), "0100110110");
    }

    #[test]
    fn collect_and_extend() {
        let bits: Bits = [1u8, 0, 1].into_iter().collect();
        assert_eq!(bits.to_string(), "101");
        let mut more = bits.clone();
        more.extend([1u8, 1]);
        assert_eq!(more.to_string(), "10111");
        assert_eq!(more.count_ones(), 4);
    }
}
