//! The air-interface profile shared by tags and the receiver.
//!
//! Captures the physical-layer constants of §III/§VI: the tag's chip
//! (symbol) rate — 1 symbol per µs in the paper's configuration, swept up
//! to 5 Mbps in Fig. 9(a) — the receiver's fixed sampling capacity (which
//! is why high bitrates leave "too few sampling points" per symbol), and
//! the preamble length (swept in Fig. 8(c)).

use serde::{Deserialize, Serialize};

use cbma_types::units::{Hertz, Seconds};
use cbma_types::{CbmaError, Result};

use crate::frame::DEFAULT_PREAMBLE_BITS;

/// Physical-layer configuration shared by every node in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyProfile {
    /// Tag chip (OOK symbol) rate. The paper's default symbol time is
    /// 1 µs → 1 Mcps.
    pub chip_rate: Hertz,
    /// Receiver sampling rate — a fixed hardware capacity (§VII-B.1
    /// "the sampling capacity of the receiver is limited").
    pub sample_rate: Hertz,
    /// Preamble length in bits.
    pub preamble_bits: usize,
}

impl PhyProfile {
    /// The paper's baseline: 1 µs symbols, an 8 Msps receiver, one-byte
    /// preamble.
    pub fn paper_default() -> PhyProfile {
        PhyProfile {
            chip_rate: Hertz::from_mhz(1.0),
            sample_rate: Hertz::from_mhz(8.0),
            preamble_bits: DEFAULT_PREAMBLE_BITS,
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::InvalidConfig`] when rates are non-positive,
    /// the chip rate exceeds the sample rate, or the preamble is empty.
    pub fn validate(&self) -> Result<()> {
        if self.chip_rate.get() <= 0.0 || self.sample_rate.get() <= 0.0 {
            return Err(CbmaError::InvalidConfig(
                "chip and sample rates must be positive".into(),
            ));
        }
        if self.chip_rate.get() > self.sample_rate.get() {
            return Err(CbmaError::InvalidConfig(format!(
                "chip rate {} exceeds receiver sample rate {}",
                self.chip_rate, self.sample_rate
            )));
        }
        if self.preamble_bits == 0 {
            return Err(CbmaError::InvalidConfig(
                "preamble must be at least one bit".into(),
            ));
        }
        Ok(())
    }

    /// Samples per chip at the receiver: ⌊f_s / f_chip⌋, at least 1.
    /// High chip rates shrink this — the Fig. 9(a) degradation mechanism.
    pub fn samples_per_chip(&self) -> usize {
        ((self.sample_rate.get() / self.chip_rate.get()).floor() as usize).max(1)
    }

    /// One chip duration.
    pub fn chip_duration(&self) -> Seconds {
        self.chip_rate.period()
    }

    /// Returns a copy with a different chip rate (the Fig. 9(a) sweep).
    pub fn with_chip_rate(mut self, chip_rate: Hertz) -> PhyProfile {
        self.chip_rate = chip_rate;
        self
    }

    /// Returns a copy with a different preamble length (Fig. 8(c) sweep).
    pub fn with_preamble_bits(mut self, bits: usize) -> PhyProfile {
        self.preamble_bits = bits;
        self
    }
}

impl Default for PhyProfile {
    fn default() -> PhyProfile {
        PhyProfile::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let phy = PhyProfile::paper_default();
        phy.validate().unwrap();
        assert_eq!(phy.samples_per_chip(), 8);
        assert!((phy.chip_duration().as_micros() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_per_chip_shrinks_with_bitrate() {
        // Fig. 9(a): 250 kbps → 32 samples, 5 Mbps → 1 sample.
        let phy = PhyProfile::paper_default();
        assert_eq!(phy.with_chip_rate(Hertz::new(250e3)).samples_per_chip(), 32);
        assert_eq!(
            phy.with_chip_rate(Hertz::from_mhz(2.0)).samples_per_chip(),
            4
        );
        assert_eq!(
            phy.with_chip_rate(Hertz::from_mhz(5.0)).samples_per_chip(),
            1
        );
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let phy = PhyProfile::paper_default();
        assert!(phy.with_chip_rate(Hertz::new(0.0)).validate().is_err());
        assert!(phy
            .with_chip_rate(Hertz::from_mhz(16.0))
            .validate()
            .is_err());
        assert!(phy.with_preamble_bits(0).validate().is_err());
    }

    #[test]
    fn builders_do_not_touch_other_fields() {
        let phy = PhyProfile::paper_default()
            .with_chip_rate(Hertz::from_mhz(2.0))
            .with_preamble_bits(64);
        assert_eq!(phy.sample_rate, Hertz::from_mhz(8.0));
        assert_eq!(phy.preamble_bits, 64);
        assert_eq!(phy.chip_rate, Hertz::from_mhz(2.0));
    }
}
