//! Declarative deployment description.
//!
//! A [`Scenario`] is everything needed to reproduce one experiment
//! configuration: geometry (§IV's coordinate system with the excitation
//! source at (−D, 0) and the receiver at (D, 0)), the PHY profile, the
//! channel impairments, the code family, and the root seed. Every field is
//! public and the struct is plain data, so sweeps mutate copies freely.

use cbma_channel::{
    BackscatterLink, ClockModel, Excitation, InterferenceModel, MultipathModel, NoiseModel,
    ShadowingModel,
};
use cbma_codes::{CodeFamily, FamilyKind};
use cbma_rx::ReceiverConfig;
use cbma_tag::PhyProfile;
use cbma_types::geometry::Point;
use cbma_types::{CbmaError, Result};

/// A complete experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Air-interface profile shared by tags and receiver.
    pub phy: PhyProfile,
    /// Link budget (Eq. 1) parameters.
    pub link: BackscatterLink,
    /// Receiver noise environment.
    pub noise: NoiseModel,
    /// Large-scale shadowing.
    pub shadowing: ShadowingModel,
    /// Small-scale fading.
    pub multipath: MultipathModel,
    /// Default per-tag clock model (overridable per tag).
    pub clock: ClockModel,
    /// Per-tag clock overrides (index-aligned with `tag_positions`; `None`
    /// uses `clock`). Drives the Fig. 11 asynchrony sweep.
    pub clock_overrides: Vec<Option<ClockModel>>,
    /// Excitation-source model.
    pub excitation: Excitation,
    /// Ambient interference.
    pub interference: InterferenceModel,
    /// PN-code family.
    pub family: FamilyKind,
    /// Excitation-source position.
    pub es: Point,
    /// Receiver position.
    pub rx: Point,
    /// Tag positions (tag id = index).
    pub tag_positions: Vec<Point>,
    /// Payload bytes per frame.
    pub payload_len: usize,
    /// Receiver tuning.
    pub rx_config: ReceiverConfig,
    /// Mutual-coupling radius: tags closer than this distort each other
    /// (λ/2 in the paper's discussion of Fig. 10). Set 0 to disable.
    pub coupling_radius: f64,
    /// Receiver front-end ADC model (None = ideal converter).
    pub adc: Option<cbma_channel::AdcModel>,
    /// Injected failures (tag deaths, ACK losses).
    pub faults: crate::faults::FaultPlan,
    /// Tag mobility between rounds (None = static deployment).
    pub mobility: Option<crate::faults::MobilityModel>,
    /// Root seed for all randomness.
    pub seed: u64,
}

impl Scenario {
    /// The paper's baseline setup: D = 50 cm (ES at (−0.5, 0), RX at
    /// (0.5, 0)), 2NC codes sized for the tag count, paper-default PHY and
    /// channel, 8-byte payloads, indoor shadowing and multipath, small
    /// distributed clock jitter.
    pub fn paper_default(tag_positions: Vec<Point>) -> Scenario {
        let phy = PhyProfile::paper_default();
        let n = tag_positions.len().max(1);
        let link = BackscatterLink::paper_default();
        let lambda = link.carrier.wavelength().get();
        let rx_config = ReceiverConfig {
            // Tolerate concurrent users down to ~1/√n of the segment
            // energy.
            user_threshold: 0.12,
            ..ReceiverConfig::default()
        };
        Scenario {
            phy,
            link,
            noise: NoiseModel::paper_default(),
            shadowing: ShadowingModel::indoor_default(1),
            multipath: MultipathModel::indoor_default(),
            clock: ClockModel {
                fixed_offset_samples: 0.0,
                jitter_samples: 1.0 * phy.samples_per_chip() as f64,
                // TCXO-grade tags: 5 ppm bounds both start-time drift and
                // the inter-tag subcarrier beat.
                drift_ppm: 5.0,
            },
            clock_overrides: vec![None; tag_positions.len()],
            excitation: Excitation::tone(),
            interference: InterferenceModel::none(),
            family: FamilyKind::TwoNc { users: n.max(2) },
            es: Point::from_cm(-50.0, 0.0),
            rx: Point::from_cm(50.0, 0.0),
            tag_positions,
            payload_len: 8,
            rx_config,
            coupling_radius: lambda / 2.0,
            adc: None,
            faults: crate::faults::FaultPlan::none(),
            mobility: None,
            seed: 0xCB_0A,
        }
    }

    /// A quiet, impairment-free variant for unit tests: no shadowing,
    /// fading, jitter or coupling.
    pub fn clean(tag_positions: Vec<Point>) -> Scenario {
        let mut s = Scenario::paper_default(tag_positions);
        s.shadowing = ShadowingModel::disabled();
        s.multipath = MultipathModel::disabled();
        s.clock = ClockModel::synchronized();
        s.coupling_radius = 0.0;
        s
    }

    /// Number of tags.
    #[inline]
    pub fn n_tags(&self) -> usize {
        self.tag_positions.len()
    }

    /// The clock model for tag `i` (override or default).
    pub fn clock_for(&self, i: usize) -> ClockModel {
        self.clock_overrides
            .get(i)
            .copied()
            .flatten()
            .unwrap_or(self.clock)
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::InvalidConfig`] when there are no tags, the
    /// PHY profile is invalid, the code family cannot cover the tag
    /// count, or override lengths mismatch.
    pub fn validate(&self) -> Result<()> {
        self.validated_family().map(drop)
    }

    /// [`validate`](Scenario::validate), returning the code family it
    /// builds to check the family's capacity, so the engine builds the
    /// family once.
    pub(crate) fn validated_family(&self) -> Result<Box<dyn CodeFamily + Send + Sync>> {
        if self.tag_positions.is_empty() {
            return Err(CbmaError::InvalidConfig("scenario has no tags".into()));
        }
        self.phy.validate()?;
        let family = self.family.build()?;
        if family.capacity() < self.n_tags() {
            return Err(CbmaError::InvalidConfig(format!(
                "code family {} supports {} codes but scenario has {} tags",
                self.family,
                family.capacity(),
                self.n_tags()
            )));
        }
        if !self.clock_overrides.is_empty() && self.clock_overrides.len() != self.n_tags() {
            return Err(CbmaError::InvalidConfig(format!(
                "clock_overrides has {} entries for {} tags",
                self.clock_overrides.len(),
                self.n_tags()
            )));
        }
        if self.payload_len > cbma_tag::frame::MAX_PAYLOAD {
            return Err(CbmaError::InvalidConfig(format!(
                "payload_len {} exceeds the {}-byte frame limit",
                self.payload_len,
                cbma_tag::frame::MAX_PAYLOAD
            )));
        }
        Ok(family)
    }

    /// Returns a copy with a different seed (independent replication).
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Returns a copy using Gold codes of the given degree (Fig. 9(b)).
    pub fn with_gold_codes(mut self, degree: u32) -> Scenario {
        self.family = FamilyKind::Gold { degree };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(0.1 * i as f64, 0.3)).collect()
    }

    #[test]
    fn paper_default_validates() {
        for n in [1usize, 2, 5, 10] {
            Scenario::paper_default(positions(n)).validate().unwrap();
        }
    }

    #[test]
    fn empty_scenario_is_invalid() {
        assert!(Scenario::paper_default(vec![]).validate().is_err());
    }

    #[test]
    fn family_capacity_is_checked() {
        let mut s = Scenario::paper_default(positions(16));
        s.family = FamilyKind::TwoNc { users: 1 }; // capacity 15 < 16 tags
        assert!(s.validate().is_err());
    }

    #[test]
    fn clock_override_length_is_checked() {
        let mut s = Scenario::paper_default(positions(3));
        s.clock_overrides = vec![None; 2];
        assert!(s.validate().is_err());
    }

    #[test]
    fn clock_for_prefers_override() {
        let mut s = Scenario::clean(positions(2));
        s.clock_overrides[1] = Some(ClockModel::fixed(12.0));
        assert_eq!(s.clock_for(0), ClockModel::synchronized());
        assert_eq!(s.clock_for(1), ClockModel::fixed(12.0));
        // Out-of-range index falls back to the default clock.
        assert_eq!(s.clock_for(99), s.clock);
    }

    #[test]
    fn payload_limit_is_checked() {
        let mut s = Scenario::paper_default(positions(2));
        s.payload_len = 127;
        assert!(s.validate().is_err());
    }

    #[test]
    fn geometry_matches_paper() {
        let s = Scenario::paper_default(positions(2));
        assert_eq!(s.es, Point::new(-0.5, 0.0));
        assert_eq!(s.rx, Point::new(0.5, 0.0));
        assert!((s.coupling_radius - 0.0749).abs() < 0.001);
    }

    #[test]
    fn builders() {
        let s = Scenario::paper_default(positions(2))
            .with_seed(77)
            .with_gold_codes(5);
        assert_eq!(s.seed, 77);
        assert_eq!(s.family, FamilyKind::Gold { degree: 5 });
        s.validate().unwrap();
    }
}
