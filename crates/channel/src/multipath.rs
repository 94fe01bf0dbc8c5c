//! Rician small-scale fading.
//!
//! The office environment is "challenging … with rich multipath" (§I). The
//! dominant line-of-sight reflection plus scattered echoes is the textbook
//! Rician channel: a deterministic LOS component of relative power
//! K/(K+1) plus a circularly-symmetric scattered component of power
//! 1/(K+1), optionally extended with a short tap-delay line of discrete
//! echoes. Fading is frozen per frame (the office is static at frame
//! timescales) and drawn from the simulation's seeded RNG.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cbma_types::Iq;

use crate::shadowing::gaussian;

/// One realized multipath channel: a list of (sample-delay, complex-gain)
/// taps with unit expected total power.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTaps {
    taps: Vec<(usize, Iq)>,
}

impl ChannelTaps {
    /// A single unit tap (no fading, no echo).
    pub fn identity() -> ChannelTaps {
        ChannelTaps {
            taps: vec![(0, Iq::ONE)],
        }
    }

    /// The taps as (delay-in-samples, gain) pairs, first tap at delay 0.
    pub fn taps(&self) -> &[(usize, Iq)] {
        &self.taps
    }

    /// Total power across taps.
    pub fn total_power(&self) -> f64 {
        self.taps.iter().map(|(_, g)| g.power()).sum()
    }
}

/// Rician fading generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultipathModel {
    /// Rician K-factor (linear). Large K → nearly pure LOS;
    /// K = 0 → Rayleigh.
    pub k_factor: f64,
    /// Number of discrete echo taps after the main tap.
    pub echo_taps: usize,
    /// Power decay per echo tap, linear (e.g. 0.25 → each echo 6 dB below
    /// the previous).
    pub echo_decay: f64,
    /// Maximum echo delay in samples.
    pub max_echo_delay: usize,
}

impl MultipathModel {
    /// Indoor office: strong LOS (K = 10) with one weak echo. At chip-scale
    /// sample rates (≈125 ns/sample) a 4 m × 6 m office's delay spread is
    /// sub-sample, so fading is mostly *flat* — echoes beyond one sample
    /// would imply tens of meters of excess path.
    pub fn indoor_default() -> MultipathModel {
        MultipathModel {
            k_factor: 10.0,
            echo_taps: 1,
            echo_decay: 0.05,
            max_echo_delay: 1,
        }
    }

    /// No fading at all (for unit tests and ablations).
    pub fn disabled() -> MultipathModel {
        MultipathModel {
            k_factor: f64::INFINITY,
            echo_taps: 0,
            echo_decay: 0.0,
            max_echo_delay: 0,
        }
    }

    /// Draws one channel realization. The main tap has unit *expected*
    /// power: LOS amplitude √(K/(K+1)) plus scattered component of
    /// variance 1/(K+1).
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> ChannelTaps {
        if self.k_factor.is_infinite() && self.echo_taps == 0 {
            return ChannelTaps::identity();
        }
        let (los, scatter_var) = if self.k_factor.is_infinite() {
            (1.0, 0.0)
        } else {
            (
                (self.k_factor / (self.k_factor + 1.0)).sqrt(),
                1.0 / (self.k_factor + 1.0),
            )
        };
        let sigma = (scatter_var / 2.0).sqrt();
        let main = Iq::new(los + gaussian(rng, sigma), gaussian(rng, sigma));
        let mut taps = vec![(0usize, main)];
        let mut echo_power = self.echo_decay;
        for t in 0..self.echo_taps {
            let delay = (1 + t).min(self.max_echo_delay.max(1));
            let amp = echo_power.sqrt();
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            taps.push((delay, Iq::from_polar(amp * (0.5 + rng.gen::<f64>()), phase)));
            echo_power *= self.echo_decay;
        }
        ChannelTaps { taps }
    }
}

impl Default for MultipathModel {
    fn default() -> MultipathModel {
        MultipathModel::indoor_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_taps_pass_through() {
        let taps = ChannelTaps::identity();
        assert_eq!(taps.taps(), &[(0, Iq::ONE)]);
        assert!((taps.total_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let taps = MultipathModel::disabled().realize(&mut rng);
        assert_eq!(taps, ChannelTaps::identity());
    }

    #[test]
    fn mean_main_tap_power_is_unity() {
        let model = MultipathModel {
            k_factor: 8.0,
            echo_taps: 0,
            echo_decay: 0.0,
            max_echo_delay: 0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..20_000)
            .map(|_| model.realize(&mut rng).taps()[0].1.power())
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 1.0).abs() < 0.03, "mean main-tap power {mean}");
    }

    #[test]
    fn rayleigh_limit_fluctuates_deeply() {
        // K = 0: amplitude is Rayleigh; ~10% of draws fall below
        // 0.1 of the mean power (deep fades exist).
        let model = MultipathModel {
            k_factor: 0.0,
            echo_taps: 0,
            echo_decay: 0.0,
            max_echo_delay: 0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let deep = (0..10_000)
            .filter(|_| model.realize(&mut rng).taps()[0].1.power() < 0.1)
            .count();
        assert!(deep > 500, "only {deep} deep fades in 10k draws");
    }

    #[test]
    fn high_k_concentrates_near_los() {
        let model = MultipathModel {
            k_factor: 100.0,
            echo_taps: 0,
            echo_decay: 0.0,
            max_echo_delay: 0,
        };
        // At K = 100 the scatter component is ~3σ away from the band
        // edges, so a *per-draw* assertion over 1000 draws fails with
        // probability ≈ 1 − (1 − 1e-3)^1000 ≈ 58%. Assert the
        // distribution instead: nearly all draws concentrate in the
        // band and the mean power stays at unity.
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 1000;
        let mut strayed = 0usize;
        let mut sum = 0.0f64;
        for _ in 0..draws {
            let p = model.realize(&mut rng).taps()[0].1.power();
            sum += p;
            if !(0.6..1.5).contains(&p) {
                strayed += 1;
            }
        }
        assert!(strayed <= 10, "K=100: {strayed}/{draws} draws strayed");
        let mean = sum / draws as f64;
        assert!((mean - 1.0).abs() < 0.05, "K=100 mean power {mean}");
    }

    #[test]
    fn echoes_are_delayed_and_weak() {
        let model = MultipathModel::indoor_default();
        let mut rng = StdRng::seed_from_u64(6);
        let taps = model.realize(&mut rng);
        assert_eq!(taps.taps().len(), 2);
        let main_p = taps.taps()[0].1.power();
        for &(delay, gain) in &taps.taps()[1..] {
            assert!(delay >= 1 && delay <= model.max_echo_delay);
            assert!(gain.power() < main_p, "echo stronger than main tap");
        }
    }
}
