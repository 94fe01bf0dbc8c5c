//! Receiver noise floor.
//!
//! The weak backscatter signal competes against thermal noise plus the
//! residual excitation-carrier leakage a real direct-conversion receiver
//! sees even at the shifted frequency f_c − Δf (§VII-B.1: below 0 dBm
//! excitation "the backscatter signal is so weak and can easily be buried
//! in the environmental noise"). [`NoiseModel`] produces complex AWGN at a
//! power set by thermal noise over the signal bandwidth, a receiver noise
//! figure, and a leakage floor.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cbma_types::units::{Db, Dbm, Hertz};
use cbma_types::Iq;

use crate::shadowing::gaussian;

/// Thermal noise density at 290 K in dBm/Hz.
pub const THERMAL_NOISE_DBM_PER_HZ: f64 = -174.0;

/// The receiver's noise environment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Receiver noise figure.
    pub noise_figure: Db,
    /// Residual excitation/carrier leakage and ambient floor, independent
    /// of bandwidth. Set to `Dbm::new(f64::NEG_INFINITY)` to disable.
    pub leakage_floor: Dbm,
}

impl NoiseModel {
    /// Creates a model from a noise figure and leakage floor.
    pub fn new(noise_figure: Db, leakage_floor: Dbm) -> NoiseModel {
        NoiseModel {
            noise_figure,
            leakage_floor,
        }
    }

    /// Default calibrated to reproduce the paper's error-rate shape: 6 dB
    /// noise figure and a −87 dBm leakage/ambient floor (indoor office
    /// with an active excitation source 1 m away).
    pub fn paper_default() -> NoiseModel {
        NoiseModel::new(Db::new(6.0), Dbm::new(-87.0))
    }

    /// An idealized quiet receiver (thermal only), for unit tests.
    pub fn thermal_only() -> NoiseModel {
        NoiseModel::new(Db::new(0.0), Dbm::new(f64::NEG_INFINITY))
    }

    /// Total noise power over `bandwidth`: thermal·NF + leakage.
    pub fn noise_power(&self, bandwidth: Hertz) -> Dbm {
        let thermal_dbm = THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * bandwidth.get().max(1.0).log10()
            + self.noise_figure.get();
        let thermal_mw = 10f64.powf(thermal_dbm / 10.0);
        let leak_mw = if self.leakage_floor.get().is_finite() {
            self.leakage_floor.to_milliwatts()
        } else {
            0.0
        };
        Dbm::new(10.0 * (thermal_mw + leak_mw).log10())
    }

    /// Generates `n` complex AWGN samples with total power matching
    /// [`noise_power`](NoiseModel::noise_power) over `bandwidth`.
    /// Amplitudes are in √W, matching the mixer's signal scale.
    pub fn samples<R: Rng + ?Sized>(&self, rng: &mut R, n: usize, bandwidth: Hertz) -> Vec<Iq> {
        let mut out = Vec::new();
        self.samples_into(rng, n, bandwidth, &mut out);
        out
    }

    /// [`samples`](NoiseModel::samples) into a caller-owned buffer: `out`
    /// is cleared and refilled with `n` samples, keeping its capacity.
    pub fn samples_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        bandwidth: Hertz,
        out: &mut Vec<Iq>,
    ) {
        let power_w = self.noise_power(bandwidth).to_watts().get();
        let sigma = (power_w / 2.0).sqrt(); // per quadrature component
        out.clear();
        out.extend((0..n).map(|_| Iq::new(gaussian(rng, sigma), gaussian(rng, sigma))));
    }
}

impl Default for NoiseModel {
    fn default() -> NoiseModel {
        NoiseModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn thermal_noise_at_1mhz() {
        // kTB over 1 MHz = -114 dBm; with NF 0 and no leakage.
        let m = NoiseModel::thermal_only();
        let p = m.noise_power(Hertz::from_mhz(1.0));
        assert!((p.get() - (-114.0)).abs() < 0.1, "p = {p}");
    }

    #[test]
    fn leakage_dominates_at_narrow_bandwidth() {
        let m = NoiseModel::paper_default();
        let p = m.noise_power(Hertz::new(1.0e3)); // 1 kHz: thermal ≈ -138 dBm
        assert!((p.get() - (-87.0)).abs() < 0.2, "p = {p}");
    }

    #[test]
    fn wider_bandwidth_means_more_noise() {
        let m = NoiseModel::paper_default();
        let narrow = m.noise_power(Hertz::from_mhz(1.0));
        let wide = m.noise_power(Hertz::from_mhz(20.0));
        assert!(wide.get() > narrow.get());
    }

    #[test]
    fn sample_power_matches_model() {
        let m = NoiseModel::paper_default();
        let bw = Hertz::from_mhz(1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = m.samples(&mut rng, 50_000, bw);
        let measured: f64 = samples.iter().map(|s| s.power()).sum::<f64>() / samples.len() as f64;
        let expected = m.noise_power(bw).to_watts().get();
        assert!(
            (measured / expected - 1.0).abs() < 0.05,
            "measured {measured:e}, expected {expected:e}"
        );
    }

    #[test]
    fn noise_is_circularly_symmetric() {
        let m = NoiseModel::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        let samples = m.samples(&mut rng, 50_000, Hertz::from_mhz(1.0));
        let pi: f64 = samples.iter().map(|s| s.re * s.re).sum();
        let pq: f64 = samples.iter().map(|s| s.im * s.im).sum();
        assert!((pi / pq - 1.0).abs() < 0.05, "I/Q power ratio {}", pi / pq);
    }
}
