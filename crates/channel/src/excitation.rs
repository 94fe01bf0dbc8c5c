//! Excitation-source models.
//!
//! The excitation source broadcasts either a continuous single-frequency
//! tone or an OFDM signal (§III). A tone gives the tag something to
//! reflect at every instant; OFDM traffic is intermittent, and "the tags
//! do not know when there is signal they can reflect, leading to poor
//! performance" (§VII-C.3, Fig. 12 case iv). The mixer multiplies each
//! tag's chip waveform by the excitation availability envelope, which is
//! exactly the mechanism that degrades OFDM-excited backscatter.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The kind of excitation signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExcitationKind {
    /// Continuous single-frequency tone — always reflectable.
    Tone,
    /// Intermittent OFDM traffic: bursts of presence separated by idle
    /// gaps the tag cannot exploit.
    Ofdm {
        /// Fraction of time the OFDM signal is on the air, in (0, 1].
        duty: f64,
        /// Mean burst duration in samples.
        mean_burst_samples: usize,
    },
}

/// An excitation source with a transmit envelope model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Excitation {
    /// The signal kind.
    pub kind: ExcitationKind,
}

impl Excitation {
    /// Continuous-tone excitation (the paper's main configuration).
    pub fn tone() -> Excitation {
        Excitation {
            kind: ExcitationKind::Tone,
        }
    }

    /// OFDM excitation with the given duty cycle and mean burst length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `duty` is outside (0, 1] or the burst
    /// length is zero.
    pub fn ofdm(duty: f64, mean_burst_samples: usize) -> Excitation {
        debug_assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        debug_assert!(mean_burst_samples > 0, "burst length must be non-zero");
        Excitation {
            kind: ExcitationKind::Ofdm {
                duty,
                mean_burst_samples,
            },
        }
    }

    /// Samples the availability envelope for `n` samples: 1.0 when the
    /// excitation is reflectable, 0.0 during gaps. A tone, or OFDM at
    /// full duty, yields all ones and draws nothing from `rng`.
    pub fn availability_mask<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        match self.kind {
            ExcitationKind::Ofdm {
                duty,
                mean_burst_samples,
            } if !self.is_continuous() => {
                let mut mask = Vec::with_capacity(n);
                // Alternate on-bursts and off-gaps with geometric-ish
                // lengths so the long-run duty matches `duty`.
                let mean_on = mean_burst_samples.max(1) as f64;
                let mean_off = mean_on * (1.0 - duty) / duty;
                let mut on = rng.gen_bool(duty);
                while mask.len() < n {
                    let mean = if on { mean_on } else { mean_off.max(1.0) };
                    // Exponential length via inverse CDF, at least 1.
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let len = (-mean * u.ln()).ceil().max(1.0) as usize;
                    let value = if on { 1.0 } else { 0.0 };
                    for _ in 0..len.min(n - mask.len()) {
                        mask.push(value);
                    }
                    on = !on;
                }
                mask
            }
            _ => vec![1.0; n],
        }
    }

    /// Whether the excitation is on the air at every sample: a tone, or
    /// OFDM at full duty.
    pub(crate) fn is_continuous(&self) -> bool {
        !matches!(self.kind, ExcitationKind::Ofdm { duty, .. } if duty < 1.0)
    }

    /// Long-run fraction of time the excitation is reflectable.
    pub fn duty(&self) -> f64 {
        match self.kind {
            ExcitationKind::Tone => 1.0,
            ExcitationKind::Ofdm { duty, .. } => duty,
        }
    }
}

impl Default for Excitation {
    fn default() -> Excitation {
        Excitation::tone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tone_is_always_available() {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = Excitation::tone().availability_mask(&mut rng, 1000);
        assert_eq!(mask.len(), 1000);
        assert!(mask.iter().all(|&m| m == 1.0));
        assert_eq!(Excitation::tone().duty(), 1.0);
        assert!(Excitation::tone().is_continuous());
    }

    #[test]
    fn full_duty_ofdm_is_always_available() {
        let exc = Excitation::ofdm(1.0, 64);
        let mut rng = StdRng::seed_from_u64(1);
        let mask = exc.availability_mask(&mut rng, 4096);
        assert_eq!(mask.len(), 4096);
        let dark = mask.iter().filter(|&&m| m != 1.0).count();
        assert_eq!(dark, 0, "a full-duty mask left {dark} samples dark");
        // Like a tone, it draws nothing.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
        assert!(exc.is_continuous());
        assert!(!Excitation::ofdm(0.999, 64).is_continuous());
    }

    #[test]
    fn ofdm_duty_matches_configuration() {
        let mut rng = StdRng::seed_from_u64(2);
        let exc = Excitation::ofdm(0.6, 200);
        let mask = exc.availability_mask(&mut rng, 400_000);
        let measured = mask.iter().sum::<f64>() / mask.len() as f64;
        assert!(
            (measured - 0.6).abs() < 0.05,
            "measured duty {measured}, configured 0.6"
        );
    }

    #[test]
    fn ofdm_mask_is_bursty_not_alternating() {
        let mut rng = StdRng::seed_from_u64(3);
        let mask = Excitation::ofdm(0.5, 100).availability_mask(&mut rng, 10_000);
        let transitions = mask.windows(2).filter(|w| w[0] != w[1]).count();
        // With ~100-sample bursts we expect on the order of 100
        // transitions, not thousands.
        assert!(transitions < 500, "too many transitions: {transitions}");
        assert!(transitions > 10, "mask never toggled");
    }

    #[test]
    fn ofdm_mask_length_is_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [0usize, 1, 7, 1000] {
            assert_eq!(
                Excitation::ofdm(0.3, 50)
                    .availability_mask(&mut rng, n)
                    .len(),
                n
            );
        }
    }
}
