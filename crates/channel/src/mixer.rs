//! Superposition of concurrent tag signals at the receiver.
//!
//! The receiver's antenna sees the *sum* of every tag's backscattered
//! waveform — each scaled by its own link gain (the near-far problem of
//! §IV), rotated by an unknown static phase, spread by multipath, shifted
//! by its clock offset — plus ambient interference and the noise floor.
//! [`Mixer::combine`] produces that composite IQ stream, which is exactly
//! what `cbma-rx` decodes.

use rand::Rng;

use cbma_types::units::Hertz;
use cbma_types::Iq;

use crate::awgn::NoiseModel;
use crate::excitation::Excitation;
use crate::interference::{InterferenceKind, InterferenceModel};
use crate::multipath::ChannelTaps;

/// One tag's contribution to the received signal.
#[derive(Debug, Clone)]
pub struct TagSignal {
    /// OOK envelope at the receiver sample rate: 1.0 while the tag
    /// reflects, 0.0 while it absorbs.
    pub envelope: Vec<f64>,
    /// Mean received amplitude in √W (Friis × shadowing × |ΔΓ| state).
    pub amplitude: f64,
    /// Static carrier phase of this tag's reflection path for the frame.
    pub phase: f64,
    /// Realized small-scale fading taps.
    pub taps: ChannelTaps,
    /// Start delay in samples (clock asynchrony), possibly fractional.
    pub delay_samples: f64,
    /// Residual subcarrier frequency offset as *radians per sample*:
    /// tag oscillators are only ppm-accurate, so the inter-tag phase
    /// beats across the frame instead of staying fixed.
    pub freq_offset_rad_per_sample: f64,
}

impl TagSignal {
    /// A flat line-of-sight signal with no fading or delay.
    pub fn ideal(envelope: Vec<f64>, amplitude: f64) -> TagSignal {
        TagSignal {
            envelope,
            amplitude,
            phase: 0.0,
            taps: ChannelTaps::identity(),
            delay_samples: 0.0,
            freq_offset_rad_per_sample: 0.0,
        }
    }

    /// Length of the contribution including its delay and echo tail.
    fn extent(&self) -> usize {
        let tap_tail = self.taps.taps().iter().map(|(d, _)| *d).max().unwrap_or(0);
        self.delay_samples.ceil() as usize + self.envelope.len() + tap_tail
    }

    /// Writes the complex baseband contribution before channel effects
    /// into `clean`; the residual subcarrier offset makes the phase ramp
    /// with time.
    fn rotate_into(&self, clean: &mut Vec<Iq>) {
        let step = Iq::phasor(self.freq_offset_rad_per_sample);
        let mut phasor = Iq::phasor(self.phase);
        clean.clear();
        clean.extend(self.envelope.iter().map(|&e| {
            let sample = phasor.scale(e * self.amplitude);
            phasor *= step;
            sample
        }));
    }

    /// Adds the faded, delayed contribution of the rotated envelope
    /// `clean` to `out`, whose sample 0 is the tag's (the end of the
    /// lead-in), gated by the excitation `mask` aligned with `out`.
    ///
    /// One pass computes, per output sample, the sparse tap convolution
    /// over the envelope zero-padded to [`extent`](TagSignal::extent),
    /// the linear interpolation of [`cbma_dsp::fractional_delay`] and the
    /// masked add, each in the floating-point order of that stage run on
    /// its own, so every sample is bit-identical to running the stages
    /// one after another over whole buffers. Only exact no-ops are
    /// skipped: adding the `+0.0` samples before the integer delay, and
    /// multiplying by an always-on mask's 1.0.
    fn add_faded_delayed(&self, clean: &[Iq], out: &mut [Iq], mask: Option<&[f64]>) {
        let whole = self.delay_samples.floor();
        let frac = self.delay_samples - whole;
        let start = whole as usize;
        let taps = self.taps.taps();
        let faded = |j: usize| {
            let mut acc = Iq::ZERO;
            for &(d, g) in taps {
                if let Some(i) = j.checked_sub(d) {
                    acc += clean.get(i).copied().unwrap_or(Iq::ZERO) * g;
                }
            }
            acc
        };
        let mut prev = Iq::ZERO;
        for (j, k) in (start..self.extent()).enumerate() {
            let cur = faded(j);
            let s = cur.scale(1.0 - frac) + prev.scale(frac);
            prev = cur;
            // The tag can only reflect while the excitation is on the
            // air.
            out[k] += match mask {
                Some(mask) => s.scale(mask[k]),
                None => s,
            };
        }
    }
}

/// Combines tag signals with the channel impairments into received IQ.
#[derive(Debug, Clone)]
pub struct Mixer {
    /// Receiver noise environment.
    pub noise: NoiseModel,
    /// Bandwidth over which the noise integrates (≈ the chip bandwidth).
    pub bandwidth: Hertz,
    /// Excitation availability model (shared by all tags).
    pub excitation: Excitation,
    /// Ambient interference source.
    pub interference: InterferenceModel,
    /// Noise-only samples prepended so the frame detector can estimate the
    /// floor before the burst arrives.
    pub lead_in: usize,
    /// Noise-only samples appended after the last tag contribution ends.
    pub tail: usize,
}

impl Mixer {
    /// A quiet-channel mixer for the given bandwidth with paper-default
    /// noise, tone excitation and no interference.
    pub fn new(bandwidth: Hertz) -> Mixer {
        Mixer {
            noise: NoiseModel::paper_default(),
            bandwidth,
            excitation: Excitation::tone(),
            interference: InterferenceModel::none(),
            lead_in: 256,
            tail: 64,
        }
    }

    /// Builds the composite received IQ stream.
    ///
    /// The buffer is `lead_in + max tag extent + tail` samples: noise-only
    /// lead-in, then the superposed tags (each at its own delay), then a
    /// noise-only tail. Besides the capture it allocates one envelope
    /// scratch, reused by every tag, plus the interference waveform and
    /// excitation mask when those are not trivially silent or always on.
    ///
    /// # Panics
    ///
    /// Panics if a tag's delay is negative or non-finite.
    pub fn combine<R: Rng + ?Sized>(&self, rng: &mut R, signals: &[TagSignal]) -> Vec<Iq> {
        for sig in signals {
            assert!(
                sig.delay_samples >= 0.0 && sig.delay_samples.is_finite(),
                "delay must be non-negative and finite, got {}",
                sig.delay_samples
            );
        }
        let body = signals.iter().map(TagSignal::extent).max().unwrap_or(0);
        let total = self.lead_in + body + self.tail;

        let mut buf = self.noise.samples(rng, total, self.bandwidth);

        // A clean channel draws nothing and would only add +0.0 to noise
        // samples, which are never ±0.
        if !matches!(self.interference.kind, InterferenceKind::None) {
            for (b, x) in buf.iter_mut().zip(self.interference.waveform(rng, total)) {
                *b += x;
            }
        }

        // Likewise an always-on excitation draws nothing and its mask
        // would only multiply by 1.0.
        let mask = (!self.excitation.is_continuous())
            .then(|| self.excitation.availability_mask(rng, total));

        let longest = signals.iter().map(|s| s.envelope.len()).max().unwrap_or(0);
        let mut clean = Vec::with_capacity(longest);
        for sig in signals {
            sig.rotate_into(&mut clean);
            sig.add_faded_delayed(
                &clean,
                &mut buf[self.lead_in..],
                mask.as_deref().map(|m| &m[self.lead_in..]),
            );
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_types::units::{Db, Dbm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_mixer() -> Mixer {
        Mixer {
            noise: NoiseModel::new(Db::new(0.0), Dbm::new(-200.0)),
            bandwidth: Hertz::new(1.0),
            excitation: Excitation::tone(),
            interference: InterferenceModel::none(),
            lead_in: 16,
            tail: 8,
        }
    }

    #[test]
    fn single_tag_appears_after_lead_in() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = TagSignal::ideal(vec![1.0, 1.0, 0.0, 1.0], 2.0);
        let buf = mixer.combine(&mut rng, &[sig]);
        assert_eq!(buf.len(), 16 + 4 + 8);
        assert!(buf[..16].iter().all(|s| s.abs() < 1e-3));
        assert!((buf[16].re - 2.0).abs() < 1e-3);
        assert!((buf[17].re - 2.0).abs() < 1e-3);
        assert!(buf[18].abs() < 1e-3);
        assert!((buf[19].re - 2.0).abs() < 1e-3);
    }

    #[test]
    fn two_tags_superpose_linearly() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(2);
        let a = TagSignal::ideal(vec![1.0, 1.0], 1.0);
        let b = TagSignal::ideal(vec![1.0, 0.0], 3.0);
        let buf = mixer.combine(&mut rng, &[a, b]);
        assert!((buf[16].re - 4.0).abs() < 1e-3);
        assert!((buf[17].re - 1.0).abs() < 1e-3);
    }

    #[test]
    fn delay_shifts_a_tag() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sig = TagSignal::ideal(vec![1.0, 1.0], 1.0);
        sig.delay_samples = 2.0;
        let buf = mixer.combine(&mut rng, &[sig]);
        assert!(buf[16].abs() < 1e-3);
        assert!(buf[17].abs() < 1e-3);
        assert!((buf[18].re - 1.0).abs() < 1e-3);
        assert!((buf[19].re - 1.0).abs() < 1e-3);
    }

    #[test]
    fn phase_rotates_the_contribution() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sig = TagSignal::ideal(vec![1.0], 1.0);
        sig.phase = std::f64::consts::FRAC_PI_2;
        let buf = mixer.combine(&mut rng, &[sig]);
        assert!(buf[16].re.abs() < 1e-3);
        assert!((buf[16].im - 1.0).abs() < 1e-3);
    }

    #[test]
    fn empty_signal_list_is_noise_only() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(5);
        let buf = mixer.combine(&mut rng, &[]);
        assert_eq!(buf.len(), 16 + 8);
    }

    #[test]
    fn noise_floor_present_throughout() {
        let mut mixer = quiet_mixer();
        mixer.noise = NoiseModel::new(Db::new(0.0), Dbm::new(-30.0));
        let mut rng = StdRng::seed_from_u64(6);
        let buf = mixer.combine(&mut rng, &[]);
        let mean: f64 = buf.iter().map(|s| s.power()).sum::<f64>() / buf.len() as f64;
        let expected = Dbm::new(-30.0).to_watts().get();
        assert!((mean / expected - 1.0).abs() < 0.6, "noise power off");
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_delay_panics() {
        let mut sig = TagSignal::ideal(vec![1.0], 1.0);
        sig.delay_samples = -0.5;
        quiet_mixer().combine(&mut StdRng::seed_from_u64(8), &[sig]);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn non_finite_delay_panics() {
        let mut sig = TagSignal::ideal(vec![1.0], 1.0);
        sig.delay_samples = f64::NAN;
        quiet_mixer().combine(&mut StdRng::seed_from_u64(9), &[sig]);
    }

    #[test]
    fn multipath_tail_extends_contribution() {
        let mixer = quiet_mixer();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sig = TagSignal::ideal(vec![1.0], 1.0);
        sig.taps = ChannelTaps::identity();
        let base_len = mixer.combine(&mut rng, &[sig.clone()]).len();
        // Add an echo 3 samples later: extent grows by 3.
        let taps = crate::multipath::MultipathModel {
            k_factor: f64::INFINITY,
            echo_taps: 1,
            echo_decay: 0.25,
            max_echo_delay: 3,
        }
        .realize(&mut rng);
        sig.taps = taps;
        let echo_len = mixer.combine(&mut rng, &[sig]).len();
        assert!(echo_len > base_len);
    }
}
