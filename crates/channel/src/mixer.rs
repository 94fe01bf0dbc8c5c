//! Superposition of concurrent tag signals at the receiver.
//!
//! The receiver's antenna sees the *sum* of every tag's backscattered
//! waveform — each scaled by its own link gain (the near-far problem of
//! §IV), rotated by an unknown static phase, spread by multipath, shifted
//! by its clock offset — plus ambient interference and the noise floor.
//! [`Mixer::combine_into`] produces that composite IQ stream, which is
//! exactly what `cbma-rx` decodes.

use rand::Rng;

use cbma_dsp::simd;
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

    /// The phasor chain that rotates this tag's envelope: the static
    /// phase, advanced by the residual subcarrier offset every sample.
    fn rotation(&self) -> Rotation {
        Rotation {
            phasor: Iq::phasor(self.phase),
            step: Iq::phasor(self.freq_offset_rad_per_sample),
            amplitude: self.amplitude,
        }
    }

    /// Writes the complex baseband contribution before channel effects
    /// into `clean[..envelope.len()]`; the residual subcarrier offset
    /// makes the phase ramp with time.
    fn rotate_into(&self, clean: &mut [Iq]) {
        let mut rot = self.rotation();
        for (c, &e) in clean.iter_mut().zip(&self.envelope) {
            *c = rot.next(e);
        }
    }

    /// [`rotate_into`](TagSignal::rotate_into) for two tags in one loop.
    /// Each phasor update is a serial chain of dependent multiplies and
    /// adds; running two independent chains side by side overlaps their
    /// latencies. Every sample is the one `rotate_into` writes.
    fn rotate_pair_into(a: &TagSignal, b: &TagSignal, clean_a: &mut [Iq], clean_b: &mut [Iq]) {
        let (mut ra, mut rb) = (a.rotation(), b.rotation());
        let both = a.envelope.len().min(b.envelope.len());
        let (head_a, tail_a) = clean_a[..a.envelope.len()].split_at_mut(both);
        let (head_b, tail_b) = clean_b[..b.envelope.len()].split_at_mut(both);
        for ((ca, &ea), (cb, &eb)) in head_a
            .iter_mut()
            .zip(&a.envelope)
            .zip(head_b.iter_mut().zip(&b.envelope))
        {
            *ca = ra.next(ea);
            *cb = rb.next(eb);
        }
        // At most one of the two has samples left.
        for (c, &e) in tail_a.iter_mut().zip(&a.envelope[both..]) {
            *c = ra.next(e);
        }
        for (c, &e) in tail_b.iter_mut().zip(&b.envelope[both..]) {
            *c = rb.next(e);
        }
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
    ///
    /// The interior, where every tap reads inside the envelope, runs
    /// through [`simd::fade_delay_add`]; the head and tail samples, whose
    /// taps reach before or past the envelope, run here one at a time.
    fn add_faded_delayed(&self, clean: &[Iq], out: &mut [Iq], mask: Option<&[f64]>) {
        let whole = self.delay_samples.floor();
        let frac = self.delay_samples - whole;
        let span = whole as usize..self.extent();
        let out = &mut out[span.clone()];
        let mask = mask.map(|m| &m[span]);
        let taps = self.taps.taps();
        let one = |j: usize, prev: &mut Iq| {
            let mut cur = Iq::ZERO;
            for &(d, g) in taps {
                if let Some(i) = j.checked_sub(d) {
                    cur += clean.get(i).copied().unwrap_or(Iq::ZERO) * g;
                }
            }
            let s = cur.scale(1.0 - frac) + prev.scale(frac);
            *prev = cur;
            // The tag can only reflect while the excitation is on the
            // air.
            match mask {
                Some(mask) => s.scale(mask[j]),
                None => s,
            }
        };
        let delays = || taps.iter().map(|&(d, _)| d);
        let first = delays().max().unwrap_or(0).min(out.len());
        let min_d = delays().min().unwrap_or(0);
        let end = (clean.len() + min_d).clamp(first, out.len());
        let mut prev = Iq::ZERO;
        for (j, o) in out[..first].iter_mut().enumerate() {
            *o += one(j, &mut prev);
        }
        prev = simd::fade_delay_add(
            clean,
            taps,
            first,
            frac,
            prev,
            &mut out[first..end],
            mask.map(|m| &m[first..end]),
        );
        for (j, o) in out.iter_mut().enumerate().skip(end) {
            *o += one(j, &mut prev);
        }
    }
}

/// One tag's phasor chain (see [`TagSignal::rotate_into`]).
struct Rotation {
    phasor: Iq,
    step: Iq,
    amplitude: f64,
}

impl Rotation {
    /// The rotated sample for envelope value `e`, then one step on.
    #[inline]
    fn next(&mut self, e: f64) -> Iq {
        let sample = self.phasor.scale(e * self.amplitude);
        self.phasor *= self.step;
        sample
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
    /// noise-only tail. This allocating form makes two allocations for
    /// any number of tags under a tone on a clean channel: the capture and
    /// the scratch of [`combine_into`](Mixer::combine_into), which does
    /// the work.
    ///
    /// # Panics
    ///
    /// Panics if a tag's delay is negative or non-finite.
    pub fn combine<R: Rng + ?Sized>(&self, rng: &mut R, signals: &[TagSignal]) -> Vec<Iq> {
        let mut capture = Vec::new();
        self.combine_into(rng, signals, &mut capture, &mut Vec::new());
        capture
    }

    /// [`combine`](Mixer::combine) into caller-owned buffers: `capture` is
    /// cleared and refilled with the composite stream, and `scratch`
    /// holds two rotated envelopes. Both keep their capacity, so a caller
    /// that mixes round after round into the same two buffers allocates
    /// nothing once they have grown to the longest round; stale contents
    /// of either never reach the capture.
    ///
    /// Tags are rotated two at a time (see [`TagSignal`]'s paired phasor
    /// chains) into the scratch, shared by every pair, and added to the
    /// capture in order. The interference waveform and excitation mask
    /// are allocated only when they are not trivially silent or always
    /// on: nothing for any number of tags under a tone on a clean channel.
    ///
    /// # Panics
    ///
    /// Panics if a tag's delay is negative or non-finite.
    pub fn combine_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        signals: &[TagSignal],
        capture: &mut Vec<Iq>,
        scratch: &mut Vec<Iq>,
    ) {
        for sig in signals {
            assert!(
                sig.delay_samples >= 0.0 && sig.delay_samples.is_finite(),
                "delay must be non-negative and finite, got {}",
                sig.delay_samples
            );
        }
        let body = signals.iter().map(TagSignal::extent).max().unwrap_or(0);
        let total = self.lead_in + body + self.tail;

        self.noise.samples_into(rng, total, self.bandwidth, capture);

        // A clean channel draws nothing and would only add +0.0 to noise
        // samples, which are never ±0.
        if !matches!(self.interference.kind, InterferenceKind::None) {
            for (b, x) in capture
                .iter_mut()
                .zip(self.interference.waveform(rng, total))
            {
                *b += x;
            }
        }

        // Likewise an always-on excitation draws nothing and its mask
        // would only multiply by 1.0.
        let mask = (!self.excitation.is_continuous())
            .then(|| self.excitation.availability_mask(rng, total));

        // Every rotation writes the samples it is read back for, so the
        // scratch only has to be long enough.
        let longest = signals.iter().map(|s| s.envelope.len()).max().unwrap_or(0);
        if scratch.len() < 2 * longest {
            scratch.resize(2 * longest, Iq::ZERO);
        }
        let (clean_a, clean_b) = scratch[..2 * longest].split_at_mut(longest);
        let out = &mut capture[self.lead_in..];
        let mask = mask.as_deref().map(|m| &m[self.lead_in..]);
        for pair in signals.chunks(2) {
            match pair {
                [a, b] => TagSignal::rotate_pair_into(a, b, clean_a, clean_b),
                [a] => a.rotate_into(clean_a),
                _ => unreachable!("chunks(2) yields one or two tags"),
            }
            for (sig, clean) in pair.iter().zip([&*clean_a, &*clean_b]) {
                sig.add_faded_delayed(&clean[..sig.envelope.len()], out, mask);
            }
        }
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
