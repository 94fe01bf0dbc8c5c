//! Superposition of concurrent tag signals at the receiver.
//!
//! The receiver's antenna sees the *sum* of every tag's backscattered
//! waveform — each scaled by its own link gain (the near-far problem of
//! §IV), rotated by an unknown static phase, spread by multipath, shifted
//! by its clock offset — plus ambient interference and the noise floor.
//! [`Mixer::combine_into`] produces that composite IQ stream, which is
//! exactly what `cbma-rx` decodes; [`Mixer::noise_into`],
//! [`Mixer::begin`] and [`MixPass::add`] produce it with the tags added a
//! few at a time, so a caller needs only the envelopes of the tags it is
//! adding.

use std::ops::Range;

use rand::Rng;

use cbma_dsp::simd;
use cbma_types::units::Hertz;
use cbma_types::Iq;

use crate::awgn::NoiseModel;
use crate::excitation::Excitation;
use crate::interference::{InterferenceKind, InterferenceModel};
use crate::multipath::ChannelTaps;

/// Output samples per block of [`MixPass::add`]. Each tag is rotated,
/// faded and added through a buffer of this many samples plus its
/// longest echo delay, so a pair's two buffers stay in the L1 cache
/// however long the envelopes are. Public so tests can place delays and
/// lengths across block edges.
pub const BLOCK: usize = 1024;

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

    /// Capture-body samples the contribution spans when the envelope is
    /// `envelope_len` samples long: the delay rounded up, the envelope
    /// and the echo tail. A caller that draws the channel before building
    /// the envelopes passes the longest over a round's tags to
    /// [`Mixer::noise_into`].
    pub fn extent_of(&self, envelope_len: usize) -> usize {
        self.delay_samples.ceil() as usize + envelope_len + self.echo_tail()
    }

    /// Length of the contribution including its delay and echo tail.
    fn extent(&self) -> usize {
        self.extent_of(self.envelope.len())
    }

    /// The longest echo delay, in samples.
    fn echo_tail(&self) -> usize {
        self.taps.taps().iter().map(|&(d, _)| d).max().unwrap_or(0)
    }
}

/// The phasor chains of a pair of tags, lane by lane: lane `k` rotates
/// tag `k`'s envelope into its complex baseband contribution before
/// channel effects, starting at the static phase and stepping by the
/// residual subcarrier offset every sample, so the phase ramps with time.
/// Each rotated sample is `phasor.scale(e · amplitude)` and each step
/// `phasor *= step` ([`Iq`]'s products, written out on the parts). Each
/// part is stored for both lanes side by side, so the two chains' updates
/// pack into vector multiplies (see [`Chains::rotate`]).
#[derive(Clone, Copy, Default)]
struct Chains {
    re: [f64; 2],
    im: [f64; 2],
    step_re: [f64; 2],
    step_im: [f64; 2],
    amplitude: [f64; 2],
}

impl Chains {
    fn new(pair: &[TagSignal]) -> Chains {
        let mut chains = Chains::default();
        for (k, sig) in pair.iter().enumerate() {
            let phasor = Iq::phasor(sig.phase);
            let step = Iq::phasor(sig.freq_offset_rad_per_sample);
            chains.re[k] = phasor.re;
            chains.im[k] = phasor.im;
            chains.step_re[k] = step.re;
            chains.step_im[k] = step.im;
            chains.amplitude[k] = sig.amplitude;
        }
        chains
    }

    /// Lane `k`'s rotated sample for envelope value `e`, then one step on.
    #[inline]
    fn next(&mut self, k: usize, e: f64) -> Iq {
        let x = e * self.amplitude[k];
        let (re, im) = (self.re[k], self.im[k]);
        self.re[k] = re * self.step_re[k] - im * self.step_im[k];
        self.im[k] = re * self.step_im[k] + im * self.step_re[k];
        Iq::new(re * x, im * x)
    }

    /// Rotates `env_a` into `clean_a` on lane 0 and `env_b` into
    /// `clean_b` on lane 1. Each step is a serial chain of dependent
    /// multiplies and adds; running the two chains side by side overlaps
    /// their latencies.
    ///
    /// Kept out of line: compiled on its own, the loop updates both
    /// lanes with packed multiplies, while inlined into the block loop it
    /// compiled to scalar code and ran about 10 % slower.
    #[inline(never)]
    fn rotate(&mut self, clean_a: &mut [Iq], env_a: &[f64], clean_b: &mut [Iq], env_b: &[f64]) {
        let both = clean_a.len().min(clean_b.len());
        let (head_a, tail_a) = clean_a.split_at_mut(both);
        let (head_b, tail_b) = clean_b.split_at_mut(both);
        for ((ca, &ea), (cb, &eb)) in head_a
            .iter_mut()
            .zip(env_a)
            .zip(head_b.iter_mut().zip(env_b))
        {
            *ca = self.next(0, ea);
            *cb = self.next(1, eb);
        }
        // At most one of the two has samples left.
        for (c, &e) in tail_a.iter_mut().zip(&env_a[both..]) {
            *c = self.next(0, e);
        }
        for (c, &e) in tail_b.iter_mut().zip(&env_b[both..]) {
            *c = self.next(1, e);
        }
    }
}

/// One tag's progress through the blocks of [`MixPass::add`].
///
/// The tag adds, to output samples `start..end`, the sparse tap sum over
/// its rotated envelope zero-padded to its extent, through the linear
/// interpolation of [`cbma_dsp::fractional_delay`] and the excitation
/// mask. Each block's buffer holds the `hist` padded samples before the
/// block (zeros before the tag's first sample, else the last samples of
/// the previous block), then the block's own, so every output sample runs
/// through [`simd::fade_delay_add`] with every tap inside the buffer.
/// Padding only adds `±0` products to tap sums that start at `+0`, which
/// changes no bit, so every sample equals the stages run one after
/// another over whole buffers.
struct Lane<'s> {
    envelope: &'s [f64],
    taps: &'s [(usize, Iq)],
    /// The longest echo delay: samples carried from block to block.
    hist: usize,
    /// Output sample of the whole delay, where the tag's span starts.
    start: usize,
    /// One past the tag's last output sample (its extent).
    end: usize,
    /// Fractional part of the delay.
    frac: f64,
    /// Tap sum of the sample before the next block.
    prev: Iq,
    buf: &'s mut [Iq],
    /// Samples the last block wrote after the carried ones.
    last: usize,
}

impl<'s> Lane<'s> {
    fn new(sig: &'s TagSignal, buf: &'s mut [Iq]) -> Lane<'s> {
        let whole = sig.delay_samples.floor();
        Lane {
            envelope: &sig.envelope,
            taps: sig.taps.taps(),
            hist: sig.echo_tail(),
            start: whole as usize,
            end: sig.extent(),
            frac: sig.delay_samples - whole,
            prev: Iq::ZERO,
            buf,
            last: 0,
        }
    }

    /// The partner of an odd last tag: it covers no sample.
    fn idle() -> Lane<'s> {
        Lane {
            envelope: &[],
            taps: &[],
            hist: 0,
            start: 0,
            end: 0,
            frac: 0.0,
            prev: Iq::ZERO,
            buf: &mut [],
            last: 0,
        }
    }

    /// Opens output block `o0..o1`. Moves the `hist` padded samples before
    /// the block to the front of the buffer (zeros before the tag's first
    /// block) and zeroes the block's slots past the envelope; returns the
    /// output samples the tag covers in the block, and the slots that
    /// carry envelope samples with those samples.
    fn open(&mut self, o0: usize, o1: usize) -> (Range<usize>, &mut [Iq], &'s [f64]) {
        let lo = o0.clamp(self.start, self.end);
        let hi = o1.clamp(lo, self.end);
        if lo < hi {
            if lo == self.start {
                self.buf[..self.hist].fill(Iq::ZERO);
            } else {
                self.buf.copy_within(self.last..self.last + self.hist, 0);
            }
            self.last = hi - lo;
        }
        let len = self.envelope.len();
        let (k0, k1) = ((lo - self.start).min(len), (hi - self.start).min(len));
        let slots = &mut self.buf[self.hist..self.hist + (hi - lo)];
        let (rotated, padding) = slots.split_at_mut(k1 - k0);
        if !padding.is_empty() {
            padding.fill(Iq::ZERO);
        }
        (lo..hi, rotated, &self.envelope[k0..k1])
    }

    /// Fades, delays and adds the open block into `out`.
    fn fade(&mut self, block: Range<usize>, out: &mut [Iq], mask: Option<&[f64]>) {
        if block.is_empty() {
            return;
        }
        self.prev = simd::fade_delay_add(
            &self.buf[..self.hist + block.len()],
            self.taps,
            self.hist,
            self.frac,
            self.prev,
            &mut out[block.clone()],
            mask.map(|m| &m[block]),
        );
    }
}

/// Adds one tag, or a pair whose two phasor chains share one rotation
/// loop ([`Chains::rotate`]), block by block over the output index, so
/// each output sample receives the first tag and then the second.
fn add_pair(
    pair: &[TagSignal],
    buf_a: &mut [Iq],
    buf_b: &mut [Iq],
    out: &mut [Iq],
    mask: Option<&[f64]>,
) {
    let mut a = Lane::new(&pair[0], buf_a);
    let mut b = match pair.get(1) {
        Some(sig) => Lane::new(sig, buf_b),
        None => Lane::idle(),
    };
    let mut chains = Chains::new(pair);
    let end = pair.iter().map(TagSignal::extent).max().unwrap_or(0);
    let mut o0 = pair
        .iter()
        .map(|s| s.delay_samples.floor() as usize)
        .min()
        .unwrap_or(end);
    while o0 < end {
        let o1 = (o0 + BLOCK).min(end);
        let (block_a, clean_a, env_a) = a.open(o0, o1);
        let (block_b, clean_b, env_b) = b.open(o0, o1);
        chains.rotate(clean_a, env_a, clean_b, env_b);
        a.fade(block_a, out, mask);
        b.fade(block_b, out, mask);
        o0 = o1;
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
    /// holds the two block buffers of [`MixPass::add`], each [`BLOCK`]
    /// samples plus the longest echo delay, whatever the envelope lengths.
    /// Both keep their capacity, so a caller that mixes round after round
    /// into the same two buffers allocates nothing once they have grown;
    /// stale contents of either never reach the capture.
    ///
    /// This is [`noise_into`](Mixer::noise_into) and
    /// [`begin`](Mixer::begin) for the longest tag extent, then one
    /// [`MixPass::add`] of every signal.
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
        let body = signals.iter().map(TagSignal::extent).max().unwrap_or(0);
        self.noise_into(rng, body, capture);
        self.begin(rng, capture).add(signals, scratch);
    }

    /// Draws the noise floor of a capture for tags whose extents
    /// ([`TagSignal::extent_of`]) are at most `body` samples: `capture`
    /// is cleared and refilled with `lead_in + body + tail` noise samples.
    /// These are a capture's first draws from `rng`;
    /// [`begin`](Mixer::begin) continues it.
    pub fn noise_into<R: Rng + ?Sized>(&self, rng: &mut R, body: usize, capture: &mut Vec<Iq>) {
        let total = self.lead_in + body + self.tail;
        self.noise.samples_into(rng, total, self.bandwidth, capture);
    }

    /// Opens a capture whose noise floor [`noise_into`](Mixer::noise_into)
    /// drew: the interference is added and the excitation mask drawn, in
    /// that order from `rng`. The tags then go in through
    /// [`MixPass::add`], which draws nothing, so a caller can build each
    /// envelope just before adding it.
    ///
    /// The interference waveform and excitation mask are allocated only
    /// when they are not trivially silent or always on: nothing under a
    /// tone on a clean channel.
    ///
    /// # Panics
    ///
    /// Panics if `capture` is shorter than `lead_in + tail`.
    pub fn begin<'c, R: Rng + ?Sized>(&self, rng: &mut R, capture: &'c mut [Iq]) -> MixPass<'c> {
        let total = capture.len();
        let body = total
            .checked_sub(self.lead_in + self.tail)
            .expect("the capture holds the lead-in and tail");

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

        MixPass {
            out: &mut capture[self.lead_in..],
            mask,
            lead_in: self.lead_in,
            body,
        }
    }
}

/// A capture opened by [`Mixer::begin`], with its noise, interference
/// and excitation mask in place, that tags are added to.
#[derive(Debug)]
pub struct MixPass<'c> {
    /// The capture after its lead-in: every tag's sample 0 is sample 0.
    out: &'c mut [Iq],
    /// The whole capture's excitation mask, when it is not always on.
    mask: Option<Vec<f64>>,
    lead_in: usize,
    /// The longest extent a tag may have.
    body: usize,
}

impl MixPass<'_> {
    /// Adds `signals` to the capture in order. Pairs of tags are rotated
    /// in one loop (two independent phasor chains side by side) and then
    /// faded, delayed and added, through `scratch` (see
    /// [`combine_into`](Mixer::combine_into)), one [`BLOCK`] of output
    /// samples at a time, so each sample still receives the tags in
    /// order. Adding tags over several calls therefore gives the capture
    /// that one call over all of them gives, bit for bit.
    ///
    /// Every sample is bit-identical to running the stages one after
    /// another over whole buffers: rotate, zero-pad to the tag's extent,
    /// sparse tap convolution, [`cbma_dsp::fractional_delay`], masked
    /// add. Only exact no-ops are skipped: adding the `+0.0` samples
    /// before the integer delay, and multiplying by an always-on mask's
    /// 1.0.
    ///
    /// # Panics
    ///
    /// Panics if a tag's delay is negative or non-finite, or its extent
    /// exceeds the body the capture was opened for.
    pub fn add(&mut self, signals: &[TagSignal], scratch: &mut Vec<Iq>) {
        for sig in signals {
            assert!(
                sig.delay_samples >= 0.0 && sig.delay_samples.is_finite(),
                "delay must be non-negative and finite, got {}",
                sig.delay_samples
            );
            assert!(
                sig.extent() <= self.body,
                "tag extent {} exceeds the capture body of {} samples",
                sig.extent(),
                self.body
            );
        }
        // Every block writes the samples it reads back, so the scratch
        // only has to be long enough.
        let len = BLOCK + signals.iter().map(TagSignal::echo_tail).max().unwrap_or(0);
        if scratch.len() < 2 * len {
            scratch.resize(2 * len, Iq::ZERO);
        }
        let (buf_a, buf_b) = scratch[..2 * len].split_at_mut(len);
        let mask = self.mask.as_deref().map(|m| &m[self.lead_in..]);
        for pair in signals.chunks(2) {
            add_pair(pair, buf_a, buf_b, self.out, mask);
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
