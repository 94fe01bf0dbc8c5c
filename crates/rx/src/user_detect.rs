//! User detection by preamble cross-correlation (§III-B).
//!
//! > "We utilize the orthogonality feature among PN sequences to perform
//! > user detection. Specifically, we use each of the PN sequences to
//! > cross-correlate with the preamble of the received frame. If the
//! > correlation value of a PN sequence is larger than a predetermined
//! > threshold, the user with this PN sequence is determined to be in the
//! > frame with high probability."
//!
//! For each candidate code the detector builds the *spread preamble*
//! reference — the known alternating preamble bits spread by that code and
//! mapped to ±1 at the receiver sample rate — and slides it over a search
//! window around the energy edge. Because concurrent tags are
//! asynchronous, each detected user gets its own alignment offset, and the
//! complex correlation at the peak doubles as the channel-gain estimate
//! the decoder needs for coherent bit decisions.
//!
//! # Computational structure
//!
//! The sliding correlation is the receiver's dominant cost. Every code's
//! spread preamble has one length (the constructor rejects a code set
//! whose codes differ in length), so the detector precomputes one
//! [`BatchCorrelator`] at construction — the K reference spectra cached
//! against one overlap-save FFT plan — and
//! [`UserDetector::detect_candidates`] evaluates all K correlation
//! profiles with one forward FFT per block, O(N log B) instead of
//! O(K × lags × ref_len). Every window at least one reference long takes
//! this engine, for both decision statistics; a shorter window has no
//! lag and reports no candidate. Per-lag segment energies come from a
//! single [`RunningEnergy`] prefix sum over the window (O(1) per lag
//! instead of O(ref_len)). Each batched row is pinned against the direct
//! sliding dot products within 1e-9 by `cbma-dsp`'s
//! `tests/simd_equivalence.rs`. [`UserDetector::probe`] and the
//! per-candidate gain estimate correlate one exact lag directly.

use cbma_codes::PnCode;
use cbma_dsp::correlate::correlate_iq_bipolar;
use cbma_dsp::resample::upsample_repeat;
use cbma_dsp::simd;
use cbma_dsp::xcorr::{BatchCorrelator, BatchScratch, RunningEnergy};
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_tag::frame::preamble_pattern;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::decoder::DecoderKind;

/// Reusable buffers for [`UserDetector::detect_candidates_in`].
///
/// Every intermediate the detector needs — the window prefix sums, the
/// magnitude series, the batched correlation matrix, the raw/normalized
/// profile and the peak lists — and its per-code candidate lists live
/// here and grow to a high-water mark on first use, so steady-state
/// detection performs zero heap allocation.
#[derive(Debug, Default)]
pub struct DetectScratch {
    running: RunningEnergy,
    /// The |s| magnitude series as IQ, the batch engine's input
    /// (envelope mode only).
    mags: Vec<Iq>,
    /// K × lags correlation matrix from the batch engine.
    batch: BatchScratch,
    /// Per-lag decision statistic (raw, then normalized in place).
    profile: Vec<f64>,
    /// Above-threshold local maxima, then the NMS-selected subset.
    peaks: Vec<(usize, f64)>,
    selected: Vec<(usize, f64)>,
    /// The last scan's candidates, one list per code.
    candidates: Vec<Vec<DetectedUser>>,
}

impl DetectScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> DetectScratch {
        DetectScratch::default()
    }

    /// The candidates of the last [`UserDetector::detect_candidates_in`]
    /// call: one list per code, strongest first.
    pub fn candidates(&self) -> &[Vec<DetectedUser>] {
        &self.candidates
    }

    /// Total heap capacity held by the scratch, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        let iq = std::mem::size_of::<Iq>();
        let pair = std::mem::size_of::<(usize, f64)>();
        self.running.capacity_bytes()
            + self.batch.capacity_bytes()
            + self.mags.capacity() * iq
            + self.profile.capacity() * std::mem::size_of::<f64>()
            + (self.peaks.capacity() + self.selected.capacity()) * pair
            + self.candidates.capacity() * std::mem::size_of::<Vec<DetectedUser>>()
            + self
                .candidates
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<DetectedUser>())
                .sum::<usize>()
    }
}

/// The code-independent half of a probe's normalization at one offset:
/// the segment energy [`UserDetector::probe`] sums over the reference
/// span, which is the same for every code probed there. The receiver
/// takes it once per probe offset ([`UserDetector::segment_energy`]) and
/// hands it to [`UserDetector::probe_with`] for each code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentEnergy {
    /// Mean |s| over the span (envelope mode; 0 in coherent mode).
    mean_abs: f64,
    /// Σ|s|² (coherent), or the mean-removed envelope energy
    /// Σ(|s|−mean)² = Σ|s|² − n·mean² (envelope).
    energy: f64,
}

/// A user found in the received frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedUser {
    /// Index of the PN code (== tag id) that matched.
    pub code_index: usize,
    /// Sample offset (into the scanned buffer) where the user's frame
    /// starts.
    pub start: usize,
    /// Normalized correlation at the peak, in [0, 1].
    pub correlation: f64,
    /// Complex channel-gain estimate ĝ from the preamble.
    pub channel_gain: Iq,
}

/// The user detector for a known code set.
#[derive(Debug)]
pub struct UserDetector {
    /// Bipolar spread-preamble reference per code, at sample rate.
    references: Vec<Vec<f64>>,
    /// Shared-FFT K-code engine: one forward FFT per block multiplied
    /// against every cached reference spectrum.
    batch: BatchCorrelator,
    /// Σr² per code, precomputed for the normalization denominator.
    ref_energy: Vec<f64>,
    /// Σr per code, precomputed for the envelope mean correction.
    ref_sum: Vec<f64>,
    /// Per-code balance-corrected correlation scale (see
    /// [`UserDetector::detect_in`]).
    gain_scale: Vec<f64>,
    threshold: f64,
    samples_per_chip: usize,
    kind: DecoderKind,
}

impl UserDetector {
    /// Builds a detector for the full code set of a deployment.
    ///
    /// `threshold` is the normalized-correlation decision level in (0, 1);
    /// the evaluation uses 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside (0, 1), `codes` is empty or the
    /// codes differ in length (see [`UserDetector::with_kind`]).
    pub fn new(codes: &[PnCode], phy: &PhyProfile, threshold: f64) -> UserDetector {
        UserDetector::with_kind(codes, phy, threshold, DecoderKind::Coherent)
    }

    /// Builds a detector with an explicit decision statistic.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside (0, 1), `codes` is empty, or the
    /// codes differ in length: the shared-FFT engine needs every spread
    /// preamble to have one length, and every built-in code family
    /// yields codes of one length.
    pub fn with_kind(
        codes: &[PnCode],
        phy: &PhyProfile,
        threshold: f64,
        kind: DecoderKind,
    ) -> UserDetector {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1), got {threshold}"
        );
        assert!(!codes.is_empty(), "need at least one code");
        assert!(
            codes.iter().all(|c| c.len() == codes[0].len()),
            "codes must share one length so their spread preambles do"
        );
        let spc = phy.samples_per_chip();
        let preamble = preamble_pattern(phy.preamble_bits);
        let mut references = Vec::with_capacity(codes.len());
        let mut ref_energy: Vec<f64> = Vec::with_capacity(codes.len());
        let mut ref_sum = Vec::with_capacity(codes.len());
        let mut gain_scale = Vec::with_capacity(codes.len());
        for code in codes {
            let mut chips: Vec<f64> = Vec::with_capacity(preamble.len() * code.len());
            for bit in preamble.iter() {
                let word = if bit == 1 {
                    code.bipolar_one()
                } else {
                    code.bipolar_zero()
                };
                chips.extend_from_slice(word);
            }
            let reference = upsample_repeat(&chips, spc);
            // The received OOK envelope is (b+1)/2, so
            // E[corr] = ĝ · (Σb² + Σb)/2 = ĝ · (n + balance)/2.
            let sum: f64 = reference.iter().sum();
            let n = reference.len() as f64;
            gain_scale.push((n + sum) / 2.0);
            ref_energy.push(reference.iter().map(|r| r * r).sum());
            ref_sum.push(sum);
            references.push(reference);
        }
        let batch = BatchCorrelator::new(&references);
        UserDetector {
            references,
            batch,
            ref_energy,
            ref_sum,
            gain_scale,
            threshold,
            samples_per_chip: spc,
            kind,
        }
    }

    /// The detection threshold.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Length of the spread-preamble reference in samples, the same for
    /// every code.
    pub fn reference_len(&self) -> usize {
        self.batch.reference_len()
    }

    /// Scans `window` (a slice of the received buffer starting at
    /// `window_origin`) for every known code. Returns, per code, up to
    /// `max_candidates` alignment candidates above the threshold, ordered
    /// by decreasing correlation. Codes with no candidate get an empty
    /// vector.
    ///
    /// Multiple candidates matter because an alternating preamble under
    /// complement signalling repeats its correlation magnitude at whole-
    /// code-word shifts, and interference can push a sidelobe above the
    /// true peak — the receiver disambiguates by *validating* candidates
    /// (preamble/CRC check) in correlation order, the way hardware
    /// receivers qualify sync candidates.
    pub fn detect_candidates(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
    ) -> Vec<Vec<DetectedUser>> {
        let mut scratch = DetectScratch::new();
        self.detect_candidates_in(
            window,
            window_origin,
            max_candidates,
            &[],
            &mut scratch,
            None,
        );
        scratch.candidates
    }

    /// Allocation-free core of [`UserDetector::detect_candidates`]: all
    /// intermediates and the per-code candidate lists live in `scratch`
    /// (read the lists with [`DetectScratch::candidates`]; inner vectors
    /// are cleared, not dropped). Once it has reached its high-water size
    /// a call performs zero heap allocation.
    ///
    /// `skip` masks codes (see [`BatchCorrelator::correlate_iq_into`]): a
    /// code with `skip[k]` true is neither correlated nor scanned and
    /// gets no candidate; every other code's candidates are those of an
    /// unmasked scan, bit for bit. `&[]` scans every code.
    ///
    /// `trace` is `(tracer, trace id, parent span)`: with it, the
    /// shared-FFT pass records a `batch_correlate` child span (with
    /// `fft_block` grandchildren from the engine) and every per-code
    /// profile scan records a `correlate` span (arg = code index) under
    /// the parent; `None` costs one branch per code.
    pub fn detect_candidates_in(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
        skip: &[bool],
        scratch: &mut DetectScratch,
        trace: Option<(&Tracer, TraceId, SpanId)>,
    ) {
        let DetectScratch {
            running,
            mags,
            batch,
            profile,
            peaks,
            selected,
            candidates,
        } = scratch;
        candidates.truncate(self.references.len());
        for v in candidates.iter_mut() {
            v.clear();
        }
        candidates.resize_with(self.references.len(), Vec::new);
        let len = self.reference_len();
        if window.len() < len {
            return;
        }
        // One prefix-sum pass over the window serves every code's per-lag
        // normalization: Σ|s|² for the coherent denominator, Σ|s| (mean)
        // and the mean-removed energy for the envelope statistic. Only
        // envelope mode reads Σ|s|, so only it pays for the magnitudes.
        let envelope_mode = matches!(self.kind, DecoderKind::Envelope);
        if envelope_mode {
            running.rebuild(window);
        } else {
            running.rebuild_power(window);
        }
        // Envelope mode correlates the |s| magnitude series: materialize
        // it once, as IQ for the batch engine, and share it across codes.
        let input: &[Iq] = if envelope_mode {
            mags.clear();
            mags.extend(window.iter().map(|s| Iq::new(s.power().sqrt(), 0.0)));
            mags
        } else {
            window
        };
        {
            let span = trace
                .map(|(tracer, trace, parent)| tracer.span(trace, Some(parent), "batch_correlate"));
            let batch_trace = trace
                .zip(span.as_ref())
                .map(|((tracer, trace, _), span)| (tracer, trace, span.id()));
            self.batch
                .correlate_iq_into(input, skip, batch, batch_trace);
        }
        for (idx, reference) in self.references.iter().enumerate() {
            if skip.get(idx) == Some(&true) {
                continue;
            }
            let _code_span = trace.map(|(tracer, trace, parent)| {
                let mut span = tracer.span(trace, Some(parent), "correlate");
                span.set_arg(idx as u64);
                span
            });
            let ref_energy = self.ref_energy[idx];
            let ref_sum = self.ref_sum[idx];
            // Raw (unnormalized) decision statistic at every lag. Coherent
            // mode takes |Σ s·r| (noncoherent magnitude of the complex
            // correlation); envelope mode takes |Σ(|s|−mean)·r| =
            // |Σ|s|·r − mean·Σr|, with the batch row supplying Σ|s|·r.
            let row = batch.code(idx);
            profile.clear();
            if envelope_mode {
                profile.extend(
                    row.iter()
                        .enumerate()
                        .map(|(off, c)| (c.re - running.mean_abs(off, len) * ref_sum).abs()),
                );
            } else {
                profile.resize(row.len(), 0.0);
                simd::magnitudes_into(row, profile);
            }
            // Sliding normalized correlation, in place: normalize by the
            // reference energy and the per-lag windowed signal energy
            // (O(1) prefix lookups).
            for (off, c) in profile.iter_mut().enumerate() {
                let seg_energy = match self.kind {
                    DecoderKind::Coherent => running.power(off, len),
                    DecoderKind::Envelope => running.centered_energy(off, len),
                };
                let denom = (seg_energy * ref_energy).sqrt();
                *c = if denom > 0.0 { *c / denom } else { 0.0 };
            }
            self.select_peaks(profile, max_candidates, peaks, selected);
            candidates[idx].extend(selected.iter().map(|&(off, val)| {
                let seg = &window[off..off + len];
                let gain = self.gain_estimate(correlate_iq_bipolar(seg, reference), idx);
                DetectedUser {
                    code_index: idx,
                    start: window_origin + off,
                    correlation: val,
                    channel_gain: gain,
                }
            }));
        }
    }

    /// Probes one exact alignment for one code: computes the normalized
    /// preamble correlation and channel-gain estimate at `start` (an
    /// absolute offset into `samples`). Returns `None` when the buffer is
    /// too short.
    ///
    /// Used by the receiver's fine-alignment fallback: under concurrent
    /// orthogonal tags the correlation profile *dips* at the true
    /// alignment (MAI is nulled there and leaks everywhere else), so the
    /// true start may not be a local maximum — but it can be probed
    /// directly from a timing hypothesis.
    pub fn probe(&self, samples: &[Iq], start: usize, code_index: usize) -> Option<DetectedUser> {
        let energy = self.segment_energy(samples, start)?;
        self.probe_with(samples, start, code_index, energy)
    }

    /// The segment energy a probe at `start` normalizes by, for whichever
    /// code it probes; `None` when the buffer is too short.
    pub(crate) fn segment_energy(&self, samples: &[Iq], start: usize) -> Option<SegmentEnergy> {
        let seg = samples.get(start..start + self.reference_len())?;
        Some(match self.kind {
            DecoderKind::Coherent => SegmentEnergy {
                mean_abs: 0.0,
                energy: seg.iter().map(|s| s.power()).sum(),
            },
            DecoderKind::Envelope => {
                let n = seg.len() as f64;
                let (mut sum_abs, mut sum_sq) = (0.0, 0.0);
                for s in seg {
                    let a = s.abs();
                    sum_abs += a;
                    sum_sq += a * a;
                }
                let mean = sum_abs / n;
                SegmentEnergy {
                    mean_abs: mean,
                    energy: (sum_sq - n * mean * mean).max(0.0),
                }
            }
        })
    }

    /// [`UserDetector::probe`] with the segment energy at `start` already
    /// taken ([`UserDetector::segment_energy`] on the same samples and
    /// offset): the result is bit-identical, and only the code-dependent
    /// correlation is computed.
    pub(crate) fn probe_with(
        &self,
        samples: &[Iq],
        start: usize,
        code_index: usize,
        energy: SegmentEnergy,
    ) -> Option<DetectedUser> {
        let reference = &self.references[code_index];
        let seg = samples.get(start..start + reference.len())?;
        // One IQ correlation serves both the coherent statistic and the
        // channel-gain estimate.
        let corr = correlate_iq_bipolar(seg, reference);
        let c = match self.kind {
            DecoderKind::Coherent => corr.abs(),
            DecoderKind::Envelope => {
                // Σ(|s|−mean)·r = Σ|s|·r − mean·Σr.
                let mut dot_sr = 0.0;
                for (s, &r) in seg.iter().zip(reference) {
                    dot_sr += s.abs() * r;
                }
                (dot_sr - energy.mean_abs * self.ref_sum[code_index]).abs()
            }
        };
        let denom = (energy.energy * self.ref_energy[code_index]).sqrt();
        Some(DetectedUser {
            code_index,
            start,
            correlation: if denom > 0.0 { c / denom } else { 0.0 },
            channel_gain: self.gain_estimate(corr, code_index),
        })
    }

    /// Channel-gain estimate from the preamble correlation `corr` at an
    /// exact alignment (used by the coherent decoder; informational in
    /// envelope mode).
    fn gain_estimate(&self, corr: Iq, code_index: usize) -> Iq {
        corr / self.gain_scale[code_index]
    }

    /// Local maxima of `profile` above the threshold, non-maximum-
    /// suppressed over a ±one-chip neighbourhood (candidates one chip
    /// apart are genuinely different alignments the decoder must test),
    /// strongest first, at most `max_candidates`. Results land in
    /// `selected`; `peaks` is working storage.
    fn select_peaks(
        &self,
        profile: &[f64],
        max_candidates: usize,
        peaks: &mut Vec<(usize, f64)>,
        selected: &mut Vec<(usize, f64)>,
    ) {
        let nms_radius = self.samples_per_chip.max(2);
        peaks.clear();
        peaks.extend(
            (0..profile.len())
                .filter(|&i| {
                    let v = profile[i];
                    v >= self.threshold
                        && (i == 0 || profile[i - 1] <= v)
                        && (i + 1 == profile.len() || profile[i + 1] < v)
                })
                .map(|i| (i, profile[i])),
        );
        peaks.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        selected.clear();
        for &(off, val) in peaks.iter() {
            if selected.iter().all(|&(o, _)| off.abs_diff(o) >= nms_radius) {
                selected.push((off, val));
                if selected.len() >= max_candidates {
                    break;
                }
            }
        }
    }

    /// Convenience wrapper returning only each code's strongest candidate.
    pub fn detect_in(&self, window: &[Iq], window_origin: usize) -> Vec<DetectedUser> {
        self.detect_candidates(window, window_origin, 1)
            .into_iter()
            .filter_map(|c| c.into_iter().next())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily};
    use cbma_tag::encoder::spread;
    use cbma_tag::modulator::ook_envelope;

    fn phy() -> PhyProfile {
        PhyProfile::paper_default()
    }

    /// Builds the received IQ for a preamble-led chip stream with a given
    /// complex gain, preceded by `lead` zero samples.
    fn rx_signal(code: &PnCode, gain: Iq, lead: usize, extra_bits: &str) -> Vec<Iq> {
        let p = phy();
        let mut bits = preamble_pattern(p.preamble_bits);
        for b in cbma_types::Bits::from_str(extra_bits).unwrap().iter() {
            bits.push(b);
        }
        let env = ook_envelope(&spread(&bits, code), p.samples_per_chip());
        let mut buf = vec![Iq::ZERO; lead];
        buf.extend(env.iter().map(|&e| gain.scale(e)));
        buf
    }

    /// Codes 0 and 1 received asynchronously, starting at samples 20
    /// and 60 with orthogonal phases.
    fn two_users(codes: &[PnCode]) -> Vec<Iq> {
        let mut buf = rx_signal(&codes[1], Iq::new(0.0, 1.0), 60, "11");
        for (i, s) in rx_signal(&codes[0], Iq::new(1.0, 0.0), 20, "01")
            .into_iter()
            .enumerate()
        {
            buf[i] += s;
        }
        buf
    }

    #[test]
    fn detects_single_user_at_correct_offset() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(4).unwrap();
        let det = UserDetector::new(&codes, &phy(), 0.5);
        let buf = rx_signal(&codes[2], Iq::new(1.0, 0.0), 40, "1100");
        let users = det.detect_in(&buf, 0);
        assert_eq!(users.len(), 1);
        assert_eq!(users[0].code_index, 2);
        assert_eq!(users[0].start, 40);
        // A clean OOK signal tops out near √2/2 ≈ 0.707 in this
        // normalization (the envelope's DC half carries no correlation).
        assert!(users[0].correlation > 0.65, "corr {}", users[0].correlation);
    }

    #[test]
    fn channel_gain_estimate_recovers_phase_and_amplitude() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(2).unwrap();
        let det = UserDetector::new(&codes, &phy(), 0.5);
        let g = Iq::from_polar(0.02, 1.1);
        let buf = rx_signal(&codes[0], g, 16, "10");
        let users = det.detect_in(&buf, 0);
        assert_eq!(users.len(), 1);
        let est = users[0].channel_gain;
        assert!((est.abs() - 0.02).abs() / 0.02 < 0.1, "gain {est}");
        assert!((est.arg() - 1.1).abs() < 0.1, "phase {}", est.arg());
    }

    #[test]
    fn detects_two_asynchronous_users() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(3).unwrap();
        let det = UserDetector::with_kind(&codes, &phy(), 0.35, DecoderKind::Coherent);
        let buf = two_users(&codes);
        let candidates = det.detect_candidates(&buf, 0, 4);
        assert!(!candidates[0].is_empty(), "user 0 missed");
        assert!(!candidates[1].is_empty(), "user 1 missed");
        assert!(
            candidates[2].is_empty(),
            "phantom user 2: {:?}",
            candidates[2]
        );
        // The true alignments must be among the qualified candidates (the
        // receiver disambiguates by decode validation).
        assert!(
            candidates[0].iter().any(|u| u.start == 20),
            "user 0 candidates {:?}",
            candidates[0]
        );
        assert!(
            candidates[1].iter().any(|u| u.start == 60),
            "user 1 candidates {:?}",
            candidates[1]
        );
    }

    #[test]
    fn tracing_fills_the_same_candidates_and_nests_the_kernel_spans() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(3).unwrap();
        let det = UserDetector::with_kind(&codes, &phy(), 0.35, DecoderKind::Coherent);
        let buf = two_users(&codes);
        let detect = |trace| {
            let mut scratch = DetectScratch::new();
            det.detect_candidates_in(&buf, 0, 4, &[], &mut scratch, trace);
            scratch.candidates
        };
        let untraced = detect(None);
        assert!(
            !untraced[0].is_empty() && !untraced[1].is_empty(),
            "{untraced:?}"
        );

        let tracer = Tracer::new(256);
        let trace = tracer.new_trace();
        let stage = tracer.span(trace, None, "user_detect");
        let traced = detect(Some((&tracer, trace, stage.id())));
        assert_eq!(traced, untraced);

        let parent = stage.id().get();
        stage.finish();
        let spans = tracer.spans();
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let batch: Vec<_> = named("batch_correlate").collect();
        assert_eq!(batch.len(), 1, "the window takes the batch engine");
        assert_eq!(batch[0].parent, parent);
        assert!(named("fft_block").count() >= 1);
        assert!(named("fft_block").all(|s| s.parent == batch[0].span));
        let correlates: Vec<_> = named("correlate").collect();
        assert_eq!(correlates.len(), codes.len());
        for (k, c) in correlates.iter().enumerate() {
            assert_eq!((c.parent, c.arg), (parent, Some(k as u64)));
        }
    }

    #[test]
    fn absent_users_stay_undetected_in_noise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(5).unwrap();
        let det = UserDetector::new(&codes, &phy(), 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let buf: Vec<Iq> = (0..6000)
            .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        assert!(det.detect_in(&buf, 0).is_empty());
    }

    #[test]
    fn window_origin_offsets_reported_start() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(1).unwrap();
        let det = UserDetector::new(&codes, &phy(), 0.5);
        let buf = rx_signal(&codes[0], Iq::ONE, 8, "1");
        let users = det.detect_in(&buf, 1000);
        assert_eq!(users[0].start, 1008);
    }

    #[test]
    fn short_window_is_skipped() {
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(1).unwrap();
        let det = UserDetector::new(&codes, &phy(), 0.5);
        assert!(det.detect_in(&[Iq::ONE; 10], 0).is_empty());
    }

    /// The probe before segment energies were shared: one fused pass per
    /// code over the segment, as the receiver ran it for every code.
    fn fused_probe(det: &UserDetector, samples: &[Iq], start: usize, idx: usize) -> DetectedUser {
        let reference = &det.references[idx];
        let seg = &samples[start..start + reference.len()];
        let corr = correlate_iq_bipolar(seg, reference);
        let (c, seg_energy) = match det.kind {
            DecoderKind::Coherent => (corr.abs(), seg.iter().map(|s| s.power()).sum()),
            DecoderKind::Envelope => {
                let n = seg.len() as f64;
                let (mut sum_abs, mut sum_sq, mut dot_sr, mut ref_sum) = (0.0, 0.0, 0.0, 0.0);
                for (s, &r) in seg.iter().zip(reference) {
                    let a = s.abs();
                    sum_abs += a;
                    sum_sq += a * a;
                    dot_sr += a * r;
                    ref_sum += r;
                }
                let mean = sum_abs / n;
                let energy: f64 = (sum_sq - n * mean * mean).max(0.0);
                ((dot_sr - mean * ref_sum).abs(), energy)
            }
        };
        let denom = (seg_energy * det.ref_energy[idx]).sqrt();
        DetectedUser {
            code_index: idx,
            start,
            correlation: if denom > 0.0 { c / denom } else { 0.0 },
            channel_gain: det.gain_estimate(corr, idx),
        }
    }

    fn bits_of(u: &DetectedUser) -> (usize, usize, u64, u64, u64) {
        let g = u.channel_gain;
        (
            u.code_index,
            u.start,
            u.correlation.to_bits(),
            g.re.to_bits(),
            g.im.to_bits(),
        )
    }

    #[test]
    fn one_segment_energy_serves_every_code_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let family = GoldFamily::new(5).unwrap();
        let codes = family.codes(4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        // The two asynchronous users of `two_users` under noise, then a
        // silent stretch where the segment energy is exactly zero.
        let mut buf = two_users(&codes);
        buf.extend(vec![Iq::ZERO; 3000]);
        for s in buf.iter_mut().take(2600) {
            *s += Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.05);
        }
        for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
            let det = UserDetector::with_kind(&codes, &phy(), 0.35, kind);
            let len = det.reference_len();
            for off in (0..buf.len() - len).step_by(37).chain([buf.len() - len]) {
                let energy = det.segment_energy(&buf, off).unwrap();
                for idx in 0..codes.len() {
                    let shared = det.probe_with(&buf, off, idx, energy).unwrap();
                    let alone = det.probe(&buf, off, idx).unwrap();
                    let fused = fused_probe(&det, &buf, off, idx);
                    assert_eq!(bits_of(&shared), bits_of(&fused), "{kind:?} @ {off}, {idx}");
                    assert_eq!(bits_of(&alone), bits_of(&fused), "{kind:?} @ {off}, {idx}");
                }
            }
            let past = buf.len() - len + 1;
            assert!(det.segment_energy(&buf, past).is_none());
            assert!(det.probe(&buf, past, 0).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let family = GoldFamily::new(5).unwrap();
        UserDetector::new(&family.codes(1).unwrap(), &phy(), 1.5);
    }
}
