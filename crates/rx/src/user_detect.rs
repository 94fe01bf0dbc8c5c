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
//! The sliding correlation is the receiver's dominant cost. When every
//! code's spread preamble has the same length (every built-in code
//! family), the detector precomputes one [`BatchCorrelator`] at
//! construction — the K reference spectra cached against one
//! overlap-save FFT plan — and [`UserDetector::detect_candidates`]
//! evaluates all K correlation profiles with one forward FFT per block,
//! O(N log B) instead of O(K × lags × ref_len). Per-lag segment energies
//! come from a single [`RunningEnergy`] prefix sum over the window (O(1)
//! per lag instead of O(ref_len)). Short windows — fewer than
//! [`FFT_LAG_CROSSOVER`] lags — and mixed-length code sets stay on the
//! direct time-domain path; both paths agree within 1e-9 (see
//! `tests/detect_equivalence.rs`).

use cbma_codes::PnCode;
use cbma_dsp::correlate::{correlate_iq_bipolar, dot};
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_dsp::resample::upsample_repeat;
use cbma_dsp::simd;
use cbma_dsp::xcorr::{BatchCorrelator, BatchScratch, RunningEnergy};
use cbma_tag::frame::preamble_pattern;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::decoder::DecoderKind;

/// Minimum number of candidate lags for which the batch FFT engine beats the
/// direct time-domain path at paper-default reference lengths (≈2 k
/// samples). Below this the window is so short that the FFTs of the
/// correlator's block cost more than the handful of direct dot products
/// (direct ≈ lags·ref_len mults vs FFT ≈ 3·B·log₂B for a single compact
/// block — and the SIMD kernels speed *both* sides up, so the break-even
/// moves less than either speedup alone suggests). Measured by the
/// `user_detect` cases of the `bench_summary` runner in `cbma-bench`
/// (release build, AVX2 kernels, permutation-free raw FFTs): at the
/// paper-default search window — 603 lags, 10 codes — the batch engine
/// measures ≈11× faster than direct (≈0.40 ms vs ≈4.5 ms); sweeping the
/// window down, 10-code direct wins at 32 lags (≈0.24 ms vs ≈0.26 ms)
/// and the shared-FFT pass wins from 48 lags (≈0.32 ms vs ≈0.35 ms),
/// with roughly flat batch cost across the single-block regime — the
/// crossing sits near 40 lags.
pub const FFT_LAG_CROSSOVER: usize = 40;

/// Which sliding-correlation backend [`UserDetector::detect_candidates_with`]
/// uses to evaluate the per-lag correlation profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationPath {
    /// Batched shared-FFT pass when the references are uniform and the
    /// window offers at least [`FFT_LAG_CROSSOVER`] lags, direct
    /// otherwise.
    #[default]
    Auto,
    /// Always the O(lags × ref_len) time-domain path (the test oracle).
    Direct,
}

/// Reusable buffers for [`UserDetector::detect_candidates_in`].
///
/// Every intermediate the detector needs — the window prefix sums, the
/// magnitude series, the batched correlation matrix, the raw/normalized
/// profile and the peak lists — lives here and grows
/// to a high-water mark on first use, so steady-state detection performs
/// zero heap allocation.
#[derive(Debug, Default)]
pub struct DetectScratch {
    running: RunningEnergy,
    /// |s| magnitude series (envelope mode only).
    mags: Vec<f64>,
    /// The magnitude series as IQ, for the batch engine (envelope mode).
    mags_iq: Vec<Iq>,
    /// K × lags correlation matrix from the batch engine.
    batch: BatchScratch,
    /// Per-lag decision statistic (raw, then normalized in place).
    profile: Vec<f64>,
    /// Above-threshold local maxima, then the NMS-selected subset.
    peaks: Vec<(usize, f64)>,
    selected: Vec<(usize, f64)>,
}

impl DetectScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> DetectScratch {
        DetectScratch::default()
    }

    /// Total heap capacity held by the scratch, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        let iq = std::mem::size_of::<Iq>();
        let pair = std::mem::size_of::<(usize, f64)>();
        self.running.capacity_bytes()
            + self.batch.capacity_bytes()
            + self.mags.capacity() * std::mem::size_of::<f64>()
            + self.mags_iq.capacity() * iq
            + self.profile.capacity() * std::mem::size_of::<f64>()
            + (self.peaks.capacity() + self.selected.capacity()) * pair
    }
}

/// Correlation of the mean-removed envelope of `seg` against `reference`,
/// plus the mean-removed envelope's energy (for normalization).
///
/// Single fused pass: Σ(|s|−mean)·r = Σ|s|·r − mean·Σr and
/// Σ(|s|−mean)² = Σ|s|² − n·mean², so one traversal accumulating
/// (Σ|s|, Σ|s|², Σ|s|·r, Σr) replaces the old mean pass + correlation
/// pass.
fn envelope_correlation(seg: &[Iq], reference: &[f64]) -> (f64, f64) {
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
    let corr = dot_sr - mean * ref_sum;
    let energy = (sum_sq - n * mean * mean).max(0.0);
    (corr, energy)
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
    /// against every cached reference spectrum. `None` when the spread
    /// preambles do not share one length (mixed code families), which
    /// then always take the direct path.
    batch: Option<BatchCorrelator>,
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
    /// Panics if `threshold` is outside (0, 1) or `codes` is empty.
    pub fn new(codes: &[PnCode], phy: &PhyProfile, threshold: f64) -> UserDetector {
        UserDetector::with_kind(codes, phy, threshold, DecoderKind::Coherent)
    }

    /// Builds a detector with an explicit decision statistic.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside (0, 1) or `codes` is empty.
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
        let uniform = references.iter().all(|r| r.len() == references[0].len());
        let batch = uniform.then(|| BatchCorrelator::new(&references));
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

    /// Length of the spread-preamble reference in samples.
    pub fn reference_len(&self, code_index: usize) -> usize {
        self.references[code_index].len()
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
        self.detect_candidates_with(window, window_origin, max_candidates, CorrelationPath::Auto)
    }

    /// [`UserDetector::detect_candidates`] with an explicit correlation
    /// backend. `Auto` (the default path) runs the shared-FFT batch
    /// engine when the references share one length and the window offers
    /// at least [`FFT_LAG_CROSSOVER`] candidate lags, direct otherwise.
    /// Both backends produce identical detections (offsets and gains
    /// exactly, correlations within FFT rounding ≈1e-12); `Direct` exists
    /// as the equivalence-test oracle and benchmark baseline.
    pub fn detect_candidates_with(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
        path: CorrelationPath,
    ) -> Vec<Vec<DetectedUser>> {
        let mut scratch = DetectScratch::new();
        let mut out = Vec::new();
        self.detect_candidates_in(window, window_origin, max_candidates, path, &mut scratch, &mut out);
        out
    }

    /// Allocation-free core of [`UserDetector::detect_candidates_with`]:
    /// all intermediates live in `scratch`, and `out` is reused per code
    /// (inner vectors are cleared, not dropped). Once both have reached
    /// their high-water sizes a call performs zero heap allocation.
    pub fn detect_candidates_in(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
        path: CorrelationPath,
        scratch: &mut DetectScratch,
        out: &mut Vec<Vec<DetectedUser>>,
    ) {
        self.detect_candidates_impl(window, window_origin, max_candidates, path, scratch, out, None);
    }

    /// [`UserDetector::detect_candidates_in`] with span instrumentation:
    /// the shared-FFT pass records a `batch_correlate` child span (with
    /// `fft_block` grandchildren from the engine) and every per-code
    /// profile scan records a `correlate` span (arg = code index) under
    /// `parent`. The untraced entry point shares this body with
    /// `trace = None`, which costs one branch per code.
    #[allow(clippy::too_many_arguments)]
    pub fn detect_candidates_traced(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
        path: CorrelationPath,
        scratch: &mut DetectScratch,
        out: &mut Vec<Vec<DetectedUser>>,
        tracer: &Tracer,
        trace: TraceId,
        parent: SpanId,
    ) {
        self.detect_candidates_impl(
            window,
            window_origin,
            max_candidates,
            path,
            scratch,
            out,
            Some((tracer, trace, parent)),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn detect_candidates_impl(
        &self,
        window: &[Iq],
        window_origin: usize,
        max_candidates: usize,
        path: CorrelationPath,
        scratch: &mut DetectScratch,
        out: &mut Vec<Vec<DetectedUser>>,
        trace: Option<(&Tracer, TraceId, SpanId)>,
    ) {
        out.truncate(self.references.len());
        for v in out.iter_mut() {
            v.clear();
        }
        out.resize_with(self.references.len(), Vec::new);
        let DetectScratch {
            running,
            mags,
            mags_iq,
            batch,
            profile,
            peaks,
            selected,
        } = scratch;
        // One prefix-sum pass over the window serves every code's per-lag
        // normalization: Σ|s|² for the coherent denominator, Σ|s| (mean)
        // and the mean-removed energy for the envelope statistic.
        running.rebuild(window);
        // Envelope mode correlates the |s| magnitude series; materialize
        // it once (plus an IQ copy for the batch engine) and share it
        // across codes.
        let envelope_mode = matches!(self.kind, DecoderKind::Envelope);
        if envelope_mode {
            mags.clear();
            mags.resize(window.len(), 0.0);
            simd::magnitudes_into(window, mags);
            mags_iq.clear();
            mags_iq.extend(mags.iter().map(|&v| Iq::new(v, 0.0)));
        }
        // The batch engine runs once for every code; decide up front.
        let engine = match (path, &self.batch) {
            (CorrelationPath::Auto, Some(engine))
                if window.len() >= engine.reference_len()
                    && window.len() - engine.reference_len() + 1 >= FFT_LAG_CROSSOVER =>
            {
                Some(engine)
            }
            _ => None,
        };
        let use_batch = engine.is_some();
        if let Some(engine) = engine {
            let input: &[Iq] = if envelope_mode { mags_iq } else { window };
            match trace {
                Some((tracer, trace, parent)) => {
                    let span = tracer.span(trace, Some(parent), "batch_correlate");
                    engine.correlate_iq_into_traced(input, batch, tracer, trace, span.id());
                }
                None => engine.correlate_iq_into(input, batch),
            }
        }
        for (idx, reference) in self.references.iter().enumerate() {
            if reference.len() > window.len() {
                continue;
            }
            let _code_span = trace.map(|(tracer, trace, parent)| {
                let mut span = tracer.span(trace, Some(parent), "correlate");
                span.set_arg(idx as u64);
                span
            });
            let len = reference.len();
            let lags = window.len() - len + 1;
            let ref_energy = self.ref_energy[idx];
            let ref_sum = self.ref_sum[idx];
            // Raw (unnormalized) decision statistic at every lag. Coherent
            // mode takes |Σ s·r| (noncoherent magnitude of the complex
            // correlation); envelope mode takes |Σ(|s|−mean)·r| =
            // |Σ|s|·r − mean·Σr|, with the batch FFT (when it runs)
            // supplying the Σ|s|·r term.
            profile.clear();
            if use_batch {
                let row = batch.code(idx);
                if envelope_mode {
                    profile.extend(row.iter().enumerate().map(|(off, c)| {
                        (c.re - running.mean_abs(off, len) * ref_sum).abs()
                    }));
                } else {
                    profile.resize(lags, 0.0);
                    simd::magnitudes_into(row, profile);
                }
            } else {
                match self.kind {
                    DecoderKind::Coherent => {
                        profile.extend((0..lags).map(|off| {
                            correlate_iq_bipolar(&window[off..off + len], reference).abs()
                        }))
                    }
                    DecoderKind::Envelope => {
                        profile.extend((0..lags).map(|off| {
                            let mean = running.mean_abs(off, len);
                            (dot(&mags[off..off + len], reference) - mean * ref_sum).abs()
                        }));
                    }
                }
            }
            debug_assert_eq!(profile.len(), lags);
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
            out[idx].extend(selected.iter().map(|&(off, val)| {
                let seg = &window[off..off + reference.len()];
                let gain = self.gain_estimate(seg, reference, idx);
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
        let reference = &self.references[code_index];
        if start + reference.len() > samples.len() {
            return None;
        }
        let seg = &samples[start..start + reference.len()];
        let ref_energy = self.ref_energy[code_index];
        let (c, seg_energy) = match self.kind {
            DecoderKind::Coherent => (
                correlate_iq_bipolar(seg, reference).abs(),
                seg.iter().map(|s| s.power()).sum(),
            ),
            DecoderKind::Envelope => {
                let (corr, energy) = envelope_correlation(seg, reference);
                (corr.abs(), energy)
            }
        };
        let denom = (seg_energy * ref_energy).sqrt();
        Some(DetectedUser {
            code_index,
            start,
            correlation: if denom > 0.0 { c / denom } else { 0.0 },
            channel_gain: self.gain_estimate(seg, reference, code_index),
        })
    }

    /// Channel-gain estimate at an exact alignment (used by the coherent
    /// decoder; informational in envelope mode).
    fn gain_estimate(&self, seg: &[Iq], reference: &[f64], code_index: usize) -> Iq {
        correlate_iq_bipolar(seg, reference) / self.gain_scale[code_index]
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
        let a = rx_signal(&codes[0], Iq::new(1.0, 0.0), 20, "01");
        let b = rx_signal(&codes[1], Iq::new(0.0, 1.0), 60, "11");
        let n = a.len().max(b.len());
        let mut buf = vec![Iq::ZERO; n];
        for (i, s) in a.into_iter().enumerate() {
            buf[i] += s;
        }
        for (i, s) in b.into_iter().enumerate() {
            buf[i] += s;
        }
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

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let family = GoldFamily::new(5).unwrap();
        UserDetector::new(&family.codes(1).unwrap(), &phy(), 1.5);
    }
}
