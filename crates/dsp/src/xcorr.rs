//! Fast sliding cross-correlation: overlap-save FFT engine, cached FFT
//! plans, and O(1) running-energy queries.
//!
//! CBMA's receiver cross-correlates every known PN code's spread-preamble
//! reference against the received window at every candidate lag (§III-B).
//! Done directly that is O(lags × ref_len) *per code* — the receiver's
//! dominant cost. This module turns the sliding dot products into
//! frequency-domain multiplications (overlap-save block convolution on the
//! workspace's FFT) and the per-lag segment-energy normalization into
//! prefix-sum lookups:
//!
//! * [`FftPlan`] — a reusable power-of-two plan with the bit-reversal
//!   permutation and twiddle factors precomputed once, so the butterfly
//!   loop performs no `sin`/`cos` calls,
//! * [`SlidingCorrelator`] — caches the conjugate spectrum of one real
//!   (bipolar) reference and correlates it against arbitrary-length
//!   complex-IQ or real windows in O(N log B) via overlap-save blocks,
//! * [`BatchCorrelator`] — K equal-length references sharing one forward
//!   FFT per block (the receiver's detection engine),
//! * [`RunningEnergy`] — prefix sums of |s| and |s|² giving O(1) segment
//!   power, mean and mean-removed energy over any `[off, off + len)`,
//!   serving both the coherent power normalization and the envelope
//!   mean-removed statistic.
//!
//! The engine is exact up to FFT rounding (≈1e-12 relative); the receiver
//! keeps a direct path for short windows. This module's unit tests pin
//! overlap-save against direct sliding dot products,
//! `crates/dsp/tests/simd_equivalence.rs` pins the vector kernels and the
//! batched rows against the single-code engine, and
//! `crates/rx/tests/detect_equivalence.rs` pins the detector's two paths
//! together within 1e-9.

use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_types::{CbmaError, Iq, Result};

use crate::simd;

/// A precomputed FFT plan for one power-of-two size.
///
/// Building a plan computes the bit-reversal permutation and the twiddle
/// tables once; [`FftPlan::forward`] and [`FftPlan::inverse`] then run the
/// butterflies with table lookups only, through the SIMD stage kernels in
/// [`crate::simd`]. The [`FftPlan::forward_raw`] / [`FftPlan::inverse_raw`]
/// pair additionally skips the permutation passes by working in
/// bit-reversed spectral order (DIF forward, DIT inverse) — the form the
/// overlap-save correlators use, since a pointwise spectrum product does
/// not care about bin order. Twiddles are stored *stage-major*: the stage with
/// `half = len/2` butterflies owns the contiguous run
/// `[half − 1, 2·half − 1)`, so the vector kernels load neighbouring
/// twiddles with one unstrided load (N − 1 entries total).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of every position (identity for n ≤ 1).
    rev: Vec<u32>,
    /// Stage-major forward twiddles e^{−2πik/len}; inverse conjugates.
    twiddles: Vec<Iq>,
    /// `W³ᵏ` twiddles of the merged radix-4 stages, stage-major in the
    /// order of `radix4` (`Wᵏ` and `W²ᵏ` are sliced out of `twiddles`).
    tw3: Vec<Iq>,
    /// The merged radix-4 stage ladder as `(len, tw3 offset)`, largest
    /// stage first: each entry fuses the radix-2 stages `len` and
    /// `len/2` into one [`simd::fft_stage4`]/[`simd::fft_stage4_dif`]
    /// pass (`len = 4` entries use the twiddle-free `*_last` kernels).
    radix4: Vec<(u32, u32)>,
    /// Whether one radix-2 stage (`len = 2`) remains after pairing —
    /// true exactly when log₂ n is odd.
    tail2: bool,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `n` is neither zero, one,
    /// nor a power of two.
    pub fn new(n: usize) -> Result<FftPlan> {
        if n > 1 && !n.is_power_of_two() {
            return Err(CbmaError::ShapeMismatch {
                expected: "power-of-two length".into(),
                actual: format!("length {n}"),
            });
        }
        let bits = n.trailing_zeros();
        let rev = if n <= 1 {
            Vec::new()
        } else {
            (0..n as u32)
                .map(|i| i.reverse_bits() >> (u32::BITS - bits))
                .collect()
        };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for k in 0..half {
                twiddles.push(Iq::phasor(
                    -2.0 * std::f64::consts::PI * k as f64 / len as f64,
                ));
            }
            len <<= 1;
        }
        // Pair the radix-2 stages two at a time, largest first, into
        // merged radix-4 passes. Each merged stage of length `len` also
        // needs the W³ᵏ twiddles (k < len/4), which the radix-2 table
        // does not contain; `len = 4` merges need no twiddles at all.
        let mut tw3 = Vec::new();
        let mut radix4 = Vec::new();
        let mut len = n;
        while len >= 4 {
            radix4.push((len as u32, tw3.len() as u32));
            if len >= 8 {
                for k in 0..len / 4 {
                    tw3.push(Iq::phasor(
                        -2.0 * std::f64::consts::PI * (3 * k) as f64 / len as f64,
                    ));
                }
            }
            len >>= 2;
        }
        let tail2 = len == 2;
        Ok(FftPlan {
            n,
            rev,
            twiddles,
            tw3,
            radix4,
            tail2,
        })
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan transforms zero-length buffers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward FFT (no normalization) in place.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `buf.len()` differs from
    /// the plan length.
    pub fn forward(&self, buf: &mut [Iq]) -> Result<()> {
        self.check(buf)?;
        self.run(buf, false);
        Ok(())
    }

    /// Inverse FFT with 1/N normalization in place.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `buf.len()` differs from
    /// the plan length.
    pub fn inverse(&self, buf: &mut [Iq]) -> Result<()> {
        self.check(buf)?;
        self.run(buf, true);
        simd::scale_iq(buf, 1.0 / self.n.max(1) as f64);
        Ok(())
    }

    /// Forward FFT leaving the spectrum in **bit-reversed order**
    /// (decimation-in-frequency, no permutation pass).
    ///
    /// Pointwise spectrum products are order-agnostic as long as both
    /// operands use the same order, so a correlation pipeline can chain
    /// `forward_raw → multiply → inverse_raw` and skip both bit-reversal
    /// permutations entirely — the overlap-save engines below do exactly
    /// that. Equal to [`FftPlan::forward`] up to the output permutation
    /// and FFT rounding (the DIF stages accumulate in a different order).
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `buf.len()` differs from
    /// the plan length.
    pub fn forward_raw(&self, buf: &mut [Iq]) -> Result<()> {
        self.check(buf)?;
        if self.n > 1 {
            self.dif_ladder(buf, false);
        }
        Ok(())
    }

    /// Inverse FFT (with 1/N normalization) of a **bit-reversed-order**
    /// spectrum, as produced by [`FftPlan::forward_raw`]; no permutation
    /// pass.
    ///
    /// This is the plain decimation-in-time ladder of [`FftPlan::inverse`]
    /// minus the input permutation: DIT consumes bit-reversed input and
    /// emits natural order, so `inverse_raw(forward_raw(x)) == x` up to
    /// rounding.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `buf.len()` differs from
    /// the plan length.
    pub fn inverse_raw(&self, buf: &mut [Iq]) -> Result<()> {
        self.check(buf)?;
        if self.n > 1 {
            self.dit_ladder(buf, true);
        }
        simd::scale_iq(buf, 1.0 / self.n.max(1) as f64);
        Ok(())
    }

    /// [`FftPlan::inverse_raw`] **without** the 1/N normalization pass.
    ///
    /// The overlap-save correlators fold 1/N into their cached conjugate
    /// reference spectra at construction, so the per-block inverse needs
    /// no trailing scale sweep over the buffer — one fewer O(N) memory
    /// pass per (block, code) pair.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::ShapeMismatch`] when `buf.len()` differs from
    /// the plan length.
    pub fn inverse_raw_unscaled(&self, buf: &mut [Iq]) -> Result<()> {
        self.check(buf)?;
        if self.n > 1 {
            self.dit_ladder(buf, true);
        }
        Ok(())
    }

    /// The merged radix-4 DIF cascade, largest stage first, emitting the
    /// same bit-reversed spectral order as the radix-2 DIF ladder it
    /// replaces (merging two radix-2 stages permutes nothing).
    fn dif_ladder(&self, buf: &mut [Iq], inverse: bool) {
        for &(len, off) in &self.radix4 {
            let (len, off) = (len as usize, off as usize);
            if len == 4 {
                simd::fft_stage4_dif_last(buf, inverse);
            } else {
                let q = len / 4;
                let tw1 = &self.twiddles[len / 2 - 1..len / 2 - 1 + q];
                let tw2 = &self.twiddles[len / 4 - 1..len / 2 - 1];
                let tw3 = &self.tw3[off..off + q];
                simd::fft_stage4_dif(buf, len, tw1, tw2, tw3, inverse);
            }
        }
        if self.tail2 {
            // Unit twiddle — its own conjugate, so one kernel serves
            // both directions.
            simd::fft_stage_first(buf);
        }
    }

    /// The merged radix-4 DIT cascade (bit-reversed input, natural
    /// output): the exact stage-reversal of [`FftPlan::dif_ladder`].
    fn dit_ladder(&self, buf: &mut [Iq], inverse: bool) {
        if self.tail2 {
            simd::fft_stage_first(buf);
        }
        for &(len, off) in self.radix4.iter().rev() {
            let (len, off) = (len as usize, off as usize);
            if len == 4 {
                simd::fft_stage4_last(buf, inverse);
            } else {
                let q = len / 4;
                let tw1 = &self.twiddles[len / 2 - 1..len / 2 - 1 + q];
                let tw2 = &self.twiddles[len / 4 - 1..len / 2 - 1];
                let tw3 = &self.tw3[off..off + q];
                simd::fft_stage4(buf, len, tw1, tw2, tw3, inverse);
            }
        }
    }

    fn check(&self, buf: &[Iq]) -> Result<()> {
        if buf.len() != self.n {
            return Err(CbmaError::ShapeMismatch {
                expected: format!("buffer of plan length {}", self.n),
                actual: format!("length {}", buf.len()),
            });
        }
        Ok(())
    }

    fn run(&self, buf: &mut [Iq], inverse: bool) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        self.dit_ladder(buf, inverse);
    }
}

/// Prefix sums of |s| and |s|² over a sample window: O(1) segment power,
/// magnitude sum, mean and mean-removed energy for any `[off, off + len)`.
///
/// One instance serves both detector statistics: the coherent path
/// normalizes by segment *power* (Σ|s|²) and the envelope path by the
/// *mean-removed envelope energy* (Σ(|s|−mean)² = Σ|s|² − (Σ|s|)²/len).
#[derive(Debug, Clone)]
pub struct RunningEnergy {
    /// prefix_abs[i] = Σ_{j<i} |s_j|
    prefix_abs: Vec<f64>,
    /// prefix_sq[i] = Σ_{j<i} |s_j|²
    prefix_sq: Vec<f64>,
}

impl Default for RunningEnergy {
    /// An empty window — useful as the initial state of a reusable
    /// scratch instance before the first [`RunningEnergy::rebuild`].
    fn default() -> RunningEnergy {
        RunningEnergy::new(&[])
    }
}

impl RunningEnergy {
    /// Builds the prefix sums for a complex-IQ window (one O(n) pass).
    pub fn new(samples: &[Iq]) -> RunningEnergy {
        let mut re = RunningEnergy {
            prefix_abs: Vec::with_capacity(samples.len() + 1),
            prefix_sq: Vec::with_capacity(samples.len() + 1),
        };
        re.rebuild(samples);
        re
    }

    /// Recomputes the prefix sums over a new complex window in place,
    /// reusing the existing allocations (grow-only: no heap traffic once
    /// the instance has seen a window at least this long).
    pub fn rebuild(&mut self, samples: &[Iq]) {
        self.prefix_abs.clear();
        self.prefix_sq.clear();
        self.prefix_abs.reserve(samples.len() + 1);
        self.prefix_sq.reserve(samples.len() + 1);
        let (mut sa, mut sq) = (0.0, 0.0);
        self.prefix_abs.push(0.0);
        self.prefix_sq.push(0.0);
        for s in samples {
            let p = s.power();
            sa += p.sqrt();
            sq += p;
            self.prefix_abs.push(sa);
            self.prefix_sq.push(sq);
        }
    }

    /// Recomputes the prefix sums over a new real-valued series in place;
    /// the real-domain counterpart of [`RunningEnergy::rebuild`].
    pub fn rebuild_real(&mut self, values: &[f64]) {
        self.prefix_abs.clear();
        self.prefix_sq.clear();
        self.prefix_abs.reserve(values.len() + 1);
        self.prefix_sq.reserve(values.len() + 1);
        let (mut sa, mut sq) = (0.0, 0.0);
        self.prefix_abs.push(0.0);
        self.prefix_sq.push(0.0);
        for &v in values {
            sa += v.abs();
            sq += v * v;
            self.prefix_abs.push(sa);
            self.prefix_sq.push(sq);
        }
    }

    /// Address of the backing storage — exposed so arena-reuse regression
    /// tests can assert that rebuilds did not reallocate. Not part of the
    /// semantic API.
    #[doc(hidden)]
    pub fn storage_ptr(&self) -> *const f64 {
        self.prefix_sq.as_ptr()
    }

    /// Total heap capacity held by the prefix sums, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.prefix_abs.capacity() + self.prefix_sq.capacity()) * std::mem::size_of::<f64>()
    }

    /// Number of samples covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix_sq.len() - 1
    }

    /// `true` when built over an empty window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ|s|² over `[off, off + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the segment exceeds the window.
    #[inline]
    pub fn power(&self, off: usize, len: usize) -> f64 {
        self.prefix_sq[off + len] - self.prefix_sq[off]
    }

    /// Σ|s| over `[off, off + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the segment exceeds the window.
    #[inline]
    pub fn abs_sum(&self, off: usize, len: usize) -> f64 {
        self.prefix_abs[off + len] - self.prefix_abs[off]
    }

    /// Mean of |s| over `[off, off + len)`; 0.0 for an empty segment.
    #[inline]
    pub fn mean_abs(&self, off: usize, len: usize) -> f64 {
        if len == 0 {
            0.0
        } else {
            self.abs_sum(off, len) / len as f64
        }
    }

    /// Mean-removed envelope energy Σ(|s|−mean)² over `[off, off + len)`,
    /// clamped to ≥ 0 against rounding.
    #[inline]
    pub fn centered_energy(&self, off: usize, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let sa = self.abs_sum(off, len);
        (self.power(off, len) - sa * sa / len as f64).max(0.0)
    }
}

/// Loads one overlap-save block into `dst`: copies
/// `samples[pos .. pos + take]` (with `take = min(remaining, dst.len())`)
/// and zero-fills the ragged tail.
///
/// Both overlap-save engines in this module (single-code and batched)
/// load their blocks through this one helper, so a ragged final block is
/// padded identically on both and a batched row stays bit-identical to
/// the single-code correlator's output.
#[inline]
fn load_block(dst: &mut [Iq], samples: &[Iq], pos: usize) {
    let take = (samples.len() - pos).min(dst.len());
    dst[..take].copy_from_slice(&samples[pos..pos + take]);
    for x in dst[take..].iter_mut() {
        *x = Iq::ZERO;
    }
}

/// One cached block size: the FFT plan plus the reference's conjugate
/// spectrum at that size.
#[derive(Debug, Clone)]
struct BlockSpec {
    /// conj(FFT(reference zero-padded to `fft_size`)) / `fft_size`, in
    /// the bit-reversed order of [`FftPlan::forward_raw`]. The 1/N
    /// inverse-FFT normalization is folded in here once so every
    /// per-block inverse can run unscaled.
    ref_conj_spec: Vec<Iq>,
    plan: FftPlan,
    fft_size: usize,
    /// Valid correlation outputs per block: `fft_size − ref_len + 1`.
    block_out: usize,
}

impl BlockSpec {
    fn new(reference: &[f64], fft_size: usize) -> BlockSpec {
        let plan = FftPlan::new(fft_size).expect("power-of-two by construction");
        let mut spec: Vec<Iq> = reference
            .iter()
            .map(|&r| Iq::new(r, 0.0))
            .chain(std::iter::repeat(Iq::ZERO))
            .take(fft_size)
            .collect();
        plan.forward_raw(&mut spec).expect("sized to plan");
        for x in spec.iter_mut() {
            *x = x.conj();
        }
        simd::scale_iq(&mut spec, 1.0 / fft_size as f64);
        BlockSpec {
            ref_conj_spec: spec,
            plan,
            fft_size,
            block_out: fft_size - reference.len() + 1,
        }
    }
}

/// Overlap-save FFT sliding correlator for one cached real reference.
///
/// Construction pads the reference to power-of-two block sizes, computes
/// its conjugate spectrum once per size, and keeps the [`FftPlan`]s. Each
/// [`SlidingCorrelator::correlate_iq`] call then processes the window in
/// blocks of `B` samples overlapping by `ref_len − 1`, producing the exact
/// linear cross-correlation
/// `c[k] = Σ_i s[k+i]·r[i]` for every lag `k in 0..=n − ref_len`
/// in O(N log B) instead of O(N · ref_len).
///
/// Two block sizes are cached: a *compact* one (`≈2L` rounded up) used
/// whenever the whole window fits in a single block — the receiver's
/// common case, where a frame-head search window is only a few hundred
/// lags past the reference — and a *streaming* one (`≈4L`) whose larger
/// valid region amortizes FFT work better over long, many-block windows.
#[derive(Debug, Clone)]
pub struct SlidingCorrelator {
    reference: Vec<f64>,
    /// Cached block sizes, ascending; the last is the streaming size.
    blocks: Vec<BlockSpec>,
}

impl SlidingCorrelator {
    /// Builds a correlator for `reference`, caching its conjugate
    /// spectrum at each block size.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty.
    pub fn new(reference: &[f64]) -> SlidingCorrelator {
        assert!(!reference.is_empty(), "reference must be non-empty");
        let l = reference.len();
        // Compact size: the smallest power of two holding the reference
        // plus a same-order slack of lags — one block, minimal FFT work
        // for short search windows. Streaming size: ≈4L keeps FFT work
        // per output low (2·B·log B for B−L+1 lags) without ballooning
        // block memory. Floors of 64 so tiny references still amortize
        // the permutation overhead.
        let compact = (2 * l).next_power_of_two().max(64);
        let streaming = (4 * l.next_power_of_two()).max(64);
        let mut blocks = vec![BlockSpec::new(reference, compact)];
        if streaming > compact {
            blocks.push(BlockSpec::new(reference, streaming));
        }
        SlidingCorrelator {
            reference: reference.to_vec(),
            blocks,
        }
    }

    /// Length of the cached reference.
    #[inline]
    pub fn reference_len(&self) -> usize {
        self.reference.len()
    }

    /// The largest (streaming) overlap-save FFT block size `B`.
    #[inline]
    pub fn fft_size(&self) -> usize {
        self.blocks.last().expect("at least one block size").fft_size
    }

    /// The cached reference sequence.
    #[inline]
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// The block spec a window of `n` samples runs on: the smallest
    /// cached size that covers the window in a single block, else the
    /// streaming size.
    fn block_for(&self, n: usize) -> &BlockSpec {
        self.blocks
            .iter()
            .find(|b| n <= b.fft_size)
            .unwrap_or_else(|| self.blocks.last().expect("at least one block size"))
    }

    /// Complex sliding correlation `c[k] = Σ_i s[k+i]·r[i]` for every lag
    /// `k in 0..=samples.len() − ref_len` (empty when the window is
    /// shorter than the reference). Matches
    /// [`crate::correlate::correlate_iq_bipolar`] per lag up to FFT
    /// rounding.
    pub fn correlate_iq(&self, samples: &[Iq]) -> Vec<Iq> {
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.correlate_iq_into(samples, &mut work, &mut out);
        out
    }

    /// Allocation-free variant of [`SlidingCorrelator::correlate_iq`]:
    /// `out` receives the per-lag correlations (cleared first) and `work`
    /// is the FFT block scratch. Both buffers grow to a high-water mark on
    /// first use and are reused untouched afterwards.
    pub fn correlate_iq_into(&self, samples: &[Iq], work: &mut Vec<Iq>, out: &mut Vec<Iq>) {
        out.clear();
        let l = self.reference.len();
        if samples.len() < l {
            return;
        }
        let block = self.block_for(samples.len());
        let lags = samples.len() - l + 1;
        out.reserve(lags);
        work.clear();
        work.resize(block.fft_size, Iq::ZERO);
        let mut pos = 0;
        while pos < lags {
            load_block(work, samples, pos);
            // The product runs in bit-reversed spectral order, which the
            // raw DIF/DIT pair makes permutation-free end to end.
            block.plan.forward_raw(work).expect("sized to plan");
            simd::spectrum_mul(work, &block.ref_conj_spec);
            block.plan.inverse_raw_unscaled(work).expect("sized to plan");
            let valid = (lags - pos).min(block.block_out);
            out.extend_from_slice(&work[..valid]);
            pos += block.block_out;
        }
    }

    /// Real sliding correlation of a real-valued window (e.g. an |s|
    /// magnitude series) against the cached reference.
    pub fn correlate_real(&self, samples: &[f64]) -> Vec<f64> {
        let as_iq: Vec<Iq> = samples.iter().map(|&v| Iq::new(v, 0.0)).collect();
        self.correlate_iq(&as_iq).into_iter().map(|c| c.re).collect()
    }
}

/// One cached block size of a [`BatchCorrelator`]: the shared FFT plan
/// plus all K conjugate reference spectra at that size, stored flat
/// (`code k` occupies `k·fft_size .. (k+1)·fft_size`) so the per-code
/// inner loop walks contiguous memory.
#[derive(Debug, Clone)]
struct BatchBlock {
    /// Flat K × `fft_size` conjugate spectra (1/N-prescaled, exactly as
    /// [`BlockSpec`]), in the bit-reversed order of
    /// [`FftPlan::forward_raw`].
    spectra: Vec<Iq>,
    plan: FftPlan,
    fft_size: usize,
    /// Valid correlation outputs per block: `fft_size − ref_len + 1`.
    block_out: usize,
}

impl BatchBlock {
    fn new(references: &[&[f64]], fft_size: usize) -> BatchBlock {
        let ref_len = references[0].len();
        let plan = FftPlan::new(fft_size).expect("power-of-two by construction");
        let mut spectra = Vec::with_capacity(references.len() * fft_size);
        for reference in references {
            let start = spectra.len();
            spectra.extend(
                reference
                    .iter()
                    .map(|&r| Iq::new(r, 0.0))
                    .chain(std::iter::repeat(Iq::ZERO))
                    .take(fft_size),
            );
            let spec = &mut spectra[start..start + fft_size];
            plan.forward_raw(spec).expect("sized to plan");
            for x in spec.iter_mut() {
                *x = x.conj();
            }
            simd::scale_iq(spec, 1.0 / fft_size as f64);
        }
        BatchBlock {
            spectra,
            plan,
            fft_size,
            block_out: fft_size - ref_len + 1,
        }
    }
}

/// Reusable scratch for [`BatchCorrelator::correlate_iq_into`].
///
/// Holds the shared forward-FFT block, the per-code product/IFFT work
/// buffer, and the flat K × lags output matrix. All three grow to a
/// high-water mark on first use and are reused allocation-free
/// afterwards, so a steady-state receiver performs zero heap traffic
/// per call.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Forward FFT of the current window block (shared across codes).
    win: Vec<Iq>,
    /// Per-code spectrum product / inverse-FFT buffer.
    work: Vec<Iq>,
    /// Flat K × `lags` correlation matrix, code-major.
    out: Vec<Iq>,
    lags: usize,
    codes: usize,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized lazily by the first
    /// [`BatchCorrelator::correlate_iq_into`] call.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Number of valid lags per code in the last correlation
    /// (0 when the window was shorter than the reference).
    #[inline]
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// Number of code rows in the last correlation.
    #[inline]
    pub fn num_codes(&self) -> usize {
        self.codes
    }

    /// Correlation row of code `k`: `c_k[lag] = Σ_i s[lag+i]·r_k[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range for the last correlation.
    #[inline]
    pub fn code(&self, k: usize) -> &[Iq] {
        assert!(k < self.codes, "code index out of range");
        &self.out[k * self.lags..(k + 1) * self.lags]
    }

    /// Total heap capacity held by the scratch, in bytes — exported as
    /// an observability gauge by the receiver.
    pub fn capacity_bytes(&self) -> usize {
        (self.win.capacity() + self.work.capacity() + self.out.capacity())
            * std::mem::size_of::<Iq>()
    }

    /// Stable address of the output matrix, for buffer-reuse regression
    /// tests.
    #[doc(hidden)]
    pub fn storage_ptr(&self) -> *const Iq {
        self.out.as_ptr()
    }
}

/// Batched K-code overlap-save correlator: one forward FFT per window
/// block shared across every cached reference spectrum.
///
/// The per-code [`SlidingCorrelator`] spends `2·K` FFTs per block
/// (forward + inverse for each of the K codes). Since all K references
/// see the *same* window, the forward transform is identical across
/// codes — this engine hoists it: per block it runs **one** forward FFT,
/// then for each code a pointwise spectrum multiply against the cached
/// conjugate reference spectrum and one inverse FFT, i.e. `K + 1` FFTs
/// per block instead of `2·K`. At the paper-default K = 10 that alone is
/// a ~1.8× transform-count reduction; the SIMD butterfly kernels in
/// [`crate::simd`] stack multiplicatively on top.
///
/// Block sizes mirror [`SlidingCorrelator`] exactly (compact ≈ 2L for
/// single-block windows, streaming ≈ 4L for long windows), so each
/// output row is bit-identical to the corresponding per-code
/// correlator's output.
#[derive(Debug, Clone)]
pub struct BatchCorrelator {
    ref_len: usize,
    codes: usize,
    /// Cached block sizes, ascending; the last is the streaming size.
    blocks: Vec<BatchBlock>,
}

impl BatchCorrelator {
    /// Builds a batched correlator over K equal-length real references,
    /// caching each conjugate spectrum at both block sizes.
    ///
    /// # Panics
    ///
    /// Panics if `references` is empty, any reference is empty, or the
    /// references have unequal lengths.
    pub fn new<R: AsRef<[f64]>>(references: &[R]) -> BatchCorrelator {
        assert!(!references.is_empty(), "batch needs at least one reference");
        let refs: Vec<&[f64]> = references.iter().map(|r| r.as_ref()).collect();
        let l = refs[0].len();
        assert!(l > 0, "references must be non-empty");
        assert!(
            refs.iter().all(|r| r.len() == l),
            "batched references must share one length"
        );
        // Same sizing policy as SlidingCorrelator::new so per-code rows
        // match the single-code engine bit for bit.
        let compact = (2 * l).next_power_of_two().max(64);
        let streaming = (4 * l.next_power_of_two()).max(64);
        let mut blocks = vec![BatchBlock::new(&refs, compact)];
        if streaming > compact {
            blocks.push(BatchBlock::new(&refs, streaming));
        }
        BatchCorrelator {
            ref_len: l,
            codes: refs.len(),
            blocks,
        }
    }

    /// Length of the cached references.
    #[inline]
    pub fn reference_len(&self) -> usize {
        self.ref_len
    }

    /// Number of cached codes K.
    #[inline]
    pub fn num_codes(&self) -> usize {
        self.codes
    }

    /// The block spec a window of `n` samples runs on — same policy as
    /// [`SlidingCorrelator`]: smallest single-block size, else streaming.
    fn block_for(&self, n: usize) -> &BatchBlock {
        self.blocks
            .iter()
            .find(|b| n <= b.fft_size)
            .unwrap_or_else(|| self.blocks.last().expect("at least one block size"))
    }

    /// Correlates `samples` against all K references in one shared-FFT
    /// pass, leaving the K × lags matrix in `scratch` (query it with
    /// [`BatchScratch::code`]). Steady-state calls are allocation-free
    /// once the scratch has reached its high-water size.
    pub fn correlate_iq_into(&self, samples: &[Iq], scratch: &mut BatchScratch) {
        self.correlate_iq_into_impl(samples, scratch, None);
    }

    /// [`BatchCorrelator::correlate_iq_into`] with span instrumentation:
    /// each overlap-save block records an `fft_block` child span (arg =
    /// block index) under `parent`. The untraced entry point shares this
    /// body with `trace = None`, which costs one branch per block.
    pub fn correlate_iq_into_traced(
        &self,
        samples: &[Iq],
        scratch: &mut BatchScratch,
        tracer: &Tracer,
        trace: TraceId,
        parent: SpanId,
    ) {
        self.correlate_iq_into_impl(samples, scratch, Some((tracer, trace, parent)));
    }

    fn correlate_iq_into_impl(
        &self,
        samples: &[Iq],
        scratch: &mut BatchScratch,
        trace: Option<(&Tracer, TraceId, SpanId)>,
    ) {
        scratch.codes = self.codes;
        if samples.len() < self.ref_len {
            scratch.lags = 0;
            scratch.out.clear();
            return;
        }
        let block = self.block_for(samples.len());
        let lags = samples.len() - self.ref_len + 1;
        scratch.lags = lags;
        scratch.win.clear();
        scratch.win.resize(block.fft_size, Iq::ZERO);
        scratch.work.clear();
        scratch.work.resize(block.fft_size, Iq::ZERO);
        scratch.out.clear();
        scratch.out.resize(self.codes * lags, Iq::ZERO);
        let mut pos = 0;
        let mut block_index = 0u64;
        while pos < lags {
            let _span = trace.map(|(tracer, trace, parent)| {
                let mut span = tracer.span(trace, Some(parent), "fft_block");
                span.set_arg(block_index);
                span
            });
            load_block(&mut scratch.win, samples, pos);
            // The expensive part, done once per block instead of once
            // per (block, code) pair; bit-reversed spectral order skips
            // the permutation passes on every transform.
            block.plan.forward_raw(&mut scratch.win).expect("sized to plan");
            let valid = (lags - pos).min(block.block_out);
            for k in 0..self.codes {
                let spec = &block.spectra[k * block.fft_size..(k + 1) * block.fft_size];
                simd::spectrum_mul_to(&mut scratch.work, &scratch.win, spec);
                block
                    .plan
                    .inverse_raw_unscaled(&mut scratch.work)
                    .expect("sized to plan");
                let row = k * lags + pos;
                scratch.out[row..row + valid].copy_from_slice(&scratch.work[..valid]);
            }
            pos += block.block_out;
            block_index += 1;
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate_iq_bipolar;

    fn direct_sliding(samples: &[Iq], reference: &[f64]) -> Vec<Iq> {
        if reference.len() > samples.len() {
            return Vec::new();
        }
        (0..=samples.len() - reference.len())
            .map(|off| correlate_iq_bipolar(&samples[off..off + reference.len()], reference))
            .collect()
    }

    fn test_signal(n: usize) -> Vec<Iq> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Iq::new((0.37 * t).sin() + 0.2, (0.11 * t).cos() - 0.1)
            })
            .collect()
    }

    fn test_reference(l: usize) -> Vec<f64> {
        (0..l).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect()
    }

    #[test]
    fn plan_matches_direct_fft_module() {
        let buf: Vec<Iq> = test_signal(64);
        let plan = FftPlan::new(64).unwrap();
        let mut a = buf.clone();
        plan.forward(&mut a).unwrap();
        let b = crate::fft::fft(&buf).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-9, "{x} vs {y}");
        }
        plan.inverse(&mut a).unwrap();
        for (x, y) in a.iter().zip(&buf) {
            assert!((*x - *y).abs() < 1e-10);
        }
    }

    #[test]
    fn plan_rejects_bad_sizes() {
        assert!(FftPlan::new(12).is_err());
        let plan = FftPlan::new(8).unwrap();
        let mut short = vec![Iq::ZERO; 4];
        assert!(plan.forward(&mut short).is_err());
        assert!(plan.inverse(&mut short).is_err());
        assert!(plan.forward_raw(&mut short).is_err());
        assert!(plan.inverse_raw(&mut short).is_err());
    }

    #[test]
    fn raw_pair_is_permuted_forward_and_exact_round_trip() {
        for n in [2usize, 4, 16, 64, 256] {
            let buf = test_signal(n);
            let plan = FftPlan::new(n).unwrap();
            let mut raw = buf.clone();
            plan.forward_raw(&mut raw).unwrap();
            let mut nat = buf.clone();
            plan.forward(&mut nat).unwrap();
            // forward_raw leaves bin k at the bit-reversed index of k.
            let bits = n.trailing_zeros();
            for (k, &x) in nat.iter().enumerate() {
                let r = (k as u32).reverse_bits() >> (u32::BITS - bits);
                let y = raw[r as usize];
                assert!((x - y).abs() < 1e-9 * n as f64, "n={n} bin {k}: {x} vs {y}");
            }
            plan.inverse_raw(&mut raw).unwrap();
            for (i, (x, y)) in raw.iter().zip(&buf).enumerate() {
                assert!((*x - *y).abs() < 1e-10, "n={n} sample {i}");
            }
        }
    }

    #[test]
    fn raw_pair_handles_degenerate_lengths() {
        let p0 = FftPlan::new(0).unwrap();
        let mut empty: Vec<Iq> = Vec::new();
        p0.forward_raw(&mut empty).unwrap();
        p0.inverse_raw(&mut empty).unwrap();
        let p1 = FftPlan::new(1).unwrap();
        let mut one = vec![Iq::new(2.0, -3.0)];
        p1.forward_raw(&mut one).unwrap();
        p1.inverse_raw(&mut one).unwrap();
        assert!((one[0] - Iq::new(2.0, -3.0)).abs() < 1e-15);
    }

    #[test]
    fn plan_handles_degenerate_lengths() {
        let p0 = FftPlan::new(0).unwrap();
        let mut empty: Vec<Iq> = Vec::new();
        p0.forward(&mut empty).unwrap();
        p0.inverse(&mut empty).unwrap();
        let p1 = FftPlan::new(1).unwrap();
        let mut one = vec![Iq::new(2.0, -3.0)];
        p1.forward(&mut one).unwrap();
        p1.inverse(&mut one).unwrap();
        assert!((one[0] - Iq::new(2.0, -3.0)).abs() < 1e-15);
    }

    #[test]
    fn overlap_save_equals_direct_across_lengths() {
        for &(n, l) in &[(40usize, 7usize), (64, 64), (65, 64), (300, 31), (1000, 248), (129, 128)] {
            let samples = test_signal(n);
            let reference = test_reference(l);
            let xc = SlidingCorrelator::new(&reference);
            let fft = xc.correlate_iq(&samples);
            let direct = direct_sliding(&samples, &reference);
            assert_eq!(fft.len(), direct.len(), "n={n} l={l}");
            for (i, (a, b)) in fft.iter().zip(&direct).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-9,
                    "n={n} l={l} lag {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn short_window_yields_empty() {
        let xc = SlidingCorrelator::new(&test_reference(16));
        assert!(xc.correlate_iq(&test_signal(15)).is_empty());
        assert!(xc.correlate_real(&[0.0; 3]).is_empty());
    }

    #[test]
    fn real_correlation_matches_iq_path() {
        let reference = test_reference(24);
        let series: Vec<f64> = (0..200).map(|i| (0.17 * i as f64).sin().abs()).collect();
        let xc = SlidingCorrelator::new(&reference);
        let real = xc.correlate_real(&series);
        for (off, r) in real.iter().enumerate() {
            let direct: f64 = series[off..off + 24]
                .iter()
                .zip(&reference)
                .map(|(s, c)| s * c)
                .sum();
            assert!((r - direct).abs() < 1e-9, "lag {off}");
        }
    }

    #[test]
    fn running_energy_matches_naive() {
        let samples = test_signal(97);
        let re = RunningEnergy::new(&samples);
        assert_eq!(re.len(), 97);
        for &(off, len) in &[(0usize, 97usize), (3, 10), (90, 7), (50, 0)] {
            let seg = &samples[off..off + len];
            let power: f64 = seg.iter().map(|s| s.power()).sum();
            let abs: f64 = seg.iter().map(|s| s.abs()).sum();
            assert!((re.power(off, len) - power).abs() < 1e-9);
            assert!((re.abs_sum(off, len) - abs).abs() < 1e-9);
            let mean = if len == 0 { 0.0 } else { abs / len as f64 };
            let centered: f64 = seg.iter().map(|s| (s.abs() - mean).powi(2)).sum();
            assert!((re.centered_energy(off, len) - centered).abs() < 1e-9);
        }
    }

    #[test]
    fn running_energy_zero_window_is_zero() {
        let re = RunningEnergy::new(&[Iq::ZERO; 32]);
        assert_eq!(re.power(4, 10), 0.0);
        assert_eq!(re.centered_energy(4, 10), 0.0);
        assert_eq!(re.mean_abs(0, 32), 0.0);
        let empty = RunningEnergy::new(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn centered_energy_never_negative() {
        // A constant envelope has zero mean-removed energy; rounding must
        // not drive the clamped value below zero.
        let samples = vec![Iq::new(0.3, 0.4); 500];
        let re = RunningEnergy::new(&samples);
        for off in 0..400 {
            let e = re.centered_energy(off, 100);
            assert!((0.0..1e-9).contains(&e), "off {off}: {e}");
        }
    }
}
