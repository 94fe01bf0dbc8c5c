//! Explicit-SIMD inner-loop kernels with scalar fallbacks.
//!
//! Every hot inner loop of the receive chain — real dot products, complex
//! multiply-accumulate against a real reference, pointwise spectrum
//! multiplication, radix-4 FFT butterflies, energy sums — funnels through
//! this module. On x86-64 with AVX2+FMA (detected once at runtime) the
//! kernels process two complex samples (four `f64` lanes) per instruction;
//! on every other machine, or when the features are absent, the portable
//! scalar versions run instead. The `*_scalar` functions are public so the
//! equivalence tests in `crates/dsp/tests/simd_equivalence.rs` can pin
//! both implementations together across every lane-remainder case.
//!
//! Numerically the vector kernels are *not* bit-identical to the scalar
//! ones (they reassociate additions across accumulator lanes), but both
//! are exact to ~1e-12 relative on receiver-scale inputs, well inside the
//! 1e-9 window the cross-path detector tests enforce.
//!
//! Safety: the only `unsafe` in `cbma-dsp` lives here. It is confined to
//! (a) reinterpreting `&[Iq]` as interleaved `&[f64]` — sound because
//! [`Iq`] is `#[repr(C)] { re: f64, im: f64 }` — and (b) calling
//! `#[target_feature(enable = "avx2,fma")]` functions after
//! `is_x86_feature_detected!` has confirmed both features.

use cbma_types::Iq;

/// Views a complex slice as its interleaved `[re, im, re, im, …]` floats.
#[inline]
fn as_f64(samples: &[Iq]) -> &[f64] {
    // SAFETY: Iq is #[repr(C)] with exactly two f64 fields, so a slice of
    // n Iq is layout-identical to 2n contiguous f64s.
    unsafe { std::slice::from_raw_parts(samples.as_ptr() as *const f64, 2 * samples.len()) }
}

/// Raw dot product of two equal-length real sequences.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        return unsafe { x86::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Portable reference implementation of [`dot`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Complex multiply-accumulate of IQ samples against a real reference:
/// `Σ_i samples[i] · reference[i]` — the decoder/detector MAC kernel.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_iq_real(samples: &[Iq], reference: &[f64]) -> Iq {
    assert_eq!(
        samples.len(),
        reference.len(),
        "iq correlation requires equal lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        return unsafe { x86::dot_iq_real(samples, reference) };
    }
    dot_iq_real_scalar(samples, reference)
}

/// Portable reference implementation of [`dot_iq_real`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_iq_real_scalar(samples: &[Iq], reference: &[f64]) -> Iq {
    assert_eq!(
        samples.len(),
        reference.len(),
        "iq correlation requires equal lengths"
    );
    samples
        .iter()
        .zip(reference)
        .map(|(s, &r)| s.scale(r))
        .sum()
}

/// Pointwise complex multiplication `dst[i] *= src[i]` — the overlap-save
/// spectrum product.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn spectrum_mul(dst: &mut [Iq], src: &[Iq]) {
    assert_eq!(dst.len(), src.len(), "spectrum product requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::spectrum_mul(dst, src) };
        return;
    }
    spectrum_mul_scalar(dst, src);
}

/// Portable reference implementation of [`spectrum_mul`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn spectrum_mul_scalar(dst: &mut [Iq], src: &[Iq]) {
    assert_eq!(dst.len(), src.len(), "spectrum product requires equal lengths");
    for (x, r) in dst.iter_mut().zip(src) {
        *x *= *r;
    }
}

/// Three-operand spectrum product `dst[i] = a[i] · b[i]` — fuses the
/// copy-then-multiply of the batched overlap-save inner loop into one
/// pass (the K-code engine reads the shared window spectrum K times but
/// never copies it).
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn spectrum_mul_to(dst: &mut [Iq], a: &[Iq], b: &[Iq]) {
    assert_eq!(dst.len(), a.len(), "spectrum product requires equal lengths");
    assert_eq!(dst.len(), b.len(), "spectrum product requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::spectrum_mul_to(dst, a, b) };
        return;
    }
    spectrum_mul_to_scalar(dst, a, b);
}

/// Portable reference implementation of [`spectrum_mul_to`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn spectrum_mul_to_scalar(dst: &mut [Iq], a: &[Iq], b: &[Iq]) {
    assert_eq!(dst.len(), a.len(), "spectrum product requires equal lengths");
    assert_eq!(dst.len(), b.len(), "spectrum product requires equal lengths");
    for ((x, u), v) in dst.iter_mut().zip(a).zip(b) {
        *x = *u * *v;
    }
}

/// Total power `Σ |s|²` of a complex window.
#[inline]
pub fn sum_power(samples: &[Iq]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        return unsafe { x86::sum_sq(as_f64(samples)) };
    }
    sum_power_scalar(samples)
}

/// Portable reference implementation of [`sum_power`].
pub fn sum_power_scalar(samples: &[Iq]) -> f64 {
    samples.iter().map(|s| s.power()).sum()
}

/// Scales every sample by a real factor in place (the inverse-FFT 1/N
/// normalization).
#[inline]
pub fn scale_iq(buf: &mut [Iq], k: f64) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::scale(buf, k) };
        return;
    }
    scale_iq_scalar(buf, k);
}

/// Portable reference implementation of [`scale_iq`].
pub fn scale_iq_scalar(buf: &mut [Iq], k: f64) {
    for x in buf.iter_mut() {
        *x = x.scale(k);
    }
}

/// Subtracts a complex-scaled real envelope in place:
/// `dst[i] -= gain · env[i]` — the SIC cancellation kernel.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn subtract_scaled_real(dst: &mut [Iq], env: &[f64], gain: Iq) {
    assert_eq!(dst.len(), env.len(), "cancellation requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::subtract_scaled_real(dst, env, gain) };
        return;
    }
    subtract_scaled_real_scalar(dst, env, gain);
}

/// Portable reference implementation of [`subtract_scaled_real`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn subtract_scaled_real_scalar(dst: &mut [Iq], env: &[f64], gain: Iq) {
    assert_eq!(dst.len(), env.len(), "cancellation requires equal lengths");
    for (d, &e) in dst.iter_mut().zip(env) {
        *d -= gain.scale(e);
    }
}

/// Writes `√(re² + im²)` of every sample into `out` — the envelope
/// magnitude series.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn magnitudes_into(samples: &[Iq], out: &mut [f64]) {
    assert_eq!(samples.len(), out.len(), "magnitude output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::magnitudes_into(samples, out) };
        return;
    }
    magnitudes_into_scalar(samples, out);
}

/// Portable reference implementation of [`magnitudes_into`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn magnitudes_into_scalar(samples: &[Iq], out: &mut [f64]) {
    assert_eq!(samples.len(), out.len(), "magnitude output length mismatch");
    for (o, s) in out.iter_mut().zip(samples) {
        *o = s.power().sqrt();
    }
}

/// The first radix-2 butterfly stage (`len = 2`, unit twiddle): adjacent
/// pairs `(u, v)` become `(u + v, u − v)`.
///
/// # Panics
///
/// Panics on an odd-length buffer.
#[inline]
pub fn fft_stage_first(buf: &mut [Iq]) {
    assert!(buf.len().is_multiple_of(2), "first stage needs an even buffer");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe { x86::fft_stage_first(buf) };
        return;
    }
    fft_stage_first_scalar(buf);
}

/// Portable reference implementation of [`fft_stage_first`].
///
/// # Panics
///
/// Panics on an odd-length buffer.
pub fn fft_stage_first_scalar(buf: &mut [Iq]) {
    assert!(buf.len().is_multiple_of(2), "first stage needs an even buffer");
    for pair in buf.chunks_exact_mut(2) {
        let u = pair[0];
        let v = pair[1];
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// One radix-2 decimation-in-time butterfly stage of size `len ≥ 4` over
/// the whole buffer: for every chunk of `len` samples and every
/// `k < len/2`, `(chunk[k], chunk[k+len/2])` becomes `(u + w·v, u − w·v)`
/// with `w = tw[k]` (conjugated when `inverse`). `tw` must hold the
/// stage's `len/2` contiguous twiddles.
///
/// [`crate::xcorr::FftPlan`] never runs this stage: it runs
/// [`fft_stage4`], which merges two of them. This scalar form is the
/// reference that merge is tested against.
///
/// # Panics
///
/// Panics if `len < 4`, `len` is not a multiple of 4, `buf.len()` is not a
/// multiple of `len`, or `tw.len() != len / 2`.
pub fn fft_stage_scalar(buf: &mut [Iq], len: usize, tw: &[Iq], inverse: bool) {
    assert!(len >= 4 && len.is_multiple_of(4), "stage length must be 4k");
    assert!(buf.len().is_multiple_of(len), "buffer must tile into chunks");
    assert_eq!(tw.len(), len / 2, "one twiddle per butterfly");
    let half = len / 2;
    for chunk in buf.chunks_exact_mut(len) {
        let (lo, hi) = chunk.split_at_mut(half);
        for (k, (&w0, h)) in tw.iter().zip(hi.iter_mut()).enumerate() {
            let w = if inverse { w0.conj() } else { w0 };
            let u = lo[k];
            let v = *h * w;
            lo[k] = u + v;
            *h = u - v;
        }
    }
}

/// One radix-2 decimation-in-frequency stage of size `len ≥ 4`: for every
/// chunk of `len` samples and every `k < len/2`,
/// `(chunk[k], chunk[k+len/2])` becomes `(u + v, (u − v)·w)` with
/// `w = tw[k]` (conjugated when `inverse`) — the twiddle multiply lands
/// *after* the butterfly, the mirror of [`fft_stage_scalar`]. Like that
/// stage it is the scalar reference for a merged pass, here
/// [`fft_stage4_dif`].
///
/// # Panics
///
/// Panics under the same shape conditions as [`fft_stage_scalar`].
pub fn fft_stage_dif_scalar(buf: &mut [Iq], len: usize, tw: &[Iq], inverse: bool) {
    assert!(len >= 4 && len.is_multiple_of(4), "stage length must be 4k");
    assert!(buf.len().is_multiple_of(len), "buffer must tile into chunks");
    assert_eq!(tw.len(), len / 2, "one twiddle per butterfly");
    let half = len / 2;
    for chunk in buf.chunks_exact_mut(len) {
        let (lo, hi) = chunk.split_at_mut(half);
        for (k, (&w0, h)) in tw.iter().zip(hi.iter_mut()).enumerate() {
            let w = if inverse { w0.conj() } else { w0 };
            let u = lo[k];
            let v = *h;
            lo[k] = u + v;
            *h = (u - v) * w;
        }
    }
}

/// One merged **radix-4 decimation-in-time** stage of size `len ≥ 8`: the
/// exact algebraic fusion of the two radix-2 DIT stages `len/2` and `len`,
/// done in a single pass over the buffer. For every chunk of `len` samples
/// and every `k < q = len/4`, with `W = e^{−2πi/len}` (conjugated when
/// `inverse`, which also flips the `∓i` below to `±i`):
///
/// ```text
/// b̂ = chunk[k+q]·W²ᵏ   ĉ = chunk[k+2q]·Wᵏ   d̂ = chunk[k+3q]·W³ᵏ
/// chunk[k]    = (a + b̂) + (ĉ + d̂)     chunk[k+q]  = (a − b̂) ∓ i(ĉ − d̂)
/// chunk[k+2q] = (a + b̂) − (ĉ + d̂)     chunk[k+3q] = (a − b̂) ± i(ĉ − d̂)
/// ```
///
/// Three complex twiddle multiplies replace the four of the two radix-2
/// stages — ~25% fewer multiplies — and the buffer is walked once instead
/// of twice. `tw1`/`tw2`/`tw3` hold `Wᵏ`/`W²ᵏ`/`W³ᵏ` for `k < q`
/// ([`crate::xcorr::FftPlan`] slices the first two out of its stage-major
/// radix-2 table and owns a dedicated `W³ᵏ` table).
///
/// # Panics
///
/// Panics if `len < 8`, `len` is not a multiple of 8, `buf.len()` is not
/// a multiple of `len`, or any twiddle slice's length differs from
/// `len / 4`.
#[inline]
pub fn fft_stage4(buf: &mut [Iq], len: usize, tw1: &[Iq], tw2: &[Iq], tw3: &[Iq], inverse: bool) {
    check_stage4(buf, len, tw1, tw2, tw3);
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime; len/4 is
        // even so the quarter strides split into whole 2-complex vectors.
        unsafe {
            if inverse {
                x86::fft_stage4::<true>(buf, len, tw1, tw2, tw3);
            } else {
                x86::fft_stage4::<false>(buf, len, tw1, tw2, tw3);
            }
        }
        return;
    }
    fft_stage4_scalar(buf, len, tw1, tw2, tw3, inverse);
}

/// Portable reference implementation of [`fft_stage4`].
///
/// # Panics
///
/// Panics under the same shape conditions as [`fft_stage4`].
pub fn fft_stage4_scalar(
    buf: &mut [Iq],
    len: usize,
    tw1: &[Iq],
    tw2: &[Iq],
    tw3: &[Iq],
    inverse: bool,
) {
    check_stage4(buf, len, tw1, tw2, tw3);
    let q = len / 4;
    for chunk in buf.chunks_exact_mut(len) {
        for k in 0..q {
            let (w1, w2, w3) = if inverse {
                (tw1[k].conj(), tw2[k].conj(), tw3[k].conj())
            } else {
                (tw1[k], tw2[k], tw3[k])
            };
            let a = chunk[k];
            let b = chunk[k + q] * w2;
            let c = chunk[k + 2 * q] * w1;
            let d = chunk[k + 3 * q] * w3;
            let s0 = a + b;
            let s1 = a - b;
            let s2 = c + d;
            let s3 = c - d;
            let j3 = Iq::new(-s3.im, s3.re); // i·s3
            chunk[k] = s0 + s2;
            chunk[k + 2 * q] = s0 - s2;
            if inverse {
                chunk[k + q] = s1 + j3;
                chunk[k + 3 * q] = s1 - j3;
            } else {
                chunk[k + q] = s1 - j3;
                chunk[k + 3 * q] = s1 + j3;
            }
        }
    }
}

/// The final **radix-4 decimation-in-time** stage (`len = 4`, all unit
/// twiddles): the fusion of [`fft_stage_first`] with the `len = 4` DIT
/// stage, so a DIT ladder over an even-log₂ transform never runs a
/// separate radix-2 pass.
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of 4.
#[inline]
pub fn fft_stage4_last(buf: &mut [Iq], inverse: bool) {
    assert!(buf.len().is_multiple_of(4), "radix-4 stage needs 4k samples");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe {
            if inverse {
                x86::fft_stage4_last::<true>(buf);
            } else {
                x86::fft_stage4_last::<false>(buf);
            }
        }
        return;
    }
    fft_stage4_last_scalar(buf, inverse);
}

/// Portable reference implementation of [`fft_stage4_last`].
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of 4.
pub fn fft_stage4_last_scalar(buf: &mut [Iq], inverse: bool) {
    assert!(buf.len().is_multiple_of(4), "radix-4 stage needs 4k samples");
    for chunk in buf.chunks_exact_mut(4) {
        let s0 = chunk[0] + chunk[1];
        let s1 = chunk[0] - chunk[1];
        let s2 = chunk[2] + chunk[3];
        let s3 = chunk[2] - chunk[3];
        let j3 = Iq::new(-s3.im, s3.re);
        chunk[0] = s0 + s2;
        chunk[2] = s0 - s2;
        if inverse {
            chunk[1] = s1 + j3;
            chunk[3] = s1 - j3;
        } else {
            chunk[1] = s1 - j3;
            chunk[3] = s1 + j3;
        }
    }
}

/// One merged **radix-4 decimation-in-frequency** stage of size
/// `len ≥ 8`: the fusion of the radix-2 DIF stages `len` and `len/2`,
/// with the twiddle multiplies landing *after* the butterfly (the mirror
/// of [`fft_stage4`]):
///
/// ```text
/// t0 = a + c   t1 = a − c   t2 = b + d   t3 = b − d
/// chunk[k]    = t0 + t2            chunk[k+q]  = (t0 − t2)·W²ᵏ
/// chunk[k+2q] = (t1 ∓ i·t3)·Wᵏ     chunk[k+3q] = (t1 ± i·t3)·W³ᵏ
/// ```
///
/// Chained largest-first this produces the same bit-reversed spectral
/// order as the radix-2 DIF cascade, so it composes with
/// [`fft_stage4`]'s DIT ladder permutation-free.
///
/// # Panics
///
/// Panics under the same shape conditions as [`fft_stage4`].
#[inline]
pub fn fft_stage4_dif(
    buf: &mut [Iq],
    len: usize,
    tw1: &[Iq],
    tw2: &[Iq],
    tw3: &[Iq],
    inverse: bool,
) {
    check_stage4(buf, len, tw1, tw2, tw3);
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime; len/4 is
        // even so the quarter strides split into whole 2-complex vectors.
        unsafe {
            if inverse {
                x86::fft_stage4_dif::<true>(buf, len, tw1, tw2, tw3);
            } else {
                x86::fft_stage4_dif::<false>(buf, len, tw1, tw2, tw3);
            }
        }
        return;
    }
    fft_stage4_dif_scalar(buf, len, tw1, tw2, tw3, inverse);
}

/// Portable reference implementation of [`fft_stage4_dif`].
///
/// # Panics
///
/// Panics under the same shape conditions as [`fft_stage4`].
pub fn fft_stage4_dif_scalar(
    buf: &mut [Iq],
    len: usize,
    tw1: &[Iq],
    tw2: &[Iq],
    tw3: &[Iq],
    inverse: bool,
) {
    check_stage4(buf, len, tw1, tw2, tw3);
    let q = len / 4;
    for chunk in buf.chunks_exact_mut(len) {
        for k in 0..q {
            let (w1, w2, w3) = if inverse {
                (tw1[k].conj(), tw2[k].conj(), tw3[k].conj())
            } else {
                (tw1[k], tw2[k], tw3[k])
            };
            let a = chunk[k];
            let b = chunk[k + q];
            let c = chunk[k + 2 * q];
            let d = chunk[k + 3 * q];
            let t0 = a + c;
            let t1 = a - c;
            let t2 = b + d;
            let t3 = b - d;
            let j3 = Iq::new(-t3.im, t3.re); // i·t3
            chunk[k] = t0 + t2;
            chunk[k + q] = (t0 - t2) * w2;
            if inverse {
                chunk[k + 2 * q] = (t1 + j3) * w1;
                chunk[k + 3 * q] = (t1 - j3) * w3;
            } else {
                chunk[k + 2 * q] = (t1 - j3) * w1;
                chunk[k + 3 * q] = (t1 + j3) * w3;
            }
        }
    }
}

/// The final **radix-4 decimation-in-frequency** stage (`len = 4`, all
/// unit twiddles): the fusion of the `len = 4` DIF stage with
/// [`fft_stage_first`].
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of 4.
#[inline]
pub fn fft_stage4_dif_last(buf: &mut [Iq], inverse: bool) {
    assert!(buf.len().is_multiple_of(4), "radix-4 stage needs 4k samples");
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: available() confirmed avx2+fma at runtime.
        unsafe {
            if inverse {
                x86::fft_stage4_dif_last::<true>(buf);
            } else {
                x86::fft_stage4_dif_last::<false>(buf);
            }
        }
        return;
    }
    fft_stage4_dif_last_scalar(buf, inverse);
}

/// Portable reference implementation of [`fft_stage4_dif_last`].
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of 4.
pub fn fft_stage4_dif_last_scalar(buf: &mut [Iq], inverse: bool) {
    assert!(buf.len().is_multiple_of(4), "radix-4 stage needs 4k samples");
    for chunk in buf.chunks_exact_mut(4) {
        let t0 = chunk[0] + chunk[2];
        let t1 = chunk[0] - chunk[2];
        let t2 = chunk[1] + chunk[3];
        let t3 = chunk[1] - chunk[3];
        let j3 = Iq::new(-t3.im, t3.re);
        chunk[0] = t0 + t2;
        chunk[1] = t0 - t2;
        if inverse {
            chunk[2] = t1 + j3;
            chunk[3] = t1 - j3;
        } else {
            chunk[2] = t1 - j3;
            chunk[3] = t1 + j3;
        }
    }
}

/// Shared shape contract of the strided radix-4 stage kernels.
fn check_stage4(buf: &[Iq], len: usize, tw1: &[Iq], tw2: &[Iq], tw3: &[Iq]) {
    assert!(len >= 8 && len.is_multiple_of(8), "stage length must be 8k");
    assert!(buf.len().is_multiple_of(len), "buffer must tile into chunks");
    let q = len / 4;
    assert_eq!(tw1.len(), q, "one Wᵏ twiddle per butterfly");
    assert_eq!(tw2.len(), q, "one W²ᵏ twiddle per butterfly");
    assert_eq!(tw3.len(), q, "one W³ᵏ twiddle per butterfly");
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Iq;
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = undetected, 1 = scalar only, 2 = avx2+fma.
    static LEVEL: AtomicU8 = AtomicU8::new(0);

    #[inline]
    fn detect() -> bool {
        let avx2 =
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
        LEVEL.store(if avx2 { 2 } else { 1 }, Ordering::Relaxed);
        avx2
    }

    #[inline]
    pub fn available() -> bool {
        match LEVEL.load(Ordering::Relaxed) {
            0 => detect(),
            level => level == 2,
        }
    }

    /// Sums the four lanes of a vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `b.len() >= a.len()`: every 4-lane load reads
    /// indices below `a.len()` of both slices.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            i += 8;
        }
        if i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        let mut total = hsum(_mm256_add_pd(acc0, acc1));
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`). Loads stay below `a.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_sq(a: &[f64]) -> f64 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let x0 = _mm256_loadu_pd(ap.add(i));
            let x1 = _mm256_loadu_pd(ap.add(i + 4));
            acc0 = _mm256_fmadd_pd(x0, x0, acc0);
            acc1 = _mm256_fmadd_pd(x1, x1, acc1);
            i += 8;
        }
        if i + 4 <= n {
            let x0 = _mm256_loadu_pd(ap.add(i));
            acc0 = _mm256_fmadd_pd(x0, x0, acc0);
            i += 4;
        }
        let mut total = hsum(_mm256_add_pd(acc0, acc1));
        while i < n {
            total += a[i] * a[i];
            i += 1;
        }
        total
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `reference.len() >= samples.len()`. `Iq` is
    /// `#[repr(C)]` with two `f64`s, so sample `i` is the `f64` pair at `2i`;
    /// loads stay below `2·samples.len()` and `samples.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_iq_real(samples: &[Iq], reference: &[f64]) -> Iq {
        let n = samples.len();
        let sp = samples.as_ptr() as *const f64;
        let rp = reference.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // [r0, r1, r2, r3] expanded to per-component pairs.
            let r4 = _mm256_loadu_pd(rp.add(i));
            let e01 = _mm256_permute4x64_pd(r4, 0x50); // [r0, r0, r1, r1]
            let e23 = _mm256_permute4x64_pd(r4, 0xFA); // [r2, r2, r3, r3]
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(sp.add(2 * i)), e01, acc0);
            acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(sp.add(2 * i + 4)), e23, acc1);
            i += 4;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let pair = _mm_add_pd(lo, hi); // [Σre, Σim]
        let mut re = _mm_cvtsd_f64(pair);
        let mut im = _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
        while i < n {
            let s = samples[i];
            let r = reference[i];
            re += s.re * r;
            im += s.im * r;
            i += 1;
        }
        Iq::new(re, im)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `src.len() >= dst.len()`; `Iq` viewed as `f64`
    /// pairs as in `dot_iq_real`, with loads and stores below `2·dst.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn spectrum_mul(dst: &mut [Iq], src: &[Iq]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let mut i = 0;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(dp.add(2 * i)); // [a, b] pairs
            let w = _mm256_loadu_pd(sp.add(2 * i)); // [c, d] pairs
            let wre = _mm256_movedup_pd(w); // [c, c]
            let wim = _mm256_permute_pd(w, 0xF); // [d, d]
            let vsw = _mm256_permute_pd(v, 0x5); // [b, a]
            let t2 = _mm256_mul_pd(vsw, wim); // [b·d, a·d]
            // [a·c − b·d, b·c + a·d]
            let prod = _mm256_fmaddsub_pd(v, wre, t2);
            _mm256_storeu_pd(dp.add(2 * i), prod);
            i += 2;
        }
        while i < n {
            dst[i] *= src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `a.len()` and `b.len()` are both `>= dst.len()`;
    /// `Iq` viewed as `f64` pairs, with loads and stores below `2·dst.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn spectrum_mul_to(dst: &mut [Iq], a: &[Iq], b: &[Iq]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let ap = a.as_ptr() as *const f64;
        let bp = b.as_ptr() as *const f64;
        let mut i = 0;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(ap.add(2 * i)); // [a, b] pairs
            let w = _mm256_loadu_pd(bp.add(2 * i)); // [c, d] pairs
            let wre = _mm256_movedup_pd(w); // [c, c]
            let wim = _mm256_permute_pd(w, 0xF); // [d, d]
            let vsw = _mm256_permute_pd(v, 0x5); // [b, a]
            let t2 = _mm256_mul_pd(vsw, wim); // [b·d, a·d]
            // [a·c − b·d, b·c + a·d]
            let prod = _mm256_fmaddsub_pd(v, wre, t2);
            _mm256_storeu_pd(dp.add(2 * i), prod);
            i += 2;
        }
        while i < n {
            dst[i] = a[i] * b[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`). Loads, stores and the scalar tail stay below
    /// `2·buf.len()` of the `f64` view of `buf`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale(buf: &mut [Iq], k: f64) {
        let n2 = 2 * buf.len();
        let p = buf.as_mut_ptr() as *mut f64;
        let kv = _mm256_set1_pd(k);
        let mut i = 0;
        while i + 4 <= n2 {
            _mm256_storeu_pd(p.add(i), _mm256_mul_pd(_mm256_loadu_pd(p.add(i)), kv));
            i += 4;
        }
        while i < n2 {
            *p.add(i) *= k;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `env.len() >= dst.len()`; `Iq` viewed as `f64`
    /// pairs, with accesses below `2·dst.len()` and `dst.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn subtract_scaled_real(dst: &mut [Iq], env: &[f64], gain: Iq) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let ep = env.as_ptr();
        let g = _mm256_setr_pd(gain.re, gain.im, gain.re, gain.im);
        let mut i = 0;
        while i + 4 <= n {
            let e4 = _mm256_loadu_pd(ep.add(i));
            let e01 = _mm256_permute4x64_pd(e4, 0x50);
            let e23 = _mm256_permute4x64_pd(e4, 0xFA);
            let d01 = _mm256_loadu_pd(dp.add(2 * i));
            let d23 = _mm256_loadu_pd(dp.add(2 * i + 4));
            _mm256_storeu_pd(dp.add(2 * i), _mm256_fnmadd_pd(g, e01, d01));
            _mm256_storeu_pd(dp.add(2 * i + 4), _mm256_fnmadd_pd(g, e23, d23));
            i += 4;
        }
        while i < n {
            dst[i] -= gain.scale(env[i]);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `out.len() >= samples.len()`: the tail writes
    /// `out[i]` through the raw pointer for every `i < samples.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn magnitudes_into(samples: &[Iq], out: &mut [f64]) {
        let n = samples.len();
        let sp = samples.as_ptr() as *const f64;
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x0 = _mm256_loadu_pd(sp.add(2 * i));
            let x1 = _mm256_loadu_pd(sp.add(2 * i + 4));
            let s0 = _mm256_mul_pd(x0, x0);
            let s1 = _mm256_mul_pd(x1, x1);
            // hadd interleaves the two sources: [a01, b01, a23, b23] →
            // permute to sample order before the square root.
            let sums = _mm256_permute4x64_pd(_mm256_hadd_pd(s0, s1), 0xD8);
            _mm256_storeu_pd(op.add(i), _mm256_sqrt_pd(sums));
            i += 4;
        }
        while i < n {
            *op.add(i) = samples[i].power().sqrt();
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `buf.len()` is even, so the 2-complex vectors tile
    /// the buffer exactly.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fft_stage_first(buf: &mut [Iq]) {
        let n2 = 2 * buf.len();
        let p = buf.as_mut_ptr() as *mut f64;
        let signs = _mm256_setr_pd(1.0, 1.0, -1.0, -1.0);
        let mut i = 0;
        while i + 4 <= n2 {
            let x = _mm256_loadu_pd(p.add(i)); // [u, v]
            let swap = _mm256_permute2f128_pd(x, x, 0x01); // [v, u]
            // [v + u, u − v]
            _mm256_storeu_pd(p.add(i), _mm256_fmadd_pd(x, signs, swap));
            i += 4;
        }
        // Odd single-complex tail cannot occur (even length asserted by
        // the dispatcher), so nothing remains.
    }

    /// Two packed complex products `v·w` (or `v·conj(w)` when `INVERSE`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cmul<const INVERSE: bool>(v: __m256d, w: __m256d) -> __m256d {
        let wre = _mm256_movedup_pd(w);
        let wim = _mm256_permute_pd(w, 0xF);
        let t2 = _mm256_mul_pd(_mm256_permute_pd(v, 0x5), wim);
        if INVERSE {
            _mm256_fmsubadd_pd(v, wre, t2)
        } else {
            _mm256_fmaddsub_pd(v, wre, t2)
        }
    }

    /// Two packed `i·v` rotations: `(re, im) → (−im, re)`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rot90(v: __m256d) -> __m256d {
        let neg_re = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
        _mm256_xor_pd(_mm256_permute_pd(v, 0x5), neg_re)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), `len >= 8` with `len/4` even, `buf.len()` is a
    /// multiple of `len`, and `tw1`/`tw2`/`tw3` each hold `len/4` twiddles:
    /// every load and store stays inside one quarter of one chunk.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fft_stage4<const INVERSE: bool>(
        buf: &mut [Iq],
        len: usize,
        tw1: &[Iq],
        tw2: &[Iq],
        tw3: &[Iq],
    ) {
        let q = len / 4;
        let flim = 2 * q; // f64 length of one quarter
        let t1p = tw1.as_ptr() as *const f64;
        let t2p = tw2.as_ptr() as *const f64;
        let t3p = tw3.as_ptr() as *const f64;
        for chunk in buf.chunks_exact_mut(len) {
            let p = chunk.as_mut_ptr() as *mut f64;
            let mut f = 0; // f64 offset within the quarter, 2 complex/iter
            while f < flim {
                let a = _mm256_loadu_pd(p.add(f));
                let b = _mm256_loadu_pd(p.add(f + 2 * q));
                let c = _mm256_loadu_pd(p.add(f + 4 * q));
                let d = _mm256_loadu_pd(p.add(f + 6 * q));
                let bh = cmul::<INVERSE>(b, _mm256_loadu_pd(t2p.add(f)));
                let ch = cmul::<INVERSE>(c, _mm256_loadu_pd(t1p.add(f)));
                let dh = cmul::<INVERSE>(d, _mm256_loadu_pd(t3p.add(f)));
                let s0 = _mm256_add_pd(a, bh);
                let s1 = _mm256_sub_pd(a, bh);
                let s2 = _mm256_add_pd(ch, dh);
                let s3 = _mm256_sub_pd(ch, dh);
                let j3 = rot90(s3);
                _mm256_storeu_pd(p.add(f), _mm256_add_pd(s0, s2));
                _mm256_storeu_pd(p.add(f + 4 * q), _mm256_sub_pd(s0, s2));
                if INVERSE {
                    _mm256_storeu_pd(p.add(f + 2 * q), _mm256_add_pd(s1, j3));
                    _mm256_storeu_pd(p.add(f + 6 * q), _mm256_sub_pd(s1, j3));
                } else {
                    _mm256_storeu_pd(p.add(f + 2 * q), _mm256_sub_pd(s1, j3));
                    _mm256_storeu_pd(p.add(f + 6 * q), _mm256_add_pd(s1, j3));
                }
                f += 4;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `buf.len()` is a multiple of 4, so each 4-complex
    /// step stays inside the buffer.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fft_stage4_last<const INVERSE: bool>(buf: &mut [Iq]) {
        let n2 = 2 * buf.len();
        let p = buf.as_mut_ptr() as *mut f64;
        let signs = _mm256_setr_pd(1.0, 1.0, -1.0, -1.0);
        // Sign mask giving `[s2, ∓i·s3]` from `[s2, (s3.im, s3.re)]`.
        let jmask = if INVERSE {
            _mm256_setr_pd(0.0, 0.0, -0.0, 0.0) // +i·s3 = (−im, re)
        } else {
            _mm256_setr_pd(0.0, 0.0, 0.0, -0.0) // −i·s3 = (im, −re)
        };
        let mut i = 0;
        while i + 8 <= n2 {
            let v01 = _mm256_loadu_pd(p.add(i));
            let v23 = _mm256_loadu_pd(p.add(i + 4));
            // [c0 + c1, c0 − c1] and [c2 + c3, c2 − c3].
            let s01 = _mm256_fmadd_pd(v01, signs, _mm256_permute2f128_pd(v01, v01, 0x01));
            let s23 = _mm256_fmadd_pd(v23, signs, _mm256_permute2f128_pd(v23, v23, 0x01));
            // [s2.re, s2.im, s3.im, s3.re] → sign-flip into [s2, ∓i·s3].
            let t = _mm256_xor_pd(_mm256_permute_pd(s23, 0x6), jmask);
            _mm256_storeu_pd(p.add(i), _mm256_add_pd(s01, t));
            _mm256_storeu_pd(p.add(i + 4), _mm256_sub_pd(s01, t));
            i += 8;
        }
    }

    /// # Safety
    ///
    /// As [`fft_stage4`]: the CPU must support AVX2 and FMA (the dispatcher
    /// checks `available()`), `len >= 8` with `len/4` even, `buf.len()` a
    /// multiple of `len`, and `len/4` twiddles in each table.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fft_stage4_dif<const INVERSE: bool>(
        buf: &mut [Iq],
        len: usize,
        tw1: &[Iq],
        tw2: &[Iq],
        tw3: &[Iq],
    ) {
        let q = len / 4;
        let t1p = tw1.as_ptr() as *const f64;
        let t2p = tw2.as_ptr() as *const f64;
        let t3p = tw3.as_ptr() as *const f64;
        for chunk in buf.chunks_exact_mut(len) {
            let p = chunk.as_mut_ptr() as *mut f64;
            let mut f = 0; // f64 offset within the quarter, 2 complex/iter
            while f < 2 * q {
                let a = _mm256_loadu_pd(p.add(f));
                let b = _mm256_loadu_pd(p.add(f + 2 * q));
                let c = _mm256_loadu_pd(p.add(f + 4 * q));
                let d = _mm256_loadu_pd(p.add(f + 6 * q));
                let t0 = _mm256_add_pd(a, c);
                let t1 = _mm256_sub_pd(a, c);
                let t2 = _mm256_add_pd(b, d);
                let t3 = _mm256_sub_pd(b, d);
                let j3 = rot90(t3);
                _mm256_storeu_pd(p.add(f), _mm256_add_pd(t0, t2));
                let w2 = _mm256_loadu_pd(t2p.add(f));
                _mm256_storeu_pd(p.add(f + 2 * q), cmul::<INVERSE>(_mm256_sub_pd(t0, t2), w2));
                let (hi, lo) = if INVERSE {
                    (_mm256_add_pd(t1, j3), _mm256_sub_pd(t1, j3))
                } else {
                    (_mm256_sub_pd(t1, j3), _mm256_add_pd(t1, j3))
                };
                let w1 = _mm256_loadu_pd(t1p.add(f));
                let w3 = _mm256_loadu_pd(t3p.add(f));
                _mm256_storeu_pd(p.add(f + 4 * q), cmul::<INVERSE>(hi, w1));
                _mm256_storeu_pd(p.add(f + 6 * q), cmul::<INVERSE>(lo, w3));
                f += 4;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher checks
    /// `available()`), and `buf.len()` is a multiple of 4.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fft_stage4_dif_last<const INVERSE: bool>(buf: &mut [Iq]) {
        let n2 = 2 * buf.len();
        let p = buf.as_mut_ptr() as *mut f64;
        let signs = _mm256_setr_pd(1.0, 1.0, -1.0, -1.0);
        // [t1 ∓ i·t3, t1 ± i·t3] = [t1, t1] + signs·[t3.im, t3.re, …].
        let jsigns = if INVERSE {
            _mm256_setr_pd(-1.0, 1.0, 1.0, -1.0)
        } else {
            _mm256_setr_pd(1.0, -1.0, -1.0, 1.0)
        };
        let mut i = 0;
        while i + 8 <= n2 {
            let v01 = _mm256_loadu_pd(p.add(i));
            let v23 = _mm256_loadu_pd(p.add(i + 4));
            let s = _mm256_add_pd(v01, v23); // [t0, t2]
            let d = _mm256_sub_pd(v01, v23); // [t1, t3]
            // [t0 + t2, t0 − t2].
            let out01 = _mm256_fmadd_pd(s, signs, _mm256_permute2f128_pd(s, s, 0x01));
            let t1d = _mm256_permute2f128_pd(d, d, 0x00); // [t1, t1]
            let t3sw = _mm256_permute_pd(_mm256_permute2f128_pd(d, d, 0x11), 0x5);
            let out23 = _mm256_fmadd_pd(t3sw, jsigns, t1d);
            _mm256_storeu_pd(p.add(i), out01);
            _mm256_storeu_pd(p.add(i + 4), out23);
            i += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<Iq> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Iq::new((0.37 * t).sin() + 0.2, (0.11 * t).cos() - 0.1)
            })
            .collect()
    }

    fn reals(n: usize) -> Vec<f64> {
        (0..n).map(|i| (0.73 * i as f64).sin() - 0.1).collect()
    }

    #[test]
    fn dot_matches_scalar_across_remainders() {
        for n in 0..40 {
            let a = reals(n);
            let b: Vec<f64> = (0..n).map(|i| (0.31 * i as f64).cos()).collect();
            let fast = dot(&a, &b);
            let slow = dot_scalar(&a, &b);
            assert!((fast - slow).abs() < 1e-9, "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn dot_iq_real_matches_scalar_across_remainders() {
        for n in 0..40 {
            let s = signal(n);
            let r = reals(n);
            let fast = dot_iq_real(&s, &r);
            let slow = dot_iq_real_scalar(&s, &r);
            assert!((fast - slow).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn spectrum_mul_matches_scalar() {
        for n in 0..20 {
            let src = signal(n);
            let mut fast = signal(n);
            let mut slow = fast.clone();
            spectrum_mul(&mut fast, &src);
            spectrum_mul_scalar(&mut slow, &src);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn power_scale_magnitude_and_cancel_match_scalar() {
        for n in 0..33 {
            let s = signal(n);
            assert!((sum_power(&s) - sum_power_scalar(&s)).abs() < 1e-9, "n={n}");

            let mut a = s.clone();
            let mut b = s.clone();
            scale_iq(&mut a, 0.37);
            scale_iq_scalar(&mut b, 0.37);
            assert_eq!(a, b, "scale n={n}");

            let env = reals(n);
            let g = Iq::new(0.8, -0.45);
            let mut a = s.clone();
            let mut b = s.clone();
            subtract_scaled_real(&mut a, &env, g);
            subtract_scaled_real_scalar(&mut b, &env, g);
            for (x, y) in a.iter().zip(&b) {
                assert!((*x - *y).abs() < 1e-12, "cancel n={n}");
            }

            let mut ma = vec![0.0; n];
            let mut mb = vec![0.0; n];
            magnitudes_into(&s, &mut ma);
            magnitudes_into_scalar(&s, &mut mb);
            for (x, y) in ma.iter().zip(&mb) {
                assert!((x - y).abs() < 1e-12, "mag n={n}");
            }
        }
    }

    #[test]
    fn butterfly_stages_match_scalar() {
        let buf = signal(16);
        let mut fast = buf.clone();
        let mut slow = buf;
        fft_stage_first(&mut fast);
        fft_stage_first_scalar(&mut slow);
        assert_eq!(fast, slow);
    }

    fn radix4_twiddles(len: usize) -> (Vec<Iq>, Vec<Iq>, Vec<Iq>) {
        let q = len / 4;
        let w = |m: usize| {
            (0..q)
                .map(|k| Iq::phasor(-2.0 * std::f64::consts::PI * (m * k) as f64 / len as f64))
                .collect::<Vec<Iq>>()
        };
        (w(1), w(2), w(3))
    }

    #[test]
    fn radix4_stages_match_scalar() {
        for log in 3..9usize {
            let len = 1 << log;
            let (tw1, tw2, tw3) = radix4_twiddles(len);
            for chunks in [1usize, 2, 4] {
                let buf = signal(len * chunks);
                for inverse in [false, true] {
                    let mut fast = buf.clone();
                    let mut slow = buf.clone();
                    fft_stage4(&mut fast, len, &tw1, &tw2, &tw3, inverse);
                    fft_stage4_scalar(&mut slow, len, &tw1, &tw2, &tw3, inverse);
                    for (a, b) in fast.iter().zip(&slow) {
                        assert!((*a - *b).abs() < 1e-12, "dit len={len} inv={inverse}");
                    }

                    let mut fast = buf.clone();
                    let mut slow = buf.clone();
                    fft_stage4_dif(&mut fast, len, &tw1, &tw2, &tw3, inverse);
                    fft_stage4_dif_scalar(&mut slow, len, &tw1, &tw2, &tw3, inverse);
                    for (a, b) in fast.iter().zip(&slow) {
                        assert!((*a - *b).abs() < 1e-12, "dif len={len} inv={inverse}");
                    }
                }
            }
        }
        for n in [4usize, 8, 20, 64] {
            let buf = signal(n);
            for inverse in [false, true] {
                let mut fast = buf.clone();
                let mut slow = buf.clone();
                fft_stage4_last(&mut fast, inverse);
                fft_stage4_last_scalar(&mut slow, inverse);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!((*a - *b).abs() < 1e-12, "last n={n} inv={inverse}");
                }

                let mut fast = buf.clone();
                let mut slow = buf.clone();
                fft_stage4_dif_last(&mut fast, inverse);
                fft_stage4_dif_last_scalar(&mut slow, inverse);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!((*a - *b).abs() < 1e-12, "dif last n={n} inv={inverse}");
                }
            }
        }
    }

    #[test]
    fn radix4_stage_merges_two_radix2_stages() {
        // One radix-4 DIT pass == radix-2 stage len/2 then len; one
        // radix-4 DIF pass == radix-2 stage len then len/2.
        for len in [8usize, 32, 256] {
            let half = len / 2;
            let tw_for = |l: usize| {
                (0..l / 2)
                    .map(|k| Iq::phasor(-2.0 * std::f64::consts::PI * k as f64 / l as f64))
                    .collect::<Vec<Iq>>()
            };
            let (tw1, tw2, tw3) = radix4_twiddles(len);
            let buf = signal(len * 2);
            for inverse in [false, true] {
                let mut merged = buf.clone();
                fft_stage4(&mut merged, len, &tw1, &tw2, &tw3, inverse);
                let mut pair = buf.clone();
                fft_stage_scalar(&mut pair, half, &tw_for(half), inverse);
                fft_stage_scalar(&mut pair, len, &tw_for(len), inverse);
                for (a, b) in merged.iter().zip(&pair) {
                    assert!((*a - *b).abs() < 1e-9, "dit len={len} inv={inverse}");
                }

                let mut merged = buf.clone();
                fft_stage4_dif(&mut merged, len, &tw1, &tw2, &tw3, inverse);
                let mut pair = buf.clone();
                fft_stage_dif_scalar(&mut pair, len, &tw_for(len), inverse);
                fft_stage_dif_scalar(&mut pair, half, &tw_for(half), inverse);
                for (a, b) in merged.iter().zip(&pair) {
                    assert!((*a - *b).abs() < 1e-9, "dif len={len} inv={inverse}");
                }
            }
        }
    }
}
