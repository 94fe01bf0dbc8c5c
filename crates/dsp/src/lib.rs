//! Digital signal processing primitives for the CBMA receiver and tags.
//!
//! This crate is the software stand-in for the USRP RIO / LabVIEW signal
//! chain the paper built on (§VI). It provides exactly the blocks the CBMA
//! pipeline needs:
//!
//! * [`mafilter`] — the moving-average filter frame synchronization runs on
//!   the received energy level (§III-B),
//! * [`energy`] — sliding-window energy detection with the +3 dB comparator
//!   threshold,
//! * [`correlate`] — normalized cross-correlation, the core of user
//!   detection and chip decoding,
//! * [`resample`] — up-sampling and fractional-delay interpolation (tag
//!   upsampling §III-A, asynchrony modelling §VII-C.2),
//! * [`xcorr`] — the fast sliding-correlation engine: precomputed
//!   [`xcorr::FftPlan`]s, the one overlap-save engine — the K-code
//!   [`xcorr::BatchCorrelator`], which caches every reference spectrum
//!   and shares one forward FFT per block across them — and
//!   [`xcorr::RunningEnergy`] prefix sums for O(1) segment power/mean
//!   queries — the receiver's user detector runs on these,
//! * [`simd`] — the explicit-SIMD inner-loop kernels (AVX2+FMA with
//!   portable scalar fallbacks and one-time runtime dispatch) that all of
//!   the above funnel through.
//!
//! Two measuring tools round it out: one-shot [`fft`]s and the
//! single-bin [`goertzel`] detector, which the spectral tests use to check
//! what the channel produces.
//!
//! # Examples
//!
//! ```
//! use cbma_dsp::correlate::normalized_correlation;
//!
//! let code = [1.0, -1.0, 1.0, 1.0, -1.0];
//! let same = normalized_correlation(&code, &code);
//! assert!((same - 1.0).abs() < 1e-12);
//! ```

pub mod correlate;
pub mod energy;
pub mod fft;
pub mod goertzel;
pub mod mafilter;
pub mod resample;
pub mod simd;
pub mod xcorr;

pub use correlate::{correlate_iq_bipolar, normalized_correlation};
pub use xcorr::{BatchCorrelator, BatchScratch, FftPlan, RunningEnergy};
pub use energy::EnergyDetector;
pub use goertzel::Goertzel;
pub use mafilter::MovingAverage;
pub use resample::{downsample_mean, fractional_delay, upsample_repeat};
