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
//! * [`correlate`] — the single-lag correlation of IQ samples against a
//!   bipolar code reference, behind the detector's probes and channel-gain
//!   estimates,
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
//! use cbma_dsp::correlate_iq_bipolar;
//! use cbma_types::Iq;
//!
//! // The code's chips received under an unknown phase rotation: the
//! // magnitude of the complex correlation is the code's energy whatever
//! // the phase.
//! let code = [1.0, -1.0, 1.0, 1.0, -1.0];
//! let received: Vec<Iq> = code.iter().map(|&c| Iq::phasor(0.7).scale(c)).collect();
//! let corr = correlate_iq_bipolar(&received, &code);
//! assert!((corr.abs() - 5.0).abs() < 1e-12);
//! ```

pub mod correlate;
pub mod energy;
pub mod fft;
pub mod goertzel;
pub mod mafilter;
pub mod resample;
pub mod simd;
pub mod xcorr;

pub use correlate::correlate_iq_bipolar;
pub use energy::EnergyDetector;
pub use goertzel::Goertzel;
pub use mafilter::MovingAverage;
pub use resample::{downsample_mean, fractional_delay, upsample_repeat};
pub use xcorr::{BatchCorrelator, BatchScratch, FftPlan, RunningEnergy};
