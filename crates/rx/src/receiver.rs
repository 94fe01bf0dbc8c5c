//! The full receive chain: frame sync → user detection → decoding → ACK.
//!
//! [`Receiver`] is configured once per deployment with the complete code
//! set, then [`Receiver::receive`] processes each captured IQ buffer the
//! way the paper's USRP receiver does (§III-B): find the energy rise,
//! correlate every known PN code's spread preamble around it, decode each
//! detected user coherently, verify CRCs, and broadcast the ACK set.
//!
//! # Examples
//!
//! ```
//! use cbma_codes::{CodeFamily, GoldFamily};
//! use cbma_rx::{Receiver, ReceiverConfig};
//! use cbma_tag::{phy::PhyProfile, Tag};
//! use cbma_types::geometry::Point;
//! use cbma_types::Iq;
//!
//! let phy = PhyProfile::paper_default();
//! let codes = GoldFamily::new(5)?.codes(2)?;
//! let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
//! let envelope = tag.transmit(b"ping".to_vec(), &phy)?;
//!
//! // A clean channel: the envelope at amplitude 0.01, after 300 samples
//! // of silence.
//! let mut iq = vec![Iq::ZERO; 300];
//! iq.extend(envelope.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
//! iq.extend(vec![Iq::ZERO; 64]);
//!
//! let mut receiver = Receiver::new(codes, phy, ReceiverConfig::default());
//! let report = receiver.receive(&iq);
//! assert!(report.ack.acknowledges(0));
//! # Ok::<(), cbma_types::CbmaError>(())
//! ```

use std::time::Instant;

use cbma_codes::PnCode;
use cbma_dsp::xcorr::RunningEnergy;
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cbma_tag::frame::Frame;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::ack::AckMessage;
use crate::decoder::{DecodeOutcome, Decoder, DecoderKind};
use crate::frame_sync::{FrameSync, SyncScratch};
use crate::user_detect::{CorrelationPath, DetectScratch, DetectedUser, UserDetector};

/// Tunable receiver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverConfig {
    /// Moving-average window Wₙ for the energy detector, in samples.
    pub energy_window: usize,
    /// Comparator threshold over the filtered floor, dB (paper: 3 dB).
    pub energy_threshold_db: f64,
    /// Normalized preamble-correlation threshold for user detection.
    pub user_threshold: f64,
    /// How far before the energy edge the preamble search starts, in
    /// chips (the edge can fire slightly late on a slow rise).
    pub search_back_chips: usize,
    /// How far past the energy edge the preamble search extends, in
    /// chips (bounds the tag asynchrony the receiver tolerates).
    pub search_ahead_chips: usize,
    /// Decision statistic: the paper's envelope receiver or the improved
    /// coherent-IQ receiver.
    pub decoder_kind: DecoderKind,
    /// Successive-interference-cancellation passes (0 disables): after
    /// each pass, decoded users are reconstructed and subtracted, and
    /// detection re-runs for still-missing codes on the residual. A
    /// receiver-side complement to the paper's tag-side power control.
    pub sic_passes: usize,
}

impl Default for ReceiverConfig {
    fn default() -> ReceiverConfig {
        ReceiverConfig {
            energy_window: 64,
            energy_threshold_db: 3.0,
            user_threshold: 0.35,
            search_back_chips: 2,
            search_ahead_chips: 6,
            decoder_kind: DecoderKind::Coherent,
            sic_passes: 0,
        }
    }
}

/// One decoded user within a report.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedUser {
    /// The detection that led to this decode.
    pub detection: DetectedUser,
    /// The decode result.
    pub outcome: DecodeOutcome,
    /// The raw decoded bit stream (present whenever the header decoded),
    /// for bit-error instrumentation.
    pub bits: Option<cbma_types::Bits>,
}

/// Per-capture pipeline telemetry: stage spans (monotonic, nanoseconds)
/// and domain measurements, filled on every [`Receiver::receive`] call.
///
/// Stage spans are *cumulative over SIC re-runs*: when SIC re-runs the
/// pipeline on a residual, the re-run's frame-sync/detect/decode time is
/// added to the respective stage **and** covered by `sic_ns` (which times
/// the whole cancellation loop), so `sic_ns` overlaps the other stages.
///
/// Equality ignores the wall-clock stage spans (`*_ns`): two receptions of
/// the same buffer are *equal* when every deterministic output agrees, even
/// though the scheduler never hands out identical nanosecond timings. This
/// keeps `RxReport` equality meaningful for reproducibility tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxTelemetry {
    /// Time in the energy-edge search (frame synchronization).
    pub frame_sync_ns: u64,
    /// Time correlating code preambles (user detection).
    pub user_detect_ns: u64,
    /// Time decoding candidates, resolving aliases and probing.
    pub decode_ns: u64,
    /// Time in the whole SIC loop (reconstruction + cancellation +
    /// pipeline re-runs); 0 when SIC is disabled or skipped.
    pub sic_ns: u64,
    /// Sync candidates that were decoded across all codes.
    pub candidates_evaluated: usize,
    /// Fine-alignment probe correlations attempted (phase 3).
    pub probes_attempted: usize,
    /// Valid decodes suppressed as cross-code aliases.
    pub aliases_suppressed: usize,
    /// Candidate decodes that did not yield a CRC-valid frame.
    pub decode_failures: usize,
    /// The strongest preamble correlation seen (0 when nothing was
    /// detected).
    pub peak_correlation: f64,
    /// `peak_correlation` minus the detection threshold — the margin the
    /// best user cleared §III-B's "predetermined threshold" by (negative
    /// margins never occur: sub-threshold candidates are not reported).
    pub peak_margin: f64,
    /// SIC passes actually executed.
    pub sic_iterations: usize,
    /// Users recovered by SIC (decoded only after cancellation).
    pub sic_recovered: usize,
    /// Mean residual power per sample after the last cancellation pass
    /// (0 when SIC never ran).
    pub sic_residual_energy: f64,
}

impl PartialEq for RxTelemetry {
    fn eq(&self, other: &RxTelemetry) -> bool {
        // Deliberately skips frame_sync_ns / user_detect_ns / decode_ns /
        // sic_ns: wall-clock spans are observability metadata, not part of
        // the receiver's deterministic output.
        self.candidates_evaluated == other.candidates_evaluated
            && self.probes_attempted == other.probes_attempted
            && self.aliases_suppressed == other.aliases_suppressed
            && self.decode_failures == other.decode_failures
            && self.peak_correlation == other.peak_correlation
            && self.peak_margin == other.peak_margin
            && self.sic_iterations == other.sic_iterations
            && self.sic_recovered == other.sic_recovered
            && self.sic_residual_energy == other.sic_residual_energy
    }
}

impl RxTelemetry {
    /// Folds a re-run's telemetry into this capture's totals (stage spans
    /// and counts add; peak statistics keep the maximum).
    fn absorb(&mut self, other: &RxTelemetry) {
        self.frame_sync_ns += other.frame_sync_ns;
        self.user_detect_ns += other.user_detect_ns;
        self.decode_ns += other.decode_ns;
        self.candidates_evaluated += other.candidates_evaluated;
        self.probes_attempted += other.probes_attempted;
        self.aliases_suppressed += other.aliases_suppressed;
        self.decode_failures += other.decode_failures;
        if other.peak_correlation > self.peak_correlation {
            self.peak_correlation = other.peak_correlation;
            self.peak_margin = other.peak_margin;
        }
    }
}

/// The result of processing one captured buffer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RxReport {
    /// Whether the energy detector found a frame at all.
    pub frame_detected: bool,
    /// Every detected user with its decode outcome.
    pub users: Vec<DecodedUser>,
    /// The broadcast ACK (ids whose frames passed CRC).
    pub ack: AckMessage,
    /// Per-stage spans and domain measurements for this capture.
    pub telemetry: RxTelemetry,
}

impl RxReport {
    /// Ids of users that were detected (preamble correlation), decoded or
    /// not.
    pub fn detected_ids(&self) -> Vec<usize> {
        self.users.iter().map(|u| u.detection.code_index).collect()
    }

    /// The successfully decoded frames as `(tag id, frame)` pairs.
    pub fn frames(&self) -> Vec<(usize, &Frame)> {
        self.users
            .iter()
            .filter_map(|u| u.outcome.frame().map(|f| (u.detection.code_index, f)))
            .collect()
    }
}

/// Pre-registered `cbma.rx.*` metric handles (lock-free atomics), bound
/// once by [`Receiver::attach_metrics`] so the receive path never touches
/// the registry lock.
#[derive(Debug, Clone)]
struct RxMetrics {
    stage_frame_sync_ns: Histogram,
    stage_user_detect_ns: Histogram,
    stage_decode_ns: Histogram,
    stage_sic_ns: Histogram,
    peak_margin_milli: Histogram,
    captures: Counter,
    frames_detected: Counter,
    candidates: Counter,
    users_decoded: Counter,
    decode_failures: Counter,
    aliases_suppressed: Counter,
    probes: Counter,
    sic_recovered: Counter,
    scratch_bytes: Gauge,
}

impl RxMetrics {
    fn register(registry: &MetricsRegistry) -> RxMetrics {
        RxMetrics {
            stage_frame_sync_ns: registry.histogram("cbma.rx.stage.frame_sync_ns"),
            stage_user_detect_ns: registry.histogram("cbma.rx.stage.user_detect_ns"),
            stage_decode_ns: registry.histogram("cbma.rx.stage.decode_ns"),
            stage_sic_ns: registry.histogram("cbma.rx.stage.sic_ns"),
            peak_margin_milli: registry.histogram("cbma.rx.peak_margin_milli"),
            captures: registry.counter("cbma.rx.captures"),
            frames_detected: registry.counter("cbma.rx.frames_detected"),
            candidates: registry.counter("cbma.rx.candidates"),
            users_decoded: registry.counter("cbma.rx.users_decoded"),
            decode_failures: registry.counter("cbma.rx.decode_failures"),
            aliases_suppressed: registry.counter("cbma.rx.aliases_suppressed"),
            probes: registry.counter("cbma.rx.probes"),
            sic_recovered: registry.counter("cbma.rx.sic_recovered"),
            scratch_bytes: registry.gauge("cbma.rx.scratch_bytes"),
        }
    }

    /// One capture's telemetry into the registry (one call per receive).
    fn record(&self, report: &RxReport) {
        let t = &report.telemetry;
        self.stage_frame_sync_ns.record(t.frame_sync_ns);
        self.stage_user_detect_ns.record(t.user_detect_ns);
        self.stage_decode_ns.record(t.decode_ns);
        if t.sic_iterations > 0 {
            self.stage_sic_ns.record(t.sic_ns);
        }
        self.captures.inc();
        if report.frame_detected {
            self.frames_detected.inc();
            // Milli-units so the log₂ buckets resolve margins < 1.0.
            self.peak_margin_milli
                .record((t.peak_margin.max(0.0) * 1000.0) as u64);
        }
        self.candidates.add(t.candidates_evaluated as u64);
        self.users_decoded.add(report.ack.len() as u64);
        self.decode_failures.add(t.decode_failures as u64);
        self.aliases_suppressed.add(t.aliases_suppressed as u64);
        self.probes.add(t.probes_attempted as u64);
        self.sic_recovered.add(t.sic_recovered as u64);
    }
}

/// Reusable per-receiver working memory for the whole receive pipeline:
/// frame-sync state, detection buffers, decode candidate lists, alias-
/// resolution tables and the SIC residual. Every buffer is cleared — not
/// dropped — per capture, so a receiver in steady state (repeated captures
/// of similar size) performs **zero heap allocation** on quiet captures
/// and only output-proportional allocation when frames decode. One
/// instance lives in each [`Receiver`]; `parallel_sweep` workers each own
/// a receiver and therefore a private arena.
#[derive(Debug)]
pub struct RxScratch {
    sync: SyncScratch,
    detect: DetectScratch,
    candidates: Vec<Vec<DetectedUser>>,
    decoded: Vec<Vec<DecodedUser>>,
    /// `(code, candidate index)` pairs, sorted by descending correlation.
    order: Vec<(usize, usize)>,
    /// Accepted candidate index per code, if any.
    accepted: Vec<Option<usize>>,
    /// `(code, payload)` pairs claimed by accepted candidates.
    claimed: Vec<(usize, Vec<u8>)>,
    /// Phase-3 timing hypotheses (accepted starts + window origin).
    accepted_starts: Vec<usize>,
    /// Deduplicated phase-3 probe offsets (±1 chip around hypotheses).
    probe_offsets: Vec<usize>,
    /// SIC working copy of the capture.
    residual: Vec<Iq>,
    /// Envelope prefix sums for [`crate::sic::cancel_user_in`].
    env_energy: RunningEnergy,
}

impl RxScratch {
    fn new(sync: &FrameSync) -> RxScratch {
        RxScratch {
            sync: sync.scratch(),
            detect: DetectScratch::new(),
            candidates: Vec::new(),
            decoded: Vec::new(),
            order: Vec::new(),
            accepted: Vec::new(),
            claimed: Vec::new(),
            accepted_starts: Vec::new(),
            probe_offsets: Vec::new(),
            residual: Vec::new(),
            env_energy: RunningEnergy::default(),
        }
    }

    /// Heap capacity held directly by the arena's buffers, in bytes
    /// (excluding per-element owned allocations such as decoded frame
    /// payloads, which leave with the report). Exported as the
    /// `cbma.rx.scratch_bytes` gauge when metrics are attached.
    pub fn capacity_bytes(&self) -> usize {
        self.sync.capacity_bytes()
            + self.detect.capacity_bytes()
            + self.candidates.capacity() * std::mem::size_of::<Vec<DetectedUser>>()
            + self
                .candidates
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<DetectedUser>())
                .sum::<usize>()
            + self.decoded.capacity() * std::mem::size_of::<Vec<DecodedUser>>()
            + self
                .decoded
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<DecodedUser>())
                .sum::<usize>()
            + self.order.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.accepted.capacity() * std::mem::size_of::<Option<usize>>()
            + self.claimed.capacity() * std::mem::size_of::<(usize, Vec<u8>)>()
            + self.accepted_starts.capacity() * std::mem::size_of::<usize>()
            + self.probe_offsets.capacity() * std::mem::size_of::<usize>()
            + self.residual.capacity() * std::mem::size_of::<Iq>()
            + self.env_energy.capacity_bytes()
    }
}

/// The CBMA receiver for one deployment's code set.
#[derive(Debug)]
pub struct Receiver {
    codes: Vec<PnCode>,
    phy: PhyProfile,
    config: ReceiverConfig,
    sync: FrameSync,
    detector: UserDetector,
    decoders: Vec<Decoder>,
    /// Extra backward search in chips: a code that begins with a run of
    /// `0` chips radiates nothing until the run ends, so the energy edge
    /// fires that many chips *after* the frame start.
    leading_silence_chips: usize,
    /// Registered metric handles, when observability is attached.
    metrics: Option<RxMetrics>,
    /// Span recorder, when tracing is attached (see
    /// [`Receiver::attach_tracer`]).
    tracer: Option<Tracer>,
    /// Parent span for the *next* capture only, set by the engine so the
    /// capture span nests under its round span; consumed per receive.
    trace_parent: Option<(TraceId, SpanId)>,
    /// Reusable pipeline working memory (see [`RxScratch`]).
    scratch: RxScratch,
}

/// Per-capture trace context threaded through the pipeline stages:
/// `(tracer, trace id, parent span)`. `None` on the untraced path.
type TraceCtx<'a> = Option<(&'a Tracer, TraceId, SpanId)>;

/// What frame synchronization found in one capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncOutcome {
    /// No energy edge: a quiet capture.
    NoEdge,
    /// An edge fired but the derived search window is empty (the capture
    /// ends at the edge).
    EmptyWindow,
    /// The preamble search window `[start, end)` into the capture.
    Window(usize, usize),
}

impl Receiver {
    /// Builds a receiver that knows the full code set of the deployment.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is empty or the config thresholds are out of
    /// range (see [`UserDetector::new`]).
    pub fn new(codes: Vec<PnCode>, phy: PhyProfile, config: ReceiverConfig) -> Receiver {
        let sync = FrameSync::new(
            config.energy_window,
            cbma_types::units::Db::new(config.energy_threshold_db),
        );
        let detector =
            UserDetector::with_kind(&codes, &phy, config.user_threshold, config.decoder_kind);
        let decoders = codes
            .iter()
            .map(|c| Decoder::with_kind(c, &phy, config.decoder_kind))
            .collect();
        let leading_silence_chips = codes
            .iter()
            .map(|c| c.bits().iter().take_while(|&b| b == 0).count())
            .max()
            .unwrap_or(0);
        let scratch = RxScratch::new(&sync);
        Receiver {
            codes,
            phy,
            config,
            sync,
            detector,
            decoders,
            leading_silence_chips,
            metrics: None,
            tracer: None,
            trace_parent: None,
            scratch,
        }
    }

    /// Attaches a metrics registry: every subsequent [`Receiver::receive`]
    /// records its per-stage spans and domain counters under `cbma.rx.*`.
    ///
    /// Handles are resolved once here; the receive path itself only does
    /// lock-free atomic adds. Without this call the receive path performs
    /// no registry work at all (the per-report [`RxTelemetry`] is always
    /// filled — it costs a handful of monotonic clock reads).
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RxMetrics::register(registry));
    }

    /// Attaches a span tracer: every subsequent [`Receiver::receive`]
    /// records a `capture` span tree (capture → frame_sync / user_detect /
    /// decode / sic → per-code `correlate` and `fft_block` kernels) into
    /// the tracer's ring. Without this call the receive path pays one
    /// `Option` branch per stage and records nothing — the same
    /// NoopSink-is-free guarantee the metric handles follow.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Nests the *next* capture's `capture` span under an existing span
    /// (the engine's per-round span). Consumed by the next
    /// [`Receiver::receive`]; without it each capture starts a fresh
    /// trace. No-op until a tracer is attached.
    pub fn set_trace_parent(&mut self, trace: TraceId, parent: SpanId) {
        self.trace_parent = Some((trace, parent));
    }

    /// The PHY profile the receiver is configured for.
    #[inline]
    pub fn phy(&self) -> &PhyProfile {
        &self.phy
    }

    /// The number of codes (potential users) known to the receiver.
    #[inline]
    pub fn code_count(&self) -> usize {
        self.codes.len()
    }

    /// Processes one captured IQ buffer end to end, applying any
    /// configured SIC passes. The returned report carries per-stage
    /// telemetry; when a registry is attached (see
    /// [`Receiver::attach_metrics`]) the same measurements are also
    /// recorded as `cbma.rx.*` metrics.
    ///
    /// Takes `&mut self` because the pipeline runs out of a per-receiver
    /// scratch arena ([`RxScratch`]): in steady state (captures of similar
    /// size) the whole chain performs zero heap allocation on quiet
    /// captures and only output-proportional allocation when frames
    /// decode.
    pub fn receive(&mut self, samples: &[Iq]) -> RxReport {
        // The tracer is cloned to a local so the trace context can borrow
        // it across the `&mut self` pipeline calls below.
        let tracer = self.tracer.clone();
        let capture_span = tracer.as_ref().map(|t| {
            let (trace, parent) = match self.trace_parent.take() {
                Some((trace, parent)) => (trace, Some(parent)),
                None => (t.new_trace(), None),
            };
            (trace, t.span(trace, parent, "capture"))
        });
        let trace: TraceCtx = capture_span
            .as_ref()
            .map(|(trace, span)| (tracer.as_ref().expect("span implies tracer"), *trace, span.id()));
        let mut report = self.receive_once(samples, trace);
        self.apply_sic(samples, &mut report, trace);
        if let Some(metrics) = &self.metrics {
            metrics.record(&report);
            metrics.scratch_bytes.set(self.scratch.capacity_bytes() as f64);
        }
        report
    }

    /// Runs the configured SIC passes over one capture's report (no-op
    /// when SIC is disabled). `trace` is the parent context the `sic`
    /// span nests under.
    fn apply_sic(&mut self, samples: &[Iq], report: &mut RxReport, trace: TraceCtx) {
        if self.config.sic_passes == 0 {
            return;
        }
        let sic_start = Instant::now();
        let sic_span = trace.map(|(t, tr, parent)| t.span(tr, Some(parent), "sic"));
        let sic_trace: TraceCtx = trace
            .zip(sic_span.as_ref())
            .map(|((t, tr, _), span)| (t, tr, span.id()));
        for _ in 0..self.config.sic_passes {
            report.telemetry.sic_iterations += 1;
            if !self.sic_pass(samples, report, sic_trace) {
                break;
            }
        }
        drop(sic_span);
        report.telemetry.sic_ns = sic_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Heap capacity currently retained by the receiver's scratch arena.
    pub fn scratch_capacity_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
    }

    /// One SIC pass: subtract every decoded user, re-run the pipeline on
    /// the residual, and adopt newly decoded codes. Returns whether the
    /// report changed.
    fn sic_pass(&mut self, samples: &[Iq], report: &mut RxReport, trace: TraceCtx) -> bool {
        let decoded_count = report.users.iter().filter(|u| u.outcome.is_frame()).count();
        if decoded_count == 0 || decoded_count == self.codes.len() {
            return false;
        }
        let spc = self.phy.samples_per_chip();
        // The residual buffer is arena-owned: taken for the duration of
        // the pass (receive_once below re-borrows the scratch) and put
        // back with its capacity intact.
        let mut residual = std::mem::take(&mut self.scratch.residual);
        residual.clear();
        residual.extend_from_slice(samples);
        let mut claimed: Vec<Vec<u8>> = Vec::new();
        for user in report.users.iter().filter(|u| u.outcome.is_frame()) {
            let frame = user.outcome.frame().expect("filtered to frames");
            claimed.push(frame.payload().to_vec());
            let envelope = crate::sic::reconstruct_envelope(
                frame,
                &self.codes[user.detection.code_index],
                &self.phy,
            );
            let window = self.codes[user.detection.code_index].len() * spc;
            crate::sic::cancel_user_in(
                &mut residual,
                user.detection.start,
                &envelope,
                window,
                &mut self.scratch.env_energy,
            );
        }
        if !residual.is_empty() {
            report.telemetry.sic_residual_energy =
                residual.iter().map(|s| s.power()).sum::<f64>() / residual.len() as f64;
        }

        let rerun = self.receive_once(&residual, trace);
        self.scratch.residual = residual;
        report.telemetry.absorb(&rerun.telemetry);
        let mut changed = false;
        for new_user in rerun.users {
            if !new_user.outcome.is_frame() {
                continue;
            }
            let code = new_user.detection.code_index;
            let already = report
                .users
                .iter()
                .any(|u| u.detection.code_index == code && u.outcome.is_frame());
            let duplicate = new_user
                .outcome
                .frame()
                .map(|f| claimed.iter().any(|p| p.as_slice() == f.payload()))
                .unwrap_or(false);
            if already || duplicate {
                continue;
            }
            report.ack.insert(code as u32);
            if let Some(existing) = report
                .users
                .iter_mut()
                .find(|u| u.detection.code_index == code)
            {
                *existing = new_user;
            } else {
                report.users.push(new_user);
            }
            report.telemetry.sic_recovered += 1;
            changed = true;
        }
        changed
    }

    /// Frame synchronization for one capture: finds the best energy edge
    /// and derives the preamble search window, timing the stage into
    /// `telemetry`.
    fn sync_capture(
        &mut self,
        samples: &[Iq],
        telemetry: &mut RxTelemetry,
        trace: TraceCtx,
    ) -> SyncOutcome {
        let stage_start = Instant::now();
        let sync_span = trace.map(|(t, tr, parent)| t.span(tr, Some(parent), "frame_sync"));
        let edge = self.sync.best_edge_in(samples, &mut self.scratch.sync);
        drop(sync_span);
        telemetry.frame_sync_ns = stage_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let Some(edge) = edge else {
            return SyncOutcome::NoEdge;
        };
        let spc = self.phy.samples_per_chip();
        let back = (self.config.search_back_chips + self.leading_silence_chips) * spc;
        let ahead = self.config.search_ahead_chips * spc;
        let window_start = edge.index.saturating_sub(back);
        // The search window must cover the longest spread preamble plus
        // the asynchrony allowance.
        let max_ref = (0..self.codes.len())
            .map(|i| self.detector.reference_len(i))
            .max()
            .unwrap_or(0);
        let window_end = (window_start + back + ahead + max_ref).min(samples.len());
        if window_end <= window_start {
            SyncOutcome::EmptyWindow
        } else {
            SyncOutcome::Window(window_start, window_end)
        }
    }

    /// Runs the detection/decode pipeline once (no SIC). `trace` is the
    /// parent context the stage spans nest under — the capture span on
    /// the first run, the `sic` span on cancellation re-runs, `None` when
    /// no tracer is attached (one branch per stage).
    fn receive_once(&mut self, samples: &[Iq], trace: TraceCtx) -> RxReport {
        let mut telemetry = RxTelemetry::default();
        match self.sync_capture(samples, &mut telemetry, trace) {
            SyncOutcome::NoEdge => RxReport {
                telemetry,
                ..RxReport::default()
            },
            SyncOutcome::EmptyWindow => RxReport {
                frame_detected: true,
                telemetry,
                ..RxReport::default()
            },
            SyncOutcome::Window(start, end) => {
                self.detect_window(samples, start, end, &mut telemetry, trace);
                self.decode_detected(samples, start, telemetry, trace)
            }
        }
    }

    /// The user-detection stage: correlates the search window
    /// `[window_start, window_end)` against every code and fills the
    /// per-code candidate lists in `self.scratch.candidates`, timing the
    /// stage into `telemetry`.
    fn detect_window(
        &mut self,
        samples: &[Iq],
        window_start: usize,
        window_end: usize,
        telemetry: &mut RxTelemetry,
        trace: TraceCtx,
    ) {
        let window = &samples[window_start..window_end];
        let stage_start = Instant::now();
        let RxScratch {
            detect, candidates, ..
        } = &mut self.scratch;
        match trace {
            Some((tracer, tr, parent)) => {
                let span = tracer.span(tr, Some(parent), "user_detect");
                self.detector.detect_candidates_traced(
                    window,
                    window_start,
                    8,
                    CorrelationPath::Auto,
                    detect,
                    candidates,
                    tracer,
                    tr,
                    span.id(),
                );
            }
            None => self.detector.detect_candidates_in(
                window,
                window_start,
                8,
                CorrelationPath::Auto,
                detect,
                candidates,
            ),
        }
        telemetry.user_detect_ns = stage_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// The decode half of the pipeline: consumes the candidate lists in
    /// `self.scratch.candidates` (filled by the detection stage) and runs
    /// candidate decoding, global alias resolution and the fine-alignment
    /// probe fallback. Returns the assembled report with `frame_detected`
    /// set.
    fn decode_detected(
        &mut self,
        samples: &[Iq],
        window_start: usize,
        mut telemetry: RxTelemetry,
        trace: TraceCtx,
    ) -> RxReport {
        let spc = self.phy.samples_per_chip();
        let back = (self.config.search_back_chips + self.leading_silence_chips) * spc;
        let RxScratch {
            candidates,
            decoded,
            order,
            accepted,
            claimed,
            accepted_starts,
            probe_offsets,
            ..
        } = &mut self.scratch;
        telemetry.candidates_evaluated = candidates.iter().map(Vec::len).sum();
        for det in candidates.iter().flatten() {
            if det.correlation > telemetry.peak_correlation {
                telemetry.peak_correlation = det.correlation;
                telemetry.peak_margin = det.correlation - self.detector.threshold();
            }
        }

        let stage_start = Instant::now();
        let _decode_span = trace.map(|(t, tr, parent)| t.span(tr, Some(parent), "decode"));

        // Phase 1: decode every sync candidate of every code. The decode
        // lists are arena-owned: cleared per capture, capacity retained.
        decoded.truncate(candidates.len());
        for v in decoded.iter_mut() {
            v.clear();
        }
        decoded.resize_with(candidates.len(), Vec::new);
        for (code_candidates, slot) in candidates.iter().zip(decoded.iter_mut()) {
            for &det in code_candidates {
                let (outcome, bits) = self.decoders[det.code_index].decode_frame_with_bits(
                    samples,
                    det.start,
                    det.channel_gain,
                );
                slot.push(DecodedUser {
                    detection: det,
                    outcome,
                    bits,
                });
            }
        }
        telemetry.decode_failures = decoded
            .iter()
            .flatten()
            .filter(|u| !u.outcome.is_frame())
            .count();

        // Phase 2: resolve cross-code aliases globally. A shifted copy of
        // one tag's waveform can correlate above threshold under another
        // code and decode the victim's byte-identical frame — so accept
        // valid candidates in descending correlation order, skipping any
        // whose payload is already claimed by an accepted candidate of a
        // different code, then fall back per code to its strongest
        // remaining candidate.
        order.clear();
        for (c, cands) in decoded.iter().enumerate() {
            for (k, u) in cands.iter().enumerate() {
                if u.outcome.is_frame() {
                    order.push((c, k));
                }
            }
        }
        order.sort_by(|a, b| {
            decoded[b.0][b.1]
                .detection
                .correlation
                .partial_cmp(&decoded[a.0][a.1].detection.correlation)
                .expect("correlations are finite")
        });
        accepted.clear();
        accepted.resize(decoded.len(), None);
        claimed.clear();
        for &(c, k) in order.iter() {
            if accepted[c].is_some() {
                continue;
            }
            let payload = decoded[c][k]
                .outcome
                .frame()
                .expect("only valid frames enter the order")
                .payload()
                .to_vec();
            let duplicate = claimed.iter().any(|(oc, p)| *oc != c && *p == payload);
            if duplicate {
                continue;
            }
            claimed.push((c, payload));
            accepted[c] = Some(k);
        }

        // Phase 3: fine-alignment fallback. Orthogonal concurrent tags
        // null each other's interference exactly at the true alignment,
        // so the correlation profile *dips* there and the peak-picking of
        // phase 1 can miss it entirely. Re-probe codes that still lack a
        // valid frame at timing hypotheses: the starts of accepted users
        // (tags share coarse timing) and the search-window origin, each
        // scanned over ±1 chip.
        accepted_starts.clear();
        for (c, k) in accepted.iter().enumerate() {
            if let Some(k) = k {
                accepted_starts.push(decoded[c][*k].detection.start);
            }
        }
        // The hypothesis set (accepted starts + window origin) and the
        // ±1-chip offsets derived from it are identical for every still-
        // missing code, so they are built once, in arena storage.
        accepted_starts.push(window_start + back);
        probe_offsets.clear();
        for &h in accepted_starts.iter() {
            for d in 0..=(2 * spc) {
                let off = (h + d).saturating_sub(spc);
                if !probe_offsets.contains(&off) {
                    probe_offsets.push(off);
                }
            }
        }
        for c in 0..decoded.len() {
            if accepted[c].is_some() {
                continue;
            }
            'probe: for &off in probe_offsets.iter() {
                telemetry.probes_attempted += 1;
                let Some(det) = self.detector.probe(samples, off, c) else {
                    continue;
                };
                // The probe must still clear the user-detection threshold
                // (§III-B's "predetermined threshold") — this is the
                // receiver's near-far limit: a tag far below the aggregate
                // received energy is undetectable until power control
                // equalizes the group.
                if det.correlation < self.detector.threshold() {
                    continue;
                }
                let (outcome, bits) =
                    self.decoders[c].decode_frame_with_bits(samples, det.start, det.channel_gain);
                if let Some(frame) = outcome.frame() {
                    let duplicate = claimed
                        .iter()
                        .any(|(oc, p)| *oc != c && p.as_slice() == frame.payload());
                    if !duplicate {
                        claimed.push((c, frame.payload().to_vec()));
                        // Record as an extra accepted candidate.
                        decoded[c].push(DecodedUser {
                            detection: det,
                            outcome,
                            bits,
                        });
                        accepted[c] = Some(decoded[c].len() - 1);
                        break 'probe;
                    }
                }
            }
        }

        // The report owns its users, so moving them out is the one
        // unavoidable (output-proportional) allocation of the frame path.
        // `swap_remove` leaves the arena lists intact for the next
        // capture's clear-and-refill.
        let mut users = Vec::new();
        let mut ack = AckMessage::new();
        for (c, cands) in decoded.iter_mut().enumerate() {
            if cands.is_empty() {
                continue;
            }
            if let Some(k) = accepted[c] {
                ack.insert(c as u32);
                users.push(cands.swap_remove(k));
            } else {
                // No acceptable frame: report the strongest candidate,
                // marking valid-but-duplicate decodes as alias suppressed.
                let mut strongest = cands.swap_remove(0);
                if strongest.outcome.is_frame() {
                    telemetry.aliases_suppressed += 1;
                    strongest.outcome =
                        DecodeOutcome::Invalid(cbma_types::CbmaError::MalformedFrame(
                            "suppressed as a cross-code alias of a stronger user".into(),
                        ));
                }
                users.push(strongest);
            }
        }
        telemetry.decode_ns = stage_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        RxReport {
            frame_detected: true,
            users,
            ack,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily, TwoNcFamily};
    use cbma_tag::Tag;
    use cbma_types::geometry::Point;

    fn clean_capture(envelopes: &[(Vec<f64>, Iq, usize)], lead: usize) -> Vec<Iq> {
        let total = lead
            + envelopes
                .iter()
                .map(|(e, _, d)| e.len() + d)
                .max()
                .unwrap_or(0)
            + 64;
        let mut buf = vec![Iq::ZERO; total];
        for (env, gain, delay) in envelopes {
            for (i, &e) in env.iter().enumerate() {
                buf[lead + delay + i] += gain.scale(e);
            }
        }
        buf
    }

    #[test]
    fn single_tag_end_to_end() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
        let mut tag = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let env = tag.transmit(b"temperature=21".to_vec(), &phy).unwrap();
        let buf = clean_capture(&[(env, Iq::from_polar(0.01, 0.4), 0)], 400);
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&buf);
        assert!(report.frame_detected);
        assert_eq!(report.ack.len(), 1);
        assert!(report.ack.acknowledges(1));
        let frames = report.frames();
        assert_eq!(frames[0].1.payload(), b"temperature=21");
    }

    #[test]
    fn three_tag_collision_all_decoded() {
        let phy = PhyProfile::paper_default();
        let codes = TwoNcFamily::new(5).unwrap().codes(5).unwrap();
        let mut envs = Vec::new();
        for (i, delay) in [(0usize, 0usize), (2, 5), (4, 11)] {
            let mut tag = Tag::new(i as u32, Point::ORIGIN, codes[i].clone());
            let env = tag
                .transmit(format!("tag {i} says hi").into_bytes(), &phy)
                .unwrap();
            let phase = 0.9 * i as f64;
            envs.push((env, Iq::from_polar(0.01, phase), delay));
        }
        let buf = clean_capture(&envs, 400);
        // Coherent mode: phase-diverse equal-power collisions are the
        // coherent receiver's home turf (the envelope mode's near-far
        // behaviour is exercised by the simulation tests).
        let config = ReceiverConfig {
            decoder_kind: DecoderKind::Coherent,
            ..ReceiverConfig::default()
        };
        let mut rx = Receiver::new(codes, phy, config);
        let report = rx.receive(&buf);
        assert!(report.ack.acknowledges(0), "{report:?}");
        assert!(report.ack.acknowledges(2));
        assert!(report.ack.acknowledges(4));
        assert!(!report.ack.acknowledges(1));
        assert!(!report.ack.acknowledges(3));
    }

    #[test]
    fn silence_reports_nothing() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&vec![Iq::new(1e-6, 0.0); 4000]);
        assert!(!report.frame_detected);
        assert!(report.users.is_empty());
        assert!(report.ack.is_empty());
    }

    #[test]
    fn detected_ids_lists_detections() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
        let env = tag.transmit(b"x".to_vec(), &phy).unwrap();
        let buf = clean_capture(&[(env, Iq::new(0.01, 0.0), 0)], 400);
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&buf);
        assert_eq!(report.detected_ids(), vec![0]);
    }

    #[test]
    fn sic_recovers_a_buried_weak_user() {
        let phy = PhyProfile::paper_default();
        let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
        let mut strong = Tag::new(0, Point::ORIGIN, codes[0].clone());
        let mut weak = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let es = strong.transmit(b"strong tag".to_vec(), &phy).unwrap();
        let ew = weak.transmit(b"weak tag!!".to_vec(), &phy).unwrap();
        // 30 dB of power imbalance: the weak preamble correlation sits far
        // below the detection threshold until the strong user is
        // cancelled.
        let buf = clean_capture(
            &[
                (es, Iq::from_polar(0.02, 0.4), 0),
                (ew, Iq::from_polar(0.00063, 2.0), 3),
            ],
            400,
        );
        let mut base = Receiver::new(codes.clone(), phy, ReceiverConfig::default());
        let without = base.receive(&buf);
        assert!(without.ack.acknowledges(0));
        assert!(
            !without.ack.acknowledges(1),
            "weak tag should be invisible without SIC: {without:?}"
        );
        let config = ReceiverConfig {
            sic_passes: 1,
            ..ReceiverConfig::default()
        };
        let mut rx = Receiver::new(codes, phy, config);
        let with = rx.receive(&buf);
        assert!(with.ack.acknowledges(0));
        assert!(with.ack.acknowledges(1), "SIC should reveal the weak tag");
        let frames = with.frames();
        let weak_frame = frames.iter().find(|(id, _)| *id == 1).unwrap();
        assert_eq!(weak_frame.1.payload(), b"weak tag!!");
    }

    #[test]
    fn telemetry_fills_stage_spans_and_domain_counts() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
        let mut tag = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let env = tag.transmit(b"telemetry".to_vec(), &phy).unwrap();
        let buf = clean_capture(&[(env, Iq::from_polar(0.01, 0.4), 0)], 400);
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&buf);
        let t = &report.telemetry;
        assert!(report.frame_detected);
        assert!(t.candidates_evaluated >= 1, "{t:?}");
        assert!(t.peak_correlation > 0.0, "{t:?}");
        assert!(t.peak_margin >= 0.0, "{t:?}");
        // Monotonic spans are non-zero for stages that did real work.
        assert!(t.frame_sync_ns > 0, "{t:?}");
        assert!(t.user_detect_ns > 0, "{t:?}");
        assert!(t.decode_ns > 0, "{t:?}");
        // SIC disabled by default.
        assert_eq!(t.sic_iterations, 0);
        assert_eq!(t.sic_ns, 0);
    }

    #[test]
    fn telemetry_silence_still_times_frame_sync() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&vec![Iq::new(1e-6, 0.0); 4000]);
        assert!(!report.frame_detected);
        assert!(report.telemetry.frame_sync_ns > 0);
        assert_eq!(report.telemetry.user_detect_ns, 0);
        assert_eq!(report.telemetry.candidates_evaluated, 0);
        assert_eq!(report.telemetry.peak_correlation, 0.0);
    }

    #[test]
    fn attached_registry_records_rx_metrics() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
        let mut tag = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let env = tag.transmit(b"metrics".to_vec(), &phy).unwrap();
        let buf = clean_capture(&[(env, Iq::from_polar(0.01, 0.4), 0)], 400);
        let registry = MetricsRegistry::new();
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        rx.attach_metrics(&registry);
        let report = rx.receive(&buf);
        assert!(report.ack.acknowledges(1));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cbma.rx.captures"], 1);
        assert_eq!(snap.counters["cbma.rx.frames_detected"], 1);
        assert_eq!(snap.counters["cbma.rx.users_decoded"], 1);
        assert!(snap.counters["cbma.rx.candidates"] >= 1);
        let sync = &snap.histograms["cbma.rx.stage.frame_sync_ns"];
        assert_eq!(sync.count, 1);
        assert!(sync.sum > 0);
        assert_eq!(snap.histograms["cbma.rx.stage.decode_ns"].count, 1);
        assert_eq!(snap.histograms["cbma.rx.peak_margin_milli"].count, 1);
    }

    #[test]
    fn sic_telemetry_reports_iterations_and_recovery() {
        let phy = PhyProfile::paper_default();
        let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
        let mut strong = Tag::new(0, Point::ORIGIN, codes[0].clone());
        let mut weak = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let es = strong.transmit(b"strong tag".to_vec(), &phy).unwrap();
        let ew = weak.transmit(b"weak tag!!".to_vec(), &phy).unwrap();
        let buf = clean_capture(
            &[
                (es, Iq::from_polar(0.02, 0.4), 0),
                (ew, Iq::from_polar(0.00063, 2.0), 3),
            ],
            400,
        );
        let config = ReceiverConfig {
            sic_passes: 2,
            ..ReceiverConfig::default()
        };
        let mut rx = Receiver::new(codes, phy, config);
        let report = rx.receive(&buf);
        let t = &report.telemetry;
        assert!(t.sic_iterations >= 1, "{t:?}");
        assert!(t.sic_ns > 0, "{t:?}");
        assert_eq!(t.sic_recovered, 1, "{t:?}");
        assert!(t.sic_residual_energy > 0.0, "{t:?}");
    }

    #[test]
    fn attached_tracer_records_capture_span_tree() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
        let mut tag = Tag::new(1, Point::ORIGIN, codes[1].clone());
        let env = tag.transmit(b"trace me".to_vec(), &phy).unwrap();
        let buf = clean_capture(&[(env, Iq::from_polar(0.01, 0.4), 0)], 400);
        let tracer = Tracer::new(1024);
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        rx.attach_tracer(&tracer);
        let report = rx.receive(&buf);
        assert!(report.ack.acknowledges(1));

        let spans = tracer.spans();
        let capture = spans
            .iter()
            .find(|s| s.name == "capture")
            .expect("capture root span");
        assert_eq!(capture.parent, 0, "capture is a root span");
        let stage = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} span missing"))
        };
        for name in ["frame_sync", "user_detect", "decode"] {
            assert_eq!(stage(name).parent, capture.span, "{name} under capture");
            assert_eq!(stage(name).trace, capture.trace);
        }
        // One correlate kernel span per code, nested under user_detect.
        let correlates: Vec<_> = spans.iter().filter(|s| s.name == "correlate").collect();
        assert_eq!(correlates.len(), 3);
        for (k, c) in correlates.iter().enumerate() {
            assert_eq!(c.parent, stage("user_detect").span);
            assert_eq!(c.arg, Some(k as u64));
        }
        // Sibling stages do not overlap (sequential pipeline).
        let fs = stage("frame_sync");
        let ud = stage("user_detect");
        let de = stage("decode");
        assert!(fs.start_ns + fs.dur_ns <= ud.start_ns);
        assert!(ud.start_ns + ud.dur_ns <= de.start_ns);
        // A second receive starts a fresh trace.
        rx.receive(&buf);
        let traces: std::collections::BTreeSet<u64> =
            tracer.spans().iter().map(|s| s.trace).collect();
        assert_eq!(traces.len(), 2);
    }

    #[test]
    fn set_trace_parent_nests_capture_under_external_span() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        let tracer = Tracer::new(256);
        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        rx.attach_tracer(&tracer);
        let trace = tracer.new_trace();
        let round = tracer.span(trace, None, "round");
        rx.set_trace_parent(trace, round.id());
        rx.receive(&vec![Iq::new(1e-6, 0.0); 4000]);
        round.finish();
        let spans = tracer.spans();
        let capture = spans.iter().find(|s| s.name == "capture").unwrap();
        let round = spans.iter().find(|s| s.name == "round").unwrap();
        assert_eq!(capture.parent, round.span);
        assert_eq!(capture.trace, round.trace);
        // The parent is consumed: the next capture is a fresh root trace.
        rx.receive(&vec![Iq::new(1e-6, 0.0); 4000]);
        let spans = tracer.spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "capture" && s.parent == 0)
            .collect();
        assert_eq!(roots.len(), 1);
        assert_ne!(roots[0].trace, round.trace);
    }

    #[test]
    fn code_count_accessor() {
        let phy = PhyProfile::paper_default();
        let codes = GoldFamily::new(5).unwrap().codes(7).unwrap();
        let rx = Receiver::new(codes, phy, ReceiverConfig::default());
        assert_eq!(rx.code_count(), 7);
        assert_eq!(rx.phy().preamble_bits, 8);
    }
}
