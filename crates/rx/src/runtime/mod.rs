//! The streaming receiver runtime: a pipelined rx flowgraph.
//!
//! [`Receiver::receive`] is a monolithic pass over one whole capture.
//! This module decomposes it into the four stages the paper's §III
//! receive chain already implies —
//!
//! ```text
//! SampleSource ─▶ frame-sync ─▶ user-detect ─▶ decode ─▶ SIC ─▶ sink
//!    (blocks)        ring           ring          ring     ring
//! ```
//!
//! — and offers two schedulers for them:
//!
//! * [`Scheduler::Inline`] runs every stage on the caller's thread, one
//!   block at a time, on one [`Receiver`] — zero threads, zero rings,
//!   trivially deadlock-free; the reference for equivalence tests.
//!   Frame-sync carry is kept per stream, so blocks of different streams
//!   may interleave.
//! * [`Scheduler::WorkStealing`] gives every stream its own chain of
//!   bounded SPSC [`ring`]s, so stage N of capture *k* overlaps stage
//!   N−1 of capture *k+1*, and multiplexes *all* streams' stage
//!   activations over a fixed worker pool (local deques, LIFO pop, FIFO
//!   steal, park/unpark idle protocol, optional CPU pinning). Ring
//!   capacity bounds in-flight memory (backpressure), and a panicking
//!   stage fails the run with a clean [`FlowgraphError`] instead of
//!   hanging; see [`worksteal`].
//!
//! **Decision identity.** Both schedulers, at every block size, produce
//! reports *decision-identical* to [`Receiver::receive`] — same detected
//! users, decoded payload bytes, SIC recoveries, collisions and silence
//! calls. The per-stage seams are the receiver's own code paths
//! (`sync_capture`'s window math, the `Auto` detection path, the shared
//! decode/alias/probe phases, `apply_sic`), fed block-by-block through
//! carry-over state proven bit-identical to whole-buffer processing:
//! [`cbma_dsp::xcorr::RunningEnergy::extend`] for frame sync and
//! [`cbma_dsp::BatchStream`] for the overlap-save correlator tails. The
//! block-boundary equivalence suite
//! (`crates/rx/tests/streaming_equivalence.rs`) pins this for block
//! sizes 1, prime, power-of-two and whole-capture on both schedulers.
//!
//! Results leave through [`InOrderEmitter`] on both schedulers: per
//! stream, in capture order, regardless of internal pipelining.

pub mod affinity;
pub mod ring;
pub mod source;
pub mod worksteal;

pub use ring::{ring, Consumer, DepthProbe, Producer, RingError, RingWaker, TryPop, TryPush};
pub use source::{CaptureSource, SampleSource, SourceBlock};

use std::collections::BTreeMap;
use std::time::Instant;

use cbma_codes::PnCode;
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::frame_sync::SyncStream;
use crate::receiver::{Receiver, ReceiverConfig, RxReport, RxTelemetry, SyncOutcome, TraceCtx};
use crate::user_detect::DetectedUser;

/// How the flowgraph maps stages onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// All stages on the caller's thread, block by block; no rings.
    Inline,
    /// A fixed pool of `workers` threads running every stream's stage
    /// activations as stealable tasks (see [`worksteal`]). `workers = 0`
    /// means one per available CPU; `pin` round-robins workers onto
    /// CPUs via [`affinity`].
    WorkStealing {
        /// Pool size (0 = auto: one worker per available CPU).
        workers: usize,
        /// Round-robin CPU affinity for the workers.
        pin: bool,
    },
}

impl Scheduler {
    /// The scheduler names [`Scheduler::parse`] accepts, for CLI errors.
    pub const VALID_NAMES: &'static str = "inline, worksteal[:N][:pin]";

    /// A short stable kind name (for test labels and span args).
    pub fn as_str(&self) -> &'static str {
        match self {
            Scheduler::Inline => "inline",
            Scheduler::WorkStealing { .. } => "worksteal",
        }
    }

    /// The full round-trippable CLI name (`parse(name()) == self`):
    /// `inline`, `worksteal`, `worksteal:4`, `worksteal:pin`,
    /// `worksteal:4:pin`.
    pub fn name(&self) -> String {
        match self {
            Scheduler::Inline => "inline".into(),
            Scheduler::WorkStealing { workers, pin } => {
                let mut name = String::from("worksteal");
                if *workers > 0 {
                    name.push_str(&format!(":{workers}"));
                }
                if *pin {
                    name.push_str(":pin");
                }
                name
            }
        }
    }

    /// Parses a CLI scheduler name; `None` for anything not listed in
    /// [`Scheduler::VALID_NAMES`].
    pub fn parse(name: &str) -> Option<Scheduler> {
        if name == "inline" {
            return Some(Scheduler::Inline);
        }
        let rest = name.strip_prefix("worksteal")?;
        let (workers, pin) = match rest {
            "" => (0, false),
            ":pin" => (0, true),
            _ => {
                let spec = rest.strip_prefix(':')?;
                let (count, pin) = match spec.strip_suffix(":pin") {
                    Some(count) => (count, true),
                    None => (spec, false),
                };
                (count.parse::<usize>().ok()?, pin)
            }
        };
        Some(Scheduler::WorkStealing { workers, pin })
    }

    /// Resolves a `workers` request: 0 (auto) becomes one worker per
    /// available CPU, anything else is clamped to ≥ 1.
    pub fn effective_workers(workers: usize) -> usize {
        if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        }
    }
}

/// Tunable runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Samples per source block (clamped to ≥ 1). Any value yields
    /// identical decisions; it only moves the latency/overhead
    /// trade-off.
    pub block_size: usize,
    /// Capacity of each inter-stage ring (clamped to ≥ 1); the inline
    /// scheduler has no rings and ignores it. Per stream, in-flight
    /// captures are bounded by roughly 4·capacity + 4.
    pub ring_capacity: usize,
    /// Stage-to-thread mapping.
    pub scheduler: Scheduler,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            block_size: 4096,
            ring_capacity: 4,
            scheduler: Scheduler::Inline,
        }
    }
}

/// The pipeline stages, for fault injection and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Frame synchronization (energy edges, per block).
    Sync,
    /// User detection (preamble correlation, per capture).
    Detect,
    /// Candidate decode / alias resolution / probe fallback.
    Decode,
    /// Successive interference cancellation.
    Sic,
}

impl StageKind {
    /// The stage's short name as it appears in span labels and errors.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Sync => "sync",
            StageKind::Detect => "detect",
            StageKind::Decode => "decode",
            StageKind::Sic => "sic",
        }
    }
}

/// Deterministic fault injection for the runtime's failure-path tests.
#[derive(Debug, Clone, Copy, Default)]
struct FaultPlan {
    /// Panic inside the given stage when it completes the capture with
    /// this seq.
    panic_at: Option<(StageKind, u64)>,
}

impl FaultPlan {
    #[inline]
    fn trip(&self, stage: StageKind, seq: u64) {
        if self.panic_at == Some((stage, seq)) {
            panic!("injected fault: {} stage at capture {seq}", stage.name());
        }
    }
}

/// The flowgraph failed: a stage panicked (or the pipeline was torn
/// down); the message names the stage and cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowgraphError {
    /// Human-readable failure description.
    pub message: String,
}

impl std::fmt::Display for FlowgraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flowgraph failed: {}", self.message)
    }
}

impl std::error::Error for FlowgraphError {}

/// Counters and ring diagnostics from one [`RxFlowgraph::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Source blocks consumed.
    pub blocks: u64,
    /// Captures completed through the whole pipeline.
    pub captures: u64,
    /// High-water depth per ring, in pipeline order (source→sync,
    /// sync→detect, detect→decode, decode→sic, sic→sink). Empty on the
    /// inline scheduler, which has no rings. On the work-stealing
    /// scheduler each entry is the max across streams at that position.
    pub ring_max_depth: Vec<usize>,
    /// Work-stealing pool: tasks taken from another queue (a victim's
    /// deque or the injector). Zero on the inline scheduler.
    pub steals: u64,
    /// Work-stealing pool: tasks popped from the worker's own deque.
    pub local_hits: u64,
    /// Work-stealing pool: times a worker parked for lack of work.
    pub parks: u64,
    /// Work-stealing pool: total nanoseconds workers spent parked.
    pub park_ns: u64,
    /// Work-stealing pool: total nanoseconds workers spent running
    /// stage bodies (utilization = busy_ns / (workers · wall time)).
    pub busy_ns: u64,
}

/// One processed capture, tagged with its stream and per-stream sequence
/// number.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// The stream the capture was submitted under.
    pub stream: usize,
    /// Per-stream submission index (0-based).
    pub seq: u64,
    /// The receiver's report for the capture.
    pub report: RxReport,
}

/// In-order `(stream, seq)` emission for the flowgraph's sink:
/// completions are buffered in whatever order workers finish and leave
/// per stream in submission order.
#[derive(Debug, Default)]
pub struct InOrderEmitter {
    /// Next seq to emit per stream.
    emit_next: Vec<u64>,
    /// Out-of-order completions awaiting their predecessors.
    reorder: BTreeMap<(usize, u64), RxReport>,
    emitted: usize,
}

impl InOrderEmitter {
    /// An emitter with no streams registered yet (streams grow on first
    /// [`InOrderEmitter::insert`] or [`InOrderEmitter::track`]).
    pub fn new() -> InOrderEmitter {
        InOrderEmitter::default()
    }

    /// Registers `stream`, growing the per-stream cursor table. Inserting
    /// does this implicitly; tracking up front lets a caller reserve
    /// stream slots before any completion arrives.
    pub fn track(&mut self, stream: usize) {
        if self.emit_next.len() <= stream {
            self.emit_next.resize(stream + 1, 0);
        }
    }

    /// Buffers one completion until its per-stream predecessors emit.
    pub fn insert(&mut self, stream: usize, seq: u64, report: RxReport) {
        self.track(stream);
        self.reorder.insert((stream, seq), report);
    }

    /// Results emitted so far (over the emitter's lifetime).
    #[inline]
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Completions buffered, still waiting on predecessors.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.reorder.len()
    }

    /// Moves every in-order entry out of the reorder buffer, in
    /// `(stream, seq)` order.
    pub fn take_ready(&mut self) -> Vec<StreamResult> {
        let mut out = Vec::new();
        for stream in 0..self.emit_next.len() {
            while let Some(report) = self.reorder.remove(&(stream, self.emit_next[stream])) {
                out.push(StreamResult {
                    stream,
                    seq: self.emit_next[stream],
                    report,
                });
                self.emit_next[stream] += 1;
                self.emitted += 1;
            }
        }
        out
    }
}

/// Results plus stats from one [`RxFlowgraph::run`].
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every capture's report, per stream in capture order.
    pub results: Vec<StreamResult>,
    /// Runtime diagnostics.
    pub stats: RunStats,
}

/// Registered metric handles for the runtime (see
/// [`RxFlowgraph::attach_metrics`]).
#[derive(Clone)]
struct RuntimeMetrics {
    stage_run_ns: Histogram,
    blocks: Counter,
    captures: Counter,
    ring_depth: Gauge,
    steal_count: Counter,
    local_hit: Counter,
    worker_park_ns: Histogram,
    pool_utilization: Gauge,
}

impl RuntimeMetrics {
    fn register(registry: &MetricsRegistry) -> RuntimeMetrics {
        RuntimeMetrics {
            stage_run_ns: registry.histogram("cbma.rx.runtime.stage_run_ns"),
            blocks: registry.counter("cbma.rx.runtime.blocks"),
            captures: registry.counter("cbma.rx.runtime.captures"),
            ring_depth: registry.gauge("cbma.rx.runtime.ring_depth"),
            steal_count: registry.counter("cbma.rx.runtime.worker.steal_count"),
            local_hit: registry.counter("cbma.rx.runtime.worker.local_hit"),
            worker_park_ns: registry.histogram("cbma.rx.runtime.worker.park_ns"),
            pool_utilization: registry.gauge("cbma.rx.runtime.pool_utilization"),
        }
    }
}

/// Per-stage observability: span context plus timer handles. Cheap to
/// build per run; all fields are `Arc`-backed clones.
#[derive(Clone, Default)]
struct StageObs {
    ctx: Option<(Tracer, TraceId, SpanId)>,
    run_ns: Option<Histogram>,
    wait_ns: Option<Histogram>,
}

impl StageObs {
    /// Times `f` as a `stage_run` span (arg = capture seq) and histogram
    /// sample.
    fn run<T>(&self, seq: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let mut span = self
            .ctx
            .as_ref()
            .map(|(t, tr, parent)| t.span(*tr, Some(*parent), "stage_run"));
        if let Some(span) = span.as_mut() {
            span.set_arg(seq);
        }
        let out = f();
        drop(span);
        if let Some(h) = &self.run_ns {
            h.record_duration(start.elapsed());
        }
        out
    }

    /// Times `f` (a worker parking for lack of work) as a `stage_wait`
    /// span and histogram sample.
    fn wait<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let span = self
            .ctx
            .as_ref()
            .map(|(t, tr, parent)| t.span(*tr, Some(*parent), "stage_wait"));
        let out = f();
        drop(span);
        if let Some(h) = &self.wait_ns {
            h.record_duration(start.elapsed());
        }
        out
    }
}

/// A capture that finished frame synchronization.
struct SyncedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    outcome: SyncOutcome,
    telemetry: RxTelemetry,
}

/// A synced capture with its per-code detection candidates.
struct DetectedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    outcome: SyncOutcome,
    telemetry: RxTelemetry,
    candidates: Vec<Vec<DetectedUser>>,
}

/// A decoded capture awaiting SIC.
struct DecodedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    report: RxReport,
}

/// In-progress per-capture frame-sync state.
struct InflightSync {
    stream: SyncStream,
    samples: Vec<Iq>,
    sync_ns: u64,
}

impl InflightSync {
    /// Opens frame-sync accumulation for one capture.
    fn begin(receiver: &Receiver) -> InflightSync {
        InflightSync {
            stream: receiver.frame_sync().stream(),
            samples: Vec::new(),
            sync_ns: 0,
        }
    }

    /// Feeds one block through the streaming comparator while
    /// accumulating the capture.
    fn absorb(&mut self, samples: &[Iq]) {
        let start = Instant::now();
        self.stream.push_block(samples);
        self.samples.extend_from_slice(samples);
        self.sync_ns += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Closes the capture: the global edge decision and window math,
    /// exactly as the monolithic path computes them.
    fn complete(self, receiver: &Receiver, stream: usize, seq: u64) -> SyncedCapture {
        let start = Instant::now();
        let edge = self.stream.finish(receiver.frame_sync());
        let outcome = receiver.outcome_for_edge(edge, self.samples.len());
        let telemetry = RxTelemetry {
            frame_sync_ns: self.sync_ns + start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            ..RxTelemetry::default()
        };
        SyncedCapture {
            stream,
            seq,
            samples: self.samples,
            outcome,
            telemetry,
        }
    }
}

/// Stage 1's body: incremental frame synchronization for one stream.
/// Blocks of one stream arrive strictly in order, so one in-flight
/// capture per stream suffices. It absorbs `block` — running the
/// per-sample energy comparator and prefix sums while accumulating the
/// capture — and decides (globally, exactly as the monolithic path does)
/// once the capture's last block lands.
fn sync_block(
    receiver: &Receiver,
    carry: &mut Option<InflightSync>,
    block: SourceBlock,
    fault: &FaultPlan,
) -> Option<SyncedCapture> {
    let inflight = carry.get_or_insert_with(|| InflightSync::begin(receiver));
    inflight.absorb(&block.samples);
    if !block.last {
        return None;
    }
    fault.trip(StageKind::Sync, block.seq);
    let inflight = carry.take().expect("just inserted");
    Some(inflight.complete(receiver, block.stream, block.seq))
}

/// Stage 2's body: user detection over the synced search window, fed to
/// the overlap-save engine block by block.
fn detect_capture(
    receiver: &mut Receiver,
    block_size: usize,
    mut cap: SyncedCapture,
    fault: &FaultPlan,
) -> DetectedCapture {
    fault.trip(StageKind::Detect, cap.seq);
    let mut candidates = Vec::new();
    if let SyncOutcome::Window(start, end) = cap.outcome {
        receiver.detect_window_streamed(
            &cap.samples,
            start,
            end,
            block_size,
            &mut cap.telemetry,
            None,
        );
        candidates = std::mem::take(receiver.candidates_mut());
    }
    DetectedCapture {
        stream: cap.stream,
        seq: cap.seq,
        samples: cap.samples,
        outcome: cap.outcome,
        telemetry: cap.telemetry,
        candidates,
    }
}

/// Stage 3's body: candidate decode, global alias resolution and the
/// probe fallback — the monolithic pipeline's decode phases, unchanged.
fn decode_capture(
    receiver: &mut Receiver,
    cap: DetectedCapture,
    fault: &FaultPlan,
) -> DecodedCapture {
    fault.trip(StageKind::Decode, cap.seq);
    if matches!(cap.outcome, SyncOutcome::Window(..)) {
        receiver.stage_candidates(&cap.candidates);
    }
    let report = receiver.finish_outcome(&cap.samples, cap.outcome, cap.telemetry, None);
    DecodedCapture {
        stream: cap.stream,
        seq: cap.seq,
        samples: cap.samples,
        report,
    }
}

/// Stage 4's body: successive interference cancellation. Runs on *every*
/// report (like the monolithic path — `apply_sic` itself is a no-op when
/// SIC is disabled), so telemetry like `sic_iterations` matches exactly.
fn sic_capture(receiver: &mut Receiver, mut cap: DecodedCapture, fault: &FaultPlan) -> StreamResult {
    fault.trip(StageKind::Sic, cap.seq);
    let trace: TraceCtx = None;
    receiver.apply_sic(&cap.samples, &mut cap.report, trace);
    StreamResult {
        stream: cap.stream,
        seq: cap.seq,
        report: cap.report,
    }
}

/// The pipelined streaming receiver (see the module docs).
///
/// # Examples
///
/// ```
/// use cbma_codes::{CodeFamily, GoldFamily};
/// use cbma_rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
/// use cbma_rx::ReceiverConfig;
/// use cbma_tag::phy::PhyProfile;
/// use cbma_types::Iq;
///
/// let codes = GoldFamily::new(5)?.codes(2)?;
/// let mut flow = RxFlowgraph::new(
///     codes,
///     PhyProfile::paper_default(),
///     ReceiverConfig::default(),
///     RuntimeConfig { block_size: 512, ring_capacity: 2, scheduler: Scheduler::Inline },
/// );
/// let source = CaptureSource::single_stream(512, vec![vec![Iq::ZERO; 2000]]);
/// let out = flow.run(source).expect("no stage fails");
/// assert_eq!(out.results.len(), 1);
/// assert!(!out.results[0].report.frame_detected);
/// # Ok::<(), cbma_types::CbmaError>(())
/// ```
pub struct RxFlowgraph {
    /// Stage receivers, reused across runs: the inline scheduler runs
    /// every stage on the first, and each work-stealing worker borrows
    /// one (grown on demand). The stage seams are per-capture stateless
    /// (scratch arenas are cleared per use), so which receiver runs a
    /// capture's stage never changes a decision.
    receivers: Vec<Receiver>,
    codes: Vec<PnCode>,
    phy: PhyProfile,
    config: ReceiverConfig,
    runtime: RuntimeConfig,
    tracer: Option<Tracer>,
    metrics: Option<RuntimeMetrics>,
    fault: FaultPlan,
}

impl RxFlowgraph {
    /// Builds the flowgraph with one [`Receiver`] for the code set; the
    /// work-stealing scheduler adds one per extra worker on first use
    /// (each worker owns a private scratch arena — no locking on the hot
    /// path).
    ///
    /// # Panics
    ///
    /// Panics on invalid receiver parameters (see [`Receiver::new`]).
    pub fn new(
        codes: Vec<PnCode>,
        phy: PhyProfile,
        config: ReceiverConfig,
        runtime: RuntimeConfig,
    ) -> RxFlowgraph {
        RxFlowgraph {
            receivers: vec![Receiver::new(codes.clone(), phy, config)],
            codes,
            phy,
            config,
            runtime,
            tracer: None,
            metrics: None,
            fault: FaultPlan::default(),
        }
    }

    /// Attaches a span tracer: each run records a `flowgraph` root. On
    /// the inline scheduler it has per-stage `sync_stage` /
    /// `detect_stage` / `decode_stage` / `sic_stage` children, under
    /// which every capture contributes `stage_run` (arg = capture seq)
    /// spans; on the work-stealing scheduler it has one `worker` child
    /// per pool thread with `stage_run` and `stage_wait` (park) spans.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Attaches a metrics registry: runs record `cbma.rx.runtime.*`
    /// stage timers, block/capture counters and the ring high-water
    /// gauge. These are volatile (scheduling-dependent) — keep them off
    /// registries that feed deterministic manifests.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RuntimeMetrics::register(registry));
    }

    /// The runtime configuration the flowgraph was built with.
    #[inline]
    pub fn runtime_config(&self) -> RuntimeConfig {
        self.runtime
    }

    /// Arms a one-shot injected panic in `stage` at capture `seq` (test
    /// hook for the failure-path suite).
    #[doc(hidden)]
    pub fn inject_panic(&mut self, stage: StageKind, seq: u64) {
        self.fault.panic_at = Some((stage, seq));
    }

    /// Runs `source` to exhaustion and returns every capture's report,
    /// per stream in capture order, plus run stats.
    ///
    /// # Errors
    ///
    /// [`FlowgraphError`] if a stage panicked (work-stealing scheduler):
    /// the pool is shut down and joined — never left hanging. On the
    /// inline scheduler a stage panic propagates to the caller directly.
    pub fn run<S: SampleSource + Send>(&mut self, source: S) -> Result<RunOutput, FlowgraphError> {
        let mut results = Vec::new();
        let stats = self.run_with_sink(source, |r| results.push(r))?;
        Ok(RunOutput { results, stats })
    }

    /// Like [`RxFlowgraph::run`], but hands each in-order result to
    /// `sink` as soon as it is available — the backpressure boundary: a
    /// slow sink throttles the whole pipeline back to the source instead
    /// of queueing unboundedly.
    pub fn run_with_sink<S: SampleSource + Send>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
    ) -> Result<RunStats, FlowgraphError> {
        // Faults are one-shot: taking the plan here means a run that
        // failed (by injection) leaves the flowgraph reusable.
        let fault = std::mem::take(&mut self.fault);
        match self.runtime.scheduler {
            Scheduler::Inline => self.run_inline(source, sink, fault),
            Scheduler::WorkStealing { workers, pin } => {
                self.run_worksteal(source, sink, fault, workers, pin)
            }
        }
    }

    /// Builds the per-stage observability contexts (and the guards whose
    /// lifetime scopes the run).
    fn stage_obs(&self) -> (Option<cbma_obs::trace::SpanGuard>, Vec<StageObs>, [Option<cbma_obs::trace::SpanGuard>; 4]) {
        let ctx = self.tracer.as_ref().map(|t| (t.clone(), t.new_trace()));
        let root = ctx.as_ref().map(|(t, tr)| t.span(*tr, None, "flowgraph"));
        let root_id = root.as_ref().map(|s| s.id());
        let names = ["sync_stage", "detect_stage", "decode_stage", "sic_stage"];
        let mut guards: [Option<cbma_obs::trace::SpanGuard>; 4] = [None, None, None, None];
        let mut obs = Vec::with_capacity(4);
        for (i, name) in names.into_iter().enumerate() {
            guards[i] = ctx.as_ref().map(|(t, tr)| t.span(*tr, root_id, name));
            obs.push(StageObs {
                ctx: ctx
                    .as_ref()
                    .zip(guards[i].as_ref())
                    .map(|((t, tr), g)| (t.clone(), *tr, g.id())),
                run_ns: self.metrics.as_ref().map(|m| m.stage_run_ns.clone()),
                wait_ns: None,
            });
        }
        (root, obs, guards)
    }

    /// Records end-of-run totals into the attached metrics.
    fn record_stats(&self, stats: &RunStats) {
        if let Some(metrics) = &self.metrics {
            metrics.blocks.add(stats.blocks);
            metrics.captures.add(stats.captures);
            for &depth in &stats.ring_max_depth {
                metrics.ring_depth.max(depth as f64);
            }
            metrics.steal_count.add(stats.steals);
            metrics.local_hit.add(stats.local_hits);
        }
    }

    fn run_inline<S: SampleSource>(
        &mut self,
        mut source: S,
        mut sink: impl FnMut(StreamResult),
        fault: FaultPlan,
    ) -> Result<RunStats, FlowgraphError> {
        let (_root, obs, _guards) = self.stage_obs();
        let block_size = self.runtime.block_size.max(1);
        let receiver = &mut self.receivers[0];
        // Frame-sync carry per stream, fresh every run: a run that failed
        // mid-capture leaves nothing behind.
        let mut carries: Vec<Option<InflightSync>> = Vec::new();
        let mut stats = RunStats::default();
        let mut emitter = InOrderEmitter::new();
        while let Some(block) = source.next_block() {
            stats.blocks += 1;
            let seq = block.seq;
            if carries.len() <= block.stream {
                carries.resize_with(block.stream + 1, || None);
            }
            let carry = &mut carries[block.stream];
            let synced = obs[0].run(seq, || sync_block(receiver, carry, block, &fault));
            if let Some(cap) = synced {
                let det = obs[1].run(seq, || detect_capture(receiver, block_size, cap, &fault));
                let dec = obs[2].run(seq, || decode_capture(receiver, det, &fault));
                let res = obs[3].run(seq, || sic_capture(receiver, dec, &fault));
                stats.captures += 1;
                emitter.insert(res.stream, res.seq, res.report);
                for r in emitter.take_ready() {
                    sink(r);
                }
            }
        }
        self.record_stats(&stats);
        Ok(stats)
    }

    fn run_worksteal<S: SampleSource + Send>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
        fault: FaultPlan,
        workers: usize,
        pin: bool,
    ) -> Result<RunStats, FlowgraphError> {
        let workers = Scheduler::effective_workers(workers);
        while self.receivers.len() < workers {
            self.receivers
                .push(Receiver::new(self.codes.clone(), self.phy, self.config));
        }
        let (stats, failure) = worksteal::run(
            worksteal::PoolParams {
                receivers: &mut self.receivers[..workers],
                block_size: self.runtime.block_size.max(1),
                ring_capacity: self.runtime.ring_capacity.max(1),
                pin,
                tracer: self.tracer.as_ref(),
                metrics: self.metrics.as_ref(),
                fault,
            },
            source,
            sink,
        );
        self.record_stats(&stats);
        match failure {
            Some(err) => Err(err),
            None => Ok(stats),
        }
    }
}

impl std::fmt::Debug for RxFlowgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxFlowgraph")
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

/// Best-effort panic payload stringification.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily};

    fn flowgraph(scheduler: Scheduler) -> RxFlowgraph {
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        RxFlowgraph::new(
            codes,
            PhyProfile::paper_default(),
            ReceiverConfig::default(),
            RuntimeConfig {
                block_size: 256,
                ring_capacity: 2,
                scheduler,
            },
        )
    }

    #[test]
    fn scheduler_names_round_trip() {
        let all = [
            Scheduler::Inline,
            Scheduler::WorkStealing {
                workers: 0,
                pin: false,
            },
            Scheduler::WorkStealing {
                workers: 0,
                pin: true,
            },
            Scheduler::WorkStealing {
                workers: 4,
                pin: false,
            },
            Scheduler::WorkStealing {
                workers: 16,
                pin: true,
            },
        ];
        for s in all {
            assert_eq!(Scheduler::parse(&s.name()), Some(s), "{}", s.name());
        }
        for bad in [
            "",
            "coalesced",
            "threaded",
            "thread-per-stage",
            "worksteal:",
            "worksteal:x",
            "worksteal:4:pin:extra",
            "worksteal::pin",
            "worksteal:pin:4",
        ] {
            assert_eq!(Scheduler::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn silence_flows_through_every_scheduler() {
        for scheduler in [
            Scheduler::Inline,
            Scheduler::WorkStealing {
                workers: 2,
                pin: false,
            },
        ] {
            let mut flow = flowgraph(scheduler);
            let source =
                CaptureSource::single_stream(256, vec![vec![Iq::ZERO; 1500], Vec::new()]);
            let out = flow.run(source).expect("clean run");
            assert_eq!(out.results.len(), 2, "{scheduler:?}");
            assert_eq!(out.stats.captures, 2);
            assert!(out.results.iter().all(|r| !r.report.frame_detected));
            assert_eq!(
                out.results.iter().map(|r| r.seq).collect::<Vec<_>>(),
                vec![0, 1]
            );
        }
    }

    #[test]
    fn empty_source_terminates() {
        for scheduler in [
            Scheduler::Inline,
            Scheduler::WorkStealing {
                workers: 2,
                pin: false,
            },
        ] {
            let mut flow = flowgraph(scheduler);
            let out = flow
                .run(CaptureSource::new(256))
                .expect("empty source is a no-op");
            assert!(out.results.is_empty(), "{scheduler:?}");
            assert_eq!(out.stats.blocks, 0, "{scheduler:?}");
        }
    }

    #[test]
    fn reruns_reuse_the_flowgraph() {
        for scheduler in [
            Scheduler::Inline,
            Scheduler::WorkStealing {
                workers: 2,
                pin: false,
            },
        ] {
            let mut flow = flowgraph(scheduler);
            for _ in 0..2 {
                let source = CaptureSource::single_stream(100, vec![vec![Iq::ZERO; 900]]);
                let out = flow.run(source).expect("clean run");
                assert_eq!(out.results.len(), 1, "{scheduler:?}");
                assert_eq!(out.stats.blocks, 9, "{scheduler:?}");
            }
        }
    }
}
