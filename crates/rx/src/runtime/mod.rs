//! The streaming receiver runtime: [`Receiver::receive`] behind a
//! block-fed, multi-stream front end.
//!
//! Captures arrive from a [`SampleSource`] as blocks of any size, with
//! the blocks of different streams interleaved. The flowgraph reassembles
//! each stream's blocks and, once a capture's last block lands, decides
//! the whole capture with [`Receiver::receive`] — the one receive body
//! every execution shape shares:
//!
//! ```text
//! SampleSource ─▶ reassemble ─▶ Receiver::receive ─▶ in-order emit ─▶ sink
//!    (blocks)      (per stream)     (per capture)      (per stream)
//! ```
//!
//! Nothing in the receive chain can decide before the capture is whole:
//! frame sync qualifies its edge against the strongest edge anywhere in
//! the capture, and decode, alias resolution and SIC read the full
//! buffer. So the unit of work is the capture, and the runtime's job is
//! to multiplex captures from many streams. Two schedulers do that:
//!
//! * [`Scheduler::Inline`] runs every capture on the caller's thread, on
//!   one [`Receiver`] — zero threads, trivially deadlock-free; the
//!   reference for equivalence tests.
//! * [`Scheduler::WorkStealing`] reassembles on the caller's thread and
//!   queues every whole capture, of any stream, on one shared queue that
//!   a fixed worker pool drains (condvar parking, optional CPU pinning).
//!   At most `ring_capacity × streams` captures are in flight, so a slow
//!   sink stalls the source (backpressure), and a panicking receive
//!   fails the run with a clean [`FlowgraphError`] instead of hanging;
//!   see [`worksteal`].
//!
//! **Decision identity.** Every capture is decided by
//! [`Receiver::receive`] on exactly the samples the source chopped, so
//! both schedulers, at every block size, ring capacity and worker count,
//! produce the monolithic receiver's reports by construction.
//! `crates/rx/tests/streaming_equivalence.rs` pins this for block sizes
//! 1, prime, power-of-two and whole-capture on both schedulers.
//!
//! Results leave per stream in capture order on both schedulers: inline
//! decides them in that order, and the pool's driver reorders its
//! workers' reports before the sink sees them.

pub mod affinity;
pub mod source;
pub mod worksteal;

pub use source::{CaptureSource, SampleSource, SourceBlock};

use std::collections::BTreeMap;
use std::time::Instant;

use cbma_codes::PnCode;
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::receiver::{Receiver, ReceiverConfig, RxReport};

/// How the flowgraph maps captures onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Every capture on the caller's thread, in arrival order.
    Inline,
    /// A fixed pool of `workers` threads deciding every stream's captures
    /// (see [`worksteal`]). `workers = 0` means one per available CPU;
    /// `pin` round-robins workers onto CPUs via [`affinity`].
    WorkStealing {
        /// Pool size (0 = auto: one worker per available CPU).
        workers: usize,
        /// Round-robin CPU affinity for the workers.
        pin: bool,
    },
}

impl Scheduler {
    /// A stable label for reports and benchmark output: `inline`,
    /// `worksteal`, `worksteal:4`, `worksteal:pin`, `worksteal:4:pin`.
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
    /// Samples per source block for callers that chop captures for this
    /// flowgraph (a [`CaptureSource`] takes its own block size). The
    /// flowgraph reassembles whole captures, so it never reads this
    /// value and no value changes a decision.
    pub block_size: usize,
    /// Captures in flight per stream on the work-stealing pool (clamped
    /// to ≥ 1); the inline scheduler decides each capture as it
    /// completes and ignores it. The pool holds at most
    /// `ring_capacity × streams` whole captures between source and sink
    /// (queued, being decided, or reported and awaiting a predecessor),
    /// plus the captures being reassembled.
    pub ring_capacity: usize,
    /// Capture-to-thread mapping.
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

/// Deterministic fault injection for the runtime's failure-path tests.
#[derive(Debug, Clone, Copy, Default)]
struct FaultPlan {
    /// Panic when the receive of the capture with this seq begins.
    panic_at: Option<u64>,
}

impl FaultPlan {
    #[inline]
    fn trip(&self, seq: u64) {
        if self.panic_at == Some(seq) {
            panic!("injected fault: receive at capture {seq}");
        }
    }
}

/// The flowgraph failed: a receive panicked (or the pipeline was torn
/// down); the message names the cause.
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

/// Counters and buffer diagnostics from one [`RxFlowgraph::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Source blocks consumed.
    pub blocks: u64,
    /// Captures decided.
    pub captures: u64,
    /// Work-stealing pool: two high-water marks, in pipeline order —
    /// captures waiting in the shared queue for a worker, and reports
    /// held for in-order emission until a predecessor arrives. Empty on
    /// the inline scheduler, which buffers neither.
    pub ring_max_depth: Vec<usize>,
    /// Work-stealing pool: captures workers popped from the shared
    /// queue. Zero on the inline scheduler.
    pub steals: u64,
    /// Always zero: no worker reruns a task in place. Kept so existing
    /// readers of the stats still compile.
    pub local_hits: u64,
    /// Work-stealing pool: times a worker slept on the queue's condvar
    /// for lack of work.
    pub parks: u64,
    /// Work-stealing pool: total nanoseconds workers spent parked.
    pub park_ns: u64,
    /// Work-stealing pool: total nanoseconds workers spent deciding
    /// captures (utilization = busy_ns / (workers · wall time)).
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

/// In-order `(stream, seq)` emission for the pool's sink: completions
/// are buffered in whatever order workers finish and leave per stream in
/// submission order.
#[derive(Debug, Default)]
struct InOrderEmitter {
    /// Next seq to emit per stream.
    emit_next: Vec<u64>,
    /// Out-of-order completions awaiting their predecessors.
    reorder: BTreeMap<(usize, u64), RxReport>,
}

impl InOrderEmitter {
    /// Buffers one completion, then hands `emit` every result of its
    /// stream that is now next in order. Only the completion's own
    /// stream can have become ready.
    fn insert(&mut self, result: StreamResult, mut emit: impl FnMut(StreamResult)) {
        let stream = result.stream;
        if self.emit_next.len() <= stream {
            self.emit_next.resize(stream + 1, 0);
        }
        self.reorder.insert((stream, result.seq), result.report);
        let next = &mut self.emit_next[stream];
        while let Some(report) = self.reorder.remove(&(stream, *next)) {
            emit(StreamResult {
                stream,
                seq: *next,
                report,
            });
            *next += 1;
        }
    }

    /// Completions buffered, still waiting on predecessors.
    #[inline]
    fn buffered(&self) -> usize {
        self.reorder.len()
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
            worker_park_ns: registry.histogram("cbma.rx.runtime.worker.park_ns"),
            pool_utilization: registry.gauge("cbma.rx.runtime.pool_utilization"),
        }
    }
}

/// Per-thread observability: span context plus timer handles. Cheap to
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

/// A whole capture, reassembled from its source blocks.
struct Capture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
}

/// Pulls source blocks until one completes a capture and returns that
/// whole capture, or `None` once the source is exhausted. Each stream's
/// partial buffer is created on its first block, so any stream id works
/// whatever [`SampleSource::streams`] announced. A capture that arrives
/// as one block is passed through without a copy, and the partial buffer
/// leaves with its capture, so a stream holds no memory between captures.
fn next_capture<S: SampleSource>(
    source: &mut S,
    partials: &mut Vec<Vec<Iq>>,
    stats: &mut RunStats,
) -> Option<Capture> {
    while let Some(block) = source.next_block() {
        stats.blocks += 1;
        if partials.len() <= block.stream {
            partials.resize_with(block.stream + 1, Vec::new);
        }
        let partial = &mut partials[block.stream];
        if !block.last {
            partial.extend_from_slice(&block.samples);
            continue;
        }
        let samples = if partial.is_empty() {
            block.samples
        } else {
            let mut samples = std::mem::take(partial);
            samples.extend_from_slice(&block.samples);
            samples
        };
        return Some(Capture {
            stream: block.stream,
            seq: block.seq,
            samples,
        });
    }
    None
}

/// The flowgraph's one stage body, shared by both schedulers: decides a
/// whole capture with [`Receiver::receive`], timed as one `stage_run`.
fn decide(
    receiver: &mut Receiver,
    capture: Capture,
    fault: &FaultPlan,
    obs: &StageObs,
) -> StreamResult {
    let report = obs.run(capture.seq, || {
        fault.trip(capture.seq);
        receiver.receive(&capture.samples)
    });
    StreamResult {
        stream: capture.stream,
        seq: capture.seq,
        report,
    }
}

/// The streaming receiver (see the module docs).
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
/// let out = flow.run(source).expect("no receive fails");
/// assert_eq!(out.results.len(), 1);
/// assert!(!out.results[0].report.frame_detected);
/// # Ok::<(), cbma_types::CbmaError>(())
/// ```
pub struct RxFlowgraph {
    /// Receivers, reused across runs: the inline scheduler decides every
    /// capture on the first, and each work-stealing worker borrows one
    /// (grown on demand). `Receiver::receive` keeps no state between
    /// captures (scratch arenas are cleared per use), so which receiver
    /// decides a capture never changes a decision.
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
    /// the inline scheduler every capture contributes a `stage_run`
    /// child (arg = capture seq); on the work-stealing scheduler the root
    /// has one `worker` child per pool thread, holding `stage_run` and
    /// `stage_wait` (park) spans.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Attaches a metrics registry: runs record `cbma.rx.runtime.*`
    /// receive timers, block/capture counters and the pool's buffer
    /// high-water gauge. These are volatile (scheduling-dependent) — keep
    /// them off registries that feed deterministic manifests.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RuntimeMetrics::register(registry));
    }

    /// The runtime configuration the flowgraph was built with.
    #[inline]
    pub fn runtime_config(&self) -> RuntimeConfig {
        self.runtime
    }

    /// Arms a one-shot injected panic in the receive of capture `seq`
    /// (test hook for the failure-path suite).
    #[doc(hidden)]
    pub fn inject_panic(&mut self, seq: u64) {
        self.fault.panic_at = Some(seq);
    }

    /// Runs `source` to exhaustion and returns every capture's report,
    /// per stream in capture order, plus run stats.
    ///
    /// # Errors
    ///
    /// [`FlowgraphError`] if a receive panicked (work-stealing
    /// scheduler): the pool is shut down and joined — never left hanging.
    /// On the inline scheduler the panic propagates to the caller.
    pub fn run<S: SampleSource + Send>(&mut self, source: S) -> Result<RunOutput, FlowgraphError> {
        let mut results = Vec::new();
        let stats = self.run_with_sink(source, |r| results.push(r))?;
        Ok(RunOutput { results, stats })
    }

    /// Like [`RxFlowgraph::run`], but hands each in-order result to
    /// `sink` as soon as it is available — the backpressure boundary: a
    /// slow sink throttles the whole pipeline back to the source instead
    /// of queueing unboundedly.
    ///
    /// # Panics
    ///
    /// A panic in `sink` propagates to the caller on both schedulers; the
    /// pool closes its queue first, so its workers exit and are joined.
    pub fn run_with_sink<S: SampleSource + Send>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
    ) -> Result<RunStats, FlowgraphError> {
        // Faults are one-shot: taking the plan here means a run that
        // failed (by injection) leaves the flowgraph reusable.
        let fault = std::mem::take(&mut self.fault);
        let stats = match self.runtime.scheduler {
            Scheduler::Inline => self.run_inline(source, sink, fault),
            Scheduler::WorkStealing { workers, pin } => {
                self.run_worksteal(source, sink, fault, workers, pin)?
            }
        };
        if let Some(metrics) = &self.metrics {
            metrics.blocks.add(stats.blocks);
            metrics.captures.add(stats.captures);
            for &depth in &stats.ring_max_depth {
                metrics.ring_depth.max(depth as f64);
            }
            metrics.steal_count.add(stats.steals);
        }
        Ok(stats)
    }

    fn run_inline<S: SampleSource>(
        &mut self,
        mut source: S,
        mut sink: impl FnMut(StreamResult),
        fault: FaultPlan,
    ) -> RunStats {
        let trace = self.tracer.as_ref().map(|t| (t.clone(), t.new_trace()));
        let root = trace.as_ref().map(|(t, tr)| t.span(*tr, None, "flowgraph"));
        let obs = StageObs {
            ctx: trace
                .zip(root.as_ref())
                .map(|((t, tr), root)| (t, tr, root.id())),
            run_ns: self.metrics.as_ref().map(|m| m.stage_run_ns.clone()),
            wait_ns: None,
        };
        let receiver = &mut self.receivers[0];
        // Partial captures per stream, fresh every run: a run that
        // panicked mid-capture leaves nothing behind. Each stream's
        // captures complete in seq order here, so results go straight to
        // the sink.
        let mut partials = Vec::new();
        let mut stats = RunStats::default();
        while let Some(capture) = next_capture(&mut source, &mut partials, &mut stats) {
            stats.captures += 1;
            sink(decide(receiver, capture, &fault, &obs));
        }
        stats
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
                ring_capacity: self.runtime.ring_capacity.max(1),
                pin,
                tracer: self.tracer.as_ref(),
                metrics: self.metrics.as_ref(),
                fault,
            },
            source,
            sink,
        );
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
