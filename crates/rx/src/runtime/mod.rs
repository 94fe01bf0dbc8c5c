//! The streaming receiver runtime: [`Receiver::receive`] for many
//! capture streams on one worker pool.
//!
//! A [`SampleSource`] hands over whole captures, each tagged with its
//! stream. The flowgraph numbers each stream's captures in arrival
//! order, queues them on one shared queue that a fixed worker pool
//! drains, decides each with [`Receiver::receive`] — the one receive body
//! every caller shares — and hands the reports to the sink per stream in
//! capture order:
//!
//! ```text
//! SampleSource ─▶ shared queue ─▶ Receiver::receive ─▶ in-order emit ─▶ sink
//!  (whole captures)                 (any worker)         (per stream)
//! ```
//!
//! Nothing in the receive chain can decide before the capture is whole:
//! frame sync qualifies its edge against the strongest edge anywhere in
//! the capture, and decode, alias resolution and SIC read the full
//! buffer. So the unit of work is the capture, and it moves from the
//! source to the worker that decides it without a copy. At most
//! `ring_capacity × streams` captures are in flight, so a slow sink
//! stalls the source (backpressure), and a panicking receive fails the
//! run with a clean [`FlowgraphError`] instead of hanging; see
//! [`worksteal`].
//!
//! **Decision identity.** Every capture is decided by
//! [`Receiver::receive`] on exactly the samples the source handed over,
//! so at every ring capacity and worker count the flowgraph produces the
//! monolithic receiver's reports by construction.
//! `crates/rx/tests/streaming_equivalence.rs` pins this for pools of
//! one, two, four and one-per-CPU workers.
//!
//! A run reports through the [`RunStats`] it returns and, with a tracer
//! attached, through `flowgraph` → `worker` → `stage_run` / `stage_wait`
//! spans.

pub mod source;
pub mod worksteal;

pub use source::{CaptureSource, SampleSource};

use cbma_codes::PnCode;
use cbma_obs::trace::Tracer;
use cbma_tag::phy::PhyProfile;

use crate::receiver::{Receiver, ReceiverConfig, RxReport};

/// How the flowgraph maps captures onto threads: always the worker pool
/// of [`worksteal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// A fixed pool of `workers` threads deciding every stream's captures
    /// (see [`worksteal`]). `workers = 0` means one per available CPU.
    WorkStealing {
        /// Pool size (0 = auto: one worker per available CPU).
        workers: usize,
        /// Ignored: workers are not pinned to CPUs. The field stays while
        /// the benchmark package sets it; ROADMAP's benchmark-edit item
        /// deletes it.
        pin: bool,
    },
}

impl Scheduler {
    /// Resolves a `workers` request: 0 (auto) becomes one worker per
    /// available CPU, anything else is kept.
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
    /// Ignored: sources hand over whole captures. The field stays while
    /// the benchmark package sets it; ROADMAP's benchmark-edit item
    /// deletes it.
    pub block_size: usize,
    /// Captures in flight per stream (clamped to ≥ 1). The pool holds at
    /// most `ring_capacity × streams` whole captures between source and
    /// sink: queued, being decided, or reported and awaiting a
    /// predecessor.
    pub ring_capacity: usize,
    /// The pool's size.
    pub scheduler: Scheduler,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            block_size: 4096,
            ring_capacity: 4,
            scheduler: Scheduler::WorkStealing {
                workers: 0,
                pin: false,
            },
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
    /// Captures decided.
    pub captures: u64,
    /// Two high-water marks, in pipeline order: captures waiting in the
    /// shared queue for a worker, and reports held for in-order emission
    /// until a predecessor arrives.
    pub ring_max_depth: Vec<usize>,
    /// Captures workers popped from the shared queue.
    pub steals: u64,
    /// Always zero: no worker reruns a task in place. The field stays
    /// while the benchmark package reads it; ROADMAP's benchmark-edit
    /// item deletes it.
    pub local_hits: u64,
    /// Times a worker slept on the queue's condvar for lack of work.
    pub parks: u64,
    /// Total nanoseconds workers spent parked.
    pub park_ns: u64,
    /// Total nanoseconds workers spent deciding captures
    /// (utilization = busy_ns / (workers · wall time)).
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

/// Results plus stats from one [`RxFlowgraph::run`].
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every capture's report, per stream in capture order.
    pub results: Vec<StreamResult>,
    /// Runtime diagnostics.
    pub stats: RunStats,
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
///     RuntimeConfig {
///         ring_capacity: 2,
///         scheduler: Scheduler::WorkStealing { workers: 2, pin: false },
///         ..RuntimeConfig::default()
///     },
/// );
/// let source = CaptureSource::single_stream(vec![vec![Iq::ZERO; 2000]]);
/// let out = flow.run(source).expect("no receive fails");
/// assert_eq!(out.results.len(), 1);
/// assert!(!out.results[0].report.frame_detected);
/// # Ok::<(), cbma_types::CbmaError>(())
/// ```
pub struct RxFlowgraph {
    /// Receivers, reused across runs: each worker borrows one (grown to
    /// the pool size on first use). `Receiver::receive` keeps no state
    /// between captures (scratch arenas are cleared per use), so which
    /// receiver decides a capture never changes a decision.
    receivers: Vec<Receiver>,
    codes: Vec<PnCode>,
    phy: PhyProfile,
    config: ReceiverConfig,
    runtime: RuntimeConfig,
    tracer: Option<Tracer>,
    fault: FaultPlan,
}

impl RxFlowgraph {
    /// Builds the flowgraph with one [`Receiver`] for the code set; a run
    /// adds one per extra worker on first use (each worker owns a private
    /// scratch arena — no locking on the hot path).
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
            fault: FaultPlan::default(),
        }
    }

    /// Attaches a span tracer: each run records a `flowgraph` root with
    /// one `worker` child per pool thread, holding `stage_run` (arg =
    /// capture seq) and `stage_wait` (park) spans.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
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
    /// [`FlowgraphError`] if a receive panicked: the pool is shut down
    /// and joined — never left hanging.
    pub fn run<S: SampleSource>(&mut self, source: S) -> Result<RunOutput, FlowgraphError> {
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
    /// A panic in `sink` propagates to the caller; the pool closes its
    /// queue first, so its workers exit and are joined.
    pub fn run_with_sink<S: SampleSource>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
    ) -> Result<RunStats, FlowgraphError> {
        let Scheduler::WorkStealing { workers, .. } = self.runtime.scheduler;
        let workers = Scheduler::effective_workers(workers);
        while self.receivers.len() < workers {
            self.receivers
                .push(Receiver::new(self.codes.clone(), self.phy, self.config));
        }
        worksteal::run(
            worksteal::PoolParams {
                receivers: &mut self.receivers[..workers],
                ring_capacity: self.runtime.ring_capacity.max(1),
                tracer: self.tracer.as_ref(),
                // Faults are one-shot: taking the plan here means a run
                // that failed (by injection) leaves the flowgraph reusable.
                fault: std::mem::take(&mut self.fault),
            },
            source,
            sink,
        )
    }
}

impl std::fmt::Debug for RxFlowgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxFlowgraph")
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily};
    use cbma_types::Iq;

    fn flowgraph() -> RxFlowgraph {
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        RxFlowgraph::new(
            codes,
            PhyProfile::paper_default(),
            ReceiverConfig::default(),
            RuntimeConfig {
                ring_capacity: 2,
                scheduler: Scheduler::WorkStealing {
                    workers: 2,
                    pin: false,
                },
                ..RuntimeConfig::default()
            },
        )
    }

    #[test]
    fn silence_flows_through_the_pool() {
        let mut flow = flowgraph();
        let source = CaptureSource::single_stream(vec![vec![Iq::ZERO; 1500], Vec::new()]);
        let out = flow.run(source).expect("clean run");
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.stats.captures, 2);
        assert!(out.results.iter().all(|r| !r.report.frame_detected));
        assert_eq!(
            out.results.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn empty_source_terminates() {
        let mut flow = flowgraph();
        let out = flow
            .run(CaptureSource::default())
            .expect("empty source is a no-op");
        assert!(out.results.is_empty());
        assert_eq!(out.stats.captures, 0);
    }
}
