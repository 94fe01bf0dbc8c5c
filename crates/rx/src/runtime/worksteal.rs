//! The pool scheduler: whole captures from every stream decided on a
//! fixed worker pool.
//!
//! One OS thread per stream would mean thousands of threads at the 256+
//! concurrent-stream scale the paper's deployment story implies. Here
//! the *capture*, not the stream, is the unit of scheduling:
//!
//! * The driver (the caller's thread) pulls source blocks and
//!   reassembles each stream's captures, so blocks never cross threads
//!   and a capture reaches the pool only once it is whole.
//! * Whole captures go into one shared FIFO queue (a `Mutex<VecDeque>`
//!   plus a `Condvar`). Idle workers sleep on the condvar and pop the
//!   oldest capture when woken — no spin-burn when the queue is empty.
//! * Each worker decides its capture with [`Receiver::receive`] and
//!   sends the report (or the panic message of a receive that panicked)
//!   back over one `mpsc` channel. Captures of one stream may be decided
//!   concurrently; the driver puts reports back into per-stream capture
//!   order with [`InOrderEmitter`] before the sink sees them.
//! * The driver holds at most `ring_capacity × streams` captures between
//!   source and sink (queued, being decided, or reported and awaiting a
//!   predecessor). At the bound it stops pulling the source and waits
//!   for a report, so a stalled sink stalls the source instead of
//!   buffering it.
//! * Teardown closes the queue from a drop guard: a failed receive, the
//!   end of the source and a panicking sink all wake every worker and
//!   let the thread scope join, so a run never hangs.
//!
//! **Decision identity.** Workers decide captures with worker-local
//! [`Receiver`]s. `Receiver::receive` keeps no state between captures
//! (its scratch arena is cleared per use) and sees the whole
//! reassembled capture — so which worker decides a capture, in which
//! interleaving, at which pool size, is invisible in the output.
//! `crates/rx/tests/streaming_equivalence.rs` pins whole-report equality
//! against [`super::Scheduler::Inline`] across worker counts; the
//! campaign-level byte-identity lives in the root `tests/streaming.rs`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cbma_obs::trace::Tracer;
use cbma_types::Iq;

use crate::receiver::Receiver;

use super::source::SampleSource;
use super::{
    decide, panic_message, reassemble, Capture, FaultPlan, FlowgraphError, InOrderEmitter,
    RunStats, RuntimeMetrics, StageObs, StreamResult,
};

/// A worker's answer for one capture: its report, or the message of the
/// receive panic that replaced it.
type Report = Result<StreamResult, String>;

struct Queue {
    captures: VecDeque<Capture>,
    /// Set once, at teardown: workers stop popping and exit.
    closed: bool,
}

/// The capture queue every worker pops, plus the pool's counters.
struct Pool {
    queue: Mutex<Queue>,
    ready: Condvar,
    pops: AtomicU64,
    parks: AtomicU64,
    park_ns: AtomicU64,
    busy_ns: AtomicU64,
}

impl Pool {
    /// Locks the queue. No critical section can panic, so a poisoned
    /// lock still holds a consistent queue (and teardown must not panic
    /// while a sink panic unwinds).
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one whole capture and wakes one sleeping worker. Returns
    /// the queue depth after the push.
    fn push(&self, capture: Capture) -> usize {
        let mut queue = self.lock();
        queue.captures.push_back(capture);
        let depth = queue.captures.len();
        drop(queue);
        self.ready.notify_one();
        depth
    }

    /// The oldest queued capture; sleeps while the queue is empty.
    /// `None` once the queue is closed.
    fn pop(&self, obs: &StageObs) -> Option<Capture> {
        let mut queue = self.lock();
        loop {
            if queue.closed {
                return None;
            }
            if let Some(capture) = queue.captures.pop_front() {
                self.pops.fetch_add(1, Ordering::Relaxed);
                return Some(capture);
            }
            let start = Instant::now();
            queue = obs.wait(|| {
                self.ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner)
            });
            self.parks.fetch_add(1, Ordering::Relaxed);
            self.park_ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
        }
    }

    /// Closes the queue and wakes every worker so the scope can join.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Closes the pool's queue when dropped — on every exit from the driver,
/// including a panic unwinding out of the sink.
struct CloseOnDrop<'a>(&'a Pool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The worker thread body: decide captures until the queue closes. A
/// receive panic is reported in place of the capture's report and ends
/// the worker, as the run fails with it.
fn worker_loop(
    pool: &Pool,
    worker: usize,
    receiver: &mut Receiver,
    fault: &FaultPlan,
    pin: bool,
    obs: &StageObs,
    reports: mpsc::Sender<Report>,
) {
    if pin {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        super::affinity::pin_current_thread(worker % cpus);
    }
    while let Some(capture) = pool.pop(obs) {
        let start = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| decide(receiver, capture, fault, obs)))
            .map_err(|payload| format!("receive panicked: {}", panic_message(payload)));
        pool.busy_ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
        let failed = report.is_err();
        if reports.send(report).is_err() || failed {
            return;
        }
    }
}

/// The next whole capture the source completes, or `None` once it is
/// exhausted.
fn next_capture<S: SampleSource>(
    source: &mut S,
    partials: &mut [Vec<Iq>],
    stats: &mut RunStats,
) -> Option<Capture> {
    while let Some(mut block) = source.next_block() {
        stats.blocks += 1;
        debug_assert!(
            block.stream < partials.len(),
            "source emitted an unknown stream"
        );
        block.stream = block.stream.min(partials.len().saturating_sub(1));
        if let Some(capture) = reassemble(&mut partials[block.stream], block) {
            return Some(capture);
        }
    }
    None
}

/// Everything `RxFlowgraph` hands the pool for one run.
pub(super) struct PoolParams<'a> {
    /// One receiver per worker (the pool size).
    pub(super) receivers: &'a mut [Receiver],
    /// Captures held in flight per stream (≥ 1).
    pub(super) ring_capacity: usize,
    pub(super) pin: bool,
    pub(super) tracer: Option<&'a Tracer>,
    pub(super) metrics: Option<&'a RuntimeMetrics>,
    pub(super) fault: FaultPlan,
}

/// Runs `source` to exhaustion over the pool. The caller's thread is the
/// driver: it reassembles source blocks into captures, queues each whole
/// capture while fewer than `ring_capacity × streams` are in flight,
/// and otherwise waits for a report and emits every report that is next
/// in its stream's order into `sink`.
pub(super) fn run<S: SampleSource>(
    params: PoolParams<'_>,
    mut source: S,
    mut sink: impl FnMut(StreamResult),
) -> (RunStats, Option<FlowgraphError>) {
    let workers = params.receivers.len().max(1);
    let streams = source.streams();
    let bound = params.ring_capacity.max(1) * streams.max(1);
    let pool = Pool {
        queue: Mutex::new(Queue {
            captures: VecDeque::new(),
            closed: false,
        }),
        ready: Condvar::new(),
        pops: AtomicU64::new(0),
        parks: AtomicU64::new(0),
        park_ns: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
    };
    let pool = &pool;
    let (report_tx, reports) = mpsc::channel::<Report>();

    let trace_ctx = params.tracer.map(|t| (t.clone(), t.new_trace()));
    let root = trace_ctx
        .as_ref()
        .map(|(t, trace)| t.span(*trace, None, "flowgraph"));
    let root_id = root.as_ref().map(|g| g.id());

    let fault = params.fault;
    let pin = params.pin;
    let started = Instant::now();
    let mut stats = RunStats::default();
    let mut failure: Option<FlowgraphError> = None;
    let (mut queue_depth, mut reorder_depth) = (0usize, 0usize);

    std::thread::scope(|scope| {
        let _close = CloseOnDrop(pool);
        for (worker, receiver) in params.receivers.iter_mut().enumerate() {
            let trace_ctx = trace_ctx.clone();
            let metrics = params.metrics;
            let reports = report_tx.clone();
            scope.spawn(move || {
                // Each worker is a span: its stage_run (one per
                // capture) and stage_wait (park) children show the
                // interleave in Perfetto.
                let mut worker_span = trace_ctx
                    .as_ref()
                    .map(|(t, trace)| t.span(*trace, root_id, "worker"));
                if let Some(span) = worker_span.as_mut() {
                    span.set_arg(worker as u64);
                }
                let obs = StageObs {
                    ctx: trace_ctx
                        .as_ref()
                        .zip(worker_span.as_ref())
                        .map(|((t, trace), span)| (t.clone(), *trace, span.id())),
                    run_ns: metrics.map(|m| m.stage_run_ns.clone()),
                    wait_ns: metrics.map(|m| m.worker_park_ns.clone()),
                };
                worker_loop(pool, worker, receiver, &fault, pin, &obs, reports);
            });
        }
        // Only workers hold senders now: if every worker is gone, `recv`
        // fails instead of blocking forever.
        drop(report_tx);

        // ── The driver loop (caller thread) ──────────────────────────
        let mut emitter = InOrderEmitter::default();
        let mut partials: Vec<Vec<Iq>> = vec![Vec::new(); streams];
        let mut in_flight = 0usize;
        let mut source_done = false;
        loop {
            while !source_done && in_flight < bound {
                match next_capture(&mut source, &mut partials, &mut stats) {
                    Some(capture) => {
                        in_flight += 1;
                        queue_depth = queue_depth.max(pool.push(capture));
                    }
                    None => source_done = true,
                }
            }
            if in_flight == 0 {
                break;
            }
            let result = match reports.recv() {
                Ok(Ok(result)) => result,
                Ok(Err(message)) => {
                    failure = Some(FlowgraphError { message });
                    break;
                }
                Err(mpsc::RecvError) => {
                    failure = Some(FlowgraphError {
                        message: "every pool worker exited".into(),
                    });
                    break;
                }
            };
            stats.captures += 1;
            emitter.insert(result, |ready| {
                in_flight -= 1;
                sink(ready);
            });
            reorder_depth = reorder_depth.max(emitter.buffered());
        }
    });

    stats.ring_max_depth = vec![queue_depth, reorder_depth];
    stats.steals = pool.pops.load(Ordering::Relaxed);
    stats.parks = pool.parks.load(Ordering::Relaxed);
    stats.park_ns = pool.park_ns.load(Ordering::Relaxed);
    stats.busy_ns = pool.busy_ns.load(Ordering::Relaxed);
    if let Some(metrics) = params.metrics {
        let wall = started.elapsed().as_nanos().max(1) as f64;
        let utilization = stats.busy_ns as f64 / (wall * workers as f64);
        metrics.pool_utilization.set(utilization.min(1.0));
    }
    (stats, failure)
}
