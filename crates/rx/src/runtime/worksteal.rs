//! The pool scheduler: every stream's receive work as one task on a
//! fixed worker pool.
//!
//! One OS thread per stream would mean thousands of threads at the 256+
//! concurrent-stream scale the paper's deployment story implies. Here
//! the *task*, not the thread, is the unit of scheduling:
//!
//! * The driver (the caller's thread) pulls source blocks and
//!   reassembles each stream's captures, so blocks never cross threads
//!   and a capture reaches the pool only once it is whole.
//! * Each stream gets two bounded SPSC rings, driver→task for whole
//!   captures and task→driver for reports, so per-stream FIFO order and
//!   bounded in-flight memory hold.
//! * Each stream is one task: it decides the stream's captures with
//!   [`Receiver::receive`]. A task is *ready* when its capture ring has
//!   data and its report ring has space; readiness is edge-triggered by
//!   the ring waker hooks (empty→nonempty on the capture ring,
//!   full→nonfull on the report ring), so a stream whose sink stalls
//!   backpressures by simply not being ready — it never holds a worker
//!   hostage.
//! * Every wake comes from the driver (a capture arrived, a report slot
//!   freed) and queues the task on one shared FIFO ready queue, which
//!   idle workers pop. A wake that lands while the task runs makes the
//!   running worker run it again. Idle workers park on a
//!   permit-counting lot — no spin-burn when every ring is empty.
//! * A task's state machine (idle → queued → running → rerun) guarantees
//!   a single runner per task at any moment, so the SPSC ring discipline
//!   is preserved even though every worker can touch every ring.
//!
//! **Decision identity.** Workers decide captures with worker-local
//! [`Receiver`]s. `Receiver::receive` keeps no state between captures
//! (its scratch arena is cleared per use) and sees the whole
//! reassembled capture — so which worker runs a task, in which
//! interleaving, at which pool size, is invisible in the output.
//! `crates/rx/tests/streaming_equivalence.rs` pins whole-report equality
//! against [`super::Scheduler::Inline`] across worker counts; the
//! campaign-level byte-identity lives in the root `tests/streaming.rs`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use cbma_obs::trace::Tracer;
use cbma_types::Iq;

use crate::receiver::Receiver;

use super::ring::{ring, Consumer, DepthProbe, Producer, RingError, TryPop, TryPush};
use super::source::SampleSource;
use super::{
    decide, panic_message, reassemble, Capture, FaultPlan, FlowgraphError, InOrderEmitter,
    RunStats, RuntimeMetrics, StageObs, StreamResult,
};

// Task states. A task is QUEUED at most once and RUNNING on at most one
// worker; a wake landing mid-run becomes RERUN so the runner runs it
// again on exit instead of racing a second runner.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RERUN: u8 = 3;

/// The idle lot: a permit-counting park/unpark protocol. Granting a
/// permit even when nobody sleeps (capped at the pool size) closes the
/// scan-then-park race: a worker that found the queue empty consumes a
/// pending permit instead of sleeping through the wake that raced it.
struct Lot {
    permits: usize,
    sleepers: usize,
    shutdown: bool,
}

struct PoolState {
    /// One state per stream task (task id = stream index).
    tasks: Vec<AtomicU8>,
    /// Ready tasks, in wake order.
    ready: Mutex<VecDeque<u32>>,
    workers: usize,
    lot: Mutex<Lot>,
    lot_cv: Condvar,
    shutdown: AtomicBool,
    /// First failure wins; the message names the cause.
    failure: Mutex<Option<String>>,
    /// Driver wake generation: bumped by result/space wakers so the
    /// driver thread can sleep between pump/collect passes.
    driver_gen: Mutex<u64>,
    driver_cv: Condvar,
    steals: AtomicU64,
    local_hits: AtomicU64,
    parks: AtomicU64,
    park_ns: AtomicU64,
    busy_ns: AtomicU64,
}

impl PoolState {
    fn new(tasks: usize, workers: usize) -> PoolState {
        PoolState {
            tasks: (0..tasks).map(|_| AtomicU8::new(IDLE)).collect(),
            ready: Mutex::new(VecDeque::new()),
            workers,
            lot: Mutex::new(Lot {
                permits: 0,
                sleepers: 0,
                shutdown: false,
            }),
            lot_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            failure: Mutex::new(None),
            driver_gen: Mutex::new(0),
            driver_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            local_hits: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            park_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Marks `task` ready. An idle task is queued and a sleeper is
    /// unparked; a running task is flagged for rerun.
    fn wake(&self, task: u32) {
        let state = &self.tasks[task as usize];
        loop {
            match state.load(Ordering::SeqCst) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.ready.lock().expect("ready queue").push_back(task);
                        self.unpark_one();
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(RUNNING, RERUN, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or flagged: the pending run will see
                // whatever this wake signalled.
                _ => return,
            }
        }
    }

    fn unpark_one(&self) {
        let mut lot = self.lot.lock().expect("idle lot");
        if lot.permits < self.workers {
            lot.permits += 1;
        }
        drop(lot);
        self.lot_cv.notify_one();
    }

    /// Parks until a permit arrives (or shutdown). Returns immediately
    /// when a permit is already pending — the caller rescans the queue.
    fn park(&self) {
        let mut lot = self.lot.lock().expect("idle lot");
        if lot.shutdown {
            return;
        }
        if lot.permits > 0 {
            lot.permits -= 1;
            return;
        }
        let start = Instant::now();
        lot.sleepers += 1;
        while lot.permits == 0 && !lot.shutdown {
            lot = self.lot_cv.wait(lot).expect("idle lot");
        }
        lot.sleepers -= 1;
        if lot.permits > 0 {
            lot.permits -= 1;
        }
        drop(lot);
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.park_ns.fetch_add(
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records the first failure and tears the pool down: every idle
    /// worker is unparked so the scope can join promptly.
    fn fail(&self, message: String) {
        let mut failure = self.failure.lock().expect("failure slot");
        if failure.is_none() {
            *failure = Some(message);
        }
        drop(failure);
        self.shutdown_all();
    }

    fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut lot = self.lot.lock().expect("idle lot");
        lot.shutdown = true;
        drop(lot);
        self.lot_cv.notify_all();
        self.signal_driver();
    }

    fn signal_driver(&self) {
        let mut generation = self.driver_gen.lock().expect("driver gen");
        *generation += 1;
        drop(generation);
        self.driver_cv.notify_all();
    }

    fn driver_generation(&self) -> u64 {
        *self.driver_gen.lock().expect("driver gen")
    }

    /// Sleeps until the generation moves past `seen` (any result, space
    /// or shutdown signal since the driver last looked).
    fn driver_wait(&self, seen: u64) {
        let mut generation = self.driver_gen.lock().expect("driver gen");
        while *generation == seen {
            generation = self.driver_cv.wait(generation).expect("driver gen");
        }
    }

    fn take_failure(&self) -> Option<String> {
        self.failure.lock().expect("failure slot").take()
    }
}

/// One stream's capture and report rings. Shared by reference with every
/// worker; the single-runner task invariant keeps each ring effectively
/// SPSC.
struct StreamChain {
    cap_tx: Producer<Capture>,
    cap_rx: Consumer<Capture>,
    res_tx: Producer<StreamResult>,
    res_rx: Consumer<StreamResult>,
}

/// Depth probes for one stream's rings, in pipeline order.
struct ChainProbes {
    cap: DepthProbe<Capture>,
    res: DepthProbe<StreamResult>,
}

impl StreamChain {
    fn new(capacity: usize, stream: usize, pool: &Arc<PoolState>) -> (StreamChain, ChainProbes) {
        let (cap_tx, cap_rx) = ring::<Capture>(capacity);
        let (res_tx, res_rx) = ring::<StreamResult>(capacity);
        let probes = ChainProbes {
            cap: cap_rx.probe(),
            res: res_rx.probe(),
        };
        // Data on the capture ring and space on the report ring both make
        // the stream's task runnable.
        let task = {
            let pool = Arc::clone(pool);
            let id = stream as u32;
            Arc::new(move || pool.wake(id)) as super::ring::RingWaker
        };
        cap_rx.set_data_waker(Arc::clone(&task));
        res_tx.set_space_waker(task);
        // The driver sleeps on its own generation counter: results
        // arriving (or the stream finishing) and capture-ring space both
        // wake it.
        let driver = {
            let pool = Arc::clone(pool);
            Arc::new(move || pool.signal_driver()) as super::ring::RingWaker
        };
        res_rx.set_data_waker(Arc::clone(&driver));
        cap_tx.set_space_waker(driver);
        (
            StreamChain {
                cap_tx,
                cap_rx,
                res_tx,
                res_rx,
            },
            probes,
        )
    }
}

/// Runs one task activation: decides as many of the stream's captures
/// as its report ring leaves room for, and stops (without blocking) the
/// moment the capture ring runs dry or the report ring fills — the ring
/// wakers requeue the task.
fn run_stream(
    chain: &StreamChain,
    receiver: &mut Receiver,
    fault: &FaultPlan,
    obs: &StageObs,
) -> Result<(), RingError> {
    loop {
        if !chain.res_tx.has_capacity() {
            return Ok(());
        }
        match chain.cap_rx.try_pop()? {
            TryPop::Empty => return Ok(()),
            TryPop::Finished => {
                chain.res_tx.finish();
                return Ok(());
            }
            TryPop::Item(capture) => {
                match chain.res_tx.try_push(decide(receiver, capture, fault, obs)) {
                    TryPush::Pushed => {}
                    TryPush::Full(_) => {
                        unreachable!("single producer pushed into checked capacity")
                    }
                    TryPush::Closed(_, e) => return Err(e),
                }
            }
        }
    }
}

/// The worker thread body: pop the oldest ready task, park when dry.
fn worker_loop(
    pool: &Arc<PoolState>,
    worker: usize,
    chains: &[StreamChain],
    receiver: &mut Receiver,
    fault: &FaultPlan,
    pin: bool,
    obs: &StageObs,
) {
    if pin {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        super::affinity::pin_current_thread(worker % cpus);
    }
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let task = pool.ready.lock().expect("ready queue").pop_front();
        match task {
            Some(task) => {
                pool.steals.fetch_add(1, Ordering::Relaxed);
                run_task(pool, task, chains, receiver, fault, obs);
            }
            None => obs.wait(|| pool.park()),
        }
    }
}

/// Runs `task` until it goes idle: a wake that raced a run flags it
/// RERUN, and this worker runs it again rather than queueing it.
fn run_task(
    pool: &Arc<PoolState>,
    task: u32,
    chains: &[StreamChain],
    receiver: &mut Receiver,
    fault: &FaultPlan,
    obs: &StageObs,
) {
    let state = &pool.tasks[task as usize];
    state.store(RUNNING, Ordering::SeqCst);
    loop {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_stream(&chains[task as usize], receiver, fault, obs)
        }));
        pool.busy_ns.fetch_add(
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        match outcome {
            Err(payload) => {
                state.store(IDLE, Ordering::SeqCst);
                pool.fail(format!("receive panicked: {}", panic_message(payload)));
                return;
            }
            Ok(Err(RingError::Disconnected)) => {
                state.store(IDLE, Ordering::SeqCst);
                pool.fail("pipeline disconnected".into());
                return;
            }
            Ok(Ok(())) => {}
        }
        if state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
        // Only a wake moves RUNNING to RERUN, and only this runner moves
        // it back, so the flag is ours to clear.
        state
            .compare_exchange(RERUN, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .expect("a running task is RUNNING or RERUN");
        pool.local_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Everything `RxFlowgraph` hands the pool for one run.
pub(super) struct PoolParams<'a> {
    /// One receiver per worker (the pool size).
    pub(super) receivers: &'a mut [Receiver],
    pub(super) ring_capacity: usize,
    pub(super) pin: bool,
    pub(super) tracer: Option<&'a Tracer>,
    pub(super) metrics: Option<&'a RuntimeMetrics>,
    pub(super) fault: FaultPlan,
}

/// Runs `source` to exhaustion over the pool. The caller's thread is the
/// driver: it reassembles source blocks into captures, pushes each whole
/// capture into its stream's chain, drains results in order into `sink`,
/// and sleeps on the driver generation between passes — it never blocks
/// on a ring, so a stalled sink backpressures through ring capacity
/// alone.
pub(super) fn run<S: SampleSource>(
    params: PoolParams<'_>,
    mut source: S,
    mut sink: impl FnMut(StreamResult),
) -> (RunStats, Option<FlowgraphError>) {
    let workers = params.receivers.len().max(1);
    let streams = source.streams();
    let pool = Arc::new(PoolState::new(streams, workers));
    let mut chains = Vec::with_capacity(streams);
    let mut probes = Vec::with_capacity(streams);
    for stream in 0..streams {
        let (chain, probe) = StreamChain::new(params.ring_capacity, stream, &pool);
        chains.push(chain);
        probes.push(probe);
    }
    let chains = &chains[..];

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

    std::thread::scope(|scope| {
        for (worker, receiver) in params.receivers.iter_mut().enumerate() {
            let pool = Arc::clone(&pool);
            let trace_ctx = trace_ctx.clone();
            let metrics = params.metrics;
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
                worker_loop(&pool, worker, chains, receiver, &fault, pin, &obs);
            });
        }

        // ── The driver loop (caller thread) ──────────────────────────
        let mut emitter = InOrderEmitter::new();
        // Partial captures per stream, and a whole capture whose ring was
        // full (head-of-line) awaiting its space waker.
        let mut partials: Vec<Vec<Iq>> = vec![Vec::new(); streams];
        let mut pending: Option<Capture> = None;
        let mut source_done = false;
        let mut finished = vec![false; streams];
        let mut finished_count = 0usize;
        loop {
            let seen = pool.driver_generation();
            // Pump: reassemble and push whole captures without blocking;
            // a full ring stashes its capture and retries after the space
            // waker fires.
            if !source_done && failure.is_none() {
                loop {
                    let next = pending.take().or_else(|| {
                        while let Some(mut block) = source.next_block() {
                            stats.blocks += 1;
                            debug_assert!(
                                block.stream < streams,
                                "source emitted an unknown stream"
                            );
                            block.stream = block.stream.min(streams.saturating_sub(1));
                            let capture = reassemble(&mut partials[block.stream], block);
                            if capture.is_some() {
                                return capture;
                            }
                        }
                        None
                    });
                    let Some(capture) = next else {
                        source_done = true;
                        for chain in chains {
                            chain.cap_tx.finish();
                        }
                        break;
                    };
                    match chains[capture.stream].cap_tx.try_push(capture) {
                        TryPush::Pushed => {}
                        TryPush::Full(capture) => {
                            pending = Some(capture);
                            break;
                        }
                        TryPush::Closed(_, RingError::Disconnected) => {
                            failure = Some(FlowgraphError {
                                message: "pipeline disconnected".into(),
                            });
                            break;
                        }
                    }
                }
            }
            // Collect: drain every stream's results, emit in order.
            for (stream, chain) in chains.iter().enumerate() {
                if finished[stream] {
                    continue;
                }
                loop {
                    match chain.res_rx.try_pop() {
                        Ok(TryPop::Item(result)) => {
                            stats.captures += 1;
                            emitter.insert(result.stream, result.seq, result.report);
                            for ready in emitter.take_ready() {
                                sink(ready);
                            }
                        }
                        Ok(TryPop::Empty) => break,
                        Ok(TryPop::Finished) => {
                            finished[stream] = true;
                            finished_count += 1;
                            break;
                        }
                        Err(RingError::Disconnected) => {
                            failure = Some(FlowgraphError {
                                message: "pipeline disconnected".into(),
                            });
                            break;
                        }
                    }
                }
            }
            if failure.is_none() {
                if let Some(message) = pool.take_failure() {
                    failure = Some(FlowgraphError { message });
                }
            }
            if failure.is_some() || (source_done && finished_count == streams) {
                break;
            }
            pool.driver_wait(seen);
        }
        pool.shutdown_all();
    });

    stats.ring_max_depth = vec![
        probes.iter().map(|p| p.cap.max_depth()).max().unwrap_or(0),
        probes.iter().map(|p| p.res.max_depth()).max().unwrap_or(0),
    ];
    stats.steals = pool.steals.load(Ordering::Relaxed);
    stats.local_hits = pool.local_hits.load(Ordering::Relaxed);
    stats.parks = pool.parks.load(Ordering::Relaxed);
    stats.park_ns = pool.park_ns.load(Ordering::Relaxed);
    stats.busy_ns = pool.busy_ns.load(Ordering::Relaxed);
    if let Some(metrics) = params.metrics {
        let wall = started.elapsed().as_nanos().max(1) as f64;
        let utilization = stats.busy_ns as f64 / (wall * workers as f64);
        metrics.pool_utilization.set(utilization.min(1.0));
    }
    if failure.is_none() {
        if let Some(message) = pool.take_failure() {
            failure = Some(FlowgraphError { message });
        }
    }
    (stats, failure)
}
