//! The work-stealing scheduler: every stream's stage activations as
//! stealable tasks over a fixed worker pool.
//!
//! One OS thread per stage per stream would mean thousands of threads at
//! the 256+ concurrent-stream scale the paper's deployment story implies.
//! Here the *task*, not the thread, is the unit of scheduling:
//!
//! * Each stream gets its own 4-stage chain of bounded SPSC rings
//!   (source→sync→detect→decode→sic→sink), so per-stream FIFO order and
//!   bounded in-flight memory hold.
//! * Each `(stream, stage)` pair is one task. A task is *ready* when its
//!   input ring has data and its output ring has space; readiness is
//!   edge-triggered by the ring waker hooks (empty→nonempty wakes the
//!   consumer stage's task, full→nonfull the producer's), so a stalled
//!   SIC stage backpressures by simply not being ready — it never holds
//!   a worker hostage.
//! * Workers keep ready tasks in a local deque: LIFO pop for cache
//!   locality (the task just woken by your own push is the hottest),
//!   FIFO steal from victims chosen by rotating scan for fairness, one
//!   shared injector queue for wakes arriving from outside the pool
//!   (the driver thread). Idle workers park on a permit-counting lot —
//!   no spin-burn when every ring is empty.
//! * A task's state machine (idle → queued → running → rerun) guarantees
//!   a single runner per task at any moment, so a stage's carry state
//!   needs only an uncontended mutex and the SPSC ring discipline is
//!   preserved even though every worker can touch every ring.
//!
//! **Decision identity.** Workers run stage bodies against worker-local
//! [`Receiver`]s. The stage seams are per-capture stateless (their
//! scratch arenas are cleared per use), per-stream order is
//! enforced by the chain FIFOs, and the global decisions (frame-sync
//! edge, alias resolution) happen inside a single stage activation — so
//! which worker runs a task, in which interleaving, at which pool size,
//! is invisible in the output. `crates/rx/tests/streaming_equivalence.rs`
//! pins whole-report equality against [`super::Scheduler::Inline`]
//! across worker counts; the campaign-level byte-identity lives in the
//! root `tests/streaming.rs`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use cbma_obs::trace::Tracer;

use crate::receiver::Receiver;

use super::ring::{ring, Consumer, DepthProbe, Producer, RingError, TryPop, TryPush};
use super::source::{SampleSource, SourceBlock};
use super::{
    decode_capture, detect_capture, panic_message, sic_capture, sync_block, DecodedCapture,
    DetectedCapture, FaultPlan, FlowgraphError, InOrderEmitter, InflightSync, RunStats,
    RuntimeMetrics, StageKind, StageObs, StreamResult, SyncedCapture,
};

/// Stages per stream chain; task ids are `stream * STAGES + stage`.
const STAGES: usize = 4;

const STAGE_KINDS: [StageKind; STAGES] = [
    StageKind::Sync,
    StageKind::Detect,
    StageKind::Decode,
    StageKind::Sic,
];

// Task states. A task is QUEUED at most once (in exactly one queue) and
// RUNNING on at most one worker; a wake landing mid-run becomes RERUN so
// the runner requeues it on exit instead of racing a second runner.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RERUN: u8 = 3;

/// Distinguishes pools so a nested run's wakes never land in an outer
/// pool's local deque. Token 0 is "no pool".
static POOL_TOKEN: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(pool token, worker index)` of the pool this thread belongs to.
    static WORKER_CTX: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// The idle lot: a permit-counting park/unpark protocol. Granting a
/// permit even when nobody sleeps (capped at the pool size) closes the
/// scan-then-park race: a worker that found every queue empty consumes a
/// pending permit instead of sleeping through the wake that raced it.
struct Lot {
    permits: usize,
    sleepers: usize,
    shutdown: bool,
}

struct PoolState {
    /// One state per `(stream, stage)` task.
    tasks: Vec<AtomicU8>,
    /// Per-worker deques plus the injector at index `workers`.
    queues: Vec<Mutex<VecDeque<u32>>>,
    workers: usize,
    token: usize,
    lot: Mutex<Lot>,
    lot_cv: Condvar,
    shutdown: AtomicBool,
    /// First failure wins; the message names the stage.
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
            queues: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            workers,
            token: POOL_TOKEN.fetch_add(1, Ordering::Relaxed),
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

    /// Marks `task` ready. Idle tasks are queued (locally when called
    /// from one of this pool's workers, else via the injector) and a
    /// sleeper is unparked; a running task is flagged for rerun.
    fn wake(&self, task: u32) {
        let state = &self.tasks[task as usize];
        loop {
            match state.load(Ordering::SeqCst) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.enqueue(task);
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

    fn enqueue(&self, task: u32) {
        let idx = WORKER_CTX.with(|ctx| {
            let (token, worker) = ctx.get();
            if token == self.token {
                worker
            } else {
                self.workers
            }
        });
        self.queues[idx].lock().expect("task queue").push_back(task);
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
    /// when a permit is already pending — the caller rescans the queues.
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

/// One stream's stage chain: the five rings plus the sync stage's
/// carried accumulator. Shared by reference with every worker; the
/// single-runner task invariant keeps each ring effectively SPSC.
struct StreamChain {
    blk_tx: Producer<SourceBlock>,
    blk_rx: Consumer<SourceBlock>,
    syn_tx: Producer<SyncedCapture>,
    syn_rx: Consumer<SyncedCapture>,
    det_tx: Producer<DetectedCapture>,
    det_rx: Consumer<DetectedCapture>,
    dec_tx: Producer<DecodedCapture>,
    dec_rx: Consumer<DecodedCapture>,
    res_tx: Producer<StreamResult>,
    res_rx: Consumer<StreamResult>,
    sync_carry: Mutex<Option<InflightSync>>,
}

/// Per-position depth probes for one chain, in pipeline order.
struct ChainProbes {
    blk: DepthProbe<SourceBlock>,
    syn: DepthProbe<SyncedCapture>,
    det: DepthProbe<DetectedCapture>,
    dec: DepthProbe<DecodedCapture>,
    res: DepthProbe<StreamResult>,
}

impl StreamChain {
    fn new(capacity: usize, stream: usize, pool: &Arc<PoolState>) -> (StreamChain, ChainProbes) {
        let (blk_tx, blk_rx) = ring::<SourceBlock>(capacity);
        let (syn_tx, syn_rx) = ring::<SyncedCapture>(capacity);
        let (det_tx, det_rx) = ring::<DetectedCapture>(capacity);
        let (dec_tx, dec_rx) = ring::<DecodedCapture>(capacity);
        let (res_tx, res_rx) = ring::<StreamResult>(capacity);
        let probes = ChainProbes {
            blk: blk_rx.probe(),
            syn: syn_rx.probe(),
            det: det_rx.probe(),
            dec: dec_rx.probe(),
            res: res_rx.probe(),
        };
        let task = |stage: usize| (stream * STAGES + stage) as u32;
        let waker = |stage: usize| {
            let pool = Arc::clone(pool);
            let id = task(stage);
            Arc::new(move || pool.wake(id)) as super::ring::RingWaker
        };
        // Data on a stage's input and space on its output both make the
        // stage runnable.
        blk_rx.set_data_waker(waker(0));
        syn_tx.set_space_waker(waker(0));
        syn_rx.set_data_waker(waker(1));
        det_tx.set_space_waker(waker(1));
        det_rx.set_data_waker(waker(2));
        dec_tx.set_space_waker(waker(2));
        dec_rx.set_data_waker(waker(3));
        res_tx.set_space_waker(waker(3));
        // The driver sleeps on its own generation counter: results
        // arriving (or the stream finishing) and source-ring space both
        // wake it.
        let driver = {
            let pool = Arc::clone(pool);
            Arc::new(move || pool.signal_driver()) as super::ring::RingWaker
        };
        res_rx.set_data_waker(Arc::clone(&driver));
        blk_tx.set_space_waker(driver);
        (
            StreamChain {
                blk_tx,
                blk_rx,
                syn_tx,
                syn_rx,
                det_tx,
                det_rx,
                dec_tx,
                dec_rx,
                res_tx,
                res_rx,
                sync_carry: Mutex::new(None),
            },
            probes,
        )
    }
}

/// Pumps one capture-granularity stage: while the output has space,
/// pop-process-push; stop (without blocking) the moment input runs dry
/// or output fills — the ring wakers will requeue the task.
fn pump<I, O>(
    input: &Consumer<I>,
    output: &Producer<O>,
    obs: &StageObs,
    seq_of: impl Fn(&I) -> u64,
    mut body: impl FnMut(I) -> O,
) -> Result<(), RingError> {
    loop {
        if !output.has_capacity() {
            return Ok(());
        }
        match input.try_pop()? {
            TryPop::Empty => return Ok(()),
            TryPop::Finished => {
                output.finish();
                return Ok(());
            }
            TryPop::Item(item) => {
                let seq = seq_of(&item);
                let out = obs.run(seq, || body(item));
                match output.try_push(out) {
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

/// Runs one task activation: drains as much of the stage's ready work as
/// its rings allow.
fn run_stage(
    stage: usize,
    chain: &StreamChain,
    receiver: &mut Receiver,
    block_size: usize,
    fault: &FaultPlan,
    obs: &StageObs,
) -> Result<(), RingError> {
    match STAGE_KINDS[stage] {
        StageKind::Sync => {
            let mut carry = chain.sync_carry.lock().expect("sync carry");
            loop {
                if !chain.syn_tx.has_capacity() {
                    return Ok(());
                }
                match chain.blk_rx.try_pop()? {
                    TryPop::Empty => return Ok(()),
                    TryPop::Finished => {
                        chain.syn_tx.finish();
                        return Ok(());
                    }
                    TryPop::Item(block) => {
                        let seq = block.seq;
                        let synced =
                            obs.run(seq, || sync_block(receiver, &mut carry, block, fault));
                        if let Some(cap) = synced {
                            match chain.syn_tx.try_push(cap) {
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
        }
        StageKind::Detect => pump(
            &chain.syn_rx,
            &chain.det_tx,
            obs,
            |cap| cap.seq,
            |cap| detect_capture(receiver, block_size, cap, fault),
        ),
        StageKind::Decode => pump(
            &chain.det_rx,
            &chain.dec_tx,
            obs,
            |cap| cap.seq,
            |cap| decode_capture(receiver, cap, fault),
        ),
        StageKind::Sic => pump(
            &chain.dec_rx,
            &chain.res_tx,
            obs,
            |cap| cap.seq,
            |cap| sic_capture(receiver, cap, fault),
        ),
    }
}

/// The worker thread body: local LIFO pop, rotating-scan FIFO steal,
/// park when dry.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    pool: &Arc<PoolState>,
    worker: usize,
    chains: &[StreamChain],
    receiver: &mut Receiver,
    block_size: usize,
    fault: &FaultPlan,
    pin: bool,
    obs: &StageObs,
) {
    WORKER_CTX.with(|ctx| ctx.set((pool.token, worker)));
    if pin {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        super::affinity::pin_current_thread(worker % cpus);
    }
    // Rotating victim cursor: spread steal pressure instead of
    // hammering queue 0.
    let mut victim = worker;
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let local = pool.queues[worker].lock().expect("task queue").pop_back();
        let task = match local {
            Some(task) => {
                pool.local_hits.fetch_add(1, Ordering::Relaxed);
                Some(task)
            }
            None => steal(pool, worker, &mut victim),
        };
        match task {
            Some(task) => run_task(pool, task, chains, receiver, block_size, fault, obs),
            None => obs.wait(|| pool.park()),
        }
    }
    WORKER_CTX.with(|ctx| ctx.set((0, usize::MAX)));
}

fn steal(pool: &PoolState, worker: usize, victim: &mut usize) -> Option<u32> {
    let queues = pool.queues.len();
    for step in 1..=queues {
        let v = (*victim + step) % queues;
        if v == worker {
            continue;
        }
        if let Some(task) = pool.queues[v].lock().expect("task queue").pop_front() {
            pool.steals.fetch_add(1, Ordering::Relaxed);
            *victim = v;
            return Some(task);
        }
    }
    None
}

fn run_task(
    pool: &Arc<PoolState>,
    task: u32,
    chains: &[StreamChain],
    receiver: &mut Receiver,
    block_size: usize,
    fault: &FaultPlan,
    obs: &StageObs,
) {
    let state = &pool.tasks[task as usize];
    state.store(RUNNING, Ordering::SeqCst);
    let stream = task as usize / STAGES;
    let stage = task as usize % STAGES;
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_stage(stage, &chains[stream], receiver, block_size, fault, obs)
    }));
    pool.busy_ns.fetch_add(
        start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        Ordering::Relaxed,
    );
    match outcome {
        Err(payload) => {
            state.store(IDLE, Ordering::SeqCst);
            pool.fail(format!(
                "{} stage panicked: {}",
                STAGE_KINDS[stage].name(),
                panic_message(payload)
            ));
        }
        Ok(Err(RingError::Disconnected)) => {
            state.store(IDLE, Ordering::SeqCst);
            pool.fail("pipeline disconnected".into());
        }
        Ok(Ok(())) => loop {
            if state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
            // A wake raced the run: requeue (locally — we are on a
            // worker) and let the loop pick it right back up.
            if state
                .compare_exchange(RERUN, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                pool.enqueue(task);
                break;
            }
        },
    }
}

/// Everything `RxFlowgraph` hands the pool for one run.
pub(super) struct PoolParams<'a> {
    /// One receiver per worker (the pool size).
    pub(super) receivers: &'a mut [Receiver],
    pub(super) block_size: usize,
    pub(super) ring_capacity: usize,
    pub(super) pin: bool,
    pub(super) tracer: Option<&'a Tracer>,
    pub(super) metrics: Option<&'a RuntimeMetrics>,
    pub(super) fault: FaultPlan,
}

/// Runs `source` to exhaustion over the pool. The caller's thread is the
/// driver: it pumps source blocks into the per-stream chains, drains
/// results in order into `sink`, and sleeps on the driver generation
/// between passes — it never blocks on a ring, so a stalled sink
/// backpressures through ring capacity alone.
pub(super) fn run<S: SampleSource>(
    params: PoolParams<'_>,
    mut source: S,
    mut sink: impl FnMut(StreamResult),
) -> (RunStats, Option<FlowgraphError>) {
    let workers = params.receivers.len().max(1);
    let streams = source.streams();
    let pool = Arc::new(PoolState::new(streams * STAGES, workers));
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
    let block_size = params.block_size;
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
                // Each worker is a span: its stage_run/stage_wait
                // children show the interleave in Perfetto.
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
                worker_loop(
                    &pool, worker, chains, receiver, block_size, &fault, pin, &obs,
                );
            });
        }

        // ── The driver loop (caller thread) ──────────────────────────
        let mut emitter = InOrderEmitter::new();
        let mut pending_block: Option<SourceBlock> = None;
        let mut source_done = false;
        let mut finished = vec![false; streams];
        let mut finished_count = 0usize;
        loop {
            let seen = pool.driver_generation();
            // Pump: non-blocking pushes; a full ring stashes one block
            // (head-of-line) and retries after its space waker fires.
            if !source_done && failure.is_none() {
                loop {
                    let Some(block) = pending_block.take().or_else(|| source.next_block()) else {
                        source_done = true;
                        for chain in chains {
                            chain.blk_tx.finish();
                        }
                        break;
                    };
                    debug_assert!(block.stream < streams, "source emitted an unknown stream");
                    let stream = block.stream.min(streams.saturating_sub(1));
                    match chains[stream].blk_tx.try_push(block) {
                        TryPush::Pushed => stats.blocks += 1,
                        TryPush::Full(block) => {
                            pending_block = Some(block);
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

    stats.ring_max_depth = vec![0; 5];
    for probe in &probes {
        stats.ring_max_depth[0] = stats.ring_max_depth[0].max(probe.blk.max_depth());
        stats.ring_max_depth[1] = stats.ring_max_depth[1].max(probe.syn.max_depth());
        stats.ring_max_depth[2] = stats.ring_max_depth[2].max(probe.det.max_depth());
        stats.ring_max_depth[3] = stats.ring_max_depth[3].max(probe.dec.max_depth());
        stats.ring_max_depth[4] = stats.ring_max_depth[4].max(probe.res.max_depth());
    }
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
