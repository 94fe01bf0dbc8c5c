//! The four workloads. Each is a closed loop driven from this process:
//! the next round, batch or campaign pass starts only when the previous
//! one has returned.
//!
//! A run repeats one fixed unit of work — set-up included, so set-up is
//! measured as often as the work — until `--seconds` are spent (at least
//! [`MIN_REPS`] times). Every end-to-end value is the median over the
//! repetitions; percentiles are taken within a repetition first. Every
//! repetition rebuilds its inputs from the seed, so all repetitions must
//! reach identical decisions, and at the default seed those decisions must
//! match a pinned digest.

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cbma::obs::{SpanRecord, Tracer};
use cbma::prelude::*;
use cbma::rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
use cbma::rx::{Receiver, RxReport};
use cbma_bench::balanced_positions;
use cbma_bench::scenarios::fig9c_scenario;
use cbma_harness::{
    campaigns, job_seed, run_campaign, Campaign, CampaignManifest, CampaignPoint, JobCtx,
    RunnerConfig, Tier,
};

use crate::layers::{
    layer_of, mean_span_ns, replay_tag_and_channel, self_time_by_layer, ChannelWork,
};
use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::{interquartile_mean, median, percentile, sorted, Fnv64};

/// The seed a run uses unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 7;

/// Fewest measured repetitions of an untraced full-size run. A run keeps
/// repeating until its `--seconds` are spent, but never reports a median
/// of fewer than this many.
pub const MIN_REPS: usize = 5;

/// Samples per source block in the replayed flowgraph.
const REPLAY_BLOCK: usize = 4096;

/// Tracer ring slots reserved per traced round or capture (a 4-tag round
/// records 14 spans, a 10-tag SIC round about 50), so rings do not wrap
/// and `obs.spans_dropped` stays 0 unless a layer records far more.
const SPAN_SLOTS_PER_ROUND: usize = 128;

/// Packets per Algorithm 1 control round, as the fig9c campaign runs it.
const FIG9C_CONTROL_PACKETS: usize = 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential `Engine::run_round` on the 4-tag paper deployment.
    Paper4Rounds,
    /// The 10-tag maximum at full power with two SIC passes.
    Dense10Sic,
    /// 64 pre-synthesized captures replayed through the work-stealing
    /// flowgraph.
    RxReplay64,
    /// `run_campaign` over fig9c + fig11 + fig12 at the fast tier.
    CampaignFast,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper4Rounds,
        Workload::Dense10Sic,
        Workload::RxReplay64,
        Workload::CampaignFast,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4Rounds => "paper4_rounds",
            Workload::Dense10Sic => "dense10_sic",
            Workload::RxReplay64 => "rx_replay64",
            Workload::CampaignFast => "campaign_fast",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The decision digest of a full-size run at [`DEFAULT_SEED`]. A
    /// change that alters any round's active, delivered or acknowledged
    /// ids (or any campaign total) changes it.
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::Paper4Rounds => 0x7006_ebe9_7c66_bec6,
            Workload::Dense10Sic => 0x5889_dd6e_2ae3_cc9e,
            Workload::RxReplay64 => 0xfaa1_e723_e734_45e4,
            Workload::CampaignFast => 0xc251_6396_714c_6d99,
        }
    }
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// What the benchmark measures.
    Full,
    /// Every code path and check in a fraction of the time, for `--smoke`
    /// and the tests.
    Tiny,
}

/// Rounds spread over several deployments of one geometry. Each deployment
/// is an engine seeded from the run seed (boot impedances, carrier
/// phases, fading), so a run averages over deployments the way campaign
/// replicates do, instead of timing whichever one a seed happens to draw.
#[derive(Debug, Clone, Copy)]
struct Shape {
    deployments: usize,
    rounds: usize,
}

impl Size {
    /// 32 deployments × 32 rounds.
    fn paper4(self) -> Shape {
        match self {
            Size::Full => Shape {
                deployments: 32,
                rounds: 32,
            },
            Size::Tiny => Shape {
                deployments: 2,
                rounds: 2,
            },
        }
    }

    /// 20 deployments × 10 rounds.
    fn dense10(self) -> Shape {
        match self {
            Size::Full => Shape {
                deployments: 20,
                rounds: 10,
            },
            Size::Tiny => Shape {
                deployments: 2,
                rounds: 1,
            },
        }
    }

    /// The replayed captures: 32 deployments × 2 rounds.
    fn replay(self) -> Shape {
        match self {
            Size::Full => Shape {
                deployments: 32,
                rounds: 2,
            },
            Size::Tiny => Shape {
                deployments: 2,
                rounds: 2,
            },
        }
    }

    fn replay_batches(self, traced: bool) -> usize {
        match (self, traced) {
            (Size::Full, false) => 100,
            (Size::Full, true) => 20,
            (Size::Tiny, _) => 2,
        }
    }

    fn min_reps(self, traced: bool) -> usize {
        match (self, traced) {
            (Size::Full, false) => MIN_REPS,
            (Size::Full, true) => 1,
            // Two repetitions still exercise the cross-repetition checks.
            (Size::Tiny, _) => 2,
        }
    }
}

impl Shape {
    /// Engine seeds of the deployments, derived from the run seed.
    fn seeds(self, seed: u64) -> Vec<u64> {
        let seq = SeedSequence::new(seed);
        (0..self.deployments)
            .map(|d| seq.derive_indexed("deployment", d as u64))
            .collect()
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement budget; repetitions stop once it is spent.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Work per repetition.
    pub size: Size,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The configuration that produced it.
    pub cfg: RunConfig,
    /// CPUs available to the process.
    pub cpus: usize,
    /// Worker threads the parallel layers used.
    pub workers: usize,
    /// Repetitions measured.
    pub reps: usize,
    /// Operations attempted: rounds, captures, campaign passes and checks.
    pub attempted: u64,
    /// Operations that failed (panicked, errored or mismatched).
    pub failed: u64,
    /// Why, for the first few failures.
    pub failures: Vec<String>,
    /// Decision digest of the first repetition.
    pub digest: u64,
    /// Frame error rate of the decisions digested.
    pub fer: f64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-repetition values behind each median.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// Spans of the last traced repetition (empty when untraced).
    pub spans: Vec<SpanRecord>,
}

/// CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for the flowgraph pool and the campaign runner: one per
/// CPU, at most four, so no pool is wider than the machine and every
/// scaling ratio is measured where scaling can exist.
pub fn pool_workers() -> usize {
    cpus().min(4)
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> RunRecord {
    let mut run = Run::new(cfg);
    match cfg.workload {
        Workload::Paper4Rounds => run.rounds(paper4_engine, cfg.size.paper4()),
        Workload::Dense10Sic => run.rounds(dense10_engine, cfg.size.dense10()),
        Workload::RxReplay64 => run.replay(),
        Workload::CampaignFast => run.campaign(),
    }
    run.finish()
}

/// The 4-tag paper-default deployment (`obs_scenario` in `bench_summary`).
/// Tags boot at seed-drawn impedances and SIC is off, as campaigns run it.
pub fn paper4_engine(seed: u64) -> Engine {
    let scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(seed);
    Engine::new(scenario).expect("paper4 scenario is valid")
}

/// The paper's 10-tag maximum: balanced positions at full power, a
/// 10-code 2NC family, and two SIC passes.
pub fn dense10_engine(seed: u64) -> Engine {
    let mut scenario = Scenario::paper_default(balanced_positions(10)).with_seed(seed);
    scenario.rx_config.sic_passes = 2;
    let mut engine = Engine::new(scenario).expect("dense10 scenario is valid");
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    engine
}

/// On-air duration of one frame of `engine`'s deployment, in seconds:
/// the air time a round (or a capture) represents.
fn frame_air_s(engine: &Engine) -> f64 {
    let phy = engine.scenario().phy;
    let mut tag = engine.tags()[0].clone();
    let envelope = tag
        .transmit(engine.payload_for(0, 0), &phy)
        .expect("scenario payload length is valid");
    envelope.len() as f64 / phy.sample_rate.get()
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-repetition samples of each metric.
#[derive(Debug, Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// Receiver counters summed over reports.
#[derive(Debug, Default, Clone, Copy)]
struct RxCounts {
    reports: u64,
    candidates: u64,
    probes: u64,
    decode_failures: u64,
    sic_recovered: u64,
    decoded: u64,
}

impl RxCounts {
    fn add(&mut self, report: &RxReport) {
        let t = &report.telemetry;
        self.reports += 1;
        self.candidates += t.candidates_evaluated as u64;
        self.probes += t.probes_attempted as u64;
        self.decode_failures += t.decode_failures as u64;
        self.sic_recovered += t.sic_recovered as u64;
        self.decoded += report.ack.len() as u64;
    }

    /// Per-report means, and users decoded per candidate evaluated.
    fn push(&self, series: &mut Series) {
        let per = self.reports.max(1) as f64;
        series.push("rx.candidates", self.candidates as f64 / per);
        series.push("rx.probes", self.probes as f64 / per);
        series.push("rx.decode_failures", self.decode_failures as f64 / per);
        series.push("rx.sic_recovered", self.sic_recovered as f64 / per);
        series.push(
            "rx.useful_decode_ratio",
            self.decoded as f64 / self.candidates.max(1) as f64,
        );
    }
}

/// What a sequence of rounds decided and how long each took.
#[derive(Default)]
struct RoundPass {
    latency_ms: Vec<f64>,
    digest: Fnv64,
    sent: u64,
    delivered: u64,
    rx: RxCounts,
}

impl RoundPass {
    fn completed(&self) -> f64 {
        self.latency_ms.len() as f64
    }

    fn mean_latency_ms(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / self.completed().max(1.0)
    }

    fn fer(&self) -> f64 {
        1.0 - self.delivered as f64 / self.sent.max(1) as f64
    }
}

/// The state of one run: what it measured and what it checked.
struct Run {
    cfg: RunConfig,
    workers: usize,
    reps: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: Vec<u64>,
    fer: f64,
    series: Series,
    spans: Vec<SpanRecord>,
}

impl Run {
    fn new(cfg: &RunConfig) -> Run {
        Run {
            cfg: *cfg,
            workers: pool_workers(),
            reps: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digests: Vec::new(),
            fer: 0.0,
            series: Series::default(),
            spans: Vec::new(),
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.attempted += ops;
        self.failed += ops;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(1, why());
        }
    }

    /// Runs `rep` until the time budget is spent — never starting a
    /// repetition the budget cannot fit — but at least the size's minimum.
    /// A first, unmeasured repetition warms caches, the allocator's heap
    /// and lazily built tables; its checks count, its timings do not.
    fn repeat(&mut self, mut rep: impl FnMut(&mut Run)) {
        let start = Instant::now();
        let min = self.cfg.size.min_reps(self.cfg.traced);
        rep(self);
        self.series = Series::default();
        loop {
            rep(self);
            self.reps += 1;
            let spent = secs_since(start);
            // `reps` measured repetitions plus the warm-up have run.
            let next_ends = spent * (self.reps + 2) as f64 / (self.reps + 1) as f64;
            if self.reps >= min && next_ends > self.cfg.seconds {
                break;
            }
        }
    }

    /// Runs the next round of deployment `d`'s engine, digesting its
    /// active, delivered and acknowledged ids. Returns false when the
    /// round panicked, after which the engine is not used again.
    fn step(&mut self, pass: &mut RoundPass, engine: &mut Engine, d: usize) -> bool {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.run_round()));
        let latency = secs_since(t);
        let round = engine.rounds_run().saturating_sub(1);
        let Ok(outcome) = outcome else {
            self.fail(1, format!("deployment {d} round {round} panicked"));
            return false;
        };
        pass.latency_ms.push(latency * 1e3);
        let acked: Vec<usize> = outcome.report.ack.iter().map(|id| id as usize).collect();
        pass.digest.ids(outcome.active.iter().copied());
        pass.digest.ids(outcome.delivered.iter().copied());
        pass.digest.ids(acked.iter().copied());
        // A delivery is a CRC-valid frame with the sent payload, so the
        // receiver must have acknowledged it.
        let consistent = outcome.delivered.iter().all(|id| acked.contains(id));
        self.check(consistent, || {
            format!(
                "deployment {d} round {round}: delivered {:?} but acknowledged {acked:?}",
                outcome.delivered
            )
        });
        pass.sent += outcome.active.len() as u64;
        pass.delivered += outcome.delivered.len() as u64;
        pass.rx.add(&outcome.report);
        true
    }

    /// `paper4_rounds` and `dense10_sic`: deployment by deployment, a
    /// fresh engine and its rounds; set-up is the engines' construction.
    /// Only one deployment's engine is alive at a time, as in a campaign
    /// job. A traced repetition follows every round with the same round
    /// on a traced engine and a replay of its tag and channel layers, so
    /// all three see the same machine state.
    fn rounds(&mut self, build: fn(u64) -> Engine, shape: Shape) {
        let seeds = shape.seeds(self.cfg.seed);
        let air_s = frame_air_s(&build(seeds[0]));
        let total = shape.deployments * shape.rounds;
        self.repeat(|run| {
            let mut plain = RoundPass::default();
            if !run.cfg.traced {
                let (mut setup_s, mut wall_s) = (0.0, 0.0);
                for (d, &seed) in seeds.iter().enumerate() {
                    let t = Instant::now();
                    let mut engine = build(seed);
                    setup_s += secs_since(t);
                    let t = Instant::now();
                    for _ in 0..shape.rounds {
                        if !run.step(&mut plain, &mut engine, d) {
                            break;
                        }
                    }
                    wall_s += secs_since(t);
                }
                run.digests.push(plain.digest.finish());
                run.fer = plain.fer();
                run.series.push("setup_s", setup_s);
                run.series.push("rounds_per_s", plain.completed() / wall_s);
                run.series.push("rtf", plain.completed() * air_s / wall_s);
                run.series.push(
                    "latency_iqm_ms",
                    interquartile_mean(&sorted(&plain.latency_ms)),
                );
                return;
            }
            let tracer = Tracer::new(SPAN_SLOTS_PER_ROUND * total.max(1));
            let mut traced = RoundPass::default();
            let mut work = ChannelWork::default();
            for (d, &seed) in seeds.iter().enumerate() {
                let mut engine = build(seed);
                let mut traced_engine = build(seed);
                traced_engine.attach_tracer(&tracer);
                for round in 0..shape.rounds as u64 {
                    let plain_ok = run.step(&mut plain, &mut engine, d);
                    if !(plain_ok && run.step(&mut traced, &mut traced_engine, d)) {
                        break;
                    }
                    work.add(replay_tag_and_channel(
                        &traced_engine,
                        round..round + 1,
                        &tracer,
                    ));
                }
            }
            run.digests.push(plain.digest.finish());
            run.digests.push(traced.digest.finish());
            run.fer = plain.fer();
            let spans = tracer.spans();
            let s = &mut run.series;
            push_round_layers(s, &spans, work);
            traced.rx.push(s);
            push_round_percentiles(s, &plain.latency_ms);
            s.push("sim.fer", plain.fer());
            s.push(
                "obs.trace_overhead",
                traced.mean_latency_ms() / plain.mean_latency_ms(),
            );
            s.push("obs.spans_dropped", tracer.dropped() as f64);
            run.spans = spans;
        });
    }

    /// Receives every capture through the flowgraph once, one stream per
    /// capture, checking each report against `reference`.
    fn flow_batch(
        &mut self,
        flow: &mut RxFlowgraph,
        captures: &[Vec<Iq>],
        reference: &[RxReport],
        pass: &mut FlowPass,
    ) {
        let mut source = CaptureSource::new(REPLAY_BLOCK);
        for (stream, capture) in captures.iter().enumerate() {
            source.push(stream, capture.clone());
        }
        let t = Instant::now();
        let output = flow.run(source);
        pass.walls_s.push(secs_since(t));
        let output = match output {
            Ok(output) => output,
            Err(e) => return self.fail(captures.len() as u64, format!("flowgraph: {e}")),
        };
        let s = &output.stats;
        pass.steals += s.steals;
        pass.local_hits += s.local_hits;
        pass.park_ns += s.park_ns;
        pass.busy_ns += s.busy_ns;
        let mut results = output.results;
        results.sort_by_key(|r| (r.stream, r.seq));
        self.check(results.len() == captures.len(), || {
            format!(
                "flowgraph returned {} of {} reports",
                results.len(),
                captures.len()
            )
        });
        for r in &results {
            let ok = reference.get(r.stream) == Some(&r.report);
            self.check(ok, || {
                format!(
                    "stream {}: flowgraph report differs from Receiver::receive",
                    r.stream
                )
            });
        }
    }

    /// `rx_replay64`: synthesize the captures in set-up, then replay them
    /// as one stream each through the work-stealing flowgraph. A traced
    /// repetition interleaves, batch by batch, that pool with a one-worker
    /// pool, monolithic `Receiver::receive` and a traced pool.
    fn replay(&mut self) {
        let workers = self.workers;
        let shape = self.cfg.size.replay();
        let seeds = shape.seeds(self.cfg.seed);
        let n = shape.deployments * shape.rounds;
        let batches = self.cfg.size.replay_batches(self.cfg.traced);
        self.repeat(|run| {
            let t = Instant::now();
            let mut captures = Vec::with_capacity(n);
            let (mut sent, mut delivered) = (0, 0);
            // Every deployment shares the first one's codes and PHY.
            let mut first = None;
            for &seed in &seeds {
                let mut engine = paper4_engine(seed);
                engine.set_capture_iq(true);
                for _ in 0..shape.rounds {
                    let outcome = engine.run_round();
                    sent += outcome.active.len();
                    delivered += outcome.delivered.len();
                    captures.push(outcome.iq.expect("capture_iq is on"));
                }
                first.get_or_insert(engine);
            }
            let engine = &first.expect("a replay has deployments");
            let scenario = engine.scenario();
            let codes = scenario
                .family
                .build()
                .and_then(|f| f.codes(scenario.n_tags()))
                .expect("scenario validated at construction");
            let (phy, rx_config) = (scenario.phy, scenario.rx_config);
            let mut mono = Receiver::new(codes.clone(), phy, rx_config);
            let reference: Vec<RxReport> = captures.iter().map(|c| mono.receive(c)).collect();
            let runtime = |workers| RuntimeConfig {
                block_size: REPLAY_BLOCK,
                scheduler: Scheduler::WorkStealing {
                    workers,
                    pin: false,
                },
                ..RuntimeConfig::default()
            };
            let mut flow = RxFlowgraph::new(codes.clone(), phy, rx_config, runtime(workers));
            let setup_s = secs_since(t);

            let air_s = frame_air_s(engine);
            let mut digest = Fnv64::default();
            let mut counts = RxCounts::default();
            for report in &reference {
                digest.ids(report.detected_ids());
                digest.ids(report.ack.iter().map(|id| id as usize));
                counts.add(report);
            }
            run.digests.push(digest.finish());
            run.fer = 1.0 - delivered as f64 / sent.max(1) as f64;
            let frames = (n * batches) as f64;
            let mut pass = FlowPass::default();

            if !run.cfg.traced {
                for _ in 0..batches {
                    run.flow_batch(&mut flow, &captures, &reference, &mut pass);
                }
                run.series.push("setup_s", setup_s);
                run.series.push("rounds_per_s", frames / pass.wall_s());
                run.series.push("rtf", frames * air_s / pass.wall_s());
                run.series.push(
                    "latency_iqm_ms",
                    interquartile_mean(&sorted(&pass.walls_s)) * 1e3,
                );
                return;
            }
            let tracer = Tracer::new(SPAN_SLOTS_PER_ROUND * n * (batches + 1));
            let mut traced_rx = Receiver::new(codes.clone(), phy, rx_config);
            traced_rx.attach_tracer(&tracer);
            for (capture, want) in captures.iter().zip(&reference) {
                let ok = traced_rx.receive(capture) == *want;
                run.check(ok, || "traced Receiver::receive report differs".into());
            }
            let mut single = RxFlowgraph::new(codes.clone(), phy, rx_config, runtime(1));
            let mut traced_flow = RxFlowgraph::new(codes, phy, rx_config, runtime(workers));
            traced_flow.attach_tracer(&tracer);
            let (mut one, mut tpass, mut mono_s) = (FlowPass::default(), FlowPass::default(), 0.0);
            for _ in 0..batches {
                run.flow_batch(&mut flow, &captures, &reference, &mut pass);
                run.flow_batch(&mut single, &captures, &reference, &mut one);
                run.flow_batch(&mut traced_flow, &captures, &reference, &mut tpass);
                let t = Instant::now();
                for capture in &captures {
                    std::hint::black_box(mono.receive(capture));
                }
                mono_s += secs_since(t);
            }
            let spans = tracer.spans();

            // Stage costs come from the monolithic receives: their traces
            // are rooted at a `capture` span, the flowgraph's at
            // `flowgraph`.
            let mono_traces: HashSet<u64> = spans
                .iter()
                .filter(|sp| sp.name == "capture" && sp.parent == 0)
                .map(|sp| sp.trace)
                .collect();
            let mono_spans: Vec<SpanRecord> = spans
                .iter()
                .filter(|sp| mono_traces.contains(&sp.trace))
                .copied()
                .collect();
            let s = &mut run.series;
            let layers = self_time_by_layer(&mono_spans, layer_of);
            push_rx_stages(s, &layers, n as f64);
            s.push("rx.receive_us", mean_span_ns(&mono_spans, "capture") / 1e3);
            s.push("rx.share", 1.0);
            counts.push(s);
            let rtf = frames * air_s / pass.wall_s();
            let mono_rtf = frames * air_s / mono_s;
            let pool_ns = workers as f64 * pass.wall_s() * 1e9;
            s.push("rx.runtime.mono_rtf", mono_rtf);
            s.push("rx.runtime.speedup_over_mono", rtf / mono_rtf);
            s.push("rx.runtime.pool_utilization", pass.busy_ns as f64 / pool_ns);
            s.push("rx.runtime.park_share", pass.park_ns as f64 / pool_ns);
            s.push(
                "rx.runtime.steal_rate",
                pass.steals as f64 / (pass.steals + pass.local_hits).max(1) as f64,
            );
            s.push(
                "rx.runtime.scaling_efficiency",
                one.wall_s() / (workers as f64 * pass.wall_s()),
            );
            s.push("sim.fer", run.fer);
            s.push("obs.trace_overhead", tpass.wall_s() / pass.wall_s());
            s.push("obs.spans_dropped", tracer.dropped() as f64);
            run.spans = spans;
        });
    }

    /// One pass over the campaign suite; `None` when a campaign failed.
    fn campaign_pass(&mut self, suite: &[Campaign], workers: usize) -> Option<CampaignPass> {
        let runner = RunnerConfig {
            workers,
            root_seed: self.cfg.seed,
            ..RunnerConfig::default()
        };
        let t = Instant::now();
        let manifests: std::result::Result<Vec<CampaignManifest>, _> =
            suite.iter().map(|c| run_campaign(c, &runner)).collect();
        let wall_s = secs_since(t);
        match manifests {
            Ok(manifests) => {
                self.attempted += 1;
                let bytes = manifests.iter().map(CampaignManifest::to_json).collect();
                Some(CampaignPass {
                    wall_s,
                    manifests,
                    bytes,
                })
            }
            Err(e) => {
                self.fail(1, format!("campaign pass failed: {e}"));
                None
            }
        }
    }

    /// `campaign_fast`: `run_campaign` on fig9c + fig11 + fig12 at the fast
    /// tier. Every pass must write byte-identical manifests, whatever the
    /// worker count and whether or not rounds are traced.
    fn campaign(&mut self) {
        let seed = self.cfg.seed;
        let size = self.cfg.size;
        let workers = self.workers;
        let mut first_bytes: Option<Vec<String>> = None;
        let mut same_manifests = |run: &mut Run, pass: &CampaignPass, what: &str| match &first_bytes
        {
            None => first_bytes = Some(pass.bytes.clone()),
            Some(first) => run.check(*first == pass.bytes, || {
                format!("{what} manifests differ from the first pass")
            }),
        };
        self.repeat(|run| {
            let t = Instant::now();
            let suite = campaign_suite(size);
            let air: Vec<f64> = suite
                .iter()
                .map(|c| frame_air_s(&first_engine(c, seed)))
                .collect();
            let setup_s = secs_since(t);

            if !run.cfg.traced {
                let Some(pass) = run.campaign_pass(&suite, workers) else {
                    return;
                };
                same_manifests(run, &pass, "a");
                run.digests.push(pass.digest());
                run.fer = pass.fer();
                run.series.push("setup_s", setup_s);
                run.series.push("rounds_per_s", pass.rounds() / pass.wall_s);
                run.series.push("rtf", pass.air_s(&air) / pass.wall_s);
                run.series.push("latency_iqm_ms", pass.wall_s * 1e3);
                return;
            }
            // Campaign by campaign, interleave the W-worker pass with a
            // one-worker pass, a traced W-worker pass and a replay of the
            // campaign's tag and channel layers, so all four see the same
            // machine state.
            let rounds: usize = suite.iter().map(|c| c.job_count() * c.rounds).sum();
            let tracer = Tracer::new(SPAN_SLOTS_PER_ROUND * rounds.max(1));
            let traced = traced_suite(size, &tracer);
            let mut pass = CampaignPass::default();
            let mut single = CampaignPass::default();
            let mut tpass = CampaignPass::default();
            let mut work = ChannelWork::default();
            for i in 0..suite.len() {
                let (Some(p), Some(one), Some(t)) = (
                    run.campaign_pass(&suite[i..=i], workers),
                    run.campaign_pass(&suite[i..=i], 1),
                    run.campaign_pass(&traced[i..=i], workers),
                ) else {
                    return;
                };
                pass.extend(p);
                single.extend(one);
                tpass.extend(t);
                work.add(replay_campaign(&suite[i], seed, &tracer));
            }
            for (p, what) in [(&pass, "a"), (&single, "one-worker"), (&tpass, "traced")] {
                same_manifests(run, p, what);
            }
            run.digests.push(pass.digest());
            run.fer = pass.fer();
            let spans = tracer.spans();
            let s = &mut run.series;
            push_round_layers(s, &spans, work);
            // The manifests' deterministic receiver counters.
            let counter = |name: &str| -> u64 {
                pass.manifests
                    .iter()
                    .map(|m| m.merged_snapshot().counters.get(name).copied().unwrap_or(0))
                    .sum()
            };
            RxCounts {
                reports: counter("cbma.rx.captures"),
                candidates: counter("cbma.rx.candidates"),
                probes: counter("cbma.rx.probes"),
                decode_failures: counter("cbma.rx.decode_failures"),
                sic_recovered: counter("cbma.rx.sic_recovered"),
                decoded: counter("cbma.rx.users_decoded"),
            }
            .push(s);
            let round_ms: Vec<f64> = spans
                .iter()
                .filter(|sp| sp.name == "round")
                .map(|sp| sp.dur_ns as f64 / 1e6)
                .collect();
            push_round_percentiles(s, &round_ms);
            s.push("sim.fer", pass.fer());
            s.push(
                "harness.parallel_efficiency",
                single.wall_s / (workers as f64 * pass.wall_s),
            );
            s.push(
                "harness.manifest_bytes",
                pass.bytes.iter().map(String::len).sum::<usize>() as f64,
            );
            s.push("obs.trace_overhead", tpass.wall_s / pass.wall_s);
            s.push("obs.spans_dropped", tracer.dropped() as f64);
            push_adaptation(s, size);
            run.spans = spans;
        });
    }

    /// Checks the digests and assembles the record.
    fn finish(mut self) -> RunRecord {
        let digest = self.digests.first().copied().unwrap_or(0);
        for (i, d) in self.digests.clone().into_iter().enumerate().skip(1) {
            self.check(d == digest, || {
                format!(
                    "pass {i} decision digest {d:016x} differs from the first pass's {digest:016x}"
                )
            });
        }
        if self.cfg.seed == DEFAULT_SEED && self.cfg.size == Size::Full {
            let pinned = self.cfg.workload.pinned_digest();
            self.check(digest == pinned, || {
                format!("decision digest {digest:016x} differs from the pinned {pinned:016x}")
            });
        }
        let mut medians: BTreeMap<&'static str, f64> =
            self.series.0.iter().map(|(k, v)| (*k, median(v))).collect();
        // A layer the workload never ran reports 0; a missing end-to-end
        // value (a failed run) reports null.
        let (defs, absent) = if self.cfg.traced {
            medians.insert("host.cpus", cpus() as f64);
            (PER_LAYER, 0.0)
        } else {
            medians.insert("peak_rss_mb", peak_rss_mb());
            (END_TO_END, f64::NAN)
        };
        let metrics = defs
            .iter()
            .map(|d| (d.name, medians.get(d.name).copied().unwrap_or(absent)))
            .collect();
        RunRecord {
            cfg: self.cfg,
            cpus: cpus(),
            workers: self.workers,
            reps: self.reps,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            digest,
            fer: self.fer,
            metrics,
            per_rep: self.series.0,
            spans: self.spans,
        }
    }
}

/// One flowgraph pass over a batch sequence.
#[derive(Debug, Default)]
struct FlowPass {
    walls_s: Vec<f64>,
    steals: u64,
    local_hits: u64,
    park_ns: u64,
    busy_ns: u64,
}

impl FlowPass {
    fn wall_s(&self) -> f64 {
        self.walls_s.iter().sum()
    }
}

/// One pass over the campaign suite.
#[derive(Default)]
struct CampaignPass {
    wall_s: f64,
    manifests: Vec<CampaignManifest>,
    bytes: Vec<String>,
}

impl CampaignPass {
    /// Appends a pass over the next campaigns of the suite.
    fn extend(&mut self, other: CampaignPass) {
        self.wall_s += other.wall_s;
        self.manifests.extend(other.manifests);
        self.bytes.extend(other.bytes);
    }

    /// Frame air time of every round, given each campaign's frame air time.
    fn air_s(&self, frame_air_s: &[f64]) -> f64 {
        self.manifests
            .iter()
            .zip(frame_air_s)
            .map(|(m, air)| m.points.iter().map(|p| p.totals.rounds).sum::<u64>() as f64 * air)
            .sum()
    }

    fn rounds(&self) -> f64 {
        self.manifests
            .iter()
            .flat_map(|m| &m.points)
            .map(|p| p.totals.rounds as f64)
            .sum()
    }

    fn fer(&self) -> f64 {
        let (sent, delivered) = self
            .manifests
            .iter()
            .flat_map(|m| &m.points)
            .fold((0, 0), |(s, d), p| {
                (s + p.totals.frames_sent, d + p.totals.frames_delivered)
            });
        1.0 - delivered as f64 / sent.max(1) as f64
    }

    /// Digest of every point's decisions. Metric snapshots are left out,
    /// so adding a counter to manifests does not move it.
    fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        for m in &self.manifests {
            h.bytes(m.campaign.as_bytes());
            for p in &m.points {
                h.bytes(p.label.as_bytes());
                let t = &p.totals;
                for v in [
                    t.rounds,
                    t.frames_sent,
                    t.frames_delivered,
                    t.frames_detected,
                    t.false_detections,
                    t.bit_errors,
                    t.bits_measured,
                ] {
                    h.u64(v);
                }
                for fer in &p.replicate_fers {
                    h.u64(fer.to_bits());
                }
            }
        }
        h.finish()
    }
}

/// The campaign suite: fig9c (Algorithm 1), fig11 (asynchrony) and fig12
/// (interference and OFDM excitation masks) at the fast tier. The tiny
/// size keeps each campaign's first and last point, one replicate of two
/// rounds.
pub fn campaign_suite(size: Size) -> Vec<Campaign> {
    let mut suite = vec![
        campaigns::fig9c(Tier::Fast),
        campaigns::fig11(Tier::Fast),
        campaigns::fig12(Tier::Fast),
    ];
    if size == Size::Tiny {
        for c in &mut suite {
            let last = c.points.pop();
            c.points.truncate(1);
            c.points.extend(last);
            c.replicates = 1;
            c.rounds = 2;
        }
    }
    suite
}

/// The suite with a tracer attached to every engine the campaign builds.
fn traced_suite(size: Size, tracer: &Tracer) -> Vec<Campaign> {
    let mut suite = campaign_suite(size);
    for c in &mut suite {
        c.points = std::mem::take(&mut c.points)
            .into_iter()
            .map(|p| {
                let (build, tracer) = (p.builder, tracer.clone());
                CampaignPoint {
                    builder: Box::new(move |ctx| {
                        let mut engine = build(ctx);
                        engine.attach_tracer(&tracer);
                        engine
                    }),
                    label: p.label,
                    params: p.params,
                }
            })
            .collect();
    }
    suite
}

/// Replays the tag and channel layers of every round `campaign` measures:
/// each point's engine, per replicate, as the runner builds it.
fn replay_campaign(campaign: &Campaign, root_seed: u64, tracer: &Tracer) -> ChannelWork {
    let mut work = ChannelWork::default();
    for point in &campaign.points {
        for replicate in 0..campaign.replicates {
            let engine = (point.builder)(JobCtx {
                seed: job_seed(root_seed, campaign.name, &point.label, replicate),
                replicate,
            });
            // Builders that adapt (fig9c `pc_on`) have already run rounds.
            let r0 = engine.rounds_run();
            work.add(replay_tag_and_channel(
                &engine,
                r0..r0 + campaign.rounds as u64,
                tracer,
            ));
        }
    }
    work
}

/// The engine of a campaign's first point, first replicate (every point
/// of a suite campaign shares its PHY, payload and code length).
fn first_engine(campaign: &Campaign, root_seed: u64) -> Engine {
    let point = &campaign.points[0];
    (point.builder)(JobCtx {
        seed: job_seed(root_seed, campaign.name, &point.label, 0),
        replicate: 0,
    })
}

/// `mac.*`: Algorithm 1 to convergence on each fig9c deployment.
fn push_adaptation(series: &mut Series, size: Size) {
    let adapter = Adapter::paper_default(FIG9C_CONTROL_PACKETS);
    let (tags, groups) = match size {
        Size::Full => (2..=5, campaigns::fig9c(Tier::Fast).replicates as u64),
        Size::Tiny => (2..=2, 1),
    };
    let (mut ms, mut cycles, mut steps, mut runs) = (0.0, 0, 0, 0);
    for n in tags {
        for group in 0..groups {
            let mut engine = Engine::new(fig9c_scenario(n, group)).expect("valid fig9c scenario");
            let t = Instant::now();
            let report = adapter.run_power_control(&mut engine);
            ms += secs_since(t) * 1e3;
            cycles += report.fer_history.len();
            steps += report.impedance_steps;
            runs += 1;
        }
    }
    let runs = f64::from(runs);
    series.push("mac.adapt_ms", ms / runs);
    series.push("mac.control_rounds", cycles as f64 / runs);
    series.push("mac.impedance_steps", steps as f64 / runs);
}

/// Per-round layer times from traced engine rounds plus a replay of
/// their tag and channel layers.
fn push_round_layers(series: &mut Series, spans: &[SpanRecord], work: ChannelWork) {
    let layers = self_time_by_layer(spans, layer_of);
    let total = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64;
    let rounds = spans.iter().filter(|s| s.name == "round").count().max(1) as f64;
    let replayed = work.rounds.max(1) as f64;
    let round_us = mean_span_ns(spans, "round") / 1e3;
    let receive_us = mean_span_ns(spans, "capture") / 1e3;
    let tag_us = total("tag.transmit") / replayed / 1e3;
    let realize_us = total("channel.realize") / replayed / 1e3;
    let mix_us = total("channel.mix") / replayed / 1e3;
    series.push("tag.transmit_us", tag_us);
    series.push("tag.share", tag_us / round_us);
    series.push("channel.realize_us", realize_us);
    series.push("channel.mix_us", mix_us);
    series.push("channel.samples", work.samples as f64 / replayed);
    series.push(
        "channel.mix_ns_per_tag_sample",
        total("channel.mix") / work.tag_samples.max(1) as f64,
    );
    series.push("channel.share", (realize_us + mix_us) / round_us);
    push_rx_stages(series, &layers, rounds);
    series.push("rx.receive_us", receive_us);
    series.push("rx.share", receive_us / round_us);
    // What the round spends outside tag, channel and receiver: delivery
    // and bit-error accounting, ACK statistics, outcome assembly.
    series.push(
        "sim.settle_us",
        total("engine") / rounds / 1e3 - tag_us - realize_us - mix_us,
    );
}

/// Round latency median and tail (p99: a diagnostic, not a gated metric).
fn push_round_percentiles(series: &mut Series, latencies_ms: &[f64]) {
    if latencies_ms.is_empty() {
        return;
    }
    let sorted = sorted(latencies_ms);
    series.push("sim.round_p50_ms", percentile(&sorted, 50.0));
    series.push("sim.round_p99_ms", percentile(&sorted, 99.0));
}

/// Receiver stage self times per capture.
fn push_rx_stages(series: &mut Series, layers: &BTreeMap<&'static str, u64>, captures: f64) {
    for (metric, layer) in [
        ("rx.frame_sync_us", "rx.frame_sync"),
        ("rx.user_detect_us", "rx.user_detect"),
        ("rx.decode_us", "rx.decode"),
        ("rx.sic_us", "rx.sic"),
    ] {
        let ns = layers.get(layer).copied().unwrap_or(0) as f64;
        series.push(metric, ns / captures / 1e3);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
