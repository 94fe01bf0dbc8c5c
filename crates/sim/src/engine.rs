//! The end-to-end simulation engine.
//!
//! [`Engine::run_round`] performs one "collided packet" experiment exactly
//! the way the paper's testbed does: every active tag frames and spreads a
//! payload, the channel superposes the asynchronous, power-imbalanced
//! waveforms, and the receiver detects/decodes and broadcasts the ACK that
//! feeds the tags' statistics. Rounds are deterministic in
//! `(scenario.seed, round index)`.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use cbma_channel::mixer::{Mixer, TagSignal};
use cbma_obs::{Counter, Event, Gauge, Histogram, MetricsRegistry, NoopSink, Sink, Tracer};
use cbma_rx::{Receiver, RxReport};
use cbma_tag::{ImpedanceBank, Tag};
use cbma_types::geometry::Point;
use cbma_types::{Iq, Result, SeedSequence};

use crate::scenario::Scenario;
use crate::stats::RunStats;

/// Per-tag channel realization metadata for one round (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalMeta {
    /// Tag index.
    pub tag: usize,
    /// Mean link amplitude (√W) before fading.
    pub amplitude: f64,
    /// Realized main-tap fading power gain.
    pub fading_power: f64,
    /// Start delay in samples.
    pub delay_samples: f64,
    /// Static carrier phase.
    pub phase: f64,
}

/// The outcome of one transmission round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Indices of the tags that transmitted.
    pub active: Vec<usize>,
    /// The receiver's report.
    pub report: RxReport,
    /// Active tags whose frame was decoded *with the transmitted payload*
    /// (an ACK under the right id but the wrong bytes does not count).
    pub delivered: Vec<usize>,
    /// Per-tag bit-error measurements `(tag, errored bits, total bits)`
    /// for active tags whose header decoded with the right length.
    pub bit_errors: Vec<(usize, usize, usize)>,
    /// Channel realization diagnostics, index-aligned with `active`.
    pub signal_meta: Vec<SignalMeta>,
    /// The raw received IQ buffer, captured only when
    /// [`Engine::set_capture_iq`] is enabled (it is large).
    pub iq: Option<Vec<cbma_types::Iq>>,
}

impl RoundOutcome {
    /// Whether every active tag was delivered.
    pub fn all_delivered(&self) -> bool {
        self.delivered.len() == self.active.len()
    }
}

/// Pre-registered `cbma.sim.*` metric handles (lock-free atomics), bound
/// once by [`Engine::attach_observability`].
#[derive(Debug, Clone)]
struct SimMetrics {
    rounds: Counter,
    frames_sent: Counter,
    frames_delivered: Counter,
    bit_errors: Counter,
    bits_measured: Counter,
    round_ns: Histogram,
    active_tags: Gauge,
    delivery_ratio: Gauge,
}

impl SimMetrics {
    fn register(registry: &MetricsRegistry) -> SimMetrics {
        SimMetrics {
            rounds: registry.counter("cbma.sim.rounds"),
            frames_sent: registry.counter("cbma.sim.frames_sent"),
            frames_delivered: registry.counter("cbma.sim.frames_delivered"),
            bit_errors: registry.counter("cbma.sim.bit_errors"),
            bits_measured: registry.counter("cbma.sim.bits_measured"),
            round_ns: registry.histogram("cbma.sim.round_ns"),
            active_tags: registry.gauge("cbma.sim.active_tags"),
            delivery_ratio: registry.gauge("cbma.sim.delivery_ratio"),
        }
    }

    fn record(&self, outcome: &RoundOutcome, round_ns: u64) {
        self.rounds.inc();
        self.frames_sent.add(outcome.active.len() as u64);
        self.frames_delivered.add(outcome.delivered.len() as u64);
        let (err, total) = outcome
            .bit_errors
            .iter()
            .fold((0u64, 0u64), |(e, t), &(_, be, bt)| {
                (e + be as u64, t + bt as u64)
            });
        self.bit_errors.add(err);
        self.bits_measured.add(total);
        self.round_ns.record(round_ns);
        self.active_tags.max(outcome.active.len() as f64);
        if !outcome.active.is_empty() {
            self.delivery_ratio
                .set(outcome.delivered.len() as f64 / outcome.active.len() as f64);
        }
    }
}

/// One round between channel realization and settlement: everything
/// [`Engine::settle_round`] needs besides the receiver's report.
struct PendingRound {
    round: u64,
    start: Instant,
    active: Vec<usize>,
    payloads: Vec<Vec<u8>>,
    signal_meta: Vec<SignalMeta>,
    iq: Vec<Iq>,
    fault_rng: rand::rngs::StdRng,
}

/// The simulation engine for one scenario.
#[derive(Debug)]
pub struct Engine {
    scenario: Scenario,
    tags: Vec<Tag>,
    receiver: Receiver,
    bank: ImpedanceBank,
    seq: SeedSequence,
    round: u64,
    capture_iq: bool,
    /// Structured round/adaptation events go here; defaults to
    /// [`NoopSink`], whose `enabled() == false` skips event assembly.
    sink: Arc<dyn Sink>,
    /// Registered metric handles, when observability is attached.
    metrics: Option<SimMetrics>,
    /// Span recorder, when tracing is attached (see
    /// [`Engine::attach_tracer`]).
    tracer: Option<Tracer>,
}

impl Engine {
    /// Builds the engine: validates the scenario, assigns code `i` of the
    /// family to tag `i`, and configures the receiver with the full code
    /// set.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation and code-family errors.
    pub fn new(scenario: Scenario) -> Result<Engine> {
        scenario.validate()?;
        let family = scenario.family.build()?;
        let codes = family.codes(scenario.n_tags())?;
        let seq = SeedSequence::new(scenario.seed);
        let mut boot_rng = seq.rng("impedance-boot");
        let tags = scenario
            .tag_positions
            .iter()
            .zip(codes.iter())
            .enumerate()
            .map(|(i, (&pos, code))| {
                let mut tag = Tag::new(i as u32, pos, code.clone());
                // Tags boot at an arbitrary impedance state — the unequal
                // backscatter powers this creates are exactly the near-far
                // condition Algorithm 1 then has to fix (§IV, §V-B).
                let state = cbma_tag::ImpedanceState::ALL[boot_rng.gen_range(0..4usize)];
                tag.set_impedance(state);
                tag
            })
            .collect();
        let receiver = Receiver::new(codes, scenario.phy, scenario.rx_config);
        let bank = ImpedanceBank::new(scenario.link.carrier);
        Ok(Engine {
            scenario,
            tags,
            receiver,
            bank,
            seq,
            round: 0,
            capture_iq: false,
            sink: Arc::new(NoopSink),
            metrics: None,
            tracer: None,
        })
    }

    /// Enables capturing the raw IQ buffer into each [`RoundOutcome`]
    /// (for waveform inspection; costs memory per round).
    pub fn set_capture_iq(&mut self, capture: bool) {
        self.capture_iq = capture;
    }

    /// Attaches a metrics registry: every subsequent round records
    /// `cbma.sim.*` metrics here, and the inner receiver is wired to
    /// record its `cbma.rx.*` metrics into the same registry.
    pub fn attach_observability(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(SimMetrics::register(registry));
        self.receiver.attach_metrics(registry);
    }

    /// Attaches a span tracer: every subsequent round records a `round`
    /// root span, with the receiver wired so its `capture` span tree
    /// (stages and correlation kernels) nests underneath. Each round is
    /// its own trace. Without this call rounds pay one `Option` branch.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
        self.receiver.attach_tracer(tracer);
    }

    /// Replaces the event sink. Rounds emit `cbma.sim.round` events and
    /// the adaptation layer emits `cbma.sim.power_control` /
    /// `cbma.sim.node_selection` events through it. The default
    /// [`NoopSink`] reports `enabled() == false`, so no event is even
    /// assembled on the hot path.
    pub fn set_sink(&mut self, sink: Arc<dyn Sink>) {
        self.sink = sink;
    }

    /// The current event sink (shared with the adaptation layer).
    #[inline]
    pub fn sink(&self) -> &Arc<dyn Sink> {
        &self.sink
    }

    /// The scenario the engine was built from.
    #[inline]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The tags (ACK statistics, impedance states, positions).
    #[inline]
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Mutable tag access (the adaptation layer steps impedances and moves
    /// tags through this).
    #[inline]
    pub fn tags_mut(&mut self) -> &mut [Tag] {
        &mut self.tags
    }

    /// Rounds executed so far.
    #[inline]
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The payload tag `i` transmits in round `r` (unique per tag and
    /// round so aliased decodes cannot masquerade as real deliveries).
    pub fn payload_for(&self, tag: usize, round: u64) -> Vec<u8> {
        let mut payload = vec![0u8; self.scenario.payload_len];
        let mut state = (tag as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
        for byte in payload.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state & 0xFF) as u8;
        }
        if !payload.is_empty() {
            payload[0] = tag as u8; // self-identifying first byte
        }
        payload
    }

    /// Runs one round with every tag active.
    pub fn run_round(&mut self) -> RoundOutcome {
        let all: Vec<usize> = (0..self.tags.len()).collect();
        self.run_round_subset(&all)
    }

    /// Runs one round with the given subset of tags transmitting.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn run_round_subset(&mut self, active: &[usize]) -> RoundOutcome {
        let round_start = Instant::now();
        // The guard owns a tracer clone, so the later `&mut self` receiver
        // call is unencumbered; dropping it at function end closes the
        // round span around the whole round.
        let _round_span = self.tracer.clone().map(|tracer| {
            let trace = tracer.new_trace();
            let mut span = tracer.span(trace, None, "round");
            span.set_arg(self.round);
            self.receiver.set_trace_parent(trace, span.id());
            span
        });
        let pending = self.begin_round(active, round_start);
        let report = self.receiver.receive(&pending.iq);
        self.settle_round(pending, report)
    }

    /// The pre-reception half of [`Engine::run_round_subset`]: takes the
    /// next round index, derives its `round-{n}` seed child with the
    /// `channel`, `faults` and `mobility` streams, drops injected dead
    /// tags from `active`, realizes the channel, then steps mobility.
    fn begin_round(&mut self, active: &[usize], start: Instant) -> PendingRound {
        let round = self.round;
        self.round += 1;
        let round_seq = self.seq.child(&format!("round-{round}"));
        let mut chan_rng = round_seq.rng("channel");
        let fault_rng = round_seq.rng("faults");

        // Injected tag deaths: dead tags silently drop out of the round.
        let active: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !self.scenario.faults.is_dead(i, round))
            .collect();

        let (iq, signal_meta, payloads) = self.realize_round(&active, round, &mut chan_rng);
        // Mobility: positions evolve between rounds (shadowing and the
        // frozen carrier phases follow automatically, both being
        // position-keyed). Its own seed stream — not `fault_rng`, whose
        // draw count depends on how many frames were delivered — and
        // reception never reads positions, so tags can move before their
        // capture is received.
        if let Some(mobility) = self.scenario.mobility {
            let mut mobility_rng = round_seq.rng("mobility");
            for tag in &mut self.tags {
                let next = mobility.step(&mut mobility_rng, tag.position());
                tag.set_position(next);
            }
        }
        PendingRound {
            round,
            start,
            active,
            payloads,
            signal_meta,
            iq,
            fault_rng,
        }
    }

    /// Realizes one round's channel: every active tag's waveform with its
    /// link amplitude, fading, timing and phase, mixed (with noise and
    /// quantization) into the received IQ capture. Also returns the
    /// per-tag payloads for delivery accounting.
    fn realize_round(
        &mut self,
        active: &[usize],
        round: u64,
        mut chan_rng: &mut rand::rngs::StdRng,
    ) -> (Vec<Iq>, Vec<SignalMeta>, Vec<Vec<u8>>) {
        let mut signals = Vec::with_capacity(active.len());
        let mut signal_meta = Vec::with_capacity(active.len());
        let mut payloads = vec![Vec::new(); self.tags.len()];
        for &i in active {
            let payload = self.payload_for(i, round);
            payloads[i] = payload.clone();
            let envelope = self.tags[i]
                .transmit(payload, &self.scenario.phy)
                .expect("configured payload length is valid");

            // Mean link amplitude: Friis with this tag's |ΔΓ| state,
            // shadowed by the frozen large-scale environment.
            let dg = self.bank.delta_gamma(self.tags[i].impedance());
            let link = self.scenario.link.with_delta_gamma(dg);
            let mut amplitude = link.received_amplitude(
                self.scenario.es,
                self.tags[i].position(),
                self.scenario.rx,
            );
            amplitude *= self
                .scenario
                .shadowing
                .offset_for(self.tags[i].position())
                .to_amplitude_ratio();
            amplitude *= self.coupling_penalty(i, active, &mut chan_rng);

            let taps = self.scenario.multipath.realize(&mut chan_rng);
            let clock = self.scenario.clock_for(i);
            let delay = clock.frame_delay(&mut chan_rng, envelope.len());
            // The carrier phase of a static tag is set by its geometry
            // (path lengths at sub-wavelength precision), so it is frozen
            // per position like shadowing, with a small per-frame wobble
            // from oscillator drift and micro-motion.
            let phase = self.static_phase(self.tags[i].position()) + chan_rng.gen_range(-0.3..0.3);
            // Δf = 20 MHz subcarrier with ppm-grade tag oscillators: the
            // residual offset makes inter-tag phases beat over the frame.
            let beat =
                clock.subcarrier_beat(&mut chan_rng, 20.0e6, self.scenario.phy.sample_rate.get());

            signal_meta.push(SignalMeta {
                tag: i,
                amplitude,
                fading_power: taps.taps()[0].1.power(),
                delay_samples: delay,
                phase,
            });
            signals.push(TagSignal {
                envelope,
                amplitude,
                phase,
                taps,
                delay_samples: delay,
                freq_offset_rad_per_sample: beat,
            });
        }

        let mixer = Mixer {
            noise: self.scenario.noise,
            bandwidth: self.scenario.phy.sample_rate,
            excitation: self.scenario.excitation,
            interference: self.scenario.interference,
            lead_in: 4 * self.scenario.rx_config.energy_window.max(32),
            tail: 64,
        };
        let mut iq = mixer.combine(chan_rng, &signals);
        if let Some(adc) = self.scenario.adc {
            adc.quantize(chan_rng, &mut iq);
        }
        (iq, signal_meta, payloads)
    }

    /// The post-reception half of a round: delivery and bit-error
    /// accounting, ACK statistics (with downlink loss draws from the
    /// round's fault stream), outcome assembly and observability.
    fn settle_round(&mut self, pending: PendingRound, report: RxReport) -> RoundOutcome {
        let PendingRound {
            round,
            start: round_start,
            active,
            payloads,
            signal_meta,
            iq,
            mut fault_rng,
        } = pending;
        // Deliveries: the right payload decoded under the right id.
        let mut delivered = Vec::new();
        for &(id, frame) in report.frames().iter() {
            if active.contains(&id) && frame.payload() == payloads[id].as_slice() {
                delivered.push(id);
            }
        }
        // Bit-error accounting: compare every active tag's decoded bit
        // stream (valid or not) against what it actually sent.
        let mut bit_errors = Vec::new();
        for user in &report.users {
            let id = user.detection.code_index;
            if !active.contains(&id) {
                continue;
            }
            if let Some(bits) = &user.bits {
                let sent = cbma_tag::Frame::new(payloads[id].clone())
                    .expect("payload length validated")
                    .to_bits(self.scenario.phy.preamble_bits);
                if bits.len() == sent.len() {
                    bit_errors.push((id, sent.hamming_distance(bits), sent.len()));
                }
            }
        }
        delivered.sort_unstable();
        // Feed the tags' ACK statistics (only true deliveries ACK, and the
        // broadcast ACK itself can be lost on the downlink).
        for &i in &delivered {
            if !self.scenario.faults.ack_lost(&mut fault_rng) {
                self.tags[i].record_ack();
            }
        }

        let outcome = RoundOutcome {
            active,
            report,
            delivered,
            bit_errors,
            signal_meta,
            iq: if self.capture_iq { Some(iq) } else { None },
        };
        let round_ns = round_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(metrics) = &self.metrics {
            metrics.record(&outcome, round_ns);
        }
        if self.sink.enabled() {
            self.sink.record(
                Event::new("cbma.sim.round")
                    .with("round", round)
                    .with("active", &outcome.active)
                    .with("detected", &outcome.report.detected_ids())
                    .with("delivered", &outcome.delivered)
                    .with("frame_detected", outcome.report.frame_detected)
                    .with("sic_recovered", outcome.report.telemetry.sic_recovered)
                    .with("peak_correlation", outcome.report.telemetry.peak_correlation)
                    .with("round_ns", round_ns),
            );
        }
        outcome
    }

    /// Runs `n` all-tags rounds and accumulates statistics.
    pub fn run_rounds(&mut self, n: usize) -> RunStats {
        let mut stats = RunStats::new(self.tags.len());
        for _ in 0..n {
            let outcome = self.run_round();
            stats.record(&outcome);
        }
        stats
    }

    /// Mutual-coupling penalty for tag `i`: each active neighbour within
    /// the coupling radius multiplies the amplitude by a random factor in
    /// [0.15, 0.7] (§VII-C.1: "the distance between tags can be too small
    /// (smaller than half of wavelength). Then the interference between
    /// tags becomes large").
    fn coupling_penalty<R: Rng + ?Sized>(&self, i: usize, active: &[usize], rng: &mut R) -> f64 {
        if self.scenario.coupling_radius <= 0.0 {
            return 1.0;
        }
        let mut penalty = 1.0;
        let pos = self.tags[i].position();
        for &j in active {
            if j != i && self.tags[j].position().distance_to(pos) < self.scenario.coupling_radius {
                penalty *= rng.gen_range(0.05..0.6);
            }
        }
        penalty
    }

    /// The geometry-frozen carrier phase for a tag at `pos`, derived
    /// deterministically from the scenario seed and the position
    /// quantized to millimeters (a millimeter is ~2% of a wavelength at
    /// 2 GHz, fine enough to treat as static).
    fn static_phase(&self, pos: Point) -> f64 {
        let qx = (pos.x * 1000.0).round() as i64;
        let qy = (pos.y * 1000.0).round() as i64;
        let mut rng = self
            .seq
            .rng_indexed("static-phase", (qx as u64) ^ (qy as u64).rotate_left(32));
        rand::Rng::gen_range(&mut rng, 0.0..std::f64::consts::TAU)
    }

    /// Resets every tag's ACK statistics (start of an adaptation round).
    pub fn reset_tag_stats(&mut self) {
        for tag in &mut self.tags {
            tag.reset_stats();
        }
    }

    /// Moves a tag (node selection). Re-validating geometry is the
    /// caller's business; the engine accepts any position.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is out of range.
    pub fn move_tag(&mut self, tag: usize, to: Point) {
        self.tags[tag].set_position(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn near_positions(n: usize) -> Vec<Point> {
        // Spread around the origin between ES and RX, comfortably apart.
        (0..n)
            .map(|i| Point::new(-0.3 + 0.2 * i as f64, if i % 2 == 0 { 0.35 } else { -0.35 }))
            .collect()
    }

    #[test]
    fn single_tag_clean_channel_always_delivers() {
        let mut engine = Engine::new(Scenario::clean(near_positions(1))).unwrap();
        let stats = engine.run_rounds(10);
        assert_eq!(stats.fer(), 0.0, "{stats:?}");
    }

    #[test]
    fn two_tag_collision_clean_channel_delivers_both() {
        let mut engine = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        let outcome = engine.run_round();
        assert_eq!(outcome.active, vec![0, 1]);
        assert!(outcome.all_delivered(), "{outcome:?}");
    }

    #[test]
    fn five_tag_collision_paper_channel_mostly_delivers() {
        let mut engine = Engine::new(Scenario::paper_default(near_positions(5))).unwrap();
        // Uniform full power (the random boot states model the
        // pre-power-control near-far condition, which is not under test
        // here).
        for t in engine.tags_mut() {
            t.set_impedance(cbma_tag::ImpedanceState::Open);
        }
        let stats = engine.run_rounds(12);
        assert!(stats.fer() < 0.4, "fer = {} too high", stats.fer());
    }

    #[test]
    fn rounds_are_deterministic_in_seed() {
        let scenarios: [fn(u64) -> Scenario; 2] = [
            |seed| Scenario::paper_default(near_positions(3)).with_seed(seed),
            // The fault paths draw from their own per-round seed streams:
            // mobility, downlink ACK loss and a tag that dies mid-run.
            |seed| {
                let mut scenario = Scenario::paper_default(near_positions(3)).with_seed(seed);
                scenario.mobility = Some(crate::faults::MobilityModel::new(
                    0.05,
                    cbma_types::geometry::Rect::office(),
                ));
                scenario.faults = crate::faults::FaultPlan::none()
                    .with_ack_loss(0.25)
                    .with_dead_tag(1, 3);
                scenario
            },
        ];
        // Fingerprint a run by its stats, every tag's ACK bookkeeping and
        // position, and each round's delivered set *and* realized channel
        // (fading draw + start delay): at close range a good receiver
        // delivers every tag under both seeds, so `delivered` alone
        // cannot distinguish them.
        let run = |scenario: Scenario| {
            let mut engine = Engine::new(scenario).unwrap();
            let mut stats = RunStats::new(engine.tags().len());
            let rounds: Vec<_> = (0..5)
                .map(|_| {
                    let outcome = engine.run_round();
                    stats.record(&outcome);
                    let channel: Vec<(u64, u64)> = outcome
                        .signal_meta
                        .iter()
                        .map(|m| (m.fading_power.to_bits(), m.delay_samples.to_bits()))
                        .collect();
                    (outcome.delivered, channel)
                })
                .collect();
            let tags: Vec<_> = engine
                .tags()
                .iter()
                .map(|t| (t.packets_sent(), t.acks_received(), t.position()))
                .collect();
            (stats, tags, rounds)
        };
        for scenario in scenarios {
            assert_eq!(run(scenario(42)), run(scenario(42)));
            assert_ne!(run(scenario(42)), run(scenario(43)));
        }
    }

    #[test]
    fn subset_rounds_only_involve_active_tags() {
        let mut engine = Engine::new(Scenario::clean(near_positions(4))).unwrap();
        let outcome = engine.run_round_subset(&[1, 3]);
        assert_eq!(outcome.active, vec![1, 3]);
        assert!(outcome.delivered.iter().all(|&i| i == 1 || i == 3));
        // ACK bookkeeping only touches active tags.
        assert_eq!(engine.tags()[0].packets_sent(), 0);
        assert_eq!(engine.tags()[1].packets_sent(), 1);
    }

    #[test]
    fn payloads_are_unique_per_tag_and_round() {
        let engine = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        assert_ne!(engine.payload_for(0, 0), engine.payload_for(1, 0));
        assert_ne!(engine.payload_for(0, 0), engine.payload_for(0, 1));
        assert_eq!(engine.payload_for(1, 7), engine.payload_for(1, 7));
        assert_eq!(engine.payload_for(1, 7).len(), 8);
    }

    #[test]
    fn ack_statistics_accumulate() {
        let mut engine = Engine::new(Scenario::clean(near_positions(1))).unwrap();
        engine.run_rounds(5);
        assert_eq!(engine.tags()[0].packets_sent(), 5);
        assert_eq!(engine.tags()[0].acks_received(), 5);
        engine.reset_tag_stats();
        assert_eq!(engine.tags()[0].packets_sent(), 0);
    }

    #[test]
    fn weak_far_tag_fails_until_near() {
        // A tag at the far corner of the office under the weakest
        // impedance state should mostly fail; moved near, it succeeds.
        let mut scenario = Scenario::paper_default(vec![Point::new(2.0, 3.0)]);
        scenario.multipath = cbma_channel::MultipathModel::disabled();
        let mut engine = Engine::new(scenario).unwrap();
        engine.tags_mut()[0].set_impedance(cbma_tag::ImpedanceState::Inductor2nH);
        let far = engine.run_rounds(8);
        engine.move_tag(0, Point::new(0.0, 0.3));
        engine.tags_mut()[0].set_impedance(cbma_tag::ImpedanceState::Open);
        let near = engine.run_rounds(8);
        assert!(
            near.fer() < far.fer() || far.fer() == 0.0,
            "near {} vs far {}",
            near.fer(),
            far.fer()
        );
    }

    #[test]
    fn dead_tags_stop_transmitting() {
        let mut scenario = Scenario::clean(near_positions(2));
        scenario.faults = crate::faults::FaultPlan::none().with_dead_tag(1, 3);
        let mut engine = Engine::new(scenario).unwrap();
        engine.run_rounds(6);
        // Tag 1 transmitted only in rounds 0..3.
        assert_eq!(engine.tags()[0].packets_sent(), 6);
        assert_eq!(engine.tags()[1].packets_sent(), 3);
    }

    #[test]
    fn lost_acks_hide_deliveries_from_the_tag() {
        let mut scenario = Scenario::clean(near_positions(1));
        scenario.faults = crate::faults::FaultPlan::none().with_ack_loss(1.0);
        let mut engine = Engine::new(scenario).unwrap();
        let stats = engine.run_rounds(5);
        // The receiver decoded everything …
        assert_eq!(stats.total_delivered(), 5);
        // … but the tag heard none of the ACKs.
        assert_eq!(engine.tags()[0].acks_received(), 0);
    }

    #[test]
    fn mobility_moves_tags_each_round() {
        let mut scenario = Scenario::clean(near_positions(2));
        scenario.mobility = Some(crate::faults::MobilityModel::new(
            0.05,
            cbma_types::geometry::Rect::office(),
        ));
        let mut engine = Engine::new(scenario).unwrap();
        let before: Vec<Point> = engine.tags().iter().map(|t| t.position()).collect();
        engine.run_rounds(4);
        let after: Vec<Point> = engine.tags().iter().map(|t| t.position()).collect();
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(b, a, "tag did not move");
            assert!(b.distance_to(*a) <= 4.0 * 0.05 + 1e-9);
        }
    }

    #[test]
    fn observability_records_metrics_and_round_events() {
        use cbma_obs::{FieldValue, RecordingSink};

        let registry = MetricsRegistry::new();
        let sink = Arc::new(RecordingSink::new());
        let mut engine = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        engine.attach_observability(&registry);
        engine.set_sink(sink.clone());
        engine.run_rounds(3);

        let snap = registry.snapshot();
        assert_eq!(snap.counters["cbma.sim.rounds"], 3);
        assert_eq!(snap.counters["cbma.sim.frames_sent"], 6);
        assert_eq!(snap.counters["cbma.sim.frames_delivered"], 6);
        // The inner receiver records into the same registry.
        assert_eq!(snap.counters["cbma.rx.captures"], 3);
        assert_eq!(snap.histograms["cbma.sim.round_ns"].count, 3);
        assert_eq!(snap.gauges["cbma.sim.active_tags"], 2.0);
        assert_eq!(snap.gauges["cbma.sim.delivery_ratio"], 1.0);

        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.name == "cbma.sim.round"));
        assert_eq!(events[0].field_u64("round"), Some(0));
        assert_eq!(events[2].field_u64("round"), Some(2));
        assert_eq!(
            events[0].field("active"),
            Some(&FieldValue::List(vec![0, 1]))
        );
        assert_eq!(
            events[0].field("delivered"),
            Some(&FieldValue::List(vec![0, 1]))
        );
    }

    #[test]
    fn attached_tracer_nests_captures_under_round_spans() {
        let tracer = Tracer::new(4096);
        let mut engine = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        engine.attach_tracer(&tracer);
        engine.run_rounds(2);

        let spans = tracer.spans();
        let rounds: Vec<_> = spans.iter().filter(|s| s.name == "round").collect();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].arg, Some(0));
        assert_eq!(rounds[1].arg, Some(1));
        // Each round is its own trace, with its capture span nested inside.
        for round in rounds {
            let capture = spans
                .iter()
                .find(|s| s.name == "capture" && s.trace == round.trace)
                .expect("capture span in round trace");
            assert_eq!(capture.parent, round.span);
            assert!(capture.start_ns >= round.start_ns);
            assert!(capture.start_ns + capture.dur_ns <= round.start_ns + round.dur_ns);
        }
        // The export is one valid Chrome trace-event document.
        let json = tracer.chrome_trace(None);
        assert!(cbma_obs::json::JsonValue::parse(&json).is_ok());
    }

    #[test]
    fn default_sink_is_disabled_and_rounds_are_unchanged() {
        let mut plain = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        let mut wired = Engine::new(Scenario::clean(near_positions(2))).unwrap();
        assert!(!wired.sink().enabled());
        let registry = MetricsRegistry::new();
        wired.attach_observability(&registry);
        // Observability must not perturb the simulation itself.
        for _ in 0..3 {
            let a = plain.run_round();
            let b = wired.run_round();
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.active, b.active);
        }
    }

    #[test]
    fn coupled_tags_suffer() {
        // Two tags 2 cm apart (within λ/2) versus 40 cm apart.
        let coupled = {
            let mut e = Engine::new(Scenario::paper_default(vec![
                Point::new(0.0, 0.30),
                Point::new(0.02, 0.30),
            ]))
            .unwrap();
            e.run_rounds(40).fer()
        };
        let separated = {
            let mut e = Engine::new(Scenario::paper_default(vec![
                Point::new(0.0, 0.30),
                Point::new(0.0, -0.30),
            ]))
            .unwrap();
            e.run_rounds(40).fer()
        };
        assert!(
            coupled > separated,
            "coupling should hurt: coupled {coupled} vs separated {separated}"
        );
    }
}
