//! Per-layer attribution from span trees.
//!
//! The engine's `round` span covers tag modulation, channel synthesis,
//! reception and settlement, but only reception (the `capture` tree) has
//! spans of its own. The benchmark times the other two layers from
//! outside: [`replay_tag_and_channel`] re-runs `Tag::transmit`, link /
//! multipath / clock realization and `Mixer::combine` on a round's own
//! inputs, inside spans of its own. Every layer's cost is then the
//! *self time* of its spans — duration minus the part of it that child
//! spans cover — so SIC's nested re-runs of sync/detect/decode count once,
//! under their own stages.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use cbma::channel::{Mixer, TagSignal};
use cbma::obs::{SpanRecord, Tracer};
use cbma::prelude::*;
use cbma::tag::{ImpedanceBank, Tag};
use rand::Rng;

/// The layer a span's self time belongs to, by span name; kernel spans
/// (`correlate`, `fft_block`, …) return `None` and inherit the layer of
/// their nearest named ancestor.
pub fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "tag.transmit" => "tag.transmit",
        "channel.realize" => "channel.realize",
        "channel.mix" => "channel.mix",
        // The engine's own part of a round: tag + channel + settlement.
        "round" => "engine",
        // Receiver glue between the stages.
        "capture" => "rx.other",
        "frame_sync" => "rx.frame_sync",
        "user_detect" => "rx.user_detect",
        "decode" => "rx.decode",
        "sic" => "rx.sic",
        "flowgraph" | "worker" | "stage_run" | "stage_wait" | "sync_stage" | "detect_stage"
        | "decode_stage" | "sic_stage" => "rx.runtime",
        _ => return None,
    })
}

/// Self time per layer, in nanoseconds, summed over `spans`.
///
/// A span's self time is its duration minus the union of its children's
/// intervals (clipped to the span), so concurrent children are not
/// subtracted twice. Spans with no named ancestor-or-self are skipped.
pub fn self_time_by_layer(
    spans: &[SpanRecord],
    layer_of: impl Fn(&str) -> Option<&'static str>,
) -> BTreeMap<&'static str, u64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.span)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.start_ns + s.dur_ns));
        let self_ns = s.dur_ns.saturating_sub(covered);
        let mut cur = Some(s);
        while let Some(span) = cur {
            if let Some(layer) = layer_of(span.name) {
                *out.entry(layer).or_default() += self_ns;
                break;
            }
            cur = by_id.get(&span.parent).copied();
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Mean duration, in nanoseconds, of the spans called `name`.
pub fn mean_span_ns(spans: &[SpanRecord], name: &str) -> f64 {
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        durs.iter().sum::<u64>() as f64 / durs.len() as f64
    }
}

/// What the replayed channel produced, for per-sample normalization.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChannelWork {
    /// Rounds replayed.
    pub rounds: u64,
    /// Received samples synthesized, summed over rounds.
    pub samples: u64,
    /// Σ tags × samples: the mixer's inner-loop work.
    pub tag_samples: u64,
}

impl ChannelWork {
    /// Accumulates another replay's work.
    pub fn add(&mut self, other: ChannelWork) {
        self.rounds += other.rounds;
        self.samples += other.samples;
        self.tag_samples += other.tag_samples;
    }
}

/// Re-runs the tag and channel layers of `rounds` of `engine`'s
/// deployment, recording one `tag.transmit`, `channel.realize` and
/// `channel.mix` span per round. The engine itself is not touched.
pub fn replay_tag_and_channel(engine: &Engine, rounds: Range<u64>, tracer: &Tracer) -> ChannelWork {
    let mut tags = engine.tags().to_vec();
    let mut work = ChannelWork::default();
    for round in rounds {
        let (iq, transmitting) = replay_round(engine, &mut tags, round, tracer);
        std::hint::black_box(&iq);
        work.rounds += 1;
        work.samples += iq.len() as u64;
        work.tag_samples += (iq.len() * transmitting) as u64;
    }
    work
}

/// The received capture of round `round` of `engine`'s deployment, built
/// the way `Engine::run_round` builds it — every live tag transmits, with
/// the same links, coupling penalties, geometry-frozen carrier phases and
/// channel RNG stream — so the capture is sample for sample the engine's
/// (`tests::replay_reproduces_the_engines_capture` pins this). The engine
/// realizes rounds privately; this copy of that sequence is what lets the
/// benchmark time the tag and channel layers from outside. Tags move only
/// under mobility, which no workload enables, so `tags` stay valid across
/// rounds. Returns the capture and the number of tags that transmitted.
fn replay_round(
    engine: &Engine,
    tags: &mut [Tag],
    round: u64,
    tracer: &Tracer,
) -> (Vec<Iq>, usize) {
    let scenario = engine.scenario();
    let phy = scenario.phy;
    let seq = SeedSequence::new(scenario.seed);
    let mut rng = seq.child(&format!("round-{round}")).rng("channel");
    let active: Vec<usize> = (0..tags.len())
        .filter(|&i| !scenario.faults.is_dead(i, round))
        .collect();
    let trace = tracer.new_trace();

    let span = tracer.span(trace, None, "tag.transmit");
    let envelopes: Vec<Vec<f64>> = active
        .iter()
        .map(|&i| {
            tags[i]
                .transmit(engine.payload_for(i, round), &phy)
                .expect("scenario payload length is valid")
        })
        .collect();
    drop(span);

    let span = tracer.span(trace, None, "channel.realize");
    let bank = ImpedanceBank::new(scenario.link.carrier);
    let signals: Vec<TagSignal> = active
        .iter()
        .zip(envelopes)
        .map(|(&i, envelope)| {
            let pos = tags[i].position();
            let link = scenario
                .link
                .with_delta_gamma(bank.delta_gamma(tags[i].impedance()));
            let mut amplitude = link.received_amplitude(scenario.es, pos, scenario.rx);
            amplitude *= scenario.shadowing.offset_for(pos).to_amplitude_ratio();
            // Mutual coupling: each active neighbour closer than the
            // coupling radius draws an amplitude penalty.
            let mut penalty = 1.0;
            if scenario.coupling_radius > 0.0 {
                for &j in &active {
                    if j != i && tags[j].position().distance_to(pos) < scenario.coupling_radius {
                        penalty *= rng.gen_range(0.05..0.6);
                    }
                }
            }
            amplitude *= penalty;
            let taps = scenario.multipath.realize(&mut rng);
            let clock = scenario.clock_for(i);
            let delay_samples = clock.frame_delay(&mut rng, envelope.len());
            let phase = static_phase(&seq, pos) + rng.gen_range(-0.3..0.3);
            let freq_offset_rad_per_sample =
                clock.subcarrier_beat(&mut rng, 20.0e6, phy.sample_rate.get());
            TagSignal {
                envelope,
                amplitude,
                phase,
                taps,
                delay_samples,
                freq_offset_rad_per_sample,
            }
        })
        .collect();
    drop(span);

    let span = tracer.span(trace, None, "channel.mix");
    let mixer = Mixer {
        noise: scenario.noise,
        bandwidth: phy.sample_rate,
        excitation: scenario.excitation,
        interference: scenario.interference,
        lead_in: 4 * scenario.rx_config.energy_window.max(32),
        tail: 64,
    };
    let mut iq = mixer.combine(&mut rng, &signals);
    if let Some(adc) = scenario.adc {
        adc.quantize(&mut rng, &mut iq);
    }
    drop(span);
    (iq, signals.len())
}

/// A static tag's carrier phase, frozen per position quantized to
/// millimetres and drawn from the deployment's seed.
fn static_phase(seq: &SeedSequence, pos: Point) -> f64 {
    let qx = (pos.x * 1000.0).round() as i64;
    let qy = (pos.y * 1000.0).round() as i64;
    seq.rng_indexed("static-phase", (qx as u64) ^ (qy as u64).rotate_left(32))
        .gen_range(0.0..std::f64::consts::TAU)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{campaign_suite, dense10_engine, paper4_engine, Size};
    use cbma_harness::{job_seed, JobCtx};

    fn span(span: u64, parent: u64, name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            seq: span,
            trace: 1,
            span,
            parent,
            name,
            arg: None,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        // round [0,100) ⊃ capture [10,60) ⊃ {frame_sync [10,20),
        // user_detect [20,40) ⊃ correlate [22,38), sic [40,58) ⊃
        // decode [45,50)}; a sibling of capture, an unnamed kernel
        // [70,80), belongs to the round.
        let spans = [
            span(2, 1, "capture", 10, 50),
            span(3, 2, "frame_sync", 10, 10),
            span(4, 2, "user_detect", 20, 20),
            span(5, 4, "correlate", 22, 16),
            span(6, 2, "sic", 40, 18),
            span(7, 6, "decode", 45, 5),
            span(8, 1, "fft_block", 70, 10),
            span(1, 0, "round", 0, 100),
        ];
        let layers = self_time_by_layer(&spans, layer_of);
        assert_eq!(layers["engine"], 100 - 50 - 10 + 10);
        assert_eq!(layers["rx.other"], 50 - 10 - 20 - 18);
        assert_eq!(layers["rx.frame_sync"], 10);
        // The kernel's time stays inside its stage.
        assert_eq!(layers["rx.user_detect"], 20);
        // SIC's nested decode is counted under decode, not twice.
        assert_eq!(layers["rx.sic"], 13);
        assert_eq!(layers["rx.decode"], 5);
        let total: u64 = layers.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        // Two concurrent workers under one flowgraph root.
        let spans = [
            span(1, 0, "flowgraph", 0, 100),
            span(2, 1, "worker", 0, 80),
            span(3, 1, "worker", 20, 90),
        ];
        let layers = self_time_by_layer(&spans, layer_of);
        // Root self time: 100 − |[0,110) ∩ [0,100)| = 0, never negative.
        assert_eq!(layers["rx.runtime"], 80 + 90);
    }

    #[test]
    fn replay_records_one_span_per_layer_per_round() {
        let engine = Engine::new(Scenario::paper_default(vec![
            Point::new(0.0, 0.35),
            Point::new(0.25, -0.40),
        ]))
        .expect("valid scenario");
        let tracer = Tracer::new(64);
        let work = replay_tag_and_channel(&engine, 0..3, &tracer);
        assert_eq!(work.rounds, 3);
        assert_eq!(work.tag_samples, 2 * work.samples);
        let spans = tracer.spans();
        for name in ["tag.transmit", "channel.realize", "channel.mix"] {
            assert_eq!(spans.iter().filter(|s| s.name == name).count(), 3, "{name}");
        }
        // Replaying never advances the engine.
        assert_eq!(engine.rounds_run(), 0);
    }

    /// Runs `rounds` rounds of `build()` with captures on and checks each
    /// against a replay on a second, untouched build.
    fn assert_replay_matches(what: &str, build: impl Fn() -> Engine, rounds: u64) {
        let mut engine = build();
        engine.set_capture_iq(true);
        let replica = build();
        let mut tags = replica.tags().to_vec();
        let tracer = Tracer::new(8);
        for _ in 0..rounds {
            let round = engine.rounds_run();
            let want = engine.run_round().iq.expect("capture_iq is on");
            let (got, _) = replay_round(&replica, &mut tags, round, &tracer);
            assert!(
                got == want,
                "{what} round {round}: replayed capture differs"
            );
        }
    }

    #[test]
    fn replay_reproduces_the_engines_capture() {
        assert_replay_matches("paper4", || paper4_engine(3), 3);
        assert_replay_matches("dense10", || dense10_engine(3), 2);
        // Two tags 3 cm apart, inside the coupling radius.
        let coupled = || {
            let positions = vec![Point::new(0.0, 0.35), Point::new(0.03, 0.35)];
            Engine::new(Scenario::paper_default(positions).with_seed(5)).expect("valid scenario")
        };
        assert_replay_matches("coupled", coupled, 2);
        // Each campaign's first and last point: fig9c's after Algorithm 1
        // has run rounds, fig12's with interference and excitation masks.
        for campaign in campaign_suite(Size::Tiny) {
            for point in &campaign.points {
                let build = || {
                    (point.builder)(JobCtx {
                        seed: job_seed(7, campaign.name, &point.label, 0),
                        replicate: 0,
                    })
                };
                assert_replay_matches(&point.label, build, 2);
            }
        }
    }
}
