//! Dependency-free timing of the user detector and of the other
//! per-sample loops of a round.
//!
//! Plain `std::time::Instant` loops, mean ns/op per case, and a
//! hand-written `BENCH_user_detect.json` that CI diffs against a
//! committed baseline.
//!
//! Cases (`bench_gate` gates each one that
//! `ci/BENCH_user_detect.baseline.json` also holds):
//!
//! * `user_detect_auto` — the full 10-code detector on the paper-default
//!   window (the `user_detect_10_codes` workload): the shared-FFT K-code
//!   batch engine, one forward transform per overlap-save block for all
//!   ten codes. Its air time over this time is `realtime_factor_batch`.
//!   The name predates the removal of the direct path it was chosen
//!   against, and stays so the baseline keeps gating it,
//! * the per-sample loops of a round around the detector, each as the
//!   engine runs it, into buffers kept across iterations:
//!   `tag_transmit_w256` (one 10-tag-family tag's `Tag::transmit_into`,
//!   a 256-sample bit window), `mixer_combine_paper4`
//!   (`Mixer::combine_into` of four faded, delayed paper-default tags,
//!   noise included),
//!   `frame_sync_paper4` (`FrameSync::best_edge_in` on that capture) and
//!   `decode_frame_w256` (one coherent `Decoder::decode_frame` with a
//!   256-sample bit window).
//!
//! Run with `cargo run --release -p cbma-bench --example bench_summary`.

use std::fmt::Write as _;
use std::time::Instant;

use cbma::codes::{CodeFamily, TwoNcFamily};
use cbma::prelude::*;
use cbma::rx::{DecoderKind, DetectScratch, UserDetector};
use cbma::tag::{PhyProfile, Tag};

/// One timed case: best-of-3 mean ns/op, each repetition covering ~40 ms.
struct Case {
    name: String,
    mean_ns: f64,
    iters: u64,
}

fn time_case<R>(name: &str, mut f: impl FnMut() -> R) -> Case {
    // Warm-up + calibration: find an iteration count that runs ≥ 40 ms.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if t.elapsed().as_millis() >= 40 || iters > 1 << 24 {
            break;
        }
        iters *= 4;
    }
    // Timed repetitions, keeping the minimum: scheduler preemption and
    // frequency wobble only ever add time, so min-of-3 is far more stable
    // run-to-run than any single pass — the bench gate depends on that.
    let mut mean_ns = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        mean_ns = mean_ns.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    Case {
        name: name.to_string(),
        mean_ns,
        iters,
    }
}

fn main() {
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(10).unwrap().codes(10).unwrap();
    let detector = UserDetector::with_kind(&codes, &phy, 0.12, DecoderKind::Coherent);
    let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
    let env = tag.transmit(vec![0xA5; 8], &phy).unwrap();
    let mut buf = vec![Iq::ZERO; 400];
    buf.extend(env.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    buf.extend(vec![Iq::ZERO; 64]);
    let window = &buf[350..3000];
    let ref_len = detector.reference_len();
    let lags = window.len() - ref_len + 1;

    // Steady-state protocol: the receiver owns a scratch arena and reuses
    // it every capture, so the timed op is `detect_candidates_in` over a
    // warm arena — allocation-free by the `alloc_free` test's guarantee.
    let mut scratch = DetectScratch::new();
    let detect = time_case("user_detect_auto", || {
        detector.detect_candidates_in(window, 350, 8, &[], &mut scratch, None);
        scratch.candidates().len()
    });
    println!(
        "{:24} {:>12.0} ns/op  ({} iters)",
        detect.name, detect.mean_ns, detect.iters
    );
    // Real-time factor: air time the window represents (samples at the
    // paper-default rate) over the time the detector needs to scan it.
    let window_ns = window.len() as f64 / phy.sample_rate.get() * 1e9;
    let realtime_factor = window_ns / detect.mean_ns;
    println!(
        "real-time factor (batch): {realtime_factor:.2}x  (window {}, ref {ref_len}, {lags} lags, 10 codes)",
        window.len()
    );
    let mut cases = vec![detect];
    cases.extend(round_loop_cases(&phy, &codes, &buf));
    for case in &cases[cases.len() - 4..] {
        println!(
            "{:24} {:>12.0} ns/op  ({} iters)",
            case.name, case.mean_ns, case.iters
        );
    }

    // Hand-rolled JSON — no serializer dependency in the bench harness.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"window_samples\": {},", window.len());
    let _ = writeln!(json, "  \"reference_len\": {ref_len},");
    let _ = writeln!(json, "  \"lags\": {lags},");
    let _ = writeln!(json, "  \"codes\": {},", codes.len());
    let _ = writeln!(json, "  \"realtime_factor_batch\": {realtime_factor:.3},");
    json.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"mean_ns_per_op\": {:.1}, \"iters\": {}}}{comma}",
            case.name, case.mean_ns, case.iters
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_user_detect.json", &json).expect("write BENCH_user_detect.json");
    println!("wrote BENCH_user_detect.json");

    write_pipeline_obs();
    write_streaming_throughput();
}

/// The per-sample loops of a round outside user detection: tag
/// transmit, mixing, frame sync and bit decoding. `codes` is the 10-code
/// family (256-sample bit windows) and `capture` holds one frame of
/// `codes[0]`, payload `0xA5 × 8`, starting at sample 400 with gain 0.01.
fn round_loop_cases(phy: &PhyProfile, codes: &[cbma::codes::PnCode], capture: &[Iq]) -> Vec<Case> {
    use cbma::channel::{Mixer, MultipathModel, TagSignal};
    use cbma::rx::{Decoder, FrameSync};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut cases = Vec::new();
    let w = codes[0].len() * phy.samples_per_chip();
    let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
    let mut envelope = Vec::new();
    cases.push(time_case(&format!("tag_transmit_w{w}"), || {
        tag.transmit_into(vec![0xA5; 8], phy, std::hint::black_box(&mut envelope))
            .unwrap()
    }));

    // The paper4 round's shape: a 4-code family, 8-byte payloads, indoor
    // multipath, sub-chip asynchrony and a ppm-scale subcarrier beat.
    let paper4 = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
    let mut fading = StdRng::seed_from_u64(4);
    let signals: Vec<TagSignal> = paper4
        .iter()
        .enumerate()
        .map(|(i, code)| {
            let mut tag = Tag::new(i as u32, Point::ORIGIN, code.clone());
            TagSignal {
                envelope: tag.transmit(vec![0x5A ^ i as u8; 8], phy).unwrap(),
                amplitude: 1e-4 * (1.0 + 0.3 * i as f64),
                phase: 0.9 * i as f64,
                taps: MultipathModel::indoor_default().realize(&mut fading),
                delay_samples: 1.7 * i as f64,
                freq_offset_rad_per_sample: 2e-5 * (i as f64 - 1.5),
            }
        })
        .collect();
    let config = ReceiverConfig::default();
    let mixer = Mixer {
        lead_in: 4 * config.energy_window,
        ..Mixer::new(phy.sample_rate)
    };
    let mut noise = StdRng::seed_from_u64(5);
    let (mut mixed, mut mix_scratch) = (Vec::new(), Vec::new());
    cases.push(time_case("mixer_combine_paper4", || {
        let capture = std::hint::black_box(&mut mixed);
        mixer.combine_into(&mut noise, &signals, capture, &mut mix_scratch)
    }));

    let paper4_capture = mixer.combine(&mut StdRng::seed_from_u64(6), &signals);
    let sync = FrameSync::paper_default(config.energy_window);
    let mut scratch = sync.scratch();
    cases.push(time_case("frame_sync_paper4", || {
        sync.best_edge_in(&paper4_capture, &mut scratch)
    }));

    let decoder = Decoder::new(&codes[0], phy);
    let gain = Iq::new(0.01, 0.0);
    assert!(decoder.decode_frame(capture, 400, gain).0.is_frame());
    cases.push(time_case(&format!("decode_frame_w{w}"), || {
        decoder.decode_frame(capture, 400, gain)
    }));
    cases
}

/// Multi-stream scheduler throughput: `BENCH_streaming.json`.
///
/// Runs the same capture mix through the streaming flowgraph on worker
/// pools of several sizes, at 1, 8 and 64 concurrent streams. Each case reports the elapsed time
/// per capture (`mean_ns_per_op`, so the bench gate's median-normalized
/// comparison applies unchanged), the aggregate real-time factor (total
/// air time represented by all streams over wall time — the headline
/// "hundreds of flowgraphs at aggregate real time" number) and captures
/// per second. Scaling-efficiency ratios divide same-run RTFs, so they
/// transfer across machines — but on an N-CPU host a pool wider than N
/// cannot scale, so `scaling_efficiency_w{W}_s64` is only recorded when
/// W ≤ N. The gate normalizes RTF keys by the run-wide machine-speed
/// factor instead of comparing them raw.
fn write_streaming_throughput() {
    use cbma::codes::GoldFamily;
    use cbma::rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
    use cbma::rx::ReceiverConfig;

    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();

    // One frame per stream, staggered leads so frames do not align.
    let capture_for = |stream: usize| -> Vec<Iq> {
        let tag_idx = stream % codes.len();
        let mut tag = Tag::new(tag_idx as u32, Point::ORIGIN, codes[tag_idx].clone());
        let env = tag
            .transmit(format!("stream {stream}").into_bytes(), &phy)
            .unwrap();
        let mut buf = vec![Iq::ZERO; 200 + 37 * (stream % 8)];
        buf.extend(
            env.iter()
                .map(|&e| Iq::from_polar(0.01 * e, 0.2 + 0.1 * tag_idx as f64)),
        );
        buf.extend(vec![Iq::ZERO; 64]);
        buf
    };

    struct StreamCase {
        name: String,
        streams: usize,
        workers: usize,
        mean_ns_per_op: f64,
        aggregate_rtf: f64,
        captures_per_sec: f64,
        iters: u64,
    }

    let mut cases: Vec<StreamCase> = Vec::new();
    // (streams, pool workers)
    let sweeps: &[(usize, usize)] = &[(1, 1), (8, 1), (8, 2), (64, 1), (64, 2), (64, 4)];
    for &(streams, workers) in sweeps {
        let captures: Vec<Vec<Iq>> = (0..streams).map(capture_for).collect();
        let air_ns: f64 = captures
            .iter()
            .map(|c| c.len() as f64 / phy.sample_rate.get() * 1e9)
            .sum();
        let runtime = RuntimeConfig {
            ring_capacity: 2,
            scheduler: Scheduler::WorkStealing {
                workers,
                pin: false,
            },
            ..RuntimeConfig::default()
        };
        // Min-of-3 for the same run-to-run stability argument as
        // `time_case`; each rep rebuilds the flowgraph so no warm
        // receivers carry over.
        let mut elapsed_ns = f64::INFINITY;
        for _ in 0..3 {
            let mut flow = RxFlowgraph::new(codes.clone(), phy, ReceiverConfig::default(), runtime);
            let mut source = CaptureSource::default();
            for (stream, cap) in captures.iter().enumerate() {
                source.push(stream, cap.clone());
            }
            let t = Instant::now();
            let output = flow.run(source).expect("bench run");
            let ns = t.elapsed().as_nanos() as f64;
            assert_eq!(output.results.len(), streams, "bench dropped a capture");
            elapsed_ns = elapsed_ns.min(ns);
        }
        let case = StreamCase {
            name: format!("streaming_worksteal_w{workers}_s{streams}"),
            streams,
            workers,
            mean_ns_per_op: elapsed_ns / streams as f64,
            aggregate_rtf: air_ns / elapsed_ns,
            captures_per_sec: streams as f64 / (elapsed_ns / 1e9),
            iters: 3,
        };
        println!(
            "{:32} {:>12.0} ns/capture   aggregate RTF {:>6.2}x",
            case.name, case.mean_ns_per_op, case.aggregate_rtf
        );
        cases.push(case);
    }

    let rtf = |name: &str| -> f64 {
        cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.aggregate_rtf)
            .unwrap_or(f64::NAN)
    };
    // Same-run ratio (machine-independent): how the pool scales with
    // workers at 64 streams. A pool wider than the host's CPU count can
    // only time-slice (efficiency ≈ 1/workers), so those widths are not
    // recorded at all.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"aggregate_rtf_worksteal_w2_s64\": {:.3},",
        rtf("streaming_worksteal_w2_s64")
    );
    for workers in [2usize, 4] {
        if workers > cpus {
            println!("streaming scaling at 64 streams: w{workers} skipped ({cpus} CPUs)");
            continue;
        }
        let eff = rtf(&format!("streaming_worksteal_w{workers}_s64"))
            / (workers as f64 * rtf("streaming_worksteal_w1_s64"));
        println!("streaming scaling at 64 streams: w{workers} efficiency {eff:.2} ({cpus} CPUs)");
        let _ = writeln!(json, "  \"scaling_efficiency_w{workers}_s64\": {eff:.3},");
    }
    json.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"mean_ns_per_op\": {:.1}, \"iters\": {}, \
             \"streams\": {}, \"scheduler\": \"worksteal:{}\", \"aggregate_rtf\": {:.3}, \
             \"captures_per_sec\": {:.1}}}{comma}",
            case.name,
            case.mean_ns_per_op,
            case.iters,
            case.streams,
            case.workers,
            case.aggregate_rtf,
            case.captures_per_sec
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json ({} cases)", cases.len());
}

/// The 4-tag paper-default deployment both observability benches run.
fn obs_scenario() -> Scenario {
    Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(7)
}

/// One timed pass of `rounds` under an observability configuration.
/// Rounds are stateful, so every pass rebuilds the engine from the same
/// seed. Callers interleave passes across configurations and keep the
/// per-config minimum, so slow phases (frequency ramps, preemption) hit
/// every configuration instead of biasing whichever ran first.
fn obs_ns_per_round_once(rounds: usize, setup: impl Fn(&mut Engine)) -> f64 {
    let mut engine = Engine::new(obs_scenario()).expect("paper-default scenario is valid");
    setup(&mut engine);
    let t = Instant::now();
    std::hint::black_box(engine.run_rounds(rounds));
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// Runs a short paper-default deployment with a metrics registry attached
/// and exports the snapshot as `BENCH_pipeline_obs.json`: per-stage timing
/// histograms (`cbma.rx.stage.*`, `cbma.sim.round_ns`), domain counters,
/// the per-round delivery sizes from the returned outcomes and an
/// observability-overhead A/B, so CI can diff pipeline behaviour — not
/// just speed.
fn write_pipeline_obs() {
    use cbma::obs::{MetricsRegistry, Tracer};

    const ROUNDS: usize = 32;

    let registry = MetricsRegistry::new();
    let mut engine = Engine::new(obs_scenario()).expect("paper-default scenario is valid");
    engine.attach_observability(&registry);
    let mut stats = RunStats::new(engine.tags().len());
    let mut delivered_per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let outcome = engine.run_round();
        stats.record(&outcome);
        delivered_per_round.push(outcome.delivered.len());
    }

    let snapshot = registry.snapshot();
    let metrics_json = snapshot.to_json();
    // The artifact must survive a parse — fail the bench run loudly if the
    // exporter ever regresses.
    let reparsed =
        cbma::obs::Snapshot::from_json(&metrics_json).expect("snapshot JSON must round-trip");
    assert_eq!(reparsed, snapshot, "snapshot JSON round-trip drifted");

    // Observability overhead A/B over the identical deployment: detached
    // vs an attached registry vs full recording (registry + span tracer).
    // The ratios land in the artifact for trend-watching, not as a gate.
    const OVERHEAD_ROUNDS: usize = 24;
    let mut detached_ns = f64::INFINITY;
    let mut registry_ns = f64::INFINITY;
    let mut recording_ns = f64::INFINITY;
    for _ in 0..3 {
        detached_ns = detached_ns.min(obs_ns_per_round_once(OVERHEAD_ROUNDS, |_| {}));
        registry_ns = registry_ns.min(obs_ns_per_round_once(OVERHEAD_ROUNDS, |engine| {
            engine.attach_observability(&MetricsRegistry::new());
        }));
        recording_ns = recording_ns.min(obs_ns_per_round_once(OVERHEAD_ROUNDS, |engine| {
            engine.attach_observability(&MetricsRegistry::new());
            engine.attach_tracer(&Tracer::new(1 << 16));
        }));
    }
    println!(
        "obs overhead: detached {detached_ns:.0} ns/round, registry {registry_ns:.0} ns/round \
({:.3}x), recording {recording_ns:.0} ns/round ({:.3}x)",
        registry_ns / detached_ns,
        recording_ns / detached_ns
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"tags\": 4,");
    let _ = writeln!(json, "  \"fer\": {:.4},", stats.fer());
    let _ = writeln!(json, "  \"metric_count\": {},", snapshot.metric_count());
    let _ = writeln!(
        json,
        "  \"delivered_per_round\": {:?},",
        delivered_per_round
    );
    json.push_str("  \"obs_overhead\": {\n");
    let _ = writeln!(json, "    \"rounds\": {OVERHEAD_ROUNDS},");
    let _ = writeln!(json, "    \"detached_ns_per_round\": {detached_ns:.1},");
    let _ = writeln!(json, "    \"registry_ns_per_round\": {registry_ns:.1},");
    let _ = writeln!(json, "    \"recording_ns_per_round\": {recording_ns:.1},");
    let _ = writeln!(
        json,
        "    \"registry_over_detached\": {:.4},",
        registry_ns / detached_ns
    );
    let _ = writeln!(
        json,
        "    \"recording_over_detached\": {:.4}",
        recording_ns / detached_ns
    );
    json.push_str("  },\n");
    // The full metrics snapshot, re-indented two levels into the artifact.
    json.push_str("  \"metrics\": ");
    for (i, line) in metrics_json.lines().enumerate() {
        if i > 0 {
            json.push_str("\n  ");
        }
        json.push_str(line);
    }
    json.push_str("\n}\n");
    std::fs::write("BENCH_pipeline_obs.json", &json).expect("write BENCH_pipeline_obs.json");
    println!(
        "wrote BENCH_pipeline_obs.json ({} metrics, FER {:.2}%)",
        snapshot.metric_count(),
        stats.fer() * 100.0
    );
}
