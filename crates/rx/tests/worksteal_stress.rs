//! Seeded stress tests for the worker pool.
//!
//! Loom/shuttle-style exhaustive interleaving exploration is not
//! available offline, so these tests do the next-best thing: a fixed
//! seed drives both the capture mix and a jittered sink, perturbing the
//! pool's timing run-to-run-deterministically while the decisions are
//! compared against `Receiver::receive` on each stream's captures in
//! order. CI runs this suite with `--test-threads=1` so the jitter
//! exercises the pool rather than fighting sibling tests for cores.

use std::time::Duration;

use cbma_codes::{CodeFamily, GoldFamily, PnCode};
use cbma_obs::Tracer;
use cbma_rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
use cbma_rx::{Receiver, ReceiverConfig, RxReport};
use cbma_tag::phy::PhyProfile;
use cbma_tag::Tag;
use cbma_types::geometry::Point;
use cbma_types::Iq;

/// Deterministic PRNG (xorshift64*) so every run sees the same "random"
/// capture mix and sink jitter.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn tag_capture(codes: &[PnCode], phy: &PhyProfile, tag_idx: usize, lead: usize) -> Vec<Iq> {
    let mut tag = Tag::new(tag_idx as u32, Point::ORIGIN, codes[tag_idx].clone());
    let env = tag
        .transmit(format!("stress payload {tag_idx}").into_bytes(), phy)
        .unwrap();
    let mut buf = vec![Iq::ZERO; lead];
    buf.extend(
        env.iter()
            .map(|&e| Iq::from_polar(0.01 * e, 0.25 + 0.15 * tag_idx as f64)),
    );
    buf.extend(vec![Iq::ZERO; 48]);
    buf
}

/// A seeded mix of frames, silence, ripple and degenerate captures,
/// spread round-robin-ish over `streams` streams.
fn stress_captures(
    seed: u64,
    streams: usize,
    per_stream: usize,
    codes: &[PnCode],
    phy: &PhyProfile,
) -> Vec<Vec<Vec<Iq>>> {
    let mut rng = Rng(seed | 1);
    (0..streams)
        .map(|_| {
            (0..per_stream)
                .map(|_| match rng.below(5) {
                    0 => vec![Iq::ZERO; 600 + rng.below(1200) as usize],
                    1 => (0..900 + rng.below(600))
                        .map(|i| Iq::new(1e-6 * (i as f64 * 0.31).sin(), 0.0))
                        .collect(),
                    2 => vec![Iq::ZERO; rng.below(50) as usize],
                    _ => {
                        let tag = rng.below(codes.len() as u64) as usize;
                        let lead = 200 + rng.below(400) as usize;
                        tag_capture(codes, phy, tag, lead)
                    }
                })
                .collect()
        })
        .collect()
}

fn source_for(per_stream: &[Vec<Vec<Iq>>]) -> CaptureSource {
    let mut source = CaptureSource::default();
    for (stream, caps) in per_stream.iter().enumerate() {
        for cap in caps {
            source.push(stream, cap.clone());
        }
    }
    source
}

/// A pool of `workers` threads with `ring_capacity` captures per stream
/// in flight.
fn pool(workers: usize, ring_capacity: usize) -> RuntimeConfig {
    RuntimeConfig {
        ring_capacity,
        scheduler: Scheduler::WorkStealing {
            workers,
            pin: false,
        },
        ..RuntimeConfig::default()
    }
}

/// Per-stream reports of one monolithic receiver over each stream's
/// captures in order.
fn monolithic(per_stream: &[Vec<Vec<Iq>>]) -> Vec<Vec<RxReport>> {
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let mut rx = Receiver::new(
        codes,
        PhyProfile::paper_default(),
        ReceiverConfig::default(),
    );
    per_stream
        .iter()
        .map(|caps| caps.iter().map(|c| rx.receive(c)).collect())
        .collect()
}

/// Per-stream decision sequences on the pool, with an optionally
/// jittered sink.
fn decisions(
    per_stream: &[Vec<Vec<Iq>>],
    runtime: RuntimeConfig,
    mut jitter: Option<Rng>,
) -> Vec<Vec<RxReport>> {
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let mut flow = RxFlowgraph::new(codes, phy, ReceiverConfig::default(), runtime);
    let source = source_for(per_stream);
    let mut got: Vec<Vec<RxReport>> = vec![Vec::new(); per_stream.len()];
    let mut next_seq = vec![0u64; per_stream.len()];
    flow.run_with_sink(source, |result| {
        if let Some(rng) = jitter.as_mut() {
            std::thread::sleep(Duration::from_micros(rng.below(1500)));
        }
        assert_eq!(result.seq, next_seq[result.stream], "in-order emission");
        next_seq[result.stream] += 1;
        got[result.stream].push(result.report);
    })
    .unwrap();
    got
}

#[test]
fn jittered_sink_decisions_match_monolithic_receive() {
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let per_stream = stress_captures(0x5EED_CB3A, 3, 6, &codes, &phy);
    let expected = monolithic(&per_stream);
    for workers in [2usize, 4] {
        let got = decisions(
            &per_stream,
            pool(workers, 2),
            Some(Rng(0xA5A5_0000 + workers as u64)),
        );
        assert_eq!(
            got, expected,
            "workers={workers} diverged from Receiver::receive"
        );
    }
}

#[test]
fn capacity_one_parks_idle_workers_on_the_condvar() {
    // The tightest configuration: one capture in flight per stream, so
    // two streams keep at most two of the four workers busy and the rest
    // sleep on the capture queue's condvar. Decisions must still match
    // `Receiver::receive`, and the run must actually have exercised the
    // parking path.
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let per_stream = stress_captures(0xC0FFEE, 2, 4, &codes, &phy);
    let expected = monolithic(&per_stream);

    let mut flow = RxFlowgraph::new(codes, phy, ReceiverConfig::default(), pool(4, 1));
    let source = source_for(&per_stream);
    let mut got: Vec<Vec<RxReport>> = vec![Vec::new(); per_stream.len()];
    let mut rng = Rng(0x0BAD_5EED);
    let stats = flow
        .run_with_sink(source, |result| {
            // A sink stall long enough to drain the queue idles the whole
            // pool, so workers genuinely park rather than find more work.
            std::thread::sleep(Duration::from_micros(500 + rng.below(2000)));
            got[result.stream].push(result.report);
        })
        .unwrap();
    assert_eq!(
        got, expected,
        "capacity-1 pool diverged from Receiver::receive"
    );
    assert!(stats.parks > 0, "no worker ever parked: {stats:?}");
    assert_eq!(stats.captures, 8);
    // Every capture came off the shared queue.
    assert_eq!(stats.steals, 8, "{stats:?}");
}

#[test]
fn worker_spans_nest_stage_runs_under_the_flowgraph_root() {
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let per_stream = stress_captures(0x7ACE, 2, 3, &codes, &phy);
    let tracer = Tracer::new(8192);
    let mut flow = RxFlowgraph::new(codes, phy, ReceiverConfig::default(), pool(2, 2));
    flow.attach_tracer(&tracer);
    let source = source_for(&per_stream);
    flow.run(source).unwrap();

    let spans = tracer.spans();
    assert_eq!(tracer.dropped(), 0, "trace buffer too small for the test");
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "flowgraph").collect();
    assert_eq!(roots.len(), 1, "exactly one flowgraph root span");
    let root = roots[0].span;

    let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
    assert_eq!(workers.len(), 2, "one span per worker");
    let mut ids: Vec<u64> = workers.iter().map(|w| w.arg.unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1], "worker spans carry the worker index");
    for w in &workers {
        assert_eq!(w.parent, root, "worker spans nest under the flowgraph");
    }

    let worker_ids: Vec<u64> = workers.iter().map(|w| w.span).collect();
    let stage_runs: Vec<_> = spans.iter().filter(|s| s.name == "stage_run").collect();
    assert!(
        !stage_runs.is_empty(),
        "captures must produce stage_run spans"
    );
    for s in &stage_runs {
        assert!(
            worker_ids.contains(&s.parent),
            "stage_run span parented outside the worker set: {s:?}"
        );
    }
    // The export is valid Chrome trace JSON (the CI artifact).
    let json = tracer.chrome_trace(None);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("worker"));
}
