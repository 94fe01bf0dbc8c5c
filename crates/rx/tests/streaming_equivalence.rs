//! Block-boundary equivalence of the streaming runtime and the
//! monolithic receiver.
//!
//! The streaming flowgraph must be a pure re-plumbing of
//! `Receiver::receive`: it reassembles each capture from its blocks and
//! decides it with that same call. So for *every* block size — one
//! sample, a prime, a power of two, the whole capture — and for *every*
//! scheduler, the decisions must be identical: frame detection, detected
//! users, start offsets, decoded payload bytes, SIC recoveries, the ACK.
//! `RxReport`'s equality deliberately skips wall-clock fields, so
//! whole-report `==` is exactly the decision-level comparison.

use std::collections::VecDeque;

use cbma_codes::{CodeFamily, GoldFamily, PnCode};
use cbma_rx::runtime::{
    CaptureSource, RuntimeConfig, RxFlowgraph, SampleSource, Scheduler, SourceBlock,
};
use cbma_rx::{Receiver, ReceiverConfig, RxReport};
use cbma_tag::phy::PhyProfile;
use cbma_tag::Tag;
use cbma_types::geometry::Point;
use cbma_types::Iq;

/// A lead of silence, one tag's frame at a phase rotation, trailing pad.
fn capture_for(codes: &[PnCode], phy: &PhyProfile, tag_idx: usize, lead: usize) -> Vec<Iq> {
    let mut tag = Tag::new(tag_idx as u32, Point::ORIGIN, codes[tag_idx].clone());
    let env = tag
        .transmit(format!("streaming payload {tag_idx}").into_bytes(), phy)
        .unwrap();
    let mut buf = vec![Iq::ZERO; lead];
    buf.extend(
        env.iter()
            .map(|&e| Iq::from_polar(0.01 * e, 0.3 + 0.2 * tag_idx as f64)),
    );
    buf.extend(vec![Iq::ZERO; 64]);
    buf
}

/// Two tags superposed in one capture (a collision round), with the
/// second attenuated so SIC has something to recover when enabled.
fn collision_capture(codes: &[PnCode], phy: &PhyProfile) -> Vec<Iq> {
    let a = capture_for(codes, phy, 0, 400);
    let b: Vec<Iq> = capture_for(codes, phy, 1, 400)
        .into_iter()
        .map(|s| s * 0.35)
        .collect();
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| a.get(i).copied().unwrap_or(Iq::ZERO) + b.get(i).copied().unwrap_or(Iq::ZERO))
        .collect()
}

/// The shared capture set: single-tag frames at different leads, a
/// collision, pure silence, sub-threshold ripple, a capture too short to
/// hold a reference window, and an empty capture.
fn capture_set(codes: &[PnCode], phy: &PhyProfile) -> Vec<Vec<Iq>> {
    vec![
        capture_for(codes, phy, 0, 300),
        collision_capture(codes, phy),
        vec![Iq::ZERO; 2000],
        capture_for(codes, phy, 2, 420),
        (0..2400)
            .map(|i| Iq::new(1e-6 * (1.0 + 0.05 * (i as f64 * 0.37).sin()), 0.0))
            .collect(),
        vec![Iq::ZERO; 40],
        Vec::new(),
        capture_for(codes, phy, 1, 356),
    ]
}

/// Round-robins single blocks across streams: the block-level
/// interleaving the `SampleSource` contract allows but `CaptureSource`
/// (which emits each capture's blocks back to back) never produces.
struct BlockInterleaved {
    streams: Vec<VecDeque<SourceBlock>>,
    next: usize,
}

impl BlockInterleaved {
    fn new(block_size: usize, per_stream: &[Vec<Vec<Iq>>]) -> BlockInterleaved {
        let streams = per_stream
            .iter()
            .enumerate()
            .map(|(stream, caps)| {
                let mut src = CaptureSource::new(block_size);
                for cap in caps {
                    src.push(stream, cap.clone());
                }
                std::iter::from_fn(|| src.next_block()).collect()
            })
            .collect();
        BlockInterleaved { streams, next: 0 }
    }
}

impl SampleSource for BlockInterleaved {
    fn streams(&self) -> usize {
        self.streams.len()
    }

    fn next_block(&mut self) -> Option<SourceBlock> {
        for _ in 0..self.streams.len() {
            let s = self.next;
            self.next = (s + 1) % self.streams.len();
            if let Some(block) = self.streams[s].pop_front() {
                return Some(block);
            }
        }
        None
    }
}

fn monolithic_reports(
    codes: &[PnCode],
    phy: PhyProfile,
    config: ReceiverConfig,
    captures: &[Vec<Iq>],
) -> Vec<RxReport> {
    let mut rx = Receiver::new(codes.to_vec(), phy, config);
    captures.iter().map(|c| rx.receive(c)).collect()
}

fn assert_streaming_matches(config: ReceiverConfig, label: &str) {
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let captures = capture_set(&codes, &phy);
    let expected = monolithic_reports(&codes, phy, config, &captures);
    let whole: usize = captures.iter().map(Vec::len).max().unwrap();

    let schedulers = [
        Scheduler::Inline,
        // Work-stealing at a degenerate pool, a small pool, a pool wider
        // than the stream count, and auto-sized (one worker per CPU).
        Scheduler::WorkStealing {
            workers: 1,
            pin: false,
        },
        Scheduler::WorkStealing {
            workers: 2,
            pin: false,
        },
        Scheduler::WorkStealing {
            workers: 4,
            pin: false,
        },
        Scheduler::WorkStealing {
            workers: 0,
            pin: false,
        },
    ];
    for scheduler in schedulers {
        for block_size in [1usize, 257, 1024, whole] {
            let runtime = RuntimeConfig {
                block_size,
                ring_capacity: 2,
                scheduler,
            };
            let mut flow = RxFlowgraph::new(codes.clone(), phy, config, runtime);
            let source = CaptureSource::single_stream(block_size, captures.clone());
            let output = flow
                .run(source)
                .unwrap_or_else(|e| panic!("{label} {scheduler:?} block={block_size}: {e}"));
            assert_eq!(output.results.len(), expected.len());
            for (i, (result, want)) in output.results.iter().zip(&expected).enumerate() {
                assert_eq!(result.stream, 0);
                assert_eq!(result.seq, i as u64);
                assert_eq!(
                    result.report, *want,
                    "{label} {scheduler:?} block={block_size}: capture {i} diverged"
                );
            }
        }
    }
}

#[test]
fn streaming_decisions_match_monolithic_receive() {
    assert_streaming_matches(ReceiverConfig::default(), "default");
}

#[test]
fn streaming_decisions_match_with_sic_enabled() {
    let config = ReceiverConfig {
        sic_passes: 2,
        ..ReceiverConfig::default()
    };
    assert_streaming_matches(config, "sic");
}

#[test]
fn multi_stream_interleaving_preserves_per_stream_order_and_decisions() {
    // Blocks of different streams interleave through the flowgraph —
    // into per-stream partial captures on the caller's thread, then
    // decided inline or through the pool's shared queue; each stream's
    // captures must still come out in seq order with the same decisions
    // as a dedicated monolithic receiver per stream.
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let config = ReceiverConfig::default();
    let per_stream: Vec<Vec<Vec<Iq>>> = vec![
        vec![
            capture_for(&codes, &phy, 0, 300),
            vec![Iq::ZERO; 1500],
            capture_for(&codes, &phy, 1, 410),
        ],
        vec![
            collision_capture(&codes, &phy),
            capture_for(&codes, &phy, 2, 350),
        ],
    ];
    let expected: Vec<Vec<RxReport>> = per_stream
        .iter()
        .map(|caps| monolithic_reports(&codes, phy, config, caps))
        .collect();

    let schedulers = [
        Scheduler::Inline,
        Scheduler::WorkStealing {
            workers: 1,
            pin: false,
        },
        Scheduler::WorkStealing {
            workers: 3,
            pin: false,
        },
    ];
    for scheduler in schedulers {
        let source = BlockInterleaved::new(389, &per_stream);
        let runtime = RuntimeConfig {
            block_size: 389,
            ring_capacity: 2,
            scheduler,
        };
        let mut flow = RxFlowgraph::new(codes.clone(), phy, config, runtime);
        let output = flow.run(source).unwrap();

        let mut got: Vec<Vec<RxReport>> = vec![Vec::new(); per_stream.len()];
        let mut next_seq = vec![0u64; per_stream.len()];
        for result in output.results {
            assert_eq!(
                result.seq, next_seq[result.stream],
                "{scheduler:?}: in-order emission"
            );
            next_seq[result.stream] += 1;
            got[result.stream].push(result.report);
        }
        assert_eq!(got, expected, "{scheduler:?}");
    }
}

#[test]
fn pinned_workers_match_unpinned_decisions() {
    // CPU affinity is a placement hint; it must never change a decision.
    // (On machines with fewer CPUs than workers the pin silently wraps —
    // also decision-neutral.)
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let config = ReceiverConfig::default();
    let captures = capture_set(&codes, &phy);

    let mut reports = Vec::new();
    for pin in [false, true] {
        let runtime = RuntimeConfig {
            block_size: 701,
            ring_capacity: 2,
            scheduler: Scheduler::WorkStealing { workers: 2, pin },
        };
        let mut flow = RxFlowgraph::new(codes.clone(), phy, config, runtime);
        let source = CaptureSource::single_stream(701, captures.clone());
        let output = flow.run(source).unwrap();
        reports.push(
            output
                .results
                .into_iter()
                .map(|r| (r.stream, r.seq, r.report))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(reports[0], reports[1], "pin changed a decision");
}

#[test]
fn flowgraph_reuse_across_runs_matches_fresh_state() {
    // A second `run` on the same flowgraph must see no leftover state
    // from the first (sync streams, correlator carry, candidate lists).
    let phy = PhyProfile::paper_default();
    let codes = GoldFamily::new(5).unwrap().codes(3).unwrap();
    let config = ReceiverConfig::default();
    let captures = capture_set(&codes, &phy);
    let expected = monolithic_reports(&codes, phy, config, &captures);

    let runtime = RuntimeConfig {
        block_size: 512,
        ring_capacity: 2,
        scheduler: Scheduler::Inline,
    };
    let mut flow = RxFlowgraph::new(codes, phy, config, runtime);
    for pass in 0..2 {
        let source = CaptureSource::single_stream(512, captures.clone());
        let output = flow.run(source).unwrap();
        let got: Vec<RxReport> = output.results.into_iter().map(|r| r.report).collect();
        assert_eq!(got, expected, "pass {pass}");
    }
}
