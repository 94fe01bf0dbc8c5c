//! Failure-path tests for the streaming runtime: a panicking receive must
//! tear the flowgraph down with a clean, named error (never a hang), a
//! stalled sink must translate into bounded backpressure (never
//! unbounded buffering), and an uneventful run must drain every capture
//! deterministically.

use std::time::{Duration, Instant};

use cbma_codes::{CodeFamily, GoldFamily, PnCode};
use cbma_rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
use cbma_rx::ReceiverConfig;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

fn codes() -> Vec<PnCode> {
    GoldFamily::new(5).unwrap().codes(2).unwrap()
}

fn flowgraph(scheduler: Scheduler) -> RxFlowgraph {
    let runtime = RuntimeConfig {
        block_size: 512,
        ring_capacity: 2,
        scheduler,
    };
    RxFlowgraph::new(
        codes(),
        PhyProfile::paper_default(),
        ReceiverConfig::default(),
        runtime,
    )
}

fn silence_captures(n: usize) -> Vec<Vec<Iq>> {
    (0..n).map(|_| vec![Iq::ZERO; 1500]).collect()
}

#[test]
fn a_panicking_receive_fails_the_run_with_its_name() {
    // A receive panicking on the first, a middle and the last capture,
    // under pools of several sizes: the run must return (no hang — a
    // worker pool with parked idle workers must wake them for teardown)
    // with an error naming the receive and carrying the panic payload,
    // and the already-buffered blocks must not deadlock the teardown.
    let schedulers = [
        Scheduler::WorkStealing { workers: 1, pin: false },
        Scheduler::WorkStealing { workers: 2, pin: false },
        Scheduler::WorkStealing { workers: 4, pin: false },
    ];
    for scheduler in schedulers {
        for seq in [0, 2, 5] {
            let mut flow = flowgraph(scheduler);
            flow.inject_panic(seq);
            let source = CaptureSource::single_stream(512, silence_captures(6));
            let started = Instant::now();
            let err = flow.run(source).expect_err("injected panic must surface");
            let payload = format!("injected fault: receive at capture {seq}");
            assert!(
                err.message.contains("receive panicked"),
                "{scheduler:?} capture {seq}: error {:?} does not name the receive",
                err.message
            );
            assert!(
                err.message.contains(&payload),
                "{scheduler:?} capture {seq}: error {:?} lost the panic payload",
                err.message
            );
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{scheduler:?} capture {seq}: teardown took implausibly long"
            );
        }
    }
}

#[test]
fn inline_scheduler_propagates_the_panic() {
    // Inline runs on the caller's thread; the panic is the caller's to
    // observe directly rather than a FlowgraphError.
    let result = std::panic::catch_unwind(move || {
        let mut flow = flowgraph(Scheduler::Inline);
        flow.inject_panic(1);
        let source = CaptureSource::single_stream(512, silence_captures(3));
        flow.run(source)
    });
    let payload = result.expect_err("inline panics propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("receive at capture 1"), "payload {msg:?}");
}

#[test]
fn a_failed_flowgraph_can_run_again() {
    // Injected faults are armed for exactly one run: after the failed
    // run, the *same* flowgraph drains normally, proving teardown left
    // no stuck workers or stale sync state behind.
    let schedulers = [
        Scheduler::WorkStealing { workers: 1, pin: false },
        Scheduler::WorkStealing { workers: 2, pin: false },
    ];
    for scheduler in schedulers {
        let mut flow = flowgraph(scheduler);
        flow.inject_panic(0);
        let source = CaptureSource::single_stream(512, silence_captures(2));
        flow.run(source)
            .expect_err(&format!("{scheduler:?}: first run fails"));

        let source = CaptureSource::single_stream(512, silence_captures(2));
        let output = flow
            .run(source)
            .unwrap_or_else(|e| panic!("{scheduler:?}: rerun after failure: {e}"));
        assert_eq!(output.results.len(), 2, "{scheduler:?}");
    }

    // Inline: the panic unwinds out of the first run mid-capture (after
    // the capture's blocks were reassembled); the rerun must not see that
    // capture's leftover partial samples.
    let mut flow = flowgraph(Scheduler::Inline);
    flow.inject_panic(1);
    let source = CaptureSource::single_stream(512, silence_captures(2));
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| flow.run(source)));
    assert!(first.is_err(), "inline: first run panics");
    let source = CaptureSource::single_stream(512, silence_captures(2));
    let output = flow.run(source).expect("inline: rerun after failure");
    assert_eq!(output.results.len(), 2);
    assert_eq!(output.stats.captures, 2);
}

#[test]
fn a_stalled_sink_applies_backpressure_not_buffering() {
    // The sink sleeps on every result. The source would love to race
    // ahead, but each ring holds at most `ring_capacity` entries, so
    // total in-flight work stays bounded no matter how slow the
    // downstream is — that is the whole point of bounded rings. Under
    // work-stealing the stall additionally must not *block* a worker:
    // the stream's task just goes unready until the sink drains.
    let schedulers = [
        Scheduler::WorkStealing { workers: 1, pin: false },
        Scheduler::WorkStealing { workers: 2, pin: false },
    ];
    for scheduler in schedulers {
        let captures = 8;
        let mut flow = flowgraph(scheduler);
        let source = CaptureSource::single_stream(512, silence_captures(captures));
        let mut seen = Vec::new();
        let stats = flow
            .run_with_sink(source, |result| {
                std::thread::sleep(Duration::from_millis(15));
                seen.push(result.seq);
            })
            .expect("stalled sink is slow, not broken");
        assert_eq!(seen, (0..captures as u64).collect::<Vec<_>>(), "{scheduler:?}");
        assert_eq!(stats.captures, captures as u64, "{scheduler:?}");
        let capacity = flow.runtime_config().ring_capacity;
        assert_eq!(stats.ring_max_depth.len(), 2, "{scheduler:?}");
        for (i, &depth) in stats.ring_max_depth.iter().enumerate() {
            assert!(
                depth <= capacity,
                "{scheduler:?}: ring {i} reached depth {depth} > capacity {capacity}"
            );
        }
        // Backpressure reached all the way upstream: with a stalled sink
        // the rings actually fill.
        assert!(
            stats.ring_max_depth.iter().any(|&d| d > 0),
            "{scheduler:?}: no ring ever held an item: {:?}",
            stats.ring_max_depth
        );
    }
}

#[test]
fn shutdown_drains_every_capture_in_order() {
    // An uneventful run is a clean shutdown: every capture's result
    // arrives exactly once, in submission order, and the block count
    // matches the source's chopping.
    let captures = silence_captures(5);
    let blocks_expected: u64 = captures
        .iter()
        .map(|c| c.len().div_ceil(512) as u64)
        .sum();
    let schedulers = [
        Scheduler::Inline,
        Scheduler::WorkStealing { workers: 1, pin: false },
        Scheduler::WorkStealing { workers: 2, pin: false },
    ];
    for scheduler in schedulers {
        let mut flow = flowgraph(scheduler);
        let source = CaptureSource::single_stream(512, captures.clone());
        let output = flow.run(source).unwrap();
        let seqs: Vec<u64> = output.results.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..5).collect::<Vec<_>>(), "{scheduler:?}");
        assert_eq!(output.stats.captures, 5, "{scheduler:?}");
        assert_eq!(output.stats.blocks, blocks_expected, "{scheduler:?}");
    }
}
