//! Failure-path tests for the streaming runtime: a panicking receive must
//! tear the flowgraph down with a clean, named error (never a hang), a
//! panicking sink must reach the caller (never a hang), a stalled sink
//! must translate into bounded backpressure (never unbounded buffering),
//! a source that under-reports its streams must still drain, and an
//! uneventful run must drain every capture deterministically.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cbma_codes::{CodeFamily, GoldFamily, PnCode};
use cbma_rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, SampleSource, Scheduler};
use cbma_rx::ReceiverConfig;
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

fn codes() -> Vec<PnCode> {
    GoldFamily::new(5).unwrap().codes(2).unwrap()
}

/// A flowgraph on a pool of `workers` threads, two captures per stream in
/// flight.
fn flowgraph(workers: usize) -> RxFlowgraph {
    let runtime = RuntimeConfig {
        ring_capacity: 2,
        scheduler: Scheduler::WorkStealing {
            workers,
            pin: false,
        },
        ..RuntimeConfig::default()
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

/// Counts the captures the wrapped source has handed over, so a sink can
/// see how far ahead the source ran.
struct Counting<S> {
    inner: S,
    completed: Arc<AtomicU64>,
}

impl<S: SampleSource> SampleSource for Counting<S> {
    fn streams(&self) -> usize {
        self.inner.streams()
    }

    fn next_capture(&mut self) -> Option<(usize, Vec<Iq>)> {
        let capture = self.inner.next_capture()?;
        self.completed.fetch_add(1, Ordering::SeqCst);
        Some(capture)
    }
}

#[test]
fn a_panicking_receive_fails_the_run_with_its_name() {
    // A receive panicking on the first, a middle and the last capture,
    // under pools of several sizes: the run must return (no hang — a
    // worker pool with parked idle workers must wake them for teardown)
    // with an error naming the receive and carrying the panic payload,
    // and the already-queued captures must not deadlock the teardown.
    for workers in [1, 2, 4] {
        for seq in [0, 2, 5] {
            let mut flow = flowgraph(workers);
            flow.inject_panic(seq);
            let source = CaptureSource::single_stream(silence_captures(6));
            let started = Instant::now();
            let err = flow.run(source).expect_err("injected panic must surface");
            let payload = format!("injected fault: receive at capture {seq}");
            assert!(
                err.message.contains("receive panicked"),
                "workers={workers} capture {seq}: error {:?} does not name the receive",
                err.message
            );
            assert!(
                err.message.contains(&payload),
                "workers={workers} capture {seq}: error {:?} lost the panic payload",
                err.message
            );
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "workers={workers} capture {seq}: teardown took implausibly long"
            );
        }
    }
}

#[test]
fn a_failed_flowgraph_can_run_again() {
    // Injected faults are armed for exactly one run: after the failed
    // run, the *same* flowgraph drains normally, proving teardown left
    // no stuck workers behind.
    for workers in [1, 2] {
        let mut flow = flowgraph(workers);
        flow.inject_panic(0);
        let source = CaptureSource::single_stream(silence_captures(2));
        flow.run(source)
            .expect_err(&format!("workers={workers}: first run fails"));

        let source = CaptureSource::single_stream(silence_captures(2));
        let output = flow
            .run(source)
            .unwrap_or_else(|e| panic!("workers={workers}: rerun after failure: {e}"));
        assert_eq!(output.results.len(), 2, "workers={workers}");
        assert_eq!(output.stats.captures, 2, "workers={workers}");
    }
}

#[test]
fn a_stalled_sink_applies_backpressure_not_buffering() {
    // The sink sleeps on every result. The source would love to race
    // ahead, but the pool holds at most `ring_capacity × streams`
    // captures between source and sink, so total in-flight work stays
    // bounded no matter how slow the downstream is. The stall must not
    // *block* a worker either: the workers just find the queue empty and
    // park until the driver queues more.
    for workers in [1, 2] {
        let captures = 8;
        let mut flow = flowgraph(workers);
        let completed = Arc::new(AtomicU64::new(0));
        let source = Counting {
            inner: CaptureSource::single_stream(silence_captures(captures)),
            completed: Arc::clone(&completed),
        };
        let bound = flow.runtime_config().ring_capacity; // × 1 stream
        let mut seen = Vec::new();
        let stats = flow
            .run_with_sink(source, |result| {
                // Everything the source has handed over and the sink has
                // not yet seen is in flight.
                let pulled = completed.load(Ordering::SeqCst);
                assert!(
                    pulled <= result.seq + bound as u64,
                    "workers={workers}: source ran {pulled} captures ahead of a sink at seq {}",
                    result.seq
                );
                std::thread::sleep(Duration::from_millis(15));
                seen.push(result.seq);
            })
            .expect("stalled sink is slow, not broken");
        assert_eq!(
            seen,
            (0..captures as u64).collect::<Vec<_>>(),
            "workers={workers}"
        );
        assert_eq!(stats.captures, captures as u64, "workers={workers}");
        // Two high-water marks: the capture queue and the reorder buffer.
        assert_eq!(stats.ring_max_depth.len(), 2, "workers={workers}");
        for (i, &depth) in stats.ring_max_depth.iter().enumerate() {
            assert!(
                depth <= bound,
                "workers={workers}: buffer {i} reached depth {depth} > bound {bound}"
            );
        }
        // Backpressure reached all the way upstream: captures actually
        // waited in the queue.
        assert!(
            stats.ring_max_depth[0] > 0,
            "workers={workers}: the capture queue never held an item: {:?}",
            stats.ring_max_depth
        );
    }
}

#[test]
fn a_panicking_sink_reaches_the_caller() {
    // The sink runs on the caller's thread. Its panic must unwind out of
    // `run_with_sink`, which means waking and joining workers parked on
    // an empty queue rather than waiting for them forever. The runs
    // happen on a helper thread so that a hang fails the test instead of
    // stalling the suite.
    let pools = [1, 2];
    let (done_tx, done_rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        for workers in pools {
            let mut flow = flowgraph(workers);
            let source = CaptureSource::single_stream(silence_captures(6));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                flow.run_with_sink(source, |result| {
                    panic!("sink refused capture {}", result.seq)
                })
            }));
            let message = match outcome {
                Ok(_) => None,
                Err(payload) => payload.downcast_ref::<String>().cloned(),
            };
            // The flowgraph survives the unwind: a rerun drains normally.
            let source = CaptureSource::single_stream(silence_captures(2));
            let rerun = flow.run(source).map(|output| output.results.len());
            done_tx.send((workers, message, rerun)).unwrap();
        }
    });
    for workers in pools {
        let (ran, message, rerun) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| {
                panic!("workers={workers}: run_with_sink hung after its sink panicked")
            });
        assert_eq!(ran, workers);
        let message = message.expect("the sink's panic reaches the caller");
        assert!(
            message.contains("sink refused capture 0"),
            "workers={workers}: {message:?}"
        );
        assert_eq!(
            rerun,
            Ok(2),
            "workers={workers}: rerun after the sink panic"
        );
    }
    helper.join().expect("the helper thread finished cleanly");
}

/// A source that announces one stream but hands over a capture on
/// stream 0 and another on stream 1.
struct UnderReporting(VecDeque<(usize, Vec<Iq>)>);

impl SampleSource for UnderReporting {
    fn streams(&self) -> usize {
        1
    }

    fn next_capture(&mut self) -> Option<(usize, Vec<Iq>)> {
        self.0.pop_front()
    }
}

#[test]
fn a_source_that_under_reports_its_streams_still_drains() {
    // `streams()` only sizes the pool's in-flight bound. A stream id at
    // or above it must still be numbered as its own stream: folded into
    // another stream, two captures would share one `(stream, seq)` key
    // and the pool would wait forever on the report it never emits. The
    // runs happen on a helper thread so that a hang fails the test
    // instead of stalling the suite.
    let pools = [1, 2];
    let (done_tx, done_rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        for workers in pools {
            let source = UnderReporting(
                (0..2)
                    .map(|stream| (stream, vec![Iq::ZERO; 1500]))
                    .collect(),
            );
            let keys = flowgraph(workers).run(source).map(|output| {
                let mut keys: Vec<(usize, u64)> =
                    output.results.iter().map(|r| (r.stream, r.seq)).collect();
                keys.sort_unstable();
                keys
            });
            done_tx.send((workers, keys)).unwrap();
        }
    });
    for workers in pools {
        let (ran, keys) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| {
                panic!("workers={workers}: the run over an under-reporting source hung or panicked")
            });
        assert_eq!(ran, workers);
        assert_eq!(keys, Ok(vec![(0, 0), (1, 0)]), "workers={workers}");
    }
    helper.join().expect("the helper thread finished cleanly");
}

#[test]
fn shutdown_drains_every_capture_in_order() {
    // An uneventful run is a clean shutdown: every capture's result
    // arrives exactly once, in submission order.
    for workers in [1, 2] {
        let mut flow = flowgraph(workers);
        let source = CaptureSource::single_stream(silence_captures(5));
        let output = flow.run(source).unwrap();
        let seqs: Vec<u64> = output.results.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..5).collect::<Vec<_>>(), "workers={workers}");
        assert_eq!(output.stats.captures, 5, "workers={workers}");
    }
}
