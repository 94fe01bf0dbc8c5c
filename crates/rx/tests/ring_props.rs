//! Property tests for the bounded SPSC ring the streaming runtime is
//! built on.
//!
//! Single-threaded: an arbitrary interleaving of try_push/try_pop
//! operations against a `VecDeque` oracle must agree on every accepted
//! element, every rejection (full/empty), and the final drain — across
//! wrap-around, capacity 1 and repeated fill/drain cycles. Concurrent:
//! a producer and a consumer on real threads, retrying on full/empty,
//! must move every element exactly once, in order, for capacities that
//! keep the ring full most of the time.

use std::collections::VecDeque;

use cbma_rx::runtime::{ring, Consumer, Producer, RingError, TryPop, TryPush};
use proptest::prelude::*;

/// Pushes every item in order, yielding while the ring is full.
fn push_all<T>(tx: &Producer<T>, items: impl IntoIterator<Item = T>) {
    for mut item in items {
        loop {
            match tx.try_push(item) {
                TryPush::Pushed => break,
                TryPush::Full(back) => {
                    item = back;
                    std::thread::yield_now();
                }
                TryPush::Closed(..) => panic!("consumer lives until the drain ends"),
            }
        }
    }
}

/// Pops until the producer finishes, yielding while the ring is empty.
fn drain<T>(rx: &Consumer<T>) -> Vec<T> {
    let mut got = Vec::new();
    loop {
        match rx.try_pop().expect("the producer never disconnects") {
            TryPop::Item(v) => got.push(v),
            TryPop::Empty => std::thread::yield_now(),
            TryPop::Finished => return got,
        }
    }
}

/// One scripted step against the ring: push a value or pop one.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Pop,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..1_000_000).prop_map(Op::Push),
            Just(Op::Pop),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_agrees_with_vecdeque_oracle(
        capacity in 1usize..6,
        ops in ops_strategy(),
    ) {
        let (tx, rx) = ring::<u32>(capacity);
        let mut oracle: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => match tx.try_push(v) {
                    TryPush::Pushed => {
                        prop_assert!(
                            oracle.len() < capacity,
                            "accepted a push the oracle says is full"
                        );
                        oracle.push_back(v);
                    }
                    TryPush::Full(returned) => {
                        prop_assert_eq!(returned, v);
                        prop_assert_eq!(oracle.len(), capacity, "rejected a non-full push");
                    }
                    TryPush::Closed(..) => {
                        prop_assert!(false, "ring closed with both ends alive");
                    }
                },
                Op::Pop => match rx.try_pop() {
                    Ok(TryPop::Item(v)) => {
                        prop_assert_eq!(Some(v), oracle.pop_front());
                    }
                    Ok(TryPop::Empty) => {
                        prop_assert!(oracle.is_empty(), "reported empty with items queued");
                    }
                    Ok(TryPop::Finished) => {
                        prop_assert!(false, "finished with the producer alive");
                    }
                    Err(e) => {
                        prop_assert!(false, "ring errored with both ends alive: {e}");
                    }
                },
            }
            prop_assert_eq!(rx.depth(), oracle.len());
        }
        // Finish and drain: exactly the oracle's remainder, in order.
        drop(tx);
        let rest = drain(&rx);
        prop_assert_eq!(rest, oracle.into_iter().collect::<Vec<_>>());
        prop_assert!(matches!(rx.try_pop(), Ok(TryPop::Finished)));
    }

    #[test]
    fn concurrent_transfer_loses_nothing(
        capacity in 1usize..4,
        count in 0usize..400,
    ) {
        let (tx, rx) = ring::<usize>(capacity);
        let got = std::thread::scope(|scope| {
            scope.spawn(move || push_all(&tx, 0..count));
            drain(&rx)
        });
        // No loss, no duplication, no reorder.
        prop_assert_eq!(got, (0..count).collect::<Vec<_>>());
    }
}

#[test]
fn capacity_one_ping_pong_stays_in_order() {
    // The tightest ring: every push waits for the matching pop.
    let (tx, rx) = ring::<u64>(1);
    let n = 10_000u64;
    let got = std::thread::scope(|scope| {
        scope.spawn(move || push_all(&tx, 0..n));
        drain(&rx)
    });
    assert_eq!(got, (0..n).collect::<Vec<_>>());
}

#[test]
fn notifications_count_transitions_not_operations() {
    // Edge-triggered signalling: a deep ring under a lockstep
    // single-threaded flow never has a waiter and never crosses
    // empty→nonempty with anyone watching more than once per refill, so
    // the notification count must track *transitions*, far below the
    // 2·N operation count a notify-per-op scheme would issue.
    let n = 1_000u32;
    let (tx, rx) = ring::<u32>(8);
    let probe = rx.probe();

    // Lockstep push/pop: every push is the empty→nonempty edge (1 notify
    // each), every pop leaves the ring empty without ever having been
    // full (0 notifies).
    for i in 0..n {
        assert!(matches!(tx.try_push(i), TryPush::Pushed));
        assert!(matches!(rx.try_pop(), Ok(TryPop::Item(_))));
    }
    let lockstep = probe.notify_count();
    assert!(
        lockstep <= u64::from(n) + 2,
        "lockstep flow issued {lockstep} notifies for {n} ops — \
         per-operation signalling crept back in"
    );

    // Batched fill/drain: 8 pushes then 8 pops is ONE data edge (the
    // first push) and ZERO space edges (the ring never blocks a
    // producer at capacity... it does hit capacity, so full→nonfull
    // fires once per cycle). Either way: O(cycles), not O(ops).
    let (tx, rx) = ring::<u32>(8);
    let probe = rx.probe();
    let cycles = 100u64;
    for _ in 0..cycles {
        for i in 0..8 {
            assert!(matches!(tx.try_push(i), TryPush::Pushed));
        }
        for _ in 0..8 {
            assert!(matches!(rx.try_pop(), Ok(TryPop::Item(_))));
        }
    }
    let batched = probe.notify_count();
    assert!(
        batched <= 2 * cycles + 2,
        "batched flow issued {batched} notifies for {} ops",
        16 * cycles
    );
}

#[test]
fn consumer_drop_closes_a_full_ring() {
    let (tx, rx) = ring::<u32>(1);
    assert!(matches!(tx.try_push(7), TryPush::Pushed));
    assert!(matches!(tx.try_push(8), TryPush::Full(8)));
    // The ring is full; once the consumer is gone the producer learns the
    // stream can never drain instead of retrying forever.
    let pushed = std::thread::scope(|scope| {
        let handle = scope.spawn(move || loop {
            match tx.try_push(8) {
                TryPush::Full(_) => std::thread::yield_now(),
                other => return other,
            }
        });
        drop(rx);
        handle.join().unwrap()
    });
    assert!(
        matches!(pushed, TryPush::Closed(8, RingError::Disconnected)),
        "push must report Closed once the consumer is gone: {pushed:?}"
    );
}
