//! Streaming-runtime determinism, end-to-end through the harness: a
//! campaign measured through `Engine::run_streaming` must produce the
//! byte-identical manifest for every scheduler and batch width — and
//! identical to the round-synchronous engine loop. The
//! manifest's `to_json()` is the repo's canonical byte-identity
//! fingerprint (sorted keys, shortest round-trip floats, volatile
//! metrics stripped), so one string comparison covers every decision
//! the receiver made in every round.

use cbma::rx::Scheduler;
use cbma::sim::StreamingConfig;
use cbma_harness::{campaigns, run_campaign, RunnerConfig, Tier};

fn cfg(streaming: Option<StreamingConfig>) -> RunnerConfig {
    RunnerConfig {
        streaming,
        checkpoint_dir: None,
        ..RunnerConfig::default()
    }
}

#[test]
fn streaming_manifests_match_the_round_synchronous_engine() {
    let campaign = campaigns::by_name("fig12", Tier::Fast).unwrap();
    let baseline = run_campaign(&campaign, &cfg(None)).unwrap().to_json();

    // Scheduler and batch width are execution-shape knobs; neither may
    // leak into the manifest bytes. Each round of a batch is its own
    // stream, so every shape also proves the multi-stream path (and,
    // under work-stealing, the placement metrics it emits) leaves no
    // fingerprint in the manifest. Block-size independence is pinned at
    // the flowgraph level by `crates/rx/tests/streaming_equivalence.rs`.
    let shapes = [
        (3, Scheduler::Inline),
        (8, Scheduler::Inline),
        (2, Scheduler::WorkStealing { workers: 2, pin: false }),
        (4, Scheduler::WorkStealing { workers: 2, pin: false }),
        (8, Scheduler::WorkStealing { workers: 4, pin: false }),
        (6, Scheduler::WorkStealing { workers: 1, pin: false }),
    ]
    .map(|(width, scheduler)| StreamingConfig { width, scheduler });
    for shape in shapes {
        let manifest = run_campaign(&campaign, &cfg(Some(shape))).unwrap().to_json();
        assert_eq!(
            manifest, baseline,
            "manifest bytes diverged under {shape:?}"
        );
    }
}
