//! Integration: the pipeline observability layer end to end.
//!
//! Drives a real deployment with a metrics registry attached, exports the
//! telemetry snapshot as JSON, and asserts the export round-trips
//! losslessly — the contract `BENCH_pipeline_obs.json` and any external
//! consumer of the artifact rely on.

use cbma::obs::{MetricsRegistry, Snapshot};
use cbma::prelude::*;

fn observed_run(rounds: usize) -> (Snapshot, Vec<RoundOutcome>) {
    let mut scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
    ])
    .with_seed(11);
    scenario.rx_config.sic_passes = 1;
    let mut engine = Engine::new(scenario).unwrap();
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    let registry = MetricsRegistry::new();
    engine.attach_observability(&registry);
    let outcomes = (0..rounds).map(|_| engine.run_round()).collect();
    (registry.snapshot(), outcomes)
}

#[test]
fn snapshot_json_round_trips_exactly() {
    let (snapshot, _) = observed_run(12);
    // The acceptance bar: at least 8 distinct named metrics from a real
    // pipeline run, including the per-stage timing histograms.
    assert!(
        snapshot.metric_count() >= 8,
        "only {} metrics: {:?}",
        snapshot.metric_count(),
        snapshot
    );
    for stage in [
        "cbma.rx.stage.frame_sync_ns",
        "cbma.rx.stage.user_detect_ns",
        "cbma.rx.stage.decode_ns",
        "cbma.sim.round_ns",
        "cbma.sim.stage.tag_transmit_ns",
        "cbma.sim.stage.channel_realize_ns",
        "cbma.sim.stage.channel_mix_ns",
        "cbma.sim.stage.channel_noise_ns",
        "cbma.sim.stage.settle_ns",
    ] {
        let hist = snapshot
            .histograms
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
        assert_eq!(hist.count, 12, "{stage} should record once per round");
        assert!(hist.sum > 0, "{stage} spans should be non-zero");
    }

    let json = snapshot.to_json();
    let parsed = Snapshot::from_json(&json).expect("exported JSON must parse");
    assert_eq!(parsed, snapshot, "round-trip must be lossless");
    // And the round-trip is a fixed point: serializing the parse yields
    // byte-identical JSON (ordering is BTreeMap-stable).
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn merged_sweep_snapshots_round_trip_too() {
    // Each seed records into a registry of its own; the per-seed
    // snapshots are then folded into one.
    let snapshots: Vec<Snapshot> = (0..3u64)
        .map(|seed| {
            let scenario =
                Scenario::paper_default(vec![Point::new(0.0, 0.35), Point::new(0.25, -0.40)])
                    .with_seed(seed);
            let registry = MetricsRegistry::new();
            let mut engine = Engine::new(scenario).unwrap();
            engine.attach_observability(&registry);
            engine.run_rounds(4);
            registry.snapshot()
        })
        .collect();
    let mut merged = Snapshot::default();
    for snapshot in &snapshots {
        merged.merge(snapshot);
    }
    assert_eq!(merged.counters["cbma.sim.rounds"], 12);
    assert_eq!(merged.histograms["cbma.sim.round_ns"].count, 12);
    let json = merged.to_json();
    assert_eq!(Snapshot::from_json(&json).unwrap(), merged);
}

#[test]
fn round_outcomes_describe_the_run() {
    let (snapshot, outcomes) = observed_run(6);
    assert_eq!(outcomes.len(), 6, "one outcome per round");
    for outcome in &outcomes {
        assert_eq!(
            outcome.active,
            [0, 1, 2],
            "all three tags transmit every round"
        );
        assert!(
            outcome
                .delivered
                .iter()
                .all(|id| outcome.active.contains(id)),
            "delivered {:?} outside active {:?}",
            outcome.delivered,
            outcome.active
        );
    }
    let round_ns = &snapshot.histograms["cbma.sim.round_ns"];
    assert_eq!(round_ns.count, 6, "one round_ns sample per round");
    assert!(round_ns.min > 0, "every round takes time");
}

#[test]
fn malformed_snapshot_json_is_rejected() {
    for bad in [
        "",
        "[]",
        "{",
        r#"{"counters": 3, "gauges": {}, "histograms": {}}"#,
        r#"{"counters": {"x": -1}, "gauges": {}, "histograms": {}}"#,
        r#"{"counters": {}, "gauges": {}, "histograms": {"h": {"count": 1}}}"#,
    ] {
        assert!(Snapshot::from_json(bad).is_err(), "should reject {bad:?}");
    }
}
