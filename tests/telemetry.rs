//! Integration: the pipeline observability layer end to end.
//!
//! Drives a real deployment with a metrics registry and a recording sink
//! attached, exports the telemetry snapshot as JSON, and asserts the
//! export round-trips losslessly — the contract `BENCH_pipeline_obs.json`
//! and any external consumer of the artifact rely on.

use std::sync::Arc;

use cbma::obs::{FieldValue, MetricsRegistry, RecordingSink, Snapshot};
use cbma::prelude::*;

fn observed_run(rounds: usize) -> (Snapshot, Vec<cbma::obs::Event>) {
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
    let sink = Arc::new(RecordingSink::new());
    engine.attach_observability(&registry);
    engine.set_sink(sink.clone());
    engine.run_rounds(rounds);
    (registry.snapshot(), sink.take())
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
    let seeds: Vec<u64> = (0..3).collect();
    let snapshots = parallel_sweep(&seeds, |&seed| {
        let scenario = Scenario::paper_default(vec![
            Point::new(0.0, 0.35),
            Point::new(0.25, -0.40),
        ])
        .with_seed(seed);
        let registry = MetricsRegistry::new();
        let mut engine = Engine::new(scenario).unwrap();
        engine.attach_observability(&registry);
        engine.run_rounds(4);
        registry.snapshot()
    });
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
fn round_events_describe_the_run() {
    let (_, events) = observed_run(6);
    let rounds: Vec<_> = events
        .iter()
        .filter(|e| e.name == "cbma.sim.round")
        .collect();
    assert_eq!(rounds.len(), 6, "one cbma.sim.round event per round");
    for (k, event) in rounds.iter().enumerate() {
        assert_eq!(event.field_u64("round"), Some(k as u64));
        let Some(FieldValue::List(active)) = event.field("active") else {
            panic!("round event missing active set: {event:?}");
        };
        assert_eq!(active, &[0, 1, 2], "all three tags transmit every round");
        let Some(FieldValue::List(delivered)) = event.field("delivered") else {
            panic!("round event missing delivered set: {event:?}");
        };
        assert!(delivered.len() <= active.len());
        assert!(event.field("frame_detected").is_some());
        assert!(event.field_u64("round_ns").unwrap() > 0);
    }
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
        assert!(
            Snapshot::from_json(bad).is_err(),
            "should reject {bad:?}"
        );
    }
}
