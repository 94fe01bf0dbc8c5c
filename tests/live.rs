//! Integration: live campaign telemetry against the real runner.
//!
//! Runs a small campaign twice — once silently, once with a live
//! aggregator attached — and asserts the rolling `live.json` converges
//! to exactly the manifest's merged observability rollup, independent of
//! worker scheduling.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cbma::obs::json::JsonValue;
use cbma::prelude::*;
use cbma_harness::{
    run_campaign, Campaign, CampaignPoint, LiveAggregator, LiveConfig, RunnerConfig,
};

fn tiny_engine(seed: u64) -> Engine {
    let scenario =
        Scenario::paper_default(vec![Point::new(0.0, 0.4), Point::new(0.0, -0.4)]).with_seed(seed);
    let mut engine = Engine::new(scenario).expect("valid scenario");
    for t in engine.tags_mut() {
        t.set_impedance(ImpedanceState::Open);
    }
    engine
}

fn tiny_campaign(n_points: usize) -> Campaign {
    Campaign {
        name: "livetest",
        paper_ref: "test",
        description: "live telemetry test campaign",
        tier: "fast",
        replicates: 2,
        rounds: 2,
        points: (0..n_points)
            .map(|i| {
                CampaignPoint::new(
                    format!("p{i}"),
                    &[("i", JsonValue::UInt(i as u64))],
                    |ctx| tiny_engine(ctx.seed),
                )
            })
            .collect(),
    }
}

fn tmppath(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cbma-live-it-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn campaign_obj(text: &str, name: &str) -> BTreeMap<String, JsonValue> {
    JsonValue::parse(text)
        .expect("live.json parses")
        .as_object()
        .and_then(|o| o.get("campaigns").and_then(JsonValue::as_object).cloned())
        .and_then(|c| c.get(name).and_then(JsonValue::as_object).cloned())
        .expect("campaign entry present")
}

#[test]
fn final_live_snapshot_equals_the_manifest_rollup() {
    let path = tmppath("converge");
    let _ = std::fs::remove_file(&path);
    let agg = LiveAggregator::start(LiveConfig::new(&path)).unwrap();

    let campaign = tiny_campaign(3);
    let mut cfg = RunnerConfig {
        workers: 2,
        root_seed: 23,
        checkpoint_dir: None,
        ..RunnerConfig::default()
    };
    cfg.live = Some(agg.publisher());
    let manifest = run_campaign(&campaign, &cfg).unwrap();
    drop(cfg);
    agg.finish().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let c = campaign_obj(&text, "livetest");

    // Progress accounting reached the end state.
    assert_eq!(c.get("points_done").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(c.get("points_total").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(c.get("tier").and_then(JsonValue::as_str), Some("fast"));

    // The acceptance bar: the live rollup and the manifest's merged
    // snapshot are the same bytes (both sides timing-stripped).
    let live_merged = c.get("merged_snapshot").expect("merged_snapshot").to_json();
    let manifest_merged = JsonValue::parse(&manifest.merged_snapshot().to_json())
        .unwrap()
        .to_json();
    assert_eq!(live_merged, manifest_merged);

    // And the rollup genuinely carries pipeline metrics, not an empty
    // object: the runner attaches a registry to every replicate engine.
    let merged = manifest.merged_snapshot();
    assert_eq!(
        merged.counters.get("cbma.sim.rounds"),
        Some(&(3 * 2 * 2u64)),
        "3 points × 2 replicates × 2 rounds each"
    );
    assert!(
        merged.counters.keys().any(|k| k.starts_with("cbma.rx.")),
        "receiver metrics present: {:?}",
        merged.counters.keys().collect::<Vec<_>>()
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_rollup_is_independent_of_worker_count() {
    let mut merged = Vec::new();
    for workers in [1usize, 4] {
        let path = tmppath(&format!("w{workers}"));
        let _ = std::fs::remove_file(&path);
        let agg = LiveAggregator::start(LiveConfig::new(&path)).unwrap();
        let mut cfg = RunnerConfig {
            workers,
            root_seed: 23,
            checkpoint_dir: None,
            ..RunnerConfig::default()
        };
        cfg.live = Some(agg.publisher());
        run_campaign(&tiny_campaign(4), &cfg).unwrap();
        drop(cfg);
        agg.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let c = campaign_obj(&text, "livetest");
        merged.push(c.get("merged_snapshot").unwrap().to_json());
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        merged[0], merged[1],
        "scheduling must not change the rollup"
    );
}
