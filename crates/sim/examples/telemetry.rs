//! Pipeline telemetry walkthrough.
//!
//! Runs the paper-default four-tag deployment with full observability
//! attached and prints everything the observability layer produces:
//!
//! * per-capture [`RxTelemetry`](cbma_rx::RxTelemetry) on the last round's
//!   report (stage spans, correlation margins, SIC activity),
//! * the aggregated `cbma.rx.*` / `cbma.sim.*` metrics snapshot,
//! * a summary of the [`RoundOutcome`]s the rounds returned, and
//! * the JSON export that `bench_summary` writes as
//!   `BENCH_pipeline_obs.json`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p cbma-sim --example telemetry
//! ```

use cbma_sim::prelude::*;

fn main() {
    // Four tags around the receiver, paper-default channel impairments,
    // one SIC pass so the cancellation path shows up in the telemetry.
    let mut scenario = Scenario::paper_default(vec![
        Point::new(0.15, 0.45),
        Point::new(-0.15, 0.45),
        Point::new(0.15, -0.45),
        Point::new(-0.15, -0.45),
    ]);
    scenario.rx_config.sic_passes = 1;
    let mut engine = Engine::new(scenario).expect("scenario is valid");
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }

    // Attach observability: a registry for aggregated metrics. Without
    // this call the engine records nothing.
    let registry = MetricsRegistry::new();
    engine.attach_observability(&registry);

    let rounds = 20;
    let outcomes: Vec<RoundOutcome> = (0..rounds).map(|_| engine.run_round()).collect();

    // 1. Per-capture telemetry rides on every RxReport.
    let last = outcomes.last().expect("ran at least one round");
    let t = &last.report.telemetry;
    println!("last round's receive pipeline:");
    println!("  frame sync    {:>9} ns", t.frame_sync_ns);
    println!(
        "  user detect   {:>9} ns  ({} candidates)",
        t.user_detect_ns, t.candidates_evaluated
    );
    println!(
        "  decode        {:>9} ns  ({} decodes, {} failed candidates, {} probes)",
        t.decode_ns, t.decodes, t.decode_failures, t.probes_attempted
    );
    println!(
        "  sic           {:>9} ns  ({} passes, {} recovered)",
        t.sic_ns, t.sic_iterations, t.sic_recovered
    );
    println!(
        "  peak correlation {:.3} (margin {:.3} over threshold)",
        t.peak_correlation, t.peak_margin
    );

    // 2. Aggregated metrics: counters, gauges and log₂-bucketed timing
    //    histograms across all rounds.
    let snapshot = registry.snapshot();
    println!(
        "\naggregated metrics ({} named series):",
        snapshot.metric_count()
    );
    for (name, value) in &snapshot.counters {
        println!("  {name:<32} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        if hist.count > 0 {
            println!(
                "  {name:<32} n={} mean={:.0} min={} max={}",
                hist.count,
                hist.mean().unwrap_or(0.0),
                hist.min,
                hist.max
            );
        }
    }

    // 3. The per-round records are the outcomes the rounds returned.
    let delivered_all = outcomes.iter().filter(|o| o.all_delivered()).count();
    println!(
        "\noutcomes: {} rounds, {} delivered every active tag",
        outcomes.len(),
        delivered_all
    );

    // 4. The JSON export — the same artifact bench_summary grows into
    //    BENCH_pipeline_obs.json (and it must round-trip).
    let json = snapshot.to_json();
    let reparsed = Snapshot::from_json(&json).expect("export must parse back");
    assert_eq!(reparsed, snapshot);
    println!(
        "\nsnapshot JSON ({} bytes, round-trips cleanly):\n{json}",
        json.len()
    );
}
