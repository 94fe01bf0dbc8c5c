//! Table I — summary of existing backscatter systems, plus this
//! reproduction's measured CBMA row.
//!
//! Table I is survey context (numbers quoted from the cited papers), so
//! there is nothing to re-measure for the other systems; the bench
//! reprints it and appends the CBMA row as *measured by this simulator*:
//! 10 concurrent tags, aggregate modulated bit rate at the working
//! distance of the headline bench.

use cbma::prelude::*;
use cbma_bench::{balanced_positions, header};

fn main() {
    header(
        "Table I",
        "paper §I, Table I",
        "summary of existing backscatter systems + measured CBMA row",
    );
    let packets = 200;

    // Measure the CBMA row: 10 concurrent tags at the paper's default
    // 1 Mbps symbol rate.
    let mut scenario = Scenario::paper_default(balanced_positions(10)).with_seed(0x7AB1E1);
    scenario.phy = scenario.phy.with_chip_rate(Hertz::from_mhz(1.0));
    scenario.clock.jitter_samples = scenario.phy.samples_per_chip() as f64;
    let mut engine = Engine::new(scenario).expect("valid scenario");
    for t in engine.tags_mut() {
        t.set_impedance(ImpedanceState::Open);
    }
    let stats = engine.run_rounds(packets);
    let rate = stats.aggregate_symbol_rate(&engine.scenario().phy).get();
    let max_d = balanced_positions(10)
        .iter()
        .map(|p| p.distance_to(engine.scenario().rx))
        .fold(0.0f64, f64::max);

    println!(
        "{:<22} {:>12} {:>8} {:>12}",
        "technology", "data rate", "tags", "distance"
    );
    let survey = [
        ("Ambient Backscatter", "1 kbps", "2", "<= 1 m"),
        ("Wi-Fi Backscatter", "1 kbps", "1", "0.65 m"),
        ("BackFi", "5 Mbps", "1", "1 m"),
        ("FM Backscatter", "3.2 kbps", "1", "18 m"),
        ("LoRa Backscatter", "8.7 bps", "1-2", "475 m"),
        ("PLoRa", "6.25 kbps", "1", "1.1 km"),
        ("Netscatter", "500 kbps", "256", "2 m"),
    ];
    for (tech, rate, tags, dist) in survey {
        println!("{tech:<22} {rate:>12} {tags:>8} {dist:>12}");
    }
    println!(
        "{:<22} {:>9.1} Mbps {:>8} {:>9.2} m   <- measured by this reproduction",
        "CBMA (this work)",
        rate / 1e6,
        10,
        max_d
    );
    println!(
        "\n(fer over the measurement: {:.1} %; the paper quotes 8 Mbps at 10 tags",
        stats.fer() * 100.0
    );
    println!("up to 5 m tag-receiver distance — see the headline_throughput bench.)");
}
