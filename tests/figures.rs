//! Paper-trend regression tests over campaign manifests.
//!
//! Each test runs a fast-tier campaign through `cbma-harness` (the same
//! code path as `cargo run -p cbma-harness`) and asserts the *shape* the
//! paper reports — not absolute numbers, which depend on RNG details and
//! tier sizing, but the physics-driven trends that must survive any
//! refactor: error rises with distance and tag count, power control does
//! not hurt, small clock offsets are tolerated while large ones are not,
//! and OFDM excitation costs far more than duty-cycled interferers.
//!
//! Campaign results are checkpointed under `target/test-manifests/`, so
//! repeated test runs (and the sibling `manifest.rs` suite) reuse
//! completed points instead of recomputing them. Every assertion failure
//! names the manifest file that contains the offending numbers.

use std::path::PathBuf;

use cbma_harness::{campaigns, run_campaign, CampaignManifest, RunnerConfig, Tier};

/// Directory manifests and checkpoints land in for inspection.
fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-manifests")
}

/// Runs (or resumes) a fast-tier campaign and returns the manifest plus
/// the path it was written to.
fn fast_manifest(name: &str) -> (CampaignManifest, PathBuf) {
    let campaign = campaigns::by_name(name, Tier::Fast).expect("built-in campaign");
    let dir = manifest_dir();
    let cfg = RunnerConfig {
        checkpoint_dir: Some(dir.join(".checkpoints").join(format!("{name}.fast"))),
        ..RunnerConfig::default()
    };
    let manifest = run_campaign(&campaign, &cfg).expect("campaign runs");
    std::fs::create_dir_all(&dir).expect("manifest dir");
    let path = dir.join(format!("{name}.fast.json"));
    std::fs::write(&path, manifest.to_json()).expect("write manifest");
    (manifest, path)
}

/// FER of the point with the given label.
fn fer(manifest: &CampaignManifest, label: &str) -> f64 {
    manifest
        .points
        .iter()
        .find(|p| p.label == label)
        .unwrap_or_else(|| panic!("no point labeled {label:?} in {}", manifest.campaign))
        .totals
        .fer()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn fig8a_error_grows_with_distance_and_tag_count() {
    let (m, path) = fast_manifest("fig8a");
    let distances = ["d025cm", "d100cm", "d250cm", "d400cm"];
    let counts = [2usize, 3, 4];

    // Paper trend 1: averaged over tag counts, the far end of the office
    // is no better than the bench (K-factor decay beyond ~2 m).
    let at = |d: &str| mean(&counts.map(|n| fer(&m, &format!("n{n}_{d}"))));
    let near = at(distances[0]);
    let far = at(distances[distances.len() - 1]);
    assert!(
        far + 0.05 >= near,
        "fig8a: FER fell with distance (near {near:.3}, far {far:.3}) — see {}",
        path.display()
    );

    // Paper trend 2: averaged over distances, more concurrent tags mean
    // more multiple-access interference.
    let for_n = |n: usize| mean(&distances.map(|d| fer(&m, &format!("n{n}_{d}"))));
    let two = for_n(2);
    let four = for_n(4);
    assert!(
        four + 0.05 >= two,
        "fig8a: 4 tags beat 2 tags ({four:.3} vs {two:.3}) — see {}",
        path.display()
    );
    // Two concurrent tags in the balanced regime stay reliable.
    assert!(
        two <= 0.25,
        "fig8a: 2-tag FER {two:.3} implausibly high — see {}",
        path.display()
    );
}

#[test]
fn fig9c_power_control_does_not_hurt() {
    let (m, path) = fast_manifest("fig9c");
    let counts = [2usize, 3, 4, 5];

    // Paper trend 1: Algorithm 1 never makes the aggregate worse (our
    // coherent receiver shows a smaller gain than the paper's envelope
    // receiver, so the margin is loose — see EXPERIMENTS.md).
    let off = mean(&counts.map(|n| fer(&m, &format!("n{n}_pc_off"))));
    let on = mean(&counts.map(|n| fer(&m, &format!("n{n}_pc_on"))));
    assert!(
        on <= off + 0.08,
        "fig9c: power control hurt the aggregate (on {on:.3}, off {off:.3}) — see {}",
        path.display()
    );

    // Paper trend 2: error grows with the number of concurrent tags.
    let two = fer(&m, "n2_pc_off");
    let five = fer(&m, "n5_pc_off");
    assert!(
        five + 0.05 >= two,
        "fig9c: 5 tags beat 2 tags ({five:.3} vs {two:.3}) — see {}",
        path.display()
    );
}

#[test]
fn fig11_small_delays_tolerated_large_delays_not() {
    let (m, path) = fast_manifest("fig11");

    // Within the correlator's ~8-chip search horizon the error stays low…
    for label in [
        "delay_00.00chips",
        "delay_00.50chips",
        "delay_02.00chips",
        "delay_06.00chips",
    ] {
        let f = fer(&m, label);
        assert!(
            f <= 0.2,
            "fig11: {label} FER {f:.3} exceeds the in-horizon budget — see {}",
            path.display()
        );
    }

    // …and far beyond it the error rises sharply.
    let within = fer(&m, "delay_02.00chips");
    for label in ["delay_12.00chips", "delay_16.00chips"] {
        let beyond = fer(&m, label);
        assert!(
            beyond >= 0.2 && beyond >= within + 0.1,
            "fig11: {label} FER {beyond:.3} shows no beyond-horizon cliff \
             (within-horizon {within:.3}) — see {}",
            path.display()
        );
    }
}

#[test]
fn fig12_ofdm_excitation_costs_most() {
    let (m, path) = fast_manifest("fig12");
    let clean = fer(&m, "no_interference");

    // Duty-cycled interferers (CSMA/CA WiFi, FHSS Bluetooth) cost little.
    for label in ["wifi_interference", "bluetooth_interference"] {
        let f = fer(&m, label);
        assert!(
            f <= clean + 0.2,
            "fig12: {label} FER {f:.3} far above clean {clean:.3} — see {}",
            path.display()
        );
    }

    // OFDM excitation drops reception significantly.
    let ofdm = fer(&m, "ofdm_excitation");
    assert!(
        ofdm >= clean + 0.15,
        "fig12: OFDM excitation FER {ofdm:.3} not clearly above clean {clean:.3} — see {}",
        path.display()
    );
}

#[test]
fn fig8b_low_excitation_power_buries_the_signal() {
    let (m, path) = fast_manifest("fig8b");
    for n in [2usize, 3, 4] {
        let low = fer(&m, &format!("n{n}_pt-05dbm"));
        let high = fer(&m, &format!("n{n}_pt+20dbm"));
        assert!(
            low >= 0.8,
            "fig8b: n={n} at −5 dBm FER {low:.3} — the signal should sink \
             under the −73 dBm floor — see {}",
            path.display()
        );
        assert!(
            high <= low - 0.3,
            "fig8b: n={n} FER did not fall with power ({low:.3} → {high:.3}) — see {}",
            path.display()
        );
    }
}
