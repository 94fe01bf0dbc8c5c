//! Manifest round-trip, determinism and resume guarantees, exercised
//! end-to-end through the public `cbma-harness` API on real campaigns.

use std::path::PathBuf;

use cbma_harness::{campaigns, run_campaign, CampaignManifest, RunnerConfig, Tier};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-manifests")
}

fn fast_cfg(checkpoint_dir: Option<PathBuf>) -> RunnerConfig {
    RunnerConfig {
        checkpoint_dir,
        ..RunnerConfig::default()
    }
}

/// Serialize → parse → re-serialize is lossless, on a manifest holding
/// real measured points and snapshots.
#[test]
fn manifest_round_trip_is_lossless() {
    let campaign = campaigns::by_name("fig12", Tier::Fast).unwrap();
    let dir = manifest_dir().join(".checkpoints").join("fig12.fast");
    let manifest = run_campaign(&campaign, &fast_cfg(Some(dir))).unwrap();

    let text = manifest.to_json();
    let parsed = CampaignManifest::from_json(&text).expect("canonical manifest parses");
    assert_eq!(parsed, manifest, "parse must reconstruct every field");
    assert_eq!(
        parsed.to_json(),
        text,
        "re-serialization must be byte-identical"
    );

    // The embedded snapshots survived the trip.
    assert_eq!(parsed.points.len(), campaign.points.len());
    for point in &parsed.points {
        assert!(
            point.snapshot.metric_count() > 0,
            "point {} lost its snapshot",
            point.label
        );
        assert!(
            point.totals.rounds > 0 && !point.replicate_fers.is_empty(),
            "point {} lost its measurements",
            point.label
        );
    }
}

/// Two same-seed fast runs — computed from scratch, no checkpoint reuse —
/// produce byte-identical manifests, even with different worker counts.
#[test]
fn same_seed_runs_are_byte_identical() {
    let campaign = campaigns::by_name("fig12", Tier::Fast).unwrap();
    let mut cfg_a = fast_cfg(None);
    cfg_a.workers = 1;
    let mut cfg_b = fast_cfg(None);
    cfg_b.workers = 4;
    let a = run_campaign(&campaign, &cfg_a).unwrap().to_json();
    let b = run_campaign(&campaign, &cfg_b).unwrap().to_json();
    assert_eq!(a, b, "same-seed manifests must be byte-identical");

    // A different root seed must change the measurements (the seed really
    // reaches the channel).
    let mut cfg_c = fast_cfg(None);
    cfg_c.root_seed ^= 0xDEAD;
    let c = run_campaign(&campaign, &cfg_c).unwrap().to_json();
    assert_ne!(a, c, "a different root seed must produce different numbers");
}

/// An interrupted campaign resumes from its checkpoints: deleting one
/// shard forces exactly that point to be recomputed, and the resumed
/// manifest is byte-identical to the uninterrupted one.
#[test]
fn interrupted_campaign_resumes_to_identical_bytes() {
    let campaign = campaigns::by_name("fig11", Tier::Fast).unwrap();
    let shared = manifest_dir().join(".checkpoints").join("fig11.fast");
    let full = run_campaign(&campaign, &fast_cfg(Some(shared.clone()))).unwrap();

    // Simulate an interruption: copy the completed checkpoints, then lose
    // one shard and corrupt another (torn write).
    let resume_dir = manifest_dir()
        .join(".checkpoints")
        .join(format!("fig11.resume.{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&resume_dir);
    std::fs::create_dir_all(&resume_dir).unwrap();
    for entry in std::fs::read_dir(&shared).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), resume_dir.join(entry.file_name())).unwrap();
    }
    std::fs::remove_file(resume_dir.join("point_0002.json")).unwrap();
    std::fs::write(resume_dir.join("point_0004.json"), "{\"torn\":").unwrap();

    let resumed = run_campaign(&campaign, &fast_cfg(Some(resume_dir.clone()))).unwrap();
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume after losing shards must reproduce the uninterrupted bytes"
    );
    // The recomputed shards were re-persisted.
    assert!(resume_dir.join("point_0002.json").exists());
    let _ = std::fs::remove_dir_all(&resume_dir);
}

/// The manifest rejects torn or tampered documents instead of
/// misreporting numbers.
#[test]
fn manifest_rejects_malformed_documents() {
    assert!(CampaignManifest::from_json("").is_err());
    assert!(CampaignManifest::from_json("{\"torn\":").is_err());
    assert!(CampaignManifest::from_json("{}").is_err());
    assert!(CampaignManifest::from_json("[1,2,3]").is_err());
}
