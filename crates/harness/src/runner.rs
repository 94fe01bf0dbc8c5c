//! The sharded campaign runner.
//!
//! Points are the unit of work. A bounded worker pool pulls point indices
//! from a shared atomic counter (work stealing: fast workers drain the
//! queue, nobody idles behind a slow shard), each worker measures its
//! point single-threaded and fully deterministically, and the manifest is
//! assembled in grid order afterwards — so worker count and scheduling
//! order can never change the output bytes.
//!
//! A point that panics fails its campaign with
//! [`HarnessError::PointFailed`], naming the point and the panic message.
//! It is not retried: replicate seeds are fixed, so it would panic again.
//! Completed points are checkpointed to disk before the campaign
//! finishes, so an interrupted run resumes instead of restarting.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use cbma::obs::MetricsRegistry;
use cbma_types::SeedSequence;

use crate::campaign::{Campaign, JobCtx};
use crate::checkpoint::{self, CheckpointHeader, CheckpointStore};
use crate::live::{LivePublisher, LiveUpdate};
use crate::manifest::{CampaignManifest, Measurement, PointResult, SCHEMA_VERSION};

/// A campaign run that could not complete.
#[derive(Debug)]
pub enum HarnessError {
    /// Campaign definition failed validation.
    InvalidCampaign(String),
    /// Checkpoint or manifest I/O failed.
    Io(std::io::Error),
    /// A point panicked while it was measured.
    PointFailed {
        /// Campaign name.
        campaign: String,
        /// Point label.
        point: String,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::InvalidCampaign(msg) => write!(f, "invalid campaign: {msg}"),
            HarnessError::Io(e) => write!(f, "harness I/O error: {e}"),
            HarnessError::PointFailed {
                campaign,
                point,
                message,
            } => write!(
                f,
                "campaign {campaign}: point {point:?} panicked: {message}"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> HarnessError {
        HarnessError::Io(e)
    }
}

/// Runner knobs. `Default` gives the deterministic CI configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (clamped to at least 1). Changing this never
    /// changes the manifest bytes.
    pub workers: usize,
    /// Root seed every job seed derives from.
    pub root_seed: u64,
    /// Where to checkpoint completed points; `None` disables resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Live telemetry sink; workers publish replicate/point completions
    /// here. `None` (the default) disables live streaming and costs
    /// nothing on the measurement path.
    pub live: Option<LivePublisher>,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            root_seed: 0xCB3A,
            checkpoint_dir: None,
            live: None,
        }
    }
}

/// The deterministic seed for `(root, campaign, point, replicate)`.
///
/// Exposed so tests can predict the exact stream a job received.
pub fn job_seed(root_seed: u64, campaign: &str, point_label: &str, replicate: usize) -> u64 {
    SeedSequence::new(root_seed)
        .child(campaign)
        .child(point_label)
        .derive_indexed("replicate", replicate as u64)
}

/// Measures one point: all replicates, one shared metrics registry.
/// When a live publisher is supplied, every completed replicate streams
/// the point's cumulative totals.
fn measure_point(campaign: &Campaign, index: usize, cfg: &RunnerConfig) -> PointResult {
    let point = &campaign.points[index];
    let registry = MetricsRegistry::new();
    let mut totals = Measurement::default();
    let mut replicate_fers = Vec::with_capacity(campaign.replicates);
    for replicate in 0..campaign.replicates {
        let ctx = JobCtx {
            seed: job_seed(cfg.root_seed, campaign.name, &point.label, replicate),
            replicate,
        };
        let mut engine = (point.builder)(ctx);
        engine.attach_observability(&registry);
        let m = Measurement::from_engine(&mut engine, campaign.rounds);
        replicate_fers.push(m.fer());
        totals.merge(&m);
        if let Some(live) = &cfg.live {
            live.publish(LiveUpdate::ReplicateDone {
                campaign: campaign.name.to_string(),
                point_index: index,
                label: point.label.clone(),
                replicates_done: replicate + 1,
                totals,
            });
        }
    }
    PointResult {
        index,
        label: point.label.clone(),
        params: point.params.clone(),
        totals,
        replicate_fers,
        // Wall-clock and allocation metrics are stripped so manifests are
        // byte-stable.
        snapshot: registry.snapshot().without_volatile(),
    }
}

/// Measures one point, turning a panic into [`HarnessError::PointFailed`].
fn try_measure_point(
    campaign: &Campaign,
    index: usize,
    cfg: &RunnerConfig,
) -> Result<PointResult, HarnessError> {
    panic::catch_unwind(AssertUnwindSafe(|| measure_point(campaign, index, cfg))).map_err(
        |payload| HarnessError::PointFailed {
            campaign: campaign.name.to_string(),
            point: campaign.points[index].label.clone(),
            // `&*payload`: downcast the payload itself, not the box.
            message: panic_message(&*payload),
        },
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a campaign to a manifest.
///
/// Work is sharded across `cfg.workers` threads; completed points are
/// checkpointed (when a checkpoint directory is configured) and replayed
/// on resume; the manifest is assembled in grid order, independent of
/// scheduling. Two runs with the same `(campaign, tier, root_seed)`
/// produce byte-identical `to_json()` output.
///
/// # Errors
///
/// Fails if the campaign definition is invalid, checkpoint I/O fails, or
/// a point panics.
pub fn run_campaign(
    campaign: &Campaign,
    cfg: &RunnerConfig,
) -> Result<CampaignManifest, HarnessError> {
    campaign.validate().map_err(HarnessError::InvalidCampaign)?;

    let store = match &cfg.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(
            dir,
            CheckpointHeader {
                campaign: campaign.name.to_string(),
                tier: campaign.tier.to_string(),
                root_seed: cfg.root_seed,
                replicates: campaign.replicates as u64,
                rounds: campaign.rounds as u64,
                build: checkpoint::build_fingerprint(),
            },
        )?),
        None => None,
    };
    let store = store.as_ref();

    let n_points = campaign.points.len();
    if let Some(live) = &cfg.live {
        live.publish(LiveUpdate::CampaignStarted {
            campaign: campaign.name.to_string(),
            tier: campaign.tier.to_string(),
            points_total: n_points,
            replicates: campaign.replicates as u64,
            rounds: campaign.rounds as u64,
            workers: cfg.workers.max(1).min(n_points.max(1)),
        });
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let workers = cfg.workers.max(1).min(n_points.max(1));

    let collected: Vec<Result<Vec<PointResult>, HarnessError>> =
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let failed = &failed;
                    scope.spawn(move |_| -> Result<Vec<PointResult>, HarnessError> {
                        let mut mine = Vec::new();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n_points {
                                break;
                            }
                            let label = &campaign.points[index].label;
                            let point_started = Instant::now();
                            let (result, from_checkpoint) =
                                match store.and_then(|s| s.load(index, label)) {
                                    // Shards written before the volatile-metric
                                    // policy may still embed `_ns`/`_bytes`
                                    // series; strip on load so the manifest
                                    // bytes never depend on when a shard was
                                    // persisted.
                                    Some(mut cached) => {
                                        cached.snapshot = cached.snapshot.without_volatile();
                                        (cached, true)
                                    }
                                    None => {
                                        let computed = try_measure_point(campaign, index, cfg)
                                            .inspect_err(|_| {
                                                failed.store(true, Ordering::Relaxed);
                                            })?;
                                        if let Some(s) = store {
                                            s.store(&computed).map_err(|e| {
                                                failed.store(true, Ordering::Relaxed);
                                                HarnessError::Io(e)
                                            })?;
                                        }
                                        (computed, false)
                                    }
                                };
                            if let Some(live) = &cfg.live {
                                live.publish(LiveUpdate::PointDone {
                                    campaign: campaign.name.to_string(),
                                    point_index: index,
                                    label: result.label.clone(),
                                    totals: result.totals,
                                    snapshot: result.snapshot.clone(),
                                    replicate_fers: result.replicate_fers.clone(),
                                    secs: point_started.elapsed().as_secs_f64(),
                                    from_checkpoint,
                                });
                            }
                            mine.push(result);
                        }
                        Ok(mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
        .expect("worker scope");

    let mut points = Vec::with_capacity(n_points);
    for shard in collected {
        points.extend(shard?);
    }
    points.sort_by_key(|p| p.index);
    debug_assert!(points.iter().enumerate().all(|(i, p)| p.index == i));

    Ok(CampaignManifest {
        schema_version: SCHEMA_VERSION,
        campaign: campaign.name.to_string(),
        paper_ref: campaign.paper_ref.to_string(),
        tier: campaign.tier.to_string(),
        root_seed: cfg.root_seed,
        replicates: campaign.replicates as u64,
        rounds_per_replicate: campaign.rounds as u64,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignPoint;
    use cbma::obs::json::JsonValue;
    use cbma::prelude::*;

    fn tiny_engine(seed: u64) -> Engine {
        let scenario = Scenario::paper_default(vec![Point::new(0.0, 0.4), Point::new(0.0, -0.4)])
            .with_seed(seed);
        let mut engine = Engine::new(scenario).expect("valid scenario");
        for t in engine.tags_mut() {
            t.set_impedance(ImpedanceState::Open);
        }
        engine
    }

    fn tiny_campaign(n_points: usize) -> Campaign {
        Campaign {
            name: "tiny",
            paper_ref: "test",
            description: "runner test campaign",
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

    fn cfg(workers: usize) -> RunnerConfig {
        RunnerConfig {
            workers,
            root_seed: 11,
            checkpoint_dir: None,
            live: None,
        }
    }

    #[test]
    fn job_seed_is_stable_and_distinct() {
        let a = job_seed(1, "fig8a", "n2_d100", 0);
        assert_eq!(a, job_seed(1, "fig8a", "n2_d100", 0));
        assert_ne!(a, job_seed(1, "fig8a", "n2_d100", 1));
        assert_ne!(a, job_seed(1, "fig8a", "n3_d100", 0));
        assert_ne!(a, job_seed(2, "fig8a", "n2_d100", 0));
    }

    #[test]
    fn manifest_is_independent_of_worker_count() {
        let campaign = tiny_campaign(3);
        let one = run_campaign(&campaign, &cfg(1)).unwrap().to_json();
        let four = run_campaign(&campaign, &cfg(4)).unwrap().to_json();
        assert_eq!(one, four);
    }

    #[test]
    fn persistent_failure_names_the_point() {
        let campaign = Campaign {
            name: "doomed",
            paper_ref: "test",
            description: "always panics",
            tier: "fast",
            replicates: 1,
            rounds: 1,
            points: vec![CampaignPoint::new("bad_point", &[], |_| {
                panic!("unrecoverable")
            })],
        };
        let err = run_campaign(&campaign, &cfg(2)).unwrap_err();
        match err {
            HarnessError::PointFailed { point, message, .. } => {
                assert_eq!(point, "bad_point");
                assert!(message.contains("unrecoverable"));
            }
            other => panic!("expected PointFailed, got {other}"),
        }
    }

    #[test]
    fn live_stream_converges_to_the_manifest_snapshot() {
        use crate::live::{LiveAggregator, LiveConfig};
        let path =
            std::env::temp_dir().join(format!("cbma-runner-live-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let agg = LiveAggregator::start(LiveConfig::new(&path)).unwrap();

        let campaign = tiny_campaign(3);
        let mut config = cfg(2);
        config.live = Some(agg.publisher());
        let manifest = run_campaign(&campaign, &config).unwrap();
        drop(config); // hang up the publisher clone
        agg.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        let c = v
            .as_object()
            .unwrap()
            .get("campaigns")
            .and_then(JsonValue::as_object)
            .unwrap()
            .get("tiny")
            .and_then(JsonValue::as_object)
            .unwrap();
        assert_eq!(c.get("points_done").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(c.get("points_total").and_then(JsonValue::as_u64), Some(3));
        // The live rollup must agree with the manifest byte-for-byte.
        let live_merged = c.get("merged_snapshot").unwrap().to_json();
        let manifest_merged = JsonValue::parse(&manifest.merged_snapshot().to_json())
            .unwrap()
            .to_json();
        assert_eq!(live_merged, manifest_merged);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_resume_without_recompute() {
        let dir = std::env::temp_dir().join(format!("cbma-runner-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = cfg(2);
        config.checkpoint_dir = Some(dir.clone());

        let campaign = tiny_campaign(3);
        let first = run_campaign(&campaign, &config).unwrap();
        assert!(dir.join("point_0000.json").exists());

        // Second run must replay checkpoints even if the builders would
        // now fail: replace the campaign with poisoned builders.
        let poisoned = Campaign {
            points: (0..3)
                .map(|i| {
                    CampaignPoint::new(format!("p{i}"), &[("i", JsonValue::UInt(i as u64))], |_| {
                        panic!("must not rebuild a checkpointed point")
                    })
                })
                .collect(),
            ..tiny_campaign(3)
        };
        let second = run_campaign(&poisoned, &config).unwrap();
        assert_eq!(first.to_json(), second.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
