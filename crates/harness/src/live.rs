//! Live campaign telemetry: streaming shard snapshots.
//!
//! While a campaign runs, workers publish [`LiveUpdate`]s over an mpsc
//! channel to a [`LiveAggregator`] thread, which merges them into a
//! rolling `live.json` written atomically (`.tmp` + rename) so an
//! external watcher never reads a torn file. Updates are throttled to the
//! configured interval; the final state is always flushed when the last
//! publisher hangs up.
//!
//! The aggregator merges only **timing-stripped** point snapshots, in
//! grid order, so the `merged_snapshot` subtree of the final `live.json`
//! is byte-identical to merging the manifest's embedded per-point
//! snapshots — the CLI asserts exactly that under `--live`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbma::obs::json::JsonValue;
use cbma::obs::Snapshot;

use crate::manifest::Measurement;

/// Schema version of the `live.json` document.
pub const LIVE_SCHEMA_VERSION: u64 = 1;

/// Aggregator knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Where the rolling snapshot is written.
    pub path: PathBuf,
    /// Minimum delay between consecutive writes (the final write always
    /// happens).
    pub interval: Duration,
    /// Print a one-line progress report to stderr on every write.
    pub progress: bool,
}

impl LiveConfig {
    /// A config writing to `path` with a 500 ms throttle and no progress
    /// output.
    pub fn new(path: impl Into<PathBuf>) -> LiveConfig {
        LiveConfig {
            path: path.into(),
            interval: Duration::from_millis(500),
            progress: false,
        }
    }
}

/// One event published by the runner.
#[derive(Debug, Clone)]
pub enum LiveUpdate {
    /// A campaign run began.
    CampaignStarted {
        /// Campaign machine name.
        campaign: String,
        /// Tier label.
        tier: String,
        /// Points in the grid.
        points_total: usize,
        /// Replicates per point.
        replicates: u64,
        /// Rounds per replicate.
        rounds: u64,
        /// Worker threads measuring points.
        workers: usize,
    },
    /// A replicate of an in-flight point finished. `totals` are
    /// cumulative over the point's replicates so far; the point's
    /// snapshot arrives once, with [`LiveUpdate::PointDone`].
    ReplicateDone {
        /// Campaign machine name.
        campaign: String,
        /// Grid index of the point.
        point_index: usize,
        /// Point label.
        label: String,
        /// Replicates completed so far (1-based count).
        replicates_done: usize,
        /// Cumulative totals over completed replicates.
        totals: Measurement,
    },
    /// A point completed (all replicates).
    PointDone {
        /// Campaign machine name.
        campaign: String,
        /// Grid index of the point.
        point_index: usize,
        /// Point label.
        label: String,
        /// Final totals.
        totals: Measurement,
        /// Final timing-stripped snapshot.
        snapshot: Snapshot,
        /// Per-replicate FERs.
        replicate_fers: Vec<f64>,
        /// Wall-clock seconds the point took to compute.
        secs: f64,
        /// Whether the point was replayed from a checkpoint (its `secs`
        /// is excluded from ETA estimation).
        from_checkpoint: bool,
    },
}

impl LiveUpdate {
    fn campaign(&self) -> &str {
        match self {
            LiveUpdate::CampaignStarted { campaign, .. }
            | LiveUpdate::ReplicateDone { campaign, .. }
            | LiveUpdate::PointDone { campaign, .. } => campaign,
        }
    }
}

/// The sending half handed to the runner. Cheap to clone; sends after
/// the aggregator has shut down are silently dropped.
#[derive(Debug, Clone)]
pub struct LivePublisher {
    tx: Sender<LiveUpdate>,
}

impl LivePublisher {
    /// Publishes one update. Never blocks and never fails: a hung-up
    /// aggregator just discards the message.
    pub fn publish(&self, update: LiveUpdate) {
        let _ = self.tx.send(update);
    }
}

/// A partially-measured point.
#[derive(Debug)]
struct PartialPoint {
    label: String,
    replicates_done: usize,
    totals: Measurement,
}

/// A completed point.
#[derive(Debug)]
struct FinalPoint {
    label: String,
    totals: Measurement,
    snapshot: Snapshot,
    replicates_done: usize,
}

/// Rolling state of one campaign.
#[derive(Debug)]
struct CampaignState {
    tier: String,
    points_total: usize,
    replicates: u64,
    rounds: u64,
    workers: usize,
    partial: BTreeMap<usize, PartialPoint>,
    finals: BTreeMap<usize, FinalPoint>,
    /// Wall-clock seconds per *computed* (non-checkpoint) point, for ETA.
    point_secs: Vec<f64>,
}

impl CampaignState {
    fn new() -> CampaignState {
        CampaignState {
            tier: String::new(),
            points_total: 0,
            replicates: 0,
            rounds: 0,
            workers: 1,
            partial: BTreeMap::new(),
            finals: BTreeMap::new(),
            point_secs: Vec::new(),
        }
    }

    /// Campaign FER over everything measured so far (final + partial).
    fn fer(&self) -> f64 {
        let mut all = Measurement::default();
        for p in self.finals.values() {
            all.merge(&p.totals);
        }
        for p in self.partial.values() {
            all.merge(&p.totals);
        }
        all.fer()
    }

    /// Seconds remaining, estimated from the mean computed-point time
    /// and the worker count. `None` until a point has been computed.
    fn eta_seconds(&self) -> Option<f64> {
        if self.point_secs.is_empty() {
            return None;
        }
        let mean = self.point_secs.iter().sum::<f64>() / self.point_secs.len() as f64;
        let remaining = self.points_total.saturating_sub(self.finals.len());
        Some(mean * remaining as f64 / self.workers.max(1) as f64)
    }

    /// All final point snapshots merged in grid order.
    fn merged_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for p in self.finals.values() {
            merged.merge(&p.snapshot);
        }
        merged
    }

    fn to_json_value(&self) -> JsonValue {
        let mut points = BTreeMap::new();
        for (&index, p) in &self.partial {
            let mut o = BTreeMap::new();
            o.insert("index".into(), JsonValue::UInt(index as u64));
            o.insert("state".into(), JsonValue::Str("partial".into()));
            o.insert(
                "replicates_done".into(),
                JsonValue::UInt(p.replicates_done as u64),
            );
            o.insert("fer".into(), JsonValue::Float(p.totals.fer()));
            points.insert(p.label.clone(), JsonValue::Object(o));
        }
        for (&index, p) in &self.finals {
            let mut o = BTreeMap::new();
            o.insert("index".into(), JsonValue::UInt(index as u64));
            o.insert("state".into(), JsonValue::Str("done".into()));
            o.insert(
                "replicates_done".into(),
                JsonValue::UInt(p.replicates_done as u64),
            );
            o.insert("fer".into(), JsonValue::Float(p.totals.fer()));
            points.insert(p.label.clone(), JsonValue::Object(o));
        }

        let merged = JsonValue::parse(&self.merged_snapshot().to_json())
            .expect("snapshot serialization is valid JSON");

        let mut o = BTreeMap::new();
        o.insert("tier".into(), JsonValue::Str(self.tier.clone()));
        o.insert(
            "points_total".into(),
            JsonValue::UInt(self.points_total as u64),
        );
        o.insert(
            "points_done".into(),
            JsonValue::UInt(self.finals.len() as u64),
        );
        o.insert("replicates".into(), JsonValue::UInt(self.replicates));
        o.insert("rounds".into(), JsonValue::UInt(self.rounds));
        o.insert("fer".into(), JsonValue::Float(self.fer()));
        o.insert(
            "eta_seconds".into(),
            match self.eta_seconds() {
                Some(s) => JsonValue::Float(s),
                None => JsonValue::Null,
            },
        );
        o.insert("points".into(), JsonValue::Object(points));
        o.insert("merged_snapshot".into(), merged);
        JsonValue::Object(o)
    }
}

/// Full aggregator state (all campaigns of the run).
#[derive(Debug)]
struct LiveState {
    campaigns: BTreeMap<String, CampaignState>,
}

impl LiveState {
    fn apply(&mut self, update: LiveUpdate) {
        let state = self
            .campaigns
            .entry(update.campaign().to_string())
            .or_insert_with(CampaignState::new);
        match update {
            LiveUpdate::CampaignStarted {
                tier,
                points_total,
                replicates,
                rounds,
                workers,
                ..
            } => {
                state.tier = tier;
                state.points_total = points_total;
                state.replicates = replicates;
                state.rounds = rounds;
                state.workers = workers;
            }
            LiveUpdate::ReplicateDone {
                point_index,
                label,
                replicates_done,
                totals,
                ..
            } => {
                // A checkpoint replay can finish the point before its
                // last replicate message drains; never demote a final.
                if !state.finals.contains_key(&point_index) {
                    state.partial.insert(
                        point_index,
                        PartialPoint {
                            label,
                            replicates_done,
                            totals,
                        },
                    );
                }
            }
            LiveUpdate::PointDone {
                point_index,
                label,
                totals,
                snapshot,
                replicate_fers,
                secs,
                from_checkpoint,
                ..
            } => {
                state.partial.remove(&point_index);
                state.finals.insert(
                    point_index,
                    FinalPoint {
                        label,
                        totals,
                        snapshot,
                        replicates_done: replicate_fers.len(),
                    },
                );
                if !from_checkpoint {
                    state.point_secs.push(secs);
                }
            }
        }
    }

    fn to_json(&self) -> String {
        let mut campaigns = BTreeMap::new();
        for (name, state) in &self.campaigns {
            campaigns.insert(name.clone(), state.to_json_value());
        }
        let mut o = BTreeMap::new();
        o.insert(
            "schema_version".into(),
            JsonValue::UInt(LIVE_SCHEMA_VERSION),
        );
        o.insert("campaigns".into(), JsonValue::Object(campaigns));
        let mut s = JsonValue::Object(o).to_json();
        s.push('\n');
        s
    }
}

/// Writes `text` to `path` atomically (`.tmp` + rename).
fn write_atomic(path: &PathBuf, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

fn progress_line(state: &LiveState) -> String {
    let mut parts = Vec::new();
    for (name, c) in &state.campaigns {
        let eta = match c.eta_seconds() {
            Some(s) => format!("{s:.0}s"),
            None => "?".to_string(),
        };
        parts.push(format!(
            "{name} {}/{} points fer={:.4} eta={eta}",
            c.finals.len(),
            c.points_total,
            c.fer()
        ));
    }
    format!("[live] {}", parts.join(" | "))
}

/// The aggregator thread. Owns the channel's receiving end; merges
/// updates and writes the rolling `live.json`.
#[derive(Debug)]
pub struct LiveAggregator {
    tx: Option<Sender<LiveUpdate>>,
    handle: Option<JoinHandle<io::Result<()>>>,
    path: PathBuf,
}

impl LiveAggregator {
    /// Starts the aggregator thread. The parent directory of the
    /// configured path is created if missing.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the parent directory cannot be created.
    pub fn start(cfg: LiveConfig) -> io::Result<LiveAggregator> {
        if let Some(parent) = cfg.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let (tx, rx) = mpsc::channel();
        let path = cfg.path.clone();
        let handle = std::thread::Builder::new()
            .name("cbma-live".into())
            .spawn(move || aggregate(cfg, rx))
            .expect("spawn live aggregator thread");
        Ok(LiveAggregator {
            tx: Some(tx),
            handle: Some(handle),
            path,
        })
    }

    /// A cloneable sending handle for the runner.
    pub fn publisher(&self) -> LivePublisher {
        LivePublisher {
            tx: self.tx.clone().expect("aggregator not finished"),
        }
    }

    /// The path the rolling snapshot is written to.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    /// Hangs up the channel, drains remaining updates, flushes the final
    /// state and joins the thread.
    ///
    /// All [`LivePublisher`] clones must be dropped before (or shortly
    /// after) this call, or the aggregator keeps draining until they are.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the writer hit.
    pub fn finish(mut self) -> io::Result<()> {
        drop(self.tx.take());
        match self.handle.take() {
            Some(handle) => handle.join().expect("live aggregator panicked"),
            None => Ok(()),
        }
    }
}

fn aggregate(cfg: LiveConfig, rx: Receiver<LiveUpdate>) -> io::Result<()> {
    let mut state = LiveState {
        campaigns: BTreeMap::new(),
    };
    let mut dirty = false;
    let mut last_write: Option<Instant> = None;
    loop {
        match rx.recv_timeout(cfg.interval) {
            Ok(update) => {
                state.apply(update);
                dirty = true;
                let due = last_write
                    .map(|t| t.elapsed() >= cfg.interval)
                    .unwrap_or(true);
                if due {
                    write_atomic(&cfg.path, &state.to_json())?;
                    if cfg.progress {
                        eprintln!("{}", progress_line(&state));
                    }
                    last_write = Some(Instant::now());
                    dirty = false;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if dirty {
                    write_atomic(&cfg.path, &state.to_json())?;
                    if cfg.progress {
                        eprintln!("{}", progress_line(&state));
                    }
                    last_write = Some(Instant::now());
                    dirty = false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Final flush: always write, even if nothing changed
                // since the last one, so the file exists and is current.
                write_atomic(&cfg.path, &state.to_json())?;
                if cfg.progress {
                    eprintln!("{}", progress_line(&state));
                }
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmppath(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cbma-live-{tag}-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn measurement(delivered: u64) -> Measurement {
        Measurement {
            rounds: 4,
            frames_sent: 8,
            frames_delivered: delivered,
            frames_detected: 8,
            false_detections: 0,
            bit_errors: 0,
            bits_measured: 256,
        }
    }

    fn started(campaign: &str, points_total: usize) -> LiveUpdate {
        LiveUpdate::CampaignStarted {
            campaign: campaign.into(),
            tier: "fast".into(),
            points_total,
            replicates: 2,
            rounds: 4,
            workers: 2,
        }
    }

    fn point_done(campaign: &str, index: usize, delivered: u64) -> LiveUpdate {
        LiveUpdate::PointDone {
            campaign: campaign.into(),
            point_index: index,
            label: format!("p{index}"),
            totals: measurement(delivered),
            snapshot: Snapshot::new(),
            replicate_fers: vec![0.0, 0.0],
            secs: 0.25,
            from_checkpoint: false,
        }
    }

    #[test]
    fn state_tracks_partial_then_final_points() {
        let mut state = LiveState {
            campaigns: BTreeMap::new(),
        };
        state.apply(started("figtest", 2));
        state.apply(LiveUpdate::ReplicateDone {
            campaign: "figtest".into(),
            point_index: 0,
            label: "p0".into(),
            replicates_done: 1,
            totals: measurement(7),
        });
        let c = &state.campaigns["figtest"];
        assert_eq!(c.partial.len(), 1);
        assert_eq!(c.finals.len(), 0);
        assert!(c.eta_seconds().is_none());

        state.apply(point_done("figtest", 0, 8));
        let c = &state.campaigns["figtest"];
        assert_eq!(c.partial.len(), 0, "final point clears its partial");
        assert_eq!(c.finals.len(), 1);
        assert_eq!(c.point_secs, vec![0.25]);
        // 1 of 2 points done, mean 0.25 s, 2 workers.
        assert!((c.eta_seconds().unwrap() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn replicate_for_a_final_point_never_demotes_it() {
        let mut state = LiveState {
            campaigns: BTreeMap::new(),
        };
        state.apply(started("figtest", 1));
        state.apply(point_done("figtest", 0, 8));
        state.apply(LiveUpdate::ReplicateDone {
            campaign: "figtest".into(),
            point_index: 0,
            label: "p0".into(),
            replicates_done: 1,
            totals: measurement(6),
        });
        let c = &state.campaigns["figtest"];
        assert_eq!(c.partial.len(), 0);
        assert_eq!(c.finals.len(), 1);
    }

    #[test]
    fn checkpoint_points_are_excluded_from_eta() {
        let mut state = LiveState {
            campaigns: BTreeMap::new(),
        };
        state.apply(started("figtest", 3));
        state.apply(LiveUpdate::PointDone {
            campaign: "figtest".into(),
            point_index: 0,
            label: "p0".into(),
            totals: measurement(8),
            snapshot: Snapshot::new(),
            replicate_fers: vec![0.0, 0.0],
            secs: 0.0001,
            from_checkpoint: true,
        });
        assert!(state.campaigns["figtest"].eta_seconds().is_none());
        state.apply(point_done("figtest", 1, 8));
        assert!(state.campaigns["figtest"].eta_seconds().is_some());
    }

    #[test]
    fn json_document_has_the_documented_shape() {
        let mut state = LiveState {
            campaigns: BTreeMap::new(),
        };
        state.apply(started("figtest", 2));
        state.apply(point_done("figtest", 0, 6));
        let v = JsonValue::parse(&state.to_json()).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(
            o.get("schema_version").and_then(JsonValue::as_u64),
            Some(LIVE_SCHEMA_VERSION)
        );
        let c = o
            .get("campaigns")
            .and_then(JsonValue::as_object)
            .unwrap()
            .get("figtest")
            .and_then(JsonValue::as_object)
            .unwrap();
        assert_eq!(c.get("points_total").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(c.get("points_done").and_then(JsonValue::as_u64), Some(1));
        assert!((c.get("fer").unwrap().as_f64().unwrap() - 0.25).abs() < 1e-12);
        let p0 = c
            .get("points")
            .and_then(JsonValue::as_object)
            .unwrap()
            .get("p0")
            .and_then(JsonValue::as_object)
            .unwrap();
        assert_eq!(p0.get("state").and_then(JsonValue::as_str), Some("done"));
        assert!(c.get("merged_snapshot").is_some());
    }

    #[test]
    fn aggregator_flushes_final_state_on_finish() {
        let path = tmppath("flush");
        let _ = fs::remove_file(&path);
        let agg = LiveAggregator::start(LiveConfig {
            path: path.clone(),
            interval: Duration::from_millis(5),
            progress: false,
        })
        .unwrap();
        let publisher = agg.publisher();
        publisher.publish(started("figtest", 1));
        publisher.publish(point_done("figtest", 0, 8));
        drop(publisher);
        agg.finish().unwrap();

        let text = fs::read_to_string(&path).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        let c = v
            .as_object()
            .unwrap()
            .get("campaigns")
            .and_then(JsonValue::as_object)
            .unwrap()
            .get("figtest")
            .and_then(JsonValue::as_object)
            .unwrap();
        assert_eq!(c.get("points_done").and_then(JsonValue::as_u64), Some(1));
        assert!(
            !path.with_extension("json.tmp").exists(),
            "tmp file renamed away"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn merged_snapshot_merges_finals_in_grid_order() {
        let mut state = LiveState {
            campaigns: BTreeMap::new(),
        };
        state.apply(started("figtest", 2));
        let mut snap_a = Snapshot::new();
        snap_a.counters.insert("cbma.sim.rounds".into(), 4);
        let mut snap_b = Snapshot::new();
        snap_b.counters.insert("cbma.sim.rounds".into(), 6);
        // Deliver out of grid order; BTreeMap iteration restores it.
        state.apply(LiveUpdate::PointDone {
            campaign: "figtest".into(),
            point_index: 1,
            label: "p1".into(),
            totals: measurement(8),
            snapshot: snap_b,
            replicate_fers: vec![0.0],
            secs: 0.1,
            from_checkpoint: false,
        });
        state.apply(LiveUpdate::PointDone {
            campaign: "figtest".into(),
            point_index: 0,
            label: "p0".into(),
            totals: measurement(8),
            snapshot: snap_a,
            replicate_fers: vec![0.0],
            secs: 0.1,
            from_checkpoint: false,
        });
        let merged = state.campaigns["figtest"].merged_snapshot();
        assert_eq!(merged.counters.get("cbma.sim.rounds"), Some(&10));
    }
}
