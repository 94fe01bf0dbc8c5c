//! Shard checkpointing: resumable campaigns.
//!
//! Every completed point is persisted as one JSON file under the
//! campaign's checkpoint directory. On the next run the store replays
//! matching checkpoints instead of recomputing, so an interrupted campaign
//! resumes where it stopped. A checkpoint carries a header binding it to
//! `(campaign, tier, root seed, replicates, rounds, schema, build)`; any
//! mismatch — different seed, resized tier, renamed point, rebuilt code —
//! invalidates the file and the point is recomputed. Writes are atomic
//! (`.tmp` + rename), so a kill mid-write never leaves a half checkpoint
//! behind.

use std::collections::BTreeMap;
use std::fs;
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cbma::obs::json::JsonValue;

use crate::manifest::{PointResult, SCHEMA_VERSION};

/// The binding header every checkpoint must match to be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Campaign machine name.
    pub campaign: String,
    /// Tier label.
    pub tier: String,
    /// Root seed of the run.
    pub root_seed: u64,
    /// Replicates per point.
    pub replicates: u64,
    /// Rounds per replicate.
    pub rounds: u64,
    /// The build that computes the points: a hash of the running
    /// executable, which the runner computes once per process when it
    /// opens a store. `None` matches no checkpoint, so nothing is
    /// replayed.
    pub build: Option<u64>,
}

/// A hash of the running executable's bytes, computed once per process,
/// or `None` if the executable cannot be read. Checkpoints bind to it, so
/// a rebuilt harness or test binary recomputes every point instead of
/// replaying numbers an earlier build wrote.
pub(crate) fn build_fingerprint() -> Option<u64> {
    static FINGERPRINT: OnceLock<Option<u64>> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let exe = fs::File::open(std::env::current_exe().ok()?).ok()?;
        let mut reader = io::BufReader::with_capacity(1 << 16, exe);
        let mut hasher = DefaultHasher::new();
        loop {
            let chunk = reader.fill_buf().ok()?;
            if chunk.is_empty() {
                return Some(hasher.finish());
            }
            hasher.write(chunk);
            let read = chunk.len();
            reader.consume(read);
        }
    })
}

impl CheckpointHeader {
    fn to_json_value(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("schema_version".into(), JsonValue::UInt(SCHEMA_VERSION));
        o.insert("campaign".into(), JsonValue::Str(self.campaign.clone()));
        o.insert("tier".into(), JsonValue::Str(self.tier.clone()));
        o.insert("root_seed".into(), JsonValue::UInt(self.root_seed));
        o.insert("replicates".into(), JsonValue::UInt(self.replicates));
        o.insert("rounds".into(), JsonValue::UInt(self.rounds));
        if let Some(build) = self.build {
            o.insert("build".into(), JsonValue::UInt(build));
        }
        JsonValue::Object(o)
    }

    fn matches(&self, v: &JsonValue) -> bool {
        let Some(o) = v.as_object() else {
            return false;
        };
        let str_eq = |k: &str, want: &str| o.get(k).and_then(JsonValue::as_str) == Some(want);
        let u64_eq = |k: &str, want: u64| o.get(k).and_then(JsonValue::as_u64) == Some(want);
        u64_eq("schema_version", SCHEMA_VERSION)
            && str_eq("campaign", &self.campaign)
            && str_eq("tier", &self.tier)
            && u64_eq("root_seed", self.root_seed)
            && u64_eq("replicates", self.replicates)
            && u64_eq("rounds", self.rounds)
            && self.build.is_some_and(|build| u64_eq("build", build))
    }
}

/// A per-campaign checkpoint directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    header: CheckpointHeader,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, header: CheckpointHeader) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, header })
    }

    /// The file a point checkpoints to.
    pub fn point_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("point_{index:04}.json"))
    }

    /// Loads the checkpoint for `index` if it exists, parses, matches the
    /// header and carries the expected point label. Any failure — missing
    /// file, torn/garbage JSON, stale header, renamed point — returns
    /// `None` and the caller recomputes.
    pub fn load(&self, index: usize, expected_label: &str) -> Option<PointResult> {
        let text = fs::read_to_string(self.point_path(index)).ok()?;
        let v = JsonValue::parse(&text).ok()?;
        let o = v.as_object()?;
        if !self.header.matches(o.get("header")?) {
            return None;
        }
        let result = PointResult::from_json_value(o.get("result")?).ok()?;
        if result.index != index || result.label != expected_label {
            return None;
        }
        Some(result)
    }

    /// Atomically persists a completed point.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the temp write or rename fails.
    pub fn store(&self, result: &PointResult) -> io::Result<PathBuf> {
        let mut o = BTreeMap::new();
        o.insert("header".to_string(), self.header.to_json_value());
        o.insert("result".to_string(), result.to_json_value());
        let mut text = JsonValue::Object(o).to_json();
        text.push('\n');

        let path = self.point_path(result.index);
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Measurement;
    use cbma::obs::Snapshot;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            campaign: "figtest".into(),
            tier: "fast".into(),
            root_seed: 7,
            replicates: 2,
            rounds: 5,
            build: Some(11),
        }
    }

    fn result(index: usize, label: &str) -> PointResult {
        PointResult {
            index,
            label: label.into(),
            params: BTreeMap::new(),
            totals: Measurement {
                rounds: 10,
                frames_sent: 20,
                frames_delivered: 18,
                frames_detected: 20,
                false_detections: 0,
                bit_errors: 0,
                bits_measured: 640,
            },
            replicate_fers: vec![0.1, 0.1],
            snapshot: Snapshot::new(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cbma-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmpdir("rt");
        let store = CheckpointStore::open(&dir, header()).unwrap();
        let r = result(3, "p3");
        let path = store.store(&r).unwrap();
        assert!(path.ends_with("point_0003.json"));
        assert_eq!(store.load(3, "p3"), Some(r));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_garbage_files_are_skipped() {
        let dir = tmpdir("bad");
        let store = CheckpointStore::open(&dir, header()).unwrap();
        assert_eq!(store.load(0, "p0"), None);
        fs::write(store.point_path(0), "{ torn json").unwrap();
        assert_eq!(store.load(0, "p0"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_invalidates() {
        let dir = tmpdir("hdr");
        let store = CheckpointStore::open(&dir, header()).unwrap();
        store.store(&result(0, "p0")).unwrap();
        // Same dir, different root seed: checkpoint must not replay.
        let mut other = header();
        other.root_seed = 8;
        let store2 = CheckpointStore::open(&dir, other).unwrap();
        assert_eq!(store2.load(0, "p0"), None);
        // Original header still replays.
        assert!(store.load(0, "p0").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_build_is_not_replayed() {
        let dir = tmpdir("build");
        let store = CheckpointStore::open(&dir, header()).unwrap();
        store.store(&result(0, "p0")).unwrap();
        // Same campaign, seed and sizes, written by another build.
        let rebuilt = CheckpointStore::open(
            &dir,
            CheckpointHeader {
                build: Some(12),
                ..header()
            },
        )
        .unwrap();
        assert_eq!(rebuilt.load(0, "p0"), None);
        // A build that could not fingerprint itself replays nothing, not
        // even its own shards.
        let unknown = CheckpointStore::open(
            &dir,
            CheckpointHeader {
                build: None,
                ..header()
            },
        )
        .unwrap();
        unknown.store(&result(1, "p1")).unwrap();
        assert_eq!(unknown.load(1, "p1"), None);
        assert!(store.load(0, "p0").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_running_build_has_a_stable_fingerprint() {
        let first = build_fingerprint();
        assert!(first.is_some(), "the test binary can read itself");
        assert_eq!(build_fingerprint(), first);
    }

    #[test]
    fn label_mismatch_invalidates() {
        let dir = tmpdir("lbl");
        let store = CheckpointStore::open(&dir, header()).unwrap();
        store.store(&result(0, "p0")).unwrap();
        assert_eq!(store.load(0, "renamed"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
