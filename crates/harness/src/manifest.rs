//! The canonical campaign manifest.
//!
//! A [`CampaignManifest`] is the single artifact a campaign run produces:
//! per-point frame/detection/bit-error totals, per-replicate FERs, derived
//! rates and an embedded `cbma-obs` snapshot. Serialization goes through
//! [`JsonValue`] (object keys are `BTreeMap`-sorted and floats use the
//! shortest round-trip form), and wall-clock metrics are stripped from the
//! snapshot before embedding, so two same-seed runs produce **byte
//! identical** manifests and `parse(to_json)` is lossless.

use std::collections::BTreeMap;

use cbma::obs::json::JsonValue;
use cbma::obs::Snapshot;
use cbma::prelude::*;
// The prelude exports a 1-parameter `Result<T>` alias; manifest parsing
// uses its own error type, so restore the std form.
use std::result::Result;

/// Manifest schema version; bump when the JSON layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A manifest that failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError(pub String);

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn err(msg: impl Into<String>) -> ManifestError {
    ManifestError(msg.into())
}

/// Aggregated counts from measured rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Measurement {
    /// Transmission rounds measured.
    pub rounds: u64,
    /// Frames transmitted by active tags.
    pub frames_sent: u64,
    /// Frames delivered with the exact transmitted payload.
    pub frames_delivered: u64,
    /// Detections whose code index matched an active tag.
    pub frames_detected: u64,
    /// Detections claiming a tag that was not transmitting.
    pub false_detections: u64,
    /// Errored bits across frames whose header decoded.
    pub bit_errors: u64,
    /// Total bits those error counts are measured over.
    pub bits_measured: u64,
}

impl Measurement {
    /// Runs `rounds` transmission rounds on the engine and aggregates the
    /// outcomes. Deterministic in the engine's scenario seed and the
    /// engine's current round counter.
    pub fn from_engine(engine: &mut Engine, rounds: usize) -> Measurement {
        let mut m = Measurement::default();
        for _ in 0..rounds {
            m.record_outcome(&engine.run_round());
        }
        m
    }

    fn record_outcome(&mut self, outcome: &RoundOutcome) {
        self.rounds += 1;
        self.frames_sent += outcome.active.len() as u64;
        self.frames_delivered += outcome.delivered.len() as u64;
        for id in outcome.report.detected_ids() {
            if outcome.active.contains(&id) {
                self.frames_detected += 1;
            } else {
                self.false_detections += 1;
            }
        }
        for &(_, errs, bits) in &outcome.bit_errors {
            self.bit_errors += errs as u64;
            self.bits_measured += bits as u64;
        }
    }

    /// Frame error rate (1 − delivered/sent); 0 when nothing was sent.
    pub fn fer(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            1.0 - self.frames_delivered as f64 / self.frames_sent as f64
        }
    }

    /// Fraction of transmitted frames whose tag was detected at all.
    pub fn detection_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            (self.frames_detected as f64 / self.frames_sent as f64).min(1.0)
        }
    }

    /// Bit error rate over the measured bits, if any were measured.
    pub fn ber(&self) -> Option<f64> {
        if self.bits_measured == 0 {
            None
        } else {
            Some(self.bit_errors as f64 / self.bits_measured as f64)
        }
    }

    /// Delivered frames per round — the concurrent-throughput figure of
    /// merit (ideal = number of concurrent tags).
    pub fn throughput_frames_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.frames_delivered as f64 / self.rounds as f64
        }
    }

    /// Accumulates another measurement into this one.
    pub fn merge(&mut self, other: &Measurement) {
        self.rounds += other.rounds;
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.frames_detected += other.frames_detected;
        self.false_detections += other.false_detections;
        self.bit_errors += other.bit_errors;
        self.bits_measured += other.bits_measured;
    }

    /// The manifest representation.
    pub fn to_json_value(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("rounds".into(), JsonValue::UInt(self.rounds));
        o.insert("frames_sent".into(), JsonValue::UInt(self.frames_sent));
        o.insert(
            "frames_delivered".into(),
            JsonValue::UInt(self.frames_delivered),
        );
        o.insert(
            "frames_detected".into(),
            JsonValue::UInt(self.frames_detected),
        );
        o.insert(
            "false_detections".into(),
            JsonValue::UInt(self.false_detections),
        );
        o.insert("bit_errors".into(), JsonValue::UInt(self.bit_errors));
        o.insert("bits_measured".into(), JsonValue::UInt(self.bits_measured));
        JsonValue::Object(o)
    }

    /// Parses the manifest representation.
    pub fn from_json_value(v: &JsonValue) -> Result<Measurement, ManifestError> {
        let o = v.as_object().ok_or_else(|| err("totals: not an object"))?;
        let get = |k: &str| -> Result<u64, ManifestError> {
            o.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err(format!("totals: missing/invalid field {k:?}")))
        };
        Ok(Measurement {
            rounds: get("rounds")?,
            frames_sent: get("frames_sent")?,
            frames_delivered: get("frames_delivered")?,
            frames_detected: get("frames_detected")?,
            false_detections: get("false_detections")?,
            bit_errors: get("bit_errors")?,
            bits_measured: get("bits_measured")?,
        })
    }
}

/// The completed measurement of one campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Grid position (manifest points are ordered by this index).
    pub index: usize,
    /// The point's stable label.
    pub label: String,
    /// The parameter values the point fixed.
    pub params: BTreeMap<String, JsonValue>,
    /// Totals over all replicates.
    pub totals: Measurement,
    /// Per-replicate FERs, replicate order.
    pub replicate_fers: Vec<f64>,
    /// The point's `cbma-obs` snapshot with wall-clock (`*_ns`) metrics
    /// stripped for byte-stable output.
    pub snapshot: Snapshot,
}

impl PointResult {
    /// The manifest representation (includes derived rates alongside the
    /// raw totals; parsers treat the derived block as advisory).
    pub fn to_json_value(&self) -> JsonValue {
        let mut derived = BTreeMap::new();
        derived.insert("fer".into(), JsonValue::Float(self.totals.fer()));
        derived.insert(
            "detection_rate".into(),
            JsonValue::Float(self.totals.detection_rate()),
        );
        derived.insert(
            "throughput_frames_per_round".into(),
            JsonValue::Float(self.totals.throughput_frames_per_round()),
        );
        derived.insert(
            "ber".into(),
            match self.totals.ber() {
                Some(b) => JsonValue::Float(b),
                None => JsonValue::Null,
            },
        );

        let snapshot = JsonValue::parse(&self.snapshot.to_json())
            .expect("snapshot serialization is valid JSON");

        let mut o = BTreeMap::new();
        o.insert("index".into(), JsonValue::UInt(self.index as u64));
        o.insert("label".into(), JsonValue::Str(self.label.clone()));
        o.insert("params".into(), JsonValue::Object(self.params.clone()));
        o.insert("totals".into(), self.totals.to_json_value());
        o.insert("derived".into(), JsonValue::Object(derived));
        o.insert(
            "replicate_fers".into(),
            JsonValue::Array(
                self.replicate_fers
                    .iter()
                    .map(|&f| JsonValue::Float(f))
                    .collect(),
            ),
        );
        o.insert("snapshot".into(), snapshot);
        JsonValue::Object(o)
    }

    /// Parses the manifest representation.
    pub fn from_json_value(v: &JsonValue) -> Result<PointResult, ManifestError> {
        let o = v.as_object().ok_or_else(|| err("point: not an object"))?;
        let index = o
            .get("index")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err("point: missing index"))? as usize;
        let label = o
            .get("label")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("point: missing label"))?
            .to_string();
        let params = o
            .get("params")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| err("point: missing params"))?
            .clone();
        let totals = Measurement::from_json_value(
            o.get("totals")
                .ok_or_else(|| err("point: missing totals"))?,
        )?;
        let replicate_fers = o
            .get("replicate_fers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| err("point: missing replicate_fers"))?
            .iter()
            .map(|f| {
                f.as_f64()
                    .ok_or_else(|| err("point: non-numeric replicate fer"))
            })
            .collect::<Result<Vec<f64>, ManifestError>>()?;
        let snapshot_value = o
            .get("snapshot")
            .ok_or_else(|| err("point: missing snapshot"))?;
        let snapshot = Snapshot::from_json(&snapshot_value.to_json())
            .map_err(|e| err(format!("point {label:?}: bad snapshot: {e}")))?;
        Ok(PointResult {
            index,
            label,
            params,
            totals,
            replicate_fers,
            snapshot,
        })
    }
}

/// The canonical artifact of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Campaign machine name.
    pub campaign: String,
    /// The paper figure the campaign reproduces.
    pub paper_ref: String,
    /// Tier label the counts were resolved for.
    pub tier: String,
    /// Root seed all job seeds derive from.
    pub root_seed: u64,
    /// Replicates per point.
    pub replicates: u64,
    /// Rounds per replicate.
    pub rounds_per_replicate: u64,
    /// Per-point results, ordered by grid index.
    pub points: Vec<PointResult>,
}

impl CampaignManifest {
    /// All per-point snapshots merged in grid order — the campaign-wide
    /// observability rollup. Point snapshots are timing-stripped before
    /// embedding and `Snapshot::merge` is order-insensitive, so this
    /// matches the final `merged_snapshot` a live aggregator converges
    /// to byte-for-byte.
    pub fn merged_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for p in &self.points {
            merged.merge(&p.snapshot);
        }
        merged
    }

    /// The JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert(
            "schema_version".into(),
            JsonValue::UInt(self.schema_version),
        );
        o.insert("campaign".into(), JsonValue::Str(self.campaign.clone()));
        o.insert("paper_ref".into(), JsonValue::Str(self.paper_ref.clone()));
        o.insert("tier".into(), JsonValue::Str(self.tier.clone()));
        o.insert("root_seed".into(), JsonValue::UInt(self.root_seed));
        o.insert("replicates".into(), JsonValue::UInt(self.replicates));
        o.insert(
            "rounds_per_replicate".into(),
            JsonValue::UInt(self.rounds_per_replicate),
        );
        o.insert(
            "points".into(),
            JsonValue::Array(self.points.iter().map(PointResult::to_json_value).collect()),
        );
        JsonValue::Object(o)
    }

    /// Serializes to the canonical byte-stable JSON document (compact,
    /// sorted keys, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().to_json();
        s.push('\n');
        s
    }

    /// Parses and validates a manifest document.
    pub fn from_json(text: &str) -> Result<CampaignManifest, ManifestError> {
        let v = JsonValue::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
        Self::from_json_value(&v)
    }

    /// Parses the JSON tree form.
    pub fn from_json_value(v: &JsonValue) -> Result<CampaignManifest, ManifestError> {
        let o = v
            .as_object()
            .ok_or_else(|| err("manifest: not an object"))?;
        let get_u64 = |k: &str| -> Result<u64, ManifestError> {
            o.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err(format!("manifest: missing/invalid field {k:?}")))
        };
        let get_str = |k: &str| -> Result<String, ManifestError> {
            o.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| err(format!("manifest: missing/invalid field {k:?}")))
        };
        let schema_version = get_u64("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(err(format!(
                "manifest: unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            )));
        }
        let points = o
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| err("manifest: missing points"))?
            .iter()
            .map(PointResult::from_json_value)
            .collect::<Result<Vec<PointResult>, ManifestError>>()?;
        for (i, p) in points.iter().enumerate() {
            if p.index != i {
                return Err(err(format!(
                    "manifest: point {i} has out-of-order index {}",
                    p.index
                )));
            }
        }
        Ok(CampaignManifest {
            schema_version,
            campaign: get_str("campaign")?,
            paper_ref: get_str("paper_ref")?,
            tier: get_str("tier")?,
            root_seed: get_u64("root_seed")?,
            replicates: get_u64("replicates")?,
            rounds_per_replicate: get_u64("rounds_per_replicate")?,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement() -> Measurement {
        Measurement {
            rounds: 10,
            frames_sent: 30,
            frames_delivered: 27,
            frames_detected: 29,
            false_detections: 1,
            bit_errors: 4,
            bits_measured: 960,
        }
    }

    pub(crate) fn sample_manifest() -> CampaignManifest {
        let mut params = BTreeMap::new();
        params.insert("n_tags".to_string(), JsonValue::UInt(3));
        params.insert("d_cm".to_string(), JsonValue::Float(150.0));
        CampaignManifest {
            schema_version: SCHEMA_VERSION,
            campaign: "figtest".into(),
            paper_ref: "Fig. 0".into(),
            tier: "fast".into(),
            root_seed: 0xCB3A,
            replicates: 2,
            rounds_per_replicate: 5,
            points: vec![PointResult {
                index: 0,
                label: "n3_d150".into(),
                params,
                totals: sample_measurement(),
                replicate_fers: vec![0.1, 0.0],
                snapshot: Snapshot::new(),
            }],
        }
    }

    #[test]
    fn measurement_rates() {
        let m = sample_measurement();
        assert!((m.fer() - 0.1).abs() < 1e-12);
        assert!((m.detection_rate() - 29.0 / 30.0).abs() < 1e-12);
        assert!((m.ber().unwrap() - 4.0 / 960.0).abs() < 1e-12);
        assert!((m.throughput_frames_per_round() - 2.7).abs() < 1e-12);
        assert_eq!(Measurement::default().ber(), None);
        assert_eq!(Measurement::default().fer(), 0.0);
    }

    #[test]
    fn measurement_merge_adds_fields() {
        let mut a = sample_measurement();
        a.merge(&sample_measurement());
        assert_eq!(a.rounds, 20);
        assert_eq!(a.frames_sent, 60);
        assert_eq!(a.bits_measured, 1920);
        // Rates are invariant under self-merge.
        assert!((a.fer() - sample_measurement().fer()).abs() < 1e-12);
    }

    #[test]
    fn manifest_json_round_trips_losslessly() {
        let m = sample_manifest();
        let text = m.to_json();
        let parsed = CampaignManifest::from_json(&text).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn manifest_rejects_wrong_schema_version() {
        let m = sample_manifest();
        let text = m
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        let e = CampaignManifest::from_json(&text).unwrap_err();
        assert!(e.0.contains("unsupported schema_version"), "{e}");
    }

    #[test]
    fn manifest_rejects_out_of_order_points() {
        let mut m = sample_manifest();
        m.points[0].index = 5;
        let e = CampaignManifest::from_json(&m.to_json()).unwrap_err();
        assert!(e.0.contains("out-of-order"), "{e}");
    }

    #[test]
    fn measurement_from_engine_counts_frames() {
        let scenario =
            Scenario::paper_default(vec![Point::new(0.0, 0.4), Point::new(0.0, -0.4)]).with_seed(7);
        let mut engine = Engine::new(scenario).expect("valid scenario");
        for t in engine.tags_mut() {
            t.set_impedance(ImpedanceState::Open);
        }
        let m = Measurement::from_engine(&mut engine, 4);
        assert_eq!(m.rounds, 4);
        assert!(m.frames_sent >= m.frames_delivered);
        assert!(m.fer() >= 0.0 && m.fer() <= 1.0);
    }
}
