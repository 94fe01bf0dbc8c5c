//! Frozen metric snapshots: merging (for parallel sweeps) and the JSON
//! exchange format behind the `BENCH_*.json` artifacts.

use std::collections::BTreeMap;

use crate::json::{write_f64, write_json_string, JsonError, JsonValue};

/// A frozen histogram: sparse non-empty buckets plus summary statistics.
///
/// `buckets` holds `(bucket index, count)` pairs sorted by index; bucket
/// semantics are those of [`crate::Histogram::bucket_index`] (bucket 0 is
/// the value 0, bucket `k` spans `[2^(k-1), 2^k)`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// Errors decoding a snapshot from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The document was not valid JSON.
    Json(JsonError),
    /// The JSON was valid but not snapshot-shaped.
    Shape(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "snapshot json: {e}"),
            SnapshotError::Shape(msg) => write!(f, "snapshot shape: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> SnapshotError {
        SnapshotError::Json(e)
    }
}

/// Every metric in a registry at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Number of distinct named metrics.
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Merges another snapshot: counters and histogram contents add;
    /// gauges keep the **maximum** (across sweep workers a gauge is a
    /// high-water mark — there is no meaningful "last" writer).
    ///
    /// Merging is commutative and associative, so shards can be folded
    /// in any order and any partition and produce the same snapshot —
    /// the property the live aggregator and the multi-process sharding
    /// plan both rely on.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            match self.gauges.get_mut(name) {
                Some(entry) => *entry = merge_gauge(*entry, *value),
                None => {
                    self.gauges.insert(name.clone(), *value);
                }
            }
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Returns a copy containing only the metrics whose name passes
    /// `keep`. Used by campaign manifests to project a snapshot down to a
    /// reproducible subset before embedding it in an artifact.
    pub fn retain_metrics<F: Fn(&str) -> bool>(&self, keep: F) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, v)| (name.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, v)| (name.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, h)| (name.clone(), h.clone()))
                .collect(),
        }
    }

    /// Drops wall-clock timing metrics (names ending in `_ns`). Timing
    /// histograms vary run-to-run even for bit-identical simulations, so
    /// artifacts that must be byte-identical across same-seed runs embed
    /// this projection instead of the raw snapshot.
    pub fn without_timings(&self) -> Snapshot {
        self.retain_metrics(|name| !name.ends_with("_ns"))
    }

    /// Drops every run-to-run volatile metric: wall-clock timings
    /// (`*_ns`), memory levels (`*_bytes`, e.g. scratch-arena high-water
    /// gauges, which depend on allocator rounding and on which receiver
    /// ran which capture), and scheduling placement (`cbma.rx.runtime.worker.*`
    /// queue-pop counters, `cbma.rx.runtime.ring_depth`,
    /// `cbma.rx.runtime.pool_utilization`), which depend on thread
    /// interleaving even though the *decisions* they accompany are
    /// bit-identical across schedulers. This is the projection
    /// deterministic campaign manifests embed;
    /// [`Snapshot::without_timings`] remains for consumers that want the
    /// memory levels kept.
    pub fn without_volatile(&self) -> Snapshot {
        self.retain_metrics(|name| {
            !name.ends_with("_ns")
                && !name.ends_with("_bytes")
                && !name.starts_with("cbma.rx.runtime.worker.")
                && name != "cbma.rx.runtime.ring_depth"
                && name != "cbma.rx.runtime.pool_utilization"
        })
    }

    /// Serializes to a stable, human-diffable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, name);
            out.push_str(": ");
            write_f64(&mut out, *value);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                hist.count,
                hist.sum,
                hist.min,
                hist.max,
                hist.quantile(0.50).unwrap_or(0),
                hist.quantile(0.90).unwrap_or(0),
                hist.quantile(0.99).unwrap_or(0)
            ));
            for (j, (idx, n)) in hist.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{idx}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for malformed JSON, [`SnapshotError::Shape`]
    /// for valid JSON that is not a snapshot.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
        let value = JsonValue::parse(text)?;
        let root = value
            .as_object()
            .ok_or_else(|| SnapshotError::Shape("top level must be an object".into()))?;
        let mut snapshot = Snapshot::new();

        if let Some(counters) = root.get("counters") {
            let map = counters
                .as_object()
                .ok_or_else(|| SnapshotError::Shape("\"counters\" must be an object".into()))?;
            for (name, v) in map {
                let value = v.as_u64().ok_or_else(|| {
                    SnapshotError::Shape(format!("counter {name:?} must be a u64"))
                })?;
                snapshot.counters.insert(name.clone(), value);
            }
        }
        if let Some(gauges) = root.get("gauges") {
            let map = gauges
                .as_object()
                .ok_or_else(|| SnapshotError::Shape("\"gauges\" must be an object".into()))?;
            for (name, v) in map {
                let value = v.as_f64().ok_or_else(|| {
                    SnapshotError::Shape(format!("gauge {name:?} must be a number"))
                })?;
                snapshot.gauges.insert(name.clone(), value);
            }
        }
        if let Some(histograms) = root.get("histograms") {
            let map = histograms
                .as_object()
                .ok_or_else(|| SnapshotError::Shape("\"histograms\" must be an object".into()))?;
            for (name, v) in map {
                snapshot
                    .histograms
                    .insert(name.clone(), parse_histogram(name, v)?);
            }
        }
        Ok(snapshot)
    }
}

/// Commutative, NaN-tolerant gauge merge: the larger finite value wins,
/// a `NaN` loses to anything, and ties (including `-0.0` vs `0.0`) are
/// broken by `total_cmp` so the result — and its serialization — is
/// independent of merge order.
fn merge_gauge(a: f64, b: f64) -> f64 {
    if a.is_nan() {
        b
    } else if b.is_nan() {
        a
    } else if a.total_cmp(&b) == std::cmp::Ordering::Less {
        b
    } else {
        a
    }
}

fn parse_histogram(name: &str, value: &JsonValue) -> Result<HistogramSnapshot, SnapshotError> {
    let obj = value
        .as_object()
        .ok_or_else(|| SnapshotError::Shape(format!("histogram {name:?} must be an object")))?;
    let field = |key: &str| -> Result<u64, SnapshotError> {
        obj.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| SnapshotError::Shape(format!("histogram {name:?} needs u64 {key:?}")))
    };
    let mut hist = HistogramSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        buckets: Vec::new(),
    };
    let buckets = obj
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| SnapshotError::Shape(format!("histogram {name:?} needs a bucket array")))?;
    for pair in buckets {
        let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
            SnapshotError::Shape(format!("histogram {name:?} buckets must be [index, count]"))
        })?;
        let idx = pair[0].as_u64().filter(|&i| i < 65).ok_or_else(|| {
            SnapshotError::Shape(format!("histogram {name:?} bucket index out of range"))
        })?;
        let n = pair[1].as_u64().ok_or_else(|| {
            SnapshotError::Shape(format!("histogram {name:?} bucket count must be u64"))
        })?;
        hist.buckets.push((idx as u8, n));
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("cbma.rx.users_decoded").add(7);
        reg.counter("cbma.sim.rounds").add(3);
        reg.gauge("cbma.sim.delivery_ratio").set(0.75);
        let h = reg.histogram("cbma.rx.stage.decode_ns");
        for v in [100u64, 1000, 100_000, 0] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_is_identity() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snap);
        // And the round-trip is a fixed point.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::new();
        assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
        assert_eq!(snap.metric_count(), 0);
    }

    #[test]
    fn merge_adds_counters_and_histograms_maxes_gauges() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(a.counters["cbma.rx.users_decoded"], 14);
        assert_eq!(a.gauges["cbma.sim.delivery_ratio"], 0.75);
        let h = &a.histograms["cbma.rx.stage.decode_ns"];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 2 * 101_100);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100_000);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = Snapshot::new();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_histogram_with_empty_is_identity() {
        let mut h = HistogramSnapshot {
            count: 2,
            sum: 5,
            min: 1,
            max: 4,
            buckets: vec![(1, 1), (3, 1)],
        };
        let before = h.clone();
        h.merge(&HistogramSnapshot::default());
        assert_eq!(h, before);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(matches!(
            Snapshot::from_json("not json"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            Snapshot::from_json("[1, 2]"),
            Err(SnapshotError::Shape(_))
        ));
        assert!(matches!(
            Snapshot::from_json(r#"{"counters": {"x": -1}}"#),
            Err(SnapshotError::Shape(_))
        ));
        assert!(matches!(
            Snapshot::from_json(r#"{"histograms": {"h": {"count": 1}}}"#),
            Err(SnapshotError::Shape(_))
        ));
        assert!(matches!(
            Snapshot::from_json(
                r#"{"histograms": {"h": {"count": 0, "sum": 0, "min": 0, "max": 0, "buckets": [[70, 1]]}}}"#
            ),
            Err(SnapshotError::Shape(_))
        ));
    }

    #[test]
    fn retain_metrics_projects_all_three_kinds() {
        let snap = sample_snapshot();
        let rx_only = snap.retain_metrics(|name| name.starts_with("cbma.rx."));
        assert_eq!(rx_only.counters.len(), 1);
        assert_eq!(rx_only.counters["cbma.rx.users_decoded"], 7);
        assert!(rx_only.gauges.is_empty());
        assert_eq!(rx_only.histograms.len(), 1);
        // Keeping everything is the identity.
        assert_eq!(snap.retain_metrics(|_| true), snap);
        // Keeping nothing empties the snapshot.
        assert_eq!(snap.retain_metrics(|_| false), Snapshot::new());
    }

    #[test]
    fn without_timings_drops_ns_metrics_only() {
        let snap = sample_snapshot();
        let filtered = snap.without_timings();
        assert!(!filtered.histograms.contains_key("cbma.rx.stage.decode_ns"));
        assert_eq!(filtered.counters, snap.counters);
        assert_eq!(filtered.gauges, snap.gauges);
        // Round-trips like any other snapshot.
        assert_eq!(Snapshot::from_json(&filtered.to_json()).unwrap(), filtered);
    }

    #[test]
    fn without_volatile_drops_ns_and_bytes_metrics() {
        let mut snap = sample_snapshot();
        snap.gauges.insert("cbma.rx.scratch_bytes".into(), 8192.0);
        let filtered = snap.without_volatile();
        assert!(!filtered.histograms.contains_key("cbma.rx.stage.decode_ns"));
        assert!(!filtered.gauges.contains_key("cbma.rx.scratch_bytes"));
        // Deterministic metrics survive untouched.
        assert_eq!(filtered.counters, snap.counters);
        assert_eq!(filtered.gauges["cbma.sim.delivery_ratio"], 0.75);
        // without_timings keeps the memory level; without_volatile is the
        // strictly smaller projection.
        assert!(snap
            .without_timings()
            .gauges
            .contains_key("cbma.rx.scratch_bytes"));
    }

    #[test]
    fn without_volatile_drops_scheduler_placement_metrics() {
        let mut snap = sample_snapshot();
        snap.counters
            .insert("cbma.rx.runtime.worker.steal_count".into(), 3);
        snap.gauges.insert("cbma.rx.runtime.ring_depth".into(), 2.0);
        snap.gauges
            .insert("cbma.rx.runtime.pool_utilization".into(), 0.5);
        let filtered = snap.without_volatile();
        // Placement metrics vary with thread interleaving and must not
        // leak into deterministic manifests.
        assert!(!filtered
            .counters
            .keys()
            .any(|name| name.starts_with("cbma.rx.runtime.worker.")));
        assert!(!filtered.gauges.contains_key("cbma.rx.runtime.ring_depth"));
        assert!(!filtered
            .gauges
            .contains_key("cbma.rx.runtime.pool_utilization"));
        // Decision-carrying runtime metrics survive.
        assert_eq!(
            filtered.counters["cbma.rx.users_decoded"],
            snap.counters["cbma.rx.users_decoded"]
        );
    }

    #[test]
    fn gauge_merge_is_commutative_even_with_nan() {
        let cases: &[(f64, f64)] = &[
            (1.0, 2.0),
            (f64::NAN, 2.0),
            (2.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (-0.0, 0.0),
            (f64::NEG_INFINITY, -1.0),
        ];
        for &(x, y) in cases {
            let mut a = Snapshot::new();
            a.gauges.insert("g".into(), x);
            let mut b = Snapshot::new();
            b.gauges.insert("g".into(), y);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            // Byte-identical serialization regardless of merge order.
            assert_eq!(
                ab.to_json(),
                ba.to_json(),
                "merge({x}, {y}) order-dependent"
            );
        }
        // NaN merged into an empty snapshot must not conjure -inf.
        let mut empty = Snapshot::new();
        let mut nan = Snapshot::new();
        nan.gauges.insert("g".into(), f64::NAN);
        empty.merge(&nan);
        assert!(empty.gauges["g"].is_nan());
    }

    #[test]
    fn histogram_json_exports_quantiles() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"p50\": "));
        assert!(json.contains("\"p90\": "));
        assert!(json.contains("\"p99\": "));
        // Quantile keys are derived, not stored: the parse ignores them
        // and the round-trip stays a fixed point.
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn gauge_values_survive_json() {
        let mut snap = Snapshot::new();
        snap.gauges.insert("g.fraction".into(), 0.1 + 0.2);
        snap.gauges.insert("g.negative".into(), -3.5);
        snap.gauges.insert("g.integral".into(), 4.0);
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }
}
