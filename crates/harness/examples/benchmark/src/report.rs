//! Metric definitions, result lines, set files and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use cbma::obs::json::JsonValue;

use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::{RunRecord, Workload};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput, real-time factor).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Report name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports all of them;
/// `latency_iqm_ms` is the typical latency of the workload's closed-loop
/// operation (a round, a 64-capture batch, or a campaign pass): the mean
/// of the middle half of a repetition's latencies.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("rounds_per_s", "1/s"),
    higher("rtf", "ratio"),
    lower("latency_iqm_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, from a traced run. A workload that does not exercise a
/// layer reports 0 for it (see README.md for which layer runs where).
pub const PER_LAYER: &[MetricDef] = &[
    higher("host.cpus", "count"),
    lower("tag.transmit_us", "us"),
    lower("tag.share", "ratio"),
    lower("channel.realize_us", "us"),
    lower("channel.mix_us", "us"),
    lower("channel.samples", "count"),
    lower("channel.mix_ns_per_tag_sample", "ns"),
    lower("channel.share", "ratio"),
    lower("rx.receive_us", "us"),
    lower("rx.frame_sync_us", "us"),
    lower("rx.user_detect_us", "us"),
    lower("rx.decode_us", "us"),
    lower("rx.sic_us", "us"),
    lower("rx.share", "ratio"),
    lower("rx.candidates", "count"),
    lower("rx.probes", "count"),
    lower("rx.decode_failures", "count"),
    higher("rx.sic_recovered", "count"),
    higher("rx.useful_decode_ratio", "ratio"),
    higher("rx.runtime.mono_rtf", "ratio"),
    higher("rx.runtime.speedup_over_mono", "ratio"),
    higher("rx.runtime.pool_utilization", "ratio"),
    lower("rx.runtime.park_share", "ratio"),
    lower("rx.runtime.steal_rate", "ratio"),
    higher("rx.runtime.scaling_efficiency", "ratio"),
    lower("sim.settle_us", "us"),
    lower("sim.round_p50_ms", "ms"),
    lower("sim.round_p99_ms", "ms"),
    lower("sim.fer", "ratio"),
    lower("mac.adapt_ms", "ms"),
    lower("mac.control_rounds", "count"),
    lower("mac.impedance_steps", "count"),
    higher("harness.parallel_efficiency", "ratio"),
    lower("harness.manifest_bytes", "bytes"),
    lower("obs.trace_overhead", "ratio"),
    lower("obs.spans_dropped", "count"),
];

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The unit of a metric reported under `name`.
fn unit_of(name: &str) -> &'static str {
    def_of(name).map_or("", |d| d.unit)
}

fn object(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {"value": v, "unit": u}}` for a run's metrics.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|&(name, value)| {
                let v = object([
                    ("value", JsonValue::Float(value)),
                    ("unit", JsonValue::Str(unit_of(name).into())),
                ]);
                (name.to_string(), v)
            })
            .collect(),
    )
}

/// The one-line result a run ends with: correctness, operation counts and
/// every metric with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: JsonValue) -> String {
    object([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::UInt(attempted)),
        ("failed", JsonValue::UInt(failed)),
        ("metrics", metrics),
    ])
    .to_json()
}

/// A run's full record, as stored in a set file.
pub fn record_json(r: &RunRecord) -> JsonValue {
    let per_rep = r
        .per_rep
        .iter()
        .map(|(name, values)| {
            let values = values.iter().map(|v| JsonValue::Float(*v)).collect();
            (name.to_string(), JsonValue::Array(values))
        })
        .collect();
    object([
        ("workload", JsonValue::Str(r.cfg.workload.name().into())),
        ("seed", JsonValue::UInt(r.cfg.seed)),
        ("traced", JsonValue::Bool(r.cfg.traced)),
        ("cpus", JsonValue::UInt(r.cpus as u64)),
        ("workers", JsonValue::UInt(r.workers as u64)),
        ("reps", JsonValue::UInt(r.reps as u64)),
        ("attempted", JsonValue::UInt(r.attempted)),
        ("failed", JsonValue::UInt(r.failed)),
        (
            "error_rate",
            JsonValue::Float(error_rate(r.attempted, r.failed)),
        ),
        ("digest", JsonValue::Str(format!("{:016x}", r.digest))),
        ("fer", JsonValue::Float(r.fer)),
        ("metrics", metrics_json(&r.metrics)),
        ("per_rep", JsonValue::Object(per_rep)),
        (
            "failures",
            JsonValue::Array(
                r.failures
                    .iter()
                    .map(|f| JsonValue::Str(f.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Failed operations over attempted ones.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Human-readable lines for one run.
pub fn summary(r: &RunRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {} {}: {} reps, cpus {}, workers {}",
        r.cfg.workload.name(),
        r.cfg.seed,
        if r.cfg.traced { "traced" } else { "untraced" },
        r.reps,
        r.cpus,
        r.workers
    );
    for (name, value) in &r.metrics {
        let (unit, better) = def_of(name).map_or(("", ""), |d| (d.unit, d.better.as_str()));
        let _ = writeln!(
            out,
            "  {name:32} {value:>14.6} {unit:6} ({better} is better)"
        );
    }
    let _ = writeln!(
        out,
        "  digest {:016x}  fer {:.4}  error_rate {} ({}/{})",
        r.digest,
        r.fer,
        error_rate(r.attempted, r.failed),
        r.failed,
        r.attempted
    );
    for failure in &r.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}

/// Appends `record` to the set file at `path` (created if missing). The
/// file stays one JSON document, `{"runs": [...]}`, and is replaced
/// atomically.
pub fn append_to_set(path: &Path, record: JsonValue) -> Result<(), String> {
    let mut runs = if path.exists() {
        read_set(path)?
    } else {
        Vec::new()
    };
    runs.push(record);
    let mut text = object([("runs", JsonValue::Array(runs))]).to_json();
    text.push('\n');
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The runs in a set file.
pub fn read_set(path: &Path) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.as_object()
        .and_then(|o| o.get("runs"))
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .ok_or_else(|| {
            format!(
                "{}: not a benchmark set file (no \"runs\" array)",
                path.display()
            )
        })
}

/// The verdict for one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 90 % of pairs by more than the parent's spread.
    Better,
    /// Within the bound.
    Same,
    /// The median worsened by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` (the change) against `a` (the parent) by the rule of
/// choosing-metrics §8. `pairs` are same-seed `(a, b)` runs.
pub fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], bound: f64, better: Better) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (qa1, qa3) = quartiles(a);
    let improves = |from: f64, to: f64| match better {
        Better::Lower => to < from,
        Better::Higher => to > from,
    };
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let every_run_better = b.iter().all(|&vb| a.iter().all(|&va| improves(va, vb)));
    if relative_spread(a) > bound || relative_spread(b) > bound {
        return if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let wins = pairs.iter().filter(|(va, vb)| improves(*va, *vb)).count();
    let resolved_gain = !pairs.is_empty()
        && wins as f64 >= 0.9 * pairs.len() as f64
        && improves(ma, mb)
        && (mb - ma).abs() > qa3 - qa1;
    if resolved_gain {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One untraced run, as read back from a set file.
struct SetRun {
    workload: String,
    seed: u64,
    failed: u64,
    digest: String,
    fer: f64,
    metrics: BTreeMap<String, f64>,
}

fn untraced_runs(path: &Path) -> Result<Vec<SetRun>, String> {
    let mut out = Vec::new();
    for run in read_set(path)? {
        let o = run.as_object().ok_or("run is not an object")?;
        if o.get("traced") == Some(&JsonValue::Bool(true)) {
            continue;
        }
        let field = |k: &str| {
            o.get(k)
                .ok_or_else(|| format!("{}: run without {k:?}", path.display()))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
            .iter()
            .filter_map(|(k, v)| {
                let value = v.as_object()?.get("value")?.as_f64()?;
                Some((k.clone(), value))
            })
            .collect();
        out.push(SetRun {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_u64().unwrap_or_default(),
            failed: field("failed")?.as_u64().unwrap_or(u64::MAX),
            digest: field("digest")?.as_str().unwrap_or_default().to_string(),
            fer: field("fer")?.as_f64().unwrap_or(f64::NAN),
            metrics,
        });
    }
    Ok(out)
}

/// Each end-to-end metric's regression bound, from `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: no end_to_end array", path.display()))?;
    metrics
        .iter()
        .map(|m| {
            let o = m.as_object().ok_or("end_to_end entry is not an object")?;
            let name = o
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without name")?;
            let bound = o
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares two set files (`a` = parent, `b` = change) row by row and
/// prints the table. Returns whether the change holds: no row worse, and
/// every same-seed pair with identical decisions and no failure. An
/// unresolved row does not fail the comparison, but the closing line
/// counts it, so it is never read as "same".
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let bounds = read_bounds(bounds)?;
    let (runs_a, runs_b) = (untraced_runs(a)?, untraced_runs(b)?);
    let mut holds = true;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    println!(
        "{:14} {:15} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let sa: Vec<&SetRun> = runs_a.iter().filter(|r| r.workload == workload).collect();
        let sb: Vec<&SetRun> = runs_b.iter().filter(|r| r.workload == workload).collect();
        if sa.is_empty() || sb.is_empty() {
            continue;
        }
        let same_seed = |ra: &SetRun| sb.iter().find(|rb| rb.seed == ra.seed).copied();
        for def in END_TO_END {
            let Some(&bound) = bounds.get(def.name) else {
                return Err(format!("BENCHMARK.json has no bound for {}", def.name));
            };
            let value = |r: &SetRun| r.metrics.get(def.name).copied();
            let va: Vec<f64> = sa.iter().filter_map(|r| value(r)).collect();
            let vb: Vec<f64> = sb.iter().filter_map(|r| value(r)).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = sa
                .iter()
                .filter_map(|ra| Some((value(ra)?, value(same_seed(ra)?)?)))
                .collect();
            let v = verdict(&va, &vb, &pairs, bound, def.better);
            holds &= v != Verdict::Worse;
            *tally.entry(v.as_str()).or_default() += 1;
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            println!(
                "{workload:14} {:15} {:>30} {:>30} {:>+7.2}% {:>6.3}  {}",
                def.name,
                cell(&va),
                cell(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                bound,
                v.as_str()
            );
        }
        for ra in &sa {
            let Some(rb) = same_seed(ra) else {
                continue;
            };
            let same = ra.digest == rb.digest && ra.fer.to_bits() == rb.fer.to_bits();
            if !(same && ra.failed == 0 && rb.failed == 0) {
                holds = false;
                println!(
                    "{workload:14} seed {}: digest {} vs {}, fer {} vs {}, failed {} vs {}",
                    ra.seed, ra.digest, rb.digest, ra.fer, rb.fer, ra.failed, rb.failed
                );
            }
        }
    }
    println!("{}", closing_line(holds, &tally));
    Ok(holds)
}

/// The verdict count and what it means, e.g. `rows: 18 same, 2
/// unresolved; no row worse, decisions identical, error_rate 0`.
fn closing_line(holds: bool, tally: &BTreeMap<&'static str, usize>) -> String {
    let counts: Vec<String> = tally.iter().map(|(v, n)| format!("{n} {v}")).collect();
    let outcome = if holds {
        "no row worse, decisions identical, error_rate 0"
    } else {
        "REGRESSION or decision mismatch"
    };
    format!("rows: {}; {outcome}", counts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let pairs = |b: &[f64]| a.iter().copied().zip(b.iter().copied()).collect::<Vec<_>>();
        // Same numbers: same.
        assert_eq!(
            verdict(&a, &a, &pairs(&a), 0.05, Better::Lower),
            Verdict::Same
        );
        // 10 % slower beyond a 5 % bound: worse.
        let slow: Vec<f64> = a.iter().map(|v| v * 1.10).collect();
        assert_eq!(
            verdict(&a, &slow, &pairs(&slow), 0.05, Better::Lower),
            Verdict::Worse
        );
        // …but better when higher is better.
        assert_eq!(
            verdict(&a, &slow, &pairs(&slow), 0.05, Better::Higher),
            Verdict::Better
        );
        // 3 % slower within a 5 % bound: same.
        let bit: Vec<f64> = a.iter().map(|v| v * 1.03).collect();
        assert_eq!(
            verdict(&a, &bit, &pairs(&bit), 0.05, Better::Lower),
            Verdict::Same
        );
        // A spread wider than the bound cannot be judged.
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&noisy, &noisy, &[], 0.05, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn closing_line_counts_unresolved_rows() {
        let tally = BTreeMap::from([("same", 18), ("unresolved", 2)]);
        assert_eq!(
            closing_line(true, &tally),
            "rows: 18 same, 2 unresolved; no row worse, decisions identical, error_rate 0"
        );
        assert!(closing_line(false, &tally).ends_with("REGRESSION or decision mismatch"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json above the package");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let doc = doc.as_object().unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[key].as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let e = entry.as_object().unwrap();
                assert_eq!(e["name"].as_str(), Some(def.name));
                assert_eq!(e["unit"].as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    e["better"].as_str(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
