//! CI bench-regression gate for the `bench_summary` artifacts.
//!
//! Compares a freshly generated summary (`BENCH_user_detect.json` by
//! default, or `BENCH_streaming.json` when passed explicitly) against
//! its committed `ci/*.baseline.json` and exits non-zero when anything
//! regressed by more than the tolerance (default 15 %).
//!
//! CI runners and developer machines differ in absolute speed, so raw
//! ns/op comparisons across hosts are meaningless. The gate therefore
//! checks two hardware-independent views:
//!
//! 1. **Median-normalized case times.** For every case present in both
//!    files it forms `r = candidate_ns / baseline_ns`; the median `r`
//!    across all cases estimates the machine-speed factor, and a case
//!    fails only when its own `r` exceeds `median · (1 + tolerance)` —
//!    i.e. it got slower *relative to everything else in the same run*.
//! 2. **Headline ratios.** Every `*speedup*`/`*scaling*` key in the
//!    baseline is a ratio of two measurements on the same host, so it
//!    transfers across machines and must stay above
//!    `baseline · (1 − tolerance)` raw. `realtime_*`/`*rtf*` keys are
//!    air-time over wall-time — absolute speeds — so the candidate is
//!    first multiplied by the machine-speed factor from (1) before the
//!    same floor applies (an aggregate-RTF regression therefore fails
//!    the gate even on a slower host, but a slower host alone does not).
//!    A `scaling_efficiency_w{N}*` key is skipped when the candidate ran
//!    on fewer than N CPUs (its `cpus` field): `bench_summary` does not
//!    record scaling a host cannot exhibit.
//!
//! Usage: `bench_gate [baseline.json] [candidate.json]`; the tolerance
//! can be overridden with `CBMA_BENCH_GATE_TOLERANCE` (e.g. `0.25`).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Minimal extractor for the flat JSON `bench_summary` writes: top-level
/// `"key": number` pairs plus the `cases` array of
/// `{"name": ..., "mean_ns_per_op": ...}` objects. Not a general JSON
/// parser — it only understands its sibling writer's output.
#[derive(Debug, Default)]
struct Summary {
    ratios: BTreeMap<String, f64>,
    cases: BTreeMap<String, f64>,
    /// The host CPU count the summary recorded, if any.
    cpus: Option<usize>,
}

fn parse_summary(text: &str) -> Summary {
    let mut out = Summary::default();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("{\"name\": \"") {
            // A case row: {"name": "x", "mean_ns_per_op": 1.0, "iters": n}
            if let Some((name, tail)) = rest.split_once('"') {
                if let Some(ns) = tail
                    .split("\"mean_ns_per_op\": ")
                    .nth(1)
                    .and_then(|v| v.split(&[',', '}'][..]).next())
                    .and_then(|v| v.trim().parse::<f64>().ok())
                {
                    out.cases.insert(name.to_string(), ns);
                }
            }
        } else if let Some((key, value)) = line.split_once(':') {
            let key = key.trim().trim_matches('"');
            if key == "cpus" {
                out.cpus = value.trim().parse().ok();
            } else if let Ok(v) = value.trim().parse::<f64>() {
                if key.contains("speedup")
                    || key.contains("scaling")
                    || key.contains("rtf")
                    || key.starts_with("realtime")
                {
                    out.ratios.insert(key.to_string(), v);
                }
            }
        }
    }
    out
}

/// The pool width N of a `scaling_efficiency_w{N}…` key.
fn scaling_workers(key: &str) -> Option<usize> {
    let rest = key.strip_prefix("scaling_efficiency_w")?;
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "ci/BENCH_user_detect.baseline.json".into());
    let candidate_path = args
        .next()
        .unwrap_or_else(|| "BENCH_user_detect.json".into());
    let tolerance: f64 = std::env::var("CBMA_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);

    let baseline = parse_summary(
        &std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}")),
    );
    let candidate = parse_summary(
        &std::fs::read_to_string(&candidate_path)
            .unwrap_or_else(|e| panic!("read {candidate_path}: {e}")),
    );
    assert!(
        !baseline.cases.is_empty() && !candidate.cases.is_empty(),
        "no cases parsed — wrong file format?"
    );

    let shared: Vec<(&String, f64, f64)> = candidate
        .cases
        .iter()
        .filter_map(|(name, &cand)| baseline.cases.get(name).map(|&base| (name, base, cand)))
        .collect();
    assert!(
        shared.len() >= 4,
        "only {} shared cases between baseline and candidate — \
         regenerate the baseline with bench_summary",
        shared.len()
    );

    let speed_factor = median(shared.iter().map(|(_, base, cand)| cand / base).collect());
    println!(
        "bench gate: {} shared cases, machine-speed factor {speed_factor:.3}, \
         tolerance {:.0}%",
        shared.len(),
        tolerance * 100.0
    );

    // Absolute noise floor: sub-microsecond cases jitter by tens of ns from
    // timer granularity and cache state alone, which can read as a large
    // *relative* excursion on a 250 ns case. A case only fails when it is
    // both relatively outside tolerance and absolutely slower by more than
    // this margin after machine-speed normalization.
    const NOISE_FLOOR_NS: f64 = 150.0;

    let mut failures = Vec::new();
    for (name, base, cand) in &shared {
        let rel = (cand / base) / speed_factor;
        let excess_ns = cand - base * speed_factor;
        let verdict = if rel > 1.0 + tolerance && excess_ns > NOISE_FLOOR_NS {
            failures.push(format!(
                "{name}: {cand:.0} ns vs baseline {base:.0} ns — \
                 {:.0}% slower than the run-wide trend",
                (rel - 1.0) * 100.0
            ));
            "FAIL"
        } else {
            "ok"
        };
        let rel_pct = (rel - 1.0) * 100.0;
        println!("  {verdict:4} {name:28} {base:>12.0} -> {cand:>12.0} ns  (rel {rel_pct:+.1}%)");
    }

    // Every headline ratio the baseline recorded must still be present
    // and above its floor. Absolute-speed ratios (real-time factors) are
    // machine-normalized first; same-run ratios compare raw.
    for (key, &base) in &baseline.ratios {
        if let (Some(workers), Some(cpus)) = (scaling_workers(key), candidate.cpus) {
            if cpus < workers {
                println!("  skip {key:36} (candidate ran on {cpus} CPUs < {workers} workers)");
                continue;
            }
        }
        let Some(&cand) = candidate.ratios.get(key) else {
            failures.push(format!("{key}: missing from candidate"));
            continue;
        };
        let absolute_speed = key.starts_with("realtime") || key.contains("rtf");
        let adjusted = if absolute_speed {
            cand * speed_factor
        } else {
            cand
        };
        let floor = base * (1.0 - tolerance);
        let verdict = if adjusted < floor {
            failures.push(format!(
                "{key}: {adjusted:.2}x fell below {floor:.2}x (baseline {base:.2}x{})",
                if absolute_speed {
                    format!(", raw {cand:.2}x at speed factor {speed_factor:.3}")
                } else {
                    String::new()
                }
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!("  {verdict:4} {key:36} {base:>11.2}x -> {adjusted:>11.2}x");
    }

    if failures.is_empty() {
        println!("bench gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}
