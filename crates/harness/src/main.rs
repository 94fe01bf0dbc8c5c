//! The campaign runner CLI.
//!
//! ```text
//! cbma-harness [--tier fast|full] [--out DIR] [--campaign NAME]...
//!              [--seed N] [--workers N] [--fresh] [--list]
//!              [--live] [--trace-out FILE]
//! ```
//!
//! Runs the selected campaigns (default: all built-ins) at the selected
//! tier, checkpointing under `<out>/.checkpoints/<campaign>.<tier>/`
//! and writing one `<out>/<campaign>.<tier>.json` manifest per campaign,
//! after which it prints that campaign's table to stdout, one row per
//! point.
//! Re-running the same build after an interruption resumes from the
//! checkpoints; a rebuilt harness recomputes them (they bind to a hash
//! of the executable), and `--fresh` wipes them first.
//!
//! `--live` streams progress to a rolling `<out>/live.json` (atomically
//! replaced, safe to poll) plus a stderr progress line, and verifies on
//! exit that the final live rollup agrees byte-for-byte with the
//! manifests. `--trace-out FILE` records one instrumented round of the
//! first selected campaign's first point and writes a Chrome
//! trace-event JSON viewable in Perfetto / `chrome://tracing`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use cbma::obs::json::JsonValue;
use cbma::obs::Tracer;
use cbma::sim::Cdf;
use cbma_bench::pct;
use cbma_harness::{
    campaigns, job_seed, run_campaign, CampaignManifest, JobCtx, LiveAggregator, LiveConfig,
    RunnerConfig, Tier,
};

struct Cli {
    tier: Tier,
    out: PathBuf,
    names: Vec<String>,
    seed: u64,
    workers: Option<usize>,
    fresh: bool,
    list: bool,
    live: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: cbma-harness [--tier fast|full] [--out DIR] [--campaign NAME]... \
[--seed N] [--workers N] [--fresh] [--list] [--live] [--trace-out FILE]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        tier: Tier::Fast,
        out: PathBuf::from("manifests"),
        names: Vec::new(),
        seed: 0xCB3A,
        workers: None,
        fresh: false,
        list: false,
        live: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--tier" => {
                let v = value("--tier")?;
                cli.tier = Tier::parse(&v).ok_or_else(|| format!("unknown tier {v:?}\n{USAGE}"))?;
            }
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--campaign" => cli.names.push(value("--campaign")?),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                cli.workers = Some(
                    v.parse()
                        .map_err(|_| format!("--workers expects an integer, got {v:?}"))?,
                );
            }
            "--fresh" => cli.fresh = true,
            "--list" => cli.list = true,
            "--live" => cli.live = true,
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if cli.list {
        println!("built-in campaigns ({} tier):", cli.tier);
        for c in campaigns::all(cli.tier) {
            println!(
                "  {:<22} {} points × {} replicates × {} rounds — {} ({})",
                c.name,
                c.points.len(),
                c.replicates,
                c.rounds,
                c.description,
                c.paper_ref
            );
        }
        return ExitCode::SUCCESS;
    }

    let names: Vec<String> = if cli.names.is_empty() {
        campaigns::CAMPAIGN_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        cli.names.clone()
    };

    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("cannot create output directory {}: {e}", cli.out.display());
        return ExitCode::FAILURE;
    }

    let aggregator = if cli.live {
        let mut live_cfg = LiveConfig::new(cli.out.join("live.json"));
        live_cfg.progress = true;
        match LiveAggregator::start(live_cfg) {
            Ok(agg) => Some(agg),
            Err(e) => {
                eprintln!("cannot start live aggregator: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut manifests: Vec<CampaignManifest> = Vec::new();
    for name in &names {
        let Some(campaign) = campaigns::by_name(name, cli.tier) else {
            eprintln!(
                "unknown campaign {name:?} (available: {})",
                campaigns::CAMPAIGN_NAMES.join(", ")
            );
            return ExitCode::FAILURE;
        };

        let checkpoint_dir = cli
            .out
            .join(".checkpoints")
            .join(format!("{}.{}", campaign.name, campaign.tier));
        if cli.fresh {
            let _ = std::fs::remove_dir_all(&checkpoint_dir);
        }

        let mut cfg = RunnerConfig {
            root_seed: cli.seed,
            checkpoint_dir: Some(checkpoint_dir),
            live: aggregator.as_ref().map(LiveAggregator::publisher),
            ..RunnerConfig::default()
        };
        if let Some(w) = cli.workers {
            cfg.workers = w.max(1);
        }

        eprintln!(
            "running {} ({}, {} tier): {} points × {} replicates × {} rounds",
            campaign.name,
            campaign.paper_ref,
            campaign.tier,
            campaign.points.len(),
            campaign.replicates,
            campaign.rounds
        );
        let started = std::time::Instant::now();
        let manifest = match run_campaign(&campaign, &cfg) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("campaign {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = cli
            .out
            .join(format!("{}.{}.json", manifest.campaign, manifest.tier));
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }

        let fers: Vec<f64> = manifest.points.iter().map(|p| p.totals.fer()).collect();
        let (lo, hi) = fers
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &f| (lo.min(f), hi.max(f)));
        eprintln!(
            "  wrote {} ({} points, FER {:.1}%–{:.1}%, {:.1}s)",
            path.display(),
            manifest.points.len(),
            lo * 100.0,
            hi * 100.0,
            started.elapsed().as_secs_f64()
        );
        print!("{}", table(&manifest));
        manifests.push(manifest);
    }

    if let Some(path) = &cli.trace_out {
        if let Err(msg) = write_trace(path, &names[0], cli.tier, cli.seed) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("  wrote {} (Chrome trace-event JSON)", path.display());
    }

    if let Some(agg) = aggregator {
        let live_path = agg.path().clone();
        if let Err(e) = agg.finish() {
            eprintln!("live aggregator failed: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(msg) = verify_live(&live_path, &manifests) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "  live snapshot {} agrees with the manifests",
            live_path.display()
        );
    }
    ExitCode::SUCCESS
}

/// The campaign's table, one row per point: the label and params, the
/// pooled FER, detection rate and BER, delivered frames per round, and
/// the minimum, median and maximum of the replicate FERs.
fn table(m: &CampaignManifest) -> String {
    let heads: Vec<String> = m
        .points
        .iter()
        .map(|p| {
            let mut head = p.label.clone();
            for (k, v) in &p.params {
                let _ = match v {
                    JsonValue::Str(s) => write!(head, " {k}={s}"),
                    // Four decimals are plenty to read a row by; the
                    // manifest keeps the exact value.
                    JsonValue::Float(x) => write!(head, " {k}={}", (x * 1e4).round() / 1e4),
                    v => write!(head, " {k}={}", v.to_json()),
                };
            }
            head
        })
        .collect();
    let width = heads.iter().map(|h| h.chars().count()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n{} — {} ({} tier, {} replicates × {} rounds per point)",
        m.campaign, m.paper_ref, m.tier, m.replicates, m.rounds_per_replicate
    );
    let _ = writeln!(
        out,
        "{:<width$} {:>8} {:>8} {:>9} {:>9}   replicate FER min / median / max",
        "point", "FER", "detect", "BER", "frames/rd"
    );
    for (p, head) in m.points.iter().zip(&heads) {
        let t = &p.totals;
        let ber = t.ber().map_or("n/a".to_string(), |b| format!("{b:.2e}"));
        let fers = Cdf::from_samples(p.replicate_fers.iter().copied());
        let _ = writeln!(
            out,
            "{head:<width$} {:>8} {:>8} {ber:>9} {:>9.3}   {} / {} / {}",
            pct(t.fer()),
            pct(t.detection_rate()),
            t.throughput_frames_per_round(),
            pct(fers.quantile(0.0)),
            pct(fers.median()),
            pct(fers.quantile(1.0)),
        );
    }
    out
}

/// Records one fully-instrumented round of `name`'s first point and
/// writes a Chrome trace-event document for Perfetto.
fn write_trace(path: &PathBuf, name: &str, tier: Tier, seed: u64) -> Result<(), String> {
    let campaign =
        campaigns::by_name(name, tier).ok_or_else(|| format!("unknown campaign {name:?}"))?;
    let point = campaign
        .points
        .first()
        .ok_or_else(|| format!("campaign {name} has no points"))?;
    let tracer = Tracer::new(8192);
    let ctx = JobCtx {
        seed: job_seed(seed, campaign.name, &point.label, 0),
        replicate: 0,
    };
    let mut engine = (point.builder)(ctx);
    engine.attach_tracer(&tracer);
    engine.run_round();
    std::fs::write(path, tracer.chrome_trace(None))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Asserts the final live rollup matches every manifest's merged
/// snapshot byte-for-byte (both sides are timing-stripped already).
fn verify_live(path: &PathBuf, manifests: &[CampaignManifest]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v =
        JsonValue::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let campaigns_obj = v
        .as_object()
        .and_then(|o| o.get("campaigns"))
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{}: missing campaigns object", path.display()))?;
    for m in manifests {
        let live_merged = campaigns_obj
            .get(&m.campaign)
            .and_then(JsonValue::as_object)
            .and_then(|c| c.get("merged_snapshot"))
            .ok_or_else(|| {
                format!(
                    "{}: campaign {} missing merged_snapshot",
                    path.display(),
                    m.campaign
                )
            })?
            .to_json();
        let manifest_merged = JsonValue::parse(&m.merged_snapshot().to_json())
            .expect("snapshot serialization is valid JSON")
            .to_json();
        if live_merged != manifest_merged {
            return Err(format!(
                "live snapshot for campaign {} diverges from the manifest rollup",
                m.campaign
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_fast_tier_all_campaigns() {
        let cli = parse_cli(&args(&[])).unwrap();
        assert_eq!(cli.tier, Tier::Fast);
        assert!(cli.names.is_empty());
        assert_eq!(cli.out, PathBuf::from("manifests"));
        assert!(!cli.fresh && !cli.list && !cli.live);
        assert_eq!(cli.trace_out, None);
    }

    #[test]
    fn parses_full_invocation() {
        let cli = parse_cli(&args(&[
            "--tier",
            "full",
            "--out",
            "m",
            "--campaign",
            "fig11",
            "--campaign",
            "fig12",
            "--seed",
            "99",
            "--workers",
            "3",
            "--fresh",
            "--live",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(cli.tier, Tier::Full);
        assert_eq!(cli.out, PathBuf::from("m"));
        assert_eq!(cli.names, vec!["fig11", "fig12"]);
        assert_eq!(cli.seed, 99);
        assert_eq!(cli.workers, Some(3));
        assert!(cli.fresh);
        assert!(cli.live);
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn table_prints_one_row_per_point() {
        let mut campaign = campaigns::fig12(Tier::Fast);
        campaign.points.truncate(2);
        campaign.replicates = 2;
        campaign.rounds = 1;
        let cfg = RunnerConfig {
            workers: 1,
            ..RunnerConfig::default()
        };
        let text = table(&run_campaign(&campaign, &cfg).unwrap());
        let lines: Vec<&str> = text.lines().skip_while(|l| l.is_empty()).collect();
        assert!(lines[0].starts_with("fig12 — Fig. 12"), "{text}");
        assert!(lines[1].starts_with("point "), "{text}");
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[2].starts_with("no_interference condition=no interference "));
        assert!(lines[3].starts_with("wifi_interference condition=wifi interference "));
        assert!(lines[2].ends_with('%'), "{text}");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_cli(&args(&["--bogus"])).is_err());
        assert!(parse_cli(&args(&["--tier", "paper"])).is_err());
        assert!(parse_cli(&args(&["--seed", "abc"])).is_err());
        assert!(parse_cli(&args(&["--campaign"])).is_err());
    }
}
