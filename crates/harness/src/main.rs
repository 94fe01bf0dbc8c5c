//! The campaign runner CLI.
//!
//! ```text
//! cbma-harness [--tier fast|full] [--out DIR] [--campaign NAME]...
//!              [--seed N] [--workers N] [--fresh] [--list]
//!              [--live] [--trace-out FILE]
//!              [--streaming inline|worksteal[:N][:pin]]
//! ```
//!
//! Runs the selected campaigns (default: all built-ins) at the selected
//! tier, checkpointing under `<out>/.checkpoints/<campaign>/` and writing
//! one `<out>/<campaign>.<tier>.json` manifest per campaign. Re-running
//! after an interruption resumes from the checkpoints; `--fresh` wipes
//! them first.
//!
//! `--live` streams progress to a rolling `<out>/live.json` (atomically
//! replaced, safe to poll) plus a stderr progress line, and verifies on
//! exit that the final live rollup agrees byte-for-byte with the
//! manifests. `--trace-out FILE` records one instrumented round of the
//! first selected campaign's first point and writes a Chrome
//! trace-event JSON viewable in Perfetto / `chrome://tracing`.
//! `--streaming` measures through the streaming receiver runtime with
//! the given scheduler — the manifests are byte-identical to the
//! round-synchronous default (and the trace, when requested, shows the
//! flowgraph's runtime spans instead of the monolithic capture tree).
//! `inline` decides every capture on the calling thread;
//! `worksteal[:N][:pin]` decides the captures on a fixed pool of N
//! workers (default: one per CPU), optionally pinned round-robin onto
//! CPUs.

use std::path::PathBuf;
use std::process::ExitCode;

use cbma::obs::json::JsonValue;
use cbma::obs::Tracer;
use cbma::rx::Scheduler;
use cbma::sim::StreamingConfig;
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
    streaming: Option<Scheduler>,
}

const USAGE: &str = "usage: cbma-harness [--tier fast|full] [--out DIR] [--campaign NAME]... \
[--seed N] [--workers N] [--fresh] [--list] [--live] [--trace-out FILE] \
[--streaming inline|worksteal[:N][:pin]]";

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
        streaming: None,
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
            "--streaming" => {
                let v = value("--streaming")?;
                cli.streaming = Some(Scheduler::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown streaming scheduler {v:?} (valid: {})\n{USAGE}",
                        Scheduler::VALID_NAMES
                    )
                })?);
            }
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
                "  {:<8} {:<24} {} points × {} replicates × {} rounds — {}",
                c.name,
                c.paper_ref,
                c.points.len(),
                c.replicates,
                c.rounds,
                c.description
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

        let checkpoint_dir = cli.out.join(".checkpoints").join(format!(
            "{}.{}",
            campaign.name, campaign.tier
        ));
        if cli.fresh {
            let _ = std::fs::remove_dir_all(&checkpoint_dir);
        }

        let mut cfg = RunnerConfig {
            root_seed: cli.seed,
            checkpoint_dir: Some(checkpoint_dir),
            live: aggregator.as_ref().map(LiveAggregator::publisher),
            streaming: cli.streaming.map(|scheduler| StreamingConfig {
                scheduler,
                ..StreamingConfig::default()
            }),
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
        let (lo, hi) = fers.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &f| {
            (lo.min(f), hi.max(f))
        });
        eprintln!(
            "  wrote {} ({} points, FER {:.1}%–{:.1}%, {:.1}s)",
            path.display(),
            manifest.points.len(),
            lo * 100.0,
            hi * 100.0,
            started.elapsed().as_secs_f64()
        );
        manifests.push(manifest);
    }

    if let Some(path) = &cli.trace_out {
        if let Err(msg) = write_trace(path, &names[0], cli.tier, cli.seed, cli.streaming) {
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

/// Records one fully-instrumented round of `name`'s first point and
/// writes a Chrome trace-event document for Perfetto. With a streaming
/// scheduler, the round runs through the flowgraph so the trace shows
/// its runtime spans (one `stage_run` per capture under `flowgraph`
/// inline; `worker`, `stage_run` and `stage_wait` on the work-stealing
/// pool) instead of the monolithic capture tree.
fn write_trace(
    path: &PathBuf,
    name: &str,
    tier: Tier,
    seed: u64,
    streaming: Option<Scheduler>,
) -> Result<(), String> {
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
    match streaming {
        Some(scheduler) => {
            let cfg = StreamingConfig {
                width: 1,
                scheduler,
            };
            engine.run_streaming(1, &cfg);
        }
        None => {
            engine.run_round();
        }
    }
    std::fs::write(path, tracer.chrome_trace(None))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Asserts the final live rollup matches every manifest's merged
/// snapshot byte-for-byte (both sides are timing-stripped already).
fn verify_live(path: &PathBuf, manifests: &[CampaignManifest]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = JsonValue::parse(&text)
        .map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
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
        assert_eq!(cli.streaming, None);
    }

    #[test]
    fn parses_full_invocation() {
        let cli = parse_cli(&args(&[
            "--tier", "full", "--out", "m", "--campaign", "fig11", "--campaign", "fig12",
            "--seed", "99", "--workers", "3", "--fresh", "--live", "--trace-out", "t.json",
            "--streaming", "inline",
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
        assert_eq!(cli.streaming, Some(Scheduler::Inline));
    }

    #[test]
    fn parses_inline_streaming_scheduler() {
        let cli = parse_cli(&args(&["--streaming", "inline"])).unwrap();
        assert_eq!(cli.streaming, Some(Scheduler::Inline));
    }

    #[test]
    fn parses_worksteal_streaming_schedulers() {
        for (flag, workers, pin) in [
            ("worksteal", 0, false),
            ("worksteal:4", 4, false),
            ("worksteal:pin", 0, true),
            ("worksteal:4:pin", 4, true),
        ] {
            let cli = parse_cli(&args(&["--streaming", flag])).unwrap();
            assert_eq!(
                cli.streaming,
                Some(Scheduler::WorkStealing { workers, pin }),
                "{flag}"
            );
            // The CLI name round-trips through Scheduler::name.
            assert_eq!(cli.streaming.unwrap().name(), flag);
        }
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_cli(&args(&["--bogus"])).is_err());
        assert!(parse_cli(&args(&["--tier", "paper"])).is_err());
        assert!(parse_cli(&args(&["--seed", "abc"])).is_err());
        assert!(parse_cli(&args(&["--campaign"])).is_err());
        assert!(parse_cli(&args(&["--streaming"])).is_err());
        assert!(parse_cli(&args(&["--streaming", "coalesced"])).is_err());
        assert!(parse_cli(&args(&["--streaming", "worksteal:x"])).is_err());
        // Unknown schedulers — including the retired thread-per-stage
        // one — name the valid set.
        for name in ["threaded", "coalesced"] {
            let err = parse_cli(&args(&["--streaming", name]))
                .err()
                .expect("unknown scheduler must be rejected");
            assert!(
                err.contains(Scheduler::VALID_NAMES),
                "error should list valid schedulers: {err}"
            );
        }
    }
}
