//! The repository benchmark: four closed-loop workloads that separate the
//! cost of the tag, channel, receiver, streaming-runtime and campaign
//! layers, end to end and — in a separate traced run — layer by layer.
//! See README.md next to this file for the metrics and workloads.
//!
//! ```text
//! cargo run --release --offline --quiet \
//!     --manifest-path crates/harness/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--json SET]
//! ... -- --compare A.json B.json [--bounds BENCHMARK.json]
//! ... -- --smoke
//! ```
//!
//! `BENCHMARK.json` names the command; a run appends
//! `--workload NAME --seed N --seconds S --trace 0|1` to it, where `S` is
//! the file's `run_seconds`: each run measures for that long. With
//! `--workload`, one workload runs in this process and the last line of
//! standard output is its result as one JSON object. Without it, the
//! binary runs itself once per workload, one child at a time, so each
//! workload's memory and allocator state stay its own. `--trace 1`
//! reports per-layer metrics instead of end-to-end ones; `--trace FILE`
//! does the same and also writes the Chrome trace for Perfetto to FILE.
//! `--json SET` appends the run's full record to a set file, which
//! `--compare` reads.

mod layers;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cbma::obs::json::JsonValue;

use crate::workloads::{RunConfig, Size, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--json SET]
       benchmark --compare A.json B.json [--bounds BENCHMARK.json]
       benchmark --smoke
workloads: paper4_rounds, dense10_sic, rx_replay64, campaign_fast";

/// Measurement budget per workload run unless `--seconds` says otherwise:
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Whether and where to trace.
#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    On,
    /// Traced, with the Chrome trace written here.
    File(PathBuf),
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    json: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run(Options),
    Compare {
        a: PathBuf,
        b: PathBuf,
        bounds: PathBuf,
    },
    Smoke,
    Help,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        json: None,
    };
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a duration"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    file => Trace::File(file.into()),
                };
            }
            "--json" => opts.json = Some(value()?.into()),
            "--compare" => {
                let a = value()?.into();
                compare = Some((a, value()?.into()));
            }
            "--bounds" => bounds = value()?.into(),
            "--smoke" => smoke = true,
            "-h" | "--help" => return Ok(Cli::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match (compare, smoke) {
        (Some((a, b)), false) => Cli::Compare { a, b, bounds },
        (None, true) => Cli::Smoke,
        (None, false) => Cli::Run(opts),
        (Some(_), true) => return Err("--compare and --smoke are separate commands".into()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match parse(&args) {
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cli::Help) => {
            println!("{USAGE}");
            true
        }
        Ok(Cli::Smoke) => smoke(),
        Ok(Cli::Compare { a, b, bounds }) => report::compare(&a, &b, &bounds).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            false
        }),
        Ok(Cli::Run(opts)) => match opts.workload {
            Some(workload) => run_one(&opts, workload),
            None => run_all(&opts),
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process; the last stdout line is its result.
fn run_one(opts: &Options, workload: Workload) -> bool {
    let cfg = RunConfig {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace != Trace::Off,
        size: Size::Full,
    };
    let record = workloads::run(&cfg);
    print!("{}", report::summary(&record));
    let mut ok = record.failed == 0;
    if let Trace::File(path) = &opts.trace {
        let trace = cbma::obs::trace::chrome_trace_events(&record.spans);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("benchmark: {}: {e}", path.display());
            ok = false;
        }
    }
    if let Some(set) = &opts.json {
        if let Err(e) = report::append_to_set(set, report::record_json(&record)) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    println!(
        "{}",
        report::result_line(
            record.attempted,
            record.failed,
            report::metrics_json(&record.metrics)
        )
    );
    ok
}

/// `trace.json` → `trace.paper4_rounds.json`.
fn per_workload_path(path: &Path, workload: Workload) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{}.{}", workload.name(), ext.to_string_lossy()),
        None => format!("{stem}.{}", workload.name()),
    };
    path.with_file_name(name)
}

/// Runs every workload, each in a child process of its own, one at a time.
fn run_all(opts: &Options) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return false;
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = std::collections::BTreeMap::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        match &opts.trace {
            Trace::Off => child.args(["--trace", "0"]),
            Trace::On => child.args(["--trace", "1"]),
            Trace::File(path) => child.arg("--trace").arg(per_workload_path(path, workload)),
        };
        if let Some(set) = &opts.json {
            child.arg("--json").arg(set);
        }
        // `output` waits for the child to exit.
        let result = child.output().ok().and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout);
            let text = text.trim_end();
            let (body, last) = text.rsplit_once('\n').unwrap_or(("", text));
            if !body.is_empty() {
                println!("{body}");
            }
            match JsonValue::parse(last) {
                Ok(JsonValue::Object(result)) => Some((out.status.success(), result)),
                _ => None,
            }
        });
        let Some((exited_ok, result)) = result else {
            eprintln!("benchmark: {} produced no result", workload.name());
            attempted += 1;
            failed += 1;
            continue;
        };
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let child_failed = result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1);
        // A child that exited non-zero failed, whatever its result says.
        failed += if exited_ok {
            child_failed
        } else {
            child_failed.max(1)
        };
        if let Some(JsonValue::Object(m)) = result.get("metrics") {
            for (name, value) in m {
                metrics.insert(format!("{}.{name}", workload.name()), value.clone());
            }
        }
    }
    println!(
        "{}",
        report::result_line(attempted, failed, JsonValue::Object(metrics))
    );
    failed == 0
}

/// Every workload at tiny size, untraced and traced, with every check on.
fn smoke() -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let record = workloads::run(&RunConfig {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                traced,
                size: Size::Tiny,
            });
            print!("{}", report::summary(&record));
            ok &= record.failed == 0 && record.attempted > 0;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, traced: bool) -> workloads::RunRecord {
        workloads::run(&RunConfig {
            workload,
            seed,
            seconds: 0.0,
            traced,
            size: Size::Tiny,
        })
    }

    #[test]
    fn cli_parses_run_arguments() {
        let args: Vec<String> = "--workload rx_replay64 --seed 3 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Cli::Run(opts)) = parse(&args) else {
            panic!("not a run");
        };
        assert_eq!(opts.workload, Some(Workload::RxReplay64));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (3, 20.0, Trace::On));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--seed".into()]).is_err());
        assert_eq!(
            per_workload_path(Path::new("out/t.json"), Workload::Dense10Sic),
            PathBuf::from("out/t.dense10_sic.json")
        );
    }

    #[test]
    fn digest_is_stable_and_follows_the_seed() {
        for workload in [Workload::Paper4Rounds, Workload::RxReplay64] {
            let a = tiny(workload, 11, false);
            let b = tiny(workload, 11, false);
            let c = tiny(workload, 12, false);
            assert_eq!(a.failed, 0, "{:?}", a.failures);
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_ne!(a.digest, c.digest, "{}", workload.name());
        }
    }

    #[test]
    fn json_output_parses() {
        let record = tiny(Workload::Paper4Rounds, 5, true);
        let line = report::result_line(
            record.attempted,
            record.failed,
            report::metrics_json(&record.metrics),
        );
        let v = JsonValue::parse(&line).expect("result line parses");
        let metrics = v.as_object().unwrap()["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), report::PER_LAYER.len());

        let dir = std::env::temp_dir().join(format!("cbma-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let set = dir.join("set.json");
        for _ in 0..2 {
            report::append_to_set(&set, report::record_json(&record)).unwrap();
        }
        let text = std::fs::read_to_string(&set).unwrap();
        assert!(JsonValue::parse(&text).is_ok());
        assert_eq!(report::read_set(&set).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn smoke_passes() {
        assert!(smoke());
    }
}
