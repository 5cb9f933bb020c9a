//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--bless]
//! ```
//!
//! Prints a header, every metric as `name value unit`, and as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). `--seconds`
//! defaults to `run_seconds` of `BENCHMARK.json`. `--bless` instead
//! rewrites the workload's golden file for the seed.

use dcn_benchmark::golden;
use dcn_benchmark::metrics::{self, Metric};
use dcn_benchmark::runner::{self, Config, Outcome};
use dcn_benchmark::workloads::{FailureSweep, Frontier, McfWorst, TubExact, NAMES};
use dcn_obs::json::Json;
use std::path::Path;
use std::process::ExitCode;

/// Worker threads the program's pool is pinned to (at most the cores).
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    bless: bool,
}

/// `run_seconds` of `BENCHMARK.json`: the run length when `--seconds` is
/// not given.
fn run_seconds() -> Result<f64, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: no run_seconds"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0`, `--trace 1`, or a bare `--trace`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => it.next().is_none(),
                    Some("1") => it.next().is_some(),
                    _ => true,
                };
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    Ok(args)
}

/// Pins the program's thread pool and clears every other `DCN_*` knob, so
/// the run measures the program's defaults. Runs before any thread exists.
fn pin_environment() -> usize {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(THREADS);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DCN_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("DCN_EXEC_THREADS", threads.to_string());
    threads
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "tub_exact" => runner::run::<TubExact>(cfg),
        "mcf_worst" => runner::run::<McfWorst>(cfg),
        "failure_sweep" => runner::run::<FailureSweep>(cfg),
        "frontier" => runner::run::<Frontier>(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn bless(workload: &str, seed: u64) -> Result<(), String> {
    let text = match workload {
        "tub_exact" => runner::bless::<TubExact>(workload, seed),
        "mcf_worst" => runner::bless::<McfWorst>(workload, seed),
        "failure_sweep" => runner::bless::<FailureSweep>(workload, seed),
        "frontier" => runner::bless::<Frontier>(workload, seed),
        other => Err(format!("unknown workload {other}")),
    }?;
    let path = golden::path(workload, seed);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let threads = pin_environment();
    if args.bless {
        return bless(&args.workload, args.seed);
    }
    let seconds = match args.seconds {
        Some(s) => s,
        None => run_seconds()?,
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# dcn-benchmark workload={} seed={} seconds={seconds} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# nproc={} threads={threads} profile={profile} rev={} loop=closed clients=1",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev()
    );
    let cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds,
        trace: args.trace,
        threads,
    };
    let outcome = run(&cfg)?;
    for m in &outcome.end_to_end {
        let note = if m.name == "op_p90_ms" {
            format!(
                "  # over {} ops, each its fastest of {} passes",
                outcome.ops, outcome.passes
            )
        } else {
            String::new()
        };
        println!("{}{note}", m.line());
    }
    for m in outcome.counters.iter().chain(&outcome.layers) {
        println!("{}", m.line());
    }
    if let Some(path) = &outcome.trace_file {
        println!("# trace written to {}", path.display());
    }
    let reported: Vec<Metric> = if args.trace {
        outcome
            .counters
            .iter()
            .chain(&outcome.layers)
            .cloned()
            .collect()
    } else {
        outcome.end_to_end.clone()
    };
    debug_assert_eq!(
        reported.len(),
        if args.trace {
            metrics::per_layer().len()
        } else {
            metrics::END_TO_END.len()
        }
    );
    println!(
        "{}",
        metrics::summary_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &reported
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
