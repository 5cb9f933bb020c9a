//! One benchmark run: set up, time whole passes of ops in a closed loop,
//! check every output, and (traced) replay one pass layer by layer.

use crate::golden::{self, Golden};
use crate::metrics::{self, Metric, COUNTERS, LAYERS};
use crate::stats;
use crate::trace::{OpLayers, Recorder};
use crate::workloads::{OpCounters, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups are repeated at least `MIN_SETUPS` times and until they have
/// taken `SETUP_SECS` in all; `setup_s` is the median. Set-ups of a few
/// milliseconds are repeated hundreds of times, so the median does not
/// follow a single scheduling hiccup.
const MIN_SETUPS: usize = 3;
const SETUP_SECS: f64 = 1.0;
/// Timed passes at least; an op's latency is its fastest pass.
const MIN_PASSES: usize = 3;

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (for golden files and the trace file).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed op time to accumulate before stopping (in whole passes).
    pub seconds: f64,
    /// Replay one pass layer by layer and write a trace.
    pub trace: bool,
    /// Worker threads of the program's pool (`DCN_EXEC_THREADS`).
    pub threads: usize,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops issued: timed and replayed ops.
    pub attempted: u64,
    /// Ops per pass, the sample behind the latency percentiles.
    pub ops: u64,
    /// Timed passes.
    pub passes: u64,
    /// Ops that errored or failed an output check.
    pub failed: u64,
    /// Every end-to-end metric.
    pub end_to_end: Vec<Metric>,
    /// Work counters and ratios (every run).
    pub counters: Vec<Metric>,
    /// Layer times and shares (traced runs only).
    pub layers: Vec<Metric>,
    /// Where the trace was written (traced runs only).
    pub trace_file: Option<PathBuf>,
}

/// The result of one timed op.
struct Timed<O> {
    out: Result<O, String>,
    secs: f64,
    counters: OpCounters,
}

/// Runs one timed op, reading the fallback counters around it.
fn timed_op<W: Workload>(w: &W, i: usize) -> Timed<W::Out> {
    let before = OpCounters::read();
    let start = Instant::now();
    let out = w.run(i);
    let secs = start.elapsed().as_secs_f64();
    Timed {
        out,
        secs,
        counters: OpCounters::read().since(before),
    }
}

/// Checks op `i`'s output: no fallback fired, the workload's invariants
/// hold, and it matches the golden line when one is given.
pub fn check_op<W: Workload>(
    w: &W,
    i: usize,
    out: &W::Out,
    counters: &OpCounters,
    golden: Option<&str>,
) -> Result<(), String> {
    if counters.tub_fallbacks + counters.mcf_fallbacks > 0 {
        return Err(format!("budget fallback fired: {counters:?}"));
    }
    w.check(i, out, counters)?;
    if let Some(line) = golden {
        golden::compare(&w.fields(i, out), line).map_err(|e| format!("golden: {e}"))?;
    }
    Ok(())
}

/// Sums every counter in [`COUNTERS`].
fn counter_values() -> Vec<u64> {
    COUNTERS.iter().map(|c| dcn_obs::counter_value(c)).collect()
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks of 1/100 s on Linux.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("cannot parse /proc/self/stat".into()),
    }
}

/// Peak resident set size in MB, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs workload `W` as configured.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    // Set-up: built several times, timed each time; the last build is used.
    let mut setup_secs = Vec::new();
    let mut built = None;
    while setup_secs.len() < MIN_SETUPS || setup_secs.iter().sum::<f64>() < SETUP_SECS {
        let start = Instant::now();
        built = Some(W::setup(cfg.seed)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one setup ran");
    let p = w.ops();
    let golden = golden::load(&cfg.workload, cfg.seed)?;
    if let Some(g) = &golden {
        if g.len() != p {
            return Err(format!(
                "golden lists {} ops, the workload has {p}",
                g.len()
            ));
        }
    }

    // Timed loop: whole passes, at least `MIN_PASSES` and until the op time
    // reaches `seconds`. First-touch page faults and lazy initialization
    // slow the first pass only, and an op's latency is its fastest pass.
    let counters_before = counter_values();
    let cpu_before = cpu_seconds()?;
    let wall = Instant::now();
    let mut passes: Vec<Vec<Timed<W::Out>>> = Vec::new();
    let mut op_secs = 0.0;
    while passes.len() < MIN_PASSES || op_secs < cfg.seconds {
        w.begin_pass();
        let pass: Vec<_> = (0..p).map(|i| timed_op(&w, i)).collect();
        op_secs += pass.iter().map(|t| t.secs).sum::<f64>();
        passes.push(pass);
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let cpu_secs = cpu_seconds()? - cpu_before;
    let counter_deltas: Vec<u64> = counter_values()
        .iter()
        .zip(&counters_before)
        .map(|(a, b)| a - b)
        .collect();

    // Output checks, after timing: the first pass against the invariants
    // and the golden file, every later pass against it bit for bit.
    let n_ops = passes.len() * p;
    let mut failed = 0u64;
    let mut fail = |what: String| {
        eprintln!("FAILED {what}");
        failed += 1;
    };
    let reference = &passes[0];
    for (i, t) in reference.iter().enumerate() {
        let verdict = t.out.as_ref().map_err(String::clone).and_then(|out| {
            check_op(
                &w,
                i,
                out,
                &t.counters,
                golden.as_ref().and_then(|g| g.line(i)),
            )
        });
        if let Err(e) = verdict {
            fail(format!("op {i} pass 0: {e}"));
        }
    }
    for (pass_no, pass) in passes.iter().enumerate().skip(1) {
        for (i, t) in pass.iter().enumerate() {
            let fallbacks = t.counters.tub_fallbacks + t.counters.mcf_fallbacks;
            let verdict = match (&t.out, &reference[i].out) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), _) if fallbacks > 0 => {
                    Err(format!("budget fallback fired: {:?}", t.counters))
                }
                (Ok(out), Ok(first)) if out == first => Ok(()),
                (Ok(out), first) => Err(format!(
                    "output {out:?} differs from pass 0's {first:?}"
                )),
            };
            if let Err(e) = verdict {
                fail(format!("op {i} pass {pass_no}: {e}"));
            }
        }
    }

    // An op's latency is its fastest timed pass. Every pass repeats the same
    // work, so a slower pass only measures interference from other load on
    // the machine, which this filters out.
    let best_ms: Vec<f64> = (0..p)
        .map(|i| {
            passes
                .iter()
                .map(|pass| pass[i].secs * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let end_to_end = vec![
        Metric::new("ops_per_s", p as f64 * 1e3 / best_ms.iter().sum::<f64>()),
        Metric::new("op_p50_ms", stats::median(&best_ms).ok_or("no ops timed")?),
        Metric::new("op_p90_ms", stats::tail_quantile(&best_ms, 0.9)?),
        Metric::new(
            "setup_s",
            stats::median(&setup_secs).ok_or("no setup timed")?,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb()?),
    ];

    let mut counters: Vec<Metric> = COUNTERS
        .iter()
        .zip(&counter_deltas)
        .map(|(name, &d)| Metric::new(name, d as f64 / n_ops as f64))
        .collect();
    let delta = |name: &str| {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .map_or(0, |i| counter_deltas[i])
    };
    let (hits, misses) = (
        delta(dcn_obs::names::CACHE_HIT),
        delta(dcn_obs::names::CACHE_MISS),
    );
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    counters.push(Metric::new(metrics::CACHE_HIT_RATE, hit_rate));
    counters.push(Metric::new(
        metrics::EXEC_UTILIZATION,
        cpu_secs / (cfg.threads as f64 * wall_secs),
    ));

    let mut attempted = n_ops as u64;
    let mut layers = Vec::new();
    let mut trace_file = None;
    if cfg.trace {
        let mut rec = Recorder::new();
        let mut replayed: Vec<OpLayers> = Vec::with_capacity(p);
        w.begin_replay();
        for (i, expected) in reference.iter().enumerate() {
            let (out, op_layers) = rec.op(i, |rec| w.replay(i, rec));
            attempted += 1;
            match (out, &expected.out) {
                (Ok(r), Ok(o)) if r == *o => {}
                (r, o) => fail(format!("op {i} replay: {r:?} is not the op's {o:?}")),
            }
            replayed.push(op_layers);
        }
        let replayed_ms: f64 = replayed.iter().map(|r| r.op_ms).sum();
        let mut covered = 0.0;
        for (l, layer) in LAYERS.iter().enumerate() {
            // Per op that calls the layer; 0 when no op does.
            let per_op: Vec<f64> = replayed
                .iter()
                .map(|r| r.ms[l])
                .filter(|&ms| ms > 0.0)
                .collect();
            let share = per_op.iter().fold(0.0, |a, b| a + b) / replayed_ms;
            covered += share;
            layers.push(Metric::new(
                &format!("{layer}_ms"),
                stats::median(&per_op).unwrap_or(0.0),
            ));
            layers.push(Metric::new(&format!("{layer}.share"), share));
        }
        layers.push(Metric::new(metrics::OTHER_SHARE, 1.0 - covered));
        let probes: u64 = replayed.iter().map(|r| r.probes).sum();
        layers.push(Metric::new(
            metrics::PROBES_PER_OP,
            probes as f64 / p as f64,
        ));
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", cfg.workload, cfg.seed));
        rec.write_perfetto(&path, &cfg.workload)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = Some(path);
    }

    Ok(Outcome {
        attempted,
        ops: p as u64,
        passes: passes.len() as u64,
        failed,
        end_to_end,
        counters,
        layers,
        trace_file,
    })
}

/// Runs one pass of `W` on `seed`, checks it against the invariants, and
/// returns its golden file text.
pub fn bless<W: Workload>(workload: &str, seed: u64) -> Result<String, String> {
    let mut w = W::setup(seed)?;
    w.begin_pass();
    let mut text = format!("# {workload} seed {seed}: one line per op of a pass\n");
    for i in 0..w.ops() {
        let t = timed_op(&w, i);
        let out = t.out.map_err(|e| format!("op {i}: {e}"))?;
        check_op(&w, i, &out, &t.counters, None).map_err(|e| format!("op {i}: {e}"))?;
        text.push_str(&golden::render(i, &w.fields(i, &out)));
        text.push('\n');
    }
    // A blessed file must read back as what it was written from.
    Golden::parse(&text)?;
    Ok(text)
}
