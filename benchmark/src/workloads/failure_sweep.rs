//! `failure_sweep`: Figure 10. One `failure_sweep` call (one failure
//! fraction, four samples) per op, all ops of a pass sharing one in-memory
//! cache. Exercises matching on many near-identical perturbed instances,
//! cache writes beside reads, and the `dcn-exec` fan-out over samples.

use super::{tub_by_layers, OpCounters, Workload};
use crate::golden::{Field, Fields};
use crate::trace::Recorder;
use dcn_cache::{CacheHandle, SolveCtx, DEFAULT_CACHE_BYTES};
use dcn_core::frontier::Family;
use dcn_core::resilience::{failure_sweep, FailurePoint};
use dcn_core::MatchingBackend;
use dcn_exec::task_seed;
use dcn_model::Topology;
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;

const H: u32 = 4;
const RADIXES: [u32; 2] = [16, 32];
/// `(switches, random topologies per radix)`. The small fabrics get four
/// times the topologies, so the median op lies inside the small class and
/// the p90 op inside the large one rather than on the boundary between
/// them; 120 ops per pass.
const SIZES: [(usize, usize); 2] = [(128, 8), (256, 2)];
const FRACTIONS: [f64; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
/// Samples per op, two per pool thread: enough work per op that starting
/// the pool's threads does not dominate it.
const TRIALS: u32 = 4;
const BACKEND: MatchingBackend = MatchingBackend::Auto { exact_below: 500 };

/// One failure-curve point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointOut {
    fraction: f64,
    nominal: f64,
    actual: Option<f64>,
    trials: u32,
}

impl From<FailurePoint> for PointOut {
    fn from(p: FailurePoint) -> PointOut {
        PointOut {
            fraction: p.fraction,
            nominal: p.nominal,
            actual: p.actual,
            trials: p.trials,
        }
    }
}

struct Op {
    topo: usize,
    fraction: f64,
    seed: u64,
}

/// Inputs of the `failure_sweep` workload.
pub struct FailureSweep {
    topos: Vec<(String, Topology)>,
    ops: Vec<Op>,
    cache: CacheHandle,
    /// Replay's stand-in for the cache hit on each unfailed parent's tub.
    replay_theta0: Vec<Option<f64>>,
}

impl Workload for FailureSweep {
    type Out = PointOut;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut topos = Vec::new();
        let mut ops = Vec::new();
        for (n, instances) in SIZES {
            for r in RADIXES {
                for _ in 0..instances {
                    let t = topos.len();
                    let topo = Family::Jellyfish
                        .build(n, r, H, task_seed(seed, t as u64))
                        .map_err(|e| format!("jellyfish r{r} n{n}: {e}"))?;
                    topos.push((
                        format!("jellyfish-r{r}h{H}-n{}-t{t}", topo.n_switches()),
                        topo,
                    ));
                    for fraction in FRACTIONS {
                        let seed = task_seed(seed, 1000 + ops.len() as u64);
                        ops.push(Op {
                            topo: t,
                            fraction,
                            seed,
                        });
                    }
                }
            }
        }
        let n_topos = topos.len();
        Ok(FailureSweep {
            topos,
            ops,
            cache: CacheHandle::in_memory(DEFAULT_CACHE_BYTES),
            replay_theta0: vec![None; n_topos],
        })
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn begin_pass(&mut self) {
        self.cache = CacheHandle::in_memory(DEFAULT_CACHE_BYTES);
    }

    fn run(&self, i: usize) -> Result<PointOut, String> {
        let op = &self.ops[i];
        let ctx = SolveCtx::unlimited(&self.cache);
        let points = failure_sweep(
            &self.topos[op.topo].1,
            &[op.fraction],
            TRIALS,
            BACKEND,
            op.seed,
            &ctx,
        )
        .map_err(|e| e.to_string())?;
        points
            .first()
            .map(|&p| p.into())
            .ok_or_else(|| "empty sweep".to_string())
    }

    fn begin_replay(&mut self) {
        self.replay_theta0.fill(None);
    }

    fn replay(&mut self, i: usize, rec: &mut Recorder) -> Result<PointOut, String> {
        let op = &self.ops[i];
        let topo = &self.topos[op.topo].1;
        if topo.switches_with_servers().len() >= 500 {
            return Err("replay covers the exact matching backend only".into());
        }
        let theta0 = match self.replay_theta0[op.topo] {
            Some(t) => t,
            None => {
                let t = tub_by_layers(topo, rec)?.bound.min(1.0);
                self.replay_theta0[op.topo] = Some(t);
                t
            }
        };
        let mut samples = Vec::new();
        for s in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64(task_seed(op.seed, u64::from(s)));
            samples.push(
                match rec.time("topo.fail", || {
                    fail_random_links(topo, op.fraction, &mut rng)
                }) {
                    Ok(degraded) => Some(tub_by_layers(&degraded, rec)?.bound.min(1.0)),
                    Err(_) => None,
                },
            );
        }
        let ok = samples.iter().flatten().count() as u32;
        let sum: f64 = samples.iter().flatten().sum();
        Ok(PointOut {
            fraction: op.fraction,
            nominal: (1.0 - op.fraction) * theta0,
            actual: (ok > 0).then(|| sum / ok as f64),
            trials: ok,
        })
    }

    fn check(&self, i: usize, out: &PointOut, counters: &OpCounters) -> Result<(), String> {
        let op = &self.ops[i];
        if u64::from(out.trials) + counters.disconnected != u64::from(TRIALS) {
            return Err(format!(
                "{} trials + {} skipped samples != {TRIALS} requested",
                out.trials, counters.disconnected
            ));
        }
        if out.fraction != op.fraction {
            return Err(format!(
                "point for fraction {} instead of {}",
                out.fraction, op.fraction
            ));
        }
        if !(out.nominal > 0.0 && out.nominal <= 1.0 - op.fraction) {
            return Err(format!("nominal {} outside (0, 1 - f]", out.nominal));
        }
        match out.actual {
            Some(a) if a > 0.0 && a <= 1.0 => Ok(()),
            None if out.trials == 0 => Ok(()),
            other => Err(format!("actual {other:?} with {} trials", out.trials)),
        }
    }

    fn fields(&self, i: usize, out: &PointOut) -> Fields {
        let op = &self.ops[i];
        vec![
            ("case", Field::Exact(self.topos[op.topo].0.clone())),
            ("f", Field::bits(op.fraction)),
            ("trials", Field::Exact(out.trials.to_string())),
            ("nominal", Field::Approx(out.nominal)),
            (
                "actual",
                out.actual
                    .map_or(Field::Exact("none".into()), Field::Approx),
            ),
        ]
    }
}
