//! `mcf_worst`: the paper's KSP-MCF cross-check. One uncached
//! `ksp_mcf_throughput` per op on the instance's maximal-permutation
//! traffic matrix: the FPTAS at 96–192 switches on two thirds of the ops,
//! the exact simplex on small instances on the rest. The matching that
//! builds each traffic matrix runs in setup only.

use super::{OpCounters, Workload};
use crate::golden::{Field, Fields};
use crate::trace::Recorder;
use dcn_cache::prelude::unlimited_ctx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_exec::task_seed;
use dcn_guard::{validate, Budget};
use dcn_mcf::{exact, fptas, ksp_mcf_throughput, Engine, PathSet, Provenance};
use dcn_model::{Topology, TrafficMatrix};

const FAMILIES: [Family; 3] = [Family::Jellyfish, Family::Xpander, Family::FatClique];
/// `(radix, servers per switch)`.
const SHAPES: [(u32, u32); 3] = [(14, 4), (16, 5), (24, 4)];
const FPTAS: Engine = Engine::Fptas { eps: 0.05 };
/// Size classes: `(switches, K, engine, instances)`, where `instances` is
/// the random instances per family and shape. An op's cost varies by a
/// quarter or more between random instances of one shape, so a pass
/// averages over several; FatClique's construction is not random, so its
/// copies repeat one instance. 81 FPTAS and 36 exact ops per pass.
const CLASSES: [(usize, usize, Engine, usize); 5] = [
    (96, 16, FPTAS, 3),
    (128, 16, FPTAS, 3),
    (192, 16, FPTAS, 3),
    (32, 8, Engine::Exact, 2),
    (40, 8, Engine::Exact, 2),
];

struct Instance {
    label: String,
    topo: Topology,
    tm: TrafficMatrix,
    tub: f64,
    k: usize,
    engine: Engine,
}

/// Inputs of the `mcf_worst` workload.
pub struct McfWorst {
    instances: Vec<Instance>,
}

/// A KSP-MCF throughput bracket.
#[derive(Debug, Clone, PartialEq)]
pub struct McfOut {
    theta_lb: f64,
    theta_ub: f64,
    shortest_path_fraction: f64,
    provenance: Provenance,
}

impl Workload for McfWorst {
    type Out = McfOut;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut instances = Vec::new();
        for (n, k, engine, copies) in CLASSES {
            for (r, h) in SHAPES {
                for family in FAMILIES {
                    for _ in 0..copies {
                        let topo = family
                            .build(n, r, h, task_seed(seed, instances.len() as u64))
                            .map_err(|e| format!("{} r{r} h{h} n{n}: {e}", family.name()))?;
                        let t = tub(&topo, MatchingBackend::Exact, &unlimited_ctx())
                            .map_err(|e| format!("tub: {e}"))?;
                        let tm = t.traffic_matrix(&topo).map_err(|e| format!("tm: {e}"))?;
                        let tag = if engine == Engine::Exact {
                            "exact"
                        } else {
                            "fptas"
                        };
                        let label = format!(
                            "{}-r{r}h{h}-n{}-k{k}-{tag}",
                            family.name(),
                            topo.n_switches()
                        );
                        instances.push(Instance {
                            label,
                            topo,
                            tm,
                            tub: t.bound,
                            k,
                            engine,
                        });
                    }
                }
            }
        }
        Ok(McfWorst { instances })
    }

    fn ops(&self) -> usize {
        self.instances.len()
    }

    fn run(&self, i: usize) -> Result<McfOut, String> {
        let c = &self.instances[i];
        let r = ksp_mcf_throughput(&c.topo, &c.tm, c.k, c.engine, &unlimited_ctx())
            .map_err(|e| e.to_string())?;
        Ok(McfOut {
            theta_lb: r.theta_lb,
            theta_ub: r.theta_ub,
            shortest_path_fraction: r.shortest_path_fraction,
            provenance: r.provenance,
        })
    }

    fn replay(&mut self, i: usize, rec: &mut Recorder) -> Result<McfOut, String> {
        let c = &self.instances[i];
        let budget = Budget::unlimited_ref();
        let ps = rec
            .time("graph.ksp", || {
                PathSet::k_shortest(&c.topo, &c.tm, c.k, budget)
            })
            .map_err(|e| e.to_string())?;
        let r = match c.engine {
            Engine::Fptas { eps } => rec.time("mcf.fptas", || fptas::solve(&ps, eps, budget)),
            Engine::Exact => rec.time("lp.exact", || exact::solve(&ps, budget)),
        }
        .map_err(|e| e.to_string())?;
        Ok(McfOut {
            theta_lb: r.theta_lb,
            theta_ub: r.theta_ub,
            shortest_path_fraction: r.shortest_path_fraction,
            provenance: r.provenance,
        })
    }

    fn check(&self, i: usize, out: &McfOut, _: &OpCounters) -> Result<(), String> {
        let c = &self.instances[i];
        validate::check_bracket(out.theta_lb, out.theta_ub, validate::DEFAULT_TOL)
            .map_err(|e| format!("bracket certificate: {e}"))?;
        if out.theta_lb <= 0.0 {
            return Err(format!("theta_lb {} is not positive", out.theta_lb));
        }
        if out.theta_lb > c.tub * (1.0 + validate::DEFAULT_TOL) {
            return Err(format!("theta_lb {} exceeds tub {}", out.theta_lb, c.tub));
        }
        match (c.engine, out.provenance) {
            (Engine::Exact, Provenance::Exact) if out.theta_lb == out.theta_ub => Ok(()),
            (Engine::Fptas { .. }, Provenance::Fptas { .. }) => Ok(()),
            _ => Err(format!(
                "{:?} result from a {:?} op",
                out.provenance, c.engine
            )),
        }
    }

    fn fields(&self, i: usize, out: &McfOut) -> Fields {
        let c = &self.instances[i];
        vec![
            ("case", Field::Exact(c.label.clone())),
            ("tub", Field::bits(c.tub)),
            ("theta_lb", Field::Approx(out.theta_lb)),
            ("theta_ub", Field::Approx(out.theta_ub)),
        ]
    }
}
