//! `tub_exact`: the paper's metric itself. One exact, uncached
//! `dcn_core::tub` per op on Jellyfish, Xpander and FatClique instances.
//! The Hungarian matching dominates each op; APSP is a few percent.

use super::{bfs, tub_by_layers, OpCounters, TubParts, Workload};
use crate::golden::{Field, Fields};
use crate::trace::Recorder;
use dcn_cache::prelude::unlimited_ctx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_exec::task_seed;
use dcn_graph::NodeId;
use dcn_model::Topology;

const FAMILIES: [Family; 3] = [Family::Jellyfish, Family::Xpander, Family::FatClique];
/// `(radix, servers per switch)`.
const SHAPES: [(u32, u32); 3] = [(14, 4), (16, 5), (24, 4)];
/// Three size classes of equal weight, so the median op lies inside the
/// middle class and the p90 op inside the largest, not on a boundary.
const SIZES: [usize; 3] = [128, 224, 320];
/// Random instances per (family, shape, size): 108 ops per pass, enough
/// for a p90 with ten ops beyond it.
const INSTANCES: usize = 4;

/// Inputs of the `tub_exact` workload.
pub struct TubExact {
    topos: Vec<(String, Topology)>,
}

/// An exact TUB answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TubOut {
    parts: TubParts,
    backend: &'static str,
}

impl Workload for TubExact {
    type Out = TubOut;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut topos = Vec::new();
        for n in SIZES {
            for (r, h) in SHAPES {
                for family in FAMILIES {
                    for _ in 0..INSTANCES {
                        let topo = family
                            .build(n, r, h, task_seed(seed, topos.len() as u64))
                            .map_err(|e| format!("{} r{r} h{h} n{n}: {e}", family.name()))?;
                        let label = format!("{}-r{r}h{h}-n{}", family.name(), topo.n_switches());
                        topos.push((label, topo));
                    }
                }
            }
        }
        Ok(TubExact { topos })
    }

    fn ops(&self) -> usize {
        self.topos.len()
    }

    fn run(&self, i: usize) -> Result<TubOut, String> {
        let r = tub(&self.topos[i].1, MatchingBackend::Exact, &unlimited_ctx())
            .map_err(|e| e.to_string())?;
        Ok(TubOut {
            parts: TubParts {
                bound: r.bound,
                weighted_path_len: r.weighted_path_len,
                pairs: r.pairs,
            },
            backend: r.backend,
        })
    }

    fn replay(&mut self, i: usize, rec: &mut Recorder) -> Result<TubOut, String> {
        Ok(TubOut {
            parts: tub_by_layers(&self.topos[i].1, rec)?,
            backend: "hungarian",
        })
    }

    fn check(&self, i: usize, out: &TubOut, _: &OpCounters) -> Result<(), String> {
        let topo = &self.topos[i].1;
        if out.backend != "hungarian" {
            return Err(format!("backend {} instead of hungarian", out.backend));
        }
        // The pairs form a permutation of the server switches, no self-pairs.
        let mut servers = topo.switches_with_servers();
        servers.sort_unstable();
        let mut srcs: Vec<NodeId> = out.parts.pairs.iter().map(|p| p.0).collect();
        let mut dsts: Vec<NodeId> = out.parts.pairs.iter().map(|p| p.1).collect();
        srcs.sort_unstable();
        dsts.sort_unstable();
        if srcs != servers || dsts != servers {
            return Err("pairs are not a permutation of the server switches".into());
        }
        if out.parts.pairs.iter().any(|&(u, v)| u == v) {
            return Err("self-pair in the maximal permutation".into());
        }
        // The weighted path length, recomputed from our own BFS.
        let mut wpl = 0.0;
        for &(u, v) in &out.parts.pairs {
            let h = topo.servers_at(u).min(topo.servers_at(v));
            wpl += f64::from(bfs(topo, u)[v as usize]) * f64::from(h);
        }
        if wpl != out.parts.weighted_path_len {
            return Err(format!(
                "weighted path length {} but BFS gives {wpl}",
                out.parts.weighted_path_len
            ));
        }
        // The exact bound is the tightest: no looser than greedy + 2-swap.
        let greedy = tub(
            topo,
            MatchingBackend::Greedy {
                improvement_passes: 2,
            },
            &unlimited_ctx(),
        )
        .map_err(|e| format!("greedy: {e}"))?;
        if out.parts.bound > greedy.bound {
            return Err(format!(
                "exact bound {} > greedy bound {}",
                out.parts.bound, greedy.bound
            ));
        }
        Ok(())
    }

    fn fields(&self, i: usize, out: &TubOut) -> Fields {
        vec![
            ("case", Field::Exact(self.topos[i].0.clone())),
            ("bound", Field::bits(out.parts.bound)),
            ("wpl", Field::bits(out.parts.weighted_path_len)),
        ]
    }
}
