//! Incremental ("delta") re-solves of perturbed MCF instances.
//!
//! Near-worst search solves many instances that differ from a parent by
//! one perturbation: a re-drawn traffic matrix on the same fabric. Jyothi
//! et al. (arXiv 1402.2531) observe that most of the computation survives
//! such a perturbation. [`PairMemo`] keeps the part that survives bit for
//! bit: per-pair path enumerations, memoized across traffic matrices on a
//! *fixed* fabric. Enumeration for a commodity depends only on
//! `(graph, src, dst, k)`, so a path set assembled from the memo is
//! **bit-identical** to a from-scratch build; every downstream result
//! (FPTAS or exact) is therefore bit-identical too.

use crate::pathset::{Commodity, PathRepr, PathSet};
use crate::{fabric_theta_key, theta_key, throughput_on_paths, Engine};
use crate::{McfError, ThroughputResult};
use dcn_cache::{KeyBuilder, SolveCtx};
use dcn_graph::NodeId;
use dcn_guard::Budget;
use dcn_model::{Topology, TrafficMatrix};
use std::collections::HashMap;

/// Per-pair path-enumeration memo for traffic-matrix perturbations on a
/// fixed fabric (the near-worst search's proposal loop).
///
/// Enumeration for a commodity depends only on `(graph, src, dst, k)`;
/// the memo caches it per ordered pair, so each proposal's path set costs
/// only the pairs never seen before — and is bit-identical to a
/// from-scratch [`PathSet::k_shortest`] build, making every downstream
/// solver result bit-identical too.
///
/// ```
/// use dcn_graph::Graph;
/// use dcn_guard::prelude::*;
/// use dcn_mcf::{delta::PairMemo, PathSet};
/// use dcn_model::{Topology, TrafficMatrix};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// let topo = Topology::new(g, vec![1; 4], "sq")?;
/// let mut memo = PairMemo::new(&topo, 4);
/// let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0)])?;
/// memo.ensure_pairs(&[(0, 2), (2, 0)], &unlimited())?;
/// let warm = memo.pathset(&tm)?;
/// let cold = PathSet::k_shortest(&topo, &tm, 4, &unlimited())?;
/// assert_eq!(warm.total_paths(), cold.total_paths());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PairMemo {
    graph: dcn_graph::Graph,
    k: usize,
    memo: HashMap<(NodeId, NodeId), PairPaths>,
    /// The fabric's part of every `mcf_theta` key the memo serves.
    theta_key: KeyBuilder,
}

#[derive(Debug, Clone)]
struct PairPaths {
    paths: Vec<PathRepr>,
    sp_len: usize,
}

impl PairMemo {
    /// An empty memo over `topo`'s coalesced graph with `k` paths per
    /// pair.
    pub fn new(topo: &Topology, k: usize) -> PairMemo {
        PairMemo {
            graph: topo.graph().coalesced(),
            k,
            memo: HashMap::new(),
            theta_key: fabric_theta_key(topo),
        }
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when no pair has been enumerated yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Enumerates (and memoizes) every listed pair not yet present. Pairs
    /// are processed in the order given, serially — callers sequence this
    /// before fanning evaluation out, so the memo can be shared read-only
    /// across threads. A pair with no path fails with
    /// [`McfError::NoPath`], as the from-scratch build would.
    pub fn ensure_pairs(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        budget: &Budget,
    ) -> Result<(), McfError> {
        // Hop resolution, identical to PathSet::build.
        let mut lookup: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            lookup.insert((u, v), e as u32);
            lookup.insert((v, u), e as u32);
        }
        for &(src, dst) in pairs {
            if self.memo.contains_key(&(src, dst)) {
                continue;
            }
            let raw = dcn_graph::ksp::k_shortest_by_slack(
                &self.graph,
                src,
                dst,
                self.k,
                u16::MAX,
                budget,
            )
            .map_err(McfError::Budget)?;
            let Some(sp_len) = raw.iter().map(|p| p.len() - 1).min() else {
                return Err(McfError::NoPath { src, dst });
            };
            let paths: Vec<PathRepr> = raw
                .into_iter()
                .map(|nodes| {
                    let hops = nodes
                        .windows(2)
                        .map(|w| {
                            let e = lookup[&(w[0], w[1])];
                            let (u, _) = self.graph.edge(e);
                            (e, u == w[0])
                        })
                        .collect();
                    PathRepr { nodes, hops }
                })
                .collect();
            self.memo.insert((src, dst), PairPaths { paths, sp_len });
        }
        Ok(())
    }

    /// Assembles the path set for `tm` from the memo — bit-identical to
    /// `PathSet::k_shortest(topo, tm, k, ..)`. Every pair of `tm` must
    /// already be memoized (via [`PairMemo::ensure_pairs`]); a missing
    /// pair fails with [`McfError::NoPath`].
    pub fn pathset(&self, tm: &TrafficMatrix) -> Result<PathSet, McfError> {
        if tm.is_empty() {
            return Err(McfError::EmptyTraffic);
        }
        let reused_ctr = dcn_obs::counter!(dcn_obs::names::DELTA_PATHS_REUSED);
        let mut commodities = Vec::with_capacity(tm.demands().len());
        for d in tm.demands() {
            let pair = self.memo.get(&(d.src, d.dst)).ok_or(McfError::NoPath {
                src: d.src,
                dst: d.dst,
            })?;
            reused_ctr.inc();
            commodities.push(Commodity {
                src: d.src,
                dst: d.dst,
                demand: d.amount,
                paths: pair.paths.clone(),
                sp_len: pair.sp_len,
            });
        }
        Ok(PathSet::from_parts(self.graph.clone(), commodities))
    }

    /// [`ksp_mcf_throughput`](crate::ksp_mcf_throughput) of `tm` on the
    /// memo's fabric, through the same `mcf_theta` cache entry: a miss
    /// solves on the memo-assembled path set, which is bit-identical to
    /// the one `ksp_mcf_throughput` enumerates, so each call serves the
    /// other. Every pair of `tm` must already be memoized.
    pub fn throughput(
        &self,
        tm: &TrafficMatrix,
        engine: Engine,
        ctx: &SolveCtx<'_>,
    ) -> Result<ThroughputResult, McfError> {
        ctx.cache.get_or_compute(
            || theta_key(self.theta_key.clone(), tm, self.k, engine),
            || throughput_on_paths(&self.pathset(tm)?, engine, ctx.budget),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use dcn_graph::Graph;

    fn ring_with_chord() -> Topology {
        let g =
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        Topology::new(g, vec![1; 5], "c5+chord").unwrap()
    }

    #[test]
    fn pair_memo_pathsets_are_bit_identical_to_cold() {
        let topo = ring_with_chord();
        let mut memo = PairMemo::new(&topo, 6);
        assert!(memo.is_empty());
        let tms = [
            TrafficMatrix::permutation(&topo, &[(0, 3), (3, 0)]).unwrap(),
            TrafficMatrix::permutation(&topo, &[(0, 3), (3, 0), (1, 4), (4, 1)]).unwrap(),
        ];
        for tm in &tms {
            let pairs: Vec<_> = tm.demands().iter().map(|d| (d.src, d.dst)).collect();
            memo.ensure_pairs(&pairs, &Budget::unlimited()).unwrap();
            let warm_ps = memo.pathset(tm).unwrap();
            let cold_ps = PathSet::k_shortest(&topo, tm, 6, &Budget::unlimited()).unwrap();
            // FPTAS on both path sets must agree bit-for-bit.
            let warm = crate::throughput_on_paths(
                &warm_ps,
                Engine::Fptas { eps: 0.05 },
                &Budget::unlimited(),
            )
            .unwrap();
            let cold = crate::throughput_on_paths(
                &cold_ps,
                Engine::Fptas { eps: 0.05 },
                &Budget::unlimited(),
            )
            .unwrap();
            assert_eq!(warm.theta_lb.to_bits(), cold.theta_lb.to_bits());
            assert_eq!(warm.theta_ub.to_bits(), cold.theta_ub.to_bits());
        }
        assert_eq!(memo.len(), 4);
        // Unseen pair → typed NoPath.
        let other = TrafficMatrix::permutation(&topo, &[(2, 4)]).unwrap();
        assert!(matches!(
            memo.pathset(&other),
            Err(McfError::NoPath { src: 2, dst: 4 })
        ));
    }

    #[test]
    fn pair_memo_throughput_shares_the_ksp_mcf_cache_entry() {
        let topo = ring_with_chord();
        let tm = TrafficMatrix::permutation(&topo, &[(0, 3), (3, 0), (1, 4), (4, 1)]).unwrap();
        let engine = Engine::Fptas { eps: 0.05 };
        let budget = Budget::unlimited();
        let cache = dcn_cache::CacheHandle::in_memory(1 << 20);
        let cached = SolveCtx::new(&cache, &budget);
        let cold = crate::ksp_mcf_throughput(&topo, &tm, 6, engine, &cached).unwrap();
        // Nothing is memoized, so only the entry `ksp_mcf_throughput`
        // wrote can answer.
        let memo = PairMemo::new(&topo, 6);
        let hit = memo.throughput(&tm, engine, &cached).unwrap();
        assert_eq!(hit.theta_lb.to_bits(), cold.theta_lb.to_bits());
        let nocache = dcn_cache::CacheHandle::disabled();
        assert!(matches!(
            memo.throughput(&tm, engine, &SolveCtx::new(&nocache, &budget)),
            Err(McfError::NoPath { .. })
        ));
    }
}
