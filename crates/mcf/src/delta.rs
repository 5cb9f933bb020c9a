//! Incremental ("delta") re-solves of perturbed MCF instances.
//!
//! Resilience curves and near-worst search solve thousands of instances
//! that differ from a parent by one perturbation — a few failed links, or
//! a re-drawn traffic matrix on the same fabric. Jyothi et al.
//! (arXiv 1402.2531) observe that most of the computation survives such a
//! perturbation: the enumerated path set (minus paths through failed
//! links), the optimal LP basis (minus variables for dead paths), and the
//! distance structure away from the failure. This module exploits all
//! three:
//!
//! * [`DeltaCtx`] — parent artifacts of an exact path-LP solve (shared
//!   path set, exported simplex [`Basis`], row/column layout). After an
//!   edge failure it prunes dead paths, translates the parent basis onto
//!   the pruned child LP, and warm-starts the simplex — the LP layer
//!   repairs residual infeasibility with a bounded dual pass and falls
//!   back to a cold solve on any trouble, so the answer is never less
//!   trustworthy than a from-scratch solve of the same (pruned) instance.
//! * [`PairMemo`] — per-pair path enumerations memoized across traffic
//!   matrices on a *fixed* fabric. Enumeration for a commodity depends
//!   only on `(graph, src, dst, k)`, so a path set assembled from the
//!   memo is **bit-identical** to a from-scratch build; every downstream
//!   result (FPTAS or exact) is therefore bit-identical too.
//!
//! The pruned-reuse child is deliberately conservative: a cold solve of
//! the degraded fabric would re-enumerate replacement paths around the
//! failure, while the delta keeps only surviving parent paths. The delta
//! `θ` is therefore a certified *lower bound* on the cold re-enumerated
//! `θ` (same LP, fewer columns), and exactly equals the cold solve on the
//! same pruned path set — which is what the equivalence tests pin.

use crate::exact::{self, ExactLayout};
use crate::pathset::{Commodity, PathRepr, PathSet};
use crate::{fabric_theta_key, theta_key, throughput_on_paths, Engine};
use crate::{McfError, SharedPathSet, ThroughputResult};
use dcn_cache::{KeyBuilder, SolveCtx};
use dcn_graph::NodeId;
use dcn_guard::Budget;
use dcn_lp::{Basis, BasisVar};
use dcn_model::{Topology, TrafficMatrix};
use std::collections::HashMap;
use std::sync::Arc;

/// Parent artifacts for incremental re-solves after an edge/switch
/// failure: the unfailed instance's path set, optimal simplex basis, and
/// LP layout.
///
/// ```
/// use dcn_graph::Graph;
/// use dcn_guard::prelude::*;
/// use dcn_mcf::{delta::DeltaCtx, PathSet, SharedPathSet};
/// use dcn_model::{Topology, TrafficMatrix};
/// use std::sync::Arc;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])?;
/// let topo = Topology::new(g, vec![1; 4], "sq+")?;
/// let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0)])?;
/// let ps = PathSet::k_shortest(&topo, &tm, 4, &unlimited())?;
/// let ctx = DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), &unlimited())?;
/// // Fail the chord (edge 4): re-solve incrementally off the parent.
/// let child = Topology::new(topo.graph().without_edges(&[4]), vec![1; 4], "sq")?;
/// let warm = ctx.solve_failure(&child, &unlimited())?;
/// assert!(warm.theta_lb <= ctx.parent_result().theta_lb + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DeltaCtx {
    parent: Arc<PathSet>,
    result: ThroughputResult,
    basis: Option<Basis>,
    layout: ExactLayout,
}

impl DeltaCtx {
    /// Solves the parent instance exactly and captures its basis and
    /// layout for subsequent [`DeltaCtx::solve_failure`] calls. Budget
    /// exhaustion surfaces as [`McfError::Budget`], exactly as in
    /// [`exact::solve`].
    pub fn prepare(ps: SharedPathSet, budget: &Budget) -> Result<DeltaCtx, McfError> {
        let (result, basis, layout) = exact::solve_core(&ps.0, None, budget)?;
        Ok(DeltaCtx {
            parent: ps.0,
            result,
            basis,
            layout,
        })
    }

    /// The parent (unfailed) solve this context deltas off.
    pub fn parent_result(&self) -> &ThroughputResult {
        &self.result
    }

    /// The parent path set.
    pub fn parent_paths(&self) -> &PathSet {
        &self.parent
    }

    /// Prunes the parent path set onto a degraded sibling topology:
    /// paths whose every hop still exists in the child's coalesced graph
    /// survive (with hops re-mapped to the child's edge ids and the
    /// child's — possibly reduced — trunk capacities); the rest die.
    /// Fails with [`McfError::NoPath`] when a commodity loses all of its
    /// parent paths — the signal to fall back to a from-scratch
    /// enumeration, which can route around the failure.
    pub fn pruned_pathset(&self, child: &Topology) -> Result<PathSet, McfError> {
        self.prune(child).map(|(ps, _)| ps)
    }

    /// Incremental exact re-solve after a failure: prune the parent path
    /// set onto `child`, translate the parent basis onto the pruned LP,
    /// and warm-start the simplex. The result is exactly the cold exact
    /// solve of the pruned path set (the LP layer certifies it and falls
    /// back to cold internally on any trouble), which lower-bounds the
    /// cold re-enumerated `θ` of the degraded fabric.
    pub fn solve_failure(
        &self,
        child: &Topology,
        budget: &Budget,
    ) -> Result<ThroughputResult, McfError> {
        let (child_ps, var_map) = self.prune(child)?;
        let warm = self.translate_basis(&child_ps, &var_map);
        let (result, _, _) = exact::solve_core(&child_ps, warm.as_ref(), budget)?;
        Ok(result)
    }

    /// Prunes parent paths onto the child topology. Returns the child
    /// path set plus the parent-variable → child-variable map (path
    /// variables in commodity-major order; `None` = path died).
    fn prune(&self, child: &Topology) -> Result<(PathSet, Vec<Option<usize>>), McfError> {
        let cg = child.graph().coalesced();
        // Child endpoint-pair lookup (coalesced graphs have at most one
        // edge per pair).
        let mut lookup: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for (e, &(u, v)) in cg.edges().iter().enumerate() {
            lookup.insert((u, v), e as u32);
            lookup.insert((v, u), e as u32);
        }
        let mut var_map: Vec<Option<usize>> = Vec::with_capacity(self.layout.n_paths);
        let mut child_var = 0usize;
        let mut commodities = Vec::with_capacity(self.parent.commodities().len());
        let reused_ctr = dcn_obs::counter!(dcn_obs::names::DELTA_PATHS_REUSED);
        for c in self.parent.commodities() {
            let mut paths: Vec<PathRepr> = Vec::with_capacity(c.paths.len());
            for p in &c.paths {
                // A path survives iff every hop's endpoint pair still has
                // capacity in the child.
                let remapped: Option<Vec<_>> = p
                    .nodes
                    .windows(2)
                    .map(|w| {
                        lookup.get(&(w[0], w[1])).map(|&e| {
                            let (u, _) = cg.edge(e);
                            (e, u == w[0])
                        })
                    })
                    .collect();
                match remapped {
                    Some(hops) => {
                        var_map.push(Some(child_var));
                        child_var += 1;
                        paths.push(PathRepr {
                            nodes: p.nodes.clone(),
                            hops,
                        });
                    }
                    None => var_map.push(None),
                }
            }
            if paths.is_empty() {
                dcn_obs::counter!(dcn_obs::names::DELTA_FALLBACK).inc();
                return Err(McfError::NoPath {
                    src: c.src,
                    dst: c.dst,
                });
            }
            let sp_len = paths.iter().map(|p| p.len()).min().unwrap_or(c.sp_len);
            reused_ctr.add(paths.len() as u64);
            commodities.push(Commodity {
                src: c.src,
                dst: c.dst,
                demand: c.demand,
                paths,
                sp_len,
            });
        }
        Ok((PathSet::from_parts(cg, commodities), var_map))
    }

    /// Translates the parent basis into the child LP's variable/row
    /// space: surviving path variables map through `var_map`, `θ` maps to
    /// the child's `θ`, commodity-row slacks map by commodity index, and
    /// capacity-row slacks map via the edge's endpoint pair. Slack
    /// entries whose row vanished are dropped (the LP import fills those
    /// rows with their own slacks); a *basic path variable* that died in
    /// pruning abandons the warm start entirely (`None` → cold) — the
    /// filler slacks such holes would get make the basis singular or far
    /// from optimal in practice, so the attempt would only burn a
    /// refactorization and a repair pass before falling back anyway.
    fn translate_basis(&self, child_ps: &PathSet, var_map: &[Option<usize>]) -> Option<Basis> {
        let basis = self.basis.as_ref()?;
        let basic_path_died = basis.entries().iter().any(|v| match *v {
            BasisVar::Decision(j) if j < self.layout.n_paths => {
                var_map.get(j).copied().flatten().is_none()
            }
            _ => false,
        });
        if basic_path_died {
            dcn_obs::counter!(dcn_obs::names::DELTA_FALLBACK).inc();
            return None;
        }
        // The child's capacity rows, keyed by directed-edge index: the
        // same "used directed edges in index order" rule build_lp applies.
        let mut used_dirs = vec![false; child_ps.n_directed_edges()];
        for c in child_ps.commodities() {
            for p in &c.paths {
                for &hop in &p.hops {
                    used_dirs[PathSet::dir_index(hop)] = true;
                }
            }
        }
        let child_edge_rows: Vec<usize> = (0..used_dirs.len()).filter(|&d| used_dirs[d]).collect();
        let n_comm = self.layout.n_commodities;
        let n_child_paths: usize = child_ps.total_paths();
        // Parent capacity-row index → child row index, via endpoint pair.
        let parent_g = self.parent.graph();
        let child_g = child_ps.graph();
        let mut pair_of_child_edge: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for (e, &(u, v)) in child_g.edges().iter().enumerate() {
            let key = if u < v { (u, v) } else { (v, u) };
            pair_of_child_edge.insert(key, e as u32);
        }
        let map_edge_row = |parent_row: usize| -> Option<usize> {
            let dir = *self.layout.edge_row_dirs.get(parent_row)?;
            let (u, v) = parent_g.edge((dir / 2) as u32);
            let key = if u < v { (u, v) } else { (v, u) };
            let ce = *pair_of_child_edge.get(&key)?;
            let cdir = 2 * ce as usize + (dir % 2);
            let pos = child_edge_rows.binary_search(&cdir).ok()?;
            Some(n_comm + pos)
        };
        Some(basis.translate(|&v| match v {
            BasisVar::Decision(j) if j == self.layout.n_paths => {
                Some(BasisVar::Decision(n_child_paths)) // θ
            }
            BasisVar::Decision(j) => var_map.get(j).copied().flatten().map(BasisVar::Decision),
            BasisVar::Slack(r) if r < n_comm => Some(BasisVar::Slack(r)),
            BasisVar::Slack(r) => map_edge_row(r - n_comm).map(BasisVar::Slack),
            BasisVar::Artificial(_) => None,
        }))
    }
}

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
    fn delta_solve_equals_cold_on_pruned_paths() {
        let topo = ring_with_chord();
        let tm = TrafficMatrix::permutation(&topo, &[(0, 3), (3, 0), (1, 4), (4, 1)]).unwrap();
        let ps = PathSet::k_shortest(&topo, &tm, 6, &Budget::unlimited()).unwrap();
        let ctx = DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), &Budget::unlimited()).unwrap();
        // Fail the chord (last edge).
        let child = Topology::new(
            topo.graph().without_edges(&[5]),
            vec![1; 5],
            "c5",
        )
        .unwrap();
        let warm = ctx.solve_failure(&child, &Budget::unlimited()).unwrap();
        let pruned = ctx.pruned_pathset(&child).unwrap();
        let cold = exact::solve(&pruned, &Budget::unlimited()).unwrap();
        assert_eq!(
            warm.theta_lb.to_bits(),
            cold.theta_lb.to_bits(),
            "delta θ must equal the cold solve of the same pruned path set"
        );
        // And it lower-bounds the cold re-enumerated θ of the child.
        let full = PathSet::k_shortest(&child, &tm, 6, &Budget::unlimited()).unwrap();
        let reenum = exact::solve(&full, &Budget::unlimited()).unwrap();
        assert!(warm.theta_lb <= reenum.theta_lb + 1e-9);
    }

    #[test]
    fn orphaned_commodity_signals_fallback() {
        // Square plus chord (0,2). With k = 1 the (0,2) commodity's only
        // parent path is the chord itself; failing it orphans the
        // commodity even though the child (the bare square) stays
        // connected — the delta must signal NoPath so the caller falls
        // back to a fresh enumeration.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let topo = Topology::new(g, vec![1; 4], "sq+chord").unwrap();
        let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (1, 3)]).unwrap();
        let ps = PathSet::k_shortest(&topo, &tm, 1, &Budget::unlimited()).unwrap();
        let ctx = DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), &Budget::unlimited()).unwrap();
        let child = Topology::new(topo.graph().without_edges(&[4]), vec![1; 4], "sq").unwrap();
        assert!(matches!(
            ctx.solve_failure(&child, &Budget::unlimited()),
            Err(McfError::NoPath { src: 0, dst: 2 })
        ));
    }

    #[test]
    fn delta_budget_exhaustion_is_typed() {
        let topo = ring_with_chord();
        let tm = TrafficMatrix::permutation(&topo, &[(0, 3), (3, 0)]).unwrap();
        let ps = PathSet::k_shortest(&topo, &tm, 6, &Budget::unlimited()).unwrap();
        let ctx = DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), &Budget::unlimited()).unwrap();
        let child =
            Topology::new(topo.graph().without_edges(&[5]), vec![1; 5], "c5").unwrap();
        let tiny = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            ctx.solve_failure(&child, &tiny),
            Err(McfError::Budget(_))
        ));
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
