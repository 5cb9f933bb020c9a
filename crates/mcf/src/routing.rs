//! Deployable routing models: ECMP and VLB.
//!
//! The LP/FPTAS backends compute what an *ideal* (fractional,
//! traffic-aware) routing could achieve. Deployed fabrics run simpler
//! schemes; §6 of the paper poses "how well does a proposed routing
//! design utilize capacity?" as a use case for tub. This module provides
//! the two classical reference points:
//!
//! * [`ecmp_throughput`] — per-hop equal-cost multi-path: at every switch,
//!   traffic toward a destination splits equally across all outgoing links
//!   that lie on *some* shortest path to it. Optimal for Clos; generally
//!   suboptimal on expanders.
//! * [`vlb_throughput`] — Valiant load balancing: every flow is routed in
//!   two ECMP stages through a uniformly random intermediate switch.
//!   Oblivious and worst-case robust, at the cost of doubling path length.
//!
//! Both return the throughput `θ(T)`: the largest scale of the traffic
//! matrix that keeps every directed link within capacity under the fixed
//! routing function.

use crate::McfError;
use dcn_graph::{Graph, NodeId};
use dcn_model::{Topology, TrafficMatrix};

/// Per-destination ECMP splitting state on a coalesced graph.
struct EcmpState {
    graph: Graph,
    n: usize,
}

impl EcmpState {
    fn new(topo: &Topology) -> Self {
        let graph = topo.graph().coalesced();
        let n = graph.n();
        EcmpState { graph, n }
    }

    /// Adds the link loads induced by routing `amount` from `src` to `dst`
    /// with per-hop ECMP splitting. `loads` is indexed by directed edge
    /// (`2*edge + dir`). Returns `false` if `dst` is unreachable.
    fn route(&self, src: NodeId, dst: NodeId, amount: f64, loads: &mut [f64]) -> bool {
        // Distances to the destination drive next-hop selection.
        let dist = self.graph.bfs_distances(dst);
        if dist[src as usize] == u16::MAX {
            return false;
        }
        // Process nodes in decreasing distance so mass propagates forward.
        let mut mass = vec![0.0f64; self.n];
        mass[src as usize] = amount;
        let mut order: Vec<NodeId> = (0..self.n as NodeId).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(dist[u as usize]));
        for &u in &order {
            let m = mass[u as usize];
            if m <= 0.0 || u == dst || dist[u as usize] == u16::MAX {
                continue;
            }
            // Next hops: neighbors one step closer, weighted by capacity
            // (a trunk of capacity c is c parallel equal-cost links).
            let mut total_cap = 0.0;
            for (v, e) in self.graph.neighbors(u) {
                if dist[v as usize] + 1 == dist[u as usize] {
                    total_cap += self.graph.capacity(e);
                }
            }
            debug_assert!(total_cap > 0.0, "no downhill neighbor on a shortest path");
            for (v, e) in self.graph.neighbors(u) {
                if dist[v as usize] + 1 == dist[u as usize] {
                    let share = m * self.graph.capacity(e) / total_cap;
                    let (a, _) = self.graph.edge(e);
                    let dir_idx = 2 * e as usize + usize::from(a == u);
                    loads[dir_idx] += share;
                    mass[v as usize] += share;
                }
            }
        }
        true
    }

    /// Throughput given accumulated loads at TM scale 1.
    fn theta(&self, loads: &[f64]) -> f64 {
        let mut worst = f64::INFINITY;
        for (i, &l) in loads.iter().enumerate() {
            if l > 0.0 {
                let cap = self.graph.capacity((i / 2) as u32);
                worst = worst.min(cap / l);
            }
        }
        worst
    }
}

/// Throughput of `tm` under per-hop ECMP over shortest paths.
pub fn ecmp_throughput(topo: &Topology, tm: &TrafficMatrix) -> Result<f64, McfError> {
    if tm.is_empty() {
        return Err(McfError::EmptyTraffic);
    }
    let st = EcmpState::new(topo);
    let mut loads = vec![0.0f64; 2 * st.graph.m()];
    for d in tm.demands() {
        if !st.route(d.src, d.dst, d.amount, &mut loads) {
            return Err(McfError::NoPath {
                src: d.src,
                dst: d.dst,
            });
        }
    }
    Ok(st.theta(&loads))
}

/// Throughput of `tm` under Valiant load balancing: each demand is split
/// equally across all switches with servers as intermediates, with ECMP
/// routing on each stage. (The classical oblivious scheme; guarantees
/// `θ >= (R - H) / 2H` on uniform-H uni-regular topologies.)
pub fn vlb_throughput(topo: &Topology, tm: &TrafficMatrix) -> Result<f64, McfError> {
    if tm.is_empty() {
        return Err(McfError::EmptyTraffic);
    }
    let st = EcmpState::new(topo);
    let k = topo.switches_with_servers();
    let mut loads = vec![0.0f64; 2 * st.graph.m()];
    // Stage loads are additive; splitting over |K| intermediates means
    // each (src -> mid) and (mid -> dst) leg carries amount / |K|.
    // Exploit linearity: aggregate per (src, mid) and (mid, dst) first to
    // keep the number of BFS routings at O(|K| * distinct endpoints).
    let share_of = 1.0 / k.len() as f64;
    // Aggregate stage-1 (src -> mid) and stage-2 (mid -> dst) volumes.
    use std::collections::HashMap;
    let mut stage: HashMap<(NodeId, NodeId), f64> = HashMap::new();
    for d in tm.demands() {
        for &mid in &k {
            let amt = d.amount * share_of;
            if mid != d.src {
                *stage.entry((d.src, mid)).or_insert(0.0) += amt;
            }
            if mid != d.dst {
                *stage.entry((mid, d.dst)).or_insert(0.0) += amt;
            }
        }
    }
    let mut pairs: Vec<((NodeId, NodeId), f64)> = stage.into_iter().collect();
    pairs.sort_by_key(|&((a, b), _)| (b, a)); // deterministic order
    for ((src, dst), amount) in pairs {
        if !st.route(src, dst, amount, &mut loads) {
            return Err(McfError::NoPath { src, dst });
        }
    }
    Ok(st.theta(&loads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use dcn_model::Topology;
    use dcn_topo::{fat_tree, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, h: u32) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Topology::new(g, vec![h; n], "ring").unwrap()
    }

    #[test]
    fn ecmp_on_square_splits_both_ways() {
        // 0 -> 2 on a 4-cycle: two equal shortest paths, each link carries
        // half → θ = 1 / 0.5 = 2 for unit demand.
        let t = ring(4, 1);
        let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).unwrap();
        let th = ecmp_throughput(&t, &tm).unwrap();
        assert!((th - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ecmp_is_optimal_on_clos() {
        // Any permutation on a fat-tree reaches θ >= 1 under ECMP (the
        // fluid limit of the paper's §3.1 claim).
        let t = fat_tree(4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let tm = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
            let th = ecmp_throughput(&t, &tm).unwrap();
            assert!(th >= 1.0 - 1e-9, "ecmp θ = {th} on clos");
        }
    }

    #[test]
    fn ecmp_never_beats_mcf() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = jellyfish(20, 5, 4, &mut rng).unwrap();
        for _ in 0..3 {
            let tm = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
            let ecmp = ecmp_throughput(&t, &tm).unwrap();
            let mcf = crate::ksp_mcf_throughput(
                &t,
                &tm,
                32,
                crate::Engine::Exact,
                &dcn_cache::prelude::unlimited_ctx(),
            )
            .unwrap()
            .theta_lb;
            assert!(ecmp <= mcf + 1e-9, "ecmp {ecmp} > mcf {mcf}");
        }
    }

    #[test]
    fn ecmp_worse_than_optimal_on_cycle() {
        // The Figure 7 permutation on C5: optimal is 5/6 but ECMP (pure
        // shortest-path) only reaches 1/2.
        let t = ring(5, 1);
        let tm = TrafficMatrix::permutation(&t, &[(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)]).unwrap();
        let th = ecmp_throughput(&t, &tm).unwrap();
        assert!((th - 0.5).abs() < 1e-9, "ecmp θ = {th}");
    }

    #[test]
    fn vlb_is_permutation_oblivious() {
        // VLB load depends only on row/column sums, so any two saturated
        // permutations get identical throughput.
        let mut rng = StdRng::seed_from_u64(3);
        let t = jellyfish(16, 6, 4, &mut rng).unwrap();
        let tm1 = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
        let tm2 = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
        let v1 = vlb_throughput(&t, &tm1).unwrap();
        let v2 = vlb_throughput(&t, &tm2).unwrap();
        assert!((v1 - v2).abs() < 1e-6, "vlb θ {v1} vs {v2}");
    }

    #[test]
    fn vlb_bounded_by_ideal() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = jellyfish(16, 6, 4, &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
        let vlb = vlb_throughput(&t, &tm).unwrap();
        let mcf = crate::ksp_mcf_throughput(
            &t,
            &tm,
            32,
            crate::Engine::Exact,
            &dcn_cache::prelude::unlimited_ctx(),
        )
        .unwrap()
        .theta_lb;
        assert!(vlb <= mcf + 1e-9, "vlb {vlb} > mcf {mcf}");
        assert!(vlb > 0.0);
    }

    #[test]
    fn empty_tm_rejected() {
        let t = ring(4, 1);
        let empty = TrafficMatrix::new(&t, vec![]).unwrap();
        assert!(matches!(
            ecmp_throughput(&t, &empty),
            Err(McfError::EmptyTraffic)
        ));
        assert!(matches!(
            vlb_throughput(&t, &empty),
            Err(McfError::EmptyTraffic)
        ));
    }
}
