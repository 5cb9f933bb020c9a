//! Dinic's maximum-flow algorithm and the cut metrics built on it.
//!
//! Uses: exact s–t minimum cuts (ground truth for the heuristic
//! partitioner on small graphs), and the fabric's **edge connectivity** —
//! the number of link failures needed to disconnect it, a resilience
//! metric complementary to the paper's throughput-under-failure curves.

use crate::csr::{Graph, NodeId};
use dcn_guard::{Budget, BudgetError};

/// A directed residual-graph arc.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    cap: f64,
    /// Index of the reverse arc.
    rev: u32,
}

/// Dinic max-flow solver over a fixed capacity graph.
pub struct MaxFlow {
    arcs: Vec<Vec<Arc>>,
}

impl MaxFlow {
    /// Builds the residual structure from an undirected graph: each
    /// undirected edge of capacity `c` becomes two directed arcs of
    /// capacity `c` each (full-duplex links, as everywhere in this
    /// workspace).
    pub fn from_graph(g: &Graph) -> Self {
        let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); g.n()];
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let c = g.capacity(e as u32);
            let ru = arcs[u as usize].len() as u32;
            let rv = arcs[v as usize].len() as u32;
            arcs[u as usize].push(Arc { to: v, cap: c, rev: rv });
            arcs[v as usize].push(Arc { to: u, cap: c, rev: ru });
        }
        MaxFlow { arcs }
    }

    /// Maximum flow from `s` to `t`. The solver mutates its residual
    /// state; call on a fresh instance per query (see
    /// [`max_flow_value`] for the convenience form).
    ///
    /// Meters one tick per BFS phase. Dinic runs `O(n)` phases on these
    /// graphs, but a deadline or cancellation flag can still cap a
    /// pathological float-capacity instance mid-solve.
    pub fn solve(&mut self, s: NodeId, t: NodeId, budget: &Budget) -> Result<f64, BudgetError> {
        assert_ne!(s, t, "max flow needs distinct endpoints");
        let mut meter = budget.meter();
        let phase_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_MAXFLOW_PHASES);
        let n = self.arcs.len();
        let mut total = 0.0;
        loop {
            meter.tick()?;
            phase_ctr.inc();
            // BFS level graph.
            let mut level = vec![u32::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            level[s as usize] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for a in &self.arcs[u as usize] {
                    if a.cap > 1e-12 && level[a.to as usize] == u32::MAX {
                        level[a.to as usize] = level[u as usize] + 1;
                        queue.push_back(a.to);
                    }
                }
            }
            if level[t as usize] == u32::MAX {
                return Ok(total);
            }
            // DFS blocking flow with iteration pointers.
            let mut it = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut it);
                if pushed <= 1e-12 {
                    break;
                }
                total += pushed;
            }
        }
    }

    fn dfs(&mut self, u: NodeId, t: NodeId, limit: f64, level: &[u32], it: &mut [usize]) -> f64 {
        if u == t {
            return limit;
        }
        while it[u as usize] < self.arcs[u as usize].len() {
            let i = it[u as usize];
            let Arc { to, cap, rev } = self.arcs[u as usize][i];
            if cap > 1e-12 && level[to as usize] == level[u as usize] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap), level, it);
                if pushed > 1e-12 {
                    self.arcs[u as usize][i].cap -= pushed;
                    self.arcs[to as usize][rev as usize].cap += pushed;
                    return pushed;
                }
            }
            it[u as usize] += 1;
        }
        0.0
    }
}

/// Convenience: the max-flow value from `s` to `t`.
pub fn max_flow_value(g: &Graph, s: NodeId, t: NodeId, budget: &Budget) -> Result<f64, BudgetError> {
    MaxFlow::from_graph(g).solve(s, t, budget)
}

/// Global edge connectivity: the minimum total capacity whose removal
/// disconnects the graph, `min_t maxflow(0, t)` (valid for undirected
/// graphs). Returns 0 for graphs that are already disconnected or have
/// fewer than 2 nodes.
pub fn edge_connectivity(g: &Graph, budget: &Budget) -> Result<f64, BudgetError> {
    if g.n() < 2 || !g.is_connected() {
        return Ok(0.0);
    }
    let mut best = f64::INFINITY;
    for t in 1..g.n() as NodeId {
        let f = max_flow_value(g, 0, t, budget)?;
        best = best.min(f);
        if best <= 0.0 {
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unl() -> Budget {
        Budget::unlimited()
    }

    fn mf(g: &Graph, s: NodeId, t: NodeId) -> f64 {
        max_flow_value(g, s, t, &unl()).unwrap()
    }

    #[test]
    fn single_path_flow() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(mf(&g, 0, 2), 1.0);
    }

    #[test]
    fn parallel_paths_add_up() {
        // Square: two disjoint 2-hop paths from 0 to 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(mf(&g, 0, 2), 2.0);
    }

    #[test]
    fn capacities_respected() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 5.0), (1, 2, 2.0)]).unwrap();
        assert_eq!(mf(&g, 0, 2), 2.0);
    }

    #[test]
    fn classic_flow_network() {
        // 0 -> {1,2} -> 3 with a cross edge; max flow = 5 (source and
        // sink capacity are both 5, and the cross edge lets 1 route its
        // surplus through 2).
        let g = Graph::from_weighted_edges(
            4,
            &[(0, 1, 3.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 3.0), (1, 2, 1.0)],
        )
        .unwrap();
        assert_eq!(mf(&g, 0, 3), 5.0);
    }

    #[test]
    fn dumbbell_flow_is_its_bridge() {
        // Dumbbell: cliques joined by one edge.
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, &edges).unwrap();
        let flow = MaxFlow::from_graph(&g).solve(1, 6, &unl()).unwrap();
        assert_eq!(flow, 1.0);
    }

    #[test]
    fn edge_connectivity_values() {
        // Cycle: connectivity 2.
        let ring: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let g = Graph::from_edges(6, &ring).unwrap();
        assert_eq!(edge_connectivity(&g, &unl()).unwrap(), 2.0);
        // Tree: connectivity 1.
        let tree = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(edge_connectivity(&tree, &unl()).unwrap(), 1.0);
        // Complete graph K5: connectivity 4.
        let mut e = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                e.push((i, j));
            }
        }
        let k5 = Graph::from_edges(5, &e).unwrap();
        assert_eq!(edge_connectivity(&k5, &unl()).unwrap(), 4.0);
        // Disconnected: 0.
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(edge_connectivity(&split, &unl()).unwrap(), 0.0);
    }

    #[test]
    fn regular_graph_connectivity_at_most_degree() {
        // Petersen: 3-regular, edge connectivity exactly 3.
        let edges = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        ];
        let g = Graph::from_edges(10, &edges).unwrap();
        assert_eq!(edge_connectivity(&g, &unl()).unwrap(), 3.0);
    }
}
