//! Graph partitioning for capacity metrics.
//!
//! The paper estimates bisection bandwidth with METIS; this crate carries a
//! from-scratch multilevel bisector in the same algorithm family:
//!
//! 1. **Coarsening** by randomized heavy-edge matching until the graph is
//!    small ([`coarsen`]).
//! 2. **Initial partition** of the coarsest graph by greedy BFS region
//!    growing from random seeds.
//! 3. **Uncoarsening** with Fiduccia–Mattheyses boundary refinement at
//!    every level ([`fm`]).
//!
//! Balance is measured in *server* weight: a bisection splits the servers
//! (not the switches) into halves, which is what "bisection bandwidth at
//! least half the servers" means for bi-regular topologies whose spine
//! switches host nothing.
//!
//! Like METIS, the result is an upper bound on the true minimum balanced
//! cut (the problem is NP-hard); the paper's full-BBW frontier inherits
//! the same caveat.
//!
//! The crate also implements the spectral sweep-cut heuristic used for the
//! sparsest-cut comparison in Figure 5: the Fiedler vector is computed by
//! shifted power iteration and the best prefix cut of the sorted vector is
//! returned ([`spectral::sparsest_cut_sweep`]).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod bisect;
pub mod coarsen;
pub mod fm;
pub mod spectral;

pub use bisect::{bisection, bisection_bandwidth, has_full_bisection, PartitionResult};
pub use spectral::sparsest_cut_sweep;

/// A weighted graph used internally across coarsening levels.
#[derive(Debug, Clone)]
pub(crate) struct WGraph {
    /// Adjacency: `(neighbor, edge_weight)`, deduplicated.
    pub adj: Vec<Vec<(u32, f64)>>,
    /// Node weights (servers per merged super-node).
    pub node_w: Vec<u64>,
}

impl WGraph {
    pub(crate) fn n(&self) -> usize {
        self.adj.len()
    }

    pub(crate) fn total_node_weight(&self) -> u64 {
        self.node_w.iter().sum()
    }

    /// Cut capacity of a 0/1 side assignment.
    pub(crate) fn cut(&self, side: &[u8]) -> f64 {
        let mut cut = 0.0;
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, w) in nbrs {
                if (v as usize) > u && side[u] != side[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    pub(crate) fn from_topology_graph(g: &dcn_graph::Graph, node_w: &[u64]) -> Self {
        let c = g.coalesced();
        let adj = (0..c.n() as u32)
            .map(|u| {
                c.neighbors(u)
                    .map(|(v, e)| (v, c.capacity(e)))
                    .collect::<Vec<_>>()
            })
            .collect();
        WGraph {
            adj,
            node_w: node_w.to_vec(),
        }
    }
}
