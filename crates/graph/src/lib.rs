//! Graph substrate for the `dcn` workspace.
//!
//! Datacenter topologies at the switch level are sparse undirected
//! multigraphs with link capacities. This crate provides:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) representation
//!   built from an edge list, supporting parallel edges and per-edge
//!   capacities.
//! * BFS single-source shortest paths and all-pairs distance matrices
//!   ([`Graph::bfs_distances`], [`DistMatrix::all_pairs`], [`DistMatrix`]).
//! * Yen's algorithm for loopless K-shortest paths ([`ksp::yen`]) and
//!   enumeration of near-shortest paths ([`ksp::paths_within_slack`]).
//! * Shortest-path counting ([`Graph::count_shortest_paths`]), used by the
//!   paper's Figure 4(b).
//! * The Moore bound ([`moore`]) used by Theorem 4.1 of the paper.
//!
//! Everything here is deterministic and allocation-conscious: distance
//! matrices use `u16` entries so that all-pairs distances for 20K-switch
//! topologies stay within a few hundred MB.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod csr;
pub mod dist;
pub mod ksp;
pub mod maxflow;
pub mod moore;
pub mod spectral;
pub mod traversal;

pub use csr::{EdgeId, EdgeIndex, Graph, NodeId};
pub use dist::DistMatrix;
pub use ksp::Path;
pub use maxflow::{edge_connectivity, max_flow_value, MaxFlow};
pub use spectral::{adjacency_lambda2, is_near_ramanujan};

/// Errors produced while constructing or querying graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A self-loop was supplied where they are not permitted.
    SelfLoop {
        /// The node with the self-loop.
        node: NodeId,
    },
    /// The graph is not connected where connectivity is required.
    Disconnected,
    /// A distance overflowed the `u16` distance representation.
    DistanceOverflow,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::DistanceOverflow => write!(f, "distance exceeds u16 range"),
        }
    }
}

impl std::error::Error for GraphError {}
