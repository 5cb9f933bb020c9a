//! The [`Topology`] type: a switch-level graph with attached servers.
//!
//! This is the paper's §2 object of study: a capacity-weighted switch
//! graph plus a per-switch server count, classified by [`TopoClass`]
//! into the uni-regular / near-uni-regular / bi-regular taxonomy of
//! Figure 1 (which decides whether Theorem 2.2's throughput upper bound
//! applies directly, via Equation 18, or not at all). Construction
//! checks the shape invariants downstream solvers assume (server counts
//! match the switch count; at least one server exists) so solvers can
//! skip re-checking them inside budgeted hot loops; connectivity is the
//! generators' contract (`dcn-topo` returns only connected fabrics). A
//! `Topology` is immutable after construction, and its content (edges,
//! capacities, server counts) is exactly what `dcn-cache` hashes into
//! solver cache keys — two structurally identical topologies hit the
//! same cache line regardless of how they were generated.

use crate::ModelError;
use dcn_graph::{Graph, NodeId};

/// Classification of a topology per the paper's taxonomy (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoClass {
    /// Every switch has the same `H > 0` servers.
    UniRegular {
        /// Servers per switch.
        h: u32,
    },
    /// Server counts differ by exactly 1 across switches (FatClique's
    /// relaxation, handled by Equation 18 of the paper).
    NearUniRegular {
        /// Smallest per-switch server count.
        h_min: u32,
        /// Largest per-switch server count (`h_min + 1`).
        h_max: u32,
    },
    /// Every switch has either `H` servers or none (Clos family).
    BiRegular {
        /// Servers per server-hosting switch.
        h: u32,
    },
    /// Anything else (still analyzable by the per-switch-H machinery).
    Irregular,
}

/// A datacenter topology at the switch level.
///
/// Servers are not graph nodes: following §2.2 of the paper, each server
/// connects to exactly one switch, so it suffices to record how many servers
/// each switch hosts. Links have unit (or integer, for aggregated Clos
/// trunks) capacity per direction.
#[derive(Debug, Clone)]
pub struct Topology {
    graph: Graph,
    servers: Vec<u32>,
    name: String,
}

impl Topology {
    /// Wraps a switch graph and per-switch server counts.
    pub fn new(
        graph: Graph,
        servers: Vec<u32>,
        name: impl Into<String>,
    ) -> Result<Self, ModelError> {
        if servers.len() != graph.n() {
            return Err(ModelError::ServerCountMismatch {
                switches: graph.n(),
                entries: servers.len(),
            });
        }
        if servers.iter().all(|&s| s == 0) {
            return Err(ModelError::NoServers);
        }
        Ok(Topology {
            graph,
            servers,
            name: name.into(),
        })
    }

    /// The switch-level graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Human-readable topology name (e.g. `jellyfish-n1024-h8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of switches (`|S|`).
    #[inline]
    pub fn n_switches(&self) -> usize {
        self.graph.n()
    }

    /// Total number of servers (`N`).
    pub fn n_servers(&self) -> u64 {
        self.servers.iter().map(|&s| s as u64).sum()
    }

    /// Number of switch-to-switch links (`E`), counting parallel trunks by
    /// their capacity.
    pub fn e_links(&self) -> f64 {
        self.graph.total_capacity()
    }

    /// Servers attached to switch `u` (`H_u`).
    #[inline]
    pub fn servers_at(&self, u: NodeId) -> u32 {
        self.servers[u as usize]
    }

    /// Per-switch server counts.
    pub fn servers(&self) -> &[u32] {
        &self.servers
    }

    /// The set `K`: switches with at least one attached server.
    pub fn switches_with_servers(&self) -> Vec<NodeId> {
        (0..self.n_switches() as NodeId)
            .filter(|&u| self.servers[u as usize] > 0)
            .collect()
    }

    /// Used ports at switch `u`: network links (counting trunk capacity)
    /// plus attached servers. This is `R_u` in the paper.
    pub fn used_ports(&self, u: NodeId) -> f64 {
        let net: f64 = self
            .graph
            .neighbors(u)
            .map(|(_, e)| self.graph.capacity(e))
            .sum();
        net + self.servers[u as usize] as f64
    }

    /// Classifies the topology (Figure 1 of the paper).
    pub fn class(&self) -> TopoClass {
        let with: Vec<u32> = self.servers.iter().copied().filter(|&s| s > 0).collect();
        let any_zero = self.servers.contains(&0);
        let min = *with.iter().min().expect("validated: at least one server");
        let max = *with.iter().max().expect("validated: at least one server");
        if !any_zero {
            if min == max {
                TopoClass::UniRegular { h: min }
            } else if max - min == 1 {
                TopoClass::NearUniRegular {
                    h_min: min,
                    h_max: max,
                }
            } else {
                TopoClass::Irregular
            }
        } else if min == max {
            TopoClass::BiRegular { h: min }
        } else {
            TopoClass::Irregular
        }
    }

    /// `H` for (near-)uni-regular and bi-regular topologies: the maximum
    /// per-switch server count. This is the hose-model rate cap.
    pub fn h_max(&self) -> u32 {
        *self.servers.iter().max().expect("non-empty")
    }

    /// Returns a renamed copy (handy after failure injection / expansion).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the graph, keeping server placement (used by failure
    /// injection, which removes links but not servers).
    pub fn with_graph(&self, graph: Graph) -> Result<Self, ModelError> {
        Topology::new(graph, self.servers.clone(), self.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_topo(servers: Vec<u32>) -> Result<Topology, ModelError> {
        let n = servers.len();
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Topology::new(g, servers, "ring")
    }

    #[test]
    fn uni_regular_classification() {
        let t = ring_topo(vec![4, 4, 4, 4]).unwrap();
        assert_eq!(t.class(), TopoClass::UniRegular { h: 4 });
        assert_eq!(t.n_servers(), 16);
        assert_eq!(t.h_max(), 4);
        assert_eq!(t.switches_with_servers(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bi_regular_classification() {
        let t = ring_topo(vec![4, 0, 4, 0]).unwrap();
        assert_eq!(t.class(), TopoClass::BiRegular { h: 4 });
        assert_eq!(t.switches_with_servers(), vec![0, 2]);
    }

    #[test]
    fn near_uni_regular_classification() {
        let t = ring_topo(vec![4, 5, 4, 5]).unwrap();
        assert_eq!(t.class(), TopoClass::NearUniRegular { h_min: 4, h_max: 5 });
    }

    #[test]
    fn irregular_classification() {
        let t = ring_topo(vec![1, 7, 1, 1]).unwrap();
        assert_eq!(t.class(), TopoClass::Irregular);
        let t = ring_topo(vec![0, 7, 5, 5]).unwrap();
        assert_eq!(t.class(), TopoClass::Irregular);
    }

    #[test]
    fn rejects_no_servers() {
        assert_eq!(
            ring_topo(vec![0, 0, 0, 0]).unwrap_err(),
            ModelError::NoServers
        );
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let err = Topology::new(g, vec![1, 1], "bad").unwrap_err();
        assert!(matches!(err, ModelError::ServerCountMismatch { .. }));
    }

    #[test]
    fn used_ports_counts_links_and_servers() {
        let t = ring_topo(vec![4, 4, 4, 4]).unwrap();
        // Each ring switch: 2 links + 4 servers.
        assert_eq!(t.used_ports(0), 6.0);
    }
}
