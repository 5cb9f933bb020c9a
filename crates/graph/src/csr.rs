//! Immutable CSR graph built from an undirected edge list.
//!
//! The representation supports parallel edges (multigraphs): each undirected
//! edge gets a stable [`EdgeId`], and the adjacency of a node stores
//! `(neighbor, edge_id)` pairs. Capacities are stored per edge and apply
//! *per direction* — an undirected link of capacity `c` can carry `c` units
//! of flow in each direction simultaneously, matching the link model used
//! throughout the paper (unit-capacity full-duplex links).

use crate::GraphError;

/// Node identifier: dense `0..n`.
pub type NodeId = u32;
/// Edge identifier: dense `0..m`, one per *undirected* edge.
pub type EdgeId = u32;

/// An immutable undirected multigraph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Flattened adjacency: neighbor node ids.
    adj_node: Vec<NodeId>,
    /// Flattened adjacency: undirected edge ids (parallel to `adj_node`).
    adj_edge: Vec<EdgeId>,
    /// Endpoints of each undirected edge.
    edges: Vec<(NodeId, NodeId)>,
    /// Per-direction capacity of each undirected edge.
    caps: Vec<f64>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list with unit
    /// capacities. Parallel edges are allowed; self-loops are rejected.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let weighted: Vec<(NodeId, NodeId, f64)> =
            edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_weighted_edges(n, &weighted)
    }

    /// Builds a graph with `n` nodes from an undirected edge list with
    /// per-direction capacities.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, GraphError> {
        for &(u, v, _) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
        }
        let mut deg = vec![0u32; n];
        for &(u, v, _) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let total = offsets[n] as usize;
        let mut adj_node = vec![0 as NodeId; total];
        let mut adj_edge = vec![0 as EdgeId; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edge_list = Vec::with_capacity(edges.len());
        let mut caps = Vec::with_capacity(edges.len());
        for (eid, &(u, v, c)) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            let cu = cursor[u as usize] as usize;
            adj_node[cu] = v;
            adj_edge[cu] = eid;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adj_node[cv] = u;
            adj_edge[cv] = eid;
            cursor[v as usize] += 1;
            edge_list.push((u, v));
            caps.push(c);
        }
        Ok(Graph {
            n,
            offsets,
            adj_node,
            adj_edge,
            edges: edge_list,
            caps,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (parallel edges counted separately).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Total per-direction capacity summed over all undirected edges.
    /// For unit capacities this equals `m()`; the quantity `2 * total_capacity`
    /// is the `2E` numerator in Equation 1 of the paper.
    pub fn total_capacity(&self) -> f64 {
        self.caps.iter().sum()
    }

    /// Degree of `u` (counting parallel edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Iterates over `(neighbor, edge_id)` pairs of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.adj_node[lo..hi]
            .iter()
            .copied()
            .zip(self.adj_edge[lo..hi].iter().copied())
    }

    /// The CSR row offsets and the flattened neighbour ids, borrowed in
    /// place: the neighbours of `u` are `adj[offsets[u]..offsets[u + 1]]`.
    #[inline]
    pub(crate) fn adjacency(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.adj_node)
    }

    /// Endpoints of undirected edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e as usize]
    }

    /// All undirected edges as `(u, v)` pairs in insertion order.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Per-direction capacity of edge `e`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.caps[e as usize]
    }

    /// Returns a copy of this graph with the given undirected edges removed.
    /// Edge ids are renumbered densely; used for failure injection.
    #[expect(
        clippy::expect_used,
        reason = "edges of an already-validated graph stay in range after filtering"
    )]
    pub fn without_edges(&self, removed: &[EdgeId]) -> Graph {
        let mut keep = vec![true; self.m()];
        for &e in removed {
            keep[e as usize] = false;
        }
        let remaining: Vec<(NodeId, NodeId, f64)> = self
            .edges
            .iter()
            .zip(self.caps.iter())
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, (&(u, v), &c))| (u, v, c))
            .collect();
        Graph::from_weighted_edges(self.n, &remaining).expect("subgraph of a valid graph is valid")
    }

    /// True if every node is reachable from node 0 (or the graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.reachable_count(0) == self.n
    }

    /// Merges parallel edges into single edges whose capacity is the sum of
    /// the parallel capacities. Useful before path enumeration, where parallel
    /// edges only multiply identical paths.
    #[expect(
        clippy::expect_used,
        reason = "merging parallel edges of a validated graph cannot produce out-of-range endpoints"
    )]
    pub fn coalesced(&self) -> Graph {
        use std::collections::HashMap;
        let mut acc: HashMap<(NodeId, NodeId), f64> = HashMap::new();
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            let key = if u < v { (u, v) } else { (v, u) };
            *acc.entry(key).or_insert(0.0) += self.caps[e];
        }
        let mut merged: Vec<(NodeId, NodeId, f64)> =
            acc.into_iter().map(|((u, v), c)| (u, v, c)).collect();
        merged.sort_by_key(|&(u, v, _)| (u, v));
        Graph::from_weighted_edges(self.n, &merged).expect("merged edges are valid")
    }
}

/// Hop resolution for node paths on one graph: every ordered pair of
/// adjacent nodes maps to its edge and direction. Build it once per
/// graph and resolve every path enumerated on that graph through it.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    hop: std::collections::HashMap<(NodeId, NodeId), (EdgeId, bool)>,
}

impl EdgeIndex {
    /// Indexes every edge of `g` in both directions; of parallel edges,
    /// the highest id wins.
    pub fn new(g: &Graph) -> EdgeIndex {
        let mut hop = std::collections::HashMap::with_capacity(2 * g.m());
        for (e, &(u, v)) in g.edges.iter().enumerate() {
            hop.insert((u, v), (e as EdgeId, true));
            hop.insert((v, u), (e as EdgeId, false));
        }
        EdgeIndex { hop }
    }

    /// The `(edge, forward)` hops of a node path, where `forward` means
    /// the hop runs from the edge's stored `u` endpoint to its `v`.
    /// Consecutive nodes must be adjacent, as they are on any path
    /// enumerated on the indexed graph.
    pub fn hops(&self, nodes: &[NodeId]) -> Vec<(EdgeId, bool)> {
        nodes.windows(2).map(|w| self.hop[&(w[0], w[1])]).collect()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        let mut nbrs: Vec<NodeId> = g.neighbors(0).map(|(v, _)| v).collect();
        nbrs.sort();
        assert_eq!(nbrs, vec![1, 2]);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 5, n: 2 });
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn parallel_edges_counted() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_capacity(), 2.0);
    }

    #[test]
    fn coalesce_merges_parallel() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]).unwrap();
        let c = g.coalesced();
        assert_eq!(c.m(), 1);
        assert_eq!(c.capacity(0), 3.0);
        assert_eq!(c.total_capacity(), 3.0);
    }

    #[test]
    fn without_edges_removes() {
        let g = triangle();
        let h = g.without_edges(&[0]);
        assert_eq!(h.m(), 2);
        assert!(h.is_connected());
        let i = g.without_edges(&[0, 1]);
        assert_eq!(i.m(), 1);
        assert!(!i.is_connected());
    }

    #[test]
    fn connected_checks() {
        assert!(triangle().is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(empty.is_connected());
    }

    #[test]
    fn edge_endpoints() {
        let g = triangle();
        assert_eq!(g.edge(1), (1, 2));
        assert_eq!(g.edges().len(), 3);
    }
}
