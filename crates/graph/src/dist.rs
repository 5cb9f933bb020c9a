//! All-pairs (and set-to-all) distance matrices with compact `u16` entries.

use crate::csr::{Graph, NodeId};
use crate::GraphError;

/// A dense rectangular distance matrix: one row of `n` distances per source.
///
/// For uni-regular topologies the sources are all switches; for bi-regular
/// topologies only switches with attached servers (the set `K` in the paper)
/// need rows, which keeps the matrix at `|K| x n` instead of `n x n`.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    /// Source node of each row, in row order.
    sources: Vec<NodeId>,
    /// Map from node id to row index (`u32::MAX` if the node has no row).
    row_of: Vec<u32>,
    n: usize,
    data: Vec<u16>,
}

impl DistMatrix {
    /// Distances from every node in `sources` to every node of `g`.
    /// Fails with [`GraphError::Disconnected`] if any source cannot reach
    /// some node — topology metrics in this workspace assume connectivity.
    pub fn from_sources(g: &Graph, sources: &[NodeId]) -> Result<Self, GraphError> {
        let _span = dcn_obs::span!(dcn_obs::names::GRAPH_DIST_FROM_SOURCES);
        let n = g.n();
        let mut data = vec![0u16; sources.len() * n];
        let mut queue = Vec::with_capacity(n);
        let mut row_of = vec![u32::MAX; n];
        let bfs_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_DIST_BFS_RUNS);
        for (i, &s) in sources.iter().enumerate() {
            if s as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: s, n });
            }
            row_of[s as usize] = i as u32;
            let row = &mut data[i * n..(i + 1) * n];
            g.bfs_distances_into(s, row, &mut queue);
            bfs_ctr.inc();
            if row.contains(&u16::MAX) {
                return Err(GraphError::Disconnected);
            }
        }
        // Frontier-size profile (max breadth of each BFS level set) — a
        // proxy for expansion. Derived from the finished rows, and only
        // when observability is on: the scan is O(rows * n).
        if dcn_obs::enabled() && !sources.is_empty() {
            let frontier_hist = dcn_obs::histogram!(dcn_obs::names::GRAPH_DIST_BFS_FRONTIER_PEAK);
            let mut level_count = vec![0u32; n + 1];
            for i in 0..sources.len() {
                let row = &data[i * n..(i + 1) * n];
                for c in level_count.iter_mut() {
                    *c = 0;
                }
                for &d in row {
                    level_count[d as usize] += 1;
                }
                let peak = level_count.iter().copied().max().unwrap_or(0);
                frontier_hist.record_u64(peak as u64);
            }
        }
        Ok(DistMatrix {
            sources: sources.to_vec(),
            row_of,
            n,
            data,
        })
    }

    /// Distances between all pairs of nodes.
    pub fn all_pairs(g: &Graph) -> Result<Self, GraphError> {
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        Self::from_sources(g, &sources)
    }

    /// Number of rows (sources).
    pub fn rows(&self) -> usize {
        self.sources.len()
    }

    /// Number of columns (all nodes of the underlying graph).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The source nodes, in row order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Distance from source `u` to node `v`. Panics if `u` has no row.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u16 {
        let row = self.row_of[u as usize];
        debug_assert_ne!(row, u32::MAX, "node {u} is not a source row");
        self.data[row as usize * self.n + v as usize]
    }

    /// Full row of distances for source `u`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[u16] {
        let row = self.row_of[u as usize];
        debug_assert_ne!(row, u32::MAX, "node {u} is not a source row");
        &self.data[row as usize * self.n..(row as usize + 1) * self.n]
    }

    /// True if `u` has a row in this matrix.
    #[inline]
    pub fn has_row(&self, u: NodeId) -> bool {
        self.row_of[u as usize] != u32::MAX
    }

    /// Maximum distance present among source-to-source pairs.
    pub fn max_source_to_source(&self) -> u16 {
        let mut best = 0;
        for &u in &self.sources {
            let row = self.row(u);
            for &v in &self.sources {
                let d = row[v as usize];
                if d > best {
                    best = d;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_on_cycle() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let d = DistMatrix::all_pairs(&g).unwrap();
        assert_eq!(d.rows(), 5);
        assert_eq!(d.dist(0, 2), 2);
        assert_eq!(d.dist(0, 3), 2);
        assert_eq!(d.dist(1, 4), 2);
        assert_eq!(d.dist(2, 2), 0);
        assert_eq!(d.max_source_to_source(), 2);
    }

    #[test]
    fn subset_sources() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = DistMatrix::from_sources(&g, &[0, 3]).unwrap();
        assert_eq!(d.rows(), 2);
        assert!(d.has_row(0));
        assert!(!d.has_row(1));
        assert_eq!(d.dist(0, 3), 3);
        assert_eq!(d.dist(3, 0), 3);
        assert_eq!(d.row(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(
            DistMatrix::all_pairs(&g).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn out_of_range_source() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(matches!(
            DistMatrix::from_sources(&g, &[7]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }
}
