//! BFS traversal: single-source distances, reachability, shortest-path
//! counting, and the diameter.

use crate::csr::{Graph, NodeId};

impl Graph {
    /// Unweighted single-source shortest-path distances from `src`.
    /// Unreachable nodes, and nodes more than `u16::MAX - 1` hops away,
    /// get `u16::MAX`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u16> {
        let mut dist = vec![0; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        self.bfs_distances_into(src, &mut dist, &mut queue);
        dist
    }

    /// BFS distances from `src`, reusing caller-provided scratch buffers to
    /// avoid repeated allocation in all-pairs loops. `dist` must have length
    /// `n` and is fully overwritten, with the marks of [`Graph::bfs_distances`].
    // dcn-lint: allow(budget-coverage) — BFS visits each node once; bounded by n with no budget worth threading
    pub fn bfs_distances_into(&self, src: NodeId, dist: &mut [u16], queue: &mut Vec<NodeId>) {
        debug_assert_eq!(dist.len(), self.n());
        dist.fill(u16::MAX);
        queue.clear();
        dist[src as usize] = 0;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let next = dist[u as usize] + 1;
            if next == u16::MAX {
                // Nodes pop in distance order, so every node still queued
                // is u16::MAX - 1 hops away too: stop expanding.
                break;
            }
            for (v, _) in self.neighbors(u) {
                if dist[v as usize] == u16::MAX {
                    dist[v as usize] = next;
                    queue.push(v);
                }
            }
        }
    }

    /// Number of nodes reachable from `src`, `src` included. It reads no
    /// distance, so it is exact at any diameter.
    // dcn-lint: allow(budget-coverage) — BFS visits each node once; bounded by n with no budget worth threading
    pub fn reachable_count(&self, src: NodeId) -> usize {
        let mut seen = vec![false; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        seen[src as usize] = true;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for (v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        queue.len()
    }

    /// Number of distinct shortest paths from `src` to every node, saturating
    /// at `u64::MAX`. Parallel edges count as distinct paths, matching the
    /// intuition that each physical link provides an independent route.
    pub fn count_shortest_paths(&self, src: NodeId) -> Vec<u64> {
        let dist = self.bfs_distances(src);
        let mut count = vec![0u64; self.n()];
        count[src as usize] = 1;
        // Process nodes in increasing distance order.
        let mut order: Vec<NodeId> = (0..self.n() as NodeId).collect();
        order.sort_by_key(|&v| dist[v as usize]);
        for &u in &order {
            let du = dist[u as usize];
            if du == u16::MAX || u == src {
                continue;
            }
            // u is reachable and not src, so du ≥ 1.
            let mut c: u64 = 0;
            for (v, _) in self.neighbors(u) {
                if dist[v as usize] == du - 1 {
                    c = c.saturating_add(count[v as usize]);
                }
            }
            count[u as usize] = c;
        }
        count
    }

    /// Exact diameter by running BFS from every node. `O(n (n + m))`.
    /// Pairs more than `u16::MAX - 1` hops apart are not counted.
    pub fn diameter(&self) -> u16 {
        let mut dist = vec![0u16; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        let mut best = 0u16;
        for u in 0..self.n() as NodeId {
            self.bfs_distances_into(u, &mut dist, &mut queue);
            for &d in dist.iter() {
                if d != u16::MAX && d > best {
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

    /// Path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    /// 4-cycle.
    fn cycle4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn bfs_path_graph() {
        let g = path4();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let d = g.bfs_distances(0);
        assert_eq!(d[2], u16::MAX);
        assert_eq!(g.reachable_count(0), 2);
        assert_eq!(g.reachable_count(2), 1);
    }

    #[test]
    fn bfs_into_matches_alloc_version() {
        let g = cycle4();
        let mut dist = vec![0u16; 4];
        let mut queue = Vec::new();
        for s in 0..4u32 {
            g.bfs_distances_into(s, &mut dist, &mut queue);
            assert_eq!(dist, g.bfs_distances(s));
        }
    }

    #[test]
    fn diameter_and_ecc() {
        assert_eq!(path4().diameter(), 3);
        assert_eq!(cycle4().diameter(), 2);
    }

    /// Path graph 0-1-…-(n-1).
    fn path(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Paths whose far end lies u16::MAX - 1, u16::MAX and u16::MAX + 1
    /// hops from node 0: connectivity stays exact, distances past
    /// u16::MAX - 1 read u16::MAX instead of wrapping, and nothing
    /// overflows in a debug build.
    #[test]
    fn long_paths_neither_wrap_nor_disconnect() {
        for n in [65_535, 65_536, 65_537] {
            let g = path(n);
            assert!(g.is_connected(), "n = {n}");
            assert_eq!(g.reachable_count(0), n);
            let hops: Vec<u16> = (0..n).map(|v| v.min(u16::MAX as usize) as u16).collect();
            assert!(g.bfs_distances(0) == hops, "n = {n}");
            let mut from_end = g.bfs_distances(n as NodeId - 1);
            from_end.reverse();
            assert!(from_end == hops, "n = {n}");
            let counts: Vec<u64> = (0..n).map(|v| u64::from(v < u16::MAX as usize)).collect();
            assert!(g.count_shortest_paths(0) == counts, "n = {n}");
        }
    }

    #[test]
    fn count_shortest_paths_cycle() {
        let g = cycle4();
        let c = g.count_shortest_paths(0);
        // Opposite corner of a 4-cycle has 2 shortest paths.
        assert_eq!(c[2], 2);
        assert_eq!(c[1], 1);
        assert_eq!(c[0], 1);
    }

    #[test]
    fn count_shortest_paths_parallel_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        let c = g.count_shortest_paths(0);
        assert_eq!(c[1], 2);
    }

    #[test]
    fn count_shortest_paths_grid() {
        // 2x2 grid is the 4-cycle; 3-node line has a single path.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.count_shortest_paths(0), vec![1, 1, 1]);
    }
}
