//! All-pairs (and set-to-all) distance matrices with compact `u16` entries,
//! and the graph diameter computed from them.
//!
//! The rows come from a bit-parallel multi-source BFS (Then et al., "The
//! More the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2015):
//! up to 64 sources share one traversal, and each node holds a `u64` word
//! of the sources that have reached it.

use crate::csr::{Graph, NodeId};
use crate::GraphError;

/// Sources searched together: one bit of a `u64` word each.
const LANES: usize = 64;

impl Graph {
    /// Exact diameter: the most hops between any two nodes, from the
    /// distance rows of 64 sources at a time. Fails with
    /// [`GraphError::Disconnected`] on a disconnected graph and with
    /// [`GraphError::DistanceOverflow`] when two nodes lie `u16::MAX` or
    /// more hops apart.
    pub fn diameter(&self) -> Result<u16, GraphError> {
        let sources: Vec<NodeId> = (0..self.n() as NodeId).collect();
        let mut best = 0;
        for chunk in sources.chunks(LANES) {
            let d = DistMatrix::from_sources(self, chunk)?;
            best = d.data.iter().copied().fold(best, u16::max);
        }
        Ok(best)
    }
}

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
    /// some node — topology metrics in this workspace assume connectivity —
    /// and with [`GraphError::DistanceOverflow`] if a distance reaches
    /// `u16::MAX`. When several sources fail, the lowest-index one decides
    /// the error.
    pub fn from_sources(g: &Graph, sources: &[NodeId]) -> Result<Self, GraphError> {
        let _span = dcn_obs::span!(dcn_obs::names::GRAPH_DIST_FROM_SOURCES);
        let n = g.n();
        let mut data = vec![0u16; sources.len() * n];
        let mut row_of = vec![u32::MAX; n];
        let bfs_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_DIST_BFS_RUNS);
        let mut bfs = MultiBfs::new(n);
        for (c, chunk) in sources.chunks(LANES).enumerate() {
            // The sources before the first out-of-range one are searched;
            // that one fails only if none of them does.
            let valid = chunk
                .iter()
                .position(|&s| s as usize >= n)
                .unwrap_or(chunk.len());
            let first = c * LANES;
            let rows = &mut data[first * n..(first + valid) * n];
            if let Err((j, e)) = bfs.search(g, &chunk[..valid], rows) {
                bfs_ctr.add(j as u64 + 1);
                return Err(e);
            }
            bfs_ctr.add(valid as u64);
            if let Some(&s) = chunk.get(valid) {
                return Err(GraphError::NodeOutOfRange { node: s, n });
            }
            for (j, &s) in chunk.iter().enumerate() {
                row_of[s as usize] = (first + j) as u32;
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
}

/// Scratch words of the multi-source BFS, allocated once per
/// [`DistMatrix::from_sources`] call and reused by each chunk of sources.
struct MultiBfs {
    /// Per node: the chunk's sources that have reached it.
    seen: Vec<u64>,
    /// Per node: the sources that reached it at the previous level.
    frontier: Vec<u64>,
    /// Per node: the sources that reach it at the current level.
    next: Vec<u64>,
    /// The nodes whose `frontier` word is non-zero.
    frontier_nodes: Vec<NodeId>,
    /// The nodes whose `next` word is non-zero.
    next_nodes: Vec<NodeId>,
}

impl MultiBfs {
    fn new(n: usize) -> Self {
        MultiBfs {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            frontier_nodes: Vec::with_capacity(n),
            next_nodes: Vec::with_capacity(n),
        }
    }

    /// Writes the distances from each of up to 64 in-range `sources` into
    /// `rows` (row `j` for `sources[j]`, all zero on entry). On failure,
    /// returns the index of the lowest failing source with its error.
    ///
    /// A level ORs the frontier words over CSR neighbours. It pulls them
    /// into every node that some source has not reached yet, which is the
    /// fast way on an expander's few wide levels. While the frontier holds
    /// under a sixteenth of the nodes it pushes them out from the frontier
    /// instead, so that a long path costs linear, not quadratic, time. Both
    /// set the same bits, and each newly set bit writes the level into its
    /// source's row.
    fn search(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        rows: &mut [u16],
    ) -> Result<(), (usize, GraphError)> {
        if sources.is_empty() {
            return Ok(());
        }
        let n = g.n();
        let (offsets, adj) = g.adjacency();
        let nbrs = |v: usize| &adj[offsets[v] as usize..offsets[v + 1] as usize];
        let all = u64::MAX >> (LANES - sources.len());
        self.seen.fill(0);
        for (j, &s) in sources.iter().enumerate() {
            let s = s as usize;
            if self.frontier[s] == 0 {
                self.frontier_nodes.push(s as NodeId);
            }
            self.frontier[s] |= 1 << j;
            self.seen[s] |= 1 << j;
        }
        let mut overflow = 0u64;
        let mut level = 0u16;
        while !self.frontier_nodes.is_empty() {
            level += 1;
            if self.frontier_nodes.len() * 16 < n {
                for &u in &self.frontier_nodes {
                    let f = self.frontier[u as usize];
                    for &v in nbrs(u as usize) {
                        let v = v as usize;
                        let fresh = f & !self.seen[v];
                        if fresh != 0 {
                            if self.next[v] == 0 {
                                self.next_nodes.push(v as NodeId);
                            }
                            self.next[v] |= fresh;
                            self.seen[v] |= fresh;
                        }
                    }
                }
            } else {
                for v in 0..n {
                    let seen = self.seen[v];
                    if seen == all {
                        continue;
                    }
                    let reached = nbrs(v)
                        .iter()
                        .fold(0, |acc, &u| acc | self.frontier[u as usize]);
                    let fresh = reached & !seen;
                    if fresh != 0 {
                        self.seen[v] = seen | fresh;
                        self.next[v] = fresh;
                        self.next_nodes.push(v as NodeId);
                    }
                }
            }
            for &u in &self.frontier_nodes {
                self.frontier[u as usize] = 0;
            }
            if level == u16::MAX && !self.next_nodes.is_empty() {
                overflow = self
                    .next_nodes
                    .iter()
                    .fold(0, |acc, &v| acc | self.next[v as usize]);
                break;
            }
            for &v in &self.next_nodes {
                let mut fresh = self.next[v as usize];
                while fresh != 0 {
                    let j = fresh.trailing_zeros() as usize;
                    rows[j * n + v as usize] = level;
                    fresh &= fresh - 1;
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.frontier_nodes, &mut self.next_nodes);
            self.next_nodes.clear();
        }
        let complete = self.seen.iter().fold(all, |acc, &w| acc & w);
        let failed = (all & !complete) | overflow;
        if failed == 0 {
            return Ok(());
        }
        let j = failed.trailing_zeros() as usize;
        let e = if overflow >> j & 1 == 1 {
            GraphError::DistanceOverflow
        } else {
            GraphError::Disconnected
        };
        Err((j, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that call `from_sources`, so that each one
    /// reads the process-wide `graph.dist.bfs_runs` counter alone.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bfs_runs() -> u64 {
        dcn_obs::counter_value(dcn_obs::names::GRAPH_DIST_BFS_RUNS)
    }

    /// The per-source loop that the multi-source kernel replaced: one
    /// queue BFS per source, failing at the first bad source.
    fn per_source_oracle(g: &Graph, sources: &[NodeId]) -> Result<DistMatrix, GraphError> {
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
        Ok(DistMatrix {
            sources: sources.to_vec(),
            row_of,
            n,
            data,
        })
    }

    /// Asserts that the kernel returns the oracle's rows, `row_of` and
    /// error, and moves `graph.dist.bfs_runs` by the same amount.
    fn assert_matches_oracle(g: &Graph, sources: &[NodeId]) {
        let _serial = serial();
        let before = bfs_runs();
        let want = per_source_oracle(g, sources);
        let oracle_runs = bfs_runs() - before;
        let before = bfs_runs();
        let got = DistMatrix::from_sources(g, sources);
        let kernel_runs = bfs_runs() - before;
        let ctx = format!("n = {}, {} sources", g.n(), sources.len());
        assert_eq!(kernel_runs, oracle_runs, "bfs_runs, {ctx}");
        match (want, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got.sources, want.sources, "{ctx}");
                assert_eq!(got.row_of, want.row_of, "{ctx}");
                assert_eq!(got.n, want.n, "{ctx}");
                assert!(got.data == want.data, "rows differ, {ctx}");
            }
            (Err(want), Err(got)) => assert_eq!(got, want, "{ctx}"),
            (want, got) => panic!(
                "oracle {:?}, kernel {:?}, {ctx}",
                want.map(|_| ()),
                got.map(|_| ())
            ),
        }
    }

    /// A random multigraph on `n` nodes: a random spanning tree if
    /// `connected`, then `extra` random edges, parallel ones included.
    fn random_multigraph(rng: &mut StdRng, n: usize, extra: usize, connected: bool) -> Graph {
        let mut edges = Vec::new();
        if connected {
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v));
            }
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                edges.push((u, v));
                if rng.gen_bool(0.2) {
                    edges.push((v, u));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    /// `count` sources drawn from `0..n`: distinct while `count <= n`,
    /// with repeats beyond, in random order.
    fn random_sources(rng: &mut StdRng, n: usize, count: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = (0..n as NodeId).collect();
        all.shuffle(rng);
        (0..count).map(|i| all[i % n]).collect()
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn kernel_matches_per_source_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for &(n, extra) in &[
            (1, 0),
            (2, 1),
            (70, 140),
            (150, 600),
            (200, 150),
            (600, 300),
        ] {
            for connected in [true, false] {
                let g = random_multigraph(&mut rng, n, extra, connected);
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                assert_matches_oracle(&g, &all);
                for count in [0, 1, 63, 64, 65, 130] {
                    let sources = random_sources(&mut rng, n, count.min(n));
                    assert_matches_oracle(&g, &sources);
                }
                // A bi-regular source set K: the switches with servers, in
                // node order.
                let k: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.gen_bool(0.6)).collect();
                assert_matches_oracle(&g, &k);
                // Unsorted, with duplicates: both rows are computed and
                // `row_of` keeps the later one.
                let dup = random_sources(&mut rng, n, n + n / 2 + 1);
                assert_matches_oracle(&g, &dup);
            }
        }
    }

    #[test]
    fn lowest_failing_source_decides_the_error() {
        let mut rng = StdRng::seed_from_u64(7);
        // Connected: an out-of-range source fails wherever it sits.
        let g = random_multigraph(&mut rng, 100, 200, true);
        let n = g.n() as NodeId;
        let mut sources: Vec<NodeId> = (0..n).collect();
        sources.insert(0, n + 3);
        assert_matches_oracle(&g, &sources);
        for at in [1, 63, 64, 70, 100] {
            let mut sources: Vec<NodeId> = (0..n).collect();
            sources.insert(at, n + at as NodeId);
            assert_matches_oracle(&g, &sources);
        }
        // Node 99 is isolated, so every in-range source fails and the first
        // one decides, whether the out-of-range source sits later in its
        // chunk (index 40) or in a later chunk (index 70). Only an
        // out-of-range source ahead of all of them wins.
        let edges: Vec<(NodeId, NodeId)> = (1..99).map(|v| (v - 1, v)).collect();
        let g = Graph::from_edges(100, &edges).unwrap();
        for at in [40, 70] {
            let mut sources: Vec<NodeId> = (0..at).collect();
            sources.push(500);
            assert_matches_oracle(&g, &sources);
        }
        assert_matches_oracle(&g, &[500, 99]);
        // A failure after a valid prefix: on a 65,536-node path, sources
        // near the middle fit, and source 3 (node 0) lies u16::MAX hops
        // from the far end. The out-of-range source at index 70 must not
        // pre-empt it, and the runs counted stop at source 3 as the
        // per-source loop's do.
        let g = path(65_536);
        let mut sources: Vec<NodeId> = vec![32_768, 32_767, 32_769, 0];
        sources.extend(32_704..32_770);
        sources.push(70_000);
        assert_eq!(sources[70], 70_000);
        let _serial = serial();
        let before = bfs_runs();
        assert_eq!(
            DistMatrix::from_sources(&g, &sources).unwrap_err(),
            GraphError::DistanceOverflow
        );
        assert_eq!(bfs_runs() - before, 4);
    }

    #[test]
    fn distances_up_to_u16_max_minus_one_fit() {
        let _serial = serial();
        let n = 65_535;
        let d = DistMatrix::from_sources(&path(n), &[0, 40_000]).unwrap();
        assert_eq!(d.dist(0, n as NodeId - 1), 65_534);
        assert_eq!(d.dist(40_000, 0), 40_000);
    }

    #[test]
    fn distance_of_u16_max_is_an_overflow() {
        let _serial = serial();
        // Connected, but the far end lies u16::MAX hops from node 0.
        let g = path(65_536);
        assert_eq!(
            DistMatrix::from_sources(&g, &[0]).unwrap_err(),
            GraphError::DistanceOverflow
        );
        // The middle source fits; the end source at index 1 overflows.
        assert_eq!(
            DistMatrix::from_sources(&g, &[32_768, 65_535]).unwrap_err(),
            GraphError::DistanceOverflow
        );
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        let _serial = serial();
        assert_eq!(path(4).diameter(), Ok(3));
        let cycle = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(cycle.diameter(), Ok(2));
        let split = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(split.diameter(), Err(GraphError::Disconnected));
    }

    #[test]
    fn diameter_of_u16_max_is_an_overflow() {
        let _serial = serial();
        // The first chunk of sources holds node 0, which lies u16::MAX
        // hops from the far end: the diameter fails there, after one chunk.
        assert_eq!(path(65_536).diameter(), Err(GraphError::DistanceOverflow));
    }

    #[test]
    fn distance_beyond_u16_max_is_an_overflow() {
        let _serial = serial();
        assert_eq!(
            DistMatrix::from_sources(&path(65_537), &[0]).unwrap_err(),
            GraphError::DistanceOverflow
        );
    }

    #[test]
    fn all_pairs_on_cycle() {
        let _serial = serial();
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let d = DistMatrix::all_pairs(&g).unwrap();
        assert_eq!(d.rows(), 5);
        assert_eq!(d.dist(0, 2), 2);
        assert_eq!(d.dist(0, 3), 2);
        assert_eq!(d.dist(1, 4), 2);
        assert_eq!(d.dist(2, 2), 0);
    }

    #[test]
    fn subset_sources() {
        let _serial = serial();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = DistMatrix::from_sources(&g, &[0, 3]).unwrap();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.dist(0, 3), 3);
        assert_eq!(d.dist(3, 0), 3);
        assert_eq!(d.row(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn disconnected_rejected() {
        let _serial = serial();
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(
            DistMatrix::all_pairs(&g).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn out_of_range_source() {
        let _serial = serial();
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(matches!(
            DistMatrix::from_sources(&g, &[7]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }
}
