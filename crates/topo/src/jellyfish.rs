//! Jellyfish: random regular graph topologies (Singla et al., NSDI'12).
//!
//! Every switch has `r` switch-to-switch links wired uniformly at random
//! (a random `r`-regular simple graph) and `h` servers. The construction
//! follows the Jellyfish paper: repeatedly join random pairs of switches
//! with free ports, and when the process gets stuck, free up eligible port
//! pairs by breaking a random existing link.
//!
//! Jellyfish is the paper's flagship uni-regular design: §4 shows its
//! TUB sits within a few percent of 1 at equal cost, and §5 uses it for
//! the expansion and resilience studies. Wiring is a pure function of the
//! caller's RNG — one seed, one graph — so ensemble sweeps seed each
//! instance explicitly and stay bit-reproducible across thread counts.
//! The stuck-state rewiring loop is bounded, returning an error rather
//! than spinning when parameters are infeasible (e.g. `r >= n`).

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};
use rand::Rng;

/// Tracks the partial random-regular graph during construction.
struct PartialGraph {
    /// Neighbours of each node; a node has at most `r`, so a linear scan
    /// answers adjacency.
    adj: Vec<Vec<u32>>,
    edges: Vec<(u32, u32)>,
    free: Vec<u32>, // free ports per node
}

impl PartialGraph {
    fn new(n: usize, r: usize) -> Self {
        PartialGraph {
            adj: vec![Vec::with_capacity(r); n],
            edges: Vec::with_capacity(n * r / 2),
            free: vec![r as u32; n],
        }
    }

    fn adjacent(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// Nodes with a free port, ascending.
    fn open(&self) -> Vec<u32> {
        (0..self.free.len() as u32)
            .filter(|&u| self.free[u as usize] > 0)
            .collect()
    }

    fn add(&mut self, u: u32, v: u32) {
        debug_assert!(u != v && !self.adjacent(u, v));
        debug_assert!(self.free[u as usize] > 0 && self.free[v as usize] > 0);
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.edges.push((u, v));
        self.free[u as usize] -= 1;
        self.free[v as usize] -= 1;
    }

    fn remove_edge_at(&mut self, idx: usize) -> (u32, u32) {
        let (x, y) = self.edges.swap_remove(idx);
        let unlink = |list: &mut Vec<u32>, w: u32| {
            if let Some(at) = list.iter().position(|&z| z == w) {
                list.swap_remove(at);
            }
        };
        unlink(&mut self.adj[x as usize], y);
        unlink(&mut self.adj[y as usize], x);
        self.free[x as usize] += 1;
        self.free[y as usize] += 1;
        (x, y)
    }
}

/// Generates a Jellyfish topology: `n_switches` switches, each with
/// `r_net` random network links and `h` servers.
///
/// ```
/// use dcn_topo::jellyfish;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let topo = jellyfish(64, 8, 4, &mut rng)?;
/// assert_eq!(topo.n_servers(), 256);
/// assert!(topo.graph().is_connected());
/// # Ok::<(), dcn_model::ModelError>(())
/// ```
///
/// Requirements: `n_switches * r_net` even, `r_net >= 3` (expanders need
/// degree >= 3 to be connected with overwhelming probability; we retry a few
/// times and verify), and `r_net < n_switches`.
pub fn jellyfish<R: Rng>(
    n_switches: usize,
    r_net: usize,
    h: u32,
    rng: &mut R,
) -> Result<Topology, ModelError> {
    crate::check_regular_feasible(n_switches, r_net)?;
    if r_net < 3 {
        return Err(ModelError::InfeasibleParams(format!(
            "jellyfish needs r_net >= 3 for connectivity (got {r_net})"
        )));
    }
    for _attempt in 0..8 {
        if let Some(edges) = try_random_regular(n_switches, r_net, rng) {
            let g = Graph::from_edges(n_switches, &edges)?;
            if g.is_connected() {
                let name = format!("jellyfish-s{n_switches}-r{r_net}-h{h}");
                return Topology::new(g, vec![h; n_switches], name);
            }
        }
    }
    Err(ModelError::InfeasibleParams(format!(
        "failed to build a connected {r_net}-regular graph on {n_switches} switches"
    )))
}

/// One attempt at a random `r`-regular simple graph; `None` if the fix-up
/// procedure fails to converge.
fn try_random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Option<Vec<(u32, u32)>> {
    let mut pg = PartialGraph::new(n, r);
    // Phase 1: random greedy pairing. Keep a worklist of nodes with free
    // ports, ascending; pick random pairs and link them when eligible. A
    // node leaves the worklist when its last port fills, so the worklist
    // always equals a fresh scan for open nodes and the draws below index
    // the same list as one.
    let mut open = pg.open();
    let mut stuck = 0usize;
    while pg.edges.len() < n * r / 2 {
        if open.is_empty() {
            break;
        }
        let mut progressed = false;
        // Try a bounded number of random pairs before declaring stuck.
        for _ in 0..4 * open.len().max(8) {
            let u = open[rng.gen_range(0..open.len())];
            let v = open[rng.gen_range(0..open.len())];
            if u != v && !pg.adjacent(u, v) {
                pg.add(u, v);
                for w in [u, v] {
                    if pg.free[w as usize] == 0 {
                        if let Ok(at) = open.binary_search(&w) {
                            open.remove(at);
                        }
                    }
                }
                progressed = true;
                break;
            }
        }
        if progressed {
            stuck = 0;
            continue;
        }
        // Phase 2: stuck — the nodes with free ports form a clique (or a
        // single node remains). Break a random existing edge to make room.
        stuck += 1;
        if stuck > 2 * n * r {
            return None;
        }
        if !unstick(&mut pg, &open, rng) {
            return None;
        }
        open = pg.open();
    }
    if pg.edges.len() == n * r / 2 {
        Some(pg.edges)
    } else {
        None
    }
}

/// Stuck resolution from the Jellyfish paper: for a node `u` with >= 2 free
/// ports, remove a random edge `(x, y)` with `x, y` not adjacent to `u` and
/// add `(u, x)`, `(u, y)`. If every open node has one free port (pairs of
/// open nodes are mutually adjacent), splice two of them into a random edge.
/// `open` lists the nodes with a free port, ascending.
fn unstick<R: Rng>(pg: &mut PartialGraph, open: &[u32], rng: &mut R) -> bool {
    if open.is_empty() || pg.edges.is_empty() {
        return false;
    }
    if let Some(&u) = open.iter().find(|&&u| pg.free[u as usize] >= 2) {
        for _ in 0..256 {
            let idx = rng.gen_range(0..pg.edges.len());
            let (x, y) = pg.edges[idx];
            if x != u && y != u && !pg.adjacent(u, x) && !pg.adjacent(u, y) {
                pg.remove_edge_at(idx);
                pg.add(u, x);
                pg.add(u, y);
                return true;
            }
        }
        return false;
    }
    // All open nodes have exactly one free port; they must be pairwise
    // adjacent (otherwise phase 1 would have linked them). Splice two open
    // nodes u, v into an existing edge (x, y): remove (x, y), add (u, x)
    // and (v, y).
    if open.len() >= 2 {
        for _ in 0..256 {
            let u = open[rng.gen_range(0..open.len())];
            let v = open[rng.gen_range(0..open.len())];
            if u == v {
                continue;
            }
            let idx = rng.gen_range(0..pg.edges.len());
            let (x, y) = pg.edges[idx];
            if x == u || x == v || y == u || y == v {
                continue;
            }
            if !pg.adjacent(u, x) && !pg.adjacent(v, y) {
                pg.remove_edge_at(idx);
                pg.add(u, x);
                pg.add(v, y);
                return true;
            }
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_model::TopoClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_regular_connected_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = jellyfish(64, 8, 8, &mut rng).unwrap();
        assert_eq!(t.n_switches(), 64);
        assert_eq!(t.n_servers(), 64 * 8);
        assert!(t.graph().is_connected());
        for u in 0..64u32 {
            assert_eq!(t.graph().degree(u), 8, "switch {u} degree");
        }
        assert_eq!(t.class(), TopoClass::UniRegular { h: 8 });
    }

    #[test]
    fn no_parallel_edges_or_self_loops() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = jellyfish(40, 5, 4, &mut rng).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in t.graph().edges() {
            assert_ne!(u, v);
            let key = if u < v { (u, v) } else { (v, u) };
            assert!(seen.insert(key), "duplicate edge {key:?}");
        }
    }

    #[test]
    fn odd_total_ports_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(jellyfish(5, 3, 4, &mut rng).is_err());
    }

    #[test]
    fn degree_too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(jellyfish(4, 4, 4, &mut rng).is_err());
        assert!(jellyfish(4, 5, 4, &mut rng).is_err());
    }

    #[test]
    fn small_degree_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(jellyfish(10, 2, 4, &mut rng).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t1 = jellyfish(32, 6, 8, &mut StdRng::seed_from_u64(42)).unwrap();
        let t2 = jellyfish(32, 6, 8, &mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(t1.graph().edges(), t2.graph().edges());
    }

    #[test]
    fn different_seeds_differ() {
        let t1 = jellyfish(32, 6, 8, &mut StdRng::seed_from_u64(1)).unwrap();
        let t2 = jellyfish(32, 6, 8, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(t1.graph().edges(), t2.graph().edges());
    }

    /// FNV-1a over the edge lists of a fixed grid of instances. Wiring is
    /// a pure function of the RNG's draws, so any change to the generator
    /// that moves a draw or an edge changes this digest.
    #[test]
    fn edge_digest_is_pinned() {
        let grid: &[(usize, usize)] = &[
            (10, 3),
            (16, 4),
            (24, 5),
            (32, 6),
            (50, 7),
            (64, 8),
            (100, 12),
            (128, 10),
            (160, 9),
            (256, 12),
            (320, 16),
            (512, 11),
            (1024, 16),
        ];
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(n, r) in grid {
            for seed in 0..4u64 {
                let t = jellyfish(n, r, 4, &mut StdRng::seed_from_u64(seed))
                    .unwrap_or_else(|e| panic!("n={n} r={r} seed={seed}: {e}"));
                eat(t.graph().edges().len() as u32);
                for &(u, v) in t.graph().edges() {
                    eat(u);
                    eat(v);
                }
            }
        }
        assert_eq!(hash, 0x4a1e_77e4_0bf2_63cd);
    }

    #[test]
    fn many_sizes_succeed() {
        let mut rng = StdRng::seed_from_u64(6);
        for &(n, r) in &[(10usize, 3usize), (16, 4), (50, 7), (100, 12), (128, 24)] {
            let t = jellyfish(n, r, 4, &mut rng).unwrap_or_else(|e| panic!("n={n} r={r}: {e}"));
            for u in 0..n as u32 {
                assert_eq!(t.graph().degree(u), r);
            }
            assert!(t.graph().is_connected());
        }
    }
}
