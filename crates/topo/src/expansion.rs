//! Incremental expansion by random rewiring, as used by Jellyfish and
//! Xpander (§5.1 and Figure A.4 of the paper).
//!
//! To add a switch with `r` network ports: pick `r/2` random existing
//! links `(x, y)` whose endpoints are not yet adjacent to the new switch,
//! remove each, and connect both freed ports to the new switch. Each
//! rewire preserves the degree of all existing switches and gives the new
//! switch `r` (or `r - 1`, when `r` is odd) links.
//!
//! Expansion steps are driven by the caller's RNG, so a growth trajectory
//! is a pure function of (initial topology, seed): the expansion-ensemble
//! experiments in `dcn-core` replay trajectories deterministically under
//! any pool width, and each intermediate fabric's throughput solve is
//! individually cacheable by content. Link selection retries are bounded;
//! infeasible expansion parameters return an error instead of looping.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};
use rand::Rng;
use std::collections::HashSet;

/// Expands `topo` by `added_switches`, each wired by random rewiring and
/// hosting `h` servers. Returns the expanded topology; the original switch
/// ids are preserved and new switches get ids `n, n+1, ...`.
pub fn expand_by_rewiring<R: Rng>(
    topo: &Topology,
    added_switches: usize,
    h: u32,
    rng: &mut R,
) -> Result<Topology, ModelError> {
    let mut edges: Vec<(u32, u32)> = topo.graph().edges().to_vec();
    let mut servers = topo.servers().to_vec();
    let n0 = topo.n_switches();
    // Network degree of the new switches mirrors the existing ones: use the
    // maximum degree in the current graph (uniform for uni-regular designs).
    let r = (0..n0 as u32)
        .map(|u| topo.graph().degree(u))
        .max()
        .ok_or_else(|| ModelError::InfeasibleParams("empty topology".into()))?;
    if r < 2 {
        return Err(ModelError::InfeasibleParams(
            "expansion needs network degree >= 2".into(),
        ));
    }
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n0 + added_switches];
    for &(u, v) in &edges {
        adj[u as usize].insert(v);
        adj[v as usize].insert(u);
    }
    for k in 0..added_switches {
        let w = (n0 + k) as u32;
        let rewires = r / 2;
        let mut done = 0;
        let mut attempts = 0;
        while done < rewires {
            attempts += 1;
            if attempts > 10_000 {
                return Err(ModelError::InfeasibleParams(format!(
                    "random rewiring failed to attach switch {w}"
                )));
            }
            let idx = rng.gen_range(0..edges.len());
            let (x, y) = edges[idx];
            if x == w || y == w || adj[w as usize].contains(&x) || adj[w as usize].contains(&y) {
                continue;
            }
            // Remove (x, y); add (w, x) and (w, y).
            edges.swap_remove(idx);
            adj[x as usize].remove(&y);
            adj[y as usize].remove(&x);
            edges.push((w, x));
            edges.push((w, y));
            adj[w as usize].insert(x);
            adj[w as usize].insert(y);
            adj[x as usize].insert(w);
            adj[y as usize].insert(w);
            done += 1;
        }
        servers.push(h);
    }
    let g = Graph::from_edges(n0 + added_switches, &edges)?;
    if !g.is_connected() {
        return Err(ModelError::InfeasibleParams(
            "expansion produced a disconnected graph (retry with another seed)".into(),
        ));
    }
    let name = format!("{}-exp{}", topo.name(), added_switches);
    Topology::new(g, servers, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jellyfish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expansion_preserves_degrees() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = jellyfish(40, 6, 8, &mut rng).unwrap();
        let e = expand_by_rewiring(&t, 10, 8, &mut rng).unwrap();
        assert_eq!(e.n_switches(), 50);
        assert_eq!(e.n_servers(), 50 * 8);
        for u in 0..50u32 {
            assert_eq!(e.graph().degree(u), 6, "switch {u}");
        }
        assert!(e.graph().is_connected());
    }

    #[test]
    fn expansion_keeps_simple_graph() {
        let mut rng = StdRng::seed_from_u64(22);
        let t = jellyfish(30, 5, 4, &mut rng).unwrap();
        let e = expand_by_rewiring(&t, 6, 4, &mut rng).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in e.graph().edges() {
            assert_ne!(u, v);
            let key = if u < v { (u, v) } else { (v, u) };
            assert!(seen.insert(key));
        }
    }

    #[test]
    fn odd_degree_leaves_one_port_free() {
        let mut rng = StdRng::seed_from_u64(23);
        let t = jellyfish(30, 5, 4, &mut rng).unwrap();
        let e = expand_by_rewiring(&t, 2, 4, &mut rng).unwrap();
        // New switches get 2 * floor(5/2) = 4 links.
        assert_eq!(e.graph().degree(30), 4);
        assert_eq!(e.graph().degree(31), 4);
    }

    #[test]
    fn zero_added_is_identity() {
        let mut rng = StdRng::seed_from_u64(24);
        let t = jellyfish(20, 4, 4, &mut rng).unwrap();
        let e = expand_by_rewiring(&t, 0, 4, &mut rng).unwrap();
        assert_eq!(e.graph().edges(), t.graph().edges());
    }
}
