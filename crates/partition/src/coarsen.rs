//! Heavy-edge matching coarsening.

use crate::WGraph;
use rand::seq::SliceRandom;
use rand::Rng;

/// One coarsening level: the coarse graph plus the fine→coarse node map.
pub(crate) struct Level {
    pub coarse: WGraph,
    pub map: Vec<u32>,
}

/// Coarsens `g` one level by randomized heavy-edge matching: visit nodes in
/// random order; match each unmatched node with its heaviest-edge unmatched
/// neighbor. Returns `None` when coarsening stalls (less than 10% shrink).
pub(crate) fn coarsen_once<R: Rng>(g: &WGraph, rng: &mut R) -> Option<Level> {
    dcn_obs::counter!(dcn_obs::names::PARTITION_COARSEN_ROUNDS).inc();
    let n = g.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate = vec![u32::MAX; n];
    for &u in &order {
        if mate[u as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for &(v, w) in &g.adj[u as usize] {
            if mate[v as usize] == u32::MAX && v != u && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((v, w));
            }
        }
        match best {
            Some((v, _)) => {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
            None => mate[u as usize] = u, // self-matched (singleton)
        }
    }
    // Assign coarse ids.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n as u32 {
        if map[u as usize] != u32::MAX {
            continue;
        }
        let v = mate[u as usize];
        map[u as usize] = next;
        if v != u && v != u32::MAX {
            map[v as usize] = next;
        }
        next += 1;
    }
    let coarse_n = next as usize;
    if coarse_n as f64 > 0.9 * n as f64 {
        return None;
    }
    // Build coarse graph with accumulated weights.
    let mut node_w = vec![0u64; coarse_n];
    for u in 0..n {
        node_w[map[u] as usize] += g.node_w[u];
    }
    let mut acc: Vec<std::collections::HashMap<u32, f64>> =
        vec![std::collections::HashMap::new(); coarse_n];
    for u in 0..n {
        let cu = map[u];
        for &(v, w) in &g.adj[u] {
            let cv = map[v as usize];
            if cu != cv && (v as usize) > u {
                *acc[cu as usize].entry(cv).or_insert(0.0) += w;
                *acc[cv as usize].entry(cu).or_insert(0.0) += w;
            }
        }
    }
    let adj = acc
        .into_iter()
        .map(|m| {
            let mut v: Vec<(u32, f64)> = m.into_iter().collect();
            v.sort_by_key(|&(u, _)| u);
            v
        })
        .collect();
    Some(Level {
        coarse: WGraph { adj, node_w },
        map,
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(n: usize) -> WGraph {
        // Path graph with unit weights.
        let mut adj = vec![Vec::new(); n];
        for i in 0..n - 1 {
            adj[i].push(((i + 1) as u32, 1.0));
            adj[i + 1].push((i as u32, 1.0));
        }
        WGraph {
            adj,
            node_w: vec![1; n],
        }
    }

    #[test]
    fn coarsening_halves_roughly() {
        let g = grid(100);
        let mut rng = StdRng::seed_from_u64(1);
        let lvl = coarsen_once(&g, &mut rng).unwrap();
        assert!(lvl.coarse.n() <= 90);
        assert!(lvl.coarse.n() >= 50);
        assert_eq!(lvl.coarse.total_node_weight(), 100);
    }

    #[test]
    fn edge_weights_accumulate() {
        // Triangle with unit weights coarsens to 2 nodes with edge weight 2.
        let adj = vec![
            vec![(1u32, 1.0), (2u32, 1.0)],
            vec![(0u32, 1.0), (2u32, 1.0)],
            vec![(0u32, 1.0), (1u32, 1.0)],
        ];
        let g = WGraph {
            adj,
            node_w: vec![1; 3],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let lvl = coarsen_once(&g, &mut rng).unwrap();
        assert_eq!(lvl.coarse.n(), 2);
        let total_w: f64 = lvl.coarse.adj[0].iter().map(|&(_, w)| w).sum();
        assert_eq!(total_w, 2.0);
    }

    #[test]
    fn cut_preserved_under_map() {
        let g = grid(20);
        let mut rng = StdRng::seed_from_u64(3);
        let lvl = coarsen_once(&g, &mut rng).unwrap();
        // Any coarse side assignment projects to a fine assignment with the
        // same cut.
        let coarse_side: Vec<u8> = (0..lvl.coarse.n()).map(|i| (i % 2) as u8).collect();
        let fine_side: Vec<u8> = lvl.map.iter().map(|&c| coarse_side[c as usize]).collect();
        assert_eq!(lvl.coarse.cut(&coarse_side), g.cut(&fine_side));
    }
}
