//! Xpander: near-optimal expander topologies built by random lifts
//! (Valadarsky et al., CoNEXT'16).
//!
//! An Xpander with network degree `d` starts from the complete graph
//! `K_{d+1}` and replaces every vertex with a *meta-node* of `k` switches
//! (`k` = lift size). For every edge `(A, B)` of `K_{d+1}`, a uniformly
//! random perfect matching is placed between the `k` switches of meta-node
//! `A` and the `k` switches of meta-node `B`. Every switch therefore has
//! exactly one link into each of the other `d` meta-nodes, giving a
//! `d`-regular graph on `(d+1) * k` switches that is an expander with high
//! probability.
//!
//! The paper treats Xpander as the second uni-regular contender beside
//! Jellyfish (§4's cost frontier and §7's related-work discussion). The
//! lift matchings are drawn from the caller's RNG only, so a fixed seed
//! pins the exact wiring — the property the determinism suite and the
//! `dcn-cache` content keys both rely on.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates an Xpander topology with `lift` switches per meta-node,
/// network degree `d_net` (so `d_net + 1` meta-nodes), and `h` servers per
/// switch. Total switches: `(d_net + 1) * lift`.
pub fn xpander<R: Rng>(
    lift: usize,
    d_net: usize,
    h: u32,
    rng: &mut R,
) -> Result<Topology, ModelError> {
    if lift == 0 || d_net < 2 {
        return Err(ModelError::InfeasibleParams(format!(
            "xpander needs lift >= 1 and d_net >= 2 (got lift={lift}, d_net={d_net})"
        )));
    }
    let meta = d_net + 1;
    let n = meta * lift;
    for _attempt in 0..8 {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * d_net / 2);
        for a in 0..meta {
            for b in (a + 1)..meta {
                // Random perfect matching between meta-node a and meta-node b.
                let mut perm: Vec<usize> = (0..lift).collect();
                perm.shuffle(rng);
                for (i, &j) in perm.iter().enumerate() {
                    let u = (a * lift + i) as u32;
                    let v = (b * lift + j) as u32;
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges)?;
        if g.is_connected() {
            let name = format!("xpander-l{lift}-d{d_net}-h{h}");
            return Topology::new(g, vec![h; n], name);
        }
    }
    Err(ModelError::InfeasibleParams(format!(
        "failed to build a connected xpander (lift={lift}, d_net={d_net})"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_model::TopoClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = xpander(8, 7, 6, &mut rng).unwrap();
        assert_eq!(t.n_switches(), 64);
        for u in 0..64u32 {
            assert_eq!(t.graph().degree(u), 7);
        }
        assert!(t.graph().is_connected());
        assert_eq!(t.class(), TopoClass::UniRegular { h: 6 });
    }

    #[test]
    fn lift_one_is_complete_graph() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = xpander(1, 4, 2, &mut rng).unwrap();
        assert_eq!(t.n_switches(), 5);
        assert_eq!(t.graph().m(), 10);
        assert_eq!(t.graph().diameter(), Ok(1));
    }

    #[test]
    fn one_link_per_other_metanode() {
        let lift = 6;
        let d = 5;
        let mut rng = StdRng::seed_from_u64(13);
        let t = xpander(lift, d, 4, &mut rng).unwrap();
        for u in 0..t.n_switches() as u32 {
            let my_meta = u as usize / lift;
            let mut seen = std::collections::HashSet::new();
            for (v, _) in t.graph().neighbors(u) {
                let meta = v as usize / lift;
                assert_ne!(meta, my_meta, "intra-meta-node link at {u}");
                assert!(seen.insert(meta), "two links from {u} to meta {meta}");
            }
            assert_eq!(seen.len(), d);
        }
    }

    #[test]
    fn rejects_degenerate_params() {
        let mut rng = StdRng::seed_from_u64(14);
        assert!(xpander(0, 4, 2, &mut rng).is_err());
        assert!(xpander(4, 1, 2, &mut rng).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = xpander(5, 6, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = xpander(5, 6, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.graph().edges(), b.graph().edges());
    }
}
