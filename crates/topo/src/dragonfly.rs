//! Dragonfly (Kim et al., ISCA'08) with the canonical "palmtree" global
//! link arrangement.
//!
//! Parameters: each router hosts `p` servers, joins a group of `a` routers
//! (complete graph locally), and contributes `h` global links. With the
//! maximal `g = a*h + 1` groups, every pair of groups shares exactly one
//! global link. The balanced recommendation is `a = 2p = 2h`.
//!
//! Dragonfly is **uni-regular** (every router hosts servers), so the
//! paper's Theorem 2.2 bound applies directly (§7) — even though the
//! design does not scale to datacenter sizes with commodity radixes,
//! which is why the paper's evaluation excludes it.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};

/// Builds a fully-deployed Dragonfly: `g = a*h + 1` groups of `a` routers,
/// `p` servers per router. Router radix: `p + (a-1) + h`.
pub fn dragonfly(p: u32, a: usize, h: usize) -> Result<Topology, ModelError> {
    if a < 2 || h < 1 || p == 0 {
        return Err(ModelError::InfeasibleParams(format!(
            "dragonfly needs a >= 2, h >= 1, p >= 1 (got a={a}, h={h}, p={p})"
        )));
    }
    let g = a * h + 1;
    let n = g * a;
    let router = |grp: usize, r: usize| (grp * a + r) as u32;
    let mut edges = Vec::new();
    // Local complete graphs.
    for grp in 0..g {
        for i in 0..a {
            for j in (i + 1)..a {
                edges.push((router(grp, i), router(grp, j)));
            }
        }
    }
    // Palmtree global arrangement: group G's global port j (0 <= j < a*h)
    // reaches group (G + j + 1) mod g; the peer port is g - 2 - j. Router
    // r owns ports [r*h, (r+1)*h).
    for grp in 0..g {
        for j in 0..a * h {
            let peer_grp = (grp + j + 1) % g;
            let peer_port = g - 2 - j;
            // Add each undirected link once.
            if grp < peer_grp {
                let r = j / h;
                let pr = peer_port / h;
                edges.push((router(grp, r), router(peer_grp, pr)));
            }
        }
    }
    let graph = Graph::from_edges(n, &edges)?;
    let topo = Topology::new(graph, vec![p; n], format!("dragonfly-p{p}-a{a}-h{h}"))?;
    if !topo.graph().is_connected() {
        return Err(ModelError::InfeasibleParams(
            "dragonfly instance disconnected (internal error)".into(),
        ));
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_model::TopoClass;

    #[test]
    fn balanced_instance_structure() {
        // a = 4, h = 2, p = 2: g = 9 groups, 36 routers.
        let t = dragonfly(2, 4, 2).unwrap();
        assert_eq!(t.n_switches(), 36);
        assert_eq!(t.n_servers(), 72);
        assert_eq!(t.class(), TopoClass::UniRegular { h: 2 });
        // Router degree: (a-1) + h = 5.
        for u in 0..36u32 {
            assert_eq!(t.graph().degree(u), 5, "router {u}");
        }
        assert!(t.graph().is_connected());
    }

    #[test]
    fn every_group_pair_has_one_global_link() {
        let a = 3;
        let h = 2;
        let t = dragonfly(1, a, h).unwrap();
        let g = a * h + 1;
        let mut between = vec![vec![0u32; g]; g];
        for &(u, v) in t.graph().edges() {
            let gu = u as usize / a;
            let gv = v as usize / a;
            if gu != gv {
                between[gu.min(gv)][gu.max(gv)] += 1;
            }
        }
        #[expect(
            clippy::needless_range_loop,
            reason = "x indexes the row and bounds the upper-triangle column range"
        )]
        for x in 0..g {
            for y in (x + 1)..g {
                assert_eq!(between[x][y], 1, "groups {x},{y}");
            }
        }
    }

    #[test]
    fn diameter_is_small() {
        // Dragonfly diameter is 3 (local, global, local).
        let t = dragonfly(2, 4, 2).unwrap();
        assert!(t.graph().diameter().unwrap() <= 3);
    }

    #[test]
    fn degenerate_params_rejected() {
        assert!(dragonfly(0, 4, 2).is_err());
        assert!(dragonfly(2, 1, 2).is_err());
        assert!(dragonfly(2, 4, 0).is_err());
    }

    #[test]
    fn tub_applies_to_dragonfly() {
        // §7: tub applies to Dragonfly as a uni-regular topology. For the
        // balanced config the bound lands strictly below the trivial
        // capacity ratio (paths are 2-3 hops).
        let t = dragonfly(2, 4, 2).unwrap();
        // Cannot depend on dcn-core here; just verify the ingredients:
        // uniform H, known E, diameter <= 3.
        assert_eq!(t.e_links(), (36.0 * 5.0) / 2.0);
        assert_eq!(t.h_max(), 2);
    }
}
