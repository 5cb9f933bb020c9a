//! Path-selection policies: how a deployed fabric maps flows to paths.

use crate::flows::{Flow, RoutedFlow};
use crate::SimError;
use dcn_graph::{ksp, EdgeIndex, Graph};
use dcn_guard::Budget;
use dcn_model::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// How each flow picks its path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathPolicy {
    /// ECMP-style: each flow is hashed onto one of the shortest paths,
    /// uniformly at random (flow-level ECMP, no spraying).
    EcmpHash,
    /// KSP striping: flows of the same switch pair are assigned round-robin
    /// across the `k` shortest paths (idealized MPTCP-over-KSP).
    KspStripe {
        /// Paths striped across.
        k: usize,
    },
    /// Valiant load balancing: each flow picks a random intermediate
    /// switch with servers and concatenates two random shortest-path legs.
    Vlb,
}

impl PathPolicy {
    /// Routes every flow, producing directed-link index lists.
    pub fn route_all(
        &self,
        topo: &Topology,
        flows: &[Flow],
        seed: u64,
    ) -> Result<Vec<RoutedFlow>, SimError> {
        let graph = topo.graph().coalesced();
        let index = EdgeIndex::new(&graph);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = PathCache::new(&graph);
        let k_set = topo.switches_with_servers();
        let mut rr: HashMap<(u32, u32), usize> = HashMap::new();
        let mut out = Vec::with_capacity(flows.len());
        for &flow in flows {
            let nodes = match *self {
                PathPolicy::EcmpHash => cache.random_shortest(flow.src, flow.dst, &mut rng)?,
                PathPolicy::KspStripe { k } => {
                    let paths = cache.k_shortest(flow.src, flow.dst, k.max(1))?;
                    let idx = rr.entry((flow.src, flow.dst)).or_insert(0);
                    let p = paths[*idx % paths.len()].clone();
                    *idx += 1;
                    p
                }
                PathPolicy::Vlb => {
                    let mid = loop {
                        let cand = k_set[rng.gen_range(0..k_set.len())];
                        if cand != flow.src && cand != flow.dst {
                            break cand;
                        }
                        // Degenerate two-switch fabrics: fall back direct.
                        if k_set.len() <= 2 {
                            break flow.src;
                        }
                    };
                    if mid == flow.src {
                        cache.random_shortest(flow.src, flow.dst, &mut rng)?
                    } else {
                        let mut a = cache.random_shortest(flow.src, mid, &mut rng)?;
                        let b = cache.random_shortest(mid, flow.dst, &mut rng)?;
                        a.pop(); // drop duplicate mid
                        a.extend(b);
                        a
                    }
                }
            };
            // Directed-link index of each hop: `2 * edge + forward`.
            let links = index
                .hops(&nodes)
                .into_iter()
                .map(|(e, fwd)| 2 * e as usize + usize::from(fwd))
                .collect();
            out.push(RoutedFlow { flow, links });
        }
        Ok(out)
    }
}

/// Per-pair shortest/KSP path cache. VLB and looped workloads hammer the
/// same pairs, so enumeration is done once per pair.
struct PathCache<'g> {
    graph: &'g Graph,
    shortest: HashMap<(u32, u32), Vec<ksp::Path>>,
    ksp: HashMap<(u32, u32, usize), Vec<ksp::Path>>,
}

impl<'g> PathCache<'g> {
    fn new(graph: &'g Graph) -> Self {
        PathCache {
            graph,
            shortest: HashMap::new(),
            ksp: HashMap::new(),
        }
    }

    fn random_shortest<R: Rng>(
        &mut self,
        src: u32,
        dst: u32,
        rng: &mut R,
    ) -> Result<ksp::Path, SimError> {
        let paths = match self.shortest.entry((src, dst)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(ksp::paths_within_slack(
                self.graph,
                src,
                dst,
                0,
                64,
                &Budget::unlimited(),
            )?),
        };
        if paths.is_empty() {
            return Err(SimError::NoPath { src, dst });
        }
        Ok(paths[rng.gen_range(0..paths.len())].clone())
    }

    fn k_shortest(&mut self, src: u32, dst: u32, k: usize) -> Result<&[ksp::Path], SimError> {
        let paths = match self.ksp.entry((src, dst, k)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(ksp::k_shortest_by_slack(
                self.graph,
                src,
                dst,
                k,
                u16::MAX,
                &Budget::unlimited(),
            )?),
        };
        if paths.is_empty() {
            return Err(SimError::NoPath { src, dst });
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use dcn_model::{Topology, TrafficMatrix};

    fn square() -> Topology {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        Topology::new(g, vec![2; 4], "square").unwrap()
    }

    fn flows(t: &Topology, pairs: &[(u32, u32)]) -> Vec<Flow> {
        let tm = TrafficMatrix::permutation(t, pairs).unwrap();
        crate::flows_from_tm(&tm)
    }

    #[test]
    fn ecmp_hash_routes_on_shortest_paths() {
        let t = square();
        let fs = flows(&t, &[(0, 2)]);
        let routed = PathPolicy::EcmpHash.route_all(&t, &fs, 1).unwrap();
        assert_eq!(routed.len(), 2);
        for r in &routed {
            assert_eq!(r.links.len(), 2, "shortest path on a square is 2 hops");
        }
    }

    #[test]
    fn ksp_stripe_spreads_flows() {
        let t = square();
        let fs = flows(&t, &[(0, 2)]);
        let routed = PathPolicy::KspStripe { k: 2 }
            .route_all(&t, &fs, 1)
            .unwrap();
        // Two flows striped over the two sides of the square: first links
        // must differ.
        assert_ne!(routed[0].links[0], routed[1].links[0]);
    }

    #[test]
    fn vlb_paths_are_valid_walks() {
        let t = square();
        let fs = flows(&t, &[(0, 2), (2, 0)]);
        let routed = PathPolicy::Vlb.route_all(&t, &fs, 3).unwrap();
        for r in &routed {
            assert!(!r.links.is_empty());
        }
    }

    #[test]
    fn disconnected_pair_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let t = Topology::new(g, vec![1; 4], "split").unwrap();
        let fs = vec![Flow {
            src: 0,
            dst: 2,
            demand: 1.0,
        }];
        assert!(matches!(
            PathPolicy::EcmpHash.route_all(&t, &fs, 1),
            Err(SimError::NoPath { src: 0, dst: 2 })
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let t = square();
        let fs = flows(&t, &[(0, 2), (1, 3)]);
        let a = PathPolicy::EcmpHash.route_all(&t, &fs, 42).unwrap();
        let b = PathPolicy::EcmpHash.route_all(&t, &fs, 42).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.links, y.links);
        }
    }
}
