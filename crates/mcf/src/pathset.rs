//! Per-commodity restricted path sets over the coalesced switch graph.

use crate::McfError;
use dcn_cache::{CacheEntry, KeyBuilder, SolveCtx};
use dcn_graph::ksp;
use dcn_graph::{EdgeId, EdgeIndex, Graph, NodeId};
use dcn_guard::Budget;
use dcn_model::{Topology, TrafficMatrix};
use dcn_obs::json::Json;
use std::sync::Arc;

/// A path represented as directed edge hops on the coalesced graph.
#[derive(Debug, Clone)]
pub struct PathRepr {
    /// Node sequence (`nodes[0]` = src).
    pub nodes: Vec<NodeId>,
    /// Undirected edge id of each hop, with the direction flag: `true`
    /// when the hop traverses the edge from its stored `u` to `v` endpoint.
    pub hops: Vec<(EdgeId, bool)>,
}

impl PathRepr {
    /// Hop count.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for the trivial (empty) path.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// One commodity: demand between a switch pair plus its admissible paths.
#[derive(Debug, Clone)]
pub struct Commodity {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// Demand volume.
    pub demand: f64,
    /// Admissible paths, non-decreasing in length; `paths[0]` is shortest.
    pub paths: Vec<PathRepr>,
    /// Shortest-path length for this pair.
    pub sp_len: usize,
}

/// A complete MCF instance: the coalesced graph (capacities per direction)
/// and one commodity per traffic-matrix entry.
#[derive(Debug)]
pub struct PathSet {
    graph: Graph,
    commodities: Vec<Commodity>,
}

/// An `Arc`-shared [`PathSet`] as stored in the cache: cloning is a
/// refcount bump, so cache hits never copy the (potentially large)
/// enumerated paths.
#[derive(Debug, Clone)]
pub struct SharedPathSet(pub Arc<PathSet>);

/// Cache key for an enumerated path set: exact topology + traffic matrix
/// content plus `k`. Keys are exact — a `k=16` path set is *not* served
/// from a `k=32` entry, because the slack-DFS enumerator guarantees no
/// prefix property across `k` values.
fn pathset_key(topo: &Topology, tm: &TrafficMatrix, k: usize) -> dcn_cache::CacheKey {
    KeyBuilder::new("pathset")
        .topology(topo)
        .traffic(tm)
        .u64(k as u64)
        .finish()
}

impl CacheEntry for SharedPathSet {
    const KIND: &'static str = "pathset";
    /// Memory-tier only: a serialized path set is far larger than the
    /// enumeration it would save.
    const PERSIST: bool = false;

    fn approx_bytes(&self) -> usize {
        let paths: usize = self
            .0
            .commodities
            .iter()
            .map(|c| {
                c.paths
                    .iter()
                    .map(|p| {
                        std::mem::size_of::<PathRepr>()
                            + p.nodes.len() * std::mem::size_of::<NodeId>()
                            + p.hops.len() * std::mem::size_of::<(EdgeId, bool)>()
                    })
                    .sum::<usize>()
                    + std::mem::size_of::<Commodity>()
            })
            .sum();
        paths + self.0.graph.m() * 2 * std::mem::size_of::<u64>()
    }

    fn to_json(&self) -> Json {
        Json::Null // never called: PERSIST is false
    }

    fn from_json(_json: &Json) -> Result<Self, String> {
        Err("path sets are memory-tier only".into())
    }
}

impl PathSet {
    /// Builds path sets with up to `k` shortest paths per commodity.
    ///
    /// Path enumeration for each commodity meters the [`Budget`], so
    /// adversarial graphs with combinatorially many near-shortest paths
    /// cannot stall the build phase. The per-commodity enumeration fans
    /// out across the [`dcn_exec`] pool. Commodities are independent;
    /// results are merged in demand order and the lowest-index failure
    /// (e.g. the first `NoPath` in traffic-matrix order) wins, so output —
    /// including the error — is identical to a serial build at any
    /// `DCN_EXEC_THREADS`.
    pub fn k_shortest(
        topo: &Topology,
        tm: &TrafficMatrix,
        k: usize,
        budget: &Budget,
    ) -> Result<Self, McfError> {
        if tm.is_empty() {
            return Err(McfError::EmptyTraffic);
        }
        let graph = topo.graph().coalesced();
        let index = EdgeIndex::new(&graph);
        let pool = dcn_exec::Pool::from_env();
        let commodities = pool.par_map(budget, tm.demands(), |_, d| {
            let raw = ksp::k_shortest_by_slack(&graph, d.src, d.dst, k, u16::MAX, budget)
                .map_err(McfError::Budget)?;
            // min() is None exactly when no path was enumerated.
            let Some(sp_len) = raw.iter().map(|p| p.len() - 1).min() else {
                return Err(McfError::NoPath {
                    src: d.src,
                    dst: d.dst,
                });
            };
            let paths = raw
                .into_iter()
                .map(|nodes| PathRepr {
                    hops: index.hops(&nodes),
                    nodes,
                })
                .collect();
            Ok(Commodity {
                src: d.src,
                dst: d.dst,
                demand: d.amount,
                paths,
                sp_len,
            })
        })?;
        Ok(PathSet { graph, commodities })
    }

    /// [`PathSet::k_shortest`] behind the cache: the enumerated path set
    /// is memoized per exact `(topology, traffic matrix, k)` key and
    /// shared via `Arc`, so a K-sweep's repeated solves (and warm reruns
    /// of a whole figure) rebuild each path set once. Memory-tier only —
    /// serialized path sets would dwarf their recompute cost.
    pub fn k_shortest_shared(
        topo: &Topology,
        tm: &TrafficMatrix,
        k: usize,
        ctx: &SolveCtx<'_>,
    ) -> Result<SharedPathSet, McfError> {
        ctx.cache.get_or_compute(
            || pathset_key(topo, tm, k),
            || PathSet::k_shortest(topo, tm, k, ctx.budget).map(|ps| SharedPathSet(Arc::new(ps))),
        )
    }

    /// The coalesced graph the paths live on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The commodities.
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Total number of paths across all commodities.
    pub fn total_paths(&self) -> usize {
        self.commodities.iter().map(|c| c.paths.len()).sum()
    }

    /// Number of directed capacity slots (2 per undirected edge).
    pub fn n_directed_edges(&self) -> usize {
        2 * self.graph.m()
    }

    /// Directed-edge index of a hop: `2 * edge + direction`.
    #[inline]
    pub fn dir_index(hop: (EdgeId, bool)) -> usize {
        2 * hop.0 as usize + hop.1 as usize
    }

    /// Computes, given per-path flows (indexed commodity-major in the same
    /// order as `commodities`), the fraction of flow volume on shortest
    /// paths. Returns 1.0 when no flow is routed.
    pub fn shortest_path_fraction(&self, flows: &[Vec<f64>]) -> f64 {
        let mut on_sp = 0.0;
        let mut total = 0.0;
        for (c, fc) in self.commodities.iter().zip(flows.iter()) {
            for (p, &f) in c.paths.iter().zip(fc.iter()) {
                total += f;
                if p.len() == c.sp_len {
                    on_sp += f;
                }
            }
        }
        if total <= 0.0 {
            1.0
        } else {
            on_sp / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use dcn_model::{Topology, TrafficMatrix};

    fn square_topo() -> Topology {
        // 4-cycle with 2 servers per switch.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        Topology::new(g, vec![2; 4], "square").unwrap()
    }

    #[test]
    fn builds_paths_with_hops() {
        let t = square_topo();
        let tm = TrafficMatrix::permutation(&t, &[(0, 2), (2, 0)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 4, &Budget::unlimited()).unwrap();
        assert_eq!(ps.commodities().len(), 2);
        let c = &ps.commodities()[0];
        assert_eq!(c.sp_len, 2);
        assert_eq!(c.paths.len(), 2); // both sides of the square
        for p in &c.paths {
            assert_eq!(p.nodes.len(), p.hops.len() + 1);
        }
    }

    #[test]
    fn no_path_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let t = Topology::new(g, vec![2; 4], "split").unwrap();
        let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).unwrap();
        assert_eq!(
            PathSet::k_shortest(&t, &tm, 4, &Budget::unlimited()).unwrap_err(),
            McfError::NoPath { src: 0, dst: 2 }
        );
    }

    #[test]
    fn parallel_links_coalesced_into_capacity() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        let t = Topology::new(g, vec![2; 2], "trunk").unwrap();
        let tm = TrafficMatrix::permutation(&t, &[(0, 1)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 8, &Budget::unlimited()).unwrap();
        assert_eq!(ps.graph().m(), 1);
        assert_eq!(ps.graph().capacity(0), 3.0);
        assert_eq!(ps.commodities()[0].paths.len(), 1);
    }

    #[test]
    fn sp_fraction_counts_volume() {
        let t = square_topo();
        let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 8, &Budget::unlimited()).unwrap();
        // Both paths are shortest on the square.
        let flows = vec![vec![1.0, 3.0]];
        assert_eq!(ps.shortest_path_fraction(&flows), 1.0);
        // No flow at all.
        let flows = vec![vec![0.0, 0.0]];
        assert_eq!(ps.shortest_path_fraction(&flows), 1.0);
    }
}
