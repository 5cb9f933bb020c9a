//! Multilevel bisection and the bisection-bandwidth metric.

use crate::coarsen::coarsen_once;
use crate::fm::refine;
use crate::WGraph;
use dcn_cache::{CacheEntry, KeyBuilder, SolveCtx};
use dcn_guard::{Budget, BudgetError, BudgetMeter};
use dcn_model::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a balanced bisection.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Side (0/1) per switch.
    pub side: Vec<u8>,
    /// Total capacity of links crossing the cut.
    pub cut: f64,
    /// Server weight on each side.
    pub weights: (u64, u64),
}

/// Balanced bisection of the switch graph, minimizing cut capacity while
/// splitting total *server* weight as evenly as the per-switch granularity
/// allows. `tries` independent multilevel runs are performed and the best
/// cut returned (like `METIS` with multiple seeds).
///
/// Meters one tick per FM move step across all multilevel tries. When the
/// budget runs out after at least one completed try, the best result so
/// far is returned (a valid, if possibly looser, cut upper bound);
/// exhaustion before any try finishes propagates as an error.
pub fn bisection(
    topo: &Topology,
    tries: u32,
    seed: u64,
    budget: &Budget,
) -> Result<PartitionResult, BudgetError> {
    let _span = dcn_obs::span!(dcn_obs::names::PARTITION_BISECT_BISECTION);
    let mut meter = budget.meter();
    let cut_hist = dcn_obs::histogram!(dcn_obs::names::PARTITION_BISECT_TRY_CUT);
    let node_w: Vec<u64> = topo.servers().iter().map(|&s| s as u64).collect();
    let g = WGraph::from_topology_graph(topo.graph(), &node_w);
    let total = g.total_node_weight();
    let max_node = node_w.iter().copied().max().unwrap_or(1).max(1);
    // A "half" always exists with weight <= ceil(total/2) + max_node - 1
    // (greedy argument), so that is the strict acceptance limit; moves may
    // pass through a looser limit during refinement.
    let strict = total.div_ceil(2) + max_node - 1;
    let loose = strict + 2 * max_node;
    let mut best: Option<PartitionResult> = None;
    for t in 0..tries.max(1) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
        let side = match multilevel_bisect(&g, strict, loose, &mut rng, &mut meter) {
            Ok(side) => side,
            Err(e) => {
                // Keep the best completed try, if any; otherwise the
                // exhaustion is fatal.
                return match best {
                    Some(b) => {
                        dcn_obs::counter!(dcn_obs::names::PARTITION_BISECT_TRUNCATED_TRIES).inc();
                        dcn_obs::gauge!(dcn_obs::names::PARTITION_BISECT_BEST_CUT).set(b.cut);
                        Ok(b)
                    }
                    None => Err(e),
                };
            }
        };
        let cut = g.cut(&side);
        let mut w = [0u64; 2];
        for (u, &s) in side.iter().enumerate() {
            w[s as usize] += g.node_w[u];
        }
        cut_hist.record(cut);
        let candidate = PartitionResult {
            side,
            cut,
            weights: (w[0], w[1]),
        };
        if best.as_ref().is_none_or(|b| candidate.cut < b.cut) {
            best = Some(candidate);
        }
    }
    // `tries.max(1)` guarantees at least one loop body ran to completion.
    let best = match best {
        Some(b) => b,
        #[expect(
            clippy::unreachable,
            reason = "tries.max(1) above guarantees at least one completed try populated `best`"
        )]
        None => unreachable!("bisection loop ran zero completed tries"),
    };
    dcn_obs::gauge!(dcn_obs::names::PARTITION_BISECT_BEST_CUT).set(best.cut);
    Ok(best)
}

fn multilevel_bisect<R: Rng>(
    g: &WGraph,
    strict: u64,
    loose: u64,
    rng: &mut R,
    meter: &mut BudgetMeter<'_>,
) -> Result<Vec<u8>, BudgetError> {
    // Coarsen.
    let mut levels = Vec::new();
    let mut cur = g.clone();
    while cur.n() > 64 {
        match coarsen_once(&cur, rng) {
            Some(lvl) => {
                let next = lvl.coarse.clone();
                levels.push(lvl);
                cur = next;
            }
            None => break,
        }
    }
    dcn_obs::histogram!(dcn_obs::names::PARTITION_BISECT_COARSEN_LEVELS)
        .record_u64(levels.len() as u64);
    // Initial partition of the coarsest graph: greedy BFS region growing
    // from a random seed until half the weight is collected.
    let mut side = grow_partition(&cur, rng);
    refine(&cur, &mut side, strict, loose, 10, meter)?;
    // Uncoarsen with refinement. Level i maps the graph at level i-1
    // (or the input graph for i == 0) onto `levels[i].coarse`.
    for i in (0..levels.len()).rev() {
        let lvl = &levels[i];
        let mut fine_side = vec![0u8; lvl.map.len()];
        for u in 0..lvl.map.len() {
            fine_side[u] = side[lvl.map[u] as usize];
        }
        side = fine_side;
        let fine_graph = if i == 0 { g } else { &levels[i - 1].coarse };
        refine(fine_graph, &mut side, strict, loose, 6, meter)?;
    }
    Ok(side)
}

/// Greedy BFS region growing: start from a random node, absorb the
/// neighbor most connected to the region until half the weight is inside.
fn grow_partition<R: Rng>(g: &WGraph, rng: &mut R) -> Vec<u8> {
    let n = g.n();
    let total = g.total_node_weight();
    let target = total / 2;
    let mut side = vec![1u8; n];
    let start = rng.gen_range(0..n);
    let mut in_region = vec![false; n];
    let mut conn = vec![0.0f64; n];
    let mut weight = 0u64;
    let mut cur = start;
    loop {
        in_region[cur] = true;
        side[cur] = 0;
        weight += g.node_w[cur];
        if weight >= target {
            break;
        }
        for &(v, w) in &g.adj[cur] {
            if !in_region[v as usize] {
                conn[v as usize] += w;
            }
        }
        // Pick the most-connected frontier node; fall back to any
        // unvisited node for disconnected graphs.
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if !in_region[v] && conn[v] > 0.0 && best.is_none_or(|(_, bw)| conn[v] > bw) {
                best = Some((v, conn[v]));
            }
        }
        cur = match best {
            Some((v, _)) => v,
            None => match (0..n).find(|&v| !in_region[v]) {
                Some(v) => v,
                None => break,
            },
        };
    }
    side
}

/// The cut value of a cached bisection-bandwidth computation. A plain
/// newtype so the scalar can live in the cache with a kind tag and a
/// finite-and-non-negative certificate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedCut(pub f64);

impl CacheEntry for CachedCut {
    const KIND: &'static str = "bbw";

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<CachedCut>()
    }

    fn to_json(&self) -> dcn_obs::json::Json {
        dcn_obs::json::Json::Num(self.0)
    }

    fn from_json(json: &dcn_obs::json::Json) -> Result<Self, String> {
        json.as_f64()
            .map(CachedCut)
            .ok_or_else(|| "expected a number".into())
    }

    fn validate(&self) -> Result<(), String> {
        if self.0.is_finite() && self.0 >= 0.0 {
            Ok(())
        } else {
            Err(format!("cut {} not finite and non-negative", self.0))
        }
    }
}

/// The bisection bandwidth of a topology: the best (smallest) balanced cut
/// found across `tries` multilevel runs. Like METIS, this *over*-estimates
/// the true bisection bandwidth (finding it exactly is NP-hard).
///
/// Memoized through the [`CacheHandle`] per `(topology, tries, seed)` —
/// the partitioner is seeded, so equal keys reproduce the same cut.
///
/// [`CacheHandle`]: dcn_cache::CacheHandle
pub fn bisection_bandwidth(
    topo: &Topology,
    tries: u32,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<f64, BudgetError> {
    let cut = ctx.cache.get_or_compute(
        || {
            KeyBuilder::new("bbw")
                .topology(topo)
                .u64(tries as u64)
                .u64(seed)
                .finish()
        },
        || bisection(topo, tries, seed, ctx.budget).map(|r| CachedCut(r.cut)),
    )?;
    Ok(cut.0)
}

/// Whether the topology has full bisection bandwidth: cut capacity at
/// least half the servers (each server at unit line rate).
pub fn has_full_bisection(
    topo: &Topology,
    tries: u32,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<bool, BudgetError> {
    Ok(bisection_bandwidth(topo, tries, seed, ctx)? >= topo.n_servers() as f64 / 2.0 - 1e-9)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_graph::Graph;
    use dcn_topo::{fat_tree, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dumbbell_cut_is_bridge() {
        // Two K5 cliques with one bridge; servers on every switch.
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 5;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 5));
        let g = Graph::from_edges(10, &edges).unwrap();
        let t = Topology::new(g, vec![2; 10], "dumbbell").unwrap();
        let r = bisection(&t, 4, 7, &Budget::unlimited()).unwrap();
        assert_eq!(r.cut, 1.0);
        assert_eq!(r.weights.0 + r.weights.1, 20);
        assert_eq!(r.weights.0, 10);
    }

    #[test]
    fn fat_tree_has_full_bisection() {
        let t = fat_tree(4).unwrap();
        let bbw = bisection_bandwidth(&t, 8, 3, &unlimited_ctx()).unwrap();
        // Full bisection: at least N/2 = 8.
        assert!(bbw >= 8.0, "bbw = {bbw}");
    }

    #[test]
    fn jellyfish_bbw_reasonable() {
        let mut rng = StdRng::seed_from_u64(1);
        // 32 switches, degree 8, H=4: a random 8-regular graph's balanced
        // cut is roughly n*r/4 minus expansion slack.
        let t = jellyfish(32, 8, 4, &mut rng).unwrap();
        let bbw = bisection_bandwidth(&t, 4, 3, &unlimited_ctx()).unwrap();
        assert!(bbw >= 30.0, "bbw = {bbw} too small for a degree-8 expander");
        assert!(bbw <= 64.0, "bbw = {bbw} exceeds the random-cut average");
    }

    #[test]
    fn high_degree_jellyfish_has_full_bisection() {
        let mut rng = StdRng::seed_from_u64(2);
        // Degree 16 network ports vs H=4 servers: plenty of fabric capacity.
        let t = jellyfish(32, 16, 4, &mut rng).unwrap();
        assert!(has_full_bisection(&t, 4, 3, &unlimited_ctx()).unwrap());
    }

    #[test]
    fn ring_bbw_is_two() {
        let edges: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 1) % 16)).collect();
        let g = Graph::from_edges(16, &edges).unwrap();
        let t = Topology::new(g, vec![1; 16], "ring").unwrap();
        let bbw = bisection_bandwidth(&t, 8, 5, &unlimited_ctx()).unwrap();
        assert_eq!(bbw, 2.0);
        assert!(!has_full_bisection(&t, 8, 5, &unlimited_ctx()).unwrap());
    }

    #[test]
    fn budget_exhaustion_reports_or_returns_partial() {
        let t = fat_tree(4).unwrap();
        // Cap so tight the first multilevel try cannot finish.
        let tiny = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            bisection(&t, 4, 3, &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
        // A cap that lets some tries finish returns a valid partition.
        let medium = Budget::unlimited().with_iter_cap(10_000);
        if let Ok(r) = bisection(&t, 64, 3, &medium) {
            assert_eq!(r.weights.0 + r.weights.1, t.n_servers() as u64);
        }
        // Unlimited budgets are deterministic for a fixed seed.
        let a = bisection(&t, 4, 3, &Budget::unlimited()).unwrap();
        let b = bisection(&t, 4, 3, &Budget::unlimited()).unwrap();
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn serverless_switches_can_sit_anywhere() {
        // Star: center serverless, 4 leaves with servers. A balanced server
        // split puts 2 leaves per side; the cut is 2 (or 3 with the
        // center's extra edge when the center's side has 2 leaves).
        let g = Graph::from_edges(5, &[(4, 0), (4, 1), (4, 2), (4, 3)]).unwrap();
        let t = Topology::new(g, vec![2, 2, 2, 2, 0], "star").unwrap();
        let r = bisection(&t, 8, 2, &Budget::unlimited()).unwrap();
        assert_eq!(r.weights.0, 4);
        assert_eq!(r.weights.1, 4);
        assert_eq!(r.cut, 2.0);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod exhaustive_tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_graph::Graph;
    use dcn_topo::jellyfish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute force over all balanced 0/1 assignments (n <= 14).
    fn exhaustive_best_cut(topo: &Topology) -> f64 {
        let g = topo.graph().coalesced();
        let n = g.n();
        assert!(n <= 14, "exhaustive bisection only for tiny graphs");
        let weights: Vec<u64> = topo.servers().iter().map(|&s| s as u64).collect();
        let total: u64 = weights.iter().sum();
        let max_node = weights.iter().copied().max().unwrap_or(1).max(1);
        let strict = total.div_ceil(2) + max_node - 1;
        let mut best = f64::INFINITY;
        for mask in 1u32..(1 << n) - 1 {
            let mut w0 = 0u64;
            for (i, &w) in weights.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    w0 += w;
                }
            }
            if w0 > strict || total - w0 > strict {
                continue;
            }
            let mut cut = 0.0;
            for (e, &(u, v)) in g.edges().iter().enumerate() {
                if (mask >> u & 1) != (mask >> v & 1) {
                    cut += g.capacity(e as u32);
                }
            }
            best = best.min(cut);
        }
        best
    }

    #[test]
    fn multilevel_matches_exhaustive_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..4 {
            let t = jellyfish(12, 4, 2, &mut rng).unwrap();
            let heuristic = bisection_bandwidth(&t, 8, trial, &unlimited_ctx()).unwrap();
            let exact = exhaustive_best_cut(&t);
            // The heuristic is an upper bound on the true minimum...
            assert!(
                heuristic >= exact - 1e-9,
                "trial {trial}: heuristic {heuristic} below exact {exact}?!"
            );
            // ...and with 8 restarts on 12 nodes it should actually find it.
            assert!(
                heuristic <= exact + 1e-9,
                "trial {trial}: heuristic {heuristic} missed exact {exact}"
            );
        }
    }

    #[test]
    fn exhaustive_agrees_on_weighted_dumbbell() {
        let g = Graph::from_weighted_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 2.0),
                (2, 0, 2.0),
                (3, 4, 2.0),
                (4, 5, 2.0),
                (5, 3, 2.0),
                (0, 3, 1.0),
            ],
        )
        .unwrap();
        let t = Topology::new(g, vec![2; 6], "dumbbell").unwrap();
        assert_eq!(exhaustive_best_cut(&t), 1.0);
        assert_eq!(
            bisection_bandwidth(&t, 8, 3, &unlimited_ctx()).unwrap(),
            1.0
        );
    }
}
