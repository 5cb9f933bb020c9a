//! The throughput upper bound (tub) of Theorem 2.2 / Equation 1, with the
//! Equation 18 generalization to switches whose server counts differ.
//!
//! Pipeline (§2.2 of the paper):
//!
//! 1. BFS from every server-hosting switch gives pairwise shortest-path
//!    lengths `L_uv`.
//! 2. A maximum-weight perfect matching on the implicit complete bipartite
//!    graph with weights `L_uv · min(H_u, H_v)` yields the **maximal
//!    permutation traffic matrix** — the permutation that maximizes total
//!    (demand-weighted) path length.
//! 3. `tub = 2E / Σ_(u,v) L_uv · min(H_u, H_v)` over the matched pairs.
//!
//! Any permutation yields a valid upper bound (Equation 1 takes a minimum
//! over permutations), so the scalable greedy matching (the paper's own
//! Algorithm 1) trades tightness for speed without losing soundness.

use crate::CoreError;
use dcn_cache::{CacheEntry, CacheKey, KeyBuilder, SolveCtx};
use dcn_graph::{DistMatrix, NodeId};
use dcn_guard::Budget;
use dcn_match::{greedy_max, hungarian_max_stateful, improve_2swap, Matching};
use dcn_model::{Topology, TrafficMatrix};
use dcn_obs::json::Json;

/// Which matching algorithm computes the maximal permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingBackend {
    /// Exact O(n^3) Hungarian — the tightest bound, small/medium topologies.
    Exact,
    /// The paper's Algorithm 1 greedy plus `passes` 2-swap sweeps.
    Greedy {
        /// Number of 2-swap local-search sweeps after the greedy pass.
        improvement_passes: usize,
    },
    /// Exact below `exact_below` server-hosting switches, greedy above.
    Auto {
        /// Threshold (in server-hosting switches) for the exact backend.
        exact_below: usize,
    },
}

impl Default for MatchingBackend {
    fn default() -> Self {
        MatchingBackend::Auto { exact_below: 1024 }
    }
}

/// Result of a tub computation.
#[derive(Debug, Clone)]
pub struct TubResult {
    /// The throughput upper bound (Equation 1 / 18). May exceed 1 for
    /// over-provisioned fabrics; `min(bound, ...)` is up to the caller.
    pub bound: f64,
    /// The maximal permutation: `(src, dst)` switch pairs with demand
    /// `min(H_src, H_dst)` each.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// The denominator `Σ L_uv · min(H_u, H_v)`.
    pub weighted_path_len: f64,
    /// `2E`: twice the total switch-to-switch link capacity.
    pub capacity: f64,
    /// Which backend produced the matching.
    pub backend: &'static str,
    /// True when the requested exact matching exhausted its budget and the
    /// greedy fallback produced this (still sound, possibly looser) bound.
    pub fallback: bool,
}

impl TubResult {
    /// The maximal permutation as a validated traffic matrix.
    pub fn traffic_matrix(&self, topo: &Topology) -> Result<TrafficMatrix, CoreError> {
        Ok(TrafficMatrix::permutation(topo, &self.pairs)?)
    }

    /// True if the bound admits full throughput (>= 1 up to fp jitter).
    pub fn is_full_throughput(&self) -> bool {
        self.bound >= 1.0 - 1e-9
    }
}

/// Maps a persisted backend label back to the interned `&'static str` the
/// solver uses; unknown labels reject the record (→ quarantine).
fn intern_backend(label: &str) -> Result<&'static str, String> {
    match label {
        "hungarian" => Ok("hungarian"),
        "greedy+2swap" => Ok("greedy+2swap"),
        "greedy+2swap(fallback)" => Ok("greedy+2swap(fallback)"),
        other => Err(format!("unknown tub backend {other:?}")),
    }
}

impl CacheEntry for TubResult {
    const KIND: &'static str = "tub";

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<TubResult>()
            + self.pairs.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    fn to_json(&self) -> Json {
        let pairs = self
            .pairs
            .iter()
            .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
            .collect();
        Json::obj([
            ("bound", Json::Num(self.bound)),
            ("weighted_path_len", Json::Num(self.weighted_path_len)),
            ("capacity", Json::Num(self.capacity)),
            ("backend", Json::Str(self.backend.to_string())),
            ("fallback", Json::Bool(self.fallback)),
            ("pairs", Json::Arr(pairs)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let backend = json
            .get("backend")
            .and_then(Json::as_str)
            .ok_or("missing backend")?;
        let fallback = match json.get("fallback") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing fallback".into()),
        };
        let mut pairs = Vec::new();
        for p in json
            .get("pairs")
            .and_then(Json::as_array)
            .ok_or("missing pairs")?
        {
            let p = p.as_array().ok_or("bad pair")?;
            let [u, v] = p else {
                return Err("bad pair arity".into());
            };
            let (u, v) = (
                u.as_u64().ok_or("bad pair src")?,
                v.as_u64().ok_or("bad pair dst")?,
            );
            if u > NodeId::MAX as u64 || v > NodeId::MAX as u64 {
                return Err("pair out of NodeId range".into());
            }
            pairs.push((u as NodeId, v as NodeId));
        }
        Ok(TubResult {
            bound: num("bound")?,
            pairs,
            weighted_path_len: num("weighted_path_len")?,
            capacity: num("capacity")?,
            backend: intern_backend(backend)?,
            fallback,
        })
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.bound.is_finite()
            && self.weighted_path_len.is_finite()
            && self.capacity.is_finite())
        {
            return Err("non-finite tub fields".into());
        }
        if self.weighted_path_len <= 0.0 || self.bound <= 0.0 || self.capacity <= 0.0 {
            return Err("non-positive tub fields".into());
        }
        // Equation 1's defining identity must survive the round trip.
        let recomputed = self.capacity / self.weighted_path_len;
        if (recomputed - self.bound).abs() > dcn_guard::validate::DEFAULT_TOL * self.bound.max(1.0)
        {
            return Err(format!(
                "bound {} inconsistent with capacity/weight {}",
                self.bound, recomputed
            ));
        }
        if self.pairs.is_empty() {
            return Err("empty maximal permutation".into());
        }
        if self.pairs.iter().any(|&(u, v)| u == v) {
            return Err("self-pair in maximal permutation".into());
        }
        Ok(())
    }
}

/// Cache key for a tub computation: topology content plus the matching
/// backend and its parameters. The budget is deliberately excluded (see
/// the `dcn-cache` crate docs).
pub(crate) fn tub_key(topo: &Topology, backend: MatchingBackend) -> CacheKey {
    let (tag, param) = match backend {
        MatchingBackend::Exact => (0u64, 0u64),
        MatchingBackend::Greedy { improvement_passes } => (1, improvement_passes as u64),
        MatchingBackend::Auto { exact_below } => (2, exact_below as u64),
    };
    KeyBuilder::new("tub")
        .topology(topo)
        .u64(tag)
        .u64(param)
        .finish()
}

/// Computes the throughput upper bound for a (near-)uni-regular or
/// bi-regular topology.
///
/// The Hungarian matcher meters the [`Budget`]; if it is exhausted the
/// computation *degrades* rather than fails: the paper's own greedy
/// Algorithm 1 (plus 2-swap sweeps) stands in, which still yields a sound
/// upper bound — any permutation does. The degradation is flagged in
/// [`TubResult::fallback`] and counted in `core.tub.fallbacks`, so
/// manifests record it.
///
/// Results are memoized through the [`CacheHandle`] under a key derived
/// from the topology content and backend (budget excluded — a cached
/// generous-budget result can serve a tight-budget call). Pass
/// `dcn_cache::prelude::nocache()` to always recompute.
///
/// [`CacheHandle`]: dcn_cache::CacheHandle
///
/// ```
/// use dcn_cache::prelude::*;
/// use dcn_core::{tub, MatchingBackend};
/// use dcn_guard::prelude::*;
/// use dcn_topo::fat_tree;
///
/// // Every Clos has full throughput (§4.1): the bound is exactly 1.
/// let topo = fat_tree(4)?;
/// let bound = tub(&topo, MatchingBackend::Exact, &unlimited_ctx())?;
/// assert!((bound.bound - 1.0).abs() < 1e-9);
/// assert!(bound.is_full_throughput());
/// # Ok::<(), dcn_core::CoreError>(())
/// ```
pub fn tub(
    topo: &Topology,
    backend: MatchingBackend,
    ctx: &SolveCtx<'_>,
) -> Result<TubResult, CoreError> {
    ctx.cache.get_or_compute(
        || tub_key(topo, backend),
        || tub_uncached(topo, backend, ctx.budget),
    )
}

fn tub_uncached(
    topo: &Topology,
    backend: MatchingBackend,
    budget: &Budget,
) -> Result<TubResult, CoreError> {
    let _span = dcn_obs::span!(dcn_obs::names::CORE_TUB);
    let k = topo.switches_with_servers();
    if k.len() < 2 {
        return Err(CoreError::OutOfRegime(
            "tub needs at least two switches with servers".into(),
        ));
    }
    let dist = {
        let _apsp = dcn_obs::span!(dcn_obs::names::CORE_TUB_APSP);
        DistMatrix::from_sources(topo.graph(), &k)?
    };
    let weight = |i: usize, j: usize| -> i64 {
        if i == j {
            return 0;
        }
        let (u, v) = (k[i], k[j]);
        let h = topo.servers_at(u).min(topo.servers_at(v)) as i64;
        dist.dist(u, v) as i64 * h
    };
    let n = k.len();
    let (matching, backend_name, fallback) = {
        let _m = dcn_obs::span!(dcn_obs::names::CORE_TUB_MATCHING);
        run_matching(n, weight, backend, budget)
    };
    let mut pairs = Vec::with_capacity(n);
    let mut weighted_path_len = 0.0;
    for (i, &j) in matching.assignment.iter().enumerate() {
        if i == j {
            continue;
        }
        pairs.push((k[i], k[j]));
        weighted_path_len += weight(i, j) as f64;
    }
    let capacity = 2.0 * topo.graph().total_capacity();
    if weighted_path_len <= 0.0 {
        return Err(CoreError::OutOfRegime(
            "maximal permutation has zero total path length".into(),
        ));
    }
    let bound = capacity / weighted_path_len;
    dcn_obs::gauge!(dcn_obs::names::CORE_TUB_BOUND).set(bound);
    Ok(TubResult {
        bound,
        pairs,
        weighted_path_len,
        capacity,
        backend: backend_name,
        fallback,
    })
}

fn run_matching(
    n: usize,
    weight: impl Fn(usize, usize) -> i64 + Copy,
    backend: MatchingBackend,
    budget: &Budget,
) -> (Matching, &'static str, bool) {
    // Exact matching with greedy degradation on budget exhaustion. The
    // greedy path is O(n^2) with no unbounded loops, so it always
    // completes; soundness is preserved because Equation 1 minimizes over
    // permutations — any permutation upper-bounds throughput.
    let exact_or_greedy = |passes: usize| match hungarian_max_stateful(n, weight, budget) {
        Ok((m, state)) => {
            dcn_obs::counter!(dcn_obs::names::MATCH_HUNGARIAN_STEPS).add(state.steps());
            (m, "hungarian", false)
        }
        Err(e) => {
            dcn_obs::counter!(dcn_obs::names::CORE_TUB_FALLBACKS).inc();
            dcn_obs::obs_log!("core.tub: hungarian aborted ({e}); using greedy fallback");
            let mut m = greedy_max(n, weight);
            improve_2swap(n, weight, &mut m, passes);
            (m, "greedy+2swap(fallback)", true)
        }
    };
    match backend {
        MatchingBackend::Exact => exact_or_greedy(2),
        MatchingBackend::Greedy { improvement_passes } => {
            let mut m = greedy_max(n, weight);
            improve_2swap(n, weight, &mut m, improvement_passes);
            (m, "greedy+2swap", false)
        }
        MatchingBackend::Auto { exact_below } => {
            if n < exact_below {
                exact_or_greedy(2)
            } else {
                let mut m = greedy_max(n, weight);
                improve_2swap(n, weight, &mut m, 2);
                (m, "greedy+2swap", false)
            }
        }
    }
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

    fn ring(n: usize, h: u32) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Topology::new(g, vec![h; n], "ring").unwrap()
    }

    #[test]
    fn five_cycle_tub_is_one() {
        // Figure 6 middle topology: C5, H=1. Maximal permutation pairs
        // nodes at distance 2: denominator 5*2 = 10, capacity 2E = 10.
        let t = ring(5, 1);
        let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((r.bound - 1.0).abs() < 1e-12, "bound = {}", r.bound);
        assert_eq!(r.pairs.len(), 5);
        assert!(r.is_full_throughput());
    }

    #[test]
    fn four_cycle_tub() {
        // C4, H=1: maximal permutation pairs opposite corners (distance 2),
        // denominator 4*2 = 8, 2E = 8 → tub = 1.
        let t = ring(4, 1);
        let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((r.bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fat_tree_tub_is_one() {
        // Table A.1: Clos tub = 1.00.
        let t = fat_tree(4).unwrap();
        let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((r.bound - 1.0).abs() < 1e-9, "bound = {}", r.bound);
        let t8 = fat_tree(8).unwrap();
        let r8 = tub(&t8, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((r8.bound - 1.0).abs() < 1e-9, "bound = {}", r8.bound);
    }

    #[test]
    fn tub_upper_bounds_mcf_throughput() {
        // Soundness: tub >= exact KSP-MCF throughput of the maximal
        // permutation, on several random Jellyfish instances.
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..3u64 {
            let _ = seed;
            let t = jellyfish(16, 4, 3, &mut rng).unwrap();
            let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
            let tm = r.traffic_matrix(&t).unwrap();
            let th =
                dcn_mcf::ksp_mcf_throughput(&t, &tm, 32, dcn_mcf::Engine::Exact, &unlimited_ctx())
                    .unwrap()
                    .theta_lb;
            assert!(
                th <= r.bound + 1e-9,
                "mcf {} > tub {} on {}",
                th,
                r.bound,
                t.name()
            );
        }
    }

    #[test]
    fn greedy_bound_is_valid_but_looser() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = jellyfish(30, 5, 4, &mut rng).unwrap();
        let exact = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let greedy = tub(
            &t,
            MatchingBackend::Greedy {
                improvement_passes: 3,
            },
            &unlimited_ctx(),
        )
        .unwrap();
        // Greedy's permutation has no greater total weight → bound no
        // tighter (no smaller... the bound is capacity/weight, so greedy's
        // bound is >= exact's bound).
        assert!(greedy.bound >= exact.bound - 1e-12);
        assert_eq!(greedy.backend, "greedy+2swap");
        assert_eq!(exact.backend, "hungarian");
    }

    #[test]
    fn auto_backend_switches() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = jellyfish(20, 4, 2, &mut rng).unwrap();
        let small = tub(
            &t,
            MatchingBackend::Auto { exact_below: 100 },
            &unlimited_ctx(),
        )
        .unwrap();
        assert_eq!(small.backend, "hungarian");
        let large = tub(
            &t,
            MatchingBackend::Auto { exact_below: 10 },
            &unlimited_ctx(),
        )
        .unwrap();
        assert_eq!(large.backend, "greedy+2swap");
    }

    #[test]
    fn biregular_ignores_serverless_switches_in_pairs() {
        let t = fat_tree(4).unwrap();
        let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        for &(u, v) in &r.pairs {
            assert!(t.servers_at(u) > 0);
            assert!(t.servers_at(v) > 0);
        }
    }

    #[test]
    fn eq18_uses_min_h() {
        // Two switches joined by a link, H = 1 and 3: demand min = 1,
        // L = 1 → denominator 2 (both directions), 2E = 2 → tub = 1.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = Topology::new(g, vec![1, 3], "pair").unwrap();
        let r = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((r.bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exhausted_hungarian_degrades_to_greedy() {
        let t = ring(8, 1);
        let tiny = Budget::unlimited().with_iter_cap(1);
        let r = tub(&t, MatchingBackend::Exact, &nocache_ctx(&tiny)).unwrap();
        assert!(r.fallback);
        assert_eq!(r.backend, "greedy+2swap(fallback)");
        // Still a sound upper bound: no tighter than the exact one.
        let exact = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!(!exact.fallback);
        assert!(r.bound >= exact.bound - 1e-12);
        // And repeated unlimited calls agree.
        let b = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert_eq!(b.bound, exact.bound);
    }

    #[test]
    fn exact_tub_counts_hungarian_steps() {
        let t = ring(8, 1);
        let all: Vec<NodeId> = (0..8).collect();
        let dist = DistMatrix::from_sources(t.graph(), &all).unwrap();
        let weight = |i: usize, j: usize| dist.dist(all[i], all[j]) as i64;
        let (_, state) = hungarian_max_stateful(8, weight, &Budget::unlimited()).unwrap();
        assert!(state.steps() >= 8, "at least one step per row");
        // The counter is process-wide and other tests add to it
        // concurrently, so this solve adds at least its own steps.
        let steps = || dcn_obs::counter_value(dcn_obs::names::MATCH_HUNGARIAN_STEPS);
        let before = steps();
        tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!(steps() - before >= state.steps());
    }

    #[test]
    fn single_server_switch_errors() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = Topology::new(g, vec![2, 0], "one").unwrap();
        assert!(matches!(
            tub(&t, MatchingBackend::Exact, &unlimited_ctx()),
            Err(CoreError::OutOfRegime(_))
        ));
    }
}
