//! Delta-TUB: incremental tub recomputation across perturbed siblings.
//!
//! A failure sweep solves many degraded copies of one parent topology.
//! The tub pipeline (BFS distance matrix → maximum-weight matching →
//! Equation 1) is dominated by the matching, and most of a matching
//! survives a few failed links: the parent's Hungarian dual potentials
//! stay feasible wherever a weight grew by less than its dual slack. This
//! module memoizes the parent's dual state in the cache and, per sample:
//!
//! 1. computes the child's own distance matrix, exactly as the cold path
//!    does;
//! 2. re-matches against the parent's duals via
//!    [`HungarianState::rematch_auto`], which re-augments only rows whose
//!    dual feasibility or assigned-edge tightness the new weights violate,
//!    and is exact for arbitrary weight changes;
//! 3. assembles Equation 1 as the cold path does.
//!
//! The rematched permutation can differ from the cold Hungarian's — both
//! are optimal — but its total weight is integer-exact equal, so the
//! resulting `bound` is **bit-identical** to a cold exact tub. Any error
//! in the delta path (budget, disconnection races) falls back to the cold
//! solver, counted in `delta.fallback`. Results are cached under keys
//! chained off the parent's tub key (`tub_delta` kind), never under the
//! cold `tub` kind, because their `pairs` may differ from a cold solve's.

use crate::tub::{tub, tub_key, MatchingBackend, TubResult};
use crate::CoreError;
use dcn_cache::{CacheEntry, CacheKey, KeyBuilder, SolveCtx};
use dcn_graph::{DistMatrix, NodeId};
use dcn_guard::Budget;
use dcn_match::{hungarian_max_stateful, HungarianState};
use dcn_model::Topology;
use dcn_obs::json::Json;
use std::sync::Arc;

/// The Hungarian dual state of a parent's maximal permutation as stored
/// in the cache: `Arc`-shared, so a hit is a refcount bump.
#[derive(Debug, Clone)]
struct ParentDuals(Arc<HungarianState>);

impl CacheEntry for ParentDuals {
    const KIND: &'static str = "tub_duals";
    /// Memory-tier only: one parent solve per process is cheap next to
    /// the samples it serves.
    const PERSIST: bool = false;

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<HungarianState>() + (self.0.n() + 1) * 3 * std::mem::size_of::<i64>()
    }

    fn to_json(&self) -> Json {
        Json::Null // never called: PERSIST is false
    }

    fn from_json(_json: &Json) -> Result<Self, String> {
        Err("parent duals are memory-tier only".into())
    }
}

/// Cache key for a parent's duals: the topology's content alone. The
/// exact matching is the same under every backend that runs it.
fn duals_key(topo: &Topology) -> CacheKey {
    KeyBuilder::new("tub_duals").topology(topo).finish()
}

/// The tub matching weight of the pair `(k[i], k[j])`: its hop distance
/// times the smaller server count of its endpoints (Equation 18), as the
/// cold `tub` computes it. The cold path keeps its own copy of this and
/// of the Equation 1 assembly: routing it through shared helpers made
/// exact `tub` ~7% slower on a 2-vCPU host.
fn tub_weight<'a>(
    topo: &'a Topology,
    k: &'a [NodeId],
    dist: &'a DistMatrix,
) -> impl Fn(usize, usize) -> i64 + Copy + 'a {
    move |i: usize, j: usize| -> i64 {
        if i == j {
            return 0;
        }
        let (u, v) = (k[i], k[j]);
        let h = topo.servers_at(u).min(topo.servers_at(v)) as i64;
        dist.dist(u, v) as i64 * h
    }
}

/// Solves the parent's maximal permutation from scratch and keeps its
/// dual state (the distance matrix is dropped).
fn solve_duals(topo: &Topology, k: &[NodeId], budget: &Budget) -> Result<ParentDuals, CoreError> {
    let dist = DistMatrix::from_sources(topo.graph(), k)?;
    let (_, state) = hungarian_max_stateful(k.len(), tub_weight(topo, k, &dist), budget)?;
    dcn_obs::counter!(dcn_obs::names::MATCH_HUNGARIAN_STEPS).add(state.steps());
    Ok(ParentDuals(Arc::new(state)))
}

/// Parent artifacts for delta-TUB: the unfailed topology's server-hosting
/// switches and the Hungarian dual state of its maximal permutation.
pub(crate) struct TubDeltaParent<'a> {
    topo: &'a Topology,
    k: Vec<NodeId>,
    /// `None` when the parent could not be solved: every sample then
    /// solves cold, each counted in `delta.fallback`.
    duals: Option<ParentDuals>,
    parent_key: CacheKey,
}

impl<'a> TubDeltaParent<'a> {
    /// Fetches the parent's duals from the cache, solving them on a miss,
    /// when the backend would use the exact Hungarian matching on this
    /// instance. `None` means the backend has no dual state to reuse
    /// (greedy, or `Auto` at or above its threshold): solve every sample
    /// cold.
    pub(crate) fn prepare(
        topo: &'a Topology,
        backend: MatchingBackend,
        ctx: &SolveCtx<'_>,
    ) -> Option<TubDeltaParent<'a>> {
        let k = topo.switches_with_servers();
        let exact = match backend {
            MatchingBackend::Exact => true,
            MatchingBackend::Auto { exact_below } => k.len() < exact_below,
            MatchingBackend::Greedy { .. } => false,
        };
        if !exact || k.len() < 2 {
            return None;
        }
        let duals = ctx
            .cache
            .get_or_compute(|| duals_key(topo), || solve_duals(topo, &k, ctx.budget))
            .inspect_err(|e| {
                dcn_obs::obs_log!("core.delta: parent solve failed ({e}); samples solve cold");
            })
            .ok();
        Some(TubDeltaParent {
            topo,
            k,
            duals,
            parent_key: tub_key(topo, backend),
        })
    }

    /// Delta tub with the cold solver as safety net: a parent without
    /// duals, or any error in the incremental path (budget exhaustion
    /// mid-rematch, a child that disconnected a source), bumps
    /// `delta.fallback` and recomputes from scratch — the sweep's answer
    /// is never weaker than without deltas.
    pub(crate) fn tub_or_cold(
        &self,
        child: &Topology,
        backend: MatchingBackend,
        ctx: &SolveCtx<'_>,
    ) -> Result<TubResult, CoreError> {
        let fallback = || dcn_obs::counter!(dcn_obs::names::DELTA_FALLBACK).inc();
        let Some(duals) = &self.duals else {
            fallback();
            return tub(child, backend, ctx);
        };
        match self.solve(&duals.0, child, ctx) {
            Ok(r) => Ok(r),
            Err(e) => {
                fallback();
                dcn_obs::obs_log!("core.delta: tub delta failed ({e}); cold recompute");
                tub(child, backend, ctx)
            }
        }
    }

    /// Incremental tub of a degraded sibling, cached under a key chained
    /// off the parent's tub key (`tub_delta` kind — disjoint from cold
    /// `tub` entries by construction).
    fn solve(
        &self,
        duals: &HungarianState,
        child: &Topology,
        ctx: &SolveCtx<'_>,
    ) -> Result<TubResult, CoreError> {
        ctx.cache.get_or_compute(
            || {
                KeyBuilder::new("tub_delta")
                    .key(&self.parent_key)
                    .topology(child)
                    .finish()
            },
            || self.solve_uncached(duals, child, ctx.budget),
        )
    }

    fn solve_uncached(
        &self,
        duals: &HungarianState,
        child: &Topology,
        budget: &Budget,
    ) -> Result<TubResult, CoreError> {
        // The delta is only valid against a link-degraded copy of the
        // parent: same switches, same server placement. Anything else
        // routes to the cold fallback.
        if child.servers() != self.topo.servers() {
            return Err(CoreError::OutOfRegime(
                "delta child has different server placement than parent".into(),
            ));
        }
        let dist = DistMatrix::from_sources(child.graph(), &self.k)?;
        dcn_obs::counter!(dcn_obs::names::DELTA_DIST_ROWS_REBUILT).add(self.k.len() as u64);
        let weight = tub_weight(child, &self.k, &dist);
        let (matching, state, reaugmented) = duals.rematch_auto(weight, budget)?;
        dcn_obs::counter!(dcn_obs::names::DELTA_MATCHING_PATCHED).inc();
        dcn_obs::counter!(dcn_obs::names::MATCH_HUNGARIAN_STEPS).add(state.steps());
        dcn_obs::obs_log!(
            "core.delta: re-augmented {reaugmented}/{} matching rows",
            self.k.len()
        );
        // Assemble Equation 1 exactly as the cold path does. The
        // weighted path length is an exact integer sum, so the bound is
        // bit-identical to the cold Hungarian's even when the matched
        // permutation differs.
        let mut pairs = Vec::with_capacity(self.k.len());
        let mut weighted_path_len = 0.0;
        for (i, &j) in matching.assignment.iter().enumerate() {
            if i == j {
                continue;
            }
            pairs.push((self.k[i], self.k[j]));
            weighted_path_len += weight(i, j) as f64;
        }
        let capacity = 2.0 * child.graph().total_capacity();
        if weighted_path_len <= 0.0 {
            return Err(CoreError::OutOfRegime(
                "maximal permutation has zero total path length".into(),
            ));
        }
        Ok(TubResult {
            bound: capacity / weighted_path_len,
            pairs,
            weighted_path_len,
            capacity,
            backend: "hungarian",
            fallback: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::{fail_random_links, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn duals<'p>(parent: &'p TubDeltaParent<'_>) -> &'p HungarianState {
        &parent.duals.as_ref().expect("parent duals").0
    }

    #[test]
    fn delta_tub_bound_is_bit_identical_to_cold() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = jellyfish(32, 6, 3, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let parent =
            TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &ctx).expect("exact parent");
        let mut fail_rng = StdRng::seed_from_u64(23);
        let mut compared = 0;
        for _ in 0..12 {
            let Ok(child) = fail_random_links(&topo, 0.15, &mut fail_rng) else {
                continue;
            };
            let warm = parent
                .tub_or_cold(
                    &child,
                    MatchingBackend::Exact,
                    &nocache_ctx(&Budget::unlimited()),
                )
                .unwrap();
            let cold = tub(
                &child,
                MatchingBackend::Exact,
                &nocache_ctx(&Budget::unlimited()),
            )
            .unwrap();
            assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
            assert_eq!(
                warm.weighted_path_len.to_bits(),
                cold.weighted_path_len.to_bits()
            );
            assert!(!warm.fallback);
            compared += 1;
        }
        assert!(compared > 0, "no connected failure sample to compare");
    }

    #[test]
    fn delta_rematch_counts_its_hungarian_steps() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = jellyfish(32, 6, 3, &mut rng).unwrap();
        let parent = TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &unlimited_ctx())
            .expect("exact parent");
        let mut fail_rng = StdRng::seed_from_u64(23);
        let child = loop {
            if let Ok(c) = fail_random_links(&topo, 0.15, &mut fail_rng) {
                break c;
            }
        };
        let k = child.switches_with_servers();
        let dist = DistMatrix::from_sources(child.graph(), &k).unwrap();
        let weight = tub_weight(&child, &k, &dist);
        let unlimited = Budget::unlimited();
        let (_, state, _) = duals(&parent).rematch_auto(weight, &unlimited).unwrap();
        assert!(state.steps() > 0, "the failures dirty some row");
        // Other tests add to the process-wide counter concurrently.
        let steps = || dcn_obs::counter_value(dcn_obs::names::MATCH_HUNGARIAN_STEPS);
        let before = steps();
        parent
            .tub_or_cold(&child, MatchingBackend::Exact, &unlimited_ctx())
            .unwrap();
        assert!(steps() - before >= state.steps());
    }

    #[test]
    fn unperturbed_child_reuses_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let parent =
            TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &ctx).expect("exact parent");
        // "Failing" zero links: every row stays tight and feasible, so
        // nothing re-augments and the bound equals the parent tub exactly.
        let k = topo.switches_with_servers();
        let dist = DistMatrix::from_sources(topo.graph(), &k).unwrap();
        let (_, _, reaugmented) = duals(&parent)
            .rematch_auto(tub_weight(&topo, &k, &dist), &Budget::unlimited())
            .unwrap();
        assert_eq!(reaugmented, 0);
        let warm = parent
            .tub_or_cold(
                &topo,
                MatchingBackend::Exact,
                &nocache_ctx(&Budget::unlimited()),
            )
            .unwrap();
        let cold = tub(
            &topo,
            MatchingBackend::Exact,
            &nocache_ctx(&Budget::unlimited()),
        )
        .unwrap();
        assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
    }

    #[test]
    fn greedy_backend_has_no_delta_parent() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        assert!(TubDeltaParent::prepare(
            &topo,
            MatchingBackend::Greedy {
                improvement_passes: 2
            },
            &ctx
        )
        .is_none());
        assert!(
            TubDeltaParent::prepare(&topo, MatchingBackend::Auto { exact_below: 2 }, &ctx)
                .is_none()
        );
    }

    #[test]
    fn parent_duals_are_memoized_per_topology() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = jellyfish(24, 5, 3, &mut rng).unwrap();
        let cache = CacheHandle::in_memory(1 << 22);
        let budget = Budget::unlimited();
        let first = TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &ctx(&cache, &budget))
            .expect("exact parent");
        // Another backend that runs the exact matcher shares the entry.
        let second = TubDeltaParent::prepare(
            &topo,
            MatchingBackend::Auto { exact_below: 500 },
            &ctx(&cache, &budget),
        )
        .expect("exact parent");
        let (a, b) = (first.duals.unwrap(), second.duals.unwrap());
        assert!(Arc::ptr_eq(&a.0, &b.0), "the parent was solved twice");
    }

    #[test]
    fn budget_starved_delta_falls_back_to_cold() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = jellyfish(24, 5, 3, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let parent =
            TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &ctx).expect("exact parent");
        let mut fail_rng = StdRng::seed_from_u64(5);
        let child = loop {
            if let Ok(c) = fail_random_links(&topo, 0.2, &mut fail_rng) {
                break c;
            }
        };
        // One tick: the rematch cannot finish, so the chain degrades to
        // the cold tub — which itself degrades to greedy and still
        // produces a sound bound rather than an error.
        let tiny = Budget::unlimited().with_iter_cap(1);
        let r = parent
            .tub_or_cold(&child, MatchingBackend::Exact, &nocache_ctx(&tiny))
            .unwrap();
        assert!(r.bound > 0.0);
    }

    #[test]
    fn starved_parent_solves_every_sample_cold_and_counts_it() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = jellyfish(24, 5, 3, &mut rng).unwrap();
        let tiny = Budget::unlimited().with_iter_cap(1);
        let parent = TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &nocache_ctx(&tiny))
            .expect("an exact backend always prepares");
        assert!(parent.duals.is_none(), "one tick cannot solve the parent");
        let mut fail_rng = StdRng::seed_from_u64(5);
        let child = loop {
            if let Ok(c) = fail_random_links(&topo, 0.2, &mut fail_rng) {
                break c;
            }
        };
        // Other tests add to the process-wide counter concurrently.
        let fallbacks = || dcn_obs::counter_value(dcn_obs::names::DELTA_FALLBACK);
        let before = fallbacks();
        let r = parent
            .tub_or_cold(&child, MatchingBackend::Exact, &nocache_ctx(&tiny))
            .unwrap();
        assert!(
            fallbacks() > before,
            "a cold sample must count in delta.fallback"
        );
        let cold = tub(&child, MatchingBackend::Exact, &nocache_ctx(&tiny)).unwrap();
        assert_eq!(r.bound.to_bits(), cold.bound.to_bits());
    }
}
