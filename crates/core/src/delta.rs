//! Delta-TUB: incremental tub recomputation across perturbed siblings.
//!
//! A failure sweep solves thousands of degraded copies of one parent
//! topology. The tub pipeline (BFS distance matrix → maximum-weight
//! matching → Equation 1) recomputes everything per sample, yet a failed
//! trunk only perturbs the distances of sources it carried shortest paths
//! for, and only perturbs matching weights in those sources' rows. This
//! module keeps the parent's [`DistMatrix`] and Hungarian dual state and,
//! per sample:
//!
//! 1. diffs the child's edge list against the parent to find *vanished*
//!    endpoint pairs (a multigraph trunk must lose **all** its parallel
//!    links before any distance can change);
//! 2. marks a source dirty iff some vanished pair is *tight* for it
//!    (`|d(s,u) − d(s,v)| == 1`) — the necessary condition for the trunk
//!    to lie on any shortest path from `s`, so clean rows are provably
//!    unchanged and copied verbatim ([`DistMatrix::rebuild_rows`]);
//! 3. re-matches against the parent's dual potentials via
//!    [`HungarianState::rematch_auto`], which re-augments only rows whose
//!    dual feasibility or assigned-edge tightness is actually violated
//!    under the new weights — distance growth smaller than a row's dual
//!    slack perturbs nothing, so most rows survive even when most
//!    distances moved.
//!
//! The rematched permutation can differ from the cold Hungarian's — both
//! are optimal — but its total weight is integer-exact equal, so the
//! resulting `bound` is **bit-identical** to a cold exact tub. Any error
//! in the delta path (budget, disconnection races) falls back to the cold
//! solver, counted in `delta.fallback`. Results are cached under keys
//! chained off the parent's tub key, never under the cold `tub` kind, so
//! `DCN_DELTA=off` runs can never observe a delta-written entry.

use crate::tub::{tub, tub_key, MatchingBackend, TubResult};
use crate::CoreError;
use dcn_cache::{CacheKey, KeyBuilder, SolveCtx};
use dcn_graph::{DistMatrix, NodeId};
use dcn_guard::Budget;
use dcn_match::{hungarian_max_stateful, HungarianState};
use dcn_model::Topology;
use std::collections::HashSet;

/// True when `DCN_DELTA` asks for incremental solving. Read per call (not
/// memoized) so test harnesses can toggle it within one process.
pub(crate) fn enabled() -> bool {
    matches!(
        dcn_guard::env::DELTA.get().as_deref().map(str::trim),
        Some("1") | Some("on") | Some("true")
    )
}

/// Parent artifacts for delta-TUB: the unfailed topology's server-hosting
/// switches, distance matrix, and the Hungarian dual state of its maximal
/// permutation.
pub(crate) struct TubDeltaParent<'a> {
    topo: &'a Topology,
    k: Vec<NodeId>,
    dist: DistMatrix,
    state: HungarianState,
    parent_key: CacheKey,
}

impl<'a> TubDeltaParent<'a> {
    /// Builds the parent state when the backend would use the exact
    /// Hungarian matching on this instance; `None` means "no delta
    /// available, solve every sample cold" (greedy backends have no dual
    /// state to reuse, and a budget-starved parent is not worth trusting).
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
        let dist = DistMatrix::from_sources(topo.graph(), &k).ok()?;
        let weight = |i: usize, j: usize| -> i64 {
            if i == j {
                return 0;
            }
            let (u, v) = (k[i], k[j]);
            let h = topo.servers_at(u).min(topo.servers_at(v)) as i64;
            dist.dist(u, v) as i64 * h
        };
        let (_, state) = hungarian_max_stateful(k.len(), weight, ctx.budget).ok()?;
        dcn_obs::counter!(dcn_obs::names::MATCH_HUNGARIAN_STEPS).add(state.steps());
        let parent_key = tub_key(topo, backend);
        Some(TubDeltaParent {
            topo,
            k,
            dist,
            state,
            parent_key,
        })
    }

    /// Delta tub with the cold solver as safety net: any error in the
    /// incremental path (budget exhaustion mid-rematch, a child that
    /// disconnected a source) bumps `delta.fallback` and recomputes from
    /// scratch — the sweep's answer is never weaker than without deltas.
    pub(crate) fn tub_or_cold(
        &self,
        child: &Topology,
        backend: MatchingBackend,
        ctx: &SolveCtx<'_>,
    ) -> Result<TubResult, CoreError> {
        match self.solve(child, ctx) {
            Ok(r) => Ok(r),
            Err(e) => {
                dcn_obs::counter!(dcn_obs::names::DELTA_FALLBACK).inc();
                dcn_obs::obs_log!("core.delta: tub delta failed ({e}); cold recompute");
                tub(child, backend, ctx)
            }
        }
    }

    /// Incremental tub of a degraded sibling, cached under a key chained
    /// off the parent's tub key (`tub_delta` kind — disjoint from cold
    /// `tub` entries by construction).
    fn solve(&self, child: &Topology, ctx: &SolveCtx<'_>) -> Result<TubResult, CoreError> {
        ctx.cache.get_or_compute(
            || {
                KeyBuilder::new("tub_delta")
                    .key(&self.parent_key)
                    .topology(child)
                    .finish()
            },
            || self.solve_uncached(child, ctx.budget),
        )
    }

    fn solve_uncached(&self, child: &Topology, budget: &Budget) -> Result<TubResult, CoreError> {
        // The delta is only valid against a link-degraded copy of the
        // parent: same switches, same server placement. Anything else
        // routes to the cold fallback.
        if child.servers() != self.topo.servers() {
            return Err(CoreError::OutOfRegime(
                "delta child has different server placement than parent".into(),
            ));
        }
        // 1. Vanished endpoint pairs: trunks whose every parallel link
        // failed. Only these can change any distance.
        let norm = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let mut alive: HashSet<(NodeId, NodeId)> = HashSet::new();
        for &(u, v) in child.graph().edges() {
            alive.insert(norm(u, v));
        }
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut vanished: Vec<(NodeId, NodeId)> = Vec::new();
        for &(u, v) in self.topo.graph().edges() {
            let p = norm(u, v);
            if !alive.contains(&p) && seen.insert(p) {
                vanished.push(p);
            }
        }
        // 2. Dirty sources: some vanished trunk is tight from their side.
        let mut dirty_nodes: Vec<NodeId> = Vec::new();
        for &s in &self.k {
            let row = self.dist.row(s);
            let tight = vanished.iter().any(|&(u, v)| {
                (row[u as usize] as i32 - row[v as usize] as i32).abs() == 1
            });
            if tight {
                dirty_nodes.push(s);
            }
        }
        // 3. Selective BFS + warm rematch.
        let rebuilt;
        let dist: &DistMatrix = if dirty_nodes.is_empty() {
            &self.dist
        } else {
            rebuilt = self.dist.rebuild_rows(child.graph(), &dirty_nodes)?;
            &rebuilt
        };
        dcn_obs::counter!(dcn_obs::names::DELTA_DIST_ROWS_REBUILT).add(dirty_nodes.len() as u64);
        let weight = |i: usize, j: usize| -> i64 {
            if i == j {
                return 0;
            }
            let (u, v) = (self.k[i], self.k[j]);
            let h = child.servers_at(u).min(child.servers_at(v)) as i64;
            dist.dist(u, v) as i64 * h
        };
        // Tightness is only a *superset*: on an expander nearly every
        // source is tight for some vanished trunk, and most sources see
        // *some* distance grow — but the Hungarian duals carry slack, and
        // a weight that moved less than its slack perturbs nothing. Let
        // the matcher derive the rows that genuinely need re-augmenting
        // from its own feasibility/tightness conditions.
        let (matching, state, reaugmented) = self.state.rematch_auto(weight, budget)?;
        dcn_obs::counter!(dcn_obs::names::DELTA_MATCHING_PATCHED).inc();
        dcn_obs::counter!(dcn_obs::names::MATCH_HUNGARIAN_STEPS).add(state.steps());
        dcn_obs::obs_log!(
            "core.delta: re-augmented {reaugmented}/{} matching rows",
            self.k.len()
        );
        // 4. Assemble Equation 1 exactly as the cold path does. The
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

/// Helper used by tests and benches: a HashMap-free summary of how many
/// sources a failure dirtied, for asserting the delta actually skips work.
#[cfg(test)]
pub(crate) fn count_vanished(parent: &Topology, child: &Topology) -> usize {
    let norm = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
    let alive: HashSet<_> = child.graph().edges().iter().map(|&(u, v)| norm(u, v)).collect();
    let parent_pairs: HashSet<_> =
        parent.graph().edges().iter().map(|&(u, v)| norm(u, v)).collect();
    parent_pairs.difference(&alive).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::{fail_random_links, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
                .tub_or_cold(&child, MatchingBackend::Exact, &nocache_ctx(&Budget::unlimited()))
                .unwrap();
            let cold = tub(&child, MatchingBackend::Exact, &nocache_ctx(&Budget::unlimited()))
                .unwrap();
            assert_eq!(
                warm.bound.to_bits(),
                cold.bound.to_bits(),
                "delta bound must match cold exactly (vanished trunks: {})",
                count_vanished(&topo, &child)
            );
            assert_eq!(warm.weighted_path_len.to_bits(), cold.weighted_path_len.to_bits());
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
        let weight = |i: usize, j: usize| -> i64 {
            if i == j {
                return 0;
            }
            let h = child.servers_at(k[i]).min(child.servers_at(k[j])) as i64;
            dist.dist(k[i], k[j]) as i64 * h
        };
        let (_, state, _) = parent.state.rematch_auto(weight, &Budget::unlimited()).unwrap();
        assert!(state.steps() > 0, "the failures dirty some row");
        // Other tests add to the process-wide counter concurrently.
        let steps = || dcn_obs::counter_value(dcn_obs::names::MATCH_HUNGARIAN_STEPS);
        let before = steps();
        parent.tub_or_cold(&child, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!(steps() - before >= state.steps());
    }

    #[test]
    fn unperturbed_child_reuses_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let parent =
            TubDeltaParent::prepare(&topo, MatchingBackend::Exact, &ctx).expect("exact parent");
        // "Failing" zero links: no vanished pair, no dirty source, and the
        // bound must equal the parent tub exactly.
        let warm = parent
            .tub_or_cold(&topo, MatchingBackend::Exact, &nocache_ctx(&Budget::unlimited()))
            .unwrap();
        let cold =
            tub(&topo, MatchingBackend::Exact, &nocache_ctx(&Budget::unlimited())).unwrap();
        assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
        assert_eq!(count_vanished(&topo, &topo), 0);
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
        assert!(TubDeltaParent::prepare(
            &topo,
            MatchingBackend::Auto { exact_below: 2 },
            &ctx
        )
        .is_none());
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
}
