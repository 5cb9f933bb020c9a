//! Adversarial traffic search: can anything beat the maximal permutation?
//!
//! §3.1 of the paper validates the maximal permutation as (near-)worst-case
//! by comparing against random permutations. This module goes one step
//! further: a local search over permutation space that starts from the
//! maximal permutation and accepts 2-swaps whenever they *reduce* the
//! routed KSP-MCF throughput. If the search cannot descend, the matching
//! heuristic really did find (a local minimum indistinguishable from) the
//! worst case — a stronger certificate than random sampling.

use crate::tub::{tub, MatchingBackend};
use crate::CoreError;
use dcn_cache::SolveCtx;
use dcn_exec::Pool;
use dcn_graph::NodeId;
use dcn_mcf::{Engine, PairMemo};
use dcn_model::{Topology, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of the adversarial search.
#[derive(Debug, Clone)]
pub struct AdversarialResult {
    /// The worst traffic matrix found.
    pub tm: TrafficMatrix,
    /// Its routed (FPTAS lower-bound) throughput.
    pub theta: f64,
    /// Throughput of the starting maximal permutation.
    pub theta_start: f64,
    /// Accepted descending swaps.
    pub improvements: u32,
}

/// Fixed number of 2-swap proposals evaluated per descent round.
///
/// Deliberately *not* derived from the pool's thread count: the proposal
/// sequence and acceptance decisions must be identical at any
/// `DCN_EXEC_THREADS`, so the batch boundary is part of the algorithm,
/// not the execution environment.
const PROPOSAL_BATCH: usize = 8;

/// Searches for a permutation with lower KSP-MCF throughput than the
/// maximal permutation, using `iters` random 2-swap proposals.
///
/// Each proposal exchanges the destinations of two sources. Proposals are
/// drawn in fixed batches of [`PROPOSAL_BATCH`] from a single seeded RNG,
/// the batch's MCF solves fan out across the [`dcn_exec`] pool, and the
/// *steepest* strictly-descending candidate of the batch (first on ties)
/// is accepted. Acceptance tests are expensive — every one is an MCF
/// solve — so keep `iters` modest (tens) and topologies small/medium.
///
/// Successive proposals reuse per-pair path enumerations through a
/// [`PairMemo`]: the fabric is fixed, so a commodity's K shortest paths
/// depend only on its endpoints, and each proposal only introduces the
/// two swapped pairs. Missing pairs are enumerated serially *before* each
/// batch fans out, so the memo is read-only under the pool and results
/// stay byte-identical at any `DCN_EXEC_THREADS`. A memo-assembled path
/// set is bit-identical to a from-scratch build, so every θ equals
/// [`ksp_mcf_throughput`]'s and is cached under the same entry.
///
/// [`ksp_mcf_throughput`]: dcn_mcf::ksp_mcf_throughput
pub fn adversarial_search(
    topo: &Topology,
    iters: u32,
    k_paths: usize,
    eps: f64,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<AdversarialResult, CoreError> {
    let bound = tub(topo, MatchingBackend::Auto { exact_below: 500 }, ctx)?;
    let mut pairs: Vec<(NodeId, NodeId)> = bound.pairs.clone();
    let mut memo = PairMemo::new(topo, k_paths);
    let eval = |memo: &PairMemo, pairs: &[(NodeId, NodeId)]| -> Result<f64, CoreError> {
        let tm = TrafficMatrix::permutation(topo, pairs)?;
        Ok(memo.throughput(&tm, Engine::Fptas { eps }, ctx)?.theta_lb)
    };
    memo.ensure_pairs(&pairs, ctx.budget)?;
    let mut theta = eval(&memo, &pairs)?;
    let theta_start = theta;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut improvements = 0u32;
    let pool = Pool::from_env();
    let mut proposed = 0u32;
    while proposed < iters && pairs.len() >= 2 {
        // Draw the whole batch serially from the shared RNG so the
        // proposal stream does not depend on evaluation order.
        let mut candidates: Vec<Vec<(NodeId, NodeId)>> = Vec::with_capacity(PROPOSAL_BATCH);
        while proposed < iters && candidates.len() < PROPOSAL_BATCH {
            proposed += 1;
            let a = rng.gen_range(0..pairs.len());
            // Draw b uniformly from the other len-1 indices directly,
            // rather than rejection-sampling until b != a.
            let mut b = rng.gen_range(0..pairs.len() - 1);
            if b >= a {
                b += 1;
            }
            let mut candidate = pairs.clone();
            let (da, db) = (candidate[a].1, candidate[b].1);
            // Swapping destinations can create self-pairs; skip those.
            if candidate[a].0 == db || candidate[b].0 == da {
                continue;
            }
            candidate[a].1 = db;
            candidate[b].1 = da;
            candidates.push(candidate);
        }
        if candidates.is_empty() {
            continue;
        }
        // Fill the memo serially with every pair the batch can need, so
        // the fan-out below only reads it.
        let batch_pairs: Vec<(NodeId, NodeId)> =
            candidates.iter().flat_map(|c| c.iter().copied()).collect();
        memo.ensure_pairs(&batch_pairs, ctx.budget)?;
        let thetas = pool.par_map(ctx.budget, &candidates, |_, cand| {
            let _cand = dcn_obs::span!(dcn_obs::names::CORE_NEARWORST_CANDIDATE);
            eval(&memo, cand)
        })?;
        let best = thetas
            .iter()
            .enumerate()
            .filter(|(_, &t)| t < theta - 1e-9)
            .min_by(|(_, x), (_, y)| x.total_cmp(y));
        if let Some((ci, &cand_theta)) = best {
            pairs = candidates.swap_remove(ci);
            theta = cand_theta;
            improvements += 1;
        }
    }
    Ok(AdversarialResult {
        tm: TrafficMatrix::permutation(topo, &pairs)?,
        theta,
        theta_start,
        improvements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::jellyfish;

    #[test]
    fn search_never_increases_theta() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let r = adversarial_search(&topo, 10, 16, 0.1, 7, &unlimited_ctx()).unwrap();
        assert!(r.theta <= r.theta_start + 1e-9);
        assert!(r.tm.is_permutation(&topo));
        r.tm.check_hose(&topo).unwrap();
    }

    #[test]
    fn maximal_permutation_is_near_local_minimum() {
        // On a small expander the matching-based worst case should leave
        // little room for descent: any improvement found is small relative
        // to the throughput itself (within the FPTAS's eps plus slack).
        let mut rng = StdRng::seed_from_u64(5);
        let topo = jellyfish(16, 4, 3, &mut rng).unwrap();
        let r = adversarial_search(&topo, 20, 16, 0.05, 11, &unlimited_ctx()).unwrap();
        let descent = (r.theta_start - r.theta) / r.theta_start.max(1e-9);
        assert!(
            descent < 0.15,
            "local search descended {:.1}% below the maximal permutation \
             ({} -> {})",
            descent * 100.0,
            r.theta_start,
            r.theta
        );
    }
}
