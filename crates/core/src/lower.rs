//! Theorem 8.4: a throughput *lower* bound, and the theoretical gap of
//! Figure A.1.
//!
//! Under Assumption 1 (ingress capacity saturated) and an additive path
//! slack `M` (all used paths at most `M` hops longer than shortest):
//!
//! `θ(T) >= 2E / (Σ_uv t_uv · M + Σ_uv t_uv L_uv)`
//!
//! (the paper states the uniform-H case, where `Σ t_uv <= N`). The
//! difference `tub - lower` is the **theoretical throughput gap**: the
//! worst error the upper bound can exhibit. Corollary 2 shows it vanishes
//! asymptotically; Figure A.1 plots it at finite sizes.

use crate::tub::{tub, MatchingBackend, TubResult};
use crate::CoreError;
use dcn_cache::SolveCtx;
use dcn_graph::DistMatrix;
use dcn_model::{Topology, TrafficMatrix};

/// The Theorem 8.4 lower bound for a specific traffic matrix.
pub fn throughput_lower_bound(
    topo: &Topology,
    tm: &TrafficMatrix,
    m_slack: u16,
) -> Result<f64, CoreError> {
    let _span = dcn_obs::span!(dcn_obs::names::CORE_LOWER);
    let k = topo.switches_with_servers();
    let dist = DistMatrix::from_sources(topo.graph(), &k)?;
    let mut weighted = 0.0;
    let mut volume = 0.0;
    for d in tm.demands() {
        weighted += d.amount * dist.dist(d.src, d.dst) as f64;
        volume += d.amount;
    }
    let capacity = 2.0 * topo.graph().total_capacity();
    let denom = volume * m_slack as f64 + weighted;
    if denom <= 0.0 {
        return Err(CoreError::OutOfRegime(
            "lower bound undefined for empty traffic".into(),
        ));
    }
    Ok(capacity / denom)
}

/// The theoretical gap at the maximal permutation: `(tub, lower, gap)`.
pub fn theoretical_gap(
    topo: &Topology,
    m_slack: u16,
    backend: MatchingBackend,
    ctx: &SolveCtx<'_>,
) -> Result<(TubResult, f64, f64), CoreError> {
    let ub = tub(topo, backend, ctx)?;
    let tm = ub.traffic_matrix(topo)?;
    let lb = throughput_lower_bound(topo, &tm, m_slack)?;
    let gap = (ub.bound - lb).max(0.0);
    Ok((ub, lb, gap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_graph::Graph;
    use dcn_topo::jellyfish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, h: u32) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Topology::new(g, vec![h; n], "ring").unwrap()
    }

    #[test]
    fn lower_at_most_upper() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = jellyfish(24, 5, 4, &mut rng).unwrap();
        let (ub, lb, gap) =
            theoretical_gap(&t, 1, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!(lb <= ub.bound + 1e-12);
        assert!((gap - (ub.bound - lb).max(0.0)).abs() < 1e-12);
        assert!(lb > 0.0);
    }

    #[test]
    fn lower_bound_brackets_exact_mcf() {
        // On C5 with the distance-2 permutation: tub = 1, exact θ = 5/6,
        // and the M=1 lower bound must sit at or below 5/6.
        let t = ring(5, 1);
        let ub = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let tm = ub.traffic_matrix(&t).unwrap();
        let lb = throughput_lower_bound(&t, &tm, 1).unwrap();
        let exact =
            dcn_mcf::ksp_mcf_throughput(&t, &tm, 8, dcn_mcf::Engine::Exact, &unlimited_ctx())
                .unwrap()
                .theta_lb;
        assert!(
            lb <= exact + 1e-9,
            "lower bound {lb} exceeds exact throughput {exact}"
        );
        assert!(exact <= ub.bound + 1e-9);
        // C5 numbers: 2E = 10, volume 5, Σ t L = 10 → lb = 10/15 = 2/3.
        assert!((lb - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_slack_lower_equals_tub_on_symmetric_ring() {
        // With M = 0 the lower bound equals 2E / Σ t L = tub at the
        // maximal permutation.
        let t = ring(6, 2);
        let ub = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let tm = ub.traffic_matrix(&t).unwrap();
        let lb = throughput_lower_bound(&t, &tm, 0).unwrap();
        assert!((lb - ub.bound).abs() < 1e-12);
    }

    #[test]
    fn gap_shrinks_with_slack() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = jellyfish(24, 5, 4, &mut rng).unwrap();
        let (_, lb1, _) = theoretical_gap(&t, 1, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let (_, lb3, _) = theoretical_gap(&t, 3, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!(lb3 <= lb1, "more slack can only lower the guarantee");
    }
}
