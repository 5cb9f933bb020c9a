//! The throughput estimators the paper compares **tub** against (§3.2,
//! Figure 5), reimplemented from their original descriptions:
//!
//! * [`HoeflerMethod`] — Hoefler et al. [51/23]: each flow splits into one
//!   sub-flow per admissible path; every link's capacity is shared equally
//!   among all sub-flows crossing it.
//! * [`JainMethod`] — Jain et al. \[24\]: flows are routed incrementally,
//!   one path round at a time; each round's sub-flows get an equal share of
//!   the *residual* capacity on every link they cross.
//! * [`SinglaBound`] — Singla et al. NSDI'14 \[43\]: an upper bound on the
//!   *average* throughput under uniform traffic, driven by the mean
//!   shortest-path distance: `θ <= 2E / Σ_u H_u d̄_u`.
//! * [`BbwProxy`] — bisection bandwidth divided by `N/2` (the implicit
//!   estimate behind every "full bisection bandwidth" claim).
//! * [`SparsestCut`] — the spectral sweep-cut bound of Jyothi et al.
//!   [26/27].
//! * [`TubEstimator`] — the paper's bound, adapted to the same interface.
//!
//! All estimators implement [`ThroughputEstimator`] so the Figure 5
//! accuracy/efficiency comparison can sweep them uniformly. HM and JM
//! estimate the throughput *of a given traffic matrix*; the cut- and
//! distance-based estimators depend only on the topology and ignore it.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::float_cmp, clippy::float_cmp_const)]

use dcn_cache::SolveCtx;
use dcn_core::{tub, CoreError, MatchingBackend};
use dcn_graph::DistMatrix;
use dcn_mcf::{McfError, PathSet};
use dcn_model::{Topology, TrafficMatrix};
use dcn_partition::{bisection_bandwidth, sparsest_cut_sweep};
use std::borrow::Cow;

/// Error from an estimator run.
#[derive(Debug)]
pub enum EstimatorError {
    /// Underlying MCF error.
    Mcf(McfError),
    /// Underlying core (tub) error.
    Core(CoreError),
    /// Underlying graph error.
    Graph(dcn_graph::GraphError),
}

impl From<McfError> for EstimatorError {
    fn from(e: McfError) -> Self {
        EstimatorError::Mcf(e)
    }
}

impl From<CoreError> for EstimatorError {
    fn from(e: CoreError) -> Self {
        EstimatorError::Core(e)
    }
}

impl From<dcn_graph::GraphError> for EstimatorError {
    fn from(e: dcn_graph::GraphError) -> Self {
        EstimatorError::Graph(e)
    }
}

impl std::fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorError::Mcf(e) => write!(f, "mcf: {e}"),
            EstimatorError::Core(e) => write!(f, "core: {e}"),
            EstimatorError::Graph(e) => write!(f, "graph: {e}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

/// A throughput estimator in the Figure 5 comparison.
pub trait ThroughputEstimator {
    /// Short name used in result tables (`tub`, `bbw`, `sc`, `singla`,
    /// `hm(k)`, `jm(k)`). Borrowed for the fixed-name estimators so hot
    /// sweep loops don't allocate per call; only the parameterized
    /// `hm(k)`/`jm(k)` names format an owned string.
    fn name(&self) -> Cow<'static, str>;

    /// Estimate of `θ(T)` (or of worst-case throughput, for estimators
    /// that ignore the traffic matrix), metered against `budget`.
    /// Estimators that delegate to cached solvers (path sets, tub,
    /// bisection) memoize through `cache`; pass
    /// `dcn_cache::prelude::nocache()` to force recomputation.
    fn estimate(
        &self,
        topo: &Topology,
        tm: &TrafficMatrix,
        ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError>;
}

/// Hoefler's method with `k` paths per flow.
pub struct HoeflerMethod {
    /// Paths per flow.
    pub k: usize,
}

impl ThroughputEstimator for HoeflerMethod {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("hm({})", self.k))
    }

    fn estimate(
        &self,
        topo: &Topology,
        tm: &TrafficMatrix,
        ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        let ps = PathSet::k_shortest_shared(topo, tm, self.k, ctx)?.0;
        // Sub-flow count per directed edge.
        let mut count = vec![0u32; ps.n_directed_edges()];
        for c in ps.commodities() {
            for p in &c.paths {
                for &h in &p.hops {
                    count[PathSet::dir_index(h)] += 1;
                }
            }
        }
        // Each sub-flow gets the bottleneck equal share along its path.
        let mut theta = f64::INFINITY;
        for c in ps.commodities() {
            let mut rate = 0.0;
            for p in &c.paths {
                let share = p
                    .hops
                    .iter()
                    .map(|&h| {
                        let i = PathSet::dir_index(h);
                        ps.graph().capacity((i / 2) as u32) / count[i] as f64
                    })
                    .fold(f64::INFINITY, f64::min);
                rate += share;
            }
            theta = theta.min(rate / c.demand);
        }
        Ok(theta)
    }
}

/// Jain's method with `k` paths per flow.
pub struct JainMethod {
    /// Paths per flow.
    pub k: usize,
}

impl ThroughputEstimator for JainMethod {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("jm({})", self.k))
    }

    fn estimate(
        &self,
        topo: &Topology,
        tm: &TrafficMatrix,
        ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        let ps = PathSet::k_shortest_shared(topo, tm, self.k, ctx)?.0;
        let n_dir = ps.n_directed_edges();
        let mut residual: Vec<f64> = (0..n_dir)
            .map(|i| ps.graph().capacity((i / 2) as u32))
            .collect();
        let mut rate: Vec<f64> = vec![0.0; ps.commodities().len()];
        let max_rounds = ps
            .commodities()
            .iter()
            .map(|c| c.paths.len())
            .max()
            .unwrap_or(0);
        for round in 0..max_rounds {
            // Sub-flows added this round: the round-th path of each flow.
            let mut count = vec![0u32; n_dir];
            for c in ps.commodities() {
                if let Some(p) = c.paths.get(round) {
                    for &h in &p.hops {
                        count[PathSet::dir_index(h)] += 1;
                    }
                }
            }
            // Each new sub-flow gets the bottleneck share of the residual.
            let mut sent: Vec<(usize, f64)> = Vec::new();
            for (j, c) in ps.commodities().iter().enumerate() {
                if let Some(p) = c.paths.get(round) {
                    let share = p
                        .hops
                        .iter()
                        .map(|&h| {
                            let i = PathSet::dir_index(h);
                            residual[i] / count[i] as f64
                        })
                        .fold(f64::INFINITY, f64::min);
                    sent.push((j, share.max(0.0)));
                }
            }
            // Commit allocations.
            for &(j, share) in &sent {
                rate[j] += share;
                for &h in &ps.commodities()[j].paths[round].hops {
                    residual[PathSet::dir_index(h)] -= share;
                }
            }
        }
        let theta = ps
            .commodities()
            .iter()
            .zip(rate.iter())
            .map(|(c, &r)| r / c.demand)
            .fold(f64::INFINITY, f64::min);
        Ok(theta)
    }
}

/// The Singla et al. NSDI'14 average-throughput bound.
pub struct SinglaBound;

impl ThroughputEstimator for SinglaBound {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("singla")
    }

    fn estimate(
        &self,
        topo: &Topology,
        _tm: &TrafficMatrix,
        _ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        let k = topo.switches_with_servers();
        let dist = DistMatrix::from_sources(topo.graph(), &k)?;
        // Σ_u H_u * mean distance from u to the other switches in K.
        let mut weighted = 0.0;
        for &u in &k {
            let row = dist.row(u);
            let sum: u64 = k
                .iter()
                .filter(|&&v| v != u)
                .map(|&v| row[v as usize] as u64)
                .sum();
            let mean = sum as f64 / (k.len() - 1) as f64;
            weighted += topo.servers_at(u) as f64 * mean;
        }
        Ok(2.0 * topo.graph().total_capacity() / weighted)
    }
}

/// Bisection bandwidth over `N/2`.
pub struct BbwProxy {
    /// Multilevel partitioner restarts.
    pub tries: u32,
    /// Partitioner seed.
    pub seed: u64,
}

impl ThroughputEstimator for BbwProxy {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("bbw")
    }

    fn estimate(
        &self,
        topo: &Topology,
        _tm: &TrafficMatrix,
        ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        let bbw = bisection_bandwidth(topo, self.tries, self.seed, ctx)
            .map_err(|e| EstimatorError::Core(CoreError::Budget(e)))?;
        Ok(bbw / (topo.n_servers() as f64 / 2.0))
    }
}

/// Spectral sparsest-cut bound.
pub struct SparsestCut {
    /// Power-iteration count for the Fiedler vector.
    pub power_iters: usize,
}

impl ThroughputEstimator for SparsestCut {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("sc")
    }

    fn estimate(
        &self,
        topo: &Topology,
        _tm: &TrafficMatrix,
        _ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        Ok(sparsest_cut_sweep(topo, self.power_iters).sparsity)
    }
}

/// The paper's tub, adapted to the estimator interface (ignores the given
/// traffic matrix: tub is already a worst-case bound).
pub struct TubEstimator {
    /// Matching backend for the maximal permutation.
    pub backend: MatchingBackend,
}

impl ThroughputEstimator for TubEstimator {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("tub")
    }

    fn estimate(
        &self,
        topo: &Topology,
        _tm: &TrafficMatrix,
        ctx: &SolveCtx<'_>,
    ) -> Result<f64, EstimatorError> {
        Ok(tub(topo, self.backend, ctx)?.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_mcf::{ksp_mcf_throughput, Engine};
    use dcn_topo::jellyfish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Topology, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let t = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let tm = t.traffic_matrix(&topo).unwrap();
        (topo, tm)
    }

    #[test]
    fn hm_is_feasible_lower_estimate() {
        let (topo, tm) = setup();
        let hm = HoeflerMethod { k: 8 }
            .estimate(&topo, &tm, &unlimited_ctx())
            .unwrap();
        let exact = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        // HM's equal-split allocation is feasible, so it cannot exceed the
        // LP optimum on the same path set.
        assert!(hm <= exact + 1e-9, "hm {hm} > exact {exact}");
        assert!(hm > 0.0);
    }

    #[test]
    fn jm_is_feasible_and_at_least_single_round_hm() {
        let (topo, tm) = setup();
        let jm = JainMethod { k: 8 }
            .estimate(&topo, &tm, &unlimited_ctx())
            .unwrap();
        let exact = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(jm <= exact + 1e-9, "jm {jm} > exact {exact}");
        assert!(jm > 0.0);
    }

    #[test]
    fn singla_upper_bounds_tub() {
        // The average-distance bound uses mean distances; tub uses the
        // *maximal* permutation's distances, which are no smaller — so
        // singla >= tub on uni-regular topologies (Figure 5(c)).
        let (topo, tm) = setup();
        let s = SinglaBound.estimate(&topo, &tm, &unlimited_ctx()).unwrap();
        let t = TubEstimator {
            backend: MatchingBackend::Exact,
        }
        .estimate(&topo, &tm, &unlimited_ctx())
        .unwrap();
        assert!(s >= t - 1e-9, "singla {s} < tub {t}");
    }

    #[test]
    fn all_estimators_run_and_name() {
        let (topo, tm) = setup();
        let estimators: Vec<Box<dyn ThroughputEstimator>> = vec![
            Box::new(HoeflerMethod { k: 4 }),
            Box::new(JainMethod { k: 4 }),
            Box::new(SinglaBound),
            Box::new(BbwProxy { tries: 2, seed: 3 }),
            Box::new(SparsestCut { power_iters: 100 }),
            Box::new(TubEstimator {
                backend: MatchingBackend::Exact,
            }),
        ];
        let names: Vec<String> = estimators.iter().map(|e| e.name().into_owned()).collect();
        assert_eq!(names, vec!["hm(4)", "jm(4)", "singla", "bbw", "sc", "tub"]);
        for e in &estimators {
            let v = e.estimate(&topo, &tm, &unlimited_ctx()).unwrap();
            assert!(v.is_finite() && v > 0.0, "{}: {v}", e.name());
        }
    }

    #[test]
    fn more_paths_do_not_hurt_hm_much() {
        // HM with more paths can go either way in theory, but on a small
        // expander its estimate stays positive and finite.
        let (topo, tm) = setup();
        for k in [1, 2, 4, 16] {
            let v = HoeflerMethod { k }
                .estimate(&topo, &tm, &unlimited_ctx())
                .unwrap();
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn jm_never_overcommits_capacity() {
        // Reconstruct JM's allocation and verify no directed edge exceeds
        // its capacity (feasibility is the method's key property).
        let (topo, tm) = setup();
        let ps = PathSet::k_shortest(&topo, &tm, 6, &dcn_guard::Budget::unlimited()).unwrap();
        let jm = JainMethod { k: 6 }
            .estimate(&topo, &tm, &unlimited_ctx())
            .unwrap();
        // jm * demand routed per commodity must fit: weaker sanity check —
        // the estimate cannot exceed min total capacity / total demand.
        let cap_total = 2.0 * ps.graph().total_capacity();
        let demand_total: f64 = tm.total();
        assert!(jm <= cap_total / demand_total + 1e-9);
    }
}
