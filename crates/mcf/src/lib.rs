//! Path-based multi-commodity flow (MCF) throughput — the `KSP-MCF`
//! procedure of the paper (§3.1 and Appendix H).
//!
//! Given a topology and a traffic matrix `T`, the throughput `θ(T)` is the
//! largest scale factor such that `θ(T) · T` can be routed without
//! exceeding any link capacity, with each commodity restricted to its K
//! shortest paths. Two backends solve the same LP:
//!
//! * [`Engine::Exact`] — the path LP of Appendix H solved with the
//!   `dcn-lp` simplex. Exact, but only practical for small instances.
//! * [`Engine::Fptas`] — the Garg–Könemann / Fleischer multiplicative-
//!   weights algorithm for maximum concurrent flow, restricted to the same
//!   path sets. Returns a **certified bracket** `[theta_lb, theta_ub]`:
//!   `theta_lb` comes from an explicitly feasible flow, `theta_ub` from
//!   the LP dual, so `theta_lb <= θ(T) <= theta_ub` always holds.
//!
//! Both backends also report the fraction of routed flow that travels on
//! shortest paths (Figure 4(a) of the paper).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod delta;
pub mod exact;
pub mod fptas;
pub mod pathset;
pub mod routing;

pub use delta::PairMemo;
pub use pathset::{Commodity, PathSet, SharedPathSet};
pub use routing::{ecmp_throughput, vlb_throughput};

use dcn_cache::{CacheEntry, CacheKey, KeyBuilder, SolveCtx};
use dcn_guard::{Budget, BudgetError, CertError};
use dcn_model::{ModelError, Topology, TrafficMatrix};
use dcn_obs::json::Json;

/// Throughput computation backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// Exact simplex on the path LP.
    Exact,
    /// Garg–Könemann FPTAS with accuracy parameter `eps` in (0, 0.5).
    Fptas {
        /// Accuracy: the bracket converges to within `eps` relative gap.
        eps: f64,
    },
}

/// How a [`ThroughputResult`] was produced. Degraded paths (an FPTAS
/// answer standing in for a budget-exhausted exact solve) are recorded
/// here so downstream tables can distinguish exact numbers from certified
/// brackets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provenance {
    /// Exact simplex solve of the path LP; `theta_lb == theta_ub`.
    Exact,
    /// FPTAS bracket requested directly.
    Fptas {
        /// The accuracy parameter the bracket was computed with.
        eps: f64,
    },
    /// FPTAS bracket produced because the exact solve exhausted its
    /// budget and the fallback chain stepped in.
    FptasFallback {
        /// The accuracy parameter used by the fallback solve.
        eps: f64,
    },
}

impl Provenance {
    /// True when this result came from a degraded (fallback) path.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Provenance::FptasFallback { .. })
    }
}

/// Result of a throughput computation.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Certified lower bound on `θ(T)` (a feasible flow achieves it).
    pub theta_lb: f64,
    /// Certified upper bound on `θ(T)`.
    pub theta_ub: f64,
    /// Fraction of total routed flow volume carried on shortest paths.
    pub shortest_path_fraction: f64,
    /// Which solver produced this result (and whether it was a fallback).
    pub provenance: Provenance,
}

impl ThroughputResult {
    /// Midpoint estimate of `θ(T)`.
    pub fn theta(&self) -> f64 {
        0.5 * (self.theta_lb + self.theta_ub)
    }
}

impl CacheEntry for ThroughputResult {
    const KIND: &'static str = "mcf_theta";

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ThroughputResult>()
    }

    fn to_json(&self) -> Json {
        let (prov, eps) = match self.provenance {
            Provenance::Exact => ("exact", 0.0),
            Provenance::Fptas { eps } => ("fptas", eps),
            Provenance::FptasFallback { eps } => ("fptas_fallback", eps),
        };
        Json::obj([
            ("theta_lb", Json::Num(self.theta_lb)),
            ("theta_ub", Json::Num(self.theta_ub)),
            ("shortest_path_fraction", Json::Num(self.shortest_path_fraction)),
            ("provenance", Json::Str(prov.to_string())),
            ("eps", Json::Num(eps)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let eps = num("eps")?;
        let provenance = match json
            .get("provenance")
            .and_then(Json::as_str)
            .ok_or("missing provenance")?
        {
            "exact" => Provenance::Exact,
            "fptas" => Provenance::Fptas { eps },
            "fptas_fallback" => Provenance::FptasFallback { eps },
            other => return Err(format!("unknown provenance {other:?}")),
        };
        Ok(ThroughputResult {
            theta_lb: num("theta_lb")?,
            theta_ub: num("theta_ub")?,
            shortest_path_fraction: num("shortest_path_fraction")?,
            provenance,
        })
    }

    fn validate(&self) -> Result<(), String> {
        // Re-run the bracket certificate the solvers established: a
        // deserialized record must still satisfy lb <= ub with finite,
        // sane values.
        dcn_guard::validate::check_bracket(self.theta_lb, self.theta_ub, dcn_guard::validate::DEFAULT_TOL)
            .map_err(|e| format!("bracket: {e}"))?;
        let spf = self.shortest_path_fraction;
        if !spf.is_finite() || !(-dcn_guard::validate::DEFAULT_TOL..=1.0 + dcn_guard::validate::DEFAULT_TOL).contains(&spf)
        {
            return Err(format!("shortest-path fraction {spf} outside [0, 1]"));
        }
        if let Provenance::Fptas { eps } | Provenance::FptasFallback { eps } = self.provenance {
            if !(eps > 0.0 && eps < 0.5) {
                return Err(format!("fptas eps {eps} outside (0, 0.5)"));
            }
        }
        Ok(())
    }
}

/// Errors from MCF throughput computation.
#[derive(Debug, Clone, PartialEq)]
pub enum McfError {
    /// Underlying model error.
    Model(ModelError),
    /// A commodity has no path between its endpoints.
    NoPath {
        /// Source switch.
        src: u32,
        /// Destination switch.
        dst: u32,
    },
    /// The traffic matrix is empty.
    EmptyTraffic,
    /// Invalid epsilon for the FPTAS.
    BadEps(f64),
    /// The LP solver reported an unexpected status.
    SolverFailure(&'static str),
    /// The execution budget ran out mid-solve (and no fallback applied).
    Budget(BudgetError),
    /// A post-solve certificate check failed.
    Certificate(CertError),
}

impl From<ModelError> for McfError {
    fn from(e: ModelError) -> Self {
        McfError::Model(e)
    }
}

impl From<BudgetError> for McfError {
    fn from(e: BudgetError) -> Self {
        McfError::Budget(e)
    }
}

impl From<CertError> for McfError {
    fn from(e: CertError) -> Self {
        McfError::Certificate(e)
    }
}

impl std::fmt::Display for McfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McfError::Model(e) => write!(f, "model error: {e}"),
            McfError::NoPath { src, dst } => write!(f, "no path from {src} to {dst}"),
            McfError::EmptyTraffic => write!(f, "traffic matrix is empty"),
            McfError::BadEps(e) => write!(f, "fptas eps must be in (0, 0.5), got {e}"),
            McfError::SolverFailure(s) => write!(f, "lp solver failure: {s}"),
            McfError::Budget(e) => write!(f, "throughput solve aborted: {e}"),
            McfError::Certificate(e) => write!(f, "throughput certificate failed: {e}"),
        }
    }
}

impl std::error::Error for McfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McfError::Model(e) => Some(e),
            McfError::Budget(e) => Some(e),
            McfError::Certificate(e) => Some(e),
            _ => None,
        }
    }
}

/// Computes `θ(T)` with each commodity restricted to its `k` shortest
/// paths (the paper's KSP-MCF). Convenience wrapper that builds the path
/// set and dispatches on the engine.
///
/// The [`Budget`] spans the whole computation — path enumeration and the
/// solve share one deadline — and exhaustion surfaces as
/// [`McfError::Budget`].
///
/// Caching is two-level (both through the one [`CacheHandle`]): the
/// enumerated path set is memoized per `(topology, traffic, k)` —
/// separately from the solve, so sweeping engines or re-running a figure
/// warm-starts the expensive enumeration — and the solved bracket per
/// `(topology, traffic, k, engine)`. Pass
/// `dcn_cache::prelude::nocache()` to always recompute.
///
/// [`CacheHandle`]: dcn_cache::CacheHandle
///
/// ```
/// use dcn_cache::prelude::*;
/// use dcn_graph::Graph;
/// use dcn_guard::prelude::*;
/// use dcn_mcf::{ksp_mcf_throughput, Engine};
/// use dcn_model::{Topology, TrafficMatrix};
///
/// // The paper's Figure 7: C5 with the distance-2 permutation has θ = 5/6.
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?;
/// let topo = Topology::new(g, vec![1; 5], "c5")?;
/// let tm = TrafficMatrix::permutation(&topo, &[(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])?;
/// let res = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &unlimited_ctx())?;
/// assert!((res.theta_lb - 5.0 / 6.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn ksp_mcf_throughput(
    topo: &Topology,
    tm: &TrafficMatrix,
    k: usize,
    engine: Engine,
    ctx: &SolveCtx<'_>,
) -> Result<ThroughputResult, McfError> {
    let ps = PathSet::k_shortest_shared(topo, tm, k, ctx)?;
    ctx.cache.get_or_compute(
        || theta_key(fabric_theta_key(topo), tm, k, engine),
        || throughput_on_paths(&ps.0, engine, ctx.budget),
    )
}

/// The topology part of a [`theta_key`], shared by every bracket solved
/// on one fabric.
pub(crate) fn fabric_theta_key(topo: &Topology) -> KeyBuilder {
    KeyBuilder::new("mcf_theta").topology(topo)
}

/// Cache key for a solved KSP-MCF bracket: the path-set inputs plus the
/// engine and its accuracy parameter. Budget excluded by design.
pub(crate) fn theta_key(
    fabric: KeyBuilder,
    tm: &TrafficMatrix,
    k: usize,
    engine: Engine,
) -> CacheKey {
    let (tag, eps) = match engine {
        Engine::Exact => (0u64, 0.0),
        Engine::Fptas { eps } => (1, eps),
    };
    fabric.traffic(tm).u64(k as u64).u64(tag).f64(eps).finish()
}

/// Computes `θ(T)` over an explicit path set, under an execution
/// [`Budget`].
pub fn throughput_on_paths(
    ps: &PathSet,
    engine: Engine,
    budget: &Budget,
) -> Result<ThroughputResult, McfError> {
    match engine {
        Engine::Exact => exact::solve(ps, budget),
        Engine::Fptas { eps } => fptas::solve(ps, eps, budget),
    }
}

/// Exact solve with an FPTAS fallback chain: attempts the exact path LP
/// under `budget`; if the budget is exhausted mid-simplex, retries with
/// the Garg–Könemann FPTAS at accuracy `fallback_eps` on whatever budget
/// remains (the deadline is shared, so the chain as a whole still honors
/// it). The fallback's provenance is stamped as
/// [`Provenance::FptasFallback`] and counted in
/// `mcf.fallback.exact_to_fptas`, so run manifests record every degraded
/// result. Non-budget errors from the exact solve propagate unchanged —
/// the FPTAS cannot fix a malformed instance.
pub fn throughput_with_fallback(
    ps: &PathSet,
    fallback_eps: f64,
    budget: &Budget,
) -> Result<ThroughputResult, McfError> {
    match exact::solve(ps, budget) {
        Ok(r) => Ok(r),
        Err(McfError::Budget(_)) => {
            dcn_obs::counter!(dcn_obs::names::MCF_FALLBACK_EXACT_TO_FPTAS).inc();
            dcn_obs::obs_log!(
                "mcf: exact solve exhausted its budget; falling back to fptas eps={fallback_eps}"
            );
            let mut r = fptas::solve(ps, fallback_eps, budget)?;
            r.provenance = Provenance::FptasFallback { eps: fallback_eps };
            Ok(r)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod fallback_tests {
    use super::*;
    use dcn_graph::Graph;

    fn c5_instance() -> PathSet {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let topo = Topology::new(g, vec![1; 5], "c5").unwrap();
        let tm =
            TrafficMatrix::permutation(&topo, &[(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])
                .unwrap();
        PathSet::k_shortest(&topo, &tm, 8, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn roomy_budget_stays_exact() {
        let ps = c5_instance();
        let r = throughput_with_fallback(&ps, 0.05, &Budget::unlimited()).unwrap();
        assert_eq!(r.provenance, Provenance::Exact);
        assert!(!r.provenance.is_degraded());
        assert!((r.theta_lb - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_exact_degrades_to_fptas() {
        let ps = c5_instance();
        // Too few ticks for the simplex (each tick = one pivot), but
        // enough for the FPTAS to route at least one full phase (each
        // tick = one augmentation; C5 needs 5 per phase).
        let budget = Budget::unlimited().with_iter_cap(6);
        let r = throughput_with_fallback(&ps, 0.05, &budget).unwrap();
        assert_eq!(r.provenance, Provenance::FptasFallback { eps: 0.05 });
        assert!(r.provenance.is_degraded());
        // The degraded bracket still contains the true θ = 5/6.
        assert!(r.theta_lb <= 5.0 / 6.0 + 1e-9);
        assert!(r.theta_ub >= 5.0 / 6.0 - 1e-9);
    }

    #[test]
    fn hopeless_budget_propagates_typed_error() {
        let ps = c5_instance();
        // One tick total: exact exhausts, then the fallback FPTAS cannot
        // route even one commodity — the chain reports Budget, not a hang.
        let budget = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            throughput_with_fallback(&ps, 0.05, &budget),
            Err(McfError::Budget(_))
        ));
    }

    #[test]
    fn non_budget_errors_skip_the_fallback() {
        let ps = c5_instance();
        // A bad eps only matters once the fallback runs; verify the
        // fallback path surfaces it rather than looping.
        let budget = Budget::unlimited().with_iter_cap(6);
        assert!(matches!(
            throughput_with_fallback(&ps, 0.9, &budget),
            Err(McfError::BadEps(_))
        ));
    }
}
