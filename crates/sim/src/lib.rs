//! Flow-level datacenter fabric simulator.
//!
//! The LP backends in `dcn-mcf` answer "what could an ideal fractional
//! routing achieve?". Deployed fabrics instead hash each *flow* onto one
//! path and let congestion control converge to (approximately) max-min
//! fair rates. This crate closes that gap:
//!
//! 1. A traffic matrix is expanded into **server-level flows**
//!    ([`flows_from_tm`]): a demand of `a` units becomes `ceil(a)` unit
//!    flows (each server contributes one flow under a saturated hose
//!    permutation).
//! 2. A [`PathPolicy`] assigns each flow a concrete path — ECMP-style
//!    random shortest path, KSP striping across the k shortest, or
//!    Valiant load balancing through a random intermediate.
//! 3. [`max_min_rates`] computes the exact max-min fair allocation by
//!    progressive filling over directed link capacities.
//!
//! The resulting [`Allocation`] reports per-flow rates, link utilization,
//! the worst-served demand (the flow-level analogue of `θ(T)`), and
//! Jain's fairness index.

pub mod allocate;
pub mod fct;
pub mod flows;
pub mod policy;

pub use allocate::{max_min_rates, Allocation};
pub use fct::{run_open_loop, run_to_completion, ArrivingFlow, FctReport, SizedFlow};
pub use flows::{flows_from_tm, Flow};
pub use policy::PathPolicy;

use dcn_model::ModelError;

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Underlying model error.
    Model(ModelError),
    /// A flow's endpoints are disconnected.
    NoPath {
        /// Source switch.
        src: u32,
        /// Destination switch.
        dst: u32,
    },
    /// No flows to allocate.
    NoFlows,
    /// Path enumeration exhausted its budget.
    Budget(dcn_guard::BudgetError),
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<dcn_guard::BudgetError> for SimError {
    fn from(e: dcn_guard::BudgetError) -> Self {
        SimError::Budget(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "model: {e}"),
            SimError::NoPath { src, dst } => write!(f, "no path {src} -> {dst}"),
            SimError::NoFlows => write!(f, "no flows"),
            SimError::Budget(e) => write!(f, "path enumeration aborted: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One-call convenience: expand `tm` into flows, route them under
/// `policy`, and return the max-min allocation.
///
/// ```
/// use dcn_graph::Graph;
/// use dcn_model::{Topology, TrafficMatrix};
/// use dcn_sim::{simulate, PathPolicy};
///
/// let g = Graph::from_edges(2, &[(0, 1)])?;
/// let topo = Topology::new(g, vec![2; 2], "pair")?;
/// let tm = TrafficMatrix::permutation(&topo, &[(0, 1)])?;
/// // Two unit flows share one unit link: each gets rate 1/2.
/// let alloc = simulate(&topo, &tm, PathPolicy::EcmpHash, 1)?;
/// assert!(alloc.rates.iter().all(|&r| (r - 0.5).abs() < 1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(
    topo: &dcn_model::Topology,
    tm: &dcn_model::TrafficMatrix,
    policy: PathPolicy,
    seed: u64,
) -> Result<Allocation, SimError> {
    let flows = flows_from_tm(tm);
    if flows.is_empty() {
        return Err(SimError::NoFlows);
    }
    let routed = policy.route_all(topo, &flows, seed)?;
    Ok(max_min_rates(topo, &routed))
}
