//! The paper's primary contribution, as a library.
//!
//! * [`tub`](mod@tub) — the throughput upper bound of Theorem 2.2 (Equation 1) and
//!   its per-switch-H generalization (Equation 18), computed via all-pairs
//!   BFS plus maximum-weight matching. This is the quantity the paper
//!   calls **tub** throughout its evaluation.
//! * [`universal`] — Theorem 4.1: a throughput bound over *all*
//!   uni-regular topologies of given `(N, R, H)`, the Equation 3 necessary
//!   condition for full throughput, and the Corollary 1 scaling limit
//!   `N*(R, H)`.
//! * [`lower`] — Theorem 8.4: the throughput lower bound under an additive
//!   path-length slack `M`, and the theoretical gap of Figure A.1.
//! * [`frontier`] — binary search for the full-throughput and
//!   full-bisection-bandwidth frontiers (Figure 8, Table 3).
//! * [`cost`] — switch-count comparisons between uni-regular families and
//!   Clos at equal capacity (Figure 9, Figures A.2/A.3).
//! * [`oversub`] — throughput- vs bisection-based over-subscription
//!   (Table 5).
//! * [`resilience`] — nominal vs actual throughput under random link
//!   failures (Figure 10).
//! * [`expansion_eval`] — normalized throughput under random-rewiring
//!   expansion (Figure A.4).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod birkhoff;
pub mod cost;
pub(crate) mod delta;
pub mod expansion_eval;
pub mod frontier;
pub mod lower;
pub mod nearworst;
pub mod oversub;
pub mod report;
pub mod resilience;
pub mod tub;
pub mod universal;

pub use birkhoff::{birkhoff_decompose, BirkhoffComponent};
pub use nearworst::{adversarial_search, AdversarialResult};
pub use report::{report_card, ReportCard};
pub use tub::{tub, MatchingBackend, TubResult};

use dcn_guard::BudgetError;
use dcn_mcf::McfError;
use dcn_model::ModelError;

/// Errors from throughput-bound computations.
#[derive(Debug)]
pub enum CoreError {
    /// Underlying topology/traffic model error.
    Model(ModelError),
    /// Underlying graph error.
    Graph(dcn_graph::GraphError),
    /// Underlying MCF error.
    Mcf(McfError),
    /// Parameters outside the regime a theorem applies to.
    OutOfRegime(String),
    /// The execution budget ran out and no fallback could absorb it.
    Budget(BudgetError),
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<dcn_graph::GraphError> for CoreError {
    fn from(e: dcn_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<McfError> for CoreError {
    fn from(e: McfError) -> Self {
        CoreError::Mcf(e)
    }
}

impl From<BudgetError> for CoreError {
    fn from(e: BudgetError) -> Self {
        CoreError::Budget(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Mcf(e) => write!(f, "mcf error: {e}"),
            CoreError::OutOfRegime(s) => write!(f, "out of regime: {s}"),
            CoreError::Budget(e) => write!(f, "computation aborted: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}
