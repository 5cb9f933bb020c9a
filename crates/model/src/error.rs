//! Error type for topology/traffic model construction.
//!
//! Every fallible model operation returns [`ModelError`] instead of
//! panicking — the workspace-wide panic-freedom invariant (clippy's panic
//! lints in the solver crate roots) starts here, at the lowest layer that
//! user parameters can reach. Variants separate *caller* mistakes (infeasible parameters,
//! mismatched server lists) from *structural* failures bubbled up from
//! graph construction, so experiment drivers can decide whether to skip
//! a configuration or abort a sweep.

use dcn_graph::GraphError;

/// Errors produced while building topologies or traffic matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Underlying graph construction failed.
    Graph(GraphError),
    /// `servers.len()` does not match the number of switches.
    ServerCountMismatch {
        /// Switches in the graph.
        switches: usize,
        /// Entries in the server vector.
        entries: usize,
    },
    /// No switch has any servers, so there is no traffic to carry.
    NoServers,
    /// A demand references a switch with no attached servers.
    DemandOnServerlessSwitch {
        /// The offending switch id.
        switch: u32,
    },
    /// A demand references a switch id out of range.
    SwitchOutOfRange {
        /// The offending switch id.
        switch: u32,
        /// Number of switches in the topology.
        n: usize,
    },
    /// A demand is negative or not finite.
    InvalidDemand {
        /// The offending demand value.
        value: f64,
    },
    /// A demand matrix violates the hose-model row/column constraints.
    HoseViolation {
        /// The overloaded switch.
        switch: u32,
        /// Its aggregate send or receive rate.
        rate: f64,
        /// Its hose cap (attached servers).
        cap: f64,
    },
    /// Topology parameters are infeasible (e.g. more servers than ports).
    InfeasibleParams(String),
}

impl From<GraphError> for ModelError {
    fn from(e: GraphError) -> Self {
        ModelError::Graph(e)
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Graph(e) => write!(f, "graph error: {e}"),
            ModelError::ServerCountMismatch { switches, entries } => write!(
                f,
                "server vector has {entries} entries for {switches} switches"
            ),
            ModelError::NoServers => write!(f, "topology has no servers"),
            ModelError::DemandOnServerlessSwitch { switch } => {
                write!(f, "demand on switch {switch} which has no servers")
            }
            ModelError::SwitchOutOfRange { switch, n } => {
                write!(f, "switch {switch} out of range ({n} switches)")
            }
            ModelError::InvalidDemand { value } => write!(f, "invalid demand value {value}"),
            ModelError::HoseViolation { switch, rate, cap } => write!(
                f,
                "hose violation at switch {switch}: rate {rate} exceeds cap {cap}"
            ),
            ModelError::InfeasibleParams(s) => write!(f, "infeasible parameters: {s}"),
        }
    }
}

impl std::error::Error for ModelError {}
