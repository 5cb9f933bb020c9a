//! Umbrella crate re-exporting the entire `dcn` workspace.

pub use dcn_cache as cache;
pub use dcn_core as core;
pub use dcn_estimators as estimators;
pub use dcn_graph as graph;
pub use dcn_guard as guard;
pub use dcn_lp as lp;
pub use dcn_match as matching;
pub use dcn_mcf as mcf;
pub use dcn_model as model;
pub use dcn_obs as obs;
pub use dcn_partition as partition;
pub use dcn_sim as sim;
pub use dcn_topo as topo;
