//! Switch-level topology and traffic model, following §2 of the paper.
//!
//! A [`Topology`] is a switch-level graph plus the number of servers
//! attached to each switch. The paper's two practical topology classes are
//! captured by [`TopoClass`]:
//!
//! * **uni-regular** — every switch has `H > 0` servers (Jellyfish,
//!   Xpander, FatClique; FatClique is *near*-uni-regular: `H` may differ
//!   by 1 across switches, which [`TopoClass::NearUniRegular`] records).
//! * **bi-regular** — a switch either has `H` servers or none (Clos,
//!   fat-tree, VL2).
//!
//! A [`TrafficMatrix`] is a sparse switch-level demand matrix. The crate
//! provides the hose-model feasibility checks of §2.1 and the standard
//! workloads used by the paper's evaluation: switch-level permutations
//! (entries `min(H_u, H_v)`, which reduces to `H` for uni-regular
//! topologies), random permutations, and all-to-all.

pub mod error;
pub mod io;
pub mod topology;
pub mod traffic;
pub mod workload;

pub use error::ModelError;
pub use io::TopologySpec;
pub use topology::{TopoClass, Topology};
pub use traffic::{Demand, TrafficMatrix};
