//! Topology generators for the two practical datacenter design families the
//! paper studies, plus the lifecycle operations its evaluation needs.
//!
//! **Uni-regular** (every switch hosts servers):
//! * [`jellyfish`](mod@jellyfish) — random regular graphs (Singla et al., NSDI'12).
//! * [`xpander`](mod@xpander) — deterministic-degree expanders built as random lifts of a
//!   complete graph (Valadarsky et al., CoNEXT'16).
//! * [`fatclique`](mod@fatclique) — three-level clique-of-cliques (Zhang et al., NSDI'19);
//!   server counts may differ by one across switches.
//!
//! **Bi-regular** (Clos family; only leaves host servers):
//! * [`fat_tree`] — the classic 3-tier k-ary fat-tree (Al-Fares et al.).
//! * [`folded_clos`] — L-layer folded Clos with partial top-level deployment
//!   and optional spine trimming (oversubscription), covering the Jupiter /
//!   "1/8th Clos" instances in the paper's cost experiments.
//!
//! **Lifecycle**:
//! * [`expansion`] — Jellyfish/Xpander incremental growth by random rewiring
//!   (used by Figures A.4 and the §5.1 expansion discussion).
//! * [`failures`] — random link failure injection (Figure 10).
//!
//! All generators take explicit RNGs (seeded by callers) and return
//! validated, connected [`dcn_model::Topology`] values.

pub mod clos;
pub mod dragonfly;
pub mod expansion;
pub mod f10;
pub mod failures;
pub mod fatclique;
pub mod jellyfish;
pub mod slimfly;
pub mod spinefree;
pub mod xpander;

pub use clos::{fat_tree, folded_clos, ClosParams};
pub use dragonfly::dragonfly;
pub use expansion::expand_by_rewiring;
pub use f10::f10;
pub use failures::fail_random_links;
pub use fatclique::{fatclique, FatCliqueParams};
pub use jellyfish::jellyfish;
pub use slimfly::slimfly;
pub use spinefree::{spinefree, SpineFreeParams};
pub use xpander::xpander;

use dcn_model::ModelError;

/// Checks `n * r` is even (handshake lemma) and `r < n` for an `r`-regular
/// graph on `n` nodes.
pub(crate) fn check_regular_feasible(n: usize, r: usize) -> Result<(), ModelError> {
    if n == 0 || r == 0 {
        return Err(ModelError::InfeasibleParams(format!(
            "regular graph needs n > 0 and r > 0 (got n={n}, r={r})"
        )));
    }
    if r >= n {
        return Err(ModelError::InfeasibleParams(format!(
            "degree r={r} must be < n={n}"
        )));
    }
    if !(n * r).is_multiple_of(2) {
        return Err(ModelError::InfeasibleParams(format!(
            "n*r must be even (got n={n}, r={r})"
        )));
    }
    Ok(())
}
