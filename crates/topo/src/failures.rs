//! Random link-failure injection (Figure 10 of the paper).
//!
//! §6's resilience experiments degrade a fabric by failing a uniformly
//! random fraction of switch-to-switch links, then re-solve throughput on
//! the survivor. Sampling is driven entirely by the caller's RNG: the
//! resilience sweeps in `dcn-core` derive one seed per (fraction, trial)
//! pair via `dcn_exec::task_seed`, which keeps every trial independent of
//! pool scheduling — the failed-link set for trial `t` is identical at
//! `DCN_EXEC_THREADS=1` and `=64`. Samples that would partition the
//! fabric are retried a bounded number of times and then reported as an
//! error (a partitioned fabric has throughput zero, not merely reduced),
//! so callers never spin unbudgeted.

use dcn_model::{ModelError, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// Fails a uniformly random fraction `f` of switch-to-switch links.
///
/// Returns the degraded topology. If removing the sampled links would
/// disconnect the fabric, the sample is retried a few times; persistent
/// disconnection is reported as an error so callers can distinguish
/// "degraded" from "partitioned" — the throughput of a partitioned
/// topology is zero, not merely reduced.
pub fn fail_random_links<R: Rng>(
    topo: &Topology,
    fraction: f64,
    rng: &mut R,
) -> Result<Topology, ModelError> {
    if !(0.0..1.0).contains(&fraction) {
        return Err(ModelError::InfeasibleParams(format!(
            "failure fraction must be in [0, 1) (got {fraction})"
        )));
    }
    let m = topo.graph().m();
    let n_fail = (m as f64 * fraction).round() as usize;
    if n_fail == 0 {
        return Ok(topo.clone().renamed(format!("{}-f0", topo.name())));
    }
    let mut ids: Vec<u32> = (0..m as u32).collect();
    for _attempt in 0..16 {
        ids.shuffle(rng);
        let removed = &ids[..n_fail];
        let g = topo.graph().without_edges(removed);
        if g.is_connected() {
            let name = format!("{}-f{:.2}", topo.name(), fraction);
            return topo.with_graph(g).map(|t| t.renamed(name));
        }
    }
    Err(ModelError::InfeasibleParams(format!(
        "failing {:.1}% of links disconnects the topology",
        fraction * 100.0
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jellyfish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fails_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(31);
        let t = jellyfish(60, 8, 8, &mut rng).unwrap();
        let m0 = t.graph().m();
        let d = fail_random_links(&t, 0.1, &mut rng).unwrap();
        assert_eq!(d.graph().m(), m0 - (m0 as f64 * 0.1).round() as usize);
        assert!(d.graph().is_connected());
        assert_eq!(d.n_servers(), t.n_servers());
    }

    #[test]
    fn zero_fraction_is_identity() {
        let mut rng = StdRng::seed_from_u64(32);
        let t = jellyfish(20, 4, 4, &mut rng).unwrap();
        let d = fail_random_links(&t, 0.0, &mut rng).unwrap();
        assert_eq!(d.graph().m(), t.graph().m());
    }

    #[test]
    fn out_of_range_fraction_rejected() {
        let mut rng = StdRng::seed_from_u64(33);
        let t = jellyfish(20, 4, 4, &mut rng).unwrap();
        assert!(fail_random_links(&t, 1.0, &mut rng).is_err());
        assert!(fail_random_links(&t, -0.1, &mut rng).is_err());
    }

    #[test]
    fn heavy_failure_on_sparse_ring_reports_disconnection() {
        // A 3-regular graph on few nodes loses connectivity quickly at 60%.
        let mut rng = StdRng::seed_from_u64(34);
        let t = jellyfish(10, 3, 2, &mut rng).unwrap();
        // Not guaranteed to disconnect, but must either succeed connected
        // or report the partition — never return a disconnected topology.
        if let Ok(d) = fail_random_links(&t, 0.6, &mut rng) {
            assert!(d.graph().is_connected())
        }
    }
}
