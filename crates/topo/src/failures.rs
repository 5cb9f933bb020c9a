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
        if let Ok(d) = fail_random_links(&t, 0.6, &mut rng) { assert!(d.graph().is_connected()) }
    }
}

/// Fails `count` whole switches chosen uniformly at random: all their
/// links are removed and their servers are lost (a rack or line-card
/// failure, the correlated-failure case the paper's introduction
/// motivates placement flexibility with).
///
/// Server-hosting switches can be excluded (fail only spine/core) with
/// `serverless_only`. Errors if the survivors are disconnected or no
/// servers remain.
pub fn fail_random_switches<R: Rng>(
    topo: &Topology,
    count: usize,
    serverless_only: bool,
    rng: &mut R,
) -> Result<Topology, ModelError> {
    let n = topo.n_switches();
    let mut candidates: Vec<u32> = (0..n as u32)
        .filter(|&u| !serverless_only || topo.servers_at(u) == 0)
        .collect();
    if count > candidates.len() {
        return Err(ModelError::InfeasibleParams(format!(
            "cannot fail {count} of {} candidate switches",
            candidates.len()
        )));
    }
    for _attempt in 0..16 {
        candidates.shuffle(rng);
        let dead: std::collections::HashSet<u32> =
            candidates[..count].iter().copied().collect();
        let removed: Vec<u32> = topo
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, &(u, v))| dead.contains(&u) || dead.contains(&v))
            .map(|(e, _)| e as u32)
            .collect();
        let g = topo.graph().without_edges(&removed);
        let mut servers = topo.servers().to_vec();
        for &u in &dead {
            servers[u as usize] = 0;
        }
        if servers.iter().all(|&s| s == 0) {
            continue;
        }
        // Connectivity among the survivors (dead switches become isolated
        // vertices; ignore them in the check).
        let alive: Vec<u32> = (0..n as u32).filter(|u| !dead.contains(u)).collect();
        if alive.is_empty() {
            continue;
        }
        if g.reachable_count(alive[0]) == alive.len() {
            let name = format!("{}-sw{count}", topo.name());
            return Topology::new(g, servers, name);
        }
    }
    Err(ModelError::InfeasibleParams(format!(
        "failing {count} switches disconnects the survivors"
    )))
}

/// Fails a contiguous block of switch ids `[start, start + len)` — a pod,
/// power domain, or FatClique block, which occupy contiguous id ranges in
/// every generator of this workspace.
pub fn fail_switch_range(
    topo: &Topology,
    start: usize,
    len: usize,
) -> Result<Topology, ModelError> {
    let n = topo.n_switches();
    // checked_add: `start + len` must not wrap for adversarial usize inputs.
    if start.checked_add(len).is_none_or(|end| end > n) || len == 0 {
        return Err(ModelError::InfeasibleParams(format!(
            "range {start}+{len} out of bounds for {n} switches"
        )));
    }
    let dead: std::collections::HashSet<u32> =
        (start as u32..(start + len) as u32).collect();
    let removed: Vec<u32> = topo
        .graph()
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, &(u, v))| dead.contains(&u) || dead.contains(&v))
        .map(|(e, _)| e as u32)
        .collect();
    let g = topo.graph().without_edges(&removed);
    let mut servers = topo.servers().to_vec();
    for &u in &dead {
        servers[u as usize] = 0;
    }
    if servers.iter().all(|&s| s == 0) {
        return Err(ModelError::NoServers);
    }
    let alive: Vec<u32> = (0..n as u32).filter(|u| !dead.contains(u)).collect();
    if g.reachable_count(alive[0]) != alive.len() {
        return Err(ModelError::InfeasibleParams(
            "range failure disconnects the survivors".into(),
        ));
    }
    Topology::new(g, servers, format!("{}-blk{start}+{len}", topo.name()))
}

#[cfg(test)]
mod switch_failure_tests {
    use super::*;
    use crate::{fat_tree, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn switch_failures_remove_links_and_servers() {
        let mut rng = StdRng::seed_from_u64(41);
        let t = jellyfish(40, 8, 4, &mut rng).unwrap();
        let d = fail_random_switches(&t, 4, false, &mut rng).unwrap();
        assert_eq!(d.n_switches(), 40); // ids preserved, now isolated
        assert_eq!(d.n_servers(), (40 - 4) * 4);
        assert!(d.graph().m() < t.graph().m());
    }

    #[test]
    fn serverless_only_preserves_servers() {
        let t = fat_tree(4).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let d = fail_random_switches(&t, 2, true, &mut rng).unwrap();
        assert_eq!(d.n_servers(), t.n_servers());
    }

    #[test]
    fn too_many_failures_rejected() {
        let mut rng = StdRng::seed_from_u64(44);
        let t = jellyfish(10, 4, 2, &mut rng).unwrap();
        assert!(fail_random_switches(&t, 11, false, &mut rng).is_err());
    }

    #[test]
    fn pod_failure_on_fat_tree() {
        // Fat-tree k=4: edge switches 0..8 (pods of 2); kill pod 0's edges.
        let t = fat_tree(4).unwrap();
        let d = fail_switch_range(&t, 0, 2).unwrap();
        assert_eq!(d.n_servers(), 16 - 4);
        // The rest of the fabric still works at full throughput for its
        // surviving servers (spines intact).
        assert!(d.graph().m() < t.graph().m());
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = fat_tree(4).unwrap();
        assert!(fail_switch_range(&t, 18, 5).is_err());
        assert!(fail_switch_range(&t, 0, 0).is_err());
    }
}
