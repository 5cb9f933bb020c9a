//! Workload generators beyond the worst case.
//!
//! The paper evaluates worst-case (maximal-permutation) traffic; real
//! fabrics also see structured loads. These generators produce
//! hose-feasible switch-level matrices for the workloads datacenter
//! papers commonly exercise:
//!
//! * [`stride_permutation`] — switch `i` sends to switch `i + s`
//!   (classic HPC stride; stresses structured topologies).
//! * [`hotspot`] — a fraction of every switch's rate converges on a few
//!   hot destinations, the rest spread all-to-all.
//! * [`locality_mix`] — a tunable blend of near (graph-neighbor) and far
//!   (random-permutation) traffic, the knob used in rack-locality studies.
//! * [`elephant_mice`] — a few switch pairs at (near) full rate, the rest
//!   a low-rate all-to-all background.
//!
//! All generators saturate at most the hose rate `H_u` per switch and
//! validate through [`TrafficMatrix::new`], so every output is admissible
//! by construction (§2.1's hose model). Randomized generators take a
//! caller-seeded `&mut impl Rng` — same seed, same matrix, on any thread
//! count — so sweeps over workloads stay reproducible and cacheable.

use crate::{Demand, ModelError, Topology, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

/// Stride permutation: the switch with index `i` (within the server-
/// hosting set, sorted by id) sends its full hose rate to index
/// `(i + stride) mod |K|`. `stride` must not be a multiple of `|K|`.
pub fn stride_permutation(topo: &Topology, stride: usize) -> Result<TrafficMatrix, ModelError> {
    let k = topo.switches_with_servers();
    if k.len() < 2 || stride.is_multiple_of(k.len()) {
        return Err(ModelError::InfeasibleParams(format!(
            "stride {stride} degenerate for {} switches",
            k.len()
        )));
    }
    let pairs: Vec<(u32, u32)> = (0..k.len())
        .map(|i| (k[i], k[(i + stride) % k.len()]))
        .collect();
    TrafficMatrix::permutation(topo, &pairs)
}

/// Hotspot: every switch sends `hot_fraction` of its rate, split equally,
/// to `n_hot` randomly chosen hot switches (excluding itself), and the
/// remainder all-to-all. Receivers' hose constraints are respected by
/// scaling the hot component so no hot switch is overrun.
pub fn hotspot<R: Rng>(
    topo: &Topology,
    n_hot: usize,
    hot_fraction: f64,
    rng: &mut R,
) -> Result<TrafficMatrix, ModelError> {
    let k = topo.switches_with_servers();
    if n_hot == 0 || n_hot >= k.len() || !(0.0..=1.0).contains(&hot_fraction) {
        return Err(ModelError::InfeasibleParams(format!(
            "hotspot needs 0 < n_hot < |K| and fraction in [0,1] (n_hot={n_hot})"
        )));
    }
    let mut hot = k.clone();
    hot.shuffle(rng);
    hot.truncate(n_hot);
    let hot_set: std::collections::HashSet<u32> = hot.iter().copied().collect();
    // Cap the hot component so each hot switch receives at most its H:
    // total hot volume = hot_fraction * (N - overlap...) <= n_hot * H_min.
    let total_rate: f64 = k.iter().map(|&u| topo.servers_at(u) as f64).sum();
    let hot_rx_cap: f64 = hot.iter().map(|&u| topo.servers_at(u) as f64).sum();
    let hot_scale = (hot_rx_cap / (hot_fraction * total_rate)).min(1.0);
    let mut demands = Vec::new();
    for &u in &k {
        let rate = topo.servers_at(u) as f64;
        let hot_targets: Vec<u32> = hot.iter().copied().filter(|&v| v != u).collect();
        let hot_amt = rate * hot_fraction * hot_scale;
        if !hot_targets.is_empty() && hot_amt > 0.0 {
            let each = hot_amt / hot_targets.len() as f64;
            for &v in &hot_targets {
                demands.push(Demand {
                    src: u,
                    dst: v,
                    amount: each,
                });
            }
        }
        // Background all-to-all over non-hot switches.
        let cold: Vec<u32> = k
            .iter()
            .copied()
            .filter(|&v| v != u && !hot_set.contains(&v))
            .collect();
        let cold_amt = rate * (1.0 - hot_fraction);
        if !cold.is_empty() && cold_amt > 0.0 {
            let each = cold_amt / cold.len() as f64;
            for &v in &cold {
                demands.push(Demand {
                    src: u,
                    dst: v,
                    amount: each,
                });
            }
        }
    }
    // Merge duplicates (a switch can be both hot target and background
    // source endpoint across iterations — dedupe defensively).
    let tm = TrafficMatrix::new(topo, merge(demands))?;
    tm.check_hose(topo)?;
    Ok(tm)
}

/// Locality mix: fraction `near` of each switch's rate goes to a random
/// graph neighbor, the rest follows a random far permutation.
pub fn locality_mix<R: Rng>(
    topo: &Topology,
    near: f64,
    rng: &mut R,
) -> Result<TrafficMatrix, ModelError> {
    if !(0.0..=1.0).contains(&near) {
        return Err(ModelError::InfeasibleParams(format!(
            "near fraction {near} outside [0,1]"
        )));
    }
    let far = TrafficMatrix::random_permutation(topo, rng)?;
    let mut demands: Vec<Demand> = far
        .demands()
        .iter()
        .map(|d| Demand {
            amount: d.amount * (1.0 - near),
            ..*d
        })
        .filter(|d| d.amount > 0.0)
        .collect();
    if near > 0.0 {
        for &u in &topo.switches_with_servers() {
            let nbrs: Vec<u32> = topo
                .graph()
                .neighbors(u)
                .map(|(v, _)| v)
                .filter(|&v| topo.servers_at(v) > 0)
                .collect();
            if let Some(&v) = nbrs.as_slice().choose(rng) {
                demands.push(Demand {
                    src: u,
                    dst: v,
                    amount: topo.servers_at(u) as f64 * near,
                });
            }
        }
    }
    // Neighbor choices may collide on receivers; scale down to hose
    // feasibility rather than reject.
    let mut tm = TrafficMatrix::new(topo, merge(demands))?;
    if tm.check_hose(topo).is_err() {
        // Worst possible rx overload factor: every in-neighbor picked us.
        let max_deg = (0..topo.n_switches() as u32)
            .map(|u| topo.graph().degree(u))
            .max()
            .unwrap_or(1) as f64;
        tm = tm.scaled(1.0 / max_deg);
        tm.check_hose(topo)?;
    }
    Ok(tm)
}

/// Elephants and mice: `n_elephants` random disjoint pairs exchange
/// `elephant_fraction` of their hose rate; every switch also spreads a
/// thin all-to-all background with the remainder.
pub fn elephant_mice<R: Rng>(
    topo: &Topology,
    n_elephants: usize,
    elephant_fraction: f64,
    rng: &mut R,
) -> Result<TrafficMatrix, ModelError> {
    let k = topo.switches_with_servers();
    if n_elephants * 2 > k.len() || !(0.0..=1.0).contains(&elephant_fraction) {
        return Err(ModelError::InfeasibleParams(format!(
            "{n_elephants} elephant pairs need {} switches",
            n_elephants * 2
        )));
    }
    let mut pool = k.clone();
    pool.shuffle(rng);
    let mut demands = Vec::new();
    for i in 0..n_elephants {
        let (u, v) = (pool[2 * i], pool[2 * i + 1]);
        let amt = topo.servers_at(u).min(topo.servers_at(v)) as f64 * elephant_fraction;
        demands.push(Demand { src: u, dst: v, amount: amt });
        demands.push(Demand { src: v, dst: u, amount: amt });
    }
    for &u in &k {
        let others: Vec<u32> = k.iter().copied().filter(|&v| v != u).collect();
        let amt = topo.servers_at(u) as f64 * (1.0 - elephant_fraction);
        let each = amt / others.len() as f64;
        if each > 0.0 {
            for &v in &others {
                demands.push(Demand { src: u, dst: v, amount: each });
            }
        }
    }
    let tm = TrafficMatrix::new(topo, merge(demands))?;
    tm.check_hose(topo)?;
    Ok(tm)
}

/// Merges duplicate (src, dst) entries by summing amounts, dropping zeros.
fn merge(demands: Vec<Demand>) -> Vec<Demand> {
    let mut acc: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    for d in demands {
        *acc.entry((d.src, d.dst)).or_insert(0.0) += d.amount;
    }
    let mut out: Vec<Demand> = acc
        .into_iter()
        .filter(|&(_, a)| a > 0.0)
        .map(|((src, dst), amount)| Demand { src, dst, amount })
        .collect();
    out.sort_by_key(|d| (d.src, d.dst));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize, h: u32) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        Topology::new(g, vec![h; n], "ring").unwrap()
    }

    #[test]
    fn stride_is_saturated_permutation() {
        let t = ring(8, 3);
        let tm = stride_permutation(&t, 3).unwrap();
        assert!(tm.is_permutation(&t));
        assert_eq!(tm.len(), 8);
        assert!((tm.total() - 24.0).abs() < 1e-9);
        tm.check_hose(&t).unwrap();
    }

    #[test]
    fn stride_zero_rejected() {
        let t = ring(8, 3);
        assert!(stride_permutation(&t, 0).is_err());
        assert!(stride_permutation(&t, 8).is_err());
        assert!(stride_permutation(&t, 16).is_err());
    }

    #[test]
    fn hotspot_is_hose_feasible_and_skewed() {
        let t = ring(12, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let tm = hotspot(&t, 2, 0.7, &mut rng).unwrap();
        tm.check_hose(&t).unwrap();
        // Receive volume at hot switches must dominate a cold switch's.
        let mut rx = [0.0f64; 12];
        for d in tm.demands() {
            rx[d.dst as usize] += d.amount;
        }
        let max_rx = rx.iter().cloned().fold(0.0, f64::max);
        let min_rx = rx.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max_rx > 1.5 * min_rx, "not skewed: {max_rx} vs {min_rx}");
    }

    #[test]
    fn hotspot_rejects_degenerate() {
        let t = ring(6, 2);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(hotspot(&t, 0, 0.5, &mut rng).is_err());
        assert!(hotspot(&t, 6, 0.5, &mut rng).is_err());
        assert!(hotspot(&t, 2, 1.5, &mut rng).is_err());
    }

    #[test]
    fn locality_mix_extremes() {
        let t = ring(10, 2);
        let mut rng = StdRng::seed_from_u64(3);
        // Pure far: just a permutation.
        let far = locality_mix(&t, 0.0, &mut rng).unwrap();
        assert!(far.is_permutation(&t));
        // Pure near: all demands to graph neighbors.
        let near = locality_mix(&t, 1.0, &mut rng).unwrap();
        near.check_hose(&t).unwrap();
        for d in near.demands() {
            assert!(
                t.graph().neighbors(d.src).any(|(v, _)| v == d.dst),
                "non-neighbor demand {d:?}"
            );
        }
    }

    #[test]
    fn elephant_mice_structure() {
        let t = ring(12, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let tm = elephant_mice(&t, 3, 0.8, &mut rng).unwrap();
        tm.check_hose(&t).unwrap();
        // Largest demand: an elephant at 0.8 * H = 3.2 plus its share of
        // the background (0.2 * 4 / 11) merged into the same entry.
        let max = tm.demands().iter().map(|d| d.amount).fold(0.0, f64::max);
        assert!((max - (3.2 + 0.8 / 11.0)).abs() < 1e-9, "max demand {max}");
        assert!(tm.len() > 6, "mice background missing");
    }

    #[test]
    fn elephant_mice_rejects_too_many_pairs() {
        let t = ring(6, 2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(elephant_mice(&t, 4, 0.5, &mut rng).is_err());
    }
}
