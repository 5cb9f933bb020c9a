//! Workloads beyond the worst case.
//!
//! The paper evaluates worst-case (maximal-permutation) traffic; real
//! fabrics also see skewed loads. [`elephant_mice`] produces one: a few
//! switch pairs at (near) full rate, the rest a low-rate all-to-all
//! background (the flow-level slowdown study's input).
//!
//! It saturates at most the hose rate `H_u` per switch and validates
//! through [`TrafficMatrix::new`], so every output is admissible by
//! construction (§2.1's hose model). It takes a caller-seeded
//! `&mut impl Rng` — same seed, same matrix, on any thread count — so
//! sweeps over workloads stay reproducible and cacheable.

use crate::{Demand, ModelError, Topology, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

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
        demands.push(Demand {
            src: u,
            dst: v,
            amount: amt,
        });
        demands.push(Demand {
            src: v,
            dst: u,
            amount: amt,
        });
    }
    for &u in &k {
        let others: Vec<u32> = k.iter().copied().filter(|&v| v != u).collect();
        let amt = topo.servers_at(u) as f64 * (1.0 - elephant_fraction);
        let each = amt / others.len() as f64;
        if each > 0.0 {
            for &v in &others {
                demands.push(Demand {
                    src: u,
                    dst: v,
                    amount: each,
                });
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
