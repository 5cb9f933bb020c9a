//! Sparse switch-level traffic matrices and the hose model of §2.1.
//!
//! A [`TrafficMatrix`] lists demands between *switches*, in server
//! line-rate units; per-server demands are aggregated onto the switch
//! hosting them, exactly as the paper's Equation 1 works at the switch
//! level. [`TrafficMatrix::check_hose`] checks the §2.1 hose constraint
//! (no switch sources or sinks more than its attached server capacity)
//! and [`TrafficMatrix::random_permutation`] builds the near-worst-case
//! matrices the evaluation uses (§3): a random server-level permutation
//! saturating every server's hose envelope.
//!
//! # Determinism
//!
//! Generators here take a caller-seeded `&mut impl Rng` and never read
//! clocks or global state, so a fixed seed reproduces the same matrix
//! byte-for-byte on every thread count — the contract the workspace-wide
//! determinism tests (`crates/core/tests/determinism.rs`) pin. Matrix
//! construction is cheap and unbudgeted; solver budgets (`dcn_guard::Budget`)
//! start where the matrices are consumed, in the solver crates.

use crate::{ModelError, Topology};
use dcn_graph::NodeId;
use rand::Rng;

/// One demand entry: `amount` units of traffic from switch `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// Demand volume (server line-rate units).
    pub amount: f64,
}

/// A sparse switch-level traffic matrix.
///
/// Entries with `src == dst` are disallowed (traffic to a switch's own
/// servers never crosses the fabric); zero or negative entries are
/// disallowed to keep the representation canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    demands: Vec<Demand>,
}

impl TrafficMatrix {
    /// Builds a traffic matrix, validating every demand against `topo`:
    /// endpoints must be distinct switches that host servers, and amounts
    /// must be positive and finite.
    pub fn new(topo: &Topology, demands: Vec<Demand>) -> Result<Self, ModelError> {
        let n = topo.n_switches();
        for d in &demands {
            for sw in [d.src, d.dst] {
                if sw as usize >= n {
                    return Err(ModelError::SwitchOutOfRange { switch: sw, n });
                }
                if topo.servers_at(sw) == 0 {
                    return Err(ModelError::DemandOnServerlessSwitch { switch: sw });
                }
            }
            if !(d.amount.is_finite() && d.amount > 0.0) || d.src == d.dst {
                return Err(ModelError::InvalidDemand { value: d.amount });
            }
        }
        Ok(TrafficMatrix { demands })
    }

    /// The demand entries.
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Total demand volume.
    pub fn total(&self) -> f64 {
        self.demands.iter().map(|d| d.amount).sum()
    }

    /// Scales every demand by `f > 0`.
    pub fn scaled(&self, f: f64) -> TrafficMatrix {
        TrafficMatrix {
            demands: self
                .demands
                .iter()
                .map(|d| Demand {
                    amount: d.amount * f,
                    ..*d
                })
                .collect(),
        }
    }

    /// True if this matrix is a (partial) permutation: at most one non-zero
    /// entry per row and per column.
    pub fn is_permutation(&self, topo: &Topology) -> bool {
        let n = topo.n_switches();
        let mut out = vec![false; n];
        let mut inc = vec![false; n];
        for d in &self.demands {
            if out[d.src as usize] || inc[d.dst as usize] {
                return false;
            }
            out[d.src as usize] = true;
            inc[d.dst as usize] = true;
        }
        true
    }

    /// Checks hose-model feasibility: every switch sends and receives at
    /// most `H_u` total (§2.1). Returns the first violation if any.
    pub fn check_hose(&self, topo: &Topology) -> Result<(), ModelError> {
        let n = topo.n_switches();
        let mut tx = vec![0.0f64; n];
        let mut rx = vec![0.0f64; n];
        for d in &self.demands {
            tx[d.src as usize] += d.amount;
            rx[d.dst as usize] += d.amount;
        }
        const EPS: f64 = 1e-9;
        for u in 0..n {
            let cap = topo.servers_at(u as NodeId) as f64;
            if tx[u] > cap * (1.0 + EPS) + EPS {
                return Err(ModelError::HoseViolation {
                    switch: u as NodeId,
                    rate: tx[u],
                    cap,
                });
            }
            if rx[u] > cap * (1.0 + EPS) + EPS {
                return Err(ModelError::HoseViolation {
                    switch: u as NodeId,
                    rate: rx[u],
                    cap,
                });
            }
        }
        Ok(())
    }

    /// Switch-level permutation traffic from an explicit pairing.
    /// Each pair `(u, v)` contributes `min(H_u, H_v)` — Equation 18's
    /// weighting, which reduces to `H` when all switches host `H` servers.
    pub fn permutation(topo: &Topology, pairs: &[(NodeId, NodeId)]) -> Result<Self, ModelError> {
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(u, v)| Demand {
                src: u,
                dst: v,
                amount: topo.servers_at(u).min(topo.servers_at(v)) as f64,
            })
            .collect();
        let tm = TrafficMatrix::new(topo, demands)?;
        if !tm.is_permutation(topo) {
            return Err(ModelError::InvalidDemand { value: f64::NAN });
        }
        Ok(tm)
    }

    /// A uniformly random switch-level permutation (derangement) over the
    /// switches with servers: every such switch sends to exactly one other
    /// and receives from exactly one other.
    pub fn random_permutation<R: Rng>(topo: &Topology, rng: &mut R) -> Result<Self, ModelError> {
        let k = topo.switches_with_servers();
        if k.len() < 2 {
            return Err(ModelError::InfeasibleParams(
                "random permutation needs >= 2 switches with servers".into(),
            ));
        }
        // Sattolo's algorithm: a uniformly random single-cycle permutation,
        // which is automatically fixed-point free.
        let mut perm: Vec<usize> = (0..k.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        let pairs: Vec<(NodeId, NodeId)> = (0..k.len()).map(|i| (k[i], k[perm[i]])).collect();
        TrafficMatrix::permutation(topo, &pairs)
    }

    /// All-to-all traffic: every server-hosting switch spreads its hose rate
    /// `H_u` equally across all other server-hosting switches.
    pub fn all_to_all(topo: &Topology) -> Result<Self, ModelError> {
        let k = topo.switches_with_servers();
        if k.len() < 2 {
            return Err(ModelError::InfeasibleParams(
                "all-to-all needs >= 2 switches with servers".into(),
            ));
        }
        let mut demands = Vec::with_capacity(k.len() * (k.len() - 1));
        for &u in &k {
            let share = topo.servers_at(u) as f64 / (k.len() - 1) as f64;
            for &v in &k {
                if u != v {
                    demands.push(Demand {
                        src: u,
                        dst: v,
                        amount: share,
                    });
                }
            }
        }
        TrafficMatrix::new(topo, demands)
    }

    /// A random hose-feasible dense traffic matrix: starts from a convex
    /// combination of `cycles` random permutations. Used for stress tests
    /// (any convex combination of permutations is hose-saturated).
    pub fn random_hose<R: Rng>(
        topo: &Topology,
        cycles: usize,
        rng: &mut R,
    ) -> Result<Self, ModelError> {
        let mut weights: Vec<f64> = (0..cycles).map(|_| rng.gen_range(0.1..1.0)).collect();
        let s: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= s;
        }
        let mut acc: std::collections::HashMap<(NodeId, NodeId), f64> =
            std::collections::HashMap::new();
        for &w in &weights {
            let p = TrafficMatrix::random_permutation(topo, rng)?;
            for d in p.demands() {
                *acc.entry((d.src, d.dst)).or_insert(0.0) += w * d.amount;
            }
        }
        let mut demands: Vec<Demand> = acc
            .into_iter()
            .map(|((src, dst), amount)| Demand { src, dst, amount })
            .collect();
        demands.sort_by_key(|d| (d.src, d.dst));
        TrafficMatrix::new(topo, demands)
    }
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
    fn permutation_entries_use_min_h() {
        let t = ring(4, 3);
        let tm = TrafficMatrix::permutation(&t, &[(0, 2), (2, 0)]).unwrap();
        assert_eq!(tm.len(), 2);
        assert!(tm.demands().iter().all(|d| (d.amount - 3.0).abs() < 1e-12));
        assert!(tm.is_permutation(&t));
        tm.check_hose(&t).unwrap();
    }

    #[test]
    fn non_permutation_detected() {
        let t = ring(4, 3);
        let tm = TrafficMatrix::new(
            &t,
            vec![
                Demand {
                    src: 0,
                    dst: 1,
                    amount: 1.0,
                },
                Demand {
                    src: 0,
                    dst: 2,
                    amount: 1.0,
                },
            ],
        )
        .unwrap();
        assert!(!tm.is_permutation(&t));
    }

    #[test]
    fn hose_violation_detected() {
        let t = ring(4, 2);
        let tm = TrafficMatrix::new(
            &t,
            vec![Demand {
                src: 0,
                dst: 1,
                amount: 5.0,
            }],
        )
        .unwrap();
        assert!(matches!(
            tm.check_hose(&t),
            Err(ModelError::HoseViolation { switch: 0, .. })
        ));
    }

    #[test]
    fn random_permutation_is_hose_saturated_derangement() {
        let t = ring(16, 4);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let tm = TrafficMatrix::random_permutation(&t, &mut rng).unwrap();
            assert_eq!(tm.len(), 16);
            assert!(tm.is_permutation(&t));
            assert!(tm.demands().iter().all(|d| d.src != d.dst));
            tm.check_hose(&t).unwrap();
            // Saturated: every switch sends exactly H.
            assert!((tm.total() - 64.0).abs() < 1e-9);
        }
    }

    #[test]
    fn all_to_all_is_hose_saturated() {
        let t = ring(8, 4);
        let tm = TrafficMatrix::all_to_all(&t).unwrap();
        assert_eq!(tm.len(), 8 * 7);
        tm.check_hose(&t).unwrap();
        assert!((tm.total() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn random_hose_is_feasible() {
        let t = ring(12, 4);
        let mut rng = StdRng::seed_from_u64(99);
        let tm = TrafficMatrix::random_hose(&t, 3, &mut rng).unwrap();
        tm.check_hose(&t).unwrap();
        assert!(tm.total() > 0.0);
    }

    #[test]
    fn rejects_demand_on_serverless_switch() {
        let edges: Vec<(u32, u32)> = (0..4u32).map(|i| (i, (i + 1) % 4)).collect();
        let g = Graph::from_edges(4, &edges).unwrap();
        let t = Topology::new(g, vec![2, 0, 2, 0], "ring").unwrap();
        let err = TrafficMatrix::new(
            &t,
            vec![Demand {
                src: 0,
                dst: 1,
                amount: 1.0,
            }],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::DemandOnServerlessSwitch { switch: 1 });
    }

    #[test]
    fn rejects_self_demand_and_nonpositive() {
        let t = ring(4, 2);
        assert!(TrafficMatrix::new(
            &t,
            vec![Demand {
                src: 1,
                dst: 1,
                amount: 1.0
            }]
        )
        .is_err());
        assert!(TrafficMatrix::new(
            &t,
            vec![Demand {
                src: 0,
                dst: 1,
                amount: 0.0
            }]
        )
        .is_err());
        assert!(TrafficMatrix::new(
            &t,
            vec![Demand {
                src: 0,
                dst: 1,
                amount: -2.0
            }]
        )
        .is_err());
    }

    #[test]
    fn scaled_multiplies_amounts() {
        let t = ring(4, 2);
        let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).unwrap();
        let s = tm.scaled(0.5);
        assert_eq!(s.demands()[0].amount, 1.0);
    }
}
