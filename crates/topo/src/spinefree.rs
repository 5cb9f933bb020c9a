//! Spine-free (pod-level) fabrics — §6 of the paper.
//!
//! In a spine-free datacenter \[22\], the top layer of a Clos is removed and
//! aggregation pods connect *directly* to each other; pods carry transit
//! traffic for other pods. At the pod level the fabric is effectively a
//! uni-regular topology whose "switches" are pods, whose `H` is the number
//! of servers per pod, and whose links are multi-link trunks — exactly the
//! regime the paper says tub can analyze (every quantity in Equation 1 is
//! capacity-weighted, so trunks are first-class here).
//!
//! Two inter-pod wirings are provided: a random regular trunk graph
//! (Jellyfish-at-pod-level) and a complete pod mesh. The random wiring
//! takes a caller-seeded RNG (the mesh is fully deterministic), so both
//! reproduce bit-identically from their parameters alone — pod-level
//! sweeps in the cost experiments cache and re-seed per configuration.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};
use rand::Rng;

/// Parameters for a spine-free pod-level fabric.
#[derive(Debug, Clone, Copy)]
pub struct SpineFreeParams {
    /// Number of pods.
    pub pods: usize,
    /// Servers aggregated behind each pod.
    pub servers_per_pod: u32,
    /// Inter-pod trunk capacity (links per pod pair actually wired).
    pub trunk: f64,
    /// Pod-level degree: how many other pods each pod connects to.
    /// `pods - 1` gives the full mesh.
    pub degree: usize,
}

/// Builds a spine-free fabric as a pod-level topology. With
/// `degree == pods - 1` the wiring is the deterministic full mesh;
/// otherwise a random `degree`-regular pod graph is drawn from `rng`.
pub fn spinefree<R: Rng>(p: SpineFreeParams, rng: &mut R) -> Result<Topology, ModelError> {
    let SpineFreeParams {
        pods,
        servers_per_pod,
        trunk,
        degree,
    } = p;
    if pods < 2 || servers_per_pod == 0 || trunk <= 0.0 {
        return Err(ModelError::InfeasibleParams(format!(
            "spinefree needs pods >= 2, servers > 0, trunk > 0 (got {p:?})"
        )));
    }
    if degree >= pods {
        return Err(ModelError::InfeasibleParams(format!(
            "pod degree {degree} must be < pods {pods}"
        )));
    }
    let edges: Vec<(u32, u32, f64)> = if degree == pods - 1 {
        // Full mesh.
        let mut e = Vec::with_capacity(pods * (pods - 1) / 2);
        for i in 0..pods as u32 {
            for j in (i + 1)..pods as u32 {
                e.push((i, j, trunk));
            }
        }
        e
    } else {
        // Random regular pod graph via the Jellyfish generator, re-weighted.
        crate::check_regular_feasible(pods, degree)?;
        if degree < 3 {
            return Err(ModelError::InfeasibleParams(
                "random pod graphs need degree >= 3 (use the full mesh for tiny fabrics)"
                    .into(),
            ));
        }
        let base = crate::jellyfish(pods, degree, 1, rng)?;
        base.graph()
            .edges()
            .iter()
            .map(|&(u, v)| (u, v, trunk))
            .collect()
    };
    let graph = Graph::from_weighted_edges(pods, &edges)?;
    let name = format!(
        "spinefree-p{pods}-h{servers_per_pod}-t{trunk}-d{degree}"
    );
    Topology::new(graph, vec![servers_per_pod; pods], name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_mesh_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = spinefree(
            SpineFreeParams {
                pods: 8,
                servers_per_pod: 64,
                trunk: 4.0,
                degree: 7,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.n_switches(), 8);
        assert_eq!(t.n_servers(), 512);
        assert_eq!(t.graph().m(), 28);
        assert_eq!(t.graph().diameter(), Ok(1));
        // Trunked capacity: total = 28 * 4.
        assert_eq!(t.e_links(), 112.0);
    }

    #[test]
    fn random_pod_graph_is_regular() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = spinefree(
            SpineFreeParams {
                pods: 16,
                servers_per_pod: 32,
                trunk: 2.0,
                degree: 5,
            },
            &mut rng,
        )
        .unwrap();
        for u in 0..16u32 {
            assert_eq!(t.graph().degree(u), 5);
        }
        assert!(t.graph().is_connected());
    }

    #[test]
    fn degenerate_params_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let bad = |pods, servers_per_pod, trunk, degree| {
            spinefree(
                SpineFreeParams {
                    pods,
                    servers_per_pod,
                    trunk,
                    degree,
                },
                &mut StdRng::seed_from_u64(3),
            )
            .is_err()
        };
        assert!(bad(1, 8, 1.0, 0));
        assert!(bad(8, 0, 1.0, 3));
        assert!(bad(8, 8, 0.0, 3));
        assert!(bad(8, 8, 1.0, 8));
        assert!(bad(8, 8, 1.0, 2)); // degree < 3, not full mesh
        let _ = (&mut rng, bad);
    }
}
