//! Spectral sweep cut: the sparsest-cut heuristic of Jyothi et al. [26/27],
//! used as a comparison point in Figure 5 of the paper.
//!
//! The Fiedler vector (second-smallest Laplacian eigenvector) is computed
//! by power iteration on the shifted matrix `cI - L` with deflation of the
//! constant vector; nodes are then sorted by their component and every
//! prefix cut is evaluated. Returned is the cut minimizing the hose-model
//! sparsity `cut(S) / min(servers(S), servers(S̄))` — which is itself a
//! valid throughput upper bound (the smaller side can demand all of its
//! hose rate across the cut).

use dcn_model::Topology;

/// Result of the spectral sweep.
#[derive(Debug, Clone)]
pub struct SweepCut {
    /// Side-0 membership per switch.
    pub in_s: Vec<bool>,
    /// Cut capacity.
    pub cut: f64,
    /// Hose-sparsity `cut / min(servers(S), servers(S̄))`.
    pub sparsity: f64,
}

/// Computes the spectral sweep cut. `iters` controls power-iteration count
/// (200 is plenty for the expanders studied here).
#[expect(
    clippy::expect_used,
    reason = "callers guarantee servers on ≥ 2 switches, so some sweep prefix splits them"
)]
pub fn sparsest_cut_sweep(topo: &Topology, iters: usize) -> SweepCut {
    let g = topo.graph().coalesced();
    let n = g.n();
    assert!(n >= 2, "sweep cut needs at least two switches");
    // Weighted degrees.
    let deg: Vec<f64> = (0..n as u32)
        .map(|u| g.neighbors(u).map(|(_, e)| g.capacity(e)).sum())
        .collect();
    let c = 2.0 * deg.iter().cloned().fold(0.0, f64::max) + 1.0;
    // Power iteration on (cI - L) x = c x - deg x + A x, deflating 1.
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    deflate(&mut x);
    normalize(&mut x);
    let mut y = vec![0.0f64; n];
    for _ in 0..iters {
        for u in 0..n {
            y[u] = (c - deg[u]) * x[u];
        }
        for u in 0..n as u32 {
            for (v, e) in g.neighbors(u) {
                y[u as usize] += g.capacity(e) * x[v as usize];
            }
        }
        std::mem::swap(&mut x, &mut y);
        deflate(&mut x);
        normalize(&mut x);
    }
    // Sweep.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
    let total_servers: u64 = topo.n_servers();
    let mut in_s = vec![false; n];
    let mut best: Option<SweepCut> = None;
    let mut cut = 0.0f64;
    let mut servers_s = 0u64;
    let mut current = vec![false; n];
    for (idx, &u) in order.iter().enumerate().take(n - 1) {
        // Move u into S; update the running cut.
        for (v, e) in g.neighbors(u as u32) {
            if current[v as usize] {
                cut -= g.capacity(e);
            } else {
                cut += g.capacity(e);
            }
        }
        current[u] = true;
        servers_s += topo.servers_at(u as u32) as u64;
        let _ = idx;
        let min_side = servers_s.min(total_servers - servers_s);
        if min_side == 0 {
            continue;
        }
        let sparsity = cut / min_side as f64;
        if best.as_ref().is_none_or(|b| sparsity < b.sparsity) {
            in_s.copy_from_slice(&current);
            best = Some(SweepCut {
                in_s: in_s.clone(),
                cut,
                sparsity,
            });
        }
    }
    best.expect("at least one prefix with servers on both sides")
}

fn deflate(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use dcn_model::Topology;

    #[test]
    fn finds_dumbbell_bottleneck() {
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 6));
        let g = Graph::from_edges(12, &edges).unwrap();
        let t = Topology::new(g, vec![2; 12], "dumbbell").unwrap();
        let sc = sparsest_cut_sweep(&t, 300);
        assert_eq!(sc.cut, 1.0);
        assert!((sc.sparsity - 1.0 / 12.0).abs() < 1e-12);
        // The cut splits the cliques.
        let side0 = sc.in_s.iter().filter(|&&b| b).count();
        assert_eq!(side0, 6);
    }

    #[test]
    fn cycle_sweep_is_balanced_two_cut() {
        let edges: Vec<(u32, u32)> = (0..10u32).map(|i| (i, (i + 1) % 10)).collect();
        let g = Graph::from_edges(10, &edges).unwrap();
        let t = Topology::new(g, vec![1; 10], "ring").unwrap();
        let sc = sparsest_cut_sweep(&t, 400);
        assert_eq!(sc.cut, 2.0);
        let side0 = sc.in_s.iter().filter(|&&b| b).count();
        assert!((4..=6).contains(&side0));
    }

    #[test]
    fn sparsity_upper_bounds_cut_ratio() {
        // On a complete graph the sparsest hose cut is (n/2)^2-ish edges
        // over n/2 servers: sparsity >= 1 (full throughput plausible).
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(8, &edges).unwrap();
        let t = Topology::new(g, vec![1; 8], "k8").unwrap();
        let sc = sparsest_cut_sweep(&t, 200);
        assert!(sc.sparsity >= 1.0);
    }
}
