//! Spectral diagnostics for expander quality.
//!
//! Jellyfish and Xpander derive their capacity claims from being good
//! expanders; the second adjacency eigenvalue `λ2` certifies that. For an
//! `r`-regular graph, `λ2 <= 2 sqrt(r-1)` is the Ramanujan (optimal
//! expansion) threshold, and random regular graphs sit just above it with
//! high probability (Friedman's theorem). [`adjacency_lambda2`] computes
//! `λ2` by power iteration with deflation of the all-ones Perron vector.

use crate::csr::Graph;

/// Largest-magnitude eigenvalue of the adjacency matrix restricted to the
/// space orthogonal to the all-ones vector, for a *regular* graph.
/// Returns `None` if the graph is not regular (the all-ones deflation is
/// only exact for regular graphs) or has fewer than 2 nodes.
///
/// `iters` power iterations; 200–500 gives 2–3 digits on the topologies
/// in this workspace. The returned value approximates `max(|λ2|, |λn|)`,
/// which is the quantity expansion bounds use.
pub fn adjacency_lambda2(g: &Graph, iters: usize) -> Option<f64> {
    let n = g.n();
    if n < 2 {
        return None;
    }
    let r = g.degree(0);
    if (1..n).any(|u| g.degree(u as u32) != r) {
        return None;
    }
    // Deterministic pseudo-random start, deflated and normalized.
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1009) as f64 / 1009.0 - 0.5)
        .collect();
    deflate(&mut x);
    normalize(&mut x)?;
    let mut y = vec![0.0f64; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        y.iter_mut().for_each(|v| *v = 0.0);
        for u in 0..n as u32 {
            for (v, _) in g.neighbors(u) {
                y[u as usize] += x[v as usize];
            }
        }
        deflate(&mut y);
        lambda = dot(&x, &y).abs();
        std::mem::swap(&mut x, &mut y);
        normalize(&mut x)?;
    }
    Some(lambda)
}

fn deflate(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    x.iter_mut().for_each(|v| *v -= mean);
}

fn normalize(x: &mut [f64]) -> Option<()> {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm <= 1e-300 {
        return None;
    }
    x.iter_mut().for_each(|v| *v /= norm);
    Some(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Complete graph K_n: eigenvalues n-1 (once) and -1 (n-1 times), so
    /// the deflated spectral radius is exactly 1.
    #[test]
    fn complete_graph_lambda2_is_one() {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(8, &edges).unwrap();
        let l2 = adjacency_lambda2(&g, 300).unwrap();
        assert!((l2 - 1.0).abs() < 1e-6, "λ2 = {l2}");
    }

    /// Cycle C_n has eigenvalues 2 cos(2πk/n); the deflated spectral
    /// radius is the largest |·| among k != 0. For odd n that is
    /// 2 cos(π/n) (from the most negative eigenvalue); even cycles are
    /// bipartite and give exactly 2.
    #[test]
    fn cycle_lambda2_matches_closed_form() {
        for n in [12usize, 13] {
            let edges: Vec<(u32, u32)> =
                (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
            let g = Graph::from_edges(n, &edges).unwrap();
            let expect = (1..n)
                .map(|k| (2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos()).abs())
                .fold(0.0f64, f64::max);
            let l2 = adjacency_lambda2(&g, 4000).unwrap();
            assert!((l2 - expect).abs() < 1e-3, "C{n}: λ = {l2}, expect {expect}");
        }
    }

    #[test]
    fn petersen_is_ramanujan() {
        // Petersen graph: 3-regular with λ2 = 1 < 2 sqrt 2.
        let edges = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        ];
        let g = Graph::from_edges(10, &edges).unwrap();
        let l2 = adjacency_lambda2(&g, 500).unwrap();
        assert!((l2 - 2.0).abs() < 1e-6, "Petersen deflated radius = {l2} (λn = -2)");
        assert!(
            l2 <= 2.0 * 2f64.sqrt(),
            "above the Ramanujan bound 2 sqrt(r - 1)"
        );
    }

    #[test]
    fn irregular_rejected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(adjacency_lambda2(&g, 100).is_none());
        let one = Graph::from_edges(1, &[]).unwrap();
        assert!(adjacency_lambda2(&one, 100).is_none());
    }

    #[test]
    fn poor_expander_detected() {
        // Two K4s joined by a single edge is 3-4-regular — not regular, so
        // use a barbell of cycles: C16 is a terrible expander: λ2 close
        // to 2 = r, far above... the Ramanujan bound for r=2 is
        // 2 sqrt(1) = 2, so the test uses the raw gap instead.
        let n = 32;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let l2 = adjacency_lambda2(&g, 3000).unwrap();
        // Spectral gap r - λ2 is tiny for long cycles.
        assert!(2.0 - l2 < 0.1, "cycle gap should be tiny, λ2 = {l2}");
    }
}
