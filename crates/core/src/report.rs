//! One-call topology report card: every §5-style metric for one instance.
//!
//! This is the programmatic face of the paper's "throughput-centric view":
//! a designer hands in a topology and gets back the numbers that §5 argues
//! should drive decisions — tub first, bisection bandwidth second, plus
//! the Equation-3 feasibility verdict and expander diagnostics.

use crate::tub::{tub, MatchingBackend, TubResult};
use crate::universal::{universal_tub, UniRegularParams};
use crate::CoreError;
use dcn_cache::SolveCtx;
use dcn_graph::adjacency_lambda2;
use dcn_model::{TopoClass, Topology};
use dcn_partition::bisection_bandwidth;

/// The full report for a topology instance.
#[derive(Debug, Clone)]
pub struct ReportCard {
    /// Topology name.
    pub name: String,
    /// Figure-1 classification.
    pub class: TopoClass,
    /// Switch count.
    pub n_switches: usize,
    /// Server count `N`.
    pub n_servers: u64,
    /// Total link capacity `E`.
    pub n_links: f64,
    /// Throughput upper bound (Equation 1 / 18), unclamped.
    pub tub: f64,
    /// The tub evidence (maximal permutation etc.).
    pub tub_detail: TubResult,
    /// Bisection bandwidth estimate.
    pub bbw: f64,
    /// `bbw / (N/2)`.
    pub bbw_fraction: f64,
    /// Theorem 4.1 bound at these `(N, R, H)` — `None` for bi-regular or
    /// irregular instances.
    pub universal_bound: Option<f64>,
    /// Deflated adjacency spectral radius — `None` for irregular graphs.
    pub lambda2: Option<f64>,
    /// `2 sqrt(r-1)` for the network degree, when regular.
    pub ramanujan_bound: Option<f64>,
}

impl ReportCard {
    /// True when the instance may support arbitrary traffic.
    pub fn is_full_throughput(&self) -> bool {
        self.tub >= 1.0 - 1e-9
    }

    /// True when the instance has full bisection bandwidth.
    pub fn is_full_bisection(&self) -> bool {
        self.bbw_fraction >= 1.0 - 1e-9
    }

    /// The paper's warning flag: healthy cuts, insufficient worst-case
    /// throughput (the Figure 2 wedge).
    pub fn bisection_overpromises(&self) -> bool {
        self.is_full_bisection() && !self.is_full_throughput()
    }

    /// Renders a compact multi-line summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        // fmt::Write into a String cannot fail; discard the Results.
        let _ = writeln!(
            s,
            "{} — {:?}, {} switches, {} servers, {} links",
            self.name, self.class, self.n_switches, self.n_servers, self.n_links
        );
        let _ = writeln!(s, "  tub            = {:.4}", self.tub);
        let _ = writeln!(
            s,
            "  bisection      = {:.1} ({:.3} of N/2)",
            self.bbw, self.bbw_fraction
        );
        if let Some(u) = self.universal_bound {
            let _ = writeln!(s, "  Thm 4.1 bound  = {u:.4}");
        }
        if let (Some(l2), Some(rb)) = (self.lambda2, self.ramanujan_bound) {
            let _ = writeln!(s, "  λ2             = {l2:.3} (Ramanujan {rb:.3})");
        }
        if self.bisection_overpromises() {
            let _ = writeln!(
                s,
                "  ⚠ full bisection bandwidth but NOT full throughput (Figure 2 wedge)"
            );
        }
        s
    }
}

/// Computes the report card. `bbw_tries`/`seed` drive the partitioner.
pub fn report_card(
    topo: &Topology,
    backend: MatchingBackend,
    bbw_tries: u32,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<ReportCard, CoreError> {
    let tub_detail = tub(topo, backend, ctx)?;
    let bbw = bisection_bandwidth(topo, bbw_tries, seed, ctx)?;
    let half = topo.n_servers() as f64 / 2.0;
    let universal_bound = match topo.class() {
        TopoClass::UniRegular { h } => {
            // Theorem 4.1 counts unit-capacity network ports; trunked
            // links contribute their capacity. Require (near-)uniform
            // capacity degree, otherwise the theorem does not apply.
            let cap_deg = |u: u32| -> f64 {
                topo.graph()
                    .neighbors(u)
                    .map(|(_, e)| topo.graph().capacity(e))
                    .sum()
            };
            let d0 = cap_deg(0);
            let uniform = (0..topo.n_switches() as u32).all(|u| (cap_deg(u) - d0).abs() < 0.5);
            if uniform && d0 >= 1.0 {
                universal_tub(UniRegularParams {
                    n_servers: topo.n_servers(),
                    radix: d0.round() as u32 + h,
                    h,
                })
            } else {
                None
            }
        }
        _ => None,
    };
    let lambda2 = adjacency_lambda2(topo.graph(), 300);
    let ramanujan_bound = lambda2.map(|_| {
        let r = topo.graph().degree(0) as f64;
        2.0 * (r - 1.0).sqrt()
    });
    Ok(ReportCard {
        name: topo.name().to_string(),
        class: topo.class(),
        n_switches: topo.n_switches(),
        n_servers: topo.n_servers(),
        n_links: topo.e_links(),
        tub: tub_detail.bound,
        tub_detail,
        bbw,
        bbw_fraction: bbw / half,
        universal_bound,
        lambda2,
        ramanujan_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::{fat_tree, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fat_tree_report() {
        let t = fat_tree(4).unwrap();
        let r = report_card(&t, MatchingBackend::Exact, 4, 1, &unlimited_ctx()).unwrap();
        assert!(r.is_full_throughput());
        assert!(r.is_full_bisection());
        assert!(!r.bisection_overpromises());
        assert!(r.universal_bound.is_none(), "bi-regular: Thm 4.1 N/A");
        assert!(
            r.lambda2.is_none(),
            "fat-tree is not regular (leaves vs cores)"
        );
        let text = r.render();
        assert!(text.contains("tub"));
        assert!(!text.contains('⚠'));
    }

    #[test]
    fn overpromising_expander_flagged() {
        // Degree 10, H = 3, large enough that tub < 1 but bisection holds:
        // (from the frontier analysis, ~250 switches).
        let mut rng = StdRng::seed_from_u64(5);
        let t = jellyfish(260, 10, 3, &mut rng).unwrap();
        let r = report_card(
            &t,
            MatchingBackend::Auto { exact_below: 300 },
            3,
            7,
            &unlimited_ctx(),
        )
        .unwrap();
        assert!(r.universal_bound.is_some());
        assert!(r.lambda2.is_some());
        assert!(r.tub <= r.universal_bound.unwrap() + 1e-9);
        if r.bisection_overpromises() {
            assert!(r.render().contains('⚠'));
        }
    }

    #[test]
    fn uniregular_bounds_ordered() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = jellyfish(60, 8, 4, &mut rng).unwrap();
        let r = report_card(&t, MatchingBackend::Exact, 3, 7, &unlimited_ctx()).unwrap();
        // tub <= Thm 4.1 universal bound, always.
        assert!(r.tub <= r.universal_bound.unwrap() + 1e-9);
        // λ2 below Ramanujan + slack for a random regular graph.
        assert!(r.lambda2.unwrap() <= r.ramanujan_bound.unwrap() + 0.5);
    }
}
