//! Quickstart: the paper's Figure 6/7 worked example, end to end.
//!
//! A uni-regular topology of five 3-port switches (one server each, so the
//! network is a 5-cycle) has *full bisection bandwidth* but cannot reach
//! *full throughput*: its worst-case permutation tops out at θ = 5/6.
//! This example computes every quantity the paper derives for it:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dcn::core::{tub, MatchingBackend};
use dcn::graph::Graph;
use dcn::mcf::{ksp_mcf_throughput, Engine};
use dcn::model::Topology;
use dcn::partition::bisection_bandwidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_cache::CacheHandle::from_env();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    // Five 3-port switches, one server each → a 5-cycle of switch links.
    let graph = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?;
    let topo = Topology::new(graph, vec![1; 5], "figure6-middle")?;
    println!(
        "topology: {} ({} switches, {} servers, {} links)",
        topo.name(),
        topo.n_switches(),
        topo.n_servers(),
        topo.graph().m()
    );

    // Bisection bandwidth: any balanced cut of a cycle crosses 2 links,
    // and N/2 = 2.5 → "full bisection" fails by the strict definition but
    // the paper's point is throughput, so print both.
    let bbw = bisection_bandwidth(&topo, 8, 1, &sctx)?;
    println!(
        "bisection bandwidth: {bbw} (N/2 = {})",
        topo.n_servers() as f64 / 2.0
    );

    // The throughput upper bound and its maximal permutation.
    let bound = tub(&topo, MatchingBackend::Exact, &sctx)?;
    println!("tub = {:.4} via {}", bound.bound, bound.backend);
    println!("maximal permutation (switch -> switch):");
    for &(u, v) in &bound.pairs {
        println!("  s{u} -> s{v}  (distance 2)");
    }

    // Exact KSP-MCF throughput of that worst-case traffic matrix.
    let tm = bound.traffic_matrix(&topo)?;
    let exact = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &sctx)?;
    println!(
        "exact θ(T) of the maximal permutation = {:.4} (paper: 5/6 ≈ 0.8333)",
        exact.theta_lb
    );
    println!(
        "fraction of flow on shortest paths: {:.3} (optimal routing mixes in the 3-hop paths)",
        exact.shortest_path_fraction
    );

    // The FPTAS brackets the same value.
    let approx = ksp_mcf_throughput(&topo, &tm, 8, Engine::Fptas { eps: 0.02 }, &sctx)?;
    println!(
        "fptas bracket: [{:.4}, {:.4}]",
        approx.theta_lb, approx.theta_ub
    );

    assert!((exact.theta_lb - 5.0 / 6.0).abs() < 1e-9);
    println!(
        "\n=> tub = {:.3} upper-bounds the true worst-case throughput {:.3}:",
        bound.bound, exact.theta_lb
    );
    println!("   the topology is NOT full throughput even though each cut looks healthy.");
    Ok(())
}
