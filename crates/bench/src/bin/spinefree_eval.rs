//! Spine-free fabrics through the tub lens (§6 of the paper).
//!
//! The paper points out that once the spine layer is removed, the
//! inter-pod fabric is effectively uni-regular and tub applies directly.
//! This experiment sweeps pod-level designs at fixed equipment (total
//! trunk capacity): full-mesh vs random pod graphs of varying degree, plus
//! the spine-ful Clos baseline, and reports tub and the worst-case
//! KSP-MCF throughput of the pod fabric.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use dcn_topo::{spinefree, SpineFreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("spinefree_eval", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    dcn_bench::set_run_seed(91);
    let pods = if quick_mode() { 16 } else { 32 };
    let servers_per_pod = 64u32;
    // Equipment budget: total inter-pod capacity equals what a full
    // bisection fabric would need: pods * servers_per_pod / 2 per cut.
    let budget = pods as f64 * servers_per_pod as f64; // total trunk capacity * 2
    let mut table = Table::new(
        "spinefree_eval",
        &["design", "pods", "degree", "trunk", "tub", "mcf_lb"],
    );
    let mut rng = StdRng::seed_from_u64(91);
    let mut degrees: Vec<usize> = vec![pods - 1];
    for d in [4usize, 6, 8, 12] {
        if d < pods - 1 {
            degrees.push(d);
        }
    }
    for degree in degrees {
        // Same total capacity regardless of degree.
        let trunk = budget / (pods as f64 * degree as f64);
        let p = SpineFreeParams {
            pods,
            servers_per_pod,
            trunk,
            degree,
        };
        let topo = match spinefree(p, &mut rng) {
            Ok(t) => t,
            Err(e) => {
                dcn_obs::obs_log!("skip degree {degree}: {e}");
                continue;
            }
        };
        let b = tub(&topo, MatchingBackend::Exact, &sctx)?;
        let tm = b.traffic_matrix(&topo)?;
        // Path budget scales with pods: a full mesh needs all `pods - 1`
        // two-hop detours to realize its capacity.
        let k_paths = pods.min(48);
        let mcf =
            ksp_mcf_throughput(&topo, &tm, k_paths, Engine::Fptas { eps: 0.05 }, &sctx)?.theta_lb;
        let design = if degree == pods - 1 { "full-mesh" } else { "random" };
        table.row(&[
            &design,
            &pods,
            &degree,
            &format!("{trunk:.2}"),
            &f3(b.bound),
            &f3(mcf),
        ]);
    }
    table.finish()?;
    println!(
        "(equal total trunk capacity per row. Note tub's looseness on diameter-1 \
         fabrics: with every pair one hop apart, Equation 1 counts no transit, \
         yet the direct trunk cannot carry a full pod's demand and routing must \
         burn 2-hop detours — the Figure 7 phenomenon at pod scale. The mcf_lb \
         column is the trustworthy ranking; tub still soundly upper-bounds it.)"
    );
    Ok(())
}
