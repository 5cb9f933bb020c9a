//! Validation of the worst-case methodology (§3.1 of the paper): the
//! maximal permutation matrix achieves lower throughput than random
//! permutations, and the gap between the two grows with scale.
//!
//! Paper setup: exhaustive comparison on small topologies; 20 random
//! permutations on large ones. Scaled: FPTAS throughput vs 8 random
//! permutations per size.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use dcn_model::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("validate_worstcase", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    dcn_bench::set_run_seed(11);
    let radix = 12u32;
    let h = 4u32;
    let sizes: &[usize] = if quick_mode() {
        &[24, 64]
    } else {
        &[24, 64, 128, 240]
    };
    let trials = if quick_mode() { 3 } else { 8 };
    let mut table = Table::new(
        "validate_worstcase",
        &[
            "switches",
            "theta_maximal",
            "theta_random_min",
            "theta_random_mean",
            "separation",
        ],
    );
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 5)?;
        let bound = tub(&topo, MatchingBackend::Auto { exact_below: 400 }, &sctx)?;
        let worst_tm = bound.traffic_matrix(&topo)?;
        let theta_worst =
            ksp_mcf_throughput(&topo, &worst_tm, 16, Engine::Fptas { eps: 0.05 }, &sctx)?.theta_lb;
        let mut rng = StdRng::seed_from_u64(11);
        let mut rand_thetas = Vec::new();
        for _ in 0..trials {
            let tm = TrafficMatrix::random_permutation(&topo, &mut rng)?;
            let th =
                ksp_mcf_throughput(&topo, &tm, 16, Engine::Fptas { eps: 0.05 }, &sctx)?.theta_lb;
            rand_thetas.push(th);
        }
        let min = rand_thetas.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = rand_thetas.iter().sum::<f64>() / rand_thetas.len() as f64;
        table.row(&[
            &topo.n_switches(),
            &f3(theta_worst),
            &f3(min),
            &f3(mean),
            &f3(mean - theta_worst),
        ]);
        if theta_worst > min + 0.02 {
            dcn_obs::obs_log!(
                "warning: a random permutation beat the maximal one at {n_sw} switches \
                 ({min:.3} < {theta_worst:.3}); FPTAS noise or loose matching"
            );
        }
    }
    table.finish()?;
    Ok(())
}
