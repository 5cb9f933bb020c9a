//! Figure A.5: the tub-vs-KSP-MCF gap as a function of K, the number of
//! shortest paths available to routing.
//!
//! Paper setup: K ∈ {20, 60, 100, 200} at R=32. Scaled: K ∈ {4, 8, 16,
//! 32} at R=12. Expected shape: too-small K leaves a persistent gap even
//! at large sizes; beyond a sufficient K the curves coincide.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("figa5_gap_k", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let ks: &[usize] = if quick_mode() {
        &[4, 16]
    } else {
        &[4, 8, 16, 32]
    };
    let sizes: &[usize] = if quick_mode() {
        &[24, 96]
    } else {
        &[24, 48, 96, 160, 240]
    };
    let mut table = Table::new(
        "figa5_gap_k",
        &["k", "switches", "servers", "tub", "mcf_lb", "gap"],
    );
    for &k in ks {
        for &n_sw in sizes {
            let topo = Family::Jellyfish.build(n_sw, radix, h, 71)?;
            let ub = tub(&topo, MatchingBackend::Auto { exact_below: 400 }, &sctx)?;
            let tm = ub.traffic_matrix(&topo)?;
            let mcf = ksp_mcf_throughput(&topo, &tm, k, Engine::Fptas { eps: 0.05 }, &sctx)?;
            let gap = (ub.bound.min(1.0) - mcf.theta_lb.min(1.0)).max(0.0);
            table.row(&[
                &k,
                &topo.n_switches(),
                &topo.n_servers(),
                &f3(ub.bound),
                &f3(mcf.theta_lb),
                &f3(gap),
            ]);
        }
    }
    table.finish()?;
    Ok(())
}
