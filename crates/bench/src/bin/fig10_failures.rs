//! Figure 10: throughput of uni-regular topologies under random link
//! failures — nominal `(1-f)θ` vs actual tub, and the RMS deviation as a
//! function of size.
//!
//! Paper setup: Jellyfish H=8, N ∈ {32K, 131K}, f to 30%. Scaled:
//! H=4, R=12, switches ∈ {96, 320}, f to 30%, 3 trials per point.
//!
//! Expected shape (paper): the smaller instance degrades gracefully
//! (actual ≈ nominal); the larger one — whose maximal-permutation pairs
//! have fewer shortest paths — deviates below nominal as failures mount,
//! and the deviation grows with size.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::resilience::{failure_sweep, rms_deviation};
use dcn_core::MatchingBackend;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("fig10_failures", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let backend = MatchingBackend::Auto { exact_below: 500 };
    let fractions: &[f64] = if quick_mode() {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    };
    let sizes: &[usize] = if quick_mode() { &[96] } else { &[96, 320] };
    let trials = if quick_mode() { 1 } else { 3 };

    let mut ta = Table::new(
        "fig10ab_failures",
        &["switches", "fraction", "nominal", "actual", "trials"],
    );
    let mut tb = Table::new(
        "fig10c_deviation",
        &["switches", "servers", "rms_deviation"],
    );
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 31)?;
        let pts = failure_sweep(&topo, fractions, trials, backend, 37, &sctx)?;
        for p in &pts {
            // Empty points (every sample disconnected) print as "-" rather
            // than a fabricated zero.
            let actual = p.actual.map(f3).unwrap_or_else(|| "-".to_string());
            ta.row(&[
                &topo.n_switches(),
                &f3(p.fraction),
                &f3(p.nominal),
                &actual,
                &p.trials,
            ]);
        }
        tb.row(&[
            &topo.n_switches(),
            &topo.n_servers(),
            &f3(rms_deviation(&pts)),
        ]);
    }
    ta.finish()?;
    tb.finish()?;
    Ok(())
}
