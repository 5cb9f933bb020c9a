//! Ablation: exact Hungarian vs the paper's Algorithm-1 greedy (with and
//! without 2-swap improvement) as the tub matching backend.
//!
//! Quantifies DESIGN.md's claim that the greedy backend trades a slightly
//! looser (but still sound) bound for large speedups.

use dcn_bench::{f3, quick_mode, run_guarded, timed, Table};
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("ablation_matching", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let sizes: &[usize] = if quick_mode() {
        &[48, 96]
    } else {
        &[48, 96, 240, 512]
    };
    let mut table = Table::new(
        "ablation_matching",
        &["switches", "backend", "bound", "loosening_pct", "seconds"],
    );
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 81)?;
        let (exact, te) = timed(|| tub(&topo, MatchingBackend::Exact, &sctx));
        let exact = exact?;
        let backends = [
            (
                "greedy(0)",
                MatchingBackend::Greedy {
                    improvement_passes: 0,
                },
            ),
            (
                "greedy(3)",
                MatchingBackend::Greedy {
                    improvement_passes: 3,
                },
            ),
        ];
        table.row(&[
            &topo.n_switches(),
            &"hungarian",
            &f3(exact.bound),
            &f3(0.0),
            &format!("{te:.3}"),
        ]);
        for (name, b) in backends {
            let (g, tg) = timed(|| tub(&topo, b, &sctx));
            let g = g?;
            let loosen = (g.bound / exact.bound - 1.0) * 100.0;
            table.row(&[
                &topo.n_switches(),
                &name,
                &f3(g.bound),
                &f3(loosen),
                &format!("{tg:.3}"),
            ]);
        }
    }
    table.finish()?;
    Ok(())
}
