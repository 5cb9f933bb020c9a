//! Figure A.1: the theoretical throughput gap — tub minus the Theorem 8.4
//! lower bound at additive slack M=1 — shrinking with scale (Corollary 2).
//!
//! Paper setup: Jellyfish H=8, R=32, N from ~5K to 300K. Scaled: H=4,
//! R=12, switches 24..512.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_core::frontier::Family;
use dcn_core::lower::theoretical_gap;
use dcn_core::MatchingBackend;
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("figa1_theory_gap", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let sizes: &[usize] = if quick_mode() {
        &[24, 96]
    } else {
        &[24, 48, 96, 160, 240, 320, 512]
    };
    let mut table = Table::new(
        "figa1_theory_gap",
        &["switches", "servers", "tub", "lower_m1", "gap"],
    );
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 41)?;
        let (ub, lb, gap) =
            theoretical_gap(&topo, 1, MatchingBackend::Auto { exact_below: 500 }, &sctx)?;
        table.row(&[
            &topo.n_switches(),
            &topo.n_servers(),
            &f3(ub.bound),
            &f3(lb),
            &f3(gap),
        ]);
    }
    table.finish()?;
    Ok(())
}
