//! Table 3: the maximum servers any uni-regular topology can support at
//! full throughput (Equation 3), vs the sizes at which the concrete
//! families retain full bisection bandwidth.
//!
//! The Equation 3 column is analytic and runs at the paper's actual
//! parameters (R=32, H ∈ {6,7,8}) — expected ballpark: 3.97M / 256K / 111K.
//! The BBW columns, which the paper pushed past 20M servers with METIS,
//! are evaluated here at a scaled radix via the frontier search.

use dcn_bench::{quick_mode, run_guarded, Table};
use dcn_core::frontier::{frontier_max_servers, Criterion, Family};
use dcn_core::universal::max_full_throughput_servers;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("table3_limits", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    // Analytic Equation-3 limits at the paper's parameters.
    let mut ta = Table::new("table3_eq3_limits", &["radix", "h", "max_servers_eq3"]);
    for h in [6u32, 7, 8] {
        let cap = 1u64 << 24; // 16M search cap
        let n = max_full_throughput_servers(32, h, cap)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        ta.row(&[&32, &h, &n]);
    }
    ta.finish()?;

    // Scaled full-BBW frontiers for the three families (paper: ">20M").
    if quick_mode() {
        println!("(skipping BBW frontier sweep in --quick mode)");
        return Ok(());
    }
    let radix = 14u32;
    let mut tb = Table::new(
        "table3_bbw_frontier_scaled",
        &["family", "radix", "h", "max_servers_full_bbw"],
    );
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        for h in [3u32, 4] {
            let fb = frontier_max_servers(
                family,
                radix,
                h,
                Criterion::FullBisection { tries: 3 },
                1024,
                5,
                &sctx,
            )
            .ok()
            .flatten();
            let show = fb.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            tb.row(&[&family.name(), &radix, &h, &show]);
        }
    }
    tb.finish()?;
    Ok(())
}
