//! Figure 8: the full-throughput frontier vs the full-bisection-bandwidth
//! frontier, per family and servers-per-switch.
//!
//! Paper setup: R=32, H ∈ {6..9}, frontiers up to 25K servers. Scaled:
//! R=14, H ∈ {3..6}, switch cap 1.5K (2K with `--large`).
//!
//! Expected shape (paper): both frontiers fall steeply as H grows; for the
//! higher H values the throughput frontier sits far below the BBW frontier
//! (many sizes have full BBW but not full throughput).
//!
//! This binary doubles as the cache demonstration: the sweep runs twice
//! against one shared [`dcn_bench::cache`] handle — a cold pass that
//! populates the cache and a warm pass that replays it. The warm pass must
//! reproduce the cold frontiers exactly (the cache serves byte-identical
//! results); pass timings go to **stderr** so stdout and the CSV stay
//! byte-identical whether or not the cache is enabled.

use dcn_bench::{large_mode, quick_mode, run_guarded, timed, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::{frontier_sweep, Criterion, Family, FrontierConfig};
use dcn_core::MatchingBackend;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("fig8_frontier", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let radix = 14u32;
    let max_switches = if large_mode() {
        2048
    } else if quick_mode() {
        384
    } else {
        1536
    };
    let hs: &[u32] = if quick_mode() { &[4, 5] } else { &[3, 4, 5, 6] };
    let mut table = Table::new(
        "fig8_frontier",
        &["family", "h", "max_servers_tub", "max_servers_bbw"],
    );
    // Both criteria for every (family, H) cell, fanned out in one sweep.
    let mut configs = Vec::new();
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        for &h in hs {
            for criterion in [
                Criterion::FullThroughput {
                    backend: MatchingBackend::Auto { exact_below: 600 },
                },
                Criterion::FullBisection { tries: 3 },
            ] {
                configs.push(FrontierConfig {
                    family,
                    radix,
                    h,
                    criterion,
                    max_switches,
                    seed: 5,
                });
            }
        }
    }
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let (frontiers, cold_secs) = timed(|| frontier_sweep(&configs, &sctx));
    let frontiers = frontiers?;
    let (warm, warm_secs) = timed(|| frontier_sweep(&configs, &sctx));
    let warm = warm?;
    if warm != frontiers {
        eprintln!("fig8_frontier: WARNING: warm pass diverged from cold pass");
    }
    if cache.is_enabled() {
        eprintln!(
            "fig8_frontier: cold pass {cold_secs:.2}s, warm pass {warm_secs:.2}s ({:.1}x)",
            cold_secs / warm_secs.max(1e-9)
        );
    }
    let show = |v: Option<&Option<u64>>| match v.copied().flatten() {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    };
    for (pair, config) in frontiers.chunks(2).zip(configs.chunks(2)) {
        table.row(&[
            &config[0].family.name(),
            &config[0].h,
            &show(pair.first()),
            &show(pair.get(1)),
        ]);
    }
    table.finish()?;
    println!(
        "(search capped at {max_switches} switches; a frontier equal to the cap's server count means 'beyond cap')"
    );
    Ok(())
}
