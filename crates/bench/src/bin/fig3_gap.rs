//! Figure 3: throughput gap between tub and KSP-MCF at the maximal
//! permutation, for Jellyfish, Xpander, and FatClique across sizes and
//! servers-per-switch.
//!
//! Paper setup: R=32, H ∈ {6,7,8}, N up to 25K, K=100 paths, Gurobi.
//! Scaled setup: R=12, H ∈ {4,5,6}, N up to ~1.4K, K=32 paths, FPTAS
//! (certified bracket; the reported gap uses the *feasible* lower end, so
//! gap >= 0 by construction and gap -> 0 matches the paper's shape).
//!
//! Expected shape (paper): the gap is non-zero at small-to-medium sizes
//! where shortest-path diversity is thin, then approaches zero.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("fig3_gap", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let seed = 42u64;
    dcn_bench::set_run_seed(seed);
    let radix = 12u32;
    let k_paths = 32usize;
    let eps = 0.05;
    let switch_counts: &[usize] = if quick_mode() {
        &[24, 48, 96]
    } else {
        &[24, 48, 96, 160, 240, 320]
    };
    let mut table = Table::new(
        "fig3_gap",
        &[
            "family", "h", "switches", "servers", "tub", "mcf_lb", "mcf_ub", "gap",
        ],
    );
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        for h in [4u32, 5, 6] {
            for &n_sw in switch_counts {
                let topo = match family.build(n_sw, radix, h, seed) {
                    Ok(t) => t,
                    Err(e) => {
                        dcn_obs::obs_log!("skip {} h={h} n={n_sw}: {e}", family.name());
                        continue;
                    }
                };
                let ub = tub(&topo, MatchingBackend::Auto { exact_below: 400 }, &sctx)?;
                let tm = ub.traffic_matrix(&topo)?;
                let mcf = ksp_mcf_throughput(&topo, &tm, k_paths, Engine::Fptas { eps }, &sctx)?;
                // Obs-mode diagnostic on the smallest instance of each
                // family: cross-check the FPTAS bracket against the exact
                // simplex, and record the bisection-bandwidth proxy, so
                // the run manifest captures lp/partition solver behavior
                // alongside the mcf/graph counters. Skipped entirely when
                // observability is off (no stdout either way).
                if dcn_obs::enabled() && h == 4 && n_sw == switch_counts[0] {
                    let exact = ksp_mcf_throughput(&topo, &tm, k_paths, Engine::Exact, &sctx)?;
                    dcn_obs::gauge!(dcn_obs::names::BENCH_FIG3_EXACT_THETA).set(exact.theta_lb);
                    let bbw = dcn_partition::bisection_bandwidth(&topo, 2, seed, &sctx)?;
                    dcn_obs::gauge!(dcn_obs::names::BENCH_FIG3_BBW_PROXY).set(bbw);
                    dcn_obs::obs_log!(
                        "cross-check {}: fptas [{:.4},{:.4}] exact {:.4} bbw {:.4}",
                        family.name(),
                        mcf.theta_lb,
                        mcf.theta_ub,
                        exact.theta_lb,
                        bbw
                    );
                }
                // The paper reports gap between the (clamped) bound and the
                // routed throughput.
                let bound = ub.bound.min(1.0);
                let gap = (bound - mcf.theta_lb.min(1.0)).max(0.0);
                table.row(&[
                    &family.name(),
                    &h,
                    &topo.n_switches(),
                    &topo.n_servers(),
                    &f3(ub.bound),
                    &f3(mcf.theta_lb),
                    &f3(mcf.theta_ub),
                    &f3(gap),
                ]);
            }
        }
    }
    table.finish()?;
    Ok(())
}
