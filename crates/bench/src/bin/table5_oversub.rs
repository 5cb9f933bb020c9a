//! Table 5: throughput-based vs bisection-based over-subscription ratios.
//!
//! Paper setup: 32K servers, H ≈ 10 for Jellyfish/Xpander, 8.6 for
//! FatClique, radix 32; plus an oversubscribed Clos. Scaled: ~1.2K
//! servers at radix 12 with comparable H/degree ratios.
//!
//! Expected shape (paper): for every uni-regular family the
//! throughput-based ratio (tub) is *lower* (more conservative) than the
//! BBW-based one; for Clos the two coincide.

use dcn_bench::{f3, run_guarded, Table};
use dcn_core::frontier::Family;
use dcn_core::oversub::{oversubscription, Oversubscription};
use dcn_core::MatchingBackend;
use dcn_topo::{folded_clos, ClosParams};
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("table5_oversub", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let mut table = Table::new(
        "table5_oversub",
        &["topology", "n_servers", "h", "bbw_ratio", "tub_ratio", "bbw_frac", "tub_frac"],
    );
    let backend = MatchingBackend::Auto { exact_below: 600 };

    // Uni-regular families: pick H high enough to be oversubscribed at
    // this scale (degree/H ≈ 2.4, mirroring the paper's 22/10).
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        let h = 5u32;
        let radix = 12u32;
        let topo = match family.build(240, radix, h, 21) {
            Ok(t) => t,
            Err(e) => {
                dcn_obs::obs_log!("skip {}: {e}", family.name());
                continue;
            }
        };
        let o = oversubscription(&topo, backend, 4, 17, &sctx)?;
        table.row(&[
            &family.name(),
            &topo.n_servers(),
            &h,
            &Oversubscription::ratio_string(o.bbw_fraction),
            &Oversubscription::ratio_string(o.tub_fraction),
            &f3(o.bbw_fraction),
            &f3(o.tub_fraction),
        ]);
    }

    // Clos with 1:2 oversubscription at the leaf stage (8 servers vs 4
    // uplinks per radix-12 leaf) — the deployed form of oversubscription,
    // where BBW- and throughput-based ratios coincide (paper's Clos row).
    let clos = folded_clos(ClosParams {
        radix: 12,
        layers: 3,
        top_pods: 12,
        spine_uplink_fraction: 1.0,
        leaf_servers: 8,
    })?;
    let o = oversubscription(&clos, backend, 4, 17, &sctx)?;
    table.row(&[
        &"clos(1:2)",
        &clos.n_servers(),
        &8,
        &Oversubscription::ratio_string(o.bbw_fraction),
        &Oversubscription::ratio_string(o.tub_fraction),
        &f3(o.bbw_fraction),
        &f3(o.tub_fraction),
    ]);
    table.finish()?;
    Ok(())
}
