//! Figure A.4: throughput under random-rewiring expansion, normalized by
//! the initial throughput, while servers per switch stay constant.
//!
//! Paper setup: Jellyfish/Xpander, initial N ∈ {10K, 32K}, H ∈ {6,7,8},
//! 20% steps to 2.6x. Scaled: initial switches ∈ {48, 160}, H ∈ {3,4,5},
//! radix 12.
//!
//! Expected shape (paper): small initial sizes with high H lose >20%
//! throughput under modest expansion; larger/lower-H starts barely move.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::expansion_eval::expansion_curve;
use dcn_core::frontier::Family;
use dcn_core::MatchingBackend;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("figa4_expansion", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let steps = if quick_mode() { 3 } else { 8 };
    let initials: &[usize] = if quick_mode() { &[48] } else { &[48, 160] };
    let hs: &[u32] = if quick_mode() { &[4] } else { &[3, 4, 5] };
    let mut table = Table::new(
        "figa4_expansion",
        &["family", "init_switches", "h", "ratio", "tub", "normalized"],
    );
    for family in [Family::Jellyfish, Family::Xpander] {
        for &n0 in initials {
            for &h in hs {
                let topo = match family.build(n0, radix, h, 61) {
                    Ok(t) => t,
                    Err(e) => {
                        dcn_obs::obs_log!("skip {} n={n0} h={h}: {e}", family.name());
                        continue;
                    }
                };
                let curve = expansion_curve(
                    &topo,
                    h,
                    steps,
                    0.2,
                    MatchingBackend::Auto { exact_below: 500 },
                    67,
                    &sctx,
                )?;
                for p in &curve {
                    table.row(&[
                        &family.name(),
                        &topo.n_switches(),
                        &h,
                        &f3(p.ratio),
                        &f3(p.tub),
                        &f3(p.normalized),
                    ]);
                }
            }
        }
    }
    table.finish()?;
    Ok(())
}
