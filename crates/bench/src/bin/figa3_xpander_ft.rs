//! Figure A.3: switches Xpander needs to host the same servers as a
//! fat-tree at full throughput, as a percentage, across sizes.
//!
//! Paper finding: at the CoNEXT'16 paper's scales (<4K servers) Xpander
//! needs >95% of the fat-tree's switches once full *throughput* (not BBW)
//! is required; the advantage only re-appears at much larger scale.
//! Scaled: fat-trees of radix 8..14.

use dcn_bench::{quick_mode, run_guarded, Table};
use dcn_core::cost::min_uniregular_switches;
use dcn_core::frontier::{Criterion, Family};
use dcn_core::MatchingBackend;
use dcn_topo::ClosParams;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("figa3_xpander_ft", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    let radices: &[u32] = if quick_mode() {
        &[8, 10]
    } else {
        &[8, 10, 12, 14]
    };
    let mut table = Table::new(
        "figa3_xpander_ft",
        &["radix", "n_servers", "ft_switches", "xp_switches", "xp_pct"],
    );
    for &r in radices {
        let p = ClosParams::full(r as usize, 3);
        let n = p.n_servers();
        let ft_switches = p.n_switches();
        let xp = min_uniregular_switches(
            Family::Xpander,
            n,
            r,
            Criterion::FullThroughput {
                backend: MatchingBackend::Auto { exact_below: 600 },
            },
            53,
            &sctx,
        )?;
        match xp {
            Some(c) => {
                let pct = c.switches as f64 / ft_switches as f64 * 100.0;
                table.row(&[&r, &n, &ft_switches, &c.switches, &format!("{pct:.1}%")]);
            }
            None => table.row(&[&r, &n, &ft_switches, &"-", &"-"]),
        }
    }
    table.finish()?;
    Ok(())
}
