//! Figure 9: topology cost — switches needed for full throughput vs full
//! bisection bandwidth, per family, against Clos.
//!
//! Paper setup: N ∈ {32K, 131K}, R=32; plus a radix sweep normalized to a
//! 1/8th 4-layer Clos. Scaled: N ∈ {1K, 4K}, R ∈ {8..16} for the sweep.
//!
//! Expected shape (paper): full-throughput uni-regular instances need more
//! switches than full-BBW ones (they must drop H), shrinking the claimed
//! cost advantage over Clos from ~50% to ~25%; the effect worsens with
//! switch radix.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_core::cost::{min_clos_switches, min_uniregular_switches};
use dcn_core::frontier::{Criterion, Family};
use dcn_core::MatchingBackend;
use dcn_cache::SolveCtx;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("fig9_cost", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let backend = MatchingBackend::Auto { exact_below: 600 };

    // Panel (a)/(b): switches per family at fixed N.
    let populations: &[u64] = if quick_mode() { &[512] } else { &[1024, 4096] };
    let radix = 14u32;
    let mut ta = Table::new(
        "fig9ab_cost",
        &["n_servers", "family", "criterion", "h", "switches", "vs_clos"],
    );
    for &n in populations {
        let clos = min_clos_switches(n, radix);
        let clos_sw = clos.map(|(_, s)| s);
        if let Some(sw) = clos_sw {
            ta.row(&[&n, &"clos", &"both", &(radix / 2), &sw, &f3(1.0)]);
        }
        for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
            for (crit_name, crit) in [
                ("full-bbw", Criterion::FullBisection { tries: 3 }),
                ("full-tub", Criterion::FullThroughput { backend }),
            ] {
                match min_uniregular_switches(family, n, radix, crit, 3, &sctx) {
                    Ok(Some(c)) => {
                        let ratio = clos_sw
                            .map(|cs| c.switches as f64 / cs as f64)
                            .unwrap_or(f64::NAN);
                        ta.row(&[
                            &n,
                            &family.name(),
                            &crit_name,
                            &c.h,
                            &c.switches,
                            &f3(ratio),
                        ]);
                    }
                    _ => {
                        ta.row(&[&n, &family.name(), &crit_name, &"-", &"-", &"-"]);
                    }
                }
            }
        }
    }
    ta.finish()?;

    // Panel (c): Jellyfish full-tub vs full-bbw switch overhead across
    // radices, with N sized to a 1/8th 3-layer Clos of that radix.
    let radices: &[u32] = if quick_mode() { &[8, 12] } else { &[8, 10, 12, 16] };
    let mut tc = Table::new(
        "fig9c_radix_sweep",
        &["radix", "n_servers", "sw_full_bbw", "sw_full_tub", "extra_pct"],
    );
    for &r in radices {
        // 1/8th of a full 3-layer Clos for this radix (min 2 pods).
        let half = (r as u64) / 2;
        let pods = (r as u64 / 8).max(2);
        let n = pods * half * half;
        let bbw = min_uniregular_switches(
            Family::Jellyfish,
            n,
            r,
            Criterion::FullBisection { tries: 3 },
            7,
            &sctx,
        )
        .ok()
        .flatten();
        let tubc = min_uniregular_switches(
            Family::Jellyfish,
            n,
            r,
            Criterion::FullThroughput { backend },
            7,
            &sctx,
        )
        .ok()
        .flatten();
        match (bbw, tubc) {
            (Some(b), Some(t)) => {
                let extra = (t.switches as f64 / b.switches as f64 - 1.0) * 100.0;
                tc.row(&[&r, &n, &b.switches, &t.switches, &format!("{extra:.1}%")]);
            }
            _ => tc.row(&[&r, &n, &"-", &"-", &"-"]),
        }
    }
    tc.finish()?;
    Ok(())
}
