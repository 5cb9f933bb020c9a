//! Figure A.2: servers supported at full throughput by Jellyfish vs a
//! fat-tree built from the *same equipment* (same switch count, same
//! radix), across radices.
//!
//! Paper setup: radices 14..98, tub-estimated full throughput; finding:
//! the Jellyfish advantage is ~8% at the smallest scale and does *not*
//! monotonically improve with radix. Scaled: radices 8..14.

use dcn_bench::{quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("figa2_jellyfish_ft", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radices: &[u32] = if quick_mode() {
        &[8, 10]
    } else {
        &[8, 10, 12, 14]
    };
    let mut table = Table::new(
        "figa2_jellyfish_ft",
        &[
            "radix",
            "switches",
            "ft_servers",
            "jf_servers_full_tub",
            "advantage_pct",
        ],
    );
    for &r in radices {
        // Fat-tree equipment: 5(r/2)^2 switches, (r/2)^2 * r servers... the
        // classic counts: switches 5r^2/4, servers r^3/4.
        let ft_switches = 5 * (r as u64) * (r as u64) / 4;
        let ft_servers = (r as u64).pow(3) / 4;
        // Jellyfish on the same switches: largest H with tub >= 1.
        let mut best: Option<(u32, u64)> = None;
        for h in (1..=r - 3).rev() {
            let topo = match Family::Jellyfish.build(ft_switches as usize, r, h, 51) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let t = tub(&topo, MatchingBackend::Auto { exact_below: 600 }, &sctx)?;
            if t.bound >= 1.0 - 1e-9 {
                best = Some((h, topo.n_servers()));
                break;
            }
        }
        match best {
            Some((_h, n)) => {
                let adv = (n as f64 / ft_servers as f64 - 1.0) * 100.0;
                table.row(&[&r, &ft_switches, &ft_servers, &n, &format!("{adv:.1}%")]);
            }
            None => table.row(&[&r, &ft_switches, &ft_servers, &"-", &"-"]),
        }
    }
    table.finish()?;
    Ok(())
}
