//! Ablation: switch-level vs server-level maximal-permutation matching
//! (§2.2 of the paper).
//!
//! The paper argues the switch-level formulation gives the *same* bound as
//! matching individual servers while shrinking the matching problem by a
//! factor of H. This binary verifies the equality on concrete instances
//! and measures the speedup.

use dcn_bench::{f3, quick_mode, run_guarded, timed, Table};
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_graph::DistMatrix;
use dcn_match::hungarian_max;
use std::process::ExitCode;
use dcn_guard::prelude::*;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("ablation_switch_level", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let sizes: &[usize] = if quick_mode() { &[16, 32] } else { &[16, 32, 64] };
    let mut table = Table::new(
        "ablation_switch_level",
        &["switches", "servers", "tub_switch", "tub_server", "t_switch", "t_server"],
    );
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 91)?;
        let (sw_level, ts) = timed(|| tub(&topo, MatchingBackend::Exact, &sctx));
        let sw_level = sw_level?;

        // Server-level: expand each switch into H virtual servers; the
        // distance between two servers is the distance between their
        // switches (server-to-switch links never constrain throughput).
        let k = topo.switches_with_servers();
        let dist = DistMatrix::from_sources(topo.graph(), &k)?;
        let mut owner = Vec::new();
        for &u in &k {
            for _ in 0..topo.servers_at(u) {
                owner.push(u);
            }
        }
        let n_servers = owner.len();
        let (matching, t_server_total) = timed(|| {
            hungarian_max(n_servers, |i, j| {
                if owner[i] == owner[j] {
                    0
                } else {
                    dist.dist(owner[i], owner[j]) as i64
                }
            }, &unlimited())
            .expect("unbudgeted matching")
        });
        let total_len: i64 = matching
            .assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                if owner[i] == owner[j] {
                    0
                } else {
                    dist.dist(owner[i], owner[j]) as i64
                }
            })
            .sum();
        let server_bound = 2.0 * topo.graph().total_capacity() / total_len as f64;
        table.row(&[
            &topo.n_switches(),
            &n_servers,
            &f3(sw_level.bound),
            &f3(server_bound),
            &format!("{ts:.3}"),
            &format!("{t_server_total:.3}"),
        ]);
        let rel = (sw_level.bound - server_bound).abs() / sw_level.bound;
        if rel >= 1e-9 {
            return Err(format!(
                "switch-level and server-level bounds must agree: {} vs {}",
                sw_level.bound, server_bound
            )
            .into());
        }
    }
    table.finish()?;
    println!("(asserted: switch-level bound == server-level bound on every row)");
    Ok(())
}
