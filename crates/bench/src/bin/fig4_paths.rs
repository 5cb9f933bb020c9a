//! Figure 4: why the tub gap opens and closes with scale (Jellyfish).
//!
//! (a) The fraction of routed flow on shortest vs non-shortest paths at
//!     the maximal permutation — the gap appears exactly where routing has
//!     to leave shortest paths.
//! (b) The number of pairwise shortest paths between the endpoints of the
//!     maximal permutation, which rises and falls with size as the Moore
//!     diameter regime shifts.
//!
//! Paper setup: H=8, R=32, N to 300K. Scaled: H=4, R=12, switches to 512.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_cache::SolveCtx;
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("fig4_paths", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let family = Family::Jellyfish;

    // (a) Flow split at the maximal permutation.
    let sizes_a: &[usize] = if quick_mode() {
        &[24, 64]
    } else {
        &[24, 48, 96, 160, 240]
    };
    let mut ta = Table::new(
        "fig4a_flow_split",
        &["switches", "servers", "sp_fraction", "nsp_fraction"],
    );
    for &n_sw in sizes_a {
        let topo = family.build(n_sw, radix, h, 7)?;
        let ub = tub(&topo, MatchingBackend::Auto { exact_below: 400 }, &sctx)?;
        let tm = ub.traffic_matrix(&topo)?;
        let mcf = ksp_mcf_throughput(&topo, &tm, 32, Engine::Fptas { eps: 0.05 }, &sctx)?;
        ta.row(&[
            &topo.n_switches(),
            &topo.n_servers(),
            &f3(mcf.shortest_path_fraction),
            &f3(1.0 - mcf.shortest_path_fraction),
        ]);
    }
    ta.finish()?;

    // (b) Pairwise shortest-path counts in the maximal permutation.
    let sizes_b: &[usize] = if quick_mode() {
        &[24, 96]
    } else {
        &[24, 48, 96, 160, 240, 320, 400, 512]
    };
    let mut tb = Table::new(
        "fig4b_sp_counts",
        &[
            "switches",
            "servers",
            "mean_sp_len",
            "mean_num_sp",
            "min_num_sp",
        ],
    );
    for &n_sw in sizes_b {
        let topo = family.build(n_sw, radix, h, 7)?;
        let ub = tub(&topo, MatchingBackend::Auto { exact_below: 400 }, &sctx)?;
        let g = topo.graph();
        let mut total_len = 0u64;
        let mut total_cnt = 0.0f64;
        let mut min_cnt = u64::MAX;
        // Count shortest paths per matched pair (BFS DAG counting).
        for &(u, v) in &ub.pairs {
            let dist = g.bfs_distances(u);
            let counts = g.count_shortest_paths(u);
            total_len += dist[v as usize] as u64;
            let c = counts[v as usize];
            total_cnt += c as f64;
            min_cnt = min_cnt.min(c);
        }
        let n_pairs = ub.pairs.len() as f64;
        tb.row(&[
            &topo.n_switches(),
            &topo.n_servers(),
            &f3(total_len as f64 / n_pairs),
            &f3(total_cnt / n_pairs),
            &min_cnt,
        ]);
    }
    tb.finish()?;
    Ok(())
}
