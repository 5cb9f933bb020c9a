//! Flow-completion times under link failures — the application-visible
//! face of Figure 10.
//!
//! For a Jellyfish at increasing failure fractions, runs the flow-level
//! simulator on the worst-case permutation with ECMP hashing and KSP
//! striping and reports mean/p99 slowdown. The tub-based resilience curve
//! (Figure 10) says capacity degrades less than gracefully; this shows
//! what that costs in completion times.

use dcn_bench::{quick_mode, run_guarded, Table};
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_sim::{flows_from_tm, run_to_completion, PathPolicy, SizedFlow};
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("fct_failures", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    dcn_bench::set_run_seed(7);
    let n_sw = if quick_mode() { 48 } else { 96 };
    let fractions: &[f64] = if quick_mode() {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.2, 0.3]
    };
    let topo = Family::Jellyfish.build(n_sw, 12, 4, 3)?;
    let bound = tub(&topo, MatchingBackend::Exact, &sctx)?;
    let tm = bound.traffic_matrix(&topo)?;
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = Table::new(
        "fct_failures",
        &["fraction", "policy", "mean_slowdown", "p99_slowdown", "makespan"],
    );
    for &f in fractions {
        let degraded = match fail_random_links(&topo, f, &mut rng) {
            Ok(d) => d,
            Err(e) => {
                dcn_obs::obs_log!("skip f={f}: {e}");
                continue;
            }
        };
        for (name, policy) in [
            ("ecmp-hash", PathPolicy::EcmpHash),
            ("ksp-stripe8", PathPolicy::KspStripe { k: 8 }),
        ] {
            let flows = flows_from_tm(&tm);
            let routed = match policy.route_all(&degraded, &flows, 11) {
                Ok(r) => r,
                Err(e) => {
                    dcn_obs::obs_log!("skip {name} at f={f}: {e}");
                    continue;
                }
            };
            let sized: Vec<SizedFlow> = routed
                .into_iter()
                .map(|routed| SizedFlow { routed, size: 1.0 })
                .collect();
            let report = run_to_completion(&degraded, &sized);
            table.row(&[
                &format!("{f:.2}"),
                &name,
                &format!("{:.2}", report.mean_slowdown()),
                &format!("{:.2}", report.percentile_slowdown(99.0)),
                &format!("{:.2}", report.makespan),
            ]);
        }
    }
    table.finish()?;
    Ok(())
}
