//! Routing showdown (§6 of the paper: "benchmarking routing designs").
//!
//! For the worst-case (maximal permutation) traffic on each topology
//! family, compares what fraction of tub each routing scheme actually
//! delivers:
//!
//! * fluid ECMP (per-hop equal splitting) and fluid VLB — analytic;
//! * flow-level ECMP hashing, KSP striping, and VLB — via the max-min
//!   fairness simulator (one flow per server);
//! * the ideal KSP-MCF fractional routing (FPTAS lower end).
//!
//! Expected shape: on Clos, ECMP ≈ MCF ≈ tub; on expanders, shortest-path
//! ECMP loses badly at the worst case while KSP striping recovers most of
//! the LP value — the open question the paper highlights.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_core::frontier::Family;
use dcn_core::{tub, MatchingBackend};
use dcn_mcf::{ecmp_throughput, ksp_mcf_throughput, vlb_throughput, Engine};
use dcn_sim::{flows_from_tm, simulate, PathPolicy};
use dcn_topo::fat_tree;
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("routing_showdown", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let radix = 12u32;
    let h = 4u32;
    let n_sw = if quick_mode() { 48 } else { 96 };
    let mut table = Table::new(
        "routing_showdown",
        &["topology", "scheme", "theta", "vs_tub"],
    );
    let mut topos = vec![fat_tree(8)?];
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        match family.build(n_sw, radix, h, 17) {
            Ok(t) => topos.push(t),
            Err(e) => dcn_obs::obs_log!("skip {}: {e}", family.name()),
        }
    }
    for topo in &topos {
        let bound = tub(topo, MatchingBackend::Auto { exact_below: 500 }, &sctx)?;
        let tm = bound.traffic_matrix(topo)?;
        let tub_v = bound.bound.min(1.0);
        let mut emit = |scheme: &str, theta: f64| {
            table.row(&[
                &topo.name(),
                &scheme,
                &f3(theta),
                &f3(theta / tub_v),
            ]);
        };
        emit("tub(bound)", tub_v);
        let mcf = ksp_mcf_throughput(topo, &tm, 16, Engine::Fptas { eps: 0.05 }, &sctx)?.theta_lb;
        emit("ksp-mcf(ideal)", mcf);
        emit("ecmp(fluid)", ecmp_throughput(topo, &tm)?);
        emit("vlb(fluid)", vlb_throughput(topo, &tm)?);
        // Flow-level simulation: worst service across server flows.
        for (name, policy) in [
            ("ecmp(flows)", PathPolicy::EcmpHash),
            ("ksp8(flows)", PathPolicy::KspStripe { k: 8 }),
            ("vlb(flows)", PathPolicy::Vlb),
        ] {
            let alloc = simulate(topo, &tm, policy, 23)?;
            let flows = flows_from_tm(&tm);
            let routed = policy.route_all(topo, &flows, 23)?;
            emit(name, alloc.worst_service(&routed));
        }
    }
    table.finish()?;
    Ok(())
}
