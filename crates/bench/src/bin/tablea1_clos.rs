//! Table A.1: tub is tight (= 1.00) on bi-regular Clos topologies.
//!
//! The paper's instances (radix 32) have 8192 / 32768 / 131072 servers;
//! building the two big ones is beyond this container, so the table is
//! reproduced in two parts:
//!
//! * analytic switch/server counts at the paper's exact parameters, which
//!   must match the paper's Table A.1 numbers, and
//! * constructed scaled instances (radix 8 and 16) whose tub is computed
//!   and must equal 1.00.

use dcn_bench::{f3, quick_mode, run_guarded, Table};
use dcn_core::{tub, MatchingBackend};
use dcn_topo::{folded_clos, ClosParams};
use std::process::ExitCode;
use dcn_cache::SolveCtx;

fn main() -> ExitCode {
    run_guarded("tablea1_clos", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    // Part 1: the paper's rows, analytically.
    let mut ta = Table::new(
        "tablea1_paper_counts",
        &["n_servers", "layers", "switches", "matches_paper"],
    );
    let rows = [
        (ClosParams::full(32, 3), 8192u64, 1280u64),
        (
            ClosParams {
                radix: 32,
                layers: 4,
                top_pods: 8,
                spine_uplink_fraction: 1.0,
                leaf_servers: 0,
            },
            32768,
            7168,
        ),
        (ClosParams::full(32, 4), 131072, 28672),
    ];
    for (p, servers, switches) in rows {
        let ok = p.n_servers() == servers && p.n_switches() == switches;
        ta.row(&[&p.n_servers(), &p.layers, &p.n_switches(), &ok]);
    }
    ta.finish()?;

    // Part 2: constructed scaled instances, tub must be 1.00.
    let mut tb = Table::new(
        "tablea1_tub_scaled",
        &["radix", "layers", "top_pods", "n_servers", "switches", "tub"],
    );
    let mut instances = vec![
        ClosParams::full(8, 2),
        ClosParams::full(8, 3),
        ClosParams {
            radix: 8,
            layers: 3,
            top_pods: 4,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        },
        ClosParams::full(12, 3),
    ];
    if !quick_mode() {
        instances.push(ClosParams {
            radix: 16,
            layers: 3,
            top_pods: 8,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        });
        instances.push(ClosParams {
            radix: 8,
            layers: 4,
            top_pods: 4,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        });
    }
    for p in instances {
        let topo = folded_clos(p)?;
        let t = tub(&topo, MatchingBackend::Auto { exact_below: 700 }, &sctx)?;
        tb.row(&[
            &p.radix,
            &p.layers,
            &p.top_pods,
            &topo.n_servers(),
            &topo.n_switches(),
            &f3(t.bound),
        ]);
    }
    tb.finish()?;
    Ok(())
}
