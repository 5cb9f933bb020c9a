//! Slowdown study: what do topology + routing choices mean for flow
//! completion times?
//!
//! Builds a fat-tree and a cost-comparable Jellyfish, generates a skewed
//! workload (elephants + mice), and runs the flow-level simulator under
//! three path policies, reporting mean and tail slowdowns — the
//! application-visible face of the paper's throughput story.
//!
//! ```text
//! cargo run --release --example slowdown_study -- [radix]
//! ```

use dcn::model::workload::elephant_mice;
use dcn::sim::{flows_from_tm, run_to_completion, PathPolicy, SizedFlow};
use dcn::topo::{fat_tree, jellyfish};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let radix: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let ft = fat_tree(radix)?;
    // Jellyfish with the same switch count and radix, H chosen to host at
    // least as many servers.
    let mut rng = StdRng::seed_from_u64(3);
    let h = (ft.n_servers() as usize).div_ceil(ft.n_switches()) as u32;
    let jf = jellyfish(ft.n_switches(), radix - h as usize, h, &mut rng)?;
    println!(
        "fat-tree: {} switches / {} servers; jellyfish: {} switches / {} servers (H={h})\n",
        ft.n_switches(),
        ft.n_servers(),
        jf.n_switches(),
        jf.n_servers()
    );
    println!(
        "{:<12} {:<12} {:>8} {:>8} {:>9} {:>9}",
        "topology", "policy", "mean", "p99", "makespan", "jain"
    );
    for (name, topo) in [("fat-tree", &ft), ("jellyfish", &jf)] {
        let tm = elephant_mice(topo, topo.switches_with_servers().len() / 4, 0.6, &mut rng)?;
        for (pname, policy) in [
            ("ecmp-hash", PathPolicy::EcmpHash),
            ("ksp-stripe8", PathPolicy::KspStripe { k: 8 }),
            ("vlb", PathPolicy::Vlb),
        ] {
            let flows = flows_from_tm(&tm);
            let routed = policy.route_all(topo, &flows, 17)?;
            // Pareto-ish flow sizes: mice 0.1–1, elephants 5–20.
            let mut szrng = StdRng::seed_from_u64(29);
            let sized: Vec<SizedFlow> = routed
                .into_iter()
                .map(|r| {
                    let big = r.flow.demand >= 1.0 && szrng.gen_bool(0.2);
                    let size = if big {
                        szrng.gen_range(5.0..20.0)
                    } else {
                        szrng.gen_range(0.1..1.0)
                    };
                    SizedFlow { routed: r, size }
                })
                .collect();
            let report = run_to_completion(topo, &sized);
            let alloc_rates: Vec<f64> = report
                .outcomes
                .iter()
                .map(|o| 1.0 / o.slowdown.max(1e-9))
                .collect();
            let jain = {
                let n = alloc_rates.len() as f64;
                let s: f64 = alloc_rates.iter().sum();
                let s2: f64 = alloc_rates.iter().map(|r| r * r).sum();
                if s2 > 0.0 {
                    s * s / (n * s2)
                } else {
                    1.0
                }
            };
            println!(
                "{:<12} {:<12} {:>8.2} {:>8.2} {:>9.2} {:>9.3}",
                name,
                pname,
                report.mean_slowdown(),
                report.percentile_slowdown(99.0),
                report.makespan,
                jain
            );
        }
    }
    println!("\nslowdown = FCT / uncontended FCT; lower is better.");
    Ok(())
}
