//! Topology zoo: report cards for every family in the workspace.
//!
//! Builds comparable instances of each generator (same radix, similar
//! server counts), prints the §5-style report card for each, and closes
//! with the edge-connectivity resilience metric.
//!
//! ```text
//! cargo run --release --example topology_zoo -- [radix]
//! ```

use dcn::core::{report_card, MatchingBackend};
use dcn::graph::edge_connectivity;
use dcn::guard::prelude::*;
use dcn::model::Topology;
use dcn::topo::{
    dragonfly, f10, fat_tree, fatclique, jellyfish, slimfly, spinefree, xpander, FatCliqueParams,
    SpineFreeParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_cache::CacheHandle::from_env();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    let args: Vec<String> = std::env::args().collect();
    let radix: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let h = 4u32;
    let r_net = radix - h as usize;
    let mut rng = StdRng::seed_from_u64(101);

    let mut zoo: Vec<Topology> = vec![
        fat_tree(radix.min(8))?,
        f10(radix.min(8))?,
        jellyfish(64, r_net, h, &mut rng)?,
        xpander(64usize.div_ceil(r_net + 1), r_net, h, &mut rng)?,
    ];
    if let Some(p) = FatCliqueParams::search(64 * h as u64, h, radix) {
        zoo.push(fatclique(p)?);
    }
    zoo.push(dragonfly(2, 4, 2)?);
    zoo.push(slimfly(5, 3)?);
    zoo.push(spinefree(
        SpineFreeParams {
            pods: 12,
            servers_per_pod: 32,
            trunk: 8.0,
            degree: 11,
        },
        &mut rng,
    )?);

    for topo in &zoo {
        let card = report_card(
            topo,
            MatchingBackend::Auto { exact_below: 400 },
            3,
            7,
            &sctx,
        )?;
        print!("{}", card.render());
        // Edge connectivity: affordable at zoo sizes.
        let ec = edge_connectivity(topo.graph(), &unlimited())?;
        let min_deg = (0..topo.n_switches() as u32)
            .map(|u| {
                topo.graph()
                    .neighbors(u)
                    .map(|(_, e)| topo.graph().capacity(e))
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        println!("  edge conn.     = {ec:.0} (min degree {min_deg:.0})\n");
    }
    Ok(())
}
