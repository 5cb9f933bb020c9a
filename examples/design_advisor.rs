//! Design advisor: given a target server population and a switch SKU
//! (radix), compare concrete datacenter designs the way §5 of the paper
//! does — by throughput, not bisection bandwidth.
//!
//! ```text
//! cargo run --release --example design_advisor -- [n_servers] [radix]
//! ```
//!
//! Defaults: 1024 servers, radix 14. For each candidate (Clos, Jellyfish,
//! Xpander, FatClique at several H), prints switch count, tub, bisection
//! fraction, and whether Equation 3 even *permits* full throughput at this
//! size — the checklist a topology designer would walk before committing.

use dcn::core::frontier::Family;
use dcn::core::universal::{full_throughput_possible, UniRegularParams};
use dcn::core::{tub, MatchingBackend};
use dcn::partition::bisection_bandwidth;
use dcn::topo::folded_clos;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_cache::CacheHandle::from_env();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    let args: Vec<String> = std::env::args().collect();
    let n_servers: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let radix: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(14);
    println!("=== design advisor: {n_servers} servers, radix-{radix} switches ===\n");
    println!(
        "{:<18} {:>4} {:>9} {:>7} {:>9} {:>12}",
        "design", "H", "switches", "tub", "bbw/(N/2)", "eq3-permits?"
    );

    // Clos baseline.
    if let Some((p, sw)) = dcn::core::cost::min_clos_switches(n_servers, radix) {
        let topo = folded_clos(p)?;
        let t = tub(&topo, MatchingBackend::Auto { exact_below: 600 }, &sctx)?;
        let bbw = bisection_bandwidth(&topo, 3, 7, &sctx)? / (topo.n_servers() as f64 / 2.0);
        println!(
            "{:<18} {:>4} {:>9} {:>7.3} {:>9.3} {:>12}",
            format!("clos({}L)", p.layers),
            radix / 2,
            sw,
            t.bound.min(1.0),
            bbw.min(1.0),
            "always"
        );
    } else {
        println!("clos: no {radix}-radix Clos reaches {n_servers} servers within 5 layers");
    }

    // Uni-regular candidates across H.
    for family in [Family::Jellyfish, Family::Xpander, Family::FatClique] {
        for h in [3u32, 4, 5, 6] {
            if h + 3 > radix {
                continue;
            }
            let n_switches = n_servers.div_ceil(h as u64) as usize;
            let topo = match family.build(n_switches, radix, h, 99) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let t = tub(&topo, MatchingBackend::Auto { exact_below: 600 }, &sctx)?;
            let bbw = bisection_bandwidth(&topo, 3, 7, &sctx)? / (topo.n_servers() as f64 / 2.0);
            let permitted = full_throughput_possible(UniRegularParams {
                n_servers: topo.n_servers(),
                radix,
                h,
            });
            println!(
                "{:<18} {:>4} {:>9} {:>7.3} {:>9.3} {:>12}",
                format!("{}", family.name()),
                h,
                topo.n_switches(),
                t.bound.min(1.0),
                bbw.min(1.0),
                if permitted { "yes" } else { "no (Eq.3)" }
            );
        }
    }

    println!(
        "\nreading guide: a design is only placement-independent if tub >= 1; \
         a high bbw fraction with a low tub is exactly the paper's warning."
    );
    Ok(())
}
