//! Expansion planner: will random-rewiring growth keep the fabric at full
//! throughput, or does the target size require planning H in advance?
//!
//! Walks the §5.1 scenario: start from a Jellyfish at `init` switches and
//! grow to `target`, checking the tub at every 20% step — and then shows
//! what H a designer should have picked for the *target* size (the paper's
//! "plan ahead like Clos" recommendation).
//!
//! ```text
//! cargo run --release --example expansion_planner -- [init] [target] [h] [radix]
//! ```

use dcn::core::expansion_eval::expansion_curve;
use dcn::core::frontier::Family;
use dcn::core::{tub, MatchingBackend};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_cache::CacheHandle::from_env();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    let args: Vec<String> = std::env::args().collect();
    let init: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let target: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(120);
    let h: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
    let radix: u32 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(12);
    let backend = MatchingBackend::Auto { exact_below: 500 };

    let topo = Family::Jellyfish.build(init, radix, h, 3)?;
    let steps = ((target.saturating_sub(init)) as f64 / (init as f64 * 0.2)).ceil() as usize;
    println!(
        "growing jellyfish {} -> ~{} switches (H={h}, radix={radix}) by random rewiring:\n",
        topo.n_switches(),
        target
    );
    let curve = expansion_curve(&topo, h, steps.max(1), 0.2, backend, 5, &sctx)?;
    println!(
        "{:>8} {:>9} {:>7} {:>11}",
        "ratio", "switches", "tub", "normalized"
    );
    for p in &curve {
        println!(
            "{:>8.2} {:>9.0} {:>7.3} {:>11.3}",
            p.ratio,
            p.ratio * topo.n_switches() as f64,
            p.tub,
            p.normalized
        );
    }
    let final_point = curve.last().expect("non-empty curve");
    if final_point.tub >= 1.0 - 1e-9 {
        println!("\n=> expansion preserves full throughput; no re-planning needed.");
        return Ok(());
    }
    println!(
        "\n=> throughput after expansion: {:.3} (dropped {:.0}% from the start).",
        final_point.tub,
        (1.0 - final_point.normalized) * 100.0
    );
    // What should the designer have picked for the target size?
    for h_plan in (1..h).rev() {
        let planned =
            Family::Jellyfish.build(target * h as usize / h_plan as usize, radix, h_plan, 3)?;
        let t = tub(&planned, backend, &sctx)?;
        if t.bound >= 1.0 - 1e-9 {
            println!(
                "   planning ahead: H={h_plan} keeps tub = {:.3} at the target size \
                 ({} switches for the same {} servers).",
                t.bound,
                planned.n_switches(),
                planned.n_servers()
            );
            return Ok(());
        }
    }
    println!("   no H at this radix reaches full throughput at the target size (see Eq. 3).");
    Ok(())
}
