//! Failure analysis: how gracefully does an expander fabric degrade?
//!
//! Reproduces the Figure 10 methodology on a user-sized Jellyfish: sweeps
//! random link-failure fractions, compares actual throughput (tub) against
//! the nominal `(1 - f) θ` line, and reports the RMS deviation.
//!
//! ```text
//! cargo run --release --example failure_analysis -- [switches] [h] [radix]
//! ```

use dcn::core::frontier::Family;
use dcn::core::resilience::{failure_sweep, rms_deviation};
use dcn::core::MatchingBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_cache::CacheHandle::from_env();
    let sctx = dcn_cache::SolveCtx::unlimited(&cache);
    let args: Vec<String> = std::env::args().collect();
    let switches: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(160);
    let h: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let radix: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(12);

    let topo = Family::Jellyfish.build(switches, radix, h, 7)?;
    println!(
        "jellyfish: {} switches, {} servers, network degree {}\n",
        topo.n_switches(),
        topo.n_servers(),
        radix - h
    );
    let fractions = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
    let points = failure_sweep(
        &topo,
        &fractions,
        3,
        MatchingBackend::Auto { exact_below: 500 },
        13,
        &sctx,
    )?;
    println!(
        "{:>9} {:>9} {:>9} {:>10}",
        "failed", "nominal", "actual", "deviation"
    );
    for p in &points {
        match (p.actual, p.deviation()) {
            (Some(actual), Some(dev)) => println!(
                "{:>8.0}% {:>9.3} {:>9.3} {:>10.3}",
                p.fraction * 100.0,
                p.nominal,
                actual,
                dev
            ),
            _ => println!(
                "{:>8.0}% {:>9.3} {:>9} {:>10}   (all samples disconnected)",
                p.fraction * 100.0,
                p.nominal,
                "-",
                "-"
            ),
        }
    }
    let rms = rms_deviation(&points);
    println!("\nRMS deviation from graceful degradation: {rms:.4}");
    if rms < 0.02 {
        println!("=> degrades gracefully at this scale (like the paper's 32K instance).");
    } else {
        println!(
            "=> degrades less than gracefully: failures thin out the shortest paths \
             between the worst-case pairs (the paper's 131K finding)."
        );
    }
    Ok(())
}
