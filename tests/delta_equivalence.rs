//! Delta-solver equivalence harness.
//!
//! The incremental path (delta-TUB: each failure sample re-matched off the
//! unfailed parent's duals) promises *never a different answer than
//! from-scratch*, bit for bit. This harness pins that promise end to end
//! against per-sample cold oracles.

use dcn::core::resilience::{failure_sweep, FailurePoint};
use dcn::core::{tub, MatchingBackend};
use dcn::graph::DistMatrix;
use dcn::guard::Budget;
use dcn::matching::hungarian_max_stateful;
use dcn::model::Topology;
use dcn::topo::fail_random_links;
use dcn_cache::prelude::*;
use dcn_exec::task_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `failure_sweep` rebuilt from cold parts: each sample fails links from
/// its own `task_seed` stream and solves an uncached cold `tub`, and the
/// samples aggregate per fraction as the sweep does.
fn cold_sweep_oracle(
    topo: &Topology,
    fractions: &[f64],
    trials: u32,
    backend: MatchingBackend,
    seed: u64,
) -> Vec<(u64, Option<u64>, u32)> {
    let budget = Budget::unlimited();
    let ctx = nocache_ctx(&budget);
    let theta0 = tub(topo, backend, &ctx).unwrap().bound.min(1.0);
    let trials = trials as usize;
    let samples: Vec<Option<f64>> = (0..fractions.len() * trials)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, i as u64));
            let child = fail_random_links(topo, fractions[i / trials], &mut rng).ok()?;
            Some(tub(&child, backend, &ctx).unwrap().bound.min(1.0))
        })
        .collect();
    fractions
        .iter()
        .zip(samples.chunks(trials))
        .map(|(&f, per_fraction)| {
            let ok = per_fraction.iter().flatten().count() as u32;
            let sum: f64 = per_fraction.iter().flatten().sum();
            let actual = (ok > 0).then(|| sum / ok as f64);
            (((1.0 - f) * theta0).to_bits(), actual.map(f64::to_bits), ok)
        })
        .collect()
}

fn curve_bits(points: &[FailurePoint]) -> Vec<(u64, Option<u64>, u32)> {
    points
        .iter()
        .map(|p| (p.nominal.to_bits(), p.actual.map(f64::to_bits), p.trials))
        .collect()
}

/// End-to-end: a resilience sweep, which re-matches every sample off the
/// parent's duals, equals a per-sample cold oracle bit for bit.
#[test]
fn delta_matches_cold_oracle_end_to_end() {
    let mut rng = StdRng::seed_from_u64(41);
    let topo = dcn::topo::jellyfish(28, 6, 3, &mut rng).unwrap();
    let fractions = [0.0, 0.1, 0.2];
    let budget = Budget::unlimited();
    let nocache = nocache_ctx(&budget);
    let sweep = failure_sweep(&topo, &fractions, 3, MatchingBackend::Exact, 13, &nocache).unwrap();
    assert_eq!(
        curve_bits(&sweep),
        cold_sweep_oracle(&topo, &fractions, 3, MatchingBackend::Exact, 13)
    );
}

/// The tub weight matrix of `topo` over the server-hosting switches `k`,
/// row-major.
fn tub_weights(topo: &Topology, k: &[u32]) -> Vec<i64> {
    let dist = DistMatrix::from_sources(topo.graph(), k).unwrap();
    let mut w = Vec::with_capacity(k.len() * k.len());
    for &u in k {
        for &v in k {
            let h = topo.servers_at(u).min(topo.servers_at(v)) as i64;
            w.push(dist.dist(u, v) as i64 * h);
        }
    }
    w
}

/// The parent's duals outlive a sweep: a second sweep on the same fabric,
/// with new samples, re-matches off the memoized duals under an iteration
/// cap that every sample's re-augmentation fits but the parent solve
/// does not, and still equals the cold oracle without a greedy fallback.
#[test]
fn memoized_parent_duals_serve_a_later_sweep() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(43);
    let topo = dcn::topo::jellyfish(40, 12, 4, &mut rng)?;
    let (fractions, trials, backend) = ([0.05, 0.1], 3u32, MatchingBackend::Exact);
    let cache = CacheHandle::in_memory(1 << 24);
    let first = SolveCtx::unlimited(&cache);
    failure_sweep(&topo, &fractions, trials, backend, 1, &first)?;

    // The cap: the most steps any sample of the second sweep re-augments.
    let k = topo.switches_with_servers();
    let n = k.len();
    let unlimited = Budget::unlimited();
    let wp = tub_weights(&topo, &k);
    let (_, parent) = hungarian_max_stateful(n, |a, b| wp[a * n + b], &unlimited)?;
    let mut cap = 0;
    let per_fraction = trials as usize;
    for i in 0..fractions.len() * per_fraction {
        let mut rng = StdRng::seed_from_u64(task_seed(2, i as u64));
        if let Ok(child) = fail_random_links(&topo, fractions[i / per_fraction], &mut rng) {
            let wc = tub_weights(&child, &k);
            let (_, state, _) = parent.rematch_auto(|a, b| wc[a * n + b], &unlimited)?;
            cap = cap.max(state.steps());
        }
    }
    assert!(
        cap > 0 && cap < parent.steps(),
        "the cap must starve the parent"
    );

    let capped = Budget::unlimited().with_iter_cap(cap);
    let fallbacks = || dcn::obs::counter_value(dcn::obs::names::CORE_TUB_FALLBACKS);
    let before = fallbacks();
    let second = failure_sweep(&topo, &fractions, trials, backend, 2, &ctx(&cache, &capped))?;
    assert_eq!(fallbacks(), before, "a sample fell back to greedy");
    let oracle = cold_sweep_oracle(&topo, &fractions, trials, backend, 2);
    assert_eq!(curve_bits(&second), oracle);
    Ok(())
}
