//! Incremental-solver benchmark: delta re-solving vs from-scratch for the
//! fig10 resilience sweep.
//!
//! Sweeps radix 16 and 32 Jellyfish fabrics at two sizes (the fig10
//! operating points). Cold solves every sample with an uncached cold
//! `tub`; cached replays the sweep against a warm in-memory cache; delta
//! is `failure_sweep` without a cache, which re-matches every sample off
//! the unfailed parent's Hungarian duals.
//!
//! The delta and cached curves must equal the cold one bit for bit before
//! any timing is reported; a mismatch fails the run. The `delta.*`
//! counters are dumped at the end — `delta.fallback` tells you whether
//! the speedup came from the advertised reuse or from silent fallbacks to
//! cold.

use dcn_bench::{f3, quick_mode, run_guarded, timed, Table};
use dcn_cache::{CacheHandle, SolveCtx};
use dcn_core::frontier::Family;
use dcn_core::resilience::{failure_sweep, FailurePoint};
use dcn_core::{tub, MatchingBackend};
use dcn_exec::{task_seed, Pool};
use dcn_guard::prelude::*;
use dcn_model::Topology;
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_guarded("delta_resilience", run)
}

/// `failure_sweep` from cold parts: every sample draws its failures from
/// its own `task_seed` stream and solves an uncached cold `tub`, fanned
/// out over the same pool as the sweep's samples.
fn cold_sweep(
    topo: &Topology,
    fractions: &[f64],
    trials: u32,
    backend: MatchingBackend,
    seed: u64,
    budget: &Budget,
) -> Result<Vec<FailurePoint>, dcn_core::CoreError> {
    let nocache = CacheHandle::disabled();
    let ctx = SolveCtx::new(&nocache, budget);
    let theta0 = tub(topo, backend, &ctx)?.bound.min(1.0);
    let trials = trials as usize;
    let sample_fractions: Vec<f64> = fractions
        .iter()
        .flat_map(|&f| std::iter::repeat_n(f, trials))
        .collect();
    let samples = Pool::from_env().par_map(budget, &sample_fractions, |i, &f| {
        let mut rng = StdRng::seed_from_u64(task_seed(seed, i as u64));
        match fail_random_links(topo, f, &mut rng) {
            Ok(child) => Ok(Some(tub(&child, backend, &ctx)?.bound.min(1.0))),
            Err(_) => Ok::<_, dcn_core::CoreError>(None),
        }
    })?;
    Ok(fractions
        .iter()
        .zip(samples.chunks(trials))
        .map(|(&f, per_fraction)| {
            let ok = per_fraction.iter().flatten().count() as u32;
            let sum: f64 = per_fraction.iter().flatten().sum();
            FailurePoint {
                fraction: f,
                nominal: (1.0 - f) * theta0,
                actual: (ok > 0).then(|| sum / ok as f64),
                trials: ok,
            }
        })
        .collect())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    dcn_bench::set_run_seed(37);
    let radices: &[u32] = if quick_mode() { &[16] } else { &[16, 32] };
    let h = 4u32;
    let backend = MatchingBackend::Auto { exact_below: 500 };
    let fractions: &[f64] = if quick_mode() {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    };
    let sizes: &[usize] = if quick_mode() { &[96] } else { &[96, 320] };
    let trials = if quick_mode() { 1 } else { 3 };

    let mut t = Table::new(
        "delta_resilience",
        &[
            "radix", "switches", "phase", "cold_s", "cached_s", "delta_s", "speedup", "match",
        ],
    );
    for &radix in radices {
        for &n_sw in sizes {
            let topo = Family::Jellyfish.build(n_sw, radix, h, 31)?;

            let budget = Budget::unlimited();
            let sweep = |cache: &CacheHandle| {
                failure_sweep(
                    &topo,
                    fractions,
                    trials,
                    backend,
                    37,
                    &SolveCtx::new(cache, &budget),
                )
            };
            let (cold, cold_s) =
                timed(|| cold_sweep(&topo, fractions, trials, backend, 37, &budget));
            let cold = cold?;
            let warm_cache = CacheHandle::in_memory(1 << 26);
            sweep(&warm_cache)?;
            let (cached, cached_s) = timed(|| sweep(&warm_cache));
            let cached = cached?;
            let (delta, delta_s) = timed(|| sweep(&CacheHandle::disabled()));
            let delta = delta?;
            let same = |a: &[FailurePoint], b: &[FailurePoint]| {
                a.len() == b.len()
                    && a.iter().zip(b.iter()).all(|(x, y)| {
                        x.nominal.to_bits() == y.nominal.to_bits()
                            && x.actual.map(f64::to_bits) == y.actual.map(f64::to_bits)
                            && x.trials == y.trials
                    })
            };
            for (leg, curve) in [("delta", &delta), ("cached", &cached)] {
                if !same(&cold, curve) {
                    return Err(format!(
                        "radix {radix}, {} switches: the {leg} curve differs from the cold one",
                        topo.n_switches()
                    )
                    .into());
                }
            }
            t.row(&[
                &radix,
                &topo.n_switches(),
                &"resilience",
                &f3(cold_s),
                &f3(cached_s),
                &f3(delta_s),
                &f3(cold_s / delta_s.max(1e-9)),
                &true,
            ]);
        }
    }
    t.finish()?;

    let mut c = Table::new("delta_counters", &["counter", "value"]);
    for name in [
        dcn_obs::names::DELTA_MATCHING_PATCHED,
        dcn_obs::names::DELTA_DIST_ROWS_REBUILT,
        dcn_obs::names::DELTA_FALLBACK,
    ] {
        c.row(&[&name, &dcn_obs::counter_value(name)]);
    }
    c.finish()?;
    Ok(())
}
