//! Incremental-solver benchmark: delta re-solving vs from-scratch for the
//! fig10 resilience sweep and a per-sample exact KSP-MCF failure study.
//!
//! Sweeps radix 16 and 32 Jellyfish fabrics at two sizes (the fig10
//! operating points). Two phases per topology:
//!
//! * `resilience` — the Figure 10 failure sweep. Cold solves every sample
//!   with an uncached cold `tub`; cached replays the sweep against a warm
//!   in-memory cache; delta is `failure_sweep` without a cache, which
//!   re-matches every sample off the unfailed parent's Hungarian duals;
//! * `exact_mcf` — single-link failures solved exactly, cold
//!   (re-enumerate + fresh simplex) vs [`DeltaCtx`] (prune + warm-started
//!   simplex from the parent basis).
//!
//! Every delta leg's outputs are checked against the cold leg before the
//! timing is reported, and the `delta.*` counters are dumped at the end —
//! `delta.basis.reused` / `delta.fallback` tell you whether the speedup
//! came from the advertised reuse or from silent fallbacks to cold.

use dcn_bench::{f3, quick_mode, run_guarded, timed, Table};
use dcn_cache::{CacheHandle, SolveCtx};
use dcn_core::frontier::Family;
use dcn_core::resilience::{failure_sweep, FailurePoint};
use dcn_core::{tub, MatchingBackend};
use dcn_exec::{task_seed, Pool};
use dcn_guard::prelude::*;
use dcn_mcf::{exact, DeltaCtx, PathSet, SharedPathSet};
use dcn_model::{Topology, TrafficMatrix};
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;

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
        &["radix", "switches", "phase", "cold_s", "cached_s", "delta_s", "speedup", "match"],
    );
    for &radix in radices {
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 31)?;

        // Phase 1: the fig10 resilience sweep.
        let budget = Budget::unlimited();
        let sweep = |cache: &CacheHandle| {
            failure_sweep(&topo, fractions, trials, backend, 37, &SolveCtx::new(cache, &budget))
        };
        let (cold, cold_s) = timed(|| cold_sweep(&topo, fractions, trials, backend, 37, &budget));
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
        let ok = same(&cold, &delta) && same(&cold, &cached);
        t.row(&[
            &radix,
            &topo.n_switches(),
            &"resilience",
            &f3(cold_s),
            &f3(cached_s),
            &f3(delta_s),
            &f3(cold_s / delta_s.max(1e-9)),
            &ok,
        ]);

        // Phase 2: exact MCF under single-link failures — re-enumerate +
        // fresh simplex per failure vs prune + warm-started simplex off
        // the unfailed parent. The delta θ is a certified lower bound on
        // the re-enumerated θ (pruning only removes paths), so the check
        // here is `<=` plus exact equality of the common-path solve.
        // The exact phase is O(minutes) at the larger size (a fresh
        // simplex per failed link); the small size demonstrates the same
        // warm-vs-cold contrast at tractable cost.
        if n_sw == sizes[0] {
            let (ec, ed, eok) = exact_mcf_phase(&topo, &budget)?;
            t.row(&[
                &radix,
                &topo.n_switches(),
                &"exact_mcf",
                &f3(ec),
                &"-",
                &f3(ed),
                &f3(ec / ed.max(1e-9)),
                &eok,
            ]);
        }
    }
    }
    t.finish();

    let mut c = Table::new("delta_counters", &["counter", "value"]);
    for name in [
        dcn_obs::names::DELTA_BASIS_REUSED,
        dcn_obs::names::DELTA_REPAIR_PIVOTS,
        dcn_obs::names::DELTA_PATHS_REUSED,
        dcn_obs::names::DELTA_MATCHING_PATCHED,
        dcn_obs::names::DELTA_DIST_ROWS_REBUILT,
        dcn_obs::names::DELTA_FALLBACK,
    ] {
        c.row(&[&name, &dcn_obs::counter_value(name)]);
    }
    c.finish();
    Ok(())
}

/// Cold vs delta exact solves over every single-link failure that leaves
/// the topology connected (capped to keep the quick mode quick). Returns
/// `(cold_seconds, delta_seconds, outputs_matched)`.
fn exact_mcf_phase(
    topo: &Topology,
    budget: &Budget,
) -> Result<(f64, f64, bool), Box<dyn std::error::Error>> {
    let k = 4usize;
    let n_failures = if quick_mode() { 8 } else { 24 };
    let nocache = CacheHandle::disabled();
    let ctx = SolveCtx::new(&nocache, budget);
    let bound = dcn_core::tub(topo, MatchingBackend::Auto { exact_below: 500 }, &ctx)?;
    let tm = TrafficMatrix::permutation(topo, &bound.pairs)?;
    let parent = Arc::new(PathSet::k_shortest(topo, &tm, k, budget)?);

    let mut children = Vec::new();
    for e in 0..topo.graph().m() as u32 {
        if children.len() >= n_failures {
            break;
        }
        let g = topo.graph().without_edges(&[e]);
        if !g.is_connected() {
            continue;
        }
        if let Ok(child) = topo.with_graph(g) {
            children.push(child.renamed(format!("{}-e{e}", topo.name())));
        }
    }

    let (cold_thetas, cold_s) = timed(|| -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let mut out = Vec::new();
        for child in &children {
            let ps = PathSet::k_shortest(child, &tm, k, budget)?;
            out.push(exact::solve(&ps, budget)?.theta_lb);
        }
        Ok(out)
    });
    let cold_thetas = cold_thetas?;

    let (delta_thetas, delta_s) = timed(|| -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let dctx = DeltaCtx::prepare(SharedPathSet(Arc::clone(&parent)), budget)?;
        let mut out = Vec::new();
        for child in &children {
            let theta = match dctx.solve_failure(child, budget) {
                Ok(r) => r.theta_lb,
                // A commodity lost every enumerated path: the documented
                // fallback signal. Re-enumerate cold, as production
                // callers do — its cost is part of the delta leg's time.
                Err(dcn_mcf::McfError::NoPath { .. }) => {
                    let ps = PathSet::k_shortest(child, &tm, k, budget)?;
                    exact::solve(&ps, budget)?.theta_lb
                }
                Err(e) => return Err(e.into()),
            };
            out.push(theta);
        }
        Ok(out)
    });
    let delta_thetas = delta_thetas?;

    // Sanity: pruning only removes paths, so delta θ lower-bounds the
    // re-enumerated θ; and both must agree with the FPTAS sandwich on the
    // parent (checked implicitly by the exact solver's own certificate).
    let ok = cold_thetas.len() == delta_thetas.len()
        && cold_thetas
            .iter()
            .zip(delta_thetas.iter())
            .all(|(c, d)| *d <= *c + 1e-9);
    Ok((cold_s, delta_s, ok))
}
