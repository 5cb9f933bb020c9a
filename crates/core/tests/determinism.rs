//! The exec determinism contract, end to end: a full resilience curve, a
//! KSP-MCF bracket of the maximal permutation, and a Fig. 8 frontier sweep
//! must be *byte-identical* under `DCN_EXEC_THREADS=1` and
//! `DCN_EXEC_THREADS=4`, and the incremental curve must equal a cold
//! oracle.
//!
//! Everything lives in one `#[test]` because the thread count is a
//! process-global environment variable: separate tests would race on it.

use dcn_cache::prelude::*;
use dcn_core::frontier::{frontier_sweep, Criterion, Family, FrontierConfig};
use dcn_core::resilience::{failure_sweep, FailurePoint};
use dcn_core::{tub, MatchingBackend};
use dcn_exec::{task_seed, Pool};
use dcn_guard::prelude::*;
use dcn_mcf::{ksp_mcf_throughput, Engine};
use dcn_model::Topology;
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `failure_sweep` rebuilt from cold parts: each sample fails links from
/// its own `task_seed` stream and solves an uncached cold `tub`, and the
/// samples aggregate per fraction as the sweep does.
fn cold_sweep_oracle(
    topo: &Topology,
    fractions: &[f64],
    trials: u32,
    backend: MatchingBackend,
    seed: u64,
) -> Vec<FailurePoint> {
    let budget = unlimited();
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
            FailurePoint {
                fraction: f,
                nominal: (1.0 - f) * theta0,
                actual: (ok > 0).then(|| sum / ok as f64),
                trials: ok,
            }
        })
        .collect()
}

fn curve_bits(points: &[FailurePoint]) -> Vec<(u64, u64, Option<u64>, u32)> {
    points
        .iter()
        .map(|p| {
            (
                p.fraction.to_bits(),
                p.nominal.to_bits(),
                p.actual.map(f64::to_bits),
                p.trials,
            )
        })
        .collect()
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("DCN_EXEC_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("DCN_EXEC_THREADS");
    out
}

#[test]
fn thread_count_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(99);
    let topo = dcn_topo::jellyfish(36, 8, 4, &mut rng).unwrap();

    // 1. Raw par_map with per-task RNG streams.
    let draw = |threads: usize| {
        with_threads(threads, || {
            let items: Vec<u64> = (0..64).collect();
            Pool::from_env()
                .par_map(&unlimited(), &items, |i, _| {
                    let mut r = StdRng::seed_from_u64(task_seed(7, i as u64));
                    Ok::<_, BudgetError>(r.next_u64())
                })
                .unwrap()
        })
    };
    assert_eq!(draw(1), draw(4), "par_map RNG streams depend on threads");

    // 2. Full resilience curve, compared field-by-field at the bit level.
    // Run uncached, then cold and warm against one shared cache: hits must
    // be bit-identical to recomputation at every thread count.
    let sweep = |threads: usize, cache: &dcn_cache::CacheHandle| {
        with_threads(threads, || {
            failure_sweep(
                &topo,
                &[0.0, 0.05, 0.1, 0.2],
                3,
                MatchingBackend::Exact,
                11,
                &SolveCtx::unlimited(cache),
            )
            .unwrap()
        })
    };
    let cache = dcn_cache::CacheHandle::in_memory(1 << 24);
    let runs = [
        sweep(1, &nocache()),
        sweep(4, &nocache()),
        sweep(1, &cache), // cold
        sweep(4, &cache), // warm
        sweep(1, &cache), // warm
    ];
    for pair in runs.windows(2) {
        let (s1, s4) = (&pair[0], &pair[1]);
        assert_eq!(s1.len(), s4.len());
        for (a, b) in s1.iter().zip(s4.iter()) {
            assert_eq!(a.fraction.to_bits(), b.fraction.to_bits());
            assert_eq!(a.nominal.to_bits(), b.nominal.to_bits());
            assert_eq!(a.actual.map(f64::to_bits), b.actual.map(f64::to_bits));
            assert_eq!(a.trials, b.trials);
        }
    }

    // The work a sweep does must not depend on the pool width either:
    // against a fresh cache at 1 and at 4 threads, the cache and solver
    // counters move by the same amounts. (No other test in this binary
    // touches them.)
    let work = |threads: usize| {
        use dcn_obs::names::*;
        let names = [
            CACHE_HIT,
            CACHE_MISS,
            DELTA_MATCHING_PATCHED,
            GRAPH_DIST_BFS_RUNS,
            MATCH_HUNGARIAN_STEPS,
        ];
        let before: Vec<u64> = names.iter().map(|n| dcn_obs::counter_value(n)).collect();
        sweep(threads, &dcn_cache::CacheHandle::in_memory(1 << 24));
        let after = names.iter().map(|n| dcn_obs::counter_value(n));
        after.zip(before).map(|(a, b)| a - b).collect::<Vec<u64>>()
    };
    assert_eq!(work(1), work(4), "sweep counters depend on the thread count");

    // 3. KSP-MCF: the per-commodity path enumeration fans out on the
    // pool, so the uncached FPTAS bracket of the maximal permutation must
    // not depend on the pool width.
    let budget = unlimited();
    let cold = nocache_ctx(&budget);
    let maximal = tub(&topo, MatchingBackend::Auto { exact_below: 500 }, &cold).unwrap();
    let maximal = maximal.traffic_matrix(&topo).unwrap();
    let bracket = |threads: usize| {
        with_threads(threads, || {
            let r =
                ksp_mcf_throughput(&topo, &maximal, 6, Engine::Fptas { eps: 0.1 }, &cold).unwrap();
            (
                r.theta_lb.to_bits(),
                r.theta_ub.to_bits(),
                r.shortest_path_fraction.to_bits(),
            )
        })
    };
    assert_eq!(
        bracket(1),
        bracket(4),
        "KSP-MCF depends on the thread count"
    );

    // 4. Cold oracle: every sweep above re-matches its samples off the
    // parent's duals, and each must equal, bit for bit, a per-sample cold
    // `tub` with no cache.
    let oracle = cold_sweep_oracle(&topo, &[0.0, 0.05, 0.1, 0.2], 3, MatchingBackend::Exact, 11);
    for run in &runs {
        assert_eq!(curve_bits(run), curve_bits(&oracle));
    }

    // 5. Frontier sweep: four cheap Fig. 8 cells (two families, both
    // criteria), uncached and then cold and warm against one shared
    // cache. Each cell's search is adaptive, so any thread-dependent probe
    // answer would move the frontier itself. H = 2 on radix 8 puts three
    // of the four transitions inside the 64-switch cap (at H = 3 even the
    // smallest instance fails and every cell is `None`).
    let mut configs = Vec::new();
    for family in [Family::Jellyfish, Family::Xpander] {
        for criterion in [
            Criterion::FullThroughput {
                backend: MatchingBackend::Auto { exact_below: 600 },
            },
            Criterion::FullBisection { tries: 2 },
        ] {
            configs.push(FrontierConfig {
                family,
                radix: 8,
                h: 2,
                criterion,
                max_switches: 64,
                seed: 5,
            });
        }
    }
    let frontier = |threads: usize, cache: &dcn_cache::CacheHandle| {
        with_threads(threads, || {
            frontier_sweep(&configs, &SolveCtx::unlimited(cache)).unwrap()
        })
    };
    let cache = dcn_cache::CacheHandle::in_memory(1 << 24);
    let frontiers = [
        frontier(1, &nocache()),
        frontier(4, &nocache()),
        frontier(1, &cache), // cold
        frontier(4, &cache), // warm
        frontier(1, &cache), // warm
    ];
    assert_eq!(frontiers[0].len(), configs.len());
    assert!(
        frontiers[0].iter().filter(|f| f.is_some()).count() >= 3,
        "{:?}",
        frontiers[0]
    );
    for pair in frontiers.windows(2) {
        assert_eq!(
            pair[0], pair[1],
            "frontier sweep depends on threads or cache"
        );
    }
}
