//! The exec determinism contract, end to end: a full resilience curve, a
//! near-worst traffic search, and a Fig. 8 frontier sweep must be
//! *byte-identical* under `DCN_EXEC_THREADS=1` and `DCN_EXEC_THREADS=4`.
//!
//! Everything lives in one `#[test]` because the thread count is a
//! process-global environment variable: separate tests would race on it.

use dcn_core::frontier::{frontier_sweep, Criterion, Family, FrontierConfig};
use dcn_core::nearworst::adversarial_search;
use dcn_core::resilience::failure_sweep;
use dcn_core::MatchingBackend;
use dcn_exec::{task_seed, Pool};
use dcn_guard::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use dcn_cache::prelude::*;

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

    // 3. Near-worst search: the accepted swap sequence (and thus the final
    // θ and improvement count) must not depend on the pool width.
    let search = |threads: usize| {
        with_threads(threads, || {
            adversarial_search(&topo, 12, 6, 0.1, 3, &unlimited_ctx()).unwrap()
        })
    };
    let (n1, n4) = (search(1), search(4));
    assert_eq!(n1.theta.to_bits(), n4.theta.to_bits());
    assert_eq!(n1.theta_start.to_bits(), n4.theta_start.to_bits());
    assert_eq!(n1.improvements, n4.improvements);

    // 4. DCN_DELTA=on legs, threads 1 and 4: the incremental paths must
    // reproduce the cold runs above byte-for-byte — the delta parent is
    // prepared before the fan-out and the exact delta bound (and memoized
    // path sets) are bit-identical to from-scratch, so `on` is held to the
    // *same* reference output as `off`, not merely to itself.
    let with_delta = |f: &mut dyn FnMut()| {
        std::env::set_var("DCN_DELTA", "on");
        f();
        std::env::remove_var("DCN_DELTA");
    };
    for threads in [1usize, 4] {
        with_delta(&mut || {
            let ds = sweep(threads, &nocache());
            let reference = &runs[0];
            assert_eq!(ds.len(), reference.len());
            for (a, b) in ds.iter().zip(reference.iter()) {
                assert_eq!(
                    a.actual.map(f64::to_bits),
                    b.actual.map(f64::to_bits),
                    "DCN_DELTA=on sweep diverged at {} threads",
                    threads
                );
                assert_eq!(a.trials, b.trials);
            }
            let dn = search(threads);
            assert_eq!(
                dn.theta.to_bits(),
                n1.theta.to_bits(),
                "DCN_DELTA=on search diverged at {} threads",
                threads
            );
            assert_eq!(dn.theta_start.to_bits(), n1.theta_start.to_bits());
            assert_eq!(dn.improvements, n1.improvements);
        });
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
