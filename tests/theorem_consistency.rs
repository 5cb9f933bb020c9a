//! Cross-crate integration tests: the paper's theorems must be mutually
//! consistent on concrete topologies.
//!
//! The chain checked here, for every generated instance:
//!
//! `Theorem 8.4 lower <= exact θ(T) <= tub (Thm 2.2) <= universal (Thm 4.1)`
//!
//! with `T` the maximal permutation, plus the Clos full-throughput claim
//! and the Theorem 2.1 permutation-dominance property.

use dcn::core::lower::throughput_lower_bound;
use dcn::core::universal::{universal_tub, UniRegularParams};
use dcn::core::{tub, MatchingBackend};
use dcn::mcf::{ksp_mcf_throughput, Engine};
use dcn::model::TrafficMatrix;
use dcn::topo::{fat_tree, jellyfish, xpander};
use dcn_cache::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bound_chain_on_jellyfish_instances() {
    let mut rng = StdRng::seed_from_u64(1);
    for (n, r, h) in [(16usize, 4usize, 3u32), (24, 5, 4), (40, 6, 4)] {
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let tm = ub.traffic_matrix(&topo).unwrap();
        let lower = throughput_lower_bound(&topo, &tm, 1).unwrap();
        let exact = ksp_mcf_throughput(&topo, &tm, 24, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        let universal = universal_tub(UniRegularParams {
            n_servers: topo.n_servers(),
            radix: (r as u32) + h,
            h,
        })
        .unwrap();
        assert!(
            lower <= exact + 1e-9,
            "n={n}: lower {lower} > exact {exact}"
        );
        assert!(
            exact <= ub.bound + 1e-9,
            "n={n}: exact {exact} > tub {}",
            ub.bound
        );
        assert!(
            ub.bound <= universal + 1e-9,
            "n={n}: tub {} > universal {universal}",
            ub.bound
        );
    }
}

#[test]
fn fptas_brackets_exact_on_all_families() {
    let mut rng = StdRng::seed_from_u64(2);
    let topos = vec![
        jellyfish(20, 5, 4, &mut rng).unwrap(),
        xpander(4, 5, 4, &mut rng).unwrap(),
        fat_tree(4).unwrap(),
    ];
    for topo in topos {
        let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let tm = ub.traffic_matrix(&topo).unwrap();
        let exact = ksp_mcf_throughput(&topo, &tm, 16, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        let approx = ksp_mcf_throughput(
            &topo,
            &tm,
            16,
            Engine::Fptas { eps: 0.05 },
            &unlimited_ctx(),
        )
        .unwrap();
        assert!(
            approx.theta_lb <= exact + 1e-9 && exact <= approx.theta_ub + 1e-9,
            "{}: [{}, {}] misses {}",
            topo.name(),
            approx.theta_lb,
            approx.theta_ub,
            exact
        );
    }
}

#[test]
fn clos_supports_every_permutation_at_full_rate() {
    // §4.1: Clos supports every permutation traffic matrix at θ >= 1, and
    // its tub is exactly 1.
    let topo = fat_tree(4).unwrap();
    let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
    assert!((ub.bound - 1.0).abs() < 1e-9);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..5 {
        let tm = TrafficMatrix::random_permutation(&topo, &mut rng).unwrap();
        let th = ksp_mcf_throughput(&topo, &tm, 16, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(th >= 1.0 - 1e-9, "clos θ = {th} for a permutation");
    }
}

#[test]
fn maximal_permutation_is_near_worst_case() {
    // §3.1 methodology: the maximal permutation is *near* worst-case — it
    // maximizes the TUB denominator (a proxy for difficulty), not MCF
    // throughput itself, so a random permutation can undercut it by a few
    // percent on small instances. Assert the trend with a 5% relative
    // slack rather than exact dominance.
    let mut rng = StdRng::seed_from_u64(4);
    let topo = jellyfish(24, 5, 4, &mut rng).unwrap();
    let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
    let worst_tm = ub.traffic_matrix(&topo).unwrap();
    let worst = ksp_mcf_throughput(&topo, &worst_tm, 24, Engine::Exact, &unlimited_ctx())
        .unwrap()
        .theta_lb;
    for _ in 0..5 {
        let tm = TrafficMatrix::random_permutation(&topo, &mut rng).unwrap();
        let th = ksp_mcf_throughput(&topo, &tm, 24, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(
            worst <= th * 1.05 + 1e-6,
            "maximal permutation ({worst}) beat a random one ({th}) by more than 5%"
        );
    }
}

#[test]
fn theorem21_convex_combination_dominance() {
    // Theorem 2.1's consequence: the throughput of any saturated-hose TM
    // (a convex combination of permutations) is at least the worst
    // permutation throughput.
    let mut rng = StdRng::seed_from_u64(5);
    let topo = jellyfish(16, 4, 3, &mut rng).unwrap();
    let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
    let worst_tm = ub.traffic_matrix(&topo).unwrap();
    let worst = ksp_mcf_throughput(&topo, &worst_tm, 16, Engine::Exact, &unlimited_ctx())
        .unwrap()
        .theta_lb;
    for _ in 0..3 {
        let mix = TrafficMatrix::random_hose(&topo, 3, &mut rng).unwrap();
        let th = ksp_mcf_throughput(&topo, &mix, 16, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(
            th >= worst - 1e-6,
            "hose mix θ = {th} below worst permutation {worst}"
        );
    }
}

#[test]
fn expansion_never_raises_tub_noticeably() {
    // §5.1: growing a uni-regular topology at fixed H cannot improve the
    // worst case (modulo small randomness).
    let mut rng = StdRng::seed_from_u64(6);
    let topo = jellyfish(30, 5, 4, &mut rng).unwrap();
    let before = tub(&topo, MatchingBackend::Exact, &unlimited_ctx())
        .unwrap()
        .bound
        .min(1.0);
    let bigger = dcn::topo::expand_by_rewiring(&topo, 30, 4, &mut rng).unwrap();
    let after = tub(&bigger, MatchingBackend::Exact, &unlimited_ctx())
        .unwrap()
        .bound
        .min(1.0);
    assert!(
        after <= before + 0.08,
        "expansion raised tub {before} -> {after}"
    );
}
