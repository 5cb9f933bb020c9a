//! Integration tests for the topology variants beyond the paper's core
//! evaluation: F10 (the paper's §4.1 conjecture) and Dragonfly (§7).

use dcn::core::{tub, MatchingBackend};
use dcn::mcf::{ecmp_throughput, ksp_mcf_throughput, Engine};
use dcn::model::TrafficMatrix;
use dcn::topo::{dragonfly, f10, fat_tree};
use dcn_cache::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn f10_conjecture_tub_is_one() {
    // The paper conjectures F10 has full throughput; tub agrees on every
    // buildable instance here.
    for k in [4usize, 6, 8] {
        let t = f10(k).unwrap();
        let b = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        assert!((b.bound - 1.0).abs() < 1e-9, "f10(k={k}) tub = {}", b.bound);
    }
}

#[test]
fn f10_routes_permutations_like_fat_tree() {
    let f = f10(4).unwrap();
    let ft = fat_tree(4).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..3 {
        let tm_f = TrafficMatrix::random_permutation(&f, &mut rng).unwrap();
        let th_f = ksp_mcf_throughput(&f, &tm_f, 16, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(th_f >= 1.0 - 1e-9, "f10 θ = {th_f}");
        let tm_ft = TrafficMatrix::random_permutation(&ft, &mut rng).unwrap();
        let th_ft = ksp_mcf_throughput(&ft, &tm_ft, 16, Engine::Exact, &unlimited_ctx())
            .unwrap()
            .theta_lb;
        assert!(th_ft >= 1.0 - 1e-9);
    }
}

#[test]
fn f10_ecmp_also_full() {
    let f = f10(4).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let tm = TrafficMatrix::random_permutation(&f, &mut rng).unwrap();
    let th = ecmp_throughput(&f, &tm).unwrap();
    assert!(th >= 1.0 - 1e-9, "f10 ecmp θ = {th}");
}

#[test]
fn dragonfly_tub_reflects_global_bottleneck() {
    // Balanced dragonfly a=4, h=2, p=2: worst-case pairs sit in different
    // groups (distance >= 2), and the single global link per group pair
    // caps the worst case well below 1 at full server load.
    let t = dragonfly(2, 4, 2).unwrap();
    let b = tub(&t, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
    assert!(b.bound > 0.0 && b.bound.is_finite());
    // Sanity: the bound upper-bounds an actual adversarial routing result.
    let tm = b.traffic_matrix(&t).unwrap();
    let th = ksp_mcf_throughput(&t, &tm, 16, Engine::Exact, &unlimited_ctx())
        .unwrap()
        .theta_lb;
    assert!(th <= b.bound + 1e-9, "θ {th} > tub {}", b.bound);
}

#[test]
fn dragonfly_oversubscribed_at_high_p() {
    // Doubling servers per router halves the bound (denominator scales
    // with H; capacity fixed).
    let lo = tub(
        &dragonfly(1, 4, 2).unwrap(),
        MatchingBackend::Exact,
        &unlimited_ctx(),
    )
    .unwrap()
    .bound;
    let hi = tub(
        &dragonfly(2, 4, 2).unwrap(),
        MatchingBackend::Exact,
        &unlimited_ctx(),
    )
    .unwrap()
    .bound;
    assert!(
        (hi - lo / 2.0).abs() < 1e-9,
        "p=1: {lo}, p=2: {hi} (expected exactly half)"
    );
}
