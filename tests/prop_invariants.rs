//! Property-based tests (proptest) on the core invariants, across randomly
//! generated topologies and traffic.

use dcn::core::{tub, MatchingBackend};
use dcn::graph::{ksp, DistMatrix, Graph};
use dcn::guard::prelude::*;
use dcn::lp::{Cmp, LinearProgram, LpStatus};
use dcn::matching::{greedy_max, hungarian_max, improve_2swap};
use dcn::mcf::{ksp_mcf_throughput, Engine};
use dcn::model::{Topology, TrafficMatrix};
use dcn::topo::jellyfish;
use dcn_cache::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a connected random regular graph spec (n, r).
fn regular_spec() -> impl Strategy<Value = (usize, usize, u32, u64)> {
    (8usize..40, 3usize..7, 1u32..5, any::<u64>())
        .prop_filter("n*r even and r < n", |(n, r, _h, _s)| {
            n * r % 2 == 0 && r < n
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BFS distances satisfy the triangle inequality over edges and
    /// symmetry on undirected graphs.
    #[test]
    fn bfs_metric_properties((n, r, h, seed) in regular_spec()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let g = topo.graph();
        let d = DistMatrix::all_pairs(g).unwrap();
        for u in 0..n as u32 {
            prop_assert_eq!(d.dist(u, u), 0);
            for v in 0..n as u32 {
                prop_assert_eq!(d.dist(u, v), d.dist(v, u));
            }
        }
        // Edge relaxation: adjacent nodes differ by at most 1 in distance
        // to any target.
        for &(a, b) in g.edges() {
            for t in 0..n as u32 {
                let da = d.dist(a, t) as i32;
                let db = d.dist(b, t) as i32;
                prop_assert!((da - db).abs() <= 1);
            }
        }
    }

    /// Yen's and the slack enumerator agree on path-length multisets, and
    /// lengths are sorted.
    #[test]
    fn ksp_engines_agree((n, r, h, seed) in regular_spec()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let g = topo.graph().coalesced();
        let dst = (n - 1) as u32;
        let a = ksp::yen(&g, 0, dst, 12, &unlimited()).unwrap();
        let b = ksp::k_shortest_by_slack(&g, 0, dst, 12, u16::MAX, &unlimited()).unwrap();
        let la: Vec<usize> = a.iter().map(|p| p.len() - 1).collect();
        let lb: Vec<usize> = b.iter().map(|p| p.len() - 1).collect();
        prop_assert_eq!(&la, &lb);
        prop_assert!(la.windows(2).all(|w| w[0] <= w[1]));
    }

    /// tub soundness: the exact KSP-MCF throughput of the maximal
    /// permutation never exceeds the bound; greedy backends only loosen.
    #[test]
    fn tub_soundness((n, r, h, seed) in regular_spec()) {
        prop_assume!(n <= 24); // keep the exact LP affordable
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let exact_b = tub(&topo, MatchingBackend::Exact, &unlimited_ctx()).unwrap();
        let greedy_b = tub(&topo, MatchingBackend::Greedy { improvement_passes: 2 }, &unlimited_ctx()).unwrap();
        prop_assert!(greedy_b.bound >= exact_b.bound - 1e-12);
        let tm = exact_b.traffic_matrix(&topo).unwrap();
        let th = ksp_mcf_throughput(&topo, &tm, 16, Engine::Exact, &unlimited_ctx()).unwrap().theta_lb;
        prop_assert!(th <= exact_b.bound + 1e-9,
            "θ {} > tub {}", th, exact_b.bound);
    }

    /// The FPTAS bracket always contains its own midpoint ordering and
    /// respects eps.
    #[test]
    fn fptas_bracket_valid((n, r, h, seed) in regular_spec()) {
        prop_assume!(n <= 28);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(&topo, &mut rng).unwrap();
        let res = ksp_mcf_throughput(&topo, &tm, 8, Engine::Fptas { eps: 0.1 }, &unlimited_ctx()).unwrap();
        prop_assert!(res.theta_lb <= res.theta_ub + 1e-12);
        prop_assert!(res.theta_lb > 0.0);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&res.shortest_path_fraction));
    }

    /// Hungarian is optimal among: greedy, improved greedy, identity-ish
    /// permutations; and all produce valid permutations.
    #[test]
    fn matching_optimality(seed in any::<u64>(), n in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mat: Vec<Vec<i64>> = (0..n)
            .map(|_| (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0..100)).collect())
            .collect();
        let w = |i: usize, j: usize| mat[i][j];
        let h = hungarian_max(n, w, &unlimited()).unwrap();
        let mut g = greedy_max(n, w);
        improve_2swap(n, w, &mut g, 4);
        prop_assert!(h.is_permutation());
        prop_assert!(g.is_permutation());
        prop_assert!(g.total_weight <= h.total_weight);
        prop_assert_eq!(g.total_weight, g.weight_under(w));
    }

    /// Random permutation TMs are saturated-hose and survive scaling.
    #[test]
    fn traffic_matrix_hose_invariants((n, r, h, seed) in regular_spec()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let tm = TrafficMatrix::random_permutation(&topo, &mut rng).unwrap();
        tm.check_hose(&topo).unwrap();
        prop_assert!(tm.is_permutation(&topo));
        prop_assert!((tm.total() - topo.n_servers() as f64).abs() < 1e-6);
        let half = tm.scaled(0.5);
        half.check_hose(&topo).unwrap();
        prop_assert!((half.total() - tm.total() / 2.0).abs() < 1e-9);
    }

    /// LP solver: for random feasible-by-construction LPs, the optimum
    /// respects every constraint.
    #[test]
    fn lp_solution_feasible(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rand::Rng::gen_range(&mut rng, 1..5usize);
        let m = rand::Rng::gen_range(&mut rng, 1..6usize);
        let mut lp = LinearProgram::new(n);
        let obj: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, rand::Rng::gen_range(&mut rng, 0.0..3.0)))
            .collect();
        lp.set_objective(&obj);
        let mut rows = Vec::new();
        for _ in 0..m {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, rand::Rng::gen_range(&mut rng, 0.1..2.0)))
                .collect();
            let rhs = rand::Rng::gen_range(&mut rng, 0.5..10.0);
            lp.add_constraint(&coeffs, Cmp::Le, rhs);
            rows.push((coeffs, rhs));
        }
        let sol = lp.solve(&unlimited()).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        for (coeffs, rhs) in rows {
            let lhs: f64 = coeffs.iter().map(|&(j, c)| c * sol.x[j]).sum();
            prop_assert!(lhs <= rhs + 1e-7, "constraint violated: {} > {}", lhs, rhs);
        }
        prop_assert!(sol.x.iter().all(|&v| v >= -1e-9));
    }

    /// Failure injection removes exactly the requested links and keeps
    /// server placement.
    #[test]
    fn failure_injection_counts((n, r, h, seed) in regular_spec()) {
        prop_assume!(r >= 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = jellyfish(n, r, h, &mut rng).unwrap();
        let m0 = topo.graph().m();
        if let Ok(failed) = dcn::topo::fail_random_links(&topo, 0.1, &mut rng) {
            let expect = m0 - (m0 as f64 * 0.1).round() as usize;
            prop_assert_eq!(failed.graph().m(), expect);
            prop_assert_eq!(failed.n_servers(), topo.n_servers());
            prop_assert!(failed.graph().is_connected());
        }
    }
}

/// Non-proptest sanity: Graph::without_edges never panics on extremes.
#[test]
fn without_all_edges() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let empty = g.without_edges(&[0, 1]);
    assert_eq!(empty.m(), 0);
    let t = Topology::new(g, vec![1; 3], "t").unwrap();
    assert_eq!(t.n_servers(), 3);
}
