//! Delta-solver equivalence harness.
//!
//! The incremental paths (warm-started simplex, pruned-pathset
//! `DeltaCtx` solves, memoized near-worst path sets, delta-TUB) promise:
//! *never a different answer than from-scratch* — bit-identical where
//! the computation is exact, within
//! `dcn_guard::tol` with a valid certificate where alternate optima are
//! legitimate. This harness pins that promise against the same two
//! corpora the fault-injection harness uses: the 14 structural attack
//! classes of `CaseSpec` and the 60-LP hostile generator.

use dcn::core::resilience::{failure_sweep, FailurePoint};
use dcn::core::{adversarial_search, tub, MatchingBackend};
use dcn::graph::{DistMatrix, Graph};
use dcn::guard::adversarial::{all_cases, CaseSpec, Xorshift};
use dcn::guard::{tol, validate::DEFAULT_TOL, Budget, CancelFlag};
use dcn::lp::{Cmp, LinearProgram, LpError, LpStatus};
use dcn::matching::hungarian_max_stateful;
use dcn::mcf::{
    exact, ksp_mcf_throughput, DeltaCtx, Engine, McfError, PairMemo, PathSet, SharedPathSet,
};
use dcn::model::{Demand, ModelError, Topology, TrafficMatrix};
use dcn::topo::fail_random_links;
use dcn_cache::prelude::*;
use dcn_exec::task_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Square plus a chord: failing the chord (edge 4) leaves a connected
/// child, and every commodity keeps at least one path at `k >= 2`.
fn chorded_square() -> Topology {
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        .expect("edges valid");
    Topology::new(g, vec![1; 4], "sq+chord").expect("builds")
}

fn prepared_ctx(topo: &Topology, tm: &TrafficMatrix, k: usize, budget: &Budget) -> DeltaCtx {
    let ps = PathSet::k_shortest(topo, tm, k, budget).expect("parent path set");
    DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), budget).expect("parent solve")
}

/// The same 60 hostile LPs as the fault-injection harness (one generator,
/// one seed), with the LP recorded so each case can be re-materialized
/// for a perturbed sibling.
struct HostileLp {
    lp: LinearProgram,
    obj: Vec<(usize, f64)>,
    #[allow(clippy::type_complexity)]
    rows: Vec<(Vec<(usize, f64)>, Cmp, f64)>,
    n: usize,
}

fn hostile_lps() -> Vec<HostileLp> {
    let mut rng = Xorshift::new(0xfau64);
    (0..60)
        .map(|_| {
            let n = 1 + rng.next_below(4) as usize;
            let mut lp = LinearProgram::new(n);
            let obj: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, rng.next_f64() * 4.0 - 2.0))
                .collect();
            lp.set_objective(&obj);
            let n_rows = 1 + rng.next_below(5);
            let mut rows = Vec::new();
            for _ in 0..n_rows {
                let coeffs: Vec<(usize, f64)> = (0..n)
                    .map(|j| (j, rng.next_f64() * 4.0 - 2.0))
                    .collect();
                let cmp = match rng.next_below(3) {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                let rhs = rng.next_f64() * 6.0 - 3.0;
                lp.add_constraint(&coeffs, cmp, rhs);
                rows.push((coeffs, cmp, rhs));
            }
            HostileLp { lp, obj, rows, n }
        })
        .collect()
}

fn rebuild(case: &HostileLp, rhs_nudge: f64) -> LinearProgram {
    let mut lp = LinearProgram::new(case.n);
    lp.set_objective(&case.obj);
    for (coeffs, cmp, rhs) in &case.rows {
        lp.add_constraint(coeffs, *cmp, rhs + rhs_nudge);
    }
    lp
}

/// Warm-starting an LP with its own exported basis must reproduce the
/// cold solution bit-for-bit, across the whole hostile corpus. Bases
/// that cannot be reused (artificials in an infeasible basis, no basis
/// exported at all) must route through the cold fallback and still
/// reproduce the cold answer exactly.
#[test]
fn hostile_lps_self_warm_is_bit_identical() {
    for (case_idx, case) in hostile_lps().iter().enumerate() {
        let budget = || Budget::unlimited().with_iter_cap(50_000);
        let cold = case.lp.solve_warm(None, &budget());
        let (cold_sol, basis) = match cold {
            Ok(x) => x,
            Err(LpError::Budget(_)) | Err(LpError::Certificate(_)) => continue,
            Err(e) => panic!("case {case_idx}: unexpected cold error {e:?}"),
        };
        let (warm_sol, _) = case
            .lp
            .solve_warm(basis.as_ref(), &budget())
            .unwrap_or_else(|e| panic!("case {case_idx}: warm failed where cold succeeded: {e:?}"));
        assert_eq!(warm_sol.status, cold_sol.status, "case {case_idx}");
        assert_eq!(
            warm_sol.objective.to_bits(),
            cold_sol.objective.to_bits(),
            "case {case_idx}: warm objective {} vs cold {}",
            warm_sol.objective,
            cold_sol.objective
        );
        assert_eq!(warm_sol.x.len(), cold_sol.x.len(), "case {case_idx}");
        for (j, (w, c)) in warm_sol.x.iter().zip(cold_sol.x.iter()).enumerate() {
            assert_eq!(w.to_bits(), c.to_bits(), "case {case_idx} x[{j}]");
        }
    }
}

/// Warm-starting a *perturbed* sibling (every RHS nudged) from the parent
/// basis must agree with the cold solve of the same sibling: identical
/// status, and — since alternate optimal bases legitimately differ in
/// floating-point rounding — objectives within `tol::approx_eq` of the
/// workspace tolerance. Certificates run inside the solver (this harness
/// builds with validation on in debug), so an out-of-tolerance warm
/// answer would already have failed there.
#[test]
fn hostile_lps_warm_perturbed_matches_cold_within_tol() {
    let mut compared = 0;
    for (case_idx, case) in hostile_lps().iter().enumerate() {
        let budget = || Budget::unlimited().with_iter_cap(50_000);
        let Ok((_, Some(basis))) = case.lp.solve_warm(None, &budget()) else {
            continue;
        };
        let child = rebuild(case, 1e-3);
        let cold = child.solve_warm(None, &budget());
        let warm = child.solve_warm(Some(&basis), &budget());
        match (cold, warm) {
            (Ok((c, _)), Ok((w, _))) => {
                assert_eq!(w.status, c.status, "case {case_idx}");
                if c.status == LpStatus::Optimal {
                    assert!(
                        tol::approx_eq(w.objective, c.objective, DEFAULT_TOL),
                        "case {case_idx}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    compared += 1;
                }
            }
            (Err(LpError::Budget(_)), _) | (_, Err(LpError::Budget(_))) => {}
            (Err(LpError::Certificate(_)), _) | (_, Err(LpError::Certificate(_))) => {}
            (c, w) => panic!("case {case_idx}: cold {c:?} vs warm {w:?}"),
        }
    }
    assert!(compared >= 10, "only {compared} optimal comparisons — corpus degenerated");
}

/// Every structural attack class, driven through the delta entry points:
/// each must produce the *same* typed error (or the same value) as the
/// from-scratch path — hostile input never makes the incremental solver
/// diverge from, panic before, or outlive the cold one.
#[test]
fn fault_corpus_delta_matches_scratch() {
    for &case in all_cases() {
        delta_case(case);
    }
}

fn delta_case(case: CaseSpec) {
    let topo = chorded_square();
    let unlimited = Budget::unlimited;
    match case {
        // Poisoned demands are rejected by the TrafficMatrix constructor,
        // upstream of both the cold and delta paths — neither can ever
        // observe them, which *is* the equivalence.
        CaseSpec::NanDemand | CaseSpec::NegativeDemand | CaseSpec::ZeroDemand => {
            let amount = match case {
                CaseSpec::NanDemand => f64::NAN,
                CaseSpec::NegativeDemand => -1.0,
                _ => 0.0,
            };
            let err = TrafficMatrix::new(&topo, vec![Demand { src: 0, dst: 2, amount }])
                .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::SelfLoopDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand { src: 1, dst: 1, amount: 1.0 }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::ZeroCapacityEdge => {
            // A zero-capacity chord: the delta solve of the degraded child
            // must equal the cold solve of the same pruned instance
            // bit-for-bit, dead capacity and all.
            let g = Graph::from_weighted_edges(
                4,
                &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 0.0)],
            )
            .expect("zero capacity representable");
            let t = Topology::new(g, vec![1; 4], "deadchord").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(1, 3), (3, 1)]).expect("valid tm");
            let ctx = prepared_ctx(&t, &tm, 4, &unlimited());
            let child =
                Topology::new(t.graph().without_edges(&[4]), vec![1; 4], "sq").expect("builds");
            let warm = ctx.solve_failure(&child, &unlimited()).expect("delta solve");
            let pruned = ctx.pruned_pathset(&child).expect("pruned");
            let cold = exact::solve(&pruned, &unlimited()).expect("cold solve");
            assert_eq!(warm.theta_lb.to_bits(), cold.theta_lb.to_bits());
        }
        CaseSpec::SelfLoopEdge => {
            // Rejected at graph construction; no delta context can exist.
            assert!(Graph::from_edges(3, &[(0, 1), (1, 1)]).is_err());
        }
        CaseSpec::DisconnectedGraph => {
            let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).expect("two components");
            let t = Topology::new(g, vec![1; 4], "split").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).expect("valid tm");
            let err = PathSet::k_shortest(&t, &tm, 4, &unlimited()).unwrap_err();
            assert_eq!(err, McfError::NoPath { src: 0, dst: 2 });
            // The memoized path too: same typed error, same pair.
            let mut memo = PairMemo::new(&t, 4);
            let err = memo.ensure_pairs(&[(0, 2)], &unlimited()).unwrap_err();
            assert_eq!(err, McfError::NoPath { src: 0, dst: 2 });
        }
        CaseSpec::EmptyTraffic => {
            let tm = TrafficMatrix::new(&topo, Vec::new()).expect("empty tm is legal");
            let cold = PathSet::k_shortest(&topo, &tm, 4, &unlimited()).unwrap_err();
            let memo = PairMemo::new(&topo, 4);
            let warm = memo.pathset(&tm).unwrap_err();
            assert_eq!(cold, McfError::EmptyTraffic);
            assert_eq!(warm, McfError::EmptyTraffic);
        }
        CaseSpec::DegenerateLp => {
            // Redundant binding constraints — the cycling trap. The warm
            // path must terminate and agree with cold bit-for-bit.
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0), (1, 1.0)]);
            for _ in 0..24 {
                lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
            }
            let budget = || Budget::unlimited().with_iter_cap(10_000);
            let (cold, basis) = lp.solve_warm(None, &budget()).expect("terminates");
            let (warm, _) = lp.solve_warm(basis.as_ref(), &budget()).expect("terminates");
            assert_eq!(cold.status, LpStatus::Optimal);
            assert_eq!(warm.status, LpStatus::Optimal);
            assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        }
        CaseSpec::InfeasibleLp => {
            // Parent: feasible. Child: same rows, infeasible RHS. The warm
            // start must *detect* the infeasibility (via the bounded dual
            // repair or the cold fallback), never mask it.
            let mut parent = LinearProgram::new(1);
            parent.set_objective(&[(0, 1.0)]);
            parent.add_constraint(&[(0, 1.0)], Cmp::Ge, 0.5);
            parent.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
            let (_, basis) = parent.solve_warm(None, &Budget::unlimited()).expect("parent");
            let mut child = LinearProgram::new(1);
            child.set_objective(&[(0, 1.0)]);
            child.add_constraint(&[(0, 1.0)], Cmp::Ge, 2.0);
            child.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
            let (cold, _) = child.solve_warm(None, &Budget::unlimited()).expect("status");
            let (warm, _) = child
                .solve_warm(basis.as_ref(), &Budget::unlimited())
                .expect("status");
            assert_eq!(cold.status, LpStatus::Infeasible);
            assert_eq!(warm.status, LpStatus::Infeasible);
        }
        CaseSpec::UnboundedLp => {
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0)]);
            lp.add_constraint(&[(1, 1.0)], Cmp::Le, 1.0);
            let (cold, basis) = lp.solve_warm(None, &Budget::unlimited()).expect("status");
            // Warm from whatever basis the cold run exported (possibly
            // none): same verdict either way.
            let (warm, _) = lp
                .solve_warm(basis.as_ref(), &Budget::unlimited())
                .expect("status");
            assert_eq!(cold.status, LpStatus::Unbounded);
            assert_eq!(warm.status, LpStatus::Unbounded);
        }
        CaseSpec::NearExpiredBudget => {
            let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0)]).expect("tm");
            let ps = PathSet::k_shortest(&topo, &tm, 4, &unlimited()).expect("paths");
            let tight = Budget::unlimited().with_wall(Duration::from_nanos(1));
            let err = DeltaCtx::prepare(SharedPathSet(Arc::new(ps)), &tight).unwrap_err();
            assert!(matches!(err, McfError::Budget(_)), "{err:?}");
        }
        CaseSpec::TinyIterationCap => {
            let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0)]).expect("tm");
            let ctx = prepared_ctx(&topo, &tm, 4, &unlimited());
            let child = Topology::new(topo.graph().without_edges(&[4]), vec![1; 4], "sq")
                .expect("builds");
            let tiny = Budget::unlimited().with_iter_cap(1);
            let err = ctx.solve_failure(&child, &tiny).unwrap_err();
            assert!(matches!(err, McfError::Budget(_)), "{err:?}");
        }
        CaseSpec::PreCancelled => {
            let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0)]).expect("tm");
            let ctx = prepared_ctx(&topo, &tm, 4, &unlimited());
            let child = Topology::new(topo.graph().without_edges(&[4]), vec![1; 4], "sq")
                .expect("builds");
            let flag = CancelFlag::new();
            flag.cancel();
            let cancelled = Budget::unlimited().with_cancel(flag);
            let err = ctx.solve_failure(&child, &cancelled).unwrap_err();
            assert!(matches!(err, McfError::Budget(_)), "{err:?}");
        }
    }
}

/// Cancellation *mid-delta*: a budget that expires after the prune but
/// during the warm LP must surface as a typed budget error and leave the
/// context reusable — the next solve with a fresh budget succeeds and
/// still matches cold.
#[test]
fn mid_delta_budget_cancellation_is_typed_and_recoverable() {
    let topo = chorded_square();
    let tm = TrafficMatrix::permutation(&topo, &[(0, 2), (2, 0), (1, 3), (3, 1)]).expect("tm");
    let ctx = prepared_ctx(&topo, &tm, 4, &Budget::unlimited());
    let child =
        Topology::new(topo.graph().without_edges(&[4]), vec![1; 4], "sq").expect("builds");
    // A couple of ticks: enough to enter the simplex, not to finish it.
    for cap in [1u64, 2, 3] {
        let budget = Budget::unlimited().with_iter_cap(cap);
        match ctx.solve_failure(&child, &budget) {
            Err(McfError::Budget(_)) => {}
            Ok(_) => break, // tiny instance finished under the cap — fine
            Err(e) => panic!("cap {cap}: expected Budget, got {e:?}"),
        }
    }
    // The aborted attempt must not have corrupted the parent artifacts.
    let warm = ctx.solve_failure(&child, &Budget::unlimited()).expect("recovers");
    let pruned = ctx.pruned_pathset(&child).expect("pruned");
    let cold = exact::solve(&pruned, &Budget::unlimited()).expect("cold");
    assert_eq!(warm.theta_lb.to_bits(), cold.theta_lb.to_bits());
}

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
/// parent's duals, equals a per-sample cold oracle bit for bit, and a
/// near-worst search, which assembles path sets from a `PairMemo`, starts
/// and ends at θs equal to cold KSP-MCF solves.
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

    let search = adversarial_search(&topo, 10, 6, 0.1, 5, &nocache).unwrap();
    let cold_theta = |tm: &TrafficMatrix| {
        ksp_mcf_throughput(&topo, tm, 6, Engine::Fptas { eps: 0.1 }, &nocache)
            .unwrap()
            .theta_lb
            .to_bits()
    };
    let maximal = tub(&topo, MatchingBackend::Auto { exact_below: 500 }, &nocache)
        .unwrap()
        .traffic_matrix(&topo)
        .unwrap();
    assert_eq!(search.theta_start.to_bits(), cold_theta(&maximal));
    assert_eq!(search.theta.to_bits(), cold_theta(&search.tm));
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
