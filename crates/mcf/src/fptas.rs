//! Garg–Könemann / Fleischer FPTAS for maximum concurrent flow on
//! restricted path sets.
//!
//! The exact LP does not scale past a few thousand paths on this
//! workspace's simplex; this backend replaces Gurobi for large instances.
//! It maintains multiplicative edge lengths `l_e`, repeatedly routes each
//! commodity's demand along its currently-cheapest admissible path, and
//! inflates lengths on used edges. Two certificates come out:
//!
//! * **Primal**: the accumulated flow, scaled down by its worst link
//!   over-subscription, is feasible — giving `theta_lb`.
//! * **Dual**: for any length function, `D(l) / Σ_j d_j dist_j(l)` upper
//!   bounds the optimum; the minimum over all iterations gives `theta_ub`.
//!
//! The loop stops when `theta_ub - theta_lb <= eps * theta_ub` (or the
//! classic `D(l) >= 1` budget is exhausted), so the returned bracket is
//! usually much tighter than the worst-case guarantee.

use crate::pathset::PathSet;
use crate::{McfError, Provenance, ThroughputResult};
use dcn_guard::{validate, Budget};

/// Solves max concurrent flow on `ps` with accuracy `eps`.
///
/// Meters one tick per augmentation, so the multiplicative-weights loop
/// honors deadlines and iteration caps. Unlike the exact backend, a
/// mid-run exhaustion is *not* fatal when at least one phase completed:
/// the accumulated flow already certifies a valid (looser) bracket, which
/// is returned with the achieved gap recorded. Exhaustion before any flow
/// is routed propagates as [`McfError::Budget`].
pub fn solve(ps: &PathSet, eps: f64, budget: &Budget) -> Result<ThroughputResult, McfError> {
    if !(0.0 < eps && eps < 0.5) {
        return Err(McfError::BadEps(eps));
    }
    let mut meter = budget.meter();
    let _span = dcn_obs::span!(dcn_obs::names::MCF_FPTAS_SOLVE);
    // Hoisted so the inner augmentation loop touches only relaxed atomics.
    let phases_ctr = dcn_obs::counter!(dcn_obs::names::MCF_FPTAS_PHASES);
    let aug_ctr = dcn_obs::counter!(dcn_obs::names::MCF_FPTAS_AUGMENTATIONS);
    let n_dir = ps.n_directed_edges();
    let m = n_dir as f64;
    let delta = (m / (1.0 - eps)).powf(-1.0 / eps);
    // Directed edge capacities.
    let cap: Vec<f64> = (0..n_dir)
        .map(|i| ps.graph().capacity((i / 2) as u32))
        .collect();
    let mut length: Vec<f64> = cap.iter().map(|c| delta / c).collect();
    let mut flow_on_edge = vec![0.0f64; n_dir];
    // Per-commodity, per-path accumulated flow.
    let mut flows: Vec<Vec<f64>> = ps
        .commodities()
        .iter()
        .map(|c| vec![0.0; c.paths.len()])
        .collect();
    let mut routed: Vec<f64> = vec![0.0; ps.commodities().len()];

    let path_len = |j: usize, p: usize, length: &[f64]| -> f64 {
        ps.commodities()[j].paths[p]
            .hops
            .iter()
            .map(|&h| length[PathSet::dir_index(h)])
            .sum()
    };
    let cheapest = |j: usize, length: &[f64]| -> (usize, f64) {
        let c = &ps.commodities()[j];
        let mut best = (0usize, f64::INFINITY);
        for p in 0..c.paths.len() {
            let l = path_len(j, p, length);
            if l < best.1 {
                best = (p, l);
            }
        }
        best
    };

    let d_of = |length: &[f64]| -> f64 { length.iter().zip(cap.iter()).map(|(l, c)| l * c).sum() };

    let mut theta_ub = f64::INFINITY;
    let mut phases = 0usize;
    // Cap the phase count as a safety valve; the eps-gap stop below fires
    // far earlier in practice.
    let max_phases = (((1.0 + eps) / delta).ln() / (1.0 + eps).ln()).ceil() as usize + 8;

    loop {
        // Dual certificate for the current lengths.
        let mut dual_den = 0.0;
        for (j, c) in ps.commodities().iter().enumerate() {
            let (_, l) = cheapest(j, &length);
            dual_den += c.demand * l;
        }
        if dual_den > 0.0 {
            theta_ub = theta_ub.min(d_of(&length) / dual_den);
        }
        // Primal certificate: scale accumulated flow to feasibility.
        let theta_lb = current_lb(ps, &flow_on_edge, &cap, &routed);
        if theta_lb > 0.0 && theta_ub - theta_lb <= eps * theta_ub {
            return finish(ps, flows, routed, theta_lb, theta_ub, eps);
        }
        if d_of(&length) >= 1.0 || phases >= max_phases {
            let theta_lb = current_lb(ps, &flow_on_edge, &cap, &routed);
            return finish(ps, flows, routed, theta_lb, theta_ub, eps);
        }
        phases += 1;
        phases_ctr.inc();
        // One Fleischer phase: push each commodity's full demand.
        for (j, c) in ps.commodities().iter().enumerate() {
            let mut remaining = c.demand;
            while remaining > 0.0 {
                if let Err(e) = meter.tick() {
                    // Budget ran out mid-phase. The flow accumulated so
                    // far still certifies a bracket — return it if there
                    // is one; otherwise surface the exhaustion.
                    let theta_lb = current_lb(ps, &flow_on_edge, &cap, &routed);
                    if theta_lb > 0.0 {
                        dcn_obs::counter!(dcn_obs::names::MCF_FPTAS_TRUNCATED_RUNS).inc();
                        return finish(ps, flows, routed, theta_lb, theta_ub, eps);
                    }
                    return Err(McfError::Budget(e));
                }
                aug_ctr.inc();
                let (p, _) = cheapest(j, &length);
                let hops = &c.paths[p].hops;
                let min_cap = hops
                    .iter()
                    .map(|&h| cap[PathSet::dir_index(h)])
                    .fold(f64::INFINITY, f64::min);
                let send = remaining.min(min_cap);
                flows[j][p] += send;
                routed[j] += send;
                remaining -= send;
                for &h in hops {
                    let i = PathSet::dir_index(h);
                    flow_on_edge[i] += send;
                    length[i] *= 1.0 + eps * send / cap[i];
                }
            }
        }
    }
}

/// Feasible throughput of the accumulated flow: scale everything down by
/// the worst link over-subscription, then take the worst-served commodity.
fn current_lb(ps: &PathSet, flow_on_edge: &[f64], cap: &[f64], routed: &[f64]) -> f64 {
    let congestion = flow_on_edge
        .iter()
        .zip(cap.iter())
        .map(|(f, c)| f / c)
        .fold(0.0f64, f64::max);
    if congestion <= 0.0 {
        return 0.0;
    }
    ps.commodities()
        .iter()
        .zip(routed.iter())
        .map(|(c, &r)| r / c.demand)
        .fold(f64::INFINITY, f64::min)
        / congestion
}

fn finish(
    ps: &PathSet,
    flows: Vec<Vec<f64>>,
    routed: Vec<f64>,
    theta_lb: f64,
    theta_ub: f64,
    eps: f64,
) -> Result<ThroughputResult, McfError> {
    let _ = routed;
    if theta_ub > 0.0 && theta_ub.is_finite() {
        dcn_obs::gauge!(dcn_obs::names::MCF_FPTAS_ACHIEVED_EPS)
            .set((theta_ub - theta_lb) / theta_ub);
    }
    let sp_frac = ps.shortest_path_fraction(&flows);
    let theta_ub = theta_ub.max(theta_lb);
    if dcn_guard::validation_enabled() {
        validate::check_bracket(theta_lb, theta_ub, validate::DEFAULT_TOL)?;
    }
    Ok(ThroughputResult {
        theta_lb,
        theta_ub,
        shortest_path_fraction: sp_frac,
        provenance: Provenance::Fptas { eps },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use dcn_graph::Graph;
    use dcn_model::{Topology, TrafficMatrix};

    fn topo(n: usize, edges: &[(u32, u32)], h: u32) -> Topology {
        let g = Graph::from_edges(n, edges).unwrap();
        Topology::new(g, vec![h; n], "t").unwrap()
    }

    #[test]
    fn brackets_exact_on_cycle() {
        let t = topo(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 1);
        let tm = TrafficMatrix::permutation(&t, &[(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 8, &Budget::unlimited()).unwrap();
        let ex = exact::solve(&ps, &Budget::unlimited()).unwrap().theta_lb;
        let ap = solve(&ps, 0.05, &Budget::unlimited()).unwrap();
        assert!(
            ap.theta_lb <= ex + 1e-9 && ex <= ap.theta_ub + 1e-9,
            "bracket [{}, {}] misses exact {}",
            ap.theta_lb,
            ap.theta_ub,
            ex
        );
        assert!(ap.theta_ub - ap.theta_lb <= 0.06 * ap.theta_ub);
    }

    #[test]
    fn single_edge_converges() {
        let t = topo(2, &[(0, 1)], 2);
        let tm = TrafficMatrix::permutation(&t, &[(0, 1), (1, 0)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 2, &Budget::unlimited()).unwrap();
        let r = solve(&ps, 0.02, &Budget::unlimited()).unwrap();
        assert!((r.theta_lb - 0.5).abs() < 0.02);
        assert!(r.theta_ub >= 0.5 - 1e-9);
    }

    #[test]
    fn tighter_eps_gives_tighter_bracket() {
        let t = topo(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], 1);
        let tm = TrafficMatrix::permutation(&t, &[(0, 2), (2, 0), (1, 3), (3, 1)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 4, &Budget::unlimited()).unwrap();
        let loose = solve(&ps, 0.3, &Budget::unlimited()).unwrap();
        let tight = solve(&ps, 0.02, &Budget::unlimited()).unwrap();
        let gl = loose.theta_ub - loose.theta_lb;
        let gt = tight.theta_ub - tight.theta_lb;
        assert!(gt <= gl + 1e-12, "gap {gt} vs {gl}");
        assert!(gt <= 0.03 * tight.theta_ub);
    }

    #[test]
    fn bad_eps_rejected() {
        let t = topo(2, &[(0, 1)], 1);
        let tm = TrafficMatrix::permutation(&t, &[(0, 1)]).unwrap();
        let ps = PathSet::k_shortest(&t, &tm, 1, &Budget::unlimited()).unwrap();
        assert!(matches!(
            solve(&ps, 0.0, &Budget::unlimited()),
            Err(McfError::BadEps(_))
        ));
        assert!(matches!(
            solve(&ps, 0.7, &Budget::unlimited()),
            Err(McfError::BadEps(_))
        ));
    }
}
