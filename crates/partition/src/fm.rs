//! Fiduccia–Mattheyses boundary refinement.
//!
//! Moves are allowed to pass through mildly unbalanced states (`loose`
//! limit) but a prefix of moves is only *accepted* when both sides are
//! within the `strict` balance limit — this is how FM escapes local minima
//! without drifting away from a true bisection.

use crate::WGraph;
use dcn_guard::{BudgetError, BudgetMeter};

/// One FM pass. Returns the cut improvement (>= 0 when the initial state
/// was balanced). One budget tick per move step (each an `O(n)` scan for
/// the best unlocked move); on exhaustion the tentative moves made so far
/// are rolled back to the best balanced prefix before the error
/// propagates, so `side` is never left mid-pass.
pub(crate) fn fm_pass(
    g: &WGraph,
    side: &mut [u8],
    strict: u64,
    loose: u64,
    meter: &mut BudgetMeter<'_>,
) -> Result<f64, BudgetError> {
    dcn_obs::counter!(dcn_obs::names::PARTITION_FM_PASSES).inc();
    let moves_ctr = dcn_obs::counter!(dcn_obs::names::PARTITION_FM_MOVES);
    let n = g.n();
    let gain_of = |u: usize, side: &[u8]| -> f64 {
        let mut gain = 0.0;
        for &(v, w) in &g.adj[u] {
            if side[v as usize] != side[u] {
                gain += w;
            } else {
                gain -= w;
            }
        }
        gain
    };
    let mut weight = [0u64; 2];
    for u in 0..n {
        weight[side[u] as usize] += g.node_w[u];
    }
    let balanced = |w: &[u64; 2]| w[0] <= strict && w[1] <= strict;
    let mut gains: Vec<f64> = (0..n).map(|u| gain_of(u, side)).collect();
    let mut locked = vec![false; n];
    let mut moves: Vec<usize> = Vec::with_capacity(n);
    let mut cum_gain = 0.0;
    let initial_balanced = balanced(&weight);
    let mut best_gain = if initial_balanced {
        0.0
    } else {
        f64::NEG_INFINITY
    };
    let mut best_prefix: Option<usize> = if initial_balanced { Some(0) } else { None };
    let mut exhausted: Option<BudgetError> = None;
    for _step in 0..n {
        if let Err(e) = meter.tick() {
            // Roll back to the best balanced prefix below, then report.
            exhausted = Some(e);
            break;
        }
        // Pick the best unlocked move that stays within the loose limit.
        let mut pick: Option<(usize, f64)> = None;
        for u in 0..n {
            if locked[u] {
                continue;
            }
            let to = 1 - side[u] as usize;
            if weight[to] + g.node_w[u] > loose {
                continue;
            }
            if pick.is_none_or(|(_, pg)| gains[u] > pg) {
                pick = Some((u, gains[u]));
            }
        }
        let (u, g_u) = match pick {
            Some(p) => p,
            None => break,
        };
        let from = side[u] as usize;
        let to = 1 - from;
        weight[from] -= g.node_w[u];
        weight[to] += g.node_w[u];
        side[u] = to as u8;
        locked[u] = true;
        cum_gain += g_u;
        moves_ctr.inc();
        moves.push(u);
        gains[u] = -gains[u];
        for &(v, w) in &g.adj[u] {
            let v = v as usize;
            if side[v] == side[u] {
                gains[v] -= 2.0 * w;
            } else {
                gains[v] += 2.0 * w;
            }
        }
        if balanced(&weight) && cum_gain > best_gain + 1e-12 {
            best_gain = cum_gain;
            best_prefix = Some(moves.len());
        }
    }
    let prefix = best_prefix.unwrap_or(0);
    for &u in moves.iter().skip(prefix).rev() {
        side[u] ^= 1;
    }
    match exhausted {
        Some(e) => Err(e),
        None => Ok(best_gain.max(0.0)),
    }
}

/// Runs FM passes until no improvement (bounded by `max_passes`).
pub(crate) fn refine(
    g: &WGraph,
    side: &mut [u8],
    strict: u64,
    loose: u64,
    max_passes: usize,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), BudgetError> {
    for pass in 0..max_passes {
        let gain = fm_pass(g, side, strict, loose, meter)?;
        // Keep iterating at least once even with zero gain: the first pass
        // may only have restored balance.
        if gain <= 1e-12 && pass > 0 {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;
    use dcn_guard::Budget;

    fn refine_unlimited(g: &WGraph, side: &mut [u8], strict: u64, loose: u64, passes: usize) {
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        refine(g, side, strict, loose, passes, &mut meter).unwrap();
    }

    /// Two K4 cliques joined by a single bridge edge: ideal cut = 1.
    fn two_cliques() -> WGraph {
        let mut adj = vec![Vec::new(); 8];
        let mut add = |a: usize, b: usize| {
            adj[a].push((b as u32, 1.0));
            adj[b].push((a as u32, 1.0));
        };
        for c in 0..2 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    add(base + i, base + j);
                }
            }
        }
        add(0, 4);
        WGraph {
            adj,
            node_w: vec![1; 8],
        }
    }

    #[test]
    fn fm_finds_bridge_cut() {
        let g = two_cliques();
        // Bad initial partition: alternate sides.
        let mut side: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        refine_unlimited(&g, &mut side, 4, 6, 20);
        assert_eq!(g.cut(&side), 1.0, "side = {side:?}");
        let w0: u64 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert_eq!(w0, 4);
    }

    #[test]
    fn fm_never_worsens_balanced_start() {
        let g = two_cliques();
        let mut side: Vec<u8> = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let before = g.cut(&side);
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        let gain = fm_pass(&g, &mut side, 4, 6, &mut meter).unwrap();
        assert!(gain >= 0.0);
        assert!(g.cut(&side) <= before);
        let w0: u64 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert_eq!(w0, 4);
    }

    #[test]
    fn strict_limit_enforced_on_result() {
        let g = two_cliques();
        let mut side: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        refine_unlimited(&g, &mut side, 5, 8, 20);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((3..=5).contains(&w0), "w0 = {w0}");
    }

    #[test]
    fn unbalanced_start_gets_rebalanced_or_reverted() {
        let g = two_cliques();
        // Everything on side 0: strict limit 4 forces a rebalance if any
        // balanced prefix is reachable, else no change.
        let mut side = vec![0u8; 8];
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        fm_pass(&g, &mut side, 4, 8, &mut meter).unwrap();
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(w0 == 8 || w0 <= 4 + 4);
        // In practice the pass finds the 4/4 split.
        refine_unlimited(&g, &mut side, 4, 8, 10);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(w0, 4, "side = {side:?}");
    }

    #[test]
    fn exhausted_pass_leaves_balanced_state_and_reports() {
        let g = two_cliques();
        let mut side: Vec<u8> = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let budget = Budget::unlimited().with_iter_cap(1);
        let mut meter = budget.meter();
        // First tick consumes the cap; the second move step errors out.
        let r = fm_pass(&g, &mut side, 4, 6, &mut meter);
        assert!(matches!(r, Err(BudgetError::IterationsExceeded { cap: 1 })));
        // The rollback keeps the partition balanced.
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(w0, 4, "side = {side:?}");
    }
}
