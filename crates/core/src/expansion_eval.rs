//! Throughput under incremental expansion (§5.1 and Figure A.4).
//!
//! Starting from a uni-regular topology, switches are added by random
//! rewiring (keeping servers per switch constant) and the tub is tracked,
//! normalized by the initial value. The paper's finding: expansion that
//! ignores the target size can push a full-throughput topology well below
//! full throughput.

use crate::tub::{tub, MatchingBackend};
use crate::CoreError;
use dcn_cache::SolveCtx;
use dcn_model::Topology;
use dcn_topo::expand_by_rewiring;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of an expansion curve.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionPoint {
    /// Current size over initial size (1.0 = no expansion yet).
    pub ratio: f64,
    /// Absolute tub at this size.
    pub tub: f64,
    /// tub normalized by the initial tub (both clamped to 1 first, as the
    /// paper normalizes deployable throughput).
    pub normalized: f64,
}

/// Expands `initial` in `steps` increments of `step_fraction` of the
/// *initial* switch count (the paper uses 20% steps up to 2.6x), computing
/// the tub after each step.
pub fn expansion_curve(
    initial: &Topology,
    h: u32,
    steps: usize,
    step_fraction: f64,
    backend: MatchingBackend,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<Vec<ExpansionPoint>, CoreError> {
    if step_fraction.is_nan() || step_fraction <= 0.0 {
        return Err(CoreError::OutOfRegime(format!(
            "step fraction must be positive (got {step_fraction})"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n0 = initial.n_switches();
    let step = ((n0 as f64 * step_fraction).round() as usize).max(1);
    let theta0 = tub(initial, backend, ctx)?.bound.min(1.0);
    let mut out = vec![ExpansionPoint {
        ratio: 1.0,
        tub: theta0,
        normalized: 1.0,
    }];
    let mut current = initial.clone();
    for _ in 0..steps {
        current = expand_by_rewiring(&current, step, h, &mut rng)?;
        let th = tub(&current, backend, ctx)?.bound.min(1.0);
        out.push(ExpansionPoint {
            ratio: current.n_switches() as f64 / n0 as f64,
            tub: th,
            normalized: if theta0 > 0.0 { th / theta0 } else { 0.0 },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::jellyfish;

    #[test]
    fn curve_monotone_ratios_and_bounded() {
        let mut rng = StdRng::seed_from_u64(23);
        let t = jellyfish(30, 6, 5, &mut rng).unwrap();
        let curve = expansion_curve(&t, 5, 4, 0.2, MatchingBackend::Exact, 7, &unlimited_ctx()).unwrap();
        assert_eq!(curve.len(), 5);
        assert!((curve[0].ratio - 1.0).abs() < 1e-12);
        assert!((curve[0].normalized - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1].ratio > w[0].ratio);
        }
        for p in &curve {
            assert!(p.tub >= 0.0 && p.tub <= 1.0 + 1e-9);
            assert!(p.normalized <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn throughput_trends_down_under_heavy_expansion() {
        // Expanding a borderline-full-throughput instance 2x+ while
        // keeping H fixed should not increase throughput.
        let mut rng = StdRng::seed_from_u64(29);
        let t = jellyfish(24, 5, 5, &mut rng).unwrap();
        let curve = expansion_curve(&t, 5, 6, 0.25, MatchingBackend::Exact, 11, &unlimited_ctx()).unwrap();
        let first = curve.first().unwrap().tub;
        let last = curve.last().unwrap().tub;
        assert!(
            last <= first + 0.05,
            "expansion should not raise throughput: {first} -> {last}"
        );
    }

    #[test]
    fn zero_step_fraction_rejected() {
        let mut rng = StdRng::seed_from_u64(31);
        let t = jellyfish(20, 4, 4, &mut rng).unwrap();
        assert!(expansion_curve(&t, 4, 2, 0.0, MatchingBackend::Exact, 1, &unlimited_ctx()).is_err());
    }
}
