//! Failure resilience (Figure 10): nominal vs actual throughput under
//! random link failures.
//!
//! With failure fraction `f` and pre-failure throughput `θ`, the *nominal*
//! throughput is `(1 - f) θ` — what graceful degradation would give. The
//! *actual* value is the tub of the degraded topology; the gap between the
//! two is the paper's resilience deviation.

use crate::delta::TubDeltaParent;
use crate::tub::{tub, MatchingBackend};
use crate::CoreError;
use dcn_cache::SolveCtx;
use dcn_exec::{task_seed, Pool};
use dcn_model::Topology;
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of a failure sweep.
#[derive(Debug, Clone, Copy)]
pub struct FailurePoint {
    /// Fraction of links failed.
    pub fraction: f64,
    /// `(1 - f) * θ0`.
    pub nominal: f64,
    /// Mean tub over the sampled failure patterns, or `None` when every
    /// sampled pattern disconnected the topology (`trials == 0`) — an
    /// explicitly-marked empty point, never a silent `0.0`.
    pub actual: Option<f64>,
    /// Trials that produced a connected degraded topology.
    pub trials: u32,
}

impl FailurePoint {
    /// Deviation of actual from nominal, or `None` for an empty point.
    pub fn deviation(&self) -> Option<f64> {
        self.actual.map(|a| self.nominal - a)
    }
}

/// Sweeps failure fractions, sampling `trials` random failure patterns per
/// fraction. Disconnecting samples are skipped — each skip bumps the
/// `core.resilience.disconnected_samples` counter and is reflected in the
/// returned per-point `trials` count; a point where *every* sample
/// disconnected carries `actual: None` rather than a fabricated zero.
///
/// The `fractions × trials` samples are independent, so they fan out
/// across the [`dcn_exec`] pool. Each sample draws from its own RNG stream
/// seeded by `task_seed(seed, sample_index)`, so the curve is byte-
/// identical at any `DCN_EXEC_THREADS` value (including 1). All samples
/// share the one [`CacheHandle`]; repeated failure patterns (and sweep
/// reruns) hit the cache without changing any output.
///
/// [`CacheHandle`]: dcn_cache::CacheHandle
///
/// With an exact matching backend, each sample re-matches from the
/// unfailed parent's Hungarian dual state (see `core::delta`), fetched
/// from the cache once *before* the fan-out, so every thread deltas off
/// the same duals at any `DCN_EXEC_THREADS`. The delta bound is
/// bit-identical to the cold exact bound, and any delta failure falls
/// back to the cold path per sample.
pub fn failure_sweep(
    topo: &Topology,
    fractions: &[f64],
    trials: u32,
    backend: MatchingBackend,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<Vec<FailurePoint>, CoreError> {
    let theta0 = tub(topo, backend, ctx)?.bound.min(1.0);
    let delta_parent = TubDeltaParent::prepare(topo, backend, ctx);
    let skipped_ctr = dcn_obs::counter!(dcn_obs::names::CORE_RESILIENCE_DISCONNECTED_SAMPLES);
    let trials = trials.max(1);
    // One task per (fraction, trial) sample; merged back per fraction.
    let samples: Vec<f64> = fractions
        .iter()
        .flat_map(|&f| std::iter::repeat_n(f, trials as usize))
        .collect();
    let results =
        Pool::from_env().par_map(ctx.budget, &samples, |i, &f| -> Result<_, CoreError> {
            let _sample = dcn_obs::span!(dcn_obs::names::CORE_RESILIENCE_SAMPLE);
            let mut rng = StdRng::seed_from_u64(task_seed(seed, i as u64));
            match fail_random_links(topo, f, &mut rng) {
                // No link failed, so the sample is the parent itself. Reusing
                // θ0 keeps identical samples from racing on one cache entry,
                // which would make the cache and solver counters depend on the
                // thread count.
                Ok(degraded) if degraded.graph().m() == topo.graph().m() => Ok(Some(theta0)),
                Ok(degraded) => {
                    let t = match &delta_parent {
                        Some(p) => p.tub_or_cold(&degraded, backend, ctx)?,
                        None => tub(&degraded, backend, ctx)?,
                    };
                    Ok(Some(t.bound.min(1.0)))
                }
                Err(_) => {
                    skipped_ctr.inc();
                    Ok(None)
                }
            }
        })?;
    let out = fractions
        .iter()
        .enumerate()
        .map(|(fi, &f)| {
            let per_fraction = &results[fi * trials as usize..(fi + 1) * trials as usize];
            let ok = per_fraction.iter().flatten().count() as u32;
            let sum: f64 = per_fraction.iter().flatten().sum();
            FailurePoint {
                fraction: f,
                nominal: (1.0 - f) * theta0,
                actual: (ok > 0).then(|| sum / ok as f64),
                trials: ok,
            }
        })
        .collect();
    Ok(out)
}

/// Root-mean-square deviation of actual from nominal over a sweep
/// (Figure 10(c)). Empty points (`trials == 0`, no connected sample) are
/// excluded from the mean rather than counted as zero-throughput; a sweep
/// consisting only of empty points has deviation 0.
pub fn rms_deviation(points: &[FailurePoint]) -> f64 {
    let deviations: Vec<f64> = points.iter().filter_map(FailurePoint::deviation).collect();
    if deviations.is_empty() {
        return 0.0;
    }
    let sum: f64 = deviations.iter().map(|d| d.powi(2)).sum();
    (sum / deviations.len() as f64).sqrt()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact oracles and bit-identical reruns")]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::jellyfish;

    #[test]
    fn sweep_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = jellyfish(40, 8, 4, &mut rng).unwrap();
        let pts = failure_sweep(
            &t,
            &[0.0, 0.1, 0.2],
            2,
            MatchingBackend::Exact,
            5,
            &unlimited_ctx(),
        )
        .unwrap();
        assert_eq!(pts.len(), 3);
        // Zero failures: actual == nominal == θ0.
        assert!((pts[0].nominal - pts[0].actual.unwrap()).abs() < 1e-9);
        // Nominal decreases linearly.
        assert!(pts[1].nominal < pts[0].nominal);
        assert!(pts[2].nominal < pts[1].nominal);
        // Actual can never exceed 1 and stays non-negative.
        for p in &pts {
            let a = p.actual.expect("connected samples at low f");
            assert!((0.0..=1.0 + 1e-9).contains(&a), "{p:?}");
            assert!(p.trials > 0);
        }
    }

    #[test]
    fn rms_zero_for_perfect_resilience() {
        let pts = vec![
            FailurePoint {
                fraction: 0.1,
                nominal: 0.9,
                actual: Some(0.9),
                trials: 1,
            },
            FailurePoint {
                fraction: 0.2,
                nominal: 0.8,
                actual: Some(0.8),
                trials: 1,
            },
        ];
        assert_eq!(rms_deviation(&pts), 0.0);
        assert_eq!(rms_deviation(&[]), 0.0);
    }

    #[test]
    fn rms_positive_when_degrading_badly() {
        let pts = vec![FailurePoint {
            fraction: 0.1,
            nominal: 0.9,
            actual: Some(0.7),
            trials: 1,
        }];
        assert!((rms_deviation(&pts) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_points_are_excluded_not_zeroed() {
        // One real point with zero deviation plus one empty point: the
        // old behavior treated the empty point as actual = 0.0 and
        // reported a huge spurious deviation; now it is skipped.
        let pts = vec![
            FailurePoint {
                fraction: 0.1,
                nominal: 0.9,
                actual: Some(0.9),
                trials: 3,
            },
            FailurePoint {
                fraction: 0.9,
                nominal: 0.1,
                actual: None,
                trials: 0,
            },
        ];
        assert_eq!(rms_deviation(&pts), 0.0);
        assert_eq!(pts[1].deviation(), None);
        // A sweep made only of empty points degrades to 0, not NaN.
        assert_eq!(rms_deviation(&pts[1..]), 0.0);
    }
}
