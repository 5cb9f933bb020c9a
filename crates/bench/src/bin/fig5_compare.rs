//! Figure 5: tub vs prior estimators — accuracy and efficiency.
//!
//! (a/b) Small-to-medium Jellyfish: per-estimator throughput gap against
//!       the KSP-MCF reference, and wall time.
//! (c/d) `--large`: bigger instances where MCF is off the table; absolute
//!       estimates and wall time for the scalable estimators only
//!       (tub / bbw / singla), matching the paper's large-scale panel.
//!
//! Paper setup: Jellyfish H=8, R=32, N to 25K (small) / 300K (large).
//! Scaled: H=4, R=12, switches to 240 (small) / 4K (large).
//!
//! Expected shape (paper): tub has the smallest gap; HM/JM are loose and
//! slow; bbw and singla are fast but considerably off; sc sits between.

use dcn_bench::{f3, large_mode, quick_mode, run_guarded, timed, Table};
use std::process::ExitCode;
use dcn_core::frontier::Family;
use dcn_core::MatchingBackend;
use dcn_estimators::{
    BbwProxy, HoeflerMethod, JainMethod, SinglaBound, SparsestCut, ThroughputEstimator,
    TubEstimator,
};
use dcn_mcf::{ksp_mcf_throughput, Engine};
use dcn_cache::SolveCtx;

fn estimators(k: usize) -> Vec<Box<dyn ThroughputEstimator>> {
    vec![
        Box::new(TubEstimator {
            backend: MatchingBackend::Auto { exact_below: 500 },
        }),
        Box::new(BbwProxy { tries: 4, seed: 9 }),
        Box::new(SparsestCut { power_iters: 200 }),
        Box::new(SinglaBound),
        Box::new(HoeflerMethod { k }),
        Box::new(JainMethod { k }),
    ]
}

fn main() -> ExitCode {
    run_guarded("fig5_compare", || {
        dcn_bench::set_run_seed(9);
        let radix = 12u32;
        let h = 4u32;
        let family = Family::Jellyfish;
        if large_mode() {
            run_large(family, radix, h)
        } else {
            run_small(family, radix, h)
        }
    })
}

fn run_small(family: Family, radix: u32, h: u32) -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let sizes: &[usize] = if quick_mode() {
        &[24, 64]
    } else {
        &[24, 48, 96, 160, 240]
    };
    let mut table = Table::new(
        "fig5ab_compare",
        &["switches", "estimator", "estimate", "reference", "gap", "seconds"],
    );
    for &n_sw in sizes {
        let topo = family.build(n_sw, radix, h, 11)?;
        let t = dcn_core::tub(&topo, MatchingBackend::Exact, &sctx)?;
        let tm = t.traffic_matrix(&topo)?;
        // Reference: KSP-MCF feasible throughput at the maximal permutation.
        let reference = ksp_mcf_throughput(&topo, &tm, 32, Engine::Fptas { eps: 0.03 }, &sctx)?
            .theta_lb
            .min(1.0);
        for est in estimators(32) {
            let (value, secs) = timed(|| est.estimate(&topo, &tm, &sctx));
            let value = value?;
            let gap = (value.min(1.0) - reference).abs();
            table.row(&[
                &topo.n_switches(),
                &est.name(),
                &f3(value),
                &f3(reference),
                &f3(gap),
                &format!("{secs:.3}"),
            ]);
        }
    }
    table.finish()?;
    Ok(())
}

fn run_large(family: Family, radix: u32, h: u32) -> Result<(), Box<dyn std::error::Error>> {
    let cache = dcn_bench::cache();
    let sctx = SolveCtx::unlimited(&cache);
    let sizes: &[usize] = if quick_mode() {
        &[512, 1024]
    } else {
        &[512, 1024, 2048, 4096]
    };
    let mut table = Table::new(
        "fig5cd_large",
        &["switches", "servers", "estimator", "estimate", "seconds"],
    );
    for &n_sw in sizes {
        let topo = family.build(n_sw, radix, h, 13)?;
        let scalable: Vec<Box<dyn ThroughputEstimator>> = vec![
            Box::new(TubEstimator {
                backend: MatchingBackend::Greedy {
                    improvement_passes: 2,
                },
            }),
            Box::new(BbwProxy { tries: 2, seed: 9 }),
            Box::new(SinglaBound),
        ];
        // Dummy TM (ignored by all three scalable estimators).
        let t = dcn_core::tub(
            &topo,
            MatchingBackend::Greedy {
                improvement_passes: 0,
            },
            &sctx,
        )?;
        let tm = t.traffic_matrix(&topo)?;
        for est in scalable {
            let (value, secs) = timed(|| est.estimate(&topo, &tm, &sctx));
            let value = value?;
            table.row(&[
                &topo.n_switches(),
                &topo.n_servers(),
                &est.name(),
                &f3(value),
                &format!("{secs:.3}"),
            ]);
        }
    }
    table.finish()?;
    Ok(())
}
