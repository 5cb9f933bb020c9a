//! Integration test pinning cross-thread span attribution: spans opened
//! inside `Pool::par_map` tasks must land on identical hierarchical paths
//! with identical counts whether the pool runs 1 worker (serial path, on
//! the caller thread) or 4 (scoped workers inheriting the caller's span
//! path as thread span parent).
//!
//! Single test function on purpose: it uses `dcn_obs::reset()` between
//! phases, which would race concurrently-running sibling tests.

use dcn_exec::Pool;
use dcn_guard::{Budget, BudgetError};
use std::sync::OnceLock;

/// Forces `DCN_OBS=summary` before anything reads the mode (spans are
/// inert under the default `off`).
fn init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        std::env::set_var("DCN_OBS", "summary");
        assert_eq!(dcn_obs::mode(), dcn_obs::Mode::Summary);
    });
}

fn sweep_span_counts(threads: usize) -> Vec<(String, u64)> {
    dcn_obs::reset();
    let items: Vec<u64> = (0..24).collect();
    let out = {
        let _sweep = dcn_obs::SpanGuard::enter("exec.itest.sweep");
        Pool::new(threads)
            .par_map(&Budget::unlimited(), &items, |i, &x| {
                let _cell = dcn_obs::SpanGuard::enter("exec.itest.cell");
                Ok::<_, BudgetError>(x * 2 + i as u64)
            })
            .expect("sweep")
    };
    assert_eq!(out, (0..24).map(|x| x * 3).collect::<Vec<u64>>());
    dcn_obs::span_snapshot()
        .into_iter()
        .map(|(path, stat)| (path, stat.count))
        .collect()
}

#[test]
fn span_attribution_identical_at_1_and_4_threads() {
    init();
    let serial = sweep_span_counts(1);
    let parallel = sweep_span_counts(4);
    assert_eq!(
        serial, parallel,
        "span paths/counts must not depend on worker count"
    );
    // Pin the exact attribution tree: tasks nest under the submitting
    // sweep span, and task-interior spans nest under the task span.
    let expect: Vec<(String, u64)> = vec![
        ("exec.itest.sweep".into(), 1),
        ("exec.itest.sweep/exec.pool.task".into(), 24),
        ("exec.itest.sweep/exec.pool.task/exec.itest.cell".into(), 24),
    ];
    assert_eq!(serial, expect);

    // Without an enclosing span, tasks become roots on both paths.
    dcn_obs::reset();
    let items = [1u64, 2, 3];
    for threads in [1, 4] {
        Pool::new(threads)
            .par_map(&Budget::unlimited(), &items, |_, &x| {
                Ok::<_, BudgetError>(x)
            })
            .expect("rootless sweep");
    }
    let roots: Vec<(String, u64)> = dcn_obs::span_snapshot()
        .into_iter()
        .map(|(path, stat)| (path, stat.count))
        .collect();
    assert_eq!(roots, vec![("exec.pool.task".into(), 6)]);
}
