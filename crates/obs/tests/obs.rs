//! Integration tests for dcn-obs: histogram quantile accuracy on known
//! distributions, overflow-free and concurrent histogram sums, concurrent
//! counter increments, nested-span attribution, and manifest round-trips.
//!
//! All tests share one process, so observability is forced on once before
//! the mode is first read (spans are inert under the default `off`). The
//! metric macros accept only registered names, so these tests register
//! their own test-only names through the functions the macros call.

#![expect(
    clippy::disallowed_methods,
    reason = "the concurrency tests drive the registry from several threads"
)]

use dcn_obs::manifest::RunManifest;
use dcn_obs::{register_counter, register_gauge, register_histogram, SpanGuard};
use std::sync::OnceLock;

/// Forces `DCN_OBS=summary` before anything reads the mode.
fn init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        std::env::set_var("DCN_OBS", "summary");
        assert_eq!(dcn_obs::mode(), dcn_obs::Mode::Summary);
    });
}

#[test]
fn histogram_quantiles_on_uniform_distribution() {
    init();
    let h = register_histogram("obs.itest.uniform");
    for v in 1..=1000u64 {
        h.record_u64(v);
    }
    assert_eq!(h.count(), 1000);
    // Log-bucketing guarantees ~9% relative accuracy per bucket; allow 15%.
    for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
        let got = h.quantile(q);
        assert!(
            (got - expect).abs() / expect < 0.15,
            "p{q}: got {got}, want ~{expect}"
        );
    }
    let mean = h.mean();
    assert!((mean - 500.5).abs() < 1.0, "mean {mean}");
}

#[test]
fn histogram_quantiles_on_bimodal_distribution() {
    init();
    let h = register_histogram("obs.itest.bimodal");
    // 90 samples at ~1ms, 10 at ~1s: p50 must sit in the low mode, p99 in
    // the high one — the shape a solver's per-phase timing typically has.
    for _ in 0..90 {
        h.record(1e-3);
    }
    for _ in 0..10 {
        h.record(1.0);
    }
    let p50 = h.quantile(0.5);
    let p99 = h.quantile(0.99);
    assert!((5e-4..2e-3).contains(&p50), "p50 {p50}");
    assert!((0.5..2.0).contains(&p99), "p99 {p99}");
    assert!(h.max_estimate() >= 0.5);
}

#[test]
fn histogram_extremes_clamp_not_panic() {
    init();
    let h = register_histogram("obs.itest.extremes");
    for v in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, 1e-300] {
        h.record(v);
    }
    assert_eq!(h.count(), 6);
    assert!(h.quantile(1.0).is_finite());
}

#[test]
fn histogram_sum_of_nanosecond_samples_does_not_wrap() {
    init();
    // 25 s of busy time recorded in nanoseconds, as `exec.pool.worker_busy_ns`
    // does: a sum kept in integer nano-units would overflow u64 at ~18 s.
    let h = register_histogram("obs.itest.ns_sum");
    for _ in 0..25 {
        h.record(1e9);
    }
    assert_eq!(h.sum(), 2.5e10);
}

#[test]
fn concurrent_histogram_sums_lose_nothing() {
    init();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;
    let h = register_histogram("obs.itest.concurrent_sum");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    h.record(1.0);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    assert_eq!(h.sum(), (THREADS as u64 * PER_THREAD) as f64);
}

#[test]
fn concurrent_counter_increments_lose_nothing() {
    init();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let before = dcn_obs::counter_value("obs.itest.concurrent");
    let c = register_counter("obs.itest.concurrent");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    let after = dcn_obs::counter_value("obs.itest.concurrent");
    assert_eq!(after - before, THREADS as u64 * PER_THREAD);
}

#[test]
fn nested_spans_attribute_child_time_to_parent_total_only() {
    init();
    {
        let _outer = SpanGuard::enter("obs.itest.outer");
        std::thread::sleep(std::time::Duration::from_millis(30));
        {
            let _inner = SpanGuard::enter("obs.itest.inner");
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
    }
    let spans = dcn_obs::span_snapshot();
    let get = |p: &str| {
        spans
            .iter()
            .find(|(path, _)| path == p)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| panic!("span {p} missing from {spans:?}"))
    };
    let outer = get("obs.itest.outer");
    let inner = get("obs.itest.outer/obs.itest.inner");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    // Outer total covers both sleeps; outer self excludes the inner one.
    assert!(
        outer.total_secs >= 0.055,
        "outer total {}",
        outer.total_secs
    );
    assert!(
        inner.total_secs >= 0.025,
        "inner total {}",
        inner.total_secs
    );
    assert!(
        outer.self_secs <= outer.total_secs - inner.total_secs + 0.02,
        "outer self {} should exclude inner {}",
        outer.self_secs,
        inner.total_secs
    );
}

#[test]
fn time_scope_returns_value_and_elapsed() {
    init();
    let (val, secs) = dcn_obs::time_scope("obs.itest.timed", || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        42
    });
    assert_eq!(val, 42);
    assert!(secs >= 0.005, "elapsed {secs}");
}

#[test]
fn manifest_captures_registry_and_round_trips() {
    init();
    register_counter("obs.itest.manifest_counter").add(7);
    register_gauge("obs.itest.manifest_gauge").set(0.75);
    register_histogram("obs.itest.manifest_hist").record(2.0);
    let m = RunManifest::capture("itest", Some(1234), 0.5, 4);
    assert_eq!(m.seed, Some(1234));
    assert_eq!(m.threads, 4);
    assert_eq!(m.mode, "summary");
    assert!(
        m.metric_field("obs.itest.manifest_counter", "value")
            .unwrap()
            >= 7.0
    );
    assert_eq!(
        m.metric_field("obs.itest.manifest_gauge", "value"),
        Some(0.75)
    );
    assert!(m.metric_field("obs.itest.manifest_hist", "count").unwrap() >= 1.0);

    let text = m.to_json();
    let back = RunManifest::from_json(&text).unwrap();
    assert_eq!(back, m);

    // And survives a disk round-trip through write_to.
    let dir = std::env::temp_dir().join("dcn-obs-itest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("itest.manifest.json");
    m.write_to(&path).unwrap();
    let loaded = RunManifest::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, m);
}

#[test]
fn summary_lists_live_metrics_only() {
    init();
    register_counter("obs.itest.summary_live").inc();
    let _dead = register_counter("obs.itest.summary_dead");
    let text = dcn_obs::summary();
    assert!(text.contains("obs.itest.summary_live"));
    assert!(
        !text.contains("obs.itest.summary_dead"),
        "zero counters elided"
    );
}
