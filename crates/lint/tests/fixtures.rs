//! Integration tests over the seeded fixture corpora.
//!
//! `fixtures/violations/` carries seeded violations of every domain rule:
//! three for float-eq (the `== 0.0`, `!= 0.0`, and `== 1.0` patterns)
//! plus one under an unjustified allow for allow-justification; a raw
//! `trace_instant` name among the metric-registry cases; an out-of-order
//! nested SPANS→REGISTRY acquisition for lock-order; an `fs::write`
//! under the `drained` guard for blocking-under-lock; a non-literal
//! ordering plus a stray SeqCst for atomic-ordering; an unregistered
//! `DCN_*` literal, a dead registry entry, and a misnamed one for
//! env-registry; and a stale allow for unused-allow. `fixtures/clean/`
//! carries the same shapes, each suppressed by a justified allow. The
//! assertions pin the exact (rule, file, line) triples and the CLI exit
//! codes.

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI tests run the dcn-lint binary as a child process"
)]

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_tree_yields_exact_diagnostics() {
    let report = dcn_lint::lint_root(&fixture("violations")).expect("lint violations tree");
    let got: Vec<(String, String, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule.to_string(), d.file.clone(), d.line))
        .collect();
    let expected: Vec<(&str, &str, usize)> = vec![
        ("atomic-ordering", "crates/cache/src/atomics.rs", 13),
        ("atomic-ordering", "crates/cache/src/atomics.rs", 18),
        ("env-registry", "crates/cache/src/reads.rs", 5),
        ("metric-registry", "crates/core/src/metrics.rs", 6),
        ("metric-registry", "crates/core/src/metrics.rs", 7),
        ("metric-registry", "crates/core/src/metrics.rs", 12),
        ("budget-coverage", "crates/graph/src/looping.rs", 4),
        ("unused-allow", "crates/graph/src/looping.rs", 12),
        ("budget-coverage", "crates/graph/src/looping.rs", 17),
        ("float-eq", "crates/lp/src/floats.rs", 5),
        ("float-eq", "crates/lp/src/floats.rs", 10),
        ("float-eq", "crates/lp/src/floats.rs", 15),
        ("allow-justification", "crates/lp/src/floats.rs", 20),
        ("float-eq", "crates/lp/src/floats.rs", 21),
        ("blocking-under-lock", "crates/obs/src/blocking.rs", 13),
        ("env-registry", "crates/obs/src/env.rs", 21),
        ("env-registry", "crates/obs/src/env.rs", 29),
        ("lock-order", "crates/obs/src/locks.rs", 15),
        ("metric-registry", "crates/obs/src/names.rs", 6),
        ("metric-registry", "crates/obs/src/names.rs", 8),
    ];
    let expected: Vec<(String, String, usize)> = expected
        .into_iter()
        .map(|(r, f, l)| (r.to_string(), f.to_string(), l))
        .collect();
    assert_eq!(got, expected);
    assert_eq!(report.allows_honored, 0);
}

#[test]
fn clean_tree_is_quiet_and_honors_allows() {
    let report = dcn_lint::lint_root(&fixture("clean")).expect("lint clean tree");
    assert!(
        report.diagnostics.is_empty(),
        "clean tree produced {:?}",
        report.diagnostics
    );
    // One justified allow per domain rule (float-eq, budget-coverage,
    // metric-registry, env-registry, lock-order, blocking-under-lock,
    // atomic-ordering), plus a metric-registry allow at a `trace_instant`
    // call site and a budget-coverage allow on a staged legacy twin-tail
    // signature awaiting its `&SolveCtx` migration.
    assert_eq!(report.allows_honored, 9);
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dcn-lint"))
        .args(args)
        .output()
        .expect("spawn dcn-lint")
}

#[test]
fn deny_exits_nonzero_on_violations() {
    let root = fixture("violations");
    let out = run_cli(&["--root", root.to_str().expect("utf8 path"), "--deny"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/lp/src/floats.rs:5: error[float-eq]"), "{stdout}");
    assert!(stdout.contains("crates/obs/src/locks.rs:15: error[lock-order]"), "{stdout}");
}

#[test]
fn advisory_mode_exits_zero_on_violations() {
    let root = fixture("violations");
    let out = run_cli(&["--root", root.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn deny_exits_zero_on_clean_tree() {
    let root = fixture("clean");
    let out = run_cli(&["--root", root.to_str().expect("utf8 path"), "--deny"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 diagnostics"), "{stdout}");
}

#[test]
fn list_rules_prints_all_rule_ids() {
    let out = run_cli(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        [
            "float-eq",
            "budget-coverage",
            "metric-registry",
            "lock-order",
            "blocking-under-lock",
            "atomic-ordering",
            "env-registry",
            "allow-justification",
            "unused-allow",
        ]
    );
}

#[test]
fn workspace_itself_is_lint_clean() {
    // The repository root is two levels above crates/lint.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let report = dcn_lint::lint_root(&root).expect("lint workspace");
    assert!(
        report.diagnostics.is_empty(),
        "workspace regressed: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{} [{}]", d.file, d.line, d.rule))
            .collect::<Vec<_>>()
    );
}
