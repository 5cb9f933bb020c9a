//! Integration tests over the seeded fixture corpus and the workspace.
//!
//! `fixtures/violations/` seeds `budget-coverage` three times (an
//! unbudgeted `while`, a legacy cache-and-budget twin tail, and a loop
//! under an allow with no justification, which also raises
//! `allow-justification`) and a stale allow for `unused-allow`. The
//! workspace itself is the clean tree: its four justified allows must
//! suppress every finding. The assertions pin the exact (rule, file,
//! line) triples and the CLI exit codes.

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI tests run the dcn-lint binary as a child process"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn violations() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_cli(root: &Path, deny: bool) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcn-lint"));
    cmd.arg("--root").arg(root);
    if deny {
        cmd.arg("--deny");
    }
    let Output { status, stdout, .. } = cmd.output().expect("spawn dcn-lint");
    (status.code(), String::from_utf8_lossy(&stdout).into_owned())
}

#[test]
fn violations_tree_yields_exact_diagnostics() {
    let report = dcn_lint::lint_root(&violations()).expect("lint violations tree");
    let got: Vec<(&str, &str, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    let file = "crates/graph/src/looping.rs";
    assert_eq!(
        got,
        [
            ("budget-coverage", file, 4),
            ("unused-allow", file, 12),
            ("budget-coverage", file, 17),
            ("allow-justification", file, 31),
            ("budget-coverage", file, 32),
        ]
    );
    assert_eq!(report.allows_honored, 0);
}

#[test]
fn workspace_itself_is_lint_clean() {
    let report = dcn_lint::lint_root(&workspace_root()).expect("lint workspace");
    let found: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{} [{}]", d.file, d.line, d.rule))
        .collect();
    assert!(found.is_empty(), "workspace regressed: {found:?}");
    assert!(
        report.allows_honored > 0,
        "the workspace's allows went unused"
    );
}

#[test]
fn deny_sets_the_exit_code() {
    let (code, stdout) = run_cli(&violations(), true);
    assert_eq!(code, Some(1));
    let first = "crates/graph/src/looping.rs:4: error[budget-coverage]";
    assert!(stdout.contains(first), "{stdout}");
    assert_eq!(run_cli(&violations(), false).0, Some(0), "advisory mode");
    let (code, stdout) = run_cli(&workspace_root(), true);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains(" 0 diagnostics"), "{stdout}");
}
