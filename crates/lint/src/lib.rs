//! dcn-lint: a self-contained static-analysis pass over the workspace's
//! own Rust sources, for the invariants rustc and clippy cannot express.
//!
//! The linter enforces the domain rules that keep the TUB pipeline
//! honest: every unbounded solver loop answers to a
//! [`Budget`](../dcn_guard/struct.Budget.html), float comparisons go
//! through tolerance helpers, metric names live in one registry, locks
//! are acquired in one declared order and never held across blocking
//! calls, atomics spell out their memory orderings, and every `DCN_*`
//! environment knob is registered in `dcn_obs::env` and mirrored in
//! the README. The generic invariants (no panics in solver crates, no
//! `unsafe`, documented public items, clocks/threads/processes/env reads
//! only where allowed) are rustc and clippy lints: see
//! `[workspace.lints]` in the root `Cargo.toml` and `clippy.toml`.
//!
//! It has **no dependencies** and no real Rust parser: a lossy scanner
//! ([`scan`]) masks comments and string contents while preserving byte
//! offsets, which is enough for the token-level rules in [`rules`]. The
//! engine is two-pass and serial: pass 1 builds a workspace symbol
//! [`index`] (each file parsed exactly once), pass 2 runs the rules
//! against it. The trade-offs of the lossy scan are documented in
//! DESIGN.md §9/§14.

pub mod index;
pub mod rules;
pub mod scan;

use rules::Diagnostic;
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Result of linting a tree.
pub struct Report {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Justified allow annotations that suppressed at least one finding.
    pub allows_honored: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directory names never descended into: build output, vendored deps,
/// VCS metadata, and the lint fixture corpus (which contains deliberate
/// violations).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Collects every `.rs` file under `root`, relative paths sorted.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace rooted at `root` and returns the report.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for p in collect_sources(root)? {
        let raw = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::new(rel, raw));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    let outcome = rules::run_all_with(&files, readme.as_deref());
    Ok(Report {
        diagnostics: outcome.diagnostics,
        allows_honored: outcome.allows_honored,
        files_scanned: files.len(),
    })
}

/// Renders the expected README environment-variable table for the tree
/// at `root` (the `--env-table` CLI mode). Errors when the tree has no
/// env registry to generate from.
pub fn env_table_for_root(root: &Path) -> std::io::Result<String> {
    let path = root.join(index::ENV_REGISTRY_REL);
    let raw = std::fs::read_to_string(&path)?;
    let f = SourceFile::new(index::ENV_REGISTRY_REL.to_string(), raw);
    Ok(index::env_table(&index::parse_env_registry(&f)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_list_covers_fixture_corpus() {
        assert!(SKIP_DIRS.contains(&"fixtures"));
        assert!(SKIP_DIRS.contains(&"vendor"));
    }
}
