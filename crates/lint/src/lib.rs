//! dcn-lint: the one workspace invariant rustc and clippy cannot express.
//!
//! `budget-coverage` keeps the TUB pipeline answerable to deadlines:
//! every public solver function that loops takes a
//! [`Budget`](../dcn_guard/struct.Budget.html) or `SolveCtx`. The other
//! invariants are rustc, clippy, debug-build or test checks (DESIGN.md
//! §9). It has no dependencies and no Rust parser: a lossy scanner masks
//! comments and string contents while preserving byte offsets, which is
//! enough for this one rule.

mod rules;
mod scan;

pub use rules::Diagnostic;
use scan::SourceFile;
use std::path::Path;

/// Result of linting a tree.
pub struct Report {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Justified allow annotations that suppressed at least one finding.
    pub allows_honored: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints every `.rs` file under `root` outside build output (`target`),
/// vendored crates (`vendor`), hidden directories and the lint's fixture
/// corpus (`fixtures`, which seeds violations on purpose).
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let skip =
                matches!(name.as_ref(), "target" | "vendor" | "fixtures") || name.starts_with('.');
            if path.is_dir() && !skip {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile::new(rel, std::fs::read_to_string(&path)?));
            }
        }
    }
    let (diagnostics, allows_honored) = rules::run(&files);
    Ok(Report {
        diagnostics,
        allows_honored,
        files_scanned: files.len(),
    })
}
