//! Every package of the workspace inherits `[workspace.lints]`, and the
//! crate roots keep the lint levels they set themselves.
//!
//! rustc and clippy enforce the generic invariants (no `unsafe`,
//! documented public items, `#[expect]` with a reason instead of
//! `#[allow]`, and the `clippy.toml` bans) only in packages whose
//! manifest opts in with `[lints] workspace = true`. A crate that leaves
//! the table out would skip all of them without a warning, and so would
//! a crate root that lost one of its `#![warn(…)]` lines.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// True when `manifest` has a `[lints]` table that sets `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
        } else if in_lints && t.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn lints_table_detection() {
    assert!(inherits_workspace_lints(
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!inherits_workspace_lints("[lints]\nworkspace = false\n"));
    assert!(!inherits_workspace_lints(
        "[lints]\n\n[dependencies]\nworkspace = true\n"
    ));
    assert!(!inherits_workspace_lints(
        "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"
    ));
}

#[test]
fn root_and_every_crate_inherit_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() > 1,
        "no crates found under {}",
        root.display()
    );
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| !inherits_workspace_lints(&std::fs::read_to_string(m).expect("read manifest")))
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests lack `[lints] workspace = true`: {missing:?}"
    );
}

#[test]
fn workspace_table_forbids_unsafe_and_requires_docs() {
    let text = std::fs::read_to_string(workspace_root().join("Cargo.toml")).expect("read root");
    let lines: Vec<String> = text.lines().map(|l| l.replace(' ', "")).collect();
    for needed in [
        "[workspace.lints.rust]",
        "unsafe_code=\"forbid\"",
        "missing_docs=\"warn\"",
    ] {
        assert!(
            lines.iter().any(|l| l == needed),
            "root Cargo.toml lacks `{needed}`"
        );
    }
}

/// The lints a crate root enables with `#![warn(…)]` attributes.
fn root_warns(krate: &str) -> Vec<String> {
    let path = workspace_root()
        .join("crates")
        .join(krate)
        .join("src/lib.rs");
    let text = std::fs::read_to_string(&path).expect("read crate root");
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("#![warn(")?.strip_suffix(")]"))
        .flat_map(|list| list.split(',').map(|lint| lint.trim().to_string()))
        .collect()
}

#[test]
fn solver_and_panic_free_roots_keep_their_lint_levels() {
    let panic = "unwrap_used expect_used panic unreachable todo unimplemented";
    for krate in "lp mcf graph match partition core estimators obs".split(' ') {
        let float = if krate == "obs" {
            ""
        } else {
            "float_cmp float_cmp_const"
        };
        let warns = root_warns(krate);
        for lint in panic.split(' ').chain(float.split_whitespace()) {
            assert!(
                warns.contains(&format!("clippy::{lint}")),
                "crates/{krate}/src/lib.rs no longer sets #![warn(clippy::{lint})]"
            );
        }
    }
}
