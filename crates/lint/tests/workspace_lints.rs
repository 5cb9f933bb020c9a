//! Every package of the workspace inherits `[workspace.lints]`.
//!
//! rustc and clippy enforce the generic invariants (no `unsafe`,
//! documented public items, `#[expect]` with a reason instead of
//! `#[allow]`, and the `clippy.toml` bans) only in packages whose
//! manifest opts in with `[lints] workspace = true`. A crate that leaves
//! the table out would skip all of them without a warning.

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
