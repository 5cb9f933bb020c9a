//! The metric-name and environment-variable registries stay whole: every
//! constant is listed in its `ALL` table and used by some library or
//! binary source outside the registry, and README's environment table
//! matches `dcn_obs::env`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `src/` and `crates/*/src/` (path, text with
/// `//` comments cut off each line).
fn sources() -> Vec<(PathBuf, String)> {
    let root = workspace_root();
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    let mut dirs: Vec<PathBuf> = crates
        .map(|e| e.expect("entry").path().join("src"))
        .collect();
    dirs.push(root.join("src"));
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
        {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                let code = text
                    .lines()
                    .map(|l| l.split("//").next().unwrap_or_default());
                out.push((path, code.collect::<Vec<_>>().join("\n")));
            }
        }
    }
    out
}

/// Checks the registry `crates/obs/src/<module>.rs` (text `src`): each
/// `pub const IDENT: <ty>` is listed in its `ALL` table, and some other
/// source names `<module>::IDENT`.
fn check_registry(module: &str, src: &str, ty: &str) {
    let file = format!("crates/obs/src/{module}.rs");
    let table = &src[src.find("pub const ALL").expect("an ALL table")..];
    let table = &table[table.find("= &[").expect("ALL's initializer") + 4..];
    let listed: Vec<&str> = table[..table.find("];").expect("ALL's end")]
        .split(',')
        .map(|s| s.trim().trim_start_matches('&'))
        .collect();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let sources = sources();
    let mut checked = 0;
    for line in src.lines() {
        let Some((ident, rest)) = line
            .strip_prefix("pub const ")
            .and_then(|l| l.split_once(':'))
        else {
            continue;
        };
        if !ident.chars().all(is_ident) || !rest.trim_start().starts_with(ty) {
            continue;
        }
        checked += 1;
        assert!(
            listed.contains(&ident),
            "{file}: `{ident}` is missing from ALL"
        );
        // `<module>::IDENT` with no identifier character on either side.
        let path = format!("{module}::{ident}");
        let used = sources
            .iter()
            .filter(|(p, _)| !p.ends_with(&file))
            .any(|(_, code)| {
                code.match_indices(&path).any(|(at, _)| {
                    !code[..at].ends_with(is_ident)
                        && !code[at + path.len()..].starts_with(is_ident)
                })
            });
        assert!(
            used,
            "{file}: nothing outside it uses `{ident}`; delete it or wire it up"
        );
    }
    assert!(checked > 0, "no `{ty}` constants parsed from {file}");
}

#[test]
fn every_metric_name_is_listed_and_used() {
    check_registry("names", include_str!("../src/names.rs"), "&str");
}

#[test]
fn every_env_var_is_listed_and_read() {
    check_registry("env", include_str!("../src/env.rs"), "EnvVar");
}

#[test]
fn readme_env_table_matches_the_registry() {
    let readme =
        std::fs::read_to_string(workspace_root().join("README.md")).expect("read README.md");
    let (begin, end) = ("<!-- dcn-env:begin -->\n", "<!-- dcn-env:end -->");
    let start = readme
        .find(begin)
        .expect("README lacks the dcn-env markers")
        + begin.len();
    let stop = start
        + readme[start..]
            .find(end)
            .expect("README lacks the end marker");
    let expected = dcn_obs::env::readme_table();
    assert!(
        readme[start..stop] == expected,
        "README's environment table differs from dcn_obs::env; paste this \
         between the dcn-env markers:\n{expected}"
    );
}
