//! Pass 1 of the two-pass analyzer: a lightweight workspace symbol index.
//!
//! The per-file scanner ([`crate::scan`]) is lossy and local; the
//! concurrency rules added in dcn-lint v2 need *cross-file* facts: which
//! identifiers are declared as `Mutex`/`RwLock` fields or statics (so a
//! `.lock()`/`.read()`/`.write()` call can be classified as a guard
//! acquisition rather than, say, `io::Read::read`), which identifiers
//! are declared with atomic types (so `.load(…)`/`.store(…)` can be told
//! apart from ordinary methods of the same name), where every `fn` body
//! begins and ends (shared by budget-coverage and the guard-region
//! analysis), and what the `dcn_obs::env` registry declares.
//!
//! [`index_file`] extracts one file's contribution; [`WorkspaceIndex::build`]
//! merges all of them.
//!
//! Known limitations (same spirit as DESIGN.md §9): declarations are
//! recognized from `ident: Mutex<…>` / `ident: Atomic…` type ascriptions
//! and `let ident = Atomic…::new(…)` initializers; an untyped
//! `let m = Mutex::new(…)` local is invisible, and a guard returned from
//! a helper function escapes the per-function region analysis.

use crate::scan::{word_occurrences, SourceFile};
use std::collections::BTreeSet;

/// One `fn` definition with byte offsets into the file's masked text.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// True for plain `pub fn` (not `pub(crate)`; restricted visibility
    /// is not public API).
    pub is_pub: bool,
    /// Offset of the `fn` keyword (signature start).
    pub sig_start: usize,
    /// Offset of the opening `{` of the body.
    pub body_start: usize,
    /// Offset one past the closing `}` of the body.
    pub body_end: usize,
}

/// One identifier declared with a `Mutex<…>` or `RwLock<…>` type.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// The declared field/static identifier.
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// One entry parsed from the `dcn_obs::env` registry source
/// (`pub const IDENT: EnvVar = EnvVar { name: "…", default: "…", doc: "…" };`).
#[derive(Debug, Clone)]
pub struct EnvEntry {
    /// The Rust constant identifier.
    pub ident: String,
    /// The variable name (first string literal of the initializer).
    pub name: String,
    /// The human-readable default (second literal).
    pub default: String,
    /// The one-line description (third literal).
    pub doc: String,
    /// 1-based line of the `const`.
    pub line: usize,
}

/// One file's contribution to the workspace index.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// Every `fn` with a body, in source order.
    pub fns: Vec<FnDef>,
    /// Identifiers declared here with lock types.
    pub lock_decls: Vec<LockDecl>,
    /// Identifiers declared here with atomic types.
    pub atomic_idents: Vec<String>,
}

/// The merged pass-1 index the cross-file rules consume.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Parallel to the scanned file list.
    pub files: Vec<FileIndex>,
    /// Union of every file's atomic identifiers.
    pub atomic_idents: BTreeSet<String>,
    /// Union of every file's lock identifiers.
    pub lock_idents: BTreeSet<String>,
    /// The parsed `dcn_obs::env` registry (empty when the tree has no
    /// registry file — rules gate on this).
    pub env_entries: Vec<EnvEntry>,
}

/// Path of the env registry source inside a lint tree.
pub const ENV_REGISTRY_REL: &str = "crates/obs/src/env.rs";

impl WorkspaceIndex {
    /// Builds the index from per-file contributions (parallel to `files`).
    pub fn build(files: &[SourceFile], per_file: Vec<FileIndex>) -> WorkspaceIndex {
        let mut idx = WorkspaceIndex {
            files: per_file,
            ..WorkspaceIndex::default()
        };
        for fi in &idx.files {
            idx.atomic_idents.extend(fi.atomic_idents.iter().cloned());
            idx.lock_idents
                .extend(fi.lock_decls.iter().map(|d| d.name.clone()));
        }
        if let Some(env_file) = files.iter().find(|f| f.rel == ENV_REGISTRY_REL) {
            idx.env_entries = parse_env_registry(env_file);
        }
        idx
    }
}

/// Extracts one file's [`FileIndex`]. Pure function of the scanned file.
pub fn index_file(f: &SourceFile) -> FileIndex {
    FileIndex {
        fns: collect_fns(f),
        lock_decls: collect_lock_decls(f),
        atomic_idents: collect_atomic_idents(f),
    }
}

/// The identifier ending at masked offset `end` (exclusive), after
/// trimming trailing whitespace. Empty when the preceding token is not
/// an identifier.
pub(crate) fn ident_before(masked: &str, end: usize) -> &str {
    let b = masked.as_bytes();
    let mut hi = end;
    while hi > 0 && b[hi - 1].is_ascii_whitespace() {
        hi -= 1;
    }
    let mut lo = hi;
    while lo > 0 && (b[lo - 1].is_ascii_alphanumeric() || b[lo - 1] == b'_') {
        lo -= 1;
    }
    &masked[lo..hi]
}

fn collect_fns(f: &SourceFile) -> Vec<FnDef> {
    let mut out = Vec::new();
    for at in word_occurrences(&f.masked, "fn") {
        let after = &f.masked[at + 2..];
        let name: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let Some(rel_open) = f.masked[at..].find(['{', ';']) else {
            continue;
        };
        let open = at + rel_open;
        if f.masked.as_bytes()[open] != b'{' {
            continue; // bodyless (trait method / extern decl)
        }
        let Some(close) = crate::scan::match_brace(&f.masked, open) else {
            continue;
        };
        out.push(FnDef {
            name,
            is_pub: ident_before(&f.masked, at) == "pub",
            sig_start: at,
            body_start: open,
            body_end: close,
        });
    }
    out
}

fn collect_lock_decls(f: &SourceFile) -> Vec<LockDecl> {
    let mut out = Vec::new();
    for ty in ["Mutex<", "RwLock<"] {
        let mut from = 0;
        while let Some(p) = f.masked[from..].find(ty) {
            let at = from + p;
            from = at + ty.len();
            // A declaration looks like `ident: Mutex<…>` (fields, statics,
            // typed lets), possibly through wrapper generics such as
            // `shards: Vec<RwLock<Shard>>`. Walk back over any `Wrapper<`
            // layers, then over the `:`.
            let b = f.masked.as_bytes();
            let mut k = at;
            loop {
                while k > 0 && b[k - 1].is_ascii_whitespace() {
                    k -= 1;
                }
                if k == 0 || b[k - 1] != b'<' {
                    break;
                }
                let mut lo = k - 1;
                while lo > 0 && (b[lo - 1].is_ascii_alphanumeric() || b[lo - 1] == b'_') {
                    lo -= 1;
                }
                if lo == k - 1 {
                    break; // bare `<` (comparison), not a generic wrapper
                }
                k = lo;
            }
            if k == 0 || b[k - 1] != b':' {
                continue; // e.g. `Mutex::new(…)` initializer — not a decl
            }
            // Skip a second ':' so `std::sync::Mutex<…>` paths (`c::Mutex<`)
            // are not mistaken for declarations.
            if k >= 2 && b[k - 2] == b':' {
                continue;
            }
            let name = ident_before(&f.masked, k - 1);
            if !name.is_empty() {
                out.push(LockDecl {
                    name: name.to_string(),
                    line: f.line_of(at),
                });
            }
        }
    }
    out
}

fn collect_atomic_idents(f: &SourceFile) -> Vec<String> {
    let mut out = Vec::new();
    // `Atomic` is always a prefix (AtomicU64, AtomicBool, …), so search
    // raw substring occurrences whose previous char is not an identifier.
    let b = f.masked.as_bytes();
    let mut from = 0;
    while let Some(p) = f.masked[from..].find("Atomic") {
        let at = from + p;
        from = at + "Atomic".len();
        if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
            continue;
        }
        let mut k = at;
        while k > 0 && b[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        let name = match k {
            _ if k > 0 && b[k - 1] == b':' && !(k >= 2 && b[k - 2] == b':') => {
                // `ident: AtomicU64` field/static/typed-let ascription
                // (single colon only — `atomic::AtomicU64` paths are uses).
                ident_before(&f.masked, k - 1)
            }
            _ if k > 0 && b[k - 1] == b'=' => {
                // `let ident = AtomicU64::new(…)`
                let mut j = k - 1;
                while j > 0 && b[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                ident_before(&f.masked, j)
            }
            _ => "",
        };
        if !name.is_empty() && name != "mut" {
            out.push(name.to_string());
        }
    }
    out
}

/// Renders the registry as the markdown table the README embeds between
/// the `dcn-env` markers (and `--env-table` prints).
pub fn env_table(entries: &[EnvEntry]) -> String {
    let mut s = String::from("| Variable | Default | Description |\n|---|---|---|\n");
    for e in entries {
        s.push_str(&format!("| `{}` | {} | {} |\n", e.name, e.default, e.doc));
    }
    s
}

/// Parses the env registry: every `const IDENT: … = … { "name", "default",
/// "doc" };` statement yields an [`EnvEntry`] from its first three string
/// literals (the `EnvVar` field order, `name` first, is load-bearing).
pub fn parse_env_registry(f: &SourceFile) -> Vec<EnvEntry> {
    let mut out = Vec::new();
    for at in word_occurrences(&f.masked, "const") {
        if f.in_test_region(at) {
            continue;
        }
        let ident: String = f.masked[at + 5..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || ident == "ALL" {
            continue;
        }
        // The initializer is a brace literal; its strings are the fields.
        let Some(rel_open) = f.masked[at..].find(['{', ';']) else {
            continue;
        };
        let open = at + rel_open;
        if f.masked.as_bytes()[open] != b'{' {
            continue; // e.g. `const N: usize = 4;`
        }
        let Some(close) = crate::scan::match_brace(&f.masked, open) else {
            continue;
        };
        let lits: Vec<&str> = f
            .strings
            .iter()
            .filter(|s| s.start > open && s.start < close)
            .map(|s| s.value.as_str())
            .collect();
        if lits.is_empty() {
            continue;
        }
        out.push(EnvEntry {
            ident,
            name: lits.first().copied().unwrap_or("").to_string(),
            default: lits.get(1).copied().unwrap_or("").to_string(),
            doc: lits.get(2).copied().unwrap_or("").to_string(),
            line: f.line_of(at),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel.into(), src.into())
    }

    #[test]
    fn finds_fns_with_visibility() {
        let f = file(
            "crates/lp/src/x.rs",
            "pub fn a() { body(); }\nfn b() {}\npub(crate) fn c() {}\ntrait T { fn d(&self); }\n",
        );
        let fns = collect_fns(&f);
        let names: Vec<(&str, bool)> = fns.iter().map(|d| (d.name.as_str(), d.is_pub)).collect();
        assert_eq!(names, [("a", true), ("b", false), ("c", false)]);
        assert!(f.masked[fns[0].body_start..fns[0].body_end].contains("body()"));
    }

    #[test]
    fn finds_lock_and_atomic_decls() {
        let src = "struct S {\n    drained: Mutex<Vec<u8>>,\n    shards: Vec<RwLock<u8>>,\n\
                   \x20   total: AtomicU64,\n}\n\
                   static REGISTRY: Mutex<u8> = Mutex::new(0);\n\
                   fn f() { let stop = AtomicBool::new(false); let x = std::sync::Mutex::new(0); }\n";
        let f = file("crates/obs/src/x.rs", src);
        let idx = index_file(&f);
        let locks: Vec<&str> = idx.lock_decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(locks, ["drained", "REGISTRY", "shards"], "{idx:?}");
        assert_eq!(idx.atomic_idents, ["total", "stop"]);
    }

    #[test]
    fn parses_env_registry_entries() {
        let src = "pub struct EnvVar { pub name: &'static str }\n\
                   pub const OBS: EnvVar = EnvVar {\n\
                   \x20   name: \"DCN_OBS\",\n\
                   \x20   default: \"off\",\n\
                   \x20   doc: \"Observability mode.\",\n\
                   };\n\
                   pub const ALL: &[&EnvVar] = &[&OBS];\n";
        let f = file(ENV_REGISTRY_REL, src);
        let entries = parse_env_registry(&f);
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(entries[0].ident, "OBS");
        assert_eq!(entries[0].name, "DCN_OBS");
        assert_eq!(entries[0].default, "off");
        assert_eq!(entries[0].doc, "Observability mode.");
    }
}
