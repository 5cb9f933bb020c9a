//! The rule engine: seven domain invariants plus the allow-annotation
//! escape hatch (nine rule ids in all).
//!
//! The generic invariants (panic-freedom, doc coverage, no `unsafe`, and
//! the clock/thread/process/raw-env bans) are rustc and clippy lints,
//! configured by `[workspace.lints]` in the root `Cargo.toml`, the
//! panic-free crate roots and `clippy.toml`. What remains here needs
//! workspace knowledge no native lint has: float tolerances, budgets on
//! solver loops, the metric and env registries, and the lock discipline.
//!
//! The engine is **two-pass** (DESIGN.md §14). Pass 1 builds a
//! [`WorkspaceIndex`](crate::index::WorkspaceIndex) over the lossy
//! per-file scan: `fn` bodies, identifiers declared with
//! `Mutex`/`RwLock`/`Atomic*` types, and the `dcn_guard::env` registry.
//! Pass 2 runs the per-file rules against that index, then the registry
//! rules, which need the whole file set.
//!
//! Every rule emits [`Diagnostic`]s anchored to `file:line`. A diagnostic
//! can be suppressed by an inline annotation on the same line or the line
//! directly above:
//!
//! ```text
//! // dcn-lint: allow(<rule-id>) — why this site is exempt
//! ```
//!
//! The justification after the rule name is mandatory (at least
//! [`MIN_JUSTIFICATION`] characters); an allow without one is itself a
//! violation (`allow-justification`), and an allow that suppresses
//! nothing is reported as `unused-allow` so stale annotations cannot
//! accumulate.

use crate::index::{self, FileIndex, WorkspaceIndex};
use crate::scan::{match_brace, word_occurrences, SourceFile};

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `float-eq`).
    pub rule: &'static str,
    /// Path relative to the lint root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Rule metadata for `--list-rules` and documentation.
pub struct RuleInfo {
    /// Rule identifier.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The built-in rule set.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "float-eq",
        summary: "no ==/!= against float literals in solver code; use dcn_guard::tol helpers",
    },
    RuleInfo {
        id: "budget-coverage",
        summary: "pub fns with loop/while in solver crates take a &Budget or &SolveCtx parameter; \
                  no legacy (cache, budget) twin tails",
    },
    RuleInfo {
        id: "metric-registry",
        summary: "metric/span names come from dcn_obs::names constants; constants must be used",
    },
    RuleInfo {
        id: "lock-order",
        summary: "nested guard acquisitions follow the declared order \
                  REGISTRY → SPANS → drained → shards (shard self-nesting only in cache)",
    },
    RuleInfo {
        id: "blocking-under-lock",
        summary: "no file I/O, process spawns, sleeps, or channel recv while a lock guard \
                  is live in obs/trace/cache/exec",
    },
    RuleInfo {
        id: "atomic-ordering",
        summary: "every atomic load/store/swap/fetch_*/compare_exchange names a literal \
                  Ordering; SeqCst outside exec needs a justified allow",
    },
    RuleInfo {
        id: "env-registry",
        summary: "DCN_* literals are registered in dcn_guard::env; registered vars must be \
                  DCN_-named, unique, live, and mirrored in the README table",
    },
    RuleInfo {
        id: "allow-justification",
        summary: "every dcn-lint allow annotation carries a written justification",
    },
    RuleInfo {
        id: "unused-allow",
        summary: "allow annotations that suppress nothing must be removed",
    },
];

/// Crates whose library code must be tolerance-disciplined and
/// budget-covered (the solver crates of the TUB pipeline).
pub const SOLVER_CRATES: &[&str] = &[
    "lp",
    "mcf",
    "graph",
    "match",
    "partition",
    "core",
    "estimators",
];

/// The workspace's declared global lock-acquisition order, outermost
/// first: the obs metric registry, then the obs span table, then the
/// trace drain buffer, then a cache shard (DESIGN.md §14). A nested
/// acquisition must name a strictly later symbol than every guard still
/// live around it. Ranks are indices into this table.
pub const LOCK_ORDER: &[&str] = &["REGISTRY", "SPANS", "drained", "shards"];

/// Crates scanned by the guard-region rules (`lock-order` and
/// `blocking-under-lock`): the concurrent service crates that own or
/// drive the ordered locks. Solver crates hold no locks at all (clippy's
/// `disallowed-methods` already keeps threads out of them).
pub const LOCK_CRATES: &[&str] = &["obs", "trace", "cache", "exec"];

/// Crates allowed to use `Ordering::SeqCst`: only the fan-out engine,
/// where cross-thread shutdown handoff could conceivably need it. The
/// workspace's other atomics are monotone counters and latched flags,
/// for which `Relaxed` (or `Acquire`/`Release` for payload handoff) is
/// sufficient — a stray `SeqCst` usually hides a missing happens-before
/// argument rather than supplying one.
pub const SEQCST_CRATES: &[&str] = &["exec"];

/// Minimum justification length (characters after the allow's rule list).
pub const MIN_JUSTIFICATION: usize = 8;

const ANNOTATION: &str = "dcn-lint: allow(";

/// A parsed `// dcn-lint: allow(rule, …) — justification` annotation.
#[derive(Debug)]
struct Allow {
    file_idx: usize,
    line: usize,
    rules: Vec<String>,
    justified: bool,
    used: std::cell::Cell<bool>,
}

/// Scans every file for allow annotations.
///
/// An occurrence only counts as an annotation when it (a) sits inside a
/// comment — masked out by the scanner but not part of a string literal —
/// and (b) names at least one known rule id. Both filters exist so the
/// linter can lint its own sources: doc-comment examples use placeholder
/// rule names and test corpora embed annotations in string literals.
fn collect_allows(files: &[SourceFile]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let mut from = 0;
        while let Some(p) = f.raw[from..].find(ANNOTATION) {
            let at = from + p;
            from = at + ANNOTATION.len();
            let in_string = f
                .strings
                .iter()
                .any(|s| s.start < at && at < s.start + 1 + s.value.len());
            let in_comment = f.masked.as_bytes()[at] == b' ' && !in_string;
            if !in_comment {
                continue;
            }
            let line_end = f.raw[at..].find('\n').map_or(f.raw.len(), |e| at + e);
            let after = &f.raw[at + ANNOTATION.len()..line_end];
            let Some(close) = after.find(')') else {
                continue;
            };
            let rules: Vec<String> = after[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| RULES.iter().any(|info| info.id == r))
                .collect();
            if rules.is_empty() {
                continue;
            }
            let justification = after[close + 1..]
                .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
                .trim();
            allows.push(Allow {
                file_idx: fi,
                line: f.line_of(at),
                rules,
                justified: justification.chars().count() >= MIN_JUSTIFICATION,
                used: std::cell::Cell::new(false),
            });
        }
    }
    allows
}

/// Result of running all rules over a scanned file set.
pub struct Outcome {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of justified allow annotations that suppressed a finding.
    pub allows_honored: usize,
}

/// Runs every rule over a scanned file set, applies allow annotations,
/// and appends the annotation-hygiene diagnostics. `readme` is the
/// README text for the env-table drift check (`None` skips it).
pub fn run_all_with(files: &[SourceFile], readme: Option<&str>) -> Outcome {
    let index = WorkspaceIndex::build(files, files.iter().map(index::index_file).collect());
    let mut raw = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        raw.extend(per_file_diags(f, fi, &index));
    }
    raw.extend(cross_file_diags(files, &index, readme));
    finish(files, raw)
}

/// Pass 2, per-file portion: every rule whose verdict depends only on one
/// file plus the read-only pass-1 index.
fn per_file_diags(f: &SourceFile, fi: usize, index: &WorkspaceIndex) -> Vec<Diagnostic> {
    let mut d = Vec::new();
    float_eq(std::slice::from_ref(f), &mut d);
    budget_coverage_file(f, &index.files[fi], &mut d);
    lock_order(f, index, &mut d);
    blocking_under_lock(f, index, &mut d);
    atomic_ordering(f, index, &mut d);
    d
}

/// Pass 2, cross-file portion: the registry rules, which relate
/// definition sites to every use site in the tree (both directions) and
/// so cannot be evaluated one file at a time.
fn cross_file_diags(
    files: &[SourceFile],
    index: &WorkspaceIndex,
    readme: Option<&str>,
) -> Vec<Diagnostic> {
    let mut d = Vec::new();
    metric_registry(files, &mut d);
    env_registry(files, index, readme, &mut d);
    d
}

/// Applies allow annotations to the raw findings, appends the
/// annotation-hygiene diagnostics, and sorts/dedups into the final
/// report order.
fn finish(files: &[SourceFile], raw_diags: Vec<Diagnostic>) -> Outcome {
    let allows = collect_allows(files);
    let file_index = |rel: &str| files.iter().position(|f| f.rel == rel);
    let mut diagnostics = Vec::new();
    let mut allows_honored = 0usize;
    for d in raw_diags {
        let fi = file_index(&d.file);
        // A same-line annotation takes precedence over one on the line above.
        let matches_at = |a: &&Allow, line: usize| {
            Some(a.file_idx) == fi && a.line == line && a.rules.iter().any(|r| r == d.rule)
        };
        let allow = allows
            .iter()
            .find(|a| matches_at(a, d.line))
            .or_else(|| allows.iter().find(|a| matches_at(a, d.line.saturating_sub(1))));
        match allow {
            Some(a) if a.justified => {
                if !a.used.get() {
                    allows_honored += 1;
                }
                a.used.set(true);
            }
            Some(a) => {
                // Unjustified allow: the annotation "uses" itself (so it is
                // not double-reported as unused) but the finding survives
                // alongside an allow-justification error.
                a.used.set(true);
                diagnostics.push(Diagnostic {
                    rule: "allow-justification",
                    file: d.file.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) has no written justification (need ≥ {MIN_JUSTIFICATION} chars)",
                        d.rule
                    ),
                });
                diagnostics.push(d);
            }
            None => diagnostics.push(d),
        }
    }
    for a in &allows {
        if !a.used.get() {
            diagnostics.push(Diagnostic {
                rule: "unused-allow",
                file: files[a.file_idx].rel.clone(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing; remove the stale annotation",
                    a.rules.join(", ")
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    diagnostics.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Outcome {
        diagnostics,
        allows_honored,
    }
}

fn push(diags: &mut Vec<Diagnostic>, rule: &'static str, f: &SourceFile, off: usize, msg: String) {
    diags.push(Diagnostic {
        rule,
        file: f.rel.clone(),
        line: f.line_of(off),
        message: msg,
    });
}

/// True when this file is library code of a solver crate (the scope of
/// float-eq and budget-coverage).
fn solver_library(f: &SourceFile) -> bool {
    f.krate
        .as_deref()
        .is_some_and(|k| SOLVER_CRATES.contains(&k))
        && !f.is_test_code
        && !f.is_bin
}

// ---------------------------------------------------------------------------
// Rule: float-eq

/// True when `tok` looks like a float literal: starts with a digit and has
/// a decimal point, an exponent, or an explicit f32/f64 suffix.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_end_matches(')').trim_start_matches('(');
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    t.contains('.') || t.ends_with("f32") || t.ends_with("f64") || {
        // 1e-9 exponent form
        t.bytes()
            .zip(t.bytes().skip(1))
            .any(|(a, b)| (a == b'e' || a == b'E') && (b.is_ascii_digit() || b == b'-'))
    }
}

fn float_eq(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for f in files.iter().filter(|f| solver_library(f)) {
        let b = f.masked.as_bytes();
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(p) = f.masked[from..].find(op) {
                let at = from + p;
                from = at + op.len();
                // Exclude <=, >=, =>, === (not Rust, but cheap to guard).
                let prev = at.checked_sub(1).map(|i| b[i]);
                if matches!(prev, Some(b'<' | b'>' | b'=' | b'!')) || b.get(at + 2) == Some(&b'=') {
                    continue;
                }
                if f.in_test_region(at) {
                    continue;
                }
                // Token to the right.
                let right: String = f.masked[at + op.len()..]
                    .trim_start()
                    .chars()
                    .take_while(|c| !c.is_whitespace() && *c != ';' && *c != ',' && *c != '{')
                    .collect();
                // Token to the left.
                let left_end = f.masked[..at].trim_end().len();
                let left_start = f.masked[..left_end]
                    .rfind(|c: char| c.is_whitespace() || c == '(' || c == ',')
                    .map_or(0, |i| i + 1);
                let left = &f.masked[left_start..left_end];
                if is_float_literal(&right) || is_float_literal(left) {
                    push(
                        diags,
                        "float-eq",
                        f,
                        at,
                        format!(
                            "exact `{op}` against a float literal; throughputs are only \
                             meaningful to a tolerance — use dcn_guard::tol::approx_eq/approx_zero"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: budget-coverage

/// Serial wrapper over [`budget_coverage_file`] (tests and embedders);
/// the driver passes the pass-1 index instead of re-deriving it.
#[cfg(test)]
fn budget_coverage(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for f in files {
        budget_coverage_file(f, &index::index_file(f), diags);
    }
}

fn budget_coverage_file(f: &SourceFile, fidx: &FileIndex, diags: &mut Vec<Diagnostic>) {
    if !solver_library(f) {
        return;
    }
    for def in &fidx.fns {
        if !def.is_pub || f.in_test_region(def.sig_start) {
            continue;
        }
        let sig = &f.masked[def.sig_start..def.body_start];
        // The pre-SolveCtx twin tail: a signature taking both a cache
        // handle and a budget by hand. One parameter (`&SolveCtx`) now
        // carries both; any survivor is a migration leftover.
        if sig.contains("CacheHandle") && sig.contains("Budget") {
            push(
                diags,
                "budget-coverage",
                f,
                def.sig_start,
                format!(
                    "`pub fn {}` takes the legacy `(cache: &CacheHandle, \
                     budget: &Budget)` twin tail; collapse it into a single \
                     `ctx: &SolveCtx` parameter (dcn_cache::SolveCtx)",
                    def.name
                ),
            );
            continue;
        }
        let body = &f.masked[def.body_start..def.body_end];
        let has_loop = !word_occurrences(body, "while").is_empty()
            || word_occurrences(body, "loop")
                .iter()
                .any(|&p| body[p + 4..].trim_start().starts_with('{'));
        if !has_loop || sig.contains("Budget") || sig.contains("SolveCtx") {
            continue;
        }
        push(
            diags,
            "budget-coverage",
            f,
            def.sig_start,
            format!(
                "`pub fn {}` contains a loop/while but does not take a \
                 &Budget/BudgetMeter/&SolveCtx; thread a budget through \
                 (call sites without one use \
                 dcn_cache::prelude::unlimited_ctx()) — bounded loops may \
                 carry a justified allow",
                def.name
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule: metric-registry

const METRIC_MACROS: &[&str] = &["counter", "gauge", "histogram", "span"];

fn metric_registry(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let names_rel = "crates/obs/src/names.rs";
    let Some(names_file) = files.iter().find(|f| f.rel == names_rel) else {
        // No registry in this tree (e.g. a fixture without one): nothing to
        // check against, and raw names have nowhere to live — skip quietly.
        return;
    };
    // Parse `pub const IDENT: &str = "value";` entries.
    let mut registry: Vec<(String, String, usize)> = Vec::new(); // (ident, value, line)
    for at in word_occurrences(&names_file.masked, "const") {
        let ident: String = names_file.masked[at + 5..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || ident == "ALL" {
            continue;
        }
        // The value is the first string literal after the ident.
        let Some(lit) = names_file.strings.iter().find(|s| s.start > at) else {
            continue;
        };
        // Only accept it if it is on the same statement (before the next
        // `;`), so ALL-table entries are not misattributed.
        if let Some(semi) = names_file.masked[at..].find(';') {
            if lit.start > at + semi {
                continue;
            }
        }
        registry.push((ident, lit.value.clone(), names_file.line_of(at)));
    }
    // Convention + uniqueness of registered names.
    let mut seen = std::collections::BTreeMap::new();
    for (ident, value, line) in &registry {
        let well_formed = value.split('.').count() >= 2
            && !value.starts_with('.')
            && !value.ends_with('.')
            && !value.contains("..")
            && value
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
        if !well_formed {
            push(
                diags,
                "metric-registry",
                names_file,
                names_file.line_starts[line - 1],
                format!("`{ident}` = \"{value}\" violates the <crate>.<module>.<event> convention"),
            );
        }
        if let Some(first) = seen.insert(value.clone(), ident.clone()) {
            push(
                diags,
                "metric-registry",
                names_file,
                names_file.line_starts[line - 1],
                format!("`{ident}` duplicates the name \"{value}\" already registered as `{first}`"),
            );
        }
    }
    // Call sites: no raw strings, and path args must resolve to a constant.
    // Shared by the metric macros and the `trace_instant` fn-call form.
    fn check_arg(
        diags: &mut Vec<Diagnostic>,
        used: &mut std::collections::BTreeSet<String>,
        idents: &std::collections::BTreeSet<&str>,
        f: &SourceFile,
        at: usize,
        arg_off: usize,
        what: &str,
    ) {
        let arg = f.masked[arg_off..].trim_start();
        if arg.starts_with('"') {
            push(
                diags,
                "metric-registry",
                f,
                at,
                format!(
                    "raw string passed to {what}; metric names must come from \
                     dcn_obs::names so manifests and EXPERIMENTS.md stay in sync"
                ),
            );
            return;
        }
        // Last path segment of the argument.
        let path: String = arg
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ':')
            .collect();
        let last = path.rsplit("::").next().unwrap_or("").to_string();
        if last.is_empty() {
            return; // expression arg (e.g. a local); out of scope
        }
        if idents.contains(last.as_str()) {
            used.insert(last);
        } else {
            push(
                diags,
                "metric-registry",
                f,
                at,
                format!("`{last}` is not a constant in crates/obs/src/names.rs"),
            );
        }
    }
    let idents: std::collections::BTreeSet<&str> =
        registry.iter().map(|(i, _, _)| i.as_str()).collect();
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for f in files.iter().filter(|f| f.krate.is_some() && !f.is_test_code) {
        for &mac in METRIC_MACROS {
            let mut from = 0;
            while let Some(p) = f.masked[from..].find(mac) {
                let at = from + p;
                from = at + mac.len();
                let pre_ok = at == 0
                    || !f.masked.as_bytes()[at - 1].is_ascii_alphanumeric()
                        && f.masked.as_bytes()[at - 1] != b'_';
                let after = &f.masked[at + mac.len()..];
                if !pre_ok || !after.starts_with("!(") || f.in_test_region(at) {
                    continue;
                }
                let arg_off = at + mac.len() + 2;
                check_arg(diags, &mut used, &idents, f, at, arg_off, &format!("{mac}!"));
            }
        }
        // `dcn_obs::trace_instant("…")` is a plain fn call rather than a
        // macro, but its argument names a trace event all the same — hold
        // it to the registry. The `fn trace_instant(…)` definition in obs
        // itself is not a call site.
        const INSTANT: &str = "trace_instant";
        for at in word_occurrences(&f.masked, INSTANT) {
            if f.in_test_region(at) || f.masked[..at].trim_end().ends_with("fn") {
                continue;
            }
            if !f.masked[at + INSTANT.len()..].starts_with('(') {
                continue;
            }
            let arg_off = at + INSTANT.len() + 1;
            check_arg(diags, &mut used, &idents, f, at, arg_off, "trace_instant()");
        }
    }
    // Reverse direction: every constant must be referenced outside
    // names.rs (in any non-test file, including the macro sites above and
    // plain fn-call uses such as counter_value(names::X)).
    for f in files
        .iter()
        .filter(|f| f.rel != names_rel && f.krate.is_some() && !f.is_test_code)
    {
        for (ident, _, _) in &registry {
            if used.contains(ident) {
                continue;
            }
            if !word_occurrences(&f.masked, ident).is_empty() {
                used.insert(ident.clone());
            }
        }
    }
    for (ident, value, line) in &registry {
        if !used.contains(ident) {
            push(
                diags,
                "metric-registry",
                names_file,
                names_file.line_starts[line - 1],
                format!(
                    "dead metric: `{ident}` (\"{value}\") is registered but never used \
                     at any call site"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Guard regions (shared by lock-order and blocking-under-lock)

/// One classified guard acquisition: byte offset of the call, the end of
/// the region over which the guard is assumed live, and the symbol's
/// rank in [`LOCK_ORDER`].
struct Acquisition {
    off: usize,
    region_end: usize,
    rank: usize,
}

/// End of the statement containing masked offset `from`: one past the
/// next `;` at balanced bracket depth, or the closing bracket of the
/// enclosing block/call if that comes first (tail expressions).
fn statement_end(masked: &str, from: usize) -> usize {
    let b = masked.as_bytes();
    let mut depth = 0u32;
    for (i, &c) in b.iter().enumerate().skip(from) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    b.len()
}

/// One past the closing `}` of the innermost block enclosing masked
/// offset `at` (the whole file when `at` is at the top level).
fn enclosing_block_end(masked: &str, at: usize) -> usize {
    let b = masked.as_bytes();
    let mut stack: Vec<usize> = Vec::new();
    for (i, &c) in b.iter().enumerate().take(at) {
        match c {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
    }
    match stack.last() {
        Some(&open) => match_brace(masked, open).unwrap_or(masked.len()),
        None => masked.len(),
    }
}

/// Collects the guard acquisitions of one file, sorted by offset.
///
/// A `.lock(`/`.read(`/`.write(` call counts as an acquisition only when
/// the statement chunk leading up to it (back to the previous `;`, `{`,
/// or `}`) names a [`LOCK_ORDER`] symbol that pass 1 actually found
/// declared with a `Mutex`/`RwLock` type somewhere in the tree — this is
/// what keeps `io::Read::read` and `Disk::store`-style methods from
/// being classified as locking. `let`-bound guards are assumed live to
/// the end of the innermost enclosing block; temporaries to the end of
/// the statement. Guards returned from helper fns escape this analysis
/// (documented trade-off, DESIGN.md §14).
fn guard_acquisitions(f: &SourceFile, index: &WorkspaceIndex) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for call in [".lock(", ".read(", ".write("] {
        let mut from = 0;
        while let Some(p) = f.masked[from..].find(call) {
            let at = from + p;
            from = at + call.len();
            if f.in_test_region(at) {
                continue;
            }
            let stmt_start = f.masked[..at].rfind([';', '{', '}']).map_or(0, |i| i + 1);
            let chunk = &f.masked[stmt_start..at];
            let hit = LOCK_ORDER
                .iter()
                .enumerate()
                .filter(|&(_, sym)| index.lock_idents.contains(*sym))
                .filter_map(|(rank, sym)| word_occurrences(chunk, sym).last().map(|&p| (p, rank)))
                .max_by_key(|&(p, _)| p);
            let Some((_, rank)) = hit else {
                continue;
            };
            let region_end = if word_occurrences(chunk, "let").is_empty() {
                statement_end(&f.masked, at)
            } else {
                enclosing_block_end(&f.masked, at)
            };
            out.push(Acquisition {
                off: at,
                region_end,
                rank,
            });
        }
    }
    out.sort_unstable_by_key(|a| a.off);
    out
}

/// True when the guard-region rules apply to this file.
fn lock_scope(f: &SourceFile) -> bool {
    f.krate
        .as_deref()
        .is_some_and(|k| LOCK_CRATES.contains(&k))
        && !f.is_test_code
}

// ---------------------------------------------------------------------------
// Rule: lock-order

fn lock_order(f: &SourceFile, index: &WorkspaceIndex, diags: &mut Vec<Diagnostic>) {
    if !lock_scope(f) {
        return;
    }
    let in_cache = f.krate.as_deref() == Some("cache");
    let acqs = guard_acquisitions(f, index);
    for (i, outer) in acqs.iter().enumerate() {
        for inner in &acqs[i + 1..] {
            if inner.off >= outer.region_end {
                continue;
            }
            // Re-acquiring a different shard by index is the one legal
            // self-nesting, and only inside the crate that owns the
            // shard array and can prove index disjointness.
            let shard_self = inner.rank == outer.rank
                && LOCK_ORDER[inner.rank] == "shards"
                && in_cache;
            if inner.rank > outer.rank || shard_self {
                continue;
            }
            push(
                diags,
                "lock-order",
                f,
                inner.off,
                format!(
                    "`{}` (rank {}) acquired while a `{}` (rank {}) guard is live; the \
                     declared acquisition order is {} — release the outer guard (or \
                     copy what you need out of it) before taking this one",
                    LOCK_ORDER[inner.rank],
                    inner.rank,
                    LOCK_ORDER[outer.rank],
                    outer.rank,
                    LOCK_ORDER.join(" → "),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: blocking-under-lock

/// Substring patterns treated as blocking calls when they appear inside
/// a guard region. `sleep` is handled separately (word-bounded).
const BLOCKING_CALLS: &[&str] = &["fs::", "File::", "OpenOptions", "Command::new", ".recv("];

fn blocking_under_lock(f: &SourceFile, index: &WorkspaceIndex, diags: &mut Vec<Diagnostic>) {
    if !lock_scope(f) {
        return;
    }
    for acq in &guard_acquisitions(f, index) {
        let region = &f.masked[acq.off..acq.region_end];
        let sym = LOCK_ORDER[acq.rank];
        for pat in BLOCKING_CALLS {
            let mut from = 0;
            while let Some(p) = region[from..].find(pat) {
                let at = acq.off + from + p;
                from += p + pat.len();
                if f.in_test_region(at) {
                    continue;
                }
                push(
                    diags,
                    "blocking-under-lock",
                    f,
                    at,
                    format!(
                        "`{pat}…` while a `{sym}` guard is live; every other thread \
                         touching `{sym}` stalls behind this call — serialize what you \
                         need into a local under the guard, release it, then block"
                    ),
                );
            }
        }
        for &p in &word_occurrences(region, "sleep") {
            if !region[p + "sleep".len()..].starts_with('(') {
                continue;
            }
            let at = acq.off + p;
            if f.in_test_region(at) {
                continue;
            }
            push(
                diags,
                "blocking-under-lock",
                f,
                at,
                format!(
                    "`sleep(…)` while a `{sym}` guard is live; sleeping under a lock \
                     turns a backoff into a convoy — release the guard first"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: atomic-ordering

/// One past the `)` matching the `(` at `open`.
fn match_paren(masked: &str, open: usize) -> Option<usize> {
    let b = masked.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

fn atomic_ordering(f: &SourceFile, index: &WorkspaceIndex, diags: &mut Vec<Diagnostic>) {
    if f.krate.is_none() || f.is_test_code {
        return;
    }
    // (a) Read-modify-write methods are unambiguously atomic whatever the
    // receiver: `.fetch_*` and `.compare_exchange{,_weak}` must name
    // literal `Ordering::` arguments (two for compare-exchange).
    for (prefix, needed) in [(".fetch_", 1usize), (".compare_exchange", 2)] {
        let mut from = 0;
        while let Some(p) = f.masked[from..].find(prefix) {
            let at = from + p;
            from = at + prefix.len();
            let b = f.masked.as_bytes();
            let mut open = at + prefix.len();
            while open < b.len() && (b[open].is_ascii_alphanumeric() || b[open] == b'_') {
                open += 1;
            }
            if b.get(open) != Some(&b'(') || f.in_test_region(at) {
                continue;
            }
            let method = &f.masked[at + 1..open];
            let Some(close) = match_paren(&f.masked, open) else {
                continue;
            };
            let found = f.masked[open..close].matches("Ordering::").count();
            if found < needed {
                push(
                    diags,
                    "atomic-ordering",
                    f,
                    at,
                    format!(
                        "`.{method}(…)` names {found} explicit `Ordering::…` argument(s), \
                         need {needed}; spell the ordering out at the call site — it is \
                         part of the concurrency contract, not a default"
                    ),
                );
            }
        }
    }
    // (b) `.load`/`.store`/`.swap` are ambiguous method names; they are
    // held to the same requirement only when the receiver identifier is
    // one pass 1 saw declared with an atomic type (so `disk.store(key,
    // value)` and `io::Write` stay out of scope).
    for prefix in [".load(", ".store(", ".swap("] {
        let mut from = 0;
        while let Some(p) = f.masked[from..].find(prefix) {
            let at = from + p;
            from = at + prefix.len();
            if f.in_test_region(at) {
                continue;
            }
            let recv = index::ident_before(&f.masked, at);
            if recv.is_empty() || !index.atomic_idents.contains(recv) {
                continue;
            }
            let open = at + prefix.len() - 1;
            let Some(close) = match_paren(&f.masked, open) else {
                continue;
            };
            if !f.masked[open..close].contains("Ordering::") {
                let method = prefix.trim_matches(['.', '(']);
                push(
                    diags,
                    "atomic-ordering",
                    f,
                    at,
                    format!(
                        "`{recv}.{method}(…)` on an atomic names no explicit \
                         `Ordering::…`; spell the ordering out at the call site"
                    ),
                );
            }
        }
    }
    // (c) SeqCst containment: outside the fan-out engines it needs a
    // justified allow.
    if !f
        .krate
        .as_deref()
        .is_some_and(|k| SEQCST_CRATES.contains(&k))
    {
        for at in word_occurrences(&f.masked, "SeqCst") {
            if f.in_test_region(at) {
                continue;
            }
            push(
                diags,
                "atomic-ordering",
                f,
                at,
                "`Ordering::SeqCst` outside exec; the workspace's atomics are \
                 counters and latched flags, for which Relaxed (or Acquire/Release \
                 for handoff) suffices — justify with an allow if this site truly \
                 needs a total order"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: env-registry

/// True when `name` follows the `DCN_` upper-snake convention.
fn env_name_ok(name: &str) -> bool {
    name.strip_prefix("DCN_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Marker lines bracketing the generated env-var table in README.md.
pub const ENV_TABLE_BEGIN: &str = "<!-- dcn-env:begin -->";
/// See [`ENV_TABLE_BEGIN`].
pub const ENV_TABLE_END: &str = "<!-- dcn-env:end -->";

fn env_registry(
    files: &[SourceFile],
    index: &WorkspaceIndex,
    readme: Option<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    let env_rel = index::ENV_REGISTRY_REL;
    // No registry in this tree (e.g. a fixture without one): nothing to
    // check against, so skip quietly — same gating as the metric registry.
    if !files.iter().any(|f| f.rel == env_rel) {
        return;
    }
    let entries = &index.env_entries;
    let entry_diag = |line: usize, message: String| Diagnostic {
        rule: "env-registry",
        file: env_rel.to_string(),
        line,
        message,
    };
    // Registered names: convention + uniqueness.
    let mut seen: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
    for e in entries {
        if !env_name_ok(&e.name) {
            diags.push(entry_diag(
                e.line,
                format!(
                    "`{}` registers \"{}\", which violates the DCN_ upper-snake naming \
                     convention every knob shares",
                    e.ident, e.name
                ),
            ));
        }
        if let Some(first) = seen.insert(e.name.as_str(), e.ident.as_str()) {
            diags.push(entry_diag(
                e.line,
                format!(
                    "`{}` duplicates the variable \"{}\" already registered as `{first}`",
                    e.ident, e.name
                ),
            ));
        }
    }
    // Use sites: no unregistered DCN_* names, and every entry referenced
    // somewhere outside the registry. (Raw `std::env::var` reads are
    // clippy's `disallowed-methods`.)
    let names: std::collections::BTreeSet<&str> =
        entries.iter().map(|e| e.name.as_str()).collect();
    let mut used: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for f in files
        .iter()
        .filter(|f| f.krate.is_some() && !f.is_test_code && f.rel != env_rel)
    {
        for s in &f.strings {
            if f.in_test_region(s.start)
                || !env_name_ok(&s.value)
                || names.contains(s.value.as_str())
            {
                continue;
            }
            push(
                diags,
                "env-registry",
                f,
                s.start,
                format!(
                    "\"{}\" looks like a DCN environment variable but is not registered \
                     in dcn_guard::env; register it (name + default + doc line) or move \
                     it out of the DCN_ namespace",
                    s.value
                ),
            );
        }
        for e in entries {
            if !used.contains(e.ident.as_str())
                && !word_occurrences(&f.masked, &e.ident).is_empty()
            {
                used.insert(&e.ident);
            }
        }
    }
    for e in entries {
        if !used.contains(e.ident.as_str()) {
            diags.push(entry_diag(
                e.line,
                format!(
                    "dead env var: `{}` (\"{}\") is registered but never read outside \
                     the registry — delete it or wire it up",
                    e.ident, e.name
                ),
            ));
        }
    }
    // README drift: the generated table between the markers must match
    // the registry exactly.
    if let Some(readme) = readme {
        let readme_diag = |line: usize, message: String| Diagnostic {
            rule: "env-registry",
            file: "README.md".to_string(),
            line,
            message,
        };
        let begin = readme.find(ENV_TABLE_BEGIN);
        let end = readme.find(ENV_TABLE_END);
        let (begin, end) = match (begin, end) {
            (Some(b), Some(e)) if b < e => (b, e),
            _ => {
                diags.push(readme_diag(
                    1,
                    format!(
                        "README.md lacks the `{ENV_TABLE_BEGIN}` / `{ENV_TABLE_END}` \
                         markers; add them and paste the output of \
                         `cargo run -p dcn-lint -- --env-table` between them"
                    ),
                ));
                return;
            }
        };
        let actual: Vec<&str> = readme[begin + ENV_TABLE_BEGIN.len()..end]
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let expected_text = index::env_table(entries);
        let expected: Vec<&str> = expected_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        if actual != expected {
            diags.push(readme_diag(
                readme[..begin].matches('\n').count() + 1,
                "the README environment-variable table no longer matches \
                 dcn_guard::env; regenerate the block with \
                 `cargo run -p dcn-lint -- --env-table`"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel.into(), src.into())
    }

    #[test]
    fn float_literal_classifier() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("1.5e3"));
        assert!(is_float_literal("2f64"));
        assert!(is_float_literal("1e-9"));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal("0"));
        assert!(!is_float_literal("a.0"));
    }

    #[test]
    fn metric_registry_checks_trace_instant_call_sites() {
        let names = file(
            "crates/obs/src/names.rs",
            "pub const CACHE_HIT: &str = \"cache.hit\";\n",
        );
        // The definition site in obs is not a call; constant-arg calls
        // count as uses; raw-string calls are violations.
        let def = file(
            "crates/obs/src/lib.rs",
            "pub fn trace_instant(name: &str) { let _ = name; }\n",
        );
        let good = file(
            "crates/cache/src/a.rs",
            "fn h() { dcn_obs::trace_instant(dcn_obs::names::CACHE_HIT); }\n",
        );
        let bad = file(
            "crates/cache/src/b.rs",
            "fn h() { dcn_obs::trace_instant(\"cache.hit2\"); }\n",
        );
        let mut d = Vec::new();
        metric_registry(&[names, def, good, bad], &mut d);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/cache/src/b.rs");
        assert!(d[0].message.contains("raw string"));
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let f = file(
            "crates/core/src/x.rs",
            "fn a(v: f64) -> bool { v == 0.0 }\nfn b(v: f64) -> bool { v <= 1.0 }\n",
        );
        let mut d = Vec::new();
        float_eq(&[f], &mut d);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn budget_coverage_requires_budget_param_not_sibling() {
        // A `_budgeted` sibling used to satisfy this rule (PR 2's dual-API
        // convention); after the PR 4 collapse only a Budget in the
        // signature counts.
        let src = "pub fn solve(b: &Budget) { loop { } }\n\
                   pub fn free() { while x { } }\n\
                   pub fn covered() { loop { } }\n\
                   fn covered_budgeted(b: &Budget) { }\n";
        let f = file("crates/mcf/src/x.rs", src);
        let mut d = Vec::new();
        budget_coverage(&[f], &mut d);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("free"));
        assert!(d[1].message.contains("covered"));
    }

    #[test]
    fn allow_requires_justification() {
        let src = "fn a(v: f64) -> bool { v == 0.0 } // dcn-lint: allow(float-eq)\n\
                   fn b(v: f64) -> bool { v == 1.0 } // dcn-lint: allow(float-eq) — exact sentinel by construction\n";
        let f = file("crates/lp/src/x.rs", src);
        let out = run_all_with(&[f], None);
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"allow-justification"), "{rules:?}");
        assert!(rules.contains(&"float-eq"));
        assert_eq!(out.allows_honored, 1);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// dcn-lint: allow(float-eq) — no longer needed here\nfn a() {}\n";
        let f = file("crates/lp/src/x.rs", src);
        let out = run_all_with(&[f], None);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, "unused-allow");
    }
}
