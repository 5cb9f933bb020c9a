//! The `budget-coverage` rule and its allow annotations.
//!
//! A finding is suppressed by `// dcn-lint: allow(budget-coverage) — why
//! this loop is bounded` in a plain `//` comment on its line or the line
//! above. The justification is mandatory (at least [`MIN_JUSTIFICATION`]
//! characters; without one the finding stands, next to an
//! `allow-justification` error), and an allow that suppresses nothing,
//! including one naming a rule dcn-lint does not have, is an
//! `unused-allow` error, so stale annotations cannot accumulate.

use crate::scan::{word_occurrences, SourceFile};

/// One finding, anchored to a file and 1-based line.
#[derive(Debug)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `budget-coverage`).
    pub rule: &'static str,
    /// Path relative to the lint root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The solver crates of the TUB pipeline, whose library code (`src/`,
/// not `src/bin/`) must be budget-covered.
const SOLVER_CRATES: [&str; 7] = [
    "lp",
    "mcf",
    "graph",
    "match",
    "partition",
    "core",
    "estimators",
];

/// Minimum justification length (characters after the allow's rule list).
const MIN_JUSTIFICATION: usize = 8;

const BUDGET: &str = "budget-coverage";
const ANNOTATION: &str = "dcn-lint: allow(";

/// One `// dcn-lint: allow(…) — why` annotation.
struct Allow {
    file: String,
    line: usize,
    /// The rule list as written.
    ids: String,
    /// Names `budget-coverage`, the one rule it can suppress.
    budget: bool,
    justified: bool,
    used: bool,
}

/// Runs `budget-coverage` over every file, applies the allow
/// annotations, and appends the annotation-hygiene diagnostics. Returns
/// the diagnostics, sorted by (file, line, rule), and the number of
/// justified allows that suppressed a finding.
pub(crate) fn run(files: &[SourceFile]) -> (Vec<Diagnostic>, usize) {
    let mut allows: Vec<Allow> = files.iter().flat_map(allows_in).collect();
    let mut diagnostics = Vec::new();
    let mut allows_honored = 0;
    for d in files.iter().flat_map(budget_coverage) {
        // A same-line annotation takes precedence over one on the line above.
        let at = |line: usize| {
            allows
                .iter()
                .position(|a| a.budget && a.file == d.file && a.line == line)
        };
        let Some(i) = at(d.line).or_else(|| at(d.line - 1)) else {
            diagnostics.push(d);
            continue;
        };
        let a = &mut allows[i];
        if a.justified {
            allows_honored += usize::from(!a.used);
        } else {
            diagnostics.push(Diagnostic {
                rule: "allow-justification",
                file: a.file.clone(),
                line: a.line,
                message: format!("allow({}) has no written justification", a.ids),
            });
            diagnostics.push(d);
        }
        a.used = true;
    }
    diagnostics.extend(allows.into_iter().filter(|a| !a.used).map(|a| Diagnostic {
        rule: "unused-allow",
        message: format!("allow({}) suppresses nothing; remove it", a.ids),
        file: a.file,
        line: a.line,
    }));
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (diagnostics, allows_honored)
}

/// The allow annotations in `f`'s plain `//` comments (so annotations
/// quoted in strings or doc comments do not count).
fn allows_in(f: &SourceFile) -> Vec<Allow> {
    let mut out = Vec::new();
    for &at in &f.comments {
        let line = &f.raw[at..f.raw[at..].find('\n').map_or(f.raw.len(), |e| at + e)];
        let Some((list, why)) = line
            .split_once(ANNOTATION)
            .and_then(|(_, after)| after.split_once(')'))
        else {
            continue;
        };
        let ids: Vec<&str> = list.split(',').map(str::trim).collect();
        let why = why
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        out.push(Allow {
            file: f.rel.clone(),
            line: f.line_of(at),
            ids: ids.join(", "),
            budget: ids.contains(&BUDGET),
            justified: why.chars().count() >= MIN_JUSTIFICATION,
            used: false,
        });
    }
    out
}

/// `budget-coverage`: in solver library code, a `pub fn` whose body
/// contains `while` or `loop {` takes a `Budget` or `SolveCtx`, and no
/// signature takes both a `CacheHandle` and a `Budget` (the pre-`SolveCtx`
/// twin tail).
fn budget_coverage(f: &SourceFile) -> Vec<Diagnostic> {
    let segs: Vec<&str> = f.rel.split('/').collect();
    if !matches!(segs[..], ["crates", k, "src", ..] if SOLVER_CRATES.contains(&k))
        || segs.contains(&"bin")
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for def in f.fns() {
        if !def.is_pub || f.in_test_region(def.sig_start) {
            continue;
        }
        let sig = &f.masked[def.sig_start..def.body_start];
        let body = &f.masked[def.body_start..def.body_end];
        let message = if sig.contains("CacheHandle") && sig.contains("Budget") {
            "takes the legacy `(cache: &CacheHandle, budget: &Budget)` twin tail; \
             take one `ctx: &SolveCtx` instead"
        } else if (!word_occurrences(body, "while").is_empty()
            || word_occurrences(body, "loop")
                .iter()
                .any(|&p| body[p + 4..].trim_start().starts_with('{')))
            && !sig.contains("Budget")
            && !sig.contains("SolveCtx")
        {
            "loops but takes no `&Budget`/`BudgetMeter`/`&SolveCtx`; thread one \
             through (`dcn_cache::prelude::unlimited_ctx()` where none applies) or \
             justify a bounded loop with an allow"
        } else {
            continue;
        };
        out.push(Diagnostic {
            rule: BUDGET,
            file: f.rel.clone(),
            line: f.line_of(def.sig_start),
            message: format!("`pub fn {}` {message}", def.name),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> (Vec<(&'static str, usize)>, usize) {
        let (diags, honored) = run(&[SourceFile::new("crates/mcf/src/x.rs".into(), src.into())]);
        (diags.iter().map(|d| (d.rule, d.line)).collect(), honored)
    }

    #[test]
    fn budget_coverage_requires_a_budget_in_the_signature() {
        let (found, _) = lint(
            "pub fn solve(b: &Budget) { loop { } }\n\
             pub fn free() { while x { } }\n\
             pub fn covered() { loop { } }\n\
             fn private() { loop { } }\n\
             pub fn twin(c: &CacheHandle, b: &Budget) { }\n\
             pub fn no_loop() { let looped = 1; }\n",
        );
        assert_eq!(found, [(BUDGET, 2), (BUDGET, 3), (BUDGET, 5)]);
    }

    #[test]
    fn allows_need_a_justification_and_a_finding() {
        let (found, honored) = lint(
            "// dcn-lint: allow(budget-coverage)\n\
             pub fn a() { loop { } }\n\
             pub fn b() { loop { } } // dcn-lint: allow(budget-coverage) — bounded by n\n\
             // dcn-lint: allow(budget-coverage) — nothing below loops\n\
             fn c() {}\n\
             // dcn-lint: allow(float-eq) — names a rule dcn-lint does not have\n\
             const S: &str = \"// dcn-lint: allow(budget-coverage)\";\n",
        );
        assert_eq!(
            found,
            [
                ("allow-justification", 1),
                (BUDGET, 2),
                ("unused-allow", 4),
                ("unused-allow", 6)
            ]
        );
        assert_eq!(honored, 1);
    }

    #[test]
    fn only_solver_library_code_is_in_scope() {
        for rel in [
            "crates/obs/src/x.rs",
            "crates/mcf/tests/x.rs",
            "crates/core/src/bin/x.rs",
        ] {
            let f = SourceFile::new(rel.into(), "pub fn free() { while x { } }\n".into());
            assert!(run(&[f]).0.is_empty(), "{rel}");
        }
    }
}
