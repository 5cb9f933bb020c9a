//! Central registry of every `DCN_*` environment variable the workspace
//! reads.
//!
//! Environment variables are configuration surface: README documents
//! them, CI jobs set them, and EXPERIMENTS.md measurements are only
//! reproducible if the knobs they were taken under are identifiable. A
//! raw `std::env::var("DCN_…")` call site used to be able to invent a
//! knob (or typo an existing one) silently. Now clippy's
//! `disallowed-methods` rejects raw reads outside this module, and
//! `dcn-lint`'s `env-registry` rule requires every `DCN_*` name to be
//! one of the [`EnvVar`] constants below and every constant to be read
//! somewhere — so unknown and dead variables both fail CI, exactly as
//! metric names are policed by `dcn_obs::names`.
//!
//! The registry lives in `dcn-obs`, the bottom of the crate stack, so
//! every crate (obs itself included) reads its knobs through
//! `dcn_obs::env` without a dependency cycle. The README's environment-variable table is
//! generated from [`ALL`] (`cargo run -p dcn-lint -- --env-table`) and
//! checked for drift by the same lint rule.
//!
//! Test-only variables (e.g. the fault-injection harness's
//! `DCN_FAULT_TEST_*` hooks) are deliberately not registered: the rule
//! scopes to library/binary code, and test knobs are not user surface.

/// One registered environment variable: its name, a human-readable
/// default, and a one-line description. The `name` field must be the
/// first field textually — the lint registry parser keys on it.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// The variable name, `DCN_` upper-snake (enforced by `dcn-lint`).
    pub name: &'static str,
    /// Human-readable default, for the README table (not parsed).
    pub default: &'static str,
    /// One-line description, for the README table.
    pub doc: &'static str,
}

impl EnvVar {
    /// The variable's value as UTF-8, if set and valid UTF-8.
    #[expect(
        clippy::disallowed_methods,
        reason = "the registry is the one place that reads the environment"
    )]
    pub fn get(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }

    /// The variable's value as an `OsString`, if set (for paths, which
    /// need not be UTF-8).
    #[expect(
        clippy::disallowed_methods,
        reason = "the registry is the one place that reads the environment"
    )]
    pub fn get_os(&self) -> Option<std::ffi::OsString> {
        std::env::var_os(self.name)
    }

    /// The trimmed value parsed as `T`; `None` when unset, empty, or
    /// unparsable — callers supply their own default, keeping "bad value"
    /// and "no value" deliberately indistinguishable (a typo'd knob must
    /// degrade to the default, never abort a run).
    pub fn parsed<T: std::str::FromStr>(&self) -> Option<T> {
        self.get().and_then(|s| s.trim().parse().ok())
    }
}

// --- dcn-obs / dcn-guard ---------------------------------------------------

/// Observability mode.
pub const OBS: EnvVar = EnvVar {
    name: "DCN_OBS",
    default: "off",
    doc: "Observability mode: `off`, `summary` (metrics + span totals on stderr), or `trace` (adds live logging and enables per-event capture).",
};

/// Post-solve certificate validation toggle.
pub const VALIDATE: EnvVar = EnvVar {
    name: "DCN_VALIDATE",
    default: "on in debug builds, off in release",
    doc: "Post-solve certificate validation: `1`/`on`/`true` forces on, `0`/`off`/`false` forces off.",
};

// --- dcn-exec --------------------------------------------------------------

/// Worker-thread count for deterministic pool fan-outs.
pub const EXEC_THREADS: EnvVar = EnvVar {
    name: "DCN_EXEC_THREADS",
    default: "available parallelism",
    doc: "Worker count for every `dcn-exec` parallel fan-out; results are byte-identical at any value, including 1.",
};

// --- dcn-cache -------------------------------------------------------------

/// In-memory cache byte budget.
pub const CACHE_BYTES: EnvVar = EnvVar {
    name: "DCN_CACHE_BYTES",
    default: "268435456 (256 MiB)",
    doc: "In-memory byte budget of the solver result cache; `0` disables caching entirely.",
};

/// Persistent cache tier root.
pub const CACHE_DIR: EnvVar = EnvVar {
    name: "DCN_CACHE_DIR",
    default: "unset (memory-only)",
    doc: "When set, enables the on-disk cache tier rooted at this directory (one JSON record per entry, surviving across processes).",
};

// --- dcn_obs::trace --------------------------------------------------------

/// Chrome trace output path.
pub const TRACE_FILE: EnvVar = EnvVar {
    name: "DCN_TRACE_FILE",
    default: "unset (tracing off unless DCN_OBS=trace)",
    doc: "Chrome `trace_event` JSON output path; setting it enables per-event tracing.",
};

// --- dcn-bench -------------------------------------------------------------

/// Results directory override.
pub const RESULTS_DIR: EnvVar = EnvVar {
    name: "DCN_RESULTS_DIR",
    default: "results/ at the workspace root",
    doc: "Output directory for tables, CSVs, run manifests, and traces.",
};

// --- dcnd ------------------------------------------------------------------

/// Unix socket path the daemon listens on.
pub const DCND_SOCKET: EnvVar = EnvVar {
    name: "DCN_DCND_SOCKET",
    default: "unset (serve stdin/stdout)",
    doc: "When set, `dcnd` listens on this unix socket path instead of serving line-delimited queries over stdin/stdout.",
};

/// Daemon global deadline.
pub const DCND_GLOBAL_DEADLINE_MS: EnvVar = EnvVar {
    name: "DCN_DCND_GLOBAL_DEADLINE_MS",
    default: "unset (unlimited)",
    doc: "Global wall-clock budget for all cold solves in a `dcnd` process, anchored at startup; once exhausted, warm queries still answer from cache and cold queries get a typed `rejected` response (`0` rejects every cold solve immediately).",
};

/// Every registered variable, in README-table order. The lint rule and
/// the `--env-table` generator both key on this list.
pub const ALL: &[&EnvVar] = &[
    &OBS,
    &VALIDATE,
    &EXEC_THREADS,
    &CACHE_BYTES,
    &CACHE_DIR,
    &TRACE_FILE,
    &RESULTS_DIR,
    &DCND_SOCKET,
    &DCND_GLOBAL_DEADLINE_MS,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_and_conventional() {
        let mut seen = std::collections::BTreeSet::new();
        for v in ALL {
            assert!(seen.insert(v.name), "duplicate env var {}", v.name);
            assert!(
                v.name.starts_with("DCN_"),
                "{} lacks the DCN_ prefix",
                v.name
            );
            assert!(
                v.name
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'),
                "{} is not upper-snake",
                v.name
            );
            assert!(!v.doc.is_empty() && !v.default.is_empty());
        }
    }

    #[test]
    fn parsed_trims_and_rejects_garbage() {
        // Use a name no other test reads; set_var is process-global.
        std::env::set_var("DCN_ENVTEST_PARSE", " 42 ");
        let v = super::EnvVar {
            name: "DCN_ENVTEST_PARSE",
            default: "0",
            doc: "test",
        };
        assert_eq!(v.parsed::<u64>(), Some(42));
        std::env::set_var("DCN_ENVTEST_PARSE", "nope");
        assert_eq!(v.parsed::<u64>(), None);
        std::env::remove_var("DCN_ENVTEST_PARSE");
        assert_eq!(v.parsed::<u64>(), None);
        assert!(v.get().is_none());
        assert!(v.get_os().is_none());
    }
}
