//! Fixture: an unregistered DCN_* literal kept deliberately, silenced by
//! a justified allow.

/// Fixture: documented name of a variable set only for a child process.
pub fn child_knob() -> &'static str {
    // dcn-lint: allow(env-registry) — fixture: set for a child process, never read here
    "DCN_CHILD_ONLY"
}

/// Fixture: registry constant referenced so the liveness check holds.
pub fn touch() -> &'static str {
    crate::env::CACHE_DIR.name
}
