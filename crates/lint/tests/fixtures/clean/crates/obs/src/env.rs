//! Fixture: a minimal, fully live env registry.

/// Fixture: one registered environment variable.
pub struct EnvVar {
    /// Fixture: the variable name (first literal — the parser keys on it).
    pub name: &'static str,
    /// Fixture: human-readable default.
    pub default: &'static str,
    /// Fixture: one-line description.
    pub doc: &'static str,
}

/// Fixture: a live, well-formed entry (referenced from reads.rs).
pub const CACHE_DIR: EnvVar = EnvVar {
    name: "DCN_CACHE_DIR",
    default: "unset",
    doc: "Fixture: on-disk cache root.",
};
