//! Fixture: an unregistered DCN_* literal.

/// Fixture: documented name of a variable the registry does not know.
pub fn mystery() -> &'static str {
    "DCN_MYSTERY_KNOB"
}

/// Fixture: registry constants referenced from code so the liveness
/// check holds for the live and misnamed entries.
pub fn touch() -> (&'static str, &'static str) {
    (crate::env::CACHE_DIR.name, crate::env::BAD_NAME.name)
}
