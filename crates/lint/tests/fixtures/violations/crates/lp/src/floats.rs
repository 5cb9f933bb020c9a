//! Fixture: the three exact float comparisons, and one under a bare allow.

/// Fixture: documented exact zero test.
pub fn is_zero(x: f64) -> bool {
    x == 0.0
}

/// Fixture: documented exact nonzero test.
pub fn is_nonzero(x: f64) -> bool {
    x != 0.0
}

/// Fixture: documented exact one test.
pub fn is_one(x: f64) -> bool {
    x == 1.0
}

/// Fixture: documented exact zero test with an unjustified allow.
pub fn is_zero_annotated(x: f64) -> bool {
    // dcn-lint: allow(float-eq)
    x == 0.0
}
